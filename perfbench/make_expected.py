"""Regenerate expected.json: the pool of random instances the search and
fdepth workloads draw from, with their exact answers.

    python3 perfbench/make_expected.py

Takes about ten minutes.  Candidates come from POOL_SEED.  Every sdepth
is computed here by an exact-cover search of its own; each request is then
sent through the CLI as run.py sends it, and the benchmark's checker must
accept the answer.  fdepth answers are the program's at BIG_BUDGET;
instances that stay incomplete there are left out, since their answer is
unknown.  The checker bounds them from above by the associated primes;
where the answer meets that bound it is certified without the program.
Each entry keeps the time its request takes, which a run uses only to
sort the pool into cost bins.
"""

import io
import json
import random
import sys
import time
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from stanleydec import cli, filtration  # noqa: E402
from stanleydec.ring import MonomialIdeal, RingContext  # noqa: E402

import check  # noqa: E402
import workloads as wl  # noqa: E402

SEARCH_FREE = 400          # search instances within the request budget
SEARCH_BOUND = 16          # search instances that exhaust it
FDEPTH = 216
MRV_NODES = 200000         # node limit of the independent sdepth search
BIG_BUDGET = 200000        # nodes for fdepth instances incomplete at BUDGET
TIMINGS = 3                # a request's cost is the fastest of this many sends


def ideals(n, inverted, I, J):
    ctx = RingContext(n, frozenset(inverted))
    return MonomialIdeal(ctx, frozenset(I)), MonomialIdeal(ctx, frozenset(J))


def send(req):
    """(exit code, response text, time in ms) of one request sent the way
    run.py sends it."""
    out = io.StringIO()
    t = time.perf_counter()
    code = cli.main(["batch"], io.StringIO(req.line + "\n"), out)
    return code, out.getvalue(), 1000 * (time.perf_counter() - t)


def answer(req):
    """(failure kind, time in ms) of one request.  Raises when the checker
    finds the answer wrong."""
    code, text, cost = send(req)
    kind, problem = check.classify(req, code, json.loads(text))
    if problem:
        raise AssertionError("%s: %s" % (req.line, problem))
    return kind, round(cost, 1)


def retime(pool, log):
    """Set every cost to the fastest of TIMINGS sends, made in rounds over
    the whole pool, so that the drift in the machine's speed, which only
    adds time, reaches every entry alike and leaves their ratios intact."""
    entries = []
    for workload in ("search", "fdepth"):
        command = "sdepth" if workload == "search" else "fdepth"
        ladder = wl.SEARCH_LADDER if workload == "search" else [(n, 1) for n in wl.FDEPTH_LADDER]
        for n, d in ladder:
            I = wl.power_of_maximal(n, d)
            e = pool["fixed"][workload][wl.instance_key(n, (), I, ())]
            entries.append((e, wl.make_request(command, n, (), I, (), {},
                                               options={"budget": wl.BUDGET})))
        for e in pool[workload]:
            I, J = [tuple(map(tuple, e[k])) for k in ("I", "J")]
            entries.append((e, wl.make_request(command, e["n"], e["inverted"], I, J, {},
                                               options={"budget": wl.BUDGET})))
    best = [float("inf")] * len(entries)
    for round_ in range(TIMINGS):
        for i, (_, req) in enumerate(entries):
            best[i] = min(best[i], send(req)[2])
        log("timing round %d of %d done" % (round_ + 1, TIMINGS))
    for (e, _), cost in zip(entries, best):
        e["cost_ms"] = round(cost, 1)


def exact_sdepth(n, inverted, I, J):
    """sdepth of I/J by an exact-cover search that shares no code with the
    program's kernel: it branches on the uncovered element with the
    fewest remaining intervals (Knuth's MRV rule, arXiv cs/0011047), which
    settles in a few nodes the instances the lexicographic search cannot
    finish.  None when it needs more than MRV_NODES nodes."""
    kept = [i for i in range(n) if i not in inverted]
    Ip = [tuple(gen[i] for i in kept) for gen in I]
    Jp = [tuple(gen[i] for i in kept) for gen in J]
    g = tuple(max(gen[i] for gen in Ip + Jp) for i in range(len(kept)))
    elements = [a for a in product(*[range(e + 1) for e in g])
                if any(wl.divides(h, a) for h in Ip) and not any(wl.divides(h, a) for h in Jp)]
    for k in range(len(g), -1, -1):
        found = _partition_exists(elements, g, k)
        if found is None:
            return None
        if found:
            return k + len(inverted)
    raise AssertionError("the singleton partition always exists")


def _partition_exists(elements, g, k):
    """Whether the elements split into intervals [b, c] whose upper corner
    meets g in at least k coordinates; None past MRV_NODES nodes."""
    index = {e: i for i, e in enumerate(elements)}
    containing = [[] for _ in elements]
    for b in elements:
        for c in product(*[range(lo, hi + 1) for lo, hi in zip(b, g)]):
            if sum(x == y for x, y in zip(c, g)) < k:
                continue
            cells = [index.get(x) for x in product(*[range(lo, hi + 1) for lo, hi in zip(b, c)])]
            if None in cells:
                continue
            mask = sum(1 << j for j in cells)
            for j in cells:
                containing[j].append(mask)
    full = (1 << len(elements)) - 1
    nodes = 0

    def search(covered):
        nonlocal nodes
        if covered == full:
            return True
        nodes += 1
        if nodes > MRV_NODES:
            raise TimeoutError
        best = None
        for j in range(len(elements)):
            if not covered >> j & 1:
                fits = [m for m in containing[j] if not m & covered]
                if best is None or len(fits) < len(best):
                    best = fits
                    if len(fits) <= 1:
                        break
        return any(search(covered | m) for m in best)

    try:
        return search(0)
    except TimeoutError:
        return None


def entry(n, inverted, I, J, **fields):
    out = {"key": wl.instance_key(n, inverted, I, J), "n": n, "inverted": list(inverted),
           "I": [list(g) for g in I], "J": [list(g) for g in J]}
    out.update(fields)
    return out


def solve_sdepth(n, inverted, I, J):
    """(exact sdepth or None when unknown, whether the program exhausts the
    request budget, the program's cost in ms)."""
    exact = exact_sdepth(n, inverted, I, J)
    if exact is None:
        return None, None, None
    req = wl.make_request("sdepth", n, inverted, I, J, {"sdepth": exact},
                          options={"budget": wl.BUDGET})
    kind, cost = answer(req)
    if kind not in (check.OK, check.BUDGET):
        raise AssertionError("%s failed with %s" % (req.line, kind))
    return exact, kind == check.BUDGET, cost


def search_pool(rng, log):
    free, bound, seen, unknown = [], [], set(), 0
    while len(free) < SEARCH_FREE or len(bound) < SEARCH_BOUND:
        n, inverted, I, J = wl.search_candidate(rng)
        key = wl.instance_key(n, inverted, I, J)
        if key in seen:
            continue
        seen.add(key)
        value, budget_bound, cost = solve_sdepth(n, inverted, I, J)
        if value is None:
            unknown += 1
            continue
        group = bound if budget_bound else free
        if len(group) < (SEARCH_BOUND if budget_bound else SEARCH_FREE):
            group.append(entry(n, inverted, I, J, sdepth=value, cost_ms=cost,
                               budget_bound=budget_bound))
            if budget_bound:
                log("budget-bound %s: %.0f ms, sdepth %d" % (key, cost, value))
    log("search: scanned %d candidates, %d left out as unknown" % (len(seen), unknown))
    return free + bound


def fdepth_pool(rng, log):
    out, seen, skipped, certified = [], set(), 0, 0
    while len(out) < FDEPTH:
        n, inverted, I, J = wl.fdepth_candidate(rng)
        key = wl.instance_key(n, inverted, I, J)
        if key in seen:
            continue
        seen.add(key)
        res = filtration.fdepth(*ideals(n, inverted, I, J), budget=BIG_BUDGET)
        if not res.complete:
            skipped += 1
            continue
        req = wl.make_request("fdepth", n, inverted, I, J, {"fdepth": res.value},
                              options={"budget": wl.BUDGET})
        certified += res.value == check.associated_prime_bound(req)
        kind, cost = answer(req)
        if kind not in (check.OK, check.INCOMPLETE):
            raise AssertionError("%s failed with %s" % (req.line, kind))
        out.append(entry(n, inverted, I, J, fdepth=res.value, cost_ms=cost,
                         incomplete_at_budget=kind == check.INCOMPLETE))
    log("fdepth: %d instances, %d left out as unknown, %d equal to the associated-prime bound"
        % (len(out), skipped, certified))
    return out


def fixed_answers():
    """Answers and costs of the instances every seed sends, per workload."""
    search, fdepth = {}, {}
    for n, d in wl.SEARCH_LADDER:
        I = wl.power_of_maximal(n, d)
        value, _, cost = solve_sdepth(n, (), I, ())
        if d == 1 and value != (n + 1) // 2:
            raise AssertionError("exact search disagrees with sdepth(m) = ceil(n/2)")
        search[wl.instance_key(n, (), I, ())] = {"sdepth": value, "cost_ms": cost}
    for n in wl.FDEPTH_LADDER:
        I = wl.power_of_maximal(n, 1)
        req = wl.make_request("fdepth", n, (), I, (), {"fdepth": 1}, options={"budget": wl.BUDGET})
        fdepth[wl.instance_key(n, (), I, ())] = {"fdepth": 1, "cost_ms": answer(req)[1]}
    return {"search": search, "fdepth": fdepth}


def main():
    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    pool = {
        "pool_seed": wl.POOL_SEED,
        "budget": wl.BUDGET,
        "fixed": fixed_answers(),
        "search": search_pool(random.Random("%d/search" % wl.POOL_SEED), log),
        "fdepth": fdepth_pool(random.Random("%d/fdepth" % wl.POOL_SEED), log),
    }
    retime(pool, log)
    with open(wl.EXPECTED_PATH, "w") as fh:
        json.dump(pool, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

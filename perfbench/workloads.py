"""Seeded request generation for the benchmark workloads.

Each request is one JSON line for ``stanleydec batch`` together with the
facts the checker needs: the ring and both ideals as exponent tuples (the
checker never re-parses the request text with the program's parser) and
what the answer must be.

Random instances come from a committed pool (``expected.json``) that
``make_expected.py`` draws once from ``POOL_SEED`` and solves with a large
budget.  A run's ``--seed`` picks a cost-stratified sample from that pool,
the commands, the variables of the closed-form instances and the order of
requests and of spaces.
"""

import hashlib
import json
import random
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, product
from math import prod
from pathlib import Path

DEFAULT_SEED = 1
HELDOUT_SEED = 7919
POOL_SEED = 20100517
BUDGET = 20000  # node budget of every search and fdepth request

EXPECTED_PATH = Path(__file__).with_name("expected.json")

WORKLOADS = ("search", "wide", "fdepth")

# instances every seed sends: (n, d) for m^d over n variables, and the n
# of fdepth(m)
SEARCH_LADDER = ((3, 1), (4, 1), (5, 1), (6, 1), (3, 2), (4, 2), (3, 3))
FDEPTH_LADDER = (3, 4, 5)

# per seed: how many pool instances a pass draws, one from each cost bin.
# Instances that exhaust the request budget take over half of a search
# pass's time, so every seed sends the same ones, those at the centres of
# their cost bins: a seed's choice between two of them moved wall_s by a
# tenth.
SEARCH_BUDGET_BOUND = 2
SEARCH_RANDOM = 80 - SEARCH_BUDGET_BOUND
FDEPTH_RANDOM = 40
# fdepth pool instances slower than this are not drawn, so that a pass
# fits into a run three times or more; fdepth(m) for n = 5 keeps a request
# in every pass that takes seconds and exhausts its budget
FDEPTH_MAX_COST_MS = 1000


@dataclass(frozen=True)
class Request:
    command: str
    n: int
    inverted: tuple            # 0-based indices of the inverted variables
    I: tuple                   # minimal generators, zero on inverted coords
    J: tuple
    line: str                  # the JSON request sent to the program
    expect: dict = field(default_factory=dict, compare=False)


# ------------------------------------------------------------------ text

def var_name(i, n):
    return "xyzw"[i] if n <= 4 else "x%d" % (i + 1)


def monomial_text(m, n):
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(var_name(i, n))
        elif e != 0:
            parts.append("%s^%d" % (var_name(i, n), e))
    return "*".join(parts) if parts else "1"


def ideal_text(gens, n):
    if not gens:
        return "(0)"
    return "(%s)" % ", ".join(monomial_text(g, n) for g in sorted(gens))


def ring_text(n, inverted):
    if not inverted:
        return "n=%d" % n
    return "n=%d invert={%s}" % (n, ",".join(str(i + 1) for i in sorted(inverted)))


def space_text(root, zplus, zminus, n):
    head = "" if not any(root) else monomial_text(root, n) + "*"
    entries = []
    for i in range(n):
        if i in zplus:
            entries.append(var_name(i, n))
        elif i in zminus:
            entries.append("%s^-1" % var_name(i, n))
    if not entries:
        return head + "K"
    return "%sK[%s]" % (head, ", ".join(entries))


# --------------------------------------------------------------- ideals

def divides(g, m, inverted=()):
    return all(m[i] >= g[i] for i in range(len(g)) if i not in inverted)


def minimalize(gens):
    """Minimal generating set, sorted; the unit swallows everything."""
    gens = set(tuple(g) for g in gens)
    return tuple(sorted(
        g for g in gens if not any(h != g and divides(h, g) for h in gens)
    ))


def instance_key(n, inverted, I, J):
    return "n=%d A=%s I=%s J=%s" % (
        n, sorted(inverted), [list(g) for g in I], [list(g) for g in J])


def power_of_maximal(n, d):
    gens = []
    for combo in combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in combo:
            e[i] += 1
        gens.append(tuple(e))
    return tuple(sorted(gens))


def unit(n):
    return ((0,) * n,)


def random_quotient(rng, n, inverted):
    """A random J < I: I has 1-3 generators with exponents <= 2 on the
    plain variables, J multiplies about half of them by another such
    monomial, so J is inside I by construction."""
    while True:
        def gen():
            return tuple(0 if i in inverted else rng.randint(0, 2) for i in range(n))

        I = minimalize(gen() for _ in range(rng.randint(1, 3)))
        J = minimalize(
            tuple(a + b for a, b in zip(g, gen())) for g in I if rng.random() < 0.5
        )
        if I != J:
            return I, J


def search_candidate(rng):
    n = rng.choice((4, 5))
    inverted = (rng.randrange(n),) if rng.random() < 0.5 else ()
    I, J = random_quotient(rng, n, inverted)
    return n, inverted, I, J


def fdepth_candidate(rng):
    I, J = random_quotient(rng, 3, ())
    return 3, (), I, J


# ------------------------------------------------------------- requests

def make_request(command, n, inverted, I, J, expect, **fields):
    req = {"command": command, "ring": ring_text(n, inverted),
           "I": ideal_text(I, n), "J": ideal_text(J, n)}
    options = fields.pop("options", None)
    req.update(fields)
    if options:
        req["options"] = options
    return Request(command, n, tuple(sorted(inverted)), tuple(I), tuple(J),
                   json.dumps(req, sort_keys=True), expect)


def load_pool():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def stratified(rng, entries, count):
    """One of the two entries at the centre of each of `count` equal bins
    of `entries`, which are sorted by cost.  Keeping to the centre makes
    the samples of different seeds nearly alike in cost: the pool's costs
    are heavy-tailed, and a draw from anywhere in a bin moved a pass's p90
    by a sixth between seeds."""
    size = len(entries) / count
    picks = []
    for b in range(count):
        lo = min(max(int((b + 0.5) * size) - 1, 0), len(entries) - 2)
        picks.append(entries[lo + rng.randrange(2)])
    return picks


def by_cost(entries):
    return sorted(entries, key=lambda e: (e["cost_ms"], e["key"]))


def pool_request(command, entry, value_key):
    # variables are not permuted: that would change the lex order the
    # search follows, and with it which instances exhaust the budget
    I = tuple(tuple(g) for g in entry["I"])
    J = tuple(tuple(g) for g in entry["J"])
    return make_request(command, entry["n"], tuple(entry["inverted"]), I, J,
                        {value_key: entry[value_key]}, options={"budget": BUDGET})


def search_requests(rng, pool):
    reqs = []
    for n, d in SEARCH_LADDER:
        I = power_of_maximal(n, d)
        fixed = pool["fixed"]["search"][instance_key(n, (), I, ())]
        value = (n + 1) // 2 if d == 1 else fixed["sdepth"]   # Biro et al., JCTA 117 (2010)
        reqs.append(make_request(rng.choice(("sdepth", "decompose")), n, (), I, (),
                                 {"sdepth": value}, options={"budget": BUDGET}))
    bound = by_cost(e for e in pool["search"] if e["budget_bound"])
    free = by_cost(e for e in pool["search"] if not e["budget_bound"])
    centres = [bound[(2 * b + 1) * len(bound) // (2 * SEARCH_BUDGET_BOUND)]
               for b in range(SEARCH_BUDGET_BOUND)]
    for entry in centres + stratified(rng, free, SEARCH_RANDOM):
        reqs.append(pool_request(rng.choice(("sdepth", "decompose")), entry, "sdepth"))
    return reqs


def fdepth_requests(rng, pool):
    reqs = []
    for n in FDEPTH_LADDER:
        I = power_of_maximal(n, 1)
        reqs.append(make_request("fdepth", n, (), I, (), {"fdepth": 1},
                                 options={"budget": BUDGET}))
    drawn = by_cost(e for e in pool["fdepth"] if e["cost_ms"] <= FDEPTH_MAX_COST_MS)
    for entry in stratified(rng, drawn, FDEPTH_RANDOM):
        reqs.append(pool_request("fdepth", entry, "fdepth"))
    return reqs


def powers(exps):
    """The generators x_i^a_i of the variables with a_i > 0."""
    n = len(exps)
    return tuple(sorted(
        tuple(a if j == i else 0 for j in range(n)) for i, a in enumerate(exps) if a
    ))


def wide_request(rng, command, exps, inverted=(), drop=False):
    """A request on I = (1), J = (x_i^a_i : a_i > 0), where every answer has
    a closed form.  The quotient is an Artinian part on the cut variables
    times a polynomial ring in the free ones times a Laurent ring in the
    inverted ones, so sdepth = n - #cut, and u*K[free] over the monomials
    u of the Artinian part is a decomposition.  With `drop`, a `verify`
    request leaves one space out."""
    n = len(exps)
    cut = [a for a in exps if a]
    free = tuple(i for i in range(n) if not exps[i] and i not in inverted)
    J = powers(exps)
    if command == "decompose":
        return make_request(command, n, inverted, unit(n), J, {"sdepth": n - len(cut)})
    if command == "hilbert":
        return make_request(command, n, inverted, unit(n), J,
                            {"maximal_spaces": prod(cut) * 2 ** len(inverted)},
                            options={"max_degree": sum(cut) + 2})
    roots = list(product(*[range(a) if a else (0,) for a in exps]))
    rng.shuffle(roots)
    expect = {"valid": not drop}
    if drop:
        expect["uncovered"] = roots.pop(rng.randrange(len(roots)))
    D = " + ".join(space_text(r, free, (), n) for r in roots)
    if command == "verify":
        return make_request(command, n, (), unit(n), J, expect, D=D)
    A = "{%s}" % ",".join(str(i + 1) for i in free)
    return make_request(command, n, (), unit(n), J,
                        {"localized": free, "sdepth_of": len(free)}, D=D, A=A)


def _cut_except(rng, n, a, k):
    """Exponent a on all but k randomly chosen variables, and those k."""
    keep = sorted(rng.sample(range(n), k))
    return tuple(0 if i in keep else a for i in range(n)), tuple(keep)


def wide_requests(rng, pool):
    reqs = []
    for a in range(4, 12):
        reqs.append(wide_request(rng, "decompose", (a, a, a)))
        reqs.append(wide_request(rng, "hilbert", (a, a, a)))
    for a in range(3, 6):
        reqs.append(wide_request(rng, "decompose", (a, a, a, a)))
    for n, k, a in ((4, 1, 7), (4, 2, 14), (5, 2, 6)):
        reqs.append(wide_request(rng, "decompose", *_cut_except(rng, n, a, k)))
    reqs.append(wide_request(rng, "hilbert", *_cut_except(rng, 3, 6, 1)))
    for a in (5, 7, 9, 11):
        reqs.append(wide_request(rng, "verify", (a, a, a)))
    reqs.append(wide_request(rng, "verify", (6, 6, 6), drop=True))
    for n, k, a in ((3, 1, 12), (4, 2, 6)):
        exps, _ = _cut_except(rng, n, a, k)
        reqs.append(wide_request(rng, "verify", exps))
        reqs.append(wide_request(rng, "localize", exps))
    return reqs


_GENERATORS = {"search": search_requests, "wide": wide_requests, "fdepth": fdepth_requests}


def generate(workload, seed, pool=None):
    """The requests of one pass of `workload` for `seed`, in send order."""
    rng = random.Random("%s/%d" % (workload, seed))
    reqs = _GENERATORS[workload](rng, pool if pool is not None else load_pool())
    rng.shuffle(reqs)
    return reqs


def digest(reqs):
    """Short fingerprint of the exact request lines of a pass."""
    h = hashlib.sha256()
    for r in reqs:
        h.update(r.line.encode() + b"\n")
    return h.hexdigest()[:16]

"""Recursive reference kernels for the interval-partition search.

The plain backtracking search that ``stanleydec._intervals`` replaced, kept
as an oracle of the kernel parity tests.  It follows the same contract,

    find_partition(elements, g, k, budget) -> (status, intervals, nodes)

and the same search order: extend from the lexicographically smallest
uncovered element and try upper corners in lexicographic order, so it
returns the lexicographically smallest partition.  With dead=True it also
keeps its own memo of the uncovered sets that failed at this k: a set
already known dead is skipped before it costs a node, and a set is
recorded after its recursion fails.  That is the node count of the kernel;
without the memo the count can only be larger.  It recurses once per
interval, so it is only fit for small posets.
"""

from itertools import product


def _corners_at_least(g, k):
    """All box points whose corner count rho(c) = #{i: c_i = g_i} is >= k,
    in lexicographic order."""
    out = []
    for c in product(*[range(gi + 1) for gi in g]):
        if sum(1 for ci, gi in zip(c, g) if ci == gi) >= k:
            out.append(c)
    return out


def find_partition(elements, g, k, budget, dead=False):
    n = len(g)
    elements = sorted(elements)
    index = {e: i for i, e in enumerate(elements)}
    m = len(elements)
    covered = [False] * m
    corners = _corners_at_least(g, k)
    intervals = []
    state = {"nodes": 0, "budget": budget}
    failed = set()      # the uncovered sets known dead, as frozensets of indices

    def interval_cells(b, c):
        return product(*[range(b[i], c[i] + 1) for i in range(n)])

    def uncovered():
        return frozenset(j for j in range(m) if not covered[j])

    def search(scan_from):
        # advance to the lex-smallest uncovered element
        pos = scan_from
        while pos < m and covered[pos]:
            pos += 1
        if pos == m:
            return "found"
        b = elements[pos]
        for c in corners:
            if any(c[i] < b[i] for i in range(n)):
                continue
            cells = []
            ok = True
            for cell in interval_cells(b, c):
                j = index.get(cell)
                if j is None or covered[j]:
                    ok = False
                    break
                cells.append(j)
            if not ok:
                continue
            for j in cells:
                covered[j] = True
            rest = uncovered()
            if not (dead and rest in failed):
                state["nodes"] += 1
                if state["nodes"] > state["budget"]:
                    return "budget"
                intervals.append((b, c))
                verdict = search(pos + 1)
                if verdict != "infeasible":
                    return verdict
                intervals.pop()
                failed.add(rest)
            for j in cells:
                covered[j] = False
        return "infeasible"

    status = search(0)
    if status == "found":
        return status, list(intervals), state["nodes"]
    return status, None, state["nodes"]

"""The one depth-first search of the package, and the interval search on it.

``descend`` returns the lex-first path of a DFS over the steps a caller's
``steps`` function yields; it skips the states it knows are dead.  The
interval search below and the prime-filtration search of ``filtration``,
one call for each target, run on it.

    find_partition(box, poset, k, budget) -> (status, intervals, nodes)

decides whether poset, the characteristic poset as a mask of the cells of
the ``_box.Box`` box, admits a partition into intervals [b, c] whose upper
corners touch the bound g in at least k coordinates.  The elements are
order-convex, as the monomials of I'\\J' are, so [b, c] lies in the poset
once b and c do.  status is "found" / "infeasible" / "budget"; intervals
is the partition, (b, c) pairs in search order, when found, else None;
nodes counts the nodes of ``descend``, budget + 1 when the budget ran out.

A state is the mask of the uncovered elements.  Bit order is lex order, so
each step covers the lowest set bit b, which is forced to be the lower
corner of its interval, with the upper corners c in lex order: the first
partition found is the lexicographically smallest one.  Whether a set can
be partitioned depends only on the set and k, so skipping dead sets changes
neither the answer nor the witness.  At k <= min rho(a) over the elements
the partition is the singletons, as [b, b] is the first corner tried and
always fits; ``solver.max_interval_partition`` answers there without it.
"""

from itertools import product


def descend(steps, start, end, tickets):
    """The lex-first path from the state start to the state end, found by
    depth-first search.  steps(state) yields the steps out of a state in
    the order to try, each a tuple whose last item is the state it leads
    to.  A node is a step taken into a state not known to be dead (with
    no path to end), and takes an item of the iterator tickets.  Returns
    the path, a list of steps; [] when there is none, and None when
    tickets run out.  The open path is a stack bounded by memory, not the
    recursion limit; each dead state is kept, so memory grows with the
    nodes."""
    dead = set()
    path = []
    stack = [steps(start)]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if stack:
                dead.add(path.pop()[-1])
        elif step[-1] not in dead:
            if next(tickets, None) is None:
                return None
            path.append(step)
            if step[-1] == end:
                return path
            stack.append(steps(step[-1]))
    return []


def find_partition(box, poset, k, budget):
    g = box.g
    corners = {}  # bit index of b -> (b, options of b so far, generator of the rest)

    def options(b):
        """(c, mask of [b, c]) for every upper corner c in the poset with
        rho(c) >= k, in lex order of c."""
        for c in product(*[range(bi, gi + 1) for bi, gi in zip(b, g)]):
            if sum(ci == gi for ci, gi in zip(c, g)) >= k and poset >> box.code(c) & 1:
                yield c, box.interval(b, c)

    def steps(free):
        """(b, c, free minus [b, c]) for the lowest uncovered b and each of
        its options that fits; the open states have distinct b, so each
        list of options has at most one reader."""
        bit = (free & -free).bit_length() - 1
        if bit not in corners:
            b = box.cell(bit)
            corners[bit] = (b, [], options(b))
        b, opts, more = corners[bit]
        for c, mask in opts:
            if mask & free == mask:
                yield b, c, free ^ mask
        for c, mask in more:
            opts.append((c, mask))
            if mask & free == mask:
                yield b, c, free ^ mask

    if not poset:
        return "found", [], 0
    tickets = iter(range(budget))
    path = descend(steps, poset, 0, tickets)
    if path is None:
        return "budget", None, budget + 1
    nodes = next(tickets, budget)    # the first ticket not taken
    return ("found", [step[:2] for step in path], nodes) if path else ("infeasible", None, nodes)

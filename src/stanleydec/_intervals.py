"""Interval-partition search kernel.

Decides whether the characteristic poset admits a partition into intervals
[b, c] whose upper corners all touch the bound g in at least k coordinates:

    find_partition(box, poset, k, budget) -> (status, intervals, nodes)

box is the ``_box.Box`` of the bound g and poset the mask of the elements,
as ``solver.CharacteristicPoset`` keeps them.  They must form an
order-convex set (b <= a <= c with b, c in it puts a in it), as the
monomials of I'\\J' do, so [b, c] lies in it once b and c do.  status is
one of "found" / "infeasible" / "budget"; intervals is the partition (a list
of (b, c) pairs in search order) when found, else None; nodes counts the
intervals placed.  Exceeding the budget stops at nodes == budget + 1.

The search always extends from the lexicographically smallest uncovered
element, which is forced to be the lower corner of its interval, and tries
upper corners in lexicographic order, so the first partition found is the
lexicographically smallest one.  At k <= min rho(a) over the elements that
is the singletons: [b, b] is the first corner tried and always fits.  So
``solver.max_interval_partition`` only calls this above that level, and
answers at it without a search.

Each box cell is one bit of a Python int, in the cell arithmetic of
``_box.Box``: bit order is lex order, so the next lower corner is the
lowest set bit of the mask of uncovered elements.  An explicit stack of
(lower corner, option index) replaces recursion, so the depth is bounded
only by the number of elements.
"""

from itertools import product


def find_partition(box, poset, k, budget):
    g = box.g
    code = box.code

    def options(b):
        """(c, mask of [b, c]) for every upper corner c in the poset with
        rho(c) >= k, in lex order of c."""
        for c in product(*[range(bi, gi + 1) for bi, gi in zip(b, g)]):
            if sum(ci == gi for ci, gi in zip(c, g)) < k or not poset >> code(c) & 1:
                continue
            yield c, box.interval(b, c)

    corners = {}  # bit index of b -> (b, options of b so far, generator of the rest)

    def corner(free):
        """The entry of the lowest uncovered element."""
        bit = (free & -free).bit_length() - 1
        entry = corners.get(bit)
        if entry is None:
            b = box.cell(bit)
            entry = corners[bit] = (b, [], options(b))
        return entry

    free = poset
    if not free:
        return "found", [], 0
    stack = []  # (corner entry, index of the option placed there)
    nodes = 0
    entry, i = corner(free), 0
    while True:
        _, opts, more = entry
        # advance i to the first option that fits into the uncovered cells
        while True:
            count = len(opts)
            while i < count:
                mask = opts[i][1]
                if mask & free == mask:
                    break
                i += 1
            if i < count:
                break
            option = next(more, None)  # the list ran out: draw one more option
            if option is None:
                break
            opts.append(option)
        if i == len(opts):
            if not stack:
                return "infeasible", None, nodes
            entry, i = stack.pop()  # undo the last interval, try its next option
            free |= entry[1][i][1]
            i += 1
            continue
        nodes += 1
        if nodes > budget:
            return "budget", None, nodes
        free ^= mask
        stack.append((entry, i))
        if not free:
            return "found", [(b, placed[j][0]) for (b, placed, _), j in stack], nodes
        entry, i = corner(free), 0

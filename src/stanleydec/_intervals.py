"""The one depth-first search of the package, and the interval search on it.

``descend`` returns the lex-first path of a DFS over the steps a caller's
``steps`` function yields; it skips the states it knows are dead.  The
interval search below and the prime-filtration search of ``filtration``,
one call for each target, run on it.

    find_partition(box, poset, k, budget, first=False) -> (status, intervals, nodes)

decides whether poset, the characteristic poset as a mask of the cells of
the ``_box.Box`` box, admits a partition into intervals [b, c] whose upper
corners touch the bound g in at least k coordinates.  The elements are
order-convex, as the monomials of I'\\J' are, so [b, c] lies in the poset
once b and c do.  status is "found" / "infeasible" / "budget"; intervals
is the partition, (b, c) pairs in search order, when found, else None;
nodes counts the nodes of ``descend``, budget + 1 when the budget ran out.
With first, each state offers only its first step: the search's first
descent, at most one node per element, which reaches the empty set
exactly when the search's first path does, with the same path and nodes.
``solver`` tries it at the maximal-element bound before any series.

A state is the mask of the uncovered elements.  Bit order is lex order, so
each step covers the lowest set bit b, which is forced to be the lower
corner of its interval, with the upper corners c in lex order: the first
partition found is the lexicographically smallest one.  Whether a set can
be partitioned depends only on the set and k, so skipping dead sets changes
neither the answer nor the witness.  At k <= min rho(a) over the elements
the partition is the singletons, as [b, b] is the first corner tried and
always fits; ``solver.max_interval_partition`` answers there without it.

A step reads its upper corners off masks and walks no cell of the box.
reach = ``Box.at_least_top(k)``, built once per target, holds the cells
with rho >= k, and ``Box.shape(off)`` is the mask of [0, d], d the cell
at bit off.  With b at bit bit and top the bit of g, the cells >= b are
shape(top - bit) << bit; as the state lies in the poset, the set bits of

    (free & reach) >> bit & shape(top - bit)

are the offsets off = code(c) - code(b) of the corners c >= b of the
poset with rho(c) >= k, ascending, which is lex order of c.  They are
popped one at a time, each as it is tried, so a step whose first corner
leads to the end reads no other.  The interval [b, c] is shape(off) <<
bit, and it fits when free >> bit covers shape(off).  The shapes are
cached by offset for the call; a path step is (bit, off, state), turned
into (b, c) pairs once, at the end, one axis at a time (``Box.decode``).

Memory: the open path holds a state per step and a suspended step frame
per step.  A frame keeps the corners it has not tried as a mask shifted
down past the last one tried, at most top - bit - off bits wide, and
shape(top - bit) and the shifted state are temporaries, cached nowhere.
A box-wide mask held per frame, or one cached per corner, costs the box
size times the depth of the path: on S/I(C_19), 1,560 open steps of
64 KB each.  Rebuilding the corners left on resume would hold no mask,
but costs a shape per resume.
"""

from itertools import islice


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


def find_partition(box, poset, k, budget, first=False):
    """(status, intervals, nodes) of the lex-first partition of the poset
    into intervals [b, c] with rho(c) >= k, within budget nodes; see the
    module docstring.  With first, only the first step out of each state
    is taken, the search's first descent; its "infeasible" says only that
    the descent stopped."""
    if not poset:
        return "found", [], 0
    reach = box.at_least_top(k)
    top = box.cells - 1
    shapes = {}     # offset off -> box.shape(off), for the call

    def steps(free):
        """(bit of b, offset of c, free minus [b, c]) for the lowest
        uncovered b and each upper corner c that fits, in lex order of c.
        The corners are popped off their mask as they are tried, the mask
        shifted down past each; the frame keeps free, the corners left and
        the cached shapes."""
        bit = (free & -free).bit_length() - 1
        cand = (free & reach) >> bit & box.shape(top - bit)
        off = -1
        while cand:
            skip = (cand & -cand).bit_length()
            cand >>= skip
            off += skip
            shape = shapes.get(off)
            if shape is None:
                shape = shapes[off] = box.shape(off)
            if free >> bit & shape == shape:
                yield bit, off, free ^ shape << bit

    tickets = iter(range(budget))
    path = descend((lambda free: islice(steps(free), 1)) if first else steps, poset, 0, tickets)
    if path is None:
        return "budget", None, budget + 1
    nodes = next(tickets, budget)    # the first ticket not taken
    if not path:
        return "infeasible", None, nodes
    return "found", list(zip(box.decode([bit for bit, _, _ in path]),
                             box.decode([bit + off for bit, off, _ in path]))), nodes

"""Exact Stanley depth via the characteristic-poset interval method.

The quotient I/J is first contracted to I' = I cap S, J' = J cap S in the
polynomial ring S on the same n variables.  There the monomials of I'\\J'
below the componentwise generator bound g form a finite poset whose
interval partitions correspond to Stanley decompositions; sdepth is the
best achievable minimum corner count.  The generators vanish on every
inverted coordinate, so g_j = 0 there: the axis has one cell, which every
corner count includes, so each inverted variable is admissible in every
space and adds one to sdepth.  The partition search runs on the masks
of ``_intervals``, in the one depth-first search of the package.
"""

from collections import namedtuple
from functools import cached_property
from itertools import chain, compress, product, repeat
from operator import attrgetter, eq

from . import hilbert, ring, stanley
from ._box import Box
from ._intervals import find_partition
from .errors import (
    BoxTooLargeError,
    BudgetExceededError,
    ContextMismatchError,
    ZeroModuleError,
)

DEFAULT_BUDGET = 10**6

# the poset is a mask with one bit per cell of the box [0, g], and so is
# every mask a search keeps; the boxes any search here can finish are far
# smaller than this
MAX_BOX_CELLS = 10**6


class CharacteristicPoset(ring._Frozen):
    """The poset of a contraction I'/J' as a mask of its box.  Two posets
    are equal when their rings, bounds and masks are; the repr shows the
    ring and the bound."""

    _key = attrgetter("context", "bound", "mask")
    _shown = ("context", "bound")

    def __init__(self, context, bound, box, mask, generators):
        object.__setattr__(self, "context", context)        # the ring S of the contraction
        object.__setattr__(self, "bound", bound)            # componentwise generator maximum g
        object.__setattr__(self, "box", box)                # the cells of [0, g]
        object.__setattr__(self, "mask", mask)              # the elements as bits of box
        object.__setattr__(self, "generators", generators)  # those of I'

    @cached_property
    def elements(self):
        """The lex-sorted exponent vectors of I'\\J' below g, built on first
        use, one tuple per cell from the runs of the mask.  Only the
        singleton partition of ``max_interval_partition`` lists them: the
        commands, the bounds, the searches and the lift read the mask."""
        return tuple(_singleton_bases(self)[0])


def build_characteristic_poset(Ip, Jp):
    """The finite poset of exponent vectors a <= g with x^a in I'\\J', g the
    componentwise maximum over all generators, as the mask of I' minus J' in
    the box [0, g].  Raises BoxTooLargeError beyond MAX_BOX_CELLS cells."""
    ctx = Ip.context
    if ctx.inverted or Jp.context.inverted:
        raise ContextMismatchError("characteristic poset needs a polynomial ring")
    ring.require_subquotient(Ip, Jp)
    gens = list(Ip.generators) + list(Jp.generators)
    g = tuple(max((gen[i] for gen in gens), default=0) for i in range(ctx.n))
    cells = 1
    for gi in g:
        cells *= gi + 1
        if cells > MAX_BOX_CELLS:
            raise BoxTooLargeError(
                "the characteristic box has more than %d cells" % MAX_BOX_CELLS
            )
    box = Box(g)
    mask = box.ideal(Ip.generators) & ~box.ideal(Jp.generators)
    return CharacteristicPoset(ctx, g, box, mask, Ip.generators)


def least_rho(poset):
    """The least rho(a) = #{i: a_i = g_i} over the elements a of a
    nonempty poset, read off the generators of I' whose cells are in it.
    rho is monotone, and every minimal element of I'\\J' is such a
    generator: it lies above a generator of I', which is outside J' as
    the element is, so in the poset and equal to it."""
    box, mask, g = poset.box, poset.mask, poset.bound
    return min(sum(map(eq, u, g)) for u in poset.generators if mask >> box.code(u) & 1)


def maximal_element_bound(poset):
    """The least rho(c) over the maximal elements c of a nonempty poset, an
    order-convex mask, bounds k: the interval holding c has the corner c."""
    box = poset.box
    cells = box.decode(list(box.codes(box.maximal(poset.mask))))
    return min(sum(map(eq, c, poset.bound)) for c in cells)


def max_interval_partition(poset, budget=DEFAULT_BUDGET):
    """(k, intervals): the best interval partition of the poset, as a
    tuple of (b, c) pairs with b <= c <= g, and k, the minimum corner
    count rho(c) = #{i: c_i = g_i} over its intervals, which it maximizes.

    The answer lies between two bounds.  Below it is low = min rho(a) over
    the elements (``least_rho``): the singleton partition reaches it.
    Above it is the least of ``maximal_element_bound``, top, and
    ``hilbert.hdepth_bound``; when top <= low no target is left to try.
    Otherwise the search's first descent at k = top, one step out of each
    state, comes first: when it reaches the empty set, top is the answer
    and the path is the search's own first path, which a search from the
    least bound finds too, as hdepth >= sdepth = top.  If it does not,
    ``hilbert.series_of_poset`` is summed and the decision problem is
    tried for each target k from the upper bound down to low + 1; the
    descent's nodes are not deducted from the budget.  No k above that
    bound is feasible, so the first feasible k and its witness, the
    lexicographically smallest optimal partition, are those a start at
    k = n finds.  When none is feasible the answer is low with the
    singletons in lex order, found without a search: at any k <= low the
    search places each lowest uncovered b as [b, b], its first upper
    corner in lex order, which always fits.  Each
    target is one ``_intervals.find_partition`` on ``_intervals.descend``,
    the DFS the fdepth search also runs on, which skips the uncovered sets
    it knows are dead: a node is an interval placed into a set not known to
    be dead.  The node budget is shared across the targets above low, and
    exhausting it raises rather than returning a possibly wrong value.
    """
    k, partition = _best_partition(poset, budget)
    if partition is None:
        partition = tuple((a, a) for a in poset.elements)
    return k, partition


def _best_partition(poset, budget):
    """``max_interval_partition``, with None for the singleton partition,
    which ``_embed_and_invert`` builds from the runs of the poset."""
    if not poset.mask:
        raise ZeroModuleError("empty poset: the quotient is the zero module")
    low = least_rho(poset)
    top = maximal_element_bound(poset)
    if top <= low:
        return low, None
    status, intervals, _ = find_partition(poset.box, poset.mask, top, budget, first=True)
    if status == "found":
        return top, tuple(intervals)
    bounds = {"the maximal elements": top,
              "the Hilbert depth": hilbert.hdepth_bound(hilbert.series_of_poset(poset))}
    start = min(bounds.values())
    remaining = budget
    spent = {}
    for k in range(start, low, -1):
        status, intervals, nodes = find_partition(poset.box, poset.mask, k, remaining)
        spent[k] = nodes
        remaining -= nodes
        if status == "budget":
            total = sum(spent.values())
            setters = " and ".join(name for name, b in bounds.items() if b == start)
            raise BudgetExceededError("interval search budget exceeded after %d nodes, from "
                                      "k = %d set by %s" % (total, start, setters), total, spent)
        if status == "found":
            return k, tuple(intervals)
    return low, None


def _bases(poset, partition):
    """The spaces an interval partition, a tuple of (b, c) pairs, encodes,
    as the lists of their roots and of their Z.

    The interval [b, c] gets the admissible set Z = {i : c_i = g_i} and
    one space x^a K[Z] per root a in [b, c] with a_i = b_i on Z; when the
    upper corner is extremal in every non-Z coordinate this is the single
    space x^b K[Z].  An inverted axis has g_i = 0, so it is in every Z.
    The spaces come in the order of the intervals, then of the roots.  One
    Z is built per corner pattern, and a singleton [b, b] gives b itself.
    """
    g = poset.bound
    axes = range(len(g))
    zs = {}
    roots, zpluses = [], []
    for b, c in partition:
        pattern = tuple(map(eq, c, g))
        z = zs.get(pattern)
        if z is None:
            z = zs[pattern] = frozenset(compress(axes, pattern))
        if b == c:
            roots.append(b)
            zpluses.append(z)
            continue
        before = len(roots)
        roots += product(*[range(bi, bi + 1) if top else range(bi, ci + 1)
                           for bi, ci, top in zip(b, c, pattern)])
        zpluses += repeat(z, len(roots) - before)
    return roots, zpluses


def _singleton_bases(poset):
    """``_bases`` of the singleton partition, every element [a, a] in lex
    order, read off the runs of the poset's mask without listing its
    elements.  A run, head + (t,) + tail for first <= t <= last, shares
    Z = {i < r : head_i = g_i} and every axis after the run axis r, where
    g_i = 0; its last cell also has r in Z when it reaches g_r."""
    g, box = poset.bound, poset.box
    if not g:           # n = 0: the one cell () is no run
        roots = [()] if poset.mask else []
        return roots, [frozenset()] * len(roots)
    r = box.axis
    top, after = g[r], range(r + 1, len(g))
    cells = [(t,) + box.tail for t in range(top + 1)]    # a_r onwards
    zs = {}
    roots, zpluses = [], []
    for head, first, last in box.runs(poset.mask):
        pattern = tuple(map(eq, head, g))
        pair = zs.get(pattern)
        if pair is None:
            z = frozenset(chain(compress(range(r), pattern), after))
            pair = zs[pattern] = z, z | {r}
        roots += map(head.__add__, cells[first:last + 1])
        if last == top:
            zpluses += repeat(pair[0], last - first)
            zpluses.append(pair[1])
        else:
            zpluses += repeat(pair[0], last - first + 1)
    return roots, zpluses


def partition_to_decomposition(poset, partition):
    """Map an interval partition to the Stanley decomposition it encodes,
    over the poset's ring, spaces sorted by key (see ``_bases``)."""
    return _embed_and_invert(poset, partition, poset.context)


class SdepthResult(namedtuple("SdepthResult", "value witness")):
    __slots__ = ()

    def __int__(self):
        return self.value


def _embed_and_invert(poset, partition, ctx):
    """The decomposition of I/J over ctx that an interval partition of the
    poset of its contraction encodes, spaces sorted by key; None stands
    for the singleton partition.  Each space of ``_bases`` is fanned out
    over the inverted variables of ctx, with x or x^-1 for each, built
    once, straight from its interval.

    The singletons over a polynomial ring are taken as ``_singleton_bases``
    lists them, with no copy and no sort: the runs come in bit order, which
    is lex order, and t rises within a run, so the roots already ascend.
    They are no more than the MAX_BOX_CELLS cells of the box, which is
    MAX_SPACES, so their count needs no check."""
    if partition is None and not ctx.inverted:
        roots, zpluses = _singleton_bases(poset)
        pairs = {zplus: (zplus, frozenset()) for zplus in set(zpluses)}
        return stanley.StanleyDecomposition._of_columns(
            ctx, tuple(roots), tuple(map(pairs.__getitem__, zpluses)))
    roots, zpluses = (_singleton_bases(poset) if partition is None
                      else _bases(poset, partition))
    # every space holds its root and the spaces are disjoint, so no two
    # share a root
    return stanley._sorted_by_root(ctx, *stanley._fan_out(ctx, roots, zpluses))


def _poset_of(I, J, message):
    """The characteristic poset of the contraction of I/J.  Raises
    ZeroModuleError with the caller's message when I/J is the zero module;
    J <= I holds exactly when it holds for the contractions, which
    ``build_characteristic_poset`` checks."""
    if I.context != J.context:
        raise ContextMismatchError("ideals live in different rings")
    Ip, Jp = ring.contraction(I), ring.contraction(J)
    if Ip == Jp:
        raise ZeroModuleError(message)
    return build_characteristic_poset(Ip, Jp)


def sdepth(I, J, budget=DEFAULT_BUDGET):
    """Exact Stanley depth of I/J with a verifying witness decomposition."""
    poset = _poset_of(I, J, "I/J is the zero module; sdepth undefined")
    k, partition = _best_partition(poset, budget)
    return SdepthResult(k, _embed_and_invert(poset, partition, I.context))

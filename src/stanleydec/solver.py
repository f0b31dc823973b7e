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

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, product
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
from .ring import RingContext
from .stanley import StanleyDecomposition

DEFAULT_BUDGET = 10**6

# the poset is a mask with one bit per cell of the box [0, g], and so is
# every mask a search keeps; the boxes any search here can finish are far
# smaller than this
MAX_BOX_CELLS = 10**6


@dataclass(frozen=True)
class CharacteristicPoset:
    context: RingContext          # the polynomial ring S of the contraction
    bound: tuple                  # componentwise generator maximum g
    box: Box = field(repr=False, compare=False)   # the cells of [0, g]
    mask: int = field(repr=False)                 # the elements as bits of box

    @cached_property
    def elements(self):
        """The lex-sorted exponent vectors of I'\\J' below g, built on first
        use, one tuple per cell from the runs of the mask.  Only the
        singleton answer lists them: ``hilbert``, the bounds and the
        searches read the mask."""
        if not self.bound:      # n = 0: the one cell () is no run
            return ((),) if self.mask else ()
        tail = self.box.tail
        return tuple([head + (t,) + tail for head, first, last in self.box.runs(self.mask)
                      for t in range(first, last + 1)])


@dataclass(frozen=True)
class IntervalPartition:
    intervals: tuple              # (b, c) pairs, b <= c <= g


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
    return CharacteristicPoset(ctx, g, box, mask)


def maximal_element_bound(poset):
    """The least rho(c) over the maximal elements c of a nonempty poset, an
    order-convex mask, bounds k: the interval holding c has the corner c."""
    box = poset.box
    return min(sum(map(eq, box.cell(c), poset.bound)) for c in box.codes(box.maximal(poset.mask)))


def max_interval_partition(poset, budget=DEFAULT_BUDGET):
    """Best interval partition of the poset: maximizes the minimum corner
    count rho(c) = #{i: c_i = g_i} over its intervals.

    The answer lies between two bounds.  Below it is low = min rho(a) over
    the elements: the singleton partition reaches it.  Above it is the
    least of ``maximal_element_bound`` and ``hilbert.hdepth_bound``; low
    and the series the Hilbert depth is read from come from one
    ``hilbert.series_of_poset``.  The decision problem is tried for each
    target k from the upper bound down to low + 1, and no k above that
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
    if not poset.mask:
        raise ZeroModuleError("empty poset: the quotient is the zero module")
    series, low = hilbert.series_of_poset(poset)
    bounds = {"the maximal elements": maximal_element_bound(poset),
              "the Hilbert depth": hilbert.hdepth_bound(series)}
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
            return k, IntervalPartition(tuple(intervals))
    return low, IntervalPartition(tuple((a, a) for a in poset.elements))


def _bases(poset, partition):
    """The spaces an interval partition encodes, as (root, Z) pairs.

    The interval [b, c] gets the admissible set Z = {i : c_i = g_i} and
    one space x^a K[Z] per root a in [b, c] with a_i = b_i on Z; when the
    upper corner is extremal in every non-Z coordinate this is the single
    space x^b K[Z].  An inverted axis has g_i = 0, so it is in every Z.
    The pairs come in the order of the intervals, then of the roots.  One
    Z is built per corner pattern, and a singleton [b, b] yields b itself.
    """
    g = poset.bound
    axes = range(len(g))
    zs = {}
    for b, c in partition.intervals:
        pattern = tuple(map(eq, c, g))
        z = zs.get(pattern)
        if z is None:
            z = zs[pattern] = frozenset(compress(axes, pattern))
        if b == c:
            yield b, z
            continue
        for a in product(*[range(bi, bi + 1) if top else range(bi, ci + 1)
                           for bi, ci, top in zip(b, c, pattern)]):
            yield a, z


def partition_to_decomposition(poset, partition):
    """Map an interval partition to the Stanley decomposition it encodes,
    over the poset's ring, spaces sorted by key (see ``_bases``)."""
    return _embed_and_invert(poset, partition, poset.context)


@dataclass(frozen=True)
class SdepthResult:
    value: int
    witness: StanleyDecomposition

    def __int__(self):
        return self.value


def _embed_and_invert(poset, partition, ctx):
    """The decomposition of I/J over ctx that an interval partition of the
    poset of its contraction encodes, spaces sorted by key.  Each space of
    ``_bases`` is fanned out over the inverted variables of ctx, with x or
    x^-1 for each, built once, straight from its interval."""
    spaces = stanley._fan_out(ctx, _bases(poset, partition), ctx.inverted)
    # every space holds its root and the spaces are disjoint, so no two
    # share a root, and root order is the order of StanleySpace.key
    spaces.sort(key=attrgetter("root"))
    return StanleyDecomposition(ctx, tuple(spaces))


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
    k, partition = max_interval_partition(poset, budget)
    return SdepthResult(k, _embed_and_invert(poset, partition, I.context))

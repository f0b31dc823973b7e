"""Stanley spaces and decompositions over a localized polynomial ring.

A Stanley space is a root monomial u together with an admissible variable
set Z: plain variables x_i (any i) and inverses x_j^-1 (only for inverted
j), never both for the same j.  Geometrically u*K[Z] is an axis-aligned
semi-infinite box of lattice points, which is what all verification works
on.

A space is checked where it enters: by ``StanleySpace`` from the Python
API, by ``parsing.parse_decomposition`` from text.  Spaces the program
builds from valid ones are valid and are not checked again.
"""

from bisect import bisect_left
from collections import defaultdict, namedtuple
from functools import cached_property
from itertools import chain, compress, product, repeat
from math import prod
from operator import add, attrgetter, itemgetter, not_

from . import ring
from ._box import Box
from .errors import (
    AnswerTooLargeError,
    BoxTooLargeError,
    ContextMismatchError,
    MalformedInputError,
    VerificationError,
    ZeroModuleError,
)
from .ring import RingContext


class StanleySpace(ring._Frozen):
    __slots__ = _shown = ("context", "root", "zplus", "zminus")
    _key = attrgetter(*_shown)

    def __init__(self, context, root, zplus=frozenset(), zminus=frozenset()):
        root = ring.check_monomial(root, context)
        zplus, zminus = frozenset(zplus), frozenset(zminus)
        _check_z(context, zplus, zminus)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "zplus", zplus)
        object.__setattr__(self, "zminus", zminus)

    def __reduce__(self):
        # pickle would restore the slots through __setattr__, which refuses
        return StanleySpace, self._key(self)

    @property
    def dimension(self):
        return len(self.zplus) + len(self.zminus)


def _check_z(ctx, zplus, zminus):
    """Raise MalformedInputError unless the frozensets zplus and zminus
    form an admissible set of ctx."""
    if zplus & zminus:
        raise MalformedInputError(
            "a variable and its inverse cannot both be admissible"
        )
    if not zminus <= ctx.inverted:
        raise MalformedInputError("inverse variable outside the inverted set")
    for i in zplus:
        if not 0 <= i < ctx.n:
            raise MalformedInputError("admissible index out of range")


def space_contains(s, m):
    """Whether the monomial m lies in the space: at least the root on
    zplus, at most it on zminus and equal to it elsewhere."""
    m = ring.check_monomial(m, s.context)
    return all(e >= u if i in s.zplus else e <= u if i in s.zminus else e == u
               for i, (e, u) in enumerate(zip(m, s.root)))


class StanleyDecomposition(ring._Frozen):
    """The spaces of a decomposition as two columns: ``roots``, the root of
    each space, and ``zs``, its (zplus, zminus) pair of frozensets.  Every
    command reads the columns; ``spaces``, the StanleySpace objects, is
    built from them on first read and kept.  Two decompositions are equal
    when their rings and their columns are, that is, when their spaces are,
    in order."""

    _key = attrgetter("context", "roots", "zs")
    _shown = ("context", "spaces")

    def __init__(self, context, spaces):
        spaces = tuple(spaces)
        for s in spaces:
            if s.context is not context and s.context != context:
                raise ContextMismatchError("space context differs from decomposition")
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "roots", tuple(map(attrgetter("root"), spaces)))
        object.__setattr__(self, "zs", tuple(zip(map(attrgetter("zplus"), spaces),
                                                 map(attrgetter("zminus"), spaces))))
        self.__dict__["spaces"] = spaces

    @classmethod
    def _of_columns(cls, context, roots, zs):
        """The decomposition of the tuples roots and zs of valid spaces of
        context, which are not checked again: those
        ``parsing.parse_decomposition`` checked as it read them, or those
        ``_fan_out``, ``adjoin_variable`` and the singleton lift of
        ``solver._embed_and_invert`` built from valid spaces."""
        D = object.__new__(cls)
        object.__setattr__(D, "context", context)
        object.__setattr__(D, "roots", roots)
        object.__setattr__(D, "zs", zs)
        return D

    @cached_property
    def spaces(self):
        ctx = self.context
        return tuple(StanleySpace(ctx, root, zplus, zminus)
                     for root, (zplus, zminus) in zip(self.roots, self.zs))


def sdepth_of(D):
    """min |Z_i| over the spaces of the decomposition, one per distinct Z."""
    if not D.zs:
        raise ZeroModuleError("sdepth of an empty decomposition is undefined")
    return min(len(zplus) + len(zminus) for zplus, zminus in set(D.zs))


# a decompose answer peaks at about 220 bytes per space, its printed line
# included: 215 MB resident for the 970,299 singletons of
# (1)/(x^99, y^99, z^99), in JSON and in text; the singletons of a box of
# solver.MAX_BOX_CELLS cells are as many
MAX_SPACES = 10**6


def _fan_out(ctx, roots, zpluses):
    """Localize the spaces root*K[zplus] over the equally long sequences
    roots and zpluses, of frozensets holding every inverted index A of
    ctx, at the variables in A.

    Each space becomes one space of ctx per subset L of A, with x_l^-1 in
    place of x_l and the root divided by x_l for each l in L; the spaces
    come in the order of roots, then of ``product`` over sorted A.  Every
    new space keeps the dimension of the old one, which is why sdepth does
    not drop under localization.  More than MAX_SPACES spaces raise
    AnswerTooLargeError before they are built.  The spaces of each L fill
    every 2^|A|-th place of the answer in one pass, their Z looked up per
    distinct zplus.  Returns the columns of the new spaces, roots and zs,
    as tuples and unchecked: valid spaces stay valid, as a root moves by
    -1 only on L and zminus = L lies in A, which zplus - L avoids."""
    count = len(roots)
    if not count:       # no space: the 2^|A| subsets are not built
        return (), ()
    A = sorted(ctx.inverted)
    if count << len(A) > MAX_SPACES:
        raise AnswerTooLargeError(
            "the answer would have more than %d Stanley spaces" % MAX_SPACES)
    subsets = [frozenset(compress(A, bits)) for bits in product((False, True), repeat=len(A))]
    step = len(subsets)
    distinct = set(zpluses)
    out_roots, out_zs = [None] * (count * step), [None] * (count * step)
    for j, L in enumerate(subsets):
        # the root of the space for L is root + shift, with -1 on L; the
        # first subset is empty, and its space keeps the root
        if L:
            shift = tuple(-(i in L) for i in range(ctx.n))
            out_roots[j::step] = list(map(tuple, map(map, repeat(add), roots, repeat(shift))))
        else:
            out_roots[j::step] = roots
        z_of = {zplus: (zplus - L, L) for zplus in distinct}
        out_zs[j::step] = list(map(z_of.__getitem__, zpluses))
    return tuple(out_roots), tuple(out_zs)


def _sorted_by_root(ctx, roots, zs):
    """The decomposition of checked columns whose roots are distinct, with
    its spaces sorted by root."""
    pairs = sorted(zip(roots, zs), key=itemgetter(0))
    return StanleyDecomposition._of_columns(
        ctx, tuple(map(itemgetter(0), pairs)), tuple(map(itemgetter(1), pairs)))


def canonical_sf_decomposition(ctx):
    """The canonical decomposition of the whole localized ring: one space
    per subset L of the inverted indices, with root prod_{l in L} x_l^-1
    and Z inverting exactly the variables in L.  2^|A| spaces, all of
    dimension n."""
    return _sorted_by_root(ctx, *_fan_out(ctx, [ring.one(ctx)], [frozenset(range(ctx.n))]))


# failure is "", "disjointness", "coverage" or "containment"; witness is a
# monomial exhibiting it; every predicate threshold is < box_bound
class VerificationReport(namedtuple("VerificationReport", "valid failure witness box_bound",
                                    defaults=("", None, 0))):
    __slots__ = ()

    def __bool__(self):
        return self.valid


def clamp_bound(D, I, J):
    """1 + the largest |exponent| over all generators of I and J and all
    roots of D.  Clamping any coordinate into the box of this radius
    preserves every membership predicate, so a verdict on the box is a
    verdict on all of Z^n."""
    monomials = chain(I.generators, J.generators, D.roots)
    return max(map(abs, chain.from_iterable(monomials)), default=0) + 1


# refused before any mask is built: the verifier peaks at a few masks of
# one bit per cell, 16 MB each at this size (105 MB resident in all)
MAX_GRID_CELLS = 2**27


def verify_decomposition(D, I, J):
    """Exact validity check of D against I/J on the clamp box.

    Reports the failure at the lexicographically first box monomial that
    fails, with that monomial as witness: a monomial covered by two spaces
    (disjointness), else a monomial of I\\J covered by no space (coverage),
    else a space monomial outside I\\J (containment).

    The box is never enumerated point by point.  Each coordinate is cut at
    its low end, 0 or -B on an inverted axis, at every lo and hi + 1 of a
    space and, off the inverted axes, at every generator exponent, so every
    membership test is constant on each cell of the grid of cuts, a
    ``_box.Box`` whose bit order is the lex order of the cells' lower
    corners.  A space is one interval [lo, hi], the mask shape(hi - lo) <<
    lo, and I and J are ideals.  The lowest bit covered twice, or covered
    exactly when outside I\\J, is the lex-first failing monomial.  A grid of
    more than MAX_GRID_CELLS cells raises BoxTooLargeError.
    """
    if D.context != I.context or I.context != J.context:
        raise ContextMismatchError("decomposition and ideals must share a ring")
    ring.require_subquotient(I, J)
    B = clamp_bound(D, I, J)
    roots, zs, inverted = D.roots, D.zs, D.context.inverted
    # u*K[Z] is AtLeast u_i on zplus, AtMost u_i on zminus, Fixed elsewhere: per
    # axis, the cut each space starts at and the one past its end, B + 1 if none
    axes, starts, ends = [], [], []
    for i in range(D.context.n):
        low = -B if i in inverted else 0
        starts.append([low if i in zminus else root[i] for root, (_, zminus) in zip(roots, zs)])
        ends.append([B + 1 if i in zplus else root[i] + 1 for root, (zplus, _) in zip(roots, zs)])
        cuts = {low, *starts[-1], *ends[-1]} - {B + 1}
        if i not in inverted:       # the multiples of g are AtLeast g_i
            cuts.update(g[i] for g in I.generators | J.generators)
        axes.append(sorted(cuts))
    if prod(map(len, axes)) > MAX_GRID_CELLS:
        raise BoxTooLargeError("the verification grid has more than %d cells" % MAX_GRID_CELLS)
    box = Box(tuple(len(cuts) - 1 for cuts in axes))
    # corner codes, one axis column at a time; hi is one cell below each end
    los, his = [0] * len(roots), [-sum(box.strides)] * len(roots)
    for cuts, s, start, end in zip(axes, box.strides, starts, ends):
        at = dict(zip(cuts + [B + 1], range(0, (len(cuts) + 1) * s, s)))
        los = list(map(add, los, map(at.__getitem__, start)))
        his = list(map(add, his, map(at.__getitem__, end)))
    # the spaces' lo codes by shape, so that each shape is built once
    shapes = defaultdict(list)
    for lo, hi in zip(los, his):
        shapes[hi - lo].append(lo)
    covered = twice = 0
    for off, group in shapes.items():
        shape = box.shape(off)
        for lo in group:
            cells = shape << lo
            twice |= covered & cells
            covered |= cells
    # a generator's cell: the index of its cut off the inverted axes, 0 on them
    I_mask, J_mask = (box.ideal([tuple([0 if i in inverted else bisect_left(cuts, g[i])
                                        for i, cuts in enumerate(axes)]) for g in K.generators])
                      for K in (I, J))
    member = I_mask & ~J_mask
    failing = twice | (member ^ covered)
    if not failing:
        return VerificationReport(True, "", None, B)
    bit = (failing & -failing).bit_length() - 1
    failure = ("disjointness" if twice >> bit & 1 else
               "coverage" if member >> bit & 1 else "containment")
    witness = tuple([cuts[t] for cuts, t in zip(axes, box.cell(bit))])
    return VerificationReport(False, failure, witness, B)


# dropped: the indices of the input spaces with Z_A not inside Z_i
LocalizationResult = namedtuple("LocalizationResult",
                                "decomposition dropped localized_I localized_J")


def localize_decomposition(D, I, J, A):
    """Localize a valid decomposition of I/J over the polynomial ring at
    the product of the variables indexed by A.  D comes from outside, so
    it is verified first; an invalid D raises VerificationError.

    Spaces whose Z does not contain every localized variable are dropped;
    each surviving space u*K[Z] fans out into one space per subset L of A,
    with x_l inverted for l in L and the root divided by prod_{l in L} x_l.
    """
    ctx = D.context
    if ctx.inverted:
        raise ContextMismatchError("input decomposition must be over the polynomial ring")
    A = frozenset(A)
    new_ctx = RingContext(ctx.n, A)     # checks A before the verifier runs
    report = verify_decomposition(D, I, J)
    if not report:
        raise VerificationError(
            "input is not a decomposition of I/J (%s at %r)"
            % (report.failure, report.witness)
        )
    If = ring.extend_to(I, new_ctx)
    Jf = ring.extend_to(J, new_ctx)
    # one subset test per distinct Z
    keeps = {z: A <= z[0] for z in set(D.zs)}
    kept = list(map(keeps.__getitem__, D.zs))
    dropped = tuple(compress(range(len(kept)), map(not_, kept)))
    Df = StanleyDecomposition._of_columns(new_ctx, *_fan_out(
        new_ctx, list(compress(D.roots, kept)),
        list(map(itemgetter(0), compress(D.zs, kept)))))
    return LocalizationResult(Df, dropped, If, Jf)


def adjoin_variable(D, laurent):
    """Extend a decomposition of I/J by one fresh variable t.

    Plain extension appends t to every Z; Laurent extension additionally
    pairs each space with its t^-1 shadow.  Either way sdepth goes up by
    exactly one.  Valid spaces stay valid, so they are not checked again.
    """
    ctx = D.context
    inverted = ctx.inverted | ({ctx.n} if laurent else frozenset())
    new_ctx = RingContext(ctx.n + 1, inverted)
    t = ctx.n
    roots, zs = [], []
    for root, (zplus, zminus) in zip(D.roots, D.zs):
        roots.append(root + (0,))
        zs.append((zplus | {t}, zminus))
        if laurent:
            roots.append(root + (-1,))
            zs.append((zplus, zminus | {t}))
    return StanleyDecomposition._of_columns(new_ctx, tuple(roots), tuple(zs))

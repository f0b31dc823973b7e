"""Stanley spaces and decompositions over a localized polynomial ring.

A Stanley space is a root monomial u together with an admissible variable
set Z: plain variables x_i (any i) and inverses x_j^-1 (only for inverted
j), never both for the same j.  Geometrically u*K[Z] is an axis-aligned
semi-infinite box of lattice points, which is what the Region view makes
explicit and what all verification works on.
"""

from dataclasses import dataclass
from itertools import accumulate, chain, compress, product
from operator import add, attrgetter, itemgetter, xor

from . import ring
from .errors import (
    AnswerTooLargeError,
    ContextMismatchError,
    MalformedInputError,
    VerificationError,
    ZeroModuleError,
)
from .ring import MonomialIdeal, RingContext


@dataclass(frozen=True, slots=True)
class StanleySpace:
    context: RingContext
    root: tuple
    zplus: frozenset = frozenset()
    zminus: frozenset = frozenset()

    def __post_init__(self):
        # tuple(t) and frozenset(f) return t and f themselves, so a field
        # that is already normal is not written back
        ctx = self.context
        root = ring.check_monomial(self.root, ctx)
        if root is not self.root:
            object.__setattr__(self, "root", root)
        zplus, zminus = frozenset(self.zplus), frozenset(self.zminus)
        if zplus is not self.zplus:
            object.__setattr__(self, "zplus", zplus)
        if zminus is not self.zminus:
            object.__setattr__(self, "zminus", zminus)
        _check_z(ctx, zplus, zminus)

    @property
    def dimension(self):
        return len(self.zplus) + len(self.zminus)

    def key(self):
        return (self.root, tuple(sorted(self.zplus)), tuple(sorted(self.zminus)))


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


def make_spaces(ctx, roots, zs):
    """The list of StanleySpace(ctx, root, zplus, zminus) over the root
    sequence roots and the equally long sequence zs of (zplus, zminus)
    pairs of frozensets, with every check StanleySpace makes.

    A decomposition has few distinct Z and its roots are tuples of ints,
    so each Z is checked once and the roots in C-level passes over all of
    them: each a tuple of length n, with int entries, none negative on a
    plain coordinate.  If any of these fails, the spaces are built one by
    one, so the first bad space raises the error it raises alone, and
    lists, bools and int subclasses are normalized or accepted as there.
    """
    try:
        for zplus, zminus in set(zs):
            _check_z(ctx, zplus, zminus)
        checked = (
            set(map(type, chain.from_iterable(zs))) <= {frozenset}
            and set(map(type, roots)) <= {tuple}
            and set(map(len, roots)) <= {ctx.n}
            and set(map(type, chain.from_iterable(roots))) <= {int}
            and all(min(map(itemgetter(i), roots), default=0) >= 0
                    for i in ctx.plain)
        )
    except (MalformedInputError, TypeError):
        checked = False
    if not checked:
        return [StanleySpace(ctx, root, zplus, zminus)
                for root, (zplus, zminus) in zip(roots, zs)]
    # what __init__ would store, without running the checks again
    spaces = []
    for root, (zplus, zminus) in zip(roots, zs):
        space = object.__new__(StanleySpace)
        object.__setattr__(space, "context", ctx)
        object.__setattr__(space, "root", root)
        object.__setattr__(space, "zplus", zplus)
        object.__setattr__(space, "zminus", zminus)
        spaces.append(space)
    return spaces


@dataclass(frozen=True)
class Region:
    """Per-coordinate constraints: (lo, hi) pairs, None meaning unbounded."""

    bounds: tuple

    def contains(self, m):
        for e, (lo, hi) in zip(m, self.bounds):
            if lo is not None and e < lo:
                return False
            if hi is not None and e > hi:
                return False
        return True


def space_region(s):
    """The lattice region of u*K[Z]: coordinatewise AtLeast on zplus,
    AtMost on zminus, Fixed elsewhere."""
    bounds = []
    for i in range(s.context.n):
        if i in s.zplus:
            bounds.append((s.root[i], None))
        elif i in s.zminus:
            bounds.append((None, s.root[i]))
        else:
            bounds.append((s.root[i], s.root[i]))
    return Region(tuple(bounds))


def space_contains(s, m):
    """Whether the monomial m lies in the space."""
    m = ring.check_monomial(m, s.context)
    return space_region(s).contains(m)


@dataclass(frozen=True)
class StanleyDecomposition:
    context: RingContext
    spaces: tuple

    def __post_init__(self):
        object.__setattr__(self, "spaces", tuple(self.spaces))
        ctx = self.context
        for s in self.spaces:
            if s.context is not ctx and s.context != ctx:
                raise ContextMismatchError("space context differs from decomposition")

    def key(self):
        """Multiset-comparable form (order-insensitive equality)."""
        return tuple(sorted(s.key() for s in self.spaces))

    def same_as(self, other):
        return self.context == other.context and self.key() == other.key()


def sdepth_of(D):
    """min |Z_i| over the spaces of the decomposition."""
    if not D.spaces:
        raise ZeroModuleError("sdepth of an empty decomposition is undefined")
    return min(s.dimension for s in D.spaces)


# a space takes about 2 KB before it is printed, so the answers this allows
# take gigabytes; the singletons of a box of solver.MAX_BOX_CELLS cells are as many
MAX_SPACES = 10**6


def _fan_out(ctx, bases, A):
    """Localize the spaces root*K[zplus] of bases, given as (root, zplus)
    pairs with A inside every zplus, at the variables in A.

    Each space becomes one space of ctx per subset L of A, with x_l^-1 in
    place of x_l and the root divided by x_l for each l in L; the spaces
    come in the order of bases, then of ``product`` over sorted A.  Every
    new space keeps the dimension of the old one, which is why sdepth does
    not drop under localization.  More than MAX_SPACES spaces raise
    AnswerTooLargeError before they are built."""
    A = sorted(A)
    room = MAX_SPACES >> len(A)     # the most bases whose spaces fit
    subsets = [
        frozenset(compress(A, bits))
        for bits in product((False, True), repeat=len(A))
    ] if room else []
    # the root of the space for L is root + shift, with -1 on L; the
    # first subset is empty, and its space keeps the root
    shifts = [tuple(-(i in L) for i in range(ctx.n)) for L in subsets[1:]]
    differences = {}    # zplus -> (zplus - L, L) for each L, in the order of subsets
    roots, zs = [], []
    for count, (root, zplus) in enumerate(bases):
        if count == room:
            raise AnswerTooLargeError(
                "the answer would have more than %d Stanley spaces" % MAX_SPACES)
        zplus = frozenset(zplus)
        pairs = differences.get(zplus)
        if pairs is None:
            pairs = differences[zplus] = [(zplus - L, L) for L in subsets]
        roots.append(root)
        for shift in shifts:
            roots.append(tuple(map(add, root, shift)))
        zs += pairs
    return make_spaces(ctx, roots, zs)


def canonical_sf_decomposition(ctx):
    """The canonical decomposition of the whole localized ring: one space
    per subset L of the inverted indices, with root prod_{l in L} x_l^-1
    and Z inverting exactly the variables in L.  2^|A| spaces, all of
    dimension n."""
    spaces = _fan_out(ctx, [(ring.one(ctx), range(ctx.n))], ctx.inverted)
    spaces.sort(key=lambda s: s.key())
    return StanleyDecomposition(ctx, tuple(spaces))


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    failure: str = ""        # "", "disjointness", "coverage", "containment"
    witness: tuple = None    # a concrete monomial exhibiting the failure
    box_bound: int = 0       # every predicate threshold is < box_bound

    def __bool__(self):
        return self.valid


def clamp_bound(D, I, J):
    """1 + the largest |exponent| over all generators of I and J and all
    roots of D.  Clamping any coordinate into the box of this radius
    preserves every membership predicate, so a verdict on the box is a
    verdict on all of Z^n."""
    monomials = chain(I.generators, J.generators, map(attrgetter("root"), D.spaces))
    return max(map(abs, chain.from_iterable(monomials)), default=0) + 1


def _axis_cells(bounds, low, high):
    """Compress one coordinate of the box, the values [low, high], to cells.

    Returns (corner, bits) pairs in ascending order, one per cell: the
    corner is the cell's lowest value and bit k of bits is set when the
    k-th (lo, hi) constraint in bounds admits the cell's values.  The cuts
    are every lo and hi+1, so each constraint is constant on a cell and
    admits one run of consecutive cells.  Its bit is flipped where the run
    starts and where it ends, and a prefix XOR over the cells sets it on
    the run: O(bounds + cells), not one test per constraint and cell.
    """
    cuts = {low}
    for lo, hi in bounds:
        if lo is not None:
            cuts.add(lo)
        if hi is not None:
            cuts.add(hi + 1)
    corners = sorted(x for x in cuts if low <= x <= high)
    end = len(corners)
    at = dict(zip(corners, range(end)))
    flips = [0] * (end + 1)
    for k, (lo, hi) in enumerate(bounds):
        first = 0 if lo is None or lo <= low else at.get(lo, end)
        last = end if hi is None or hi >= high else 0 if hi < low else at[hi + 1]
        if first < last:
            flips[first] ^= 1 << k
            flips[last] ^= 1 << k
    return list(zip(corners, accumulate(flips[:end], xor)))


def verify_decomposition(D, I, J):
    """Exact validity check of D against I/J on the clamp box.

    Reports the failure at the lexicographically first box monomial that
    fails, with that monomial as witness: a monomial of I\\J covered by no
    space (coverage), a monomial covered by two spaces (disjointness), or
    a space monomial outside I\\J (containment).

    The box is never enumerated point by point.  Each coordinate is cut at
    every threshold of a space region and of a generator of I or J, so
    every membership test is constant on each cell of the resulting grid.
    One bitset per (coordinate, cell) records which regions and generators
    admit it; the AND over the coordinates of a cell says which regions
    cover the cell and whether it lies in I and in J.  Cells are walked in
    lex order of their lower corners, so the lower corner of the first
    failing cell is the lex-first failing monomial of the box.
    """
    if D.context != I.context or I.context != J.context:
        raise ContextMismatchError("decomposition and ideals must share a ring")
    ring.require_subquotient(I, J)
    B = clamp_bound(D, I, J)
    ctx = D.context
    # one bit per space, then per generator of I, then per generator of J
    spaces, gens = D.spaces, list(I.generators) + list(J.generators)
    everything = (1 << (len(spaces) + len(gens))) - 1
    spaces_mask = (1 << len(spaces)) - 1
    I_mask = ((1 << len(I.generators)) - 1) << len(spaces)
    J_mask = everything - spaces_mask - I_mask
    axes = []
    for i in range(ctx.n):
        # u*K[Z] is AtLeast u_i on zplus, AtMost u_i on zminus, Fixed
        # elsewhere; the multiples of g are AtLeast g_i off the inverted axes
        bounds = [(None if i in s.zminus else s.root[i], None if i in s.zplus else s.root[i])
                  for s in spaces]
        if i in ctx.inverted:
            bounds += [(None, None)] * len(gens)
            axes.append(_axis_cells(bounds, -B, B))
        else:
            bounds += [(g[i], None) for g in gens]
            axes.append(_axis_cells(bounds, 0, B))
    for cell in product(*axes):
        bits = everything
        for _, axis_bits in cell:
            bits &= axis_bits
        hits = bits & spaces_mask
        member = bits & I_mask and not bits & J_mask
        if hits & (hits - 1):
            failure = "disjointness"
        elif member and not hits:
            failure = "coverage"
        elif not member and hits:
            failure = "containment"
        else:
            continue
        return VerificationReport(False, failure, tuple(c for c, _ in cell), B)
    return VerificationReport(True, "", None, B)


@dataclass(frozen=True)
class LocalizationResult:
    decomposition: StanleyDecomposition
    dropped: tuple        # indices of input spaces with Z_A not inside Z_i
    localized_I: MonomialIdeal
    localized_J: MonomialIdeal


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
    dropped = tuple(idx for idx, s in enumerate(D.spaces) if not A <= s.zplus)
    bases = [(s.root, s.zplus) for s in D.spaces if A <= s.zplus]
    Df = StanleyDecomposition(new_ctx, tuple(_fan_out(new_ctx, bases, A)))
    return LocalizationResult(Df, dropped, If, Jf)


def adjoin_ideal(I, laurent):
    """Extend an ideal by one fresh variable t (inverted iff laurent)."""
    ctx = I.context
    inverted = ctx.inverted | ({ctx.n} if laurent else frozenset())
    new_ctx = RingContext(ctx.n + 1, inverted)
    return MonomialIdeal(new_ctx, frozenset(g + (0,) for g in I.generators))


def adjoin_variable(D, laurent):
    """Extend a decomposition of I/J by one fresh variable t.

    Plain extension appends t to every Z; Laurent extension additionally
    pairs each space with its t^-1 shadow.  Either way sdepth goes up by
    exactly one.
    """
    ctx = D.context
    inverted = ctx.inverted | ({ctx.n} if laurent else frozenset())
    new_ctx = RingContext(ctx.n + 1, inverted)
    t = ctx.n
    spaces = []
    for s in D.spaces:
        spaces.append(
            StanleySpace(new_ctx, s.root + (0,), s.zplus | {t}, s.zminus)
        )
        if laurent:
            spaces.append(
                StanleySpace(new_ctx, s.root + (-1,), s.zplus, s.zminus | {t})
            )
    return StanleyDecomposition(new_ctx, tuple(spaces))


def restrict_adjoined(D):
    """Test-only inverse of the Laurent adjunction: intersect a
    decomposition of (I/J)[t, t^-1] back down to I/J by stripping t-powers
    from roots and removing t and t^-1 from every Z."""
    ctx = D.context
    t = ctx.n - 1
    if t not in ctx.inverted:
        raise MalformedInputError("last variable is not a Laurent adjunction")
    new_ctx = RingContext(ctx.n - 1, ctx.inverted - {t})
    spaces = []
    for s in D.spaces:
        a = s.root[t]
        if a > 0 and t not in s.zminus:
            continue   # the space misses the t-degree-zero slice
        if a < 0 and t not in s.zplus:
            continue
        spaces.append(
            StanleySpace(
                new_ctx,
                s.root[:t],
                frozenset(s.zplus - {t}),
                frozenset(s.zminus - {t}),
            )
        )
    return StanleyDecomposition(new_ctx, tuple(spaces))

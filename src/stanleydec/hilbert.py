"""Modified Hilbert function and series for subquotients of the localized
ring.

Degrees are total absolute degrees |a| = sum |a_i|, so a Laurent variable
contributes in both directions.  Series are rational functions P(t)/(1-t)^d
with integer P, held in the canonical form where P is not divisible by
(1-t).  Note these degree slices do not multiply into each other - nothing
here ever multiplies two graded components.
"""

from dataclasses import dataclass
from operator import eq

from . import ring, solver
from .errors import MalformedInputError
from .stanley import StanleyDecomposition


def _poly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _binomials(a, sign=1):
    """The coefficients of (1 + sign*t)^a, one row of binomials built by
    C(a, k) = C(a, k-1) (a-k+1) / k; the division is exact."""
    row = [1]
    for k in range(1, a + 1):
        row.append(row[-1] * sign * (a - k + 1) // k)
    return row


def _poly_div_one_minus_t(p):
    """Exact division by (1-t); returns None when not divisible."""
    if not p:
        return ()
    q = []
    acc = 0
    for c in p:
        acc += c
        q.append(acc)
    if q[-1] != 0:
        return None
    return _poly_trim(q[:-1])


@dataclass(frozen=True)
class HilbertSeries:
    """P(t)/(1-t)^pole with P an ascending integer coefficient tuple."""

    numerator: tuple
    pole: int

    def __post_init__(self):
        num = _poly_trim(self.numerator)
        pole = self.pole
        if pole < 0:
            raise MalformedInputError("pole order must be nonnegative")
        while pole > 0:
            q = _poly_div_one_minus_t(num)
            if q is None:
                break
            num = q
            pole -= 1
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "pole", pole)

    def numerator_at_one(self):
        return sum(self.numerator)

    def __add__(self, other):
        return _sum_over_pole([(self.numerator, self.pole), (other.numerator, other.pole)])


ZERO_SERIES = HilbertSeries((), 0)


def _sum_over_pole(terms):
    """The sum of the series P/(1-t)^d over the (P, d) terms: each P times
    (1-t)^(top-d), top the largest d, added up and normalized once.  A zero
    P adds nothing, so it costs no row of (1-t)^(top-d)."""
    top = max((d for _, d in terms), default=0)
    rows = {}
    out = []
    for num, d in terms:
        if not any(num):
            continue
        row = rows.get(d)
        if row is None:
            row = rows[d] = _binomials(top - d, -1)
        out += [0] * (len(num) + len(row) - 1 - len(out))
        for i, x in enumerate(num):
            if x:
                for j, y in enumerate(row, i):
                    out[j] += x * y
    return HilbertSeries(out, top)


def _vectors_of_abs_degree(ctx, d):
    """All exponent vectors of total absolute degree d, nonnegative off the
    inverted coordinates, each as the tuple of its (index, exponent) pairs
    with a nonzero exponent, by index.  An explicit stack holds the vectors
    begun, so no n is too large for the recursion limit."""
    stack = [(0, d, ())]
    while stack:
        i, remaining, entries = stack.pop()
        if not remaining:
            yield entries
            continue
        for j in range(i, ctx.n):
            for v in range(1, remaining + 1):
                for s in (v, -v) if j in ctx.inverted else (v,):
                    stack.append((j + 1, remaining - v, entries + ((j, s),)))


def hilbert_count(I, J, d):
    """Number of monomials of I\\J of total absolute degree d, by direct
    enumeration.  This is the independent oracle for the series machinery
    and deliberately shares none of its code.  A generator, zero on the
    inverted coordinates, divides x^a when it is <= a on its support."""
    if d < 0:
        raise MalformedInputError("degree must be nonnegative")
    ring.require_subquotient(I, J)

    gens_I, gens_J = ([[(i, e) for i, e in enumerate(g) if e] for g in K.generators]
                      for K in (I, J))

    def divided(gens, a):
        for g in gens:
            for i, e in g:
                if a.get(i, 0) < e:
                    break
            else:
                return True
        return False

    vectors = map(dict, _vectors_of_abs_degree(I.context, d))
    return sum(1 for a in vectors if divided(gens_I, a) and not divided(gens_J, a))


def _t_power(k):
    return (0,) * k + (1,)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _poly_trim(out)


def series_of_space(s):
    """Series of a single Stanley space, as a product of one factor per
    coordinate.

    The space is a product of per-coordinate sets and absolute degree is
    additive, so its series is the product of their series.  A fixed
    coordinate gives t^{|r|}, an admissible direction pointing away from
    zero gives t^{|r|}/(1-t), and a direction pointing back through zero
    (positive root with the inverse admissible, or negative root with the
    plain variable admissible) gives t^{|r|} + ... + t plus 1/(1-t), that
    is (1 + t - t^{|r|+1})/(1-t).  A conflict-free space is the product
    with no conflict factors, t^{|root|}/(1-t)^{|Z|}.
    """
    root = s.root
    conflicts = [
        i
        for i in range(s.context.n)
        if (root[i] > 0 and i in s.zminus) or (root[i] < 0 and i in s.zplus)
    ]
    num = _t_power(sum(abs(e) for i, e in enumerate(root) if i not in conflicts))
    for i in conflicts:
        num = _poly_mul(num, (1, 1) + (0,) * (abs(root[i]) - 1) + (-1,))
    return HilbertSeries(num, s.dimension)


def series_of_laurent_ring(u, inverted, extra_vars):
    """Closed form for u times the ring with the given coordinates
    inverted and extra_vars additional plain variables:
    t^{|u'|} (1+t)^{|A|} / (1-t)^{|A|+extra}, with unit factors of u
    stripped."""
    inverted = frozenset(inverted)
    deg = sum(abs(e) for i, e in enumerate(u) if i not in inverted)
    for i, e in enumerate(u):
        if e < 0 and i not in inverted:
            raise MalformedInputError("negative exponent off the inverted set")
    return HilbertSeries((0,) * deg + tuple(_binomials(len(inverted))),
                         len(inverted) + extra_vars)


def series_of_decomposition(D):
    """Sum of the space series over a common denominator, normalized once.
    For a valid decomposition the numerator evaluated at 1 counts the
    spaces of maximal dimension."""
    return _sum_over_pole([(h.numerator, h.pole) for h in map(series_of_space, D.spaces)])


def series_of_poset(poset):
    """(H, low): the series of I'/J', the sum over the elements a of its
    characteristic poset of t^{|a|}/(1-t)^{rho(a)}, rho(a) = #{i: a_i =
    g_i}, and low, the least rho(a) (None for the empty poset).

    It is read off the runs of the mask (``Box.runs``).  A run head + (t,)
    + tail, first <= t <= last, has rho = rho(head) + len(tail) + (t ==
    g_r) and degree |head| + t, so the cells of one rho cover the degrees
    d..e and add up to (t^d - t^{e+1})/(1-t): two end terms, and two more
    at rho + 1 when the run reaches g_r.  rho lies between the number z of
    axes with g_i = 0 and n, so the end terms fill one block of degrees
    per value of rho, allocated before the runs are read, and block rho is
    a numerator over (1-t)^{rho+1}."""
    g, box = poset.bound, poset.box
    if not g:       # n = 0: the one cell () is no run
        return (HilbertSeries((1,), 0), 0) if poset.mask else (ZERO_SERIES, None)
    r = box.axis
    top, g_head = g[r], g[:r]
    zeros = g.count(0)
    shift = len(box.tail) - zeros
    # the degrees 0..|g| and one past them, for each rho from z to n
    blocks = [[0] * (sum(g) + 2) for _ in range(len(g) - zeros + 1)]
    for head, first, last in box.runs(poset.mask):
        k = shift + sum(map(eq, head, g_head))      # rho - z
        d = sum(head)
        if last == top:
            blocks[k + 1][d + top] += 1
            blocks[k + 1][d + top + 1] -= 1
            last -= 1
        if first <= last:
            blocks[k][d + first] += 1
            blocks[k][d + last + 1] -= 1
    low = next((zeros + i for i, block in enumerate(blocks) if any(block)), None)
    return _sum_over_pole([(block, zeros + i + 1) for i, block in enumerate(blocks)]), low


def hdepth_bound(series):
    """The largest r <= d for which (1-t)^r H(t), H = P(t)/(1-t)^d, has no
    negative coefficient up to degree deg P: d-r rounds of prefix sums of P.

    The Hilbert depth, the largest r with no negative coefficient in any
    degree, passes this test, so it is at most the value returned.  A
    Stanley decomposition into spaces u K[Z] with |Z| >= k makes (1-t)^k H
    the sum of the series t^{deg u}/(1-t)^{|Z|-k}, so sdepth <= hdepth
    (Uliczka, manuscripta math. 132, 2010)."""
    coeffs = list(series.numerator)
    r = series.pole
    while r > 0 and min(coeffs, default=0) < 0:
        r -= 1
        acc = 0
        for i, c in enumerate(coeffs):
            acc += c
            coeffs[i] = acc
    return r


def series_of_quotient(I, J):
    """The series of I/J with no decomposition built: the series of the
    poset of its contraction, times (1+t) per inverted variable; the pole
    already counts each inverted variable's one-cell axis.  Raises
    ZeroModuleError when I/J is the zero module."""
    poset = solver._poset_of(I, J, "I/J is the zero module; no Hilbert series is computed")
    plain, _ = series_of_poset(poset)
    laurent = _binomials(len(I.context.inverted))
    return HilbertSeries(_poly_mul(plain.numerator, laurent), plain.pole)


def count_maximal_spaces(obj):
    """P(1) of the canonical series - the decomposition-independent number
    of maximal-dimension Stanley spaces."""
    if isinstance(obj, StanleyDecomposition):
        obj = series_of_decomposition(obj)
    return obj.numerator_at_one()


MAX_DEGREE = 10**5   # expand lists a coefficient per degree: 10^12 would not fit in memory


def expand(series, d_max):
    """The power-series coefficients of degrees 0..d_max, as a list of
    exact integers indexed by degree."""
    if d_max < 0:
        raise MalformedInputError("expansion degree must be nonnegative")
    if d_max > MAX_DEGREE:
        raise MalformedInputError("expansion degree exceeds the limit of %d" % MAX_DEGREE)
    coeffs = list(series.numerator[: d_max + 1])
    coeffs += [0] * (d_max + 1 - len(coeffs))
    for _ in range(series.pole):
        acc = 0
        for i in range(d_max + 1):
            acc += coeffs[i]
            coeffs[i] = acc
    return coeffs

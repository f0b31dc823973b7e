"""Modified Hilbert function and series for subquotients of the localized
ring.

Degrees are total absolute degrees |a| = sum |a_i|, so a Laurent variable
contributes in both directions.  Series are rational functions P(t)/(1-t)^d
with integer P, held in the canonical form where P is not divisible by
(1-t).  Note these degree slices do not multiply into each other - nothing
here ever multiplies two graded components.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from operator import eq

from . import ring, solver
from .errors import MalformedInputError
from .stanley import StanleyDecomposition


def _poly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _poly_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _poly_trim(out)


def _poly_mul_one_minus_t(p, times):
    """Multiply by (1-t)^times."""
    if not p:
        return ()     # padding the zero numerator one factor at a time is quadratic
    out = list(p)
    for _ in range(times):
        nxt = [0] * (len(out) + 1)
        for i, c in enumerate(out):
            nxt[i] += c
            nxt[i + 1] -= c
        out = nxt
    return _poly_trim(out)


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
        pole = max(self.pole, other.pole)
        a = _poly_mul_one_minus_t(self.numerator, pole - self.pole)
        b = _poly_mul_one_minus_t(other.numerator, pole - other.pole)
        return HilbertSeries(_poly_add(a, b), pole)


ZERO_SERIES = HilbertSeries((), 0)


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
    num = _t_power(deg)
    for _ in range(len(inverted)):
        num = _poly_add(num, (0,) + num)
    return HilbertSeries(num, len(inverted) + extra_vars)


def series_of_decomposition(D):
    """Sum of the space series over a common denominator.  For a valid
    decomposition the numerator evaluated at 1 counts the spaces of
    maximal dimension."""
    total = ZERO_SERIES
    for s in D.spaces:
        total = total + series_of_space(s)
    return total


def poset_counts(poset):
    """How many elements a of the characteristic poset have each pair
    (rho(a), |a|), with rho(a) = #{i: a_i = g_i}, counted by the runs of
    its mask (``Box.runs``).  A run head + (t,) + tail, first <= t <= last,
    has rho = rho(head) + len(tail) + (t == g_r) and degree |head| + t: it
    adds one over a range of degrees of one rho, and one at rho + 1 when
    it reaches g_r, to one difference array.  rho lies between the number
    z of axes with g_i = 0 and n, so the array holds one block of degrees
    per value of rho - z."""
    g, box = poset.bound, poset.box
    if not g:       # n = 0: the one cell () is no run
        return Counter({(0, 0): 1} if poset.mask else {})
    r = box.axis
    top, g_head = g[r], g[:r]
    zeros = g.count(0)
    shift = len(box.tail) - zeros
    width = sum(g) + 2      # the degrees 0..|g| and one past them
    diff = [0] * ((len(g) - zeros + 1) * width)
    for head, first, last in box.runs(poset.mask):
        at = (shift + sum(map(eq, head, g_head))) * width + sum(head)
        if last == top:
            diff[at + width + top] += 1
            diff[at + width + top + 1] -= 1
            last -= 1
        if first <= last:
            diff[at + first] += 1
            diff[at + last + 1] -= 1
    return Counter({(zeros + i // width, i % width): count
                    for i, count in enumerate(accumulate(diff)) if count})


def series_of_counts(pairs):
    """The series of I'/J' from the ``poset_counts`` of its characteristic
    poset: the sum over the elements a of t^{|a|}/(1-t)^{rho(a)}."""
    top = max((d for _, d in pairs), default=0)
    plain = ZERO_SERIES
    for rho in {rho for rho, _ in pairs}:
        plain += HilbertSeries(tuple(pairs[rho, d] for d in range(top + 1)), rho)
    return plain


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
    plain = series_of_counts(poset_counts(poset))
    laurent = series_of_laurent_ring((0,) * I.context.n, I.context.inverted, 0)
    return HilbertSeries(_poly_mul(plain.numerator, laurent.numerator), plain.pole)


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

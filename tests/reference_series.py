"""Recursive reference for the Hilbert series of one Stanley space.

The split-toward-zero recursion that ``hilbert.series_of_space`` replaced,
kept as the oracle of the series parity test.  While the root points
against an admissible direction, it peels off the slab at the root's
exponent and shifts the root one step toward zero; the conflict-free base
case is t^{|root|}/(1-t)^{|Z|}.  It recurses once per unit of conflicting
exponent, so it is only fit for small roots.
"""

from stanleydec.hilbert import HilbertSeries
from stanleydec.stanley import StanleySpace

from util import abs_degree


def series_of_space(s):
    root = s.root
    conflict = None
    for i in range(s.context.n):
        if (root[i] > 0 and i in s.zminus) or (root[i] < 0 and i in s.zplus):
            conflict = i
            break
    if conflict is None:
        return HilbertSeries((0,) * abs_degree(root) + (1,), s.dimension)
    i = conflict
    if root[i] > 0:
        slab = StanleySpace(s.context, root, s.zplus, s.zminus - {i})
        shifted = root[:i] + (root[i] - 1,) + root[i + 1:]
    else:
        slab = StanleySpace(s.context, root, s.zplus - {i}, s.zminus)
        shifted = root[:i] + (root[i] + 1,) + root[i + 1:]
    rest = StanleySpace(s.context, shifted, s.zplus, s.zminus)
    return series_of_space(slab) + series_of_space(rest)

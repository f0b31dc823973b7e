"""The series of the characteristic poset taken cell by cell.

``hilbert.series_of_poset`` reads the poset by runs and sums over one
common pole.  This oracle decodes every cell, counts the cells of each
pair (rho(a), |a|), and adds up t^{|a|}/(1-t)^{rho(a)} with
``HilbertSeries.__add__``.
"""

from collections import Counter
from operator import eq

from stanleydec.hilbert import ZERO_SERIES, HilbertSeries


def series_of_poset(poset):
    """(H, low): the sum over the elements a of the poset of
    t^{|a|}/(1-t)^{rho(a)}, rho(a) = #{i: a_i = g_i}, and the least
    rho(a) (None when the poset is empty), from the decoded cells."""
    box, g = poset.box, poset.bound
    cells = map(box.cell, box.codes(poset.mask))
    counts = Counter((sum(map(eq, a, g)), sum(a)) for a in cells)
    total = ZERO_SERIES
    for (rho, d), count in counts.items():
        total += HilbertSeries((0,) * d + (count,), rho)
    return total, min((rho for rho, _ in counts), default=None)

"""The (rho, |a|) counts of the characteristic poset taken cell by cell.

``hilbert.poset_counts`` as it was before it read the poset by runs: one
pass over the decoded elements.  It is kept as the oracle of the run
count.
"""

from collections import Counter
from operator import eq


def poset_counts(poset):
    """How many elements a of the poset have each pair (rho(a), |a|), with
    rho(a) = #{i: a_i = g_i}, from the mask decoded cell by cell."""
    box, g = poset.box, poset.bound
    cells = map(box.cell, box.codes(poset.mask))
    return Counter((sum(map(eq, a, g)), sum(a)) for a in cells)

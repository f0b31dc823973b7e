"""The characteristic poset found cell by cell.

The walk ``solver.build_characteristic_poset`` made before the poset
became a mask: every cell a of the box [0, g] is tested for x^a in I'\\J'
with two membership tests.  It is kept as the oracle of the poset tests.
"""

from itertools import product

from stanleydec import ring


def characteristic_cells(Ip, Jp):
    """(g, elements, mask): the componentwise maximum g of the generators,
    the lex-sorted cells a <= g with x^a in I'\\J', and the mask whose bit
    i is set when the i-th cell of the box in lex order is one of them."""
    gens = list(Ip.generators) + list(Jp.generators)
    g = tuple(max((h[i] for h in gens), default=0) for i in range(Ip.context.n))
    elements, mask = [], 0
    for i, a in enumerate(product(*[range(gi + 1) for gi in g])):
        if ring.contains(Ip, a) and not ring.contains(Jp, a):
            elements.append(a)
            mask |= 1 << i
    return g, tuple(elements), mask

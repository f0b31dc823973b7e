"""Reference lift from an interval partition to a Stanley decomposition.

The per-space loops that ``solver._bases``, ``stanley._fan_out`` and the
sort of ``solver._embed_and_invert`` replaced with bulk operations, kept
as the oracle of the lift parity test: every interval builds its own Z
and runs ``itertools.product`` over its roots, every space is shifted one
coordinate at a time, and the spaces are sorted by ``util.space_key``.
"""

from itertools import product

from stanleydec.stanley import StanleyDecomposition, StanleySpace
from util import space_key


def bases(poset, partition):
    """(root, Z) per space of each interval, in the order of the intervals,
    then of the roots."""
    g = poset.bound
    for b, c in partition:
        z = frozenset(i for i, (ci, gi) in enumerate(zip(c, g)) if ci == gi)
        for a in product(*[range(bi, bi + 1) if ci == gi else range(bi, ci + 1)
                           for bi, ci, gi in zip(b, c, g)]):
            yield a, z


def fan_out(ctx, pairs, A):
    """One space per (root, zplus) pair and subset L of A, with x_l^-1 for
    x_l and the root divided by x_l on L, subsets in ``product`` order."""
    A = sorted(A)
    subsets = [frozenset(a for a, bit in zip(A, bits) if bit)
               for bits in product((False, True), repeat=len(A))]
    spaces = []
    for root, zplus in pairs:
        zplus = frozenset(zplus)
        for L in subsets:
            shifted = tuple(e - 1 if i in L else e for i, e in enumerate(root))
            spaces.append(StanleySpace(ctx, shifted, zplus - L, L))
    return spaces


def lift(poset, partition, ctx):
    """The decomposition over ctx that the partition of the poset of its
    contraction encodes, spaces sorted by space_key."""
    spaces = fan_out(ctx, bases(poset, partition), ctx.inverted)
    spaces.sort(key=space_key)
    return StanleyDecomposition(ctx, tuple(spaces))

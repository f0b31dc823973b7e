"""Cells of the clamp box [0, g] as the bits of one Python int.

The cell a, 0 <= a <= g, has the mixed-radix code sum_i a_i * stride_i with
the first coordinate most significant, so bit order is lex order.  A mask
is built by shifts, one axis at a time: or-ing a mask with its copies
shifted by stride_i, 2 stride_i, ..., d stride_i (``_fill``, which doubles
the copies each round) adds the cells up to d steps above it along axis
i.  The cell 0 filled by d_i on each axis is the mask of [0, d]
(``Box.shape``); shifted up to b it is the interval [b, b + d], and with
d = g - b the cells >= b.  A Box keeps its strides and, once a search
reads them, the top slabs, one box of bits per axis with g_i > 0; it
builds every other mask when asked.  The characteristic poset is one
such mask, and the interval search kernel and the prime-filtration
search both work on it.  The kernel reads its upper corners off
``Box.at_least_top(k)``, the mask of the cells c with
rho(c) = #{i : c_i = g_i} >= k, counted slab by slab over the top slabs.
The verifier's grid of cuts is a Box too: a space is an interval.

The run axis r is the innermost axis with g_r > 0, or the last axis when
there is none.  Every axis after it has g_i = 0, so its stride is 1: the
cells of a line along it are g_r + 1 consecutive bits, and a mask is read
one run of set bits at a time (``Box.runs``).
"""

from functools import cached_property
from operator import mul

# codes skips each run of this many zero bytes in one step and reads the
# bytes between them one by one: a shorter gap makes more pieces, each
# with its own loop, and a longer one reads more zero bytes one by one
_GAP = bytes(32)
# entry v: the set bits of the byte v, ascending; doubled once per bit
_BYTE_BITS = [()]
for _b in range(8):
    _BYTE_BITS += [bits + (_b,) for bits in _BYTE_BITS]
del _b


def _fill(mask, s, d):
    """mask or-ed with its copies shifted by s, 2s, ..., ds: the copies
    double each round, and the last shift is clipped at ds."""
    k = 1
    while k <= d:
        t = d + 1 - k
        mask |= mask << (k if k < t else t) * s
        k += k
    return mask


class Box:
    def __init__(self, g):
        n = len(g)
        self.g = g
        self.strides = strides = [1] * n
        for i in range(n - 2, -1, -1):
            strides[i] = strides[i + 1] * (g[i + 1] + 1)
        cells = strides[0] * (g[0] + 1) if n else 1
        self.nbytes = cells // 8 + 1     # the bytes that hold a mask
        self.cells = cells
        self.axis = max([i for i, gi in enumerate(g) if gi], default=n - 1)
        self.tail = (0,) * (n - 1 - self.axis)     # the cells' coordinates after r

    @cached_property
    def slabs(self):
        """Per axis with g_i > 0: its stride and the mask of its top slab a_i = g_i."""
        top = self.cells - 1
        return [(s, self.shape(top - gi * s) << gi * s)
                for s, gi in zip(self.strides, self.g) if gi]

    @cached_property
    def line_starts(self):
        """The mask of the cells with a_r = 0, every (g_r + 1)-th bit: the
        geometric series sum_k 2^(k w), w = g_r + 1, in one division."""
        w = self.g[self.axis] + 1
        return ((1 << self.cells) - 1) // ((1 << w) - 1)

    def code(self, a):
        """The bit index of the cell a."""
        return sum(map(mul, a, self.strides))

    def cell(self, bit):
        """The cell whose bit index is bit."""
        return tuple([bit // s % (gi + 1) for s, gi in zip(self.strides, self.g)])

    def decode(self, codes):
        """The cells at the bit indices of the list codes, in its order,
        decoded one axis at a time: one list per axis, zipped.  The box of
        n = 0 has no axis; its one cell is ()."""
        if not self.g:
            return [()] * len(codes)
        return list(zip(*[[c // s % (gi + 1) for c in codes]
                          for s, gi in zip(self.strides, self.g)]))

    def codes(self, mask):
        """The set bits of mask, ascending.  Popping bits off the int is
        quadratic, so the mask is read as bytes: split at each run of _GAP
        zero bytes, one step per run, with each byte's bits from a table."""
        pos = 0
        for piece in mask.to_bytes(self.nbytes, "little").split(_GAP):
            for i, byte in enumerate(piece, pos):
                if byte:
                    i <<= 3
                    for b in _BYTE_BITS[byte]:
                        yield i | b
            pos += len(piece) + len(_GAP)

    def runs(self, mask):
        """The maximal runs of set bits of mask along the run axis r, in bit
        order, as (head, first, last): the cells head + (t,) + tail with
        first <= t <= last, head their first r coordinates.  A run starts at
        a set bit whose lower neighbour on the axis is clear or absent, and
        ends at one whose upper neighbour is, so the starts and the ends
        pair up in order, and each run costs one decode of its head.  An
        order-convex mask has one run per line.  The box of n = 0 has no
        axis and yields no run: its one cell () is set when mask is."""
        r, g = self.axis, self.g
        if r < 0:
            return
        top = g[r]
        heads = list(zip(self.strides[:r], g[:r]))
        starts = self.line_starts
        begin = mask & ~(mask << 1 & ~starts)
        end = mask & ~(mask >> 1 & ~(starts << top))
        for b, e in zip(self.codes(begin), self.codes(end)):
            yield (tuple([b // s % (gi + 1) for s, gi in heads]),
                   b % (top + 1), e % (top + 1))

    def shape(self, off):
        """The mask of [0, d], d the cell at bit off: the cells of [b, c]
        are shape(code(c) - code(b)) << code(b).  The axes are filled
        innermost first, so the mask is box-wide only in its last rounds."""
        mask, i, g, strides = 1, len(self.g), self.g, self.strides
        while off:
            i -= 1
            off, d = divmod(off, g[i] + 1)
            if d:
                mask = _fill(mask, strides[i], d)
        return mask

    def at_least_top(self, k):
        """The mask of the cells c with rho(c) = #{i : c_i = g_i} >= k.  An
        axis with g_i = 0 counts for every cell.  Over the top slabs, at[j]
        is the mask of the cells on at least j of the slabs read so far:
        each slab costs one AND and one OR per threshold j <= t."""
        t = max(k - (len(self.g) - len(self.slabs)), 0)
        if t > len(self.slabs):
            return 0
        at = [(1 << self.cells) - 1] + [0] * t
        for _, slab in self.slabs:
            for j in range(t, 0, -1):
                at[j] |= at[j - 1] & slab
        return at[t]

    def maximal(self, mask):
        """The maximal cells of an order-convex mask: those c with no c + e_i,
        c_i < g_i, in it.  One shift per axis, ignored on its top slab."""
        top = mask
        for s, slab in self.slabs:
            top &= ~(mask >> s) | slab
        return top

    def face(self, bit):
        """(strides of the axes with c_i < g_i, mask of the cells equal to c
        there), c at bit.  The top axes are filled innermost first, as in shape."""
        face, strides = 1, []
        for s, gi in zip(reversed(self.strides), reversed(self.g)):
            if bit // s % (gi + 1) < gi:
                strides.append(s)
            else:
                face = _fill(face, s, gi)
                bit -= gi * s       # now c_i = 0: bit ends at the low corner
        return strides, face << bit

    def ideal(self, generators):
        """The mask of the ideal the generators, all <= g, generate: the
        cells >= h are the shape of [0, g - h] shifted up to h."""
        mask, top = 0, self.cells - 1
        for h in generators:
            bit = self.code(h)
            mask |= self.shape(top - bit) << bit
        return mask

import random
from operator import eq

from stanleydec._box import Box


def naive_codes(box, mask):
    cells = 8 * box.nbytes
    return [i for i in range(cells) if mask >> i & 1]


class TestCodes:
    def test_matches_a_bit_scan(self):
        """The set bits of random sparse masks, the empty mask and the top
        cell of the box, as a scan of every bit finds them."""
        rng = random.Random(3)
        for _ in range(100):
            box = Box(tuple(rng.randint(0, 6) for _ in range(rng.randint(1, 4))))
            cells = box.code(box.g) + 1
            masks = [0, 1 << (cells - 1), (1 << cells) - 1]
            for density in (0.001, 0.02, 0.3):
                masks.append(sum(1 << c for c in range(cells) if rng.random() < density))
            for mask in masks:
                assert list(box.codes(mask)) == naive_codes(box, mask)

    def test_zero_runs_around_the_split_length(self):
        """Runs of zero bytes shorter than, as long as, and longer than one
        or two splits, between set bits at either end of their bytes."""
        box = Box((4999,))
        for gap in (0, 1, 31, 32, 33, 63, 64, 65, 95, 96, 97):
            for low, high in ((0, 0), (7, 0), (0, 7), (7, 7)):
                mask = 1 << (8 + low) | 1 << (8 * (gap + 2) + high) | 1 << 4999
                assert list(box.codes(mask)) == naive_codes(box, mask), (gap, low, high)


class TestDecode:
    def test_matches_the_cell_of_each_code(self):
        """The cells of random lists of codes, repeats and disorder
        included, as Box.cell decodes them one by one, on boxes with and
        without axes of g_i = 0, and the one cell () of n = 0."""
        rng = random.Random(7)
        for _ in range(100):
            box = Box(tuple(rng.choice((0, 1, 2, 5)) for _ in range(rng.randint(1, 4))))
            codes = [rng.randrange(box.cells) for _ in range(rng.randint(0, 20))]
            assert box.decode(codes) == [box.cell(c) for c in codes]
        assert Box(()).decode([0, 0]) == [(), ()]


def naive_runs(box, mask):
    """(head, first, last) for each maximal run of set cells along the run
    axis, merged from the decoded cells one by one."""
    r = box.axis
    runs = []
    for code in naive_codes(box, mask):
        a = box.cell(code)
        assert a[r + 1:] == box.tail
        head, t = a[:r], a[r]
        if runs and runs[-1][0] == head and runs[-1][2] == t - 1:
            runs[-1] = (head, runs[-1][1], t)
        else:
            runs.append((head, t, t))
    return runs


class TestRuns:
    def test_matches_decoded_cells(self):
        """The runs of random masks, dense and sparse, of the empty and the
        full mask and of the top cell alone, on boxes with g_i = 0 on the
        last axes, on inner axes and on every axis."""
        rng = random.Random(5)
        shapes = [(0,), (0, 0, 0), (3, 0), (2, 0, 0), (0, 4), (2, 0, 3), (0, 1, 0, 2, 0)]
        shapes += [tuple(rng.choice((0, 0, 1, 2, 3, 5)) for _ in range(rng.randint(1, 4)))
                   for _ in range(300)]
        for g in shapes:
            box = Box(g)
            assert box.g[box.axis] > 0 or box.cells == 1
            assert all(gi == 0 for gi in box.g[box.axis + 1:])
            top = 1 << (box.cells - 1)
            masks = [0, top, (1 << box.cells) - 1]
            for density in (0.05, 0.5, 0.9):
                masks.append(sum(1 << c for c in range(box.cells) if rng.random() < density))
            for mask in masks:
                assert list(box.runs(mask)) == naive_runs(box, mask), (g, mask)

    def test_one_run_per_line_of_an_ideal(self):
        """An up-set meets each line along the run axis in one run that
        ends on the top slab."""
        box = Box((3, 4, 0))
        mask = box.ideal([(1, 2, 0), (2, 0, 0)])
        runs = list(box.runs(mask))
        assert runs == [((1,), 2, 4), ((2,), 0, 4), ((3,), 0, 4)]
        assert box.tail == (0,)

    def test_no_axis(self):
        """n = 0: one cell and no axis to run along."""
        box = Box(())
        assert box.cells == 1 and box.axis == -1
        assert list(box.runs(1)) == list(box.runs(0)) == []


def naive_at_least_top(box, k):
    """The cells c with #{i : c_i = g_i} >= k, one cell at a time."""
    mask = 0
    for code in range(box.cells):
        if sum(map(eq, box.cell(code), box.g)) >= k:
            mask |= 1 << code
    return mask


class TestAtLeastTop:
    def test_matches_a_count_per_cell(self):
        """Random g, some with g_i = 0 on a few axes, and every k from 0 to
        n + 1, also those at or below the number of zero axes, where every
        cell counts."""
        rng = random.Random(7)
        bounds = [(0,), (0, 0), (2,), (1, 0, 2), (0, 3, 0)]
        bounds += [tuple(rng.choice((0, 1, 2, 3)) for _ in range(rng.randint(1, 5)))
                   for _ in range(200)]
        for g in bounds:
            box = Box(g)
            for k in range(len(g) + 2):
                assert box.at_least_top(k) == naive_at_least_top(box, k), (g, k)

    def test_no_axis(self):
        """n = 0: the one cell () has rho = 0."""
        box = Box(())
        assert box.at_least_top(0) == 1
        assert box.at_least_top(1) == 0


class TestShape:
    def test_matches_the_cells_below_d(self):
        """shape(code(d)) is the mask of the cells of [0, d], on random
        boxes with some g_i = 0, for every cell d; also where filling an
        axis doubles the copies three or more times and clips the last
        shift, g_i in {4, 5, 7, 8, 13} and 100, alone and beside other axes."""
        rng = random.Random(13)
        bounds = [(), (0,), (3,), (1, 0, 2)]
        bounds += [(4,), (5,), (7,), (8,), (13,), (100,), (4, 0, 5), (7, 2), (1, 8, 0),
                   (13, 1), (2, 5, 4), (8, 7)]
        bounds += [tuple(rng.choice((0, 1, 2, 3)) for _ in range(rng.randint(1, 4)))
                   for _ in range(50)]
        for g in bounds:
            box = Box(g)
            cells = [box.cell(code) for code in range(box.cells)]
            for d in cells:
                want = sum(1 << box.code(c) for c in cells
                           if all(ci <= di for ci, di in zip(c, d)))
                assert box.shape(box.code(d)) == want, (g, d)


def random_bounds(rng, count, values):
    return [tuple(rng.choice(values) for _ in range(rng.randint(1, 4))) for _ in range(count)]


class TestIdeal:
    def test_matches_the_cells_above_a_generator(self):
        """The cells >= some generator, for random generators and for the
        unit, the top cell and no generator, on random boxes."""
        rng = random.Random(17)
        for g in [(0,), (5,), (13,), (1, 0, 2)] + random_bounds(rng, 60, (0, 1, 2, 4, 5)):
            box = Box(g)
            cells = [box.cell(code) for code in range(box.cells)]
            unit, top = (0,) * len(g), g
            sets = [[], [unit], [top], [top, unit]]
            sets += [rng.sample(cells, rng.randint(1, min(4, len(cells)))) for _ in range(5)]
            for gens in sets:
                want = sum(1 << box.code(c) for c in cells
                           if any(all(ci >= hi for ci, hi in zip(c, h)) for h in gens))
                assert box.ideal(gens) == want, (g, gens)


class TestSlabs:
    def test_each_slab_is_the_top_of_its_axis(self):
        """One (stride, mask) per axis with g_i > 0, in axis order, the
        mask holding the cells with a_i = g_i."""
        rng = random.Random(19)
        for g in [(0,), (7,), (0, 0), (3, 0, 8)] + random_bounds(rng, 60, (0, 1, 2, 4, 5)):
            box = Box(g)
            cells = [box.cell(code) for code in range(box.cells)]
            want = [(s, sum(1 << box.code(c) for c in cells if c[i] == gi))
                    for i, (s, gi) in enumerate(zip(box.strides, g)) if gi]
            assert box.slabs == want, g


class TestFace:
    def test_matches_the_cells_that_agree_below_the_top(self):
        """face(code(c)) for every cell c of random boxes: the strides of
        the axes with c_i < g_i, and the cells equal to c on those axes."""
        rng = random.Random(23)
        for g in [(0,), (4,), (2, 0, 5)] + random_bounds(rng, 60, (0, 1, 2, 4, 5)):
            box = Box(g)
            cells = [box.cell(code) for code in range(box.cells)]
            for c in cells:
                low = [i for i, (ci, gi) in enumerate(zip(c, g)) if ci < gi]
                strides, face = box.face(box.code(c))
                assert sorted(strides) == sorted(box.strides[i] for i in low), (g, c)
                want = sum(1 << box.code(a) for a in cells if all(a[i] == c[i] for i in low))
                assert face == want, (g, c)

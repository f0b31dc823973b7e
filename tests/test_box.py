import random

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

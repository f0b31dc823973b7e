import random
import tracemalloc
from itertools import product

import pytest

from stanleydec import hilbert, ring, solver, stanley
from stanleydec.errors import ZeroModuleError
from stanleydec.hilbert import HilbertSeries
from stanleydec.ring import MonomialIdeal, RingContext
from stanleydec.stanley import StanleyDecomposition, StanleySpace

import reference_counts
from reference_series import series_of_space as reference_series_of_space
from util import (
    all_decomposition_variants,
    contracted_poset,
    random_quotient,
    singleton_decomposition,
)


def space(ctx, root, zplus=(), zminus=()):
    return StanleySpace(ctx, root, frozenset(zplus), frozenset(zminus))


def final_example():
    """I = (x, y^2), J = (x^2) in K[x, y, z^(+-1)]."""
    ctx = RingContext(3, frozenset({2}))
    I = ring.ideal(ctx, (1, 0, 0), (0, 2, 0))
    J = ring.ideal(ctx, (2, 0, 0))
    D = StanleyDecomposition(
        ctx,
        (
            space(ctx, (1, 0, 0), zplus={1, 2}),
            space(ctx, (1, 0, -1), zplus={1}),
            space(ctx, (1, 0, -2), zplus={1}, zminus={2}),
            space(ctx, (0, 2, 0), zplus={1, 2}),
            space(ctx, (0, 2, -1), zplus={1}, zminus={2}),
        ),
    )
    return ctx, I, J, D


class TestSeriesCanonicalForm:
    def test_reduces_common_factor(self):
        # (1-t)/(1-t)^2 == 1/(1-t)
        h = HilbertSeries((1, -1), 2)
        assert h.numerator == (1,) and h.pole == 1

    def test_zero_numerator(self):
        h = HilbertSeries((0, 0), 3)
        assert h.numerator == () and h.pole == 0

    def test_addition_over_common_denominator(self):
        a = HilbertSeries((1,), 1)
        b = HilbertSeries((0, 1), 2)
        # (1-t)/(1-t)^2 + t/(1-t)^2 collapses to 1/(1-t)^2
        s = a + b
        assert (s.numerator, s.pole) == ((1,), 2)


def dense(entries, n):
    """The exponent vector of the (index, exponent) pairs entries."""
    a = [0] * n
    for i, e in entries:
        a[i] = e
    return tuple(a)


class TestHilbertCount:
    def test_enumeration_is_every_vector_once(self):
        for n in range(4):
            for A in (frozenset(), frozenset(range(0, n, 2)), frozenset(range(n))):
                ctx = RingContext(n, A)
                for d in range(5):
                    got = [dense(a, n) for a in hilbert._vectors_of_abs_degree(ctx, d)]
                    want = [a for a in product(range(-d, d + 1), repeat=n)
                            if sum(map(abs, a)) == d
                            and all(e >= 0 for i, e in enumerate(a) if i not in A)]
                    assert sorted(got) == want, (n, A, d)

    @pytest.mark.parametrize("d, count", [(1, 2000), (2, 2001000)])
    def test_many_variables(self, d, count):
        """The enumeration keeps no frame per variable: 2000 variables are
        more than the recursion limit."""
        ctx = RingContext(2000)
        S = ring.ideal(ctx, (0,) * 2000)
        assert hilbert.hilbert_count(S, MonomialIdeal(ctx), d) == count

    def test_one_laurent_variable(self):
        ctx = RingContext(1, frozenset({0}))
        I = ring.ideal(ctx, (0,))
        assert hilbert.hilbert_count(I, MonomialIdeal(ctx), 2) == 2

    def test_final_example_counts(self):
        ctx, I, J, _ = final_example()
        got = [hilbert.hilbert_count(I, J, d) for d in range(4)]
        assert got == [0, 1, 4, 8]

    def test_figure_ideal_diagonal(self):
        # I = (x^3, x^2 y, y^2) in K[x, y]: monomials of I of degree 4
        ctx = RingContext(2)
        I = ring.ideal(ctx, (3, 0), (2, 1), (0, 2))
        assert hilbert.hilbert_count(I, MonomialIdeal(ctx), 4) == 5
        # every degree-4 monomial already lies in I, so the quotient is empty
        S = ring.ideal(ctx, (0, 0))
        assert hilbert.hilbert_count(S, I, 4) == 0


class TestSeriesOfSpace:
    def test_plain_base_case(self):
        ctx = RingContext(3, frozenset({2}))
        h = hilbert.series_of_space(space(ctx, (1, 0, 0), zplus={1, 2}))
        assert (h.numerator, h.pole) == ((0, 1), 2)

    def test_shifted_laurent_root(self):
        ctx = RingContext(3, frozenset({2}))
        h = hilbert.series_of_space(space(ctx, (1, 0, -1), zplus={1}))
        assert (h.numerator, h.pole) == ((0, 0, 1), 1)

    def test_conflicting_root_splits(self):
        ctx = RingContext(1, frozenset({0}))
        h = hilbert.series_of_space(space(ctx, (1,), zminus={0}))
        assert (h.numerator, h.pole) == ((1, 1, -1), 1)
        counts = hilbert.expand(h, 4)
        assert counts == [1, 2, 1, 1, 1]

    def test_q_at_one_is_one_randomized(self):
        rng = random.Random(23)
        for _ in range(100):
            n = rng.randint(1, 4)
            A = frozenset(i for i in range(n) if rng.random() < 0.5)
            ctx = RingContext(n, A)
            root = tuple(
                rng.randint(-3, 3) if i in A else rng.randint(0, 3)
                for i in range(n)
            )
            zplus, zminus = set(), set()
            for i in range(n):
                r = rng.random()
                if r < 0.4:
                    zplus.add(i)
                elif r < 0.6 and i in A:
                    zminus.add(i)
            s = space(ctx, root, zplus, zminus)
            h = hilbert.series_of_space(s)
            assert h.numerator_at_one() == 1
            assert h.pole == s.dimension

    def test_series_matches_direct_count(self):
        rng = random.Random(29)
        for _ in range(40):
            n = rng.randint(1, 3)
            A = frozenset(i for i in range(n) if rng.random() < 0.5)
            ctx = RingContext(n, A)
            root = tuple(
                rng.randint(-2, 2) if i in A else rng.randint(0, 2)
                for i in range(n)
            )
            zplus, zminus = set(), set()
            for i in range(n):
                r = rng.random()
                if r < 0.4:
                    zplus.add(i)
                elif r < 0.6 and i in A:
                    zminus.add(i)
            s = space(ctx, root, zplus, zminus)
            coeffs = hilbert.expand(hilbert.series_of_space(s), 6)
            for d in range(7):
                direct = sum(
                    1
                    for a in hilbert._vectors_of_abs_degree(ctx, d)
                    if stanley.space_contains(s, dense(a, n))
                )
                assert coeffs[d] == direct, (s, d)

    def test_matches_recursive_reference(self):
        rng = random.Random(41)
        for _ in range(300):
            n = rng.randint(1, 4)
            A = frozenset(i for i in range(n) if rng.random() < 0.6)
            ctx = RingContext(n, A)
            root = tuple(
                rng.randint(-5, 5) if i in A else rng.randint(0, 5)
                for i in range(n)
            )
            zplus, zminus = set(), set()
            for i in range(n):
                r = rng.random()
                if r < 0.4:
                    zplus.add(i)
                elif r < 0.8 and i in A:
                    zminus.add(i)
            s = space(ctx, root, zplus, zminus)
            assert hilbert.series_of_space(s) == reference_series_of_space(s), s

    def test_root_3000_against_inverse_direction(self):
        ctx = RingContext(1, frozenset({0}))
        for root, z in (((3000,), {"zminus": {0}}), ((-3000,), {"zplus": {0}})):
            h = hilbert.series_of_space(space(ctx, root, **z))
            assert h.pole == 1 and h.numerator_at_one() == 1
            # degrees 3000, 2999, ..., 1 once each, then 0, 1, 2, ... once each
            counts = hilbert.expand(h, 3002)
            assert counts == [1] + [2] * 3000 + [1, 1]


class TestLaurentRingClosedForm:
    def test_one_inverted_one_plain(self):
        h = hilbert.series_of_laurent_ring((0, 0), {0}, 1)
        assert (h.numerator, h.pole) == ((1, 1), 2)
        assert hilbert.expand(h, 3) == [1, 3, 5, 7]

    def test_ordinary_polynomial_ring(self):
        h = hilbert.series_of_laurent_ring((0, 0, 0), set(), 3)
        assert (h.numerator, h.pole) == ((1,), 3)

    def test_unit_factors_ignored(self):
        a = hilbert.series_of_laurent_ring((3, 1), {0}, 1)
        b = hilbert.series_of_laurent_ring((0, 1), {0}, 1)
        assert a == b

    def test_closed_form_equals_recursion_randomized(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(1, 4)
            A = frozenset(
                rng.sample(range(n), rng.randint(0, n))
            )
            ctx = RingContext(n, A)
            u = tuple(
                rng.randint(-3, 3) if i in A else rng.randint(0, 3)
                for i in range(n)
            )
            closed = hilbert.series_of_laurent_ring(u, A, n - len(A))
            u_stripped = ring.strip_units(u, ctx)
            total = hilbert.ZERO_SERIES
            for s in stanley.canonical_sf_decomposition(ctx).spaces:
                shifted = space(
                    ctx, ring.mul(s.root, u_stripped), s.zplus, s.zminus
                )
                total = total + hilbert.series_of_space(shifted)
            assert closed == total, (u, A)


class TestSeriesOfDecomposition:
    def test_final_example_series(self):
        ctx, I, J, D = final_example()
        h = hilbert.series_of_decomposition(D)
        assert (h.numerator, h.pole) == ((0, 1, 2, 1), 2)
        assert hilbert.count_maximal_spaces(D) == 4

    def test_canonical_polynomial_ring(self):
        D = stanley.canonical_sf_decomposition(RingContext(3))
        h = hilbert.series_of_decomposition(D)
        assert (h.numerator, h.pole) == ((1,), 3)

    def test_canonical_localized(self):
        for A in (frozenset({0}), frozenset({0, 2}), frozenset({0, 1, 2})):
            D = stanley.canonical_sf_decomposition(RingContext(3, A))
            h = hilbert.series_of_decomposition(D)
            expected = hilbert.series_of_laurent_ring((0, 0, 0), A, 3 - len(A))
            assert h == expected
            assert hilbert.count_maximal_spaces(h) == 2 ** len(A)

    def test_oracle_agreement_final_example(self):
        ctx, I, J, D = final_example()
        coeffs = hilbert.expand(hilbert.series_of_decomposition(D), 10)
        for d in range(11):
            assert coeffs[d] == hilbert.hilbert_count(I, J, d)

    def test_singleton_matches_searched_witness(self):
        """The search-free decomposition behind the hilbert command is valid
        and has the series of the decomposition the sdepth search finds."""
        rng = random.Random(41)
        for _ in range(60):
            ctx, I, J = random_quotient(rng)
            D = singleton_decomposition(I, J)
            assert stanley.verify_decomposition(D, I, J).valid, (I, J)
            searched = solver.sdepth(I, J).witness
            assert hilbert.series_of_decomposition(
                D
            ) == hilbert.series_of_decomposition(searched), (I, J)

    def test_invariance_across_decompositions(self):
        rng = random.Random(37)
        done = 0
        while done < 15:
            ctx, I, J = random_quotient(rng)
            variants = all_decomposition_variants(I, J, rng)
            series = {hilbert.series_of_decomposition(D) for D in variants}
            assert len(series) == 1, (I, J)
            done += 1


class TestSeriesOfQuotient:
    def test_matches_singleton_decomposition(self):
        """The series counted off the poset equals the series of the
        search-free decomposition, with and without inverted variables."""
        rng = random.Random(43)
        inverted = set()
        for case in range(200):
            ctx, I, J = random_quotient(
                rng, n=case % 4 + 1, inverted=frozenset() if case % 2 else None
            )
            expected = hilbert.series_of_decomposition(singleton_decomposition(I, J))
            assert hilbert.series_of_quotient(I, J) == expected, (I, J)
            inverted.add(len(ctx.inverted))
        assert {0, 1, 2} <= inverted

    def test_expansion_matches_direct_count(self):
        rng = random.Random(47)
        for case in range(60):
            ctx, I, J = random_quotient(rng, n=case % 3 + 1)
            coeffs = hilbert.expand(hilbert.series_of_quotient(I, J), 6)
            assert coeffs == [
                hilbert.hilbert_count(I, J, d) for d in range(7)
            ], (I, J)

    def test_final_example(self):
        ctx, I, J, D = final_example()
        assert hilbert.series_of_quotient(I, J) == HilbertSeries((0, 1, 2, 1), 2)

    def test_zero_module(self):
        ctx = RingContext(2, frozenset({1}))
        I = ring.ideal(ctx, (1, 0))
        with pytest.raises(ZeroModuleError):
            hilbert.series_of_quotient(I, I)

    def test_builds_no_cells(self, monkeypatch):
        """The series reads the poset by runs: no cell is decoded and the
        elements are never built."""
        ctx = RingContext(3, frozenset({1}))
        I = ring.ideal(ctx, (1, 0, 0), (0, 0, 2))
        J = ring.ideal(ctx, (5, 0, 0), (0, 0, 7))
        expected = hilbert.series_of_decomposition(singleton_decomposition(I, J))
        posets = []
        build = solver.build_characteristic_poset

        def built(*args):
            posets.append(build(*args))
            return posets[-1]

        def cell(self, bit):
            raise AssertionError("a cell was decoded")

        monkeypatch.setattr(solver, "build_characteristic_poset", built)
        monkeypatch.setattr(solver.Box, "cell", cell)
        assert hilbert.series_of_quotient(I, J) == expected
        assert len(posets) == 1 and "elements" not in vars(posets[0])

    def test_long_run_in_bounded_memory(self):
        """(x)/(x^200000): one run of 199,999 cells.  The series is summed
        from the run's two end terms; a dictionary key or a tuple per
        degree would hold more than the traced peak allowed here."""
        ctx = RingContext(1)
        I, J = ring.ideal(ctx, (1,)), ring.ideal(ctx, (200000,))
        tracemalloc.start()
        try:
            h = hilbert.series_of_quotient(I, J)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h == HilbertSeries((0,) + (1,) * 199999, 0)
        assert peak < 25 << 20, peak

    def test_every_axis_inverted(self):
        """The poset of one cell times (1+t)^|A| from one row of binomials:
        (1+t)^|A|/(1-t)^|A|, the series of the Laurent ring."""
        n = 2000
        ctx = RingContext(n, frozenset(range(n)))
        h = hilbert.series_of_quotient(ring.ideal(ctx, (0,) * n), MonomialIdeal(ctx))
        assert h.pole == n and h.numerator == tuple(hilbert._binomials(n))
        assert h == hilbert.series_of_laurent_ring((0,) * n, range(n), 0)


class TestPosetCounts:
    def test_matches_cell_by_cell_counts(self):
        """The series and low read off the runs equal the sum of
        t^|a|/(1-t)^rho(a) over the decoded cells and their least rho, on
        random quotients with n = 1..5, with and without inverted
        variables, so with the run axis last or inner, and in the ring
        with no variables, nonempty and empty."""
        rng = random.Random(53)
        posets = []
        for case in range(300):
            ctx, I, J = random_quotient(rng, n=case % 5 + 1, max_exp=3,
                                        inverted=frozenset() if case % 3 else None)
            posets.append(contracted_poset(I, J))
        ctx = RingContext(0)
        unit = ring.ideal(ctx, ())
        posets += [contracted_poset(unit, MonomialIdeal(ctx)), contracted_poset(unit, unit)]
        inner = 0
        for poset in posets:
            assert hilbert.series_of_poset(poset) == reference_counts.series_of_poset(poset), poset
            inner += poset.box.axis < len(poset.bound) - 1
        assert inner > 20
        assert hilbert.series_of_poset(posets[-1]) == (hilbert.ZERO_SERIES, None)

    def test_full_lines_and_top_cells(self):
        """Whole lines of the box, lines that stop below the top slab and
        single top cells, at both ends of the degrees, and inverted axes
        of one cell, before, after and between plain ones."""
        ctx = RingContext(3)
        for I, J in [([(0, 0, 0)], []), ([(0, 0, 0)], [(0, 0, 4)]), ([(2, 0, 3)], []),
                     ([(1, 1, 0)], [(1, 1, 4)]), ([(0, 0, 4)], [(3, 3, 4)]),
                     ([(3, 0, 0), (0, 0, 2)], [(3, 2, 2)])]:
            poset = contracted_poset(ring.ideal(ctx, *I), ring.ideal(ctx, *J))
            assert hilbert.series_of_poset(poset) == reference_counts.series_of_poset(poset), (I, J)
        for A in ({0}, {2}, {1}, {0, 2}, {0, 1, 2}):
            ctx = RingContext(3, frozenset(A))
            I = ring.ideal(ctx, tuple(0 if i in A else 1 for i in range(3)))
            J = ring.ideal(ctx, tuple(0 if i in A else 3 for i in range(3)))
            for K in (J, MonomialIdeal(ctx)):
                poset = contracted_poset(I, K)
                assert hilbert.series_of_poset(poset) == reference_counts.series_of_poset(poset), (A, K)


class TestCommonPole:
    def test_binomial_row_is_repeated_multiplication(self):
        for sign in (1, -1):
            power = (1,)
            for a in range(41):
                assert tuple(hilbert._binomials(a, sign)) == power, (a, sign)
                power = hilbert._poly_mul(power, (1, sign))

    def test_sum_matches_pairwise_addition(self):
        """One sum over the largest pole equals adding the terms two at a
        time, and its expansion is the sum of theirs."""
        rng = random.Random(59)
        for _ in range(200):
            terms = [(tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 5))),
                      rng.randint(0, 4)) for _ in range(rng.randint(0, 6))]
            pairwise = hilbert.ZERO_SERIES
            for num, pole in terms:
                pairwise = pairwise + HilbertSeries(num, pole)
            total = hilbert._sum_over_pole(terms)
            assert total == pairwise, terms
            expansions = [hilbert.expand(HilbertSeries(num, pole), 12) for num, pole in terms]
            assert hilbert.expand(total, 12) == [sum(c) for c in zip([0] * 13, *expansions)]


class TestExpand:
    def test_odd_numbers(self):
        assert hilbert.expand(HilbertSeries((1, 1), 2), 3) == [1, 3, 5, 7]

    def test_geometric(self):
        assert hilbert.expand(HilbertSeries((1,), 1), 2) == [1, 1, 1]

    def test_final_example_coefficients(self):
        h = HilbertSeries((0, 1, 2, 1), 2)
        assert hilbert.expand(h, 3) == [0, 1, 4, 8]

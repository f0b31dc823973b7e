import math
import random
from itertools import product
from operator import eq

import pytest

from stanleydec import _intervals, filtration, hilbert, parsing, ring, solver, stanley
from stanleydec.errors import BoxTooLargeError, BudgetExceededError, ZeroModuleError
from stanleydec.ring import MonomialIdeal, RingContext

import reference_intervals
import reference_lift
from reference_poset import characteristic_cells
from util import (
    contracted_poset,
    greedy_partition,
    localize_pair,
    polynomial_quotient,
    random_quotient,
    singleton_partition,
    split_refinement,
)


def naive_best_min_rho(elements, g):
    """Maximum over all interval partitions of the minimum corner count,
    by plain recursive enumeration (independent of the kernel)."""
    elements = sorted(elements)
    n = len(g)

    def rho(c):
        return sum(1 for i in range(n) if c[i] == g[i])

    def rec(covered):
        pending = [e for e in elements if e not in covered]
        if not pending:
            return math.inf
        b = pending[0]
        best = -1
        for c in product(*[range(b[i], g[i] + 1) for i in range(n)]):
            cells = list(product(*[range(b[i], c[i] + 1) for i in range(n)]))
            if any(x not in elements or x in covered for x in cells):
                continue
            tail = rec(covered | set(cells))
            best = max(best, min(rho(c), tail))
        return best

    return rec(frozenset())


def in_kept_variables(I, J):
    """I/J contracted and written in the polynomial ring on its
    non-inverted variables alone, with the inverted coordinates dropped."""
    kept = I.context.plain
    ctx = RingContext(len(kept))

    def project(ideal_):
        return MonomialIdeal(ctx, frozenset(tuple(g[i] for i in kept)
                                            for g in ideal_.generators))

    return project(I), project(J)


class TestInvertedAxes:
    """The contraction keeps all n coordinates; an inverted one has g = 0,
    one cell, and counts in every corner count."""

    def test_each_inverted_variable_adds_one(self):
        """sdepth and fdepth of I/J are those of the quotient in the
        non-inverted variables plus |A|, on random quotients with one to
        all of n = 1..5 variables inverted."""
        rng = random.Random(37)
        for trial in range(120):
            n = trial % 5 + 1
            A = frozenset(rng.sample(range(n), rng.randint(1, n)))
            ctx, I, J = random_quotient(rng, n=n, inverted=A, max_exp=2 if n < 4 else 1)
            Ik, Jk = in_kept_variables(I, J)
            assert solver.sdepth(I, J).value == solver.sdepth(Ik, Jk).value + len(A), (I, J)
            res, base = filtration.fdepth(I, J), filtration.fdepth(Ik, Jk)
            assert (res.value, res.complete) == (base.value + len(A), base.complete), (I, J)

    def test_fully_inverted_ring(self):
        """Every axis inverted: a box of one cell, rho = n."""
        ctx = RingContext(2, frozenset({0, 1}))
        I = ring.ideal(ctx, (0, 0))
        poset = contracted_poset(I, MonomialIdeal(ctx))
        assert (poset.bound, poset.elements) == ((0, 0), ((0, 0),))
        res = solver.sdepth(I, MonomialIdeal(ctx))
        assert res.value == 2 and len(res.witness.spaces) == 4


class TestPoset:
    def test_elements_match_membership_oracle(self):
        ctx = RingContext(2)
        Ip = ring.ideal(ctx, (1, 0), (0, 2))
        Jp = ring.ideal(ctx, (2, 0))
        poset = solver.build_characteristic_poset(Ip, Jp)
        assert poset.bound == (2, 2)
        expected = sorted(
            a
            for a in product(range(3), range(3))
            if ring.in_quotient(Ip, Jp, a)
        )
        assert list(poset.elements) == expected
        assert set(poset.elements) == {(0, 2), (1, 0), (1, 1), (1, 2)}

    def test_mask_matches_cell_walk(self):
        """elements and mask equal those of the cell-by-cell membership
        walk on random quotients with n = 1..5, on empty posets and in
        the ring with no variables."""
        rng = random.Random(11)
        cases = []
        for trial in range(150):
            n = trial % 5 + 1
            cases.append(polynomial_quotient(rng, n=n, max_exp=3 if n <= 3 else 2)[1:])
        for n in (0, 2):
            ctx = RingContext(n)
            unit = ring.ideal(ctx, (0,) * n)
            cases += [(unit, MonomialIdeal(ctx)), (unit, unit), (MonomialIdeal(ctx),) * 2]
        for Ip, Jp in cases:
            poset = solver.build_characteristic_poset(Ip, Jp)
            g, elements, mask = characteristic_cells(Ip, Jp)
            assert (poset.bound, poset.elements, poset.mask) == (g, elements, mask), (Ip, Jp)
            assert poset.box.g == g

    def test_lazy_elements_match_eager_decode(self):
        """elements, built on first read from the runs of the mask, equal
        the cells decoded one by one, also with inverted axes before or
        after the run axis; the poset builds none of them itself."""
        rng = random.Random(13)
        inner = 0
        for trial in range(200):
            _, I, J = random_quotient(rng, n=trial % 5 + 1, max_exp=3)
            poset = contracted_poset(I, J)
            assert "elements" not in vars(poset)
            box = poset.box
            assert poset.elements == tuple(map(box.cell, box.codes(poset.mask))), (I, J)
            assert poset.elements is poset.elements
            inner += box.axis < len(poset.bound) - 1
        assert inner > 20

    def test_no_membership_test_per_cell(self, monkeypatch):
        """The mask is built from the generators: the only membership
        tests left are those of the containment check J' <= I', one per
        generator of J'."""
        asked = []
        contains = ring.contains

        def recorded(I, m):
            asked.append(m)
            return contains(I, m)

        monkeypatch.setattr(ring, "contains", recorded)
        rng = random.Random(13)
        for trial in range(40):
            _, Ip, Jp = polynomial_quotient(rng, n=trial % 4 + 1)
            del asked[:]
            solver.build_characteristic_poset(Ip, Jp)
            assert sorted(asked) == sorted(Jp.generators)

    def test_principal_ideal(self):
        ctx = RingContext(1)
        poset = solver.build_characteristic_poset(
            ring.ideal(ctx, (1,)), MonomialIdeal(ctx)
        )
        assert poset.bound == (1,)
        assert poset.elements == ((1,),)

    def test_unit_ideal(self):
        ctx = RingContext(1)
        poset = solver.build_characteristic_poset(
            ring.ideal(ctx, (0,)), MonomialIdeal(ctx)
        )
        assert poset.bound == (0,)
        assert poset.elements == ((0,),)

    def test_equal_ideals_give_empty_poset(self):
        ctx = RingContext(1)
        I = ring.ideal(ctx, (1,))
        poset = solver.build_characteristic_poset(I, I)
        assert poset.elements == ()

    def test_box_cap(self, monkeypatch):
        """The box [0, g] may have MAX_BOX_CELLS cells and no more."""
        ctx = RingContext(2)
        monkeypatch.setattr(solver, "MAX_BOX_CELLS", 12)
        poset = solver.build_characteristic_poset(ring.ideal(ctx, (2, 3)), MonomialIdeal(ctx))
        assert poset.elements == ((2, 3),)
        for g in ((3, 3), (2, 4), (10**30, 0)):
            with pytest.raises(BoxTooLargeError):
                solver.build_characteristic_poset(ring.ideal(ctx, g), MonomialIdeal(ctx))


class TestPartitionSearch:
    def test_maximal_ideal_n3(self):
        ctx = RingContext(3)
        I = ring.ideal(ctx, (1, 0, 0), (0, 1, 0), (0, 0, 1))
        poset = solver.build_characteristic_poset(I, MonomialIdeal(ctx))
        k, _ = solver.max_interval_partition(poset)
        assert k == 2

    def test_whole_polynomial_ring(self):
        ctx = RingContext(1)
        poset = solver.build_characteristic_poset(
            ring.ideal(ctx, (0,)), MonomialIdeal(ctx)
        )
        k, partition = solver.max_interval_partition(poset)
        assert k == 1
        assert partition.intervals == (((0,), (0,)),)

    def test_sdepth_zero_instance(self):
        ctx = RingContext(2)
        Ip = ring.ideal(ctx, (2, 0), (1, 1))
        Jp = ring.ideal(ctx, (3, 1), (2, 2))
        poset = solver.build_characteristic_poset(Ip, Jp)
        k, _ = solver.max_interval_partition(poset)
        assert k == 0

    def test_matches_naive_enumeration(self):
        rng = random.Random(3)
        for _ in range(30):
            ctx, I, J = polynomial_quotient(rng, n=rng.randint(1, 2), max_exp=2)
            poset = solver.build_characteristic_poset(I, J)
            if not poset.elements or len(poset.elements) > 7:
                continue
            k, _ = solver.max_interval_partition(poset)
            assert k == naive_best_min_rho(set(poset.elements), poset.bound)

    def test_budget_exhaustion_raises(self):
        ctx = RingContext(3)
        I = ring.ideal(ctx, (1, 0, 0), (0, 1, 0), (0, 0, 1))
        poset = solver.build_characteristic_poset(I, MonomialIdeal(ctx))
        with pytest.raises(BudgetExceededError):
            solver.max_interval_partition(poset, budget=2)

    def test_kernel_matches_reference(self):
        """Same status, witness and node count as the recursive oracle with
        its own memo of dead uncovered sets, on random quotients with
        n = 1..5 and every k, also with budgets just below and at the node
        count."""
        rng = random.Random(5)
        checked = 0
        while checked < 300:
            n = checked % 5 + 1
            ctx, I, J = polynomial_quotient(rng, n=n, max_exp=3 if n <= 3 else 2)
            poset = solver.build_characteristic_poset(I, J)
            if len(poset.elements) > 80:
                continue
            for k in range(n, -1, -1):
                args = (list(poset.elements), poset.bound, k)
                mask_args = (poset.box, poset.mask, k)
                expected = reference_intervals.find_partition(*args, 10**6, dead=True)
                assert _intervals.find_partition(*mask_args, 10**6) == expected
                nodes = expected[2]
                for budget in (nodes - 1, nodes):
                    if budget < 0:
                        continue
                    want = reference_intervals.find_partition(*args, budget, dead=True)
                    assert _intervals.find_partition(*mask_args, budget) == want
                    if budget < nodes:
                        assert want == ("budget", None, budget + 1)
            checked += 1

    def test_dead_sets_only_save_nodes(self):
        """Against the oracle without the memo: the same status and witness,
        and never more nodes, on random quotients with n = 1..5 and every k;
        some cases take fewer."""
        rng = random.Random(5)
        checked = fewer = 0
        while checked < 300:
            n = checked % 5 + 1
            ctx, I, J = polynomial_quotient(rng, n=n, max_exp=3 if n <= 3 else 2)
            poset = solver.build_characteristic_poset(I, J)
            if len(poset.elements) > 80:
                continue
            for k in range(n, -1, -1):
                status, intervals, nodes = _intervals.find_partition(
                    poset.box, poset.mask, k, 10**6)
                plain = reference_intervals.find_partition(
                    list(poset.elements), poset.bound, k, 10**6)
                assert (status, intervals) == plain[:2]
                assert nodes <= plain[2]
                fewer += nodes < plain[2]
            checked += 1
        assert fewer


def parsed_poset(n, I, J="(0)"):
    ctx = parsing.parse_ring("n=%d" % n)
    return contracted_poset(parsing.parse_ideal(I, ctx), parsing.parse_ideal(J, ctx))


def power_of_maximal(n, d):
    """The poset of m^d in K[x1..xn]."""
    ctx = RingContext(n)
    gens = [e for e in product(range(d + 1), repeat=n) if sum(e) == d]
    return solver.build_characteristic_poset(ring.ideal(ctx, *gens), MonomialIdeal(ctx))


def bounds(poset):
    return (solver.maximal_element_bound(poset),
            hilbert.hdepth_bound(hilbert.series_of_poset(poset)[0]))


class TestBound:
    def test_search_from_bound_matches_reference(self):
        """The same k and partition as the recursive oracle tried from k = n
        down, on random quotients with n = 1..5, with and without inverted
        variables; both bounds are >= that k."""
        rng = random.Random(23)
        checked = 0
        while checked < 200:
            n = checked % 5 + 1
            inverted = None if checked % 2 else frozenset()
            ctx, I, J = random_quotient(rng, n=n, inverted=inverted,
                                        max_exp=3 if n <= 3 else 2)
            poset = contracted_poset(I, J)
            if len(poset.elements) > 80:
                continue
            for k in range(poset.context.n, -1, -1):
                status, intervals, _ = reference_intervals.find_partition(
                    list(poset.elements), poset.bound, k, 10**6)
                if status == "found":
                    break
            assert solver.max_interval_partition(poset) == (
                k, solver.IntervalPartition(tuple(intervals))), (I, J)
            assert min(bounds(poset)) >= k
            checked += 1

    @pytest.mark.parametrize("n, d, value", [(n, 1, (n + 1) // 2) for n in range(1, 9)]
                             + [(5, 2, 2), (4, 3, 1)])
    def test_powers_of_the_maximal_ideal(self, n, d, value):
        """sdepth(m) = ceil(n/2) (Biro-Howard-Keller-Trotter-Young, JCTA 117,
        2010), and two powers of m, each within 1,000 nodes: from k = n, m
        with n = 7 alone exhausts 3*10^6."""
        k, _ = solver.max_interval_partition(power_of_maximal(n, d), budget=1000)
        assert k == value

    def test_hdepth_of_ring_and_maximal_ideal(self):
        for n in range(0, 7):
            ctx = RingContext(n)
            poset = solver.build_characteristic_poset(ring.ideal(ctx, (0,) * n),
                                                      MonomialIdeal(ctx))
            assert bounds(poset) == (n, n)
        for n in range(1, 9):
            assert bounds(power_of_maximal(n, 1)) == (n, (n + 1) // 2)

    @pytest.mark.parametrize("n, I, J, b_max, b_H, value", [
        (3, "(y*z, x*y, x^2*z^2)", "(x*y^2*z, x^2*y*z)", 1, 2, 1),
        (2, "(x*y^2, x^2*y)", "(0)", 2, 1, 1),
    ], ids=["maximal-elements-lower", "hdepth-lower"])
    def test_either_bound_can_be_the_lower(self, n, I, J, b_max, b_H, value):
        poset = parsed_poset(n, I, J)
        assert bounds(poset) == (b_max, b_H)
        assert solver.max_interval_partition(poset)[0] == value

    def test_budget_error_says_where_the_nodes_went(self):
        """(x, y, z)/(y^2 z^2) has both bounds 2 and sdepth 1: k = 2 takes
        10 nodes to refute, and the budget runs out at k = 1, which needs 12."""
        poset = parsed_poset(3, "(x, y, z)", "(y^2*z^2)")
        with pytest.raises(BudgetExceededError) as info:
            solver.max_interval_partition(poset, budget=15)
        assert info.value.nodes == 16
        assert info.value.nodes_by_target == {2: 10, 1: 6}
        assert str(info.value) == (
            "interval search budget exceeded after 16 nodes, from k = 2 set by "
            "the maximal elements and the Hilbert depth")

    @pytest.mark.parametrize("I, J", [
        ("(x4^2*x5^2, x2*x3^2*x4*x5, x1^2*x3*x4)", "(x1*x2^2*x3^3*x4^3*x5^3)"),
        ("(x3*x4^2, x2^2*x3^2*x4*x5^2, x1^2*x3^2*x5)", "(x1*x2^3*x3^3*x4^3*x5^3)"),
        ("(x2^2*x3^2*x4*x5, x1*x5^2, x1^2*x3*x4*x5)", "(x1^4*x2^2*x3^3*x4^3*x5)"),
    ])
    def test_loose_instances_answer_within_budget(self, I, J):
        """Three quotients whose bound exceeds sdepth 3 by one: without the
        skip of dead uncovered sets, refuting k = 4 takes more than 20,000
        nodes."""
        ctx = parsing.parse_ring("n=5")
        I, J = parsing.parse_ideal(I, ctx), parsing.parse_ideal(J, ctx)
        res = solver.sdepth(I, J, budget=20000)
        assert res.value == 3
        assert stanley.verify_decomposition(res.witness, I, J)

    def test_budget_error_counts_the_inverted_axes(self):
        """k is in the units of the answer: (x1, x3, x4, x5, x6) with x2
        inverted has sdepth 4, and its search starts at k = 4."""
        ctx = parsing.parse_ring("n=6 invert={2}")
        I = parsing.parse_ideal("(x1, x3, x4, x5, x6)", ctx)
        with pytest.raises(BudgetExceededError) as info:
            solver.sdepth(I, MonomialIdeal(ctx), budget=3)
        assert info.value.nodes_by_target == {4: 4}
        assert str(info.value) == (
            "interval search budget exceeded after 4 nodes, from k = 4 set by "
            "the Hilbert depth")



def min_rho(poset):
    return min(sum(map(eq, a, poset.bound)) for a in poset.elements)


class TestSingletonLevel:
    """The singleton partition has depth low = min rho(a), so sdepth >= low,
    and at every k <= low the lex-first partition is the singletons."""

    def test_oracle_returns_the_singletons_at_and_below_low(self):
        rng = random.Random(29)
        checked = 0
        while checked < 200:
            n = checked % 5 + 1
            inverted = None if checked % 2 else frozenset()
            ctx, I, J = random_quotient(rng, n=n, inverted=inverted,
                                        max_exp=3 if n <= 3 else 2)
            poset = contracted_poset(I, J)
            if len(poset.elements) > 80:
                continue
            singletons = [(a, a) for a in poset.elements]
            for k in range(min_rho(poset) + 1):
                assert reference_intervals.find_partition(
                    list(poset.elements), poset.bound, k, 10**6) == (
                    "found", singletons, len(singletons)), (I, J, k)
            checked += 1

    def test_sdepth_matches_a_search_from_n(self):
        """Value and witness as the oracle's first feasible k from k = n,
        lifted by the reference lift, on random quotients with n = 1..5."""
        rng = random.Random(31)
        checked = 0
        while checked < 150:
            n = checked % 5 + 1
            inverted = None if checked % 2 else frozenset()
            ctx, I, J = random_quotient(rng, n=n, inverted=inverted,
                                        max_exp=3 if n <= 3 else 2)
            poset = contracted_poset(I, J)
            if len(poset.elements) > 80:
                continue
            for k in range(poset.context.n, -1, -1):
                status, intervals, _ = reference_intervals.find_partition(
                    list(poset.elements), poset.bound, k, 10**6)
                if status == "found":
                    break
            partition = solver.IntervalPartition(tuple(intervals))
            res = solver.sdepth(I, J)
            assert res.value == k
            assert res.witness == reference_lift.lift(poset, partition, ctx), (I, J)
            checked += 1

    def test_no_kernel_at_the_singleton_level(self, monkeypatch):
        """(1)/(x^11, y^11, z^11) has both upper bounds 0 = low: its 1331
        singletons come without a search, and without spending budget."""
        def no_search(*args):
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(solver, "find_partition", no_search)
        ctx = parsing.parse_ring("n=3")
        I = parsing.parse_ideal("(1)", ctx)
        J = parsing.parse_ideal("(x^11, y^11, z^11)", ctx)
        res = solver.sdepth(I, J, budget=0)
        assert res.value == 0
        assert [s.root for s in res.witness.spaces] == list(product(range(11), repeat=3))
        assert all(not s.zplus and not s.zminus for s in res.witness.spaces)

class TestPartitionToDecomposition:
    def test_full_corner_interval(self):
        ctx = RingContext(3)
        I = ring.ideal(ctx, (1, 0, 0), (0, 1, 0), (0, 0, 1))
        poset = solver.build_characteristic_poset(I, MonomialIdeal(ctx))
        part = solver.IntervalPartition((((1, 1, 1), (1, 1, 1)),))
        D = solver.partition_to_decomposition(poset, part)
        assert D.spaces[0].key() == ((1, 1, 1), (0, 1, 2), ())

    def test_edge_interval(self):
        ctx = RingContext(2)
        Ip = ring.ideal(ctx, (1, 0), (0, 2))
        Jp = ring.ideal(ctx, (2, 0))
        poset = solver.build_characteristic_poset(Ip, Jp)
        part = solver.IntervalPartition((((1, 0), (1, 2)),))
        D = solver.partition_to_decomposition(poset, part)
        assert D.spaces[0].key() == ((1, 0), (1,), ())

    def test_full_pipeline_verifies(self):
        ctx = RingContext(3)
        I = ring.ideal(ctx, (1, 0, 0), (0, 1, 0), (0, 0, 1))
        J = MonomialIdeal(ctx)
        poset = solver.build_characteristic_poset(I, J)
        k, part = solver.max_interval_partition(poset)
        D = solver.partition_to_decomposition(poset, part)
        assert len(D.spaces) == 4
        assert stanley.sdepth_of(D) == 2
        assert stanley.verify_decomposition(D, I, J).valid


class TestLiftParity:
    def test_lift_matches_reference(self):
        """The same spaces in the same order as the reference lift, for the
        optimal, singleton, greedy and split partitions of random quotients
        with 0, 1 or 2 inverted variables."""
        rng = random.Random(37)
        wide = inverted_cases = 0
        for case in range(120):
            n = case % 4 + 1
            A = frozenset(rng.sample(range(n), min(n, case % 3)))
            ctx, I, J = random_quotient(rng, n=n, inverted=A)
            poset = contracted_poset(I, J)
            _, best = solver.max_interval_partition(poset)
            for partition in (best, singleton_partition(poset), greedy_partition(poset, rng),
                              split_refinement(best, poset)):
                wide += any(b != c for b, c in partition.intervals)
                got = solver._embed_and_invert(poset, partition, ctx)
                assert got.spaces == reference_lift.lift(poset, partition, ctx).spaces, (
                    I, J, partition)
            inverted_cases += bool(A)
        assert wide > 60 and inverted_cases > 60


class TestSdepth:
    def test_maximal_ideal(self):
        ctx = RingContext(3)
        I = ring.ideal(ctx, (1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert solver.sdepth(I, MonomialIdeal(ctx)).value == 2

    def test_localized_ring_has_full_depth(self):
        ctx = RingContext(2, frozenset({0}))
        I = ring.ideal(ctx, (0, 0))
        assert solver.sdepth(I, MonomialIdeal(ctx)).value == 2

    def test_localized_maximal_ideal(self):
        ctx = RingContext(3)
        I = ring.ideal(ctx, (1, 0, 0), (0, 1, 0), (0, 0, 1))
        If, Jf = localize_pair(I, MonomialIdeal(ctx), {0})
        assert solver.sdepth(If, Jf).value == 3

    def test_zero_module_rejected(self):
        ctx = RingContext(2)
        I = ring.ideal(ctx, (1, 0))
        with pytest.raises(ZeroModuleError):
            solver.sdepth(I, I)

    def test_witness_soundness_randomized(self):
        rng = random.Random(17)
        for _ in range(30):
            ctx, I, J = random_quotient(rng)
            res = solver.sdepth(I, J)
            assert stanley.sdepth_of(res.witness) == res.value
            assert stanley.verify_decomposition(res.witness, I, J).valid

    def test_monotone_under_localization_randomized(self):
        rng = random.Random(19)
        for _ in range(30):
            ctx, I, J = polynomial_quotient(rng)
            base = solver.sdepth(I, J).value
            A = frozenset(i for i in range(ctx.n) if rng.random() < 0.5)
            If, Jf = localize_pair(I, J, A)
            if If == Jf:
                continue
            assert base <= solver.sdepth(If, Jf).value

    def test_deterministic_witness(self):
        ctx = RingContext(3)
        I = ring.ideal(ctx, (1, 0, 0), (0, 1, 0), (0, 0, 1))
        a = solver.sdepth(I, MonomialIdeal(ctx))
        b = solver.sdepth(I, MonomialIdeal(ctx))
        assert a.witness.spaces == b.witness.spaces

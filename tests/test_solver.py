import hashlib
import math
import pickle
import random
from itertools import product
from operator import eq

import pytest

from stanleydec import _intervals, cli, filtration, hilbert, parsing, ring, solver, stanley
from stanleydec.errors import (
    AnswerTooLargeError,
    BoxTooLargeError,
    BudgetExceededError,
    ContextMismatchError,
    ZeroModuleError,
)
from stanleydec.ring import MonomialIdeal, RingContext

import reference_intervals
import reference_json
import reference_lift
from reference_poset import characteristic_cells
from util import (
    contracted_poset,
    greedy_partition,
    localize_pair,
    polynomial_quotient,
    random_quotient,
    singleton_partition,
    space_key,
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

    def test_inverted_ring_rejected(self):
        ctx = RingContext(2, frozenset({1}))
        with pytest.raises(ContextMismatchError, match="needs a polynomial ring"):
            solver.build_characteristic_poset(ring.ideal(ctx, (1, 0)), MonomialIdeal(ctx))


class TestDescend:
    # s -> a -> d is a dead end; d is reached again from b, and s -> b -> e -> t
    # is the lex-first path to t, ahead of s -> c -> t
    EDGES = {"s": "abc", "a": "d", "b": "de", "c": "t", "d": "", "e": "t", "t": ""}

    def run(self, end, budget):
        """descend on EDGES from s to end with budget tickets: its result,
        the tickets it took and the states whose steps it read."""
        entered = []

        def steps(state):
            entered.append(state)
            return ((state, nxt) for nxt in self.EDGES[state])

        tickets = iter(range(budget))
        path = _intervals.descend(steps, "s", end, tickets)
        return path, budget - len(list(tickets)), entered

    def test_lex_first_path(self):
        path, taken, entered = self.run("t", 100)
        assert path == [("s", "b"), ("b", "e"), ("e", "t")]
        # nodes a, d, b, e, t: reaching the dead d from b costs no ticket
        assert taken == 5
        assert entered == ["s", "a", "d", "b", "e"]

    def test_unreachable_end(self):
        path, taken, entered = self.run("z", 100)
        assert path == []
        # nodes a, d, b, e, t, c: each state is entered once
        assert taken == 6
        assert sorted(entered) == sorted(self.EDGES)

    @pytest.mark.parametrize("end, nodes", [("t", 5), ("z", 6)])
    def test_none_exactly_when_the_tickets_run_out(self, end, nodes):
        for budget in range(nodes + 3):
            path, taken, _ = self.run(end, budget)
            assert (path is None) == (budget < nodes), budget
            assert taken == min(budget, nodes)


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
        assert partition == (((0,), (0,)),)

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

    def test_empty_poset_rejected(self):
        ctx = RingContext(2)
        I = ring.ideal(ctx, (1, 0))
        with pytest.raises(ZeroModuleError, match="empty poset"):
            solver.max_interval_partition(solver.build_characteristic_poset(I, I))

    def test_empty_mask_is_partitioned_by_nothing(self):
        """The kernel answers the empty set of cells with no interval and no node."""
        ctx = RingContext(2)
        poset = solver.build_characteristic_poset(ring.ideal(ctx, (1, 1)), MonomialIdeal(ctx))
        assert _intervals.find_partition(poset.box, 0, 2, 10) == ("found", [], 0)

    @staticmethod
    def assert_kernel_matches_reference(poset):
        """The kernel against the oracle at every k, also with budgets just
        below and at the node count."""
        for k in range(poset.context.n, -1, -1):
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
            self.assert_kernel_matches_reference(poset)
            checked += 1

    def test_kernel_matches_reference_on_inverted_rings(self):
        """The same on the contracted posets of random quotients over rings
        with inverted variables, whose axes with g_j = 0 count in every
        corner count: each k at or below their number reaches every cell."""
        rng = random.Random(11)
        checked = inverted = 0
        while checked < 200:
            n = checked % 5 + 1
            ctx, I, J = random_quotient(rng, n=n, inverted=None, max_exp=3 if n <= 3 else 2)
            poset = contracted_poset(I, J)
            if len(poset.elements) > 80:
                continue
            self.assert_kernel_matches_reference(poset)
            inverted += bool(ctx.inverted)
            checked += 1
        assert inverted > 50

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
            hilbert.hdepth_bound(hilbert.series_of_poset(poset)))


def bound_first(poset, budget):
    """``solver._best_partition`` as it ran before the first descent: both
    bounds summed, then the targets from the lesser down to low + 1, the
    budget shared.  (k, partition), None for the singletons, or the text
    and the nodes by target of the budget error."""
    low = solver.least_rho(poset)
    named = {"the maximal elements": solver.maximal_element_bound(poset)}
    if named["the maximal elements"] <= low:
        return low, None
    named["the Hilbert depth"] = hilbert.hdepth_bound(hilbert.series_of_poset(poset))
    start = min(named.values())
    spent = {}
    for k in range(start, low, -1):
        status, intervals, nodes = _intervals.find_partition(
            poset.box, poset.mask, k, budget - sum(spent.values()))
        spent[k] = nodes
        if status == "budget":
            setters = " and ".join(name for name, b in named.items() if b == start)
            return ("interval search budget exceeded after %d nodes, from k = %d set by %s"
                    % (sum(spent.values()), start, setters), spent)
        if status == "found":
            return k, tuple(intervals)
    return low, None


def cycle_poset(n):
    """The poset of S/I(C_n), C_n the n-cycle: I = (1), J = (x1*x2, ..., xn*x1)."""
    J = "(%s)" % ", ".join("x%d*x%d" % (i, i % n + 1) for i in range(1, n + 1))
    return parsed_poset(n, "(1)", J)


class TestCycleFamily:
    @pytest.mark.parametrize("n, k, nodes, digest", [
        (10, 4, 29, "19fafbcc428408677a8b03b3174430b8b094d4ffa47b5fbacbebbe3fa31be226"),
        (13, 5, 106, "9ed307e3e4f7cdf732cad52f56b258287058613f54eba255cd6e4afce4e11670"),
        (16, 6, 404, "03e4ed307bf6d75b1e66f660d070d4ab5c7110b82b1c3899e50c59644d221c62"),
        (17, 6, 935, "bd61d5a17106086dbdea582ac998962b8d627fde88721bff13c0705bf2171d7d"),
    ], ids=["C_10", "C_13", "C_16", "C_17"])
    def test_witness_and_nodes_at_the_answer(self, n, k, nodes, digest):
        """The search on S/I(C_n) at its sdepth: the node count and the
        sha256 of the repr of the intervals, as the kernel that walked the
        box above each lower corner gave them (C_13, C_16) and as the kernel
        that listed every corner before its first step gave them (C_10,
        C_17)."""
        poset = cycle_poset(n)
        status, intervals, spent = _intervals.find_partition(poset.box, poset.mask, k, 10**6)
        assert (status, spent) == ("found", nodes)
        assert hashlib.sha256(repr(intervals).encode()).hexdigest() == digest

    def test_refutation_runs_out_of_budget(self):
        """k = 7 on S/I(C_16), one above its sdepth, is not refuted within
        20,000 nodes."""
        poset = cycle_poset(16)
        assert _intervals.find_partition(poset.box, poset.mask, 7, 20000) == (
            "budget", None, 20001)


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
            assert solver.max_interval_partition(poset) == (k, tuple(intervals)), (I, J)
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

    def test_first_descent_within_the_budget(self):
        """(x*y)/(x^2*y^3) has sdepth 1 = the maximal-element bound, reached
        by the first descent in 3 nodes: budget 3 answers, and at budget 2
        the error is the one the search at k = 1 gives without the descent."""
        poset = parsed_poset(2, "(x*y)", "(x^2*y^3)")
        assert _intervals.find_partition(poset.box, poset.mask, 1, 10, first=True)[::2] == (
            "found", 3)
        assert solver.max_interval_partition(poset, budget=3) == (
            1, (((1, 1), (1, 3)), ((2, 1), (2, 1)), ((2, 2), (2, 2))))
        with pytest.raises(BudgetExceededError) as info:
            solver.max_interval_partition(poset, budget=2)
        assert info.value.nodes_by_target == {1: 3}
        assert str(info.value) == (
            "interval search budget exceeded after 3 nodes, from k = 1 set by "
            "the maximal elements and the Hilbert depth")

    def test_first_descent_matches_bound_first(self):
        """The same (k, partition), or the same budget error, as the flow
        that sums both bounds before any search, on random quotients with
        n = 1..5, with and without inverted variables, at budgets 1..50."""
        rng = random.Random(37)
        checked = errors = 0
        while checked < 300:
            n = checked % 5 + 1
            inverted = None if checked % 2 else frozenset()
            ctx, I, J = random_quotient(rng, n=n, inverted=inverted,
                                        max_exp=3 if n <= 3 else 2)
            poset = contracted_poset(I, J)
            if len(poset.elements) > 80:
                continue
            budget = rng.randint(1, 50)
            try:
                got = solver._best_partition(poset, budget)
            except BudgetExceededError as exc:
                got = str(exc), exc.nodes_by_target
                errors += 1
            assert got == bound_first(poset, budget), (I, J, budget)
            checked += 1
        assert errors

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

    def test_least_rho_from_the_generators(self):
        """least_rho, read off the generators of I' whose cells are in the
        poset, is the least rho over the elements: random quotients with
        and without inverted axes, and the ring of n = 0."""
        rng = random.Random(31)
        zero = RingContext(0)
        for case in range(300):
            n = case % 5
            if n:
                ctx, I, J = random_quotient(rng, n=n, max_exp=3 if n <= 3 else 2)
            else:
                I, J = ring.ideal(zero, ()), MonomialIdeal(zero)
            poset = contracted_poset(I, J)
            assert solver.least_rho(poset) == min_rho(poset)

    def test_series_only_when_a_target_is_left(self, monkeypatch):
        """The Hilbert bound is summed only when the maximal elements leave
        a target above low: not for the 1331 singletons of (1)/(x^11, y^11,
        z^11), once for the maximal ideal, whose first descent at 3 stops
        and whose search starts at 2."""
        calls = []
        series_of_poset = hilbert.series_of_poset

        def counted(poset):
            calls.append(poset)
            return series_of_poset(poset)

        monkeypatch.setattr(hilbert, "series_of_poset", counted)
        ctx = RingContext(3)
        assert solver.sdepth(ring.ideal(ctx, (0, 0, 0)), ring.ideal(
            ctx, (11, 0, 0), (0, 11, 0), (0, 0, 11))).value == 0
        assert not calls
        assert solver.sdepth(ring.ideal(ctx, (1, 0, 0), (0, 1, 0), (0, 0, 1)),
                             MonomialIdeal(ctx)).value == 2
        assert len(calls) == 1

    def test_no_series_when_the_first_descent_answers(self, monkeypatch):
        """The maximal elements of (y*z, x*y, x^2*z^2)/(x*y^2*z, x^2*y*z)
        bound k by 1 > low = 0, and the first descent at k = 1 reaches the
        empty set in 8 nodes: the Hilbert bound is not summed."""
        def no_series(poset):
            raise AssertionError("the series was summed")

        poset = parsed_poset(3, "(y*z, x*y, x^2*z^2)", "(x*y^2*z, x^2*y*z)")
        assert _intervals.find_partition(poset.box, poset.mask, 1, 10, first=True)[::2] == (
            "found", 8)
        monkeypatch.setattr(hilbert, "series_of_poset", no_series)
        assert solver.max_interval_partition(poset, budget=8)[0] == 1

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
            partition = tuple(intervals)
            res = solver.sdepth(I, J)
            assert res.value == k
            assert res.witness == reference_lift.lift(poset, partition, ctx), (I, J)
            checked += 1

    def test_no_kernel_at_the_singleton_level(self, monkeypatch):
        """(1)/(x^11, y^11, z^11) has both upper bounds 0 = low: its 1331
        singletons come without a search, without spending budget, and,
        in sdepth, without listing the poset's elements;
        max_interval_partition still returns them as a tuple of pairs."""
        def no_search(*args):
            raise AssertionError("the kernel ran")

        def no_elements(self):
            raise AssertionError("the elements were listed")

        monkeypatch.setattr(solver, "find_partition", no_search)
        ctx = parsing.parse_ring("n=3")
        I = parsing.parse_ideal("(1)", ctx)
        J = parsing.parse_ideal("(x^11, y^11, z^11)", ctx)
        cells = list(product(range(11), repeat=3))
        assert solver.max_interval_partition(contracted_poset(I, J), budget=0) == (
            0, tuple((a, a) for a in cells))
        monkeypatch.setattr(solver.CharacteristicPoset, "elements", property(no_elements))
        res = solver.sdepth(I, J, budget=0)
        assert res.value == 0
        assert [s.root for s in res.witness.spaces] == cells
        assert all(not s.zplus and not s.zminus for s in res.witness.spaces)


class TestPartitionToDecomposition:
    def test_full_corner_interval(self):
        ctx = RingContext(3)
        I = ring.ideal(ctx, (1, 0, 0), (0, 1, 0), (0, 0, 1))
        poset = solver.build_characteristic_poset(I, MonomialIdeal(ctx))
        part = (((1, 1, 1), (1, 1, 1)),)
        D = solver.partition_to_decomposition(poset, part)
        assert space_key(D.spaces[0]) == ((1, 1, 1), (0, 1, 2), ())

    def test_edge_interval(self):
        ctx = RingContext(2)
        Ip = ring.ideal(ctx, (1, 0), (0, 2))
        Jp = ring.ideal(ctx, (2, 0))
        poset = solver.build_characteristic_poset(Ip, Jp)
        part = (((1, 0), (1, 2)),)
        D = solver.partition_to_decomposition(poset, part)
        assert space_key(D.spaces[0]) == ((1, 0), (1,), ())

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
        with 0, 1 or 2 inverted variables, and for the singletons lifted
        from the runs of the mask (None).  Added inputs: n = 0, boxes of
        one cell, every axis inverted, and inverted axes before, after and
        between plain ones; runs both reach g_r and stop short of it."""
        rng = random.Random(37)
        cases = []
        for case in range(120):
            n = case % 4 + 1
            A = frozenset(rng.sample(range(n), min(n, case % 3)))
            cases.append(random_quotient(rng, n=n, inverted=A))
        for n, A in ((3, {0}), (3, {2}), (3, {1}), (4, {0, 3}), (4, {1, 2})):
            cases += [random_quotient(rng, n=n, inverted=A, max_exp=3) for _ in range(6)]
        for ring_text, I, J in (("n=0", "(1)", "(0)"), ("n=2", "(1)", "(0)"),
                                ("n=2 invert={1,2}", "(1)", "(0)"),
                                ("n=3 invert={1,2,3}", "(x)", "(0)"),
                                ("n=2", "(x, y)", "(x^2*y^2)")):
            ctx = parsing.parse_ring(ring_text)
            cases.append((ctx, parsing.parse_ideal(I, ctx), parsing.parse_ideal(J, ctx)))
        wide = inverted_cases = 0
        reach = set()
        for ctx, I, J in cases:
            poset = contracted_poset(I, J)
            if poset.bound:
                top = poset.bound[poset.box.axis]
                reach |= {last == top for _, _, last in poset.box.runs(poset.mask)}
            _, best = solver.max_interval_partition(poset)
            singletons = singleton_partition(poset)
            for partition in (best, singletons, greedy_partition(poset, rng),
                              split_refinement(best, poset), None):
                got = solver._embed_and_invert(poset, partition, ctx)
                partition = partition or singletons
                wide += any(b != c for b, c in partition)
                assert got.spaces == reference_lift.lift(poset, partition, ctx).spaces, (
                    I, J, partition)
            inverted_cases += bool(ctx.inverted)
        assert wide > 60 and inverted_cases > 60 and reach == {True, False}


class TestSingletonLift:
    """The singleton answer is built from the runs of the mask, in root
    order, over any ring: no space is fanned out or sorted, and its writers
    read the runs, not the columns."""

    # (ring, I, J, sdepth): Artinian boxes, zero axes after the run axis,
    # runs that reach g_r and runs that stop short of it, n = 0, and
    # inverted axes before, after and on the run axis
    CASES = [("n=3", "(1)", "(x^2, y^3)", 1),
             ("n=0", "(1)", "(0)", 0),
             ("n=1", "(x)", "(x^40)", 0),
             ("n=2", "(1)", "(x^3, y^2)", 0),
             ("n=3", "(1)", "(x^4, y^4, z^4)", 0),
             ("n=4", "(x2)", "(x1^2*x2, x2^3, x2*x3^2)", 1),
             ("n=3", "(x*y, z)", "(x^2*y, x*y^2, z^2)", 0),
             ("n=3 invert={1}", "(1)", "(y^3, z^2)", 1),
             ("n=3 invert={3}", "(1)", "(x^2, y^3)", 1),
             ("n=4 invert={1,4}", "(x2)", "(x2^2, x2*x3^3)", 2),
             ("n=2 invert={1,2}", "(1)", "(0)", 2)]

    def test_no_fan_out_and_no_sort(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the singleton lift needs no fan-out or sort of spaces")

        monkeypatch.setattr(stanley, "_fan_out", refuse)
        monkeypatch.setattr(stanley, "_sorted_by_root", refuse)
        for ring_text, I_text, J_text, value in self.CASES:
            ctx = parsing.parse_ring(ring_text)
            I, J = parsing.parse_ideal(I_text, ctx), parsing.parse_ideal(J_text, ctx)
            poset = contracted_poset(I, J)
            assert solver._best_partition(poset, 1) == (value, None)
            witness = solver.sdepth(I, J).witness
            assert all(a < b for a, b in zip(witness.roots, witness.roots[1:]))
            expected = reference_lift.lift(poset, singleton_partition(poset), ctx)
            assert witness.spaces == expected.spaces
            for command in ("sdepth", "decompose"):
                report, code = cli.run_request(
                    command, {"ring": ring_text, "I": I_text, "J": J_text})
                assert (code, report["sdepth"]) == (0, value), (ring_text, I_text, J_text)

    def test_only_interval_partitions_sort(self, monkeypatch):
        """The spaces of an interval partition are fanned out and sorted;
        the singletons of an inverted ring are not."""
        calls = []
        sort = stanley._sorted_by_root
        monkeypatch.setattr(stanley, "_sorted_by_root",
                            lambda *args: calls.append(args[0]) or sort(*args))
        for ring_text, I_text, J_text, value, sorts in (
                ("n=2 invert={2}", "(1)", "(x^3)", 1, False),
                ("n=3", "(x, y, z)", "(0)", 2, True),
                ("n=4 invert={1}", "(x2, x3, x4)", "(0)", 3, True)):
            ctx = parsing.parse_ring(ring_text)
            I, J = parsing.parse_ideal(I_text, ctx), parsing.parse_ideal(J_text, ctx)
            poset = contracted_poset(I, J)
            k, partition = solver.max_interval_partition(poset)
            res = solver.sdepth(I, J)
            assert res.value == k == value and calls == [ctx] * sorts
            assert res.witness.spaces == reference_lift.lift(poset, partition, ctx).spaces
            calls.clear()

    @staticmethod
    def quotients():
        """Random quotients with n = 0..5 and every kind of inverted set,
        and the box of one cell with and without inverted axes."""
        rng = random.Random(71)
        cases = []
        for case in range(300):
            n = case % 6
            A = frozenset(i for i in range(n) if rng.random() < 0.4)
            cases.append(random_quotient(rng, n=n, inverted=A, max_exp=rng.choice((2, 3, 5))))
        for ring_text in ("n=1", "n=1 invert={1}", "n=3 invert={1,3}", "n=4 invert={2}"):
            ctx = parsing.parse_ring(ring_text)
            cases.append((ctx, parsing.parse_ideal("(1)", ctx), parsing.parse_ideal("(0)", ctx)))
        return cases

    def test_run_answer_matches_the_columns(self):
        """On each quotient, the singleton answer built from runs writes
        the JSON line of the dict writers over the reference lift and the
        text of the column writer; its columns are the reference lift's,
        and it compares, hashes, prints and pickles as the decomposition
        built from them.  Inverted axes come before, after and on the run
        axis r, runs reach g_r, and boxes have one cell."""
        seen = set()
        for ctx, I, J in self.quotients():
            poset = contracted_poset(I, J)
            expected = reference_lift.lift(poset, singleton_partition(poset), ctx)
            got = solver._embed_and_invert(poset, None, ctx)
            line = cli._json_line({"decomposition": lambda: parsing.decomposition_to_json(got)}, 0)
            assert line == reference_json.json_line(
                {"decomposition": reference_json.decomposition_to_json(expected)}, 0), (I, J)
            assert parsing.decomposition_str(got) == parsing.decomposition_str(expected), (I, J)
            assert got.roots == expected.roots and got.zs == expected.zs
            columns = stanley.StanleyDecomposition._of_columns(ctx, expected.roots, expected.zs)
            assert got == columns and hash(got) == hash(columns) and repr(got) == repr(columns)
            assert pickle.loads(pickle.dumps(got)) == columns
            if poset.bound:
                r, g = poset.box.axis, poset.bound
                seen |= {"before" if i < r else "after" if i > r else "on" for i in ctx.inverted}
                seen |= {"reach" for _, _, last in poset.box.runs(poset.mask) if last == g[r]}
                seen |= {"one cell"} if poset.box.cells == 1 else set()
            else:
                seen.add("n = 0")
        assert seen == {"before", "after", "on", "reach", "one cell", "n = 0"}

    def test_writers_build_no_column(self):
        """Writing a singleton answer as JSON or as text reads its runs and
        builds neither column."""
        for ring_text, I_text, J_text, _ in self.CASES[2:]:
            ctx = parsing.parse_ring(ring_text)
            I, J = parsing.parse_ideal(I_text, ctx), parsing.parse_ideal(J_text, ctx)
            witness = solver.sdepth(I, J).witness
            parsing.decomposition_to_json(witness)
            parsing.decomposition_str(witness)
            assert witness.runs is not None
            assert "roots" not in witness.__dict__ and "zs" not in witness.__dict__

    def test_too_many_spaces_refused_before_any_is_built(self, monkeypatch):
        """count << |A| over MAX_SPACES raises AnswerTooLargeError before
        a run is read; at MAX_SPACES the answer is built."""
        def refuse(*args):
            raise AssertionError("runs read")

        ctx = parsing.parse_ring("n=3 invert={1,3}")
        I, J = parsing.parse_ideal("(1)", ctx), parsing.parse_ideal("(y^5)", ctx)
        poset = contracted_poset(I, J)
        monkeypatch.setattr(stanley, "MAX_SPACES", 20)
        assert len(solver._embed_and_invert(poset, None, ctx).roots) == 20
        monkeypatch.setattr(stanley, "MAX_SPACES", 19)
        monkeypatch.setattr(poset.box.__class__, "runs", refuse)
        with pytest.raises(AnswerTooLargeError, match="more than 19 Stanley spaces"):
            solver._embed_and_invert(poset, None, ctx)


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

    def test_rings_must_match(self):
        I = ring.ideal(RingContext(2), (1, 0))
        J = MonomialIdeal(RingContext(2, frozenset({1})))
        with pytest.raises(ContextMismatchError, match="different rings"):
            solver.sdepth(I, J)

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

import random
from itertools import product

import pytest

from stanleydec import filtration, hilbert, ring, solver, stanley
from stanleydec._intervals import descend
from stanleydec.errors import (
    BudgetExceededError,
    ContextMismatchError,
    StanleyError,
    ZeroModuleError,
)
from stanleydec.filtration import FiltrationStep, PrimeFiltration
from stanleydec.ring import MonomialIdeal, RingContext

import reference_fdepth
from util import (
    localize_pair,
    polynomial_quotient,
    random_quotient,
    recursion_headroom,
)


def chain_filtration(ctx, J, monomials):
    """Build a PrimeFiltration by adding the monomials in order."""
    chain = [J]
    steps = []
    for u in monomials:
        P = ring.colon(chain[-1], u)
        idx = filtration._prime_indices(P)
        steps.append(FiltrationStep(u, idx, u))
        chain.append(chain[-1].plus(u))
    return PrimeFiltration(ctx, tuple(chain), tuple(steps))


class TestVerify:
    def test_one_step_example(self):
        ctx = RingContext(3)
        I = ring.ideal(ctx, (0, 1, 0))
        J = ring.ideal(ctx, (1, 1, 0), (0, 1, 1))
        F = chain_filtration(ctx, J, [(0, 1, 0)])
        assert F.steps[0].primes == {0, 2}
        assert filtration.verify_filtration(F, I, J).valid

    def test_trivial_filtration_of_ring(self):
        ctx = RingContext(1)
        J = MonomialIdeal(ctx)
        I = ring.ideal(ctx, (0,))
        F = chain_filtration(ctx, J, [(0,)])
        report = filtration.verify_filtration(F, I, J)
        assert report.valid
        assert F.steps[0].primes == frozenset()

    def test_non_prime_colon_rejected(self):
        ctx = RingContext(3)
        J = ring.ideal(ctx, (2, 0, 0), (1, 1, 1))
        u = (1, 0, 0)
        # (J : x) = (x, yz) is not a variable prime
        F = PrimeFiltration(
            ctx,
            (J, J.plus(u)),
            (FiltrationStep(u, frozenset({0}), u),),
        )
        report = filtration.verify_filtration(F, J.plus(u), J)
        assert not report.valid
        assert report.reason == "colon ideal is not prime"

    def test_wrong_endpoint(self):
        ctx = RingContext(1)
        J = MonomialIdeal(ctx)
        F = chain_filtration(ctx, J, [(1,)])
        assert not filtration.verify_filtration(F, ring.ideal(ctx, (0,)), J).valid

    @pytest.mark.parametrize("steps, J, report", [
        ([((0, 0), {0}, (0, 0))], (1, 0), (True, -1, "")),
        ([], (1, 0), (False, -1, "chain/step length mismatch")),
        ([((0, 0), {0}, (0, 0))], (2, 0), (False, -1, "chain does not start at J")),
        ([((1, 0), {0}, (1, 0))], (1, 0), (False, 0, "step monomial already present")),
        ([((0, 1), {0}, (0, 1))], (1, 0), (False, 0, "chain step is not J + (u)")),
        ([((0, 0), {1}, (0, 0))], (1, 0), (False, 0, "recorded prime differs from colon")),
        ([((0, 0), {0}, (1, 0))], (1, 0), (False, 0, "shift is not the multidegree of u")),
    ], ids=["valid", "length", "start", "present", "not-J+(u)", "prime", "shift"])
    def test_each_check(self, steps, J, report):
        """The chain (x) < (1) of K[x, y] with the given steps, checked
        against (1)/J: each check names its own failure and step."""
        ctx = RingContext(2)
        F = PrimeFiltration(ctx, (ring.ideal(ctx, (1, 0)), ring.ideal(ctx, (0, 0))),
                            tuple(FiltrationStep(u, frozenset(P), s) for u, P, s in steps))
        got = filtration.verify_filtration(F, ring.ideal(ctx, (0, 0)), ring.ideal(ctx, J))
        assert tuple(got) == report

    def test_ring_mismatch_raises(self):
        ctx = RingContext(1)
        F = chain_filtration(ctx, MonomialIdeal(ctx), [(0,)])
        other = RingContext(1, frozenset({0}))
        with pytest.raises(ContextMismatchError, match="must share a ring"):
            filtration.verify_filtration(F, ring.ideal(other, (0,)), MonomialIdeal(other))


class TestFdepthOf:
    def test_codimension_two(self):
        ctx = RingContext(3)
        J = ring.ideal(ctx, (1, 1, 0), (0, 1, 1))
        F = chain_filtration(ctx, J, [(0, 1, 0)])
        assert filtration.fdepth_of(F) == 1

    def test_whole_ring(self):
        ctx = RingContext(3)
        F = chain_filtration(ctx, MonomialIdeal(ctx), [(0, 0, 0)])
        assert filtration.fdepth_of(F) == 3

    def test_full_prime_gives_zero(self):
        # x and y both colon to the full maximal ideal modulo (x^2, xy, y^2)
        ctx = RingContext(2)
        I = ring.ideal(ctx, (1, 0), (0, 1))
        J = ring.ideal(ctx, (2, 0), (1, 1), (0, 2))
        F = chain_filtration(ctx, J, [(1, 0), (0, 1)])
        assert filtration.verify_filtration(F, I, J).valid
        assert filtration.fdepth_of(F) == 0
        assert filtration.fdepth(I, J).value == 0

    def test_empty_filtration_rejected(self):
        ctx = RingContext(2)
        F = PrimeFiltration(ctx, (MonomialIdeal(ctx),), ())
        with pytest.raises(ZeroModuleError, match="empty filtration"):
            filtration.fdepth_of(F)


class TestFdepth:
    def test_principal_quotient(self):
        ctx = RingContext(3)
        I = ring.ideal(ctx, (0, 1, 0))
        J = ring.ideal(ctx, (1, 1, 0), (0, 1, 1))
        res = filtration.fdepth(I, J)
        assert res.value == 1 and res.complete
        assert filtration.verify_filtration(res.witness, I, J).valid

    def test_localized_ring(self):
        ctx = RingContext(3, frozenset({1}))
        I = ring.ideal(ctx, (0, 0, 0))
        res = filtration.fdepth(I, MonomialIdeal(ctx))
        assert res.value == 3

    def test_fdepth_bounded_by_sdepth_randomized(self):
        rng = random.Random(41)
        checked = 0
        while checked < 20:
            ctx, I, J = polynomial_quotient(rng, n=2, max_exp=1)
            res = filtration.fdepth(I, J)
            if not res.complete:
                continue
            assert res.value <= solver.sdepth(I, J).value
            checked += 1

    def test_zero_module_rejected(self):
        ctx = RingContext(1)
        I = ring.ideal(ctx, (1,))
        with pytest.raises(ZeroModuleError):
            filtration.fdepth(I, I)

    def test_witness_is_over_the_contraction(self):
        """With variables inverted, the witness is a filtration of the
        contraction over K[x1..xn], with the input's numbering, and
        localize_filtration carries it to a filtration of I/J."""
        ctx = RingContext(3, frozenset({1}))
        I, J = ring.ideal(ctx, (1, 0, 0), (0, 0, 1)), ring.ideal(ctx, (2, 0, 1))
        res = filtration.fdepth(I, J)
        assert res.value == 2 and res.witness.context == RingContext(3)
        assert [s.monomial for s in res.witness.steps] == [(1, 0, 1), (0, 0, 1), (1, 0, 0)]
        rng = random.Random(47)
        checked = 0
        while checked < 60:
            n = checked % 4 + 1
            A = frozenset(rng.sample(range(n), rng.randint(1, n)))
            ctx, I, J = random_quotient(rng, n=n, inverted=A, max_exp=2 if n < 4 else 1)
            w = filtration.fdepth(I, J).witness
            assert w.context == RingContext(n)
            assert filtration.verify_filtration(w, ring.contraction(I), ring.contraction(J))
            assert filtration.verify_filtration(filtration.localize_filtration(w, A), I, J)
            checked += 1


def maximal_ideal(n):
    ctx = RingContext(n)
    return ring.ideal(ctx, *[tuple(int(i == j) for i in range(n)) for j in range(n)])


def bound_of(I, J):
    """last_step_bound of the contraction of I/J, whose one-cell inverted
    axes it counts."""
    Ip, Jp = ring.contraction(I), ring.contraction(J)
    poset = solver.build_characteristic_poset(Ip, Jp)
    start, _, _ = filtration._prime_steps(poset, Jp)
    return filtration.last_step_bound(poset, start)


class TestBound:
    def test_never_below_fdepth(self):
        """Both bounds fdepth starts from, last_step_bound and the least
        rho of a maximal element, are >= the oracle's fdepth on random
        quotients in one to five variables, with and without inverted
        variables."""
        rng = random.Random(29)
        checked = tight = 0
        for trial in range(240):
            n = trial % 5 + 1
            ctx, I, J = random_quotient(rng, n=n, max_exp=2 if n < 3 else 1,
                                        inverted=None if trial % 2 else frozenset())
            if ring.contraction(I) == ring.contraction(J):
                continue
            res = reference_fdepth.fdepth(I, J, 300)
            if not res.complete:
                continue
            poset = solver.build_characteristic_poset(ring.contraction(I), ring.contraction(J))
            assert bound_of(I, J) >= res.value, (I, J)
            assert solver.maximal_element_bound(poset) >= res.value, (I, J)
            checked += 1
            tight += bound_of(I, J) == res.value
        assert checked >= 200 and tight < checked

    @pytest.mark.parametrize("n", range(1, 9))
    def test_maximal_ideal(self, n):
        """fdepth(m) = 1, and the last step adds x_j to the other variables,
        whose colon is the prime of every other variable."""
        m = maximal_ideal(n)
        assert bound_of(m, MonomialIdeal(m.context)) == 1

    @pytest.mark.parametrize("n", range(5, 9))
    def test_maximal_ideal_completes(self, n):
        """The lex-first chain of m reaches the bound 1: no target is left
        to refute, so a budget of 20,000 nodes is plenty."""
        m = maximal_ideal(n)
        res = filtration.fdepth(m, MonomialIdeal(m.context), budget=20000)
        assert res.value == 1 and res.complete
        assert filtration.verify_filtration(res.witness, m, MonomialIdeal(m.context))

    def test_budget_error_names_its_target(self):
        """A budget too small for the first chain is spent on target 0."""
        ctx = RingContext(1)
        with pytest.raises(BudgetExceededError) as info:
            filtration.fdepth(ring.ideal(ctx, (0,)), ring.ideal(ctx, (300,)), budget=5)
        assert info.value.nodes == 6 and info.value.nodes_by_target == {0: 6}


def plain_filtration(F):
    """A filtration as plain tuples: chain generators, then per step the
    monomial, the sorted primes and the shift."""
    chain = tuple(tuple(sorted(I.generators)) for I in F.chain)
    steps = tuple((s.monomial, tuple(sorted(s.primes)), s.shift) for s in F.steps)
    return F.context, chain, steps


def outcome(search, *args):
    """What a search returns, as plain tuples, or the type, message and
    node count of the library error it raises."""
    try:
        result = search(*args)
    except StanleyError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "nodes", None)
    return result.value, result.complete, plain_filtration(result.witness)


class TestIterativeSearch:
    def test_matches_recursive_reference(self):
        """Against the recursive oracle, whose memoized search can run out
        of budget where the target search completes.  Where the oracle
        completes: the same value, complete flag and witness.  Where only
        the target search completes: the oracle's answer at a budget it
        completes in.  Where neither does: a value no larger than that
        answer and a valid witness.  Budget errors: the same type and
        message, after budget + 1 nodes.  Cases: 300 random quotients in one
        to three variables, at a dozen budgets up to 100 and at a large
        one; the maximal ideal for n = 3..5 and 40 random quotients in four
        and five variables, at budgets 2, 7 and 50 and at 20,000, the budget
        of the benchmark requests.  The random ones come with and without
        inverted variables.  A run the oracle completes within its budget
        is the same run at every larger budget, so the small budgets stop
        there."""
        rng = random.Random(17)
        kinds = set()
        full = {}

        def check(I, J, budget):
            want = outcome(reference_fdepth.fdepth, I, J, budget)
            got = outcome(filtration.fdepth, I, J, budget)
            if want[0] == "BudgetExceededError":
                assert got == want[:2] + (budget + 1,), (I, J, budget)
                kinds.add(want[0])
            elif want[0] == "ZeroModuleError" or want[1] is True:
                assert got == want, (I, J, budget)
                kinds.add(want[0] if isinstance(want[0], str) else want[1])
            else:
                if (I, J) not in full:
                    full[I, J] = outcome(reference_fdepth.fdepth, I, J, 10**7)
                assert full[I, J][1] is True
                if got[1] is True:
                    assert got == full[I, J], (I, J, budget)
                    kinds.add("only the target search completes")
                else:
                    assert got[1] is False and got[0] <= full[I, J][0], (I, J, budget)
                    witness = filtration.fdepth(I, J, budget).witness
                    assert filtration.verify_filtration(
                        witness, ring.contraction(I), ring.contraction(J))
                    kinds.add("neither completes")
            return want[0] == "ZeroModuleError" or want[1] is True

        def quotients(count, n, max_elements, **kwargs):
            """count random quotients whose posets have at most
            max_elements elements; the i-th is in n(i) variables, none of
            them inverted when i is even, some maybe inverted when odd."""
            found = []
            while len(found) < count:
                inverted = None if len(found) % 2 else frozenset()
                ctx, I, J = random_quotient(rng, n=n(len(found)), inverted=inverted,
                                            **kwargs)
                Ip, Jp = ring.contraction(I), ring.contraction(J)
                if Ip == Jp or len(
                        solver.build_characteristic_poset(Ip, Jp).elements) <= max_elements:
                    found.append((I, J))
            return found

        cases = [(I, J, sorted(rng.sample(range(101), 12)), 10**6)
                 for I, J in quotients(300, lambda i: i % 3 + 1, 7)]
        for n in (3, 4, 5):
            m = maximal_ideal(n)
            cases.append((m, MonomialIdeal(m.context), (2, 7, 50), 20000))
        cases += [(I, J, (2, 7, 50), 20000)
                  for I, J in quotients(40, lambda i: i % 2 + 4, 12, max_exp=1)]
        for I, J, budgets, last in cases:
            for budget in budgets:
                if check(I, J, budget):
                    break
            check(I, J, last)
        assert {True, "BudgetExceededError", "only the target search completes",
                "neither completes"} <= kinds

    def test_step_test_matches_colon(self):
        """For ideals L between J' and I' and every candidate u, the mask
        step test agrees with ring.contains(L, u) and with the variable
        prime of ring.colon(L, u), and L + (u) is the mask of L.plus(u).
        Allowed at most one prime, it yields the same steps less those
        with more when every corner of the rest, a maximal cell of I' not
        in L, has at most one prime {i : T_i < g_i}, and nothing
        otherwise: every chain from L puts each corner in with its prime."""
        rng = random.Random(31)
        seen = set()

        def mask(L, g):
            # cells of the box in lex order, so the i-th cell is bit i
            cells = product(*[range(gi + 1) for gi in g])
            return sum(1 << i for i, a in enumerate(cells) if ring.contains(L, a))

        def corner_primes(L, Ip, g):
            # the largest prime of a cell of I' outside L with every cell
            # above it by one in L
            return max(len([i for i, (ai, gi) in enumerate(zip(a, g)) if ai < gi])
                       for a in product(*[range(gi + 1) for gi in g])
                       if ring.contains(Ip, a) and not ring.contains(L, a)
                       and all(ring.contains(L, a[:i] + (ai + 1,) + a[i + 1:])
                               for i, (ai, gi) in enumerate(zip(a, g)) if ai < gi))

        for trial in range(120):
            _, Ip, Jp = polynomial_quotient(rng, n=trial % 4 + 1)
            poset = solver.build_characteristic_poset(Ip, Jp)
            start, end, steps = filtration._prime_steps(poset, Jp)
            assert (start, end) == (mask(Jp, poset.bound), mask(Ip, poset.bound))
            for _ in range(3):
                extra = [u for u in poset.elements if rng.random() < 0.3]
                L = MonomialIdeal(Ip.context, Jp.generators | frozenset(extra))
                found = {u: (primes, nxt)
                         for u, primes, nxt in steps(mask(L, poset.bound), Ip.context.n)}
                assert list(found) == sorted(found)
                fewer = {u: (primes, nxt) for u, primes, nxt in steps(mask(L, poset.bound), 1)}
                if L == Ip:
                    assert found == fewer == {}
                elif corner_primes(L, Ip, poset.bound) <= 1:
                    assert fewer == {u: s for u, s in found.items() if len(s[0]) <= 1}
                    seen.add("kept")
                else:
                    assert fewer == {}
                    seen.add("pruned")
                for u in poset.elements:
                    if ring.contains(L, u):
                        assert u not in found
                        seen.add("in L")
                        continue
                    primes = filtration._prime_indices(ring.colon(L, u))
                    if primes is None:
                        assert u not in found
                        seen.add("not prime")
                    else:
                        assert found[u] == (primes, mask(L.plus(u), poset.bound))
                        seen.add(len(primes))
        assert {"in L", "not prime", 0, 1, 2, 3, "kept", "pruned"} <= seen

    def test_prune_matches_unpruned_search(self):
        """The lex DFS over steps(L, n - t), which skips the ideals with a
        corner of more than n - t primes, against the same DFS over all the
        steps with at most n - t primes, on random quotients in one to five
        variables at every target t: the same first chain, found in no more
        nodes, and in fewer somewhere."""
        rng = random.Random(37)
        budget = 20000
        cases = fewer = 0

        def first(steps, start, end):
            tickets = iter(range(budget))
            path = descend(steps, start, end, tickets)
            return path and [step[:2] for step in path], next(tickets, budget)

        for trial in range(150):
            n = trial % 5 + 1
            _, Ip, Jp = polynomial_quotient(rng, n=n, max_exp=2 if n < 4 else 1)
            poset = solver.build_characteristic_poset(Ip, Jp)
            start, end, steps = filtration._prime_steps(poset, Jp)
            for t in range(n + 1):
                most = n - t
                pruned = first(lambda L: steps(L, most), start, end)
                unpruned = first(
                    lambda L: (s for s in steps(L, n) if len(s[1]) <= most), start, end)
                if unpruned[0] is None:
                    continue
                assert pruned[0] == unpruned[0] and pruned[1] <= unpruned[1], (Ip, Jp, t)
                cases += 1
                fewer += pruned[1] < unpruned[1]
        assert cases >= 400 and fewer

    def test_corner_prune_completes_the_76_element_instance(self):
        """(x3*x4, x5, x1*x2*x3)/(x1^2*x2^2*x3^2): without the prune, the
        targets above fdepth take more than 20,000 nodes to refute."""
        ctx = RingContext(5)
        I = ring.ideal(ctx, (0, 0, 1, 1, 0), (0, 0, 0, 0, 1), (1, 1, 1, 0, 0))
        J = ring.ideal(ctx, (2, 2, 2, 0, 0))
        assert len(solver.build_characteristic_poset(I, J).elements) == 76
        res = filtration.fdepth(I, J, budget=20000)
        assert res.value == 3 and res.complete
        assert filtration.verify_filtration(res.witness, I, J)

    def test_long_chain_needs_no_recursion(self):
        """K[x]/(x^300) has one prime filtration, 300 steps long; the
        search may not recurse once per step."""
        ctx = RingContext(1)
        I, J = ring.ideal(ctx, (0,)), ring.ideal(ctx, (300,))
        with recursion_headroom(100):
            res = filtration.fdepth(I, J)
        assert res.value == 0 and res.complete
        assert [s.monomial for s in res.witness.steps] == [(e,) for e in range(299, -1, -1)]

    def test_value_is_best_enumerated_filtration(self):
        """A complete fdepth is the largest fdepth_of over all prime
        filtrations of the contraction I'/J', and its witness is one of
        them."""
        rng = random.Random(23)
        checked = 0
        while checked < 60:
            ctx, I, J = random_quotient(rng, n=checked % 3 + 1, max_exp=2)
            Ip, Jp = ring.contraction(I), ring.contraction(J)
            if Ip == Jp:
                continue
            res = filtration.fdepth(I, J)
            found, complete = reference_fdepth.enumerate_prime_filtrations(Ip, Jp, 3000)
            if not (res.complete and complete):
                continue
            assert res.value == max(filtration.fdepth_of(F) for F in found)
            assert res.witness in found
            checked += 1


class TestLocalizeFiltration:
    def test_surviving_step(self):
        ctx = RingContext(3)
        I = ring.ideal(ctx, (0, 1, 0))
        J = ring.ideal(ctx, (1, 1, 0), (0, 1, 1))
        F = chain_filtration(ctx, J, [(0, 1, 0)])
        Ff = filtration.localize_filtration(F, {1})
        assert len(Ff.steps) == 1
        If, Jf = localize_pair(I, J, {1})
        assert filtration.verify_filtration(Ff, If, Jf).valid
        # dim S_f/(x,z)S_f = dim S/(x,z) = 1: unchanged by localizing
        assert filtration.fdepth_of(Ff) == filtration.fdepth_of(F) == 1

    def test_step_with_inverted_prime_dropped(self):
        ctx = RingContext(2)
        I = ring.ideal(ctx, (1, 0), (0, 1))
        J = MonomialIdeal(ctx)
        found, _ = reference_fdepth.enumerate_prime_filtrations(I, J)
        F = next(Fi for Fi in found if any({0} & s.primes for s in Fi.steps))
        Ff = filtration.localize_filtration(F, {0})
        assert all(0 not in s.primes for s in Ff.steps)
        If, Jf = localize_pair(I, J, {0})
        assert filtration.verify_filtration(Ff, If, Jf).valid

    def test_empty_support_unchanged(self):
        ctx = RingContext(2)
        F = chain_filtration(ctx, MonomialIdeal(ctx), [(0, 0)])
        Ff = filtration.localize_filtration(F, {0})
        assert len(Ff.steps) == 1
        assert Ff.steps[0].primes == frozenset()

    def test_inverted_input_rejected(self):
        ctx = RingContext(2, frozenset({0}))
        F = chain_filtration(ctx, MonomialIdeal(ctx), [(0, 0)])
        with pytest.raises(ContextMismatchError, match="over the polynomial ring"):
            filtration.localize_filtration(F, {1})

    def test_fdepth_never_decreases_randomized(self):
        rng = random.Random(43)
        for _ in range(20):
            ctx, I, J = polynomial_quotient(rng, n=2, max_exp=1)
            found, complete = reference_fdepth.enumerate_prime_filtrations(
                I, J, budget=2000
            )
            if not found:
                continue
            A = frozenset({rng.randrange(ctx.n)})
            If, Jf = localize_pair(I, J, A)
            for F in found[:5]:
                Ff = filtration.localize_filtration(F, A)
                if not Ff.steps:
                    continue
                assert filtration.verify_filtration(Ff, If, Jf).valid
                assert filtration.fdepth_of(Ff) >= filtration.fdepth_of(F)

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stanleydec import ring
from stanleydec.errors import (
    ContainmentError,
    ContextMismatchError,
    MalformedInputError,
)
from stanleydec.ring import MonomialIdeal, RingContext

from util import box_monomials, is_unit


def ctx3_inv3():
    return RingContext(3, frozenset({2}))


class TestNormalize:
    def test_unit_factor_stripped(self):
        ctx = ctx3_inv3()
        I = ring.ideal(ctx, (2, 1, -3))
        assert I.generators == {(2, 1, 0)}

    def test_inverted_variable_collapses_generators(self):
        # y is a unit, so (xy, yz) = (x, z)
        ctx = RingContext(3, frozenset({1}))
        I = ring.ideal(ctx, (1, 1, 0), (0, 1, 1))
        assert I.generators == {(1, 0, 0), (0, 0, 1)}

    def test_divisibility_minimalization(self):
        ctx = RingContext(1)
        I = ring.ideal(ctx, (1,), (2,))
        assert I.generators == {(1,)}

    def test_idempotent(self):
        ctx = ctx3_inv3()
        I = ring.ideal(ctx, (2, 1, -3), (2, 2, 0), (0, 1, 5))
        again = ring.ideal(ctx, *I.generators)
        assert I == again

    def test_rejects_malformed_generator(self):
        with pytest.raises(MalformedInputError):
            ring.ideal(ctx3_inv3(), (-1, 0, 0))

    def test_first_bad_coordinate_names_the_error(self):
        """A negative exponent and a non-integer are reported in coordinate
        order, whichever comes first."""
        ctx = RingContext(2)
        with pytest.raises(MalformedInputError, match="negative exponent on non-inverted variable 1"):
            ring.check_monomial((-1, "a"), ctx)
        with pytest.raises(MalformedInputError, match="exponent 'a' is not an integer"):
            ring.check_monomial(("a", -1), ctx)
        assert ring.check_monomial([-2, 3], RingContext(2, {0})) == (-2, 3)

    def test_zero_and_unit_ideals(self):
        ctx = RingContext(2)
        assert MonomialIdeal(ctx).is_zero
        assert is_unit(ring.ideal(ctx, (0, 0), (1, 2)))


class TestContains:
    def setup_method(self):
        self.ctx = RingContext(3, frozenset({1}))
        self.I = ring.ideal(self.ctx, (1, 0, 0), (0, 0, 1))

    def test_no_generator_divides(self):
        assert not ring.contains(self.I, (0, -5, 0))

    def test_divides_modulo_unit(self):
        assert ring.contains(self.I, (1, -5, 0))

    def test_polynomial_case(self):
        ctx = RingContext(2)
        I = ring.ideal(ctx, (2, 0))
        assert ring.contains(I, (3, 1))

    def test_context_mismatch(self):
        other = ring.ideal(RingContext(2), (1, 0))
        with pytest.raises(ContextMismatchError):
            ring.is_subideal(other, self.I)

    def test_unit_invariance_on_inverted_coordinates(self):
        for k in (-3, -1, 0, 2, 7):
            assert ring.contains(self.I, (1, k, 0))
            assert not ring.contains(self.I, (0, k, 0))


class TestInQuotient:
    def setup_method(self):
        self.ctx = RingContext(3)
        self.I = ring.ideal(self.ctx, (0, 1, 0))
        self.J = ring.ideal(self.ctx, (1, 1, 0), (0, 1, 1))

    def test_member(self):
        assert ring.in_quotient(self.I, self.J, (0, 3, 0))

    def test_in_j(self):
        assert not ring.in_quotient(self.I, self.J, (1, 1, 0))

    def test_not_in_i(self):
        assert not ring.in_quotient(self.I, self.J, (1, 0, 0))

    def test_rejects_non_containment(self):
        with pytest.raises(ContainmentError):
            ring.in_quotient(self.J, self.I, (0, 1, 0))


class TestContraction:
    def test_keeps_generators(self):
        ctx = RingContext(3, frozenset({1}))
        I = ring.ideal(ctx, (1, 0, 0), (0, 0, 1))
        Ic = ring.contraction(I)
        assert Ic.context == RingContext(3)
        assert Ic.generators == I.generators

    def test_extend_to_keeps_n(self):
        I = ring.ideal(RingContext(2), (1, 0))
        with pytest.raises(ContextMismatchError, match="variable counts differ"):
            ring.extend_to(I, RingContext(3, frozenset({2})))

    def test_unit_ideal(self):
        ctx = RingContext(2, frozenset({0}))
        assert is_unit(ring.contraction(ring.ideal(ctx, (0, 0))))

    def test_single_generator(self):
        ctx = RingContext(3, frozenset({2}))
        I = ring.ideal(ctx, (2, 1, 0))
        assert ring.contraction(I).generators == {(2, 1, 0)}

    def test_reextension_roundtrip(self):
        ctx = RingContext(3, frozenset({1, 2}))
        I = ring.ideal(ctx, (2, 1, 0), (1, 0, 3), (0, 2, 2))
        assert ring.extend_to(ring.contraction(I), ctx) == I

    def test_polynomial_ring_keeps_the_ideal(self):
        """Over a ring that inverts nothing the contraction is I itself, and
        elsewhere it equals I's generators normalized again in the
        polynomial ring."""
        rng = random.Random(71)
        kept = 0
        for case in range(300):
            n = case % 5
            A = frozenset(i for i in range(n) if rng.random() < 0.4)
            ctx = RingContext(n, A)
            gens = [tuple(rng.randint(-2 if i in A else 0, 3) for i in range(n))
                    for _ in range(rng.randint(0, 5))]
            I = ring.ideal(ctx, *gens)
            Ic = ring.contraction(I)
            assert Ic == MonomialIdeal(RingContext(n), I.generators), (ctx, gens)
            if not A:
                assert Ic is I
                kept += 1
        assert kept > 50


small_exp = st.integers(min_value=0, max_value=3)


@st.composite
def raw_ideal(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    A = frozenset(
        i for i in range(n) if draw(st.booleans())
    )
    ctx = RingContext(n, A)
    gens = draw(
        st.lists(
            st.tuples(*[small_exp for _ in range(n)]), min_size=0, max_size=4
        )
    )
    return ctx, [tuple(-e if i in A and draw(st.booleans()) else e
                       for i, e in enumerate(g)) for g in gens]


@given(raw_ideal())
@settings(max_examples=60, deadline=None)
def test_contains_matches_brute_force(data):
    ctx, gens = data
    I = ring.ideal(ctx, *gens)
    stripped = [ring.strip_units(g, ctx) for g in gens]
    for m in box_monomials(ctx, 3):
        raw = any(
            all(m[i] >= g[i] for i in range(ctx.n) if i not in ctx.inverted)
            for g in stripped
        )
        assert ring.contains(I, m) == raw


@given(raw_ideal())
@settings(max_examples=60, deadline=None)
def test_normalize_idempotent(data):
    ctx, gens = data
    I = ring.ideal(ctx, *gens)
    assert ring.ideal(ctx, *I.generators) == I


@given(raw_ideal())
@settings(max_examples=60, deadline=None)
def test_contraction_reextension_identity(data):
    ctx, gens = data
    I = ring.ideal(ctx, *gens)
    assert ring.extend_to(ring.contraction(I), ctx) == I


def test_colon_ideal():
    ctx = RingContext(3)
    J = ring.ideal(ctx, (1, 1, 0), (0, 1, 1))
    assert ring.colon(J, (0, 1, 0)).generators == {(1, 0, 0), (0, 0, 1)}
    assert is_unit(ring.colon(J, (1, 1, 0)))
    assert ring.colon(MonomialIdeal(ctx), (1, 0, 0)).is_zero


@given(raw_ideal(), st.data())
@settings(max_examples=100, deadline=None)
def test_plus_matches_renormalizing(data, extra):
    """I.plus(m) is the ideal the generators of I and m span, normalized
    from scratch, including when m is already in I, when it divides
    several generators and when it is a unit."""
    ctx, gens = data
    I = ring.ideal(ctx, *gens)
    m = extra.draw(st.tuples(*[
        st.integers(min_value=-2 if i in ctx.inverted else 0, max_value=3)
        for i in range(ctx.n)]))
    expected = MonomialIdeal(ctx, I.generators | {m})
    got = I.plus(m)
    assert got == expected and got.generators == expected.generators
    assert (got is I) == ring.contains(I, m)


class TestPlus:
    def test_member_gives_the_same_ideal(self):
        ctx = ctx3_inv3()
        I = ring.ideal(ctx, (1, 0, 0), (0, 2, 0))
        assert I.plus((1, 1, -4)) is I
        assert I.plus([0, 2, 5]) is I

    def test_drops_every_generator_it_divides(self):
        ctx = ctx3_inv3()
        I = ring.ideal(ctx, (2, 0, 0), (1, 1, 0), (0, 3, 0))
        assert I.plus((1, 0, 7)).generators == {(1, 0, 0), (0, 3, 0)}
        assert I.plus((0, 1, -1)).generators == {(2, 0, 0), (0, 1, 0)}

    def test_unit_and_zero_ideals(self):
        ctx = ctx3_inv3()
        unit = ring.ideal(ctx, (0, 0, 0))
        assert unit.plus((3, 1, 0)) is unit
        I = ring.ideal(ctx, (2, 0, 0), (1, 1, 0))
        assert I.plus((0, 0, -2)).generators == {(0, 0, 0)}
        assert is_unit(I.plus((0, 0, -2)))
        assert MonomialIdeal(ctx).plus((0, 1, 1)).generators == {(0, 1, 0)}

    @pytest.mark.parametrize("m", [(1, 0), (-1, 0, 0), (1, 0.5, 0)])
    def test_rejects_a_bad_monomial(self, m):
        I = ring.ideal(ctx3_inv3(), (1, 0, 0))
        with pytest.raises(MalformedInputError):
            I.plus(m)

import random
from itertools import product

import pytest

from stanleydec import ring, solver, stanley
from stanleydec.errors import (
    AnswerTooLargeError,
    MalformedInputError,
    VerificationError,
    ZeroModuleError,
)
from stanleydec.ring import MonomialIdeal, RingContext
from stanleydec.stanley import StanleyDecomposition, StanleySpace

import reference_verify
from util import (
    contracted_poset,
    decomposition_from_partition,
    greedy_partition,
    polynomial_quotient,
    random_quotient,
    singleton_decomposition,
)


def space(ctx, root, zplus=(), zminus=()):
    return StanleySpace(ctx, root, frozenset(zplus), frozenset(zminus))


class TestRegion:
    def test_plain_space(self):
        ctx = RingContext(2)
        r = stanley.space_region(space(ctx, (1, 0), zplus={0, 1}))
        assert r.bounds == ((1, None), (0, None))

    def test_fixed_negative_coordinate(self):
        ctx = RingContext(3, frozenset({2}))
        r = stanley.space_region(space(ctx, (1, 0, -1), zplus={1}))
        assert r.bounds == ((1, 1), (0, None), (-1, -1))

    def test_inverse_direction(self):
        ctx = RingContext(3, frozenset({1, 2}))
        r = stanley.space_region(
            space(ctx, (0, -1, 0), zplus={0, 2}, zminus={1})
        )
        assert r.bounds == ((0, None), (None, -1), (0, None))


class TestSpaceContains:
    def test_member(self):
        ctx = RingContext(3)
        s = space(ctx, (0, 1, 0), zplus={1})
        assert stanley.space_contains(s, (0, 4, 0))

    def test_fixed_violated(self):
        ctx = RingContext(3)
        s = space(ctx, (0, 1, 0), zplus={1})
        assert not stanley.space_contains(s, (1, 1, 0))

    def test_inverse_ray(self):
        ctx = RingContext(3, frozenset({1}))
        s = space(ctx, (0, 0, 0), zminus={1})
        assert stanley.space_contains(s, (0, -3, 0))
        assert not stanley.space_contains(s, (0, 1, 0))

    def test_region_semantics_match_product_enumeration(self):
        # monomials of u*K[Z] are exactly u times products of Z-directions
        ctx = RingContext(3, frozenset({2}))
        s = space(ctx, (1, 0, -1), zplus={1}, zminus={2})
        reachable = set()
        for b in range(4):
            for c in range(4):
                reachable.add((1, b, -1 - c))
        for m in ring.box_monomials(ctx, 3):
            assert stanley.space_contains(s, m) == (m in reachable)


class TestCanonical:
    def test_two_inverted_variables(self):
        ctx = RingContext(3, frozenset({1, 2}))
        D = stanley.canonical_sf_decomposition(ctx)
        assert len(D.spaces) == 4
        assert all(s.dimension == 3 for s in D.spaces)
        expected = {
            ((0, 0, 0), (0, 1, 2), ()),
            ((0, -1, 0), (0, 2), (1,)),
            ((0, 0, -1), (0, 1), (2,)),
            ((0, -1, -1), (0,), (1, 2)),
        }
        assert {s.key() for s in D.spaces} == expected

    def test_polynomial_ring(self):
        D = stanley.canonical_sf_decomposition(RingContext(1))
        assert [s.key() for s in D.spaces] == [((0,), (0,), ())]

    def test_one_inverted_verifies(self):
        ctx = RingContext(2, frozenset({0}))
        D = stanley.canonical_sf_decomposition(ctx)
        I = ring.ideal(ctx, (0, 0))
        J = MonomialIdeal(ctx)
        assert stanley.verify_decomposition(D, I, J).valid

    def test_all_subsets_of_three(self):
        for bits in product((False, True), repeat=3):
            A = frozenset(i for i in range(3) if bits[i])
            ctx = RingContext(3, A)
            D = stanley.canonical_sf_decomposition(ctx)
            assert len(D.spaces) == 2 ** len(A)
            assert stanley.verify_decomposition(
                D, ring.ideal(ctx, (0, 0, 0)), MonomialIdeal(ctx)
            ).valid
            assert stanley.sdepth_of(D) == 3


class TestSpaceLimit:
    def test_fan_out_stops_at_the_limit(self, monkeypatch):
        """sdepth, localize and the canonical decomposition may build
        MAX_SPACES spaces and no more: a fan-out of 2^|A| spaces per base
        is counted before it is built."""
        whole = RingContext(2, frozenset({0, 1}))
        ctx = RingContext(3)
        m = ring.ideal(ctx, (1, 0, 0), (0, 1, 0), (0, 0, 1))
        D = solver.sdepth(m, MonomialIdeal(ctx)).witness     # 3 of 4 spaces survive {0}
        answers = [
            lambda: stanley.canonical_sf_decomposition(whole),
            lambda: solver.sdepth(ring.ideal(whole, (0, 0)), MonomialIdeal(whole)).witness,
            lambda: stanley.localize_decomposition(D, m, MonomialIdeal(ctx), {0}).decomposition,
        ]
        for answer, spaces in zip(answers, (4, 4, 6)):
            monkeypatch.setattr(stanley, "MAX_SPACES", spaces)
            assert len(answer().spaces) == spaces
            monkeypatch.setattr(stanley, "MAX_SPACES", spaces - 1)
            with pytest.raises(AnswerTooLargeError, match="more than %d Stanley" % (spaces - 1)):
                answer()


class _Int(int):
    pass


class _FrozenSet(frozenset):
    pass


def _outcome(build):
    """The spaces build returns, each with the types of its fields and
    root entries, or the type and message of the error it raises."""
    try:
        spaces = build()
    except (MalformedInputError, TypeError) as exc:
        return type(exc), str(exc)
    return [(s, type(s.root), type(s.zplus), type(s.zminus), tuple(map(type, s.root)))
            for s in spaces]


def _one_by_one(ctx, roots, zs):
    return [StanleySpace(ctx, root, zplus, zminus) for root, (zplus, zminus) in zip(roots, zs)]


class TestMakeSpaces:
    """make_spaces against StanleySpace one by one: the same spaces with
    the same field types, or the error of the first bad space."""

    def test_valid_spaces_match(self):
        rng = random.Random(29)
        assert stanley.make_spaces(RingContext(0), [], []) == []
        assert stanley.make_spaces(RingContext(2, {1}), [], []) == []
        for case in range(300):
            n = case % 5
            inverted = frozenset() if case % 2 else None
            ctx = RingContext(n, frozenset(i for i in range(n) if rng.random() < 0.4)
                              if inverted is None else inverted)
            pool = []
            for _ in range(3):
                zminus = frozenset(i for i in ctx.inverted if rng.random() < 0.5)
                pool.append((frozenset(i for i in range(n)
                                       if i not in zminus and rng.random() < 0.5), zminus))
            count = rng.randint(0, 12)
            roots = [tuple(rng.randint(-3 if i in ctx.inverted else 0, 3) for i in range(n))
                     for _ in range(count)]
            zs = [rng.choice(pool) for _ in range(count)]
            expected = _outcome(lambda: _one_by_one(ctx, roots, zs))
            assert isinstance(expected, list)
            assert _outcome(lambda: stanley.make_spaces(ctx, roots, zs)) == expected

    def test_bad_spaces_raise_as_alone(self):
        """Each defect, alone at any place or after another defect in
        either order, raises what StanleySpace raises for the first bad
        space; lists, bools, int and frozenset subclasses and sets are
        normalized or kept as StanleySpace does."""
        ctx = RingContext(3, frozenset({2}))
        roots = [(0, 0, 0), (1, 2, -1), (0, 1, 0), (2, 0, -3), (1, 1, 1)]
        z1, z2 = (frozenset({0}), frozenset({2})), (frozenset({0, 1}), frozenset())
        zs = [z1, z2, z1, z2, z1]
        root_defects = {
            "long": lambda r: r + (0,),
            "short": lambda r: r[:2],
            "list": list,
            "tuple subclass": lambda r: type("T", (tuple,), {})(r),
            "bool": lambda r: (True,) + r[1:],
            "int subclass": lambda r: (_Int(2),) + r[1:],
            "float": lambda r: (1.0,) + r[1:],
            "string": lambda r: r[:1] + ("a",) + r[2:],
            "negative plain": lambda r: r[:1] + (-1,) + r[2:],
            "negative inverted": lambda r: r[:2] + (-5,),
        }
        z_defects = {
            "overlap": lambda z: (z[0] | {2}, z[1] | {2}),
            "inverse outside": lambda z: (z[0] - {1}, frozenset({1})),
            "index too large": lambda z: (z[0] | {3}, z[1]),
            "negative index": lambda z: (z[0] | {-1}, z[1]),
            "frozenset subclass": lambda z: (_FrozenSet(z[0]), _FrozenSet(z[1])),
            "set": lambda z: (set(z[0]), z[1]),
        }
        defects = [(0, f) for f in root_defects.values()] + [(1, f) for f in z_defects.values()]
        messages = set()

        def check(changes):
            rs, zz = list(roots), list(zs)
            for k, (field, defect) in changes:
                if field == 0:
                    rs[k] = defect(rs[k])
                else:
                    zz[k] = defect(zz[k])
            expected = _outcome(lambda: _one_by_one(ctx, rs, zz))
            assert _outcome(lambda: stanley.make_spaces(ctx, rs, zz)) == expected
            if isinstance(expected, tuple):
                messages.add(expected[1])

        for defect in defects:
            for k in range(len(roots)):
                check([(k, defect)])
        for first in defects:
            for second in defects:
                check([(1, first), (3, second)])
        assert messages == {
            "exponent vector has length 4, expected 3",
            "exponent vector has length 2, expected 3",
            "exponent 1.0 is not an integer",
            "exponent 'a' is not an integer",
            "negative exponent on non-inverted variable 2",
            "a variable and its inverse cannot both be admissible",
            "inverse variable outside the inverted set",
            "admissible index out of range",
        }


class TestVerify:
    def test_paper_quotient(self):
        ctx = RingContext(3)
        I = ring.ideal(ctx, (0, 1, 0))
        J = ring.ideal(ctx, (1, 1, 0), (0, 1, 1))
        D = StanleyDecomposition(ctx, (space(ctx, (0, 1, 0), zplus={1}),))
        assert stanley.verify_decomposition(D, I, J).valid

    def test_double_cover_witness(self):
        ctx = RingContext(1)
        D = StanleyDecomposition(
            ctx, (space(ctx, (0,), zplus={0}), space(ctx, (1,), zplus={0}))
        )
        report = stanley.verify_decomposition(
            D, ring.ideal(ctx, (0,)), MonomialIdeal(ctx)
        )
        assert not report.valid
        assert report.failure == "disjointness"
        assert report.witness == (1,)

    def test_coverage_failure(self):
        ctx = RingContext(2)
        I = ring.ideal(ctx, (1, 0), (0, 1))
        D = StanleyDecomposition(ctx, (space(ctx, (1, 0), zplus={0, 1}),))
        report = stanley.verify_decomposition(D, I, MonomialIdeal(ctx))
        assert report.failure == "coverage"
        assert report.witness == (0, 1)

    def test_containment_failure(self):
        ctx = RingContext(2)
        I = ring.ideal(ctx, (1, 0))
        D = StanleyDecomposition(ctx, (space(ctx, (0, 0), zplus={0, 1}),))
        report = stanley.verify_decomposition(D, I, MonomialIdeal(ctx))
        assert report.failure == "containment"


def _broken_variants(D, I, J, rng):
    """D itself and copies of D with one space dropped, duplicated,
    shifted, or joined by a space rooted outside I\\J."""
    ctx = D.context
    spaces = list(D.spaces)
    variants = [spaces]
    k = rng.randrange(len(spaces))
    variants.append(spaces[:k] + spaces[k + 1:])
    variants.append(spaces + [spaces[k]])
    s = spaces[k]
    i = rng.randrange(ctx.n)
    step = rng.choice((-1, 1)) if i in ctx.inverted else 1
    root = tuple(e + step * (j == i) for j, e in enumerate(s.root))
    variants.append(spaces[:k] + [StanleySpace(ctx, root, s.zplus, s.zminus)]
                    + spaces[k + 1:])
    B = stanley.clamp_bound(D, I, J)
    outside = [m for m in ring.box_monomials(ctx, B)
               if not (ring.contains(I, m) and not ring.contains(J, m))]
    if outside:
        variants.append(spaces + [StanleySpace(ctx, rng.choice(outside))])
    return [StanleyDecomposition(ctx, tuple(v)) for v in variants]


class TestVerifierParity:
    def test_matches_enumeration(self):
        """Same report, witness included, as the box enumeration on valid
        and broken decompositions of random quotients."""
        rng = random.Random(17)
        kinds = set()
        for case in range(160):
            n = 1 + case % 4
            inverted = frozenset() if case % 8 < 4 else None
            ctx, I, J = random_quotient(
                rng, n=n, inverted=inverted, max_exp=2 if n < 4 else 1
            )
            if case % 3:
                D = singleton_decomposition(I, J)
            else:
                D = decomposition_from_partition(
                    I, J, greedy_partition(contracted_poset(I, J), rng)
                )
            for E in _broken_variants(D, I, J, rng):
                got = stanley.verify_decomposition(E, I, J)
                assert got == reference_verify.verify_decomposition(E, I, J), (I, J, E)
                kinds.add(got.failure)
        assert kinds == {"", "coverage", "disjointness", "containment"}

    def test_axis_cells_match_the_cell_scan(self):
        """The prefix-XOR cells equal the per-cell scan, also for bounds the
        verifier never makes: lo < low, hi + 1 > high, runs wholly outside
        [low, high], and None on either side."""
        rng = random.Random(23)
        ends = (None, -9, -5, -4, -1, 0, 2, 5, 6, 9)
        cases = set()
        for _ in range(300):
            low, high = -4, 5
            bounds = []
            for _ in range(rng.randint(0, 8)):
                lo, hi = rng.choice(ends), rng.choice(ends)
                if lo is not None and hi is not None and lo > hi:
                    lo, hi = hi, lo
                bounds.append((lo, hi))
                cases.add("lo < low" if lo is not None and lo < low else "")
                cases.add("hi + 1 > high" if hi is not None and hi + 1 > high else "")
                cases.add("None" if None in (lo, hi) else "")
            assert stanley._axis_cells(bounds, low, high) == \
                reference_verify.axis_cells(bounds, low, high), bounds
        assert cases == {"", "lo < low", "hi + 1 > high", "None"}


class TestLocalize:
    def test_maximal_ideal_six_spaces(self):
        ctx = RingContext(3)
        I = ring.ideal(ctx, (1, 0, 0), (0, 1, 0), (0, 0, 1))
        J = MonomialIdeal(ctx)
        D = StanleyDecomposition(
            ctx,
            (
                space(ctx, (1, 0, 0), zplus={0, 1}),
                space(ctx, (0, 1, 0), zplus={1, 2}),
                space(ctx, (0, 0, 1), zplus={0, 2}),
                space(ctx, (1, 1, 1), zplus={0, 1, 2}),
            ),
        )
        res = stanley.localize_decomposition(D, I, J, {0})
        ctxf = RingContext(3, frozenset({0}))
        expected = StanleyDecomposition(
            ctxf,
            (
                space(ctxf, (1, 0, 0), zplus={0, 1}),
                space(ctxf, (0, 0, 0), zplus={1}, zminus={0}),
                space(ctxf, (0, 0, 1), zplus={0, 2}),
                space(ctxf, (-1, 0, 1), zplus={2}, zminus={0}),
                space(ctxf, (1, 1, 1), zplus={0, 1, 2}),
                space(ctxf, (0, 1, 1), zplus={1, 2}, zminus={0}),
            ),
        )
        assert res.decomposition.same_as(expected)
        assert res.dropped == (1,)
        assert stanley.sdepth_of(res.decomposition) == 2
        assert stanley.verify_decomposition(
            res.decomposition, res.localized_I, res.localized_J
        ).valid

    def test_principal_quotient(self):
        ctx = RingContext(3)
        I = ring.ideal(ctx, (0, 1, 0))
        J = ring.ideal(ctx, (1, 1, 0), (0, 1, 1))
        D = StanleyDecomposition(ctx, (space(ctx, (0, 1, 0), zplus={1}),))
        res = stanley.localize_decomposition(D, I, J, {1})
        ctxf = RingContext(3, frozenset({1}))
        expected = StanleyDecomposition(
            ctxf,
            (
                space(ctxf, (0, 1, 0), zplus={1}),
                space(ctxf, (0, 0, 0), zminus={1}),
            ),
        )
        assert res.decomposition.same_as(expected)
        assert stanley.sdepth_of(res.decomposition) == 1

    def test_strict_increase_example(self):
        ctx = RingContext(2)
        I = ring.ideal(ctx, (2, 0), (1, 1))
        J = ring.ideal(ctx, (3, 1), (2, 2))
        D = StanleyDecomposition(
            ctx,
            (
                space(ctx, (1, 1), zplus={1}),
                space(ctx, (2, 0), zplus={0}),
                space(ctx, (2, 1)),
            ),
        )
        assert stanley.sdepth_of(D) == 0
        res = stanley.localize_decomposition(D, I, J, {0})
        ctxf = RingContext(2, frozenset({0}))
        expected = StanleyDecomposition(
            ctxf,
            (
                space(ctxf, (2, 0), zplus={0}),
                space(ctxf, (1, 0), zminus={0}),
            ),
        )
        assert res.decomposition.same_as(expected)
        assert stanley.sdepth_of(res.decomposition) == 1

    def test_invalid_input_rejected(self):
        ctx = RingContext(2)
        I = ring.ideal(ctx, (1, 0))
        D = StanleyDecomposition(ctx, (space(ctx, (1, 0), zplus={0}),))
        with pytest.raises(VerificationError):
            stanley.localize_decomposition(D, I, MonomialIdeal(ctx), {0})

    def test_randomized_localizations_verify(self):
        rng = random.Random(7)
        for _ in range(25):
            ctx, I, J = polynomial_quotient(rng)
            D = solver.sdepth(I, J).witness
            A = frozenset(i for i in range(ctx.n) if rng.random() < 0.5)
            res = stanley.localize_decomposition(D, I, J, A)
            report = stanley.verify_decomposition(
                res.decomposition, res.localized_I, res.localized_J
            )
            assert report.valid, (I, J, A, report)


class TestAdjoin:
    def test_plain(self):
        ctx = RingContext(1)
        D = StanleyDecomposition(ctx, (space(ctx, (0,), zplus={0}),))
        D2 = stanley.adjoin_variable(D, laurent=False)
        assert [s.key() for s in D2.spaces] == [((0, 0), (0, 1), ())]

    def test_laurent(self):
        ctx = RingContext(1)
        D = StanleyDecomposition(ctx, (space(ctx, (0,), zplus={0}),))
        D2 = stanley.adjoin_variable(D, laurent=True)
        assert {s.key() for s in D2.spaces} == {
            ((0, 0), (0, 1), ()),
            ((0, -1), (0,), (1,)),
        }

    def test_sdepth_increases_by_one(self):
        rng = random.Random(11)
        for _ in range(20):
            ctx, I, J = polynomial_quotient(rng, n=2)
            D = solver.sdepth(I, J).witness
            for laurent in (False, True):
                D2 = stanley.adjoin_variable(D, laurent)
                assert stanley.sdepth_of(D2) == stanley.sdepth_of(D) + 1
                I2 = stanley.adjoin_ideal(I, laurent)
                J2 = stanley.adjoin_ideal(J, laurent)
                assert stanley.verify_decomposition(D2, I2, J2).valid

    def test_restrict_adjoined_roundtrip(self):
        rng = random.Random(13)
        for _ in range(10):
            ctx, I, J = polynomial_quotient(rng, n=2)
            D = solver.sdepth(I, J).witness
            D2 = stanley.adjoin_variable(D, laurent=True)
            back = stanley.restrict_adjoined(D2)
            assert stanley.verify_decomposition(back, I, J).valid


class TestSdepthOf:
    def test_canonical_dimension(self):
        ctx = RingContext(3, frozenset({0, 1}))
        D = stanley.canonical_sf_decomposition(ctx)
        assert stanley.sdepth_of(D) == 3

    def test_zero_minimum(self):
        ctx = RingContext(2)
        D = StanleyDecomposition(
            ctx,
            (
                space(ctx, (1, 1), zplus={1}),
                space(ctx, (2, 0), zplus={0}),
                space(ctx, (2, 1)),
            ),
        )
        assert stanley.sdepth_of(D) == 0

    def test_empty_rejected(self):
        D = StanleyDecomposition(RingContext(2), ())
        with pytest.raises(ZeroModuleError):
            stanley.sdepth_of(D)

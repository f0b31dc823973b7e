import random
from itertools import product

import pytest

import stanleydec
from stanleydec import parsing, ring, solver, stanley
from stanleydec.errors import (
    AnswerTooLargeError,
    BoxTooLargeError,
    ContextMismatchError,
    MalformedInputError,
    VerificationError,
    ZeroModuleError,
)
from stanleydec.ring import MonomialIdeal, RingContext
from stanleydec.stanley import StanleyDecomposition, StanleySpace

import reference_verify
from util import (
    adjoin_ideal,
    box_monomials,
    contracted_poset,
    decomposition_from_partition,
    greedy_partition,
    polynomial_quotient,
    random_quotient,
    restrict_adjoined,
    same_spaces,
    singleton_decomposition,
    space_key,
    spaces_key,
)


def space(ctx, root, zplus=(), zminus=()):
    return StanleySpace(ctx, root, frozenset(zplus), frozenset(zminus))


class TestRegion:
    """The lattice region of u*K[Z]: at least u_i on zplus, at most u_i on
    zminus, u_i elsewhere."""

    def test_plain_space(self):
        ctx = RingContext(2)
        s = space(ctx, (1, 0), zplus={0, 1})
        assert stanley.space_contains(s, (1, 0)) and stanley.space_contains(s, (5, 3))
        assert not stanley.space_contains(s, (0, 3))

    def test_fixed_negative_coordinate(self):
        ctx = RingContext(3, frozenset({2}))
        s = space(ctx, (1, 0, -1), zplus={1})
        assert stanley.space_contains(s, (1, 4, -1))
        assert not stanley.space_contains(s, (1, 4, -2))
        assert not stanley.space_contains(s, (1, 4, 0))
        assert not stanley.space_contains(s, (2, 4, -1))

    def test_inverse_direction(self):
        ctx = RingContext(3, frozenset({1, 2}))
        s = space(ctx, (0, -1, 0), zplus={0, 2}, zminus={1})
        assert stanley.space_contains(s, (3, -1, 2))
        assert stanley.space_contains(s, (0, -5, 0))
        assert not stanley.space_contains(s, (0, 0, 0))
        assert not stanley.space_contains(s, (0, -1, -1))


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
        for m in box_monomials(ctx, 3):
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
        assert set(map(space_key, D.spaces)) == expected

    def test_polynomial_ring(self):
        D = stanley.canonical_sf_decomposition(RingContext(1))
        assert list(map(space_key, D.spaces)) == [((0,), (0,), ())]

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

    def test_refusal_is_exported(self, monkeypatch):
        """The refusal is an AnswerTooLargeError under its top-level name."""
        monkeypatch.setattr(stanley, "MAX_SPACES", 3)
        with pytest.raises(stanleydec.AnswerTooLargeError, match="more than 3 Stanley"):
            stanley.canonical_sf_decomposition(RingContext(2, frozenset({0, 1})))


def _outcome(build):
    """The columns build returns, each root and Z with the types of the
    root, its entries, the pair and its two sets, or the type and message
    of the error it raises."""
    try:
        roots, zs = build()
    except MalformedInputError as exc:
        return type(exc), str(exc)
    return [(root, z, type(root), tuple(map(type, root)), type(z), tuple(map(type, z)))
            for root, z in zip(roots, zs)]


def _one_by_one(ctx, roots, zs):
    spaces = [StanleySpace(ctx, root, zplus, zminus) for root, (zplus, zminus) in zip(roots, zs)]
    return [s.root for s in spaces], [(s.zplus, s.zminus) for s in spaces]


def _parsed(ctx, roots, zs):
    """The columns parse_decomposition reads from the text of the spaces,
    each written with every entry of zplus and then of zminus, so that a
    Z holding both x_j and x_j^-1 is written as it is."""
    def name(i):
        return parsing.var_name(i, ctx)

    text = " + ".join(
        "%s*K[%s]" % (parsing.monomial_str(root, ctx), ", ".join(
            [name(i) for i in sorted(zplus)] + [name(i) + "^-1" for i in sorted(zminus)]))
        for root, (zplus, zminus) in zip(roots, zs))
    D = parsing.parse_decomposition(text, ctx)
    return D.roots, D.zs


class TestForeignSpace:
    def test_decomposition_refuses_a_space_of_another_ring(self):
        ctx = RingContext(2)
        other = RingContext(2, frozenset({0}))
        with pytest.raises(ContextMismatchError, match="space context differs"):
            StanleyDecomposition(ctx, (space(ctx, (0, 0)), space(other, (-1, 0), zminus={0})))

    def test_verifier_refuses_ideals_of_another_ring(self):
        ctx = RingContext(1)
        other = RingContext(1, frozenset({0}))
        D = StanleyDecomposition(ctx, (space(ctx, (0,), zplus={0}),))
        with pytest.raises(ContextMismatchError, match="must share a ring"):
            stanley.verify_decomposition(D, ring.ideal(other, (0,)), MonomialIdeal(other))


class TestMakeSpaces:
    """The columns of a decomposition as parse_decomposition reads them
    from text, against the fields of StanleySpace built one by one: the
    same roots and Z with the same types, or the error of the first bad
    space."""

    def test_valid_spaces_match(self):
        rng = random.Random(29)
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
            count = rng.randint(1, 12)
            roots = [tuple(rng.randint(-3 if i in ctx.inverted else 0, 3) for i in range(n))
                     for _ in range(count)]
            zs = [rng.choice(pool) for _ in range(count)]
            expected = _outcome(lambda: _one_by_one(ctx, roots, zs))
            assert isinstance(expected, list)
            assert _outcome(lambda: _parsed(ctx, roots, zs)) == expected

    def test_bulk_spaces_are_frozen_and_equal(self):
        """The spaces a decomposition builds from its columns when they
        are read are frozen, and equal and hash-equal to the spaces the
        constructor builds."""
        ctx = RingContext(3, frozenset({2}))
        roots = ((0, 0, 0), (1, 2, -1), (0, 1, 5), (2, 0, -3))
        zs = ((frozenset({0}), frozenset({2})), (frozenset({0, 1}), frozenset())) * 2
        D = StanleyDecomposition._of_columns(ctx, roots, zs)
        bulk = list(D.spaces)
        alone = [StanleySpace(ctx, root, zplus, zminus) for root, (zplus, zminus) in zip(roots, zs)]
        assert D.spaces is D.spaces
        assert bulk == alone
        assert list(map(hash, bulk)) == list(map(hash, alone))
        assert len(set(bulk + alone)) == len(roots)
        for s in bulk:
            for name, value in (("root", (9, 9, 9)), ("zplus", frozenset()),
                                ("zminus", frozenset()), ("context", RingContext(3))):
                with pytest.raises(AttributeError):
                    setattr(s, name, value)
        assert [(s.context, s.root, s.zplus, s.zminus) for s in bulk] == [
            (ctx, root, zplus, zminus) for root, (zplus, zminus) in zip(roots, zs)]

    def test_bad_spaces_raise_as_alone(self):
        """Each defect that parsed text can carry, alone at any place, or
        with another defect after it or in the same space, in either
        order, raises what StanleySpace raises for the first bad space; a
        negative exponent on an inverted axis is no defect."""
        ctx = RingContext(3, frozenset({2}))
        roots = [(0, 0, 0), (1, 2, -1), (0, 1, 0), (2, 0, -3), (1, 1, 1)]
        z1, z2 = (frozenset({0}), frozenset({2})), (frozenset({0, 1}), frozenset())
        zs = [z1, z2, z1, z2, z1]
        root_defects = {
            "negative plain": lambda r: r[:1] + (-1,) + r[2:],
            "negative inverted": lambda r: r[:2] + (-5,),
        }
        z_defects = {
            "overlap": lambda z: (z[0] | {2}, z[1] | {2}),
            "inverse outside": lambda z: (z[0] - {1}, frozenset({1})),
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
            assert _outcome(lambda: _parsed(ctx, rs, zz)) == expected
            if isinstance(expected, tuple):
                messages.add(expected[1])

        for defect in defects:
            for k in range(len(roots)):
                check([(k, defect)])
        for first in defects:
            for second in defects:
                check([(1, first), (3, second)])
                check([(2, first), (2, second)])
        assert messages == {
            "negative exponent on non-inverted variable 2",
            "a variable and its inverse cannot both be admissible",
            "inverse variable outside the inverted set",
        }

    def test_indices_outside_the_ring(self):
        """Indices that no text can give, checked by StanleySpace alone."""
        ctx = RingContext(3, frozenset({2}))
        for zplus in ({0, 3}, {-1}):
            with pytest.raises(MalformedInputError, match="admissible index out of range"):
                space(ctx, (0, 0, 0), zplus)


class TestColumns:
    def test_columns_equal_spaces(self):
        """A decomposition made from valid columns equals the one made
        from its spaces, hashes, keys and compares as it, and builds the
        same spaces when they are read: a bool root entry, inverted axes,
        n = 0, no spaces at all, and the witnesses of random quotients."""
        ctx = RingContext(3, frozenset({2}))
        cases = [(ctx, [space(ctx, (True, 0, -1), {0}, {2}), space(ctx, (0, 2, 3), {0, 1}),
                        space(ctx, (1, 1, -4), (), {2})]),
                 (RingContext(0), [space(RingContext(0), ())]),
                 (ctx, [])]
        rng = random.Random(37)
        for _ in range(30):
            c, I, J = random_quotient(rng)
            cases.append((c, list(solver.sdepth(I, J).witness.spaces)))
        for c, spaces in cases:
            D = StanleyDecomposition(c, spaces)
            C = StanleyDecomposition._of_columns(c, tuple(s.root for s in spaces),
                                                 tuple((s.zplus, s.zminus) for s in spaces))
            assert C == D and hash(C) == hash(D)
            assert spaces_key(C) == spaces_key(D) == tuple(sorted(map(space_key, spaces)))
            assert same_spaces(C, D) and repr(C) == repr(D)
            assert type(C.spaces) is tuple and C.spaces == D.spaces == tuple(spaces)
            assert [tuple(map(type, s.root)) for s in C.spaces] == [
                tuple(map(type, s.root)) for s in spaces]
            assert type(C.roots) is type(C.zs) is tuple
        spaces = cases[0][1]
        assert StanleyDecomposition(ctx, spaces[:2]) != StanleyDecomposition(ctx, spaces)
        assert StanleyDecomposition(ctx, spaces[::-1]) != StanleyDecomposition(ctx, spaces)


class TestBuiltColumns:
    """The lift, the localization, the canonical decomposition and the
    adjoined variable build their columns from valid spaces and do not
    check them: the columns they build are tuples of roots, each a tuple
    of n ints, and of pairs of frozensets, and their spaces, built with
    StanleySpace's checks, are the columns."""

    @staticmethod
    def assert_valid(D):
        assert type(D.roots) is type(D.zs) is tuple
        n = D.context.n
        assert all(type(root) is tuple and len(root) == n and all(isinstance(e, int) for e in root)
                   for root in D.roots)
        assert all(type(z) is tuple and len(z) == 2 and all(type(f) is frozenset for f in z)
                   for z in D.zs)
        assert tuple(s.root for s in D.spaces) == D.roots
        assert tuple((s.zplus, s.zminus) for s in D.spaces) == D.zs

    def test_random_quotients(self):
        """With and without inverted axes; each localization also from a
        D built through the API with its 0 and 1 root entries as bools."""
        rng = random.Random(41)
        localized = 0
        for case in range(160):
            ctx, I, J = random_quotient(rng, n=case % 4 + 1,
                                        inverted=frozenset() if case % 2 else None)
            W = solver.sdepth(I, J).witness
            self.assert_valid(W)
            self.assert_valid(stanley.canonical_sf_decomposition(ctx))
            self.assert_valid(stanley.adjoin_variable(W, laurent=bool(case % 3)))
            if ctx.inverted:
                continue
            A = frozenset(i for i in range(ctx.n) if rng.random() < 0.6)
            bools = StanleyDecomposition(ctx, [
                space(ctx, tuple(bool(e) if e in (0, 1) else e for e in s.root), s.zplus)
                for s in W.spaces])
            for D in (W, bools):
                Df = stanley.localize_decomposition(D, I, J, A).decomposition
                self.assert_valid(Df)
                localized += bool(A and Df.roots)
        assert localized > 20
        self.assert_valid(stanley.canonical_sf_decomposition(RingContext(0)))


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

    def test_space_listed_twice(self):
        """A decomposition that lists one of its spaces twice fails on
        disjointness at the same witness as the box enumeration, whichever
        space is repeated."""
        for ctx, I, J in ((RingContext(2), "(1)", "(x^3, y^2)"),
                          (RingContext(2, frozenset({1})), "(x, y)", "(x^2)")):
            I, J = parsing.parse_ideal(I, ctx), parsing.parse_ideal(J, ctx)
            D = solver.sdepth(I, J).witness
            for k, s in enumerate(D.spaces):
                E = StanleyDecomposition(ctx, D.spaces[:k + 1] + (s,) + D.spaces[k + 1:])
                report = stanley.verify_decomposition(E, I, J)
                assert report.failure == "disjointness"
                assert report == reference_verify.verify_decomposition(E, I, J)

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
    outside = [m for m in box_monomials(ctx, B)
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

    @pytest.mark.parametrize("ring_spec, I, J, D, failure", [
        # n = 0: the grid is one cell, ()
        ("n=0", "(1)", "()", "K", ""),
        ("n=0", "(1)", "()", "K + K", "disjointness"),
        ("n=0", "(1)", "(1)", "K", "containment"),
        ("n=0", "(1)", "()", "", "coverage"),
        ("n=0", "(1)", "(1)", "", ""),
        # every variable inverted: no generator cuts an axis
        ("n=2 invert={1,2}", "(1)", "()",
         "K[x, y] + x^-1*K[x^-1, y] + y^-1*K[x, y^-1] + x^-1*y^-1*K[x^-1, y^-1]", ""),
        ("n=2 invert={1,2}", "(1)", "()",
         "K[x, y] + x^-1*K[x^-1, y] + y^-1*K[x, y^-1]", "coverage"),
        ("n=2 invert={1,2}", "(1)", "()",
         "K[x, y] + x^-1*K[x^-1, y] + y^-1*K[x, y^-1] + x^-1*y^-1*K[x^-1, y^-1]"
         " + x^-1*K[x^-1, y]", "disjointness"),
        ("n=2 invert={1,2}", "(1)", "()", "x^2*K[x^-1, y] + x^3*K[x, y]"
         " + x^2*y^-1*K[x^-1, y^-1] + x^3*y^-1*K[x, y^-1]", ""),
        ("n=2 invert={1,2}", "(1)", "()", "x^2*K[x^-1, y] + x^3*K[x, y]", "coverage"),
        ("n=2 invert={1,2}", "(1)", "(1)", "x^-2*y^3*K", "containment"),
        # duplicate spaces, the first copy or a later one
        ("n=2", "(x, y)", "(x^2, y^2)", "x*K + y*K + x*y*K + x*K", "disjointness"),
        ("n=2", "(x, y)", "(x^2, y^2)", "x*y*K + x*K + x*y*K + y*K", "disjointness"),
        ("n=2 invert={2}", "(x)", "()", "x*K[x, y] + x*y^-1*K[x, y^-1] + x*K[x, y]",
         "disjointness"),
        # spaces that reach the top cell on every axis
        ("n=2", "(1)", "()", "K[x, y]", ""),
        ("n=2", "(x, y)", "()", "x*K[x, y] + y*K[y]", ""),
        ("n=2", "(x, y)", "()", "x*K[x, y] + y*K[x, y]", "disjointness"),
        ("n=3 invert={3}", "(1)", "()", "z^-1*K[x, y, z^-1] + K[x, y, z]", ""),
        ("n=2", "(1)", "(x^2)", "K[y] + x*K[y] + x^5*K[y]", "containment"),
        ("n=2", "(1)", "(x^2)", "K[y] + x*K[x, y]", "containment"),
    ])
    def test_grid_edges(self, ring_spec, I, J, D, failure):
        """The enumeration's report on grids the random cases may miss: no
        axis, every axis inverted, a space listed twice and spaces whose
        cells reach the last cut of every axis."""
        ctx = parsing.parse_ring(ring_spec)
        I, J = parsing.parse_ideal(I, ctx), parsing.parse_ideal(J, ctx)
        D = parsing.parse_decomposition(D, ctx) if D else StanleyDecomposition(ctx, ())
        report = stanley.verify_decomposition(D, I, J)
        assert report == reference_verify.verify_decomposition(D, I, J)
        assert report.failure == failure


class TestVerificationGrid:
    def test_grid_of_two_to_the_twenty_cells(self):
        """(1)/(x1, ..., x20) is K: each axis is cut at 0 and 1, so the grid
        has 2^20 cells.  K is its decomposition, and x1*K misses the
        monomial 1."""
        ctx = RingContext(20)
        I = parsing.parse_ideal("(1)", ctx)
        J = parsing.parse_ideal("(%s)" % ", ".join("x%d" % i for i in range(1, 21)), ctx)
        report = stanley.verify_decomposition(parsing.parse_decomposition("K", ctx), I, J)
        assert report == (True, "", None, 2)
        report = stanley.verify_decomposition(parsing.parse_decomposition("x1*K", ctx), I, J)
        assert report == (False, "coverage", (0,) * 20, 2)

    def test_grid_past_the_cap_is_refused(self, monkeypatch):
        """The grid's cells are counted from the cuts before any mask is
        built: 3^3 = 27 cells pass a cap of 27 and are refused by a cap of
        26, by verify and by localize, which verifies its input."""
        ctx = RingContext(3)
        I = parsing.parse_ideal("(1)", ctx)
        J = parsing.parse_ideal("(x^2, y^2, z^2)", ctx)
        D = solver.sdepth(I, J).witness
        monkeypatch.setattr(stanley, "MAX_GRID_CELLS", 27)
        assert stanley.verify_decomposition(D, I, J).valid
        monkeypatch.setattr(stanley, "MAX_GRID_CELLS", 26)
        monkeypatch.setattr(stanley, "Box", None)      # no mask may be built
        for check in (lambda: stanley.verify_decomposition(D, I, J),
                      lambda: stanley.localize_decomposition(D, I, J, {0})):
            with pytest.raises(BoxTooLargeError, match="more than 26 cells"):
                check()


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
        assert same_spaces(res.decomposition, expected)
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
        assert same_spaces(res.decomposition, expected)
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
        assert same_spaces(res.decomposition, expected)
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
        assert list(map(space_key, D2.spaces)) == [((0, 0), (0, 1), ())]

    def test_laurent(self):
        ctx = RingContext(1)
        D = StanleyDecomposition(ctx, (space(ctx, (0,), zplus={0}),))
        D2 = stanley.adjoin_variable(D, laurent=True)
        assert set(map(space_key, D2.spaces)) == {
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
                I2 = adjoin_ideal(I, laurent)
                J2 = adjoin_ideal(J, laurent)
                assert stanley.verify_decomposition(D2, I2, J2).valid

    def test_restrict_adjoined_roundtrip(self):
        rng = random.Random(13)
        for _ in range(10):
            ctx, I, J = polynomial_quotient(rng, n=2)
            D = solver.sdepth(I, J).witness
            D2 = stanley.adjoin_variable(D, laurent=True)
            back = restrict_adjoined(D2)
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

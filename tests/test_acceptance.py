"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 2-5 record every (I, J, decompositions) instance they touch so
that the later oracle criteria (6 and 7) can sweep over all of them.
"""

import random
from contextlib import contextmanager
from itertools import product

from stanleydec import filtration, hilbert, ring, solver, stanley
from stanleydec.ring import MonomialIdeal, RingContext
from stanleydec.stanley import StanleyDecomposition, StanleySpace

from util import (
    adjoin_ideal,
    all_decomposition_variants,
    box_monomials,
    localize_pair,
    mul,
    polynomial_quotient,
    random_quotient,
    same_spaces,
    spaces_key,
)

RECORDED = []   # (I, J, [decompositions]) from criteria 2-5


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print("criterion %d (%s): FAIL" % (num, label))
        raise
    print("criterion %d (%s): PASS" % (num, label))


def record(I, J, *decs):
    RECORDED.append((I, J, list(decs)))


def space(ctx, root, zplus=(), zminus=()):
    return StanleySpace(ctx, root, frozenset(zplus), frozenset(zminus))


def test_criterion_1_canonical_decomposition():
    with criterion(1, "canonical decomposition of S_f"):
        for bits in product((False, True), repeat=3):
            A = frozenset(i for i in range(3) if bits[i])
            ctx = RingContext(3, A)
            D = stanley.canonical_sf_decomposition(ctx)
            assert len(D.spaces) == 2 ** len(A)
            assert all(s.dimension == 3 for s in D.spaces)
            assert stanley.sdepth_of(D) == 3
            S = ring.ideal(ctx, (0, 0, 0))
            assert stanley.verify_decomposition(D, S, MonomialIdeal(ctx)).valid


def test_criterion_2_paper_reproductions():
    with criterion(2, "exact paper example reproductions"):
        # (a) the maximal ideal (x, y, z)
        ctx = RingContext(3)
        I = ring.ideal(ctx, (1, 0, 0), (0, 1, 0), (0, 0, 1))
        J = MonomialIdeal(ctx)
        res = solver.sdepth(I, J)
        assert res.value == 2
        record(I, J, res.witness)
        D = StanleyDecomposition(
            ctx,
            (
                space(ctx, (1, 0, 0), zplus={0, 1}),
                space(ctx, (0, 1, 0), zplus={1, 2}),
                space(ctx, (0, 0, 1), zplus={0, 2}),
                space(ctx, (1, 1, 1), zplus={0, 1, 2}),
            ),
        )
        loc = stanley.localize_decomposition(D, I, J, {0})
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
        assert same_spaces(loc.decomposition, expected)
        assert stanley.sdepth_of(loc.decomposition) == 2
        resf = solver.sdepth(loc.localized_I, loc.localized_J)
        assert resf.value == 3
        record(loc.localized_I, loc.localized_J, loc.decomposition, resf.witness)

        # (b) y K[y] modulo (xy, yz), localized at y
        I = ring.ideal(ctx, (0, 1, 0))
        J = ring.ideal(ctx, (1, 1, 0), (0, 1, 1))
        D = StanleyDecomposition(ctx, (space(ctx, (0, 1, 0), zplus={1}),))
        assert stanley.sdepth_of(D) == 1
        loc = stanley.localize_decomposition(D, I, J, {1})
        ctxf = RingContext(3, frozenset({1}))
        expected = StanleyDecomposition(
            ctxf,
            (
                space(ctxf, (0, 1, 0), zplus={1}),
                space(ctxf, (0, 0, 0), zminus={1}),
            ),
        )
        assert same_spaces(loc.decomposition, expected)
        assert stanley.sdepth_of(loc.decomposition) == 1
        record(I, J, D)
        record(loc.localized_I, loc.localized_J, loc.decomposition)

        # (c) an sdepth-0 quotient whose localization reaches sdepth 1
        ctx2 = RingContext(2)
        I = ring.ideal(ctx2, (2, 0), (1, 1))
        J = ring.ideal(ctx2, (3, 1), (2, 2))
        D = StanleyDecomposition(
            ctx2,
            (
                space(ctx2, (1, 1), zplus={1}),
                space(ctx2, (2, 0), zplus={0}),
                space(ctx2, (2, 1)),
            ),
        )
        assert stanley.sdepth_of(D) == 0
        loc = stanley.localize_decomposition(D, I, J, {0})
        ctxf = RingContext(2, frozenset({0}))
        expected = StanleyDecomposition(
            ctxf,
            (
                space(ctxf, (2, 0), zplus={0}),
                space(ctxf, (1, 0), zminus={0}),
            ),
        )
        assert same_spaces(loc.decomposition, expected)
        assert stanley.sdepth_of(loc.decomposition) == 1
        record(I, J, D)
        record(loc.localized_I, loc.localized_J, loc.decomposition)

        # (d) (x, y^2)/(x^2) in K[x, y, z^(+-1)]
        ctx3 = RingContext(3, frozenset({2}))
        I = ring.ideal(ctx3, (1, 0, 0), (0, 2, 0))
        J = ring.ideal(ctx3, (2, 0, 0))
        D = StanleyDecomposition(
            ctx3,
            (
                space(ctx3, (1, 0, 0), zplus={1, 2}),
                space(ctx3, (1, 0, -1), zplus={1}),
                space(ctx3, (1, 0, -2), zplus={1}, zminus={2}),
                space(ctx3, (0, 2, 0), zplus={1, 2}),
                space(ctx3, (0, 2, -1), zplus={1}, zminus={2}),
            ),
        )
        h = hilbert.series_of_decomposition(D)
        assert (h.numerator, h.pole) == ((0, 1, 2, 1), 2)
        assert hilbert.count_maximal_spaces(h) == 4
        record(I, J, D)


def test_criterion_3_localization_inequality():
    with criterion(3, "sdepth never drops under localization, 200 instances"):
        rng = random.Random(101)
        checked = 0
        while checked < 200:
            ctx, I, J = polynomial_quotient(rng)
            A = frozenset(i for i in range(ctx.n) if rng.random() < 0.5)
            If, Jf = localize_pair(I, J, A)
            if If == Jf:
                continue
            base = solver.sdepth(I, J)
            loc = solver.sdepth(If, Jf)
            assert base.value <= loc.value, (I, J, A)
            record(I, J, base.witness)
            record(If, Jf, loc.witness)
            checked += 1


def test_criterion_4_adjoined_variable():
    with criterion(4, "adjoining t raises sdepth by exactly one, 50 instances"):
        rng = random.Random(103)
        for _ in range(50):
            ctx, I, J = polynomial_quotient(rng, n=2)
            base = solver.sdepth(I, J)
            record(I, J, base.witness)
            for laurent in (False, True):
                I2 = adjoin_ideal(I, laurent)
                J2 = adjoin_ideal(J, laurent)
                res = solver.sdepth(I2, J2)
                assert res.value == base.value + 1, (I, J, laurent)
                record(I2, J2, res.witness)


def test_criterion_5_series_invariance():
    with criterion(5, "Hilbert series invariance across decompositions, 20 instances"):
        rng = random.Random(107)
        done = 0
        while done < 20:
            ctx, I, J = random_quotient(rng)
            variants = all_decomposition_variants(I, J, rng)
            if len({spaces_key(D) for D in variants}) < 3:
                continue
            series = {hilbert.series_of_decomposition(D) for D in variants}
            assert len(series) == 1, (I, J)
            p1 = {hilbert.count_maximal_spaces(hilbert.series_of_decomposition(D))
                  for D in variants}
            assert len(p1) == 1, (I, J)
            record(I, J, *variants)
            done += 1


def test_criterion_6_hilbert_oracle():
    with criterion(6, "series expansion matches the counting oracle, d <= 10"):
        assert RECORDED, "criteria 2-5 must run first"
        count_cache = {}
        for I, J, decs in RECORDED:
            key = (I.context, I.generators, J.generators)
            if key not in count_cache:
                count_cache[key] = [
                    hilbert.hilbert_count(I, J, d) for d in range(11)
                ]
            expected = count_cache[key]
            for D in decs:
                h = hilbert.series_of_decomposition(D)
                got = hilbert.expand(h, 10)
                assert got == expected, (I, J, D)


def test_criterion_7_space_series():
    with criterion(7, "Q(1) = 1 everywhere; closed form matches recursion"):
        assert RECORDED, "criteria 2-5 must run first"
        for _, _, decs in RECORDED:
            for D in decs:
                for s in D.spaces:
                    h = hilbert.series_of_space(s)
                    assert hilbert.count_maximal_spaces(h) == 1, s
                    assert h.pole == s.dimension, s
        rng = random.Random(109)
        for _ in range(100):
            n = rng.randint(1, 4)
            A = frozenset(rng.sample(range(n), rng.randint(0, n)))
            ctx = RingContext(n, A)
            u = tuple(
                rng.randint(-3, 3) if i in A else rng.randint(0, 3)
                for i in range(n)
            )
            closed = hilbert.series_of_laurent_ring(u, A, n - len(A))
            u0 = ring.strip_units(u, ctx)
            total = hilbert.ZERO_SERIES
            for s in stanley.canonical_sf_decomposition(ctx).spaces:
                shifted = space(ctx, mul(s.root, u0), s.zplus, s.zminus)
                total = total + hilbert.series_of_space(shifted)
            assert closed == total, (u, A)


def test_criterion_8_fdepth():
    with criterion(8, "fdepth never drops under localization, 50 instances"):
        rng = random.Random(113)
        checked = 0
        while checked < 50:
            ctx, I, J = polynomial_quotient(rng, n=2, max_exp=1)
            A = frozenset({rng.randrange(ctx.n)})
            If, Jf = localize_pair(I, J, A)
            if If == Jf:
                continue
            base = filtration.fdepth(I, J)
            loc = filtration.fdepth(If, Jf)
            if not (base.complete and loc.complete):
                continue
            assert base.value <= loc.value, (I, J, A)
            Ff = filtration.localize_filtration(base.witness, A)
            assert filtration.verify_filtration(Ff, If, Jf).valid, (I, J, A)
            checked += 1


def _naive_valid(D, I, J, bound):
    ok = True
    for m in box_monomials(D.context, bound):
        hits = sum(1 for s in D.spaces if stanley.space_contains(s, m))
        member = ring.in_quotient(I, J, m)
        if member != (hits == 1) or (not member and hits != 0):
            ok = False
            break
    return ok


def test_criterion_9_verifier_soundness():
    with criterion(9, "clamp-box verdicts match naive enlarged-box checks"):
        rng = random.Random(127)
        checked = 0
        while checked < 50:
            ctx, I, J = random_quotient(rng, max_exp=1)
            good = solver.sdepth(I, J).witness
            candidates = [good]
            if len(good.spaces) > 1:
                candidates.append(
                    StanleyDecomposition(ctx, good.spaces[:-1])
                )
            candidates.append(
                StanleyDecomposition(ctx, good.spaces + (good.spaces[0],))
            )
            s0 = good.spaces[0]
            bumped = StanleySpace(
                ctx,
                tuple(e + (i == 0) for i, e in enumerate(s0.root)),
                s0.zplus,
                s0.zminus,
            )
            candidates.append(
                StanleyDecomposition(ctx, (bumped,) + good.spaces[1:])
            )
            for D in candidates:
                report = stanley.verify_decomposition(D, I, J)
                naive = _naive_valid(D, I, J, stanley.clamp_bound(D, I, J) + 3)
                assert report.valid == naive, (I, J, D)
            checked += 1

"""Shared helpers for randomized test instances."""

import random
import sys
from contextlib import contextmanager
from itertools import product

from stanleydec import ring, solver
from stanleydec.errors import MalformedInputError
from stanleydec.ring import MonomialIdeal, RingContext
from stanleydec.stanley import StanleyDecomposition, StanleySpace


def mul(a, b):
    """Product of two monomials."""
    return tuple(x + y for x, y in zip(a, b))


def abs_degree(m):
    """Total absolute degree: sum of |exponent| over all coordinates."""
    return sum(abs(e) for e in m)


def ring_text(ctx):
    """The ring as --ring reads it, e.g. 'ring n=3 invert={1,3}'."""
    inv = ",".join(str(i + 1) for i in sorted(ctx.inverted))
    return "ring n=%d invert={%s}" % (ctx.n, inv)


def adjoin_ideal(I, laurent):
    """Extend an ideal by one fresh variable t (inverted iff laurent)."""
    ctx = I.context
    inverted = ctx.inverted | ({ctx.n} if laurent else frozenset())
    new_ctx = RingContext(ctx.n + 1, inverted)
    return MonomialIdeal(new_ctx, frozenset(g + (0,) for g in I.generators))


def is_unit(I):
    """Whether I is the unit ideal: in normal form, the one generated by 1."""
    return ring.one(I.context) in I.generators


def space_key(s):
    """A space as (root, sorted zplus, sorted zminus)."""
    return (s.root, tuple(sorted(s.zplus)), tuple(sorted(s.zminus)))


def spaces_key(D):
    """The spaces of D as a sorted tuple of space_key, the same for any
    order of the same spaces."""
    return tuple(sorted(map(space_key, D.spaces)))


def same_spaces(C, D):
    """Whether C and D have the same ring and the same spaces, in any order."""
    return C.context == D.context and spaces_key(C) == spaces_key(D)


def box_monomials(ctx, bound):
    """All monomials with |exponent| <= bound per coordinate (nonnegative on
    non-inverted coordinates), in lex order."""
    ranges = [
        range(-bound, bound + 1) if i in ctx.inverted else range(bound + 1)
        for i in range(ctx.n)
    ]
    return product(*ranges)


def random_quotient(rng, n=None, inverted=None, max_exp=2, max_gens=3):
    """A random pair J < I (strict) of monomial ideals, J built from
    multiples of generators of I so containment holds by construction."""
    while True:
        n_ = n if n is not None else rng.randint(1, 3)
        if inverted is None:
            A = frozenset(i for i in range(n_) if rng.random() < 0.35)
        else:
            A = frozenset(inverted)
        ctx = RingContext(n_, A)
        plain = ctx.plain

        def rand_gen(lo=0):
            g = [0] * n_
            for i in plain:
                g[i] = rng.randint(lo, max_exp)
            return tuple(g)

        I = MonomialIdeal(
            ctx, frozenset(rand_gen() for _ in range(rng.randint(1, max_gens)))
        )
        if I.is_zero:
            continue
        Jg = set()
        for g in I.generators:
            if rng.random() < 0.5:
                Jg.add(mul(g, rand_gen()))
        J = MonomialIdeal(ctx, frozenset(Jg))
        if I == J:
            continue
        return ctx, I, J


def polynomial_quotient(rng, n=None, max_exp=2):
    return random_quotient(rng, n=n, inverted=frozenset(), max_exp=max_exp)


def localize_pair(I, J, A):
    ctx = RingContext(I.context.n, frozenset(A))
    return ring.extend_to(I, ctx), ring.extend_to(J, ctx)


def singleton_partition(poset):
    """Every poset element as its own interval: always a valid partition."""
    return tuple((e, e) for e in poset.elements)


def greedy_partition(poset, rng):
    """Random valid interval partition: repeatedly take the lex-smallest
    uncovered element and a random feasible upper corner."""
    g = poset.bound
    n = poset.context.n
    elems = set(poset.elements)
    covered = set()
    intervals = []
    for b in poset.elements:
        if b in covered:
            continue
        feasible = []
        for c in product(*[range(b[i], g[i] + 1) for i in range(n)]):
            cells = list(product(*[range(b[i], c[i] + 1) for i in range(n)]))
            if all(x in elems and x not in covered for x in cells):
                feasible.append((c, cells))
        c, cells = feasible[rng.randrange(len(feasible))]
        covered.update(cells)
        intervals.append((b, c))
    return tuple(intervals)


def split_refinement(partition, poset):
    """Split every splittable interval once along its first wide axis."""
    out = []
    g = poset.bound
    for b, c in partition:
        axis = next((i for i in range(len(b)) if c[i] > b[i]), None)
        if axis is None:
            out.append((b, c))
            continue
        low_c = tuple(b[i] if i == axis else c[i] for i in range(len(b)))
        high_b = tuple(b[i] + 1 if i == axis else b[i] for i in range(len(b)))
        out.append((b, low_c))
        out.append((high_b, c))
    return tuple(out)


def contracted_poset(I, J):
    """The characteristic poset of the contraction of I/J."""
    return solver.build_characteristic_poset(ring.contraction(I), ring.contraction(J))


def decomposition_from_partition(I, J, partition):
    """Lift a partition of the contracted poset to a decomposition of I/J
    in its own (possibly localized) ring."""
    return solver._embed_and_invert(contracted_poset(I, J), partition, I.context)


def singleton_decomposition(I, J):
    """The decomposition of I/J with every poset element its own interval,
    found without search."""
    return decomposition_from_partition(I, J, singleton_partition(contracted_poset(I, J)))


def all_decomposition_variants(I, J, rng):
    """Several structurally different valid decompositions of I/J."""
    poset = contracted_poset(I, J)
    _, best = solver.max_interval_partition(poset)
    parts = [
        best,
        singleton_partition(poset),
        greedy_partition(poset, rng),
        split_refinement(best, poset),
    ]
    return [decomposition_from_partition(I, J, p) for p in parts]


@contextmanager
def recursion_headroom(frames):
    """Lower the recursion limit to the current stack depth plus frames,
    so that any search recursing once per step of a longer chain raises
    RecursionError."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def restrict_adjoined(D):
    """The inverse of the Laurent adjunction: intersect a decomposition of
    (I/J)[t, t^-1] back down to I/J by stripping t-powers from roots and
    removing t and t^-1 from every Z."""
    ctx = D.context
    t = ctx.n - 1
    if t not in ctx.inverted:
        raise MalformedInputError("last variable is not a Laurent adjunction")
    new_ctx = RingContext(ctx.n - 1, ctx.inverted - {t})
    spaces = []
    for s in D.spaces:
        a = s.root[t]
        if a > 0 and t not in s.zminus:
            continue   # the space misses the t-degree-zero slice
        if a < 0 and t not in s.zplus:
            continue
        spaces.append(
            StanleySpace(
                new_ctx,
                s.root[:t],
                frozenset(s.zplus - {t}),
                frozenset(s.zminus - {t}),
            )
        )
    return StanleyDecomposition(new_ctx, tuple(spaces))

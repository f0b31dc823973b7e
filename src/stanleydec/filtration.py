"""Prime filtrations of monomial subquotients and the fdepth invariant.

A prime filtration refines I/J into a chain of monomial ideals whose
successive quotients are shifted copies of S modulo a variable-generated
prime; fdepth is the best achievable minimum codimension over such chains.
The enumeration is restricted to witnesses below the characteristic-poset
bound, which is a deliberate desk-scale limitation: a value obtained from
an exhausted budget or a truncated candidate box is reported as a lower
bound, never silently as exact.

The searches run on the ideals L with J' <= L <= I' as masks of the clamp
box [0, g], g the bound of the characteristic poset, in the cell
arithmetic of ``_box.Box``: bit a of the mask is set when x^a is in L.
Every generator of such an L is <= g, so the mask determines L, x^a is
in L exactly when its clamp min(a, g) is, and the set bits form an
up-set of the box.  For a candidate u:

- u in L is one bit test, and L + (u) is L | up(u), up(u) the mask of
  the cells >= u;
- x_i is in (L : u) exactly when u_i < g_i and u + e_i is in L; call the
  set of these i P;
- (L : u) is the prime generated by the x_i, i in P, exactly when no
  monomial x^v with v_i = 0 on P has u + v in L.  Clamped, the points
  u + v fill the face of the box with a_i = u_i on P and u_i <= a_i <= g_i
  elsewhere.  L is an up-set, so it meets the face exactly when it holds
  the top corner of the face, u + sum over i not in P of (g_i - u_i) e_i:
  the colon test is one more bit test.

The enumeration and fdepth walk the steps of ``_prime_steps`` with
``_intervals.descend``, the one depth-first search, which the interval
search also runs on: a node is a step taken into an ideal not known to be
dead, and the open chain is a stack bounded by memory, not the recursion
limit.  fdepth decides one target at a time, from the lesser of
``last_step_bound`` and ``solver.maximal_element_bound`` down, as the
sdepth search does.  Only the chains returned are built as MonomialIdeals;
``verify_filtration`` checks each step with ``ring.colon``, independently
of the masks.  Beyond the poset, a search keeps a mask of the box per step
of its open chain and per dead ideal: O(cells) bits a node.
"""

from dataclasses import dataclass
from . import ring, solver
from ._intervals import descend
from .errors import (
    BudgetExceededError,
    ContextMismatchError,
    ZeroModuleError,
)
from .ring import RingContext

DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class FiltrationStep:
    monomial: tuple       # u_i, the new generator
    primes: frozenset     # variable indices generating (J_{i-1} : u_i)
    shift: tuple          # multidegree of u_i


@dataclass(frozen=True)
class PrimeFiltration:
    context: RingContext
    chain: tuple          # J = J_0 < J_1 < ... < J_r = I
    steps: tuple          # r FiltrationStep records


@dataclass(frozen=True)
class FiltrationReport:
    valid: bool
    step: int = -1
    reason: str = ""

    def __bool__(self):
        return self.valid


def _prime_indices(P):
    """Variable indices when every generator of P is a single variable,
    else None.  The zero ideal is the empty prime."""
    idx = set()
    for g in P.generators:
        nz = [i for i, e in enumerate(g) if e != 0]
        if len(nz) != 1 or g[nz[0]] != 1:
            return None
        idx.add(nz[0])
    return frozenset(idx)


def verify_filtration(F, I, J):
    """Check endpoints, strictness, and that every colon (J_{i-1} : u_i)
    is exactly the recorded variable prime."""
    if F.context != I.context or I.context != J.context:
        raise ContextMismatchError("filtration and ideals must share a ring")
    if len(F.chain) != len(F.steps) + 1:
        return FiltrationReport(False, -1, "chain/step length mismatch")
    if F.chain[0] != J:
        return FiltrationReport(False, -1, "chain does not start at J")
    if F.chain[-1] != I:
        return FiltrationReport(False, -1, "chain does not end at I")
    for i, step in enumerate(F.steps):
        prev, cur = F.chain[i], F.chain[i + 1]
        u = step.monomial
        if ring.contains(prev, u):
            return FiltrationReport(False, i, "step monomial already present")
        if prev.plus(u) != cur:
            return FiltrationReport(False, i, "chain step is not J + (u)")
        idx = _prime_indices(ring.colon(prev, u))
        if idx is None:
            return FiltrationReport(False, i, "colon ideal is not prime")
        if idx != step.primes:
            return FiltrationReport(False, i, "recorded prime differs from colon")
        if tuple(step.shift) != tuple(u):
            return FiltrationReport(False, i, "shift is not the multidegree of u")
    return FiltrationReport(True)


def step_dimension(ctx, primes):
    """Krull dimension of the quotient by the variable prime; unchanged by
    inverting variables outside the prime."""
    return ctx.n - len(primes)


def fdepth_of(F):
    """min over steps of dim S/P_i."""
    if not F.steps:
        raise ZeroModuleError("fdepth of an empty filtration is undefined")
    return min(step_dimension(F.context, s.primes) for s in F.steps)


def _prime_steps(poset, Jp):
    """The ideals between J' and I' as masks of the clamp box of the
    characteristic poset of I'/J', and the prime steps between them.

    Returns (start, end, steps): the masks of J' and I', and a generator
    function; steps(L, most) yields (u, primes, L + (u)) for every
    candidate u outside L whose colon (L : u) is the variable prime on
    `primes`, at most `most` of them, in lex order of u.  The candidates
    are the poset's elements, so steps stay between J' and I'.  Only the
    mask of J' is built here; per candidate u and its bit index are stored.
    """
    box = poset.box
    g = poset.bound
    cands = [(u, box.code(u)) for u in poset.elements]
    axes = [(i, s, gi) for i, (s, gi) in enumerate(zip(box.strides, g)) if gi]
    start = box.ideal(Jp.generators)
    end = start | poset.mask

    def steps(L, most):
        bits = L.to_bytes(box.nbytes, "little")   # a bit test without a shift of L
        for u, code in cands:
            if bits[code >> 3] >> (code & 7) & 1:
                continue
            primes = []
            top = code      # the top corner of the face of u fixed on primes
            for i, s, gi in axes:
                ui = u[i]
                if ui < gi:
                    grown = code + s
                    if bits[grown >> 3] >> (grown & 7) & 1:
                        primes.append(i)
                    else:
                        top += (gi - ui) * s
            if len(primes) <= most and not bits[top >> 3] >> (top & 7) & 1:
                yield u, frozenset(primes), L | box.up(u)

    return start, end, steps


def _filtration(ctx, start, path):
    """The prime filtration that starts at the ideal `start` and takes the
    (u, primes, next mask) steps of path."""
    chain = [start]
    for u, _, _ in path:
        chain.append(chain[-1].plus(u))
    steps = tuple(FiltrationStep(u, primes, u) for u, primes, _ in path)
    return PrimeFiltration(ctx, tuple(chain), steps)


def enumerate_prime_filtrations(Ip, Jp, budget=DEFAULT_BUDGET):
    """All prime filtrations of I'/J' whose witnesses stay below the
    characteristic bound, found by ``_intervals.descend`` over the steps
    with any number of primes.  No ideal is dead then: each L, J' <= L <
    I', has the step of a box-maximal u of I' outside L, primes
    {i : u_i < g_i}, top corner u.

    Returns (filtrations, complete); complete is False when the node
    budget ran out and the list is only partial.
    """
    ctx = Ip.context
    poset = solver.build_characteristic_poset(Ip, Jp)   # checks the ring and J' <= I'
    if not poset.mask:
        raise ZeroModuleError("zero module has no prime filtration")
    start, end, steps = _prime_steps(poset, Jp)
    found = []
    for path in descend(lambda L: steps(L, ctx.n), start, end, iter(range(budget))):
        if path is None:
            return found, False
        found.append(_filtration(ctx, Jp, path))
    return found, True


def last_step_bound(poset, generators, start):
    """An upper bound on fdepth I'/J', given the generators of I' and the
    mask start of J'.  The last step of a chain adds to some L, J' <= L <
    I', a minimal generator u of I' outside J'; every other one is in L,
    as u does not divide it.  So x_i is in (L : u) when u + e_i is in J'
    (its cell in start, for u_i < g_i: else the index leaves u's row) or
    is a multiple of another generator h (h exceeds u by one at i only),
    and the step has dimension at most n minus the number of such i.
    """
    box, g = poset.box, poset.bound
    gens = [u for u in generators if not start >> box.code(u) & 1]
    best = 0
    for u in gens:
        code = box.code(u)
        forced = {i for i, s in enumerate(box.strides) if u[i] < g[i] and start >> code + s & 1}
        for h in gens:
            over = [i for i, (hi, ui) in enumerate(zip(h, u)) if hi > ui]
            if len(over) == 1 and h[over[0]] == u[over[0]] + 1:
                forced.add(over[0])
        best = max(best, len(g) - len(forced))
    return best


@dataclass(frozen=True)
class FdepthResult:
    value: int
    complete: bool        # exact when True, certified lower bound otherwise
    witness: PrimeFiltration

    def __int__(self):
        return self.value


def fdepth(I, J, budget=DEFAULT_BUDGET):
    """fdepth of I/J: search prime filtrations of its contraction I'/J'
    to the polynomial ring on the same variables, where each inverted
    variable is outside every prime and so counts in every step.  The
    witness is over that ring; ``localize_filtration`` carries it to I/J.
    The lex-first chain gives a lower bound v0; then each target t from
    the upper bound down to v0 + 1 is tried, and the first chain found,
    the lex-first one with every step >= t, is the witness.  The targets
    share the node budget, one node per step taken into an ideal not known
    to be dead (see ``_intervals.descend``); when it runs out, the best
    chain found is returned with complete=False.

    The upper bound is the lesser of ``last_step_bound`` and
    ``solver.maximal_element_bound``, the least rho(c) over the maximal
    elements c of the poset.  A chain puts c into some L by a step u with
    primes P; u <= c, and c_i = u_i on P, as u + e_i is in L and c is not.
    So c is below the top corner T of the face of u fixed on P, an element
    as T is in I' and not in L, so T = c: the step's prime is
    {i : c_i < g_i}, of dimension rho(c)."""
    poset = solver._poset_of(I, J, "I/J is the zero module; fdepth undefined")
    Jp = ring.contraction(J)    # the contractions have the generators of I and J
    ctx = poset.context
    start, end, steps = _prime_steps(poset, Jp)
    tickets = iter(range(budget))   # one per node, for all targets

    def search(t):
        """The first chain with steps >= t; None out of budget, False if none."""
        return next(descend(lambda L: steps(L, ctx.n - t), start, end, tickets), False)

    path = search(0)
    if not path:
        raise BudgetExceededError("no prime filtration found within the search bound",
                                  budget + 1, {0: budget + 1})
    value = min(step_dimension(ctx, primes) for _, primes, _ in path)
    complete = True
    top = min(last_step_bound(poset, I.generators, start), solver.maximal_element_bound(poset))
    for t in range(top, value, -1):
        found = search(t)
        if found is None:
            complete = False
            break
        if found:
            path, value = found, t
            break
    return FdepthResult(value, complete, _filtration(ctx, Jp, path))


def localize_filtration(F, A):
    """Push a prime filtration over the polynomial ring into the
    localization at the variables indexed by A: steps whose prime meets A
    collapse, the rest survive with the same witness and prime."""
    ctx = F.context
    if ctx.inverted:
        raise ContextMismatchError("input filtration must be over the polynomial ring")
    A = frozenset(A)
    new_ctx = RingContext(ctx.n, A)
    chain = [ring.extend_to(F.chain[0], new_ctx)]
    steps = []
    for step in F.steps:
        if step.primes & A:
            continue   # the factor dies in the localization
        u = ring.strip_units(step.monomial, new_ctx)
        nxt = chain[-1].plus(u)
        chain.append(nxt)
        steps.append(FiltrationStep(u, step.primes, u))
    return PrimeFiltration(new_ctx, tuple(chain), tuple(steps))

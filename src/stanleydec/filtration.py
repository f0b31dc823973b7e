"""Prime filtrations of monomial subquotients and the fdepth invariant.

A prime filtration refines I/J into a chain of monomial ideals whose
successive quotients are shifted copies of S modulo a variable-generated
prime; fdepth is the best achievable minimum codimension over such chains.
Witnesses stay below the characteristic-poset bound, and a value from an
exhausted budget is reported as a lower bound, never silently as exact.

The searches run on the ideals L, J' <= L <= I', as masks of the clamp box
[0, g] of the characteristic poset (``_box.Box``): every generator of L is
<= g, so x^a is in L exactly when its clamp min(a, g) is, and the mask is
an up-set.  ``_prime_steps`` reads the prime steps off the corners of I'
minus L; fdepth walks them with ``_intervals.descend``, the DFS of the
interval search, which returns the lex-first chain for each target.  Only
the chain of the answer is built as ideals, and ``verify_filtration``
checks each step with ``ring.colon``.
"""

from collections import namedtuple

from . import ring, solver
from ._intervals import descend
from .errors import (
    BudgetExceededError,
    ContextMismatchError,
    ZeroModuleError,
)
from .ring import RingContext
from .solver import DEFAULT_BUDGET


# monomial: u_i, the new generator; primes: the variable indices that
# generate (J_{i-1} : u_i); shift: the multidegree of u_i
FiltrationStep = namedtuple("FiltrationStep", "monomial primes shift")

# chain: J = J_0 < J_1 < ... < J_r = I; steps: its r FiltrationStep records
PrimeFiltration = namedtuple("PrimeFiltration", "context chain steps")


class FiltrationReport(namedtuple("FiltrationReport", "valid step reason",
                                  defaults=(-1, ""))):
    __slots__ = ()

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
    """The masks of J' and I' in the clamp box of the characteristic poset
    of I'/J', and steps(L, most), the steps of ``fdepth``'s search: it
    yields (u, primes, L + (u)) for each u whose colon (L : u) is the
    variable prime on `primes`, in lex order of u, and nothing when a
    chain from L needs a step of more than `most` primes.

    Lemma.  Let J' <= L < I', and call the maximal cells T of the rest
    R = I' minus L its corners, with P_T = {i : T_i < g_i}.  (a) The steps
    out of L are the u in R that agree with a corner T on P_T and have
    u + e_i in L there; their prime is P_T.  (b) Every chain from L puts
    each corner T in by a step with prime P_T, of dimension rho(T).
    Proof.  (a) x_i is in (L : u) exactly when u_i < g_i and u + e_i is in
    L: call these i P.  The colon is the prime on P exactly when no x^v
    with v = 0 on P has u + v in L, that is, as L is an up-set, when the
    top T of the face of the box above u fixed on P is not in L; T_i = g_i
    off P.  Then T is in R, P_T = P, and T is a corner: T + e_i, i in P,
    is above u + e_i.  Conversely, if u agrees with a corner T on P_T,
    then off P_T u + e_i <= T is not in L, so P = P_T and the top is T.
    (b) Let the step u put T in, at L' >= L; u <= T, and T is a corner of
    the rest of L'.  By (a) u agrees with a corner T' of it on P_T', with
    u + e_i in L' there, so T_i = u_i on P_T', else T would be in L'.  So
    T <= T', and T = T'.  Hence an L with a corner of more than `most`
    primes has no chain of steps of at most `most`: skipping it changes no
    answer and no lex-first chain.  Each L < I' has a step, a corner.
    """
    box, g = poset.box, poset.bound
    top = box.cells - 1
    start = box.ideal(Jp.generators)
    end = start | poset.mask

    def listed(L, most):
        """The steps out of L by (a), as ascending bit indices: no mask outlives the call."""
        rest = end & ~L
        found = 0
        for corner in box.codes(box.maximal(rest)):
            strides, face = box.face(corner)
            if len(strides) > most:
                return []
            face &= rest
            for s in strides:
                face &= L >> s
            found |= face
        return list(box.codes(found))

    def steps(L, most):
        for code in listed(L, most):
            u = box.cell(code)
            # (L : u) is the prime of u's corner, on the i with u + e_i in L
            primes = frozenset([i for i, (s, ui, gi) in enumerate(zip(box.strides, u, g))
                                if ui < gi and L >> code + s & 1])
            yield u, primes, L | box.shape(top - code) << code

    return start, end, steps


def _filtration(ctx, start, path):
    """The prime filtration that starts at the ideal `start` and takes the
    (u, primes, next mask) steps of path."""
    chain = [start]
    for u, _, _ in path:
        chain.append(chain[-1].plus(u))
    steps = tuple(FiltrationStep(u, primes, u) for u, primes, _ in path)
    return PrimeFiltration(ctx, tuple(chain), steps)


def last_step_bound(poset, start):
    """An upper bound on fdepth I'/J', given its characteristic poset and
    the mask start of J'.  The last step of a chain adds to some L, J' <= L <
    I', a minimal generator u of I' outside J'; every other one is in L,
    as u does not divide it.  So x_i is in (L : u) when u + e_i is in J'
    (its cell in start, for u_i < g_i: else the index leaves u's row) or
    is a multiple of another generator h (h exceeds u by one at i only),
    and the step has dimension at most n minus the number of such i.
    """
    box, g = poset.box, poset.bound
    gens = [u for u in poset.generators if not start >> box.code(u) & 1]
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


# complete: the value is exact when True, a certified lower bound otherwise
class FdepthResult(namedtuple("FdepthResult", "value complete witness")):
    __slots__ = ()

    def __int__(self):
        return self.value


def fdepth(I, J, budget=DEFAULT_BUDGET):
    """fdepth of I/J: search prime filtrations of its contraction I'/J'
    to the polynomial ring on the same variables, where each inverted
    variable is outside every prime and so counts in every step.  The
    witness is over that ring; ``localize_filtration`` carries it to I/J.
    The lex-first chain gives a lower bound v0; then each target t from
    ``last_step_bound`` down to v0 + 1 is tried, and the first chain found,
    the lex-first one with every step >= t, is the witness; targets above
    the least rho of a corner of J' cost no node (see ``_prime_steps``).
    The targets share the node budget, one node per step taken into an
    ideal not known to be dead (see ``_intervals.descend``); when it runs
    out, the best chain found is returned with complete=False."""
    poset = solver._poset_of(I, J, "I/J is the zero module; fdepth undefined")
    Jp = ring.contraction(J)    # the contractions have the generators of I and J
    ctx = poset.context
    start, end, steps = _prime_steps(poset, Jp)
    tickets = iter(range(budget))   # one per node, for all targets

    def search(t):
        """The first chain with steps >= t; None out of budget, [] if none."""
        return descend(lambda L: steps(L, ctx.n - t), start, end, tickets)

    path = search(0)
    if not path:
        raise BudgetExceededError("no prime filtration found within the search bound",
                                  budget + 1, {0: budget + 1})
    value = min(step_dimension(ctx, primes) for _, primes, _ in path)
    complete = True
    for t in range(last_step_bound(poset, start), value, -1):
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

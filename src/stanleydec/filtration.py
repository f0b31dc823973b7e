"""Prime filtrations of monomial subquotients and the fdepth invariant.

A prime filtration refines I/J into a chain of monomial ideals whose
successive quotients are shifted copies of S modulo a variable-generated
prime; fdepth is the best achievable minimum codimension over such chains.
The enumeration is restricted to witnesses below the characteristic-poset
bound, which is a deliberate desk-scale limitation: a value obtained from
an exhausted budget or a truncated candidate box is reported as a lower
bound, never silently as exact.

Every search here draws its prime steps from one generator, ``_steps``,
and keeps its open chain on an explicit stack rather than the call
stack, so the length of a chain is bounded only by memory, not by the
recursion limit.
"""

from dataclasses import dataclass
from . import ring, solver
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


def _steps(current, cands):
    """The prime steps out of `current`: (u, primes, current + (u)) for
    every candidate u outside current whose colon (current : u) is the
    variable prime on `primes`, in the order of cands.

    Every candidate lies in I'\\J' and current lies between J' and I', so
    current + (u) stays inside I'."""
    for u in cands:
        if ring.contains(current, u):
            continue
        primes = _prime_indices(ring.colon(current, u))
        if primes is not None:
            yield u, primes, current.plus(u)


def _filtration(ctx, start, path):
    """The prime filtration that starts at `start` and takes the
    (u, primes, next ideal) steps of path."""
    chain = (start,) + tuple(nxt for _, _, nxt in path)
    steps = tuple(FiltrationStep(u, primes, u) for u, primes, _ in path)
    return PrimeFiltration(ctx, chain, steps)


def enumerate_prime_filtrations(Ip, Jp, budget=DEFAULT_BUDGET):
    """All prime filtrations of I'/J' whose witnesses stay below the
    characteristic bound, found by depth-first search.

    Returns (filtrations, complete); complete is False when the node
    budget ran out and the list is only partial.
    """
    ctx = Ip.context
    if ctx.inverted:
        raise ContextMismatchError("enumeration expects a polynomial ring")
    ring.require_subquotient(Ip, Jp)
    if Ip == Jp:
        raise ZeroModuleError("zero module has no prime filtration")
    cands = solver.build_characteristic_poset(Ip, Jp).elements
    found = []
    nodes = 0
    path = []                 # the steps of the open chain, one per frame
    stack = [_steps(Jp, cands)]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            continue
        nodes += 1
        if nodes > budget:
            return found, False
        del path[len(stack) - 1:]
        path.append(step)
        if step[2] == Ip:
            found.append(_filtration(ctx, Jp, path))
        else:
            stack.append(_steps(step[2], cands))
    return found, True


@dataclass(frozen=True)
class FdepthResult:
    value: int
    complete: bool        # exact when True, certified lower bound otherwise
    witness: PrimeFiltration

    def __int__(self):
        return self.value


def fdepth(I, J, budget=DEFAULT_BUDGET):
    """fdepth of I/J: contract to the polynomial ring on the non-inverted
    variables, search prime filtrations there (memoized over reachable
    ideals), and add one per inverted variable.

    The memo maps an ideal's generators to the best minimum step
    dimension of a filtration from it up to I', or -1 when none
    completes in the box.  Each frame of the search is [ideal, its step
    generator, best so far, pending step]; the pending step's value is
    read from the memo before the frame draws its next step."""
    Ip, Jp, offset, _ = solver.reduce_to_polynomial(I, J)
    if Ip == Jp:
        raise ZeroModuleError("I/J is the zero module; fdepth undefined")
    ctx = Ip.context
    cands = solver.build_characteristic_poset(Ip, Jp).elements
    NEG = -1
    memo = {Ip.generators: ctx.n + 1}   # neutral element for min over the steps
    nodes = 0
    stack = [[Jp, _steps(Jp, cands), NEG, None]]
    while stack:
        frame = stack[-1]
        current, steps, value, pending = frame
        if pending is not None:
            _, primes, nxt = pending
            tail = memo[nxt.generators]
            if tail != NEG:
                value = max(value, min(step_dimension(ctx, primes), tail))
        step = next(steps, None)
        if step is not None:
            nodes += 1
        if step is None or nodes > budget:
            memo[current.generators] = value
            stack.pop()
            continue
        frame[2:] = value, step
        if step[2].generators not in memo:
            stack.append([step[2], _steps(step[2], cands), NEG, None])
    complete = nodes <= budget
    value = memo[Jp.generators]
    if value == NEG:
        raise BudgetExceededError(
            "no prime filtration found within the search bound", nodes
        )

    # walk a witness chain achieving the value
    path = []
    current = Jp
    while current != Ip:
        for step in _steps(current, cands):
            _, primes, nxt = step
            if (step_dimension(ctx, primes) >= value
                    and memo.get(nxt.generators, NEG) >= value):
                path.append(step)
                current = nxt
                break
        else:
            if not complete:
                raise BudgetExceededError(
                    "budget exhausted before a witness chain was certified",
                    nodes,
                )
            raise AssertionError("witness reconstruction failed")
    witness = _filtration(ctx, Jp, path)
    return FdepthResult(value + offset, complete, witness)


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

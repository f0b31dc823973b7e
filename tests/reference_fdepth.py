"""Recursive reference search for prime filtrations and fdepth.

The depth-first recursion that ``stanleydec.filtration`` replaced, kept as
the oracle of the filtration tests.  ``enumerate_prime_filtrations`` is
the only enumeration of every prime filtration: the library searches for
one lex-first chain per target and enumerates none, so the tests that
need every filtration take them from here.  It tries prime steps in lex
order of the candidate monomial and counts the node budget per prime
step.  ``fdepth`` is the memoized max-min search over the reachable
ideals that the library's target search replaced, with a witness walk:
the lex-first chain whose steps all reach the value.  Where it completes,
the library returns the same value and witness.  Its budget runs out
sooner on some inputs, the maximal ideal in five variables among them,
and an exhausted budget reports the value of the best chain found so far.
Both recurse once per step of a chain, so they are only fit for short
chains.
"""

from stanleydec import ring, solver
from stanleydec.errors import (
    BudgetExceededError,
    ContextMismatchError,
    ZeroModuleError,
)
from stanleydec.filtration import (
    DEFAULT_BUDGET,
    FdepthResult,
    FiltrationStep,
    PrimeFiltration,
    _prime_indices,
    step_dimension,
)


def _candidates(Ip, Jp):
    """Witness monomials a <= g, g the characteristic-poset bound."""
    poset = solver.build_characteristic_poset(Ip, Jp)
    return poset.elements


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
    cands = _candidates(Ip, Jp)
    found = []
    state = {"nodes": 0, "complete": True}

    def search(current, chain, steps):
        if current == Ip:
            found.append(PrimeFiltration(ctx, tuple(chain), tuple(steps)))
            return
        for u in cands:
            if not ring.contains(Ip, u) or ring.contains(current, u):
                continue
            idx = _prime_indices(ring.colon(current, u))
            if idx is None:
                continue
            state["nodes"] += 1
            if state["nodes"] > budget:
                state["complete"] = False
                return
            nxt = current.plus(u)
            if not ring.is_subideal(nxt, Ip):
                continue
            chain.append(nxt)
            steps.append(FiltrationStep(u, idx, u))
            search(nxt, chain, steps)
            chain.pop()
            steps.pop()
            if not state["complete"]:
                return

    search(Jp, [Jp], [])
    return found, state["complete"]


def fdepth(I, J, budget=DEFAULT_BUDGET):
    """fdepth of I/J: contract to the polynomial ring on the same
    variables and search prime filtrations there (memoized over reachable
    ideals); each inverted variable is in no prime, so it counts in the
    dimension of every step."""
    ring.require_subquotient(I, J)
    Ip, Jp = ring.contraction(I), ring.contraction(J)
    if Ip == Jp:
        raise ZeroModuleError("I/J is the zero module; fdepth undefined")
    ctx = Ip.context
    cands = _candidates(Ip, Jp)
    memo = {}
    state = {"nodes": 0, "complete": True}
    NEG = -1

    def best(current):
        """Best achievable min-dimension from this partial chain; -1 when
        no in-box filtration completes from here."""
        if current == Ip:
            return ctx.n + 1   # neutral element for min over the steps
        key = current.generators
        if key in memo:
            return memo[key]
        value = NEG
        for u in cands:
            if not ring.contains(Ip, u) or ring.contains(current, u):
                continue
            idx = _prime_indices(ring.colon(current, u))
            if idx is None:
                continue
            state["nodes"] += 1
            if state["nodes"] > budget:
                state["complete"] = False
                break
            tail = best(current.plus(u))
            if tail == NEG:
                continue
            value = max(value, min(step_dimension(ctx, idx), tail))
        memo[key] = value
        return value

    value = best(Jp)
    if value == NEG:
        raise BudgetExceededError(
            "no prime filtration found within the search bound", state["nodes"]
        )

    # reconstruct a witness chain achieving the value
    chain = [Jp]
    steps = []
    current = Jp
    while current != Ip:
        for u in cands:
            if not ring.contains(Ip, u) or ring.contains(current, u):
                continue
            idx = _prime_indices(ring.colon(current, u))
            if idx is None or step_dimension(ctx, idx) < value:
                continue
            tail = memo.get(current.plus(u).generators)
            if current.plus(u) == Ip:
                tail = ctx.n + 1
            if tail is not None and tail >= value:
                current = current.plus(u)
                chain.append(current)
                steps.append(FiltrationStep(u, idx, u))
                break
        else:
            if not state["complete"]:
                raise BudgetExceededError(
                    "budget exhausted before a witness chain was certified",
                    state["nodes"],
                )
            raise AssertionError("witness reconstruction failed")
    witness = PrimeFiltration(ctx, tuple(chain), tuple(steps))
    return FdepthResult(value, state["complete"], witness)

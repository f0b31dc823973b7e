"""Answer checker for benchmark responses.

Shares no code with the program: witnesses are checked by counting lattice
points space by space in a box, Hilbert coefficients by enumerating the
monomials of each degree, filtrations by recomputing every colon ideal,
and fdepth from above by the associated primes.

Finite boxes are exact: every membership predicate involved (divisibility
by a generator, the bounds of a Stanley space) compares coordinate i with
thresholds below ``edge[i]``, so each point outside the box behaves like
the point obtained by clamping it into the box.
"""

from collections import Counter
from itertools import product

from workloads import divides, minimalize

OK, BUDGET, MATH, CRASH, INCOMPLETE = "ok", "budget", "math", "crash", "incomplete"


def in_module(req, m):
    """m lies in I \\ J (inverted coordinates are units)."""
    inv = req.inverted
    return any(divides(g, m, inv) for g in req.I) and not any(divides(g, m, inv) for g in req.J)


def _ring_matches(req, ring_json, inverted=None):
    inverted = req.inverted if inverted is None else inverted
    return ring_json == {"n": req.n, "invert": [i + 1 for i in inverted]}


def _spaces(dec_json):
    out = []
    for s in dec_json["spaces"]:
        out.append((tuple(s["root"]), frozenset(i - 1 for i in s["zplus"]),
                    frozenset(i - 1 for i in s["zminus"])))
    return out


def decomposition_problem(req, spaces, inverted=None):
    """None when the spaces partition I \\ J exactly, else a description
    of the first point that is covered twice, covered outside I \\ J, or
    in I \\ J and covered by nothing."""
    inverted = req.inverted if inverted is None else inverted
    n = req.n
    edge = [1] * n
    for g in req.I + req.J + tuple(s[0] for s in spaces):
        for i, e in enumerate(g):
            edge[i] = max(edge[i], abs(e) + 1)
    lows = [-edge[i] if i in inverted else 0 for i in range(n)]
    counts = Counter()
    for root, zplus, zminus in spaces:
        if any(root[i] < 0 and i not in inverted for i in range(n)):
            return "space %r has a negative exponent off the inverted set" % (root,)
        if zminus - set(inverted):
            return "space %r inverts a variable that is not a unit" % (root,)
        ranges = []
        for i in range(n):
            if i in zplus:
                ranges.append(range(root[i], edge[i] + 1))
            elif i in zminus:
                ranges.append(range(lows[i], root[i] + 1))
            else:
                ranges.append((root[i],))
        counts.update(product(*ranges))
    localized = req if inverted == req.inverted else _Localized(req, inverted)
    for m, c in counts.items():
        if c > 1:
            return "%r is covered %d times" % (m, c)
        if not in_module(localized, m):
            return "%r is covered but not in I \\ J" % (m,)
    for m in product(*[range(lows[i], edge[i] + 1) for i in range(n)]):
        if m not in counts and in_module(localized, m):
            return "%r in I \\ J is not covered" % (m,)
    return None


class _Localized:
    """The request's ideals viewed in the ring with `inverted` inverted."""

    def __init__(self, req, inverted):
        self.inverted = tuple(inverted)
        self.I = minimalize(_strip(g, inverted) for g in req.I)
        self.J = minimalize(_strip(g, inverted) for g in req.J)


def _strip(g, inverted):
    return tuple(0 if i in inverted else e for i, e in enumerate(g))


def _vectors(n, inverted, d):
    """Exponent vectors of total absolute degree d."""
    if n == 0:
        if d == 0:
            yield ()
        return
    i = n - 1
    for v in range(d + 1):
        for head in _vectors(i, inverted, d - v):
            yield head + (v,)
            if v and i in inverted:
                yield head + (-v,)


def hilbert_counts(req, d_max):
    return [sum(1 for m in _vectors(req.n, req.inverted, d) if in_module(req, m))
            for d in range(d_max + 1)]


def filtration_problem(req, filt, value):
    """None when `filt` is a prime filtration J = J_0 < ... < J_r = I
    whose steps have minimum dimension `value`."""
    if req.inverted or not _ring_matches(req, filt["ring"]):
        return "filtration over the wrong ring"
    chain = [minimalize(tuple(g) for g in c["generators"]) for c in filt["chain"]]
    if chain[0] != minimalize(req.J) or chain[-1] != minimalize(req.I):
        return "chain does not run from J to I"
    if len(chain) != len(filt["steps"]) + 1:
        return "chain and steps differ in length"
    dims = []
    for prev, cur, step in zip(chain, chain[1:], filt["steps"]):
        u = tuple(step["u"])
        if any(divides(g, u) for g in prev):
            return "step monomial %r already in the chain" % (u,)
        if minimalize(prev + (u,)) != cur:
            return "chain step is not J_i + (%r)" % (u,)
        colon = minimalize(tuple(max(g[i] - u[i], 0) for i in range(req.n)) for g in prev)
        primes = sorted(i - 1 for i in step["primes"])
        if colon != minimalize(tuple(int(i == j) for j in range(req.n)) for i in primes):
            return "colon at %r is not the recorded prime" % (u,)
        dims.append(req.n - len(primes))
    if min(dims) != value:
        return "filtration has dimension %d, reported %d" % (min(dims), value)
    return None


def associated_prime_bound(req):
    """min dim S/P over the associated primes P of I/J, which are the
    primes among the colons (J : u), u in I \\ J.  Every prime filtration
    has each associated prime among its factors, so this bounds fdepth
    from above.  u need not pass any generator's exponents: beyond them,
    membership and the colon no longer change."""
    n = req.n
    edge = [max(g[i] for g in req.I + req.J) for i in range(n)]
    best = n
    for u in product(*[range(e + 1) for e in edge]):
        if in_module(req, u):
            colon = minimalize(tuple(max(g[i] - u[i], 0) for i in range(n)) for g in req.J)
            if all(sum(g) == 1 for g in colon):
                best = min(best, n - len(colon))
    return best


def classify(req, code, payload):
    """(kind, problem): the failure kind of the response, or OK, and a
    description when the answer is wrong."""
    if code is None:
        return CRASH, None
    if code == 3:
        return BUDGET, None
    if code != 0 or not payload.get("ok"):
        return MATH, None
    kind = OK
    exp = req.expect
    cmd = req.command
    if cmd in ("sdepth", "decompose"):
        dec = payload["witness" if cmd == "sdepth" else "decomposition"]
        if not _ring_matches(req, dec["ring"]):
            return kind, "witness over the wrong ring"
        spaces = _spaces(dec)
        if payload["sdepth"] != exp["sdepth"]:
            return kind, "sdepth %d, expected %d" % (payload["sdepth"], exp["sdepth"])
        if min(len(z) + len(zm) for _, z, zm in spaces) != exp["sdepth"]:
            return kind, "witness dimension differs from sdepth"
        return kind, decomposition_problem(req, spaces)
    if cmd == "hilbert":
        d_max = len(payload["coefficients"]) - 1
        if payload["coefficients"] != hilbert_counts(req, d_max):
            return kind, "Hilbert coefficients differ from the direct count"
        if payload["maximal_spaces"] != exp["maximal_spaces"]:
            return kind, "maximal_spaces %d, expected %d" % (
                payload["maximal_spaces"], exp["maximal_spaces"])
        return kind, None
    if cmd == "verify":
        if payload["valid"] != exp["valid"]:
            return kind, "verdict %s, expected %s" % (payload["valid"], exp["valid"])
        if not exp["valid"]:
            m = tuple(payload["witness"])
            if payload["failure"] != "coverage" or m != exp["uncovered"]:
                return kind, "failure witness %r is not the uncovered monomial" % (m,)
        return kind, None
    if cmd == "localize":
        A = tuple(exp["localized"])
        dec = payload["decomposition"]
        if not _ring_matches(req, dec["ring"], A) or payload["dropped"]:
            return kind, "localized ring or dropped spaces differ"
        if payload["sdepth_of"] != exp["sdepth_of"]:
            return kind, "sdepth_of %s, expected %d" % (payload["sdepth_of"], exp["sdepth_of"])
        return kind, decomposition_problem(req, _spaces(dec), A)
    if cmd == "fdepth":
        value = payload["fdepth"]
        if not payload["complete"]:
            if value > exp["fdepth"]:
                return INCOMPLETE, "lower bound %d exceeds fdepth %d" % (value, exp["fdepth"])
            return INCOMPLETE, filtration_problem(req, payload["witness"], value)
        if value != exp["fdepth"]:
            return kind, "fdepth %d, expected %d" % (value, exp["fdepth"])
        if value > associated_prime_bound(req):
            return kind, "fdepth %d exceeds the dimension of an associated prime" % value
        return kind, filtration_problem(req, payload["witness"], value)
    return kind, "no check for command %r" % cmd

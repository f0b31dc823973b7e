"""Enumerating reference verifier for Stanley decompositions.

The box walk that ``stanley.verify_decomposition`` replaced, kept as the
oracle of the verifier parity test.  It tests every monomial of the clamp
box, in lex order, against every space region, so it returns the same
``VerificationReport`` as the fast verifier: the failure at the lex-first
failing box monomial, with that monomial as witness.  It costs
(box side)^n times the number of spaces, so it is only fit for small
instances.  ``axis_cells`` is the per-cell scan that the verifier's
prefix-XOR axis cells replaced.
"""

from stanleydec import ring, stanley
from stanleydec.errors import ContextMismatchError
from stanleydec.stanley import VerificationReport


def verify_decomposition(D, I, J):
    if D.context != I.context or I.context != J.context:
        raise ContextMismatchError("decomposition and ideals must share a ring")
    ring.require_subquotient(I, J)
    B = stanley.clamp_bound(D, I, J)
    regions = [stanley.space_region(s) for s in D.spaces]
    for m in ring.box_monomials(D.context, B):
        hits = [r for r in regions if r.contains(m)]
        member = ring.contains(I, m) and not ring.contains(J, m)
        if len(hits) > 1:
            return VerificationReport(False, "disjointness", m, B)
        if member and not hits:
            return VerificationReport(False, "coverage", m, B)
        if not member and hits:
            return VerificationReport(False, "containment", m, B)
    return VerificationReport(True, "", None, B)


def axis_cells(bounds, low, high):
    """``stanley._axis_cells`` by one test per constraint and cell."""
    cuts = {low}
    for lo, hi in bounds:
        if lo is not None:
            cuts.add(lo)
        if hi is not None:
            cuts.add(hi + 1)
    cells = []
    for c in sorted(x for x in cuts if low <= x <= high):
        bits = 0
        for k, (lo, hi) in enumerate(bounds):
            if (lo is None or lo <= c) and (hi is None or c <= hi):
                bits |= 1 << k
        cells.append((c, bits))
    return cells

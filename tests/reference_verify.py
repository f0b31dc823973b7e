"""Enumerating reference verifier for Stanley decompositions.

The oracle of the verifier parity test.  ``stanley.verify_decomposition``
reads its verdict off the masks of a grid of cuts; this walk tests every
monomial of the clamp box, in lex order, against every space, and shares
none of that code.  Both return the same ``VerificationReport``: the
failure at the lex-first failing box monomial, with that monomial as
witness.  It costs (box side)^n times the number of spaces, so it is only
fit for small instances.
"""

from stanleydec import ring, stanley
from stanleydec.errors import ContextMismatchError
from stanleydec.stanley import VerificationReport

from util import box_monomials


def _in_space(s, m):
    """Whether u*K[Z] holds m: m_i >= u_i on zplus, m_i <= u_i on zminus
    and m_i = u_i elsewhere."""
    for i, (e, u) in enumerate(zip(m, s.root)):
        if e < u and i not in s.zminus or e > u and i not in s.zplus:
            return False
    return True


def verify_decomposition(D, I, J):
    if D.context != I.context or I.context != J.context:
        raise ContextMismatchError("decomposition and ideals must share a ring")
    ring.require_subquotient(I, J)
    B = stanley.clamp_bound(D, I, J)
    for m in box_monomials(D.context, B):
        hits = [s for s in D.spaces if _in_space(s, m)]
        member = ring.contains(I, m) and not ring.contains(J, m)
        if len(hits) > 1:
            return VerificationReport(False, "disjointness", m, B)
        if member and not hits:
            return VerificationReport(False, "coverage", m, B)
        if not member and hits:
            return VerificationReport(False, "containment", m, B)
    return VerificationReport(True, "", None, B)

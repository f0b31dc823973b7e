"""The regex reader of one Stanley space that ``parsing._space_parts``
replaced, kept as the oracle of the parser differential test.  One regex
splits the text into a root and a body, which ``parse_monomial`` and
``_admissible`` read; the regex alone decides which text is a space and
which K splits it."""

import re

from stanleydec.errors import ParseError
from stanleydec.parsing import _admissible, parse_monomial

_SPACE = re.compile(r"\s*(?:(.*?)\s*\*\s*)?K(?:\[(.*?)\])?\s*", re.S)


def space_parts(text, ctx):
    """(root, (zplus, zminus)) of the text of one Stanley space."""
    m = _SPACE.fullmatch(text)
    if not m:
        raise ParseError("cannot parse Stanley space %r" % text)
    root = parse_monomial(m.group(1), ctx) if m.group(1) else (0,) * ctx.n
    return root, _admissible((m.group(2) or "").strip(), ctx.n)

"""Text and JSON syntax for rings, monomials, ideals, decompositions,
series and filtrations.

Text conventions: variables are x1..xn, with x, y, z, w as aliases when
n <= 4; monomials are '*'-joined var^exp factors ('1' for the unit);
ideals are comma lists in parentheses with (0) and (1) for the zero and
unit ideals; Stanley spaces are 'u*K[g1, g2, ...]' with gi either a
variable or var^-1; decompositions are '+'-joined spaces.  Variable
indices are 1-based in all external formats and 0-based internally.
"""

import functools
import json
import re
from itertools import chain
from operator import itemgetter

from .errors import ParseError
from .ring import MonomialIdeal, RingContext, check_monomial
from .stanley import StanleyDecomposition, _check_z

_ALIASES = ("x", "y", "z", "w")

# compiled once: a request parses thousands of factors and spaces
_INDEXED_VAR = re.compile(r"x(\d+)")
_RING = re.compile(r"\s*(?:ring\s+)?n\s*=\s*(\d+)\s*(?:invert\s*=\s*(\{[\d\s,]*\})\s*)?")
_INDEX_SET = re.compile(r"\s*\{([\d\s,]*)\}\s*")
_FACTOR = re.compile(r"([a-z]\d*)(?:\^(-?\d+))?")
_IDEAL = re.compile(r"\s*\((.*)\)\s*", re.S)
_ADMISSIBLE = re.compile(r"([a-z]\d*)(\^-1)?")


def var_name(i, ctx):
    if ctx.n <= 4:
        return _ALIASES[i]
    return "x%d" % (i + 1)


def _var_index(name, n):
    m = _INDEXED_VAR.fullmatch(name)
    if m:
        try:
            i = int(m.group(1)) - 1
        except ValueError:      # more digits than int() converts
            i = -1
        if 0 <= i < n:
            return i
        raise ParseError("variable %s out of range for n=%d" % (name, n))
    if n <= 4 and name in _ALIASES[:n]:
        return _ALIASES.index(name)
    raise ParseError("unknown variable %r" % name)


# ---------------------------------------------------------------- rings

# every monomial is an n-tuple, so a huge n would fail with MemoryError at
# the first allocation; no search here is feasible near this many anyway
MAX_VARIABLES = 10_000


def parse_ring(text):
    m = _RING.fullmatch(text)
    if not m:
        raise ParseError("cannot parse ring %r" % text)
    digits = m.group(1).lstrip("0") or "0"
    # lengths first: int() refuses strings of thousands of digits
    if len(digits) > len(str(MAX_VARIABLES)) or int(digits) > MAX_VARIABLES:
        raise ParseError("n exceeds the limit of %d variables" % MAX_VARIABLES)
    inverted = parse_index_set(m.group(2)) if m.group(2) else frozenset()
    return RingContext(int(digits), inverted)


def parse_index_set(text):
    """A set of 1-based variable indices like {1,3} (or {})."""
    m = _INDEX_SET.fullmatch(text)
    if not m:
        raise ParseError("cannot parse index set %r" % text)
    body = m.group(1).strip()
    if not body:
        return frozenset()
    try:
        return frozenset(int(p) - 1 for p in body.split(","))
    except ValueError:
        raise ParseError("bad index in %r" % text)


# ------------------------------------------------------------ monomials

# int() refuses strings of more than 4300 digits and str() refuses to
# print such ints; sums of exponents stay far below that at this length
MAX_EXPONENT_DIGITS = 1000


@functools.lru_cache(maxsize=1024)
def _factor(factor, n):
    """One factor of a monomial, as split from its text, in a ring of n
    variables: None for '1', else (index, exponent), or the message of the
    ParseError that ``_monomial`` raises at the factor's column;
    ParseError for a variable the ring lacks.  A request repeats the same
    few factors thousands of times."""
    factor = factor.strip()
    if factor == "1":
        return None
    m = _FACTOR.fullmatch(factor)
    if not m:
        return "bad monomial factor %r" % factor
    i = _var_index(m.group(1), n)
    exp = m.group(2) or "1"
    if len(exp.lstrip("-0")) > MAX_EXPONENT_DIGITS:
        return "exponent of more than %d digits" % MAX_EXPONENT_DIGITS
    return i, int(exp)


def _monomial(text, n, factors):
    """The exponents of the '*'-separated factors of text, each looked up
    in the dict factors over ``_factor``; ParseError at the column of the
    first bad factor."""
    exps = [0] * n
    parts = text.split("*")
    for part in parts:
        parsed = factors.get(part, False)    # False: not looked up yet
        if parsed is False:
            parsed = factors[part] = _factor(part, n)
        if parsed is None:
            continue
        if type(parsed) is str:
            # the first bad factor is the first with its text
            j = parts.index(part)
            raise ParseError(parsed, sum(map(len, parts[:j])) + j)
        i, exp = parsed
        exps[i] += exp
    return tuple(exps)


def parse_monomial(text, ctx):
    return _monomial(text, ctx.n, {})


def monomial_str(m, ctx):
    parts = []
    for i, e in enumerate(m):
        if e == 0:
            continue
        if e == 1:
            parts.append(var_name(i, ctx))
        else:
            parts.append("%s^%d" % (var_name(i, ctx), e))
    return "*".join(parts) if parts else "1"


# --------------------------------------------------------------- ideals

def parse_ideal(text, ctx):
    m = _IDEAL.fullmatch(text)
    if not m:
        raise ParseError("ideal must be parenthesized: %r" % text)
    body = m.group(1).strip()
    if body in ("", "0"):
        return MonomialIdeal(ctx, frozenset())
    gens = [parse_monomial(p, ctx) for p in body.split(",")]
    return MonomialIdeal(ctx, frozenset(gens))


def ideal_str(I):
    if I.is_zero:
        return "(0)"
    gens = [monomial_str(g, I.context) for g in sorted(I.generators)]
    return "(%s)" % ", ".join(gens)


# --------------------------------------------------------------- spaces

def _space_parts(text, ctx, factors, bodies):
    """(root, (zplus, zminus)) of the text of one Stanley space,
    [root '*'] 'K' ['[' body ']'] with whitespace around each part.

    The stripped text splits at its first K that has '' or '[...]' after
    it and, before it, stripped text that ends in '*'; the root is the
    text before that '*'.  Only when no K splits it is the text read as a
    bare K or K[...].  The root is read before the body, by ``_monomial``
    over the dict factors, and the body is looked up in the dict bodies
    over ``_admissible``: a request shares both over its spaces."""
    n = ctx.n
    s = text.strip()
    head, k, tail = s.partition("K")
    while k and not ((not tail or tail[0] == "[" and tail[-1] == "]")
                     and head.rstrip()[-1:] == "*"):
        more, k, tail = tail.partition("K")
        head += "K" + more
    if k:
        head = head.rstrip()[:-1]
    else:
        head, tail = "", s[1:]
        if s[:1] != "K" or tail and (tail[0] != "[" or tail[-1] != "]"):
            raise ParseError("cannot parse Stanley space %r" % text)
    root = _monomial(head, n, factors) if head else (0,) * n
    z = bodies.get(tail)
    if z is None:
        z = bodies[tail] = _admissible(tail[1:-1].strip(), n)
    return root, z


def _admissible(body, n):
    """(zplus, zminus) as frozensets of the stripped body of K[...] in a
    ring of n variables."""
    zplus, zminus = set(), set()
    if body:
        for entry in body.split(","):
            entry = entry.strip()
            g = _ADMISSIBLE.fullmatch(entry)
            if not g:
                raise ParseError("bad admissible variable %r" % entry)
            i = _var_index(g.group(1), n)
            (zminus if g.group(2) else zplus).add(i)
    return frozenset(zplus), frozenset(zminus)


def _root_str(root, ctx):
    """The text of a space before its K: '' for the root 1, else the root
    and '*'."""
    return monomial_str(root, ctx) + "*" if any(root) else ""


def _k_str(zplus, zminus, ctx):
    """'K[...]' over the admissible variables in index order, or 'K'."""
    entries = [var_name(i, ctx) if i in zplus else "%s^-1" % var_name(i, ctx)
               for i in sorted(zplus | zminus)]
    return "K[%s]" % ", ".join(entries) if entries else "K"


def parse_decomposition(text, ctx):
    """The '+'-joined spaces of text, each read by ``_space_parts``, as the
    columns of its roots and Z, checked as ``StanleySpace`` checks each
    space.  The reader builds roots of n ints and Z of indices below n, so
    text can get a space wrong only in its Z, checked by ``_check_z`` when
    its text is first read, or by a negative exponent on a plain
    coordinate, found by one ``min`` pass per coordinate.  The first bad
    space raises the error it raises alone: in one space a parse error
    first, then a negative root, then a bad Z."""
    roots, zs = [], []
    factors, bodies = {}, {}
    checked = 0     # the Z of bodies checked so far, each when first read
    try:
        for part in text.split("+"):
            root, z = _space_parts(part, ctx, factors, bodies)
            roots.append(root)
            if len(bodies) > checked:
                _check_z(ctx, *z)
                checked += 1
            zs.append(z)
    finally:
        # after the loop, or before its error goes on: a bad root read
        # before that error, or in its space, raises in its place
        if any(min(map(itemgetter(i), roots), default=0) < 0 for i in ctx.plain):
            for root in roots:
                check_monomial(root, ctx)
    return StanleyDecomposition._of_columns(ctx, tuple(roots), tuple(zs))


def decomposition_str(D):
    """The spaces of D joined by ' + ', each K text written once per
    distinct Z; a decomposition built from runs is written one run item
    at a time (``_run_texts``).  A root is the factors of its nonzero
    entries, each followed by '*' (``_root_str``), so t is written as its
    factor and '*', and as '' when it is 0."""
    ctx = D.context
    if D.runs is None:
        tails = {z: _k_str(*z, ctx) for z in set(D.zs)}
        return " + ".join([_root_str(root, ctx) + tails[z] for root, z in zip(D.roots, D.zs)])
    r = len(D.runs[0][0]) if D.runs else 0
    name, zeros = var_name(r, ctx), (0,) * ctx.n
    return "".join(_run_texts(
        D.runs, " + ", lambda t: "" if t == 0 else name + "*" if t == 1 else "%s^%d*" % (name, t),
        lambda head: _root_str(head + zeros[r:], ctx),
        lambda tail, z: _root_str(zeros[:r + 1] + tail, ctx) + _k_str(*z, ctx)))


def _run_texts(runs, sep, digit, pre_of, post_of):
    """The parts to join of the text of run items (``StanleyDecomposition.
    _of_runs``), with sep between spaces: an item is pre + d + post per
    t and copy, pre = pre_of(head), d = digit(t), post = post_of(tail, Z).
    One join writes an item but its first pre and last post, with the text
    between two d's as separator; with several copies, each d is first
    made d + mid + ... + d.  The items of one Z share their posts."""
    lo = min([first for _, first, _, _ in runs], default=0)
    digits = list(map(digit, range(lo, max([last for _, _, last, _ in runs], default=-1) + 1)))
    posts_of = {}
    parts = []
    for head, first, last, copies in runs:
        posts = posts_of.get(copies)
        if posts is None:
            posts = posts_of[copies] = [post_of(tail, z) for tail, z in copies]
        pre, ds = pre_of(head), digits[first - lo:last - lo + 1]
        if len(posts) > 1:
            mids = [""] + [post + sep + pre for post in posts[:-1]] + [""]
            ds = [d.join(mids) for d in ds]
        parts += pre, (posts[-1] + sep + pre).join(ds), posts[-1], sep
    return parts[:-1]


# --------------------------------------------------------------- series

def series_str(h):
    """P(t)/(1-t)^pole as text, e.g. '(1 + t - 2*t^2) / (1-t)^3', or '0'.
    The terms are written by one join over a generator, so a numerator of
    a million terms takes the memory of its text and no more."""
    terms = _series_terms(h.numerator)
    first = next(terms, None)
    if first is None:
        return "0"
    first = first[3:] if first[1] == "+" else "-" + first[3:]
    head, tail = "", ""
    if h.pole:
        tail = " / (1-t)^%d" % h.pole
        if len(h.numerator) - h.numerator.count(0) > 1:
            head, tail = "(", ")" + tail
    return "".join(chain((head, first), terms, (tail,)))


def _series_terms(numerator):
    """' + c*t^k' or ' - c*t^k' per nonzero coefficient c, ascending in k,
    with 'c*' left out when |c| = 1 and t^0, t^1 written 1, t."""
    for k, c in enumerate(numerator):
        if not c:
            continue
        sign = " - " if c < 0 else " + "
        c = abs(c)
        if k == 0:
            yield "%s%d" % (sign, c)
        elif c == 1:
            yield sign + "t" if k == 1 else "%st^%d" % (sign, k)
        else:
            yield "%s%d*t" % (sign, c) if k == 1 else "%s%d*t^%d" % (sign, c, k)


# ----------------------------------------------------------------- JSON

def ring_to_json(ctx):
    return {"n": ctx.n, "invert": sorted(i + 1 for i in ctx.inverted)}


def ideal_to_json(I):
    return {"generators": [list(g) for g in sorted(I.generators)]}


class JSONText(str):
    """A value that is already JSON text, which ``cli._json_line`` writes
    into an answer as it is."""

    __slots__ = ()


@functools.lru_cache(maxsize=256)
def _ring_json(ctx):
    """The JSON text of a ring: a request stream asks for few rings."""
    return json.dumps(ring_to_json(ctx), sort_keys=True)


@functools.lru_cache(maxsize=1024)
def _z_json(z):
    """The JSON text of the Z of a space, a (zplus, zminus) pair, after
    its root: a request stream shares few Z over its answers."""
    return '"zminus": [%s], "zplus": [%s]}' % (_one_based(z[1]), _one_based(z[0]))


def decomposition_to_json(D):
    """The ring and, per space, its root and the sorted 1-based indices of
    zplus and zminus, as JSONText with the keys in sorted order.

    A decomposition built from runs is written one run item at a time
    (``_run_texts``), with the digits of t.  Otherwise there is one format per
    distinct Z, with a %d per root entry, so a bool entry is 1 or 0.  The
    ring and the formats of the spaces, in order, are joined into one
    template, which one % fills in with all the roots' entries; the
    template is gone before JSONText copies the answer."""
    ring = '{"ring": %s, "spaces": [' % _ring_json(D.context)
    if D.runs is not None:
        r = len(D.runs[0][0]) if D.runs else 0
        pre = '{"root": [' + "%d, " * r         # all heads have r entries
        post = ", %d" * (D.context.n - r - 1) + "], "
        parts = _run_texts(D.runs, ", ", str, pre.__mod__,
                           lambda tail, z: post % tail + _z_json(z))
        text = "".join([ring, *parts, "]}"])
        del parts       # gone before JSONText copies the answer
        return JSONText(text)
    head = ', {"root": [%s], ' % ", ".join(["%d"] * D.context.n)
    formats = {z: head + _z_json(z) for z in set(D.zs)}
    texts = map(formats.__getitem__, D.zs)
    # each format opens with the ", " after the space before it, which the
    # first space's format drops; with no space there is none
    first = next(texts, ", ")[2:]
    return JSONText("".join(chain((ring, first), texts, ("]}",)))
                    % tuple(chain.from_iterable(D.roots)))


def _one_based(z):
    return ", ".join(map(str, sorted(i + 1 for i in z)))


def series_to_json(h):
    """The nonzero numerator coefficients as [c, k] pairs, ascending in k,
    and the pole, as JSONText with the keys in sorted order."""
    pairs = ", ".join(
        "[%d, %d]" % (c, k) for k, c in enumerate(h.numerator) if c != 0)
    return JSONText('{"num": [%s], "pole": %d}' % (pairs, h.pole))


def filtration_to_json(F):
    return {
        "ring": ring_to_json(F.context),
        "chain": [ideal_to_json(I) for I in F.chain],
        "steps": [
            {
                "u": list(s.monomial),
                "primes": sorted(i + 1 for i in s.primes),
                "shift": list(s.shift),
            }
            for s in F.steps
        ],
    }

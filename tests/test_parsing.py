import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_json
import reference_parse
import reference_text
from stanleydec import filtration, parsing, ring, solver, stanley
from stanleydec.errors import MalformedInputError, ParseError
from stanleydec.hilbert import HilbertSeries
from stanleydec.ring import MonomialIdeal, RingContext
from stanleydec.stanley import StanleyDecomposition, StanleySpace

from util import is_unit, polynomial_quotient, random_quotient, ring_text


class TestRingText:
    def test_parse(self):
        assert parsing.parse_ring("n=3 invert={2,3}") == RingContext(
            3, frozenset({1, 2})
        )
        assert parsing.parse_ring("ring n=2") == RingContext(2)
        assert parsing.parse_ring("n=1 invert={}") == RingContext(1)

    def test_round_trip(self):
        for ctx in (RingContext(5, frozenset({0, 4})), RingContext(2), RingContext(3, frozenset({2}))):
            assert parsing.parse_ring(ring_text(ctx)) == ctx

    def test_bad_input(self):
        with pytest.raises(ParseError):
            parsing.parse_ring("m=3")

    def test_invert_list_is_an_index_set(self):
        """The invert list is read as --A is: blank braces are the empty
        set, and a trailing comma is an error."""
        plain = parsing.parse_ring("n=3")
        assert parsing.parse_ring("n=3 invert={ }") == plain
        assert parsing.parse_ring("n=3 invert={}") == plain
        assert parsing.parse_ring("n=3 invert={ 1 , 3 }") == RingContext(3, frozenset({0, 2}))
        with pytest.raises(ParseError):
            parsing.parse_ring("n=3 invert={1,}")

    def test_variable_limit(self):
        limit = parsing.MAX_VARIABLES
        assert parsing.parse_ring("n=%d" % limit).n == limit
        assert parsing.parse_ring("n=00%d" % limit).n == limit
        with pytest.raises(ParseError):
            parsing.parse_ring("n=%d" % (limit + 1))

    def test_digit_limits(self):
        ctx = RingContext(12)
        limit = parsing.MAX_EXPONENT_DIGITS
        assert parsing.parse_monomial("x012^-00" + "9" * limit, ctx)[11] == -int("9" * limit)
        with pytest.raises(ParseError):
            parsing.parse_monomial("x1^1" + "0" * limit, ctx)
        for name in ("x0", "x13", "x" + "9" * 5000):
            with pytest.raises(ParseError):
                parsing.parse_monomial(name, ctx)

    def test_index_set(self):
        assert parsing.parse_index_set("{1, 3}") == frozenset({0, 2})
        assert parsing.parse_index_set("{}") == frozenset()
        with pytest.raises(ParseError):
            parsing.parse_index_set("1,3")


class TestMonomialText:
    def test_aliases_and_powers(self):
        ctx = RingContext(3, frozenset({1}))
        assert parsing.parse_monomial("x^2*y^-1", ctx) == (2, -1, 0)
        assert parsing.parse_monomial("1", ctx) == (0, 0, 0)
        assert parsing.parse_monomial("z", ctx) == (0, 0, 1)

    def test_numbered_variables(self):
        ctx = RingContext(5)
        assert parsing.parse_monomial("x1*x5^3", ctx) == (1, 0, 0, 0, 3)
        assert parsing.monomial_str((1, 0, 0, 0, 3), ctx) == "x1*x5^3"

    def test_round_trip(self):
        rng = random.Random(51)
        for _ in range(50):
            n = rng.randint(1, 5)
            A = frozenset(i for i in range(n) if rng.random() < 0.4)
            ctx = RingContext(n, A)
            m = tuple(
                rng.randint(-3, 3) if i in A else rng.randint(0, 3)
                for i in range(n)
            )
            assert parsing.parse_monomial(parsing.monomial_str(m, ctx), ctx) == m

    def test_error_carries_column(self):
        ctx = RingContext(2)
        with pytest.raises(ParseError) as e:
            parsing.parse_monomial("x*!y", ctx)
        assert e.value.column == 2

    def test_same_bad_factor_at_two_columns(self):
        """Factors are parsed once per ring and text, but every error names
        the column of its own occurrence."""
        ctx = RingContext(2)
        cases = (("x*y^", 2), ("y^", 0), ("x * y^", 3), ("1 * y^", 3),
                 ("x*1*  y^", 4), ("x*y^*y^", 2))
        for text, column in cases:
            with pytest.raises(ParseError, match=r"bad monomial factor 'y\^' \(column %d\)" % column):
                parsing.parse_monomial(text, ctx)
        long = "x^" + "9" * (parsing.MAX_EXPONENT_DIGITS + 1)
        for text, column in (("y*" + long, 2), (long, 0)):
            with pytest.raises(ParseError, match=r"more than \d+ digits \(column %d\)" % column):
                parsing.parse_monomial(text, ctx)
        with pytest.raises(ParseError, match=r"bad monomial factor '' \(column 2\)"):
            parsing.parse_monomial("x**y", ctx)
        assert parsing.parse_monomial("x*y*x^2", ctx) == (3, 1)
        assert parsing.parse_monomial(" 1 * x *1", ctx) == (1, 0)
        assert parsing.parse_monomial("1", RingContext(0)) == ()
        assert parsing.parse_monomial("x*y*x^2", RingContext(3)) == (3, 1, 0)

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            parsing.parse_monomial("q", RingContext(2))
        with pytest.raises(ParseError):
            parsing.parse_monomial("x7", RingContext(2))


class TestIdealText:
    def test_parse(self):
        ctx = RingContext(3)
        I = parsing.parse_ideal("(x*y, y*z)", ctx)
        assert I == ring.ideal(ctx, (1, 1, 0), (0, 1, 1))
        assert parsing.parse_ideal("(0)", ctx).is_zero
        assert is_unit(parsing.parse_ideal("(1)", ctx))

    def test_needs_parentheses(self):
        with pytest.raises(ParseError, match="ideal must be parenthesized: 'x, y'"):
            parsing.parse_ideal("x, y", RingContext(2))

    def test_print(self):
        ctx = RingContext(2)
        # generators print in lex order on exponent vectors
        assert parsing.ideal_str(ring.ideal(ctx, (2, 0), (1, 1))) == "(x*y, x^2)"
        assert parsing.ideal_str(MonomialIdeal(ctx)) == "(0)"

    def test_round_trip(self):
        rng = random.Random(53)
        for _ in range(30):
            ctx, I, J = random_quotient(rng)
            for X in (I, J):
                assert parsing.parse_ideal(parsing.ideal_str(X), ctx) == X


def _space(text, ctx):
    """(root, zplus, zminus) of the one space of a one-space text."""
    D = parsing.parse_decomposition(text, ctx)
    (root,), ((zplus, zminus),) = D.roots, D.zs
    return root, zplus, zminus


def _error_of(text, ctx):
    """The message parse_decomposition raises for a one-space text, or ''."""
    try:
        parsing.parse_decomposition(text, ctx)
    except (ParseError, MalformedInputError) as exc:
        return str(exc)
    return ""


class TestSpaceText:
    def test_parse(self):
        ctx = RingContext(3, frozenset({2}))
        assert _space("x*z^-1*K[y, z^-1]", ctx) == ((1, 0, -1), {1}, {2})

    def test_bare_field(self):
        ctx = RingContext(2)
        assert _space("x^2*K", ctx) == ((2, 0), set(), set())

    def test_print(self):
        ctx = RingContext(3, frozenset({2}))
        for root, zplus, zminus, text in (((0, 2, -1), {0}, {2}, "y^2*z^-1*K[x, z^-1]"),
                                          ((0, 0, 0), (), (), "K")):
            D = StanleyDecomposition(ctx, (StanleySpace(ctx, root, frozenset(zplus),
                                                        frozenset(zminus)),))
            assert parsing.decomposition_str(D) == text

    def test_errors_of_the_first_bad_space(self):
        """A decomposition raises the error of its first bad space, with
        the text that space raises as a one-space text."""
        ctx = RingContext(3, frozenset({2}))
        cases = [
            ("K[x] + K[x^2]", ParseError, "bad admissible variable 'x^2'"),
            ("K[x, ] + K[y]", ParseError, "bad admissible variable ''"),
            ("x*K[x, q]", ParseError, "unknown variable 'q'"),
            ("K[y] + K[x, x4]", ParseError, "variable x4 out of range for n=3"),
            ("y*Q[x]", ParseError, "cannot parse Stanley space 'y*Q[x]'"),
            ("K[x, x^-1] + K[q]", MalformedInputError,
             "a variable and its inverse cannot both be admissible"),
            ("K[q] + K[x, x^-1]", ParseError, "unknown variable 'q'"),
            ("K[y^-1] + x^-1*K", MalformedInputError,
             "inverse variable outside the inverted set"),
            ("x^-1*K + K[y^-1]", MalformedInputError,
             "negative exponent on non-inverted variable 1"),
            ("K + x*q*K[y]", ParseError, "unknown variable 'q'"),
            ("K + x*#*K[y]", ParseError, "bad monomial factor '#' (column 2)"),
        ]
        for text, error, message in cases:
            with pytest.raises(error) as raised:
                parsing.parse_decomposition(text, ctx)
            assert str(raised.value) == message
            first_bad = next(p for p in text.split("+") if _error_of(p, ctx))
            assert _error_of(first_bad, ctx) == message

    def test_admissible_sets_per_ring(self):
        """The same K[...] text is read again in a ring of another size."""
        assert _space("K[w]", RingContext(4))[1] == {3}
        with pytest.raises(ParseError, match="unknown variable 'w'"):
            _space("K[w]", RingContext(3))
        with pytest.raises(ParseError, match="x5 out of range for n=4"):
            _space("K[x5]", RingContext(4))
        assert _space("K[x5]", RingContext(5))[1] == {4}

    def test_round_trip_decomposition(self):
        rng = random.Random(57)
        for _ in range(20):
            ctx, I, J = polynomial_quotient(rng)
            D = solver.sdepth(I, J).witness
            text = parsing.decomposition_str(D)
            assert parsing.parse_decomposition(text, ctx).spaces == D.spaces


_PADS = st.sampled_from(["", "", " ", "  ", "\t", "\n ", "\u00a0", "\u2003", "\x1c"])
_BAD_FACTORS = st.sampled_from(["#", "", " ", "x ^2", "q", "x6", "x0", "x^", "y^-", "Q", "K["])
_BAD_ENTRIES = st.sampled_from(["", " ", "x^2", "q", "x6", "K", "[x", "x]", "y^-2", "x^-1^-1"])
_SEPARATORS = st.sampled_from(["", " ", "2", " *", "* ", " * ", "**", "*1*", "*#*"])


@st.composite
def _written_space(draw, n):
    """(head, tail) of a space as decomposition_str writes it, not always
    a valid one: any root in -2..3, admissible entries in any order, each
    variable by its alias or its index, a variable and its inverse both
    admissible."""
    def name(i):
        return "x%d" % (i + 1) if n > 4 or draw(st.booleans()) else "xyzw"[i]

    factors = []
    for i in range(n):
        e = draw(st.integers(-2, 3))
        if e:
            factors.append(name(i) if e == 1 else "%s^%d" % (name(i), e))
    head = "*".join(factors) + "*" if factors else draw(st.sampled_from(["", "", "1*"]))
    entries = [name(i) for i in range(n) if draw(st.booleans())]
    entries += [name(i) + "^-1" for i in range(n) if draw(st.integers(0, 3)) == 0]
    entries = draw(st.permutations(entries)) if draw(st.booleans()) else entries
    return head, "K[%s]" % ", ".join(entries) if entries else draw(st.sampled_from(["K", "K[]"]))


@st.composite
def _mangled_space(draw, n):
    """A written space with one or two edits: a bad factor, a separator
    other than '*' before the K, a bad entry, a bracket taken away or
    added, a K doubled or lowered, an empty root or body."""
    head, tail = draw(_written_space(n))
    for _ in range(draw(st.integers(1, 2))):
        edit = draw(st.integers(0, 9))
        if edit == 0:
            head = head + draw(_BAD_FACTORS) + "*"
        elif edit == 1:
            head = draw(_BAD_FACTORS) + "*" + head
        elif edit == 2:
            head = head[:-1] + draw(_SEPARATORS) if head else draw(_SEPARATORS)
        elif edit == 3:
            tail = tail.replace("[", "", 1) if "[" in tail else tail + "]"
        elif edit == 4:
            tail = tail[:-1] if tail.endswith("]") else tail + "["
        elif edit == 5:
            tail = "K[%s]" % draw(_BAD_ENTRIES) if tail in ("K", "K[]") else tail.replace(
                "[", "[%s, " % draw(_BAD_ENTRIES), 1)
        elif edit == 6:
            tail = tail.replace("K", draw(st.sampled_from(["KK", "k", "Q", "K K", "K*K"])), 1)
        elif edit == 7:
            tail = tail + draw(st.sampled_from(["]", " K", "*K", ",", "x"]))
        elif edit == 8:
            head = ""
        else:
            tail = draw(st.sampled_from(["", "[x]", "K[", "K]"]))
    return head + tail


@st.composite
def _decomposition_text(draw):
    n = draw(st.integers(0, 5))
    ctx = RingContext(n, frozenset(i for i in range(n) if draw(st.booleans())))
    parts = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.integers(0, 9))
        if kind < 5:
            part = "".join(draw(_written_space(n)))
        elif kind < 9:
            part = draw(_mangled_space(n))
        else:
            part = draw(st.text("xyzK[]*^-1, \t", max_size=10))
        parts.append(draw(_PADS) + part + draw(_PADS))
    return ctx, "+".join(parts)


def _error(exc):
    return type(exc), str(exc), getattr(exc, "column", None)


def _outcome(read):
    """What read() returns, or the type, message and column of the
    ParseError it raises."""
    try:
        return read()
    except ParseError as exc:
        return _error(exc)


class TestParserDifferential:
    """parse_decomposition reads each space by the string splitter
    _space_parts; the regex reader of reference_parse is the reference."""

    @given(_decomposition_text())
    # a bare K[...] is read only when no later K has a root and '*' before it
    @example((RingContext(2), "K[ *K[x] + K*K + x*K[x]*K +  *K  + K[]]"))
    @settings(max_examples=600, deadline=None)
    def test_parts_match_the_regex_path(self, case):
        """Each part gives the columns, or the error with its message and
        column, that the regex reader gives, with the lookups shared over
        the parts as in a request."""
        ctx, text = case
        factors, bodies = {}, {}
        for part in text.split("+"):
            assert _outcome(lambda: parsing._space_parts(part, ctx, factors, bodies)) \
                == _outcome(lambda: reference_parse.space_parts(part, ctx)), part

    @given(_decomposition_text())
    # a bad Z after an earlier negative root, a negative root and a bad Z
    # in one space, and a parse error after a negative root
    @example((RingContext(2, frozenset({1})), "x^-1*K[y] + K[y, y^-1]"))
    @example((RingContext(2, frozenset({1})), "K[x] + x^-1*K[y, y^-1]"))
    @example((RingContext(2), "x^-1*K[y] + K[q]"))
    @settings(max_examples=600, deadline=None)
    def test_decomposition_matches_space_by_space(self, case):
        """The columns of the spaces the regex reader reads and StanleySpace
        checks one by one, or the error, with its message and column, of
        the first space that fails either."""
        ctx, text = case
        spaces, expected = [], None
        for part in text.split("+"):
            try:
                root, (zplus, zminus) = reference_parse.space_parts(part, ctx)
                spaces.append(StanleySpace(ctx, root, zplus, zminus))
            except (ParseError, MalformedInputError) as exc:
                expected = _error(exc)
                break
        try:
            D = parsing.parse_decomposition(text, ctx)
        except (ParseError, MalformedInputError) as exc:
            assert _error(exc) == expected
            return
        assert expected is None
        assert D.roots == tuple(s.root for s in spaces)
        assert D.zs == tuple((s.zplus, s.zminus) for s in spaces)


class TestSeriesText:
    def test_examples(self):
        assert parsing.series_str(HilbertSeries((0, 1, 2, 1), 2)) == "(t + 2*t^2 + t^3) / (1-t)^2"
        assert parsing.series_str(HilbertSeries((1,), 1)) == "1 / (1-t)^1"
        assert parsing.series_str(HilbertSeries((1, 1, -1), 1)) == "(1 + t - t^2) / (1-t)^1"
        assert parsing.series_str(HilbertSeries((2,), 0)) == "2"
        assert parsing.series_str(HilbertSeries((), 0)) == "0"

    def test_matches_reference(self):
        """The same text as the term-by-term writer on random series with
        zero, negative and 20-digit coefficients, one term or many, with
        and without a pole."""
        rng = random.Random(67)
        big = 10**19
        for case in range(2000):
            coefficients = (0, 0, 1, -1, 2, -7, rng.randint(big, 10 * big),
                            -rng.randint(big, 10 * big))
            num = tuple(rng.choice(coefficients) for _ in range(rng.randint(0, 9)))
            h = HilbertSeries(num, rng.randint(0, 3))
            assert parsing.series_str(h) == reference_text.series_str(h), h


class TestJson:
    def test_ring_to_json(self):
        assert parsing.ring_to_json(RingContext(4, frozenset({3, 0}))) == {"n": 4, "invert": [1, 4]}
        assert parsing.ring_to_json(RingContext(0)) == {"n": 0, "invert": []}

    def test_ideal_to_json(self):
        """Generators in lex order, each the list of its exponents; the
        zero ideal has none, and units are stripped on inverted axes."""
        ctx = RingContext(2)
        assert parsing.ideal_to_json(ring.ideal(ctx, (2, 0), (1, 1), (3, 1))) == {
            "generators": [[1, 1], [2, 0]]}
        assert parsing.ideal_to_json(MonomialIdeal(ctx)) == {"generators": []}
        laurent = RingContext(3, frozenset({1}))
        assert parsing.ideal_to_json(ring.ideal(laurent, (1, -3, 0), (0, 5, 2))) == {
            "generators": [[0, 0, 2], [1, 0, 0]]}

    def test_decomposition_text_is_the_dict_writers(self):
        """The text is json.dumps(sort_keys=True) of the object the dict
        writer built: random spaces, negative roots on inverted axes,
        roots of 1,000 digits, n = 0, no spaces at all, and n = 40, where
        a set of indices does not iterate in sorted order.  Answers of
        1,000 and more spaces draw their Z from a few, repeated out of
        order, and every 100th root may have entries of 1,000 digits, so
        the one % of the writer must fill each format with the entries of
        its own root."""
        rng = random.Random(63)
        big = 10 ** parsing.MAX_EXPONENT_DIGITS - 1
        for case in range(220):
            n = rng.choice((0, 1, 2, 3, 4, 5, 40))
            A = frozenset(i for i in range(n) if rng.random() < 0.4)
            ctx = RingContext(n, A)
            if case < 200:
                count, pool = rng.choice((0, 1, 6, 40)), None
            else:
                count, pool = rng.randint(1000, 1500), []
                while len(pool) < 4:
                    zplus = frozenset(i for i in range(n) if rng.random() < 0.4)
                    pool.append((zplus, frozenset(i for i in A - zplus if rng.random() < 0.5)))
            spaces = []
            for j in range(count):
                if pool is None or j % 100 == 0:
                    root = tuple(rng.choice((rng.randint(-3, 3) if i in A else rng.randint(0, 3),
                                             -big if i in A else big))
                                 for i in range(n))
                else:
                    root = tuple(rng.randint(-3, 3) if i in A else rng.randint(0, 3)
                                 for i in range(n))
                if pool is None:
                    zplus = frozenset(i for i in range(n) if rng.random() < 0.4)
                    zminus = frozenset(i for i in A - zplus if rng.random() < 0.5)
                else:
                    zplus, zminus = rng.choice(pool)
                spaces.append(StanleySpace(ctx, root, zplus, zminus))
            D = StanleyDecomposition(ctx, tuple(spaces))
            text = parsing.decomposition_to_json(D)
            assert type(text) is parsing.JSONText
            assert text == json.dumps(reference_json.decomposition_to_json(D), sort_keys=True)

    def test_bool_root_entries_are_written_as_numbers(self):
        """The library API accepts bool exponents; they are written as 1
        and 0, where json.dumps of the dict wrote true and false."""
        ctx = RingContext(2)
        D = StanleyDecomposition(ctx, (StanleySpace(ctx, (True, False), frozenset({0})),))
        assert parsing.decomposition_to_json(D) == (
            '{"ring": {"invert": [], "n": 2}, '
            '"spaces": [{"root": [1, 0], "zminus": [], "zplus": [1]}]}')

    def test_series_text_is_the_dict_writers(self):
        """The same for series: the zero series, coefficients of 1,000
        digits of either sign, and zero coefficients left out."""
        rng = random.Random(65)
        big = 10 ** parsing.MAX_EXPONENT_DIGITS - 1
        for _ in range(200):
            num = tuple(rng.choice((0, 0, 1, -2, big, -big)) for _ in range(rng.randint(0, 8)))
            h = HilbertSeries(num, rng.randint(0, 4))
            text = parsing.series_to_json(h)
            assert type(text) is parsing.JSONText
            assert text == json.dumps(reference_json.series_to_json(h), sort_keys=True)
        assert parsing.series_to_json(HilbertSeries((), 0)) == '{"num": [], "pole": 0}'

    def test_filtration_to_json(self):
        """The JSON text of a witness filtration, read back by json.loads,
        holds its ring, chain and steps field by field, with 1-based
        primes: the paper's quotient and random ones, with and without
        inverted axes."""
        ctx = RingContext(3)
        cases = [(ring.ideal(ctx, (0, 1, 0)), ring.ideal(ctx, (1, 1, 0), (0, 1, 1)))]
        rng = random.Random(61)
        cases += [random_quotient(rng)[1:] for _ in range(15)]
        for I, J in cases:
            F = filtration.fdepth(I, J).witness
            obj = json.loads(json.dumps(parsing.filtration_to_json(F)))
            assert obj["ring"] == {"n": F.context.n,
                                   "invert": sorted(i + 1 for i in F.context.inverted)}
            assert obj["chain"] == [{"generators": [list(g) for g in sorted(X.generators)]}
                                    for X in F.chain]
            assert len(obj["steps"]) == len(F.steps)
            for got, step in zip(obj["steps"], F.steps):
                assert got == {"u": list(step.monomial), "shift": list(step.shift),
                               "primes": sorted(i + 1 for i in step.primes)}

"""Command-line front end.

Exit codes: 0 success, 1 internal error, 2 mathematical, parse or bad
request error, 3 budget exhausted.  The `batch` command reads one JSON
request per stdin line, in UTF-8, and writes one JSON report per line.  A
malformed line, or one that is not UTF-8, is answered with a "bad request"
report (exit 2).  A line that raises an exception other than a library
error is answered with an "internal error" report (exit 1).  Either way
the stream goes on with the next line.
The exit code of the stream is 1 when any line hit an internal error, and
otherwise the largest code of its lines.
``filtration`` loads with the first fdepth request, and ``argparse`` only
for a command given as arguments, so that ``batch`` loads neither.
"""

import functools
import json
import sys

from . import hilbert, parsing, solver, stanley
from .errors import AnswerTooLargeError, BudgetExceededError, StanleyError

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_MATH = 2
EXIT_BUDGET = 3

DEFAULT_MAX_DEGREE = 10


def _parse_pair(opts):
    ctx = parsing.parse_ring(opts["ring"])
    I = parsing.parse_ideal(opts.get("I", "(0)"), ctx)
    J = parsing.parse_ideal(opts.get("J", "(0)"), ctx)
    return ctx, I, J


def _cmd_normalize(opts):
    ctx, I, J = _parse_pair(opts)
    return {
        "ring": parsing.ring_to_json(ctx),
        "I": parsing.ideal_to_json(I),
        "text": lambda: "I = %s" % parsing.ideal_str(I),
    }


def _cmd_sdepth(opts, key, layout):
    """sdepth and decompose: the sdepth of the request and its witness
    under `key`; the text is `layout` filled in with both."""
    ctx, I, J = _parse_pair(opts)
    res = solver.sdepth(I, J, budget=opts.get("budget", solver.DEFAULT_BUDGET))
    return {
        "sdepth": res.value,
        key: lambda: parsing.decomposition_to_json(res.witness),
        "text": lambda: layout.format(
            sdepth=res.value, witness=parsing.decomposition_str(res.witness)),
    }


def _cmd_localize(opts):
    ctx, I, J = _parse_pair(opts)
    D = parsing.parse_decomposition(opts["D"], ctx)
    A = parsing.parse_index_set(opts["A"])
    res = stanley.localize_decomposition(D, I, J, A)
    return {
        "ring": parsing.ring_to_json(res.decomposition.context),
        "decomposition": lambda: parsing.decomposition_to_json(res.decomposition),
        "dropped": list(res.dropped),
        "sdepth_of": stanley.sdepth_of(res.decomposition)
        if res.decomposition.roots
        else None,
        "text": lambda: "%s\ndropped input spaces: %s"
        % (parsing.decomposition_str(res.decomposition), list(res.dropped)),
    }


def _refuse_unprintable(c):
    try:
        str(c)    # int to str has a digit limit, which parsing relies on
    except ValueError:
        raise AnswerTooLargeError(
            "a coefficient has more than %d digits, the limit for printing an integer"
            % sys.get_int_max_str_digits()) from None


def _cmd_hilbert(opts):
    ctx, I, J = _parse_pair(opts)
    series = hilbert.series_of_quotient(I, J)
    dmax = opts.get("max_degree", DEFAULT_MAX_DEGREE)
    # the coefficient at dmax alone first: when it is too long to print, the
    # answer is refused before the expansion.  It need not be the largest,
    # as (1)/(x^3) gives 1, 1, 1, 0, ..., so max(coeffs) is checked after it
    _refuse_unprintable(hilbert.coefficient(series, dmax))
    coeffs = hilbert.expand(series, dmax)
    _refuse_unprintable(max(coeffs))
    maximal = hilbert.count_maximal_spaces(series)
    return {
        "series": lambda: parsing.series_to_json(series),
        "maximal_spaces": maximal,
        "coefficients": coeffs,
        "text": lambda: "H(t) = %s\nmaximal spaces: %d\ncoefficients (d<=%d): %s"
        % (parsing.series_str(series), maximal, dmax, coeffs),
    }


def _cmd_verify(opts):
    ctx, I, J = _parse_pair(opts)
    D = parsing.parse_decomposition(opts["D"], ctx)
    report = stanley.verify_decomposition(D, I, J)
    out = {
        "valid": report.valid,
        "box_bound": report.box_bound,
        "text": lambda: "valid (checked exactly on the clamp box, bound %d)"
        % report.box_bound,
    }
    if not report.valid:
        out["failure"] = report.failure
        out["witness"] = list(report.witness)
        out["text"] = lambda: "invalid: %s fails at %s (box bound %d)" % (
            report.failure,
            parsing.monomial_str(report.witness, ctx),
            report.box_bound,
        )
    return out


def _cmd_fdepth(opts):
    from . import filtration

    ctx, I, J = _parse_pair(opts)
    res = filtration.fdepth(I, J, budget=opts.get("budget", solver.DEFAULT_BUDGET))
    qualifier = "" if res.complete else " (lower bound: search truncated)"
    return {
        "fdepth": res.value,
        "complete": res.complete,
        "witness": parsing.filtration_to_json(res.witness),
        "text": lambda: "fdepth = %d%s" % (res.value, qualifier),
    }


_COMMANDS = {
    "normalize": _cmd_normalize,
    "sdepth": functools.partial(
        _cmd_sdepth, key="witness", layout="sdepth = {sdepth}\nwitness: {witness}"),
    "decompose": functools.partial(
        _cmd_sdepth, key="decomposition", layout="{witness}\nsdepth = {sdepth}"),
    "localize": _cmd_localize,
    "hilbert": _cmd_hilbert,
    "verify": _cmd_verify,
    "fdepth": _cmd_fdepth,
}


def run_request(command, opts):
    """Dispatch one request; returns (report dict, exit code).  The report's
    "text" is a function that renders it, called only when it is printed;
    a field that is a function gives its JSON value, called only when the
    answer is JSON, so a text answer builds no JSON."""
    try:
        report = _COMMANDS[command](opts)
        return report, EXIT_OK
    except StanleyError as exc:
        code = EXIT_BUDGET if isinstance(exc, BudgetExceededError) else EXIT_MATH
        error = str(exc)
        return {"error": error, "text": lambda: "error: %s" % error}, code


_ENCODER = json.JSONEncoder(sort_keys=True)


def _json_line(report, code):
    """A report as one JSON line: every field but the text, and ok, with
    the keys in sorted order.  A field that is a function is written as
    the value it returns, and a parsing.JSONText value as it is."""
    payload = {k: v for k, v in report.items() if k != "text"}
    payload["ok"] = code == EXIT_OK
    parts = ["{"]
    for k, v in sorted(payload.items()):
        if callable(v):
            v = v()
        parts += (_ENCODER.encode(k), ": ",
                  v if type(v) is parsing.JSONText else _ENCODER.encode(v), ", ")
    parts[-1] = "}\n"
    return "".join(parts)


def _answer(command, opts, fmt):
    """The answer line of one request, in fmt, and its exit code.  The
    report, and the objects of the answer it holds, go when this returns,
    before the line is written."""
    report, code = run_request(command, opts)
    if fmt == "json":
        return _json_line(report, code), code
    return report["text"]() + "\n", code


def _nonnegative_int(text):
    import argparse

    if not text.isascii() or not text.isdigit():
        raise argparse.ArgumentTypeError("expected a nonnegative integer, not %r" % text)
    return int(text)


# per command, the keys it reads besides ring, I and J; it requires D and A
_KEYS = {"normalize": (), "sdepth": ("budget",), "decompose": ("budget",),
         "localize": ("D", "A"), "hilbert": ("max_degree",),
         "verify": ("D",), "fdepth": ("budget",)}
# the keys whose values are nonnegative integers; all others are strings
_NUMBERS = ("budget", "max_degree")


def _batch_request(line):
    """(command, opts) of one batch line; ValueError when it is malformed."""
    try:
        req = json.loads(line)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(req, dict):
        raise ValueError("a request must be a JSON object")
    command = req.get("command")
    if not isinstance(command, str) or command not in _COMMANDS:
        raise ValueError("unknown command %r" % (command,))
    keys = ("ring", "I", "J") + _KEYS[command]
    strings = [key for key in keys if key not in _NUMBERS]
    for key in req:
        if key not in ["command", "options"] + strings:
            raise ValueError("unknown key %r for %s" % (key, command))
    opts = req.get("options", {})
    if not isinstance(opts, dict):
        raise ValueError("options must be a JSON object")
    for key in opts:
        if key not in keys:
            raise ValueError("unknown option %r for %s" % (key, command))
    opts = dict(opts, **{key: req[key] for key in strings if key in req})
    for key in keys:
        value = opts.get(key)
        if key not in opts:
            if key in strings and key not in ("I", "J"):
                raise ValueError("missing %s" % key)
        elif key in strings:
            if not isinstance(value, str):
                raise ValueError("%s must be a string" % key)
        elif isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ValueError("%s must be a nonnegative integer, not %r" % (key, value))
    return command, opts


def _batch(stdin, stdout):
    worst = EXIT_OK
    internal = False
    # a stream over bytes is read as bytes and each line decoded by itself,
    # so a line that is not UTF-8 is one bad request (UnicodeDecodeError is
    # a ValueError) and not the end of the stream
    for line in getattr(stdin, "buffer", stdin):
        try:
            line = (line.decode() if type(line) is bytes else line).strip()
            if not line:
                continue
            command, opts = _batch_request(line)
        except ValueError as exc:
            code = EXIT_MATH
            answer = _json_line({"error": "bad request: %s" % exc}, code)
        else:
            try:
                answer, code = _answer(command, opts, "json")
            except Exception as exc:
                # the stream must outlive any one line; imported here to
                # keep traceback off the start-up path of every run
                import traceback

                traceback.print_exc()
                code = EXIT_INTERNAL
                answer = _json_line(
                    {"error": "internal error: %s: %s" % (type(exc).__name__, exc)}, code)
                internal = True
        stdout.write(answer)
        worst = max(worst, code)
    return EXIT_INTERNAL if internal else worst


_HELP = {"ring": 'e.g. "n=3 invert={2,3}"', "I": 'ideal, e.g. "(x, y^2)"',
         "A": "indices to invert, e.g. {1}"}


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="stanleydec",
        description="Stanley decompositions in localized polynomial rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, keys in _KEYS.items():
        # an option left out is left out of opts too: its default is the _cmd_ one
        p = sub.add_parser(command, argument_default=argparse.SUPPRESS)
        p.add_argument("--format", choices=("text", "json"), default="text")
        for key in ("ring", "I", "J") + keys:
            flag = "--" + key.replace("_", "-")
            if key in _NUMBERS:
                p.add_argument(flag, type=_nonnegative_int)
            else:
                p.add_argument(flag, required=key not in ("I", "J"), help=_HELP.get(key))
    sub.add_parser("batch")
    return parser


def main(argv=None, stdin=None, stdout=None):
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else list(argv)
    # batch reads no arguments, so answering it builds no parser, which
    # costs more than a short request
    opts = {"command": "batch"} if argv == ["batch"] else vars(build_parser().parse_args(argv))
    command = opts.pop("command")
    if command == "batch":
        return _batch(stdin, stdout)
    fmt = opts.pop("format")
    answer, code = _answer(command, opts, fmt)
    stdout.write(answer)
    return code


if __name__ == "__main__":
    sys.exit(main())

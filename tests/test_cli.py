import argparse
import io
import json
import os
import random
import subprocess
import sys
from math import comb

import pytest

import reference_json
from stanleydec import cli, hilbert, parsing, solver
from stanleydec.ring import RingContext

from util import random_quotient, recursion_headroom, ring_text


def run(argv, stdin_text=""):
    out = io.StringIO()
    code = cli.main(argv, stdin=io.StringIO(stdin_text), stdout=out)
    return code, out.getvalue()


class TestSdepth:
    def test_maximal_ideal(self):
        code, out = run(["sdepth", "--ring", "n=3", "--I", "(x, y, z)"])
        assert code == 0
        assert out.splitlines()[0] == "sdepth = 2"
        assert "witness:" in out

    def test_json_format(self):
        code, out = run(
            ["sdepth", "--ring", "n=3", "--I", "(x, y, z)", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] and payload["sdepth"] == 2
        assert len(payload["witness"]["spaces"]) == 4

    def test_localized_instance(self):
        code, out = run(
            ["sdepth", "--ring", "n=3 invert={1}", "--I", "(x, y, z)"]
        )
        assert code == 0
        assert out.splitlines()[0] == "sdepth = 3"

    @pytest.mark.parametrize("ring, I, J", [
        ("n=3", "(x, y, z)", "(0)"),
        ("n=3 invert={3}", "(x, y^2)", "(x^2)"),
        ("n=2", "(1)", "(x^2, y^2)"),
    ])
    def test_decompose_answers_as_sdepth(self, ring, I, J):
        """decompose gives sdepth's witness under the key decomposition."""
        argv = ["--ring", ring, "--I", I, "--J", J, "--format", "json"]
        sdepth = json.loads(run(["sdepth"] + argv)[1])
        decompose = json.loads(run(["decompose"] + argv)[1])
        assert decompose["decomposition"] == sdepth["witness"]
        assert decompose["sdepth"] == sdepth["sdepth"]
        assert decompose.keys() == {"ok", "sdepth", "decomposition"}


class TestHilbert:
    def test_final_example(self):
        code, out = run(
            [
                "hilbert",
                "--ring", "n=3 invert={3}",
                "--I", "(x, y^2)",
                "--J", "(x^2)",
            ]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "H(t) = (t + 2*t^2 + t^3) / (1-t)^2"
        assert lines[1] == "maximal spaces: 4"
        assert lines[2].endswith("[0, 1, 4, 8, 12, 16, 20, 24, 28, 32, 36]")

    def test_max_degree_flag(self):
        code, out = run(
            [
                "hilbert",
                "--ring", "n=1",
                "--I", "(1)",
                "--max-degree", "3",
                "--format", "json",
            ]
        )
        assert code == 0
        assert json.loads(out)["coefficients"] == [1, 1, 1, 1]

    def test_no_search_behind_the_series(self, monkeypatch):
        """m in K[x1..x6] needs 42 nodes for its sdepth; its series is
        answered with the interval search out of reach."""
        def no_search(*args):
            raise AssertionError("hilbert ran the interval search")

        monkeypatch.setattr(cli.solver, "find_partition", no_search)
        code, out = run(["hilbert", "--ring", "n=6", "--I", "(x1, x2, x3, x4, x5, x6)",
                         "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        # S/m is the field, so H = 1/(1-t)^6 - 1
        assert payload["coefficients"] == [0] + [comb(d + 5, 5) for d in range(1, 11)]
        assert payload["maximal_spaces"] == 1

    def test_zero_module(self):
        code, out = run(["hilbert", "--ring", "n=2", "--I", "(x)", "--J", "(x)"])
        assert code == 2
        assert "zero module" in out


class TestLocalize:
    ARGS = [
        "localize",
        "--ring", "n=3",
        "--I", "(x, y, z)",
        "--D", "x*K[x, y] + y*K[y, z] + z*K[x, z] + x*y*z*K[x, y, z]",
        "--A", "{1}",
    ]

    def test_six_spaces(self):
        code, out = run(self.ARGS + ["--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["decomposition"]["spaces"]) == 6
        assert payload["ring"] == {"n": 3, "invert": [1]}
        assert payload["sdepth_of"] == 2

    def test_text_output(self):
        code, out = run(self.ARGS)
        assert code == 0
        assert out.count("K[") == 6
        assert "x^-1" in out


class TestVerify:
    def test_valid(self):
        code, out = run(
            [
                "verify",
                "--ring", "n=3",
                "--I", "(y)",
                "--J", "(x*y, y*z)",
                "--D", "y*K[y]",
            ]
        )
        assert code == 0
        assert out.startswith("valid")

    def test_invalid_reports_witness(self):
        code, out = run(
            [
                "verify",
                "--ring", "n=1",
                "--I", "(1)",
                "--D", "K[x] + x*K[x]",
                "--format", "json",
            ]
        )
        assert code == 0   # verification ran fine; the verdict is in the payload
        payload = json.loads(out)
        assert not payload["valid"]
        assert payload["failure"] == "disjointness"
        assert payload["witness"] == [1]

    def test_box_bound_is_a_usage_error(self, capsys):
        """The verdict on the clamp box is exact, so the box is not a
        setting: the clamp bound is reported and --box-bound is refused."""
        argv = ["verify", "--ring", "n=1", "--I", "(x^3)", "--D", "x^3*K[x]"]
        code, out = run(argv)
        assert code == 0
        assert "bound 4" in out
        with pytest.raises(SystemExit) as info:
            run(argv + ["--box-bound", "7"])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class _CountingSlot:
    """Stands in for a slot of StanleySpace and counts its writes: every
    way of making a space, the constructor or a slot filled in bulk,
    writes each slot once through the class attribute."""

    def __init__(self, slot):
        self.slot = slot
        self.writes = 0

    def __get__(self, obj, cls=None):
        return self if obj is None else self.slot.__get__(obj, cls)

    def __set__(self, obj, value):
        self.writes += 1
        self.slot.__set__(obj, value)


class TestNoSpaceObjects:
    """Commands answer from the columns of a decomposition: no command
    makes a StanleySpace, in JSON or in text, over polynomial and
    localized rings, with a search, at the singleton level, for a valid
    and an invalid D, and for a localization."""

    REQUESTS = [
        ["sdepth", "--ring", "n=3 invert={3}", "--I", "(x, y^2)", "--J", "(x^2)"],
        ["decompose", "--ring", "n=3", "--I", "(x, y, z)"],
        ["decompose", "--ring", "n=3", "--I", "(1)", "--J", "(x^5, y^5, z^5)"],
        ["verify", "--ring", "n=3", "--I", "(y)", "--J", "(x*y, y*z)", "--D", "y*K[y]"],
        ["verify", "--ring", "n=1", "--I", "(1)", "--D", " K[ x ] +  x * K[x]"],
        TestLocalize.ARGS,
    ]

    def test_no_command_builds_a_space(self, monkeypatch):
        from stanleydec.stanley import StanleySpace

        counter = _CountingSlot(StanleySpace.root)
        monkeypatch.setattr(StanleySpace, "root", counter)
        for argv in self.REQUESTS:
            for fmt in ("json", "text"):
                code, out = run(argv + ["--format", fmt])
                assert code == 0, (argv, out)
                assert counter.writes == 0, (argv, fmt)
        # the count sees a space made either way
        StanleySpace(RingContext(1), (0,))
        assert counter.writes == 1


class TestExitCodes:
    def test_parse_error(self):
        code, out = run(["normalize", "--ring", "bogus"])
        assert code == 2
        assert out.startswith("error:")

    def test_zero_module(self):
        code, out = run(["sdepth", "--ring", "n=1", "--I", "(x)", "--J", "(x)"])
        assert code == 2
        assert "zero module" in out

    @pytest.mark.parametrize("command, message", [
        ("sdepth", "I/J is the zero module; sdepth undefined"),
        ("fdepth", "I/J is the zero module; fdepth undefined"),
        ("hilbert", "I/J is the zero module; no Hilbert series is computed"),
    ], ids=["sdepth", "fdepth", "hilbert"])
    def test_zero_module_messages(self, command, message):
        """Each command names what it does not compute."""
        code, out = run([command, "--ring", "n=2", "--I", "(x)", "--J", "(x)"])
        assert (code, out) == (2, "error: %s\n" % message)

    @pytest.mark.parametrize("argv, message", [
        (["sdepth", "--ring", "n=3 invert={4}", "--I", "(x)"],
         "inverted variable x4 out of range for n=3"),
        (["sdepth", "--ring", "n=3 invert={0}", "--I", "(x)"],
         "inverted variable x0 out of range for n=3"),
        (TestLocalize.ARGS[:-1] + ["{4}"], "inverted variable x4 out of range for n=3"),
        (TestLocalize.ARGS[:-1] + ["{0, 2}"], "inverted variable x0 out of range for n=3"),
    ], ids=["inverted-above-n", "inverted-zero", "localized-above-n", "localized-zero"])
    def test_index_out_of_range_is_named_as_written(self, argv, message):
        """Indices are 1-based in every external format, error messages too:
        the index i names the variable xi."""
        code, out = run(argv)
        assert (code, out) == (2, "error: %s\n" % message)

    def test_budget_exhausted(self):
        """(x, y, z) has low = min rho(a) = 1 below its bound 2, so the
        search at k = 2 spends the budget."""
        code, out = run(
            ["sdepth", "--ring", "n=3", "--I", "(x, y, z)", "--budget", "2"]
        )
        assert code == 3
        assert "budget" in out

    @pytest.mark.parametrize("a", [2, 11])
    def test_singleton_level_spends_no_budget(self, a):
        """(1)/(x^a, y^a, z^a) has its bound at low = 0: the singletons
        answer it with no search, so even a budget of 1 suffices."""
        J = "(x^%d, y^%d, z^%d)" % (a, a, a)
        code, out = run(["decompose", "--ring", "n=3", "--I", "(1)", "--J", J,
                         "--budget", "1", "--format", "json"])
        payload = json.loads(out)
        assert code == 0 and payload["ok"] and payload["sdepth"] == 0
        assert len(payload["decomposition"]["spaces"]) == a ** 3



LOCALIZE_D = "x*K[x, y] + y*K[y, z] + z*K[x, z] + x*y*z*K[x, y, z]"


class TestTextOutput:
    """The text each command prints, pinned byte for byte."""

    @pytest.mark.parametrize("argv, code, text", [
        (["sdepth", "--ring", "n=3", "--I", "(x, y, z)"], 0,
         "sdepth = 2\nwitness: z*K[y, z] + y*K[x, y] + x*K[x, z] + x*y*z*K[x, y, z]\n"),
        (["sdepth", "--ring", "n=3 invert={1}", "--I", "(x, y, z)"], 0,
         "sdepth = 3\nwitness: x^-1*K[x^-1, y, z] + K[x, y, z]\n"),
        (["decompose", "--ring", "n=2", "--I", "(x, y^2)", "--J", "(x^2)"], 0,
         "y^2*K[y] + x*K[y]\nsdepth = 1\n"),
        (["decompose", "--ring", "n=3 invert={3}", "--I", "(x, y^2)", "--J", "(x^2)"], 0,
         "y^2*z^-1*K[y, z^-1] + y^2*K[y, z] + x*z^-1*K[y, z^-1] + x*K[y, z]\nsdepth = 2\n"),
        (["decompose", "--ring", "n=2", "--I", "(1)", "--J", "(x^2, y^2)"], 0,
         "K + y*K + x*K + x*y*K\nsdepth = 0\n"),
        (["localize", "--ring", "n=3", "--I", "(x, y, z)", "--D", LOCALIZE_D, "--A", "{1}"], 0,
         "x*K[x, y] + K[x^-1, y] + z*K[x, z] + x^-1*z*K[x^-1, z] + x*y*z*K[x, y, z]"
         " + y*z*K[x^-1, y, z]\ndropped input spaces: [1]\n"),
        (["localize", "--ring", "n=2", "--I", "(x, y)", "--D", "x*K[x] + y*K[x, y]",
          "--A", "{2}"], 0,
         "y*K[x, y] + K[x, y^-1]\ndropped input spaces: [0]\n"),
        (["sdepth", "--ring", "n=3", "--I", "(x, y, z)", "--budget", "2"], 3,
         "error: interval search budget exceeded after 3 nodes, from k = 2 set by "
         "the Hilbert depth\n"),
    ], ids=["sdepth", "sdepth-laurent", "decompose", "decompose-laurent",
            "decompose-singletons", "localize", "localize-drops", "budget-error"])
    def test_pinned(self, argv, code, text):
        assert run(argv) == (code, text)

    REQUESTS = [
        {"command": "sdepth", "ring": "n=3 invert={1}", "I": "(x, y, z)"},
        {"command": "decompose", "ring": "n=3", "I": "(1)", "J": "(x^3, y^3, z^3)"},
        {"command": "localize", "ring": "n=3", "I": "(x, y, z)", "D": LOCALIZE_D,
         "A": "{1}"},
    ]

    def test_batch_and_json_render_no_text(self, monkeypatch):
        def no_text(*args):
            raise AssertionError("text rendered")

        monkeypatch.setattr(parsing, "decomposition_str", no_text)
        code, out = run(["batch"], "".join(json.dumps(r) + "\n" for r in self.REQUESTS))
        assert code == 0
        assert all(json.loads(line)["ok"] for line in out.splitlines())
        for req in self.REQUESTS:
            argv = [req["command"]] + [a for key in ("ring", "I", "J", "D", "A")
                                       if key in req for a in ("--" + key, req[key])]
            code, out = run(argv + ["--format", "json"])
            assert code == 0 and json.loads(out)["ok"]

    def test_text_renders_no_json(self, monkeypatch):
        """A text answer calls neither JSON writer, and its bytes are those
        it has when the writers work."""
        requests = self.REQUESTS + [
            {"command": "hilbert", "ring": "n=3 invert={3}", "I": "(x, y^2)", "J": "(x^2)"}]
        argvs = [[req["command"]] + [a for key in ("ring", "I", "J", "D", "A")
                                     if key in req for a in ("--" + key, req[key])]
                 for req in requests]
        answers = [run(argv) for argv in argvs]

        def no_json(*args):
            raise AssertionError("JSON built")

        monkeypatch.setattr(parsing, "decomposition_to_json", no_json)
        monkeypatch.setattr(parsing, "series_to_json", no_json)
        assert [run(argv) for argv in argvs] == answers
        assert [code for code, _ in answers] == [0] * 4
        assert answers[3][1].startswith("H(t) = ")

class TestParser:
    SDEPTH = ["sdepth", "--ring", "n=3", "--I", "(x, y, z)"]

    def test_batch_builds_no_parser(self, monkeypatch):
        """batch reads no arguments, so answering it builds no
        ArgumentParser; a command with arguments builds its parser."""
        built = []
        init = argparse.ArgumentParser.__init__

        def recorded(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", recorded)
        line = '{"command": "normalize", "ring": "n=1", "I": "(x)"}\n'
        assert run(["batch"], line)[0] == 0
        assert run(("batch",), line)[0] == 0
        assert built == []
        assert run(self.SDEPTH)[0] == 0
        assert "stanleydec" in built

    @pytest.mark.parametrize("argv, listed", [(["--help"], "batch"),
                                              (["sdepth", "--help"], "--budget")],
                             ids=["stanleydec", "sdepth"])
    def test_help(self, argv, listed, capsys):
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 0
        assert listed in capsys.readouterr().out

    def test_options_do_not_carry_over(self, monkeypatch):
        budgets = []
        sdepth = cli.solver.sdepth

        def recorded(I, J, budget):
            budgets.append(budget)
            return sdepth(I, J, budget=budget)

        monkeypatch.setattr(cli.solver, "sdepth", recorded)
        assert run(self.SDEPTH + ["--budget", "5"])[0] == 0
        assert run(self.SDEPTH)[0] == 0
        assert budgets == [5, cli.solver.DEFAULT_BUDGET]

    @pytest.mark.parametrize("argv", [
        ["sdepth", "--ring", "n=2", "--I", "(x, y)", "--budget", "-5"],
        ["hilbert", "--ring", "n=2", "--I", "(x, y)", "--max-degree", "-1"],
        ["sdepth", "--ring", "n=2", "--I", "(x, y)", "--budget", "many"],
    ], ids=["negative-budget", "negative-max-degree", "word-budget"])
    def test_usage_error_leaves_the_next_call_alone(self, argv, capsys):
        """A negative --budget or --max-degree is a usage error (exit 2), as
        in batch, not a search that runs out after one node."""
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 2
        assert "expected a nonnegative integer" in capsys.readouterr().err
        code, out = run(self.SDEPTH)
        assert code == 0 and out.splitlines()[0] == "sdepth = 2"

    @pytest.mark.parametrize("argv", [
        ["hilbert", "--ring", "n=1", "--I", "(x)", "--budget", "1"],
        ["sdepth", "--ring", "n=1", "--I", "(x)", "--box-bound", "3"],
    ], ids=["hilbert-budget", "sdepth-box-bound"])
    def test_flag_of_another_command_is_a_usage_error(self, argv, capsys):
        """A command takes only the flags it reads, as batch takes only
        the options it reads: a flag it would ignore is refused."""
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_huge_max_degree_is_refused(self):
        """A coefficient per degree up to 10^12 would not fit in memory, so
        the degree is refused (exit 2); the limit itself is answered."""
        argv = ["hilbert", "--ring", "n=1", "--I", "(x)", "--format", "json", "--max-degree"]
        code, out = run(argv + ["1000000000000"])
        assert code == 2
        assert json.loads(out)["error"] == "expansion degree exceeds the limit of 100000"
        code, out = run(argv + [str(hilbert.MAX_DEGREE)])
        assert code == 0 and json.loads(out)["coefficients"] == [0] + [1] * hilbert.MAX_DEGREE


class TestNormalize:
    def test_strips_inverted_variables(self):
        code, out = run(
            ["normalize", "--ring", "n=3 invert={2}", "--I", "(x*y, y*z)"]
        )
        assert code == 0
        assert out.strip() == "I = (z, x)"


class TestFdepth:
    def test_principal_quotient(self):
        code, out = run(
            ["fdepth", "--ring", "n=3", "--I", "(y)", "--J", "(x*y, y*z)"]
        )
        assert code == 0
        assert out.strip() == "fdepth = 1"


class TestBatch:
    def test_mixed_requests(self):
        requests = [
            {"command": "sdepth", "ring": "n=3", "I": "(x, y, z)"},
            {"command": "sdepth", "ring": "n=1", "I": "(x)", "J": "(x)"},
            {"command": "nonsense"},
        ]
        stdin = "\n".join(json.dumps(r) for r in requests) + "\n"
        code, out = run(["batch"], stdin)
        lines = [json.loads(l) for l in out.splitlines()]
        assert len(lines) == 3
        assert lines[0]["ok"] and lines[0]["sdepth"] == 2
        assert not lines[1]["ok"] and "zero module" in lines[1]["error"]
        assert not lines[2]["ok"]
        assert code == 2

    def test_empty_stdin(self):
        code, out = run(["batch"], "")
        assert code == 0 and out == ""

    def test_blank_lines_are_skipped(self):
        """A line of nothing but whitespace gets no answer."""
        line = json.dumps({"command": "normalize", "ring": "n=1", "I": "(x)"})
        code, out = run(["batch"], "\n" + line + "\n \t\n\n" + line + "\n  ")
        assert code == 0
        assert out == run(["batch"], line + "\n" + line + "\n")[1]
        assert out.count("\n") == 2

    def test_line_that_is_not_utf8_is_bad_request(self):
        """A stream over bytes is decoded line by line: a line that is not
        UTF-8 is answered as a bad request, and the lines around it are
        answered too."""
        good = b'{"command": "normalize", "ring": "n=1", "I": "(x)"}\n'
        stdin = io.TextIOWrapper(io.BytesIO(good + b"\xff\n" + good),
                                 encoding="utf-8", errors="strict")
        out = io.StringIO()
        code = cli.main(["batch"], stdin=stdin, stdout=out)
        lines = [json.loads(line) for line in out.getvalue().splitlines()]
        assert len(lines) == 3 and code == 2
        assert lines[0]["ok"] and lines[2]["ok"] and lines[0] == lines[2]
        assert not lines[1]["ok"]
        assert lines[1]["error"].startswith("bad request: 'utf-8' codec can't decode byte 0xff")

    def test_budget_dominates_exit_code(self):
        requests = [
            {
                "command": "sdepth",
                "ring": "n=3",
                "I": "(x, y, z)",
                "options": {"budget": 2},
            },
        ]
        code, out = run(["batch"], json.dumps(requests[0]) + "\n")
        assert code == 3
        assert not json.loads(out)["ok"]

    def test_sdepth_of_the_largest_ring(self):
        """K[x1..x10000] is one space of dimension 10000.  Its Hilbert series
        bounds the search, and summing it must not pad the zero numerator
        once per variable, which takes seconds at this n."""
        line = json.dumps({"command": "sdepth", "ring": "n=10000", "I": "(1)"})
        code, out = run(["batch"], line + "\n")
        answer = json.loads(out)
        assert code == 0 and answer["sdepth"] == 10000
        assert answer["witness"]["spaces"] == [
            {"root": [0] * 10000, "zplus": list(range(1, 10001)), "zminus": []}]

    def test_large_poset_keeps_stream_alive(self):
        """1331 singleton intervals, then a second request on the same
        stream: neither may hit a recursion limit."""
        requests = [
            {"command": "decompose", "ring": "n=3", "I": "(1)",
             "J": "(x^11, y^11, z^11)"},
            {"command": "sdepth", "ring": "n=3", "I": "(x, y, z)"},
        ]
        stdin = "\n".join(json.dumps(r) for r in requests) + "\n"
        code, out = run(["batch"], stdin)
        lines = [json.loads(l) for l in out.splitlines()]
        assert code == 0 and len(lines) == 2
        assert lines[0]["ok"] and lines[0]["sdepth"] == 0
        assert len(lines[0]["decomposition"]["spaces"]) == 1331
        assert lines[1]["ok"] and lines[1]["sdepth"] == 2

    VALID = {"command": "sdepth", "ring": "n=3", "I": "(x, y, z)"}

    def test_long_filtration_keeps_stream_alive(self):
        """fdepth of K[x]/(x^300) walks a 300-step chain; with the recursion
        limit 100 frames above the current depth it must still be answered,
        and so must the next line."""
        requests = [
            {"command": "fdepth", "ring": "n=1", "I": "(1)", "J": "(x^300)"},
            self.VALID,
        ]
        stdin = "\n".join(json.dumps(r) for r in requests) + "\n"
        with recursion_headroom(100):
            code, out = run(["batch"], stdin)
        lines = [json.loads(l) for l in out.splitlines()]
        assert code == 0 and len(lines) == 2
        assert lines[0]["ok"] and lines[0]["fdepth"] == 0 and lines[0]["complete"]
        assert len(lines[0]["witness"]["steps"]) == 300
        assert lines[1]["ok"] and lines[1]["sdepth"] == 2

    @pytest.mark.parametrize("n", ["99999999999", "9" * 5000], ids=["11-digits", "5000-digits"])
    def test_too_many_variables_is_bad_input(self, n):
        """A huge n is refused before anything is allocated for it, also
        when it has more digits than int() converts."""
        huge = {"command": "sdepth", "ring": "n=" + n, "I": "(x1)"}
        stdin = json.dumps(huge) + "\n" + json.dumps(self.VALID) + "\n"
        code, out = run(["batch"], stdin)
        lines = [json.loads(l) for l in out.splitlines()]
        assert code == 2 and len(lines) == 2
        assert lines[0] == {"ok": False, "error": "n exceeds the limit of 10000 variables"}
        assert lines[1]["ok"] and lines[1]["sdepth"] == 2

    @pytest.mark.parametrize("I, error", [
        ("(x^%s)" % ("9" * 5000), "exponent of more than 1000 digits (column 0)"),
        ("(x%s)" % ("9" * 5000), "variable x%s out of range for n=2" % ("9" * 5000)),
        ("(x^99999999999999999999, y)", "the characteristic box has more than 1000000 cells"),
        ("(x^1000, y^999)", "the characteristic box has more than 1000000 cells"),
    ], ids=["5000-digit-exponent", "5000-digit-variable", "20-digit-exponent", "box-cap"])
    def test_huge_numbers_are_bad_input(self, I, error):
        """Digit strings too long for int() and boxes too large to walk
        are refused with exit 2, and the stream goes on."""
        huge = {"command": "fdepth", "ring": "n=2", "I": I}
        stdin = json.dumps(huge) + "\n" + json.dumps(self.VALID) + "\n"
        code, out = run(["batch"], stdin)
        lines = [json.loads(l) for l in out.splitlines()]
        assert code == 2 and len(lines) == 2
        assert lines[0] == {"ok": False, "error": error}
        assert lines[1]["ok"] and lines[1]["sdepth"] == 2

    @pytest.mark.parametrize("command, fields", [
        ("verify", {}), ("localize", {"A": "{1}"}),
    ])
    def test_verification_grid_cap(self, command, fields):
        """K against (1)/(x1, ..., x28) is cut at 0 and 1 on every axis, a
        grid of 2^28 cells: refused with exit 2 before any mask is built,
        and the stream goes on."""
        J = "(%s)" % ", ".join("x%d" % i for i in range(1, 29))
        huge = {"command": command, "ring": "n=28", "I": "(1)", "J": J, "D": "K", **fields}
        stdin = json.dumps(huge) + "\n" + json.dumps(self.VALID) + "\n"
        code, out = run(["batch"], stdin)
        lines = [json.loads(l) for l in out.splitlines()]
        assert code == 2 and len(lines) == 2
        assert lines[0] == {"ok": False,
                            "error": "the verification grid has more than 134217728 cells"}
        assert lines[1]["ok"] and lines[1]["sdepth"] == 2

    def test_huge_max_degree_keeps_stream_alive(self):
        huge = {"command": "hilbert", "ring": "n=1", "I": "(x)",
                "options": {"max_degree": 10**12}}
        stdin = json.dumps(huge) + "\n" + json.dumps(self.VALID) + "\n"
        code, out = run(["batch"], stdin)
        lines = [json.loads(l) for l in out.splitlines()]
        assert code == 2 and len(lines) == 2
        assert lines[0] == {"ok": False, "error": "expansion degree exceeds the limit of 100000"}
        assert lines[1]["ok"] and lines[1]["sdepth"] == 2

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this interpreter converts integers of any size to text")
    def test_unprintable_coefficient_is_refused(self, monkeypatch):
        """A coefficient with more digits than the interpreter converts to
        text, as at degree 10,000 of K[x1..x10000], is refused (exit 2) by
        batch, whose stream goes on, and by the text command.  The expansion
        is replaced by one with such a coefficient, as that one takes a
        minute."""
        limit = sys.get_int_max_str_digits()
        monkeypatch.setattr(cli.hilbert, "expand", lambda series, d: [1, 10**limit])
        huge = {"command": "hilbert", "ring": "n=1", "I": "(x)", "options": {"max_degree": 1}}
        stdin = json.dumps(huge) + "\n" + json.dumps(self.VALID) + "\n"
        code, out = run(["batch"], stdin)
        lines = [json.loads(l) for l in out.splitlines()]
        error = ("a coefficient has more than %d digits, the limit for printing an integer"
                 % limit)
        assert code == 2 and len(lines) == 2
        assert lines[0] == {"ok": False, "error": error}
        assert lines[1]["ok"] and lines[1]["sdepth"] == 2
        assert run(["hilbert", "--ring", "n=1", "--I", "(x)"]) == (2, "error: %s\n" % error)

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this interpreter converts integers of any size to text")
    def test_unprintable_last_coefficient_is_refused_before_expanding(self, monkeypatch):
        """At degree 10,000 of K[x1..x10000] the coefficient is C(19999, 9999),
        of about 6,000 digits: the request is refused from that coefficient
        alone, without the expansion, which takes about a minute."""
        def expand(series, d):
            raise AssertionError("expanded")

        monkeypatch.setattr(cli.hilbert, "expand", expand)
        code, out = run(["hilbert", "--ring", "n=10000", "--I", "(1)",
                         "--max-degree", "10000", "--format", "json"])
        error = ("a coefficient has more than %d digits, the limit for printing an integer"
                 % sys.get_int_max_str_digits())
        assert (code, json.loads(out)) == (2, {"ok": False, "error": error})

    def test_unserializable_report_keeps_stream_alive(self, monkeypatch):
        """Each line's JSON is built inside the guard of that line."""
        monkeypatch.setattr(cli.hilbert, "count_maximal_spaces", lambda series: object())
        requests = [{"command": "hilbert", "ring": "n=1", "I": "(x)"}, self.VALID]
        stdin = "\n".join(json.dumps(r) for r in requests) + "\n"
        code, out = run(["batch"], stdin)
        lines = [json.loads(l) for l in out.splitlines()]
        assert code == 1 and len(lines) == 2
        assert lines[0]["error"].startswith("internal error: TypeError")
        assert lines[1]["ok"] and lines[1]["sdepth"] == 2

    @classmethod
    def run_capped(cls, requests, limit=256 << 20):
        """The batch answers to requests, from a process whose address
        space is capped at limit bytes."""
        code, out, stderr = cls.answer_capped(requests, limit)
        return code, [json.loads(l) for l in out.splitlines()], stderr

    @staticmethod
    def answer_capped(requests, limit):
        """(exit code, stdout, stderr) of batch, answering requests in a
        process whose address space is capped at limit bytes."""
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (%d, %d))\n"
            "from stanleydec import cli\n"
            "sys.exit(cli.main(['batch']))\n" % (limit, limit)
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            input="\n".join(json.dumps(r) for r in requests) + "\n", timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def test_near_cap_box_answers_in_bounded_memory(self):
        """fdepth over a box of 100,001 cells with budget 1, then a short
        request, in a capped process.  The search keeps O(cells) bits per
        mask it holds, a few kilobytes here; masks kept per candidate
        would take gigabytes."""
        code, lines, stderr = self.run_capped([
            {"command": "fdepth", "ring": "n=1", "I": "(1)", "J": "(x^100000)",
             "options": {"budget": 1}},
            self.VALID,
        ])
        assert code == 3 and len(lines) == 2, stderr
        assert lines[0] == {"ok": False,
                            "error": "no prime filtration found within the search bound"}
        assert lines[1]["ok"] and lines[1]["sdepth"] == 2

    def test_near_cap_hilbert_answers_in_bounded_memory(self):
        """The series of two quotients whose posets are 998,000 and 970,298
        cells of boxes of 10^6, then a short request, in a process capped
        at 64 MB.  The series is counted off the runs of the poset's mask;
        one tuple per cell would not fit, nor would a decomposition."""
        code, lines, stderr = self.run_capped([
            {"command": "hilbert", "ring": "n=2", "I": "(x1, x2)",
             "J": "(x1^999, x2^999)"},
            {"command": "hilbert", "ring": "n=3", "I": "(x, y, z)",
             "J": "(x^99, y^99, z^99)"},
            self.VALID,
        ], limit=64 << 20)
        assert code == 0 and len(lines) == 3, stderr
        assert lines[0]["ok"] and lines[0]["maximal_spaces"] == 998000
        assert lines[0]["coefficients"] == [0] + [d + 1 for d in range(1, 11)]
        assert lines[1]["ok"] and lines[1]["maximal_spaces"] == 970298
        assert lines[1]["coefficients"] == [0] + [(d + 1) * (d + 2) // 2 for d in range(1, 11)]
        assert lines[2]["ok"] and lines[2]["sdepth"] == 2

    def test_long_series_answers_in_bounded_memory(self):
        """The series of (x)/(x^999999) has 999,998 nonzero coefficients; its
        text, about 13 MB, is written in a process capped at 160 MB, where
        the lists json.dumps would encode do not fit."""
        code, lines, stderr = self.run_capped([
            {"command": "hilbert", "ring": "n=1", "I": "(x)", "J": "(x^999999)"},
            self.VALID,
        ], limit=160 << 20)
        assert code == 0 and len(lines) == 2, stderr
        series = lines[0]["series"]
        assert series["pole"] == 0 and series["num"] == [[1, k] for k in range(1, 999999)]
        assert lines[1]["ok"] and lines[1]["sdepth"] == 2

    def test_max_spaces_decompose_answers_in_bounded_memory(self):
        """The 999,998 singletons of (x)/(x^999999), near MAX_SPACES, about
        47 MB of JSON, in a process capped at 256 MB, which then answers a
        short request: the lift keeps them as one run, one join writes
        them, and the report is gone before the line is written."""
        code, out, stderr = self.answer_capped([
            {"command": "decompose", "ring": "n=1", "I": "(x)", "J": "(x^999999)"},
            self.VALID,
        ], limit=256 << 20)
        assert code == 0, stderr
        answer, short = out.splitlines()
        spaces = ", ".join(['{"root": [%d], "zminus": [], "zplus": []}' % a
                            for a in range(1, 999999)])
        assert answer == ('{"decomposition": {"ring": {"invert": [], "n": 1}, "spaces": [%s]}, '
                          '"ok": true, "sdepth": 0}' % spaces)
        assert json.loads(short)["sdepth"] == 2

    def test_max_spaces_inverted_decompose_answers_in_bounded_memory(self):
        """The same over K[x, y, y^-1]: the 499,999 singletons of
        (1)/(x^499999) fan out to 999,998 spaces, about 47 MB of JSON,
        answered in a process capped at 256 MB.  The lift keeps one run
        item with two copies per t, in root order: no space is fanned out
        into a copy of the answer and none is sorted."""
        code, out, stderr = self.answer_capped([
            {"command": "decompose", "ring": "n=2 invert={2}", "I": "(1)", "J": "(x1^499999)"},
            self.VALID,
        ], limit=256 << 20)
        assert code == 0, stderr
        answer, short = out.splitlines()
        spaces = ", ".join(['{"root": [%d, -1], "zminus": [2], "zplus": []}, '
                            '{"root": [%d, 0], "zminus": [], "zplus": [2]}' % (a, a)
                            for a in range(499999)])
        assert answer == ('{"decomposition": {"ring": {"invert": [2], "n": 2}, "spaces": [%s]}, '
                          '"ok": true, "sdepth": 1}' % spaces)
        assert json.loads(short)["sdepth"] == 2

    def test_too_many_spaces_answers_in_bounded_memory(self):
        """sdepth of the whole ring with 26 inverted variables has 2^26
        spaces, some 200 GB: refused before they are built (exit 2), in a
        capped process, which then answers a short request."""
        ring = "n=26 invert={%s}" % ",".join(map(str, range(1, 27)))
        code, lines, stderr = self.run_capped([
            {"command": "sdepth", "ring": ring, "I": "(1)"},
            self.VALID,
        ])
        assert code == 2 and len(lines) == 2, stderr
        assert lines[0] == {"ok": False,
                            "error": "the answer would have more than 1000000 Stanley spaces"}
        assert lines[1]["ok"] and lines[1]["sdepth"] == 2

    @pytest.mark.parametrize("bad, error", [
        (dict(VALID, budget=1), "unknown key 'budget' for sdepth"),
        (dict(VALID, options={"budget": 1, "depth": 2}), "unknown option 'depth' for sdepth"),
        (dict(VALID, options={"max_degree": 3}), "unknown option 'max_degree' for sdepth"),
        ({"command": "verify", "ring": "n=1", "I": "(x^3)", "D": "x^3*K[x]",
          "options": {"box_bound": 7}}, "unknown option 'box_bound' for verify"),
    ], ids=["top-level-budget", "unknown-option", "option-of-another-command",
            "verify-box-bound"])
    def test_unknown_key_is_bad_request(self, bad, error):
        """A key the command does not read is refused, not ignored: a
        top-level budget would otherwise run at the default budget."""
        stdin = json.dumps(bad) + "\n" + json.dumps(self.VALID) + "\n"
        code, out = run(["batch"], stdin)
        lines = [json.loads(l) for l in out.splitlines()]
        assert code == 2 and len(lines) == 2
        assert lines[0] == {"ok": False, "error": "bad request: " + error}
        assert lines[1]["ok"] and lines[1]["sdepth"] == 2

    # a request of a command that reads each numeric option
    READS = {"budget": VALID,
             "max_degree": {"command": "hilbert", "ring": "n=1", "I": "(x)"}}

    @pytest.mark.parametrize("key, value", [
        ("budget", "many"),
        ("budget", -1),
        ("budget", True),
        ("budget", None),
        ("max_degree", "5"),
        ("max_degree", -2),
        ("max_degree", 2.5),
    ])
    def test_bad_option_keeps_stream_alive(self, key, value):
        bad = dict(self.READS[key], options={key: value})
        stdin = json.dumps(bad) + "\n" + json.dumps(self.VALID) + "\n"
        code, out = run(["batch"], stdin)
        lines = [json.loads(l) for l in out.splitlines()]
        assert code == 2 and len(lines) == 2
        assert not lines[0]["ok"]
        assert lines[0]["error"].startswith("bad request: %s must be" % key)
        assert lines[1]["ok"] and lines[1]["sdepth"] == 2

    def test_malformed_request_shapes(self):
        requests = ["[1, 2]", json.dumps({"command": ["sdepth"]}),
                    json.dumps(dict(self.VALID, options=5)),
                    json.dumps(dict(self.VALID, ring=3)),
                    json.dumps(self.VALID)]
        code, out = run(["batch"], "\n".join(requests) + "\n")
        lines = [json.loads(l) for l in out.splitlines()]
        assert code == 2 and len(lines) == 5
        assert all(l["error"].startswith("bad request") for l in lines[:4])
        assert lines[4]["ok"]

    def test_deeply_nested_line_keeps_stream_alive(self):
        """json.loads raises RecursionError, not ValueError, on 200,000
        nested arrays: the line is a bad request and the next is answered."""
        stdin = "[" * 200_000 + "\n" + json.dumps(self.VALID) + "\n"
        code, out = run(["batch"], stdin)
        lines = [json.loads(l) for l in out.splitlines()]
        assert code == 2 and len(lines) == 2
        assert lines[0] == {"ok": False, "error": "bad request: JSON nested too deeply"}
        assert lines[1]["ok"] and lines[1]["sdepth"] == 2

    def test_internal_error_keeps_stream_alive(self, monkeypatch):
        def broken(opts):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._COMMANDS, "normalize", broken)
        requests = [{"command": "normalize", "ring": "n=1"}, self.VALID]
        stdin = "\n".join(json.dumps(r) for r in requests) + "\n"
        code, out = run(["batch"], stdin)
        lines = [json.loads(l) for l in out.splitlines()]
        assert code == 1 and len(lines) == 2
        assert lines[0] == {"ok": False, "error": "internal error: RuntimeError: boom"}
        assert lines[1]["ok"] and lines[1]["sdepth"] == 2

    def test_internal_error_outranks_other_failures(self, monkeypatch):
        """Exit 1 is the smallest failure code, but a crash on one line
        must still show in the exit code of a stream whose other lines
        fail with 2 or 3."""
        def broken(opts):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._COMMANDS, "normalize", broken)
        requests = [
            json.dumps({"command": "normalize", "ring": "n=1"}),
            json.dumps(dict(self.VALID, options={"budget": "many"})),
            json.dumps(dict(self.VALID, options={"budget": 2})),
        ]
        code, out = run(["batch"], "\n".join(requests) + "\n")
        lines = [json.loads(l) for l in out.splitlines()]
        assert code == 1 and len(lines) == 3
        assert lines[0]["error"].startswith("internal error")
        assert lines[1]["error"].startswith("bad request")
        assert not lines[2]["ok"] and "budget" in lines[2]["error"]

    def test_value_error_inside_a_command_is_internal(self, monkeypatch):
        """Only the request itself can be a bad request; a ValueError or
        KeyError raised while answering it is a fault of the program."""
        def broken(opts):
            raise KeyError("lost")

        monkeypatch.setitem(cli._COMMANDS, "normalize", broken)
        code, out = run(["batch"], json.dumps({"command": "normalize", "ring": "n=1"}) + "\n")
        assert code == 1
        assert json.loads(out)["error"].startswith("internal error: KeyError")

    @pytest.mark.parametrize("req", [
        {"command": "sdepth", "I": "(x)"},
        {"command": "verify", "ring": "n=1", "I": "(x)"},
        {"command": "localize", "ring": "n=1", "I": "(x)", "D": "x*K[x]"},
    ])
    def test_missing_required_key_is_bad_request(self, req):
        code, out = run(["batch"], json.dumps(req) + "\n")
        assert code == 2
        assert json.loads(out)["error"].startswith("bad request: missing")


class TestJsonLine:
    """Every answer has the bytes json.dumps(sort_keys=True) wrote for the
    report built with the dict writers of reference_json."""

    @staticmethod
    def requests():
        rng = random.Random(67)
        reqs = []
        for _ in range(30):
            ctx, I, J = random_quotient(rng, n=rng.randint(1, 4))
            base = {"ring": ring_text(ctx), "I": parsing.ideal_str(I),
                    "J": parsing.ideal_str(J)}
            D = parsing.decomposition_str(solver.sdepth(I, J).witness)
            A = "{%s}" % ",".join(str(i + 1) for i in range(ctx.n) if rng.random() < 0.5)
            reqs += [
                dict(base, command="normalize"),
                dict(base, command="sdepth", options={"budget": 1000}),
                dict(base, command="decompose"),
                dict(base, command="hilbert", options={"max_degree": rng.randint(0, 12)}),
                dict(base, command="verify", D=D),
                dict(base, command="verify", D=D.rsplit(" + ", 1)[0]),
                dict(base, command="localize", D=D, A=A),
                dict(base, command="fdepth", options={"budget": 200}),
            ]
        big = "9" * parsing.MAX_EXPONENT_DIGITS
        every = ",".join(map(str, range(1, 401)))
        return reqs + [
            {"command": "decompose", "ring": "n=0", "I": "(1)"},
            {"command": "hilbert", "ring": "n=0", "I": "(1)"},
            {"command": "localize", "ring": "n=0", "I": "(1)", "D": "K", "A": "{}"},
            # every input space dropped: no spaces
            {"command": "localize", "ring": "n=1", "I": "(1)", "J": "(x)", "D": "K", "A": "{1}"},
            {"command": "localize", "ring": "n=1", "I": "(x^%s)" % big,
             "D": "x^%s*K[x]" % big, "A": "{}"},
            {"command": "verify", "ring": "n=1", "I": "(x^%s)" % big, "D": "x^%s*K" % big},
            # coefficients of up to 120 digits
            {"command": "hilbert", "ring": "n=400 invert={%s}" % every, "I": "(1)"},
            {"command": "sdepth", "ring": "n=3", "I": "(x, y, z)", "options": {"budget": 0}},
            {"command": "hilbert", "ring": "n=1", "I": "(x)", "J": "(x)"},
            {"command": "decompose", "ring": "n=2", "I": "(x)", "J": "(y)"},
            {"command": "sdepth", "ring": "n=2", "I": "(x, q\u00e9\")"},
            {"command": "nonsense"},
        ]

    def test_same_bytes_as_the_dict_writers(self, monkeypatch):
        reqs = self.requests()
        assert {r["command"] for r in reqs} >= set(cli._COMMANDS)
        stdin = "\n".join(json.dumps(r) for r in reqs) + "\n[1]\n"
        answers = run(["batch"], stdin)
        monkeypatch.setattr(parsing, "decomposition_to_json",
                            reference_json.decomposition_to_json)
        monkeypatch.setattr(parsing, "series_to_json", reference_json.series_to_json)
        monkeypatch.setattr(cli, "_json_line", reference_json.json_line)
        assert answers == run(["batch"], stdin)
        assert answers[1].count("\n") == len(reqs) + 1

    @pytest.mark.parametrize("error", [
        "bad request: unknown command 'q\u00e9\"\\'",
        "internal error: ValueError: two\nlines\t",
        "",
    ])
    def test_error_reports(self, error):
        for code in (cli.EXIT_INTERNAL, cli.EXIT_MATH, cli.EXIT_BUDGET):
            report = {"error": error, "text": lambda: error}
            assert cli._json_line(report, code) == reference_json.json_line(report, code)

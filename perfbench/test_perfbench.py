"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from layers import Tracer  # noqa: E402

# z*K[y,z] + y*K[x,y] + x*K[x,z] + x*y*z*K[x,y,z], a decomposition of the
# maximal ideal of K[x, y, z]
MAXIMAL_3 = wl.make_request("decompose", 3, (), wl.power_of_maximal(3, 1), (), {"sdepth": 2})
SPACES_3 = [((0, 0, 1), {1, 2}, set()), ((0, 1, 0), {0, 1}, set()),
            ((1, 0, 0), {0, 2}, set()), ((1, 1, 1), {0, 1, 2}, set())]

# K[x^-1, y] + x*K[x, y] over K[x, x^-1, y] decomposes the whole ring
LAURENT = wl.make_request("decompose", 2, (0,), wl.unit(2), (), {"sdepth": 2})
LAURENT_SPACES = [((-1, 0), {1}, {0}), ((0, 0), {0, 1}, set())]


def payload(spaces, n, inverted=(), value=2):
    return {"ok": True, "sdepth": value, "decomposition": {
        "ring": {"n": n, "invert": [i + 1 for i in inverted]},
        "spaces": [{"root": list(r), "zplus": sorted(i + 1 for i in zp),
                    "zminus": sorted(i + 1 for i in zm)} for r, zp, zm in spaces]}}


def test_checker_accepts_valid_decompositions():
    assert check.classify(MAXIMAL_3, 0, payload(SPACES_3, 3)) == (check.OK, None)
    assert check.classify(LAURENT, 0, payload(LAURENT_SPACES, 2, (0,))) == (check.OK, None)


@pytest.mark.parametrize("req,spaces,n,inverted", [
    (MAXIMAL_3, SPACES_3, 3, ()), (LAURENT, LAURENT_SPACES, 2, (0,))])
@pytest.mark.parametrize("index", [0, 1])
def test_checker_rejects_dropped_or_duplicated_space(req, spaces, n, inverted, index):
    dropped = spaces[:index] + spaces[index + 1:]
    kind, problem = check.classify(req, 0, payload(dropped, n, inverted))
    assert "not covered" in problem
    duplicated = spaces + [spaces[index]]
    kind, problem = check.classify(req, 0, payload(duplicated, n, inverted))
    assert "covered 2 times" in problem


def test_checker_rejects_wrong_value_and_classifies_failures():
    assert "expected 2" in check.classify(MAXIMAL_3, 0, payload(SPACES_3, 3, value=3))[1]
    assert check.classify(MAXIMAL_3, None, None) == (check.CRASH, None)
    assert check.classify(MAXIMAL_3, 3, {"ok": False}) == (check.BUDGET, None)
    assert check.classify(MAXIMAL_3, 2, {"ok": False}) == (check.MATH, None)


def test_hilbert_direct_count():
    req = wl.make_request("hilbert", 2, (), wl.unit(2), wl.powers((2, 2)), {})
    assert check.hilbert_counts(req, 3) == [1, 2, 1, 0]
    laurent = wl.make_request("hilbert", 1, (0,), wl.unit(1), (), {})
    assert check.hilbert_counts(laurent, 2) == [1, 2, 2]


def test_associated_prime_bound():
    # the maximal ideal of K[x, y, z] is torsion-free: its one associated
    # prime is 0
    assert check.associated_prime_bound(MAXIMAL_3) == 3
    # S/(x^2, x*y) has the associated primes (x) and (x, y)
    req = wl.make_request("fdepth", 2, (), wl.unit(2), ((2, 0), (1, 1)), {})
    assert check.associated_prime_bound(req) == 0


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_generation_is_deterministic(workload):
    pool = wl.load_pool()
    a = wl.generate(workload, wl.DEFAULT_SEED, pool)
    b = wl.generate(workload, wl.DEFAULT_SEED, pool)
    assert [r.line for r in a] == [r.line for r in b]
    assert wl.digest(a) == wl.digest(b)
    assert wl.digest(wl.generate(workload, wl.HELDOUT_SEED, pool)) != wl.digest(a)


def test_every_pool_answer_is_present():
    pool = wl.load_pool()
    for workload in ("search", "fdepth"):
        for req in wl.generate(workload, wl.DEFAULT_SEED, pool):
            assert all(v is not None for v in req.expect.values())


def benchmark_names():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(monkeypatch, trace):
    """A short run on three small requests prints exactly the metrics,
    with the units, that BENCHMARK.json names."""
    small = [wl.make_request("sdepth", n, (), wl.power_of_maximal(n, 1), (),
                             {"sdepth": (n + 1) // 2}) for n in (2, 3, 4)]
    monkeypatch.setattr(run.workloads, "generate", lambda workload, seed: small)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "search", "--seconds", "0.1", "--trace", str(trace)])
    result = json.loads(out.getvalue().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == benchmark_names()[trace]


def test_tracer_restores_the_program():
    _, modules = run.import_program()
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    tracer = Tracer(modules)
    tracer.install()
    assert modules["ring"].contains is not before["ring"]["contains"]
    tracer.uninstall()
    assert {name: dict(vars(mod)) for name, mod in modules.items()} == before

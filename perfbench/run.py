"""End-to-end and per-layer benchmark for stanleydec.

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout: the program is imported from
``src/``.  Requests go one at a time through the user-facing path, one
JSON line into ``stanleydec.cli.main(["batch"], ...)`` in this process: a
closed loop with one client and one thread.  A pass sends every request
of the workload once; passes repeat until ``--seconds`` is used up, and
at least three times.

On shared machines the CPU speed changes from second to second: on a
2-core cloud VM it switched between two speeds about 1.8 times apart.  So
a short fixed pure-Python loop, calibrate(), runs between any two
requests, and each request's time is scaled by CAL_REF_S over the mean
time of the loop just before and just after it: its time at a reference
speed.  The latency percentiles are taken over every request of every
pass, and there are enough passes to leave MIN_TAIL samples beyond p90.
``wall_s`` is the sum over the requests of each one's median time: one
pass at the reference speed.  ``setup_s`` is timed inside fresh
processes, each of which runs the same loop to scale its own time.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the
traced ones and the tracing overhead.  Every answer of the first pass is
checked by ``check.py``; later passes must repeat it exactly.  The last
line of output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it name the environment, the
request digest and the failures by kind.
"""

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402
from layers import Tracer  # noqa: E402

MIN_PASSES = 3
MIN_TAIL = 11            # latency samples a run must have beyond p90
SETUP_TRIALS = 21
CAL_LOOPS = 100
CAL_REF_S = 0.010        # time of calibrate() at the reference speed
HARD_STOP_S = 140        # no new pass starts after this much wall time
WARMUP = workloads.make_request("sdepth", 3, (), workloads.power_of_maximal(3, 1), (),
                                {"sdepth": 2})

# argv: the warm-up request, then this directory.  Prints the time of the
# import and the request, and the best of three calibrate() runs after it.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
import io
from stanleydec import cli
code = cli.main(["batch"], io.StringIO(sys.argv[1] + "\\n"), io.StringIO())
took = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
from run import calibrate
calibrate()
print(took, min(calibrate() for _ in range(3)))
sys.exit(code)
"""

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "latency_p50_ms": "ms",
             "latency_p90_ms": "ms", "failed_share": "share", "peak_rss_mb": "MB"}


def import_program():
    """The stanleydec package of this checkout; exits with 1 and no result
    when the checkout has no program source."""
    if not (SRC / "stanleydec" / "__init__.py").is_file():
        sys.exit("run.py: no program source at %s" % SRC)
    sys.path.insert(0, str(SRC))
    import stanleydec
    from stanleydec import cli, filtration, hilbert, parsing, ring, solver, stanley
    if SRC.resolve() not in Path(stanleydec.__file__).resolve().parents:
        sys.exit("run.py: imported stanleydec from %s, not %s" % (stanleydec.__file__, SRC))
    modules = {"cli": cli, "filtration": filtration, "hilbert": hilbert, "parsing": parsing,
               "ring": ring, "solver": solver, "stanley": stanley}
    return stanleydec.KERNEL_BACKEND, modules


# z*K[y,z] + y*K[x,y] + x*K[x,z] + x*y*z*K[x,y,z], the decomposition of the
# maximal ideal of K[x, y, z] that calibrate() checks over and over
CAL_REQUEST = workloads.make_request("decompose", 3, (), workloads.power_of_maximal(3, 1), (), {})
CAL_SPACES = (((0, 0, 1), {1, 2}, set()), ((0, 1, 0), {0, 1}, set()),
              ((1, 0, 0), {0, 2}, set()), ((1, 1, 1), {0, 1, 2}, set()))


def calibrate():
    """Time of a fixed piece of the benchmark's own pure-Python work, the
    same kind of tuple, generator and dict work the program does."""
    start = time.perf_counter()
    for _ in range(CAL_LOOPS):
        check.decomposition_problem(CAL_REQUEST, CAL_SPACES)
    return time.perf_counter() - start


def measure_setup():
    """Median time, at the reference speed, of a fresh interpreter
    importing stanleydec and answering one request.  Each process scales
    its own time by its own calibrate(); the interpreter's start-up is not
    counted."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_TRIALS):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, WARMUP.line, str(HERE)],
                             env=env, check=True, capture_output=True, text=True).stdout
        took, cal = map(float, out.split())
        times.append(CAL_REF_S * took / cal)
    return statistics.median(times)


def send(cli, line):
    """(exit code, response text), or (None, exception type) when the
    request raised.  The type alone, because the message of a
    RecursionError depends on the depth at which the caller stands."""
    out = io.StringIO()
    try:
        code = cli.main(["batch"], io.StringIO(line + "\n"), out)
    except Exception as exc:  # noqa: BLE001 - one request must not end the run
        return None, type(exc).__name__
    return code, out.getvalue()


def run_pass(cli, reqs, speed):
    """(responses, latency of each request at the reference speed).
    `speed` holds the calibrate() times of the run, the last one taken
    just before the pass; each request adds the one after it."""
    responses, latencies = [], []
    for req in reqs:
        t = time.perf_counter()
        responses.append(send(cli, req.line))
        took = time.perf_counter() - t
        speed.append(calibrate())
        latencies.append(CAL_REF_S * took / statistics.fmean(speed[-2:]))
    return responses, latencies


def typical(passes):
    """Each request's median latency over the given passes."""
    return [statistics.median(times) for times in zip(*passes)]


def check_pass(reqs, responses):
    """Failure kind per request and the list of wrong answers."""
    kinds, problems = [], []
    for req, (code, text) in zip(reqs, responses):
        payload = json.loads(text) if code is not None else None
        kind, problem = check.classify(req, code, payload)
        kinds.append(kind)
        if problem:
            problems.append("%s: %s" % (req.line[:120], problem))
    return kinds, problems


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                    help="'all' runs each workload in a fresh process, one after another")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full record, environment included, to this file")
    args = ap.parse_args(argv)
    if args.workload != "all":
        return run_workload(args)
    code = 0
    for workload in workloads.WORKLOADS:
        print("== %s" % workload, flush=True)
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd + (["--out", args.out] if args.out else [])).returncode)
    return code


def run_workload(args):
    began = time.perf_counter()

    backend, modules = import_program()
    cli = modules["cli"]
    reqs = workloads.generate(args.workload, args.seed)
    env = {"backend": backend, "python": platform.python_version(), "nproc": os.cpu_count(),
           "workload": args.workload, "seed": args.seed, "budget": workloads.BUDGET,
           "requests": len(reqs), "digest": workloads.digest(reqs), "trace": args.trace}
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    setup_s = measure_setup() if not args.trace else None
    send(cli, WARMUP.line)
    speed = [calibrate()]   # calibrate() times over the run

    plain, traced, layer_runs = [], [], []
    first = None
    problems = []
    # a traced run needs two passes of each kind for a median overhead
    min_passes = 4 if args.trace else max(MIN_PASSES, -(-10 * MIN_TAIL // len(reqs)))
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        tracer = None
        if args.trace and len(plain) > len(traced):
            tracer = Tracer(modules)
            tracer.install()
        try:
            responses, latencies = run_pass(cli, reqs, speed)
        finally:
            if tracer:
                tracer.uninstall()
        now = time.perf_counter()
        if tracer:
            traced.append(latencies)
            layer_runs.append(tracer.metrics())
        else:
            plain.append(latencies)
        if first is None:
            first = responses
        elif responses != first:
            problems.append("responses differ between passes")
        passes = len(plain) + len(traced)
        # stop when another pass like this one would overrun --seconds
        if passes >= min_passes and (now - start) + (now - pass_start) > args.seconds:
            break
        if now - began > HARD_STOP_S:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = CAL_REF_S / statistics.median(speed)   # for the per-layer times

    kinds, wrong = check_pass(reqs, first)
    problems += wrong
    passes = len(plain) + len(traced)
    failed_per_pass = sum(k != check.OK for k in kinds)
    attempted = passes * len(reqs)
    failed = passes * failed_per_pass
    samples = [t for latencies in plain for t in latencies]
    p90 = percentile(samples, 90)

    if args.trace:
        metrics = {name: statistics.median(run[name] for run in layer_runs)
                   for name in layer_runs[0]}
        for name in metrics:
            if unit_of(name) in ("s", "us"):
                metrics[name] *= scale
        # a crash ends wherever the stack runs out, and tracing frames move
        # that point, so crashed requests are left out of the overhead
        returned = [code is not None for code, _ in first]
        metrics["trace.overhead_s"] = sum(
            t - p for t, p, ok in zip(typical(traced), typical(plain), returned) if ok)
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": sum(typical(plain)),
            "latency_p50_ms": 1000 * statistics.median(samples),
            "latency_p90_ms": 1000 * p90,
            "failed_share": failed / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        units = E2E_UNITS
    by_kind = Counter(k for k in kinds if k != check.OK)
    print("passes %d, latency samples %d (%d requests x %d untraced passes), %d beyond p90, "
          "failures per pass %s" % (passes, len(samples), len(reqs), len(plain),
                                    sum(t > p90 for t in samples), dict(sorted(by_kind.items()))))
    print("calibrate() took %.3f ms (median of %d; quartiles %.3f, %.3f)"
          % ((1000 * statistics.median(speed), len(speed))
             + tuple(1000 * q for q in statistics.quantiles(speed, n=4)[::2])))
    for name, value in metrics.items():
        print("%-30s %18.6f %s" % (name, value, units[name]))
    for p in problems:
        print("WRONG " + p)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(dict(result, env=env), sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if not problems else 1


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_share"):
        return "share"
    if name.endswith("us_per_node"):
        return "us"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

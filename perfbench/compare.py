"""Compare benchmark records written by ``run.py --out``.

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds one record per line, for one workload.  Prints each
metric's median on both sides and the change as a share of the first.
Refuses, with exit code 2, to compare records from different kernel
backends, workloads or trace settings: such numbers measure different
things.
"""

import json
import statistics
import sys


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    before, after = load(argv[1]), load(argv[2])
    kinds = {(r["env"]["backend"], r["env"]["workload"], r["env"]["trace"])
             for r in before + after}
    if len(kinds) != 1:
        print("refusing to compare: records differ in (backend, workload, trace): %s"
              % sorted(kinds))
        return 2
    if not all(r["correct"] for r in before + after):
        print("warning: some records had wrong answers")
    print("%-30s %14s %14s %9s  (%d vs %d runs)"
          % ("metric", "before", "after", "change", len(before), len(after)))
    for name in sorted(before[0]["metrics"]):
        a = statistics.median(r["metrics"][name]["value"] for r in before)
        b = statistics.median(r["metrics"][name]["value"] for r in after)
        change = "%+8.1f%%" % (100 * (b - a) / a) if a else "       -"
        print("%-30s %14.6g %14.6g %s  %s" % (name, a, b, change, before[0]["metrics"][name]["unit"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Run the whole benchmark for one seed.

    python3 perfbench/suite.py --seed 1

For each workload, in a fresh process each: one timed run (end-to-end
metrics), then the traced run twice (per-layer metrics and tracing
overhead).  Every count metric of the two traced runs must be identical.
Exits 0 when every run succeeded, no job of a workload failed and the
counts repeat; the known-defect probes are listed, not counted.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("corpus", "concentrate", "rearrange", "lemma")
# work counts of a traced run, which must repeat exactly
EXACT_UNITS = ("count", "bytes")


def run(workload, seed, seconds, trace):
    """One run in a fresh process: (printed lines, result object)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} (trace {trace}) exited {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def count_mismatches(a, b):
    return [name for name, m in a["metrics"].items()
            if m["unit"] in EXACT_UNITS and m["value"] != b["metrics"][name]["value"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args(argv)

    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            lines, result = run(workload, args.seed, args.seconds, trace)
            print("\n".join(lines))
            ok = ok and result["correct"]
        _, again = run(workload, args.seed, args.seconds, 1)
        ok = ok and again["correct"]
        mismatches = count_mismatches(result, again)
        counts = sum(m["unit"] in EXACT_UNITS for m in result["metrics"].values())
        if mismatches:
            ok = False
            print(f"  count metrics differ between two traced runs: {mismatches}")
        else:
            print(f"  all {counts} count metrics identical in a second traced run")
        print()
    print("suite:", "OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

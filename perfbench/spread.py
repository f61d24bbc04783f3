"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 --workloads corpus,lemma

Runs ``run.py --trace 0`` once per seed and workload, one after another,
and prints for each metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median.  ``--json PATH``
also writes every value.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from suite import WORKLOADS, run


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--json", default=None)
    args = parser.parse_args(argv)

    out = {}
    for workload in args.workloads.split(","):
        values = {}
        failed = []
        revisits = []
        for seed in args.seeds:
            lines, result = run(workload, seed, args.seconds, 0)
            failed.append(result["failed"])
            revisits += [float(line.split()[1]) for line in lines
                         if line.split()[:1] == ["revisit_share"]]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        out[workload] = {"seeds": args.seeds, "failed": failed,
                         "revisit_share": revisits, "values": values,
                         "summary": {k: summarize(v) for k, v in values.items()}}
        print(f"{workload}: failed jobs per run {failed}, "
              f"revisit share per run {revisits}")
        for name, s in out[workload]["summary"].items():
            print(f"  {name:14s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(out, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

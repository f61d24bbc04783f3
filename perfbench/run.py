"""hypineq benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout against ``src/`` (the package
need not be installed).  One single-threaded process, closed loop, one
client: each job starts when the previous one has returned.

``--trace 0`` (timed run): the workload's rounds are played in PASSES
passes.  Every pass draws its own seeded jitter, so a job slot (round,
position) holds one sibling job per pass, of the same kind and nearly the
same cost.  ``--seconds`` sets the amount of work (how many rounds),
sized so that the passes take about that long on a 2-vCPU 2.1 GHz Xeon;
the work is the same on every commit.  Set-up is measured before every
pass and once after the last, and reported as the median.  Oracles and a
determinism repeat run after the passes.  Prints the end-to-end metrics.

Times are scaled to a reference machine speed.  The shared 2-vCPU host
the baseline was measured on swings in speed by 20-60% over seconds to
tens of minutes, in CPU time as much as in wall time.  So the benchmark
times a fixed pure-Python loop (``calibrate``, no ``hypineq`` code) right
before and right after every job and every set-up, and multiplies the
measured time by ``CALIB_REF_S`` over the mean of those two loop times:
a job that ran while the machine was slow is scaled down by as much as
the loop was slowed.  A slot's latency is the mean of its passes' scaled
latencies.  The unscaled figures are printed beside the metrics.

``--trace 1`` (traced run): a fixed, seeded list of rounds runs once
untraced and once with every ``hypineq`` function wrapped, so the work
counts do not depend on machine speed and repeat exactly; ``--seconds``
does not apply.  Prints the per-layer metrics and the tracing overhead,
writes the spans to ``.bench_build/perfbench/``, then runs the
known-defect probes and lists each one that still fails.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted``
and ``failed`` count the workload's jobs (the probes are reported apart);
``correct`` is true when none of them failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
# passes of a timed run; set-up is measured PASSES + 1 times
PASSES = 3
CALIB_ITERS = 50_000
# time of the calibration loop on an uncontended 2.1 GHz Xeon vCPU,
# Python 3.11
CALIB_REF_S = 0.0032
TAIL_BEYOND = 10

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import hypineq; "
                "print(time.perf_counter() - t)")


def execute(job, runner=None):
    from workloads import Outcome
    t0 = time.perf_counter()
    try:
        result = job.run() if runner is None else runner(job.id, job.run)
        error = None
    except Exception as exc:
        result, error = None, exc
    return Outcome(job, time.perf_counter() - t0, result, error)


def calibrate():
    """Seconds the fixed reference loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIB_ITERS):
        acc += i * i % 7
    return time.perf_counter() - t0


def run_pass(jobs):
    """Run jobs with the calibration loop before, between and after them:
    each job's latency is scaled by the mean of the loop's times just
    before and just after it.  Returns [(outcome, scaled latency)]."""
    out = []
    before = calibrate()
    for job in jobs:
        outcome = execute(job)
        after = calibrate()
        out.append((outcome, outcome.latency_s * 2.0 * CALIB_REF_S / (before + after)))
        before = after
    return out


def set_up(workload_cls, seed, workdir):
    """Import in a fresh interpreter, plus seeded input generation and one
    warm-up job in this process with the package's caches emptied, so
    every set-up pays what a fresh process pays.  Returns (seconds,
    seconds scaled to the reference speed, workload)."""
    from workloads import clear_caches
    before = calibrate()
    child = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                           capture_output=True, text=True, timeout=120,
                           check=True, cwd=ROOT)
    import_s = float(child.stdout.strip())
    clear_caches()
    t0 = time.perf_counter()
    workload = workload_cls(seed, workdir)
    workload.setup()
    warm = execute(workload.warmup_job())
    if warm.error is not None:
        raise warm.error
    raw = import_s + time.perf_counter() - t0
    return raw, raw * 2.0 * CALIB_REF_S / (before + calibrate()), workload


def judge_all(outcomes):
    """(job id, reason, known defect or None) for every job that failed."""
    from workloads import judge
    failures = []
    for o in outcomes:
        verdict = judge(o)
        if verdict is not None:
            failures.append((o.job.id,) + verdict)
    return failures


def report_failures(failures, label="FAILED"):
    for job_id, reason, defect in failures:
        print(f"{label} {job_id}: {reason}")
        if defect:
            print(f"    known defect: {defect}")


def revisit_share(outcomes):
    """Share of jobs that re-evaluate a (profile, n) pair an earlier job
    of the run evaluated."""
    seen = set()
    revisits = 0
    for o in outcomes:
        pairs = set(o.job.pairs)
        if pairs & seen:
            revisits += 1
        seen |= pairs
    return revisits / len(outcomes) if outcomes else 0.0


def timed_run(workload_cls, seed, seconds, tmp):
    rounds = workload_cls.rounds_for(seconds, PASSES)
    setups, raw_setups = [], []
    passes = []  # (outcome, scaled latency) of each pass, in slot order
    for k in range(PASSES + 1):
        raw, scaled, workload = set_up(workload_cls, seed,
                                       os.path.join(tmp, f"pass-{k}"))
        raw_setups.append(raw)
        setups.append(scaled)
        if k == PASSES:
            break
        # input generation, off the clock
        jobs = [job for i in range(rounds) for job in workload.round(i, k)]
        passes.append(run_pass(jobs))
    slots = sorted(statistics.fmean(scaled for _, scaled in slot)
                   for slot in zip(*passes))
    n = len(slots)
    # 1-based rank with TAIL_BEYOND samples beyond it, never below the median
    tail_rank = max(n - TAIL_BEYOND, n // 2 + 1)
    metrics = {
        "jobs_per_s": (n / sum(slots), "1/s"),
        "job_p50_s": (statistics.median(slots), "s"),
        "job_tail_s": (slots[tail_rank - 1], "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                         "MiB"),
    }
    outcomes = [o for p in passes for o, _ in p]
    repeat = workload.repeat_check([o for o, _ in passes[0]])
    if repeat is not None:
        outcomes.append(execute(repeat))
    failures = judge_all(outcomes)
    raw = [o.latency_s for p in passes for o, _ in p]
    print(f"workload {workload.name}, seed {seed}: {n} job slots ({rounds} rounds) "
          f"x {PASSES} passes, {sum(raw):.2f} s of job time; closed loop, 1 client")
    print(f"  times scaled to the reference speed; unscaled: jobs_per_s "
          f"{len(raw) / sum(raw):.6g}, job_p50_s {statistics.median(raw):.6g}, "
          f"setup_s {statistics.median(raw_setups):.6g}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "job_tail_s":
            note = f"  (p{100.0 * tail_rank / n:.1f}: {n - tail_rank} of {n} slots beyond)"
        elif name == "setup_s":
            note = "  (median of " + ", ".join(f"{s:.3f}" for s in setups) + ")"
        print(f"  {name:14s} {value:.6g} {unit}{note}")
    print(f"  {'failed_share':14s} {len(failures) / len(outcomes):.6g} ratio "
          f"({len(failures)} of {len(outcomes)} attempted)")
    print(f"  {'revisit_share':14s} {revisit_share([o for o, _ in passes[0]]):.4f} ratio "
          f"(jobs of a pass re-evaluating an earlier (profile, n) pair)")
    report_failures(failures)
    return metrics, len(outcomes), failures


def traced_run(workload_cls, seed, tmp):
    from tracer import Tracer, layer_metrics
    workload = workload_cls(seed, os.path.join(tmp, "run"))
    workload.setup()
    execute(workload.warmup_job())
    jobs = [job for i in range(workload.traced_rounds) for job in workload.round(i, 0)]

    plain = [execute(job) for job in jobs]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [execute(job, tracer.run_job) for job in jobs]
    finally:
        tracer.uninstall()

    wall_plain = sum(o.latency_s for o in plain)
    wall_traced = sum(o.latency_s for o in traced)
    outcomes = plain + traced
    repeat = workload.repeat_check(plain)
    if repeat is not None:
        outcomes.append(execute(repeat))
    failures = judge_all(outcomes)
    defects = judge_all([execute(job) for job in workload.probes()])
    metrics = layer_metrics(tracer, workload.cli_jobs)
    metrics["trace.overhead_share"] = (wall_traced / wall_plain - 1.0, "ratio")
    metrics["known_defects.failing"] = (len(defects), "count")

    os.makedirs(WORK, exist_ok=True)
    spans_path = os.path.join(WORK, f"spans-{workload.name}-s{seed}.json")
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["name", "parent", "job", "start_s", "end_s"],
                   "spans": tracer.spans}, fh)
    print(f"workload {workload.name}, seed {seed}: traced {len(jobs)} jobs "
          f"({workload.traced_rounds} rounds); untraced {wall_plain:.3f} s, "
          f"traced {wall_traced:.3f} s; {len(tracer.spans)} spans in {spans_path}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:46s} {value:.6g} {unit}")
    print(f"  {'failed_share':46s} {len(failures) / len(outcomes):.6g} ratio "
          f"({len(failures)} of {len(outcomes)} attempted)")
    report_failures(failures)
    report_failures(defects, "KNOWN DEFECT")
    return metrics, len(outcomes), failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus", "concentrate", "rearrange", "lemma"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hypineq", "__init__.py")):
        print(f"error: no hypineq package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    workloads.check_source(SRC)

    workload_cls = workloads.WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        if args.trace:
            metrics, attempted, failures = traced_run(workload_cls, args.seed, tmp)
        else:
            metrics, attempted, failures = timed_run(
                workload_cls, args.seed, args.seconds, tmp)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

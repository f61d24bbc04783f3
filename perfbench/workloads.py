"""The four benchmark workloads: seeded job streams, expected verdicts and
oracles.

A job is one user-level request.  For ``corpus``, ``concentrate`` and
``lemma`` it is one in-process ``hypineq.cli.main(argv)`` call; for
``rearrange`` (no CLI command) it is "rearrange a seeded radial function,
then evaluate one norm of it".

Jobs come in rounds.  The kinds, dimensions and base parameters of round
``i`` are the same for every seed; the seed moves each continuous
parameter by a jitter of up to ``JITTER`` of its range, so two seeds give
different inputs at nearly the same cost.  A timed run plays the same
rounds in several passes; pass ``k`` draws its own jitter, so its jobs are
siblings of the first pass's jobs, not repeats of them, and a cache keyed
on exact inputs does not hit across passes.

Expected verdicts come from the theory (every inequality holds inside its
domain, the lemma holds at or above the phase boundary and fails below
it), not from the program.  Oracles are checked after the passes.

Known defects are not in the rounds: each has a fixed probe job, which
the traced run executes and lists, apart from the workload's own jobs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import random
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

import hypineq
from hypineq import cli, geometry, rearrangement, sharpness, verifier
from hypineq.constants import Params, boundary_exponent, sobolev_constant
from hypineq.corpus import bubble_corpus, standard_corpus
from hypineq.rearrangement import Piece, RadialFunction

POINCARE_DIMS = (4, 5, 6)
# share of a parameter's range by which the seed moves it
JITTER = 0.01


@dataclass
class Job:
    id: str
    kind: str
    run: Callable[[], object]
    # allowed exit codes for CLI jobs; None for jobs that return a value
    expect: Optional[frozenset] = None
    # deferred oracle: result -> None, a failure reason, or a
    # (reason, known defect) pair
    check: Optional[Callable[[object], object]] = None
    # (profile key, n) pairs the job evaluates
    pairs: Tuple = ()
    known_defect: Optional[str] = None
    argv: Optional[list] = None


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


@dataclass
class Outcome:
    job: Job
    latency_s: float
    result: object = None
    error: Optional[BaseException] = None


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


def judge(outcome: Outcome):
    """None for a job that passed, else (reason, known defect or None).

    Every failure of a probe job is its known defect; an oracle may also
    name a known defect by returning a (reason, defect) pair."""
    job = outcome.job
    reason = None
    if outcome.error is not None:
        exc = outcome.error
        reason = f"raised {type(exc).__name__}: {str(exc)[:160]}"
    elif job.expect is not None and outcome.result.code not in job.expect:
        result = outcome.result
        msg = result.stderr.strip().splitlines()
        detail = f" ({msg[-1][:160]})" if msg else ""
        reason = f"exit {result.code}, expected {sorted(job.expect)}{detail}"
    elif job.check is not None:
        reason = job.check(outcome.result)
    if reason is None:
        return None
    if isinstance(reason, tuple):
        return reason
    return reason, job.known_defect


def clear_caches():
    """Empty every lru_cache in the package, so a repeated set-up pays
    what a fresh process pays."""
    for name, mod in list(sys.modules.items()):
        if name == "hypineq" or name.startswith("hypineq."):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


class Draw:
    """Parameters of one round in one pass: a base draw that depends only
    on the round, moved by a jitter that depends on the seed and the pass.
    Every draw takes one number from each stream, so the base values of
    a round do not depend on the seed."""

    def __init__(self, base_key, jitter_key):
        self.base = random.Random(base_key)
        self.jitter = random.Random(jitter_key)

    def uniform(self, lo, hi):
        u = self.base.random() + self.jitter.uniform(-JITTER, JITTER)
        return lo + (hi - lo) * min(1.0, max(0.0, u))

    def log_uniform(self, lo, hi):
        return math.exp(self.uniform(math.log(lo), math.log(hi)))

    def choice(self, options):
        self.jitter.random()
        return options[self.base.randrange(len(options))]


def _fmt(x):
    return repr(float(x))


def _artifacts(directory):
    """{file name: bytes} of a job's artifact directory."""
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


class Workload:
    """Base class: ``setup`` makes the inputs every round shares,
    ``round(i, k)`` the seeded jobs of round ``i`` in pass ``k``."""

    name = ""
    why = ""
    # job time of one round on a 2-vCPU 2.1 GHz Xeon: a timed run of S
    # seconds plays S / (passes * round_s) rounds in every pass
    round_s = 1.0
    traced_rounds = 1
    cli_jobs = True
    # kind of the job whose artifacts a determinism repeat compares
    repeat_kind = None

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    @classmethod
    def rounds_for(cls, seconds, passes):
        return max(1, round(seconds / (passes * cls.round_s)))

    def draw(self, i, k):
        return Draw(f"{self.name}:{i}", f"{self.name}:{self.seed}:{k}:{i}")

    def jobdir(self, job_id):
        return os.path.join(self.workdir, "jobs", job_id)

    def setup(self):
        """Seeded input generation shared by all rounds."""

    def warmup_job(self) -> Job:
        return self.round(-1, 0)[0]

    def round(self, i: int, k: int):
        raise NotImplementedError

    def probes(self):
        """Known-defect probe jobs, which the traced run executes apart
        from the workload's own jobs."""
        return []

    def repeat_check(self, outcomes) -> Optional[Job]:
        """Criterion 10: re-run the first successful job of
        ``repeat_kind`` into a fresh directory; its artifacts must be
        byte-identical."""
        original = next((o.job for o in outcomes
                         if o.job.kind == self.repeat_kind and o.error is None), None)
        if original is None:
            return None
        argv = list(original.argv)
        out = argv.index("--out") + 1
        first, again = argv[out], self.jobdir(original.id + "-repeat")
        argv[out] = again

        def check(result):
            if _artifacts(first) != _artifacts(again):
                return f"artifacts of {original.id} differ on a repeat"
            return None

        return Job(original.id + "-repeat", original.kind + "-repeat",
                   lambda: run_cli(argv), original.expect, check)


# ---------------------------------------------------------------------------
# corpus: verify and sweep over the built-in profiles
# ---------------------------------------------------------------------------

def _poincare_p(rng, n):
    b = boundary_exponent(n)
    return rng.uniform(b, b + 0.6 * (n - b))


class Corpus(Workload):
    name = "corpus"
    why = ("everyday certification: verify and sweep jobs over the "
           "built-in 20-profile corpus, whose (profile, n) pairs recur, so "
           "a per-profile cache would hit")
    traced_rounds = 3
    round_s = 1.6
    repeat_kind = "sweep-key_comparison"

    def setup(self):
        profiles = standard_corpus()
        self.labels = [v.label for v in profiles]
        # morrey_sobolev needs compact support: its jobs read the compact
        # members of the corpus from profile files
        self.compact_dir = os.path.join(self.workdir, "compact-corpus")
        os.makedirs(self.compact_dir, exist_ok=True)
        self.compact_labels = []
        for v in profiles:
            if v.tail.kind == "compact":
                rearrangement.write_profile(
                    os.path.join(self.compact_dir, f"{v.label}.txt"), v)
                self.compact_labels.append(v.label)

    def _verify(self, job_id, rng, inequality, n, p, alpha=None, corpus=None):
        out = self.jobdir(job_id)
        argv = ["verify", "--inequality", inequality, "--n", str(n),
                "--p", _fmt(p), "--format", rng.choice(("json", "csv")),
                "--out", out]
        if alpha is not None:
            argv += ["--alpha", _fmt(alpha)]
        if corpus is None:
            pairs = tuple((f"builtin:{lab}", n) for lab in self.labels)
        else:
            argv += ["--corpus", corpus]
            pairs = tuple((f"file:{lab}", n) for lab in self.compact_labels)
        return Job(job_id, f"verify-{inequality}", lambda: run_cli(argv),
                   frozenset({0}), pairs=pairs, argv=argv)

    def _sweep(self, job_id, inequality, ns, ps, fmt):
        argv = ["sweep", "--inequality", inequality,
                "--n-list", ",".join(map(str, ns)),
                "--p-list", ",".join(map(_fmt, ps)),
                "--format", fmt, "--out", self.jobdir(job_id)]
        pairs = tuple((f"builtin:{lab}", k) for k in ns for _ in ps
                      for lab in self.labels)
        return Job(job_id, f"sweep-{inequality}", lambda: run_cli(argv),
                   frozenset({0}), pairs=pairs, argv=argv)

    def round(self, i, k):
        # dimensions cycle with the round; the round's draw gives p and alpha
        rng = self.draw(i, k)
        jid = f"corpus-{i:04d}-p{k}"
        jobs = []
        n = POINCARE_DIMS[i % 3]
        jobs.append(self._verify(f"{jid}-ps", rng, "poincare_sobolev", n,
                                 _poincare_p(rng, n)))
        n = 2 + i % 5
        b = boundary_exponent(n)
        jobs.append(self._verify(f"{jid}-kc", rng, "key_comparison", n,
                                 rng.uniform(b, b + 1.5)))
        n = POINCARE_DIMS[(i + 1) % 3]
        p = _poincare_p(rng, n)
        amax = n / (n - p)
        # the L^(alpha p) norm needs alpha p >= 1
        alpha = rng.uniform(1.1, amax) if i % 2 else rng.uniform(1.0 / p + 0.05, 0.9)
        jobs.append(self._verify(f"{jid}-gn", rng, "gagliardo_nirenberg", n, p, alpha))
        n = 2 + i % 3
        jobs.append(self._verify(f"{jid}-ms", rng, "morrey_sobolev", n,
                                 rng.uniform(n + 0.5, n + 3.0),
                                 corpus=self.compact_dir))
        n = POINCARE_DIMS[(i + 2) % 3]
        jobs.append(self._verify(f"{jid}-ls", rng, "log_sobolev", n,
                                 _poincare_p(rng, n)))
        n = 2 + (i + 2) % 5
        jobs.append(self._verify(f"{jid}-mt", rng, "mugelli_talenti_sum", n,
                                 rng.uniform(1.2, n - 0.3)))
        n = 2 + (i + 1) % 3
        jobs.append(self._verify(f"{jid}-li", rng, "linfty", n,
                                 rng.uniform(n + 0.5, n + 3.0)))
        # one sweep per round, its inequality rotating with the round
        if i % 3 == 0:
            ns = sorted((2 + i % 5, 2 + (i + 2) % 5))
            b = max(boundary_exponent(k) for k in ns)
            jobs.append(self._sweep(f"{jid}-sw", "key_comparison", ns,
                                    sorted(rng.uniform(b, b + 1.5) for _ in range(2)),
                                    "csv"))
        else:
            inequality = ("poincare_sobolev", "log_sobolev")[i % 3 - 1]
            n = POINCARE_DIMS[i % 3]
            jobs.append(self._sweep(f"{jid}-sw", inequality, [n],
                                    sorted(_poincare_p(rng, n) for _ in range(2)),
                                    "json"))
        return jobs


# ---------------------------------------------------------------------------
# concentrate: sharpness runs and file-backed concentrated bubbles
# ---------------------------------------------------------------------------

def rayleigh_reason(n, p):
    """Criterion 07: the Euclidean Rayleigh ratio of the flat extremal
    equals the p-th power of the sharp Sobolev constant."""
    target = sobolev_constant(Params(n, p)) ** p
    ratio = verifier.euclidean_rayleigh_ratio(
        sharpness.untruncated_bubble(n, p, 1.0), n, p)
    rel = abs(ratio - target) / target
    if rel > 1e-7:
        return f"Rayleigh ratio off the sharp constant by {rel:.2e} at n={n}, p={p:g}"
    return None


def _gaps_reason(text, column_ratio, column_gap, rows_expected=None):
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows or (rows_expected is not None and len(rows) != rows_expected):
        return f"artifact has {len(rows)} rows"
    for row in rows:
        ratio, gap = float(row[column_ratio]), float(row[column_gap])
        target = ratio - gap
        if gap < -1e-6 * target:
            return f"ratio {ratio!r} undercuts the sharp target {target!r}"
    return None


BOX_CORNER_DEFECT = (
    "the minimizer's search box reaches lambda = 1e-10, T = 1e6, where "
    "roundoff in the ratio fakes an undercut of the sharp constant and the "
    "run exits 1")


def _optimize_reason(code, text):
    rows = list(csv.DictReader(io.StringIO(text)))
    undercuts = []
    for row in rows:
        ratio, gap = float(row["ratio"]), float(row["gap"])
        if gap < -1e-6 * (ratio - gap):
            undercuts.append((float(row["lambda"]), float(row["T"]), gap))
    if not undercuts:
        return None if code != 1 else "exit 1 without an undercut in the trace"
    lam, T, gap = undercuts[0]
    reason = f"undercut gap {gap!r} at lambda={lam!r}, T={T!r}"
    if all(l <= 1e-10 * (1 + 1e-9) or t >= 1e6 * (1 - 1e-9)
           for l, t, _ in undercuts):
        return reason, BOX_CORNER_DEFECT
    return reason


class Concentrate(Workload):
    name = "concentrate"
    why = ("concentrated bubbles: phi's small-radius nested panel, a fresh "
           "profile per ratio evaluation so per-profile caches miss, and "
           "the file-backed grid path")
    round_s = 0.8
    traced_rounds = 2

    def _bubble_dir(self, tag, n, p, lambdas):
        directory = os.path.join(self.workdir, "bubbles", tag)
        os.makedirs(directory, exist_ok=True)
        labels = []
        for v in bubble_corpus(n, p, lambdas):
            rearrangement.write_profile(os.path.join(directory, f"{v.label}.txt"), v)
            labels.append(v.label)
        return directory, labels

    def _point(self, rng, k):
        n = POINCARE_DIMS[k % 3]
        b = boundary_exponent(n)
        # close to the boundary the bubbles concentrate fast enough for a
        # 10% inflated constant to be violated at lambda <= 1e-4
        return n, rng.uniform(b, b + 0.1)

    def _verify_file(self, job_id, rng, n, p, scale, expect):
        lambdas = (rng.log_uniform(10 ** -4.3, 10 ** -3.9),
                   rng.log_uniform(10 ** -5.3, 10 ** -4.8))
        directory, labels = self._bubble_dir(job_id, n, p, lambdas)
        argv = ["verify", "--inequality", "poincare_sobolev", "--n", str(n),
                "--p", _fmt(p), "--corpus", directory,
                "--constant-scale", _fmt(scale), "--out", self.jobdir(job_id)]
        pairs = tuple((f"file:{n}:{_fmt(p)}:{lab}", n) for lab in labels)
        return Job(job_id, f"verify-bubbles-x{scale:g}", lambda: run_cli(argv),
                   expect, pairs=pairs, argv=argv)

    def round(self, i, k):
        rng = self.draw(i, k)
        jid = f"concentrate-{i:04d}-p{k}"
        jobs = []

        n, p = self._point(rng, i)
        step = rng.uniform(0.9, 1.1)
        lambdas = [10 ** (-e * step) * rng.uniform(0.8, 1.25) if e else 1.0
                   for e in range(6)]
        out = self.jobdir(f"{jid}-sweep")
        argv = ["sharpness", "--n", str(n), "--p", _fmt(p),
                "--lambdas", ",".join(map(_fmt, lambdas)), "--out", out]

        def sweep_check(result, out=out, n=n, p=p):
            with open(os.path.join(out, "sharpness-sweep.csv")) as fh:
                reason = _gaps_reason(fh.read(), "ratio", "gap", len(lambdas))
            return reason or rayleigh_reason(n, p)

        pairs = tuple((f"bubble:{_fmt(p)}:{_fmt(lam)}:1", n) for lam in lambdas)
        # 3 (trend not yet within the gap) is allowed; 1 would be an undercut
        jobs.append(Job(f"{jid}-sweep", "sharpness-sweep", lambda: run_cli(argv),
                        frozenset({0, 3}), sweep_check, pairs=pairs, argv=argv))

        inequality = ("poincare_sobolev", "key_comparison")[i % 2]
        # poincare_sobolev optimize runs at n = 6 walk into the search box's
        # corner, the known defect the box-corner probe shows
        n2, p2 = self._point(rng, (i // 2) % 2 if i % 2 == 0 else i + 1)
        out2 = self.jobdir(f"{jid}-opt")
        # a short iteration budget keeps the cost of an optimize job, which
        # dominates the round, from swinging with how far the simplex runs
        argv2 = ["sharpness", "--inequality", inequality, "--n", str(n2),
                 "--p", _fmt(p2), "--optimize", "--max-iter", "10",
                 "--truncation", _fmt(rng.uniform(0.5, 2.0)), "--out", out2]

        def opt_check(result, out=out2):
            with open(os.path.join(out, "sharpness-trace.csv")) as fh:
                return _optimize_reason(result.code, fh.read())

        # exit 1 is judged by the oracle, which names the box-corner defect
        # when the undercut sits at the search box's corner
        jobs.append(Job(f"{jid}-opt", f"sharpness-optimize-{inequality}",
                        lambda: run_cli(argv2), frozenset({0, 1, 3}), opt_check,
                        argv=argv2))

        n3, p3 = self._point(rng, i + 2)
        jobs.append(self._verify_file(f"{jid}-x1.0", rng, n3, p3, 1.0, frozenset({0})))
        n4, p4 = self._point(rng, i)
        jobs.append(self._verify_file(f"{jid}-x1.1", rng, n4, p4, 1.1, frozenset({1})))
        return jobs

    def warmup_job(self):
        rng = self.draw("warmup", 0)
        n, p = self._point(rng, 0)
        return self._verify_file("concentrate-warmup", rng, n, p, 1.0, frozenset({0}))

    def probes(self):
        n, p = 4, 8.0 / 3.0
        directory, _ = self._bubble_dir("defect-1.03", n, p, (1e-4, 1e-5))
        argv = ["verify", "--inequality", "poincare_sobolev", "--n", str(n),
                "--p", _fmt(p), "--corpus", directory,
                "--constant-scale", "1.03", "--out", self.jobdir("defect-1.03")]
        out = self.jobdir("defect-box-corner")
        corner = ["sharpness", "--inequality", "poincare_sobolev", "--n", "6",
                  "--p", "2.417721166988792", "--optimize", "--max-iter", "20",
                  "--truncation", "0.7391108738320868", "--out", out]

        def corner_check(result):
            with open(os.path.join(out, "sharpness-trace.csv")) as fh:
                return _optimize_reason(result.code, fh.read())

        return [
            Job("concentrate-defect-box-corner", "defect", lambda: run_cli(corner),
                frozenset({0, 1, 3}), corner_check, argv=corner),
            Job("concentrate-defect-file-bubbles-x1.03", "defect",
                lambda: run_cli(argv), frozenset({1, 3}),
                known_defect="grid-only profiles carry an error bar ~700x below "
                             "the real error, so the file-backed bubbles pass a "
                             "3% inflated constant that the closures fail"),
            Job("concentrate-defect-rayleigh-n4-p3.5", "defect",
                lambda: None, check=lambda _: rayleigh_reason(4, 3.5),
                known_defect="Euclidean Rayleigh ratio of the untruncated "
                             "bubble misses the sharp constant by ~6e-5 when "
                             "p is far above the phase boundary"),
        ]


# ---------------------------------------------------------------------------
# rearrange: decreasing rearrangement of non-monotone radial functions
# ---------------------------------------------------------------------------

def rise_decay(n, A, r0, k):
    return RadialFunction(n, (
        Piece(0.0, r0, lambda r: A * r / r0, lambda r: A / r0),
        Piece(r0, math.inf, lambda r: A * math.exp(-k * (r - r0)),
              lambda r: -k * A * math.exp(-k * (r - r0)))))


def shell(n, a, A, r1, w):
    r2 = r1 + w
    return RadialFunction(n, (
        Piece(0.0, r1, lambda r: a + (A - a) * (r / r1) ** 2,
              lambda r: 2.0 * (A - a) * r / r1 ** 2),
        Piece(r1, r2, lambda r: A * (1.0 - ((r - r1) / w) ** 2) ** 2,
              lambda r: -4.0 * A * (1.0 - ((r - r1) / w) ** 2) * (r - r1) / w ** 2),
        Piece(r2, math.inf, lambda r: 0.0, lambda r: 0.0)))


def plateau(n, a, c, r1, r2, k):
    return RadialFunction(n, (
        Piece(0.0, r1, lambda r: a + (c - a) * r / r1, lambda r: (c - a) / r1),
        Piece(r1, r2, lambda r: c, lambda r: 0.0),
        Piece(r2, math.inf, lambda r: c * math.exp(-k * (r - r2)),
              lambda r: -k * c * math.exp(-k * (r - r2)))))


GRID_NODES = 12


def _rearrange_job(job_id, f, op, exponent):
    """Rearrange f onto a geometric volume grid, then evaluate one norm.
    Oracles: equimeasurability against direct L^q quadrature of f, and
    Polya-Szego (the symmetrized gradient norm does not exceed f's).  The
    Euclidean norm of the flat symmetrization is bounded by the
    hyperbolic one, since the hyperbolic isoperimetric weight dominates."""
    def run():
        top = rearrangement.distribution_function(f, 1e-6 * f.sup_value)
        grid = np.insert(np.geomspace(top * 1e-10, top, GRID_NODES), 0, 0.0)
        v = rearrangement.decreasing_rearrangement(f, grid)
        if op == "lp_norm":
            return rearrangement.lp_norm(v, exponent)
        fn = (rearrangement.grad_norm_hyperbolic if op == "grad_norm_hyperbolic"
              else rearrangement.grad_norm_euclidean)
        return fn(v, f.n, exponent)[0]

    def check(value):
        if op == "lp_norm":
            direct = rearrangement.lq_norm_direct(f, exponent)
            if not abs(value - direct) <= 1e-9 * direct:
                return f"lp_norm {value!r} vs direct {direct!r} (rel 1e-9)"
            return None
        direct = rearrangement.grad_norm_direct(f, exponent)
        if not value <= direct * (1.0 + 1e-6):
            return f"{op} {value!r} exceeds the direct gradient norm {direct!r}"
        return None

    return Job(job_id, op, run, check=check, pairs=((job_id, f.n),))


class Rearrange(Workload):
    name = "rearrange"
    why = ("nested distribution_function root finds behind the "
           "rearrangement closure, where quadrature panel cost is minor")
    round_s = 1.8
    traced_rounds = 1
    cli_jobs = False

    OPS = ("lp_norm", "grad_norm_hyperbolic", "grad_norm_euclidean")

    def _shape(self, rng, kind, n):
        # parameters stay within 10% of fixed shapes: the cost of a norm
        # of a rearrangement depends strongly on the shape
        def near(x):
            return rng.uniform(0.9 * x, 1.1 * x)

        if kind == "rise":
            return rise_decay(n, near(1.0), near(1.0), near(1.2 * (n - 1) + 1.0))
        A = near(1.0)
        return shell(n, near(0.2) * A, A, near(0.75), near(0.7))

    def round(self, i, k):
        # two rise-then-decay functions and one shell, which costs about
        # twice as much: the median job is a rise job
        rng = self.draw(i, k)
        jobs = []
        for j, kind in enumerate(("rise", "rise", "shell")):
            op = self.OPS[(i + j) % len(self.OPS)]
            n = 2 + (i + 2 * j) % 5
            f = self._shape(rng, kind, n)
            jobs.append(_rearrange_job(f"rearrange-{i:04d}-p{k}-{kind}{j}", f, op,
                                       rng.uniform(2.3, 2.7)))
        return jobs

    def warmup_job(self):
        rng = self.draw("warmup", 0)
        return _rearrange_job("rearrange-warmup", self._shape(rng, "rise", 3),
                              "grad_norm_euclidean", 2.5)

    def probes(self):
        """Plateaus (f constant on an annulus) leave a flat stretch in the
        rearrangement, and both of its norms go wrong there."""
        hyp = _rearrange_job("rearrange-defect-plateau-polya-szego",
                             plateau(4, 0.3, 1.0, 0.5, 1.0, 4.0),
                             "grad_norm_hyperbolic", 2.5)
        hyp.known_defect = ("the rearrangement's derivative closure is non-zero "
                            "on the flat stretch a plateau leaves, so "
                            "grad_norm_hyperbolic overshoots the Polya-Szego bound")
        lp = _rearrange_job("rearrange-defect-plateau-equimeasurability",
                            plateau(5, 0.2970386123427028, 0.9732210656019374,
                                    0.49485780602200446, 0.9479412589143916,
                                    5.336761884668362),
                            "lp_norm", 2.5079721955068357)
        lp.known_defect = ("lp_norm of a plateau's rearrangement misses the "
                           "direct L^q norm by ~3e-9, above the 1e-9 bar, with "
                           "an error estimate that does not cover it")
        return [hyp, lp]


# ---------------------------------------------------------------------------
# lemma: margin certification and violation search
# ---------------------------------------------------------------------------

class Lemma(Workload):
    name = "lemma"
    why = ("no quadrature and no profiles: the mpmath recertification and "
           "the large-radius edge; the control for quadrature and "
           "rearrangement work")
    round_s = 0.22
    traced_rounds = 10
    repeat_kind = "lemma-verify"

    def _verify(self, job_id, n, p, t_max):
        out = self.jobdir(job_id)
        argv = ["lemma", "verify", "--n", str(n), "--p", _fmt(p),
                "--t-max", _fmt(t_max), "--out", out]
        return Job(job_id, "lemma-verify", lambda: run_cli(argv),
                   frozenset({0}), argv=argv)

    def round(self, i, k):
        rng = self.draw(i, k)
        jid = f"lemma-{i:04d}-p{k}"
        jobs = []
        # the round's draw gives p and t_max.  Verify runs cost about 30x
        # more near the large-radius edge than at t_max <= 60, and their
        # cost depends on n (n = 2 skips the slope check), so each round has
        # one of each at fixed n: the short ones form the cluster of like
        # cost in which job_p50_s falls, the edge ones the one in which
        # job_tail_s falls.  The violate jobs cycle over n.
        n = 4
        b = boundary_exponent(n)
        p = b if i % 4 == 0 else rng.uniform(b, b + 1.5)
        jobs.append(self._verify(f"{jid}-v", n, p, rng.log_uniform(25.0, 60.0)))
        # phi leaves double range at (n-1) t = 700; radii past it are the
        # known-defect probes.  An edge run's cost grows steeply with p and
        # t_max (0.04 s at p = 2n/(n-1), up to 0.3 s), so both stay in a
        # narrow band.
        n = 3
        b = boundary_exponent(n)
        jobs.append(self._verify(f"{jid}-edge", n, rng.uniform(b + 1.0, b + 1.3),
                                 rng.uniform(0.97, 1.0) * 690.0 / (n - 1)))
        n = 3 + i % 4
        p = boundary_exponent(n) - rng.uniform(0.05, 0.6)
        t_max = geometry.violation_onset(n, p) * rng.uniform(1.5, 3.0)
        argv = ["lemma", "violate", "--n", str(n), "--p", _fmt(p),
                "--t-max", _fmt(t_max), "--out", self.jobdir(f"{jid}-x")]
        jobs.append(Job(f"{jid}-x", "lemma-violate", lambda: run_cli(argv),
                        frozenset({0}), argv=argv))
        return jobs

    def probes(self):
        reason = ("margin_slope_factor uses the unscaled phi, which overflows "
                  "once (n-1) t_max passes ~700")
        jobs = []
        for n, p, t_max in ((4, 3.0, 300.0), (6, 2.5, 200.0)):
            job = self._verify(f"lemma-defect-overflow-n{n}-p{p:g}-t{t_max:g}",
                               n, p, t_max)
            job.kind = "defect"
            job.known_defect = reason
            jobs.append(job)
        return jobs


WORKLOADS = {w.name: w for w in (Corpus, Concentrate, Rearrange, Lemma)}


def check_source(src_dir):
    """The package must come from the checkout's own ``src``."""
    where = os.path.dirname(os.path.abspath(hypineq.__file__))
    if os.path.dirname(where) != os.path.abspath(src_dir):
        raise SystemExit(f"hypineq imported from {where}, not from {src_dir}")

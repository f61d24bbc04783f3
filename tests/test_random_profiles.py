"""Random admissible profiles as a standing falsification gate.

Every inequality the package verifies holds on every admissible profile.
So on a random one, a report that fails passes() at constant_scale = 1 is
a bug, and so is any exception outside the DomainError family; no
reference solution is needed.  This is property-based testing (Claessen
and Hughes, QuickCheck, ICFP 2000; MacIver et al., Hypothesis, JOSS
2019) with a seeded random.Random in place of a shrinker: every failure
names its draw, and the draw's number and seed rebuild it.

A draw is one inequality at one (n, p), GN's alpha drawn from its range,
on one profile:
- 85% are sums of one to three closures (tent, quadratic spike, C^1
  bump, exponential, sech, (1 + s/c)^-k) with heights 10^[-6, 6],
  supports, rates and scales 10^[-5, 5], and a linear or geometric grid
  of 3-60 nodes.  The sum's tail comes from its parts, and every
  compact part that ends inside the sum's support marks a join there;
- 15% are truncated bubbles with lambda in 10^[-9, 0], truncation
  10^[-1, 1] and height 10^[-6, 6].
n runs up to 12, and half of the draws put p within 10^[-6, -1] of an
end of the inequality's range.
"""

import collections
import functools
import math
import random

import pytest

from hypineq import cli, verifier
from hypineq.constants import boundary_exponent
from hypineq.errors import DomainError
from hypineq.quadrature import geomspace, linspace
from hypineq.rearrangement import RadialProfile, Tail, write_profile
from hypineq.sharpness import truncated_bubble
from oracles import scale_profile

SEED = 20181
DRAWS = 300
# OverflowDomainError rejects of the 300 draws: a powered term past double
# range.  The count may fall (ROADMAP item 13) and may never rise
OVERFLOW_REJECTS = 22
# passing draws with a side exactly 0.0 on their nonzero profile, which say
# nothing: near p = n a mass underflows.  The count may fall (ROADMAP item
# 13) and may never rise
VACUOUS_PASSES = 10
# draws that end in a passing report: may rise as the rejects fall, never
# fall
PASSES = 273
# draws whose outcome is a known defect: the gate leaves them to
# test_known_defects_stay_known, where each is a strict xfail
KNOWN_DEFECTS = {
    11: "ROADMAP items 12 and 13: the gradient integral of a bubble of "
        "height 0.04 falls below the quadrature's absolute tolerance and "
        "misses its drop (a false violation; at height 1 the report passes)",
    238: "ROADMAP item 18: near p = 1 under a power tail with k = 1.007, the "
         "float closures' |v'| underflows to 0 near t = 45 (s about 3e154), "
         "where the hyperbolic gradient integrand is still about 11, so the "
         "sweep past the last node exhausts its panel budget (ConvergenceError). "
         "The generator's closures are floats, which the pass reads through "
         "_float_logs; stating them in logs would move all 300 draws",
}
# the exit code of verify --corpus on each of the first 24 draws, written to
# a file (so read back grid-only: no closure, no joins)
CLI_EXIT_CODES = (0,) * 22 + (2, 0)


def _compact(kind, A, b):
    """A (1 - s/b)^k (tent k = 1, quadratic spike k = 2) or the C^1 bump
    A (1 - (s/b)^2)^2 on [0, b), zero beyond."""
    if kind == "bump":
        return (lambda s: A * (1.0 - (s / b) ** 2) ** 2 if s < b else 0.0,
                lambda s: -4.0 * A * (1.0 - (s / b) ** 2) * s / b ** 2 if s < b else 0.0)
    k = {"tent": 1, "quad": 2}[kind]
    return (lambda s: A * (1.0 - s / b) ** k if s < b else 0.0,
            lambda s: -k * A * (1.0 - s / b) ** (k - 1) / b if s < b else 0.0)


def _part(rng):
    """(label, fn, dfn, tail kind, tail parameter, extent) of one closure."""
    kind = rng.choice(("tent", "quad", "bump", "exp", "sech", "power"))
    A = 10.0 ** rng.uniform(-6.0, 6.0)
    c = 10.0 ** rng.uniform(-5.0, 5.0)
    if kind in ("tent", "quad", "bump"):
        return (f"{kind}(A={A!r}, b={c!r})", *_compact(kind, A, c), "compact", c, c)
    if kind == "exp":
        return (f"exp(A={A!r}, a={c!r})", lambda s: A * math.exp(-c * s),
                lambda s: -c * A * math.exp(-c * s), "exponential", c, 30.0 / c)
    if kind == "sech":
        def fn(s):
            e = math.exp(-c * s)
            return 2.0 * A * e / (1.0 + e * e)

        def dfn(s):
            e = math.exp(-c * s)
            return 2.0 * A * c * e * math.expm1(-2.0 * c * s) / (1.0 + e * e) ** 2
        return f"sech(A={A!r}, a={c!r})", fn, dfn, "exponential", c, 30.0 / c
    k = 10.0 ** rng.uniform(-0.3, 0.7)
    return (f"power(A={A!r}, c={c!r}, k={k!r})", lambda s: A * (1.0 + s / c) ** -k,
            lambda s: -k * A / c * (1.0 + s / c) ** (-k - 1.0), "power", k, 1e4 * c)


def _closure_sum(rng):
    """(description, builder) of a sum of one to three closures."""
    parts = [_part(rng) for _ in range(rng.randint(1, 3))]
    m = rng.randint(3, 60)
    depth = 10.0 ** -rng.uniform(2.0, 9.0) if rng.random() < 0.5 else None
    tails = collections.defaultdict(list)
    for _, _, _, kind, param, _ in parts:
        tails[kind].append(param)
    # the slowest decay among the parts decides the sum's tail
    tail = (("power", min(tails["power"])) if tails["power"] else
            ("exponential", min(tails["exponential"])) if tails["exponential"] else
            ("compact", max(tails["compact"])))
    last = tail[1] if tail[0] == "compact" else max(part[5] for part in parts)
    support = last if tail[0] == "compact" else math.inf
    joins = sorted({b for b in tails["compact"] if b < support})
    grid = f"{m} linear nodes" if depth is None else f"{m} geometric nodes from {depth:g}"
    describe = " + ".join(part[0] for part in parts) + f" on {grid}"

    def build():
        fns, dfns = [part[1] for part in parts], [part[2] for part in parts]

        # fsum, since sum() rounds differently from Python 3.12 on
        def fn(s):
            return math.fsum(f(s) for f in fns)

        def dfn(s):
            return math.fsum(f(s) for f in dfns)

        nodes = (linspace(0.0, last, m) if depth is None
                 else [0.0] + geomspace(depth * last, last, m - 1))
        return RadialProfile(nodes, [fn(s) for s in nodes], Tail(*tail), fn=fn,
                             dfn=dfn, label="random", joins=joins)
    return describe, build


def _bubble(rng, n, p):
    """(description, builder) of a truncated bubble at (n, p) if 1 < p < n,
    else at an exponent drawn from (1, n)."""
    if not 1.0 < p < n:
        p = rng.uniform(1.0, n)
    lam, T = 10.0 ** rng.uniform(-9.0, 0.0), 10.0 ** rng.uniform(-1.0, 1.0)
    A = 10.0 ** rng.uniform(-6.0, 6.0)
    return (f"{A!r} * truncated_bubble({n}, {p!r}, {lam!r}, {T!r})",
            lambda: scale_profile(truncated_bubble(n, p, lam, T), A))


def _range(inequality, rng):
    """(n, low end, high end or None) of the inequality's (n, p) range."""
    if inequality in ("poincare_sobolev", "gagliardo_nirenberg", "log_sobolev"):
        n = rng.randint(4, 12)
        return n, boundary_exponent(n), float(n)
    n = rng.randint(2, 12)
    if inequality == "mugelli_talenti_sum":
        return n, 1.0, float(n)
    if inequality == "key_comparison":
        return n, boundary_exponent(n), None
    return n, float(n), None


Draw = collections.namedtuple("Draw", "index inequality n p alpha describe build")


def draw(rng, index):
    """The next draw; it takes every random number it needs from rng before
    anything is evaluated, so draw k is the same whatever the others do."""
    inequality = rng.choice(sorted(verifier.INEQUALITIES))
    n, lo, hi = _range(inequality, rng)
    if rng.random() < 0.5:
        # within 10^[-6, -1] of one end, inside the range
        gap = 10.0 ** rng.uniform(-6.0, -1.0)
        p = hi - gap if hi is not None and rng.random() < 0.5 else lo + gap
    else:
        p = rng.uniform(lo, hi if hi is not None else 2.0 * n + 2.0)
    alpha = None
    if verifier.INEQUALITIES[inequality].needs_alpha:
        alpha = rng.uniform(0.0, n / (n - p))
    describe, build = (_bubble(rng, n, p) if rng.random() < 0.15
                       else _closure_sum(rng))
    return Draw(index, inequality, n, p, alpha, describe, build)


@functools.lru_cache(maxsize=1)
def draws():
    rng = random.Random(SEED)
    return tuple(draw(rng, i) for i in range(DRAWS))


def _name(d):
    return (f"draw {d.index} (seed {SEED}): {d.inequality} n={d.n} p={d.p!r}"
            + ("" if d.alpha is None else f" alpha={d.alpha!r}") + f" on {d.describe}")


def _outcome(d):
    """What one draw gives: "pass", "pass: vacuous" (a side is 0) or
    "fail: ..." for its report, the name of the DomainError it raised, or
    "unexpected ..." for any other exception."""
    try:
        rep = verifier.evaluate(d.inequality, d.build(), d.n, d.p, d.alpha)
    except DomainError as exc:
        return type(exc).__name__
    except Exception as exc:
        return f"unexpected {type(exc).__name__}: {exc}"
    if rep.passes():
        return "pass" if rep.lhs != 0.0 and rep.rhs != 0.0 else "pass: vacuous"
    return f"fail: deficit {rep.deficit!r}, bar {rep.quadrature_error!r}"


def test_random_admissible_profiles_pass():
    outcomes = [(d, _outcome(d)) for d in draws() if d.index not in KNOWN_DEFECTS]
    counts = collections.Counter(o.split(":")[0] for _, o in outcomes)
    bad = [f"{_name(d)}: {o}" for d, o in outcomes
           if o.startswith(("fail", "unexpected"))]
    assert not bad, "\n".join(bad)
    assert counts["OverflowDomainError"] <= OVERFLOW_REJECTS, dict(counts)
    vacuous = [d.index for d, o in outcomes if o == "pass: vacuous"]
    assert len(vacuous) <= VACUOUS_PASSES, vacuous
    assert counts["pass"] >= PASSES, dict(counts)


@pytest.mark.parametrize("index", [
    pytest.param(i, marks=pytest.mark.xfail(strict=True, reason=reason))
    for i, reason in sorted(KNOWN_DEFECTS.items())])
def test_known_defects_stay_known(index):
    d = draws()[index]
    assert _outcome(d) == "pass", _name(d)


def test_random_profile_files_through_verify(tmp_path, capsys):
    codes = []
    for d in draws()[:len(CLI_EXIT_CODES)]:
        corpus = tmp_path / str(d.index)
        corpus.mkdir()
        write_profile(str(corpus / "draw.txt"), d.build())
        argv = ["verify", "--inequality", d.inequality, "--n", str(d.n),
                "--p", repr(d.p), "--corpus", str(corpus), "--out", str(corpus)]
        if d.alpha is not None:
            argv += ["--alpha", repr(d.alpha)]
        codes.append(cli.main(argv))
    capsys.readouterr()
    assert tuple(codes) == CLI_EXIT_CODES

"""Sharpness certification: derivative-free minimization of deficit
ratios over concentrating test families.

The sharp constants are infima that are not attained, so the evidence is
a trend: the ratio decreases toward the constant as the family
concentrates, while never dipping below it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from . import verifier
from .constants import unit_ball_volume
from .errors import DomainError, OverflowDomainError
from .quadrature import geomspace
from .rearrangement import RadialProfile, Tail
from .report import csv_table

__all__ = [
    "SharpnessResult",
    "truncated_bubble",
    "untruncated_bubble",
    "ratio_function",
    "minimize_ratio",
    "lambda_sweep",
    "non_attainment_scan",
]


def _cutoff(x: float) -> float:
    """C^1 polynomial ramp: 1 on [0, 1/2], 0 at 1, smoothstep between."""
    if x <= 0.5:
        return 1.0
    if x >= 1.0:
        return 0.0
    y = 2.0 * x - 1.0
    return 1.0 - y * y * (3.0 - 2.0 * y)


def _dcutoff(x: float) -> float:
    if x <= 0.5 or x >= 1.0:
        return 0.0
    y = 2.0 * x - 1.0
    return -(6.0 * y - 6.0 * y * y) * 2.0


def _bubble(n: int, p: float, lam: float):
    """(v, v', scale sigma lam^n, decay exponent of v in s) of the
    flat-Sobolev extremal on the measure line."""
    if not (1.0 < p < n):
        raise DomainError(f"bubble needs 1 < p < n, got n={n}, p={p}")
    if not lam > 0.0:
        raise DomainError(f"scale must be positive, got {lam!r}")
    sigma = unit_ball_volume(n)
    try:
        scale = sigma * lam ** n
    except OverflowError:
        scale = math.inf
    if not scale * 10.0 <= sys.float_info.max:  # untruncated_bubble's grid top
        raise OverflowDomainError(f"bubble scale sigma*lambda^n overflows double "
                                  f"precision at lambda={lam!r}")
    if not scale * 1e-4 >= sys.float_info.min:
        raise DomainError(f"bubble scale sigma*lambda^n underflows double "
                          f"precision at lambda={lam!r}")
    e = p / ((p - 1.0) * n)
    ex = (n - p) / p

    # where z = (s / scale)^e overflows, 1 + z is z in double precision
    # and the values are taken from log z
    def fn(s):
        try:
            return (1.0 + (s / scale) ** e) ** (-ex)
        except OverflowError:
            return math.exp(-ex * e * math.log(s / scale))

    def dfn(s):
        if s <= 0.0:
            return 0.0
        try:
            z = (s / scale) ** e
        except OverflowError:
            return -ex * e * fn(s) / s
        return -ex * (1.0 + z) ** (-ex - 1.0) * e * z / s

    return fn, dfn, scale, e * ex


def untruncated_bubble(n: int, p: float, lam: float) -> RadialProfile:
    """Profile of the flat-Sobolev extremal, transplanted to the measure
    line; power tail, admissible for critical-norm quantities only."""
    fn, dfn, scale, decay = _bubble(n, p, lam)
    # the top stays above the scale, so the grid increases for any lambda
    grid = [0.0] + geomspace(scale * 1e-4, max(1e6, scale * 10.0), 40)
    return RadialProfile(grid, [fn(s) for s in grid], Tail("power", decay),
                         fn=fn, dfn=dfn, label=f"bubble-l{lam:g}")


def truncated_bubble(n: int, p: float, lam: float, T: float) -> RadialProfile:
    """The concentrating test family: flat-Sobolev extremal profile times
    a C^1 cutoff supported on [0, T]."""
    if not (1.0 < p < n):
        raise DomainError(f"bubble needs 1 < p < n, got n={n}, p={p}")
    if not (lam > 0.0 and T > 0.0):
        raise DomainError("scale and truncation must be positive")
    base_fn, base_dfn, scale, _ = _bubble(n, p, lam)

    def fn(s):
        if s >= T:
            return 0.0
        return base_fn(s) * _cutoff(s / T)

    def dfn(s):
        if s >= T:
            return 0.0
        return base_dfn(s) * _cutoff(s / T) + base_fn(s) * _dcutoff(s / T) / T

    lo = min(scale * 1e-4, T * 1e-5)
    grid = [0.0] + geomspace(lo, T, 48)
    vals = [fn(s) for s in grid]
    return RadialProfile(grid, vals, Tail("compact", T), fn=fn, dfn=dfn,
                         label=f"truncated-bubble-l{lam:g}-T{T:g}")


@dataclass(frozen=True)
class SharpnessResult:
    best_ratio: float
    target_constant: float
    trace: Tuple[Tuple[int, float, float, float, float], ...]
    converged: bool

    @property
    def gap(self) -> float:
        return self.best_ratio - self.target_constant

    def trace_csv(self) -> str:
        return csv_table(("iteration", "lambda", "T", "ratio", "gap"), self.trace)


def ratio_function(inequality_id: str, n: int, p: float
                   ) -> Tuple[Callable[[RadialProfile], float], float]:
    """(ratio evaluator, target constant) for an inequality: the ratio and
    target columns of its row in verifier.INEQUALITIES.

    The ratio is the constant-free quotient whose infimum over admissible
    profiles is the target; it is read off the row's report.
    """
    row = verifier.INEQUALITIES.get(inequality_id)
    if row is None or row.ratio is None:
        raise DomainError(f"no ratio defined for inequality {inequality_id!r}")

    def ratio(v: RadialProfile) -> float:
        try:
            return row.ratio(verifier.evaluate(inequality_id, v, n, p))
        except ZeroDivisionError:
            raise DomainError("zero profile has no ratio") from None

    return ratio, row.target(n, p)


def _toward(a: Tuple[float, ...], b: Tuple[float, ...], k: float) -> Tuple[float, ...]:
    """The point a + k (b - a)."""
    return tuple(x + k * (y - x) for x, y in zip(a, b))


def _nelder_mead(f: Callable[[Tuple[float, ...]], float], x0: Sequence[float],
                 step: float, max_iter: int, f_tol: float
                 ) -> Tuple[Tuple[float, ...], float,
                            List[Tuple[Tuple[float, ...], float]], bool]:
    """Deterministic Nelder-Mead with standard coefficients.  Returns
    (best x, best f, evaluation log, converged)."""
    dim = len(x0)
    pts = [tuple(x0)]
    for i in range(dim):
        x = list(x0)
        x[i] += step
        pts.append(tuple(x))
    log: List[Tuple[Tuple[float, ...], float]] = []

    def ev(x):
        val = f(x)
        log.append((x, val))
        return val

    vals = [ev(x) for x in pts]
    converged = False
    for _ in range(max_iter):
        order = sorted(range(dim + 1), key=vals.__getitem__)
        pts = [pts[i] for i in order]
        vals = [vals[i] for i in order]
        if abs(vals[-1] - vals[0]) <= f_tol * max(abs(vals[0]), 1e-30):
            converged = True
            break
        centroid = tuple(sum(xs) / dim for xs in zip(*pts[:-1]))
        xr = _toward(centroid, pts[-1], -1.0)
        fr = ev(xr)
        if vals[0] <= fr < vals[-2]:
            pts[-1], vals[-1] = xr, fr
        elif fr < vals[0]:
            xe = _toward(centroid, pts[-1], -2.0)
            fe = ev(xe)
            if fe < fr:
                pts[-1], vals[-1] = xe, fe
            else:
                pts[-1], vals[-1] = xr, fr
        else:
            xc = _toward(centroid, pts[-1], 0.5)
            fc = ev(xc)
            if fc < vals[-1]:
                pts[-1], vals[-1] = xc, fc
            else:
                for i in range(1, dim + 1):
                    pts[i] = _toward(pts[0], pts[i], 0.5)
                    vals[i] = ev(pts[i])
    best = min(range(dim + 1), key=vals.__getitem__)
    return pts[best], vals[best], log, converged


def minimize_ratio(inequality_id: str, n: int, p: float, T0: float = 1.0,
                   max_iter: int = 60) -> SharpnessResult:
    """Minimize the deficit ratio over truncated bubbles, in log(scale)
    and log(truncation) coordinates, from scale 0.1 and truncation T0.
    Fully deterministic."""
    ratio, target = ratio_function(inequality_id, n, p)

    # clamp the simplex to the window where double-precision evaluation
    # of the ratio is trustworthy; outside it an unconstrained search
    # drifts to absurd scales and the roundoff floor fakes an undercut
    # of the sharp constant
    lam_box = (math.log(1e-10), math.log(10.0))
    t_box = (math.log(1e-4), math.log(1e6))

    def clamped(x):
        return (math.exp(min(max(x[0], lam_box[0]), lam_box[1])),
                math.exp(min(max(x[1], t_box[0]), t_box[1])))

    def f(x):
        return ratio(truncated_bubble(n, p, *clamped(x)))

    x0 = (math.log(0.1), math.log(T0))
    best_x, best_f, log, converged = _nelder_mead(f, x0, 0.5, max_iter, 1e-8)
    trace = tuple((i, *clamped(x), val, val - target)
                  for i, (x, val) in enumerate(log))
    return SharpnessResult(best_f, target, trace, converged)


def lambda_sweep(inequality_id: str, n: int, p: float,
                 lambdas: Sequence[float], T: float = 1.0) -> List[Tuple[float, float]]:
    """Ratio along a fixed-truncation concentration path; the trend toward
    the target as the scale shrinks is the sharpness evidence."""
    ratio, _ = ratio_function(inequality_id, n, p)
    return [(lam, ratio(truncated_bubble(n, p, lam, T))) for lam in lambdas]


def non_attainment_scan(inequality_id: str, n: int, p: float,
                        corpus: Sequence[RadialProfile]) -> dict:
    """Strict positivity of the deficit on every nonzero corpus profile.

    Returns a summary with the minimum margin; a margin below ten times
    its quadrature error marks the profile as undecided rather than
    claiming strictness.
    """
    entries = []
    undecided = []
    for v in corpus:
        rep = verifier.evaluate(inequality_id, v, n, p)
        entries.append((v.label, rep.deficit, rep.quadrature_error))
        if not rep.deficit > 10.0 * rep.quadrature_error:
            undecided.append(v.label)
    min_label, min_deficit, _ = min(entries, key=lambda e: e[1])
    return {
        "inequality_id": inequality_id,
        "n": n,
        "p": p,
        "profiles": len(entries),
        "min_margin": min_deficit,
        "min_margin_label": min_label,
        "strictly_positive": not undecided,
        "undecided": undecided,
    }

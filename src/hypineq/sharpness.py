"""Sharpness certification: the limit of a deficit ratio along a
concentrating test family.

The sharp constants are infima that are not attained, so the evidence is
the ratio's limit as the bubble family concentrates (lambda -> 0).  The
gap to the constant falls like a power of lambda, so Richardson
extrapolation turns a run's ratios into that limit, with an error bar
from the change between successive extrapolants and the ratios' own
quadrature bars.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from . import verifier
from .constants import unit_ball_volume
from .errors import DomainError, OverflowDomainError
from .geometry import softplus
from .quadrature import geomspace
from .rearrangement import RadialProfile, Tail, closure_profile
from .report import csv_table

__all__ = [
    "SharpnessResult",
    "truncated_bubble",
    "untruncated_bubble",
    "ratio_function",
    "minimize_ratio",
    "extrapolate",
]


def _bubble(n: int, p: float, lam: float):
    """(log closure, scale sigma lam^n, decay exponent of v in s) of the
    flat-Sobolev extremal on the measure line, v = (1 + z)^(-ex) with
    z = (s / scale)^e, and log(1 + z) = softplus(log z) at any s."""
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
    log_scale = math.log(scale)
    # |v'| = ex e z (1 + z)^(-ex-1) / s, z / s = (s / scale)^(e-1) / scale (1 / scale if e = 1)
    log_slope, e1 = math.log(ex * e) - log_scale, e - 1.0

    def logs(x):
        u = x - log_scale  # log(s / scale)
        l1 = softplus(e * u)  # log(1 + z)
        return log_slope + (e1 * u if e1 else 0.0) - (ex + 1.0) * l1, -ex * l1

    return logs, scale, e * ex


def untruncated_bubble(n: int, p: float, lam: float) -> RadialProfile:
    """Profile of the flat-Sobolev extremal, transplanted to the measure
    line; power tail, admissible for critical-norm quantities only."""
    logs, scale, decay = _bubble(n, p, lam)
    # the top stays above the scale, so the grid increases for any lambda
    grid = [0.0] + geomspace(scale * 1e-4, max(1e6, scale * 10.0), 40)
    return closure_profile(grid, Tail("power", decay), logs, f"bubble-l{lam:g}")


def truncated_bubble(n: int, p: float, lam: float, T: float) -> RadialProfile:
    """The concentrating test family: flat-Sobolev extremal profile times
    a C^1 cutoff supported on [0, T], whose v'' jumps at T / 2 (its
    join).  The cutoff is 1 up to T / 2, then the smoothstep
    c = (1 - y)^2 (1 + 2y), y = 2s/T - 1, whose slope is -12 y (1 - y) / T."""
    if not (lam > 0.0 and T > 0.0):
        raise DomainError("scale and truncation must be positive")
    if T == math.inf:
        raise DomainError("truncation must be finite, got inf")
    base, scale, _ = _bubble(n, p, lam)
    log_T, ln2 = math.log(T), math.log(2.0)

    def logs(x):
        w = x - log_T  # log(s / T)
        if w >= 0.0:
            return -math.inf, -math.inf
        ldv, lv = base(x)
        if w <= -ln2:
            return ldv, lv
        y = math.expm1(w + ln2)
        ly1 = ln2 + math.log(-math.expm1(w))  # log(1 - y)
        lc = 2.0 * ly1 + math.log1p(2.0 * y)
        # |v'| = |base'| c + base |c'|, summed in logs
        a, b = ldv + lc, lv + math.log(12.0 * y / T) + ly1
        return max(a, b) + math.log1p(math.exp(-abs(a - b))), lv + lc

    lo = min(scale * 1e-4, T * 1e-5)
    return closure_profile([0.0] + geomspace(lo, T, 48), Tail("compact", T), logs,
                           f"truncated-bubble-l{lam:g}-T{T:g}", joins=(0.5 * T,))


@dataclass(frozen=True)
class SharpnessResult:
    """A run's (lambda, ratio, bar) points at truncation T, in order."""

    target_constant: float
    truncation: float
    points: Tuple[Tuple[float, float, float], ...]

    @property
    def trace(self) -> Tuple[Tuple[int, float, float, float, float], ...]:
        return tuple((i, lam, self.truncation, r, r - self.target_constant)
                     for i, (lam, r, _) in enumerate(self.points))

    def trace_csv(self) -> str:
        return csv_table(("iteration", "lambda", "T", "ratio", "gap"), self.trace)


def ratio_function(inequality_id: str, n: int, p: float
                   ) -> Tuple[Callable[[RadialProfile], Tuple[float, float]], float]:
    """(ratio evaluator, target constant) for an inequality: the ratio and
    target columns of its row in verifier.INEQUALITIES.

    The ratio is the constant-free quotient whose infimum over admissible
    profiles is the target.  The evaluator returns (ratio, bar), both read
    off the row's report: the bar is target * quadrature_error / rhs.
    """
    row = verifier.INEQUALITIES.get(inequality_id)
    if row is None or row.ratio is None:
        raise DomainError(f"no ratio defined for inequality {inequality_id!r}")
    target = row.target(n, p)

    def ratio(v: RadialProfile) -> Tuple[float, float]:
        try:
            rep = verifier.evaluate(inequality_id, v, n, p)
            return row.ratio(rep), target * rep.quadrature_error / rep.rhs
        except ZeroDivisionError:
            raise DomainError("zero profile has no ratio") from None

    return ratio, target


def extrapolate(points: Sequence[Tuple[float, float, float]],
                rate: Optional[float]) -> List[Tuple[float, float]]:
    """Richardson extrapolants (L_k, bar_k) of a run's (lambda, ratio, bar)
    points, in order.

    Where the gap to the limit falls like lambda^rate, two successive
    ratios give L_k = r_k - (r_{k-1} - r_k) / ((lambda_{k-1} / lambda_k)^rate
    - 1).  With no rate, each step estimates it from its last three ratios
    (Aitken).  The bar is |L_k - L_{k-1}| plus the bars of r_{k-1} and r_k.
    A step with no positive rate, or whose extrapolant is undefined (an
    equal scale), has no extrapolant, and the next step has no bar.
    """
    out: List[Tuple[float, float]] = []
    last = math.nan
    for k in range(1, len(points)):
        (lam0, r0, bar0), (lam1, r1, bar1) = points[k - 1], points[k]
        try:
            kappa = rate if rate is not None else (
                math.log((points[k - 2][1] - r0) / (r0 - r1)) / math.log(lam0 / lam1)
                if k >= 2 else math.nan)
            L = r1 - (r0 - r1) / ((lam0 / lam1) ** kappa - 1.0) if kappa > 0.0 else math.nan
        except (ValueError, ZeroDivisionError, OverflowError):
            L = math.nan
        if math.isfinite(L) and math.isfinite(last):
            out.append((L, abs(L - last) + bar0 + bar1))
        last = L
    return out


def minimize_ratio(inequality_id: str, n: int, p: float, T0: float = 1.0,
                   lambdas: Optional[Sequence[float]] = None,
                   max_iter: int = 9) -> SharpnessResult:
    """The ratio along the bubble family at truncation T0, at the given
    lambdas in order, or else descending in scale alone: lambda = 0.1 *
    10^-k for k = 0, ..., max_iter, stopping once the newest extrapolant's
    bar is no narrower than the one before.  Fully deterministic.

    The descent stops at 1e-10 (k = 9, so a max_iter above 9 acts as 9):
    below it, roundoff in the ratio can fake an undercut of the sharp
    constant.
    """
    if max_iter < 0:
        raise DomainError(f"max_iter must be >= 0, got {max_iter!r}")
    ratio, target = ratio_function(inequality_id, n, p)
    rate = verifier.INEQUALITIES[inequality_id].rate(n, p)
    descent = lambdas is None
    if descent:
        lambdas = [10.0 ** -(k + 1) for k in range(min(max_iter, 9) + 1)]
    points: List[Tuple[float, float, float]] = []
    for lam in lambdas:
        points.append((lam, *ratio(truncated_bubble(n, p, lam, T0))))
        if descent:
            bars = [bar for _, bar in extrapolate(points, rate)]
            if len(bars) >= 2 and bars[-1] >= bars[-2]:
                break
    return SharpnessResult(target, T0, tuple(points))

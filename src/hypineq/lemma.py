"""Batch certification of the radial kernel comparison across parameter
grids.

The central scalar fact of the package is that the margin function of
radius t (the gap between the shifted isoperimetric combination and its
two lower-bound terms) is non-negative exactly when the exponent sits at
or above the phase boundary 2n/(n-1).  verify_lemma certifies the
non-negative side on a grid; find_violation hunts for the sign change on
the other side, seeded by the asymptotic onset estimate.

All margins are reported in scaled form, margin / (1 + volume^p), which
stays representable at radii where the raw margin overflows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Tuple

from . import geometry
from .constants import boundary_exponent
from .errors import DomainError
from .quadrature import geomspace
from .report import csv_table

__all__ = ["MarginTable", "verify_lemma", "find_violation"]


@dataclass(frozen=True)
class MarginTable:
    """Margin evaluations on a radius grid, plus the verdict.

    margins holds the scaled margin m at each radius; f_values the raw
    margin read off it as m (1 + volume^p), which has m's sign, is 0
    where m is 0 and +-inf past double range.  violation, when present,
    is a (t, scaled margin) pair with a certified negative sign, and
    tolerance how far below zero a margin may dip and still pass.
    """

    n: int
    p: float
    mode: str
    ts: Tuple[float, ...]
    f_values: Tuple[float, ...]
    margins: Tuple[float, ...]
    min_margin: float
    min_margin_t: float
    passed: bool
    tolerance: Optional[float] = None
    violation: Optional[Tuple[float, float]] = None
    onset_estimate: Optional[float] = None
    inconclusive: bool = False
    monotone: Optional[bool] = None
    slope_positive: Optional[bool] = None

    def to_csv(self) -> str:
        return csv_table(("t", "F", "margin"),
                         zip(self.ts, self.f_values, self.margins))

    def summary(self) -> dict:
        out = {
            "n": self.n,
            "p": self.p,
            "mode": self.mode,
            "points": len(self.ts),
            "t_max": self.ts[-1] if self.ts else 0.0,
            "min_margin": self.min_margin,
            "min_margin_t": self.min_margin_t,
            "passed": self.passed,
            "inconclusive": self.inconclusive,
        }
        if self.tolerance is not None:
            out["tolerance"] = self.tolerance
        if self.violation is not None:
            out["violation_t"] = self.violation[0]
            out["violation_margin"] = self.violation[1]
        if self.onset_estimate is not None:
            out["onset_estimate"] = self.onset_estimate
        if self.monotone is not None:
            out["monotone"] = self.monotone
        if self.slope_positive is not None:
            out["slope_positive"] = self.slope_positive
        return out

    def to_json(self) -> str:
        return json.dumps(self.summary(), indent=2, sort_keys=True) + "\n"


def _check_args(p: float, t_max: float, t_first: float):
    """t_first is the grid's first positive radius."""
    if not math.isfinite(p):
        raise DomainError(f"p must be finite, got {p!r}")
    if not t_first < t_max < math.inf:
        raise DomainError(f"t_max must be finite and above {t_first:g}, got {t_max!r}")


def _log_scale(n: int, p: float, t: float) -> float:
    """log(1 + volume^p), overflow-safe."""
    x = p * geometry._log_phi(n, t)
    return x + math.log1p(math.exp(-x)) if x > 0.0 else math.log1p(math.exp(x))


def _columns(n: int, p: float, ts):
    """The scaled margin m at each radius, log|F| of the raw margin
    F = m (1 + volume^p) (-inf at m = 0), and F, +-inf past double range."""
    margins = [geometry.radial_margin_scaled(n, p, t) for t in ts]
    logf = [math.log(abs(m)) + _log_scale(n, p, t) if m else -math.inf
            for t, m in zip(ts, margins)]
    f_values = tuple(math.copysign(math.exp(lf) if lf < 709.78 else math.inf, m)
                     for m, lf in zip(margins, logf))
    return margins, logf, f_values


def verify_lemma(n: int, p: float, t_max: float = 25.0, num: int = 200,
                 tol: float = 1e-9) -> MarginTable:
    """Certify the margin is non-negative on a geometric radius grid.

    Requires (n=2, p>=2) or (n>=3, p>=2n/(n-1)); any t_max works.  Besides
    the pointwise margins, checks the raw margin is non-decreasing along
    the grid and, for n>=3, that the slope factor from its derivative
    (scaled by its first term, so of order one) stays non-negative.  Every
    radius runs in double precision; mpmath only re-certifies a slope
    factor that comes out below -1e-9.
    """
    _check_args(p, t_max, 1e-4)
    bdry = boundary_exponent(n)
    if p < bdry * (1.0 - 1e-12):
        raise DomainError(
            f"lemma range needs p >= {bdry:g} for n={n}, got p={p!r}")
    ts = [0.0] + geomspace(1e-4, t_max, num)
    margins, logf, f_values = _columns(n, p, ts)

    min_i = min(range(len(ts)), key=margins.__getitem__)
    min_margin = margins[min_i]
    passed = min_margin >= -tol

    # monotonicity of the raw margin on the log scale, so that radii past
    # double overflow still take part; margins below rounding noise are
    # skipped (identically-zero cases are all noise)
    seen = [lf for m, lf in zip(margins, logf) if m > 1e-13]
    monotone = all(b >= a - 1e-9 for a, b in zip(seen, seen[1:]))

    slope_positive = None if n < 3 else all(
        geometry.margin_slope_factor(n, p, t) >= -1e-9
        or not geometry.margin_slope_factor(n, p, t, precise=True) < 0.0
        for t in ts[1:])

    return MarginTable(
        n=n, p=p, mode="verify", ts=tuple(ts), f_values=f_values,
        margins=tuple(margins), min_margin=min_margin,
        min_margin_t=ts[min_i], tolerance=tol,
        passed=passed and monotone and slope_positive is not False,
        monotone=monotone, slope_positive=slope_positive)


def find_violation(n: int, p: float, t_max: float = 150.0, num: int = 240) -> MarginTable:
    """Locate a radius with a certified negative margin below the phase
    boundary.

    Scans a geometric grid; a radius counts only when its double-precision
    scaled margin is below -1e-13, and one above -1e-12 is re-certified
    with the high-precision path.  When the grid scan comes up empty,
    radii just past the asymptotic onset estimate are probed directly, so
    a sign that rounding alone decides never picks the reported radius.
    An empty search is reported as inconclusive, not as a failure of the
    reversed estimate.
    """
    _check_args(p, t_max, 0.5)
    bdry = boundary_exponent(n)
    if p >= bdry:
        raise DomainError(
            f"violation search needs p < {bdry:g} for n={n}, got p={p!r}")

    onset = geometry.violation_onset(n, p) if n >= 3 else None
    ts = geomspace(0.5, t_max, num)
    margins, _, f_values = _columns(n, p, ts)

    # the double margin is good to 1e-13 absolute: closer to zero its sign
    # is rounding, and the onset probes decide
    violation = None
    for t, m in zip(ts, margins):
        if m < -1e-13:
            if m > -1e-12:
                m = geometry.radial_margin_scaled(n, p, t, precise=True)
            if m < 0.0:
                violation = (t, m)
                break

    if violation is None and onset is not None:
        for factor in (1.05, 1.2, 1.5, 2.0):
            t = onset * factor
            m = geometry.radial_margin_scaled(n, p, t, precise=True)
            if m < 0.0:
                violation = (t, m)
                break

    min_i = min(range(len(ts)), key=margins.__getitem__)
    return MarginTable(
        n=n, p=p, mode="find-violation", ts=tuple(ts), f_values=f_values,
        margins=tuple(margins),
        min_margin=margins[min_i], min_margin_t=ts[min_i],
        passed=violation is not None, violation=violation,
        onset_estimate=onset, inconclusive=violation is None)

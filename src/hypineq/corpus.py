"""Reusable bank of admissible test profiles on the measure line.

The standard corpus mixes kinked, smooth, slowly decaying and
concentrating shapes so that batch deficit checks exercise every code
path: compact supports with corner derivatives, exponential and power
tails, and near-extremal concentrating profiles.  Every member carries
an analytic closure, so norm integrals are limited only by quadrature.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
from typing import List, Tuple

from .quadrature import geomspace, linspace
from .rearrangement import RadialProfile, Tail, write_profile

__all__ = ["tent_profile", "bump_profile", "standard_corpus",
           "bubble_corpus", "write_corpus"]


def _spike(name: str, height: float, support: float, k: int) -> RadialProfile:
    """A (1 - s/b)^k on [0, b), zero beyond: height A at 0, support b."""
    A, b = float(height), float(support)

    def fn(s):
        return A * (1.0 - s / b) ** k if s < b else 0.0

    def dfn(s):
        return -k * A * (1.0 - s / b) ** (k - 1) / b if 0.0 < s < b else 0.0

    grid = linspace(0.0, b, 33)
    vals = [fn(s) for s in grid]
    return RadialProfile(grid, vals, Tail("compact", b), fn=fn, dfn=dfn,
                         label=f"{name}-A{A:g}-b{b:g}")


def tent_profile(height: float, support: float) -> RadialProfile:
    """Piecewise-linear spike: height at 0, hitting zero at s = support."""
    return _spike("tent", height, support, 1)


def bump_profile(height: float, support: float) -> RadialProfile:
    """C^1 compact bump A*(1 - (s/b)^2)^2."""
    A, b = float(height), float(support)

    def fn(s):
        if s >= b:
            return 0.0
        z = s / b
        return A * (1.0 - z * z) ** 2

    def dfn(s):
        if s <= 0.0 or s >= b:
            return 0.0
        z = s / b
        return -4.0 * A * (1.0 - z * z) * z / b

    grid = linspace(0.0, b, 41)
    vals = [fn(s) for s in grid]
    return RadialProfile(grid, vals, Tail("compact", b), fn=fn, dfn=dfn,
                         label=f"bump-A{A:g}-b{b:g}")


def _exponential_profile(height: float, rate: float) -> RadialProfile:
    A, a = float(height), float(rate)

    def fn(s):
        return A * math.exp(-a * s)

    def dfn(s):
        return -a * A * math.exp(-a * s)

    grid = [0.0] + geomspace(1e-3 / a, 30.0 / a, 40)
    vals = [fn(s) for s in grid]
    return RadialProfile(grid, vals, Tail("exponential", a), fn=fn, dfn=dfn,
                         label=f"exp-A{A:g}-a{a:g}")


def _sech_profile(height: float, rate: float) -> RadialProfile:
    A, a = float(height), float(rate)

    def fn(s):
        e = math.exp(-a * s)
        return 2.0 * A * e / (1.0 + e * e)

    def dfn(s):
        e = math.exp(-a * s)
        # 1 - e^2 as -expm1(-2as), which keeps its digits as s -> 0
        return 2.0 * A * a * e * math.expm1(-2.0 * a * s) / (1.0 + e * e) ** 2

    grid = [0.0] + geomspace(1e-3 / a, 30.0 / a, 40)
    vals = [fn(s) for s in grid]
    return RadialProfile(grid, vals, Tail("exponential", a), fn=fn, dfn=dfn,
                         label=f"sech-A{A:g}-a{a:g}")


def _power_profile(decay: float) -> RadialProfile:
    k = float(decay)

    def fn(s):
        return (1.0 + s) ** (-k)

    def dfn(s):
        return -k * (1.0 + s) ** (-k - 1.0)

    grid = [0.0] + geomspace(1e-3, 1e4, 40)
    vals = [fn(s) for s in grid]
    return RadialProfile(grid, vals, Tail("power", k), fn=fn, dfn=dfn,
                         label=f"power-k{k:g}")


def standard_corpus() -> List[RadialProfile]:
    """Twenty admissible profiles with analytic closures, in a new list
    on every call; the profiles themselves are frozen and built once.

    Composition: four tents, four smooth bumps, two quadratic spikes,
    four exponentials, two sech shapes, two concentrating truncated
    bubbles, two power tails.
    """
    return list(_standard_profiles())


@functools.lru_cache(maxsize=1)
def _standard_profiles() -> Tuple[RadialProfile, ...]:
    from .sharpness import truncated_bubble

    return (
        tent_profile(0.5, 1.0),
        tent_profile(1.0, 1.0),
        tent_profile(2.0, 3.0),
        tent_profile(5.0, 0.5),
        bump_profile(1.0, 1.0),
        bump_profile(1.0, 4.0),
        bump_profile(3.0, 2.0),
        bump_profile(0.7, 0.8),
        _spike("quad", 2.0, 1.5, 2),
        _spike("quad", 1.0, 6.0, 2),
        _exponential_profile(1.0, 0.5),
        _exponential_profile(2.0, 1.0),
        _exponential_profile(1.0, 2.0),
        _exponential_profile(0.5, 4.0),
        _sech_profile(1.0, 1.0),
        _sech_profile(1.5, 2.0),
        truncated_bubble(4, 8.0 / 3.0, 0.3, 2.0),
        truncated_bubble(4, 8.0 / 3.0, 0.05, 1.0),
        _power_profile(2.0),
        _power_profile(3.0),
    )


def bubble_corpus(n: int = 4, p: float = 8.0 / 3.0,
                  lambdas=(1e-4, 1e-5)) -> List[RadialProfile]:
    """Concentrated truncated bubbles (support [0, 1]) resampled on a
    dense grid.

    Dense sampling keeps the piecewise-linear reading of a serialized
    copy close to the analytic profile, so these survive a round trip
    through profile files (which drop closures) with percent-level
    accuracy.  Used for falsifiability runs, where a slightly inflated
    sharp constant must flip the deficit sign.
    """
    from .sharpness import truncated_bubble

    out = []
    for lam in lambdas:
        base = truncated_bubble(n, p, lam, 1.0)
        # the bubble's own geometric grid with 200 nodes instead of 48
        grid = [0.0] + geomspace(base.nodes[1], base.support_volume, 200)
        out.append(dataclasses.replace(base, nodes=grid,
                                       values=[base.fn(s) for s in grid]))
    return out


def write_corpus(directory: str) -> List[str]:
    """Serialize the standard corpus as one text file per profile;
    returns the written paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for v in standard_corpus():
        path = os.path.join(directory, f"{v.label}.txt")
        write_profile(path, v)
        paths.append(path)
    return paths

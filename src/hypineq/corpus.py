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

from .errors import DomainError
from .geometry import softplus
from .quadrature import geomspace, linspace
from .rearrangement import RadialProfile, Tail, closure_profile, write_profile

__all__ = ["tent_profile", "bump_profile", "standard_corpus",
           "bubble_corpus", "write_corpus"]


def _spike(name: str, height: float, support: float, k: int) -> RadialProfile:
    """A (1 - s/b)^k on [0, b), zero beyond: height A at 0, support b."""
    A, b = float(height), float(support)
    if not (A >= 0.0 and b > 0.0):
        raise DomainError(f"need height >= 0 and support > 0, got {A!r}, {b!r}")
    lb, la = math.log(b), math.log(A) if A else -math.inf  # A = 0: the zero profile
    lka = la + math.log(k / b)

    def logs(x):
        if x >= lb:
            return -math.inf, -math.inf
        l1 = math.log(-math.expm1(x - lb))  # log(1 - s/b)
        return lka + (k - 1) * l1, la + k * l1

    return closure_profile(linspace(0.0, b, 33), Tail("compact", b), logs,
                           f"{name}-A{A:g}-b{b:g}")


def tent_profile(height: float, support: float) -> RadialProfile:
    """Piecewise-linear spike: height at 0, hitting zero at s = support."""
    return _spike("tent", height, support, 1)


def bump_profile(height: float, support: float) -> RadialProfile:
    """C^1 compact bump A*(1 - (s/b)^2)^2."""
    A, b = float(height), float(support)
    if not (A >= 0.0 and b > 0.0):
        raise DomainError(f"need height >= 0 and support > 0, got {A!r}, {b!r}")
    lb, la = math.log(b), math.log(A) if A else -math.inf
    l4a = la + math.log(4.0 / b)

    def logs(x):
        if x >= lb:
            return -math.inf, -math.inf
        l1 = math.log(-math.expm1(2.0 * (x - lb)))  # log(1 - (s/b)^2)
        return l4a + l1 + x - lb, la + 2.0 * l1

    return closure_profile(linspace(0.0, b, 41), Tail("compact", b), logs,
                           f"bump-A{A:g}-b{b:g}")


def _exponential_profile(height: float, rate: float) -> RadialProfile:
    A, a = float(height), float(rate)
    la, laa = math.log(A), math.log(a * A)

    def logs(x):
        # a s, inf past double range, which a sweep's last panel reaches
        d = a * (math.exp(x) if x < 709.0 else math.inf)
        return laa - d, la - d

    return closure_profile([0.0] + geomspace(1e-3 / a, 30.0 / a, 40),
                           Tail("exponential", a), logs, f"exp-A{A:g}-a{a:g}")


def _sech_profile(height: float, rate: float) -> RadialProfile:
    """2A e / (1 + e^2), e = e^(-as), and |v'| = 2Aa e (1 - e^2) / (1 + e^2)^2."""
    A, a = float(height), float(rate)
    l2a, l2aa = math.log(2.0 * A), math.log(2.0 * a * A)

    def logs(x):
        d = a * (math.exp(x) if x < 709.0 else math.inf)  # a s
        l1 = math.log1p(math.exp(-2.0 * d))  # log(1 + e^2)
        # 1 - e^2 as -expm1(-2as), which keeps its digits as s -> 0
        gap = -math.expm1(-2.0 * d)
        return (l2aa - d + math.log(gap) - 2.0 * l1 if gap > 0.0 else -math.inf,
                l2a - d - l1)

    return closure_profile([0.0] + geomspace(1e-3 / a, 30.0 / a, 40),
                           Tail("exponential", a), logs, f"sech-A{A:g}-a{a:g}")


def _power_profile(decay: float) -> RadialProfile:
    k = float(decay)
    lk = math.log(k)

    def logs(x):
        l1 = softplus(x)  # log(1 + s)
        return lk - (k + 1.0) * l1, -k * l1

    return closure_profile([0.0] + geomspace(1e-3, 1e4, 40), Tail("power", k),
                           logs, f"power-k{k:g}")


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

"""Decreasing rearrangement on the measure line and all one-dimensional
norm integrals derived from it.

A radial function of geodesic radius is rearranged into a non-increasing
profile v of superlevel-set volume s.  The hyperbolic and Euclidean
symmetrizations are never materialized: every norm of either one is an
integral of v (or v') against an explicit weight.  radial_integrals takes
every integral one evaluation needs in one pass: of a rearrangement over
the level tau through the layer-cake and coarea formulas, s = mu(tau) and
|v'(s)| = 1 / |mu'(tau)| (Lieb-Loss, Analysis, Thm 1.13; Talenti 1976),
of any other closure in geodesic radius t through s = sigma phi(t),
ds = n sigma sinh(t)^(n-1) dt, of a grid-only profile in s.  Only
hardy_term_bound integrates a closure in s.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import os
import statistics
import sys
from array import array
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from . import geometry, quadrature
from .constants import (Params, boundary_exponent, check_dimension,
                        in_comparison_range, unit_ball_volume)
from .errors import DomainError
from .report import DeficitReport, fmt17

__all__ = [
    "Tail",
    "RadialProfile",
    "Piece",
    "RadialFunction",
    "distribution_function",
    "decreasing_rearrangement",
    "lp_integral",
    "lp_norm",
    "grad_norm_euclidean",
    "grad_norm_hyperbolic",
    "radial_integrals",
    "kernel_correction",
    "hardy_term_bound",
    "key_comparison",
    "scale_profile",
    "read_profile",
    "write_profile",
]

_TAIL_KINDS = ("compact", "power", "exponential")


@dataclass(frozen=True)
class Tail:
    """Behavior of a profile beyond its last grid node.

    compact: support ends at param (param >= last node; the last value
    must already be zero).  power: v ~ v_last * (s/s_last)^(-param).
    exponential: v ~ v_last * exp(-param*(s - s_last)).
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind not in _TAIL_KINDS:
            raise DomainError(f"unknown tail kind {self.kind!r}")
        if self.kind != "compact" and not self.param > 0.0:
            raise DomainError(f"tail {self.kind} needs a positive parameter")
        if self.kind == "compact" and self.param < 0.0:
            raise DomainError("compact support end must be >= 0")


@dataclass(frozen=True)
class RadialProfile:
    """Non-increasing profile on the measure line.

    nodes and values accept any sequences of numbers and are stored as
    tuples of floats.  A grid-only profile is one function: linear
    between nodes, the tail formula after the last node, and its
    derivative is the exact derivative of that function.
    When an analytic closure fn is attached, together with its derivative
    dfn (both or neither), the closure is authoritative everywhere and
    the grid is a consistency witness.  A closure profile keeps, per
    dimension n, the logs of |v'| and v that its passes in geodesic
    radius took at each panel's nodes (radial_integrals), so a later pass
    at that n calls neither closure; the table is not compared, hashed or
    copied by dataclasses.replace, and dies with the profile.  A
    rearrangement also keeps the radial function it rearranges as its
    source, and its norms are integrated over the level (radial_integrals).
    """

    nodes: Tuple[float, ...]
    values: Tuple[float, ...]
    tail: Tail
    fn: Optional[Callable[[float], float]] = None
    dfn: Optional[Callable[[float], float]] = None
    label: str = ""
    source: Optional[RadialFunction] = field(default=None, compare=False, repr=False)
    _logs: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        nodes = tuple(map(float, self.nodes))
        values = tuple(map(float, self.values))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        if len(nodes) != len(values) or len(nodes) < 2:
            raise DomainError("profile needs matching 1-d grids with >= 2 nodes")
        if nodes[0] != 0.0:
            raise DomainError("profile grid must start at s = 0")
        if any(b <= a for a, b in zip(nodes, nodes[1:])):
            raise DomainError("profile grid must be strictly increasing")
        if min(values) < 0.0:
            raise DomainError("profile values must be non-negative")
        vmax = values[0] if values[0] > 0 else 1.0
        if any(b - a > 1e-12 * vmax for a, b in zip(values, values[1:])):
            raise DomainError("profile values must be non-increasing")
        if self.tail.kind == "compact":
            if self.tail.param < nodes[-1] * (1 - 1e-12):
                raise DomainError("compact support ends before the last node")
            if values[-1] > 1e-9 * vmax:
                raise DomainError(
                    "compact profile must reach zero at its last node")
        if (self.fn is None) != (self.dfn is None):
            raise DomainError("a closure fn needs its derivative dfn, and dfn needs fn")
        if self.fn is not None:
            got = float(self.fn(nodes[-1]))
            want = values[-1]
            if abs(got - want) > 1e-9 * max(abs(want), vmax * 1e-9, 1e-300):
                raise DomainError(
                    f"closure disagrees with last grid value: {got!r} vs {want!r}")

    # -- evaluation ---------------------------------------------------

    @property
    def support_volume(self) -> float:
        return self.tail.param if self.tail.kind == "compact" else math.inf

    @property
    def sup_value(self) -> float:
        return float(self.fn(0.0)) if self.fn is not None else self.values[0]

    def __call__(self, s: float) -> float:
        if s < 0.0:
            raise DomainError(f"volume must be >= 0, got {s!r}")
        if self.fn is not None:
            return float(self.fn(s))
        nodes, values = self.nodes, self.values
        last = nodes[-1]
        if s <= last:
            # linear on the segment [nodes[i], nodes[i+1]] holding s
            i = bisect.bisect_right(nodes, s) - 1
            if i == len(nodes) - 1 or nodes[i] == s:
                return values[i]
            slope = (values[i + 1] - values[i]) / (nodes[i + 1] - nodes[i])
            return slope * (s - nodes[i]) + values[i]
        vlast = values[-1]
        if self.tail.kind == "compact":
            return 0.0
        if self.tail.kind == "power":
            return vlast * (s / last) ** (-self.tail.param)
        return vlast * math.exp(-self.tail.param * (s - last))

    def derivative(self, s: float) -> float:
        """v'(s); the closure's when present, else the exact derivative of
        v: the slope of the segment [nodes[i], nodes[i+1]) holding s (the
        last segment at the last node), then the tail formula's."""
        if self.dfn is not None:
            return float(self.dfn(s))
        nodes, values = self.nodes, self.values
        last = nodes[-1]
        if s <= last:
            i = min(bisect.bisect_right(nodes, s), len(nodes) - 1)
            return (values[i] - values[i - 1]) / (nodes[i] - nodes[i - 1])
        vlast = values[-1]
        if self.tail.kind == "compact":
            return 0.0
        if self.tail.kind == "power":
            b = self.tail.param
            return -b * vlast / last * (s / last) ** (-b - 1.0)
        a = self.tail.param
        return -a * vlast * math.exp(-a * (s - last))


def scale_profile(v: RadialProfile, c: float) -> RadialProfile:
    """c * v, wrapping closures and the pieces of a source when present."""
    if c < 0.0:
        raise DomainError("profiles are non-negative; scale factor must be >= 0")
    fn = (lambda s, f=v.fn: c * f(s)) if v.fn is not None else None
    dfn = (lambda s, f=v.dfn: c * f(s)) if v.dfn is not None else None
    source = v.source
    if source is not None:
        source = RadialFunction(source.n, tuple(
            Piece(pc.a, pc.b, lambda r, g=pc.fn: c * g(r), lambda r, g=pc.dfn: c * g(r))
            for pc in source.pieces))
    return RadialProfile(v.nodes, [c * x for x in v.values], v.tail, fn=fn, dfn=dfn,
                         label=v.label, source=source)


# ---------------------------------------------------------------------
# radial functions of geodesic radius and their rearrangement
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class Piece:
    """One monotone piece of a radial function: fn on [a, b) and its
    derivative dfn (b may be inf, in which case fn must decay to 0)."""

    a: float
    b: float
    fn: Callable[[float], float]
    dfn: Callable[[float], float]


@dataclass(frozen=True)
class RadialFunction:
    """|u| as a piecewise-monotone function of geodesic radius; ends holds
    each piece's end values (fn(a), fn(b)), with 0 at an infinite b."""

    n: int
    pieces: Tuple[Piece, ...]
    ends: Tuple[Tuple[float, float], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_dimension(self.n)
        object.__setattr__(self, "pieces", tuple(self.pieces))
        if not self.pieces:
            raise DomainError("need at least one piece")
        if self.pieces[0].a != 0.0:
            raise DomainError("pieces must start at radius 0")
        prev = 0.0
        for pc in self.pieces:
            if pc.a != prev or not pc.b > pc.a:
                raise DomainError("pieces must be contiguous with a < b")
            prev = pc.b
        for pc in self.pieces[:-1]:
            if math.isinf(pc.b):
                raise DomainError("only the last piece may be unbounded")
        object.__setattr__(self, "ends", tuple(
            (float(pc.fn(pc.a)), 0.0 if math.isinf(pc.b) else float(pc.fn(pc.b)))
            for pc in self.pieces))

    @property
    def sup_value(self) -> float:
        return max(0.0, *itertools.chain.from_iterable(self.ends))


def _piece_root(pc: Piece, t: float, va: float, vb: float) -> Optional[float]:
    """Radius where a monotone piece with end values va, vb on either side
    of t crosses level t; None when an unbounded piece is still above t
    at radius 1e6.  Newton on the piece's derivative, from the regula
    falsi point of the bracket, whose end values are known."""
    a, b = pc.a, pc.b
    if math.isinf(b):
        b = max(a + 1.0, 1.0)
        while (vb := float(pc.fn(b))) > t:
            a, va = b, vb
            b += max(1.0, b - pc.a)
            if b > 1e6:
                return None
    x0 = a + (b - a) * (va - t) / (va - vb)
    if vb > va:
        return quadrature.find_root_increasing(pc.fn, t, (a, b), df=pc.dfn, x0=x0,
                                               ends=(va, vb))
    return quadrature.find_root_increasing(
        lambda r: -float(pc.fn(r)), -t, (a, b), x0=x0,
        df=lambda r: -float(pc.dfn(r)), ends=(-va, -vb))


def _level_set(f: RadialFunction, t: float) -> Tuple[float, float]:
    """(mu(t), -mu'(t)) for the distribution function mu of f, in one pass
    over the pieces.

    mu(t) is the volume of {|u| > t}; by the coarea formula -mu'(t) is
    n sigma times the sum of sinh(r)^(n-1) / |f'(r)| over the radii r > 0
    where f crosses t (inf where f' vanishes at a crossing, 0 on a level f
    never crosses).
    """
    n = f.n
    total = 0.0
    area = 0.0
    for pc, (va, vb) in zip(f.pieces, f.ends):
        if va <= t and vb <= t:
            continue
        if va > t and vb > t:
            if math.isinf(pc.b):
                raise DomainError("superlevel set has infinite volume")
            c, lo, hi = None, pc.a, pc.b
        else:
            c = _piece_root(pc, t, va, vb)
            if c is None:
                raise DomainError("superlevel set appears unbounded")
            lo, hi = (c, pc.b) if vb > va else (pc.a, c)
        total += geometry.phi(n, hi) - geometry.phi(n, lo)
        # after phi, which raises before sinh(c) ** (n - 1) could overflow
        if c is not None and c > 0.0 and min(va, vb) < t:
            slope = abs(float(pc.dfn(c)))
            area += math.sinh(c) ** (n - 1) / slope if slope > 0.0 else math.inf
    sigma = unit_ball_volume(n)
    return sigma * total, n * sigma * area


def distribution_function(f: RadialFunction, t: float) -> float:
    """Hyperbolic volume of the superlevel set {|u| > t}."""
    if not t > 0.0:
        raise DomainError(f"level must be positive, got {t!r}")
    return _level_set(f, t)[0]


def decreasing_rearrangement(f: RadialFunction,
                             grid: Sequence[float]) -> RadialProfile:
    """Sample the decreasing rearrangement of f on the given volume grid.

    v(s) = sup of the levels whose superlevel volume exceeds s: the root
    of the non-increasing distribution function mu(tau) = s.  It is found
    by safeguarded Newton on the coarea slope -mu'(tau) (bisection
    wherever the slope is 0 or infinite, so plateaus and jumps stay safe),
    bracketed by the levels of the grid nodes around s.  The solver and
    its coarea derivative are attached as the profile's analytic closure
    for pointwise values, and f as its source: norms of the result are
    integrals over the level (radial_integrals), which need no solve.

    The tail is inferred: compact at the last node if the samples hit
    zero, otherwise a power law fitted on a wide log-log baseline (used
    only for convergence prechecks; the closure is authoritative for
    values).
    """
    grid = [float(s) for s in grid]
    fmax = f.sup_value
    if fmax == 0.0:
        return RadialProfile(grid, [0.0] * len(grid), Tail("compact", grid[-1]))

    eps = fmax * 1e-30
    # the last level: a root find's f(t) and df(t), and v'(s) after v(s), share it
    level = functools.lru_cache(maxsize=1)(lambda tau: _level_set(f, tau))
    # no piece exceeds fmax, so mu(fmax) = 0
    top, bottom = (fmax, 0.0), (eps, level(eps)[0])
    ends = []  # (level, mu) at every node, once sampled; until then (eps, fmax)

    def v_of(s: float) -> float:
        if s < 0.0:
            raise DomainError(f"volume must be >= 0, got {s!r}")
        if bottom[1] <= s:
            return 0.0
        # for s in [s_i, s_i+1) the level lies between the node levels;
        # those are exact only to the root tolerance, so widen outward
        # while an end does not straddle s, ending at fmax and eps
        i = bisect.bisect_right(grid, s) - 1
        hi, lo = min(i, len(ends) - 1), i + 1
        while hi >= 0 and ends[hi][1] > s:
            hi -= 1
        while lo < len(ends) and ends[lo][1] < s:
            lo += 1
        (t_lo, m_lo), (t_hi, m_hi) = (ends[lo] if lo < len(ends) else bottom,
                                      ends[hi] if hi >= 0 else top)
        x0 = t_lo + (t_hi - t_lo) * (m_lo - s) / (m_lo - m_hi) if m_lo > m_hi else None
        return quadrature.find_root_increasing(  # Newton on -mu'(tau)
            lambda tau: -level(tau)[0], -s, (t_lo, t_hi), df=lambda tau: level(tau)[1],
            x0=x0, ends=(-m_lo, -m_hi))

    # running minimum: kill root-tolerance jitter
    vals = list(itertools.accumulate((v_of(s) for s in grid), min))
    ends += [(tau, level(tau)[0]) for tau in (max(val, eps) for val in vals)]
    # an integrand asks for v'(s) and then v(s) at the same s: one solve
    solve = functools.lru_cache(maxsize=1)(v_of)

    def dv_of(s: float) -> float:
        # coarea: |v'(s)| = 1 / |mu'(v(s))|; 0 where v jumps or is flat.  v
        # is flat where mu jumps across s: there mu of the solved level misses
        # s by more than its slope explains over the root tolerance
        tau = solve(s)
        if tau <= 0.0 or tau >= fmax:
            return 0.0
        mu, d = level(tau)
        if abs(mu - s) > 100.0 * quadrature._ROOT_REL_TOL * (s + d * tau):
            return 0.0
        return -1.0 / d if 0.0 < d < math.inf else 0.0

    if vals[-1] == 0.0:
        tail = Tail("compact", grid[-1])
    else:
        # log-log slope over the last decade of the grid
        j = bisect.bisect_left(grid, grid[-1] / 10.0)
        j = min(max(j, 1), len(grid) - 2)
        if vals[j] <= vals[-1] or grid[j] <= 0.0:
            raise DomainError("cannot infer a tail from the grid")
        beta = math.log(vals[j] / vals[-1]) / math.log(grid[-1] / grid[j])
        tail = Tail("power", beta)
    return RadialProfile(grid, vals, tail, fn=solve, dfn=dv_of, source=f)


def _direct(f: RadialFunction, power: float, grad: bool) -> float:
    """n sigma times the integral of |g(r)|^power sinh(r)^(n-1) dr over the
    pieces, g each piece's fn or, if grad, its dfn; the integrand is built
    in log scale so that a decaying g can cancel the exponential weight
    without overflow."""
    n = f.n
    total = 0.0
    for pc in f.pieces:
        def h(r, g=pc.dfn if grad else pc.fn):
            gr = abs(float(g(r)))
            if gr == 0.0:
                return 0.0
            ls = power * math.log(gr) + (n - 1) * geometry.log_sinh(r)
            if ls > 700.0:
                raise DomainError("radial integrand overflows; norm looks divergent")
            return math.exp(ls)
        total += quadrature.integrate(h, pc.a, pc.b)[0]
    return n * unit_ball_volume(n) * total


def lq_norm_direct(f: RadialFunction, q: float) -> float:
    """L^q norm of f on hyperbolic space by direct radial quadrature
    (independent of the rearrangement path)."""
    if not q >= 1.0:
        raise DomainError(f"need q >= 1, got {q!r}")
    return _direct(f, q, grad=False) ** (1.0 / q)


def grad_norm_direct(f: RadialFunction, p: float) -> float:
    """p-th power of the hyperbolic gradient norm of a radial function,
    by direct radial quadrature."""
    return _direct(f, p, grad=True)


# ---------------------------------------------------------------------
# norms of profiles
# ---------------------------------------------------------------------

def _tail_divergence_check(v: RadialProfile, decay_needed: float, what: str):
    """Reject integrals whose tail metadata says they diverge.

    decay_needed is the power of 1/s the integrand must beat; power tails
    supply exponent*multiplier through the caller."""
    if v.tail.kind == "power" and not decay_needed > 1.0:
        raise DomainError(
            f"{what} diverges: power tail with exponent {v.tail.param:g} "
            f"decays like s^-{decay_needed:g}")


def _check_mass(v: RadialProfile, q: float):
    if not q >= 1.0:
        raise DomainError(f"need q >= 1, got {q!r}")
    if v.tail.kind == "power":
        _tail_divergence_check(v, q * v.tail.param, f"L^{q:g} integral")


def lp_integral(v: RadialProfile, q: float) -> Tuple[float, float]:
    """(integral of v^q over the measure line, error estimate).  A closure
    takes the pass in geodesic radius of radial_integrals at n = 2: the
    integral has no dimension, phi_inv is closed-form there, and s ~ e^t
    turns any power tail of v into geometric decay in t."""
    _check_mass(v, q)
    if v.fn is not None:
        return radial_integrals(v, 2, q, qs=(q,), grads=())[0]
    # piecewise-linear segments integrate in closed form
    total = 0.0
    for ai, bi, x0, x1 in zip(v.values, v.values[1:], v.nodes, v.nodes[1:]):
        hi = x1 - x0
        if ai == bi:
            total += hi * ai ** q
        else:
            # (a^(q+1) - b^(q+1)) / (a - b) = c^q (1 - (1 - x)^(q+1)) / x, with
            # c = max(a, b) and x = |a - b| / c, does not cancel as b -> a
            c = max(ai, bi)
            x = abs(ai - bi) / c
            g = -math.expm1((q + 1) * math.log1p(-x)) if x < 1.0 else 1.0
            total += hi * c ** q * g / (x * (q + 1))
    vlast, slast = v.values[-1], v.nodes[-1]
    if v.tail.kind == "power":
        total += vlast ** q * slast / (q * v.tail.param - 1.0)
    elif v.tail.kind == "exponential":
        total += vlast ** q / (q * v.tail.param)
    return total, 0.0


def lp_norm(v: RadialProfile, q: float) -> float:
    val, _ = lp_integral(v, q)
    return val ** (1.0 / q)


def _grid_weighted_gradient(v: RadialProfile, p: float,
                            weight: Callable[[float], float]) -> Tuple[float, float]:
    """Integral of |v'|^p * weight for a grid-only profile: |slope|^p times
    the trapezoid of the weight on each segment, one weight call per node,
    plus the adaptive integral of the tail.  The error is a 1e-4 relative
    grid-refinement proxy plus the tail integral's estimate."""
    nodes, values = v.nodes, v.values
    w = [weight(s) for s in nodes]
    val = sum(abs((b - a) / (x1 - x0)) ** p * (x1 - x0) * (w0 + w1) / 2.0
              for a, b, x0, x1, w0, w1
              in zip(values, values[1:], nodes, nodes[1:], w, w[1:]))
    tail_err = 0.0
    if v.tail.kind != "compact":
        tail, tail_err = quadrature.integrate(
            lambda s: abs(v.derivative(s)) ** p * weight(s),
            nodes[-1], v.support_volume)
        val += tail
    return val, abs(val) * 1e-4 + tail_err


def grad_norm_euclidean(v: RadialProfile, n: int, p: float) -> Tuple[float, float]:
    """p-th power of the Euclidean gradient norm of the flat
    symmetrization, with its quadrature error estimate."""
    return radial_integrals(v, n, p, grads=("euclidean",))[0]


def grad_norm_hyperbolic(v: RadialProfile, n: int, p: float) -> Tuple[float, float]:
    """p-th power of the hyperbolic gradient norm of the hyperbolic
    symmetrization, with its quadrature error estimate: radial_integrals
    with no further component."""
    return radial_integrals(v, n, p)[0]


# panels one grid's node geometry keeps at most: a compact end beyond the
# last node adds the first panel of its own last segment to the table
_GRID_PANELS = 128


class _GridGeometry:
    """The node geometry of one (n, grid): the radii phi_inv(n, s / sigma)
    of the grid nodes s > 0, and a table of phi(n, t) and log_sinh(t) at
    the 15 nodes t of each panel of the pass in geodesic radius, keyed by
    the panel's centre.  Every panel a pass computes is kept, until the
    table holds _GRID_PANELS: the first panels of the segments and the
    sweeps come back with every profile on the grid, and the bisected
    panels with the next pass of the profile and of others of its shape.
    A node where the closure integrand is zero whatever the profile
    (t <= 0 or (n-1) t > 690) holds phi 0, and a node of phi 0 holds
    log_sinh 0."""

    __slots__ = ("n", "radii", "panels")

    def __init__(self, n: int, nodes: Tuple[float, ...]):
        sigma = unit_ball_volume(n)
        self.n = n
        self.radii = tuple(geometry.phi_inv(n, s / sigma) for s in nodes if s > 0.0)
        self.panels = {}

    def panel(self, ts: Sequence[float]) -> Tuple[Sequence[float], Sequence[float]]:
        """phi and log_sinh at the 15 nodes ts of a panel: read from the
        table, else computed and kept while the table has room.  A table
        entry holds ts[1] last, which tells a panel from another one on
        the same centre."""
        geo = self.panels.get(ts[0])
        if geo is not None and geo[30] == ts[1]:
            return geo[:15], geo[15:30]
        n = self.n
        phis = [geometry.phi(n, t) if 0.0 < t and (n - 1) * t <= 690.0 else 0.0
                for t in ts]
        log_sinhs = [geometry.log_sinh(t) if ph > 0.0 else 0.0
                     for t, ph in zip(ts, phis)]
        if len(self.panels) < _GRID_PANELS:
            self.panels[ts[0]] = array("d", [*phis, *log_sinhs, ts[1]])
        return phis, log_sinhs


@functools.lru_cache(maxsize=128)
def _node_radii(n: int, nodes: Tuple[float, ...]) -> _GridGeometry:
    """The node geometry of a grid, cached by value.  Its panel table fills
    as passes run: over the corpus benchmark the fullest grid holds 103
    panels, about 41 KiB.  A table keeps at most _GRID_PANELS panels of
    about 0.4 KiB, so 128 grids take at most about 6.5 MiB.  The closure
    logs of a profile (RadialProfile) take the same panel keys and about
    0.3 KiB a panel, at most _GRID_PANELS per n; they live as long as the
    profile, and over three corpus benchmark rounds the 20 built-in
    profiles keep 5,158 panels at 100 (profile, n) pairs, about 1.5 MiB."""
    return _GridGeometry(n, nodes)


_GRADIENTS = ("hyperbolic", "euclidean", "kernel")


def radial_integrals(v: RadialProfile, n: int, p: float, qs: Sequence[float] = (),
                     grads: Sequence[str] = ("hyperbolic",), entropy: bool = False
                     ) -> List[Tuple[float, float]]:
    """(value, error) of, in order: the p-th power of each gradient norm
    named in grads, a subsequence of ("hyperbolic", "euclidean", "kernel")
    (the kernel is the excess of the first over the second, integrated
    against the weight gap); the mass integral of v^q ds for each q in
    qs; the entropy integral of v^p p log v ds if entropy.  A grid-only
    profile takes the grid paths in s, a rearrangement _level_integrals.
    Any other closure takes one vector panel
    tree in geodesic radius t over the radii of its grid nodes, where one
    phi, log sinh, log |v'| (and log v) per node serve every integrand.
    Each is built in log space with w = (n-1) log sinh t: |v'|^p times
    exp(p(n-1) log sinh t + w), exp(p(n-1)/n log phi + w) or their
    difference, exp(q log v + w), p log v exp(p log v + w).  The node
    geometry comes from the grid's table (_node_radii), and log |v'| and
    log v, which do not depend on p, from the profile's own table: a pass
    calls dfn only for gradients and fn only for masses or the entropy,
    and only at panels no earlier pass of the profile at this n took.
    """
    check_dimension(n)
    if not p >= 1.0:
        raise DomainError(f"need p >= 1, got {p!r}")
    want_h, want_e, want_k = (c in grads for c in _GRADIENTS)
    if list(grads) != [c for c in _GRADIENTS if c in grads]:
        raise DomainError(
            f"grads must be a subsequence of {_GRADIENTS!r}, got {grads!r}")
    need_h = want_h or want_k  # the kernel is the hyperbolic weight times a gap
    if need_h and v.tail.kind == "power":
        # |v'|^p decays like s^(-p*exponent - p) and the hyperbolic
        # weight grows like s^p, so the integrand decays like s^(-p*exponent)
        _tail_divergence_check(v, p * v.tail.param, "hyperbolic gradient integral")
    for q in qs:
        _check_mass(v, q)
    if want_e and v.tail.kind == "power":
        _tail_divergence_check(v, p * (v.tail.param + 1.0) - p * (n - 1.0) / n,
                               "Euclidean gradient integral")
    if v.source is not None:
        return _level_integrals(v, n, p, qs, grads, entropy)
    sigma = unit_ball_volume(n)
    scale = n * sigma
    pref = scale ** p
    if v.dfn is None:
        weights = {
            "hyperbolic": lambda s: geometry.sinh_phi_inv(n, s / sigma) ** (p * (n - 1)),
            "euclidean": lambda s: (s / sigma) ** (p * (n - 1) / n),
            "kernel": lambda s: geometry.kernel_gap(n, p, s / sigma),
        }
        out = []
        for c in grads:
            val, err = _grid_weighted_gradient(v, p, weights[c])
            out.append((pref * val, pref * err))
        out += [lp_integral(v, q) for q in qs]
        if entropy:
            def f(s):
                val = v(s)
                return val ** p * p * math.log(val) if val > 0.0 else 0.0

            ent, err = quadrature.integrate(f, 0.0, v.support_volume, v.nodes)
            out.append((ent, err + abs(ent) * 1e-4))  # the gradients' grid proxy
        return out
    grid = _node_radii(n, v.nodes)
    radii = grid.radii
    top = v.support_volume
    t_top = (math.inf if math.isinf(top) else radii[-1] if top == v.nodes[-1]
             else geometry.phi_inv(n, top / sigma))
    c_hyp, c_euc, c_gap = p * (n - 1) + n - 1, p * (n - 1) / n, p * (n - 1)
    need_v = bool(qs) or entropy
    zeros = [0.0] * (len(grads) + len(qs) + entropy)
    v_zeros = [0.0] * (len(qs) + entropy)
    log, exp, expm1, isnan = math.log, math.exp, math.expm1, math.isnan
    tiny, ninf = sys.float_info.min, -math.inf
    fn, dfn = v.fn, v.dfn
    table = v._logs.setdefault(n, {})
    unknown, absent = [math.nan] * 31, [ninf] * 15

    def closure_logs(ts, phs):
        """log |v'| and log v at the panel's 15 nodes (all -inf where the
        pass needs no gradient, or no mass or entropy): read from the
        profile's table, keyed as in _GridGeometry.panel, else computed and
        kept while the table has room.  A half no pass has needed holds
        nan, and only a missing half's closure is called.  A log is -inf
        where v' = 0 (or nan), v <= 0, or s is below the smallest normal
        volume, where no closure is called (beyond (n-1) t = 690, phi 0 in
        the node geometry, any profile passing the convergence prechecks
        has an integrand far below double noise; below it v' of a
        concentrated profile overflows)."""
        kept = table.get(ts[0])
        if kept is None or kept[30] != ts[1]:
            kept = unknown
        ldvs, lvs = kept[:15], kept[15:30]
        get_dv, get_v = bool(grads) and isnan(ldvs[0]), need_v and isnan(lvs[0])
        if get_dv or get_v:
            # v' and then v at each node: a rearrangement's closure shares
            # one solve between them
            new_dvs, new_vs = [], []
            for ph in phs:
                s = sigma * ph
                dv = abs(float(dfn(s))) if get_dv and s >= tiny else 0.0
                val = float(fn(s)) if get_v and s >= tiny else 0.0
                new_dvs.append(log(dv) if dv > 0.0 else ninf)
                new_vs.append(log(val) if val > 0.0 else ninf)
            if get_dv:
                ldvs = new_dvs
            if get_v:
                lvs = new_vs
            if len(table) < _GRID_PANELS:
                table[ts[0]] = array("d", [*ldvs, *lvs, ts[1]])
        return ldvs if grads else absent, lvs if need_v else absent

    def node(ph, ls, ldv, lv):
        if ldv == ninf and lv == ninf:
            return zeros
        w = (n - 1) * ls
        hyp = euc = ker = 0.0
        if ldv > ninf:
            lg = p * ldv
            if need_h:
                lh = lg + c_hyp * ls
                if lh > 700.0:
                    raise DomainError("gradient integrand overflows; looks divergent")
                hyp = exp(lh)
            if want_e or want_k:
                lph = c_euc * log(ph) if ph > 0.0 else ninf
                if want_e:
                    le = lg + lph + w
                    if le > 700.0:
                        raise DomainError("gradient integrand overflows; looks divergent")
                    euc = exp(le)
                if want_k:
                    # the weight gap is the hyperbolic weight sinh^(p(n-1))
                    # times 1 - phi^(p(n-1)/n) / sinh^(p(n-1)), in (0, 1]
                    ker = -hyp * expm1(lph - c_gap * ls)
        out = [hyp] if want_h else []
        if want_e:
            out.append(euc)
        if want_k:
            out.append(ker)
        if lv > ninf:
            for q in qs:
                out.append(exp(q * lv + w))
            if entropy:
                out.append(exp(p * lv + w) * p * lv)
        else:
            out += v_zeros
        return out

    def g(ts):
        phs, lss = grid.panel(ts)
        return list(map(node, phs, lss, *closure_logs(ts, phs)))

    vals, errs = quadrature.integrate_vector(g, 0.0, t_top, radii)
    scales = [pref * scale] * len(grads) + [scale] * (len(qs) + entropy)
    return [(c * x, c * e) for c, x, e in zip(scales, vals, errs)]


def _level_integrals(v: RadialProfile, n: int, p: float, qs: Sequence[float],
                     grads: Sequence[str], entropy: bool) -> List[Tuple[float, float]]:
    """radial_integrals of a rearrangement of f = v.source, over the level
    tau in (0, fmax).  One _level_set per node gives mu(tau) and |mu'(tau)|
    in f's own dimension; the weights are those of dimension n.  With
    x = mu / sigma, the gradients are (n sigma)^p |mu'|^(1-p) times
    sinh(phi_inv(x))^(p(n-1)), x^(p(n-1)/n) or their difference; each mass
    is q tau^(q-1) mu, the entropy p tau^(p-1) (p log tau + 1) mu.  Where
    mu' is 0 or infinite, v is flat or jumps, and no gradient gathers
    weight.  Breakpoints are the piece end values of f and the node values
    of v up to fmax / 2: the lowest puts [0, it] on the left-edge
    substitution, which absorbs the singularity of mu at 0, and the others
    grade it; the upper node values of a grid geometric in s crowd toward
    fmax, where each would cost a panel and buy no accuracy.
    """
    f = v.source
    fmax = f.sup_value
    zeros = [0.0] * (len(grads) + len(qs) + entropy)
    if fmax == 0.0:
        return [(0.0, 0.0)] * len(zeros)
    need_h = "hyperbolic" in grads or "kernel" in grads
    sigma = unit_ball_volume(n)
    lpref = p * math.log(n * sigma)
    c_hyp, c_euc = p * (n - 1), p * (n - 1) / n
    log, exp = math.log, math.exp

    def g(tau):
        mu, d = _level_set(f, tau)
        if not mu > 0.0:
            return zeros
        out = []
        if grads:
            comps = dict.fromkeys(grads, 0.0)
            if 0.0 < d < math.inf:
                x = mu / sigma
                lg = lpref + (1.0 - p) * log(d)
                le = lg + c_euc * log(x)
                # the Euclidean weight is the smaller one: le <= lh
                lh = lg + c_hyp * geometry.log_sinh(geometry.phi_inv(n, x)) if need_h else le
                if lh > 700.0:
                    raise DomainError("gradient integrand overflows; looks divergent")
                comps.update(hyperbolic=exp(lh), euclidean=exp(le),
                             kernel=-exp(lh) * math.expm1(le - lh))
            out = [comps[c] for c in grads]
        lt = log(tau)
        out += [q * exp((q - 1.0) * lt) * mu for q in qs]
        if entropy:
            out.append(p * exp((p - 1.0) * lt) * (p * lt + 1.0) * mu)
        return out

    breaks = [*itertools.chain.from_iterable(f.ends),
              *(x for x in v.values if x <= 0.5 * fmax)]
    vals, errs = quadrature.integrate_vector(lambda taus: list(map(g, taus)),
                                             0.0, fmax, breaks)
    return list(zip(vals, errs))


def kernel_correction(v: RadialProfile, n: int, p: float) -> Tuple[float, float]:
    """The excess of the hyperbolic over the Euclidean gradient integral,
    computed directly against the weight gap (not as a difference of the
    two norms); closes the decomposition identity."""
    return radial_integrals(v, n, p, grads=("kernel",))[0]


def hardy_term_bound(v: RadialProfile, p: float,
                     window: Optional[Tuple[float, float]] = None
                     ) -> Tuple[float, float, float]:
    """Both sides of the weighted integration-by-parts bound, and the
    quadrature error estimate of their difference.

    lhs = integral of |v'|^p s^p; rhs = integral of |v/p + s v'|^p plus
    p^-p times the integral of v^p, all over the window (default: the full
    support); the error is the sum of the three integrals' estimates, the
    last times p^-p, plus 4096 eps times the same sum of the integrals.
    Contract: lhs >= rhs up to quadrature tolerance.  The
    substituted function w(s) = v(s) s^(1/p) is constant exactly when
    v = c s^(-1/p), in which case both sides coincide on any window.  A
    grid-only profile enters through its piecewise-linear values and
    their segment slopes, so at p = 2 both sides agree over the full
    support up to quadrature error, as they do for a closure.
    """
    if not p >= 2.0:
        raise DomainError(f"the bound needs p >= 2, got {p!r}")
    if window is None:
        window = (0.0, v.support_volume)
    lo, hi = window
    if not 0.0 <= lo < hi:
        raise DomainError(f"bad window {window!r}")
    if math.isinf(hi) and v.tail.kind == "power":
        _tail_divergence_check(v, p * v.tail.param, "weighted gradient integral")

    def f(s):
        val, dv = v(s), v.derivative(s)
        return abs(dv) ** p * s ** p, abs(val / p + s * dv) ** p, val ** p

    (lhs, wterm, vterm), (e_lhs, e_w, e_v) = quadrature.integrate_vector(
        lambda ss: list(map(f, ss)), lo, hi, v.nodes)
    # the totals miss their exact values by more than the K15 - G7 gaps: by
    # rounding (up to 25 eps times the sum on the smooth corpus files) and,
    # where a first segment is far below abs_tol, by the part of the
    # left-edge sweep beyond its last panel (118 eps on the read-back
    # truncated-bubble-l0.05-T1, 3,400 on a read-back bubble at lambda = 0.01,
    # n = 6, p = 4).  4096 eps, about 1e-12, is a hundredth of rel_tol.
    rounding = 4096 * sys.float_info.epsilon * (lhs + wterm + p ** (-p) * vterm)
    return lhs, wterm + p ** (-p) * vterm, e_lhs + e_w + p ** (-p) * e_v + rounding


def _equality_distance(v: RadialProfile, p: float) -> float:
    """Root-mean-square distance of w(s) = v(s) s^(1/p) from its mean over
    the interior of the grid; zero exactly on the rigidity profile
    c s^(-1/p)."""
    s_lo = v.nodes[1]
    s_hi = v.nodes[-1]
    if v.tail.kind == "compact":
        s_hi = 0.5 * (s_lo + s_hi)  # w ends at 0; measure the inner half
    xs = quadrature.geomspace(max(s_lo, 1e-12), s_hi, 128)
    return statistics.pstdev(v(s) * s ** (1.0 / p) for s in xs)


def key_comparison(v: RadialProfile, n: int, p: float) -> DeficitReport:
    """Core comparison: hyperbolic gradient integral minus the sharp
    zeroth-order term dominates the Euclidean gradient integral."""
    if not in_comparison_range(n, p):
        raise DomainError(
            f"comparison holds for p >= {boundary_exponent(n):g} at n={n}; got p={p}")
    params = Params(n, p)
    (hyp, e1), (euc, e2), (mass, e3) = radial_integrals(
        v, n, p, qs=(p,), grads=("hyperbolic", "euclidean"))
    lhs = hyp - ((n - 1.0) / p) ** p * mass
    extras = {
        "grad_hyperbolic": hyp,
        "grad_euclidean": euc,
        "lp_mass": mass,
        "equality_distance": _equality_distance(v, p),
    }
    return DeficitReport("key_comparison", params, lhs, euc,
                         quadrature_error=e1 + e2 + ((n - 1.0) / p) ** p * e3,
                         label=v.label, extras=extras)


# ---------------------------------------------------------------------
# corpus file I/O
# ---------------------------------------------------------------------

def write_profile(path: str, v: RadialProfile):
    """Serialize a profile's grid samples (closures do not survive)."""
    lines = [f"tail={v.tail.kind}:{fmt17(v.tail.param)}"]
    for s, val in zip(v.nodes, v.values):
        lines.append(f"{fmt17(s)} {fmt17(val)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_profile(path: str) -> RadialProfile:
    """Parse a corpus profile file; malformed content is rejected with the
    file and line number."""
    nodes, values = [], []
    tail = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if tail is None:
                if not line.startswith("tail="):
                    raise DomainError(
                        f"{path}:{lineno}: expected 'tail=<kind>:<param>' header")
                body = line[len("tail="):]
                kind, sep, param = body.partition(":")
                if not sep:
                    raise DomainError(f"{path}:{lineno}: malformed tail header")
                try:
                    tail = Tail(kind, float(param))
                except (ValueError, DomainError) as exc:
                    raise DomainError(f"{path}:{lineno}: {exc}") from exc
                continue
            parts = line.split()
            if len(parts) != 2:
                raise DomainError(f"{path}:{lineno}: expected 's value'")
            try:
                s, val = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise DomainError(f"{path}:{lineno}: non-numeric entry") from exc
            if nodes and s <= nodes[-1]:
                raise DomainError(f"{path}:{lineno}: grid not strictly increasing")
            if values and val > values[-1] + 1e-12 * max(values[0], 1.0):
                raise DomainError(f"{path}:{lineno}: values not non-increasing")
            nodes.append(s)
            values.append(val)
    if tail is None or len(nodes) < 2:
        raise DomainError(f"{path}: incomplete profile")
    label = os.path.splitext(os.path.basename(path))[0]
    return RadialProfile(nodes, values, tail, label=label)

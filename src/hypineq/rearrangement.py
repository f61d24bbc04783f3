"""Decreasing rearrangement on the measure line and all one-dimensional
norm integrals derived from it.

A radial function of geodesic radius (levels.RadialFunction) is
rearranged into a non-increasing profile v of superlevel-set volume s.
The hyperbolic and Euclidean symmetrizations are never materialized:
every norm of either one is an integral of v (or v') against an explicit
weight.  radial_integrals, the one door to every norm, takes every
integral one evaluation needs in one of three passes: of a rearrangement
over the level (levels.level_integrals), of a grid-only profile in s
(_grid_integrals), of any other closure in geodesic radius t through
s = sigma phi(t), ds = n sigma sinh(t)^(n-1) dt.  A closure
profile keeps, per n, what the pass in t computes at each panel's nodes
(RadialProfile).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import os
import sys
from array import array
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from . import geometry, levels, quadrature
from .constants import Params, boundary_exponent, in_comparison_range, unit_ball_volume
from .errors import DomainError
from .levels import Piece, RadialFunction, distribution_function
from .report import DeficitReport, fmt17

__all__ = [
    "Tail",
    "RadialProfile",
    "closure_profile",
    "Piece",
    "RadialFunction",
    "distribution_function",
    "decreasing_rearrangement",
    "lp_integral",
    "lp_norm",
    "grad_norm_euclidean",
    "grad_norm_hyperbolic",
    "radial_integrals",
    "key_comparison",
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
        if not math.isfinite(self.param):
            raise DomainError(f"tail parameter must be finite, got {self.param!r}")
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
    the grid is a consistency witness; a built-in one is stated once, in
    logs (closure_profile), as _logs with the fn and dfn made of it, which
    dataclasses.replace keeps unless it passes another fn or dfn (read
    through _float_logs) and is not compared, hashed or printed.  A closure
    profile keeps, per dimension n, a table of log phi, log sinh, log |v'|
    and log v at the 15 nodes of each panel its passes in geodesic radius
    took (radial_integrals): 61 doubles, about 0.55 KiB, a panel, at most
    _GRID_PANELS panels per n.  The table is not compared, hashed or
    copied by dataclasses.replace, and dies with the profile; so do the
    128 samples (s, v(s)) a profile keeps for its equality distance
    (key_comparison).  joins holds the volumes inside the support where a
    closure is not smooth (a jump in v'' or a kink in v), each a
    breakpoint of the pass in geodesic radius; files do not keep them,
    and the grid pass ignores them.  A rearrangement's closure is one
    solve of mu(tau) = s per volume, whose value and derivative share it
    (decreasing_rearrangement); it also keeps the radial function it
    rearranges as its source, which gives its sup_value and
    support_volume, its norms are integrated over the level
    (radial_integrals), and its values and tail are solved on first read.
    """

    nodes: Tuple[float, ...]
    values: Tuple[float, ...]
    tail: Tail
    fn: Optional[Callable[[float], float]] = None
    dfn: Optional[Callable[[float], float]] = None
    label: str = ""
    joins: Tuple[float, ...] = ()
    source: Optional[RadialFunction] = field(default=None, compare=False, repr=False)
    _logs: Optional[tuple] = field(default=None, compare=False, repr=False)
    _panels: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _samples: list = field(default_factory=list, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self._logs is not None and self._logs[1:] != (self.fn, self.dfn):
            object.__setattr__(self, "_logs", None)  # not the log closure of fn and dfn
        nodes = tuple(map(float, self.nodes))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "joins", tuple(map(float, self.joins)))
        if len(nodes) < 2:
            raise DomainError("profile needs matching 1-d grids with >= 2 nodes")
        if not all(map(math.isfinite, nodes)):
            raise DomainError("profile nodes and values must be finite")
        if nodes[0] != 0.0:
            raise DomainError("profile grid must start at s = 0")
        if any(b <= a for a, b in zip(nodes, nodes[1:])):
            raise DomainError("profile grid must be strictly increasing")
        if "values" not in self.__dict__:
            return  # a rearrangement's values wait for their first read (__getattr__)
        values = tuple(map(float, self.values))
        object.__setattr__(self, "values", values)
        if len(nodes) != len(values):
            raise DomainError("profile needs matching 1-d grids with >= 2 nodes")
        if not all(map(math.isfinite, values)):
            raise DomainError("profile nodes and values must be finite")
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
        if not all(0.0 < j < self.support_volume for j in self.joins):
            raise DomainError("profile joins must lie inside the support")
        if (self.fn is None) != (self.dfn is None):
            raise DomainError("a closure fn needs its derivative dfn, and dfn needs fn")
        if self.fn is not None:
            got = float(self.fn(nodes[-1]))
            want = values[-1]
            if abs(got - want) > 1e-9 * max(abs(want), vmax * 1e-9, 1e-300):
                raise DomainError(
                    f"closure disagrees with last grid value: {got!r} vs {want!r}")

    def __getattr__(self, name):
        # a rearrangement solves its values and tail on their first read
        # (decreasing_rearrangement), then checks them as any profile's
        if name not in ("values", "tail") or "_solve" not in self.__dict__:
            raise AttributeError(name)
        self.__dict__.update(self._solve())
        self.__post_init__()
        return self.__dict__[name]

    # -- evaluation ---------------------------------------------------

    @property
    def support_volume(self) -> float:
        if self.source is not None:
            return self.source.support_volume
        return self.tail.param if self.tail.kind == "compact" else math.inf

    @property
    def sup_value(self) -> float:
        if self.source is not None:
            return self.source.sup_value
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


def closure_profile(grid: Sequence[float], tail: Tail, logs: Callable, label: str = "",
                    joins: Sequence[float] = ()) -> RadialProfile:
    """A closure profile stated once, in logs (log |v'(s)|, log v(s)) = logs(x) at
    s = e^x for any x (-inf at s = 0), -inf where a value is 0: fn and dfn are
    their exponentials (v' <= 0), and the pass in geodesic radius reads logs."""
    def at(s):
        return logs(math.log(s) if s > 0.0 else -math.inf)

    fn, dfn = (lambda s: math.exp(at(s)[1])), (lambda s: -math.exp(at(s)[0]))
    return RadialProfile(grid, [fn(s) for s in grid], tail, fn=fn, dfn=dfn,
                         label=label, joins=joins, _logs=(logs, fn, dfn))


def _float_logs(fn: Callable[[float], float], dfn: Callable[[float], float]):
    """The log closure (log |dfn(s)|, log fn(s)) at s = e^x of float closures,
    -inf where a value is 0 or nan, and where s is no normal double, where
    neither is called (v' of a concentrated profile overflows below)."""
    lo, hi = math.log(sys.float_info.min), math.log(sys.float_info.max)

    def logs(x):
        if not lo <= x <= hi:
            return -math.inf, -math.inf
        s = math.exp(x)
        dv, val = abs(float(dfn(s))), float(fn(s))
        return (math.log(dv) if dv > 0.0 else -math.inf,
                math.log(val) if val > 0.0 else -math.inf)
    return logs


# ---------------------------------------------------------------------
# the decreasing rearrangement of a radial function
# ---------------------------------------------------------------------

def decreasing_rearrangement(f: RadialFunction,
                             grid: Sequence[float]) -> RadialProfile:
    """Sample the decreasing rearrangement of f on the given volume grid.

    v(s) = sup of the levels whose superlevel volume exceeds s: the root
    of the non-increasing distribution function mu(tau) = s, by one
    solver, levels.node_levels: safeguarded Newton in the logit of the
    level on log mu, with the coarea slope -mu'(tau) (bisection wherever
    the slope is 0 or infinite, so plateaus and jumps stay safe), at the
    first read of the values or tail or call of the closure, not here:
    levels.level_table tabulates (level, mu, -mu') from eps = 1e-30 fmax to
    fmax, which brackets the grid's nodes; the nodes are solved in
    lockstep, and the triples they end with bracket every later solve: a
    pointwise v(s) is the one-target case, and v'(s) reads -mu' off that
    solve.  Both are attached as the profile's analytic closure, and f as
    its source: norms of the result are integrals over the level
    (radial_integrals), which need no solve.

    The tail is inferred: compact at the last node if the samples hit
    zero, otherwise a power law fitted on a wide log-log baseline, for
    readers of the grid; no norm or support volume reads it, and the
    closure is authoritative for values.
    """
    grid = [float(s) for s in grid]
    fmax = f.sup_value
    if fmax == 0.0:
        return RadialProfile(grid, [0.0] * len(grid), Tail("compact", grid[-1]))
    known = []  # the grid's (level, mu, -mu') in increasing level, once solved

    def solve_grid() -> dict:  # the profile's values and tail
        table = levels.level_table(f)
        # (level, mu, -mu') per node; the running minimum kills root-tolerance jitter
        ends = list(itertools.accumulate(levels.node_levels(f, grid, table), min))
        vals = [0.0 if tau == table[0][0] else tau for tau, _, _ in ends]
        known[:] = [table[0], *reversed(ends), table[-1]]
        if vals[-1] == 0.0:
            return dict(values=vals, tail=Tail("compact", grid[-1]))
        # log-log slope over the last decade of the grid
        j = min(max(bisect.bisect_left(grid, grid[-1] / 10.0), 1), len(grid) - 2)
        if vals[j] <= vals[-1] or grid[j] <= 0.0:
            raise DomainError("cannot infer a tail from the grid")
        beta = math.log(vals[j] / vals[-1]) / math.log(grid[-1] / grid[j])
        return dict(values=vals, tail=Tail("power", beta))

    # an integrand asks for v'(s) and then v(s) at the same s: one solve
    @functools.lru_cache(maxsize=1)
    def solve(s: float) -> Tuple[float, float, float]:
        if s < 0.0:
            raise DomainError(f"volume must be >= 0, got {s!r}")
        v.values  # the first read solves the grid, which fills known
        if known[0][1] <= s:  # past mu(eps), where v and v' are 0
            return 0.0, s, 0.0
        return levels.node_levels(f, [s], known)[0]

    def dv_of(s: float) -> float:
        # coarea: |v'(s)| = 1 / |mu'(v(s))|; 0 where v jumps or is flat.  v
        # is flat where mu jumps across s: there mu of the solved level misses
        # s by more than its slope explains over the root tolerance
        tau, mu, d = solve(s)
        flat = abs(mu - s) > 100.0 * quadrature._ROOT_REL_TOL * (s + d * tau)
        if tau <= 0.0 or tau >= fmax or flat:
            return 0.0
        return -1.0 / d if 0.0 < d < math.inf else 0.0

    v = object.__new__(RadialProfile)  # no values or tail until read (__getattr__)
    v.__dict__.update(nodes=grid, fn=lambda s: solve(s)[0], dfn=dv_of, source=f,
                      _panels={}, _samples=[], _solve=solve_grid)
    v.__post_init__()
    return v


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
    """Reject integrals whose tail metadata says they diverge: decay_needed
    is the power of 1/s the integrand must beat, from a power tail's exponent."""
    if v.tail.kind == "power" and not decay_needed > 1.0:
        raise DomainError(
            f"{what} diverges: power tail with exponent {v.tail.param:g} "
            f"decays like s^-{decay_needed:g}")


def lp_integral(v: RadialProfile, q: float) -> Tuple[float, float]:
    """(integral of v^q over the measure line, error estimate):
    radial_integrals of the one mass at n = 2, where the integral has no
    dimension, phi_inv is closed-form for a closure's pass in geodesic
    radius, and s ~ e^t turns any power tail of v into geometric decay in t."""
    return radial_integrals(v, 2, q, qs=(q,), grads=())[0]


def lp_norm(v: RadialProfile, q: float) -> float:
    val, _ = lp_integral(v, q)
    return val ** (1.0 / q)


def grad_norm_euclidean(v: RadialProfile, n: int, p: float) -> Tuple[float, float]:
    """p-th power of the Euclidean gradient norm of the flat
    symmetrization, with its quadrature error estimate."""
    return radial_integrals(v, n, p, grads=("euclidean",))[0]


def grad_norm_hyperbolic(v: RadialProfile, n: int, p: float) -> Tuple[float, float]:
    """p-th power of the hyperbolic gradient norm of the hyperbolic
    symmetrization, with its quadrature error estimate: radial_integrals
    with no further component."""
    return radial_integrals(v, n, p)[0]


# panels one closure profile's table keeps at most, per n (RadialProfile)
_GRID_PANELS = 128
# the widest ratio of two kept node radii that are not neighbours (_breakpoints)
_RHO = 4.0


@functools.lru_cache(maxsize=128)
def _breakpoints(n: int, nodes: Tuple[float, ...], joins: Tuple[float, ...]
                 ) -> Tuple[float, ...]:
    """The breakpoints of the pass in geodesic radius, cached by value: the
    radii t = phi_inv(n, s / sigma) of the grid nodes s > 0, thinned, and
    of every join.  The first node radius, where the left-edge segment
    [0, t] ends (integrate_vector: a small panel tree, or the log sweep
    where the head is rough), and the last are kept; any other only when the
    next would lie more than _RHO times beyond the last kept one.  So two
    kept radii are at most _RHO apart unless they are neighbouring nodes,
    and a grid graded more coarsely than _RHO keeps every node; the panel
    tree refines between them (QUADPACK's qagp: breakpoints where the
    integrand is not smooth, and adaptivity elsewhere).  Only kept nodes
    and joins are inverted: from the last kept node i, at radius t_k, a
    bisection of the volumes x = s / sigma finds the first node j >= i + 2
    beyond x_lim = phi(n, _RHO t_k) (infinite past phi's overflow edge);
    node j - 1 is kept next, or the last node if there is no such j."""
    sigma = unit_ball_volume(n)
    xs = [s / sigma for s in nodes if s > 0.0]
    kept, i = [], 0
    while i < len(xs) - 1:
        kept.append(geometry.phi_inv(n, xs[i]))
        reach = _RHO * kept[-1]
        x_lim = math.inf if (n - 1) * reach > 700.0 else geometry.phi(n, reach)
        i = bisect.bisect_right(xs, x_lim, i + 2) - 1
    kept += [geometry.phi_inv(n, x) for x in xs[-1:]]
    return tuple(sorted({*kept, *(geometry.phi_inv(n, j / sigma) for j in joins)}))


def _grid_integrals(v: RadialProfile, n: int, p: float, qs: Sequence[float],
                    grads: Sequence[str], entropy: bool) -> List[Tuple[float, float]]:
    """The grid pass in s of radial_integrals, which has checked v.  A
    gradient is |slope|^p times the trapezoid of the weight on each segment
    plus the adaptive tail, its error a 1e-4 relative grid proxy plus the
    tail's; a mass is closed-form; the entropy is adaptive over the nodes."""
    nodes, values = v.nodes, v.values
    sigma = unit_ball_volume(n)
    weights = {
        "hyperbolic": lambda s: geometry.sinh_phi_inv(n, s / sigma) ** (p * (n - 1)),
        "euclidean": lambda s: (s / sigma) ** (p * (n - 1) / n),
    }
    out = []
    for c in grads:
        weight = weights[c]
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
        pref = (n * sigma) ** p
        out.append((pref * val, pref * (abs(val) * 1e-4 + tail_err)))
    for q in qs:
        total = 0.0
        for ai, bi, x0, x1 in zip(values, values[1:], nodes, nodes[1:]):
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
        if v.tail.kind == "power":
            total += values[-1] ** q * nodes[-1] / (q * v.tail.param - 1.0)
        elif v.tail.kind == "exponential":
            total += values[-1] ** q / (q * v.tail.param)
        out.append((total, 0.0))
    if entropy:
        def f(s):
            val = v(s)
            return val ** p * p * math.log(val) if val > 0.0 else 0.0

        ent, err = quadrature.integrate(f, 0.0, v.support_volume, nodes)
        out.append((ent, err + abs(ent) * 1e-4))  # the gradients' grid proxy
    return out


_GRADIENTS = ("hyperbolic", "euclidean")


def radial_integrals(v: RadialProfile, n: int, p: float, qs: Sequence[float] = (),
                     grads: Sequence[str] = ("hyperbolic",), entropy: bool = False
                     ) -> List[Tuple[float, float]]:
    """(value, error) of, in order: the p-th power of each gradient norm
    named in grads, a subsequence of ("hyperbolic", "euclidean"); the mass
    integral of v^q ds for each q in qs; the entropy integral of
    v^p p log v ds if entropy.  The one door to every norm: it checks each
    q >= 1, p >= 1 only where a gradient or the entropy reads it, and the
    power tail of any profile but a rearrangement, once, then hands v to
    one pass.  A rearrangement takes levels.level_integrals of its source,
    which alone names a divergent integral (its fitted tail is not read),
    a grid-only profile the grid pass in s (_grid_integrals), and any
    other closure the pass in geodesic radius below.

    That pass is one vector panel tree in geodesic radius t over the
    closure's breakpoints (_breakpoints): the radii of its grid nodes,
    thinned to at most _RHO apart unless neighbours, and of its joins.
    One log phi, log sinh, log |v'| and log v per node serve every
    integrand.  Each integrand is one list over a panel's 15 nodes, built
    in log space with w = (n-1) log sinh t: |v'|^p times exp(p(n-1) log sinh t + w) or
    exp(p(n-1)/n log phi + w), exp(q log v + w), p log v exp(p log v + w).
    All four, which do not depend on p, come from the profile's table at
    n, one row a panel: a pass computes a row, calling the log closure
    (_logs, else _float_logs) once at each node, only at a panel no
    earlier pass of the profile at this n kept, whatever it integrates.
    """
    geometry.check_volume_dimension(n)
    for name, x in [("p", p)] * bool(grads or entropy) + [("q", q) for q in qs]:
        if not x >= 1.0:
            raise DomainError(f"need {name} >= 1, got {x!r}")
    want_h, want_e = (c in grads for c in _GRADIENTS)
    if list(grads) != [c for c in _GRADIENTS if c in grads]:
        raise DomainError(
            f"grads must be a subsequence of {_GRADIENTS!r}, got {grads!r}")
    if v.source is not None:
        return levels.level_integrals(v.source, n, p, qs, grads, entropy)
    if want_h:
        # under a power tail |v'|^p decays like s^(-p*exponent - p) and the
        # hyperbolic weight grows like s^p, so the integrand decays like
        # s^(-p*exponent)
        _tail_divergence_check(v, p * v.tail.param, "hyperbolic gradient integral")
    for q in qs:
        _tail_divergence_check(v, q * v.tail.param, f"L^{q:g} integral")
    if want_e:
        _tail_divergence_check(v, p * (v.tail.param + 1.0) - p * (n - 1.0) / n,
                               "Euclidean gradient integral")
    if v.dfn is None:
        return _grid_integrals(v, n, p, qs, grads, entropy)
    sigma = unit_ball_volume(n)
    scale = n * sigma
    pref = scale ** p
    breaks = _breakpoints(n, v.nodes, v.joins)
    top = v.support_volume
    # joins lie below the top, so the last breakpoint is the last node's
    # radius where the support ends there
    t_top = (math.inf if math.isinf(top) else breaks[-1] if top == v.nodes[-1]
             else geometry.phi_inv(n, top / sigma))
    c_hyp, c_euc = p * (n - 1) + n - 1, p * (n - 1) / n
    exp, ninf, log_sigma = math.exp, -math.inf, math.log(sigma)
    logs = v._logs[0] if v._logs else _float_logs(v.fn, v.dfn)
    table = v._panels.setdefault(n, {})

    def panel(ts):
        """log phi, log sinh, log |v'| and log v at the panel's 15 nodes ts:
        read from the table row at the panel's centre whose last value is
        ts[1], else computed whole and kept while the table has room or
        over a colliding row: log_phi and log_sinh at each node, and the
        profile's log closure at x = log sigma + log phi."""
        kept = table.get(ts[0])
        if kept is not None and kept[-1] == ts[1]:
            row = kept.tolist()
            return row[:15], row[15:30], row[30:45], row[45:60]
        lphs = [geometry.log_phi(n, t) for t in ts]
        lss = [geometry.log_sinh(t) for t in ts]
        ldvs, lvs = zip(*[logs(log_sigma + lph) for lph in lphs])
        if kept is not None or len(table) < _GRID_PANELS:
            table[ts[0]] = array("d", [*lphs, *lss, *ldvs, *lvs, ts[1]])
        return lphs, lss, ldvs, lvs

    def overflows(xs):
        if max(xs) > 700.0:
            raise DomainError("gradient integrand overflows; looks divergent")
        return xs

    def g(ts):
        # one list of 15 values per component; exp(-inf) is 0.0, but the
        # entropy, whose 0 * -inf would be nan, takes an explicit 0.0 where
        # its log is -inf
        lphs, lss, ldvs, lvs = panel(ts)
        ws = [(n - 1) * ls for ls in lss]
        out = []
        if want_h:
            out.append([exp(lh) for lh in overflows(
                [p * ldv + c_hyp * ls for ldv, ls in zip(ldvs, lss)])])
        if want_e:
            out.append([exp(le) for le in overflows(
                [p * ldv + c_euc * lph + w for ldv, lph, w in zip(ldvs, lphs, ws)])])
        for q in qs:
            out.append([exp(q * lv + w) for lv, w in zip(lvs, ws)])
        if entropy:
            out.append([exp(p * lv + w) * p * lv if lv > ninf else 0.0
                        for lv, w in zip(lvs, ws)])
        return out

    vals, errs = quadrature.integrate_vector(g, 0.0, t_top, breaks)
    scales = [pref * scale] * len(grads) + [scale] * (len(qs) + entropy)
    return [(c * x, c * e) for c, x, e in zip(scales, vals, errs)]


def _equality_distance(v: RadialProfile, p: float) -> float:
    """Root-mean-square distance of w(s) = v(s) s^(1/p) from its mean over
    the interior of the grid; zero exactly on the rigidity profile
    c s^(-1/p).  The 128 samples (s, v(s)) do not depend on p, and the
    profile keeps them."""
    if not v._samples:
        s_lo = v.nodes[1]
        s_hi = v.nodes[-1]
        if v.tail.kind == "compact":
            s_hi = 0.5 * (s_lo + s_hi)  # w ends at 0; measure the inner half
        v._samples.extend([(s, v(s)) for s in
                           quadrature.geomspace(max(s_lo, 1e-12), s_hi, 128)])
    ws = [val * s ** (1.0 / p) for s, val in v._samples]
    mean = math.fsum(ws) / len(ws)
    return math.sqrt(math.fsum((w - mean) ** 2 for w in ws) / len(ws))


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
    file, and with the line number where one line is at fault."""
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
    try:
        return RadialProfile(nodes, values, tail, label=label)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from exc

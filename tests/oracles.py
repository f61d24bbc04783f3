"""Reference functions that only the tests use: independent routes to
quantities the package computes another way."""

import contextlib
import math
import sys
from typing import Optional, Tuple

from hypineq import quadrature
from hypineq.constants import check_dimension, gamma, unit_ball_volume
from hypineq.errors import DomainError
from hypineq.geometry import phi
from hypineq.quadrature import geomspace, linspace
from hypineq.rearrangement import (Piece, RadialFunction, RadialProfile, Tail,
                                   _tail_divergence_check)


@contextlib.contextmanager
def tolerances(rel_tol: float, abs_tol: float):
    """Run every quadrature in the block at rel_tol and abs_tol in place of
    the package's fixed tolerances: a tighter reference."""
    saved = quadrature._REL_TOL, quadrature._ABS_TOL
    quadrature._REL_TOL, quadrature._ABS_TOL = rel_tol, abs_tol
    try:
        yield
    finally:
        quadrature._REL_TOL, quadrature._ABS_TOL = saved


def phi_quadrature(n: int, t: float) -> float:
    """Pure adaptive-quadrature evaluation of the volume map; cross-check
    for the closed-form path."""
    check_dimension(n)
    if t < 0.0:
        raise DomainError(f"radius must be >= 0, got {t!r}")
    with tolerances(1e-13, 1e-300):
        val, _ = quadrature.integrate(lambda u: math.sinh(u) ** (n - 1), 0.0, t)
    return n * val


def radial_margin(n: int, p: float, t: float) -> float:
    """Margin of the weight-gap lower bound at geodesic radius t: the gap
    sinh^q - phi^(q/n) of the gradient weights (q = p(n-1)) minus the
    comparison term.

    Overflows double precision once p(n-1)t is large; use
    radial_margin_scaled for large radii.
    """
    check_dimension(n)
    if t < 0.0:
        raise DomainError(f"radius must be >= 0, got {t!r}")
    if t == 0.0:
        return 0.0
    q = p * (n - 1)
    if q * t > 700.0:
        raise DomainError("radial_margin overflows here; use radial_margin_scaled")
    ph = phi(n, t)
    return math.sinh(t) ** q - ph ** (q / n) - ((n - 1.0) / n) ** p * ph ** p


def isoperimetric_integral_closed_form(n: int, p: float) -> float:
    """Closed form of the integral of the boundary-weight profile to the
    power -p/(p-1) over the measure line, p > n.

    Consistent with linfty_constant: C(n,p) = I^((p-1)/p) / (n sigma_n).
    """
    if not p > n:
        raise DomainError(f"integral diverges unless p > n, got n={n}, p={p}")
    sigma = unit_ball_volume(n)
    return n * sigma * 2.0 ** (-(n - 1) / (p - 1)) \
        * gamma((p - n) / (2 * (p - 1))) * gamma((n - 1) / (p - 1)) \
        / gamma((p + n - 2) / (2 * (p - 1)))


def _euclidean_extremal(n: int, p: float, shape, dshape, tail: Tail, grid,
                        label: str) -> RadialProfile:
    """The profile v(s) = shape(z) of the Euclidean radius r, z = r^(p/(p-1))
    = (s/sigma)^k with k = p/((p-1)n), and dshape the derivative of shape;
    grid is in units of sigma, the unit ball's volume."""
    sigma = unit_ball_volume(n)
    k = p / ((p - 1.0) * n)

    def fn(s):
        return shape((s / sigma) ** k)

    def dfn(s):
        if s <= 0.0:
            return -math.inf
        z = (s / sigma) ** k
        return dshape(z) * k * z / s

    nodes = [sigma * g for g in grid]
    return RadialProfile(nodes, [fn(s) for s in nodes], tail, fn=fn, dfn=dfn,
                         label=label)


def gaussian_extremal(n: int, p: float) -> RadialProfile:
    """exp(-r^(p/(p-1))): equality in the Euclidean L^p log-Sobolev
    inequality (Del Pino and Dolbeault, J. Funct. Anal. 197, 2003)."""
    return _euclidean_extremal(n, p, lambda z: math.exp(-z), lambda z: -math.exp(-z),
                               Tail("exponential", 1.0 / unit_ball_volume(n)),
                               [0.0] + geomspace(1e-6, 1e3, 40),
                               f"gaussian-n{n}-p{p:g}")


def gn_extremal(n: int, p: float, alpha: float) -> RadialProfile:
    """Equality in the Euclidean Gagliardo-Nirenberg inequality, q =
    alpha (p-1) + 1 (Del Pino and Dolbeault, J. Math. Pures Appl. 81,
    2002): (1 + z)^(-(p-1)/(q-p)) for alpha > 1, and
    (1 - z)_+^((p-1)/(p-q)), supported in the unit ball, for alpha < 1."""
    q = alpha * (p - 1.0) + 1.0
    label = f"gn-n{n}-p{p:g}-a{alpha:g}"
    if alpha > 1.0:
        e = (p - 1.0) / (q - p)
        return _euclidean_extremal(n, p, lambda z: (1.0 + z) ** -e,
                                   lambda z: -e * (1.0 + z) ** (-e - 1.0),
                                   Tail("power", e * p / ((p - 1.0) * n)),
                                   [0.0] + geomspace(1e-6, 1e4, 40), label)
    e = (p - 1.0) / (p - q)
    return _euclidean_extremal(n, p, lambda z: (1.0 - z) ** e if z < 1.0 else 0.0,
                               lambda z: -e * (1.0 - z) ** (e - 1.0) if z < 1.0 else 0.0,
                               Tail("compact", unit_ball_volume(n)),
                               linspace(0.0, 1.0, 41), label)


def morrey_extremal(n: int, p: float, support: float) -> RadialProfile:
    """Equality in the Euclidean Morrey-Sobolev (sup-norm) inequality,
    p > n: v'(s) = -(n sigma^(1/n) s^((n-1)/n))^(-p/(p-1)) on [0, support],
    the profile built from the Euclidean isoperimetric function."""
    c = (n * unit_ball_volume(n) ** (1.0 / n)) ** (-p / (p - 1.0))
    e = (n - 1.0) * p / (n * (p - 1.0))

    def fn(s):
        return c * (support ** (1.0 - e) - s ** (1.0 - e)) / (1.0 - e) if s < support else 0.0

    def dfn(s):
        if s <= 0.0:
            return -math.inf
        return -c * s ** -e if s < support else 0.0

    grid = linspace(0.0, support, 41)
    return RadialProfile(grid, [fn(s) for s in grid], Tail("compact", support),
                         fn=fn, dfn=dfn, label=f"morrey-n{n}-p{p:g}-S{support:g}")


def radial_margin_asymptotic(n: int, p: float, t: float) -> float:
    """Leading-order large-t prediction of radial_margin.

    Unified middle coefficient (2n/(n-1))^(p(n-1)/n); for n >= 4 the
    published expansion of the middle term is short by a factor
    2^(p(n-1)), which this form restores (it then matches direct
    evaluation to a few percent by t ~ 15).
    """
    if n < 3:
        raise DomainError("asymptotic form needs n >= 3")
    if t <= 0.0:
        raise DomainError(f"need t > 0, got {t!r}")
    q = p * (n - 1)
    mid = (2.0 * n / (n - 1.0)) ** (q / n)
    if n == 3:
        log_pref = -p * math.log(4.0) + 2.0 * (p - 1.0) * t + math.log(t)
        bracket = 4.0 * p - mid / t * math.exp((2.0 - 2.0 * p / 3.0) * t)
    else:
        log_pref = p * (1 - n) * math.log(2.0) + (q - 2.0) * t
        bracket = 2.0 * q / (n - 3.0) - mid * math.exp((2.0 - q / n) * t)
    if bracket == 0.0:
        return 0.0
    log_mag = log_pref + math.log(abs(bracket))
    if log_mag > 700.0:
        return math.copysign(math.inf, bracket)
    return math.copysign(math.exp(log_mag), bracket)


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
                         label=v.label, joins=v.joins, source=source)


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
        lambda ss: zip(*map(f, ss)), lo, hi, v.nodes)
    # the totals miss their exact values by more than the K15 - G7 gaps: by
    # rounding (up to 25 eps times the sum on the smooth corpus files) and,
    # where a first segment is far below abs_tol, by the part of the
    # left-edge sweep beyond its last panel (118 eps on the read-back
    # truncated-bubble-l0.05-T1, 3,400 on a read-back bubble at lambda = 0.01,
    # n = 6, p = 4).  4096 eps, about 1e-12, is a hundredth of rel_tol.
    rounding = 4096 * sys.float_info.epsilon * (lhs + wterm + p ** (-p) * vterm)
    return lhs, wterm + p ** (-p) * vterm, e_lhs + e_w + p ** (-p) * e_v + rounding

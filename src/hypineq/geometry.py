"""Geodesic-ball volume map on hyperbolic space, its inverse, and the
kernel functions controlling the hyperbolic/Euclidean gradient comparison.

Everything is radial, so all functions live on the half-line: t is a
geodesic radius, s a normalized ball volume.  The volume map

    vol(n, t) = n * integral_0^t sinh(u)^(n-1) du

has an exact exponential-sum closed form for every n (expand the binomial
power of sinh).  At small radius, where the exponential sum cancels, it is
summed instead as a power series in t with positive terms: below t = 0.5
up to n = 6, and further out for larger n (_series_top).  Below t = 0.5
phi_inv sums that series' Lagrange reversion (Henrici, Applied and
Computational Complex Analysis I, 1974, sec. 1.9), above Newton on log_phi.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from operator import mul
from typing import Iterator, Optional, Sequence, Tuple

from .constants import boundary_exponent, check_dimension, unit_ball_volume
from .errors import ConvergenceError, DomainError
from .quadrature import _ROOT_MAX_ITER, _ROOT_REL_TOL

__all__ = [
    "log_sinh",
    "phi",
    "log_phi",
    "phi_inv",
    "phi_inv_log",
    "sinh_phi_inv",
    "radial_margin_scaled",
    "margin_slope_factor",
    "violation_onset",
    "isoperimetric_tail_integral",
]

_SMALL_T = 0.5
_EPS = sys.float_info.epsilon
MAX_DIMENSION = 276


def check_volume_dimension(n: int):
    """Raise DomainError unless n is an integer in [2, MAX_DIMENSION]: from
    n = 277 _phi_series' powers of its top overflow before its terms end."""
    if not (isinstance(n, int) and 2 <= n <= MAX_DIMENSION):
        check_dimension(n)
        raise DomainError(f"the volume map holds up to n = {MAX_DIMENSION}, got n={n}")


@lru_cache(maxsize=None)
def _binom_terms(n: int) -> Tuple[Tuple[int, int], ...]:
    """Signed binomial coefficients and exponents of the expansion of
    (e^u - e^-u)^(n-1), the coefficients exact integers: a double path
    rounds each once, and an mpmath one keeps C(n-1, k) past 2^53."""
    return tuple(((-1) ** k * math.comb(n - 1, k), n - 1 - 2 * k) for k in range(n))


def log_sinh(t: float) -> float:
    """log(sinh t) without overflow for large t."""
    if not t > 0.0:
        raise DomainError(f"need t > 0, got {t!r}")
    if t > 20.0:
        return t + math.log1p(-math.exp(-2.0 * t)) - math.log(2.0)
    return math.log(math.sinh(t))


@lru_cache(maxsize=None)
def _series_top(n: int) -> float:
    """Radius below which phi(n, .) is summed as its series.  The
    exponential sum loses about coth(t)^(n-1) ulps to cancellation; the
    switch stays at _SMALL_T up to n = 6 (a loss below 50 ulps) and above
    moves out to where the loss is 20 ulps."""
    return _SMALL_T if n <= 6 else math.atanh(20.0 ** (-1.0 / (n - 1)))


@lru_cache(maxsize=None)
def _phi_series(n: int) -> Tuple[float, ...]:
    """Coefficients b_k of phi(n, t) = t^n * sum_k b_k t^(2k), as many as
    t < _series_top(n) needs.

    The termwise Taylor expansion of the exponential sum: with m = n - 1,
    b_k = n * sum_j (-1)^j C(m, j) (m - 2j)^(m+2k) / (2^m (n+2k)!).  The
    alternating sum cancels exactly in integers; each b_k is rounded once.
    """
    m = n - 1
    x = _series_top(n) ** 2
    out, total, xk = [], 0.0, 1.0
    k = 0
    while True:
        e = m + 2 * k
        s = sum((-1) ** j * math.comb(m, j) * (m - 2 * j) ** e for j in range(n))
        out.append(n * s / (2 ** m * math.factorial(e + 1)))
        total += out[-1] * xk
        # positive terms whose ratio falls below 1/2 past the peak, so the
        # tail beyond this term is smaller than the term itself
        if k and out[-1] * xk < 1e-18 * total and out[-1] * x < 0.5 * out[-2]:
            return tuple(out)
        xk *= x
        k += 1


def _series_sum(n: int, t: float) -> float:
    """P(t^2) = phi(n, t) / t^n, summed from _phi_series: at least 1."""
    x = t * t
    acc, xk = 0.0, 1.0
    for b in _phi_series(n):
        term = b * xk
        acc += term
        if term < 1e-17 * acc:
            break
        xk *= x
    return acc


def _log_phi_small(n: int, t: float) -> float:
    """log phi(n, t) on the series: the log of t^n P(t^2) while t^n is a
    normal double, else n log t + log P(t^2)."""
    acc, tn = _series_sum(n, t), t ** n
    return math.log(acc * tn) if tn >= sys.float_info.min else n * math.log(t) + math.log(acc)


def _phi_exp_sum(n: int, t, expm1=math.expm1):
    """The exponential-sum volume map; in mpmath given mp.expm1 and an mpf t."""
    acc = 0.0
    for coeff, m in _binom_terms(n):
        if m == 0:
            acc += coeff * t
        else:
            acc += coeff * expm1(m * t) / m
    return n * 2.0 ** (1 - n) * acc


def phi(n: int, t: float) -> float:
    """Normalized volume of the geodesic ball of radius t (units of the
    Euclidean unit-ball volume)."""
    check_volume_dimension(n)
    if t < 0.0:
        raise DomainError(f"radius must be >= 0, got {t!r}")
    if t == 0.0:
        return 0.0
    if t < _SMALL_T or n > 6 and t < _series_top(n):
        return _series_sum(n, t) * t ** n
    if (n - 1) * t > 700.0:
        raise DomainError(f"phi({n}, {t!r}) overflows double precision")
    return _phi_exp_sum(n, t)


def _phi_excess(n: int, t: float) -> Tuple[float, Optional[float]]:
    """(lambda(t) = log(phi(n, t)) - (n-1) t, epsilon) for t > 0: above the
    series one pass over the binomial terms sums phi with its growth
    e^((n-1)t) factored out and, from the same terms but the leading 1,
    epsilon in (n-1) phi e^(-(n-1)t) 2^(n-1) / n = 1 + epsilon (None below)."""
    if t < _SMALL_T or n > 6 and t < _series_top(n):
        return _log_phi_small(n, t) - (n - 1) * t, None
    decay = math.exp(-(n - 1) * t)
    acc, eps = (1.0 - decay) / (n - 1), -decay  # term k = 0; epsilon less its 1
    for coeff, m in _binom_terms(n)[1:]:
        if m == 0:
            acc += coeff * t * decay
            eps += (n - 1) * coeff * t * decay
        else:
            d = math.exp((m - (n - 1)) * t) - decay
            acc += coeff * d / m
            eps += (n - 1) * coeff * d / m
    return math.log(n * 2.0 ** (1 - n)) + math.log(acc), eps


def log_phi(n: int, t: float) -> float:
    """log phi(n, t) for any t >= 0 (-inf at 0): on the series
    _log_phi_small, past phi's overflow edge lambda(t) + (n-1) t
    (_phi_excess), and the log of phi between."""
    check_volume_dimension(n)
    if (n - 1) * t > 700.0:
        return _phi_excess(n, t)[0] + (n - 1) * t
    if 0.0 < t < _series_top(n):
        return _log_phi_small(n, t)
    return math.log(phi(n, t)) if t else -math.inf


def softplus(x: float) -> float:  # log(1 + e^x) for any x, without overflow
    return x + math.log1p(math.exp(-x)) if x > 0.0 else math.log1p(math.exp(x))


@lru_cache(maxsize=None)
def _inv_series(n: int) -> Tuple[float, Tuple[float, ...]]:
    """(x_top, c), x_top = phi(n, _SMALL_T): below x_top the root of
    phi(n, t) = x is t = w sum_k c_k w^(2k), w = x^(1/n), c highest first.

    phi = t^n P(t^2), P of _phi_series with P(0) = 1, and Lagrange-Buermann
    inversion gives c_k = [u^k] P(u)^(-(2k+1)/n) / (2k+1), each power by
    J.C.P. Miller's recurrence in floating point.  At x_top the terms
    alternate and fall by more than 3 times each up to n = 100; they stop
    below 1e-17."""
    bs = _phi_series(n)[1:]
    ibs = [i * b for i, b in enumerate(bs, 1)]
    x_top = _series_sum(n, _SMALL_T) * _SMALL_T ** n
    v_top, out = x_top ** (2.0 / n), []
    while not out or abs(out[-1]) * v_top ** (len(out) - 1) >= 1e-17:
        a = -(2 * len(out) + 1) / n
        q = [1.0]  # P^a: q_j = sum_i ((a+1) i - j) b_i q_(j-i) / j
        for j in range(1, len(out) + 1):
            rq = q[::-1]
            q.append(((a + 1.0) * sum(map(mul, ibs, rq))
                      - j * sum(map(mul, bs, rq))) / j)
        out.append(q[-1] / (2 * len(out) + 1))
    return x_top, tuple(reversed(out))


def _inv_sum(cs: Tuple[float, ...], w: float) -> float:
    v, acc = w * w, 0.0  # the reversed series of _inv_series at w = x^(1/n)
    for c in cs:
        acc = acc * v + c
    return w * acc


def phi_inv(n: int, s: float) -> float:
    """Inverse of the volume map: the geodesic radius enclosing normalized
    volume s.  Below phi(n, _SMALL_T), where phi is a series,
    it sums the reversed series (_inv_series): within 4 ulps, no phi call.
    Above, phi_inv_log(n, log s)."""
    check_volume_dimension(n)
    if s < 0.0:
        raise DomainError(f"volume must be >= 0, got {s!r}")
    if s == 0.0:
        return 0.0
    x_top, cs = _inv_series(n)
    if s < x_top:
        # s^(1/n) = (m 2^r)^(1/n) 2^q for s = m 2^(nq + r): the rounding of
        # 1/n then moves it by under an ulp, not by |log s| ulps
        m, e = math.frexp(s)
        q, r = divmod(e, n)
        return _inv_sum(cs, math.ldexp(math.ldexp(m, r) ** (1.0 / n), q))
    return phi_inv_log(n, math.log(s))


def phi_inv_log(n: int, x: float) -> float:
    """The radius t where log_phi(n, t) = x, for any x (0 at -inf): the
    reversed series at w = e^(x/n) below log phi(n, _SMALL_T), else Newton
    on the concave log phi, slope n sinh(t)^(n-1) / phi, from the larger
    of _SMALL_T and t_large (phi <= n 2^(1-n) e^((n-1)t) / (n-1)), both
    below the root, so the iterates rise to it.  A step below 1e-9 t is
    the last: Newton's error past it is below rounding."""
    check_volume_dimension(n)
    x_top, cs = _inv_series(n)
    if x < math.log(x_top):
        return _inv_sum(cs, math.exp(x / n))
    t = max(_SMALL_T, (x + math.log((n - 1) / n) + (n - 1) * math.log(2.0)) / (n - 1))
    for _ in range(_ROOT_MAX_ITER):
        lph = log_phi(n, t)
        step = (x - lph) * math.exp(lph - math.log(n) - (n - 1) * log_sinh(t))
        t += step
        if abs(step) <= 1e-9 * t:
            return t
    raise ConvergenceError(f"phi_inv_log({n}, {x!r}) did not converge", partial=t)


def sinh_phi_inv(n: int, s: float) -> float:
    """sinh of the inverse volume map; the n = 2 case collapses to a
    closed form."""
    check_volume_dimension(n)
    if s < 0.0:
        raise DomainError(f"volume must be >= 0, got {s!r}")
    if n == 2:
        # sqrt(s + s^2/4), which is s/2 + 1 - O(1/s): s/2 past 1e150
        return 0.5 * s if s > 1e150 else math.sqrt(s * (1.0 + 0.25 * s))
    return math.sinh(phi_inv(n, s))


def _precision(n: int, p: float, t: float):
    """mpmath working-precision context that covers the exponential
    cancellation in the margin and its slope factor at radius t, and below
    t = 1 the t^n cancellation of the exponential sum."""
    import mpmath as mp
    small = n * math.log10(1.0 / t) if t < 1.0 else 0.0
    return mp.workdps(40 + int(0.5 * (p * (n - 1) + n) * t + small))


def _margin_precise(n: int, p: float, t: float, slope: bool = False) -> float:
    """margin/scale, scale = 1 + phi^p, or with slope the slope factor, via
    mpmath at a precision that covers the exponential cancellation."""
    import mpmath as mp
    with _precision(n, p, t):
        tt = mp.mpf(t)
        ph = _phi_exp_sum(n, tt, mp.expm1)
        # build every exponent from the same mpf image of p: a 1-ulp
        # mismatch between the first and third exponents survives the
        # cancellation as a spurious margin ~ ulp(q) * t
        pp = mp.mpf(p)
        qq = pp * (n - 1)
        if slope:
            lead = mp.sinh(tt) ** (qq - n) * mp.cosh(tt)
            return float(1 - (ph ** (qq / n - 1)
                              + (mp.mpf(n - 1) / n) ** pp * ph ** (pp - 1)) / lead)
        F = mp.sinh(tt) ** qq - ph ** (qq / n) - (mp.mpf(n - 1) / n) ** pp * ph ** pp
        return float(F / (1 + ph ** p))


def _margin_rows(n: int, p: float, ts: Sequence[float], slope: bool = False
                 ) -> Iterator[Tuple[float, float, Optional[float]]]:
    """(m, log(1 + phi^p), f) at each radius of ts, from one pass of
    _phi_excess each: the double paths of radial_margin_scaled (m) and,
    with slope, of margin_slope_factor (f, else None).  t = 0 gives zeros."""
    q = p * (n - 1)
    qn = q / n
    log_ratio = math.log((n - 1.0) / n)
    log_limit = math.log(n * 2.0 ** (1 - n) / (n - 1))
    for t in ts:
        if t == 0.0:
            yield 0.0, 0.0, 0.0
            continue
        lam, eps = _phi_excess(n, t)
        log_sh = math.log(-0.5 * math.expm1(-2.0 * t))  # log(sinh t) - t
        eps = eps if t >= 3.0 else None
        lam_m = lam if eps is None else log_limit + math.log1p(eps)
        # phi^(q/n) and the scale, over e^(qt)
        b = math.exp(qn * (lam_m - t))
        scale = math.exp(-q * t) + math.exp(p * lam_m)
        if scale == 0.0:
            raise DomainError(f"radial_margin_scaled({n}, {p!r}, {t!r}) underflows")
        if eps is not None:
            # sinh^q and ((n-1)/n)^p phi^p over e^(qt) are 2^-q e^x and 2^-q e^y,
            # which meet as t grows: subtract them with their limit taken out
            x, y = q * math.log1p(-math.exp(-2.0 * t)), p * math.log1p(eps)
            m = (2.0 ** -q * (math.expm1(x) - math.expm1(y)) - b) / scale
        else:
            m = (math.exp(q * log_sh) - b - math.exp(p * (log_ratio + lam))) / scale
        x = p * (lam + (n - 1) * t)
        log_scale = softplus(x)
        f = None
        if slope:
            # log of the slope factor's first term less its growth (q-n+1) t;
            # the other two terms carry growth (q-n+1) t - (q/n) t and (q-n+1) t
            lead = (q - n) * log_sh + math.log(0.5 + 0.5 * math.exp(-2.0 * t))
            f = -math.expm1((qn - 1.0) * lam - qn * t - lead) \
                - math.exp(p * log_ratio + (p - 1.0) * lam - lead)
        yield m, log_scale, f


def radial_margin_scaled(n: int, p: float, t: float,
                         precise: bool = False) -> float:
    """The margin of the weight-gap lower bound at geodesic radius t, the
    gap sinh^q - phi^(q/n) of the gradient weights (q = p(n-1)) minus the
    comparison term ((n-1)/n)^p phi^p, divided by the scale
    1 + phi(n,t)^p.  It is accurate for any t: every term is divided by
    e^(p(n-1)t) analytically, and the double-precision path is accurate
    to ~1e-14 absolute.  From t = 3 the first and third terms, which share
    the limit 2^-(p(n-1)), are subtracted with it taken out, so a margin
    far below that limit keeps its sign and its relative accuracy.  Pass precise=True (mpmath) when
    the sign of an exponentially small margin matters.
    """
    check_volume_dimension(n)
    if t < 0.0:
        raise DomainError(f"radius must be >= 0, got {t!r}")
    if precise and t != 0.0:
        return _margin_precise(n, p, t)
    return next(_margin_rows(n, p, (t,)))[0]


def margin_slope_factor(n: int, p: float, t: float,
                        precise: bool = False) -> float:
    """Inner factor sinh^(q-n) cosh - phi^(q/n-1) - ((n-1)/n)^p phi^(p-1)
    of the derivative of the unscaled margin of radial_margin_scaled
    (q = p(n-1); the derivative is p(n-1) sinh(t)^(n-1) times it), divided
    by its first term, which keeps its sign and keeps it finite for any t;
    defined for n >= 3."""
    check_volume_dimension(n)
    if n < 3:
        raise DomainError("slope factor is defined for n >= 3 only")
    if t < 0.0:
        raise DomainError(f"radius must be >= 0, got {t!r}")
    if precise and t != 0.0:
        return _margin_precise(n, p, t, slope=True)
    return next(_margin_rows(n, p, (t,), slope=True))[2]


def violation_onset(n: int, p: float) -> float:
    """Radius at which the asymptotic prediction changes sign; only defined
    below the comparison boundary (p < 2 for n=2 has no prediction; n >= 3
    with p < 2n/(n-1))."""
    if n < 3:
        raise DomainError("onset estimate needs n >= 3")
    if p >= boundary_exponent(n):
        raise DomainError(f"no sign change predicted for p >= {boundary_exponent(n):g}")
    q = p * (n - 1)
    mid = (2.0 * n / (n - 1.0)) ** (q / n)
    if n >= 4:
        return math.log(2.0 * q / (n - 3.0) / mid) / (2.0 - q / n)
    rate = 2.0 - 2.0 * p / 3.0
    t = 10.0
    for _ in range(80):
        t_new = math.log(max(4.0 * p * t / mid, 1.1)) / rate
        if abs(t_new - t) < 1e-9:
            break
        t = t_new
    return t


def _beta_series(x: float, alpha: float, beta: float) -> Tuple[float, int]:
    """(sum, terms) of sum_k (1-beta)_k x^k / (k! (alpha+k)) = B(x; alpha,
    beta) / x^alpha (DLMF 8.17.7), 0 <= x <= 1/2, 0 < beta < 1: positive
    terms that fall by x or more each, summed to half an ulp.  A term
    rounds 6 times per step and the sum once per term, so the sum is
    within 8 eps times its number of terms of the series."""
    total, c, k = 0.0, 1.0, 0
    while True:
        term = c / (alpha + k)
        total += term
        if term < 0.5 * _EPS * total:
            return total, k + 1
        c *= (k + 1.0 - beta) / (k + 1.0) * x
        k += 1


def isoperimetric_tail_integral(n: int, p: float, r: float = 0.0) -> Tuple[float, float]:
    """(value, error) of the integral over the volumes [r, infinity) of
    sinh(tau)^(-(n-1)p/(p-1)), tau = phi_inv(n, s/sigma), p > n (_tail_integral)."""
    if not p > n:
        raise DomainError(f"tail integral diverges unless p > n, got n={n}, p={p}")
    if r < 0.0:
        raise DomainError(f"need r >= 0, got {r!r}")
    return _tail_integral(n, p, phi_inv(n, r / unit_ball_volume(n)))


def _tail_integral(n: int, p: float, tau: float) -> Tuple[float, float]:
    """isoperimetric_tail_integral from radius tau: n sigma times the
    integral of sinh(t)^(-a) over [tau, infinity), a = (n-1)/(p-1), which
    x = e^(-2t) turns into n sigma 2^(a-1) B(e^(-2 tau); a/2, beta), beta =
    (p-n)/(p-1).  Up to x = 1/2 B is its series; above, the complete beta
    less the series of B(1-x; beta, a/2).  The error bounds the rounding,
    in eps per unit of what it multiplies (8 per series term, 1 + a tau
    for e^(-a tau), 10 per math.gamma, 1 for the subtraction, 16 for the
    scale), and a shift of tau by _ROOT_REL_TOL tau (phi/phi' <= tau)."""
    sigma = unit_ball_volume(n)
    a = (n - 1.0) / (p - 1.0)  # in (0, 1)
    alpha, beta = 0.5 * a, (p - n) / (p - 1.0)
    x = math.exp(-2.0 * tau)
    if x <= 0.5:
        total, k = _beta_series(x, alpha, beta)
        # x^alpha as e^(-a tau), which stays normal where x underflows
        val = math.exp(-a * tau) * total
        ulps = (8 * k + 2 + a * tau) * val
    else:
        y = -math.expm1(-2.0 * tau)
        complete = math.gamma(alpha) * math.gamma(beta) / math.gamma(alpha + beta)
        total, k = _beta_series(y, beta, alpha)
        part = y ** beta * total
        val = complete - part
        ulps = 33 * complete + (8 * k + 2) * part
    scale = n * sigma * 2.0 ** (a - 1.0)
    # the integral's slope in tau is -n sigma sinh(tau)^(-a)
    shift = (n * sigma * math.exp(-a * log_sinh(tau)) * _ROOT_REL_TOL * tau
             if tau > 0.0 else 0.0)
    return scale * val, scale * (ulps + 16 * val) * _EPS + shift

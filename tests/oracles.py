"""Reference functions that only the tests use: independent routes to
quantities the package computes another way."""

import math

from hypineq import quadrature
from hypineq.constants import check_dimension
from hypineq.errors import DomainError
from hypineq.quadrature import QuadratureConfig

# tolerances of the quadrature cross-check of phi
_PHI_QUADRATURE_CFG = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-300)


def phi_quadrature(n: int, t: float) -> float:
    """Pure adaptive-quadrature evaluation of the volume map; cross-check
    for the closed-form path."""
    check_dimension(n)
    if t < 0.0:
        raise DomainError(f"radius must be >= 0, got {t!r}")
    val, _ = quadrature.integrate(lambda u: math.sinh(u) ** (n - 1), 0.0, t,
                                  cfg=_PHI_QUADRATURE_CFG)
    return n * val


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

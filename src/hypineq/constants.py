"""Closed-form sharp constants and the Gamma function backing them.

All constants are evaluated in 64-bit floating point.  The tests check
each formula against its own mpmath evaluation at 40 digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError, OverflowDomainError

__all__ = [
    "Params",
    "gamma",
    "unit_ball_volume",
    "sobolev_constant",
    "gn_theta",
    "gn_constant",
    "morrey_constant",
    "linfty_constant",
    "log_sobolev_constant",
    "boundary_exponent",
    "in_poincare_range",
    "in_comparison_range",
]


def check_dimension(n: int):
    """Raise DomainError unless n is an integer >= 2."""
    if not (isinstance(n, int) and n >= 2):
        raise DomainError(f"dimension must be an integer >= 2, got {n!r}")


def boundary_exponent(n: int) -> float:
    """Smallest exponent for which the pointwise weight-gap bound holds:
    2 for n = 2, 2n/(n-1) for n >= 3."""
    check_dimension(n)
    return 2.0 if n == 2 else 2.0 * n / (n - 1.0)


def in_comparison_range(n: int, p: float) -> bool:
    """Validity range of the gradient-norm comparison: (n=2, p>=2) or
    (n>=3, p >= 2n/(n-1))."""
    return p >= boundary_exponent(n) - 1e-12


def in_poincare_range(n: int, p: float) -> bool:
    """Range of the improved Poincare-Sobolev inequality: n >= 4 and
    2n/(n-1) <= p < n."""
    return n >= 4 and in_comparison_range(n, p) and p < n


@dataclass(frozen=True)
class Params:
    """Dimension n, exponent p, and the optional interpolation parameter
    alpha used by the Gagliardo-Nirenberg family."""

    n: int
    p: float
    alpha: Optional[float] = None

    def __post_init__(self):
        check_dimension(self.n)
        if not 1.0 <= self.p < math.inf:
            raise DomainError(f"exponent p must be finite and at least 1, got {self.p!r}")
        if self.alpha is not None:
            if not self.p < self.n:
                raise DomainError("alpha only applies when p < n")
            amax = self.n / (self.n - self.p)
            if not (0.0 < self.alpha <= amax + 1e-12):
                raise DomainError(
                    f"alpha must lie in (0, n/(n-p)] = (0, {amax:g}], got {self.alpha!r}")
            if self.alpha == 1.0:
                raise DomainError("alpha = 1 is excluded")


def gamma(x: float) -> float:
    """Gamma function of a real argument; poles raise DomainError and
    overflow raises OverflowDomainError."""
    try:
        return math.gamma(x)
    except ValueError:
        raise DomainError(f"gamma pole at {x!r}") from None
    except OverflowError:
        raise OverflowDomainError(f"gamma({x!r}) overflows double precision") from None


def unit_ball_volume(n: int) -> float:
    """Volume of the Euclidean unit ball, pi^(n/2) / Gamma(n/2 + 1)."""
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"dimension must be an integer >= 1, got {n!r}")
    g = gamma(n / 2.0 + 1.0)  # overflows from n = 342, pi^(n/2) from n = 1241
    return math.pi ** (n / 2.0) / g


def sobolev_constant(params: Params) -> float:
    """Best constant of the L^p Sobolev inequality on flat space,
    valid for 1 < p < n."""
    n, p = params.n, params.p
    if not (1.0 < p < n):
        raise DomainError(f"sobolev_constant needs 1 < p < n, got n={n}, p={p}")
    return _sobolev_constant_raw(n, p)


def _sobolev_constant_raw(n: int, p: float) -> float:
    """Formula body, additionally valid at p = 1 (isoperimetric limit)."""
    # log of Gamma(n) / (Gamma(n/p) Gamma(n+1-n/p) sigma): Gamma(n) alone
    # overflows for n >= 171
    log_ratio = (math.lgamma(n) - math.lgamma(n / p) - math.lgamma(n + 1 - n / p)
                 - n / 2.0 * math.log(math.pi) + math.lgamma(n / 2.0 + 1.0))
    slope = 1.0 if p == 1.0 else (n * (p - 1) / (n - p)) ** (1 - 1 / p)
    return 1.0 / ((1 / n) * slope * math.exp(log_ratio / n))


def gn_theta(params: Params) -> float:
    """Interpolation exponent of the Gagliardo-Nirenberg family; alpha
    selects the branch."""
    n, p, a = params.n, params.p, params.alpha
    if a is None:
        raise DomainError("gn_theta needs alpha")
    if a > 1.0:
        return n * (a - 1.0) / (a * (n * p - (a * p + 1.0 - a) * (n - p)))
    return n * (1.0 - a) / ((a * p + 1.0 - a) * (n - a * (n - p)))


def gn_constant(params: Params) -> float:
    """Sharp Gagliardo-Nirenberg constant (both branches)."""
    n, p, a = params.n, params.p, params.alpha
    if a is None:
        raise DomainError("gn_constant needs alpha")
    if not p > 1.0:
        raise DomainError(f"gn_constant needs 1 < p < n, got n={n}, p={p}")
    th = gn_theta(params)
    q = a * (p - 1) + 1
    delta = n * p - (n - p) * q
    if not delta > 0:
        raise DomainError(f"delta = np - (n-p)q must be positive, got {delta!r}")
    if a > 1.0:
        return ((q - p) / (p * math.sqrt(math.pi))) ** th \
            * (p * q / (n * (q - p))) ** (th / p) \
            * (delta / (p * q)) ** (1 / (a * p)) \
            * ((gamma(q * (p - 1) / (q - p)) * gamma(n / 2 + 1))
               / (gamma((p - 1) / p * delta / (q - p))
                  * gamma(n * (p - 1) / p + 1))) ** (th / n)
    return ((p - q) / (p * math.sqrt(math.pi))) ** th \
        * (p * q / (n * (p - q))) ** (th / p) \
        * (p * q / delta) ** ((1 - th) / (a * p)) \
        * ((gamma((p - 1) / p * delta / (p - q) + 1) * gamma(n / 2 + 1))
           / (gamma(q * (p - 1) / (p - q) + 1)
              * gamma(n * (p - 1) / p + 1))) ** (th / n)


def morrey_constant(params: Params) -> float:
    """Sharp constant of the flat Morrey-Sobolev (sup-norm) inequality,
    p > n."""
    n, p = params.n, params.p
    if not p > n:
        raise DomainError(f"morrey_constant needs p > n, got n={n}, p={p}")
    sigma = unit_ball_volume(n)
    return n ** (-1 / p) * sigma ** (-1 / n) * ((p - 1) / (p - n)) ** ((p - 1) / p)


def linfty_constant(params: Params) -> float:
    """Constant of the hyperbolic sup-norm gradient bound, p > n."""
    n, p = params.n, params.p
    if not p > n:
        raise DomainError(f"linfty_constant needs p > n, got n={n}, p={p}")
    sigma = unit_ball_volume(n)
    gratio = (gamma((p - n) / (2 * (p - 1))) * gamma((n - 1) / (p - 1))
              / gamma((p + n - 2) / (2 * (p - 1))))
    return (2.0 ** (n - 1) * n * sigma) ** (-1 / p) * gratio ** ((p - 1) / p)


def log_sobolev_constant(params: Params) -> float:
    """Constant of the logarithmic Poincare-Sobolev inequality,
    n >= 4 and 2n/(n-1) <= p < n."""
    n, p = params.n, params.p
    if not in_poincare_range(n, p):
        raise DomainError(
            f"log_sobolev_constant needs n >= 4 and 2n/(n-1) <= p < n, got n={n}, p={p}")
    return (p / n) * ((p - 1) / math.e) ** (p - 1) * math.pi ** (-p / 2) \
        * (gamma(n / 2 + 1) / gamma(n * (p - 1) / p + 1)) ** (p / n)

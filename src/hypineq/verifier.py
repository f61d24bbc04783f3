"""Deficit evaluation for the sharp inequalities.

Every operation takes a profile on the measure line, evaluates both sides
of one inequality in powered form, and returns a DeficitReport.  The
``constant_scale`` argument multiplies the sharp constant and exists so
that tests (and the CLI) can deliberately break an inequality to prove
the harness would notice.  INEQUALITIES lists every inequality by id, and
evaluate() runs one of them on a profile.  The rows the sharpness runs
minimize also carry a ratio of the report and that ratio's infimum.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Tuple

from . import constants, geometry, rearrangement
from .constants import Params, check_dimension, in_poincare_range
from .errors import DomainError, EvaluationError, OverflowDomainError
from .quadrature import geomspace
from .rearrangement import RadialProfile, Tail
from .report import DeficitReport

__all__ = [
    "INEQUALITIES",
    "evaluate",
    "poincare_deficit",
    "poincare_sobolev",
    "gagliardo_nirenberg",
    "morrey_sobolev",
    "log_sobolev",
    "mugelli_talenti_sum",
    "linfty_inequality",
    "extremal_linfty_profile",
    "euclidean_rayleigh_ratio",
]


def _deficit(grad: Tuple[float, float], mass: Tuple[float, float],
             coeff: float) -> Tuple[float, float]:
    """(grad - coeff * mass, its error) from the (value, error) pairs of
    the hyperbolic gradient integral and the L^p mass."""
    return grad[0] - coeff * mass[0], grad[1] + coeff * mass[1]


def _relative_error(*terms: Tuple[float, float, float]) -> float:
    """Sum of weight * error / value over (weight, error, value) terms with
    value > 0: each factor's relative error times its weight in its side.
    A plain loop, since sum() compensates from Python 3.12."""
    err = 0.0
    for weight, e, value in terms:
        if value > 0.0:
            err += weight * e / value
    return err


def poincare_deficit(v: RadialProfile, n: int, p: float) -> Tuple[float, float]:
    """Hyperbolic gradient integral minus the sharp zeroth-order term
    ((n-1)/p)^p times the L^p mass.  Returns (value, error_estimate)."""
    return _deficit(*rearrangement.radial_integrals(v, n, p, qs=(p,)),
                    ((n - 1.0) / p) ** p)


def poincare_sobolev(v: RadialProfile, n: int, p: float,
                     constant_scale: float = 1.0) -> DeficitReport:
    """Improved Sobolev inequality: the gradient deficit dominates the
    sharp flat-Sobolev term of the critical norm."""
    if not in_poincare_range(n, p):
        raise DomainError(
            f"poincare_sobolev needs n >= 4 and 2n/(n-1) <= p < n, got n={n}, p={p}")
    params = Params(n, p)
    pstar = n * p / (n - p)
    grad, mass, (crit_mass, e2) = rearrangement.radial_integrals(
        v, n, p, qs=(p, pstar))
    lhs, e1 = _deficit(grad, mass, ((n - 1.0) / p) ** p)
    S = constant_scale * constants.sobolev_constant(params)
    rhs = S ** p * crit_mass ** ((n - p) / n)
    err = e1 + _relative_error((rhs * ((n - p) / n), e2, crit_mass))
    extras = {
        "poincare_deficit": lhs,
        "critical_mass": crit_mass,
        "lhs_root": lhs ** (1.0 / p) if lhs >= 0 else math.nan,
        "rhs_root": rhs ** (1.0 / p),
    }
    return DeficitReport("poincare_sobolev", params, lhs, rhs,
                         quadrature_error=err, label=v.label,
                         extras=extras)


def gagliardo_nirenberg(v: RadialProfile, n: int, p: float, alpha: float,
                        constant_scale: float = 1.0) -> DeficitReport:
    """Interpolated family: the deficit raised to theta/p times a
    secondary norm dominates the target norm.  Branch chosen by alpha."""
    params = Params(n, p, alpha)
    if not in_poincare_range(n, p):
        raise DomainError(
            f"gagliardo_nirenberg needs n >= 4 and 2n/(n-1) <= p < n, got n={n}, p={p}")
    theta = constants.gn_theta(params)
    gn = constant_scale * constants.gn_constant(params)
    q = alpha * (p - 1.0) + 1.0
    grad, mass, ap, lq = rearrangement.radial_integrals(
        v, n, p, qs=(p, alpha * p, q))
    D, e1 = _deficit(grad, mass, ((n - 1.0) / p) ** p)
    if D < 0.0:
        raise EvaluationError(
            f"gradient deficit came out negative ({D!r}); profile inadmissible")
    # (exponent, mass, error) of the target norm and of the secondary one
    (q_t, m_t, e_t), (q_s, m_s, e_s) = (((alpha * p, *ap), (q, *lq)) if alpha > 1.0
                                        else ((q, *lq), (alpha * p, *ap)))
    target = m_t ** (1.0 / q_t)
    secondary = m_s ** (1.0 / q_s)
    # powered form: p-th power of the displayed inequality
    lhs = gn ** p * D ** theta * secondary ** ((1.0 - theta) * p)
    rhs = target ** p
    err = _relative_error((lhs * theta, e1, D),
                          (lhs * (1.0 - theta) * p / q_s, e_s, m_s),
                          (rhs * p / q_t, e_t, m_t))
    extras = {
        "poincare_deficit": D,
        "theta": theta,
        "target_norm": target,
        "secondary_norm": secondary,
        "lhs_root": lhs ** (1.0 / p),
        "rhs_root": target,
    }
    return DeficitReport("gagliardo_nirenberg", params, lhs, rhs,
                         quadrature_error=err, label=v.label,
                         extras=extras)


def morrey_sobolev(v: RadialProfile, n: int, p: float,
                   constant_scale: float = 1.0) -> DeficitReport:
    """Sup-norm bound for p > n with the support-volume factor.  A profile
    without compact support gets an "outside-range" report: its infinite
    support volume makes the bound vacuous."""
    params = Params(n, p)
    if not p > n:
        raise DomainError(f"morrey_sobolev needs p > n, got n={n}, p={p}")
    if math.isinf(v.support_volume):
        return DeficitReport("morrey_sobolev", params, math.inf, v.sup_value ** p,
                             flags=frozenset({"outside-range"}), label=v.label)
    b = constant_scale * constants.morrey_constant(params)
    D, e1 = poincare_deficit(v, n, p)
    lhs = b ** p * v.support_volume ** ((p - n) / n) * D
    rhs = v.sup_value ** p
    extras = {
        "poincare_deficit": D,
        "support_volume": v.support_volume,
        "sup_value": v.sup_value,
        "lhs_root": lhs ** (1.0 / p) if lhs >= 0 else math.nan,
        "rhs_root": v.sup_value,
    }
    err = b ** p * v.support_volume ** ((p - n) / n) * e1
    return DeficitReport("morrey_sobolev", params, lhs, rhs,
                         quadrature_error=err, label=v.label, extras=extras)


def log_sobolev(v: RadialProfile, n: int, p: float,
                variant: str = "p",
                constant_scale: float = 1.0) -> DeficitReport:
    """Logarithmic inequality under unit L^p mass (the profile is
    renormalized internally and the factor recorded).

    variant selects the coefficient of the subtracted zeroth-order term:
    "p" uses ((n-1)/p)^p, matching every other deficit in the package;
    "n" uses ((n-1)/n)^p as printed in the source display.  Both are
    exposed because the printed display disagrees with the surrounding
    results; "n" subtracts less, hence is the weaker (safer) inequality.
    """
    params = Params(n, p)
    if not in_poincare_range(n, p):
        raise DomainError(
            f"log_sobolev needs n >= 4 and 2n/(n-1) <= p < n, got n={n}, p={p}")
    if variant not in ("p", "n"):
        raise DomainError(f"unknown variant {variant!r}")
    coeff = ((n - 1.0) / p) ** p if variant == "p" else ((n - 1.0) / n) ** p
    grad, (mass, e_m), (ent, e_e) = rearrangement.radial_integrals(
        v, n, p, qs=(p,), entropy=True)
    if mass <= 0.0:
        raise DomainError("log_sobolev needs a nonzero profile")
    D, e_d = _deficit(grad, (mass, e_m), coeff)
    L = constant_scale * constants.log_sobolev_constant(params)
    if D <= 0.0:
        raise EvaluationError(
            f"deficit term came out non-positive ({D!r}) for a nonzero profile")
    # renormalize algebraically: dividing v by mass^(1/p) divides both the
    # deficit and the entropy integrand's mass by `mass`
    lhs = (n / p) * math.log(L * D / mass)
    rhs = ent / mass - math.log(mass)
    # both sides' errors, each term's relative error times its weight
    err = (e_e / mass + abs(ent) * e_m / mass ** 2 + e_m / mass
           + (n / p) * (e_d / D + e_m / mass))
    extras = {
        "deficit_term": D,
        "normalization_mass": mass,
        "variant_coefficient": coeff,
    }
    return DeficitReport(f"log_sobolev[{variant}]", params, lhs, rhs,
                         quadrature_error=err, label=v.label, extras=extras)


def mugelli_talenti_sum(v: RadialProfile, n: int, p: float,
                        constant_scale: float = 1.0) -> DeficitReport:
    """Additive two-term bound: the powered zeroth-order and flat-Sobolev
    terms together stay below the n/p power of the gradient integral.
    Valid for all n >= 2 and 1 <= p < n; the p = 1 end requires a smooth
    profile (derivative closure)."""
    check_dimension(n)
    if not 1.0 <= p < n:
        raise DomainError(f"mugelli_talenti_sum needs 1 <= p < n, got n={n}, p={p}")
    if p == 1.0 and v.dfn is None:
        raise DomainError("the p = 1 endpoint is restricted to profiles "
                          "with derivative closures (smooth representatives)")
    params = Params(n, max(p, 1.0 + 1e-12)) if p == 1.0 else Params(n, p)
    pstar = n * p / (n - p)
    (grad, e1), (mass, e2), (crit, e3) = rearrangement.radial_integrals(
        v, n, p, qs=(p, pstar))
    S = constant_scale * constants._sobolev_constant_raw(n, p)
    zeroth = ((n - 1.0) / p) ** n * mass ** (n / p)
    sobolev = S ** n * crit ** ((n - p) / p)
    lhs = zeroth + sobolev
    rhs = grad ** (n / p)
    err = _relative_error((rhs * (n / p), e1, grad), (zeroth * (n / p), e2, mass),
                          (sobolev * ((n - p) / p), e3, crit))
    extras = {"lp_mass": mass, "critical_mass": crit, "grad_hyperbolic": grad}
    # orientation: here the sum is the smaller side, so deficit = rhs - lhs
    return DeficitReport("mugelli_talenti_sum", params, rhs, lhs,
                         quadrature_error=err, label=v.label, extras=extras)


def linfty_inequality(v: RadialProfile, n: int, p: float,
                      constant_scale: float = 1.0) -> DeficitReport:
    """Sup-norm gradient bound for p > n, powered form."""
    params = Params(n, p)
    if not p > n:
        raise DomainError(f"linfty_inequality needs p > n, got n={n}, p={p}")
    C = constant_scale * constants.linfty_constant(params)
    grad, e1 = rearrangement.grad_norm_hyperbolic(v, n, p)
    lhs = C ** p * grad
    rhs = v.sup_value ** p
    extras = {
        "grad_hyperbolic": grad,
        "sup_value": v.sup_value,
        "lhs_root": lhs ** (1.0 / p) if lhs >= 0 else math.nan,
        "rhs_root": v.sup_value,
    }
    return DeficitReport("linfty_inequality", params, lhs, rhs,
                         quadrature_error=C ** p * e1, label=v.label,
                         extras=extras)


def extremal_linfty_profile(n: int, p: float) -> RadialProfile:
    """The profile achieving equality in the sup-norm bound: the tail
    integral of the boundary-area weight to the power -p/(p-1), with its
    analytic derivative closure."""
    if not p > n:
        raise DomainError(f"extremal profile needs p > n, got n={n}, p={p}")
    grid = [0.0] + geomspace(1e-4, 1e5, 46)

    def fn(s):
        return geometry.isoperimetric_tail_integral(n, p, s)[0]

    def dfn(s):
        if s <= 0.0:
            return -math.inf
        return -geometry.isoperimetric_profile(n, s) ** (-p / (p - 1.0))

    vals = [fn(float(s)) for s in grid]
    return RadialProfile(grid, vals,
                         Tail("power", 1.0 / (p - 1.0)), fn=fn, dfn=dfn,
                         label=f"extremal-linfty-n{n}-p{p:g}")


def euclidean_rayleigh_ratio(v: RadialProfile, n: int, p: float) -> float:
    """Flat-space Rayleigh quotient: Euclidean gradient integral over the
    p-th power of the critical norm.  Equals the p-th power of the sharp
    flat Sobolev constant on the extremal bubble family."""
    if not 1.0 < p < n:
        raise DomainError(f"need 1 < p < n, got n={n}, p={p}")
    pstar = n * p / (n - p)
    (grad, _), (crit, _) = rearrangement.radial_integrals(
        v, n, p, qs=(pstar,), grads=("euclidean",))
    if crit <= 0.0:
        raise DomainError("zero profile has no Rayleigh ratio")
    return grad / crit ** ((n - p) / n)


class Inequality(NamedTuple):
    """One row of INEQUALITIES.  The evaluator is called as
    evaluator(v, n, p, alpha, constant_scale).  A sharpness row also maps
    its report to a constant-free ratio whose infimum is target(n, p)."""

    evaluator: Callable[..., DeficitReport]
    needs_alpha: bool = False
    constant_free: bool = False
    ratio: Optional[Callable[[DeficitReport], float]] = None
    target: Optional[Callable[[int, float], float]] = None


# Every inequality the CLI verifies and sweeps, by id.  The evaluators
# look their functions up in the module globals at call time, so a
# rebinding (a test double, a tracer) is seen by every caller.
INEQUALITIES = {
    "poincare_sobolev": Inequality(
        lambda v, n, p, alpha, scale:
        poincare_sobolev(v, n, p, constant_scale=scale),
        # the deficit over the flat-Sobolev power of the critical mass
        ratio=lambda rep: (rep.extras["poincare_deficit"] / rep.extras["critical_mass"]
                           ** ((rep.params.n - rep.params.p) / rep.params.n)),
        target=lambda n, p: constants.sobolev_constant(Params(n, p)) ** p),
    "key_comparison": Inequality(
        lambda v, n, p, alpha, scale:
        rearrangement.key_comparison(v, n, p),
        constant_free=True,
        ratio=lambda rep: rep.lhs / rep.rhs,
        target=lambda n, p: 1.0),
    "gagliardo_nirenberg": Inequality(
        lambda v, n, p, alpha, scale:
        gagliardo_nirenberg(v, n, p, alpha, constant_scale=scale),
        needs_alpha=True),
    "morrey_sobolev": Inequality(
        lambda v, n, p, alpha, scale:
        morrey_sobolev(v, n, p, constant_scale=scale)),
    "log_sobolev": Inequality(
        lambda v, n, p, alpha, scale:
        log_sobolev(v, n, p, constant_scale=scale)),
    "mugelli_talenti_sum": Inequality(
        lambda v, n, p, alpha, scale:
        mugelli_talenti_sum(v, n, p, constant_scale=scale)),
    "linfty": Inequality(
        lambda v, n, p, alpha, scale:
        linfty_inequality(v, n, p, constant_scale=scale)),
}


def evaluate(inequality_id: str, v: RadialProfile, n: int, p: float,
             alpha: Optional[float] = None,
             constant_scale: float = 1.0) -> DeficitReport:
    """Evaluate the inequality with the given id (a key of INEQUALITIES)
    on one profile.  An OverflowError on the way, or a report whose lhs,
    rhs or error is not finite and that is not flagged outside-range,
    raises OverflowDomainError."""
    row = INEQUALITIES.get(inequality_id)
    if row is None:
        raise DomainError(f"unknown inequality {inequality_id!r}")
    if not 0.0 < constant_scale < math.inf:
        raise DomainError(
            f"--constant-scale must be finite and > 0, got {constant_scale!r}")
    if row.constant_free and constant_scale != 1.0:
        raise DomainError(f"{inequality_id} is constant-free; "
                          "--constant-scale not supported")
    if row.needs_alpha and alpha is None:
        raise DomainError(f"{inequality_id} needs --alpha")
    try:
        report = row.evaluator(v, n, p, alpha, constant_scale)
    except OverflowError:
        finite = False
    else:
        finite = "outside-range" in report.flags or all(
            map(math.isfinite, (report.lhs, report.rhs, report.quadrature_error)))
    if not finite:
        raise OverflowDomainError(
            f"{inequality_id} of {v.label or 'a profile'} at n={n}, p={p!r}: "
            "a powered term overflows double precision")
    return report

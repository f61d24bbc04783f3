"""Every sharp Euclidean constant meets equality on its extremal.

The Gagliardo-Nirenberg, log-Sobolev and Morrey constants of
constants.py are checked against the package's own Euclidean gradient
and mass integrals of the profile that attains equality, each within
the bar those integrals carry, and the log-Sobolev and Morrey constants
also against those integrals in closed form: oracles that share no
formula with constants.py (ROADMAP item 17).
"""

import math

import mpmath as mp
import pytest

from hypineq import constants
from hypineq.constants import Params, unit_ball_volume
from hypineq.rearrangement import radial_integrals
from oracles import gaussian_extremal, gn_extremal, morrey_extremal

_POINTS = [(4, 8.0 / 3.0), (5, 3.0), (6, 4.2), (10, 7.5)]


@pytest.mark.parametrize("n, p", _POINTS)
def test_log_sobolev_equality_on_the_gaussian_extremal(n, p):
    # (n/p) log(L E / M) = Ent / M - log M at the sharp L; with pi^(+p/2)
    # in place of pi^(-p/2) the gap is n log pi, 4.58 at n = 4
    (E, e_E), (M, e_M), (ent, e_ent) = radial_integrals(
        gaussian_extremal(n, p), n, p, qs=(p,), grads=("euclidean",), entropy=True)
    L = constants.log_sobolev_constant(Params(n, p))
    gap = (n / p) * math.log(L * E / M) - (ent / M - math.log(M))
    # the log_sobolev report's bar, with the Euclidean gradient for the deficit
    bar = e_ent / M + abs(ent) * e_M / M ** 2 + e_M / M + (n / p) * (e_E / E + e_M / M)
    assert abs(gap) <= bar, (gap, bar)


@pytest.mark.parametrize("n, p", _POINTS)
def test_log_sobolev_constant_meets_equality_in_closed_form(n, p):
    # on exp(-r^k), k = p/(p-1): M = n sigma G(n/k) / (k p^(n/k)), and with
    # J = n sigma G(n/k + 1) / (k p^(n/k + 1)), E = k^p J and Ent = -p J
    with mp.workdps(40):
        nn, pp = mp.mpf(n), mp.mpf(p)
        k, ns = pp / (pp - 1), nn * mp.mpf(unit_ball_volume(n))
        M = ns * mp.gamma(nn / k) / (k * pp ** (nn / k))
        J = ns * mp.gamma(nn / k + 1) / (k * pp ** (nn / k + 1))
        L = mp.mpf(constants.log_sobolev_constant(Params(n, p)))
        gap = (nn / pp) * mp.log(L * k ** pp * J / M) - (-pp * J / M - mp.log(M))
    assert abs(gap) < 1e-14, gap


@pytest.mark.parametrize("alpha", [1.5, 0.6])
@pytest.mark.parametrize("n, p", _POINTS)
def test_gagliardo_nirenberg_equality_on_its_extremal(n, p, alpha):
    params = Params(n, p, alpha)
    theta, gn = constants.gn_theta(params), constants.gn_constant(params)
    q = alpha * (p - 1.0) + 1.0
    (E, e_E), ap, lq = radial_integrals(gn_extremal(n, p, alpha), n, p,
                                        qs=(alpha * p, q), grads=("euclidean",))
    # the verifier's orientation: the L^(alpha p) norm is the target for
    # alpha > 1, the L^q norm below
    (q_t, m_t, e_t), (q_s, m_s, e_s) = (((alpha * p, *ap), (q, *lq)) if alpha > 1.0
                                        else ((q, *lq), (alpha * p, *ap)))
    lhs = gn ** p * E ** theta * m_s ** ((1.0 - theta) * p / q_s)
    rhs = m_t ** (p / q_t)
    bar = lhs * (theta * e_E / E + (1.0 - theta) * p / q_s * e_s / m_s) \
        + rhs * p / q_t * e_t / m_t
    assert abs(lhs - rhs) <= bar, (lhs - rhs, bar)


@pytest.mark.parametrize("n, p", [(2, 4.0), (3, 5.0), (4, 6.0), (5, 9.5)])
def test_morrey_constant_meets_equality_in_closed_form(n, p):
    # the extremal's sup is c S^(1-e)/(1-e) and its Euclidean gradient
    # integral c^p A^p S^(1-e)/(1-e), A = n sigma^(1/n), c = A^(-p/(p-1)),
    # e = (n-1)p/(n(p-1))
    with mp.workdps(40):
        nn, pp, S = mp.mpf(n), mp.mpf(p), mp.mpf(7)
        A = nn * mp.mpf(unit_ball_volume(n)) ** (1 / nn)
        c, e = A ** (-pp / (pp - 1)), (nn - 1) * pp / (nn * (pp - 1))
        sup = c * S ** (1 - e) / (1 - e)
        E = (c * A) ** pp * S ** (1 - e) / (1 - e)
        b = mp.mpf(constants.morrey_constant(Params(n, p)))
        gap = b ** pp * S ** ((pp - nn) / nn) * E / sup ** pp - 1
    assert abs(gap) < 1e-14, gap


@pytest.mark.parametrize("n, p", [(2, 4.0), (3, 5.0), (4, 6.0), (5, 9.5)])
def test_morrey_equality_on_its_extremal(n, p):
    # the gradient integrand s^(-(n-1)p/(n(p-1))) is singular at s = 0: the
    # left edge's log sweep widens its panels as they thin, so its two
    # closing panels reach far enough that what lies beyond is below the bar
    # (at (3, 5) and (4, 6) the fixed-width sweep missed by 90 and 1.4e6 bars)
    support = 7.0
    v = morrey_extremal(n, p, support)
    ((E, e_E),) = radial_integrals(v, n, p, grads=("euclidean",))
    scale = constants.morrey_constant(Params(n, p)) ** p * support ** ((p - n) / n)
    lhs, rhs = scale * E, v.sup_value ** p
    assert abs(lhs - rhs) <= scale * e_E, (lhs - rhs, scale * e_E)

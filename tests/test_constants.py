import math

import mpmath as mp
import pytest

from hypineq import constants as C, geometry, rearrangement, verifier
from hypineq.constants import Params
from hypineq.corpus import tent_profile
from hypineq.errors import DomainError
from oracles import isoperimetric_integral_closed_form


def test_params_validation():
    with pytest.raises(DomainError):
        Params(1, 2.0)
    with pytest.raises(DomainError):
        Params(4, math.nextafter(1.0, 0.0))
    # p = 1 is mugelli_talenti_sum's endpoint, which its report records;
    # every constant checks its own range, which p = 1 lies outside
    assert Params(4, 1.0).p == 1.0
    for constant in (C.sobolev_constant, C.morrey_constant, C.linfty_constant,
                     C.log_sobolev_constant):
        with pytest.raises(DomainError):
            constant(Params(4, 1.0))
    with pytest.raises(DomainError, match="gn_constant needs 1 < p < n"):
        C.gn_constant(Params(4, 1.0, alpha=1.2))
    with pytest.raises(DomainError):
        Params(4, 2.0, alpha=1.0)
    with pytest.raises(DomainError):
        Params(4, 2.0, alpha=2.1)  # above n/(n-p) = 2
    with pytest.raises(DomainError):
        Params(4, 5.0, alpha=1.5)  # alpha needs p < n


def test_boundary_exponent():
    assert C.boundary_exponent(2) == 2.0
    assert C.boundary_exponent(3) == pytest.approx(3.0)
    assert C.boundary_exponent(5) == pytest.approx(2.5)
    assert C.in_comparison_range(2, 2.0)
    assert not C.in_comparison_range(3, 2.9)
    assert C.in_poincare_range(4, 8.0 / 3.0)
    assert not C.in_poincare_range(3, 3.0)  # needs n >= 4
    assert not C.in_poincare_range(4, 4.0)  # needs p < n


def test_gamma_against_mpmath():
    for x in (0.5, 1.0, 1.5, 2.0, 3.7, 10.25, 42.0, 120.5, 170.0):
        ref = float(mp.gamma(x))
        assert C.gamma(x) == pytest.approx(ref, rel=2e-13), x
    with pytest.raises(DomainError):
        C.gamma(0.0)
    with pytest.raises(DomainError):
        C.gamma(-3.0)
    with pytest.raises(DomainError):
        C.gamma(200.0)


def test_unit_ball_volume_oracle():
    with mp.workdps(40):
        for n in range(1, 9):
            ref = float(mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2 + 1))
            assert C.unit_ball_volume(n) == pytest.approx(ref, rel=1e-13)
    # spot values
    assert C.unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
    assert C.unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-13)


def test_sobolev_constant_oracle():
    # independent mpmath evaluation of the closed form
    with mp.workdps(40):
        for n, p in [(4, 8.0 / 3.0), (5, 2.5), (3, 2.0), (6, 3.3)]:
            nn, pp = mp.mpf(n), mp.mpf(p)
            sigma = mp.pi ** (nn / 2) / mp.gamma(nn / 2 + 1)
            ratio = mp.gamma(nn) / (mp.gamma(nn / pp)
                                    * mp.gamma(nn + 1 - nn / pp) * sigma)
            slope = (nn * (pp - 1) / (nn - pp)) ** (1 - 1 / pp)
            ref = float(nn / (slope * ratio ** (1 / nn)))
            assert C.sobolev_constant(Params(n, p)) == pytest.approx(ref, rel=1e-13)
    with pytest.raises(DomainError):
        C.sobolev_constant(Params(4, 5.0))


def test_sobolev_constant_large_n_oracle():
    # the Gamma ratio runs in log space: no overflow at n >= 171
    with mp.workdps(40):
        for n in (2, 3, 4, 10, 50, 170, 171, 180, 300):
            for p in (1.5, 1.0 + 0.6 * (n - 1)):
                nn, pp = mp.mpf(n), mp.mpf(p)
                sigma = mp.pi ** (nn / 2) / mp.gamma(nn / 2 + 1)
                ratio = mp.gamma(nn) / (mp.gamma(nn / pp)
                                        * mp.gamma(nn + 1 - nn / pp) * sigma)
                slope = (nn * (pp - 1) / (nn - pp)) ** (1 - 1 / pp)
                ref = float(nn / (slope * ratio ** (1 / nn)))
                got = C.sobolev_constant(Params(n, p))
                assert got == pytest.approx(ref, rel=1e-13), (n, p)


def test_gn_theta_branches():
    prm = Params(4, 2.0, alpha=2.0)
    th = C.gn_theta(prm)
    assert 0.0 < th <= 1.0
    prm2 = Params(4, 2.0, alpha=0.5)
    th2 = C.gn_theta(prm2)
    assert 0.0 < th2 <= 1.0
    with pytest.raises(DomainError):
        C.gn_theta(Params(4, 2.0))


def test_gn_degenerates_to_sobolev():
    # at the endpoint alpha = n/(n-p) the interpolation exponent is 1 and
    # the constant collapses to the reciprocal sharp Sobolev constant
    for n, p in [(4, 8.0 / 3.0), (5, 2.5), (6, 2.4)]:
        amax = n / (n - p)
        prm = Params(n, p, alpha=amax)
        assert C.gn_theta(prm) == pytest.approx(1.0, rel=1e-12)
        gn = C.gn_constant(prm)
        assert gn == pytest.approx(1.0 / C.sobolev_constant(Params(n, p)),
                                   rel=1e-9)


def _gn_oracle(n, p, a):
    # independent mpmath evaluation of the closed form, both branches
    with mp.workdps(40):
        nn, pp, aa = mp.mpf(n), mp.mpf(p), mp.mpf(a)
        q = aa * (pp - 1) + 1
        delta = nn * pp - (nn - pp) * q
        g = mp.gamma
        if a > 1.0:
            th = nn * (aa - 1) / (aa * (nn * pp - q * (nn - pp)))
            val = ((q - pp) / (pp * mp.sqrt(mp.pi))) ** th \
                * (pp * q / (nn * (q - pp))) ** (th / pp) \
                * (delta / (pp * q)) ** (1 / (aa * pp)) \
                * ((g(q * (pp - 1) / (q - pp)) * g(nn / 2 + 1))
                   / (g((pp - 1) / pp * delta / (q - pp))
                      * g(nn * (pp - 1) / pp + 1))) ** (th / nn)
        else:
            th = nn * (1 - aa) / (q * (nn - aa * (nn - pp)))
            val = ((pp - q) / (pp * mp.sqrt(mp.pi))) ** th \
                * (pp * q / (nn * (pp - q))) ** (th / pp) \
                * (pp * q / delta) ** ((1 - th) / (aa * pp)) \
                * ((g((pp - 1) / pp * delta / (pp - q) + 1) * g(nn / 2 + 1))
                   / (g(q * (pp - 1) / (pp - q) + 1)
                      * g(nn * (pp - 1) / pp + 1))) ** (th / nn)
        return float(val)


def test_gn_alpha_below_one_branch_runs():
    prm = Params(4, 2.0, alpha=0.5)
    val = C.gn_constant(prm)
    assert val > 0.0
    assert val == pytest.approx(_gn_oracle(4, 2.0, 0.5), rel=1e-13)


def test_gn_constant_oracle():
    for n, p, a in [(4, 2.0, 2.0), (4, 8.0 / 3.0, 1.7), (5, 2.5, 0.3),
                    (6, 3.3, 0.8), (7, 2.2, 1.4)]:
        assert C.gn_constant(Params(n, p, alpha=a)) == pytest.approx(
            _gn_oracle(n, p, a), rel=1e-13), (n, p, a)


def test_morrey_constant_oracle():
    with mp.workdps(40):
        for n, p in [(2, 4.0), (3, 5.0), (4, 6.0)]:
            nn, pp = mp.mpf(n), mp.mpf(p)
            sigma = mp.pi ** (nn / 2) / mp.gamma(nn / 2 + 1)
            ref = float(nn ** (-1 / pp) * sigma ** (-1 / nn)
                        * ((pp - 1) / (pp - nn)) ** ((pp - 1) / pp))
            assert C.morrey_constant(Params(n, p)) == pytest.approx(ref, rel=1e-13)
    with pytest.raises(DomainError):
        C.morrey_constant(Params(4, 3.0))


def test_linfty_constant_oracle():
    with mp.workdps(40):
        for n, p in [(2, 4.0), (3, 5.0), (4, 6.0), (5, 9.5)]:
            nn, pp = mp.mpf(n), mp.mpf(p)
            sigma = mp.pi ** (nn / 2) / mp.gamma(nn / 2 + 1)
            gratio = (mp.gamma((pp - nn) / (2 * (pp - 1)))
                      * mp.gamma((nn - 1) / (pp - 1))
                      / mp.gamma((pp + nn - 2) / (2 * (pp - 1))))
            ref = float((2 ** (nn - 1) * nn * sigma) ** (-1 / pp)
                        * gratio ** ((pp - 1) / pp))
            assert C.linfty_constant(Params(n, p)) == pytest.approx(ref, rel=1e-13)
    with pytest.raises(DomainError):
        C.linfty_constant(Params(4, 3.0))


def test_linfty_constant_consistent_with_integral():
    # C = I^((p-1)/p) / (n sigma_n) ties the sup-norm constant to the
    # closed-form weight integral
    for n, p in [(2, 4.0), (3, 5.0), (4, 6.0)]:
        I = isoperimetric_integral_closed_form(n, p)
        nsig = n * C.unit_ball_volume(n)
        assert C.linfty_constant(Params(n, p)) == pytest.approx(
            I ** ((p - 1.0) / p) / nsig, rel=1e-12)


def test_log_sobolev_constant_range_and_oracle():
    with pytest.raises(DomainError):
        C.log_sobolev_constant(Params(3, 2.0))
    with mp.workdps(40):
        n, p = 4, 8.0 / 3.0
        nn, pp = mp.mpf(n), mp.mpf(p)
        ref = float((pp / nn) * ((pp - 1) / mp.e) ** (pp - 1) * mp.pi ** (-pp / 2)
                    * (mp.gamma(nn / 2 + 1)
                       / mp.gamma(nn * (pp - 1) / pp + 1)) ** (pp / nn))
    assert C.log_sobolev_constant(Params(4, 8.0 / 3.0)) == pytest.approx(
        ref, rel=1e-13)


@pytest.mark.parametrize("n", [1, 3.0])
def test_every_entry_point_rejects_a_bad_dimension(n):
    v = tent_profile(1.0, 1.0)
    calls = (lambda: Params(n, 3.0), lambda: geometry.phi(n, 1.0),
             lambda: rearrangement.RadialFunction(n, ()),
             lambda: rearrangement.radial_integrals(v, n, 3.0),
             lambda: verifier.mugelli_talenti_sum(v, n, 1.5))
    for call in calls:
        with pytest.raises(DomainError, match=r"dimension must be an integer >= 2, got"):
            call()

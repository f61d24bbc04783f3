import functools
import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hypineq import geometry as G
from hypineq import quadrature
from hypineq.constants import boundary_exponent, unit_ball_volume
from hypineq.errors import DomainError
from oracles import (isoperimetric_integral_closed_form, phi_quadrature, radial_margin,
                     radial_margin_asymptotic)


def _phi_mp(n, t, dps=40):
    with mp.workdps(dps):
        return mp.quad(lambda u: n * mp.sinh(u) ** (n - 1), [0, mp.mpf(t)])


def _phi_exp_sum_mp(n, t, dps=None):
    # exponential-sum closed form at a precision that absorbs its
    # cancellation, about n digits per decade of t below 1
    if dps is None:
        dps = 40 + int(n * max(0.0, -math.log10(t)))
    with mp.workdps(dps):
        tt = mp.mpf(t)
        acc = mp.mpf(0)
        for k in range(n):
            m = n - 1 - 2 * k
            c = (-1) ** k * mp.binomial(n - 1, k)
            acc += c * tt if m == 0 else c * mp.expm1(m * tt) / m
        return n * mp.mpf(2) ** (1 - n) * acc


def _log_phi(n, t):
    """log phi(n, t), stable for arbitrarily large t."""
    return G._phi_excess(n, t)[0] + (n - 1) * t


class _Counter:
    """Wraps a function and counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


def test_volume_map_n2_closed_form():
    for t in np.geomspace(1e-3, 25.0, 30):
        ref = math.expm1(t) + math.expm1(-t)  # 2(cosh t - 1), cancellation-free
        assert G.phi(2, float(t)) == pytest.approx(ref, rel=1e-12)


def test_volume_map_n3_closed_form():
    for t in np.geomspace(1e-3, 25.0, 30):
        with mp.workdps(40):
            tt = mp.mpf(float(t))
            ref = float(mp.mpf(3) / 8 * (mp.exp(2 * tt) - mp.exp(-2 * tt) - 4 * tt))
        assert G.phi(3, float(t)) == pytest.approx(ref, rel=1e-12)


def test_volume_map_matches_quadrature_general_n():
    for n in (4, 5, 6, 7):
        for t in (0.01, 0.3, 1.0, 4.0, 12.0):
            ref = float(_phi_mp(n, t))
            assert G.phi(n, t) == pytest.approx(ref, rel=1e-12), (n, t)
            qv = phi_quadrature(n, t)
            assert qv == pytest.approx(ref, rel=1e-10)


def test_small_radius_series_against_exponential_sum():
    # both sides of the series switch, which moves out with n above n = 6
    for n in range(2, 21):
        for t in np.geomspace(1e-8, 3.0, 40):
            ref = _phi_exp_sum_mp(n, float(t))
            got = G.phi(n, float(t))
            bound = 1e-14 if t < 0.5 else 5e-14
            assert abs(got - ref) <= bound * ref, (n, t)


def test_volume_map_continuous_at_series_switch():
    for n in range(2, 21):
        top = G._series_top(n)
        below = math.nextafter(top, 0.0)
        assert G.phi(n, below) == pytest.approx(G.phi(n, top), rel=1e-13), n
        assert _log_phi(n, below) == pytest.approx(
            _log_phi(n, top), rel=1e-13), n


def test_series_switch_fixed_up_to_n6():
    # the switch moves only where the exponential sum cancels too much
    assert all(G._series_top(n) == G._SMALL_T for n in range(2, 7))
    tops = [G._series_top(n) for n in range(6, 21)]
    assert tops == sorted(tops) and tops[-1] < 1.5


def test_small_radius_volume_map_runs_no_panels(monkeypatch):
    panels = _Counter(quadrature._gk15)
    monkeypatch.setattr(quadrature, "_gk15", panels)
    for n in range(2, 13):
        for t in np.geomspace(1e-6, 0.49, 20):
            G.phi(n, float(t))
            _log_phi(n, float(t))
        G.phi_inv(n, 1e-3)
    assert panels.calls == 0


def test_inverse_volume_map_newton_start(monkeypatch):
    # Newton starts from a proven bound on the root, so a root costs a
    # handful of volume-map evaluations over 60 decades of s
    phi = _Counter(G.phi)
    monkeypatch.setattr(G, "phi", phi)
    for n in range(3, 13):
        phi.calls = 0
        for k in range(-300, 301):
            G.phi_inv(n, 10.0 ** (k / 10))
        assert phi.calls / 601 <= 8.0, (n, phi.calls / 601)


def test_inverse_volume_map_phi_calls(monkeypatch):
    # Newton on log phi from t_large takes one phi a step; the bracketed
    # root find on phi it replaces took 2,101 here.  The 270 volumes below
    # phi(n, _SMALL_T) take the series and call no phi
    phi = _Counter(G.phi)
    monkeypatch.setattr(G, "phi", phi)
    for n in range(3, 7):
        for k in range(-80, 80):
            G.phi_inv(n, 10.0 ** (k / 10))
    assert phi.calls == 1172


def _phi_series_mp(n, terms=60):
    # the coefficients of _phi_series, exact integers over factorials
    m = n - 1
    return [mp.mpf(n * sum((-1) ** j * math.comb(m, j) * (m - 2 * j) ** (m + 2 * k)
                           for j in range(n))) / (2 ** m * mp.factorial(m + 2 * k + 1))
            for k in range(terms)]


def _phi_inv_mp(n, x, b):
    # the root of t P(t^2)^(1/n) = x^(1/n), phi = t^n P(t^2), for t < 0.6
    w = mp.mpf(x) ** (mp.mpf(1) / n)
    return mp.findroot(lambda t: t * mp.polyval(b[::-1], t * t) ** (mp.mpf(1) / n) - w, w)


def test_inverse_series_against_an_mpmath_root(monkeypatch):
    # below x_top = phi(n, _SMALL_T) phi_inv sums the reversed series: within
    # 4 ulps of the exact root from the smallest subnormal up, with no phi
    # and no root find; just above x_top Newton on log phi holds 3e-14
    phi = _Counter(G.phi)
    monkeypatch.setattr(G, "phi", phi)
    worst = 0.0
    with mp.workdps(50):
        for n in range(3, 13):
            b = _phi_series_mp(n)
            x_top = G._inv_series(n)[0]
            below = [math.ulp(0.0), 1e-300,
                     *(float(x) for x in np.geomspace(1e-250, x_top, 30)[:-1]),
                     *(x_top * (1.0 - 0.5 ** k) for k in (4, 12, 30)),
                     math.nextafter(x_top, 0.0)]
            calls = phi.calls
            for x in below:
                ref = float(_phi_inv_mp(n, x, b))
                miss = abs(G.phi_inv(n, x) - ref) / math.ulp(ref)
                assert miss <= 4.0, (n, x, miss)
                worst = max(worst, miss)
            assert phi.calls == calls, n
            for x in (x_top, x_top * (1.0 + 1e-9), x_top * 1.5):
                ref = _phi_inv_mp(n, x, b)
                assert abs(G.phi_inv(n, x) - ref) <= 3e-14 * ref, (n, x)
    print(f"worst series miss {worst:.0f} ulps")


def test_inverse_series_continuous_at_its_top():
    # the series just below x_top meets Newton on log phi at x_top within
    # 1e-13
    for n in range(3, 21):
        x_top = G._inv_series(n)[0]
        below = G.phi_inv(n, math.nextafter(x_top, 0.0))
        assert below == pytest.approx(G.phi_inv(n, x_top), rel=1e-13), n
        assert G.phi(n, below) == pytest.approx(x_top, rel=1e-13), n


def test_phi_inv_holds_the_conditioning_of_phi():
    # phi(n, phi_inv(n, s)) matches s within 4 (n - 1) t ulps, the
    # conditioning t phi'/phi ~ (n - 1) t of phi at t, from t = 1 to
    # s = 1e300 and at phi(3, t) just below phi's overflow edge; the
    # bracketed root find on phi, which stopped within 1e-13 of s, missed
    # by up to 22 times that
    worst = 0.0
    for n in range(3, 7):
        for s in np.geomspace(G.phi(n, 1.0), 1e300, 2000):
            s = float(s)
            t = G.phi_inv(n, s)
            miss = abs(math.exp(G.log_phi(n, t) - math.log(s)) - 1.0) * s / math.ulp(s)
            assert miss <= 4.0 * (n - 1) * t, (n, s, miss)
            worst = max(worst, miss / ((n - 1) * t))
    assert G.phi(3, G.phi_inv(3, 3.8e303)) == pytest.approx(3.8e303, rel=1e-14)
    print(f"worst miss {worst:.2f} (n - 1) t ulps")


def test_log_phi_matches_phi():
    for n in (2, 4, 6):
        for t in (0.01, 1.0, 20.0):
            assert _log_phi(n, t) == pytest.approx(
                math.log(G.phi(n, t)), rel=1e-12)
    # beyond double overflow the log form keeps going
    big = _log_phi(5, 300.0)
    assert big == pytest.approx((5 - 1) * 300.0 + math.log(5.0 / 4.0)
                                + (1 - 5) * math.log(2.0), rel=1e-10)


def test_inverse_roundtrip():
    for n in (2, 3, 5, 7, 12):
        for s in np.geomspace(1e-30, 1e30, 61):
            t = G.phi_inv(n, float(s))
            assert G.phi(n, t) == pytest.approx(float(s), rel=1e-11), (n, s)
    assert G.phi_inv(4, 0.0) == 0.0


def test_log_sinh():
    for t in (1e-8, 0.5, 5.0, 400.0):
        with mp.workdps(30):
            ref = float(mp.log(mp.sinh(t)))
        assert G.log_sinh(t) == pytest.approx(ref, rel=1e-13)


def test_kernel_gap_nonnegative_and_growing():
    q = 8.0 / 3.0 * 3
    vals = [G.sinh_phi_inv(4, s) ** q - s ** (q / 4) for s in (0.1, 1.0, 10.0, 100.0)]
    assert all(v >= 0.0 for v in vals)
    assert vals == sorted(vals)


def test_margin_zero_at_n2_p2():
    for t in (0.1, 1.0, 5.0, 20.0):
        assert abs(G.radial_margin_scaled(2, 2.0, t)) < 1e-12


def test_scaled_margin_consistent_with_raw():
    for n, p in [(4, 8.0 / 3.0), (3, 3.0), (5, 2.6)]:
        for t in (0.3, 1.0, 3.0, 8.0):
            raw = radial_margin(n, p, t)
            scale = 1.0 + G.phi(n, t) ** p
            assert G.radial_margin_scaled(n, p, t) == pytest.approx(
                raw / scale, rel=1e-10)


def test_scaled_margin_precise_path_agrees():
    for n, p, t in [(4, 8.0 / 3.0, 6.0), (5, 2.5, 15.0), (3, 3.0, 10.0)]:
        fast = G.radial_margin_scaled(n, p, t)
        slow = G.radial_margin_scaled(n, p, t, precise=True)
        assert fast == pytest.approx(slow, rel=1e-9, abs=1e-14)


def test_scaled_margin_oracle():
    # at any radius past the series switch the scaled double path agrees
    # with mpmath to ~1e-14 absolute (it was 2.9e-13 at n = 12, t = 39)
    for n in range(2, 13):
        for p in (boundary_exponent(n) - 0.3, boundary_exponent(n),
                  boundary_exponent(n) + 0.7):
            for t in (0.5, 1.7, 6.0, 21.0, 40.0):
                fast = G.radial_margin_scaled(n, p, t)
                slow = G.radial_margin_scaled(n, p, t, precise=True)
                assert abs(fast - slow) <= 1e-13, (n, p, t, fast, slow)


def test_scaled_margin_keeps_its_size_at_large_radius():
    # sinh^q and ((n-1)/n)^p phi^p over e^(qt) both tend to 2^-q; subtracted
    # as doubles they left a residue of -3.7e-16 at n = 4, p = 3 for every
    # t >= 20, where mpmath gives +3.2e-17 at t = 20 and +1.4e-34 at t = 40
    for n, p in [(4, 3.0), (5, 2.5), (3, boundary_exponent(3))]:
        for t in (20.0, 40.0, 100.0, 300.0):
            fast = G.radial_margin_scaled(n, p, t)
            slow = G.radial_margin_scaled(n, p, t, precise=True)
            assert abs(fast - slow) <= 1e-12 * slow, (n, p, t, fast, slow)


def test_margin_nonnegative_at_boundary():
    for n in (3, 4, 5, 6):
        p = boundary_exponent(n)
        for t in np.geomspace(1e-3, 25.0, 40):
            assert G.radial_margin_scaled(n, p, float(t)) >= -1e-12, (n, t)


def test_asymptotic_form_matches_margin():
    # beyond the crossover the closed asymptotic form tracks the precise
    # margin to a fraction of a percent
    for n, p, t in [(4, 2.5, 35.0), (5, 2.4, 30.0), (6, 2.2, 30.0)]:
        exact = G.radial_margin_scaled(n, p, t, precise=True)
        scale_log = p * _log_phi(n, t)
        asym = radial_margin_asymptotic(n, p, t)
        ratio = asym / (exact * math.exp(scale_log))
        assert ratio == pytest.approx(1.0, rel=5e-3), (n, p, ratio)


def test_asymptotic_form_matches_margin_at_n3():
    # n = 3 has its own leading term, with a 1/t in the bracket
    for p, t in [(2.5, 40.0), (2.78, 100.0)]:
        exact = G.radial_margin_scaled(3, p, t, precise=True)
        asym = radial_margin_asymptotic(3, p, t)
        ratio = asym / (exact * math.exp(p * _log_phi(3, t)))
        assert ratio == pytest.approx(1.0, rel=1e-5), (p, ratio)
    t0 = G.violation_onset(3, 2.78)
    assert radial_margin_asymptotic(3, 2.78, 0.99 * t0) > 0.0
    assert radial_margin_asymptotic(3, 2.78, 1.01 * t0) < 0.0


def test_violation_onset_brackets_sign_change():
    for n, p in [(4, 2.5), (5, 2.4), (6, 2.3)]:
        t0 = G.violation_onset(n, p)
        before = G.radial_margin_scaled(n, p, 0.8 * t0, precise=True)
        after = G.radial_margin_scaled(n, p, 1.5 * t0, precise=True)
        assert before > 0.0 > after, (n, p, t0)
    with pytest.raises(DomainError):
        G.violation_onset(4, 3.0)
    with pytest.raises(DomainError):
        G.violation_onset(2, 1.5)


def test_slope_factor_positive_above_boundary():
    for n in (3, 4, 6):
        p = boundary_exponent(n) + 0.3
        for t in (0.2, 1.0, 5.0, 15.0):
            assert G.margin_slope_factor(n, p, t) > 0.0


def _kernels_mp(n, p, t, dps):
    """(scaled margin, slope factor over sinh^(q-n) cosh) straight from
    their definitions, at dps digits plus the n log10(1/t) the
    exponential sum loses below t = 1."""
    with mp.workdps(dps + int(n * max(0.0, -math.log10(t)))):
        tt, pp = mp.mpf(t), mp.mpf(p)
        qq = pp * (n - 1)
        ph = _phi_exp_sum_mp(n, t, mp.mp.dps)
        c = (mp.mpf(n - 1) / n) ** pp
        margin = (mp.sinh(tt) ** qq - ph ** (qq / n) - c * ph ** pp) / (1 + ph ** pp)
        lead = mp.sinh(tt) ** (qq - n) * mp.cosh(tt)
        slope = 1 - (ph ** (qq / n - 1) + c * ph ** (pp - 1)) / lead
        return margin, slope


def test_slope_factor_oracle():
    # the scaled slope factor stays of order one and accurate to the
    # largest radius (n-1) t = 900, far past phi's double range
    for n in range(3, 13):
        for p in (boundary_exponent(n), boundary_exponent(n) + 0.7):
            for t in np.geomspace(1e-4, 900.0 / (n - 1), 7):
                ref = float(_kernels_mp(n, p, float(t), 60)[1])
                got = G.margin_slope_factor(n, p, float(t))
                assert abs(got - ref) <= 1e-11, (n, p, t, got, ref)


@pytest.mark.parametrize("n", [10, 12])
def test_precise_kernels_at_small_radius(n):
    # the exponential sum in the mpmath path cancels like t^n here
    for p in (boundary_exponent(n), boundary_exponent(n) + 0.5):
        for t in (1e-4, 1e-3):
            margin, slope = _kernels_mp(n, p, t, 200)
            for got, ref in ((G.radial_margin_scaled(n, p, t, precise=True), margin),
                             (G.margin_slope_factor(n, p, t, precise=True), slope)):
                assert ref > 0.0 and got > 0.0, (n, p, t, got)
                assert abs(got / float(ref) - 1.0) <= 1e-10, (n, p, t, got)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 12), x=st.floats(690.0, 710.0),
       dp=st.floats(-1e-9, 1e-9))
def test_kernels_continuous_where_phi_overflows(n, x, dp):
    # (n-1) t = 700 is where phi leaves double range; the scaled kernels
    # do not notice it
    p = boundary_exponent(n) + dp
    t = x / (n - 1)
    for kernel in (G.radial_margin_scaled, G.margin_slope_factor):
        here = kernel(n, p, t)
        assert math.isfinite(here)
        for step in (1e-6, -1e-6):
            assert abs(kernel(n, p, t * (1.0 + step)) - here) <= 1e-9


def test_sinh_phi_inv_roundtrip():
    for n in (2, 4):
        for s in (0.5, 3.0, 50.0):
            t = G.phi_inv(n, s)
            assert G.sinh_phi_inv(n, s) == pytest.approx(math.sinh(t), rel=1e-11)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 20), e=st.floats(-300.0, 300.0))
@example(n=2, e=200.0)
@example(n=5, e=300.0)
@example(n=20, e=300.0)
def test_phi_inv_round_trip(n, e):
    # phi_inv inverts phi for every double s, past phi's overflow edge
    # (n - 1) t = 700 too, where log_phi stands in for phi
    s = 10.0 ** e
    t = G.phi_inv(n, s)
    assert G.log_phi(n, t) == pytest.approx(math.log(s), rel=1e-14, abs=1e-13)
    if (n - 1) * t <= 700.0:
        assert G.phi(n, t) == pytest.approx(s, rel=1e-12)
    assert G.sinh_phi_inv(n, s) == pytest.approx(math.sinh(t), rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 6, 12])
def test_log_phi_round_trips_past_the_overflow_edge(n):
    # log_phi is log phi below phi's overflow edge, n log t + log P(t^2)
    # where phi is subnormal, and phi_inv_log inverts it at every radius
    for t in (1e-200, 1e-120, 1e-3, 0.4, 0.6, 2.0, 699.0 / (n - 1), 701.0 / (n - 1),
              1e3, 1e5):
        x = G.log_phi(n, t)
        assert G.phi_inv_log(n, x) == pytest.approx(t, rel=4e-15), (n, t)
        if (n - 1) * t <= 700.0 and G.phi(n, t) >= sys.float_info.min:
            assert x == math.log(G.phi(n, t))
    assert G.log_phi(n, 0.0) == -math.inf and G.phi_inv_log(n, -math.inf) == 0.0


def test_isoperimetric_tail_integral_oracle():
    # independent radial-coordinate evaluation in mpmath
    for n, p in [(2, 4.0), (3, 5.0)]:
        a = (n - 1.0) / (p - 1.0)
        with mp.workdps(30):
            ref = float(mp.quad(lambda t: mp.sinh(t) ** (-a), [0, 1, mp.inf]))
        sigma = unit_ball_volume(n)
        val, err = G.isoperimetric_tail_integral(n, p)
        assert val == pytest.approx(n * sigma * ref, rel=1e-9), (n, p)
    # just above p = n the substitution's u^m underflows near u = 0, where
    # the integrand used to raise ZeroDivisionError
    for n, p in [(3, 3.05), (3, 3.01), (3, 3.001), (4, 4.1)]:
        val, err = G.isoperimetric_tail_integral(n, p)
        closed = isoperimetric_integral_closed_form(n, p)
        assert val == pytest.approx(closed, rel=1e-12), (n, p)
        assert abs(val - closed) <= err, (n, p)


@functools.lru_cache(maxsize=None)
def _tail_tau_mp(n, r):
    """The radius of volume r at 50 digits: mpmath's root of the
    exponential sum, started from phi_inv."""
    with mp.workdps(50):
        s = mp.mpf(r) / (mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2 + 1))
        t0 = mp.mpf(G.phi_inv(n, r / unit_ball_volume(n)))
        return mp.findroot(lambda t: _phi_exp_sum_mp(n, t) - s, t0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 12])
def test_isoperimetric_tail_integral_matches_incomplete_beta(n):
    # n sigma 2^(a-1) B(e^(-2 tau); a/2, 1-a) at 40 digits, tau the exact
    # radius of volume r: each value within its own error and 1e-11
    # relative, from p - n = 1e-3, where the complement of the complete
    # beta cancels, to p = 10n, where sinh(t)^-a is nearly flat
    for p in [n + d for d in (1e-3, 0.05, 0.3, 1.0, float(n), 9.0 * n)]:
        for r in [0.0] + [10.0 ** (k / 2) for k in range(-10, 11)]:
            val, err = G.isoperimetric_tail_integral(n, p, r)
            with mp.workdps(40):
                a = mp.mpf(n - 1) / (mp.mpf(p) - 1)
                x = mp.exp(-2 * _tail_tau_mp(n, r)) if r else 1
                sigma = mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2 + 1)
                ref = float(n * sigma * 2 ** (a - 1) * mp.betainc(a / 2, 1 - a, 0, x))
            assert abs(val - ref) <= err, (n, p, r)
            assert val == pytest.approx(ref, rel=1e-11), (n, p, r)


def test_isoperimetric_tail_integral_shifted():
    # integral over (r, inf) drops as r grows and stays positive
    v0, _ = G.isoperimetric_tail_integral(2, 4.0)
    v1, _ = G.isoperimetric_tail_integral(2, 4.0, r=1.0)
    assert 0.0 < v1 < v0


def test_negative_radius_rejected():
    with pytest.raises(DomainError):
        G.phi(3, -1.0)
    with pytest.raises(DomainError):
        G.radial_margin_scaled(4, 3.0, -0.5)


def _log_phi_mp(n, t):
    """log phi(n, t) = log(n t^n integral_0^1 v^(n-1) (sinh(tv)/(tv))^(n-1) dv),
    at 40 digits."""
    with mp.workdps(40):
        tt = mp.mpf(t)
        inner = mp.quad(lambda v: v ** (n - 1) * (mp.sinh(tt * v) / (tt * v)) ** (n - 1)
                        if v else mp.mpf(0), [0, 1])
        return float(mp.log(n) + n * mp.log(tt) + mp.log(inner))


@pytest.mark.parametrize("n, t", [(30, 1e-11), (30, 0.3), (50, 5e-7), (50, 0.3),
                                  (100, 5e-4), (100, 1e-4), (200, 0.02), (200, 0.3)])
def test_log_phi_on_the_series_against_mpmath(n, t):
    # where t^n P(t^2) is no normal double, log_phi and lambda(t) take
    # n log t + log P(t^2): n log t alone was off by 1.9e-12 relative in
    # phi at (50, 5e-7), 4.0e-6 at (100, 5e-4) and 1.3% at (200, 0.02),
    # and lambda(t) took the log of a phi that underflowed to 0
    ref = _log_phi_mp(n, t)
    for got in (G.log_phi(n, t), G._phi_excess(n, t)[0] + (n - 1) * t):
        assert abs(got - ref) <= 4 * sys.float_info.epsilon * abs(ref), (got, ref)
    if G.phi(n, t) >= sys.float_info.min:
        assert G.log_phi(n, t) == math.log(G.phi(n, t))

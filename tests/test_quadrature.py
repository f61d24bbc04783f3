import math

import pytest
from hypothesis import given, settings, strategies as st

from hypineq.errors import BracketError, ConvergenceError, DomainError, EvaluationError
from hypineq.quadrature import (
    QuadratureConfig,
    find_root_increasing,
    integrate,
    integrate_with_breakpoints,
)


def test_polynomial_exact():
    val, err = integrate(lambda x: 3.0 * x * x, 0.0, 2.0)
    assert val == pytest.approx(8.0, rel=1e-14)
    assert abs(val - 8.0) <= max(err, 1e-13)


def test_sqrt_singularity_at_zero():
    # integrable singularity at 0 absorbed by the semi-infinite substitution
    val, _ = integrate(lambda x: math.exp(-x) / math.sqrt(x), 0.0, math.inf)
    assert val == pytest.approx(math.sqrt(math.pi), rel=1e-9)


def test_semi_infinite_exponential():
    val, _ = integrate(lambda x: math.exp(-x), 0.0, math.inf)
    assert val == pytest.approx(1.0, rel=1e-11)
    val, _ = integrate(lambda x: x * x * math.exp(-x), 0.0, math.inf)
    assert val == pytest.approx(2.0, rel=1e-11)


def test_semi_infinite_shifted_origin():
    val, _ = integrate(lambda x: math.exp(-x), 3.0, math.inf)
    assert val == pytest.approx(math.exp(-3.0), rel=1e-11)


def test_bad_interval_rejected():
    with pytest.raises(DomainError):
        integrate(lambda x: x, 2.0, 1.0)
    with pytest.raises(DomainError):
        QuadratureConfig(rel_tol=-1.0)


def test_non_finite_integrand_is_evaluation_error():
    # a NaN on the first panel, and one that only a refined panel samples
    # (the first panel's nodes all lie above 4e-3)
    for f in (lambda x: math.nan,
              lambda x: math.nan if x < 1e-3 else math.sqrt(x)):
        with pytest.raises(EvaluationError, match="non-finite"):
            integrate(f, 0.0, 1.0)


def test_degenerate_interval_is_zero():
    assert integrate(lambda x: x, 1.0, 1.0) == (0.0, 0.0)


def test_breakpoints_capture_narrow_spike():
    # a bump of width 1e-10 near 1e-9 inside [0, 1]: global adaptive
    # subdivision has no reason to sample there, forcing the node does
    center, width = 1e-9, 1e-10

    def spike(x):
        z = (x - center) / width
        return math.exp(-z * z)

    exact = math.sqrt(math.pi) * width  # erf window is fully inside
    points = [center + k * width for k in range(-8, 9)]
    val, err = integrate_with_breakpoints(spike, 0.0, 1.0, points)
    assert val == pytest.approx(exact, rel=1e-8)


def test_slow_power_tail_from_large_left_endpoint():
    # integrand ~ x^-1.6 starting at 1e6: in the substituted variable the
    # panels first rise, so the early-stop rule must wait for the decay
    val, _ = integrate(lambda x: x ** -1.6, 1e6, math.inf)
    assert val == pytest.approx(1e6 ** -0.6 / 0.6, rel=1e-8)


def test_breakpoints_left_edge_singularity():
    # first segment [0, 0.5] carries an integrable x^-1/2 singularity
    val, _ = integrate_with_breakpoints(lambda x: 1.0 / math.sqrt(x),
                                        0.0, 1.0, [0.5])
    assert val == pytest.approx(2.0, rel=1e-9)


def test_breakpoints_outside_interval_ignored():
    val, _ = integrate_with_breakpoints(lambda x: x, 0.0, 1.0, [-3.0, 7.0])
    assert val == pytest.approx(0.5, rel=1e-13)


def test_breakpoints_with_infinite_tail():
    val, _ = integrate_with_breakpoints(lambda x: math.exp(-x), 0.0, math.inf,
                                        [0.5, 2.0])
    assert val == pytest.approx(1.0, rel=1e-10)


def test_root_cubic():
    t = find_root_increasing(lambda x: x ** 3, 27.0, (0.0, 10.0))
    assert t == pytest.approx(3.0, rel=1e-12)


def test_root_zero_target():
    t = find_root_increasing(lambda x: x ** 3, 0.0, (-1.0, 1.0))
    assert abs(t) < 1e-10


def test_root_tiny_target_stays_target_relative():
    # the stopping rule must scale with the target, not with max(target, 1)
    t = find_root_increasing(lambda x: x ** 3, 1e-24, (0.0, 1.0))
    assert t == pytest.approx(1e-8, rel=1e-9)


def test_root_bad_bracket():
    with pytest.raises(BracketError):
        find_root_increasing(lambda x: x, 5.0, (0.0, 1.0))


def test_root_unconverged_raises():
    # two iterations cannot reach 1e-13; the last iterate rides on the error
    with pytest.raises(ConvergenceError) as info:
        find_root_increasing(lambda x: x ** 3, 27.0, (0.0, 10.0), max_iter=2)
    assert 0.0 < info.value.partial < 10.0


def test_root_starting_point():
    calls = []

    def f(x):
        calls.append(x)
        return x ** 3

    df = lambda x: 3.0 * x * x
    t = find_root_increasing(f, 27.0, (0.0, 10.0), df=df, x0=3.01)
    assert t == pytest.approx(3.0, rel=1e-12)
    assert calls[2] == 3.01  # after the two bracket ends
    seeded = len(calls)
    calls.clear()
    # a starting point outside the bracket falls back to the midpoint
    find_root_increasing(f, 27.0, (0.0, 10.0), df=df, x0=11.0)
    assert calls[2] == 5.0
    assert seeded < len(calls)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=0.1, max_value=3.0))
def test_root_roundtrip_random_monotone(shift, slope):
    f = lambda x: slope * (x - shift) + 0.05 * (x - shift) ** 3
    target = 1.3
    t = find_root_increasing(f, target, (shift - 50.0, shift + 50.0))
    assert f(t) == pytest.approx(target, abs=1e-9)

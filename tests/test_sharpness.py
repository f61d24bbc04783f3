import math
from typing import Sequence

import mpmath as mp
import pytest

from hypineq import constants, verifier
from hypineq.constants import Params
from hypineq.corpus import standard_corpus
from hypineq.errors import DomainError
from hypineq.rearrangement import RadialProfile, Tail, lp_integral, radial_integrals
from hypineq.sharpness import (
    extrapolate,
    minimize_ratio,
    ratio_function,
    truncated_bubble,
    untruncated_bubble,
)

N, P = 4, 8.0 / 3.0


def non_attainment_scan(inequality_id: str, n: int, p: float,
                        corpus: Sequence[RadialProfile]) -> dict:
    """Strict positivity of the deficit on every nonzero corpus profile.

    Returns a summary with the minimum margin; a margin below ten times
    its quadrature error marks the profile as undecided rather than
    claiming strictness.
    """
    entries = []
    undecided = []
    for v in corpus:
        rep = verifier.evaluate(inequality_id, v, n, p)
        entries.append((v.label, rep.deficit, rep.quadrature_error))
        if not rep.deficit > 10.0 * rep.quadrature_error:
            undecided.append(v.label)
    min_label, min_deficit, _ = min(entries, key=lambda e: e[1])
    return {
        "inequality_id": inequality_id,
        "n": n,
        "p": p,
        "profiles": len(entries),
        "min_margin": min_deficit,
        "min_margin_label": min_label,
        "strictly_positive": not undecided,
        "undecided": undecided,
    }


def test_bubble_validation():
    with pytest.raises(DomainError):
        untruncated_bubble(4, 5.0, 0.1)
    with pytest.raises(DomainError):
        untruncated_bubble(4, 2.0, -1.0)
    with pytest.raises(DomainError):
        truncated_bubble(4, 2.0, 0.1, 0.0)


def test_truncated_bubble_is_compact_and_c1():
    v = truncated_bubble(N, P, 0.1, 2.0)
    assert v.tail.kind == "compact"
    assert v(2.0) == 0.0
    assert v(2.5) == 0.0
    # the cutoff is flat on the inner half of the support
    assert v(0.5) == pytest.approx(untruncated_bubble(N, P, 0.1)(0.5), rel=1e-12)


def test_ratio_above_target_on_family():
    ratio, target = ratio_function("poincare_sobolev", N, P)
    for lam, T in [(1.0, 1.0), (0.1, 1.0), (0.01, 3.0)]:
        assert ratio(truncated_bubble(N, P, lam, T))[0] > target


def test_ratio_function_unknown_id():
    with pytest.raises(DomainError):
        ratio_function("nope", N, P)


def test_only_ratio_rows_have_a_ratio():
    rows = {key for key, row in verifier.INEQUALITIES.items()
            if row.ratio is not None}
    assert rows == {"poincare_sobolev", "key_comparison"}
    for key, row in verifier.INEQUALITIES.items():
        assert (row.target is None) == (row.ratio is None), key
    with pytest.raises(DomainError, match="no ratio"):
        ratio_function("linfty", 4, 5.0)


@pytest.mark.parametrize("n,p", [(N, P), (5, 3.5), (6, 4.2)])
def test_poincare_ratio_is_deficit_over_critical_mass(n, p):
    # the quotient the sharpness runs minimized before it was read off the
    # verifier's report, computed here from the raw integrals
    ratio, target = ratio_function("poincare_sobolev", n, p)
    assert target == constants.sobolev_constant(Params(n, p)) ** p
    for lam, T in [(1.0, 1.0), (0.1, 0.5), (1e-3, 3.0)]:
        v = truncated_bubble(n, p, lam, T)
        (grad, _), (mass, _), (crit, _) = radial_integrals(
            v, n, p, qs=(p, n * p / (n - p)))
        want = (grad - ((n - 1.0) / p) ** p * mass) / crit ** ((n - p) / n)
        assert ratio(v)[0] == want


def test_key_comparison_ratio_is_lhs_over_rhs():
    ratio, target = ratio_function("key_comparison", N, 3.0)
    assert target == 1.0
    v = truncated_bubble(N, 3.0, 0.1, 1.0)
    rep = verifier.evaluate("key_comparison", v, N, 3.0)
    assert ratio(v)[0] == rep.lhs / rep.rhs


@pytest.mark.parametrize("inequality_id", ["poincare_sobolev", "key_comparison"])
def test_zero_profile_has_no_ratio(inequality_id):
    ratio, _ = ratio_function(inequality_id, N, 3.0)
    zero = RadialProfile([0.0, 0.5, 1.0], [0.0, 0.0, 0.0], Tail("compact", 1.0),
                         fn=lambda s: 0.0, dfn=lambda s: 0.0)
    with pytest.raises(DomainError, match="zero profile has no ratio"):
        ratio(zero)


@pytest.mark.parametrize("n,p", [(3, 2.5), (5, 2.2)])
def test_poincare_ratio_outside_the_poincare_range_is_rejected(n, p):
    ratio, _ = ratio_function("poincare_sobolev", n, p)
    with pytest.raises(DomainError, match="poincare_sobolev needs"):
        ratio(truncated_bubble(n, p, 0.1, 1.0))


def test_lambda_sweep_trends_to_target():
    ratio, target = ratio_function("poincare_sobolev", N, P)
    # given scales are all evaluated, in order, with no stop rule
    lambdas = [1.0, 0.1, 0.01, 1e-3, 1e-4, 1e-5]
    pairs = minimize_ratio("poincare_sobolev", N, P, lambdas=lambdas).points
    assert [lam for lam, _, _ in pairs] == lambdas
    ratios = [r for _, r, _ in pairs]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert all(r > target * (1.0 - 1e-9) for r in ratios)
    assert ratios[-1] - target <= 0.05 * target
    # the gap follows the concentration power law, so each decade of
    # scale shrinks it by a near-constant factor
    gaps = [r - target for r in ratios[2:]]
    factors = [a / b for a, b in zip(gaps, gaps[1:])]
    for f in factors:
        assert f == pytest.approx(10.0 ** ((N - P) / (P - 1.0)), rel=0.2)


def test_key_comparison_sweep():
    pairs = minimize_ratio("key_comparison", N, P, lambdas=[0.3, 0.1, 0.03]).points
    for _, r, _ in pairs:
        assert r > 1.0


def test_minimizer_respects_lower_bound():
    res = minimize_ratio("poincare_sobolev", N, P, T0=1.0, max_iter=25)
    best_ratio = min(r for _, r, _ in res.points)
    assert best_ratio > res.target_constant * (1.0 - 1e-9)
    assert best_ratio - res.target_constant < 0.05 * res.target_constant
    # a descent in scale alone, a decade a step from 0.1, at the given T
    lambdas = [lam for _, lam, _, _, _ in res.trace]
    assert lambdas == [10.0 ** -(k + 1) for k in range(len(lambdas))]
    assert 3 <= len(lambdas) <= 10
    assert {T for _, _, T, _, _ in res.trace} == {1.0}
    # deterministic: identical call, identical trace
    res2 = minimize_ratio("poincare_sobolev", N, P, T0=1.0, max_iter=25)
    assert res.trace == res2.trace
    assert res.trace_csv().startswith("iteration,lambda,T,ratio,gap")


def test_descent_stops_once_the_bar_stops_shrinking():
    # at (4, 10/3) each extrapolant's bar shrinks until lambda = 1e-7,
    # where it grows from 0.00306 to 0.00364, so the descent stops there
    # after 7 of its 10 decades; the same decades given as lambdas are
    # all evaluated
    n, p = 4, 10.0 / 3.0
    decades = [10.0 ** -(k + 1) for k in range(10)]
    res = minimize_ratio("poincare_sobolev", n, p)
    assert [lam for lam, _, _ in res.points] == decades[:7]
    rate = verifier.INEQUALITIES["poincare_sobolev"].rate(n, p)
    bars = [bar for _, bar in extrapolate(res.points, rate)]
    assert all(b < a for a, b in zip(bars, bars[1:-1]))
    assert bars[-1] >= bars[-2]
    given = minimize_ratio("poincare_sobolev", n, p, lambdas=decades)
    assert len(given.points) == 10
    assert given.points[:7] == res.points


def test_non_attainment_scan_strict_on_corpus():
    out = non_attainment_scan("poincare_sobolev", N, P, standard_corpus())
    assert out["strictly_positive"]
    assert out["min_margin"] > 0.0
    assert out["profiles"] == len(standard_corpus())
    with pytest.raises(DomainError):
        non_attainment_scan("gagliardo_nirenberg", N, P, standard_corpus())


def test_bubble_critical_mass_scales_with_measure():
    # in the measure variable a dilation multiplies the critical integral
    # by lambda^n
    pstar = N * P / (N - P)
    a, _ = lp_integral(untruncated_bubble(N, P, 1.0), pstar)
    b, _ = lp_integral(untruncated_bubble(N, P, 0.1), pstar)
    assert a == pytest.approx(b * 10.0 ** N, rel=1e-6)


@pytest.mark.parametrize("rate", [0.5, None])
def test_extrapolation_recovers_a_power_law_limit(rate):
    # gaps 2^-k at lambda = 4^-k fall like lambda^0.5: every extrapolant
    # is the limit 1 exactly, with or without the rate given
    points = [(4.0 ** -k, 1.0 + 2.0 ** -k, 1e-3) for k in range(5)]
    got = extrapolate(points, rate)
    assert got == [(1.0, 2e-3)] * (3 if rate else 2)


def test_extrapolation_skips_steps_with_no_rate():
    # an equal scale, or gaps that grow instead of shrinking, give no
    # extrapolant, and the step after one has no bar
    points = [(1.0, 3.0, 0.0), (0.5, 2.0, 0.0), (0.5, 1.5, 0.0), (0.25, 1.25, 0.0)]
    assert extrapolate(points, 1.0) == []
    growing = [(1.0, 1.1, 0.0), (0.1, 1.0, 0.0), (0.01, 0.5, 0.0), (1e-3, 0.4, 0.0)]
    assert extrapolate(growing, None) == []


def test_ratio_bar_is_read_off_the_report():
    for inequality_id, p in [("poincare_sobolev", P), ("key_comparison", 3.0)]:
        ratio, target = ratio_function(inequality_id, N, p)
        v = truncated_bubble(N, p, 0.01, 1.0)
        rep = verifier.evaluate(inequality_id, v, N, p)
        assert ratio(v)[1] == target * rep.quadrature_error / rep.rhs > 0.0


def test_non_attainment_scan_leaves_a_zero_profile_undecided():
    zero = RadialProfile([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], Tail("compact", 2.0),
                         label="zero")
    out = non_attainment_scan("key_comparison", N, 3.0, [zero])
    assert out["undecided"] == ["zero"]
    assert not out["strictly_positive"]


def test_bubble_scale_near_the_smallest_normal_double():
    # at lambda = 1e-76 the grid starts just above the smallest normal
    # volume and the ratio is still found; at 1e-77 it would start below
    ratio, target = ratio_function("poincare_sobolev", N, P)
    assert target < ratio(truncated_bubble(N, P, 1e-76, 1.0))[0] < 1.01 * target
    with pytest.raises(DomainError, match="underflows"):
        truncated_bubble(N, P, 1e-77, 1.0)


@pytest.mark.parametrize("n,p,lam", [(2, 1.96, 1.78e-150), (5, 1.1, 1e-60)])
def test_untruncated_bubble_where_its_power_overflows(n, p, lam):
    # (s / scale)^e overflows at the grid top s = 1e6, where the bubble is
    # about 4.4e-7 at (2, 1.96) and below the smallest double at (5, 1.1);
    # there 1 + z is z, and v and v' come from log z
    v = untruncated_bubble(n, p, lam)
    scale = constants.unit_ball_volume(n) * lam ** n
    e, ex = p / ((p - 1.0) * n), (n - p) / p
    with mp.workdps(30):
        for s in (v.nodes[-1], 0.5 * v.nodes[-1]):
            z = (mp.mpf(s) / scale) ** e
            assert v(s) == pytest.approx(float((1 + z) ** -ex), rel=1e-12, abs=0.0)
            assert v.derivative(s) == pytest.approx(
                float(-ex * (1 + z) ** (-ex - 1) * e * z / s), rel=1e-12, abs=0.0)
    assert all(map(math.isfinite, v.values))

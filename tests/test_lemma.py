import json
import math

import pytest

from hypineq import geometry
from hypineq.constants import boundary_exponent
from hypineq.errors import DomainError
from hypineq.lemma import find_violation, verify_lemma
from oracles import radial_margin


def test_verify_at_phase_boundary():
    for n in (2, 3, 4, 5, 6):
        table = verify_lemma(n, boundary_exponent(n), t_max=25.0)
        assert table.passed, (n, table.min_margin, table.min_margin_t)
        assert table.min_margin >= -1e-9
        assert table.monotone


def test_verify_above_boundary():
    table = verify_lemma(4, 3.1, t_max=20.0)
    assert table.passed
    assert table.slope_positive is True


def test_verify_n2_has_no_slope_check():
    table = verify_lemma(2, 2.5, t_max=10.0)
    assert table.passed
    assert table.slope_positive is None


def test_verify_rejects_below_boundary():
    with pytest.raises(DomainError):
        verify_lemma(4, 2.5)
    with pytest.raises(DomainError):
        verify_lemma(4, 3.0, t_max=-1.0)


def test_violation_found_below_boundary():
    table = find_violation(4, 2.5)
    assert table.passed and not table.inconclusive
    t, m = table.violation
    assert m < 0.0
    # certify independently with the high-precision margin
    assert geometry.radial_margin_scaled(4, 2.5, t, precise=True) < 0.0
    assert table.onset_estimate is not None
    assert table.onset_estimate > 0.0


def test_violation_near_boundary_uses_onset_probe():
    # at p just below the boundary the sign change sits far beyond any
    # reasonable grid, so the onset estimate has to carry the search
    table = find_violation(3, 2.95)
    assert table.passed
    t, m = table.violation
    assert m < 0.0
    assert t > 50.0


def test_violation_rejects_in_range_p():
    with pytest.raises(DomainError):
        find_violation(4, 3.0)
    with pytest.raises(DomainError):
        find_violation(4, 2.5, t_max=0.0)


def test_table_serialization():
    table = verify_lemma(4, 3.0, t_max=5.0)
    csv = table.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "t,F,margin"
    assert len(lines) == len(table.ts) + 1
    payload = json.loads(table.to_json())
    assert payload["passed"] is True
    assert payload["mode"] == "verify"
    assert payload["points"] == len(table.ts)
    assert math.isfinite(payload["min_margin"])


def test_violation_table_reports_location():
    table = find_violation(5, 2.3, t_max=60.0)
    payload = json.loads(table.to_json())
    assert payload["passed"] is True
    assert payload["violation_margin"] < 0.0
    assert payload["onset_estimate"] > 0.0
    # the search applies no tolerance, so it reports none
    assert "tolerance" not in payload


@pytest.mark.parametrize("precise_margin", [-1e-20, 1e-20])
def test_violation_near_zero_is_recertified(monkeypatch, precise_margin):
    # a double margin in (-1e-12, -1e-13) is below the rounding floor but
    # not clear of it: it counts only when the mpmath margin is negative
    def rows(n, p, ts, slope=False):
        return [(-5e-13, 0.0, None) for _ in ts]

    def margin(n, p, t, precise=False):
        assert precise
        return precise_margin

    monkeypatch.setattr(geometry, "_margin_rows", rows)
    monkeypatch.setattr(geometry, "radial_margin_scaled", margin)
    table = find_violation(3, 2.78, t_max=60.0)
    if precise_margin < 0.0:
        assert table.violation == (table.ts[0], precise_margin)
        assert table.passed and not table.inconclusive
    else:
        assert table.violation is None
        assert table.inconclusive and not table.passed


def test_edge_job_runs_no_mpmath(monkeypatch):
    # the benchmark's edge job: (n-1) t_max = 690, just inside phi's range,
    # where the unscaled slope factor used to overflow into mpmath
    calls = []
    precision = geometry._precision
    monkeypatch.setattr(geometry, "_precision",
                        lambda *a: calls.append(a) or precision(*a))
    table = verify_lemma(3, 3.0 + 1.15, t_max=345.0)
    assert table.passed and table.slope_positive is True
    assert calls == []


def _tables():
    yield find_violation(3, 2.78)
    yield verify_lemma(4, 3.0, t_max=40.0)


def test_f_column_has_the_margin_sign():
    # at n = 3, p = 2.78 the double raw margin printed +-1e36 to +-1e59 of
    # cancellation over t in (21, 34); the scaled margin then read 0.0 at
    # 83 radii there, and with its large-radius terms factored it keeps the
    # mpmath sign at each.  A zero margin, at t = 0, prints F = 0.
    for table in _tables():
        assert len(table.f_values) == len(table.margins) == len(table.ts)
        for t, f, m in zip(table.ts, table.f_values, table.margins):
            assert (f > 0.0) == (m > 0.0) and (f < 0.0) == (m < 0.0), (t, f, m)
            if m == 0.0:
                assert f == 0.0
    table = find_violation(3, 2.78)
    band = [(t, m) for t, m in zip(table.ts, table.margins) if 21.0 < t < 34.0]
    assert len(band) == 20
    for t, m in band:
        assert m * geometry.radial_margin_scaled(3, 2.78, t, precise=True) > 0.0, t
    assert 0.0 in verify_lemma(4, 3.0, t_max=40.0).margins


def test_f_column_matches_the_raw_margin():
    checked = 0
    for table in _tables():
        n, p = table.n, table.p
        for t, f, m in zip(table.ts, table.f_values, table.margins):
            if abs(m) > 1e-6 and p * (n - 1) * t < 700.0:
                assert f == pytest.approx(radial_margin(n, p, t), rel=1e-9)
                checked += 1
    assert checked > 50


def test_f_column_is_infinite_past_double_range():
    # at n = 4, p = 40 the margin is still 5e-12 at t = 10, where
    # F = m (1 + volume^p) is about e^1170; at t = 6.67 F is 1.17e308
    n, p = 4, 40.0
    table = verify_lemma(n, p, t_max=10.0)
    past = 0
    for t, f, m in zip(table.ts, table.f_values, table.margins):
        if p * (n - 1) * t > 840.0:
            assert m > 1e-12 and f == math.inf, (t, f, m)
            past += 1
        elif p * (n - 1) * t < 700.0:
            assert math.isfinite(f)
    assert past > 0


def test_each_table_evaluates_one_margin_per_radius(monkeypatch):
    calls = []
    rows, scaled = geometry._margin_rows, geometry.radial_margin_scaled

    def counted_rows(n, p, ts, slope=False):
        calls.extend(ts)
        return rows(n, p, ts, slope)

    def counted(n, p, t, precise=False):
        if not precise:
            calls.append(t)
        return scaled(n, p, t, precise=precise)

    monkeypatch.setattr(geometry, "_margin_rows", counted_rows)
    monkeypatch.setattr(geometry, "radial_margin_scaled", counted)
    for table in _tables():
        assert calls == list(table.ts)
        calls.clear()


@pytest.mark.parametrize("table, evaluations", [
    (lambda: verify_lemma(4, 3.0, 25.0), 200),
    (lambda: find_violation(4, 2.5, 150.0), 240),
])
def test_each_radius_sums_lambda_once(monkeypatch, table, evaluations):
    # the margin, the log scale of F and the slope factor share one
    # lambda(t) = log phi - (n-1) t per positive radius
    calls = []
    excess = geometry._log_phi_excess
    monkeypatch.setattr(geometry, "_log_phi_excess",
                        lambda n, t: calls.append(t) or excess(n, t))
    got = table()
    assert len(calls) == evaluations == sum(t > 0.0 for t in got.ts)


def test_grid_violations_clear_the_kernel_error():
    # a grid radius is reported only where the double margin is below the
    # 1e-13 error test_scaled_margin_oracle pins; closer to zero the onset
    # probes decide.  At (3, 2.75, 36) the scan used to stop at t = 21.05,
    # where the double margin is -5.1e-17
    on_grid = 0
    for n, p, t_max in ((3, 2.75, 36.0), (3, 2.7, 34.0), (3, 2.78, 150.0),
                        (3, 2.5, 150.0), (4, 2.5, 150.0), (5, 2.3, 150.0),
                        (6, 2.2, 150.0)):
        table = find_violation(n, p, t_max=t_max)
        t, m = table.violation
        assert m < 0.0
        if t in table.ts:
            assert table.margins[table.ts.index(t)] < -1e-13, (n, p, t)
            on_grid += 1
        else:
            assert t in [table.onset_estimate * c for c in (1.05, 1.2, 1.5, 2.0)]
    assert on_grid >= 3

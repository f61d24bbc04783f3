import json
import math

import pytest

from hypineq import geometry
from hypineq.constants import boundary_exponent
from hypineq.errors import DomainError
from hypineq.lemma import find_violation, verify_lemma


def test_verify_at_phase_boundary():
    for n in (2, 3, 4, 5, 6):
        table = verify_lemma(n, boundary_exponent(n), t_max=25.0, num=120)
        assert table.passed, (n, table.min_margin, table.min_margin_t)
        assert table.min_margin >= -1e-9
        assert table.monotone


def test_verify_above_boundary():
    table = verify_lemma(4, 3.1, t_max=20.0, num=100)
    assert table.passed
    assert table.slope_positive is True


def test_verify_n2_has_no_slope_check():
    table = verify_lemma(2, 2.5, t_max=10.0, num=60)
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
    table = verify_lemma(4, 3.0, t_max=5.0, num=20)
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
    table = find_violation(5, 2.3, t_max=60.0, num=80)
    payload = json.loads(table.to_json())
    assert payload["passed"] is True
    assert payload["violation_margin"] < 0.0
    assert payload["onset_estimate"] > 0.0
    # the search applies no tolerance, so it reports none
    assert "tolerance" not in payload


def test_edge_job_runs_no_mpmath(monkeypatch):
    # the benchmark's edge job: (n-1) t_max = 690, just inside phi's range,
    # where the unscaled slope factor used to overflow into mpmath
    calls = []
    phi_mp = geometry._phi_mp
    monkeypatch.setattr(geometry, "_phi_mp",
                        lambda *a: calls.append(a) or phi_mp(*a))
    table = verify_lemma(3, 3.0 + 1.15, t_max=345.0)
    assert table.passed and table.slope_positive is True
    assert calls == []

import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hypineq import cli, geometry, rearrangement, verifier
from hypineq.corpus import bubble_corpus, standard_corpus, write_corpus
from hypineq.levels import Piece, RadialFunction
from hypineq.rearrangement import write_profile

N4P = "2.6666666666666665"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- constants ------------------------------------------------------


def test_constants_table(capsys, tmp_path):
    code, out, _ = run(capsys, "constants", "--n", "4", "--p", N4P)
    assert code == 0
    assert "sobolev" in out
    assert "n/a" in out  # morrey needs p > n here
    code, _, _ = run(capsys, "constants", "--n", "4", "--p", N4P,
                     "--out", str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "constants.json").read_text())
    assert payload["morrey"] is None
    assert float(payload["sobolev"]) > 0.0


def test_constants_csv_artifact_with_alpha(capsys, tmp_path):
    code, _, _ = run(capsys, "constants", "--n", "4", "--p", N4P, "--alpha", "1.5",
                     "--format", "csv", "--out", str(tmp_path))
    assert code == 0
    rows = (tmp_path / "constants.csv").read_text().splitlines()
    assert rows[0] == "constant,value,note"
    cells = {row.split(",")[0]: row.split(",", 2)[1:] for row in rows[1:]}
    assert float(cells["gagliardo_nirenberg"][0]) > 0.0
    assert cells["morrey"] == ["", "needs p > n"]
    assert not (tmp_path / "constants.json").exists()


def test_constants_json_artifact_above_the_dimension(capsys, tmp_path):
    code, _, _ = run(capsys, "constants", "--n", "4", "--p", "6",
                     "--out", str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "constants.json").read_text())
    assert payload["sobolev"] is None and payload["gagliardo_nirenberg"] is None
    assert float(payload["morrey"]) > 0.0 and float(payload["linfty"]) > 0.0


def test_constants_log_sobolev_domain_note(capsys):
    # 1 < p < n holds at n = 3, but the logarithmic inequality needs n >= 4
    code, out, _ = run(capsys, "constants", "--n", "3", "--p", "2.5")
    assert code == 0
    line = next(ln for ln in out.splitlines() if ln.startswith("log_sobolev"))
    assert "n/a (needs n >= 4 and 2n/(n-1) <= p < n)" in line


def test_constants_large_dimension(capsys):
    # Gamma(n) alone overflows for n >= 171; the Sobolev constant does not
    code, out, _ = run(capsys, "constants", "--n", "180", "--p", "2.0")
    assert code == 0
    line = next(ln for ln in out.splitlines() if ln.startswith("sobolev"))
    assert math.isfinite(float(line.split()[1]))


def test_constants_overflow_note(capsys):
    # an overflow inside the domain is reported as such, not as a domain miss
    code, out, _ = run(capsys, "constants", "--n", "400", "--p", "2.0")
    assert code == 0
    line = next(ln for ln in out.splitlines() if ln.startswith("unit_ball_volume"))
    assert "n/a (gamma(201.0) overflows double precision)" in line


def test_constants_no_applicable(capsys):
    # p = n admits neither the subcritical nor the supercritical family
    code, _, err = run(capsys, "constants", "--n", "2", "--p", "2.0")
    assert code == 2
    assert "no constant" in err


def test_constants_all_applicable_overflow(capsys):
    # morrey and linfty admit (400, 500) but overflow; that is no domain miss
    code, out, err = run(capsys, "constants", "--n", "400", "--p", "500")
    assert code == 2
    for name in ("morrey", "linfty"):
        line = next(ln for ln in out.splitlines() if ln.startswith(name))
        assert "overflows double precision" in line
    assert "no constant admits" not in err
    assert "overflows double precision" in err


# -- lemma ----------------------------------------------------------


def test_lemma_verify_writes_artifacts(capsys, tmp_path):
    code, _, _ = run(capsys, "lemma", "verify", "--n", "4", "--p", "3.0",
                     "--out", str(tmp_path))
    assert code == 0
    csv = (tmp_path / "lemma-verify-n4-p3.csv").read_text()
    assert csv.startswith("t,F,margin")
    payload = json.loads((tmp_path / "lemma-verify-n4-p3.json").read_text())
    assert payload["passed"] is True


@pytest.mark.parametrize("n,p,t_max", [("4", "3", "300"), ("6", "2.5", "200"),
                                       ("4", "3", "1e9")])
def test_lemma_verify_large_radii(capsys, n, p, t_max):
    # (n-1) t_max is far past the ~700 where phi leaves double range
    code, out, _ = run(capsys, "lemma", "verify", "--n", n, "--p", p,
                       "--t-max", t_max)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["slope_positive"] is True


@pytest.mark.parametrize("n", ["80", "100", "200"])
def test_lemma_verify_at_large_dimension(capsys, n):
    # at n = 80 the mpmath re-certification's binomial coefficients, once
    # doubles, no longer cancelled to phi ~ t^n and faked a violation (exit
    # 1); from n = 100 the log of a phi that underflowed to 0 exited 4
    code, out, _ = run(capsys, "lemma", "verify", "--n", n, "--p", "3")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_lemma_verify_out_of_range(capsys):
    code, _, err = run(capsys, "lemma", "verify", "--n", "4", "--p", "2.0")
    assert code == 2
    assert "error" in err


def test_lemma_violate(capsys):
    code, out, _ = run(capsys, "lemma", "violate", "--n", "4", "--p", "2.5")
    assert code == 0
    assert json.loads(out)["violation_margin"] < 0.0
    code, _, _ = run(capsys, "lemma", "violate", "--n", "4", "--p", "3.5")
    assert code == 2


@pytest.mark.parametrize("precise_factor, code", [(-1e-8, 1), (0.0, 0)])
def test_lemma_verify_slope_check(capsys, monkeypatch, precise_factor, code):
    # a double slope factor below -1e-9 fails the table only when the
    # mpmath re-certification is negative too
    rows = geometry._margin_rows

    def negative_slopes(n, p, ts, slope=False):
        return [(m, s, -1e-8) for m, s, _ in rows(n, p, ts, slope)]

    def factor(n, p, t, precise=False):
        assert precise
        return precise_factor

    monkeypatch.setattr(geometry, "_margin_rows", negative_slopes)
    monkeypatch.setattr(geometry, "margin_slope_factor", factor)
    got, out, _ = run(capsys, "lemma", "verify", "--n", "4", "--p", "3.0")
    assert got == code
    payload = json.loads(out)
    assert payload["slope_positive"] is (code == 0)
    assert payload["passed"] is (code == 0)


def test_lemma_violate_inconclusive_exits_3(capsys, monkeypatch):
    # no radius of the grid or of the onset probes has a negative margin
    monkeypatch.setattr(geometry, "_margin_rows",
                        lambda n, p, ts, slope=False: [(1e-3, 0.0, None) for _ in ts])
    monkeypatch.setattr(geometry, "radial_margin_scaled",
                        lambda n, p, t, precise=False: 1e-3)
    code, out, err = run(capsys, "lemma", "violate", "--n", "3", "--p", "2.78")
    assert code == 3
    payload = json.loads(out)
    assert payload["inconclusive"] is True and payload["passed"] is False
    assert err == ("inconclusive: no radius searched (grid up to t = 150) "
                   "has a certified negative margin\n")


# -- verify ---------------------------------------------------------


def test_verify_builtin_corpus(capsys):
    code, out, _ = run(capsys, "verify", "--inequality", "key_comparison",
                       "--n", "4", "--p", N4P, "--format", "csv")
    assert code == 0
    assert out.count("\n") == 21  # header + 20 profiles


@pytest.mark.parametrize("n,p", [("2", "4"), ("3", "5")])
def test_verify_morrey_flags_tailed_profiles(capsys, n, p):
    code, out, _ = run(capsys, "verify", "--inequality", "morrey_sobolev",
                       "--n", n, "--p", p, "--format", "csv")
    assert code == 0
    flags = {row.split(",")[4]: row.split(",")[-1]
             for row in out.splitlines()[1:]}
    tailed = {v.label for v in standard_corpus() if v.tail.kind != "compact"}
    assert len(flags) == 20 and len(tailed) == 8
    assert {k for k, f in flags.items() if f == "outside-range"} == tailed
    assert all(f == "" for k, f in flags.items() if k not in tailed)


def test_verify_json_is_strict(capsys):
    # the outside-range rows carry an infinite lhs and NaN ratios
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    code, out, _ = run(capsys, "verify", "--inequality", "morrey_sobolev",
                       "--n", "2", "--p", "4", "--format", "json")
    assert code == 0
    rows = json.loads(out, parse_constant=reject)
    flagged = [r for r in rows if "outside-range" in r["flags"]]
    assert len(flagged) == 8
    assert all(r["lhs"] == "inf" for r in flagged)
    assert all(isinstance(r["rhs"], float) for r in rows)


def test_verify_csv_quotes_a_label_with_a_comma(capsys, tmp_path):
    # a profile's label is its file name, which may hold a comma or a quote
    tent = standard_corpus()[0]
    for name in ("tent,a", 'say "tent"', "plain"):
        write_profile(str(tmp_path / f"{name}.txt"), tent)
    code, out, err = run(capsys, "verify", "--inequality", "key_comparison",
                         "--n", "4", "--p", "3.0", "--corpus", str(tmp_path),
                         "--format", "csv")
    assert code == 0, err
    header, *rows = csv.reader(io.StringIO(out))
    assert all(len(row) == len(header) == 11 for row in rows)
    assert sorted(row[header.index("label")] for row in rows) == [
        "plain", 'say "tent"', "tent,a"]
    assert '"tent,a"' in out and '"say ""tent"""' in out and ',plain,' in out


def test_verify_mugelli_talenti_at_p_1_reports_p_1(capsys):
    # p = 1 is mugelli_talenti_sum's endpoint, evaluated there; its report
    # recorded max(p, 1 + 1e-12), which the csv wrote as 1.0000000000010001
    code, out, err = run(capsys, "verify", "--inequality", "mugelli_talenti_sum",
                         "--n", "3", "--p", "1.0", "--format", "csv")
    assert code == 0, err
    header, *rows = csv.reader(io.StringIO(out))
    assert len(rows) == 20 and {row[header.index("p")] for row in rows} == {"1"}


def test_verify_scaled_constant_fails_on_bubbles(capsys, tmp_path):
    for v in bubble_corpus():
        write_profile(str(tmp_path / f"{v.label}.txt"), v)
    base = ("verify", "--inequality", "poincare_sobolev", "--n", "4",
            "--p", N4P, "--corpus", str(tmp_path))
    code, _, _ = run(capsys, *base)
    assert code == 0
    code, _, _ = run(capsys, *base, "--constant-scale", "1.1")
    assert code == 1


def test_verify_file_bubbles_fail_three_percent_inflation(capsys, tmp_path):
    # read back from files, the bubbles must still notice a 3% inflation
    for v in bubble_corpus():
        write_profile(str(tmp_path / f"{v.label}.txt"), v)
    code, _, _ = run(capsys, "verify", "--inequality", "poincare_sobolev",
                     "--n", "4", "--p", N4P, "--corpus", str(tmp_path),
                     "--constant-scale", "1.03")
    assert code == 1


@pytest.mark.parametrize("inequality,n,p,extra", [
    ("key_comparison", "4", "3.0", ()),
    ("poincare_sobolev", "4", "3.0", ()),
    ("mugelli_talenti_sum", "4", "3.0", ()),
    ("log_sobolev", "4", "3.0", ()),
    ("gagliardo_nirenberg", "4", "3.0", ("--alpha", "1.5")),
    ("morrey_sobolev", "4", "5.0", ()),
    ("linfty", "4", "5.0", ()),
])
def test_verify_reads_back_written_corpus(capsys, tmp_path, inequality, n, p, extra):
    # files drop the closures, so the exponential, sech and power
    # profiles come back grid-only with non-compact tails
    write_corpus(str(tmp_path))
    code, out, err = run(capsys, "verify", "--inequality", inequality,
                         "--n", n, "--p", p, "--corpus", str(tmp_path),
                         "--format", "csv", *extra)
    assert code == 0, err
    assert out.count("\n") == 21


def test_verify_constant_scale_rejected_for_comparison(capsys):
    code, _, err = run(capsys, "verify", "--inequality", "key_comparison",
                       "--n", "4", "--p", N4P, "--constant-scale", "1.1")
    assert code == 2
    assert "constant-free" in err


def test_verify_calls_evaluator_once_per_profile(capsys, monkeypatch):
    calls = []
    real = verifier.poincare_sobolev

    def counting(*args, **kwargs):
        calls.append(args[0].label)
        return real(*args, **kwargs)

    monkeypatch.setattr(verifier, "poincare_sobolev", counting)
    code, _, _ = run(capsys, "verify", "--inequality", "poincare_sobolev",
                     "--n", "4", "--p", N4P)
    assert code == 0
    assert len(calls) == 20  # one per built-in corpus profile


def test_verify_evaluation_error_is_inconclusive(capsys, monkeypatch):
    # a negative gradient deficit trips the gagliardo_nirenberg guard: a
    # zero gradient integral against unit masses
    monkeypatch.setattr(rearrangement, "radial_integrals",
                        lambda v, n, p, qs=(), **kwargs:
                        [(0.0, 0.0)] + [(1.0, 0.0)] * len(qs))
    code, _, err = run(capsys, "verify", "--inequality", "gagliardo_nirenberg",
                       "--n", "4", "--p", N4P, "--alpha", "2.0")
    assert code == 3
    assert err.startswith("inconclusive:")


def test_key_comparison_power_tail_at_n6(capsys):
    # the Euclidean weight phi^(p(n-1)/n) of power-k2 overflows unless the
    # one-pass integrand is built in log space
    code, out, err = run(capsys, "verify", "--inequality", "key_comparison",
                         "--n", "6", "--p", "4.2")
    assert code == 0, err
    assert len(json.loads(out)) == 20


def test_verify_missing_corpus_dir(capsys, tmp_path):
    code, _, _ = run(capsys, "verify", "--inequality", "key_comparison",
                     "--n", "4", "--p", N4P,
                     "--corpus", str(tmp_path / "nope"))
    assert code == 2


def test_verify_corpus_without_profile_files(capsys, tmp_path):
    (tmp_path / "notes.md").write_text("no profiles here\n")
    code, _, err = run(capsys, "verify", "--inequality", "key_comparison",
                       "--n", "4", "--p", "3.0", "--corpus", str(tmp_path))
    assert code == 2
    assert "no profile files" in err


@pytest.mark.parametrize("text", [
    "tail=compact:1.0\n0 1\n0.5 nan\n1 0\n", "tail=compact:1.0\n0 inf\n0.5 0.5\n1 0\n",
    "tail=compact:1.0\n0 1\nnan 0.5\n1 0\n", "tail=compact:1.0\n0 1\n0.5 0.5\n1 -inf\n",
    "tail=compact:nan\n0 1\n1 0\n", "tail=compact:inf\n0 1\n1 0\n",
    "tail=power:inf\n0 1\n1 0.5\n"])
def test_verify_corpus_with_non_finite_entry(capsys, tmp_path, text):
    (tmp_path / "odd.txt").write_text(text)
    code, _, err = run(capsys, "verify", "--inequality", "key_comparison",
                       "--n", "4", "--p", "3.0", "--corpus", str(tmp_path))
    assert code == 2, err
    assert "odd.txt" in err and "finite" in err


_ODD_CORPUS = ("verify", "--inequality", "key_comparison", "--n", "4", "--p", "3.0",
               "--corpus", "{dir}")


@pytest.mark.parametrize("argv,text,expected", [
    (_ODD_CORPUS, "0 1\n1 0\n", "error: {path}:1: expected 'tail=<kind>:<param>' header"),
    (_ODD_CORPUS, "tail=compact\n0 1\n1 0\n", "error: {path}:1: malformed tail header"),
    (_ODD_CORPUS, "tail=compact:1\n0 1 0.5\n1 0\n", "error: {path}:2: expected 's value'"),
    (_ODD_CORPUS, "tail=compact:1\n0 1\n0.5 0.5\n0.5 0\n",
     "error: {path}:4: grid not strictly increasing"),
    (_ODD_CORPUS, "tail=compact:1\n0 1\n0.5 0.5\n1 0.7\n",
     "error: {path}:4: values not non-increasing"),
    (_ODD_CORPUS, "# a header and no nodes\ntail=compact:1\n",
     "error: {path}: incomplete profile"),
    (("lemma", "verify", "--n", "4", "--p", "3", "--config", "{path}"), "t-max 5\n",
     "error: {path}:1: expected key=value"),
    (("sharpness", "--n", "4", "--p", N4P, "--lambdas", "1,x"), None,
     "hypineq sharpness: error: argument --lambdas: bad number list '1,x'"),
])
def test_outside_input_is_rejected_where_it_is_at_fault(capsys, tmp_path, argv, text,
                                                        expected):
    path = tmp_path / "odd.txt"
    if text is not None:
        path.write_text(text)
    fill = lambda a: a.replace("{dir}", str(tmp_path)).replace("{path}", str(path))
    try:
        code = cli.main([fill(a) for a in argv])
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == fill(expected)
    assert err.startswith("usage:" if text is None else "error:")


# -- sweep ----------------------------------------------------------


def test_sweep_deterministic_artifact(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ("sweep", "--inequality", "key_comparison", "--n-list", "4,5",
            "--p-list", "2.7,3.0", "--format", "csv")
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    fa = (a / "sweep-key_comparison.csv").read_bytes()
    fb = (b / "sweep-key_comparison.csv").read_bytes()
    assert fa == fb
    assert len(fa) > 0


# -- sharpness ------------------------------------------------------


def test_sharpness_sweep_passes(capsys, tmp_path):
    code, _, _ = run(capsys, "sharpness", "--n", "4", "--p", N4P,
                     "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "sharpness-sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "lambda,T,ratio,gap"
    gaps = [float(l.split(",")[3]) for l in lines[1:]]
    assert all(g > 0.0 for g in gaps)
    assert gaps == sorted(gaps, reverse=True)


def test_sharpness_wide_limit_bar_is_inconclusive(capsys):
    # three decades from lambda = 1 leave the extrapolated limit a bar
    # about 2.5 times the target
    code, _, err = run(capsys, "sharpness", "--n", "5", "--p", "2.5",
                       "--lambdas", "1.0,0.1,0.01")
    assert code == 3
    assert err.startswith("inconclusive: the limit ") and err.count("\n") == 1
    assert "wider than 0.05 times the target 12.34" in err


@pytest.mark.parametrize("argv,reason", [
    (("--optimize", "--max-iter", "1"), "2 ratio(s) give no extrapolated limit with a bar"),
    (("--lambdas", "0.01,0.1"), "the ratio does not fall at every step of --lambdas"),
])
def test_unsettled_sharpness_names_its_reason(capsys, argv, reason):
    # stdout still carries the trace or sweep CSV
    code, out, err = run(capsys, "sharpness", "--n", "4", "--p", N4P, *argv)
    assert code == 3
    assert out.startswith(("iteration,", "lambda,"))
    assert err == f"inconclusive: {reason}\n"


def test_sharpness_single_evaluation(capsys):
    # one scale through --lambdas writes its ratio, and leaves no limit
    code, out, err = run(capsys, "sharpness", "--n", "4", "--p", N4P,
                         "--lambdas", "0.01")
    assert code == 3
    header, row = out.splitlines()
    lam, T, ratio, _ = map(float, row.split(","))
    assert header == "lambda,T,ratio,gap" and (lam, T) == (0.01, 1.0) and ratio > 0.0
    assert err == "inconclusive: 1 ratio(s) give no extrapolated limit with a bar\n"


def test_sharpness_modes_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sharpness", "--n", "4", "--p", N4P, "--optimize",
                  "--lambdas", "1,0.1"])
    assert exc.value.code == 2
    assert "not allowed with argument --optimize" in capsys.readouterr().err


def test_default_run_is_the_descent(capsys, tmp_path):
    # --optimize only names the artifact: the default run writes the same
    # points as sharpness-sweep.csv, without the iteration column
    files = []
    for extra in ((), ("--optimize",)):
        out = tmp_path / str(len(files))
        code, _, err = run(capsys, "sharpness", "--n", "5", "--p", "3.0", *extra,
                           "--out", str(out))
        assert (code, err) == (0, "")
        files.extend(out.iterdir())
    assert [f.name for f in files] == ["sharpness-sweep.csv", "sharpness-trace.csv"]
    sweep, trace = (f.read_text().splitlines() for f in files)
    assert sweep[1:] == [row.split(",", 1)[1] for row in trace[1:]]
    assert float(sweep[1].split(",")[0]) == 0.1


def test_sharpness_optimizer(capsys, tmp_path):
    code, _, _ = run(capsys, "sharpness", "--n", "4", "--p", N4P,
                     "--optimize", "--max-iter", "30", "--out", str(tmp_path))
    assert code == 0
    trace = (tmp_path / "sharpness-trace.csv").read_text()
    assert trace.startswith("iteration,lambda,T,ratio,gap")


def test_sharpness_optimizer_default_is_its_last_step(capsys, tmp_path):
    # the descent stops at lambda = 1e-10, its tenth step: the default
    # --max-iter is 9, and a larger value acts as 9
    traces = []
    for extra in ((), ("--max-iter", "9"), ("--max-iter", "60")):
        out = tmp_path / str(len(traces))
        code, _, _ = run(capsys, "sharpness", "--n", "4", "--p", N4P,
                         "--optimize", *extra, "--out", str(out))
        assert code == 0
        traces.append((out / "sharpness-trace.csv").read_text())
    assert traces[0] == traces[1] == traces[2]
    assert traces[0].splitlines()[-1].startswith("9,1e-10,")


@pytest.mark.parametrize("lam,code", [("1e-76", 3), ("1e-77", 2)])
def test_sharpness_at_the_smallest_normal_scale(capsys, lam, code):
    # a lone ratio is finite down to 1e-76, and leaves no limit (exit 3)
    got, out, err = run(capsys, "sharpness", "--n", "4", "--p", N4P,
                        "--lambdas", lam)
    assert got == code
    if code == 3:
        assert math.isfinite(float(out.splitlines()[1].split(",")[2]))
    else:
        assert "underflows" in err


def test_sharpness_inequality_choices_are_the_ratio_rows(capsys):
    parser, registry = cli.build_parser()
    action = next(a for a in registry["sharpness"]._actions
                  if "--inequality" in a.option_strings)
    assert set(action.choices) == {
        key for key, row in verifier.INEQUALITIES.items() if row.ratio is not None}
    assert action.default in action.choices
    with pytest.raises(SystemExit) as exc:
        cli.main(["sharpness", "--inequality", "linfty", "--n", "4", "--p", "5"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("--n", "3", "--p", "2.5", "--lambdas", "0.1"),
    ("--n", "5", "--p", "2.2"),
])
def test_sharpness_outside_the_poincare_range_exits_2(capsys, argv):
    # the improved Sobolev inequality does not apply there, so an undercut
    # of its target would not be a violation
    code, out, err = run(capsys, "sharpness", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: poincare_sobolev needs")


@pytest.mark.parametrize("gaps,settled,code", [
    # (gap, bar) of each ratio at lambda = 4^-k, target 1 and rate 0.5,
    # so each extrapolant is 2 r_k - r_{k-1}
    ([(0.5, 0.01), (0.25, 0.01), (0.125, 0.01)], True, 0),
    # a ratio below the target within its own bar; the limit is the
    # extrapolant with the smallest bar
    ([(0.5, 0.01), (0.25, 0.01), (0.125, 0.01), (-0.005, 0.01)], True, 0),
    ([(0.5, 0.01), (-0.02, 0.01), (0.125, 0.01)], True, 1),  # any undercut
    ([(-0.5, 0.01)], False, 1),         # an undercut outranks a broken trend
    ([(0.5, 0.01), (0.25, 0.01), (0.125, 0.01)], False, 3),  # broken trend
    ([(0.5, 0.03), (0.25, 0.03), (0.125, 0.03)], True, 3),   # bar above 0.05
    ([(0.5, 0.025), (0.25, 0.025), (0.125, 0.025)], True, 0),  # exactly 0.05
    ([(0.5, 0.01), (0.3, 0.01), (0.2, 0.01)], True, 1),   # limit 1.1 +- 0.02
    ([(0.5, 0.01), (0.25, 0.01)], True, 3),               # no limit with a bar
])
def test_sharpness_verdict(capsys, gaps, settled, code):
    unsettled = None if settled else "a broken trend"
    points = [(4.0 ** -k, 1.0 + gap, bar) for k, (gap, bar) in enumerate(gaps)]
    assert cli._sharpness_verdict(points, 1.0, 0.5, unsettled) == code
    # an exit 3, and only an exit 3, says why on stderr
    err = capsys.readouterr().err
    assert (err == "") == (code != 3)
    assert code != 3 or (err.startswith("inconclusive: ") and err.count("\n") == 1
                         and (unsettled or "limit") in err)


def _default_run(n, p, inequality="poincare_sobolev"):
    """(points, target, rate) of the default sharpness run at (n, p)."""
    res = cli.sharpness.minimize_ratio(inequality, n, p)
    return res.points, res.target_constant, verifier.INEQUALITIES[inequality].rate(n, p)


@pytest.mark.parametrize("n,p", [(4, 8.0 / 3.0), (5, 3.0), (6, 3.0)])
def test_sharpness_verdict_refutes_a_target_three_percent_low(capsys, n, p):
    # the real ratios settle on the sharp target and refute one 3% below
    points, target, rate = _default_run(n, p)
    assert cli._sharpness_verdict(points, target, rate) == 0
    assert cli._sharpness_verdict(points, 0.97 * target, rate) == 1
    assert capsys.readouterr().err == ""


def test_sharpness_optimize_settles_where_the_gap_decays_slowly(capsys, tmp_path):
    # at (4, 3) the gap falls like lambda^0.5: still 2.15 times the target
    # at 1e-5, so the descent goes below it before the bar settles
    code, _, err = run(capsys, "sharpness", "--n", "4", "--p", "3.0",
                       "--optimize", "--out", str(tmp_path))
    assert (code, err) == (0, "")
    trace = (tmp_path / "sharpness-trace.csv").read_text().splitlines()
    assert min(float(row.split(",")[1]) for row in trace[1:]) < 1e-5


def test_sharpness_optimize_at_the_old_box_corner(capsys, tmp_path):
    # the 2-D search this descent replaced walked to lambda = 1e-10,
    # T = 1e6 here, where roundoff faked an undercut and the run exited 1
    code, _, _ = run(capsys, "sharpness", "--n", "6", "--p", "2.417721166988792",
                     "--optimize", "--max-iter", "20",
                     "--truncation", "0.7391108738320868", "--out", str(tmp_path))
    assert code in (0, 3)
    rows = (tmp_path / "sharpness-trace.csv").read_text().splitlines()[1:]
    for row in rows:
        ratio, gap = map(float, row.split(",")[3:5])
        assert gap >= -1e-6 * (ratio - gap)


def test_ratio_at_the_rounding_floor_is_no_undercut(capsys):
    # key_comparison at n = 6 reaches its target to rounding: the ratio at
    # lambda = 1e-8 is 3e-14 below 1, inside its bar of 6e-11
    points = cli.sharpness.minimize_ratio("key_comparison", 6, 2.42,
                                          lambdas=[10.0 ** -k for k in range(1, 9)]).points
    _, ratio, bar = points[-1]
    assert -bar < ratio - 1.0 < 0.0
    assert cli._sharpness_verdict(points, 1.0, None) == 0


# -- config files ---------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("sharpness", "--n", "4", "--p", N4P, "--format", "json"),
    ("constants", "--n", "4", "--p", N4P, "--rel-tol", "1e-3"),
    ("lemma", "verify", "--n", "4", "--p", "3", "--rel-tol", "1e-3"),
    ("sharpness", "--n", "4", "--p", N4P, "--rel-tol", "1e-3"),
    # --max-iter bounds the descent, which explicit --lambdas replace
    ("sharpness", "--n", "4", "--p", N4P, "--lambdas", "1,0.1", "--max-iter", "5"),
    # deleted flags, and no prefix of a flag stands for one
    ("sharpness", "--n", "4", "--p", "2.7", "--lambdas", "1,0.1", "--lambda", "0.5"),
    ("sharpness", "--n", "4", "--p", N4P, "--no-optimize"),
    ("sharpness", "--n", "4", "--p", N4P, "--lambda", "0.1"),
    ("sharpness", "--n", "4", "--p", N4P, "--lamb", "0.1"),
    ("sharpness", "--n", "4", "--p", N4P, "--gap-max", "0.1"),
    # a verdict rests on its error bar alone: no command takes a tolerance
    ("verify", "--inequality", "key_comparison", "--n", "4", "--p", "3.0",
     "--rel-tol", "1e-3"),
    ("sweep", "--inequality", "key_comparison", "--n-list", "4", "--p-list", "3.0",
     "--rel-tol", "1e-3"),
])
def test_flags_a_command_ignores_are_rejected(capsys, argv):
    # sharpness writes CSV only
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_config_supplies_defaults_and_flags_win(capsys, tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# comment\np = 2.0\n")
    # config alone puts p out of range -> usage error
    code, _, _ = run(capsys, "lemma", "verify", "--n", "4",
                     "--config", str(cfgfile))
    assert code == 2
    # the explicit flag overrides the config value
    code, _, _ = run(capsys, "lemma", "verify", "--n", "4", "--p", "3.0",
                     "--config", str(cfgfile))
    assert code == 0


def test_config_equals_form_is_read(capsys, tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("p = 2.0\n")
    code, _, err = run(capsys, "lemma", "verify", "--n", "4",
                       f"--config={cfgfile}")
    assert code == 2
    assert "lemma range" in err


def test_config_without_path_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["lemma", "verify", "--n", "4", "--p", "3", "--config"])
    assert exc.value.code == 2
    assert "--config: expected one argument" in capsys.readouterr().err


def test_config_rejects_unknown_key(capsys, tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("frobnicate=1\n")
    code, _, err = run(capsys, "lemma", "verify", "--n", "4", "--p", "3.0",
                       "--config", str(cfgfile))
    assert code == 2
    assert "unknown key" in err


def test_config_rel_tol_is_an_unknown_key(capsys, tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("rel-tol = 1e-3\n")
    code, _, err = run(capsys, "verify", "--inequality", "key_comparison", "--n", "4",
                       "--p", "3.0", "--config", str(cfgfile))
    assert code == 2
    assert "unknown key 'rel-tol'" in err


def test_config_switch_runs_the_optimizer(capsys, tmp_path, monkeypatch):
    calls = []

    def fake_minimize(inequality, n, p, T0=1.0, lambdas=None, max_iter=9):
        calls.append((inequality, n, lambdas, max_iter))
        target = cli.sharpness.ratio_function(inequality, n, p)[1]
        return cli.sharpness.SharpnessResult(target, T0, tuple(
            (lam, (1.0 + 0.1 * lam) * target, 0.01 * target)
            for lam in (0.1, 0.01, 0.001)))

    monkeypatch.setattr(cli.sharpness, "minimize_ratio", fake_minimize)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("optimize = true\nmax-iter = 7\n")
    code, out, _ = run(capsys, "sharpness", "--n", "4", "--p", N4P,
                       "--config", str(cfgfile))
    assert code == 0
    assert calls == [("poincare_sobolev", 4, None, 7)]
    assert out.startswith("iteration,lambda,T,ratio,gap")


def test_config_rejects_a_bad_switch_value(capsys, tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("optimize=maybe\n")
    code, _, err = run(capsys, "sharpness", "--n", "4", "--p", N4P,
                       "--config", str(cfgfile))
    assert code == 2
    assert "bad flag value 'maybe'" in err


def test_config_missing_file(capsys, tmp_path):
    code, _, _ = run(capsys, "lemma", "verify", "--n", "4", "--p", "3.0",
                     "--config", str(tmp_path / "absent.cfg"))
    assert code == 2


def test_atomic_write_leaves_no_temp_files(capsys, tmp_path):
    run(capsys, "constants", "--n", "4", "--p", N4P, "--out", str(tmp_path))
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
    assert leftovers == []


# -- failure contract -------------------------------------------------


@pytest.mark.parametrize("argv,message", [
    (("lemma", "verify", "--n", "4", "--p", "3", "--t-max", "inf"), "t_max"),
    (("lemma", "violate", "--n", "4", "--p", "2.5", "--t-max", "inf"), "t_max"),
    (("lemma", "verify", "--n", "4", "--p", "1e308"), "underflows"),
    (("lemma", "verify", "--n", "4", "--p", "nan"), "p must be finite"),
    (("sharpness", "--n", "4", "--p", "2.6666", "--lambdas", "1e-300"),
     "underflows"),
    (("lemma", "verify", "--n", "4", "--p", "3", "--t-max", "0"), "t_max"),
    (("lemma", "violate", "--n", "4", "--p", "2.5", "--t-max", "0"), "t_max"),
    # a t_max below the first grid radius used to give a reversed grid
    (("lemma", "verify", "--n", "4", "--p", "3", "--t-max", "1e-300"), "above 0.0001"),
    (("lemma", "violate", "--n", "3", "--p", "2.78", "--t-max", "1e-300"), "above 0.5"),
    # powered terms past double range: inf reports (a false exit 1) or
    # an OverflowError (exit 4)
    (("verify", "--inequality", "key_comparison", "--n", "4", "--p", "235"),
     "overflows double precision"),
    (("verify", "--inequality", "key_comparison", "--n", "4", "--p", "240"),
     "overflows double precision"),
    (("verify", "--inequality", "linfty", "--n", "3", "--p", "300"),
     "overflows double precision"),
    (("verify", "--inequality", "morrey_sobolev", "--n", "3", "--p", "278"),
     "overflows double precision"),
    (("verify", "--inequality", "key_comparison", "--n", "4", "--p", "3",
      "--corpus", "{tmp}"), "key_comparison of big"),
    (("sharpness", "--n", "4", "--p", N4P, "--lambdas", "1e300"),
     "bubble scale sigma*lambda^n overflows"),
    # flag values that crashed (exit 4) or faked a verdict (exit 0 or 1)
    (("verify", "--inequality", "poincare_sobolev", "--n", "4", "--p", "3",
      "--constant-scale", "-1"), "--constant-scale must be finite and > 0"),
    (("verify", "--inequality", "poincare_sobolev", "--n", "4", "--p", "3",
      "--constant-scale", "nan"), "--constant-scale must be finite and > 0"),
    (("verify", "--inequality", "poincare_sobolev", "--n", "4", "--p", "3",
      "--constant-scale", "inf"), "--constant-scale must be finite and > 0"),
    # the L^(alpha p) norm needs alpha*p >= 1; the error named neither alpha
    # nor the inequality
    (("verify", "--inequality", "gagliardo_nirenberg", "--n", "6", "--p", "2.6",
      "--alpha", "0.3"), "gagliardo_nirenberg needs alpha*p >= 1, got alpha=0.3, p=2.6"),
    # a negative --max-iter evaluated no ratio and exited 3; an infinite
    # --truncation was rejected as a tail parameter
    (("sharpness", "--n", "4", "--p", N4P, "--max-iter", "-1"), "max_iter must be >= 0"),
    (("sharpness", "--n", "4", "--p", N4P, "--truncation", "inf"),
     "truncation must be finite"),
])
def test_domain_edges_exit_2(capsys, tmp_path, argv, message):
    # each used to crash (exit 1 or 4), pass on a NaN grid (violate) or,
    # for --t-max 0, run on the default radius range; {tmp} is a corpus
    # directory whose one profile overflows the gradient integral
    (tmp_path / "big.txt").write_text("tail=compact:1\n0 1e300\n1 0\n")
    code, _, err = run(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
    assert code == 2
    assert err.startswith("error:") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("n,p", [("4", "0"), ("5", "-0.1"), ("3", "-100"),
                                 ("3", "0.5"), ("3", "1.0")])
def test_lemma_violate_rejects_p_up_to_1(capsys, n, p):
    # p = 0 and p = -0.1 exited 4 on a math domain error, p = -100 on an
    # overflow, and 0.5 and 1.0 ran and exited 0
    code, _, err = run(capsys, "lemma", "violate", "--n", n, f"--p={p}")
    assert code == 2
    assert err.startswith("error:") and "need p > 1" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("sharpness", "--n", "4", "--p", N4P, "--lambdas", ","),
    ("sweep", "--inequality", "key_comparison", "--n-list", ",", "--p-list", "3"),
])
def test_empty_lists_are_usage_errors(capsys, argv):
    # an empty --lambdas crashed (exit 4); an empty sweep passed with no report
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert "empty" in capsys.readouterr().err


def test_unwritable_out_path_exits_2(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, _, err = run(capsys, "verify", "--inequality", "key_comparison",
                       "--n", "4", "--p", "3", "--out", str(blocker / "sub"))
    assert code == 2
    assert err.startswith("error:")


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("float division\nby zero")

    monkeypatch.setattr(cli.lemma, "verify_lemma", broken)
    code, _, err = run(capsys, "lemma", "verify", "--n", "4", "--p", "3")
    assert code == 4
    assert err == "internal error: ZeroDivisionError: float division by zero\n"


# -- repeated requests in one process ---------------------------------


def _count_parsers(monkeypatch):
    """Count every argparse.ArgumentParser built from here on."""
    built = []
    init = cli.argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counted)
    return built


def _clear_cli_caches():
    cli.build_parser.cache_clear()
    cli._config_parser.cache_clear()


def test_second_request_builds_no_parser(capsys, monkeypatch, tmp_path):
    lemma_argv = ("lemma", "verify", "--n", "4", "--p", "3.0")
    run(capsys, *lemma_argv)
    built = _count_parsers(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t-max = 2\n")
    assert run(capsys, *lemma_argv, "--config", str(cfg))[0] == 0
    assert run(capsys, "constants", "--n", "4", "--p", N4P)[0] == 0
    assert built == []


def test_cleared_parser_cache_builds_again(capsys, monkeypatch):
    run(capsys, "constants", "--n", "4", "--p", N4P)
    built = _count_parsers(monkeypatch)
    cli.build_parser.cache_clear()
    run(capsys, "constants", "--n", "4", "--p", N4P)
    # the parser and one subparser per command
    assert built.count("hypineq") == 1 and len(built) == 1 + 5


def _outputs(capsys, out_dir, requests):
    """Exit code, stdout and stderr of each request, and every artifact
    written under out_dir, by name."""
    results = [run(capsys, *argv, "--out", str(out_dir / str(i)))
               for i, argv in enumerate(requests)]
    artifacts = {str(path.relative_to(out_dir)): path.read_bytes()
                 for path in sorted(out_dir.rglob("*")) if path.is_file()}
    return results, artifacts


@pytest.mark.parametrize("bad_argv", [
    ("lemma", "verify", "--n", "four", "--p", "3.0"),
    ("sharpness", "--n", "4", "--p", N4P, "--lambdas", "0.1", "--max-iter", "5"),
    ("verify", "--inequality", "no_such_inequality", "--n", "4", "--p", "3.0"),
])
def test_request_after_usage_error_matches_a_cold_one(capsys, tmp_path, bad_argv):
    requests = [("lemma", "verify", "--n", "4", "--p", "3.0"),
                ("constants", "--n", "4", "--p", N4P, "--format", "csv"),
                ("lemma", "violate", "--n", "4", "--p", "2.5")]
    _clear_cli_caches()
    cold = _outputs(capsys, tmp_path / "cold", requests)
    with pytest.raises(SystemExit) as exc:
        cli.main(list(bad_argv))
    assert exc.value.code == 2
    capsys.readouterr()
    warm = _outputs(capsys, tmp_path / "warm", requests)
    assert [code for code, _, _ in cold[0]] == [0, 0, 0]
    assert len(cold[1]) == 5
    assert warm == cold


def test_cli_import_loads_neither_numpy_nor_mpmath():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hypineq.cli; "
            "print(sorted(m for m in ('numpy', 'mpmath') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"


# -- tracing ----------------------------------------------------------


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_counts_reports(capsys):
    # the benchmark tracer wraps package functions by name; a renamed
    # function fails here.  The corpus's closure passes invert phi by
    # Newton on log phi and find no root; a rearrangement's norm solves
    # its level sets by root finds
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    f = RadialFunction(3, (Piece(0.0, 1.0, lambda r: 1.0 - r, lambda r: -1.0),))
    tracer.install()
    try:
        code = tracer.run_job(0, lambda: cli.main(
            ["verify", "--inequality", "poincare_sobolev", "--n", "4",
             "--p", N4P]))
        roots = tracer_mod.layer_metrics(tracer, cli_jobs=True)["quadrature.root.calls"][0]
        tracer.run_job(1, lambda: rearrangement.lp_norm(
            rearrangement.decreasing_rearrangement(f, [0.0, 1.0, 2.0]), 2.0))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    metrics = tracer_mod.layer_metrics(tracer, cli_jobs=True)
    assert metrics["verifier.reports"][0] == 20
    assert metrics["quadrature.panels"][0] > 0
    assert roots == 0 and metrics["quadrature.root.calls"][0] > 0
    assert verifier.poincare_sobolev.__module__ == "hypineq.verifier"
    assert not hasattr(verifier.poincare_sobolev, "__wrapped__")

"""Input checks and numeric guards that no other test runs, one table per
module: each row's call either raises the named exception with exactly
that message, or returns the given value."""

import math
import os

import pytest

from hypineq import cli, constants, geometry, quadrature, rearrangement, sharpness, verifier
from hypineq.constants import Params
from hypineq.corpus import bump_profile, tent_profile
from hypineq.errors import BracketError, ConvergenceError, DomainError, EvaluationError
from hypineq.levels import Piece, RadialFunction, distribution_function
from hypineq.rearrangement import (RadialProfile, Tail, decreasing_rearrangement,
                                   grad_norm_hyperbolic, lp_integral)


def _check(call, want):
    if isinstance(want, Exception):
        with pytest.raises(type(want)) as info:
            call()
        assert type(info.value) is type(want)
        assert str(info.value) == str(want)
    else:
        assert call() == want


def _line(height=1.0):
    """height (1 - r) on [0, 1] in dimension 4."""
    return RadialFunction(4, [Piece(0.0, 1.0, lambda r: height * (1.0 - r),
                                    lambda r: -height)])


def _tent_closure(top):
    """The closure 1 - s on [0, 1] with its support declared to end at top."""
    return RadialProfile([0.0, 0.5, 1.0], [1.0, 0.5, 0.0], Tail("compact", top),
                         fn=lambda s: max(0.0, 1.0 - s),
                         dfn=lambda s: -1.0 if s < 1.0 else 0.0)


def _plateau_then_decay():
    """1 on [0, 2], then e^(2 - r): every node of a grid inside the plateau's
    volume reads the same value."""
    return RadialFunction(3, [
        Piece(0.0, 2.0, lambda r: 1.0, lambda r: 0.0),
        Piece(2.0, math.inf, lambda r: math.exp(2.0 - r), lambda r: -math.exp(2.0 - r))])


def _rows(*rows):
    return [pytest.param(call, want, id=name) for name, call, want in rows]


@pytest.mark.parametrize("call, want", _rows(
    ("unit-ball-dimension-0", lambda: constants.unit_ball_volume(0),
     DomainError("dimension must be an integer >= 1, got 0")),
    ("unit-ball-float-dimension", lambda: constants.unit_ball_volume(2.0),
     DomainError("dimension must be an integer >= 1, got 2.0")),
    ("gn-constant-without-alpha", lambda: constants.gn_constant(Params(4, 3.0)),
     DomainError("gn_constant needs alpha")),
))
def test_constants_checks(call, want):
    _check(call, want)


@pytest.mark.parametrize("call, want", _rows(
    ("log-sinh-at-0", lambda: geometry.log_sinh(0.0),
     DomainError("need t > 0, got 0.0")),
    ("phi-inv-negative-volume", lambda: geometry.phi_inv(3, -1.0),
     DomainError("volume must be >= 0, got -1.0")),
    ("sinh-phi-inv-negative-volume", lambda: geometry.sinh_phi_inv(3, -1.0),
     DomainError("volume must be >= 0, got -1.0")),
    ("slope-factor-below-n-3", lambda: geometry.margin_slope_factor(2, 3.0, 1.0),
     DomainError("slope factor is defined for n >= 3 only")),
    ("slope-factor-negative-radius", lambda: geometry.margin_slope_factor(3, 3.0, -1.0),
     DomainError("radius must be >= 0, got -1.0")),
    ("tail-integral-p-at-n", lambda: geometry.isoperimetric_tail_integral(3, 3.0),
     DomainError("tail integral diverges unless p > n, got n=3, p=3.0")),
    ("tail-integral-negative-r", lambda: geometry.isoperimetric_tail_integral(3, 4.0, -1.0),
     DomainError("need r >= 0, got -1.0")),
    # at n = 78, (n - 1) * (700 / (n - 1)) rounds above 700: the overflow
    # edge phi_inv's bracket once pulled in by one ulp
    ("phi-inv-edge-rounds-above-700",
     lambda: geometry.phi(78, geometry.phi_inv(78, 1e200)) == pytest.approx(1e200, rel=1e-12),
     True),
))
def test_geometry_checks(call, want):
    _check(call, want)


def _one(r):
    return 1.0


@pytest.mark.parametrize("call, want", _rows(
    ("no-pieces", lambda: RadialFunction(3, []),
     DomainError("need at least one piece")),
    ("first-piece-off-0", lambda: RadialFunction(3, [Piece(1.0, 2.0, _one, _one)]),
     DomainError("pieces must start at radius 0")),
    ("gap-between-pieces",
     lambda: RadialFunction(3, [Piece(0.0, 1.0, _one, _one), Piece(2.0, 3.0, _one, _one)]),
     DomainError("pieces must be contiguous with a < b")),
    ("piece-after-an-unbounded-one",
     lambda: RadialFunction(3, [Piece(0.0, math.inf, _one, _one),
                                Piece(math.inf, 3.0, _one, _one)]),
     DomainError("pieces must be contiguous with a < b")),
    ("level-0", lambda: distribution_function(_line(), 0.0),
     DomainError("level must be positive, got 0.0")),
    # the level pass's guard on a gradient integrand past exp's range
    ("level-pass-gradient-overflow",
     lambda: grad_norm_hyperbolic(decreasing_rearrangement(_line(1e300), [0.0, 0.1, 1.0]),
                                  4, 3.0),
     DomainError("gradient integrand overflows; looks divergent")),
))
def test_levels_checks(call, want):
    _check(call, want)


def _spike_density(ys):
    # finite at the first step's nodes, inf at the first halving's y = sinh(1/4)
    return [[math.inf if 0.1 < abs(y) < 0.4 else math.exp(-abs(y))] for y in ys]


def _rough_density(ys):
    return [[math.copysign(1.0, math.sin(50.0 * y)) * math.exp(-abs(y))] for y in ys]


@pytest.mark.parametrize("call, want", _rows(
    ("reversed-bracket",
     lambda: quadrature.find_root_increasing(lambda x: x, 0.5, (1.0, 0.0), df=_one),
     BracketError("empty bracket (1.0, 0.0)")),
    ("double-exponential-non-finite-sum",
     lambda: quadrature._double_exponential(_spike_density, [], ["spike"]),
     EvaluationError("integrand returned a non-finite value")),
    ("double-exponential-out-of-halvings",
     lambda: quadrature._double_exponential(_rough_density, [], ["rough"]),
     ConvergenceError("rough did not converge")),
))
def test_quadrature_checks(call, want):
    _check(call, want)


@pytest.mark.parametrize("call, want", _rows(
    ("power-tail-parameter-0", lambda: Tail("power", 0.0),
     DomainError("tail power needs a positive parameter")),
    ("compact-tail-end-negative", lambda: Tail("compact", -1.0),
     DomainError("compact support end must be >= 0")),
    ("grids-of-two-lengths",
     lambda: RadialProfile([0.0, 1.0, 2.0], [1.0, 0.0], Tail("compact", 2.0)),
     DomainError("profile needs matching 1-d grids with >= 2 nodes")),
    ("negative-value", lambda: RadialProfile([0.0, 1.0], [1.0, -1.0], Tail("compact", 1.0)),
     DomainError("profile values must be non-negative")),
    ("support-ends-before-last-node",
     lambda: RadialProfile([0.0, 1.0], [1.0, 0.0], Tail("compact", 0.5)),
     DomainError("compact support ends before the last node")),
    # the built-in shapes take the logs of their height and support
    ("tent-negative-height", lambda: tent_profile(-1.0, 1.0),
     DomainError("need height >= 0 and support > 0, got -1.0, 1.0")),
    ("bump-zero-support", lambda: bump_profile(1.0, 0.0),
     DomainError("need height >= 0 and support > 0, got 1.0, 0.0")),
    ("zero-height-tent", lambda: max(tent_profile(0.0, 1.0).values), 0.0),
    ("unknown-attribute", lambda: hasattr(tent_profile(1.0, 1.0), "x"), False),
    ("negative-volume", lambda: tent_profile(1.0, 1.0)(-1.0),
     DomainError("volume must be >= 0, got -1.0")),
    ("past-the-last-node-inside-the-support",
     lambda: RadialProfile([0.0, 1.0], [1.0, 0.0], Tail("compact", 2.0))(1.5), 0.0),
    ("rearrangement-negative-volume",
     lambda: decreasing_rearrangement(_line(), [0.0, 0.1, 1.0]).fn(-1.0),
     DomainError("volume must be >= 0, got -1.0")),
    ("rearrangement-grid-on-a-plateau",
     lambda: decreasing_rearrangement(_plateau_then_decay(), [0.0, 1e-3, 1e-2, 0.1, 1.0]).values,
     DomainError("cannot infer a tail from the grid")),
    ("direct-norm-q-below-1", lambda: rearrangement.lq_norm_direct(_line(), 0.5),
     DomainError("need q >= 1, got 0.5")),
    ("direct-gradient-overflow", lambda: rearrangement.grad_norm_direct(_line(1e300), 3.0),
     DomainError("radial integrand overflows; norm looks divergent")),
    ("closure-pass-gradient-overflow",
     lambda: grad_norm_hyperbolic(tent_profile(1e300, 1.0), 4, 3.0),
     DomainError("gradient integrand overflows; looks divergent")),
    # a closure whose support is declared past its last node: the pass runs
    # to the radius of the support's end, where v is already 0
    ("compact-closure-tail-past-the-last-node",
     lambda: grad_norm_hyperbolic(_tent_closure(2.0), 3, 2.0)
     == pytest.approx(grad_norm_hyperbolic(_tent_closure(1.0), 3, 2.0), rel=1e-12),
     True),
    # a mass below 1 names q, whichever pass the profile takes
    ("mass-below-1-grid", lambda: lp_integral(tent_profile(1.0, 1.0), 0.5),
     DomainError("need q >= 1, got 0.5")),
    ("mass-below-1-closure", lambda: lp_integral(bump_profile(1.0, 1.0), 0.5),
     DomainError("need q >= 1, got 0.5")),
    ("mass-below-1-rearrangement",
     lambda: lp_integral(decreasing_rearrangement(_line(), [0.0, 0.1, 1.0]), 0.5),
     DomainError("need q >= 1, got 0.5")),
))
def test_rearrangement_checks(call, want):
    _check(call, want)


_ZERO = RadialProfile([0.0, 1.0], [0.0, 0.0], Tail("compact", 1.0))


@pytest.mark.parametrize("call, want", _rows(
    ("gn-out-of-range",
     lambda: verifier.gagliardo_nirenberg(tent_profile(1.0, 1.0), 3, 2.5, 1.5),
     DomainError("gagliardo_nirenberg needs n >= 4 and 2n/(n-1) <= p < n, got n=3, p=2.5")),
    ("gn-alpha-p-below-1",
     lambda: verifier.gagliardo_nirenberg(tent_profile(1.0, 1.0), 5, 3.0, 0.2),
     DomainError("gagliardo_nirenberg needs alpha*p >= 1, got alpha=0.2, p=3.0")),
    ("log-sobolev-out-of-range", lambda: verifier.log_sobolev(tent_profile(1.0, 1.0), 3, 2.5),
     DomainError("log_sobolev needs n >= 4 and 2n/(n-1) <= p < n, got n=3, p=2.5")),
    ("log-sobolev-zero-profile", lambda: verifier.log_sobolev(_ZERO, 4, 3.0),
     DomainError("log_sobolev needs a nonzero profile")),
    ("mugelli-talenti-p-at-n",
     lambda: verifier.mugelli_talenti_sum(tent_profile(1.0, 1.0), 3, 3.0),
     DomainError("mugelli_talenti_sum needs 1 <= p < n, got n=3, p=3.0")),
    ("linfty-p-at-n", lambda: verifier.linfty_inequality(tent_profile(1.0, 1.0), 3, 3.0),
     DomainError("linfty_inequality needs p > n, got n=3, p=3.0")),
    ("extremal-p-at-n", lambda: verifier.extremal_linfty_profile(3, 3.0),
     DomainError("extremal profile needs p > n, got n=3, p=3.0")),
    ("extremal-slope-at-0", lambda: verifier.extremal_linfty_profile(3, 4.5).dfn(0.0),
     -math.inf),
    ("rayleigh-p-at-n", lambda: verifier.euclidean_rayleigh_ratio(tent_profile(1.0, 1.0), 3, 3.0),
     DomainError("need 1 < p < n, got n=3, p=3.0")),
    ("rayleigh-zero-profile", lambda: verifier.euclidean_rayleigh_ratio(_ZERO, 3, 2.0),
     DomainError("zero profile has no Rayleigh ratio")),
    ("unknown-inequality", lambda: verifier.evaluate("nope", tent_profile(1.0, 1.0), 3, 2.0),
     DomainError("unknown inequality 'nope'")),
))
def test_verifier_checks(call, want):
    _check(call, want)


def _at(v, s):
    return v.fn(s), v.dfn(s)


@pytest.mark.parametrize("call, want", _rows(
    # the cutoff of the truncated bubble: v and v' are 0 at s = T and past it
    ("cutoff-at-1", lambda: _at(sharpness.truncated_bubble(4, 2.5, 1.0, 10.0), 10.0),
     (0.0, 0.0)),
    ("cutoff-past-1", lambda: _at(sharpness.truncated_bubble(4, 2.5, 1.0, 10.0), 20.0),
     (0.0, 0.0)),
    # v' ~ -C s^(e-1) with e = 5/12: singular at 0, as the sup-norm extremal's
    ("bubble-slope-at-0", lambda: sharpness.untruncated_bubble(4, 2.5, 1.0).dfn(0.0),
     -math.inf),
    ("truncated-bubble-p-at-n", lambda: sharpness.truncated_bubble(3, 3.0, 1.0, 10.0),
     DomainError("bubble needs 1 < p < n, got n=3, p=3.0")),
    ("truncated-bubble-slope-at-T",
     lambda: sharpness.truncated_bubble(4, 2.5, 1.0, 10.0).dfn(10.0), 0.0),
))
def test_sharpness_checks(call, want):
    _check(call, want)


def test_cli_failure_paths(tmp_path, capsys):
    # a write that fails leaves no temporary file behind
    (tmp_path / "taken").mkdir()
    with pytest.raises(IsADirectoryError):
        cli._write_atomic(str(tmp_path / "taken"), "text")
    assert os.listdir(tmp_path) == ["taken"]
    # --config ahead of an unknown command leaves the command to argparse
    with pytest.raises(SystemExit) as info:
        cli.main(["bogus", "--config", str(tmp_path / "absent.cfg")])
    assert info.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err

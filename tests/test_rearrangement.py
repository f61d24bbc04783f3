import collections
import dataclasses
import functools
import itertools
import math
import os
import random
import re
import time
import weakref

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypineq import geometry, levels, quadrature, rearrangement, verifier
from hypineq.constants import unit_ball_volume
from hypineq.corpus import bubble_corpus, standard_corpus, tent_profile, write_corpus
from hypineq.errors import ConvergenceError, DomainError
from hypineq.quadrature import find_root_increasing, integrate
from hypineq.rearrangement import (
    Piece,
    RadialFunction,
    RadialProfile,
    Tail,
    decreasing_rearrangement,
    distribution_function,
    grad_norm_direct,
    grad_norm_euclidean,
    grad_norm_hyperbolic,
    key_comparison,
    lp_integral,
    lp_norm,
    lq_norm_direct,
    radial_integrals,
    read_profile,
    write_profile,
)
from hypineq.sharpness import truncated_bubble, untruncated_bubble
from oracles import hardy_term_bound, scale_profile, tolerances


def _bump_function(n=3):
    """Non-monotone radial function: rises linearly to 1 at radius 1,
    then decays exponentially."""
    rise = Piece(0.0, 1.0, lambda r: r, lambda r: 1.0)
    fall = Piece(1.0, math.inf, lambda r: math.exp(-2.0 * (r - 1.0)),
                 lambda r: -2.0 * math.exp(-2.0 * (r - 1.0)))
    return RadialFunction(n, (rise, fall))


def _shell_function(n=3):
    """Radial function rising from 0.2 at the centre to a flat maximum 1
    at radius 0.8, then falling off like a Gaussian in the radius."""
    r1 = 0.8
    return RadialFunction(n, (
        Piece(0.0, r1, lambda r: 0.2 + 0.8 * (r / r1) * (2.0 - r / r1),
              lambda r: 1.6 * (1.0 - r / r1) / r1),
        Piece(r1, math.inf, lambda r: math.exp(-3.0 * (r - r1) ** 2),
              lambda r: -6.0 * (r - r1) * math.exp(-3.0 * (r - r1) ** 2))))


def _plateau_function(n=4):
    """Radial function rising linearly from 0.3, flat at 1 on the annulus
    0.5 < r < 1, then decaying exponentially."""
    return RadialFunction(n, (
        Piece(0.0, 0.5, lambda r: 0.3 + 1.4 * r, lambda r: 1.4),
        Piece(0.5, 1.0, lambda r: 1.0, lambda r: 0.0),
        Piece(1.0, math.inf, lambda r: math.exp(-4.0 * (r - 1.0)),
              lambda r: -4.0 * math.exp(-4.0 * (r - 1.0)))))


def _rise_decay_function(n=4):
    """Radial function rising linearly to 1.1 at radius 0.9, then decaying
    exponentially."""
    return RadialFunction(n, (
        Piece(0.0, 0.9, lambda r: 1.1 * r / 0.9, lambda r: 1.1 / 0.9),
        Piece(0.9, math.inf, lambda r: 1.1 * math.exp(-4.6 * (r - 0.9)),
              lambda r: -4.6 * 1.1 * math.exp(-4.6 * (r - 0.9)))))


def _rise_function(n):
    """Radial function rising linearly to 1 at radius 1, then decaying at
    the rate 1.2 (n - 1) + 1, so that its L^1.5 mass converges at n = 8:
    the rearrange benchmark's rise shape at its centre."""
    k = 1.2 * (n - 1) + 1.0
    return RadialFunction(n, (
        Piece(0.0, 1.0, lambda r: r, lambda r: 1.0),
        Piece(1.0, math.inf, lambda r: math.exp(-k * (r - 1.0)),
              lambda r: -k * math.exp(-k * (r - 1.0)))))


def _low_plateau_function(n, h=1e-14):
    """Radial function falling linearly from 1 to h at radius 1, flat at h
    out to radius 30, then falling off sharply: mu jumps at the level h,
    and is nearly flat in tau at low levels above it."""
    return RadialFunction(n, (
        Piece(0.0, 1.0, lambda r: 1.0 - (1.0 - h) * r, lambda r: h - 1.0),
        Piece(1.0, 30.0, lambda r: h, lambda r: 0.0),
        Piece(30.0, math.inf, lambda r: h * math.exp(-100.0 * (r - 30.0)),
              lambda r: -100.0 * h * math.exp(-100.0 * (r - 30.0)))))


# (a, A, r1, w) of _compact_shell_function; the rearrange benchmark's
# shell shape at its centre
_COMPACT_SHELL = (0.2, 1.0, 0.75, 0.7)


def _compact_shell_function(n=2, shape=_COMPACT_SHELL):
    """Radial function rising from a at the centre to A at radius r1, then
    falling as A (1 - x^2)^2, x = (r - r1) / w, to 0 at r1 + w, where it
    ends flat; its crossing radii are closed-form."""
    a, A, r1, w = shape
    return RadialFunction(n, (
        Piece(0.0, r1, lambda r: a + (A - a) * (r / r1) ** 2,
              lambda r: 2.0 * (A - a) * r / r1 ** 2),
        Piece(r1, r1 + w, lambda r: A * (1.0 - ((r - r1) / w) ** 2) ** 2,
              lambda r: -4.0 * A * (1.0 - ((r - r1) / w) ** 2) * (r - r1) / w ** 2),
        Piece(r1 + w, math.inf, lambda r: 0.0, lambda r: 0.0)))


def _rearranged(f, num=80):
    top = distribution_function(f, 1e-6)
    grid = np.insert(np.geomspace(top * 1e-10, top, num), 0, 0.0)
    return decreasing_rearrangement(f, grid)


# -- profiles -------------------------------------------------------


def test_profile_validation():
    with pytest.raises(DomainError):
        RadialProfile([0.0, 1.0], [1.0, 2.0], Tail("compact", 1.0))  # increasing
    with pytest.raises(DomainError):
        RadialProfile([0.5, 1.0], [1.0, 0.0], Tail("compact", 1.0))  # no 0 start
    with pytest.raises(DomainError):
        RadialProfile([0.0, 1.0], [1.0, 0.5], Tail("compact", 1.0))  # not zero at end
    with pytest.raises(DomainError):
        Tail("weird", 1.0)
    with pytest.raises(DomainError):
        RadialProfile([0.0, 1.0], [1.0, 0.0], Tail("compact", 1.0),
                      fn=lambda s: 0.7,
                      dfn=lambda s: 0.0)  # closure disagrees at last node
    with pytest.raises(DomainError):
        RadialProfile([0.0, 1.0], [1.0, 0.0], Tail("compact", 1.0),
                      fn=lambda s: 1.0 - s)  # closure without its derivative
    with pytest.raises(DomainError):
        RadialProfile([0.0, 1.0], [1.0, 0.0], Tail("compact", 1.0),
                      dfn=lambda s: -1.0)  # derivative without its closure


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_profile_rejects_non_finite_input(bad):
    # a nan compares false to everything, so each ordering check passes it
    for nodes, values in [([0.0, bad, 2.0], [1.0, 0.5, 0.0]),
                          ([0.0, 1.0, 2.0], [1.0, bad, 0.0]),
                          ([0.0, 1.0, 2.0], [bad, 0.5, 0.0])]:
        with pytest.raises(DomainError, match="finite"):
            RadialProfile(nodes, values, Tail("compact", 2.0))
    for kind in ("compact", "power", "exponential"):
        with pytest.raises(DomainError, match="finite"):
            Tail(kind, bad)


def test_tent_lp_integral_exact():
    A, b, p = 2.0, 3.0, 2.5
    v = tent_profile(A, b)
    val, err = lp_integral(v, p)
    assert val == pytest.approx(A ** p * b / (p + 1.0), rel=1e-11)


def test_tent_euclidean_gradient_exact():
    n, p, A, b = 4, 8.0 / 3.0, 1.5, 2.0
    v = tent_profile(A, b)
    sigma = unit_ball_volume(n)
    w = (n * sigma ** (1.0 / n)) ** p
    expo = p * (n - 1.0) / n
    exact = w * (A / b) ** p * b ** (expo + 1.0) / (expo + 1.0)
    val, _ = grad_norm_euclidean(v, n, p)
    assert val == pytest.approx(exact, rel=1e-10)


def test_hyperbolic_gradient_dominates_euclidean():
    # the hyperbolic weight sinh(phi_inv(x))^(p(n-1)) is at least the
    # Euclidean x^(p(n-1)/n), on the tents and on closures with
    # exponential, power and bubble tails
    for v in (tent_profile(1.0, 1.0), tent_profile(2.0, 3.0), *standard_corpus()):
        for n, p in [(4, 8.0 / 3.0), (2, 2.0)]:
            hyp, _ = grad_norm_hyperbolic(v, n, p)
            euc, _ = grad_norm_euclidean(v, n, p)
            assert hyp >= euc, (v.label, n, p)


def test_joins_lie_inside_the_support_and_are_carried():
    v = truncated_bubble(4, 3.0, 0.2, 1.5)
    assert v.joins == (0.75,)
    assert dataclasses.replace(v).joins == scale_profile(v, 2.0).joins == v.joins
    for joins in [(0.0,), (1.5,), (math.nan,)]:
        with pytest.raises(DomainError):
            dataclasses.replace(v, joins=joins)


def test_lp_norm_is_root_of_integral():
    v = tent_profile(1.0, 2.0)
    val, _ = lp_integral(v, 3.0)
    assert lp_norm(v, 3.0) == pytest.approx(val ** (1.0 / 3.0), rel=1e-12)


def test_scale_profile_norms():
    v = tent_profile(1.0, 2.0)
    w = scale_profile(v, 3.0)
    a, _ = lp_integral(v, 2.0)
    b, _ = lp_integral(w, 2.0)
    assert b == pytest.approx(9.0 * a, rel=1e-12)
    with pytest.raises(DomainError):
        scale_profile(v, -1.0)


# -- rearrangement --------------------------------------------------


def test_distribution_function_analytic():
    f = _bump_function(3)
    sigma = unit_ball_volume(3)
    for level in (0.2, 0.5, 0.9):
        # superlevel set is the shell r in (level, 1 + ln(1/level)/2)
        r1 = level
        r2 = 1.0 + 0.5 * math.log(1.0 / level)
        ref = sigma * (geometry.phi(3, r2) - geometry.phi(3, r1))
        assert distribution_function(f, level) == pytest.approx(ref, rel=1e-9)


def test_distribution_function_monotone():
    f = _bump_function(3)
    vals = [distribution_function(f, t) for t in (0.05, 0.2, 0.5, 0.8, 0.99)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_equimeasurability():
    f = _bump_function(3)
    v = _rearranged(f)
    for q in (2.0, 3.0, 4.5):
        direct = lq_norm_direct(f, q)
        via_profile = lp_norm(v, q)
        assert via_profile == pytest.approx(direct, rel=1e-9), q


def test_rearrangement_is_nonincreasing_with_closure():
    f = _bump_function(3)
    v = _rearranged(f)
    assert v.fn is not None and v.dfn is not None
    ss = np.geomspace(1e-8, distribution_function(f, 1e-6), 60)
    vals = [v(float(s)) for s in ss]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_polya_szego():
    # symmetrization does not increase the gradient norm
    f = _bump_function(3)
    v = _rearranged(f)
    direct = grad_norm_direct(f, 3.0)
    sym, err = grad_norm_hyperbolic(v, 3, 3.0)
    assert sym <= direct * (1.0 + 1e-6)
    # the drop is genuine here (the rising inner slope of the shell
    # disappears under symmetrization) but bounded
    assert sym > 0.1 * direct


def _reference_level(f, s):
    """v(s) by bisection in log tau over the full level range, without the
    grid bracket, the coarea slope or a Newton step."""
    lo, hi = math.log(f.sup_value * 1e-30), math.log(f.sup_value)
    for _ in range(60):  # halves the width 69 to below the rounding of log tau
        mid = 0.5 * (lo + hi)
        if distribution_function(f, math.exp(mid)) > s:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


def test_closure_matches_reference_solve():
    for f in (_bump_function(3), _shell_function(3)):
        v = _rearranged(f)
        nodes = [float(s) for s in v.nodes[1:]]
        mids = [0.5 * (a + b) for a, b in zip(nodes, nodes[1:])]
        near = [s * (1.0 + d) for s in nodes for d in (-4e-16, 4e-16)]
        beyond = [nodes[-1] * k for k in (1.5, 3.0)]
        # flat top: neighbouring node levels that agree to 1e-10
        flat = [0.5 * (a + b) for a, b, la, lb in zip(nodes, nodes[1:], v.values[1:],
                                                     v.values[2:])
                if la - lb <= 1e-10 * la]
        if f.pieces[0].fn(0.0) > 0.0:
            assert flat  # the shell has a flat top
        for s in nodes + mids + near + beyond + flat:
            assert v(s) == pytest.approx(_reference_level(f, s), rel=1e-12), s


def test_shell_rearrangement_at_n6():
    # the first node lies 6e-14 below the shell's maximum, where mu is a
    # difference of volumes with no digits left and only the coarea slope
    # tells a node solve when to stop; n = 3, 4 and 5 pass on the same
    # grids
    f = _shell_function(6)
    for num in (40, 41, 60, 80):
        v = _rearranged(f, num)
        for s in v.nodes[1:]:
            assert v(s) == pytest.approx(_reference_level(f, s), rel=1e-12), (num, s)


def _lone_node(f, s, max_iter=200):
    """v(s) solved alone, as each grid node was before the nodes ran in
    lockstep: find_root_increasing on mu(tau) = s over (eps, fmax) from
    the regula falsi point, one single-level _level_sets call per
    iteration."""
    fmax = f.sup_value
    eps = fmax * 1e-30

    def level(tau):
        return levels._level_sets(f, (tau,))[0]

    m_eps = level(eps)[0]
    if m_eps <= s:
        return 0.0
    return find_root_increasing(
        lambda tau: -level(tau)[0], -s, (eps, fmax),
        df=lambda tau: math.exp(level(tau)[1]), max_iter=max_iter,
        x0=eps + (fmax - eps) * (m_eps - s) / m_eps, ends=(-m_eps, -0.0))


def _compact_shell_level(n, s):
    """(v(s), c) for _compact_shell_function(n): the level whose closed-form
    crossing radii enclose volume s, bisected to the last bit, and the
    radius c where it crosses the falling piece."""
    a, A, r1, w = _COMPACT_SHELL
    sigma = unit_ball_volume(n)

    def outer(tau):
        return r1 + w * math.sqrt(1.0 - math.sqrt(tau / A))

    def mu(tau):
        inner = geometry.phi(n, r1 * math.sqrt((tau - a) / (A - a))) if tau > a else 0.0
        return sigma * (geometry.phi(n, outer(tau)) - inner)

    lo, hi = 0.0, A
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mu(mid) > s else (lo, mid)
    return lo, outer(lo)


def test_batched_nodes_match_lone_solves():
    # the grid's nodes run in lockstep, each round's levels in one
    # _level_sets call, and each node matches its lone solve.  Where the
    # compact shell's falling piece ends flat, a crossing radius c is only
    # good to the root tolerance, which moves the level by
    # _ROOT_REL_TOL c |f'(c)| / f(c) relative (up to 8e-10 at the bottom
    # node); there batch and lone solve differ by up to 2.4e-10, and the
    # node is checked against the closed-form radii within that bound
    a, A, r1, w = _COMPACT_SHELL
    worst_lone = worst_flat = 0.0
    cases = [(make(n), False) for n in (3, 4, 5) for make in (
        _bump_function, _rise_decay_function, _plateau_function, _shell_function)]
    cases += [(_compact_shell_function(n), True) for n in (2, 3, 4, 5)]
    flat_nodes = 0
    for f, compact in cases:
        v = _rearranged(f, num=40)
        lone = itertools.accumulate((_lone_node(f, s) for s in v.nodes), min)
        for s, got, want in zip(v.nodes, v.values, lone):
            bound = 0.0
            if compact:
                exact, c = _compact_shell_level(f.n, s)
                x = (c - r1) / w
                bound = quadrature._ROOT_REL_TOL * c * 4.0 * x / (w * (1.0 - x * x))
            if bound > 1e-12:
                flat_nodes += 1
                assert abs(got - exact) <= bound * exact, (f.n, s, got, exact)
                worst_flat = max(worst_flat, abs(got - exact) / (bound * exact))
            else:
                miss = abs(got - want) / want if want else got
                assert miss <= 1e-12, (f.n, s, got, want)
                worst_lone = max(worst_lone, miss)
    assert flat_nodes == 6, flat_nodes
    print(f"worst miss of a lone solve {worst_lone:.2e} relative; of a flat-end "
          f"node, {worst_flat:.2f} of its bound")


def test_node_solve_piece_evaluations():
    # a ratchet on the evaluations of f's pieces over the grid's node
    # solves, which run at the first read of the values: 14,528 in
    # lockstep (34,100 when each node was solved alone, then once more for
    # its level set)
    calls = [0]

    def counted(g):
        def h(r):
            calls[0] += 1
            return g(r)
        return h

    total = 0
    for f in (_bump_function(3), _shell_function(3)):
        top = distribution_function(f, 1e-6)
        grid = np.insert(np.geomspace(top * 1e-10, top, 80), 0, 0.0)
        g = RadialFunction(3, [Piece(pc.a, pc.b, counted(pc.fn), pc.dfn) for pc in f.pieces])
        v = decreasing_rearrangement(g, grid)
        calls[0] = 0
        v.values
        total += calls[0]
    assert 0 < total <= 14528


def test_node_solve_rounds_and_levels(monkeypatch):
    # a ratchet on the node solves' work over the rearrange benchmark's
    # rise and shell shapes at n = 2..6, each on its 12-node geometric
    # grid: the _level_sets rounds and levels the first read of its values
    # evaluates, its table among them (350 rounds and 1,705 levels when
    # each node started from the regula falsi point on the whole level
    # range and stepped in tau).  Each node matches its lone solve within
    # what the two solves' stop tests leave: 1e-13 s / |mu'| each from the
    # residual test, 1e-13 tau each from the bracket or the Newton
    # correction, and 4 ulps.  Where the compact shell's falling piece
    # ends flat, mu itself moves the level by more
    # (test_batched_nodes_match_lone_solves), and the node is checked
    # against the closed-form radii instead
    a, A, r1, w = _COMPACT_SHELL
    tol = quadrature._ROOT_REL_TOL
    rounds = n_levels = flat_nodes = 0
    level_sets = levels._level_sets

    def counted(f, taus):
        nonlocal rounds, n_levels
        rounds += 1
        n_levels += len(taus)
        return level_sets(f, taus)

    worst = 0.0
    for make in (_rise_function, _compact_shell_function):
        for n in range(2, 7):
            f = make(n)
            top = distribution_function(f, 1e-6)
            grid = np.insert(np.geomspace(top * 1e-10, top, 12), 0, 0.0)
            v = decreasing_rearrangement(f, grid)
            monkeypatch.setattr(levels, "_level_sets", counted)
            v.values
            monkeypatch.setattr(levels, "_level_sets", level_sets)
            lone = itertools.accumulate((_lone_node(f, s) for s in v.nodes), min)
            for s, got, want in zip(v.nodes[1:], v.values[1:], itertools.islice(lone, 1, None)):
                if make is _compact_shell_function:
                    exact, c = _compact_shell_level(n, s)
                    x = (c - r1) / w
                    flat = tol * c * 4.0 * x / (w * (1.0 - x * x))
                    if flat > 1e-12:
                        flat_nodes += 1
                        assert abs(got - exact) <= flat * exact, (n, s, got, exact)
                        continue
                (_, d), = level_sets(f, (got,))
                bound = 2.0 * tol * (s / d + got) + 4.0 * math.ulp(got)
                assert abs(got - want) <= bound, (make.__name__, n, s, got, want)
                worst = max(worst, abs(got - want) / bound)
    print(f"{rounds} rounds, {n_levels} levels; worst miss {worst:.2f} of its bound")
    assert flat_nodes == 5, flat_nodes  # each shell's bottom node
    assert 0 < rounds <= 50 and 0 < n_levels <= 622


def _level_pass_logits(monkeypatch):
    """(breakpoints, logits) of each level pass from here on, in order: the
    breakpoints the double-exponential rule receives, and the logits of the
    levels its density evaluates."""
    passes = []
    rule = quadrature._double_exponential

    def recorded(density, breaks, message):
        ys = []
        passes.append((list(breaks), ys))

        def counted(points):
            out = density(points)
            ys.extend(points)
            return out
        return rule(counted, breaks, message)

    monkeypatch.setattr(quadrature, "_double_exponential", recorded)
    return passes


def test_level_pass_levels_by_role(monkeypatch):
    # a ratchet on the levels the level pass evaluates over the rearrange
    # benchmark's rise and shell shapes at n = 2..6, each on its 12-node
    # geometric grid, one pass of both gradients and the mass at
    # p = q = 2.5: on the whole line (the rise has no breakpoint), below
    # and above the shells' one breakpoint, and between breakpoints; none
    # on a breakpoint, where a node takes 0 uncalled (40 while those
    # nodes were evaluated).  2,550 levels in all when GK15 panels took
    # them: 15 finite-segment, 65 low-end and 90 high-end panels, 225,
    # 975 and 1,350 levels
    counts = collections.Counter()
    passes = _level_pass_logits(monkeypatch)
    for make in (_rise_function, _compact_shell_function):
        for n in range(2, 7):
            f = make(n)
            top = distribution_function(f, 1e-6)
            v = decreasing_rearrangement(f, np.insert(np.geomspace(top * 1e-10, top, 12), 0, 0.0))
            radial_integrals(v, n, 2.5, qs=(2.5,), grads=("hyperbolic", "euclidean"))
    for breaks, ys in passes:
        counts.update("whole" if not breaks else "low" if y < breaks[0]
                      else "high" if y > breaks[-1] else "finite" if y not in breaks
                      else "breakpoint" for y in ys)
    print(dict(counts))
    assert len(passes) == 10 and counts["finite"] == 0
    assert counts["whole"] <= 325 and counts["low"] <= 285
    assert counts["high"] <= 265 and counts["breakpoint"] == 0


def test_shell_clusters_its_nodes_at_its_smooth_minimum(monkeypatch):
    # at n = 3, mu' goes as (tau - a)^(1/2) just above the level a = 0.2 of
    # the shell's smooth minimum at r = 0, which a plain tree on the segment
    # [logit(0.2), 0] bisected 12 levels deep (43 GK15 panels, 645 levels;
    # 17 panels, 255 levels, clustered by y = lo + (hi - lo) u^2).  Both of
    # the double-exponential rule's tails cluster their nodes at that
    # breakpoint
    f = _compact_shell_function(3)
    v = _rearranged(f, num=12)
    passes = _level_pass_logits(monkeypatch)
    value, bar = grad_norm_hyperbolic(v, 3, 2.6)
    (breaks, ys), = passes
    print(len(ys), value, bar)
    assert breaks == [pytest.approx(math.log(0.2 / 0.8), rel=1e-15)]
    assert len(ys) <= 118
    # the value and bar of the plain tree
    before, before_bar = 47.476562816763845, 1.3332826929344391e-09
    assert abs(value - before) <= bar + before_bar


@pytest.mark.parametrize("q", [1.0, 1.5])
def test_flat_piece_at_a_tiny_level_keeps_its_breakpoint(monkeypatch, q):
    # a flat piece at 1e-20 fmax, below the 2^-52 fmax at which a piece end
    # value counts as rounding: mu jumps there, so its logit stays the
    # breakpoint the double-exponential rule receives.  Without it the GK15
    # sweeps closed above the jump and missed its mass: all but 6.5e-7 of
    # the L^1 norm at n = 3, and 1.7e-4 of the L^1.5 norm
    f = _low_plateau_function(3, 1e-20)
    v = _rearranged(f)
    direct = lq_norm_direct(f, q)
    passes = _level_pass_logits(monkeypatch)
    got = lp_norm(v, q)
    assert passes[0][0] == [pytest.approx(math.log(1e-20), rel=1e-15)]
    assert abs(got - direct) <= 1e-9 * direct


@pytest.mark.parametrize("n,before", [
    (2, [(10.707981717564968, 1.4793150123480916e-10),
         (7.330250063986747, 8.151023028606705e-11),
         (2.2228003057254058, 1.826696508431114e-11)]),
    (3, [(45.46175199665346, 1.760880478145148e-09),
         (24.316645276933233, 8.02213927461569e-10),
         (4.16980478968605, 3.394135774269902e-11)]),
    (5, [(248.61955567868154, 9.754753881887545e-09),
         (101.73843250971605, 3.2694897060703877e-09),
         (9.071165495465252, 6.656725795077324e-11)]),
])
def test_rounding_level_end_value_is_no_breakpoint(monkeypatch, n, before):
    # r1 + w - r1 rounds below w at (r1, w) = (0.75, 0.65), so the quartic
    # ends at 2.0e-31 rather than 0.  That continuous end value took a
    # breakpoint at y = -70.7, far below where the low-end GK15 sweep from
    # logit(0.2) closed (28, 54 and 36 level-pass panels at n = 2, 3, 5;
    # 17 each without it); the double-exponential rule receives logit(0.2)
    # alone.  before: both gradients and the L^2.5 mass with that
    # breakpoint, with their bars
    f = _compact_shell_function(n, (0.2, 1.0, 0.75, 0.65))
    assert 0.0 < f.ends[1][1] < 1e-30
    v = _rearranged(f, num=12)
    passes = _level_pass_logits(monkeypatch)
    got = radial_integrals(v, n, 2.5, qs=(2.5,), grads=("hyperbolic", "euclidean"))
    assert passes[0][0] == [pytest.approx(math.log(0.2 / 0.8), rel=1e-15)]
    for (value, bar), (want, want_bar) in zip(got, before):
        assert abs(value - want) <= bar + want_bar, (value, want)


@pytest.mark.parametrize("n", [2, 6])
def test_low_plateau_closure_agrees_with_its_nodes(n):
    # at level 1e-6 the low plateau's mu is nearly flat in tau, so levels
    # 3e-8 apart both meet the residual test: a pointwise v(s) at the last
    # node, bracketed by the node's own (level, mu, -mu'), takes that
    # level, since a fresh solve could end 3e-8 away and fail the
    # profile's closure check.  At the other nodes, the two solves meet
    # within their bracket tolerance
    f = _low_plateau_function(n)
    v = _rearranged(f, num=40)
    assert v(v.nodes[-1]) == v.values[-1]
    for s, val in zip(v.nodes, v.values):
        assert v(s) == pytest.approx(val, rel=1e-12, abs=0.0), s


def test_node_that_runs_out_of_iterations_raises(monkeypatch):
    # a round budget that runs out raises ConvergenceError at the first
    # read of the values, naming the first target left unconverged, with
    # its last iterate: a level of the last round, inside the bracket the
    # message reports, which straddles the target.  Two rounds leave the
    # bump's fourth node first; without it, the fifth
    f = _bump_function(3)
    top = distribution_function(f, 1e-6)
    grid = [float(s) for s in np.insert(np.geomspace(top * 1e-10, top, 12), 0, 0.0)]
    rounds = []
    level_sets = levels._level_sets

    def recorded(g, taus):
        rounds.append(list(taus))
        return level_sets(g, taus)

    monkeypatch.setattr(levels, "_level_sets", recorded)
    monkeypatch.setattr(quadrature, "_ROOT_MAX_ITER", 2)
    for first, nodes in ((3, grid), (4, grid[:3] + grid[4:])):
        rounds.clear()
        v = decreasing_rearrangement(f, nodes)
        assert not rounds  # construction solves nothing
        with pytest.raises(ConvergenceError, match="did not converge in 2 rounds") as exc:
            v.values
        s = grid[first]
        assert str(exc.value).startswith(f"node solve for volume {s!r} ")
        assert len(rounds) == 3  # the table, then two rounds
        lo, hi = map(float, re.search(r"bracket \((\S+), (\S+)\)", str(exc.value)).groups())
        assert exc.value.partial in rounds[-1]
        assert lo <= exc.value.partial <= hi
        (m_lo, _), (m_hi, _) = level_sets(f, (lo, hi))
        assert m_lo > s >= m_hi


def _counted_level_sets(monkeypatch):
    """The levels of each _level_sets call from here on, in order."""
    calls = []
    level_sets = levels._level_sets

    def counted(f, taus):
        calls.append(list(taus))
        return level_sets(f, taus)

    monkeypatch.setattr(levels, "_level_sets", counted)
    return calls


def test_a_norm_of_a_rearrangement_solves_no_grid(monkeypatch):
    # a rearrangement solves nothing until its grid is read, and each norm
    # evaluates exactly the levels of the level pass over its source
    f = _bump_function(3)
    top = distribution_function(f, 1e-6)
    grid = np.insert(np.geomspace(top * 1e-10, top, 12), 0, 0.0)
    calls = _counted_level_sets(monkeypatch)
    # each norm, and the level pass it takes: lp_integral's at n = 2
    for norm, n, qs, grads in ((grad_norm_hyperbolic, 3, (), ("hyperbolic",)),
                               (grad_norm_euclidean, 3, (), ("euclidean",)),
                               (lambda v, n, p: lp_integral(v, p), 2, (2.5,), ())):
        v = decreasing_rearrangement(f, grid)
        assert not calls
        got = norm(v, 3, 2.5)
        taken = calls[:]
        calls.clear()
        assert got == levels.level_integrals(f, n, 2.5, qs, grads, False)[0]
        assert calls == taken, grads
        calls.clear()


def test_rearrangement_grid_on_first_read():
    # the values and tail a rearrangement solves on their first read are
    # the lockstep node solve's from the level table, whatever reads them
    # first: a norm, a pointwise value, or the grid itself
    f = _bump_function(3)
    top = distribution_function(f, 1e-6)
    grid = [float(s) for s in np.insert(np.geomspace(top * 1e-10, top, 12), 0, 0.0)]
    table = levels.level_table(f)
    want = [0.0 if tau == table[0][0] else tau for tau, _, _ in
            itertools.accumulate(levels.node_levels(f, grid, table), min)]
    first = decreasing_rearrangement(f, grid)
    assert list(first.values) == want and first.tail.kind == "power"
    after_norm = decreasing_rearrangement(f, grid)
    grad_norm_hyperbolic(after_norm, 3, 2.5)
    after_point = decreasing_rearrangement(f, grid)
    s = grid[5] * 1.5
    assert after_point(s) == first(s) and after_point.derivative(s) == first.derivative(s)
    for v in (after_norm, after_point):
        assert v.values == first.values and v.tail == first.tail


def test_rearrangement_compares_copies_and_writes(tmp_path):
    # equality, dataclasses.replace, repr and the file round trip read a
    # fresh rearrangement's grid as they read any profile's
    f = _bump_function(3)
    v = _rearranged(f, num=12)
    assert dataclasses.replace(v) == v
    w = _rearranged(f, num=12)
    assert "values=(" in repr(w)
    u = dataclasses.replace(w, label="bump")
    assert (u.values, u.tail, u.source, u.label) == (v.values, v.tail, f, "bump")
    path = str(tmp_path / "bump.txt")
    write_profile(path, _rearranged(f, num=12))
    back = read_profile(path)
    assert (back.nodes, back.values, back.tail) == (v.nodes, v.values, v.tail)


@pytest.mark.parametrize("grid, message", [
    ([0.0], ">= 2 nodes"),
    ([0.0, math.nan], "must be finite"),
    ([1.0, 2.0], "start at s = 0"),
    ([0.0, 2.0, 1.0], "strictly increasing"),
])
def test_malformed_rearrangement_grid_raises_at_construction(monkeypatch, grid, message):
    calls = _counted_level_sets(monkeypatch)
    with pytest.raises(DomainError, match=message):
        decreasing_rearrangement(_bump_function(3), grid)
    assert not calls


@pytest.mark.parametrize("grad, n, p", [
    ("hyperbolic", 6, 2.0), ("hyperbolic", 8, 2.0), ("hyperbolic", 8, 3.0),
    ("hyperbolic", 5, 1.5), ("euclidean", 8, 2.0),
])
def test_divergent_gradient_of_a_rearrangement_is_named(grad, n, p):
    # the density of these divergent gradients (FOUND 96's among them)
    # still rises where the low tail meets phi's overflow edge, so the
    # level pass names the divergence, raised from that edge's error.  No
    # grid is solved, so no tail fitted to it takes part
    norm = grad_norm_hyperbolic if grad == "hyperbolic" else grad_norm_euclidean
    v = _rearranged(_bump_function(n))
    with pytest.raises(DomainError, match=f"(?i){grad} gradient integral diverges at "
                                          "the low end of the level range") as exc:
        norm(v, n, p)
    assert isinstance(exc.value.__cause__, DomainError)
    assert "overflows" in str(exc.value.__cause__)
    assert "values" not in vars(v) and "tail" not in vars(v)


def test_rearrangement_scalars_come_from_its_source(monkeypatch):
    # sup_value and support_volume of a rearrangement are its source's,
    # read with no grid solved.  For the bump (1 - r^2)^2 on [0, 1] at
    # n = 3 the support volume is sigma phi(1); the grid topped at
    # mu(1e-6) fits a power tail, whose infinite support made
    # morrey_sobolev read outside-range
    bump = Piece(0.0, 1.0, lambda r: (1.0 - r * r) ** 2, lambda r: -4.0 * r * (1.0 - r * r))
    zero = Piece(1.0, math.inf, lambda r: 0.0, lambda r: 0.0)
    f = RadialFunction(3, (bump,))
    top = distribution_function(f, 1e-6)
    v = decreasing_rearrangement(f, [0.0, *quadrature.geomspace(1e-6 * top, top, 40)])
    calls = _counted_level_sets(monkeypatch)
    support = unit_ball_volume(3) * geometry.phi(3, 1.0)
    assert v.sup_value == 1.0 and v.support_volume == support == 5.110932705708288
    assert not calls and "values" not in vars(v) and "tail" not in vars(v)
    rep = verifier.morrey_sobolev(v, 3, 4.0)
    assert not rep.flags and rep.extras["support_volume"] == support and rep.passes()
    assert v.tail.kind == "power"
    # a piece where f is 0 adds no volume, and a positive unbounded one
    # makes the support infinite
    assert RadialFunction(3, (bump, zero)).support_volume == support
    assert math.isinf(_bump_function(3).support_volume)
    assert math.isinf(_rearranged(_bump_function(3), num=12).support_volume)


def test_support_volume_ends_at_a_piece_zero():
    # a piece that reaches 0 inside its span counts only up to its zero,
    # or from it: max(0, 1 - r) on [0, 2) at n = 3 has support sigma phi(1)
    # (the whole span read 73.16743276921112), and a rise from 0 at r = 0.5
    # then a fall to 0 at r = 2 inside [1, 3) has sigma (phi(2) - phi(0.5))
    sigma = unit_ball_volume(3)
    down = Piece(0.0, 2.0, lambda r: max(0.0, 1.0 - r), lambda r: -1.0 if r < 1.0 else 0.0)
    assert RadialFunction(3, (down,)).support_volume == sigma * geometry.phi(3, 1.0) \
        == 5.110932705708288
    shell = RadialFunction(3, (
        Piece(0.0, 1.0, lambda r: max(0.0, 2.0 * r - 1.0), lambda r: 2.0 if r > 0.5 else 0.0),
        Piece(1.0, 3.0, lambda r: max(0.0, 2.0 - r), lambda r: -1.0 if r < 2.0 else 0.0)))
    assert shell.support_volume == sigma * (geometry.phi(3, 2.0) - geometry.phi(3, 0.5))
    rep = verifier.morrey_sobolev(_rearranged(shell), 3, 4.0)
    assert rep.extras["support_volume"] == shell.support_volume and rep.passes()


def test_closure_is_pure():
    # the value at s does not depend on which values were asked for before
    v = _rearranged(_bump_function(3))
    ss = [float(s) for s in np.geomspace(1e-9, 3.0 * v.nodes[-1], 40)]
    forward = [(v(s), v.derivative(s)) for s in ss]
    order = random.Random(7).sample(range(len(ss)), len(ss))
    shuffled = {i: (v(ss[i]), v.derivative(ss[i])) for i in order}
    assert all(forward[i] == shuffled[i] for i in range(len(ss)))


def test_plateau_rearrangement():
    # f constant on an annulus leaves a flat stretch at the top of v
    plateau = _plateau_function(4)
    v = _rearranged(plateau, num=12)
    assert math.isfinite(lp_norm(v, 2.5))
    assert math.isfinite(grad_norm_hyperbolic(v, 4, 2.5)[0])
    # two plateaus: f crosses no level between them, so mu' = 0 there (its
    # log -inf) and Newton falls back to bisection; v jumps from 1 to 0.5
    # at V1
    steps = RadialFunction(3, (
        Piece(0.0, 0.6, lambda r: 1.0, lambda r: 0.0),
        Piece(0.6, 1.2, lambda r: 0.5, lambda r: 0.0),
        Piece(1.2, math.inf, lambda r: 0.5 * math.exp(-2.0 * (r - 1.2)),
              lambda r: -math.exp(-2.0 * (r - 1.2)))))
    assert levels._level_sets(steps, (0.7,)) == [
        (distribution_function(steps, 0.7), -math.inf)]
    w = _rearranged(steps, num=12)
    sigma = unit_ball_volume(3)
    v1, v2 = sigma * geometry.phi(3, 0.6), sigma * geometry.phi(3, 1.2)
    for s in (0.5 * v1, 0.99 * v1):
        assert w(s) == pytest.approx(1.0, rel=1e-12)
    for s in (1.01 * v1, 0.5 * (v1 + v2), 0.99 * v2):
        assert w(s) == pytest.approx(0.5, rel=1e-12)


def test_tail_that_levels_off_above_zero_raises():
    # an unbounded last piece must decay to 0; one that levels off at 0.5
    # stays above the level 0.3 out to radius 1e6, where _piece_roots stops
    # its march, so the superlevel set has no finite outer radius
    f = RadialFunction(3, (Piece(0.0, math.inf, lambda r: 0.5 + 0.5 * math.exp(-r),
                                 lambda r: -0.5 * math.exp(-r)),))
    with pytest.raises(DomainError, match="superlevel set appears unbounded"):
        distribution_function(f, 0.3)


def test_level_set_is_empty_at_the_maximum():
    # no piece exceeds sup_value, so mu(sup_value) = 0, which
    # decreasing_rearrangement takes as its top end without a solve; no
    # piece crosses that level either, so -mu' is 0 and its log -inf
    plateau = _plateau_function(4)
    for f in (_bump_function(3), _shell_function(6), plateau):
        assert levels._level_sets(f, (f.sup_value,)) == [(0.0, -math.inf)]


def test_plateau_gradient_vanishes_on_the_flat_stretch():
    # the plateau at the top of f is a jump of mu, which v crosses with
    # v' = 0; the reference is the gradient integral in s with v' set to
    # 0 on that stretch [0, sigma (phi(1) - phi(0.5))]
    n, p = 4, 2.5
    f = _plateau_function(n)
    v = _rearranged(f, num=12)
    sigma = unit_ball_volume(n)
    flat = sigma * (geometry.phi(n, 1.0) - geometry.phi(n, 0.5))
    assert v.derivative(0.5 * flat) == 0.0

    def integrand(s):
        if s <= flat:
            return 0.0
        return abs(v.derivative(s)) ** p * geometry.sinh_phi_inv(n, s / sigma) ** (p * (n - 1))

    ref = (n * sigma) ** p * integrate(integrand, 0.0, math.inf, v.nodes + (flat,))[0]
    hyp, _ = grad_norm_hyperbolic(v, n, p)
    assert hyp == pytest.approx(ref, rel=1e-9)
    assert hyp < grad_norm_direct(f, p)


def test_closure_level_set_passes(monkeypatch):
    # level-set passes per closure call over one lp_norm (the plain
    # secant over the full level range took about 22); without its source
    # the rearrangement takes the closure path
    v = dataclasses.replace(_rearranged(_bump_function(3)), source=None)
    passes, calls = [0], [0]
    level_sets = levels._level_sets

    def counted_level_sets(f, taus):
        passes[0] += 1
        return level_sets(f, taus)

    def counted_v(s):
        calls[0] += 1
        return v.fn(s)

    monkeypatch.setattr(levels, "_level_sets", counted_level_sets)
    lp_norm(dataclasses.replace(v, fn=counted_v), 2.0)
    assert calls[0] > 100
    assert 0 < passes[0] <= 8 * calls[0]


def test_rearranged_closure_solves_each_node_once(monkeypatch):
    # an integrand takes v'(s) and v(s) at the same s; with one solve per
    # node, gradient and mass together cost about what the costlier of
    # the two costs alone (twice that when v' solved v(s) again); without
    # its source the rearrangement takes the closure path
    v = dataclasses.replace(_rearranged(_bump_function(3), num=11), source=None)
    finds = [0]
    level_sets = levels._level_sets

    def counted(f, taus):
        finds[0] += 1
        return level_sets(f, taus)

    monkeypatch.setattr(levels, "_level_sets", counted)
    counts = []
    for kwargs in (dict(qs=(2.5,)), dict(), dict(qs=(2.5,), grads=())):
        # a fresh copy each time: a pass over v itself would read the
        # closure logs the previous pass kept and solve nothing
        finds[0] = 0
        radial_integrals(dataclasses.replace(v), 3, 2.5, **kwargs)
        counts.append(finds[0])
    both, grad, mass = counts
    assert min(grad, mass) > 0
    assert both <= 1.1 * max(grad, mass)


def test_level_set_evaluates_no_piece_end_twice():
    # a root find starts from the end values _level_sets already holds (the
    # piece's, or the last two of the march on the unbounded piece), so no
    # level evaluates a piece twice at one radius (199 evaluations over
    # these 19 levels)
    calls = []

    def recorded(g):
        def h(r):
            calls.append(r)
            return g(r)
        return h

    shell = _shell_function()
    f = RadialFunction(3, [Piece(pc.a, pc.b, recorded(pc.fn), pc.dfn)
                           for pc in shell.pieces])
    total = 0
    for k in range(1, 20):
        calls.clear()
        levels._level_sets(f, (k / 20.0,))
        assert len(calls) == len(set(calls)), k
        total += len(calls)
    assert total <= 210


def _panel_levels(lo, hi):
    """The 15 nodes of a GK15 panel on [lo, hi], in quadrature's order."""
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return [c] + [c + s * h * x for x in quadrature._XGK[:7] for s in (-1.0, 1.0)]


def test_panel_level_sets_match_lone_levels():
    # a panel's levels are solved in level order, each bracketed by its
    # neighbour's radius; every (mu, -mu') matches the level solved alone
    plateau = _plateau_function(4)
    rise_decay = _rise_decay_function(4)
    panels = []
    for n in (3, 4, 5):
        # levels at a panel's nodes: an interior panel, and one of the low
        # end of the level range near level 1e-77
        f = _bump_function(n)
        panels += [(f, _panel_levels(0.05, 0.95)),
                   (f, [math.exp(y) for y in _panel_levels(-178.0, -176.0)])]
    for f in (_shell_function(3), plateau, rise_decay):
        top = f.sup_value
        panels += [(f, [top * x for x in _panel_levels(0.0, 1.0)]),
                   (f, [top * math.exp(y) for y in _panel_levels(-20.0, -18.0)])]
        # the piece end values as levels, and two levels closer together
        # than the root tolerance
        taus = [top * x for x in _panel_levels(0.0, 1.0)]
        ends = sorted({x for pair in f.ends for x in pair if x > 0.0})
        taus[:len(ends)] = ends
        taus[-1] = taus[-2] * (1.0 + 2e-14)
        panels.append((f, taus))
    # a level between the first level the shell's rising piece crosses
    # and the piece's value at the radius found for it, which is then past
    # the level (the other levels lie below the piece)
    shell = _shell_function(3)
    pc, (va, vb) = shell.pieces[0], shell.ends[0]
    for t in (k / 1000.0 for k in range(201, 1000)):
        (c,) = levels._piece_roots(pc, va, vb, [t])
        past = t + 0.5 * (pc.fn(c) - t)
        if t < past < pc.fn(c):
            panels.append((shell, _panel_levels(0.01, 0.19)[:13] + [past, t]))
            break
    assert len(panels) == 16
    for f, taus in panels:
        assert len(taus) == 15
        for t, got in zip(taus, levels._level_sets(f, taus)):
            (want,) = levels._level_sets(f, (t,))
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (f.n, t)


def test_level_pass_piece_evaluations():
    # a ratchet on the evaluations of f's pieces over one norm in the level
    # (10,221 when each level was solved alone, 2,002 in level order, 1,615
    # when the panel tree worked in the level itself, not its logit, 956
    # when every sweep panel had the fixed width 2, 485 under GK15 panels)
    calls = [0]

    def counted(g):
        def h(r):
            calls[0] += 1
            return g(r)
        return h

    bump = _bump_function(3)
    v = _rearranged(RadialFunction(3, [Piece(pc.a, pc.b, counted(pc.fn), pc.dfn)
                                       for pc in bump.pieces]))
    calls[0] = 0
    lp_norm(v, 2.0)
    assert 0 < calls[0] <= 243


def test_level_pass_level_set_calls(monkeypatch):
    # one level per quadrature node in the level: the first step's walk
    # takes one _level_sets call a round, for every end still open, and
    # each halving of the step one call for all its new nodes (the closure
    # path made 7,088 one-level calls for the same norm, the panel tree in
    # the level itself 720 levels, GK15 sweeps in its logit 420 while every
    # panel had the fixed width 2, and 210 in 14 calls of 15 levels)
    v = _rearranged(_bump_function(3))
    sizes = []
    level_sets = levels._level_sets

    def counted_level_sets(f, taus):
        sizes.append(len(taus))
        return level_sets(f, taus)

    monkeypatch.setattr(levels, "_level_sets", counted_level_sets)
    lp_norm(v, 2.0)
    print(sizes)
    # the centre, two walking ends, then halvings of 2^k times the first
    # step's intervals
    assert sizes[:2] == [1, 2] and sizes[-1] == 2 * sizes[-2]
    assert len(sizes) <= 13 and 0 < sum(sizes) <= 73


@pytest.mark.parametrize("n,p", [(3, 3.0), (4, 8.0 / 3.0), (2, 2.0)])
@pytest.mark.parametrize("make", [_bump_function, _shell_function])
def test_level_pass_matches_closure_pass(make, n, p):
    # every component in the level against the closure pass in geodesic
    # radius, which the same profile without its source takes
    v = _rearranged(make(3))
    kwargs = dict(qs=(p, 2.5), grads=("hyperbolic", "euclidean"), entropy=True)
    level = radial_integrals(v, n, p, **kwargs)
    closure = radial_integrals(dataclasses.replace(v, source=None), n, p, **kwargs)
    for (got, _), (want, _) in zip(level, closure):
        assert got == pytest.approx(want, rel=1e-9)


def test_level_pass_gradient_of_a_compact_shell():
    # the crossing radii of this shell are closed-form, so mpmath's
    # tanh-sinh rule gives the gradient integral in the level independently;
    # the closure path missed it by 9e-10, outside its 6e-11 bar
    n, p, a, A, r1, w = 2, 2.3, *_COMPACT_SHELL
    shell = _compact_shell_function(n)
    top = distribution_function(shell, 1e-6)
    v = decreasing_rearrangement(shell, np.insert(np.geomspace(top * 1e-10, top, 12), 0, 0.0))

    def integrand(tau):
        # mu = pi phi(r_out) - pi phi(r_in), phi(t) = 2 (cosh t - 1) at n = 2
        x = mp.sqrt(1 - mp.sqrt(tau / A))
        mu, dmu = 2 * (mp.cosh(r1 + w * x) - 1), -w * mp.sinh(r1 + w * x) / (
            2 * x * mp.sqrt(tau * A))
        if tau > a:
            r_in = r1 * mp.sqrt((tau - a) / (A - a))
            mu -= 2 * (mp.cosh(r_in) - 1)
            dmu -= mp.sinh(r_in) * r1 / mp.sqrt((tau - a) * (A - a))
        # (n sigma)^p |mu'|^(1-p) sinh(phi_inv(mu))^p, sinh phi_inv(x) = sqrt(x + x^2/4)
        return (2 * mp.pi) ** p * abs(mp.pi * dmu) ** (1 - p) * (mu + mu * mu / 4) ** (p / 2)

    with mp.workdps(30):
        ref = float(mp.quad(integrand, [0, a, A]))
    assert grad_norm_hyperbolic(v, n, p)[0] == pytest.approx(ref, rel=1e-12)


def _phi_closed_form(n, t):
    """phi(n, t) = n times the integral of sinh^(n-1) over [0, t], at 5 and 8."""
    if n == 5:
        return 5 * (mp.sinh(4 * t) / 32 - mp.sinh(2 * t) / 4 + 3 * t / 8)
    c = mp.cosh(t)
    return 8 * (c ** 7 / 7 - 3 * c ** 5 / 5 + c ** 3 - c + mp.mpf(16) / 35)


@pytest.mark.parametrize("make,n,decay,rise,ref", [
    (_bump_function, 5, 2, lambda tau: (tau, 1), "1062.43638985553885"),
    (_plateau_function, 8, 4,
     lambda tau: ((tau - mp.mpf(0.3)) / mp.mpf(1.4), mp.mpf(1.4)) if tau > 0.3 else None,
     "4956.66820014958250")], ids=["bump-5", "plateau-8"])
def test_euclidean_gradient_against_mpmath_coarea(make, n, decay, rise, ref):
    # both crossing radii of these shapes are closed-form, the rise's
    # (radius and |f'|) and 1 - log(tau) / decay on the exponential fall,
    # so mpmath gives the Euclidean gradient at p = 1.5 over the level,
    # n sigma |mu'/(n sigma)|^(1-p) (mu / sigma)^(p(n-1)/n) in tau = e^-u,
    # independently.  While the coarea slope overflowed at tiny levels and
    # read as a jump, the level pass dropped weight there:
    # 1062.4363898337647 +- 1.9e-8 (1.15 bars off) and
    # 4956.6681890998325 +- 4.9e-7 (22.8 bars off)
    p = 1.5

    def integrand(u):
        tau, r_out = mp.exp(-u), 1 + u / decay
        area = mp.sinh(r_out) ** (n - 1) / (decay * tau)
        vol = _phi_closed_form(n, r_out)
        inner = rise(tau)
        if inner and inner[0] > 0:
            area += mp.sinh(inner[0]) ** (n - 1) / inner[1]
            vol -= _phi_closed_form(n, inner[0])
        return n * sigma * area ** (1 - p) * vol ** (mp.mpf(p) * (n - 1) / n) * tau

    with mp.workdps(30):
        sigma = mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2 + 1)
        got = float(mp.quad(integrand, [0, -mp.log(mp.mpf(0.3)), 10, 100, mp.inf]))
    assert got == pytest.approx(float(ref), rel=1e-15)
    value, bar = grad_norm_euclidean(_rearranged(make(n)), n, p)
    assert abs(value - got) <= bar, (value, bar, got)


def test_plateau_equimeasurability():
    # a plateau is a jump of mu, whose flat stretch the level pass weighs
    # exactly; the closure path missed the direct norm by 4.5e-9 here
    a, c, r1, r2, k = (0.2970386123427028, 0.9732210656019374, 0.49485780602200446,
                       0.9479412589143916, 5.336761884668362)
    plateau = RadialFunction(5, (
        Piece(0.0, r1, lambda r: a + (c - a) * r / r1, lambda r: (c - a) / r1),
        Piece(r1, r2, lambda r: c, lambda r: 0.0),
        Piece(r2, math.inf, lambda r: c * math.exp(-k * (r - r2)),
              lambda r: -k * c * math.exp(-k * (r - r2)))))
    top = distribution_function(plateau, 1e-6 * plateau.sup_value)
    v = decreasing_rearrangement(plateau, np.insert(np.geomspace(top * 1e-10, top, 12), 0, 0.0))
    q = 2.5079721955068357
    direct = lq_norm_direct(plateau, q)
    assert abs(lp_norm(v, q) - direct) <= 1e-12 * direct


@pytest.mark.parametrize("n", [2, 4, 6, 8])
@pytest.mark.parametrize("shape", ["rise", "shell", "low plateau"])
def test_level_pass_holds_both_ends_of_the_level_range(shape, n):
    # the rise-then-decay function's mu grows like a power of 1/tau at
    # level 0 and its top is a kink; the quartic shell ends flat at 0 and
    # meets its top with a vanishing slope on one side; the low plateau's
    # mu jumps at a level 1e-14 of fmax and carries most of the mass at
    # q 1.5
    makes = {"rise": _rise_function, "shell": _compact_shell_function,
             "low plateau": _low_plateau_function}
    f = makes[shape](n)
    v = _rearranged(f)
    for q in (1.5, 4.0):
        direct = lq_norm_direct(f, q)
        assert abs(lp_norm(v, q) - direct) <= 1e-11 * direct, q


@pytest.mark.parametrize("n,q", [(3, 1.1), (4, 1.55)])
def test_near_critical_mass_keeps_its_tail(n, q):
    # mu grows like tau^(-(n-1)/2) at level 0, so q just above (n-1)/2 puts
    # much of the mass at tiny levels; the closure path cut them off
    f = _bump_function(n)
    direct = lq_norm_direct(f, q)
    assert lp_norm(_rearranged(f), q) == pytest.approx(direct, rel=1e-9)


@pytest.mark.parametrize("n", [6, 8])
def test_mass_of_a_rearrangement_ignores_its_fitted_tail(n):
    # a grid topped at level 0.1 ends on the low plateau's slope, and the
    # power tail fitted to its last decade decays too slowly for L^1.5
    # (like s^-0.95 at n = 6, s^-0.80 at n = 8); the level pass integrates
    # the source itself, whose mass is finite
    f = _low_plateau_function(n)
    top = distribution_function(f, 0.1)
    v = decreasing_rearrangement(f, np.insert(np.geomspace(top * 1e-10, top, 40), 0, 0.0))
    assert v.tail.kind == "power" and not 1.5 * v.tail.param > 1.0
    direct = lq_norm_direct(f, 1.5) ** 1.5
    assert abs(lp_integral(v, 1.5)[0] - direct) <= 1e-11 * direct


def test_slow_tail_mass_lies_within_its_bar():
    # at n = 4 the L^1.55 mass of the bump decays like e^(0.05 y) at the
    # low end of the level range, until phi overflows near y = -466: the
    # low tail closes at that edge with the geometric rest past it added
    # to the value and the bar.  The GK15 sweep stopped at y = -461 on two
    # small panels and added nothing: 491.765872569004 with a bar of
    # 3.6e-9, 13.9 bars below the direct mass
    f = _bump_function(4)
    value, bar = lp_integral(_rearranged(f), 1.55)
    direct = lq_norm_direct(f, 1.55) ** 1.55
    assert abs(value - direct) <= bar, (value, bar, direct)


def test_barely_convergent_mass_raises():
    # the level pass reaches phi's overflow edge before the tail is small
    with pytest.raises(DomainError):
        lp_integral(_rearranged(_bump_function(5)), 2.05)


@pytest.mark.parametrize("make,n,q", [
    (_bump_function, 6, 2.0), (_plateau_function, 5, 1.0),
    (_rise_decay_function, 6, 1.0), (_plateau_function, 8, 1.5)])
def test_divergent_mass_raises(make, n, q):
    # mu grows like tau^-(n-1)/k at level 0 for the decay rate k, so the
    # L^q mass diverges for q <= (n-1)/k.  At (n, q) = (5, 1.0) and (6, 1.0)
    # the low tail's first-step walk lands past where tau rounds to 0, and
    # the bisection toward that edge meets phi's overflow first.  The
    # density still rises at the edge, so the level pass names the
    # divergence, raised from phi's DomainError
    with pytest.raises(DomainError, match=re.escape(f"L^{q:g} integral diverges at the low end")
                       ) as exc:
        lp_integral(_rearranged(make(n)), q)
    assert "overflows" in str(exc.value.__cause__)


@pytest.mark.parametrize("norm, make, n, p, name", [
    (lambda v, n, p: lp_integral(v, p), _bump_function, 3, 1.0, "L^1 integral"),
    (lambda v, n, p: lp_integral(v, p), _plateau_function, 7, 1.5, "L^1.5 integral"),
    (lambda v, n, p: lp_integral(v, p), _bump_function, 4, 1.5, "L^1.5 integral"),
    (grad_norm_hyperbolic, _bump_function, 4, 1.5, "hyperbolic gradient integral"),
    (grad_norm_euclidean, _bump_function, 8, 2.5, "Euclidean gradient integral"),
], ids=["bump-3-mass-1", "plateau-7-mass-1.5", "bump-4-mass-1.5", "bump-4-hyperbolic-1.5",
        "bump-8-euclidean-2.5"])
def test_unsettled_low_tail_is_named(norm, make, n, p, name):
    # the first four are exactly critical, their density in y flat where
    # the low tail meets phi's overflow edge; the last converges, but 9.6e-9
    # of it lies past that edge.  None settles and none rises there, so
    # the level pass names the integral, raised from phi's DomainError
    with pytest.raises(DomainError, match=re.escape(
            f"{name} diverges or converges too slowly at the low end of the level range")
            ) as exc:
        norm(_rearranged(make(n)), n, p)
    assert "overflows double precision" in str(exc.value.__cause__)


def _cusp_function(c, n):
    """c (1 - sqrt r) out to radius 1, then 0: its rearrangement is
    itself, and its hyperbolic gradient is finite for p < 2n, where the
    level integrand decays like e^(-(2n - p) y) as tau -> fmax."""
    return RadialFunction(n, (
        Piece(0.0, 1.0, lambda r: c * (1.0 - math.sqrt(r)),
              lambda r: -0.5 * c / math.sqrt(r) if r > 0.0 else -math.inf),
        Piece(1.0, math.inf, lambda r: 0.0, lambda r: 0.0)))


def test_level_sweep_raises_at_the_top_of_the_level_range():
    # the gradient of 0.1 (1 - sqrt r) at n = 3 converges for p < 6; at
    # p = 5.8 its integrand decays like e^(-0.2 y) as tau -> fmax, and the
    # rest past the top edge of the level range is far above the floor
    with pytest.raises(ConvergenceError, match="end of the level range"):
        grad_norm_hyperbolic(_rearranged(_cusp_function(0.1, 3)), 3, 5.8)


@pytest.mark.parametrize("c,n,p", [(0.05, 2, 3.8), (0.5, 4, 7.6)])
def test_level_pass_fails_fast_on_a_cusp_top(c, n, p):
    # both gradients converge, but decay like e^(-0.2 y) and e^(-0.4 y) as
    # tau -> fmax, where mu has no digits past y = 30 (ROADMAP item 5):
    # the level pass raises at that edge.  GK15 sweeps spent 6.9 and 0.28 s
    # of CPU on a shared 2-vCPU host bisecting mu's noise near fmax before
    # they raised
    v = _rearranged(_cusp_function(c, n))
    start = time.process_time()
    with pytest.raises(ConvergenceError, match="end of the level range"):
        grad_norm_hyperbolic(v, n, p)
    assert time.process_time() - start < 0.5


@pytest.mark.parametrize("c,n,p,before,before_bar", [
    (0.3, 4, 6.5, 0.0001341133099972997, 6.11112408757931e-13),
    (0.05, 3, 5.0, 2.6307344714721506e-07, 1.8565703239822157e-14)])
def test_converging_cusp_tops_keep_their_values(c, n, p, before, before_bar):
    # before: the value and bar under GK15 panel trees and sweeps
    value, bar = grad_norm_hyperbolic(_rearranged(_cusp_function(c, n)), n, p)
    assert abs(value - before) <= bar + before_bar, (value, bar)


def test_scale_profile_keeps_a_rearrangement_on_the_level_path():
    v = _rearranged(_bump_function(3))
    w = scale_profile(v, 3.0)
    assert w.source is not None
    q, p = 2.5, 3.0
    assert lp_integral(w, q)[0] == pytest.approx(3.0 ** q * lp_integral(v, q)[0], rel=1e-12)
    assert grad_norm_hyperbolic(w, 3, p)[0] == pytest.approx(
        3.0 ** p * grad_norm_hyperbolic(v, 3, p)[0], rel=1e-12)
    zero = scale_profile(v, 0.0)
    assert lp_norm(zero, q) == 0.0
    assert grad_norm_hyperbolic(zero, 3, p)[0] == 0.0
    assert grad_norm_euclidean(zero, 3, p)[0] == 0.0


def test_rearrangement_tail_inference_compact():
    supp = 2.0
    tent = RadialFunction(3, (Piece(0.0, supp,
                                    lambda r: max(0.0, 1.0 - r / supp),
                                    lambda r: -1.0 / supp),
                              Piece(supp, math.inf, lambda r: 0.0, lambda r: 0.0)))
    vol = unit_ball_volume(3) * geometry.phi(3, supp)
    grid = np.linspace(0.0, vol, 40)
    v = decreasing_rearrangement(tent, grid)
    assert v.tail.kind == "compact"


# -- weighted bound -------------------------------------------------


def test_hardy_window_bound_holds():
    v = tent_profile(1.0, 1.0)
    lhs, rhs, err = hardy_term_bound(v, 3.0)
    assert lhs >= rhs - err
    assert 0.0 < err <= 1e-9 * lhs


def test_hardy_bound_holds_on_read_back_tent(tmp_path):
    # a file drops the closures; the grid-only profile is linear between
    # nodes, so both sides match the closure profile's
    v = tent_profile(1.5, 2.0)
    path = str(tmp_path / "tent.txt")
    write_profile(path, v)
    w = read_profile(path)
    assert w.fn is None and w.dfn is None
    lhs, rhs, err = hardy_term_bound(w, 3.0)
    assert lhs >= rhs - err
    ref_lhs, ref_rhs, ref_err = hardy_term_bound(v, 3.0)
    assert abs(lhs - ref_lhs) <= err + ref_err
    assert abs(rhs - ref_rhs) <= err + ref_err
    assert err + ref_err <= 1e-9 * lhs


def test_hardy_identity_at_p2_on_read_back_corpus(tmp_path):
    # at p = 2 the bound is an identity; a grid-only profile must keep it,
    # which needs v' to be the derivative of the piecewise-linear v(s)
    compact = [w for w in map(read_profile, write_corpus(str(tmp_path)))
               if w.tail.kind == "compact"]
    assert len(compact) == 12
    for w in compact:
        lhs, rhs, err = hardy_term_bound(w, 2.0)
        assert rhs == pytest.approx(lhs, rel=1e-12), w.label
        # the bar, K15 - G7 gaps plus 4096 eps of the sums, is no looser
        # than the tolerance
        assert err <= 1e-11 * lhs, w.label


def test_hardy_error_covers_the_p2_identity(tmp_path):
    # at p = 2 lhs = rhs exactly; the error must cover what the computed
    # sides miss it by (1.3e-15 on the read-back truncated-bubble-l0.05-T1,
    # against K15 - G7 gaps of 5.7e-18)
    files = map(read_profile, write_corpus(str(tmp_path)))
    compact = [v for v in (*files, *standard_corpus()) if v.tail.kind == "compact"]
    assert len(compact) == 24
    for v in compact:
        lhs, rhs, err = hardy_term_bound(v, 2.0)
        assert abs(lhs - rhs) <= err, v.label
    # and stays far below a real gap: 6.4e-3 at p = 3 on a tent
    tent = next(v for v in compact if v.label == "tent-A0.5-b1")
    lhs, rhs, err = hardy_term_bound(tent, 3.0)
    assert lhs - rhs > 1e6 * err


def test_grid_derivative_is_segment_slope():
    v = RadialProfile([0.0, 1.0, 3.0, 4.0], [5.0, 3.0, 2.0, 0.0],
                      Tail("compact", 4.0))
    assert [v.derivative(s) for s in (0.0, 0.5, 1.0, 2.0, 3.0, 4.0)] == \
        [-2.0, -2.0, -0.5, -0.5, -2.0, -2.0]
    assert v.derivative(5.0) == 0.0


def test_hardy_equality_on_power_profile():
    # v = s^(-1/p) on the window makes the substituted function constant
    p = 2.5

    def fn(s):
        return 1.0 if s <= 1.0 else s ** (-1.0 / p)

    def dfn(s):
        return 0.0 if s <= 1.0 else (-1.0 / p) * s ** (-1.0 / p - 1.0)

    grid = np.insert(np.geomspace(1e-3, 50.0, 60), 0, 0.0)
    v = RadialProfile(grid, [fn(float(s)) for s in grid],
                      Tail("power", 1.0 / p), fn=fn, dfn=dfn)
    lhs, rhs, err = hardy_term_bound(v, p, window=(2.0, 10.0))
    assert lhs == pytest.approx(rhs, rel=1e-8)
    assert err <= 1e-8 * lhs


# -- comparison -----------------------------------------------------


# -- the one-pass integrals in geodesic radius ------------------------

# rel_tol 1e-13 as tight as double allows; abs_tol 1e-300 would not
# converge where an integrand loses digits near s = 0 (log v where
# v(0) = 1), so the floor is 1e-15
# (every integral below is above 1e-6)
_TIGHT = (1e-13, 1e-15)
_COMPONENTS = ("hyperbolic", "euclidean")


def _s_space(v, n, p, qs):
    """The components of radial_integrals with grads=_COMPONENTS and
    entropy, each integrated on its own in the volume s at the tight
    tolerance."""
    sigma = unit_ball_volume(n)
    pref = (n * sigma) ** p

    def integral(f):
        with tolerances(*_TIGHT):
            return integrate(f, 0.0, v.support_volume, v.nodes)[0]

    def gradient(log_weight):
        def f(s):
            dv = abs(v.derivative(s))
            if dv == 0.0 or s == 0.0:
                return 0.0
            return math.exp(p * math.log(dv) + log_weight(s))
        return pref * integral(f)

    def entropy(s):
        val = v(s)
        return val ** p * p * math.log(val) if val > 0.0 else 0.0

    return ([gradient(lambda s: p * (n - 1) * math.log(
                geometry.sinh_phi_inv(n, s / sigma))),
             gradient(lambda s: p * (n - 1) / n * math.log(s / sigma))]
            + [integral(lambda s, q=q: v(s) ** q) for q in qs]
            + [integral(entropy)])


_NINE = ("tent-A0.5-b1", "tent-A5-b0.5", "bump-A0.7-b0.8", "quad-A1-b6",
         "exp-A0.5-a4", "sech-A1-a1", "power-k2",
         "truncated-bubble-l0.3-T2", "truncated-bubble-l0.05-T1")
_CORPUS = {v.label: v for v in standard_corpus()}


@functools.lru_cache(maxsize=None)
def _reference(label, n, p):
    """_s_space of a corpus profile at the two masses q = p and q = p*."""
    return _s_space(_CORPUS[label], n, p, (p, n * p / (n - p)))


@pytest.mark.parametrize("n,p", [(4, 3.0), (6, 4.2)])
def test_radial_pass_matches_s_space_integrals(n, p):
    qs = (p, n * p / (n - p))
    for label in _NINE:
        got = radial_integrals(_CORPUS[label], n, p, qs=qs, grads=_COMPONENTS,
                               entropy=True)
        for (val, _), ref in zip(got, _reference(label, n, p)):
            assert val == pytest.approx(ref, rel=1e-8), label


@pytest.mark.parametrize("n,p", [(4, 3.0), (6, 4.2)])
@pytest.mark.parametrize("label", _NINE)
def test_standalone_routes_match_s_space_integrals(label, n, p):
    # each route of a closure is the same pass with one component
    v = _CORPUS[label]
    _hyp, euc, mass, crit, _ent = _reference(label, n, p)
    assert grad_norm_euclidean(v, n, p)[0] == pytest.approx(euc, rel=1e-8)
    assert lp_integral(v, p)[0] == pytest.approx(mass, rel=1e-8)
    assert lp_integral(v, n * p / (n - p))[0] == pytest.approx(crit, rel=1e-8)


@pytest.mark.parametrize("grads", [("flat",), "euclidean",
                                   ("euclidean", "hyperbolic"), ("kernel", "kernel"),
                                   ("kernel",)])
def test_radial_integrals_rejects_misnamed_gradients(grads):
    # the gradient components are named in the order of the results
    with pytest.raises(DomainError):
        radial_integrals(tent_profile(1.0, 1.0), 4, 3.0, grads=grads)


def test_euclidean_pass_skips_hyperbolic_checks():
    # the untruncated bubble has a finite Euclidean gradient but a
    # divergent hyperbolic one: only a requested component is checked
    v = untruncated_bubble(4, 3.0, 1.0)
    (euc, _), = radial_integrals(v, 4, 3.0, grads=("euclidean",))
    assert euc > 0.0
    for grads in (("hyperbolic",), ("hyperbolic", "euclidean")):
        with pytest.raises(DomainError):
            radial_integrals(v, 4, 3.0, grads=grads)


@pytest.mark.parametrize("label", ["sech-A1-a1", "sech-A1.5-a2"])
def test_sech_gradient_converges_at_tiny_absolute_floor(label):
    # the sech derivative keeps its digits as s -> 0, so an s-space
    # gradient integral converges with no absolute floor to speak of
    n, p = 4, 3.0
    v = _CORPUS[label]
    sigma = unit_ball_volume(n)

    def f(s):
        dv = abs(v.derivative(s))
        if dv == 0.0 or s == 0.0:
            return 0.0
        return dv ** p * geometry.sinh_phi_inv(n, s / sigma) ** (p * (n - 1))

    with tolerances(1e-13, 1e-300):
        val, _ = integrate(f, 0.0, v.support_volume, v.nodes)
    hyp, _ = grad_norm_hyperbolic(v, n, p)
    assert (n * sigma) ** p * val == pytest.approx(hyp, rel=1e-9)


def test_radial_pass_reuses_breakpoints_of_a_grid(monkeypatch):
    calls = []
    real = geometry.phi_inv

    def counted(n, s):
        calls.append(s)
        return real(n, s)

    monkeypatch.setattr(geometry, "phi_inv", counted)
    v = tent_profile(1.0, 1.0)
    grad_norm_hyperbolic(v, 4, 3.0)
    # one per kept radius, the grid's first and last node (the last is the
    # top); inverting every node but s = 0 took 32
    assert len(calls) == len(rearrangement._breakpoints(4, v.nodes, v.joins)) == 2
    calls.clear()
    # another profile object on the same grid, with other values
    radial_integrals(tent_profile(2.5, 1.0), 4, 3.0, qs=(3.0,),
                     grads=("hyperbolic", "euclidean"))
    assert calls == []
    radial_integrals(tent_profile(2.5, 1.0), 5, 3.0)
    assert len(calls) == 2  # a new dimension is a new key


def _all_components(v, n):
    return radial_integrals(v, n, 3.0, qs=(2.0, 3.0), grads=_COMPONENTS, entropy=True)


def test_node_geometry_table_changes_no_bit():
    # every corpus profile and dimension, from an empty table and again
    # from the table the first pass filled
    for n in range(2, 7):
        for v in _CORPUS.values():
            cold = _all_components(v, n)
            assert v._panels[n]
            assert _all_components(v, n) == cold, (v.label, n)


def test_second_pass_computes_no_stored_panel(monkeypatch):
    # a concentrated profile, whose segments bisect: the table keeps the
    # bisected panels too (the panels past the first breakpoint that are
    # no segment's first), so a second pass computes no phi at all
    v = _CORPUS["truncated-bubble-l0.3-T2"]
    first = _all_components(v, 4)
    breaks = rearrangement._breakpoints(4, v.nodes, v.joins)
    firsts = {0.5 * (a + b) for a, b in zip(breaks, breaks[1:])}
    assert any(c > breaks[0] and c not in firsts for c in v._panels[4])
    calls = []
    phi = geometry.phi

    def counted(n, t):
        calls.append(t)
        return phi(n, t)

    monkeypatch.setattr(geometry, "phi", counted)
    assert _all_components(v, 4) == first
    assert calls == []
    # 2 v is another profile, with a table of its own: its first pass
    # computes phi, and its second none
    w = scale_profile(v, 2.0)
    _all_components(w, 4)
    assert calls
    calls.clear()
    _all_components(w, 4)
    assert calls == []


def test_node_geometry_keeps_the_first_panel_of_each_segment():
    for label in ("bump-A1-b1", "truncated-bubble-l0.05-T1"):
        v = _CORPUS[label]
        _all_components(v, 4)
        breaks, table = rearrangement._breakpoints(4, v.nodes, v.joins), v._panels[4]
        assert all(0.5 * (a + b) in table for a, b in zip(breaks, breaks[1:])), label
        assert len(table) <= rearrangement._GRID_PANELS


def test_node_geometry_table_is_bounded(monkeypatch):
    # each (profile, n) keeps at most _GRID_PANELS panels (the pass takes
    # 12 at n = 4, 13 at n = 5); a panel beyond the bound is computed
    # again on every pass
    v = _CORPUS["truncated-bubble-l0.3-T2"]
    full = _all_components(dataclasses.replace(v), 4)
    monkeypatch.setattr(rearrangement, "_GRID_PANELS", 8)
    assert _all_components(v, 4) == full
    assert _all_components(v, 4) == full
    _all_components(v, 5)
    assert len(v._panels[4]) == len(v._panels[5]) == 8


def test_breakpoints_keep_the_ends_every_join_and_a_bounded_ratio():
    # the first and last node radii and every join's radius are
    # breakpoints; two kept node radii more than _RHO apart are
    # neighbouring nodes, so a grid graded more coarsely keeps every node
    profiles = [*standard_corpus(), *bubble_corpus()]
    assert sum(bool(v.joins) for v in profiles) == 4
    for v in profiles:
        for n in range(2, 7):
            sigma = unit_ball_volume(n)
            radii = [geometry.phi_inv(n, s / sigma) for s in v.nodes[1:]]
            joins = [geometry.phi_inv(n, s / sigma) for s in v.joins]
            breaks = rearrangement._breakpoints(n, v.nodes, v.joins)
            assert {radii[0], radii[-1], *joins} <= set(breaks), (v.label, n)
            kept = [radii.index(t) for t in breaks if t not in joins]
            assert len(kept) + len(joins) == len(breaks)
            for i, j in zip(kept, kept[1:]):
                assert j == i + 1 or radii[j] <= rearrangement._RHO * radii[i], (v.label, n)
    coarse = (0.0, 1e-9, 1e-6, 1e-3, 1.0, 1e3)
    radii = tuple(geometry.phi_inv(2, s / unit_ball_volume(2)) for s in coarse[1:])
    assert rearrangement._breakpoints(2, coarse, ()) == radii


def _breakpoints_of_every_node_radius(n, nodes, joins):
    # the thinning run on the radii of every node s > 0, each inverted
    sigma = unit_ball_volume(n)
    radii = [geometry.phi_inv(n, s / sigma) for s in nodes if s > 0.0]
    kept = radii[:1]
    for t, after in zip(radii[1:-1], radii[2:]):
        if after > rearrangement._RHO * kept[-1]:
            kept.append(t)
    kept += radii[-1:]
    return tuple(sorted({*kept, *(geometry.phi_inv(n, j / sigma) for j in joins)}))


def test_breakpoints_thin_in_volume_as_in_radius():
    # _breakpoints inverts only the nodes it keeps, found by bisecting the
    # node volumes; it keeps the same nodes and joins as the thinning of
    # every node's radius, whose radii are the same phi_inv bit for bit.
    # The last three grids mix nodes more than _RHO apart with finer runs,
    # and keep radii from which _RHO times on lies below and beyond phi's
    # overflow edge
    profiles = [*standard_corpus(), *bubble_corpus(),
                *(truncated_bubble(4, 8.0 / 3.0, lam, 1.0) for lam in (1.0, 1e-2, 1e-4))]
    grids = [(v.label, v.nodes, v.joins) for v in profiles]
    mixed = (0.0, *(10.0 ** (e / 4) for e in range(-40, 9)), 1e3, 1e5, 1e6)
    grids += [("mixed", mixed, (2e-6, 0.5)),
              ("far", (0.0, *(math.exp(k) for k in (-5, 0, 20, 25, 30, 100, 120, 200))), ()),
              ("to-1e300", (0.0, 1e-300, 1e-200, 1e-100, 1.0, 1e100, 1e200, 1e300), ())]
    for label, nodes, joins in grids:
        for n in range(2, 7):
            assert rearrangement._breakpoints(n, nodes, joins) == \
                _breakpoints_of_every_node_radius(n, nodes, joins), (label, n)


def _counted(v, floats=False):
    """A copy of v whose closures count their calls, and the counts: fn,
    dfn and its log closure, given with them, or, with floats, fn and dfn
    alone, which the pass then reads through _float_logs."""
    calls = {"fn": 0, "dfn": 0, "logs": 0}

    def counted(name, f):
        def h(s):
            calls[name] += 1
            return f(s)
        return h

    fn, dfn = counted("fn", v.fn), counted("dfn", v.dfn)
    logs = None if floats or v._logs is None else (counted("logs", v._logs[0]), fn, dfn)
    w = dataclasses.replace(v, fn=fn, dfn=dfn, _logs=logs)
    calls.update(fn=0, dfn=0)  # the check of fn at the last grid node
    return w, calls


def _every(v, p):
    return radial_integrals(v, 4, p, qs=(p,), grads=_COMPONENTS, entropy=True)


def _added(kept, table):
    """Panels of table that kept, an earlier copy of it, did not hold."""
    return sum(c not in kept or a[-1] != kept[c][-1] for c, a in table.items())


def test_warm_pass_calls_no_closure_and_changes_no_bit():
    # a pass keeps log |v'| and log v at its panels' nodes on the profile,
    # whatever p: a pass at another p calls the log closure only at the
    # panels its tree adds (15 calls each; the truncated bubbles refine a
    # few panels at p = 3.3 that p = 3 did not), and a repeat calls none
    profiles = [v for v in standard_corpus() if v.fn is not None]
    for v in profiles + [truncated_bubble(4, 3.0, 0.2, 1.5)]:
        w, calls = _counted(v)
        _every(w, 3.0)
        table = w._panels[4]
        kept = dict(table)
        calls.update(logs=0)
        warm = _every(w, 3.3)
        added = _added(kept, table)
        assert calls == {"fn": 0, "dfn": 0, "logs": 15 * added}, v.label
        assert warm == _every(dataclasses.replace(v), 3.3), v.label
        calls.update(logs=0)
        assert _every(w, 3.3) == warm
        assert calls["logs"] == 0, v.label


_ONE_EACH = [dict(qs=(3.0,), grads=()), dict(), dict(grads=("euclidean",)),
             dict(grads=(), entropy=True)]


@pytest.mark.parametrize("first", _ONE_EACH, ids=["mass", "hyperbolic", "euclidean", "entropy"])
def test_first_pass_computes_whole_rows(first):
    # a panel's first visit computes its whole row, log phi, log sinh,
    # log |v'| and log v, whatever the pass integrates: a built-in
    # profile's log closure 15 times per row it adds and never its fn or
    # dfn, a profile of float closures fn and dfn 15 times each; a pass of
    # any other integral then calls them only at the panels its own tree
    # adds, and gives the values of a fresh profile
    bump = _CORPUS["bump-A1-b1"]
    for floats, fresh in ((False, bump), (True, dataclasses.replace(bump, _logs=None))):
        v, calls = _counted(bump, floats)
        radial_integrals(v, 4, 3.0, **first)
        table = v._panels[4]
        rows = 15 * len(table)
        assert table and calls == ({"fn": rows, "dfn": rows, "logs": 0} if floats
                                   else {"fn": 0, "dfn": 0, "logs": rows})
        for later in _ONE_EACH:
            kept = dict(table)
            calls.update(fn=0, dfn=0, logs=0)
            got = radial_integrals(v, 4, 3.0, **later)
            added = 15 * _added(kept, table)
            assert calls == ({"fn": added, "dfn": added, "logs": 0} if floats
                             else {"fn": 0, "dfn": 0, "logs": added}), later
            assert got == radial_integrals(dataclasses.replace(fresh), 4, 3.0, **later), later
    # the sup-norm extremal: its gradient pass keeps v where its mass pass
    # reads it, finite at every radius either reaches
    cold = grad_norm_hyperbolic(verifier.extremal_linfty_profile(2, 4.0), 2, 4.0)
    ex, calls = _counted(verifier.extremal_linfty_profile(2, 4.0))
    assert grad_norm_hyperbolic(ex, 2, 4.0) == cold
    assert calls == {"fn": 0, "dfn": 0, "logs": 15 * len(ex._panels[2])}
    assert abs(verifier.linfty_inequality(ex, 2, 4.0).relative_margin) < 1e-8
    assert 0.0 < lp_integral(ex, 4.0)[0] < math.inf


def test_full_table_adds_no_row(monkeypatch):
    # a full table keeps its rows as they are: a pass over it computes the
    # panels it lacks on every visit, the log closure at each of their
    # nodes, adds and changes no row, and gives a fresh profile's values
    # (the gradient pass takes 8 panels, so a cap of 6 fills)
    monkeypatch.setattr(rearrangement, "_GRID_PANELS", 6)
    key_pass = dict(qs=(3.0,), grads=("hyperbolic", "euclidean"))
    cold = radial_integrals(dataclasses.replace(_CORPUS["bump-A1-b1"]), 4, 3.0, **key_pass)
    v, calls = _counted(_CORPUS["bump-A1-b1"])
    grad_norm_hyperbolic(v, 4, 3.0)
    rows = dict(v._panels[4])
    assert len(rows) == 6
    counts = []
    for _ in range(3):
        calls.update(logs=0)
        assert radial_integrals(v, 4, 3.0, **key_pass) == cold
        assert v._panels[4] == rows
        assert calls["fn"] == calls["dfn"] == 0 < calls["logs"]
        counts.append(calls["logs"])
    assert counts[0] == counts[1] == counts[2]


def test_replace_keeps_the_log_closure():
    # dataclasses.replace of a built-in profile keeps its log closure,
    # which is not compared, hashed or printed, and integrates bit for bit
    # as the original; a profile built from its float closures alone
    # integrates within rounding of it
    for v in (_CORPUS["sech-A1-a1"], _CORPUS["truncated-bubble-l0.05-T1"],
              _CORPUS["power-k2"]):
        w = dataclasses.replace(v, label="copy")
        assert w._logs is v._logs and "_logs" not in repr(v)
        assert dataclasses.replace(v) == v and hash(dataclasses.replace(v)) == hash(v)
        got = _all_components(w, 4)
        assert got == _all_components(v, 4), v.label
        floats = _all_components(RadialProfile(v.nodes, v.values, v.tail, fn=v.fn,
                                               dfn=v.dfn, joins=v.joins), 4)
        for (a, e), (b, _) in zip(got, floats):
            assert abs(a - b) <= max(e, 1e-13 * abs(a)), v.label


def test_replace_of_a_closure_integrates_the_new_one():
    # a replace that passes another fn or dfn drops the log closure of the
    # old ones, so the pass reads the new ones: twice the bump gives 2^p
    # and 2^q times its integrals, where the kept log closure gave the
    # bump's own
    v = _CORPUS["bump-A1-b1"]
    w = dataclasses.replace(v, fn=lambda s: 2.0 * v.fn(s), dfn=lambda s: 2.0 * v.dfn(s),
                            values=[2.0 * x for x in v.values])
    assert w(0.5) == 2.0 * v(0.5) and w._logs is None
    assert dataclasses.replace(v, dfn=lambda s: v.dfn(s))._logs is None
    thinned = dataclasses.replace(v, nodes=v.nodes[:1] + v.nodes[2:],
                                  values=v.values[:1] + v.values[2:])
    assert thinned._logs is v._logs
    got, base = (radial_integrals(u, 4, 3.0, qs=(3.0,)) for u in (w, v))
    for (a, _), (b, _) in zip(got, base):
        assert a == pytest.approx(8.0 * b, rel=1e-12)


def test_closure_logs_live_and_die_with_their_profile():
    v = truncated_bubble(4, 3.0, 0.2, 1.5)
    dead = weakref.ref(v)
    verifier.evaluate("key_comparison", v, 4, 3.0)
    assert v._panels[4]
    del v
    assert dead() is None
    v = _CORPUS["bump-A1-b1"]
    before = hash(v)
    grad_norm_hyperbolic(v, 4, 3.0)
    assert v._panels[4]
    assert not dataclasses.replace(v)._panels and not scale_profile(v, 2.0)._panels
    assert v == dataclasses.replace(v) and hash(v) == before
    assert "_panels" not in repr(v)


def test_radial_pass_matches_standalone_norms_on_grid_profile(tmp_path):
    # a grid-only profile takes the standalone paths unchanged
    path = str(tmp_path / "tent.txt")
    write_profile(path, tent_profile(1.0, 2.0))
    v = read_profile(path)
    got = radial_integrals(v, 4, 3.0, qs=(2.0,), grads=_COMPONENTS)
    assert got == [grad_norm_hyperbolic(v, 4, 3.0), grad_norm_euclidean(v, 4, 3.0),
                   lp_integral(v, 2.0)]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: a grid-only gradient "
                   "reports 1e-4 relative, and misses the one pass over its own "
                   "piecewise-linear function by 5 to 414 times that")
def test_grid_only_gradient_bar_covers_its_own_function(tmp_path):
    # the reference is the one pass over the same function: a closure
    # whose values are the profile's and whose derivative is its slope,
    # with every interior node a join, so that the pass takes the kinks as
    # breakpoints and its own bar covers its error
    paths = write_corpus(str(tmp_path / "corpus"))
    cases = [(read_profile(path), 4, 3.0) for path in paths
             if os.path.basename(path) in ("tent-A1-b1.txt", "bump-A1-b4.txt",
                                           "exp-A1-a0.5.txt", "power-k3.txt")]
    for i, b in enumerate(bubble_corpus()):
        path = str(tmp_path / f"bubble{i}.txt")
        write_profile(path, b)
        cases.append((read_profile(path), 4, 8.0 / 3.0))
    assert len(cases) == 6
    misses = []
    for w, n, p in cases:
        closure = dataclasses.replace(w, fn=w, dfn=w.derivative, joins=w.nodes[1:-1])
        val, err = grad_norm_hyperbolic(w, n, p)
        ref, _ = grad_norm_hyperbolic(closure, n, p)
        if abs(val - ref) > err:
            misses.append((w.label, abs(val - ref) / err))
    assert not misses


def test_lp_integral_of_a_flat_grid_segment():
    # a level segment takes the ai == bi form of the closed-form segment
    v = RadialProfile([0.0, 1.0, 2.0], [1.0, 1.0, 0.0], Tail("compact", 2.0))
    assert lp_integral(v, 2.0) == (pytest.approx(1.0 + 1.0 / 3.0, rel=1e-15), 0.0)


def test_zero_function_rearranges_to_zero():
    f = RadialFunction(3, (Piece(0.0, math.inf, lambda r: 0.0, lambda r: 0.0),))
    v = decreasing_rearrangement(f, [0.0, 1.0, 2.0])
    assert v.values == (0.0, 0.0, 0.0) and v.fn is None
    assert v.tail == Tail("compact", 2.0)


def test_key_comparison_positive_on_tent():
    rep = key_comparison(tent_profile(1.0, 1.0), 4, 8.0 / 3.0)
    assert rep.deficit > 0.0
    assert rep.passes()


def test_key_comparison_rejects_out_of_range():
    with pytest.raises(DomainError):
        key_comparison(tent_profile(1.0, 1.0), 3, 2.0)


def test_equality_distance_vanishes_on_the_rigidity_profile():
    # w(s) = v(s) s^(1/p) is the constant c on c s^(-1/p), here capped
    # below the first positive node so that v(0) is finite
    p, c, s1 = 3.0, 2.5, 1e-6

    def fn(s):
        return c * max(s, s1) ** (-1.0 / p)

    def dfn(s):
        return 0.0 if s < s1 else (-c / p) * s ** (-1.0 / p - 1.0)

    grid = np.insert(np.geomspace(s1, 100.0, 40), 0, 0.0)
    v = RadialProfile(grid, [fn(float(s)) for s in grid],
                      Tail("power", 1.0 / p), fn=fn, dfn=dfn)
    assert rearrangement._equality_distance(v, p) <= 1e-12 * c


def test_equality_distance_is_positive_on_a_tent():
    v = tent_profile(2.0, 1.0)
    d = rearrangement._equality_distance(v, 3.0)
    assert d > 0.05 * v.sup_value
    assert key_comparison(v, 4, 3.0).extras["equality_distance"] == d


@pytest.mark.parametrize("label", ["tent-A0.5-b1", "bump-A1-b1", "exp-A0.5-a4"])
def test_equality_distance_scales_with_the_profile(label):
    v = _CORPUS[label]
    d = rearrangement._equality_distance(v, 3.0)
    assert d > 0.0
    assert rearrangement._equality_distance(scale_profile(v, 3.0), 3.0) == \
        pytest.approx(3.0 * d, rel=1e-12)


@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=0.2, max_value=4.0),
       st.floats(min_value=0.3, max_value=5.0))
def test_key_comparison_positive_random_tents(height, support):
    rep = key_comparison(tent_profile(height, support), 5, 2.5)
    assert rep.passes()


# -- serialization --------------------------------------------------


def test_profile_roundtrip(tmp_path):
    v = tent_profile(1.5, 2.0)
    path = str(tmp_path / "tent.txt")
    write_profile(path, v)
    w = read_profile(path)
    assert np.allclose(w.nodes, v.nodes)
    assert np.allclose(w.values, v.values)
    assert w.tail == v.tail


def test_profile_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("tail=compact:1\n0 1\nnot-a-number 0.5\n")
    with pytest.raises(DomainError) as e:
        read_profile(str(path))
    assert ":3" in str(e.value)


@pytest.mark.parametrize("body", ["0.5 1\n1 0\n", "0 1\n1 0.5\n", "0 1\n0.5 nan\n1 0\n"])
def test_profile_error_names_file(tmp_path, body):
    # a profile the constructor rejects (grid not starting at 0, compact
    # end above 0, a nan value) is named by its file
    path = tmp_path / "bad.txt"
    path.write_text("tail=compact:1\n" + body)
    with pytest.raises(DomainError) as e:
        read_profile(str(path))
    assert str(e.value).startswith(f"{path}: ")


def test_profile_file_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "commented.txt"
    path.write_text("# written by hand\ntail=compact:1\n\n0 1\n# midway\n1 0\n")
    v = read_profile(str(path))
    assert (v.nodes, v.values, v.label) == ((0.0, 1.0), (1.0, 0.0), "commented")


@pytest.mark.parametrize("width", [1e-12, 1e-9])
def test_lp_integral_of_a_nearly_flat_grid_segment(width):
    # a^(q+1) - b^(q+1) over a - b cancels when a and b are close
    q, b = 2.5, 1.0 - width
    v = RadialProfile([0.0, 1.0, 2.0], [1.0, b, 0.0], Tail("compact", 2.0))
    got, err = lp_integral(v, q)
    with mp.workdps(50):
        a_, b_, q_ = mp.mpf(1), mp.mpf(b), mp.mpf(q)
        want = (a_ ** (q_ + 1) - b_ ** (q_ + 1)) / ((a_ - b_) * (q_ + 1)) \
            + b_ ** q_ / (q_ + 1)
        assert abs(got - want) <= 1e-14 * want
    assert err == 0.0


def test_the_door_checks_each_integral_once(monkeypatch):
    # radial_integrals checks each exponent and the tail once, and reads p
    # only for a gradient or the entropy; no pass checks again
    checked = []
    check = rearrangement._tail_divergence_check
    monkeypatch.setattr(rearrangement, "_tail_divergence_check",
                        lambda v, decay, what: checked.append(what) or check(v, decay, what))
    v = RadialProfile([0.0, 1.0, 2.0], [1.0, 0.5, 0.25], Tail("power", 2.0))
    assert lp_integral(v, 2.0) == (pytest.approx(37.0 / 48.0, rel=1e-15), 0.0)
    assert checked == ["L^2 integral"]
    checked.clear()
    radial_integrals(v, 4, 3.0, qs=(3.0, 2.0), grads=("hyperbolic", "euclidean"))
    assert sorted(checked) == ["Euclidean gradient integral", "L^2 integral",
                               "L^3 integral", "hyperbolic gradient integral"]
    mass = radial_integrals(v, 4, 0.5, qs=(2.0,), grads=())
    assert mass == [lp_integral(v, 2.0)]
    with pytest.raises(DomainError, match=r"^need p >= 1, got 0.5$"):
        radial_integrals(v, 4, 0.5, qs=(2.0,))

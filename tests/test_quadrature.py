import dataclasses
import heapq
import math

import pytest
from hypothesis import given, settings, strategies as st

from hypineq import quadrature, verifier
from hypineq.corpus import bump_profile
from hypineq.errors import BracketError, ConvergenceError, DomainError, EvaluationError
from hypineq.quadrature import find_root_increasing, integrate, integrate_vector
from hypineq.rearrangement import radial_integrals
from oracles import tolerances


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


def test_non_finite_integrand_is_evaluation_error():
    # a NaN on the first panel, and one that only a refined panel samples
    # (the first panel's nodes all lie above 4e-3)
    for f in (lambda x: math.nan,
              lambda x: math.nan if x < 1e-3 else math.sqrt(x)):
        with pytest.raises(EvaluationError, match="non-finite"):
            integrate(f, 0.0, 1.0)


def test_degenerate_interval_is_zero():
    assert integrate(lambda x: x, 1.0, 1.0) == (0.0, 0.0)


@pytest.mark.parametrize("f, b, message", [
    # 1/x is not integrable at 0: the panel at 0 is halved 50 times
    (lambda x: 1.0 / x, 1.0, r"hit max depth 50 near \[0\.0, "),
    # 1e6 / pi periods need more panels than the budget of 4,096
    (lambda x: math.sin(1e6 * x) ** 2, 1.0,
     r"panel budget exhausted on \[0\.0, 1\.0\]"),
    # the x^-1.02 tail is still above tolerance where e^y leaves double
    # range (y = 709.78): the sweep stops there rather than overflow
    (lambda x: (1.0 + x) ** -1.02, math.inf,
     r"semi-infinite tail did not converge \(right\)"),
], ids=["depth", "panels", "tail-overflow"])
def test_budget_exits_carry_partial_sums(f, b, message):
    with pytest.raises(ConvergenceError, match=message) as info:
        integrate(f, 0.0, b)
    (partial,), (error,) = info.value.partial, info.value.error_estimate
    assert 0.0 < partial < math.inf and 0.0 < error < math.inf


def test_sweep_propagates_what_a_panel_raises():
    # past y = 32 the integrand raises: the sweep of e^-y and y e^-y
    # reaches past it and does not retry the panel, so the error
    # propagates; without the raise the same sweep meets rel 1e-11
    def g(ys, raises):
        if raises and max(ys) > 32.0:
            raise DomainError("past the end")
        return [[math.exp(-y) for y in ys], [y * math.exp(-y) for y in ys]]

    with pytest.raises(DomainError, match="past the end"):
        quadrature._sweep(lambda ys: g(ys, True), 2.0, "sweep did not converge")
    (a, b), _ = quadrature._sweep(lambda ys: g(ys, False), 2.0, "sweep did not converge")
    assert a == pytest.approx(1.0, rel=1e-11) and b == pytest.approx(1.0, rel=1e-11)


@pytest.mark.parametrize("components,panels", [
    ((lambda y: math.exp(-y), lambda y: y * math.exp(-y)), 6),
    ((lambda y: math.exp(-y),), 7),
    ((lambda y: y * math.exp(-y),), 6),
])
def test_sweep_closes_on_its_geometric_rest(monkeypatch, components, panels):
    # e^-y and y e^-y swept right from 0: once the panels' densities fall,
    # the rest at their rate is added and the sweep closes (8 panels each
    # when it closed on two panels below a quarter of the floor)
    calls = []
    gk15 = quadrature._gk15

    def counted(g, a, b):
        calls.append((a, b))
        return gk15(g, a, b)

    monkeypatch.setattr(quadrature, "_gk15", counted)
    vals, errs = quadrature._sweep(
        lambda ys: [[c(y) for y in ys] for c in components], 2.0, "sweep did not converge")
    assert len(calls) == panels
    for val, err in zip(vals, errs):
        assert val == pytest.approx(1.0, rel=1e-13) and abs(val - 1.0) <= err


def test_rising_tail_is_not_judged_before_it_decays():
    # (1 + x)^-3 under x = e^y, swept right from y = -40: its panels rise
    # from 8e-18, far below the tolerance floor, to their peak near
    # y = -0.7, so neither the rest nor two small panels may close the
    # sweep before that; the integral from e^-40 rounds to 0.5
    def g(ys):
        return [[math.exp(y) * (1.0 + math.exp(y)) ** -3 for y in ys]]

    (val,), (err,) = quadrature._sweep(g, 2.0, "sweep did not converge", y=-40.0)
    assert abs(val - 0.5) <= err


def _edged_density(tail, side):
    """A two-component density over y for the double-exponential rule, cut
    at y = 0: e^-|y|, whose integral is 2, and tail(|y|) on the side of
    the line that ends in an edge at |y| = 60, past which every evaluation
    raises (as phi's overflow ends the level pass's low tail); e^-|y|
    elsewhere."""
    def density(ys):
        if any(side * y > 60.0 for y in ys):
            raise DomainError("edge of the domain")
        return [[math.exp(-abs(y)), tail(abs(y)) if side * y > 0.0 else math.exp(-abs(y))]
                for y in ys]
    return density


@pytest.mark.parametrize("side,end", [(-1, "low"), (1, "high")])
def test_rule_names_a_density_that_rises_at_an_edge(side, end):
    # the second component still rises where its tail meets the edge: the
    # rule names that component as divergent, raised from the edge's error
    density = _edged_density(lambda x: math.exp(0.1 * x), side)
    with pytest.raises(DomainError, match=f"^rising diverges at the {end} end of the level "
                                          "range$") as exc:
        quadrature._double_exponential(density, [0.0], ["settled", "rising"])
    assert str(exc.value.__cause__) == "edge of the domain"


def test_rule_propagates_an_unsettled_edge_of_a_falling_density():
    # e^(-0.01 |y|) falls toward the edge, but its rest past y = -60 is
    # about 55, far above the floor: what the edge raised propagates
    density = _edged_density(lambda x: math.exp(-0.01 * x), -1)
    with pytest.raises(DomainError, match="^edge of the domain$"):
        quadrature._double_exponential(density, [0.0], ["settled", "slow"])
    # with a fast fall the tail closes at the edge, its rest added
    vals, errs = quadrature._double_exponential(
        _edged_density(lambda x: math.exp(-x), -1), [0.0], ["a", "b"])
    assert all(abs(v - 2.0) <= max(e, 1e-12) for v, e in zip(vals, errs))


def test_breakpoints_capture_narrow_spike():
    # a bump of width 1e-10 near 1e-9 inside [0, 1]: global adaptive
    # subdivision has no reason to sample there, forcing the node does
    center, width = 1e-9, 1e-10

    def spike(x):
        z = (x - center) / width
        return math.exp(-z * z)

    exact = math.sqrt(math.pi) * width  # erf window is fully inside
    points = [center + k * width for k in range(-8, 9)]
    val, err = integrate(spike, 0.0, 1.0, points)
    assert val == pytest.approx(exact, rel=1e-8)


def test_slow_power_tail_from_large_left_endpoint():
    # integrand ~ x^-1.6 starting at 1e6: in the substituted variable the
    # panels first rise, so the early-stop rule must wait for the decay
    val, _ = integrate(lambda x: x ** -1.6, 1e6, math.inf)
    assert val == pytest.approx(1e6 ** -0.6 / 0.6, rel=1e-8)


def test_breakpoints_left_edge_singularity():
    # first segment [0, 0.5] carries an integrable x^-1/2 singularity
    val, _ = integrate(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, [0.5])
    assert val == pytest.approx(2.0, rel=1e-9)


def test_breakpoints_outside_interval_ignored():
    val, _ = integrate(lambda x: x, 0.0, 1.0, [-3.0, 7.0])
    assert val == pytest.approx(0.5, rel=1e-13)


def test_breakpoints_with_infinite_tail():
    val, _ = integrate(lambda x: math.exp(-x), 0.0, math.inf, [0.5, 2.0])
    assert val == pytest.approx(1.0, rel=1e-10)


def _spike(x):
    z = (x - 1e-9) / 1e-10
    return math.exp(-z * z)


# The scalar panel rule, tree and sweeps that the vector ones replaced,
# kept as the reference they must repeat bit for bit on one component.
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)


def _scalar_gk15(f, a, b):
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    resk, resg = _WGK[7] * f(c), _WG[3] * f(c)
    for j in range(7):
        fsum = f(c - h * _XGK[j]) + f(c + h * _XGK[j])
        resk += _WGK[j] * fsum
        if j % 2 == 1:
            resg += _WG[j // 2] * fsum
    return resk * h, abs(resk - resg) * abs(h)


def _scalar_finite(f, a, b, rel=1e-10, abs_tol=1e-12, panels=math.inf, depth=math.inf):
    """The tree on [a, b]; None where it would bisect while holding panels
    panels, or bisect the panel at a once it is depth bisections deep."""
    val, err = _scalar_gk15(f, a, b)
    heap, total, total_err, counter = [(-err, 0, a, b, val, err)], val, err, 1
    while total_err > max(abs_tol, rel * abs(total)):
        if len(heap) >= panels:
            return None
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        if pa == a and pb - pa <= (b - a) / 2.0 ** depth:
            return None
        pm = 0.5 * (pa + pb)
        (lval, lerr), (rval, rerr) = _scalar_gk15(f, pa, pm), _scalar_gk15(f, pm, pb)
        total += (lval + rval) - pval
        total_err += (lerr + rerr) - perr
        heapq.heappush(heap, (-lerr, counter, pa, pm, lval, lerr))
        heapq.heappush(heap, (-rerr, counter + 1, pm, pb, rval, rerr))
        counter += 2
    return total, total_err


def _scalar_sweep(g, step, total=0.0, total_err=0.0):
    # every panel takes one GK15 first, accepted where its error is within
    # max(1e-12, 1e-10 |panel|, 1e-11 |running total|); one of width |step|
    # that misses falls back to the tree, a wider one is retried narrower.
    # The next width is the last times 0.9 (error / allowance)^-0.1, at
    # most 4 times it, from |step| to 8 |step|.  Once the density
    # |panel| / width falls from one accepted panel to the next, the rest
    # |panel| q / (1 - q), q = (density ratio)^(2 h / (h + previous h)),
    # closes the sweep when below 1% of max(1e-12, 1e-10 |total|), and is
    # added to the value and the error; else two panels in a row below a
    # quarter of that floor close it, with nothing added.
    small, prev, y, base = 0, None, 0.0, abs(step)
    width = base
    while small < 2:
        h = width
        lo, hi = (y, y + h) if step > 0.0 else (y - h, y)
        v, e = _scalar_gk15(g, lo, hi)
        ratio = e / max(1e-12, 1e-10 * abs(v), 0.1 * 1e-10 * abs(v + total))
        if h == base and ratio > 1.0:
            v, e = _scalar_finite(g, lo, hi)
        factor = 0.9 * ratio ** -0.1 if ratio > 0.0 else 4.0
        if h > base and ratio > 1.0:
            width = max(base, h * max(factor, 0.25))
            continue
        width = max(base, min(8.0 * base, h * min(factor, 4.0)))
        total, total_err = total + v, total_err + e
        y += h if step > 0.0 else -h
        if prev is not None:
            d, pd = abs(v) / h, prev[0] / prev[1]
            q = (d / pd) ** (2.0 * h / (h + prev[1])) if d < pd else 0.0 if not d else math.inf
            rest = v * q / (1.0 - q) if q < 1.0 else math.inf
            if abs(rest) < 0.01 * max(1e-12, 1e-10 * abs(total)):
                return total + rest, total_err + abs(rest)
        floor = 0.25 * max(1e-12, 1e-10 * abs(total))
        small = small + 1 if abs(v) < floor and (
            step < 0.0 or prev is None or abs(v) <= prev[0]) else 0
        prev = abs(v), h
    return total, total_err


def _scalar_with_breakpoints(f, a, b, points):
    total, total_err, lo = 0.0, 0.0, a
    for x in sorted(x for x in points if a < x < b):
        if lo == 0.0:
            # a head the tree cannot take within 32 panels and 8 bisections
            # of its panel at 0 takes the log sweep
            v, e = (_scalar_finite(f, 0.0, x, panels=32, depth=8)
                    or _scalar_sweep(lambda y, x=x: f(x * math.exp(y)) * (x * math.exp(y)),
                                     -2.0))
        else:
            v, e = _scalar_finite(f, lo, x)
        total, total_err, lo = total + v, total_err + e, x
    if math.isinf(b):
        g = lambda y: f(lo + math.exp(y)) * math.exp(y)
        v, e = _scalar_sweep(g, -2.0, *_scalar_sweep(g, 2.0))
    else:
        v, e = _scalar_finite(f, lo, b)
    return total + v, total_err + e


@pytest.mark.parametrize("f,a,b,points", [
    (_spike, 0.0, 1.0, [1e-9 + k * 1e-10 for k in range(-8, 9)]),
    (lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, [0.5]),
    (lambda x: math.exp(-x), 0.0, math.inf, [0.5, 2.0]),
])
def test_one_component_is_the_scalar_tree(f, a, b, points):
    # a spike, a 1/sqrt(x) edge (a rough head), and an exponential tail
    # after a regular head
    got = integrate(f, a, b, points)
    assert got == _scalar_with_breakpoints(f, a, b, points)


def _head_log(monkeypatch):
    """The GK15 panels integrate_vector takes, in order, with "sweep" where
    a log sweep starts."""
    log = []
    gk15, sweep = quadrature._gk15, quadrature._sweep

    def counted(f, lo, hi):
        log.append((lo, hi))
        return gk15(f, lo, hi)

    def counted_sweep(*args, **kwargs):
        log.append("sweep")
        return sweep(*args, **kwargs)

    monkeypatch.setattr(quadrature, "_gk15", counted)
    monkeypatch.setattr(quadrature, "_sweep", counted_sweep)
    return log


def test_regular_head_takes_the_plain_tree(monkeypatch):
    # a corpus bump's integrands grow like a power of t from t = 0, so the
    # tree on [0, first breakpoint] converges within its budget and no
    # panel is substituted (the support is compact: no tail sweep either)
    log = _head_log(monkeypatch)
    v = dataclasses.replace(bump_profile(1.0, 1.0))  # an empty panel table
    radial_integrals(v, 4, 3.0, qs=(3.0,), grads=("hyperbolic", "euclidean"))
    assert log and "sweep" not in log


def _inverse_sqrt():
    return lambda: integrate(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, [0.5])


def _extremal_linfty():
    # gradients only: the profile's fn is itself an integral
    v = verifier.extremal_linfty_profile(4, 6.0)
    fresh = [dataclasses.replace(v) for _ in range(2)]  # empty panel tables
    return lambda: radial_integrals(fresh.pop(), 4, 6.0, grads=("hyperbolic", "euclidean"))


@pytest.mark.parametrize("make_run", [_inverse_sqrt, _extremal_linfty])
def test_rough_heads_keep_the_log_sweep(monkeypatch, make_run):
    # 1/sqrt(x), and the extremal L^inf profile at (4, 6), whose gradient
    # integrand is t^(-(n-1)/(p-1)) near 0, hand the head over to the log
    # sweep: their values are those of the sweep alone, which a head
    # budget of one panel takes straight away
    run = make_run()
    log = _head_log(monkeypatch)
    got = run()
    assert log.index("sweep") > 1  # the head's tree, dropped
    monkeypatch.setattr(quadrature, "_HEAD_PANELS", 1)
    log.clear()
    assert run() == got
    assert log.index("sweep") == 1  # the head's one panel, then the sweep


@pytest.mark.parametrize("f, x, budget", [
    (lambda x: 1.0 / math.sqrt(x), 0.5, "depth"),
    # about 40 periods on the head: many panels, none of them deep
    (lambda x: math.cos(300.0 * x), 0.9, "panels"),
])
def test_head_handover_wastes_at_most_its_budget(monkeypatch, f, x, budget):
    # the panels of a dropped head tree: 2k + 1 after k bisections of its
    # panel at 0 (the others converge on their first panel), 2k - 1 for a
    # tree of k panels
    log = _head_log(monkeypatch)
    integrate(f, 0.0, 1.0, [x])
    wasted = log.index("sweep")
    assert wasted == (2 * quadrature._HEAD_DEPTH + 1 if budget == "depth"
                      else 2 * quadrature._HEAD_PANELS - 1)
    assert all(0.0 <= lo < hi <= x for lo, hi in log[:wasted])


def test_vector_components_match_separate_integrals():
    # components with different scales share one tree; each meets its own
    # tolerance, so each is at least as accurate as its scalar integral
    fs = (lambda x: math.exp(-x), lambda x: 1e-20 * x * x * math.exp(-x),
          lambda x: 1.0 / math.sqrt(x))
    vals, errs = integrate_vector(lambda xs: [[f(x) for x in xs] for f in fs],
                                  0.0, 1.0, [0.5])
    for f, val, err in zip(fs, vals, errs):
        with tolerances(1e-13, 1e-300):
            ref, _ = integrate(f, 0.0, 1.0, [0.5])
        assert abs(val - ref) <= max(err, 1e-10 * abs(ref))
        assert err <= max(1e-12, 1e-10 * abs(val))


@pytest.mark.parametrize("a,b,points", [(1.0, 3.0, [2.0]), (0.0, math.inf, [0.5])])
def test_integrand_takes_one_panel_per_call(monkeypatch, a, b, points):
    # the 15 nodes of a panel in one call, centre first, then the pairs
    # c -+ h x from the outermost node inwards; a substituted panel maps them
    panels, calls = [], []
    gk15 = quadrature._gk15

    def counted(f, lo, hi):
        panels.append((lo, hi))
        return gk15(f, lo, hi)

    def f(xs):
        calls.append(list(xs))
        # a kink at x = 1 makes the tree bisect
        return ([math.exp(-x) for x in xs],
                [math.sqrt(abs(x - 1.0)) * math.exp(-x) for x in xs])

    monkeypatch.setattr(quadrature, "_gk15", counted)
    vals, _ = integrate_vector(f, a, b, points)
    assert len(calls) == len(panels) > 2
    assert all(len(xs) == 15 for xs in calls)
    mapped = 0
    for (lo, hi), xs in zip(panels, calls):
        c = 0.5 * (lo + hi)
        if math.isinf(b) or lo == 0.0:
            mapped += 1
            continue
        assert xs[0] == c
        assert [xs[2 * k + 1] for k in range(7)] == [c - 0.5 * (hi - lo) * x
                                                     for x in quadrature._XGK[:7]]
        assert [xs[2 * k + 2] for k in range(7)] == [c + 0.5 * (hi - lo) * x
                                                     for x in quadrature._XGK[:7]]
    assert (mapped == len(panels)) == math.isinf(b)
    if math.isinf(b):
        assert vals[0] == pytest.approx(1.0, rel=1e-10)


def _cube(x):
    return x ** 3


def _dcube(x):
    return 3.0 * x * x


def test_root_cubic():
    t = find_root_increasing(_cube, 27.0, (0.0, 10.0), _dcube)
    assert t == pytest.approx(3.0, rel=1e-12)


def test_root_zero_target():
    t = find_root_increasing(_cube, 0.0, (-1.0, 1.0), _dcube)
    assert abs(t) < 1e-10


def test_root_tiny_target_stays_target_relative():
    # the stopping rule must scale with the target, not with max(target, 1)
    t = find_root_increasing(_cube, 1e-24, (0.0, 1.0), _dcube)
    assert t == pytest.approx(1e-8, rel=1e-9)


def test_root_bad_bracket():
    with pytest.raises(BracketError):
        find_root_increasing(lambda x: x, 5.0, (0.0, 1.0), lambda x: 1.0)


def test_root_unconverged_raises():
    # two iterations cannot reach 1e-13; the last iterate rides on the error
    with pytest.raises(ConvergenceError) as info:
        find_root_increasing(_cube, 27.0, (0.0, 10.0), _dcube, max_iter=2)
    assert 0.0 < info.value.partial < 10.0


def test_root_starting_point():
    calls = []

    def f(x):
        calls.append(x)
        return x ** 3

    t = find_root_increasing(f, 27.0, (0.0, 10.0), _dcube, x0=3.01)
    assert t == pytest.approx(3.0, rel=1e-12)
    assert calls[2] == 3.01  # after the two bracket ends
    seeded = len(calls)
    calls.clear()
    # a starting point outside the bracket falls back to the midpoint
    find_root_increasing(f, 27.0, (0.0, 10.0), _dcube, x0=11.0)
    assert calls[2] == 5.0
    assert seeded < len(calls)


def test_root_known_ends_are_not_evaluated():
    calls = []

    def f(x):
        calls.append(x)
        return x ** 3

    ref = find_root_increasing(f, 27.0, (0.0, 10.0), _dcube, x0=3.01)
    assert calls[:2] == [0.0, 10.0]
    n_ref = len(calls)
    calls.clear()
    t = find_root_increasing(f, 27.0, (0.0, 10.0), _dcube, x0=3.01,
                             ends=(0.0, 1000.0))
    assert t == ref
    assert calls[0] == 3.01 and len(calls) == n_ref - 2
    with pytest.raises(BracketError):
        find_root_increasing(f, 27.0, (0.0, 10.0), _dcube, ends=(0.0, 8.0))


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=0.1, max_value=3.0))
def test_root_roundtrip_random_monotone(shift, slope):
    f = lambda x: slope * (x - shift) + 0.05 * (x - shift) ** 3
    df = lambda x: slope + 0.15 * (x - shift) ** 2
    target = 1.3
    t = find_root_increasing(f, target, (shift - 50.0, shift + 50.0), df)
    assert f(t) == pytest.approx(target, abs=1e-9)

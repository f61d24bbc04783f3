"""Numerical kernels: adaptive Gauss-Kronrod quadrature on finite and
semi-infinite intervals, the double-exponential rule over the real line,
root finding for monotone functions by Newton on a given derivative, and
the grids profiles are sampled on.

Quadrature is vector-valued and panel-at-a-time (Shampine 2008,
"Vectorized adaptive quadrature in MATLAB"): one panel tree serves every
component of an integrand; a scalar integral is the one-component case.
The integrand of integrate_vector is called once per GK15 panel with the
panel's 15 nodes, its centre first and then the pairs c - h x, c + h x
from the outermost Kronrod node inwards, and returns one sequence of 15
values per component, in that node order, so a caller may build each
component in one pass over the panel and keep what depends only on the
nodes of a panel that recurs.  A first segment [0, x] takes a small
panel tree, as every other segment takes a full one (QUADPACK's qagp:
plain bisection where the integrand is regular).  Where that tree runs
out of its head budget, the head is rough, and one substitution,
s = a + b e^y, takes over: with a = 0, b = x, swept leftward from y = 0,
it absorbs an integrable singularity of a profile closure at 0.  The
same substitution reaches an infinite tail [a, inf) (b = 1, swept right
and then left from y = 0).  It maps a panel's node list before the call
and scales each component's values.  A sweep's panels widen as the tail
thins, each judged against the running total of the integral, until the
geometric rest at their rate of decay is settled (_sweep).
integrate takes a pointwise scalar integrand.

The pass over the level (levels.level_integrals) takes no panel: the
double-exponential rule (_double_exponential) cuts the real line at given
breakpoints, maps each segment from the whole line in u (_de_map), and
runs one nested trapezoid in u over every segment, its density called
once per round of the first step's walk and once per halving with all
of that step's points.

Everything here is pure; integrand closures supplied by callers must be
safe to call repeatedly.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, Optional, Sequence, Tuple

from .errors import BracketError, ConvergenceError, DomainError, EvaluationError

__all__ = [
    "integrate",
    "integrate_vector",
    "find_root_increasing",
]


# A panel tree stops refining once the error estimate of every component
# is below max(_ABS_TOL, _REL_TOL * |its value|).
_REL_TOL = 1e-10
_ABS_TOL = 1e-12
# Budgets of one finite-interval panel tree: how often one panel may be
# bisected, and how many panels the tree may hold.
_MAX_DEPTH = 50
_MAX_PANELS = 4096
# Sweep panels (_sweep): the share of _REL_TOL times the running total a
# panel's error may take, the share of the floor under which the rest
# closes a sweep, the exponent of the next width's factor, the largest
# factor from one width to the next, and the widest panel in units of |step|.
_SWEEP_SHARE = 0.1
_SWEEP_REST = 0.01
_SWEEP_EXPONENT = -0.1
_SWEEP_GROW = 4.0
_SWEEP_WIDEST = 8.0
# The double-exponential rule (_double_exponential): its first step in u,
# and how often that step may be halved.
_DE_STEP = 0.5
_DE_HALVINGS = 7
# Budgets of the plain tree on a first segment [0, x] (integrate_vector):
# past either, the head is rough and the segment takes the log sweep.
_HEAD_DEPTH = 8
_HEAD_PANELS = 32
# relative tolerance of find_root_increasing, on the residual and the
# bracket, and its default iteration budget
_ROOT_REL_TOL = 1e-13
_ROOT_MAX_ITER = 200


# Gauss-Kronrod 7-15 pair on [-1, 1] (QUADPACK's qk15).  Odd-index nodes
# are the embedded Gauss-7 points.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


# the 15 nodes of a panel -> one sequence of 15 values per component
PanelIntegrand = Callable[[List[float]], Sequence[Sequence[float]]]


def _gk15(f: PanelIntegrand, a: float, b: float
          ) -> Tuple[List[float], List[float]]:
    """One Gauss-Kronrod 7-15 panel of a vector panel integrand.  Returns
    the K15 values and the |K15 - G7| errors, one per component; raises
    EvaluationError when a value is not finite."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x0, x1, x2, x3, x4, x5, x6 = [h * x for x in _XGK[:7]]
    k0, k1, k2, k3, k4, k5, k6, k7 = _WGK
    g0, g1, g2, g3 = _WG
    vals, errs = [], []
    for y, l0, r0, l1, r1, l2, r2, l3, r3, l4, r4, l5, r5, l6, r6 in f(
            [c, c - x0, c + x0, c - x1, c + x1, c - x2, c + x2, c - x3, c + x3,
             c - x4, c + x4, c - x5, c + x5, c - x6, c + x6]):
        f1, f3, f5 = l1 + r1, l3 + r3, l5 + r5
        resk = (k7 * y + k0 * (l0 + r0) + k1 * f1 + k2 * (l2 + r2) + k3 * f3
                + k4 * (l4 + r4) + k5 * f5 + k6 * (l6 + r6))
        resg = g3 * y + g0 * f1 + g1 * f3 + g2 * f5
        val = resk * h
        if not math.isfinite(val):
            raise EvaluationError(
                f"integrand returned a non-finite value on [{a!r}, {b!r}]")
        vals.append(val)
        errs.append(abs(resk - resg) * abs(h))
    return vals, errs


def _tree(f, a, b, val, err, max_panels=_MAX_PANELS, edge_depth=_MAX_DEPTH):
    """(values, errors) of one panel tree on [a, b], given its first
    panel's (val, err), _gk15 on [a, b].  Raises ConvergenceError rather
    than bisect once the tree holds max_panels panels, or a panel
    _MAX_DEPTH bisections deep (edge_depth deep, for the panel at a)."""
    if not any(e > max(_ABS_TOL, _REL_TOL * abs(x)) for x, e in zip(val, err)):
        return val, err
    # a panel's priority: its worst error relative to the component's floor
    # at the first panel, in units of the first floor (one component: err)
    floors = [max(_ABS_TOL, _REL_TOL * abs(x)) for x in val]
    weights = [floors[0] / fl for fl in floors]

    def worst(errs):
        return max(e * w for e, w in zip(errs, weights))

    heap = [(-worst(err), 0, a, b, val, err, 0)]
    total, total_err = list(val), list(err)
    counter = 1
    while any(e > max(_ABS_TOL, _REL_TOL * abs(t))
              for t, e in zip(total, total_err)):
        if len(heap) >= max_panels:
            raise ConvergenceError(
                f"quadrature panel budget exhausted on [{a!r}, {b!r}]",
                partial=total, error_estimate=total_err)
        _, _, pa, pb, pval, perr, depth = heapq.heappop(heap)
        if depth >= (edge_depth if pa == a else _MAX_DEPTH):
            raise ConvergenceError(
                f"quadrature hit max depth {depth} near [{pa!r}, {pb!r}]",
                partial=total, error_estimate=total_err)
        pm = 0.5 * (pa + pb)
        lval, lerr = _gk15(f, pa, pm)
        rval, rerr = _gk15(f, pm, pb)
        total = [t + ((x + y) - z) for t, x, y, z in zip(total, lval, rval, pval)]
        total_err = [t + ((x + y) - z) for t, x, y, z in zip(total_err, lerr, rerr, perr)]
        heapq.heappush(heap, (-worst(lerr), counter, pa, pm, lval, lerr, depth + 1))
        heapq.heappush(heap, (-worst(rerr), counter + 1, pm, pb, rval, rerr, depth + 1))
        counter += 2
    return total, total_err


def _add(total, total_err, val, err):
    """(total + val, total_err + err) componentwise; total None is zero."""
    zero = [0.0] * len(val)
    return ([t + x for t, x in zip(total or zero, val)],
            [t + x for t, x in zip(total_err or zero, err)])


def _sweep(g, step: float, message: str, total=None, total_err=None, y=0.0):
    """Add panels to (total, total_err), outward from y in the direction
    of step, until the rest of the integral is settled in every component.

    Each panel takes one GK15 first, judged against the running total the
    caller carries (Gander and Gautschi, BIT 40, 2000; QUADPACK's qagi): it
    is accepted when every component's error is within the largest of
    _ABS_TOL, _REL_TOL times the panel and _SWEEP_SHARE * _REL_TOL times
    the running total.  The next width is the last times
    0.9 (error / allowance)^_SWEEP_EXPONENT, at most _SWEEP_GROW times it,
    and from |step| to _SWEEP_WIDEST |step|.  A panel wider than |step|
    that misses its allowance is retried narrower; one of width |step|
    that misses falls back to the panel tree.  What the tree or the
    integrand raises propagates.

    The sweep closes on a geometric rest (QUADPACK's qagi): where two
    consecutive accepted panels show a component's density |value| / width
    falling, its rest is R = |last| q / (1 - q), q = e^(-c h), c the decay
    rate between their centres and h the last width.  Once every R is below
    _SWEEP_REST times its floor max(_ABS_TOL, _REL_TOL |total|), R is added,
    signed, to the value and the error.  A slow tail, whose R stays large
    (ROADMAP item 4), closes on two consecutive panels below a quarter of
    the floor, with nothing added.  Rightward, a power-law tail first
    *rises* in y (until e^y ~ a): no rule judges it before it decays.
    Raises ConvergenceError, carrying the partial sums, after 400 panels
    (retried ones included) or before a rightward panel of width |step|
    whose nodes e^y would overflow; that edge caps a wider one.
    """
    base = width = abs(step)
    small = 0
    prev = None
    for _ in range(400):
        if y + step > 709.78:  # past here e^y overflows
            break
        h = min(width, 709.78 - y) if step > 0.0 else width
        dy = math.copysign(h, step)
        lo, hi = min(y, y + dy), max(y, y + dy)
        v, e = _gk15(g, lo, hi)
        ratio = max(err / max(_ABS_TOL, _REL_TOL * abs(x),
                              _SWEEP_SHARE * _REL_TOL * abs(x + t))
                    for x, err, t in zip(v, e, total or [0.0] * len(v)))
        if h == base and ratio > 1.0:
            v, e = _tree(g, lo, hi, v, e)
        factor = 0.9 * ratio ** _SWEEP_EXPONENT if ratio > 0.0 else _SWEEP_GROW
        if h > base and ratio > 1.0:
            width = max(base, h * max(factor, 1.0 / _SWEEP_GROW))
            continue
        width = max(base, min(_SWEEP_WIDEST * base, h * min(factor, _SWEEP_GROW)))
        total, total_err = _add(total, total_err, v, e)
        y += dy
        mags = [abs(x) for x in v]
        if prev is not None:
            rest = [_rest(x, mag / h, last / prev[1], 2.0 * h / (h + prev[1]))
                    for x, mag, last in zip(v, mags, prev[0])]
            if all(abs(r) < _SWEEP_REST * max(_ABS_TOL, _REL_TOL * abs(t))
                   for r, t in zip(rest, total)):
                return _add(total, total_err, rest, [abs(r) for r in rest])
        small = small + 1 if all(
            mag < 0.25 * max(_ABS_TOL, _REL_TOL * abs(t))
            and (step < 0.0 or mag <= last)
            for mag, t, last in zip(mags, total, prev[0] if prev else [math.inf] * len(v))) else 0
        prev = mags, h
        if small >= 2:
            return total, total_err
    raise ConvergenceError(message, partial=total, error_estimate=total_err)


def _rest(x: float, d: float, pd: float, k: float) -> float:
    """x q / (1 - q), q = (d / pd)^k: the geometric rest after a panel of
    value x and density d, its predecessor's density pd (0 at d = 0, inf
    where the density does not fall)."""
    q = (d / pd) ** k if d < pd else 0.0 if not d else math.inf
    return x * q / (1.0 - q) if q < 1.0 else math.inf


def _de_map(lo: float, hi: float):
    """u -> (y, dy/du), an increasing double-exponential map of the real
    line onto (lo, hi): sinh u onto the whole line; tanh-sinh,
    (lo + hi)/2 + (hi - lo)/2 tanh(pi/2 sinh u), onto a finite (lo, hi),
    its distance to the nearer end formed directly so that it does not
    cancel; and onto a tail the DE tail in softplus(y) = log(1 + e^y),
    softplus(y) = softplus(lo) + exp(u - e^-u) (in softplus(-y) onto
    (-inf, hi)).  For a logit y = log(tau / (1 - tau)), softplus(y) is
    -log(1 - tau) and softplus(-y) is -log tau, free of the logit's poles
    at y = +-i pi, which narrow the strip where a tail in y itself is
    analytic: at the step 1/4 the upper tails of the rearrange benchmark's
    shells come within 4e-12 of their sums, where tails in y came within
    1e-7."""
    if math.isinf(lo) and math.isinf(hi):
        return lambda u: (math.sinh(u), math.cosh(u))
    if math.isinf(lo) or math.isinf(hi):
        sign = 1.0 if math.isinf(hi) else -1.0
        b = sign * (lo if sign > 0.0 else hi)
        c = max(b, 0.0) + math.log1p(math.exp(-abs(b)))  # softplus(b)

        def m(u):
            v = sign * u
            x = math.exp(v - math.exp(-v))
            e = -math.expm1(-c - x)  # 1 - e^-softplus
            return sign * (c + x + math.log(e)), x * (1.0 + math.exp(-v)) / e
    else:
        def m(u):
            e = math.exp(-math.pi * abs(math.sinh(u)))
            w = (hi - lo) * e / (1.0 + e)
            return lo + w if u < 0.0 else hi - w, math.pi * math.cosh(u) * w / (1.0 + e)
    return m


# what a density raises at an edge of its domain
_EDGE_ERRORS = (ArithmeticError, ConvergenceError, DomainError)


class _Edge(Exception):
    """An infinite tail of _de_pass met an edge of the density's domain:
    (its direction, the last y before the edge, the rest past that y)."""


def _double_exponential(density, breaks: Sequence[float], names: Sequence[str]):
    """(values, errors) of the integral over the real line of a vector
    density, a function from a list of points to one vector per point,
    by the double-exponential rule (Takahasi and Mori, 1974; Mori and
    Sugihara, 2001): the line cut at breaks (increasing), each segment
    mapped by _de_map and one nested trapezoid in u over all of them
    (_de_pass).  Where a tail meets an edge of the density's domain
    (_Edge), the rule runs again with the edge as that tail's finite end,
    and y = 0 as a cut where there was none, the rest past it carried;
    names holds each component's name, for the errors.
    """
    lo, hi, rest = -math.inf, math.inf, None
    while True:
        try:
            return _de_pass(density, [lo, *breaks, hi], rest, names)
        except _Edge as edge:
            side, y, r = edge.args
            lo, hi = (y, hi) if side < 0 else (lo, y)
            breaks = breaks or [0.0]
            rest = _add(*(rest or (None, None)), r, [abs(x) for x in r])


def _de_pass(density, cuts, rest, names):
    """The double-exponential rule over the segments between cuts, the
    outer two of which may be infinite, rest (or None) added to the value
    and the error.

    The first step, _DE_STEP, walks each segment's two ends outward from
    u = 0, every open end one node a round and each round in one density
    call, until two consecutive terms h F(u) of an end are falling and
    below a quarter of the floor max(_ABS_TOL, _REL_TOL |total|) in every
    component, against the running total of all segments: a tail that
    first rises is not judged before it decays.  Each halving of the step
    then adds the midpoints of that range in one density call, keeping
    only the running sums, until every component's |T_h - T_2h| is within
    the floor of T_h; that difference is the error.  A node whose y
    rounds onto or past its segment's finite end, a breakpoint, takes a
    zero density without a density call: its term is far below the floor.

    A round that raises is evaluated again, its inner ends' nodes together
    and each infinite tail's node alone.  A tail's node whose density
    raises (_EDGE_ERRORS) marks an edge of the domain.  Where the rest past
    the tail's last node, at the decay its last two nodes show
    (_rest_past), is within the floor, it is added to the value and the
    error, and the tail closes.  Else bisecting in y toward the edge, to
    within 1, finds the last point y_e that evaluates; where the rest past
    y_e is within the floor, _Edge carries it; where a component's density
    still rises toward the edge, DomainError names it as divergent (QUADPACK
    qagi's ier = 5); else the edge's error propagates.  Raises
    ConvergenceError, naming the components left, after _DE_HALVINGS
    halvings, and EvaluationError on a sum that is not finite.
    """
    maps = [_de_map(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    zero = [0.0] * len(names)

    def at(points):  # (segment, u) pairs -> (y, density, term F) per point
        if not points:
            return []
        ys, jacs = zip(*(maps[i](u) for i, u in points))
        inner = [k for k, ((i, _), y) in enumerate(zip(points, ys)) if cuts[i] < y < cuts[i + 1]]
        dens = [zero] * len(ys)
        for k, row in zip(inner, density([ys[k] for k in inner]) if inner else ()):
            dens[k] = row
        return list(zip(ys, dens, ([x * j for x in row] for row, j in zip(dens, jacs))))

    def summed(rows):
        return [t + sum(c) for t, c in zip(total, zip(*rows))] if rows else total

    def settled(r):
        return all(abs(x) <= max(_ABS_TOL, _REL_TOL * abs(h * t)) for x, t in zip(r, total))

    def reach(end, point, exc):  # the rest past a tail that met an edge at point
        near, last = end[5]
        r = _rest_past(near, last)
        if settled(r):
            return r
        bad = maps[point[0]](point[1])[0]
        while abs(bad - last[0]) > 1.0:
            mid = 0.5 * (last[0] + bad)
            try:
                (g,) = density([mid])
            except _EDGE_ERRORS as err:
                bad, exc = mid, err
            else:
                near, last = last, (mid, g)
        r = _rest_past(near, last)
        if settled(r):
            raise _Edge(end[1], last[0], r)
        for name, g0, g1 in zip(names, last[1], near[1]):
            if abs(g0) > abs(g1):
                side = "low" if end[1] < 0 else "high"
                raise DomainError(f"{name} diverges at the {side} end of the level range") from exc
        raise exc

    h = _DE_STEP
    first = at([(i, 0.0) for i in range(len(maps))])
    total = [sum(c) for c in zip(*(f for _, _, f in first))]
    # an end: its segment, direction, steps, |F| at its last node, small
    # terms in a row, and its last two (y, density)
    ends = [[i, s, 0, [abs(x) for x in f], 0, [(y, g)] * 2]
            for i, (y, g, f) in enumerate(first) for s in (-1, 1)]
    tails = {end for end, x in (((0, -1), cuts[0]), ((len(maps) - 1, 1), cuts[-1]))
             if math.isinf(x)}
    walking = ends
    while walking:
        points = [(i, s * (k + 1) * h) for i, s, k, *_ in walking]
        try:
            nodes = at(points)
        except _EDGE_ERRORS:
            alone = [tuple(end[:2]) in tails for end in walking]
            inner = iter(at([pt for pt, a in zip(points, alone) if not a]))
            nodes = [None if a else next(inner) for a in alone]
            for k, end in enumerate(walking):
                try:
                    if alone[k]:
                        (nodes[k],) = at([points[k]])
                except _EDGE_ERRORS as exc:
                    r = reach(end, points[k], exc)
                    rest = _add(*(rest or (None, None)), r, [abs(x) for x in r])
                    end[4] = 2  # the tail closes
        total = summed([node[2] for node in nodes if node])
        floor = [max(_ABS_TOL, _REL_TOL * abs(h * t)) for t in total]
        for end, node in zip(walking, nodes):
            if node:
                y, g, f = node
                mags = [abs(x) for x in f]
                end[4] = end[4] + 1 if all(h * m < 0.25 * fl and m <= last for m, fl, last
                                           in zip(mags, floor, end[3])) else 0
                end[2:4], end[5] = [end[2] + 1, mags], [end[5][1], (y, g)]
        walking = [end for end in walking if end[4] < 2]
    spans = [[0, 0] for _ in maps]
    for i, s, k, *_ in ends:
        spans[i][s > 0] = k
    est = [h * t for t in total]
    for _ in range(_DE_HALVINGS):
        h *= 0.5
        m = round(_DE_STEP / h)
        total = summed([f for _, _, f in at([(i, j * h) for i, (a, b) in enumerate(spans)
                                              for j in range(1 - a * m, b * m, 2)])])
        new = [h * t for t in total]
        if not all(map(math.isfinite, new)):
            raise EvaluationError("integrand returned a non-finite value")
        err = [abs(x - e) for x, e in zip(new, est)]
        left = [nm for nm, x, e in zip(names, new, err) if e > max(_ABS_TOL, _REL_TOL * abs(x))]
        if not left:
            return _add(new, err, *rest) if rest else (new, err)
        est = new
    raise ConvergenceError(f"{', '.join(left)} did not converge", partial=new, error_estimate=err)


def _rest_past(near, last):
    """The integral past last = (y0, g0) of a density that decays at the
    rate c it shows from near = (y1, g1): g0 / c, c = log|g1 / g0| / |y1 - y0|,
    per component; inf where a component does not decay."""
    (y1, g1), (y0, g0) = near, last
    return [x * abs(y1 - y0) / math.log(abs(w / x)) if 0.0 < abs(x) < abs(w)
            else 0.0 if not x else math.inf for x, w in zip(g0, g1)]


def _substituted(f: PanelIntegrand, a: float, b: float) -> PanelIntegrand:
    """The panel integrand of f(s) ds under s = a + b e^y, ds = b e^y dy."""
    def g(ys):
        es = [b * math.exp(y) for y in ys]
        return [[x * e for x, e in zip(row, es)]
                for row in f([a + e for e in es])]
    return g


def integrate_vector(f: PanelIntegrand, a: float, b: float,
                     points: Sequence[float] = ()
                     ) -> Tuple[List[float], List[float]]:
    """(values, errors) of the integral over [a, b] (b may be math.inf) of
    a vector integrand, one panel tree for all components.  f maps the 15
    nodes of a panel to one sequence of 15 values per component (see the
    module docstring).  Interior breakpoints (e.g. the grid of a
    concentrated profile, which a global subdivision could step over)
    split [a, b].  A first segment [0, x] takes a panel tree of at most
    _HEAD_PANELS panels that bisects its panel at 0 at most _HEAD_DEPTH
    times; past either budget that tree's work is dropped, and the segment
    takes the leftward sweep under s = x e^y.  Raises DomainError on an
    empty interval, ConvergenceError (carrying the partial values) when a
    budget runs out, and EvaluationError on a non-finite value.
    """
    if math.isinf(a) or not a < b:
        raise DomainError(f"bad interval [{a!r}, {b!r}]")
    pts = sorted({float(x) for x in points if a < x < b})
    total = total_err = None
    lo = a
    for x in pts:
        if lo == 0.0:
            # a profile closure may be singular (but integrable) at the origin:
            # a head the small tree cannot resolve takes the log sweep
            try:
                v, e = _tree(f, 0.0, x, *_gk15(f, 0.0, x), _HEAD_PANELS, _HEAD_DEPTH)
            except ConvergenceError:
                v, e = _sweep(_substituted(f, 0.0, x), -2.0,
                              "left-edge substitution did not converge")
        else:
            v, e = _tree(f, lo, x, *_gk15(f, lo, x))
        total, total_err = _add(total, total_err, v, e)
        lo = x
    if math.isinf(b):
        g = _substituted(f, lo, 1.0)
        v, e = _sweep(g, -2.0, "semi-infinite tail did not converge (left)",
                      *_sweep(g, 2.0, "semi-infinite tail did not converge (right)"))
    else:
        v, e = _tree(f, lo, b, *_gk15(f, lo, b))
    return _add(total, total_err, v, e)


def integrate(f: Callable[[float], float], a: float, b: float,
              points: Sequence[float] = ()) -> Tuple[float, float]:
    """integrate_vector of a scalar integrand over [a, b] (b may be
    math.inf): (value, error estimate), and (0.0, 0.0) when a == b."""
    if a == b:
        return 0.0, 0.0
    (val,), (err,) = integrate_vector(lambda xs: [[f(x) for x in xs]],
                                      a, b, points)
    return val, err


def find_root_increasing(f: Callable[[float], float], target: float,
                         bracket: Tuple[float, float],
                         df: Callable[[float], float],
                         max_iter: int = _ROOT_MAX_ITER,
                         x0: Optional[float] = None,
                         ends: Optional[Tuple[float, float]] = None) -> float:
    """Solve f(t) = target for a strictly increasing f on a bracket.

    Newton on a given derivative df, with a bisection safeguard: every
    iterate stays inside the current sign-change bracket, falling back to
    the midpoint whenever the Newton step escapes or stalls.  The first
    iterate is x0 when it lies strictly inside the bracket, else the
    midpoint.  ends, when given, holds f at the two bracket ends, which
    are then not evaluated; an end where f is the target is the root.  An
    iterate is the root once its residual is within _ROOT_REL_TOL of the
    target (of 1 at target 0), or the bracket within _ROOT_REL_TOL of the
    iterate; df is called only past that test.  Raises ConvergenceError
    (carrying the last iterate) when max_iter iterations do not reach
    tolerance.
    """
    lo, hi = bracket
    if not lo <= hi:
        raise BracketError(f"empty bracket ({lo!r}, {hi!r})")
    flo, fhi = ends if ends is not None else (f(lo), f(hi))
    flo -= target
    fhi -= target
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo > 0.0 or fhi < 0.0:
        raise BracketError(
            f"bracket ({lo!r}, {hi!r}) does not straddle target {target!r}")
    t = x0 if x0 is not None and lo < x0 < hi else 0.5 * (lo + hi)
    f_tol = _ROOT_REL_TOL * abs(target) if target != 0.0 else _ROOT_REL_TOL
    for _ in range(max_iter):
        ft = f(t) - target
        if abs(ft) <= f_tol or hi - lo <= _ROOT_REL_TOL * max(abs(t), 1e-300):
            return t
        if ft > 0.0:
            hi = t
        else:
            lo = t
        d = df(t)
        cand = t - ft / d if d > 0.0 and math.isfinite(d) else lo
        t = cand if lo < cand < hi else 0.5 * (lo + hi)
    raise ConvergenceError(
        f"root find for target {target!r} did not converge in {max_iter} "
        f"iterations; bracket ({lo!r}, {hi!r})", partial=t)


def linspace(start: float, stop: float, num: int) -> List[float]:
    """num evenly spaced points from start to stop, both included."""
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [float(stop)]


def geomspace(start: float, stop: float, num: int) -> List[float]:
    """num points from start to stop (both positive, both included),
    evenly spaced in log10."""
    lo = math.log10(start)
    step = (math.log10(stop) - lo) / (num - 1)
    return [float(start)] + [10.0 ** (i * step + lo)
                             for i in range(1, num - 1)] + [float(stop)]

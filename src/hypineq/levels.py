"""Piecewise-monotone radial functions of geodesic radius, their
distribution function mu and the pass over the level: level_integrals
takes every norm integral of a rearrangement over the level tau through
the layer-cake and coarea formulas, s = mu(tau) and |v'(s)| = 1 / |mu'(tau)|
(Lieb-Loss, Analysis, Thm 1.13; Talenti 1976; Brothers and Ziemer 1988),
in the logit y = log(tau / (fmax - tau)), which grades both ends of the
level range, by the double-exponential rule cut at the logits of the
piece end values (quadrature._double_exponential).

The pass over the level solves all the levels of a step together, each
piece's crossings in level order, each bracketed and started from the
radius its neighbour found: a continuation in the level (Allgower and
Georg, Numerical Continuation Methods, 1990).  The same holds for the
rearrangement's solves of mu(tau) = s, Newton steps in the same logit on
log mu from one tabulation, run in lockstep, each round's levels in one
level-ordered solve (a pointwise v(s) is the one-target case).
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

from . import geometry, quadrature
from .constants import check_dimension, unit_ball_volume
from .errors import ConvergenceError, DomainError

__all__ = ["Piece", "RadialFunction", "distribution_function", "level_table",
           "node_levels", "level_integrals"]


@dataclass(frozen=True)
class Piece:
    """One monotone piece of a radial function: fn on [a, b) and its
    derivative dfn (b may be inf, in which case fn must decay to 0)."""

    a: float
    b: float
    fn: Callable[[float], float]
    dfn: Callable[[float], float]


@dataclass(frozen=True)
class RadialFunction:
    """|u| as a piecewise-monotone function of geodesic radius; ends holds
    each piece's end values (fn(a), fn(b)), with 0 at an infinite b."""

    n: int
    pieces: Tuple[Piece, ...]
    ends: Tuple[Tuple[float, float], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_dimension(self.n)
        object.__setattr__(self, "pieces", tuple(self.pieces))
        if not self.pieces:
            raise DomainError("need at least one piece")
        if self.pieces[0].a != 0.0:
            raise DomainError("pieces must start at radius 0")
        prev = 0.0
        for pc in self.pieces:  # so only the last piece may be unbounded
            if pc.a != prev or not pc.b > pc.a:
                raise DomainError("pieces must be contiguous with a < b")
            prev = pc.b
        object.__setattr__(self, "ends", tuple(
            (float(pc.fn(pc.a)), 0.0 if math.isinf(pc.b) else float(pc.fn(pc.b)))
            for pc in self.pieces))

    @property
    def sup_value(self) -> float:
        return max(0.0, *itertools.chain.from_iterable(self.ends))

    @property
    def support_volume(self) -> float:
        """The volume of {|u| > 0}: sigma (phi(b) - phi(a)) over the pieces where f is positive,
        cut where one reaches 0 (bisected to adjacent doubles), inf if one is unbounded."""
        total = 0.0
        for pc, (va, vb) in zip(self.pieces, self.ends):
            if max(va, vb) > 0.0:
                if math.isinf(pc.b):
                    return math.inf
                ends, zero = [pc.a, pc.b], int(vb == 0.0)  # the end where f may be 0
                pos, out = ends[1 - zero], ends[zero]
                while min(va, vb) == 0.0 and (mid := 0.5 * (pos + out)) not in (pos, out):
                    pos, out = (mid, out) if pc.fn(mid) > 0.0 else (pos, mid)
                ends[zero] = out
                total += geometry.phi(self.n, ends[1]) - geometry.phi(self.n, ends[0])
        return unit_ball_volume(self.n) * total


def _piece_roots(pc: Piece, va: float, vb: float,
                 levels: Sequence[float]) -> List[float]:
    """Radii where a monotone piece with end values va, vb crosses each
    level, for levels in [min(va, vb), max(va, vb)) ordered so that their
    radii increase; short from the first level an unbounded piece is
    still above at radius 1e6.

    One Newton solve on the piece's derivative per level, in a bracket
    whose end values are known, so no radius is evaluated twice.  The
    first level takes the piece's bracket [a, b] from its regula falsi
    point.  An unbounded piece marches b out from max(a + 1, 1), doubling
    its distance from a, to the first radius below the level; past its
    first radius the bracket lies in the tail, and the start is the
    regula falsi point in log level, exact on an exponential tail.  Each
    later level marches on from there, is bracketed below by the radius
    just found unless that radius is past the level (levels closer than
    the root tolerance), and starts from the secant through the last two
    (level, radius) pairs, the first being (va, a); in log level on an
    unbounded piece.
    """
    up, unbounded = vb > va, math.isinf(pc.b)
    fn, dfn = pc.fn, pc.dfn
    last = 0.0

    def g(r):  # the increasing side of the piece: fn rising, else -fn
        nonlocal last
        last = float(fn(r)) if up else -float(fn(r))
        return last

    dg = dfn if up else (lambda r: -float(dfn(r)))
    a, ga = pc.a, va if up else -va  # the bracket's lower end and g there
    if unbounded:
        b = max(a + 1.0, 1.0)
        gb = -float(fn(b))
    else:
        b, gb = pc.b, vb if up else -vb
    y0 = r0 = None
    y1, r1 = math.log(va) if unbounded else va, a
    roots = []
    for t in levels:
        target = t if up else -t
        while -gb > t:  # the march, on an unbounded piece
            a, ga = b, gb
            b += max(1.0, b - pc.a)
            if b > 1e6:
                return roots
            gb = -float(fn(b))
        lo, glo = a, ga
        if roots and r1 > a and gc <= target:
            lo, glo = r1, gc
        y = math.log(t) if unbounded else t
        start = math.nan
        if y0 is not None and y1 != y0:
            start = r1 + (r1 - r0) * (y - y1) / (y1 - y0)
        if not lo < start < b and glo < target < gb:
            start = (lo + (b - lo) * math.log(-glo / t) / math.log(glo / gb)
                     if a > pc.a and gb < 0.0 else
                     lo + (b - lo) * (glo - target) / (glo - gb))
        c = quadrature.find_root_increasing(g, target, (lo, b), df=dg, x0=start,
                                            ends=(glo, gb))
        gc = glo if c == lo else gb if c == b else last
        roots.append(c)
        y0, r0, y1, r1 = y1, r1, y, c
    return roots


def _level_sets(f: RadialFunction, taus: Sequence[float]) -> List[Tuple[float, float]]:
    """(mu(t), log -mu'(t)) at each level t of taus, for the distribution
    function mu of f: the new levels of one step of the level pass, or one.

    mu(t) is the volume of {|u| > t}; by the coarea formula -mu'(t) is
    n sigma times the sum of sinh(r)^(n-1) / |f'(r)| over the radii r > 0
    where f crosses t, summed in logs so that no tiny level overflows it
    (inf where f' vanishes at a crossing, -inf on one f never crosses).
    A piece adds one phi(b) - phi(a) to each level below it, and solves the
    levels it crosses in level order (_piece_roots) with one phi at its
    fixed end; each level sums the pieces in order.
    """
    n = f.n
    order = sorted(range(len(taus)), key=taus.__getitem__)
    levels = [taus[i] for i in order]
    totals, areas = [0.0] * len(taus), [-math.inf] * len(taus)
    for pc, (va, vb) in zip(f.pieces, f.ends):
        up = vb > va
        low, high = (va, vb) if up else (vb, va)
        i = bisect.bisect_left(levels, low)
        j = bisect.bisect_left(levels, high, i)
        if i:
            whole = geometry.phi(n, pc.b) - geometry.phi(n, pc.a)
            for k in order[:i]:
                totals[k] += whole
        if i == j:
            continue
        ks = order[i:j] if up else order[i:j][::-1]
        roots = _piece_roots(pc, va, vb, [taus[k] for k in ks])
        if len(roots) < len(ks):
            raise DomainError("superlevel set appears unbounded")
        fixed = geometry.phi(n, pc.b if up else pc.a)
        for k, c in zip(ks, roots):
            totals[k] += fixed - geometry.phi(n, c) if up else geometry.phi(n, c) - fixed
            # after phi, which raises before sinh(c) could overflow
            if c > 0.0 and low < taus[k]:
                slope = abs(float(pc.dfn(c)))
                x = (n - 1) * math.log(math.sinh(c)) - math.log(slope) if slope > 0.0 else math.inf
                hi, lo = max(areas[k], x), min(areas[k], x)  # log(e^hi + e^lo) next
                areas[k] = hi + math.log1p(math.exp(lo - hi)) if math.isfinite(lo + hi) else hi
    sigma = unit_ball_volume(n)
    return [(sigma * total, area + math.log(n * sigma)) for total, area in zip(totals, areas)]


def _slope(level: Tuple[float, float]) -> Tuple[float, float]:
    """(mu, -mu') from (mu, log -mu'), inf past the float range."""
    mu, ld = level
    return mu, math.exp(ld) if ld < 709.0 else math.inf


def distribution_function(f: RadialFunction, t: float) -> float:
    """Hyperbolic volume of the superlevel set {|u| > t}."""
    if not t > 0.0:
        raise DomainError(f"level must be positive, got {t!r}")
    return _level_sets(f, (t,))[0][0]


def _levels_at(fmax: float, ys: Sequence[float]) -> Tuple[List[float], List[float]]:
    """The levels tau = fmax / (1 + e^(-y)) at the logits ys, and e^(-|y|):
    tau and fmax - tau are formed from e^(-|y|), so that neither cancels."""
    es = [math.exp(-abs(y)) for y in ys]
    return [fmax / (1.0 + e) if y >= 0.0 else fmax * e / (1.0 + e)
            for y, e in zip(ys, es)], es


# past this logit every level rounds to fmax (e^-y < 2^-53)
_Y_TOP = 37.0
# past this logit fmax - tau is within the root tolerance of fmax, and the
# piece solves leave mu no digits (ROADMAP item 5): the level pass ends here
_Y_EDGE = 30.0
# the logits of the table that brackets a grid's node solves
# (level_table), 3 apart from about 3e-30 fmax to within 2e-15 of fmax
_TABLE_YS = tuple(range(-68, 37, 3))


def level_table(f: RadialFunction) -> List[Tuple[float, float, float]]:
    """(level, mu, -mu') in increasing level, from one _level_sets call:
    at eps = 1e-30 fmax and at the logits _TABLE_YS, which bracket a grid's
    node solves, then (fmax, 0, 0): no piece exceeds fmax, so mu(fmax) = 0,
    and no v' reads the slope there."""
    fmax = f.sup_value
    taus = [fmax * 1e-30, *_levels_at(fmax, _TABLE_YS)[0]]
    table = [(tau, *_slope(level)) for tau, level in zip(taus, _level_sets(f, taus))]
    return table + [(fmax, 0.0, 0.0)]


def node_levels(f: RadialFunction, targets: Sequence[float],
                known: Sequence[Tuple[float, float, float]]
                ) -> List[Tuple[float, float, float]]:
    """(v(s), mu(v(s)), -mu'(v(s))) for each volume s of targets, given
    known (level, mu, -mu') triples in increasing level.  A target at or
    past mu of the first takes the first, one at or below mu of the last
    the last.

    Every other target is the root of mu(tau) = s, bracketed by the known
    levels around s and then by every level any target evaluates.  It
    starts from the bracket end nearest s in mu and steps by Newton in
    y = log(tau / (fmax - tau)) on log mu, which the power laws of mu at
    both ends of the level range make close to linear, with the coarea
    slope d log mu / dy = -mu' tau (fmax - tau) / (fmax mu); or to the
    bracket's midpoint in y where that step leaves it.  The solves run in
    lockstep, every round's levels in one level-ordered _level_sets call.
    A target takes its nearest bracket end once that end's residual is
    within _ROOT_REL_TOL s, and its iterate once the bracket, or the
    iterate's Newton correction |mu - s| / |mu'|, is within _ROOT_REL_TOL
    of its level: near fmax, mu is a difference of volumes whose rounding
    exceeds the residual test, while the slope keeps its digits.  Raises
    ConvergenceError, naming the first target left and carrying its last
    iterate, when quadrature._ROOT_MAX_ITER rounds do not converge every
    target.
    """
    fmax = f.sup_value
    tol = quadrature._ROOT_REL_TOL
    log = math.log

    def logit(tau):
        return log(tau) - log(fmax - tau) if tau < fmax else _Y_TOP

    out = [known[0]] * len(targets)
    solves = {}  # target -> [lo, hi, iterate], mu(lo) > s >= mu(hi)
    for k, s in enumerate(targets):
        if s <= known[-1][1]:
            out[k] = known[-1]
            continue
        i = bisect.bisect_left(known, -s, key=lambda e: -e[1])
        if i:
            lo, hi = known[i - 1], known[i]
            solves[k] = [lo, hi, min(lo, hi, key=lambda e: abs(e[1] - s))]
    for rounds in itertools.count():
        ys = {}
        for k, (lo, hi, it) in list(solves.items()):
            s, (tau, mu, d) = targets[k], it
            end = min(lo, hi, key=lambda e: abs(e[1] - s))
            if abs(end[1] - s) <= tol * s:
                out[k] = end
            elif hi[0] - lo[0] <= tol * tau or 0.0 < d < math.inf and abs(mu - s) <= tol * tau * d:
                out[k] = it
            elif rounds == quadrature._ROOT_MAX_ITER:
                raise ConvergenceError(
                    f"node solve for volume {s!r} did not converge in {rounds} "
                    f"rounds; bracket ({lo[0]!r}, {hi[0]!r})", partial=tau)
            else:
                # the Newton step, nan where the slope gives none
                m = -d * tau * (fmax - tau) / (fmax * mu) if mu > 0.0 and d < math.inf else 0.0
                y = logit(tau) + log(s / mu) / m if m < 0.0 else math.nan
                y_lo, y_hi = logit(lo[0]), logit(hi[0])
                ys[k] = y if y_lo < y < y_hi else 0.5 * (y_lo + y_hi)
                continue
            del solves[k]
        if not ys:
            return out
        taus = _levels_at(fmax, list(ys.values()))[0]
        new = [(tau, *_slope(level)) for tau, level in zip(taus, _level_sets(f, taus))]
        for k, it in zip(ys, new):
            lo, hi, _ = solves[k]
            for e in new:
                if lo[0] < e[0] < hi[0]:
                    lo, hi = (e, hi) if e[1] > targets[k] else (lo, e)
            solves[k] = [lo, hi, it]


def level_integrals(f: RadialFunction, n: int, p: float, qs: Sequence[float],
                    grads: Sequence[str], entropy: bool) -> List[Tuple[float, float]]:
    """rearrangement.radial_integrals of a rearrangement of f, over the
    level tau in (0, fmax).  One _level_sets per step of the rule gives
    mu(tau) and log |mu'(tau)| at its levels in f's own dimension; the
    weights are those of dimension n.  With x = mu / sigma, the gradients
    are (n sigma)^p |mu'|^(1-p) times sinh(phi_inv(x))^(p(n-1)) or
    x^(p(n-1)/n), each radius geometry.phi_inv(n, x); each mass is
    q tau^(q-1) mu, the entropy p tau^(p-1) (p log tau + 1) mu.  Where
    mu' is 0 or infinite, v is flat or jumps, and no gradient gathers
    weight.  The pass runs in
    y = log(tau / (fmax - tau)),
    dtau = tau (fmax - tau) / fmax dy, tau and fmax - tau formed from
    e^(-|y|) so that neither cancels: the power laws of mu at tau -> 0 and
    of mu' and the weights at tau -> fmax decay exponentially in y (the
    tanh rule, Schwartz 1969), and the double-exponential rule
    (quadrature._double_exponential) makes that decay, and the half-integer
    powers of mu' at the level of a smooth extremum of f, double
    exponential in its variable: a tail in the log of the level or of its
    distance from fmax, tanh-sinh between breakpoints.  Its breakpoints
    are the logits of f's piece end values above 2^-52 fmax or at a flat
    piece (mu jumps), up to a logit of _Y_EDGE - 2; with none, sinh u maps
    the whole line.  A level past the logit _Y_EDGE, where the piece solves
    leave mu no digits, or rounding to 0, raises ConvergenceError ("end of
    the level range"), and a radius past phi's overflow DomainError; a
    tail closes at such an edge where the geometric rest past it is within
    the floor; where it is not, an integral whose density still rises
    toward the edge diverges (DomainError), and any other error propagates.
    """
    fmax = f.sup_value
    zeros = [0.0] * (len(grads) + len(qs) + entropy)
    if fmax == 0.0:
        return [(0.0, 0.0)] * len(zeros)
    need_h = "hyperbolic" in grads
    sigma = unit_ball_volume(n)
    lpref = p * math.log(n * sigma)
    c_hyp, c_euc = p * (n - 1), p * (n - 1) / n
    log, exp = math.log, math.exp

    def g(tau, level, t):
        mu, ld = level
        if not mu > 0.0:
            return zeros
        out = [0.0] * len(grads)
        if grads and math.isfinite(ld):
            lg = lpref + (1.0 - p) * ld
            le = lg + c_euc * log(mu / sigma)
            # the Euclidean weight is the smaller one: le <= lh
            lh = lg + c_hyp * geometry.log_sinh(t) if need_h else le
            if lh > 700.0:
                raise DomainError("gradient integrand overflows; looks divergent")
            out = [exp(lh) if c == "hyperbolic" else exp(le) for c in grads]
        lt = log(tau)
        out += [q * exp((q - 1.0) * lt) * mu for q in qs]
        if entropy:
            out.append(p * exp((p - 1.0) * lt) * (p * lt + 1.0) * mu)
        return out

    def density(ys):
        taus, es = _levels_at(fmax, ys)
        if max(ys) > _Y_EDGE or not all(tau > 0.0 for tau in taus):
            raise ConvergenceError("level pass reached an end of the level range")
        levels = _level_sets(f, taus)
        # the radius phi_inv(mu / sigma) wherever a hyperbolic weight needs one
        radii = [geometry.phi_inv(n, mu / sigma) if mu > 0.0 and math.isfinite(ld) else 0.0
                 for mu, ld in levels] if need_h else itertools.repeat(None)
        return [[x * fmax * e / (1.0 + e) ** 2 for x in g(tau, level, t)]  # dtau/dy
                for tau, e, level, t in zip(taus, es, levels, radii)]

    # an end value with a logit past _Y_EDGE - 2 would leave the upper
    # tail no room.  An end value at or below 2^-52 fmax is rounding (a
    # quartic ending at 0 may read 1e-31) unless a flat piece sits there,
    # where mu jumps: then it is kept, however low its level
    top = fmax * (1.0 - exp(2.0 - _Y_EDGE))
    breaks = sorted({log(x) - log(fmax - x) for va, vb in f.ends for x in (va, vb)
                     if 0.0 < x < top and (x > 2.0 ** -52 * fmax or va == vb)})
    names = [f"{'Euclidean' if c == 'euclidean' else c} gradient integral" for c in grads]
    names += [f"L^{q:g} integral" for q in qs] + ["entropy integral"] * entropy
    vals, errs = quadrature._double_exponential(density, breaks, names)
    return list(zip(vals, errs))

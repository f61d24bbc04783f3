"""Traced runs: wrap the functions of every ``hypineq`` module from outside
the package and aggregate what each layer did.

Every binding of a traced function is replaced, not only the one in the
defining module: ``geometry`` holds its own ``find_root_increasing``,
``verifier`` its own ``integrate_with_breakpoints`` and ``cli`` its own
``standard_corpus`` and serializers, and a counter patched only where the
function is defined would miss those calls.

Hot leaves (quadrature panels, the volume map, root finds, constants)
are aggregated in memory: calls, self time and busy time.  Jobs and
mid-level calls (verifier, sharpness, lemma, profile norms, corpus,
serialization) also keep one span each, with their parent span and job.

Self time is a call's duration minus the time covered by traced child
calls; busy time is the inclusive time of the outermost calls of a
function or group.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

MODULES = ("quadrature", "geometry", "constants", "rearrangement", "corpus",
           "verifier", "sharpness", "lemma", "report")

# traced besides every plain function in a module's __all__
EXTRA_TARGETS = (
    ("quadrature", "_gk15"),
    ("geometry", "_margin_precise"),
    ("lemma", "MarginTable.to_csv"),
    ("lemma", "MarginTable.to_json"),
    ("sharpness", "SharpnessResult.trace_csv"),
)

SERIALIZERS = {"report.reports_to_csv", "report.reports_to_json",
               "lemma.MarginTable.to_csv", "lemma.MarginTable.to_json",
               "sharpness.SharpnessResult.trace_csv"}

# aggregated only: called up to ~10^5 times per job
LEAF_MODULES = {"quadrature", "geometry", "constants"}
LEAF_FUNCTIONS = {"rearrangement.distribution_function", "report.fmt17"}


class Stat:
    __slots__ = ("calls", "self_s", "busy_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.busy_s = 0.0
        self.extra = defaultdict(int)


class Tracer:
    """Install with ``install()``, run each job through ``run_job``, then
    ``uninstall()``; ``stats``, ``errors`` and ``spans`` hold the results.

    A span is ``[name, parent span index, job id, start, end]``."""

    def __init__(self):
        self.stats = defaultdict(Stat)
        self.spans = []
        self.errors = defaultdict(int)
        self._frames = []        # child-time accumulators of open calls
        self._span_stack = []    # ids of open spans
        self._depth = defaultdict(int)
        self._job_id = None
        self._patched = []

    # -- installation -------------------------------------------------

    def install(self):
        import hypineq
        from hypineq.errors import ConvergenceError, DomainError
        self._convergence_error = ConvergenceError
        self._domain_error = DomainError
        modules = [m for name, m in sys.modules.items()
                   if name == "hypineq" or name.startswith("hypineq.")]
        for mod_name in MODULES:
            mod = getattr(hypineq, mod_name)
            names = [n for n in getattr(mod, "__all__", ())
                     if inspect.isfunction(getattr(mod, n, None))]
            for attr in names:
                self._wrap_function(modules, mod_name, mod, attr)
        for mod_name, attr in EXTRA_TARGETS:
            mod = getattr(hypineq, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                wrapped = self._wrap(f"{mod_name}.{attr}", mod_name, orig)
                setattr(cls, meth, wrapped)
                self._patched.append((cls, meth, orig))
            else:
                self._wrap_function(modules, mod_name, mod, attr)

    def _wrap_function(self, modules, mod_name, mod, attr):
        orig = getattr(mod, attr)
        wrapped = self._wrap(f"{mod_name}.{attr}", mod_name, orig)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)
                    self._patched.append((m, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    # -- wrappers -----------------------------------------------------

    def _wrap(self, name, module, fn):
        group = "serialize" if name in SERIALIZERS else module
        leaf = module in LEAF_MODULES or name in LEAF_FUNCTIONS
        hook = _HOOKS.get(name)
        tracer = self

        def invoke(key, args, kwargs):
            return tracer._call(key, group, leaf, module, fn, args, kwargs)

        if hook is None:
            def wrapper(*args, **kwargs):
                return invoke(name, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return hook(tracer, name, invoke, args, kwargs)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _call(self, key, group, leaf, module, fn, args, kwargs):
        stat = self.stats[key]
        stat.calls += 1
        depth = self._depth
        depth[key] += 1
        depth[group] += 1
        frame = [0.0]
        self._frames.append(frame)
        span_id = None
        if not leaf:
            span_id = len(self.spans)
            parent = self._span_stack[-1] if self._span_stack else None
            self.spans.append([key, parent, self._job_id, 0.0, 0.0])
            self._span_stack.append(span_id)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self._note_error(module, exc)
            raise
        finally:
            t1 = time.perf_counter()
            dt = t1 - t0
            self._frames.pop()
            stat.self_s += dt - frame[0]
            if self._frames:
                self._frames[-1][0] += dt
            depth[key] -= 1
            if depth[key] == 0:
                stat.busy_s += dt
            depth[group] -= 1
            if depth[group] == 0:
                self.stats["group:" + group].busy_s += dt
            if span_id is not None:
                self._span_stack.pop()
                self.spans[span_id][3:] = [t0, t1]

    def _note_error(self, module, exc):
        if getattr(exc, "_perfbench_seen", False):
            return
        kind = None
        if module == "quadrature" and isinstance(exc, self._convergence_error):
            kind = "quadrature.convergence"
        elif module == "geometry" and (
                isinstance(exc, OverflowError)
                or (isinstance(exc, self._domain_error) and "overflow" in str(exc))):
            kind = "geometry.overflow"
        if kind is not None:
            self.errors[kind] += 1
            try:
                exc._perfbench_seen = True
            except AttributeError:
                pass

    # -- jobs ---------------------------------------------------------

    def run_job(self, job_id, fn):
        """Run one job as a span named ``job``; its self time is the time
        spent outside every traced call (the CLI layer for CLI jobs)."""
        self._job_id = job_id
        try:
            return self._call("job", "job", False, "job", fn, (), {})
        finally:
            self._job_id = None

    def depth(self, key):
        return self._depth[key]


# -- per-function hooks: (tracer, name, invoke, args, kwargs) -> result ------

def _phi_hook(tracer, key, invoke, args, kwargs):
    from hypineq.geometry import _SMALL_T  # phi runs a nested panel below it
    t = args[1] if len(args) > 1 else kwargs.get("t")
    if t is not None and 0.0 < t < _SMALL_T:
        tracer.stats[key].extra["small_t"] += 1
    return invoke(key, args, kwargs)


def _gk15_hook(tracer, key, invoke, args, kwargs):
    if tracer.depth("geometry.phi"):
        tracer.stats[key].extra["in_phi"] += 1
    return invoke(key, args, kwargs)


@functools.lru_cache(maxsize=None)
def _signature(fn):
    return inspect.signature(fn)  # follows a wrapper's __wrapped__


def _root_hook(tracer, key, invoke, args, kwargs):
    from hypineq import quadrature
    bound = _signature(quadrature.find_root_increasing).bind(*args, **kwargs)
    bound.apply_defaults()
    f = bound.arguments["f"]
    evals = [0]

    def counted(t):
        evals[0] += 1
        return f(t)

    bound.arguments["f"] = counted
    try:
        return invoke(key, bound.args, bound.kwargs)
    finally:
        extra = tracer.stats[key].extra
        extra["f_evals"] += evals[0]
        # two bracket evaluations, then one per iteration: a find that
        # used every iteration returned an unconverged iterate
        if evals[0] >= bound.arguments["max_iter"] + 2:
            extra["unconverged"] += 1


def _slope_hook(tracer, key, invoke, args, kwargs):
    precise = args[3] if len(args) > 3 else kwargs.get("precise", False)
    return invoke(key + "[precise]" if precise else key, args, kwargs)


def _ratio_hook(tracer, key, invoke, args, kwargs):
    ratio, target = invoke(key, args, kwargs)

    def traced_ratio(v):
        return tracer._call("sharpness.ratio", "sharpness", False,
                            "sharpness", ratio, (v,), {})

    return traced_ratio, target


def _bytes_hook(tracer, key, invoke, args, kwargs):
    text = invoke(key, args, kwargs)
    tracer.stats["serialize"].extra["bytes"] += len(text)
    return text


_HOOKS = {
    "geometry.phi": _phi_hook,
    "quadrature._gk15": _gk15_hook,
    "quadrature.find_root_increasing": _root_hook,
    "geometry.margin_slope_factor": _slope_hook,
    "sharpness.ratio_function": _ratio_hook,
}
_HOOKS.update({name: _bytes_hook for name in SERIALIZERS})


# -- per-layer metrics ----------------------------------------------------

VERIFIER_REPORTS = ("verifier.poincare_sobolev", "verifier.gagliardo_nirenberg",
                    "verifier.morrey_sobolev", "verifier.log_sobolev",
                    "verifier.mugelli_talenti_sum", "verifier.linfty_inequality",
                    "rearrangement.key_comparison")
MARGIN = ("geometry.radial_margin", "geometry.radial_margin_scaled",
          "geometry.margin_slope_factor")
MPMATH = ("geometry._margin_precise", "geometry.margin_slope_factor[precise]")
INTEGRATE = ("quadrature.integrate", "quadrature.integrate_with_breakpoints")


def layer_metrics(tracer, cli_jobs):
    """The per-layer metrics, by name: (value, unit)."""
    st = tracer.stats

    def calls(*keys):
        return sum(st[k].calls for k in keys if k in st)

    def self_s(*keys):
        return sum(st[k].self_s for k in keys if k in st)

    def prefixed(prefix):
        return [k for k in st if k.startswith(prefix)]

    root = st["quadrature.find_root_increasing"]
    out = {
        "quadrature.panels": (calls("quadrature._gk15"), "count"),
        "quadrature.panels_in_phi": (st["quadrature._gk15"].extra["in_phi"], "count"),
        "geometry.phi.calls": (calls("geometry.phi"), "count"),
        "geometry.phi.small_t_calls": (st["geometry.phi"].extra["small_t"], "count"),
        "geometry.phi.self_s": (self_s("geometry.phi"), "s"),
        "geometry.phi_inv.calls": (calls("geometry.phi_inv"), "count"),
        "geometry.phi_inv.self_s": (self_s("geometry.phi_inv"), "s"),
        "quadrature.root.calls": (root.calls, "count"),
        "quadrature.root.f_evals": (root.extra["f_evals"], "count"),
        "quadrature.root.self_s": (root.self_s, "s"),
        "quadrature.root.unconverged": (root.extra["unconverged"], "count"),
        "rearrangement.distribution_function.calls":
            (calls("rearrangement.distribution_function"), "count"),
        "rearrangement.distribution_function.self_s":
            (self_s("rearrangement.distribution_function"), "s"),
        "rearrangement.decreasing_rearrangement.busy_s":
            (st["rearrangement.decreasing_rearrangement"].busy_s, "s"),
        "constants.calls": (calls(*prefixed("constants.")), "count"),
        "constants.self_s": (self_s(*prefixed("constants.")), "s"),
        "quadrature.integrate.calls": (calls(*INTEGRATE), "count"),
        "quadrature.integrate.self_s": (self_s(*INTEGRATE), "s"),
        "rearrangement.grad_norm_hyperbolic.busy_s":
            (st["rearrangement.grad_norm_hyperbolic"].busy_s, "s"),
        "rearrangement.grad_norm_euclidean.busy_s":
            (st["rearrangement.grad_norm_euclidean"].busy_s, "s"),
        "rearrangement.lp_integral.busy_s":
            (st["rearrangement.lp_integral"].busy_s, "s"),
        "geometry.margin.calls": (calls(*MARGIN), "count"),
        "geometry.margin.self_s": (self_s(*MARGIN), "s"),
        "geometry.mpmath.calls": (calls(*MPMATH), "count"),
        "geometry.mpmath.self_s": (self_s(*MPMATH), "s"),
        "lemma.tables": (calls("lemma.verify_lemma", "lemma.find_violation"), "count"),
        "lemma.self_s": (self_s("lemma.verify_lemma", "lemma.find_violation"), "s"),
        "quadrature.convergence_errors":
            (tracer.errors["quadrature.convergence"], "count"),
        "geometry.overflow_errors": (tracer.errors["geometry.overflow"], "count"),
        "rearrangement.read_profile.busy_s":
            (st["rearrangement.read_profile"].busy_s, "s"),
        "report.serialize.busy_s": (st["group:serialize"].busy_s, "s"),
        "report.bytes": (st["serialize"].extra["bytes"], "bytes"),
        "cli.self_s": (st["job"].self_s if cli_jobs else 0.0, "s"),
        "verifier.reports": (calls(*VERIFIER_REPORTS), "count"),
        "verifier.self_s": (self_s(*prefixed("verifier.")), "s"),
        "sharpness.ratio_evals": (calls("sharpness.ratio"), "count"),
        "sharpness.self_s": (self_s(*prefixed("sharpness.")), "s"),
        "corpus.build.busy_s": (st["group:corpus"].busy_s, "s"),
    }
    return out

"""Outside-in layer trace of one arecorr CLI call.

`install()` replaces the names through which arecorr's modules call one
another (module attributes, the estimator dispatch table of `stats_mc`
and the operator methods of `Jet`) with wrappers that time a span or
bump a counter; nothing under `src/` is edited.  Spans are kept in
memory as parallel lists and written out once, after the call, by
`Tracer.dump()`.  `layer_metrics()` turns one dump into the
`<module>.<metric>` figures named in BENCHMARK.json.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

# Jet arithmetic counted by `taylor.jet_ops`; nested calls count too
# (`a - b` is one __sub__, one __neg__ and one __add__).
JET_OPS = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__neg__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__pow__",
    "sqrt",
    "asin",
)


class Tracer:
    """Spans (name, start, end, parent) and counters of one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.stack: list[int] = []
        self.counters: dict[str, list] = {}

    def counter(self, key: str, init: float = 0) -> list:
        """A one-element list that wrappers update in place."""
        return self.counters.setdefault(key, [init])

    def wrap(self, name: str, fn, after=None):
        """fn under a span; `after(result)` runs on each normal return and
        the counter `<name>.raised` counts the calls that raised."""
        nid = len(self.names)
        self.names.append(name)
        span_name, start, end, parent, stack = (
            self.span_name,
            self.start,
            self.end,
            self.parent,
            self.stack,
        )
        raised = self.counter(name + ".raised")
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[0] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def dump(self) -> dict:
        origin = self.start[0] if self.start else 0
        return {
            "names": self.names,
            "span_name": self.span_name,
            "start": [t - origin for t in self.start],
            "end": [t - origin for t in self.end],
            "parent": self.parent,
            "counters": {k: v[0] for k, v in self.counters.items()},
        }


def install(t: Tracer) -> None:
    """Wrap every layer boundary of the loaded arecorr package."""
    from arecorr import are_bounds, cli, corrmath, reduction, stats_mc, verify
    from arecorr.taylor import Jet

    def patch(span: str, attr: str, *modules, inner=None, after=None) -> None:
        """Time `attr` under `span` in every module that looks it up;
        `inner(fn)` adds counters around the original function."""
        fn = getattr(modules[0], attr)
        for mod in modules:
            if getattr(mod, attr) is not fn:
                raise RuntimeError(f"{mod.__name__}.{attr} is not {span}")
        wrapped = t.wrap(span, inner(fn) if inner else fn, after)
        for mod in modules:
            setattr(mod, attr, wrapped)

    # taylor: counter-only wrappers, no timer.
    ops = t.counter("taylor.jet_ops")

    def counted(fn):
        def op(*args):
            ops[0] += 1
            return fn(*args)

        return op

    for name in JET_OPS:
        setattr(Jet, name, counted(getattr(Jet, name)))
    # Every jet's order descends from a Jet.variable call.
    max_order = t.counter("taylor.jet_max_order")
    variable = Jet.variable.__func__

    def jet_variable(cls, center, order):
        if order > max_order[0]:
            max_order[0] = order
        return variable(cls, center, order)

    Jet.variable = classmethod(jet_variable)

    # reduction: count evaluations of each scanned h; the first `grid`
    # evaluations are the grid points, the rest are root bisection.
    sign_evals = t.counter("reduction.sign_evals")
    grid_points = t.counter("reduction.grid_points")
    min_abs = t.counter("reduction.min_abs", math.inf)
    t.counter("reduction.sign_floor")[0] = reduction.SIGN_FLOOR

    def counting_classify(classify_sign):
        def counted_classify(h, lo, hi, grid):
            seen = [0]

            def counted_h(x):
                v = h(x)
                seen[0] += 1
                if seen[0] <= grid and abs(v) < min_abs[0]:
                    min_abs[0] = abs(v)
                return v

            try:
                return classify_sign(counted_h, lo, hi, grid)
            finally:
                sign_evals[0] += seen[0]
                grid_points[0] += grid

        return counted_classify

    patch(
        "reduction.classify_sign",
        "classify_sign",
        reduction,
        verify,
        cli,
        inner=counting_classify,
    )
    patch("reduction.build_chain_rt", "build_chain_rt", verify, cli)

    # quadrature, seen from its one caller.
    evals = t.counter("quadrature.evals")
    err_over_tol = t.counter("quadrature.err_over_tol_max")

    def counting_integrate(integrate):
        def one_integral(f, lo, hi, abs_tol):
            result = integrate(f, lo, hi, abs_tol)
            evals[0] += result.evaluations
            err_over_tol[0] = max(err_over_tol[0], result.err_estimate / abs_tol)
            return result

        return one_integral

    patch("quadrature.integrate", "integrate", corrmath, inner=counting_integrate)

    # corrmath and are_bounds.
    patch("corrmath.sigma_s2", "sigma_s2", are_bounds, corrmath)
    patch("corrmath.sigma_s2_jet", "sigma_s2_jet", are_bounds)
    patch("are_bounds.are", "are", verify, cli)
    patch("are_bounds.q", "q", verify)
    patch("are_bounds.are_from_moments", "are_from_moments", verify)
    # Only cache misses of the endpoint series get a span: they build it.
    series, cache = are_bounds._series, are_bounds._series_cache
    build_series = t.wrap("are_bounds.series_build", series)

    def endpoint_series(tag, anchor):
        if (tag, anchor) in cache:
            return series(tag, anchor)
        return build_series(tag, anchor)

    are_bounds._series = endpoint_series

    # verify.
    checks = t.counter("verify.checks")
    checks_failed = t.counter("verify.checks_failed")

    def count_checks(results) -> None:
        checks[0] += len(results)
        checks_failed[0] += sum(not r.passed for r in results)

    patch("verify.run_checks", "run_checks", cli, after=count_checks)

    # stats_mc: sampling, the inverse CDF and each estimator in the
    # dispatch table; distinct (rho, n, seed) keys give the replicates
    # that a draw-once design would sample.
    patch("stats_mc.sample", "sample_bivariate_normal", stats_mc)
    patch("stats_mc.ndtri", "ndtri", stats_mc)
    patch("stats_mc.kendall_t_brute", "kendall_t_brute", stats_mc)
    for stat, fn in stats_mc._ESTIMATORS.items():
        stats_mc._ESTIMATORS[stat] = t.wrap("stats_mc." + fn.__name__, fn)
    replicates = t.counter("stats_mc.replicates")
    distinct: dict = {}

    def count_replicates(report) -> None:
        replicates[0] += report.reps
        distinct[(report.rho, report.n, report.seed)] = report.reps
        t.counter("stats_mc.distinct_replicates")[0] = sum(distinct.values())

    patch("stats_mc.mc_moments", "mc_moments", cli, after=count_replicates)


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer figures of one traced call; 0 where a layer did not run."""
    names = dump["names"]
    span_name, start, end, parent = (
        dump["span_name"],
        dump["start"],
        dump["end"],
        dump["parent"],
    )
    dur = [e - s for s, e in zip(start, end)]
    covered = [0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += dur[i]
    total: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    s2_integrals = 0
    for i, nid in enumerate(span_name):
        name = names[nid]
        total[name] += dur[i]
        self_ns[name] += dur[i] - covered[i]
        calls[name] += 1
        if name == "quadrature.integrate" and parent[i] >= 0:
            s2_integrals += names[span_name[parent[i]]] == "corrmath.sigma_s2"
    c = defaultdict(float, dump["counters"])

    def secs(name: str) -> float:
        return total[name] * 1e-9

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def us_per_call(name: str) -> float:
        return ratio(total[name] * 1e-3, calls[name])

    samples = calls["stats_mc.sample"]
    s2_calls = calls["corrmath.sigma_s2"]
    min_abs = c["reduction.min_abs"]
    return {
        "taylor.jet_ops": c["taylor.jet_ops"],
        "taylor.jet_max_order": c["taylor.jet_max_order"],
        "reduction.classify_calls": calls["reduction.classify_sign"],
        "reduction.classify_s": secs("reduction.classify_sign"),
        "reduction.sign_evals": c["reduction.sign_evals"],
        "reduction.sign_evals_per_point": ratio(
            c["reduction.sign_evals"], c["reduction.grid_points"]
        ),
        "reduction.min_abs_over_floor": (
            min_abs / c["reduction.sign_floor"] if math.isfinite(min_abs) else 0.0
        ),
        "reduction.chain_build_s": secs("reduction.build_chain_rt"),
        "quadrature.integrals": calls["quadrature.integrate"],
        "quadrature.evals": c["quadrature.evals"],
        "quadrature.evals_per_integral": ratio(
            c["quadrature.evals"], calls["quadrature.integrate"]
        ),
        "quadrature.integrate_s": secs("quadrature.integrate"),
        "quadrature.err_over_tol_max": c["quadrature.err_over_tol_max"],
        "quadrature.failures": c["quadrature.integrate.raised"],
        "corrmath.sigma_s2_calls": s2_calls,
        "corrmath.sigma_s2_s": secs("corrmath.sigma_s2"),
        "corrmath.sigma_s2_jet_calls": calls["corrmath.sigma_s2_jet"],
        # Each cache miss integrates four times.
        "corrmath.sigma_s2_hit_ratio": (
            1.0 - s2_integrals / (4 * s2_calls) if s2_calls else 0.0
        ),
        "are_bounds.are_calls": calls["are_bounds.are"],
        "are_bounds.are_s": secs("are_bounds.are"),
        "are_bounds.q_calls": calls["are_bounds.q"],
        "are_bounds.q_s": secs("are_bounds.q"),
        "are_bounds.moment_assembly_s": secs("are_bounds.are_from_moments"),
        "are_bounds.endpoint_cold_s": secs("are_bounds.series_build"),
        "verify.run_checks_s": secs("verify.run_checks"),
        "verify.checks": c["verify.checks"],
        "verify.checks_failed": c["verify.checks_failed"],
        "stats_mc.samples": samples,
        "stats_mc.draws_per_replicate": ratio(samples, c["stats_mc.distinct_replicates"]),
        "stats_mc.sample_us": us_per_call("stats_mc.sample"),
        # ndtri runs twice per draw; its time is given per draw.
        "stats_mc.ndtri_us": ratio(total["stats_mc.ndtri"] * 1e-3, samples),
        "stats_mc.pearson_us": us_per_call("stats_mc.pearson_r"),
        "stats_mc.spearman_us": us_per_call("stats_mc.spearman_s"),
        "stats_mc.kendall_us": us_per_call("stats_mc.kendall_t"),
        "stats_mc.tie_fallbacks": calls["stats_mc.kendall_t_brute"],
        "stats_mc.report_self_s": self_ns["stats_mc.mc_moments"] * 1e-9,
        "stats_mc.replicates_per_s": ratio(
            c["stats_mc.replicates"], secs("stats_mc.mc_moments")
        ),
        "cli.self_s": self_ns["cli.main"] * 1e-9,
    }

"""Span tracer for the traced benchmark run.

`Tracer.install()` wraps the public functions of every soficlab module (their
`__all__`), `soficlab.cli.main`, and four methods of public classes. A function
re-bound by an importer (for example `soficlab.experiments.lw_defect`) is
re-bound to the same wrapper. Each call records a span (name, start, end,
parent, operation) in memory; self times and the per-module metrics are
derived from the spans after the run. Counts that depend on call arguments or
results are recorded at the same boundaries. `uninstall()` restores every
original.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

MODULES = (
    "groups", "sofic", "randomness", "processes", "models",
    "covering", "convergence", "entropy", "experiments", "cli",
)
EXTRA_FUNCTIONS = (("cli", "main"),)
METHODS = (
    ("sofic", "SoficMap", "window_perms"),
    ("processes", "MarginalOracle", "marginal_elems"),
    ("covering", "ModelMeasure", "sample"),
    ("groups", "GroupSpec", "ball"),
)

# metric family -> span names; "<family>_s" is their summed self time and
# "<family>.calls" counts the spans not nested in another span of the family
FAMILIES: Dict[str, Tuple[str, ...]] = {
    "models.enumerate": ("models.enumerate_good_models",),
    "models.empirical": (
        "models.empirical_distribution", "models.counts_over_elements",
        "models.pattern_codes", "models.is_good_model",
    ),
    "convergence.lw": ("convergence.lw_defect",),
    "convergence.q": ("convergence.quenched_defect",),
    "convergence.dq": ("convergence.dq_defect",),
    "convergence.dispersion": ("convergence.dispersion",),
    "convergence.pair_stat": ("convergence.pair_vertex_stat",),
    "convergence.h_average": ("convergence.h_average",),
    "covering.sample": ("covering.ModelMeasure.sample",),
    "covering.cov": (
        "covering.cov_delta", "covering.cov_delta_matrix", "covering.cov_eps_delta",
        "covering.cov_eps_delta_matrix", "covering.cov_eps",
    ),
    "covering.pack": (
        "covering.pack_delta", "covering.pack_delta_matrix",
        "covering.pack_eps_delta", "covering.pack_eps_delta_matrix",
    ),
    "covering.hamming": ("covering.hamming_distance", "covering.pairwise_hamming"),
    "sofic.spectral": ("sofic.schreier_spectral_gap",),
    "sofic.build": ("sofic.random_uniform", "sofic.partitioned_random", "sofic.quotient_map", "sofic.product"),
    "sofic.window_perms": ("sofic.SoficMap.window_perms",),
    "processes.marginal": ("processes.MarginalOracle.marginal_elems",),
    "randomness.stream": ("randomness.stream",),
    "groups.ball": ("groups.GroupSpec.ball",),
    "entropy.curve": ("entropy.entropy_curve",),
}

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("models.enumerate_s", "s", "lower"),
    ("models.enumerate.calls", "count", "lower"),
    ("models.enumerate.configs", "count", "lower"),
    ("models.enumerate.configs_per_s", "1/s", "higher"),
    ("models.enumerate.good", "count", "higher"),
    ("models.enumerate.good_ratio", "ratio", "higher"),
    ("models.enumerate.refusals", "count", "lower"),
    ("models.enumerate.wall_frac", "frac", "lower"),
    ("models.empirical_s", "s", "lower"),
    ("convergence.lw_s", "s", "lower"),
    ("convergence.q_s", "s", "lower"),
    ("convergence.dq_s", "s", "lower"),
    ("convergence.dispersion_s", "s", "lower"),
    ("convergence.pair_stat_s", "s", "lower"),
    ("convergence.h_average_s", "s", "lower"),
    ("convergence.lw.rows", "count", "lower"),
    ("convergence.q.rows", "count", "lower"),
    ("convergence.dq.rows", "count", "lower"),
    ("convergence.kernel_cells_per_s", "cells/s", "higher"),
    ("convergence.wall_frac", "frac", "lower"),
    ("covering.sample_s", "s", "lower"),
    ("covering.sample.cells", "count", "lower"),
    ("covering.cov_s", "s", "lower"),
    ("covering.cov.calls", "count", "lower"),
    ("covering.cov.exact_ratio", "ratio", "higher"),
    ("covering.pack_s", "s", "lower"),
    ("covering.pack.calls", "count", "lower"),
    ("covering.hamming_s", "s", "lower"),
    ("sofic.spectral_s", "s", "lower"),
    ("sofic.spectral.iterations", "count", "lower"),
    ("sofic.spectral.max_residual", "1", "lower"),
    ("sofic.build_s", "s", "lower"),
    ("sofic.build.calls", "count", "lower"),
    ("sofic.window_perms_s", "s", "lower"),
    ("sofic.window_perms.calls", "count", "lower"),
    ("processes.marginal_s", "s", "lower"),
    ("processes.marginal.calls", "count", "lower"),
    ("processes.marginal.cache_hit_ratio", "ratio", "higher"),
    ("processes.marginal.patterns", "count", "lower"),
    ("processes.marginal.patterns_per_s", "1/s", "higher"),
    ("randomness.stream_s", "s", "lower"),
    ("randomness.stream.calls", "count", "lower"),
    ("groups.ball_s", "s", "lower"),
    ("entropy.curve_s", "s", "lower"),
    ("entropy.curve.rows", "count", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("experiments.artifact_bytes", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace_overhead_frac", "frac", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# counters that must repeat exactly between traced runs of the same code
EXACT_COUNTERS = (
    "models.enumerate.configs",
    "models.enumerate.good",
    "convergence.lw.rows",
    "convergence.q.rows",
    "convergence.dq.rows",
    "sofic.spectral.iterations",
    "processes.marginal.patterns",
    "covering.cov.calls",
    "covering.pack.calls",
    "experiments.artifact_bytes",
)

# rows x |V| x |F| of these calls, over their self time, is the computed
# kernel throughput
KERNEL_CALLS = ("convergence.lw_defect", "convergence.quenched_defect", "convergence.dq_defect")


# -- observers: counts taken from a call's arguments and result ---------------


def _observe_enumerate(facts, args, result, error, before) -> None:
    if error is not None:
        if type(error).__name__ == "BudgetExceededError":
            facts["models.enumerate.refusals"] += 1
        return
    facts["models.enumerate.configs"] += args["mu"].alphabet.size ** args["sigma"].n
    facts["models.enumerate.good"] += result.count


def _defect_observer(family: str, pair: bool) -> Callable:
    """Rows the defect call tests: its atoms (or atom pairs) when it sums them
    exactly, else its sample count; the same rule the call itself applies."""

    def observe(facts, args, result, error, before) -> None:
        if error is not None:
            return
        from soficlab.convergence import EXACT_SUPPORT_CAP

        nu = args["nu"]
        k = nu.support.shape[0] if nu.explicit else 0
        if pair:
            rows = k * k if nu.explicit and k * k <= args["pair_cap"] else args["samples"]
        else:
            rows = k if nu.explicit and k <= EXACT_SUPPORT_CAP else args["samples"]
        facts[f"{family}.rows"] += rows
        facts["kernel.cells"] += rows * args["sigma"].n * len(args["window"])

    return observe


def _observe_sample(facts, args, result, error, before) -> None:
    if error is None:
        facts["covering.sample.cells"] += int(args["count"]) * int(args["self"].vertices)


def _observe_cov(facts, args, result, error, before) -> None:
    if error is None and result.method == "exact":
        facts["covering.cov.exact_spans"] += 1


def _observe_spectral(facts, args, result, error, before) -> None:
    if error is None:
        facts["sofic.spectral.iterations"] += result.iterations
        facts["sofic.spectral.max_residual"] = max(facts["sofic.spectral.max_residual"], result.residual)


def _before_marginal(args: dict) -> bool:
    return tuple(args["elements"]) in getattr(args["self"], "_cache", {})


def _observe_marginal(facts, args, result, error, before) -> None:
    if error is not None:
        return
    if before:
        facts["processes.marginal.hits"] += 1
    else:
        facts["processes.marginal.patterns"] += int(result.size)


def _observe_curve(facts, args, result, error, before) -> None:
    if error is None:
        facts["entropy.curve.rows"] += len(result.rows)


OBSERVERS: Dict[str, Tuple[Optional[Callable], Callable]] = {
    "models.enumerate_good_models": (None, _observe_enumerate),
    "convergence.lw_defect": (None, _defect_observer("convergence.lw", pair=False)),
    "convergence.quenched_defect": (None, _defect_observer("convergence.q", pair=False)),
    "convergence.dq_defect": (None, _defect_observer("convergence.dq", pair=True)),
    "covering.ModelMeasure.sample": (None, _observe_sample),
    "sofic.schreier_spectral_gap": (None, _observe_spectral),
    "processes.MarginalOracle.marginal_elems": (_before_marginal, _observe_marginal),
    "entropy.entropy_curve": (None, _observe_curve),
}
for _name in FAMILIES["covering.cov"]:
    OBSERVERS[_name] = (None, _observe_cov)


class Tracer:
    """Records spans around calls into soficlab while installed."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index, operation]
        self.facts: Dict[str, float] = defaultdict(float)
        self.operation = ""
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    def set_operation(self, name: str) -> None:
        self.operation = name

    def _wrap(self, name: str, fn: Callable) -> Callable:
        before, after = OBSERVERS.get(name, (None, None))
        signature = inspect.signature(fn) if after is not None else None
        spans, stack, facts = self.spans, self._stack, self.facts
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            state = before(bound) if before is not None else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.operation]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if after is not None:
                    after(facts, bound, None, exc, state)
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(facts, bound, result, None, state)
            return result

        return traced

    def install(self) -> None:
        modules = {m: importlib.import_module(f"soficlab.{m}") for m in MODULES}
        package = importlib.import_module("soficlab")
        wrappers: Dict[int, Tuple[Callable, Callable]] = {}
        for short, mod in modules.items():
            names = list(getattr(mod, "__all__", ())) + [n for m, n in EXTRA_FUNCTIONS if m == short]
            for attr in names:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for mod in [package, *modules.values()]:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            fn = cls.__dict__[meth]
            self._undo.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- derived numbers -------------------------------------------------------

    def self_times(self) -> List[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def _in(self, names: Tuple[str, ...]) -> List[int]:
        return [i for i, span in enumerate(self.spans) if span[0] in names]

    def _outermost(self, names: Tuple[str, ...]) -> List[int]:
        """Spans named in `names` with no ancestor named in `names`."""
        picked = []
        for i, span in enumerate(self.spans):
            if span[0] not in names:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                picked.append(i)
        return picked

    def metrics(self, traced_wall: float, untraced_wall: float, artifact_bytes: int) -> Dict[str, float]:
        own = self.self_times()
        by_name: Dict[str, float] = defaultdict(float)
        for (name, *_), t in zip(self.spans, own):
            by_name[name] += t
        facts = self.facts
        out: Dict[str, float] = {}
        for family, names in FAMILIES.items():
            out[f"{family}_s"] = sum(by_name[n] for n in names)
            out[f"{family}.calls"] = len(self._outermost(names))

        def ratio(num: float, den: float) -> float:
            return num / den if den > 0 else 0.0

        def wall_frac(names: Tuple[str, ...]) -> float:
            return ratio(sum(self.spans[i][2] - self.spans[i][1] for i in self._outermost(names)), traced_wall)

        out["models.enumerate.configs"] = facts["models.enumerate.configs"]
        out["models.enumerate.configs_per_s"] = ratio(facts["models.enumerate.configs"], out["models.enumerate_s"])
        out["models.enumerate.good"] = facts["models.enumerate.good"]
        out["models.enumerate.good_ratio"] = ratio(facts["models.enumerate.good"], facts["models.enumerate.configs"])
        out["models.enumerate.refusals"] = facts["models.enumerate.refusals"]
        out["models.enumerate.wall_frac"] = wall_frac(FAMILIES["models.enumerate"])
        for family in ("convergence.lw", "convergence.q", "convergence.dq"):
            out[f"{family}.rows"] = facts[f"{family}.rows"]
        out["convergence.kernel_cells_per_s"] = ratio(facts["kernel.cells"], sum(by_name[n] for n in KERNEL_CALLS))
        convergence_names = tuple(n for f, ns in FAMILIES.items() if f.startswith("convergence.") for n in ns)
        out["convergence.wall_frac"] = wall_frac(convergence_names + FAMILIES["covering.sample"])
        out["covering.sample.cells"] = facts["covering.sample.cells"]
        out["covering.cov.exact_ratio"] = ratio(facts["covering.cov.exact_spans"], len(self._in(FAMILIES["covering.cov"])))
        out["sofic.spectral.iterations"] = facts["sofic.spectral.iterations"]
        out["sofic.spectral.max_residual"] = facts["sofic.spectral.max_residual"]
        # oracles call each other's marginal_elems, so count every call, nested ones too
        marginal_calls = len(self._in(FAMILIES["processes.marginal"]))
        out["processes.marginal.calls"] = marginal_calls
        out["processes.marginal.cache_hit_ratio"] = ratio(facts["processes.marginal.hits"], marginal_calls)
        out["processes.marginal.patterns"] = facts["processes.marginal.patterns"]
        out["processes.marginal.patterns_per_s"] = ratio(facts["processes.marginal.patterns"], out["processes.marginal_s"])
        out["entropy.curve.rows"] = facts["entropy.curve.rows"]
        out["experiments.self_s"] = sum(t for n, t in by_name.items() if n.startswith("experiments."))
        out["experiments.artifact_bytes"] = artifact_bytes
        out["cli.self_s"] = by_name["cli.main"]
        out["trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
        # every per-layer metric but peak_rss_mb, which the caller measures
        return {n: int(out[n]) if unit in ("count", "bytes") else out[n] for n, unit, _ in PER_LAYER if n in out}

    def span_records(self) -> List[list]:
        """Spans with times relative to the first span's start."""
        if not self.spans:
            return []
        t0 = self.spans[0][1]
        return [[n, round(s - t0, 9), round(e - t0, 9), p, op] for n, s, e, p, op in self.spans]

"""Span tracing of ``cesaro``'s public functions, from outside the library.

:func:`traced` wraps each function named in :data:`LAYERS` and rebinds the
wrapper under every name that held the original, in every ``cesaro``
module: ``cesaro_coefficients`` is also bound in ``dynamics``, ``apply`` in
``weights``, and the checks sit in ``acceptance.ACCEPTANCE_CHECKS``.  A name
left unbound would silently miss calls.  ``TaylorSeries`` is traced through
its ``__init__``.

Spans (name, start, end, parent, query id, work) are kept in flat arrays in
memory and written out at the end.  A span's self time is its duration minus
the durations of its direct children; calls run on one thread, so children
nest inside their parent.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

ALL = ("paper_report", "norm_pool", "long_series")


def _coeff_count(args, kwargs) -> int:
    return len(args[1] if len(args) > 1 else kwargs["coeffs"])


def _radii_arg(default: int):
    return lambda args, kwargs: args[2] if len(args) > 2 else kwargs.get("radii", default)


#: The interaction map.  Span name -> (workloads on which it must be called,
#: the end-to-end metrics it should move).  On every other workload it must
#: not be called at all; :func:`guard` enforces both directions.
LAYERS = {
    "series.TaylorSeries": (ALL, "wall_ref on paper_report and norm_pool"),
    "operators.cesaro_coefficients": (
        ALL,
        "wall_ref on paper_report (batching across series); must not worsen query_p90_ref on long_series",
    ),
    "operators.apply": (ALL, "wall_ref on paper_report; query_p50_ref on long_series"),
    "operators.apply_inverse": (("paper_report", "long_series"), "query_p50_ref on long_series"),
    "weights.circle_max": (
        ("paper_report", "norm_pool"),
        "query_p50_ref and wall_ref on norm_pool, wall_ref on paper_report; no change on long_series",
    ),
    "weights.weighted_sup_norm": (
        ("paper_report", "norm_pool"),
        "query_p50_ref and wall_ref on norm_pool, wall_ref on paper_report; no change on long_series",
    ),
    "weights.operator_norm_witness": (
        ("paper_report", "norm_pool"),
        "query_p50_ref and wall_ref on norm_pool, wall_ref on paper_report; no change on long_series",
    ),
    "weights.frechet_norm": (("paper_report",), "wall_ref on paper_report"),
    "spectral.resolvent_apply": (
        ("paper_report", "long_series"),
        "query_p50_ref, query_p90_ref and wall_ref on long_series; barely paper_report; none on norm_pool",
    ),
    "spectral.eigenpair": (
        ("paper_report", "long_series"),
        "query_p50_ref, query_p90_ref and wall_ref on long_series; barely paper_report; none on norm_pool",
    ),
    "spectral.product_bound_scan": (
        ("paper_report", "long_series"),
        "query_p50_ref, query_p90_ref and wall_ref on long_series; barely paper_report; none on norm_pool",
    ),
    "dynamics.power_bound_certificate": (("paper_report",), "wall_ref on paper_report"),
    "dynamics.ergodic_trace": (("paper_report",), "wall_ref on paper_report"),
    "dynamics.range_preimage": (("long_series",), "query_p50_ref and wall_ref on long_series"),
}
CHECKS = (
    "check_operator_norm_formula",
    "check_norm_sandwich",
    "check_fixed_point",
    "check_inverse_round_trips",
    "check_finite_sections",
    "check_eigenpairs",
    "check_resolvent",
    "check_product_bounds",
    "check_power_boundedness",
    "check_mean_ergodicity",
    "check_norm_equivalences",
    "check_standard_weight_norms",
    "check_log_weight_divergence",
    "check_c1_log_images",
    "check_integral_series_agreement",
)
for _check in CHECKS:
    LAYERS[f"acceptance.{_check}"] = (("paper_report",), "wall_ref on paper_report (which check a gain came from)")

#: Per-layer metrics reported by a traced run: name -> (span, statistic, unit).
#: Counts and seconds are per pass of the workload's query list.
PER_LAYER = {
    "weights.circle_max.calls": ("weights.circle_max", "calls", "count"),
    "weights.circle_max.self_s": ("weights.circle_max", "self_s", "s"),
    "weights.weighted_sup_norm.calls": ("weights.weighted_sup_norm", "calls", "count"),
    "weights.weighted_sup_norm.self_s": ("weights.weighted_sup_norm", "self_s", "s"),
    "weights.polish_fft_share": ("weights.weighted_sup_norm", "polish_share", "ratio"),
    "weights.operator_norm_witness.self_s": ("weights.operator_norm_witness", "self_s", "s"),
    "weights.frechet_norm.calls": ("weights.frechet_norm", "calls", "count"),
    "weights.frechet_norm.self_s": ("weights.frechet_norm", "self_s", "s"),
    "operators.cesaro_coefficients.calls": ("operators.cesaro_coefficients", "calls", "count"),
    "operators.cesaro_coefficients.self_s": ("operators.cesaro_coefficients", "self_s", "s"),
    "operators.cesaro_coefficients.coeffs": ("operators.cesaro_coefficients", "work", "count"),
    "operators.apply.self_s": ("operators.apply", "self_s", "s"),
    "operators.apply_inverse.self_s": ("operators.apply_inverse", "self_s", "s"),
    "spectral.resolvent_apply.calls": ("spectral.resolvent_apply", "calls", "count"),
    "spectral.resolvent_apply.self_s": ("spectral.resolvent_apply", "self_s", "s"),
    "spectral.eigenpair.calls": ("spectral.eigenpair", "calls", "count"),
    "spectral.eigenpair.self_s": ("spectral.eigenpair", "self_s", "s"),
    "spectral.product_bound_scan.self_s": ("spectral.product_bound_scan", "self_s", "s"),
    "dynamics.power_bound_certificate.self_s": ("dynamics.power_bound_certificate", "self_s", "s"),
    "dynamics.ergodic_trace.self_s": ("dynamics.ergodic_trace", "self_s", "s"),
    "dynamics.range_preimage.self_s": ("dynamics.range_preimage", "self_s", "s"),
    "series.TaylorSeries.calls": ("series.TaylorSeries", "calls", "count"),
    "series.TaylorSeries.self_s": ("series.TaylorSeries", "self_s", "s"),
}
for _check in CHECKS:
    PER_LAYER[f"acceptance.{_check}.s"] = (f"acceptance.{_check}", "total_s", "s")


class Tracer:
    """In-memory span recorder; ``query`` tags spans with the current query id.

    ``clock`` times the spans; the benchmark passes one that stops while its
    reference timer runs.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.query_id = array("i")
        self.work = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.query = -1

    def wrap(self, name: str, fn, work=None):
        nid = len(self.names)
        self.names.append(name)
        clock = self.clock
        stack = self._stack

        def traced_call(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.query_id.append(self.query)
            self.work.append(work(args, kwargs) if work else 0)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()

        traced_call.__name__ = getattr(fn, "__name__", name)
        traced_call.__wrapped__ = fn
        return traced_call

    def layer_stats(self, samples: list[int]) -> dict[str, dict[str, float]]:
        """calls, self_s, total_s and work per span name, per pass of the query list.

        ``samples[q]`` is how often query ``q`` ran; each span counts
        ``1 / samples[q]`` of a pass, so queries run more often than others
        do not weigh more.
        """
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        work = np.frombuffer(self.work, dtype=np.int64)
        per_pass = 1.0 / np.asarray(samples, dtype=float)[np.frombuffer(self.query_id, dtype=np.int32)]
        duration = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        nested = parent >= 0
        children_s = np.zeros(len(ids))
        np.add.at(children_s, parent[nested], duration[nested])
        width = len(self.names)
        per_name = lambda values: np.bincount(ids, weights=values * per_pass, minlength=width)
        calls, self_s, total_s, work_sum = (per_name(v) for v in (1.0, duration - children_s, duration, work))
        stats = {
            name: {"calls": calls[k], "self_s": self_s[k], "total_s": total_s[k], "work": work_sum[k]}
            for k, name in enumerate(self.names)
        }
        # Polish share: circle_max calls inside each weighted_sup_norm span
        # beyond its radius count, over all its circle_max calls.
        wsn = self.names.index("weights.weighted_sup_norm")
        cm = self.names.index("weights.circle_max")
        in_wsn = (ids == cm) & nested
        in_wsn[in_wsn] = ids[parent[in_wsn]] == wsn
        grid_calls = float(np.sum((work * per_pass)[ids == wsn]))
        all_calls = float(np.sum(per_pass[in_wsn]))
        stats["weights.weighted_sup_norm"]["polish_share"] = (
            (all_calls - grid_calls) / all_calls if all_calls else 0.0
        )
        return stats

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            query=np.frombuffer(self.query_id, dtype=np.int32),
            work=np.frombuffer(self.work, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


def _targets():
    """(span name, module, attribute, work extractor) for every traced function."""
    weights = importlib.import_module("cesaro.weights")
    radii_default = inspect.signature(weights.weighted_sup_norm).parameters["radii"].default
    work = {
        "operators.cesaro_coefficients": _coeff_count,
        "weights.weighted_sup_norm": _radii_arg(radii_default),
    }
    for name in LAYERS:
        module, attr = name.split(".")
        yield name, importlib.import_module(f"cesaro.{module}"), attr, work.get(name)


@contextmanager
def traced(tracer: Tracer):
    """Rebind every traced function to its wrapper for the duration of the block."""
    replacement = {}
    restore = []
    for name, module, attr, work in _targets():
        if attr == "TaylorSeries":
            cls = getattr(module, attr)
            restore.append((cls, "__init__", cls.__init__))
            cls.__init__ = tracer.wrap(name, cls.__init__)
        else:
            original = getattr(module, attr)
            replacement[id(original)] = tracer.wrap(name, original, work)
    modules = [m for key, m in list(sys.modules.items()) if key == "cesaro" or key.startswith("cesaro.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in replacement:
                new = replacement[id(value)]
            elif isinstance(value, tuple) and any(id(v) in replacement for v in value):
                new = tuple(replacement.get(id(v), v) for v in value)
            else:
                continue
            restore.append((module, attr, value))
            setattr(module, attr, new)
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)


def guard(workload: str, stats: dict) -> list[str]:
    """Violations of the interaction map: missing predicted calls, or unpredicted ones."""
    problems = []
    for name, (expected_on, _) in LAYERS.items():
        calls = stats[name]["calls"]
        if workload in expected_on and calls == 0:
            problems.append(f"{name}: no calls on {workload}, where the map predicts work")
        elif workload not in expected_on and calls > 0:
            problems.append(f"{name}: {calls:g} calls per pass on {workload}, where the map predicts none")
    return problems


def per_layer_metrics(stats: dict, overhead_ref: float) -> dict[str, dict]:
    """The metrics of :data:`PER_LAYER` and ``trace.overhead_ref``, by name."""
    metrics = {
        metric: {"value": float(stats[span][stat]), "unit": unit}
        for metric, (span, stat, unit) in PER_LAYER.items()
    }
    metrics["trace.overhead_ref"] = {"value": float(overhead_ref), "unit": "ref"}
    return metrics

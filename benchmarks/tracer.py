"""Span tracing of the ltadmm layers, installed from outside the package.

A :class:`Tracer` replaces module attributes with timing wrappers for the
duration of a ``with`` block and restores them afterwards.  Functions that a
module imports by name (``from .oracles import draw_batch``) are looked up in
the *calling* module's namespace, so they are wrapped there.  Each span keeps
its name, start, end, parent span, self time, row count and run id; spans are
held in memory and written out by the caller at the end.  Self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from pathlib import Path

from ltadmm.algorithms import VARIANTS

# (module whose namespace the caller looks the name up in, attribute, span name)
TARGETS = (
    ("ltadmm.runner", "run_experiment", "runner.run_experiment"),
    ("ltadmm.runner", "build_instance", "runner.build_instance"),
    ("ltadmm.runner", "build_topology", "runner.build_topology"),
    ("ltadmm.runner", "run", "runner.run"),
    ("ltadmm.runner", "_write_csv", "runner._write_csv"),
    ("ltadmm.algorithms", "simulate_replicate", "algorithms.simulate_replicate"),
    ("ltadmm.algorithms", "init_states", "algorithms.init_states"),
    ("ltadmm.algorithms", "outer_step", "algorithms.outer_step"),
    ("ltadmm.algorithms", "local_training_epoch", "algorithms.local_training_epoch"),
    ("ltadmm.algorithms", "draw_batch", "oracles.draw_batch"),
    ("ltadmm.algorithms", "sgd_estimate", "oracles.sgd_estimate"),
    ("ltadmm.algorithms", "saga_refresh", "oracles.saga_refresh"),
    ("ltadmm.algorithms", "saga_estimate_update", "oracles.saga_estimate_update"),
    ("ltadmm.algorithms", "local_full_gradient", "problems.local_full_gradient"),
    ("ltadmm.algorithms", "global_gradient_norm_sq", "problems.global_gradient_norm_sq"),
    ("ltadmm.problems", "local_full_gradient", "problems.local_full_gradient"),
    ("ltadmm.problems", "component_gradients", "problems.component_gradients"),
    ("ltadmm.oracles", "component_gradients", "problems.component_gradients"),
    ("ltadmm.metrics", "consensus_error", "metrics.consensus_error"),
    ("ltadmm.metrics", "compute_dk", "metrics.compute_dk"),
    ("ltadmm.metrics", "aggregate_replicates", "metrics.aggregate_replicates"),
)

EPOCH = "algorithms.local_training_epoch"
# Gradient and metric calls; outside a local epoch they are measurement work.
MEASUREMENT = (
    "problems.global_gradient_norm_sq",
    "problems.local_full_gradient",
    "metrics.consensus_error",
    "metrics.compute_dk",
)

# span fields, in tuple order
SPAN_FIELDS = ("id", "parent", "name", "start", "end", "self_s", "rows", "run")


class Tracer:
    """Records spans of the wrapped ltadmm functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.counters: list = []
        self.run_id = 0
        self._next_id = 0
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def reset(self, run_id: int) -> None:
        """Drop recorded spans and counters; later spans carry ``run_id``."""
        self.spans = []
        self.counters = []
        self.run_id = run_id

    def __enter__(self) -> "Tracer":
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def _wrap(self, fn, span_name: str):
        tracer = self
        stack = self._stack
        clock = time.perf_counter
        fixed_id = self.name_id(span_name)
        label = None
        rows = None
        keeps_counters = span_name == "algorithms.init_states"
        if span_name == EPOCH:
            variant_ids = {v: self.name_id(f"{EPOCH}.{v}") for v in VARIANTS}
            label = lambda args: variant_ids[args[2].variant]  # noqa: E731
        elif span_name == "problems.component_gradients":
            rows = lambda args: len(args[2])  # noqa: E731
        elif span_name == "problems.local_full_gradient":
            rows = lambda args: args[0].num_points(args[1])  # noqa: E731

        def traced(*args, **kwargs):
            name_id = label(args) if label is not None else fixed_id
            n_rows = rows(args) if rows is not None else 0
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                tracer.spans.append(
                    (
                        span_id,
                        parent[0] if parent is not None else -1,
                        name_id,
                        start,
                        end,
                        duration - frame[1],
                        n_rows,
                        tracer.run_id,
                    )
                )
            if keeps_counters:
                tracer.counters.extend(state.counter for state in result)
            return result

        return traced

    def write(self, path: Path) -> None:
        """Write the recorded spans column-wise as JSON."""
        columns = {f: [span[i] for span in self.spans] for i, f in enumerate(SPAN_FIELDS)}
        path.write_text(json.dumps({"names": self.names, "spans": columns}))


# per-call statistics reported for each span name
_STATS = {
    "problems.component_gradients": ("calls", "us_p50", "self_s"),
    "problems.local_full_gradient": ("us_p50", "self_s"),
    "problems.global_gradient_norm_sq": ("calls", "total_s"),
    "oracles.draw_batch": ("calls", "us_p50", "self_s"),
    "oracles.saga_estimate_update": ("calls", "us_p50", "self_s"),
    "oracles.saga_refresh": ("calls", "us_p50", "total_s"),
    "oracles.sgd_estimate": ("calls", "us_p50", "self_s"),
    **{f"{EPOCH}.{v}": ("calls", "us_p50", "self_s") for v in VARIANTS},
    "algorithms.outer_step": ("us_p50", "self_s"),
    "algorithms.simulate_replicate": ("calls", "ms_p50"),
    "metrics.consensus_error": ("calls", "us_p50"),
    "metrics.compute_dk": ("calls", "total_s"),
    "metrics.aggregate_replicates": ("total_s",),
    "runner.build_instance": ("ms",),
    "runner.build_topology": ("ms",),
    "runner.run": ("s_p50",),
}
_MEDIAN_SCALE = {"us_p50": 1e6, "ms_p50": 1e3, "ms": 1e3, "s_p50": 1.0}


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of the spans recorded since the last reset."""
    names = tracer.names
    durations: dict[str, list[float]] = {n: [] for n in names}
    self_s: dict[str, float] = {n: 0.0 for n in names}
    in_epoch: dict[int, bool] = {}
    in_measurement: dict[int, bool] = {}
    solver_rows = 0
    total_rows = 0
    lfg_solver = 0
    lfg_metric = 0
    measurement_s = 0.0
    # span ids are handed out at start, so a parent sorts before its children
    for span_id, parent, name_id, start, end, own, n_rows, _ in sorted(tracer.spans):
        name = names[name_id]
        duration = end - start
        durations[name].append(duration)
        self_s[name] += own
        parent_in_epoch = in_epoch.get(parent, False)
        parent_in_measurement = in_measurement.get(parent, False)
        is_measurement = name in MEASUREMENT
        in_epoch[span_id] = parent_in_epoch or name.startswith(EPOCH)
        in_measurement[span_id] = parent_in_measurement or is_measurement
        if is_measurement and not parent_in_epoch and not parent_in_measurement:
            measurement_s += duration
        if name == "problems.component_gradients":
            total_rows += n_rows
            if parent_in_epoch:
                solver_rows += n_rows
        elif name == "problems.local_full_gradient":
            if parent_in_epoch:
                lfg_solver += 1
                solver_rows += n_rows
            else:
                lfg_metric += 1

    def stat(name: str, kind: str) -> float:
        spans = durations[name]
        if kind == "calls":
            return len(spans)
        if kind == "self_s":
            return self_s[name]
        if kind == "total_s":
            return sum(spans, 0.0)
        return statistics.median(spans) * _MEDIAN_SCALE[kind] if spans else 0.0

    m = {f"{name}.{kind}": stat(name, kind) for name, kinds in _STATS.items() for kind in kinds}
    charged = sum(c.component_gradient_evals for c in tracer.counters)
    m["problems.component_gradients.rows"] = total_rows
    m["problems.local_full_gradient.solver_calls"] = lfg_solver
    m["problems.local_full_gradient.metric_calls"] = lfg_metric
    m["oracles.charged_per_row"] = charged / solver_rows if solver_rows else 0.0
    m["algorithms.exchange_share"] = self_s["algorithms.outer_step"] / wall_s
    m["metrics.measurement_share"] = measurement_s / wall_s
    m["runner._write_csv.ms"] = stat("runner._write_csv", "total_s") * 1e3
    return m


def self_time_by_function(tracer: Tracer) -> dict[str, float]:
    """Self seconds per wrapped function, the epoch's variants summed."""
    out: dict[str, float] = {}
    for span in tracer.spans:
        name = tracer.names[span[2]]
        if name.startswith(EPOCH):
            name = EPOCH
        out[name] = out.get(name, 0.0) + span[5]
    return dict(sorted(out.items(), key=lambda item: -item[1]))

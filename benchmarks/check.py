"""Output check behind ``correct_frac`` / ``failed_frac``.

Every grid point of every measured call is checked against

* closed forms: no replicate diverged, the CSV has K + 1 rows, the cumulative
  ``component_evals`` equals the sum of ``metrics.iteration_evals`` over the
  K iterations and ``comms`` equals K times the number of directed edges;
* the workload's expected resolved configuration (``EXPECTED_RESOLVED``);
* the first call of the same run: reruns must write the same CSV bytes;
* the values pinned in ``references.json`` for this seed and budget: final
  ``grad_norm_sq_mean`` and ``consensus_err_mean`` (and the stopping time
  where a threshold is set) to a relative 1e-9, so that a later engine may
  change summation order; counters, row count and divergence count exactly.
  A run whose seeds are not pinned makes one extra, untimed call at a pinned
  seed pair (:func:`reference_seeds`) and compares that one.

A CSV whose bytes differ from the pinned digest is counted in
``runner.csv_digest_mismatch`` for information and is not a failure.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

from ltadmm.metrics import iteration_evals

REL_TOL = 1e-9
REFERENCES = Path(__file__).resolve().parent / "references.json"

_FLOAT_KEYS = ("grad_norm_sq_mean", "consensus_err_mean")
_EXACT_KEYS = ("rows", "component_evals", "comms", "num_diverged")


def summarize(result) -> list[dict]:
    """Per-point values read back from the CSVs and manifest a call wrote."""
    summaries = []
    for point in result.manifest["points"]:
        data = (result.output_dir / point["csv"]).read_bytes()
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        last = rows[-1]
        summaries.append(
            {
                "label": point["label"],
                "rows": len(rows),
                "grad_norm_sq_mean": float(last["grad_norm_sq_mean"]),
                "consensus_err_mean": float(last["consensus_err_mean"]),
                "component_evals": int(last["component_evals"]),
                "comms": int(last["comms"]),
                "num_diverged": point["num_diverged"],
                "stopping": point["stopping"],
                "csv_sha256": hashlib.sha256(data).hexdigest(),
                "csv_bytes": len(data),
            }
        )
    return summaries


def directed_edges(topology_spec: dict) -> int:
    """Messages per outer iteration, from the topology spec alone."""
    if "ring" in topology_spec:
        return 2 * int(topology_spec["ring"])
    return 2 * len({frozenset(edge) for edge in topology_spec["edges"]})


def _rel_close(value: float, reference: float) -> bool:
    return abs(value - reference) <= REL_TOL * abs(reference)


def _stopping_problems(value, reference) -> list[str]:
    if value is None or reference is None:
        return [] if value == reference else [f"stopping {value!r} != pinned {reference!r}"]
    if value["k"] != reference["k"] or not _rel_close(
        value["model_time"], reference["model_time"]
    ):
        return [f"stopping {value!r} != pinned {reference!r}"]
    return []


def point_problems(
    summary: dict,
    resolved: dict,
    expected_resolved: dict,
    messages_per_iteration: int,
    m_max: int,
    pinned: dict | None,
) -> list[str]:
    """Every way one grid point's output is wrong; empty when it is correct."""
    problems = []
    for key, want in expected_resolved.items():
        if resolved.get(key) != want:
            problems.append(f"resolved {key} = {resolved.get(key)!r}, expected {want!r}")
    iterations = resolved["outer_iterations"]
    closed_form = {
        "num_diverged": 0,
        "rows": iterations + 1,
        "component_evals": sum(
            iteration_evals(resolved["variant"], resolved["tau"], m_max, resolved["batch_size"], k)
            for k in range(iterations)
        ),
        "comms": iterations * messages_per_iteration,
    }
    for key, want in closed_form.items():
        if summary[key] != want:
            problems.append(f"{key} = {summary[key]}, closed form {want}")
    for key in _FLOAT_KEYS:
        if not math.isfinite(summary[key]):
            problems.append(f"{key} = {summary[key]} is not finite")
    if pinned is not None:
        for key in _EXACT_KEYS:
            if summary[key] != pinned[key]:
                problems.append(f"{key} = {summary[key]}, pinned {pinned[key]}")
        for key in _FLOAT_KEYS:
            if not _rel_close(summary[key], pinned[key]):
                problems.append(f"{key} = {summary[key]!r}, pinned {pinned[key]!r}")
        problems += _stopping_problems(summary["stopping"], pinned["stopping"])
    return problems


def load_references() -> dict:
    if not REFERENCES.exists():
        return {"workloads": {}}
    return json.loads(REFERENCES.read_text())


def pinned_points(
    references: dict, workload: str, seed: int, problem_seed: int, iterations: int
) -> list[dict] | None:
    """Pinned per-point values for this seed pair and budget, if there are any."""
    entry = references["workloads"].get(workload)
    if entry is None or entry["iterations"] != iterations:
        return None
    pinned = entry["seeds"].get(str(seed))
    if pinned is None or pinned["problem_seed"] != problem_seed:
        return None
    return pinned["points"]


def reference_seeds(
    references: dict, workload: str, seed: int, problem_seed: int, iterations: int
) -> tuple[int, int] | None:
    """The seed pair whose pinned values a run compares against.

    That is the run's own pair when it is pinned, else the pinned pair at
    ``seed`` modulo the number of pinned seeds; None when nothing is pinned
    for this workload and budget (the references are stale: re-pin).
    """
    if pinned_points(references, workload, seed, problem_seed, iterations) is not None:
        return seed, problem_seed
    entry = references["workloads"].get(workload)
    if entry is None or entry["iterations"] != iterations or not entry["seeds"]:
        return None
    pinned_seeds = sorted(entry["seeds"], key=int)
    chosen = pinned_seeds[seed % len(pinned_seeds)]
    return int(chosen), entry["seeds"][chosen]["problem_seed"]


class OutputCheck:
    """Checks each call of one benchmark run and keeps the tallies."""

    def __init__(self, workload: str, cfg, expected_resolved: dict, pinned: list[dict] | None):
        self.workload = workload
        self.expected_resolved = expected_resolved
        self.messages_per_iteration = directed_edges(cfg.topology)
        self.m_max = int(cfg.problem["points_per_agent"])
        self.pinned = {p["label"]: p for p in pinned} if pinned is not None else None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digest_mismatch = 0
        self.csv_bytes = 0
        self._first_digest: dict[str, str] = {}

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def __call__(self, result) -> None:
        points = result.manifest["points"]
        summaries = summarize(result)
        self.digest_mismatch = 0
        self.csv_bytes = sum(s["csv_bytes"] for s in summaries)
        if self.pinned is not None and set(self.pinned) != {s["label"] for s in summaries}:
            self.failures.append("grid point labels differ from the pinned ones")
            self.attempted += len(summaries)
            self.failed += len(summaries)
            return
        for point, summary in zip(points, summaries):
            label = summary["label"]
            pinned = self.pinned[label] if self.pinned is not None else None
            problems = point_problems(
                summary,
                point["resolved"],
                self.expected_resolved,
                self.messages_per_iteration,
                self.m_max,
                pinned,
            )
            first = self._first_digest.setdefault(label, summary["csv_sha256"])
            if summary["csv_sha256"] != first:
                problems.append("CSV bytes differ from the first call of this run")
            if pinned is not None and summary["csv_sha256"] != pinned["csv_sha256"]:
                self.digest_mismatch += 1
            self.attempted += 1
            if problems:
                self.failed += 1
                self.failures.append(f"{self.workload} {label}: " + "; ".join(problems))

"""Self-test of the benchmark.  Run from the repository root:

    python3 -m pytest benchmarks/test_bench.py -q

It runs every workload at a tiny budget in both modes, against references
pinned at that budget, and checks that each metric named in
``BENCHMARK.json`` (and each per-layer metric the layer map in the README
promises) is emitted with its unit, and that the output check fails when a
pinned value or the resolved configuration is wrong.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import calibration  # noqa: E402
import check  # noqa: E402
import workloads  # noqa: E402
from ltadmm import runner  # noqa: E402

LAYER_METRICS = [
    *(f"problems.component_gradients.{s}" for s in ("calls", "rows", "us_p50", "self_s")),
    *(
        f"problems.local_full_gradient.{s}"
        for s in ("solver_calls", "metric_calls", "us_p50", "self_s")
    ),
    "problems.global_gradient_norm_sq.calls",
    "problems.global_gradient_norm_sq.total_s",
    *(f"oracles.draw_batch.{s}" for s in ("calls", "us_p50", "self_s")),
    *(f"oracles.saga_estimate_update.{s}" for s in ("calls", "us_p50", "self_s")),
    *(f"oracles.saga_refresh.{s}" for s in ("calls", "us_p50", "total_s")),
    *(f"oracles.sgd_estimate.{s}" for s in ("calls", "us_p50", "self_s")),
    "oracles.charged_per_row",
    *(
        f"algorithms.local_training_epoch.{v}.{s}"
        for v in ("exact", "lt_admm", "lt_admm_vr", "lt_admm_vr_v2")
        for s in ("calls", "us_p50", "self_s")
    ),
    "algorithms.outer_step.us_p50",
    "algorithms.outer_step.self_s",
    "algorithms.exchange_share",
    "algorithms.simulate_replicate.calls",
    "algorithms.simulate_replicate.ms_p50",
    "metrics.consensus_error.calls",
    "metrics.consensus_error.us_p50",
    "metrics.compute_dk.calls",
    "metrics.compute_dk.total_s",
    "metrics.aggregate_replicates.total_s",
    "metrics.measurement_share",
    "runner.build_instance.ms",
    "runner.build_topology.ms",
    "runner.parse_config.ms",
    "runner.run.s_p50",
    "runner._write_csv.ms",
    "runner._write_csv.bytes",
    "runner.manifest.bytes",
    "runner.csv_digest_mismatch",
    "trace.overhead_s",
]
END_TO_END = ["wall_s", "iters_per_s", "setup_s", "peak_rss_mb", "correct_frac"]


TINY_ITERATIONS = 2


@pytest.fixture(scope="module")
def tiny_references(tmp_path_factory):
    """Every workload at a tiny budget, with references pinned for seed 0 there."""
    import pin

    path = tmp_path_factory.mktemp("references") / "references.json"
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(ROOT)
        patch.setattr(workloads, "ITERATIONS", dict.fromkeys(workloads.WORKLOADS, TINY_ITERATIONS))
        references = pin.pin(ROOT, [0])
        assert references is not None
        path.write_text(json.dumps(references))
        patch.setattr(check, "REFERENCES", path)
        yield references


def run_bench(capsys, workload: str, trace: int, seed: int = 0) -> tuple[dict, str]:
    import run

    capsys.readouterr()
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    stdout = capsys.readouterr().out
    return json.loads(stdout.strip().splitlines()[-1]), stdout


def self_time_share_under_root(spans_path: Path) -> float:
    """Self time of the spans below the root ``run_experiment`` span ÷ its duration."""
    columns = json.loads(spans_path.read_text())["spans"]
    root = columns["parent"].index(-1)
    duration = columns["end"][root] - columns["start"][root]
    below = sum(own for own, parent in zip(columns["self_s"], columns["parent"]) if parent != -1)
    return below / duration


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(tiny_references, capsys, workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    result, stdout = run_bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert " pinned_seed 0 " in stdout
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    assert set(LAYER_METRICS if trace else END_TO_END) <= set(emitted)
    if trace:
        spans = ROOT / ".bench_work" / workload / "spans.json"
        assert self_time_share_under_root(spans) >= 0.95
    else:
        assert "\nfailed_frac 0.0 ratio\n" in stdout
        assert all(f"\n{name} " in stdout for name in ("raw_wall_s", "raw_setup_s", "kernel_s"))


def test_scaling_cancels_a_uniformly_slower_host():
    fast = calibration.scaled([1.0, 2.0], [0.29, 0.29, 0.29])
    slow = calibration.scaled([2.0, 4.0], [0.58, 0.58, 0.58])
    assert fast == pytest.approx([1.0, 2.0])
    assert slow == pytest.approx(fast)
    # each time is scaled by the mean of the kernels just before and after it
    assert calibration.scaled([1.0], [0.29, 0.87]) == pytest.approx([0.5])


def test_unpinned_seed_is_compared_through_a_pinned_one(tiny_references, capsys):
    result, stdout = run_bench(capsys, "fig2-tau", 0, seed=7)
    assert " pinned_seed 0 " in stdout
    # the measured call's 6 points plus the 6 of the pinned seed's call
    assert result["correct"] and result["attempted"] == 12


def test_perturbed_pinned_value_fails_the_run(tiny_references, capsys, tmp_path, monkeypatch):
    perturbed = copy.deepcopy(tiny_references)
    point = perturbed["workloads"]["fig2-tau"]["seeds"]["0"]["points"][3]
    point["grad_norm_sq_mean"] *= 1.0 + 1e-8
    path = tmp_path / "references.json"
    path.write_text(json.dumps(perturbed))
    monkeypatch.setattr(check, "REFERENCES", path)
    result, stdout = run_bench(capsys, "fig2-tau", 0)
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["correct_frac"]["value"] < 1.0
    assert "\nfailed_frac 0.0 ratio\n" not in stdout
    assert "FAILED fig2-tau point003" in stdout


def _checked(workload, cfg, pinned, result) -> check.OutputCheck:
    checker = check.OutputCheck(workload, cfg, workloads.EXPECTED_RESOLVED[workload], pinned)
    checker(result)
    return checker


def test_pinned_values_at_the_real_budget(tmp_path):
    workload, seed = "fig2-tau", 0
    problem_seed = workloads.default_problem_seed(seed)
    references = json.loads((BENCH / "references.json").read_text())
    iterations = references["workloads"][workload]["iterations"]
    pinned = check.pinned_points(references, workload, seed, problem_seed, iterations)
    assert pinned is not None
    cfg = workloads.build_config(workload, seed, problem_seed, iterations)
    result = runner.run_experiment(cfg, out_dir=tmp_path, workers=1)
    assert _checked(workload, cfg, pinned, result).failed_frac == 0.0

    perturbed = copy.deepcopy(pinned)
    perturbed[3]["grad_norm_sq_mean"] *= 1.0 + 1e-8
    assert _checked(workload, cfg, perturbed, result).failed_frac > 0.0

    assert all(p["stopping"] is not None for p in pinned)
    later_stop = copy.deepcopy(pinned)
    later_stop[5]["stopping"]["model_time"] *= 1.0 + 1e-8
    assert _checked(workload, cfg, later_stop, result).failed_frac > 0.0

    changed_digest = copy.deepcopy(pinned)
    changed_digest[0]["csv_sha256"] = "0" * 64
    checker = _checked(workload, cfg, changed_digest, result)
    assert checker.failed_frac == 0.0 and checker.digest_mismatch == 1


def test_replacement_sampling_on_wide40_fails_the_check(tmp_path):
    cfg = workloads.build_config("wide40-dk", 0, workloads.default_problem_seed(0), 2)
    cfg.algorithm["batch_replacement"] = True
    result = runner.run_experiment(cfg, out_dir=tmp_path, workers=1)
    checker = _checked("wide40-dk", cfg, None, result)
    assert checker.failed == checker.attempted == 2
    assert "batch_replacement" in checker.failures[0]


def test_wide40_topology_has_120_edges():
    cfg = workloads.build_config("wide40-dk", 0, workloads.default_problem_seed(0), 2)
    assert check.directed_edges(cfg.topology) == 240
    assert sum(runner.build_topology(cfg.topology).degrees) == 240

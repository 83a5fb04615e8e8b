"""The benchmark's span tracer and output check must work on the package.

``benchmarks/tracer.py`` patches ltadmm functions by module and attribute
name, reads the run configuration from the local epoch's third positional
argument and the evaluation counters from what ``init_states`` returns, and
``benchmarks/check.py`` checks every workload's output against the cost
model's closed forms; a change to any of these in the package would
otherwise only show up when the benchmark runs.
"""

import importlib
import importlib.util
import time
from pathlib import Path

import pytest

from ltadmm.runner import ExperimentConfig, run_experiment

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load_benchmark_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("target", load_benchmark_module("tracer").TARGETS, ids=lambda t: f"{t[0]}.{t[1]}")
def test_tracer_target_resolves(target):
    module_name, attr, _ = target
    assert callable(getattr(importlib.import_module(module_name), attr))


# replicate stacking, and batches drawn without and with replacement
SAMPLINGS = (
    {"monte_carlo_runs": 2},
    {"batch_size": 2, "batch_replacement": False},
    {"batch_size": 3, "batch_replacement": True},
)


def test_traced_run_charges_one_evaluation_per_row(tmp_path):
    tracer_module = load_benchmark_module("tracer")
    variants = ["exact", "lt_admm", "lt_admm_vr", "lt_admm_vr_v2"]
    for case, sampling in enumerate(SAMPLINGS):
        cfg = ExperimentConfig(
            name="traced",
            topology={"ring": 4},
            problem={
                "kind": "logistic_nonconvex",
                "seed": 3,
                "n_agents": 4,
                "dimension": 2,
                "points_per_agent": 6,
            },
            algorithm={
                "variant": "exact",
                "gamma": 0.05,
                "rho": 1.0,
                "tau": 3,
                "outer_iterations": 2,
                **sampling,
            },
            sweep={"variant": variants},
        )
        started = time.perf_counter()
        with tracer_module.Tracer() as tracer:
            run_experiment(cfg, out_dir=tmp_path / str(case))
        metrics = tracer_module.layer_metrics(tracer, time.perf_counter() - started)
        assert metrics["oracles.charged_per_row"] == 1.0, sampling
        for variant in variants:
            assert metrics[f"algorithms.local_training_epoch.{variant}.calls"] > 0


WORKLOADS = load_benchmark_module("workloads")


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_every_workload_passes_the_output_check(tmp_path, workload):
    # the check behind correct_frac, at 2 outer iterations, with no pinned values
    check = load_benchmark_module("check")
    seed = 0
    cfg = WORKLOADS.build_config(workload, seed, WORKLOADS.default_problem_seed(seed), 2)
    checker = check.OutputCheck(workload, cfg, WORKLOADS.EXPECTED_RESOLVED[workload], None)
    checker(run_experiment(cfg, out_dir=tmp_path, workers=1))
    assert checker.attempted > 0
    assert checker.failed == 0, checker.failures

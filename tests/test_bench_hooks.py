"""The benchmark's span tracer must find and read every function it wraps.

``benchmarks/tracer.py`` patches ltadmm functions by module and attribute
name, reads the run configuration from the local epoch's third positional
argument and the evaluation counters from what ``init_states`` returns; a
change to any of these in the package would otherwise only show up when the
traced benchmark runs.
"""

import importlib
import importlib.util
import time
from pathlib import Path

import pytest

from ltadmm.runner import ExperimentConfig, run_experiment

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("target", load_tracer().TARGETS, ids=lambda t: f"{t[0]}.{t[1]}")
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
    tracer_module = load_tracer()
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

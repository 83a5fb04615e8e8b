"""The benchmark's span tracer must find every function it wraps.

``benchmarks/tracer.py`` patches ltadmm functions by module and attribute
name; a rename in the package would otherwise only show up when the traced
benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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

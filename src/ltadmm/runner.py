"""Experiment configuration, sweep orchestration, and trace persistence.

Experiments are described by INI files with three sections (topology,
problem, algorithm) plus optional experiment, cost, sweep and output
sections; see the README for the exact keys.  An unknown section or key, or
a key in both the algorithm and cost sections, is an error.  A sweep is the
Cartesian product of the listed axes or an explicit list of override points
(used by the presets to pair a tuned step size with each local step count).

The fields of :class:`~ltadmm.algorithms.RunConfig` are the schema of the
algorithm and cost keys: INI values, sweep values, manifest configs and
preset dicts all go through the same per-field converters, so booleans are
spelled alike everywhere and an unknown key is an error.  Parsing a config
only reads it; :func:`resolve` is the one gate, called once per command by
:func:`run_experiment` and by ``ltadmm certify``.  It builds the topology,
the problem and every grid point's run configuration before any point runs;
the constructors hold the range rules, and any error building them is a
:class:`ConfigError`.

Every grid point produces one CSV of aggregated per-iteration metrics; a
JSON manifest records the library version, the Python and numpy versions,
the full resolved configuration, the seeds, and per-point summary data.
Re-running a config, or the manifest itself, reproduces byte-identical
outputs.

Grid points that differ only in the cost constants ``t_g``/``t_c`` (for
instance along a ``tg_tc_ratio`` axis) follow the same trajectory, so each
distinct trajectory is simulated once and every point gets its own
``model_time`` column from the cost table.  Distinct trajectories of one
call with the same random key share their random inputs
(:func:`~ltadmm.algorithms.shared_inputs`) for the length of the call.
"""

from __future__ import annotations

import configparser
import csv
import json
import os
import platform
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from itertools import chain, product, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .algorithms import RunConfig, batch_draws, random_key, run, shared_inputs
from .graph import Topology, build_from_edges, build_ring
from .metrics import Trace, reference_charges, with_model_time
from .problems import ProblemInstance, generate_classification

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentResult",
    "parse_config",
    "load_config",
    "build_topology",
    "build_instance",
    "expand_grid",
    "Resolved",
    "resolve",
    "make_run_config",
    "run_experiment",
    "stopping_time",
    "preset_fig1",
    "preset_fig2",
    "FIG1_TUNED_GAMMA",
    "FIG2_TUNED_GAMMA",
]


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


_SWEEP_AXES = ("gamma", "tau", "tg_tc_ratio", "variant")
# keys of the sections that RunConfig does not describe; the algorithm and
# cost keys are the RunConfig fields and the sweep keys are _SWEEP_AXES
_SECTION_KEYS = {
    "experiment": ("name",),
    "topology": ("ring", "n_agents", "edges"),
    "problem": ("kind", "seed", "n_agents", "dimension", "points_per_agent", "epsilon"),
    "output": ("dir", "stop_threshold"),
}
_SECTIONS = (*_SECTION_KEYS, "algorithm", "cost", "sweep")


def _parse_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    text = str(value).lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _parse_int(value) -> int:
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _parse_float(value) -> float:
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


_TYPE_CONVERTERS = {bool: _parse_bool, int: _parse_int, float: _parse_float, str: str}
# converter of every RunConfig field, from its annotation
_RUN_FIELDS = {
    name: _TYPE_CONVERTERS[hint] for name, hint in typing.get_type_hints(RunConfig).items()
}
# keys outside RunConfig: the tg_tc_ratio sweep axis and the problem,
# topology and output keys; any other key stays a string
_CONVERTERS = {
    **_RUN_FIELDS,
    "tg_tc_ratio": _parse_float,
    "seed": _parse_int,
    "dimension": _parse_int,
    "points_per_agent": _parse_int,
    "n_agents": _parse_int,
    "ring": _parse_int,
    "epsilon": _parse_float,
    "stop_threshold": _parse_float,
}


def _convert(key: str, raw):
    if isinstance(raw, str):
        raw = raw.strip()
    try:
        return _CONVERTERS.get(key, str)(raw)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from err


@dataclass
class ExperimentConfig:
    """Fully resolved experiment description.

    ``sweep`` maps axis names to value lists (Cartesian product); ``points``
    is an explicit list of override dicts.  A config sets at most one of
    the two.
    """

    name: str
    topology: dict
    problem: dict
    algorithm: dict
    sweep: dict = field(default_factory=dict)
    points: list = field(default_factory=list)
    output_dir: str = "out"
    stop_threshold: float | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        try:
            return cls(**data)
        except TypeError as err:
            raise ConfigError(f"incomplete config: {err}") from err


def _check_keys(label: str, section: dict) -> None:
    unknown = sorted(set(section) - set(_SECTION_KEYS[label]))
    if unknown:
        raise ConfigError(f"unknown {label} key(s): {', '.join(unknown)}")


def build_topology(spec: dict) -> Topology:
    if "ring" in spec:
        return build_ring(_convert("ring", spec["ring"]))
    n_agents = _convert("n_agents", spec["n_agents"])
    return build_from_edges(n_agents, [tuple(e) for e in spec["edges"]])


def build_instance(spec: dict) -> ProblemInstance:
    return generate_classification(
        seed=_convert("seed", spec["seed"]),
        n_agents=_convert("n_agents", spec["n_agents"]),
        dimension=_convert("dimension", spec["dimension"]),
        points_per_agent=_convert("points_per_agent", spec["points_per_agent"]),
        kind=spec["kind"],
        epsilon=_convert("epsilon", spec.get("epsilon", 0.0)),
    )


def make_run_config(algorithm: dict, overrides: dict) -> RunConfig:
    """Run configuration of one grid point: the algorithm keys plus overrides.

    Every value goes through the converter of its ``RunConfig`` field; a key
    that names no field is rejected.
    """
    merged = dict(algorithm)
    overrides = dict(overrides)
    if "tg_tc_ratio" in overrides:
        merged["t_g"] = _convert("tg_tc_ratio", overrides.pop("tg_tc_ratio"))
        merged["t_c"] = 1.0
    merged.update(overrides)
    unknown = sorted(set(merged) - set(_RUN_FIELDS))
    if unknown:
        raise ConfigError(f"unknown algorithm key(s): {', '.join(unknown)}")
    converted = {key: _convert(key, value) for key, value in merged.items()}
    try:
        return RunConfig(**converted)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid algorithm configuration: {err}") from err


def expand_grid(cfg: ExperimentConfig) -> list[dict]:
    """Override dict of every grid point, in deterministic order."""
    if cfg.points:
        return [dict(p) for p in cfg.points]
    axes = [(axis, cfg.sweep[axis]) for axis in _SWEEP_AXES if axis in cfg.sweep]
    if not axes:
        return [{}]
    names = [a for a, _ in axes]
    combos = product(*(values for _, values in axes))
    return [dict(zip(names, combo)) for combo in combos]


class Resolved(NamedTuple):
    """Everything a valid config builds before any grid point runs."""

    topology: Topology
    instance: ProblemInstance
    # label, overrides and run configuration of every grid point
    points: list[tuple[str, dict, RunConfig]]
    stop_threshold: float | None


def _build(section: str, builder, spec: dict):
    try:
        return builder(spec)
    except KeyError as err:
        raise ConfigError(f"{section} section is missing {err}") from err
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid {section}: {err}") from err


def resolve(cfg: ExperimentConfig) -> Resolved:
    """Build the topology, the problem and the run configuration of every point.

    Raises:
        ConfigError: on any key, value or combination that the builders or
            the checks below reject.
    """
    name = cfg.name
    if not isinstance(name, str) or name in (".", "..") or any(c in name for c in ("/", os.sep, "\0")):
        raise ConfigError(f"experiment name {name!r} must be a file name, not a path")
    if not isinstance(cfg.output_dir, (str, os.PathLike)) or "\0" in str(cfg.output_dir):
        raise ConfigError(f"output dir must be a path, got {cfg.output_dir!r}")
    for section in ("topology", "problem", "algorithm", "sweep"):
        if not isinstance(getattr(cfg, section), dict):
            raise ConfigError(f"{section} must be a mapping, got {getattr(cfg, section)!r}")
    if not isinstance(cfg.points, list) or not all(isinstance(p, dict) for p in cfg.points):
        raise ConfigError(f"points must be a list of mappings, got {cfg.points!r}")
    if cfg.points and cfg.sweep:
        raise ConfigError("a config takes explicit points or a sweep, not both")
    _check_keys("topology", cfg.topology)
    _check_keys("problem", cfg.problem)
    if ("ring" in cfg.topology) == ("edges" in cfg.topology):
        raise ConfigError("topology needs exactly one of 'ring' or 'edges'")
    for axis, values in cfg.sweep.items():
        if axis not in _SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {axis!r}")
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep axis {axis!r} must be a non-empty list, got {values!r}")
    stop_threshold = cfg.stop_threshold
    if stop_threshold is not None:
        stop_threshold = _convert("stop_threshold", stop_threshold)
        if not stop_threshold > 0:
            raise ConfigError(f"stop_threshold must be positive, got {cfg.stop_threshold!r}")
    topology = _build("topology", build_topology, cfg.topology)
    instance = _build("problem", build_instance, cfg.problem)
    if instance.num_agents != topology.num_agents:
        raise ConfigError(
            f"problem n_agents {instance.num_agents} does not match the topology's "
            f"{topology.num_agents} agents"
        )
    points = []
    for index, overrides in enumerate(expand_grid(cfg)):
        run_cfg = make_run_config(cfg.algorithm, overrides)
        # a point that draws no batch never needs the batch to fit
        if (
            not run_cfg.batch_replacement
            and run_cfg.batch_size > instance.min_points
            and batch_draws(run_cfg) > 0
        ):
            raise ConfigError(
                f"batch_size {run_cfg.batch_size} exceeds points_per_agent "
                f"{instance.min_points} with batch_replacement = false"
            )
        points.append((_point_label(index, overrides), overrides, run_cfg))
    return Resolved(topology, instance, points, stop_threshold)


def _point_label(index: int, overrides: dict) -> str:
    parts = [f"point{index:03d}"]
    for key in sorted(overrides):
        value = overrides[key]
        parts.append(f"{key}-{value}")
    return "_".join(parts).replace("/", "-").replace(" ", "")


# --- INI parsing ---------------------------------------------------------


def _parse_edges(raw: str) -> list:
    edges = []
    for token in raw.replace(";", ",").split(","):
        token = token.strip()
        if not token:
            continue
        sep = "-" if "-" in token else " "
        try:
            i, j = (int(v) for v in token.split(sep))
        except ValueError as err:
            raise ConfigError(f"bad edge token {token!r}") from err
        edges.append((i, j))
    if not edges:
        raise ConfigError("edge list is empty")
    return edges


def parse_config(text: str, name: str = "experiment") -> ExperimentConfig:
    """Parse an INI experiment description."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"cannot parse config: {err}") from err
    unknown = sorted(set(parser.sections()) - set(_SECTIONS))
    if unknown:
        raise ConfigError(f"unknown section(s): {', '.join(unknown)}")

    def section(label: str, required: bool = True) -> dict:
        if not parser.has_section(label):
            if required:
                raise ConfigError(f"missing [{label}] section")
            return {}
        return {k: _convert(k, v) for k, v in parser.items(label)}

    topology = section("topology")
    if "edges" in topology:
        topology["edges"] = _parse_edges(parser.get("topology", "edges"))
    problem = section("problem")
    problem.setdefault("n_agents", topology.get("ring", topology.get("n_agents")))
    algorithm, cost = section("algorithm"), section("cost", required=False)
    both = sorted(algorithm.keys() & cost.keys())
    if both:
        raise ConfigError(f"key(s) in both [algorithm] and [cost]: {', '.join(both)}")
    algorithm.update(cost)
    output = section("output", required=False)
    _check_keys("output", output)

    sweep: dict = {}
    if parser.has_section("sweep"):
        for axis, raw in parser.items("sweep"):
            sweep[axis] = [_convert(axis, v) for v in raw.split(",") if v.strip()]

    experiment = section("experiment", required=False)
    _check_keys("experiment", experiment)
    return ExperimentConfig(
        name=str(experiment.get("name", name)),
        topology=topology,
        problem=problem,
        algorithm=algorithm,
        sweep=sweep,
        output_dir=str(output.get("dir", "out")),
        stop_threshold=output.get("stop_threshold"),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Load an experiment config from an INI file or a previous manifest."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    if path.suffix != ".json":
        return parse_config(text, name=path.stem)
    try:
        data = json.loads(text)
    except ValueError as err:
        raise ConfigError(f"cannot parse manifest {path}: {err}") from err
    if not isinstance(data, dict) or not isinstance(data.get("config"), dict):
        raise ConfigError(f"manifest {path} has no 'config' object")
    return ExperimentConfig.from_dict(data["config"])


# --- execution -----------------------------------------------------------


@dataclass
class ExperimentResult:
    manifest: dict
    traces: list[Trace]
    output_dir: Path

    @property
    def any_point_diverged(self) -> bool:
        """True when at least one grid point diverged in every replicate."""
        points = self.manifest["points"]
        return bool(points) and any(
            p["num_diverged"] == p["monte_carlo_runs"] for p in points
        )


def _write_csv(path: Path, trace: Trace) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(trace.columns)
        writer.writerows(zip(*(column.tolist() for column in trace.columns.values())))


def _run_group(instance: ProblemInstance, topology: Topology, configs: list[RunConfig]) -> list[Trace]:
    """The traces of ``configs``, which share one random key, run on one set of shared inputs."""
    shared = shared_inputs(instance, topology, configs, range(configs[0].monte_carlo_runs))
    return [run(instance, topology, config, shared) for config in configs]


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
    workers: int = 1,
) -> ExperimentResult:
    """Execute every grid point and persist CSV traces plus a manifest.

    Grid points share the problem and the topology, which :func:`resolve`
    builds once.  Points whose run configurations differ only in
    ``t_g``/``t_c`` share one trajectory: it is simulated once, for the first
    such point, and each point gets its own ``model_time`` column.  Distinct
    trajectories with the same random key (master seed, replicates, batch
    size, sampling mode and ``init_std``) run one after another on one
    :class:`~ltadmm.algorithms.SharedInputs`, which lives until the next key
    starts.  With ``workers > 1`` the distinct trajectories run in a process
    pool of at most one worker per trajectory, each task on shared inputs of
    its own; results do not depend on the worker count.  Either way every
    task is one :func:`_run_group` call.  A ``workers`` that is not an
    integer of at least 1 raises :class:`ConfigError` before anything runs.
    """
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ConfigError(f"workers must be an integer of at least 1, got {workers!r}")
    topology, instance, grid, stop_threshold = resolve(cfg)
    out = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    run_cfgs = [run_cfg for _, _, run_cfg in grid]
    # every field of a RunConfig is a scalar, so asdict's deep copies are not needed
    resolved = [{name: getattr(run_cfg, name) for name in _RUN_FIELDS} for run_cfg in run_cfgs]
    # every field but the cost constants, which only scale the model-time axis
    keys = [
        tuple(0.0 if name in ("t_g", "t_c") else value for name, value in point.items())
        for point in resolved
    ]
    representatives: dict[tuple, RunConfig] = {}
    for key, run_cfg in zip(keys, run_cfgs):
        representatives.setdefault(key, run_cfg)
    workers = min(workers, len(representatives))
    # a serial task is a random-key group, a pool task one trajectory
    tasks: dict[tuple, list[tuple]] = {}
    for key, run_cfg in representatives.items():
        task = key if workers > 1 else random_key(run_cfg, range(run_cfg.monte_carlo_runs))
        tasks.setdefault(task, []).append(key)
    configs = [[representatives[key] for key in task] for task in tasks.values()]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            simulated = list(pool.map(_run_group, repeat(instance), repeat(topology), configs))
    else:
        simulated = list(map(_run_group, repeat(instance), repeat(topology), configs))
    by_key = dict(zip(chain.from_iterable(tasks.values()), chain.from_iterable(simulated)))
    m_max = instance.max_points
    traces = [with_model_time(by_key[key], run_cfg, m_max) for key, run_cfg in zip(keys, run_cfgs)]

    points = []
    for (label, overrides, run_cfg), run_fields, trace in zip(grid, resolved, traces):
        csv_name = f"{cfg.name}_{label}.csv"
        _write_csv(out / csv_name, trace)
        stopping = None
        if stop_threshold is not None:
            stopping = stopping_time(trace, stop_threshold)
        points.append(
            {
                "label": label,
                "overrides": dict(overrides),
                "csv": csv_name,
                "monte_carlo_runs": run_cfg.monte_carlo_runs,
                "num_diverged": trace.num_diverged,
                "stopping": stopping,
                "resolved": run_fields,
                "reference_charges": reference_charges(run_cfg, m_max),
            }
        )

    # one master seed when the points agree on it; else each point's resolved one stands
    master_seeds = {run_cfg.master_seed for run_cfg in run_cfgs}
    manifest = {
        "version": __version__,
        "name": cfg.name,
        "config": asdict(cfg),
        "seeds": {
            "master_seed": master_seeds.pop() if len(master_seeds) == 1 else None,
            "problem_seed": int(cfg.problem["seed"]),
        },
        "points": points,
        # the bytes of the CSVs depend on them
        "versions": {"numpy": np.__version__, "python": platform.python_version()},
    }
    manifest_path = out / f"{cfg.name}_manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return ExperimentResult(manifest=manifest, traces=traces, output_dir=out)


def stopping_time(trace: Trace, threshold: float) -> dict | None:
    """Model time at the first iteration whose mean squared gradient is below threshold.

    The stored series is scanned in iteration order with no hysteresis;
    returns None if the threshold is never crossed.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    hits = np.flatnonzero(trace.columns["grad_norm_sq_mean"] < threshold)
    if not hits.size:
        return None
    k = int(hits[0])
    return {"k": k, "model_time": float(trace.columns["model_time"][k])}


# --- presets -------------------------------------------------------------


# Benchmark problem shared by the presets: ring of 10 agents, 5 features,
# 100 points per agent, nonconvex regularization weight 0.01, unit batches,
# penalty 1.  Step sizes below were tuned by grid search on this data
# (lowest time to reach the stopping threshold; a [sweep] gamma run).
_PRESET_PROBLEM = {
    "kind": "logistic_nonconvex",
    "seed": 31,
    "n_agents": 10,
    "dimension": 5,
    "points_per_agent": 100,
    "epsilon": 0.01,
}
_PRESET_TOPOLOGY = {"ring": 10}

FIG1_TUNED_GAMMA = {
    "lt_admm": 0.4,
    "lt_admm_vr": 0.8,
    "lt_admm_vr_v2": 0.8,
}

FIG2_TUNED_GAMMA = {
    2: 0.45,
    4: 0.6,
    5: 0.8,
    8: 0.45,
    10: 0.45,
    16: 0.45,
}


def preset_fig1(
    out_dir: str = "out_fig1",
    master_seed: int = 1,
    monte_carlo_runs: int = 20,
    outer_iterations: int = 800,
) -> ExperimentConfig:
    """Variant comparison on the benchmark problem across cost ratios.

    Emits one trace per (variant, gradient/communication cost ratio) pair;
    plotting mean squared gradient against model time reproduces the
    qualitative comparison of the three variants.  The iteration budget is a
    config value; the default shows both the plateau of the mini-batch
    variant and the convergence of the variance-reduced ones.
    """
    points = []
    for variant in ("lt_admm", "lt_admm_vr", "lt_admm_vr_v2"):
        for ratio in (0.1, 1.0, 10.0):
            points.append(
                {
                    "variant": variant,
                    "gamma": FIG1_TUNED_GAMMA[variant],
                    "tg_tc_ratio": ratio,
                }
            )
    return ExperimentConfig(
        name="fig1_comparison",
        topology=dict(_PRESET_TOPOLOGY),
        problem=dict(_PRESET_PROBLEM),
        algorithm={
            "variant": "lt_admm",
            "gamma": FIG1_TUNED_GAMMA["lt_admm"],
            "rho": 1.0,
            "tau": 5,
            "batch_size": 1,
            "outer_iterations": outer_iterations,
            "master_seed": master_seed,
            "monte_carlo_runs": monte_carlo_runs,
        },
        points=points,
        output_dir=out_dir,
    )


def preset_fig2(
    out_dir: str = "out_fig2",
    master_seed: int = 5,
    monte_carlo_runs: int = 4,
    outer_iterations: int = 1300,
) -> ExperimentConfig:
    """Local-step sweep: model time for the variance-reduced variant to reach 1e-9.

    One grid point per local step count, each with its tuned step size; the
    manifest's stopping entries give the time-to-threshold curve.
    """
    points = [
        {"tau": tau, "gamma": FIG2_TUNED_GAMMA[tau]} for tau in sorted(FIG2_TUNED_GAMMA)
    ]
    return ExperimentConfig(
        name="fig2_tau_sweep",
        topology=dict(_PRESET_TOPOLOGY),
        problem=dict(_PRESET_PROBLEM),
        algorithm={
            "variant": "lt_admm_vr",
            "gamma": FIG2_TUNED_GAMMA[5],
            "rho": 1.0,
            "tau": 5,
            "batch_size": 1,
            "outer_iterations": outer_iterations,
            "master_seed": master_seed,
            "monte_carlo_runs": monte_carlo_runs,
            "t_g": 1.0,
            "t_c": 10.0,
        },
        points=points,
        output_dir=out_dir,
        stop_threshold=1e-9,
    )

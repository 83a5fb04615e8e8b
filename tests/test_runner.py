import configparser
import dataclasses
import functools
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ltadmm
from ltadmm import algorithms, cli, oracles, runner
from ltadmm.algorithms import RunConfig
from ltadmm.metrics import Trace
from ltadmm.runner import (
    ConfigError,
    ExperimentConfig,
    build_instance,
    build_topology,
    expand_grid,
    load_config,
    make_run_config,
    parse_config,
    preset_fig1,
    preset_fig2,
    resolve,
    run_experiment,
    stopping_time,
)

BASIC_INI = """
[experiment]
name = tiny

[topology]
ring = 4

[problem]
kind = logistic_nonconvex
seed = 3
dimension = 2
points_per_agent = 6
epsilon = 0.01

[algorithm]
variant = lt_admm
gamma = 0.05
rho = 1.0
tau = 2
batch_size = 1
outer_iterations = 8
master_seed = 1
monte_carlo_runs = 2

[cost]
t_g = 1.0
t_c = 2.0

[output]
dir = out
"""


# 3 variants x 3 cost ratios: 9 grid points on 3 trajectories, the points of
# one trajectory not adjacent in grid order
COST_GRID_INI = BASIC_INI + """
[sweep]
variant = lt_admm, lt_admm_vr, lt_admm_vr_v2
tg_tc_ratio = 0.1, 1, 10
"""

# topologies that no builder accepts; each names its fault in the error
BAD_TOPOLOGIES = {
    "ring-1": "ring = 1",
    "ring-2": "ring = 2",
    "self-loop": "n_agents = 4\nedges = 0-0, 0-1, 1-2, 2-3",
    "disconnected": "n_agents = 4\nedges = 0-1, 2-3",
    "duplicate-edge": "n_agents = 4\nedges = 0-1, 1-0, 1-2, 2-3",
    "invalid-vertex": "n_agents = 4\nedges = 0-1, 1-2, 2-9",
}

DIVERGING_INI = BASIC_INI.replace("gamma = 0.05", "gamma = 80000.0").replace(
    "outer_iterations = 8", "outer_iterations = 60"
)


def manifest_without_n_agents() -> str:
    config = dataclasses.asdict(parse_config(BASIC_INI))
    del config["problem"]["n_agents"]
    return json.dumps({"config": config})


def manifest_with_problem_key(key: str, value, section: str = "problem") -> str:
    config = dataclasses.asdict(parse_config(BASIC_INI))
    config[section][key] = value
    return json.dumps({"config": config})


def manifest_with_key(key: str, value, **more) -> str:
    config = dataclasses.asdict(parse_config(BASIC_INI))
    config[key] = value
    config.update(more)
    return json.dumps({"config": config})


class TestParsing:
    def test_basic_roundtrip(self):
        cfg = parse_config(BASIC_INI)
        assert cfg.name == "tiny"
        assert cfg.topology == {"ring": 4}
        assert cfg.problem["points_per_agent"] == 6
        assert cfg.algorithm["t_c"] == 2.0
        again = ExperimentConfig.from_dict(dataclasses.asdict(cfg))
        assert dataclasses.asdict(again) == dataclasses.asdict(cfg)

    @pytest.mark.parametrize("section, key", [("cost", "gamma"), ("algorithm", "t_g")])
    def test_key_in_algorithm_and_cost_rejected(self, tmp_path, capsys, section, key):
        # BASIC_INI sets gamma in [algorithm] and t_g in [cost]; set each in the other too
        text = BASIC_INI.replace(f"[{section}]\n", f"[{section}]\n{key} = 0.9\n")
        with pytest.raises(ConfigError, match=f"both \\[algorithm\\] and \\[cost\\]: {key}$"):
            parse_config(text)
        ini = tmp_path / "both.ini"
        ini.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["run", str(ini), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_cost_key_alone_is_read(self):
        cfg = parse_config(BASIC_INI.replace("t_g = 1.0", "t_g = 3.0"))
        assert cfg.algorithm["t_g"] == 3.0
        assert all(run_cfg.t_g == 3.0 for _, _, run_cfg in resolve(cfg).points)

    def test_edge_list_form(self):
        text = BASIC_INI.replace("ring = 4", "n_agents = 3\nedges = 0-1, 1-2, 2-0")
        cfg = parse_config(text)
        assert cfg.topology["edges"] == [(0, 1), (1, 2), (2, 0)]

    def test_missing_section(self):
        with pytest.raises(ConfigError, match="topology"):
            parse_config("[problem]\nkind = logistic_nonconvex\n")

    def test_missing_algorithm_section(self):
        sections = BASIC_INI.split("[algorithm]")
        text = sections[0] + "[cost]" + sections[1].split("[cost]")[1]
        with pytest.raises(ConfigError, match="algorithm"):
            parse_config(text)

    def test_both_topology_forms_rejected(self):
        text = BASIC_INI.replace("ring = 4", "ring = 4\nn_agents = 3\nedges = 0-1, 1-2, 2-0")
        with pytest.raises(ConfigError, match="exactly one"):
            resolve(parse_config(text))

    def test_empty_sweep_axis_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            resolve(parse_config(BASIC_INI + "\n[sweep]\ngamma =\n"))

    def test_unknown_sweep_axis_rejected(self):
        with pytest.raises(ConfigError, match="unknown sweep axis"):
            resolve(parse_config(BASIC_INI + "\n[sweep]\nwhatever = 1, 2\n"))

    def test_bad_variant_rejected(self):
        with pytest.raises(ConfigError, match="algorithm"):
            resolve(parse_config(BASIC_INI.replace("variant = lt_admm", "variant = bogus")))

    def test_sweep_grid_product(self):
        cfg = parse_config(BASIC_INI + "\n[sweep]\ngamma = 0.1, 0.05\ntau = 2, 3\n")
        grid = expand_grid(cfg)
        assert len(grid) == 4
        assert {"gamma": 0.1, "tau": 2} in grid

    def test_dict_path_parses_boolean_strings(self):
        algorithm = {"variant": "lt_admm", "gamma": 0.1, "rho": 1.0, "tau": 2, "outer_iterations": 3}
        run_cfg = make_run_config({**algorithm, "batch_replacement": "false"}, {})
        assert run_cfg.batch_replacement is False
        # integer fields take neither a fraction nor a boolean
        with pytest.raises(ConfigError, match="tau"):
            make_run_config({**algorithm, "tau": 2.7}, {})
        with pytest.raises(ConfigError, match="outer_iterations"):
            make_run_config({**algorithm, "outer_iterations": True}, {})
        # and float fields no boolean
        for key in ("gamma", "rho", "t_g", "t_c", "init_std"):
            with pytest.raises(ConfigError, match=key):
                make_run_config({**algorithm, key: True}, {})
        with pytest.raises(ConfigError, match="tg_tc_ratio"):
            make_run_config(algorithm, {"tg_tc_ratio": True})
        for key in ("epsilon", "stop_threshold"):
            with pytest.raises(ConfigError, match=key):
                runner._convert(key, True)

    @pytest.mark.parametrize(
        "changes",
        [
            {"name": ""},
            {"name": "."},
            {"name": ".."},
            {"name": "a\0b"},
            {"name": 5},
            {"output_dir": None},
            {"output_dir": "a\0b"},
        ],
        ids=["name-empty", "name-dot", "name-dot-dot", "name-nul", "name-int", "output-dir-none", "output-dir-nul"],
    )
    def test_name_and_output_dir_checked(self, changes):
        with pytest.raises(ConfigError):
            resolve(dataclasses.replace(parse_config(BASIC_INI), **changes))

    @pytest.mark.parametrize("suffix", [".ini", ".json"])
    def test_empty_name_exits_2_before_any_output(self, tmp_path, capsys, suffix):
        text = BASIC_INI.replace("name = tiny", "name =")
        cfg = parse_config(text)
        assert cfg.name == ""
        path = tmp_path / f"exp{suffix}"
        path.write_text(text if suffix == ".ini" else json.dumps({"config": dataclasses.asdict(cfg)}))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 2
        assert "experiment name" in capsys.readouterr().err
        assert not out.exists()

    def test_explicit_points_take_precedence(self):
        cfg = parse_config(BASIC_INI)
        cfg.points = [{"tau": 2, "gamma": 0.1}, {"tau": 4, "gamma": 0.05}]
        assert expand_grid(cfg) == cfg.points


class TestRunExperiment:
    def test_outputs_and_determinism(self, tmp_path):
        cfg = parse_config(BASIC_INI + "\n[sweep]\ngamma = 0.05, 0.02\n")
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        r1 = run_experiment(cfg, out_dir=out1)
        r2 = run_experiment(cfg, out_dir=out2)
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        assert len([n for n in names if n.endswith(".csv")]) == 2
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_manifest_contents(self, tmp_path):
        cfg = parse_config(BASIC_INI)
        result = run_experiment(cfg, out_dir=tmp_path)
        manifest = json.loads((tmp_path / "tiny_manifest.json").read_text())
        assert manifest["version"]
        assert manifest["seeds"] == {"master_seed": 1, "problem_seed": 3}
        assert manifest["config"]["problem"]["dimension"] == 2
        assert len(manifest["points"]) == 1
        point = manifest["points"][0]
        assert point["num_diverged"] == 0
        assert point["reference_charges"]["lt_admm"] == 2 * 1.0 + 2.0
        field_names = {f.name for f in dataclasses.fields(RunConfig)}
        assert set(point["resolved"]) == field_names

    def test_manifest_records_versions(self, tmp_path):
        run_experiment(parse_config(BASIC_INI), out_dir=tmp_path)
        manifest = json.loads((tmp_path / "tiny_manifest.json").read_text())
        assert manifest["versions"] == {"numpy": np.__version__, "python": platform.python_version()}

    def test_rerun_from_manifest(self, tmp_path):
        cfg = parse_config(BASIC_INI)
        run_experiment(cfg, out_dir=tmp_path / "first")
        reloaded = load_config(tmp_path / "first" / "tiny_manifest.json")
        run_experiment(reloaded, out_dir=tmp_path / "second")
        a = (tmp_path / "first" / "tiny_point000.csv").read_bytes()
        b = (tmp_path / "second" / "tiny_point000.csv").read_bytes()
        assert a == b

    def test_csv_columns(self, tmp_path):
        cfg = parse_config(BASIC_INI)
        run_experiment(cfg, out_dir=tmp_path)
        header = (tmp_path / "tiny_point000.csv").read_text().splitlines()[0]
        assert header == "k,model_time,grad_norm_sq_mean,grad_norm_sq_std,consensus_err_mean,component_evals,comms"

    def test_dk_column_present_when_recorded(self, tmp_path):
        cfg = parse_config(BASIC_INI.replace("monte_carlo_runs = 2", "monte_carlo_runs = 2\nrecord_dk = true"))
        run_experiment(cfg, out_dir=tmp_path)
        header = (tmp_path / "tiny_point000.csv").read_text().splitlines()[0]
        assert "d_k_mean" in header.split(",")

    def test_variant_from_sweep_only(self, tmp_path):
        text = BASIC_INI.replace("variant = lt_admm\n", "") + "\n[sweep]\nvariant = exact, lt_admm\n"
        result = run_experiment(parse_config(text), out_dir=tmp_path)
        assert [p["resolved"]["variant"] for p in result.manifest["points"]] == ["exact", "lt_admm"]
        assert result.manifest["seeds"]["master_seed"] == 1

    def test_manifest_master_seed_follows_the_points(self, tmp_path):
        cfg = parse_config(BASIC_INI)
        cfg.points = [{"master_seed": 5}]
        result = run_experiment(cfg, out_dir=tmp_path / "one")
        assert result.manifest["seeds"]["master_seed"] == 5
        assert result.manifest["points"][0]["resolved"]["master_seed"] == 5
        cfg.points = [{"master_seed": 5}, {"master_seed": 6}]
        result = run_experiment(cfg, out_dir=tmp_path / "two")
        assert result.manifest["seeds"]["master_seed"] is None
        assert [p["resolved"]["master_seed"] for p in result.manifest["points"]] == [5, 6]

    @pytest.mark.parametrize("workers", [0, -5, True, 2.0, "2", None])
    def test_worker_count_checked_before_anything_runs(self, tmp_path, monkeypatch, workers):
        resolved = []
        monkeypatch.setattr(runner, "resolve", resolved.append)
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="workers"):
            run_experiment(parse_config(BASIC_INI), out_dir=out, workers=workers)
        assert resolved == [] and not out.exists()

    # a path below a regular file cannot be created: NotADirectoryError, an OSError;
    # nor one with a null byte, which Path.mkdir rejects with a ValueError
    @pytest.mark.parametrize(
        "below, cause", [("file/out", NotADirectoryError), ("a\0b", ValueError)], ids=["under-file", "null-byte"]
    )
    def test_an_output_dir_under_a_file_is_a_config_error(self, tmp_path, monkeypatch, below, cause):
        blocker = tmp_path / "file"
        blocker.write_text("")
        started = []
        monkeypatch.setattr(runner, "_run_group", lambda *args: started.append(args))
        with pytest.raises(ConfigError, match="output dir") as raised:
            run_experiment(parse_config(BASIC_INI), out_dir=tmp_path / below)
        assert type(raised.value.__cause__) is cause
        assert started == [] and blocker.read_text() == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

    def test_workers_do_not_change_results(self, tmp_path):
        cfg = parse_config(BASIC_INI + "\n[sweep]\ngamma = 0.05, 0.02\n")
        r1 = run_experiment(cfg, out_dir=tmp_path / "serial", workers=1)
        r2 = run_experiment(cfg, out_dir=tmp_path / "pool", workers=2)
        for p1, p2 in zip(r1.manifest["points"], r2.manifest["points"]):
            a = (tmp_path / "serial" / p1["csv"]).read_bytes()
            b = (tmp_path / "pool" / p2["csv"]).read_bytes()
            assert a == b


class InProcessPool:
    """A stand-in for the process pool that maps in this process and records its sizes."""

    created: list[int] = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestSharedTrajectories:
    def test_each_trajectory_simulated_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_run(instance, topology, run_cfg, *shared):
            calls.append(run_cfg)
            return algorithms.run(instance, topology, run_cfg, *shared)

        monkeypatch.setattr(runner, "run", counting_run)
        result = run_experiment(parse_config(COST_GRID_INI), out_dir=tmp_path)
        assert len(result.manifest["points"]) == 9
        assert sorted(run_cfg.variant for run_cfg in calls) == ["lt_admm", "lt_admm_vr", "lt_admm_vr_v2"]
        assert len({id(trace.columns) for trace in result.traces}) == 9

    @pytest.mark.parametrize(
        "text,workers,expected",
        [(COST_GRID_INI, 8, [3]), (BASIC_INI, 2, [])],
        ids=["three-trajectories", "one-trajectory"],
    )
    def test_pool_has_at_most_one_worker_per_trajectory(self, tmp_path, monkeypatch, text, workers, expected):
        monkeypatch.setattr(InProcessPool, "created", [])
        monkeypatch.setattr(runner, "ProcessPoolExecutor", InProcessPool)
        run_experiment(parse_config(text), out_dir=tmp_path, workers=workers)
        assert InProcessPool.created == expected

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_run_gets_shared_inputs(self, tmp_path, monkeypatch, workers):
        # the cost grid's 3 trajectories plus one under another master seed:
        # two random keys, so two groups when serial and four pool tasks
        cfg = parse_config(COST_GRID_INI)
        cfg.points, cfg.sweep = expand_grid(cfg) + [{"master_seed": 7}], {}
        calls = []

        def recording_run(instance, topology, run_cfg, *shared):
            calls.append((run_cfg, *shared))
            return algorithms.run(instance, topology, run_cfg, *shared)

        monkeypatch.setattr(InProcessPool, "created", [])
        monkeypatch.setattr(runner, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(runner, "run", recording_run)
        run_experiment(cfg, out_dir=tmp_path, workers=workers)
        assert InProcessPool.created == ([2] if workers > 1 else [])
        assert len(calls) == 4
        for run_cfg, *shared in calls:
            assert len(shared) == 1 and isinstance(shared[0], algorithms.SharedInputs)
            assert shared[0].key == algorithms.random_key(run_cfg, range(run_cfg.monte_carlo_runs))
        inputs = {id(shared) for _, shared in calls}
        assert len(inputs) == (4 if workers > 1 else 2)

    def test_csv_bytes_match_a_run_per_point(self, tmp_path):
        cfg = parse_config(COST_GRID_INI)
        result = run_experiment(cfg, out_dir=tmp_path / "grid")
        instance = build_instance(cfg.problem)
        topology = build_topology(cfg.topology)
        for (label, _, run_cfg), point in zip(resolve(cfg).points, result.manifest["points"]):
            alone = tmp_path / f"{label}.csv"
            runner._write_csv(alone, algorithms.run(instance, topology, run_cfg))
            assert (tmp_path / "grid" / point["csv"]).read_bytes() == alone.read_bytes()

    def test_manifest_master_seed_follows_the_points(self, tmp_path):
        cfg = parse_config(BASIC_INI)
        cfg.points = [{"master_seed": 5}]
        result = run_experiment(cfg, out_dir=tmp_path / "one")
        assert result.manifest["seeds"]["master_seed"] == 5
        assert result.manifest["points"][0]["resolved"]["master_seed"] == 5
        cfg.points = [{"master_seed": 5}, {"master_seed": 6}]
        result = run_experiment(cfg, out_dir=tmp_path / "two")
        assert result.manifest["seeds"]["master_seed"] is None
        assert [p["resolved"]["master_seed"] for p in result.manifest["points"]] == [5, 6]

    def test_workers_do_not_change_results(self, tmp_path):
        cfg = parse_config(COST_GRID_INI)
        r1 = run_experiment(cfg, out_dir=tmp_path / "serial", workers=1)
        r2 = run_experiment(cfg, out_dir=tmp_path / "pool", workers=2)
        names = sorted(p.name for p in (tmp_path / "serial").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "pool").iterdir())
        assert len(names) == 10
        for name in names:
            assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "pool" / name).read_bytes()

    def test_all_diverged_points_keep_header_only_csvs(self, tmp_path):
        cfg = parse_config(DIVERGING_INI + "\n[sweep]\ntg_tc_ratio = 0.1, 10\n")
        result = run_experiment(cfg, out_dir=tmp_path)
        assert len(result.manifest["points"]) == 2
        for point in result.manifest["points"]:
            assert point["num_diverged"] == point["monte_carlo_runs"] == 2
            lines = (tmp_path / point["csv"]).read_text().splitlines()
            assert lines == [
                "k,model_time,grad_norm_sq_mean,grad_norm_sq_std,consensus_err_mean,component_evals,comms"
            ]


def make_trace(grads, times=None):
    k = np.arange(len(grads))
    columns = {
        "k": k,
        "model_time": np.asarray(times if times else 10.0 * k, dtype=float),
        "grad_norm_sq_mean": np.asarray(grads, dtype=float),
        "grad_norm_sq_std": np.zeros(len(grads)),
        "consensus_err_mean": np.zeros(len(grads)),
        "component_evals": k,
        "comms": k,
    }
    return Trace(columns=columns, replicates=[], num_diverged=0)


class TestStoppingTime:
    def test_never_crossed(self):
        trace = make_trace([1.0, 0.5, 0.2])
        assert stopping_time(trace, 1e-3) is None

    def test_monotone_crossing(self):
        grads = [10.0 ** (-k) for k in range(10)]
        trace = make_trace(grads)
        hit = stopping_time(trace, 1e-7)
        assert hit == {"k": 8, "model_time": 80.0}

    def test_noisy_first_crossing_counts(self):
        grads = [1.0, 0.09, 0.5, 0.01]
        trace = make_trace(grads)
        hit = stopping_time(trace, 0.1)
        # independent scan: index 1 is the first strictly-below record
        expected = next(i for i, g in enumerate(grads) if g < 0.1)
        assert hit["k"] == expected == 1

    def test_positive_threshold_required(self):
        with pytest.raises(ValueError):
            stopping_time(make_trace([1.0]), 0.0)

    def test_nan_threshold_rejected(self):
        # no value is below NaN, so a NaN threshold would read as never crossed
        with pytest.raises(ValueError, match="positive"):
            stopping_time(make_trace([1.0, 1e-3]), float("nan"))


class TestPresets:
    def test_fig1_grid(self):
        cfg = preset_fig1()
        grid = expand_grid(cfg)
        assert len(grid) == 9
        variants = {p["variant"] for p in grid}
        assert variants == {"lt_admm", "lt_admm_vr", "lt_admm_vr_v2"}
        ratios = {p["tg_tc_ratio"] for p in grid}
        assert ratios == {0.1, 1.0, 10.0}

    def test_fig2_grid(self):
        cfg = preset_fig2()
        grid = expand_grid(cfg)
        assert [p["tau"] for p in grid] == [2, 4, 5, 8, 10, 16]
        assert cfg.stop_threshold == 1e-9


class TestCli:
    def run_cli(self, *args):
        # the child imports the ltadmm under test, installed or not
        package_parent = str(Path(ltadmm.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": package_parent + (os.pathsep + path if path else "")}
        return subprocess.run(
            [sys.executable, "-m", "ltadmm.cli", *args],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_run_subcommand(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(BASIC_INI)
        proc = self.run_cli("run", str(ini), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "tiny_manifest.json").exists()

    def test_config_error_exit_code(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[problem]\nkind = logistic_nonconvex\n")
        proc = self.run_cli("run", str(ini))
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    @pytest.mark.parametrize(
        "name,text",
        [
            ("bad.ini", BASIC_INI + "\n[sweep]\ntau = abc\n"),
            ("bad.ini", BASIC_INI.replace("rho = 1.0", "rho = 1.0\ngama = 0.3")),
            ("bad.ini", BASIC_INI + "\n[sweep]\ngamma = 0.05, -1\n"),
            ("bad.ini", BASIC_INI.replace("kind = logistic_nonconvex", "kind = logistic")),
            ("bad.ini", BASIC_INI.replace("batch_size = 1", "batch_size = 7\nbatch_replacement = false")),
            ("bad.json", manifest_without_n_agents()),
            ("bad.ini", BASIC_INI.replace("ring = 4", "ring = 10").replace("seed = 3", "seed = 3\nn_agents = 5")),
            ("bad.ini", BASIC_INI.replace("ring = 4", "edges = 0-1, 1-2, 2-3, 3-0")),
            ("bad.ini", BASIC_INI.replace("epsilon = 0.01", "epsilom = 0.5")),
            ("bad.ini", BASIC_INI.replace("dir = out", "dir = out\nstop_treshold = 0.5")),
            ("bad.ini", BASIC_INI + "\n[sweeep]\ngamma = 0.05, 0.02\n"),
            ("bad.ini", BASIC_INI.replace("ring = 4", "ring = 4\nrings = 5")),
            ("bad.ini", BASIC_INI.replace("name = tiny", "name = tiny\nnmae = other")),
            ("bad.json", manifest_with_problem_key("epsilom", 0.5)),
            ("bad.ini", BASIC_INI.replace("dir = out", "dir = out\nstop_threshold = -1")),
            ("bad.ini", BASIC_INI.replace("dir = out", "dir = out\nstop_threshold = 0")),
            ("bad.json", manifest_with_key("stop_threshold", "abc")),
            ("bad.json", manifest_with_key("stop_threshold", -1)),
            ("bad.json", manifest_with_key("stop_treshold", 0.5)),
            ("bad.json", manifest_with_problem_key("dimension", 2.5)),
            ("bad.json", manifest_with_problem_key("seed", "abc")),
            ("bad.json", manifest_with_problem_key("epsilon", "abc")),
            ("bad.ini", BASIC_INI.replace("seed = 3", "seed = -1")),
            ("bad.ini", BASIC_INI.replace("dimension = 2", "dimension = 0")),
            ("bad.ini", BASIC_INI.replace("points_per_agent = 6", "points_per_agent = 0")),
            ("bad.ini", BASIC_INI.replace("epsilon = 0.01", "epsilon = -5")),
            ("bad.ini", BASIC_INI.replace("batch_size = 1", "batch_size = 1\ninit_std = -1")),
            *(("bad.ini", BASIC_INI.replace("ring = 4", topology)) for topology in BAD_TOPOLOGIES.values()),
            ("bad.ini", BASIC_INI.replace("epsilon = 0.01", "epsilon = nan")),
            ("bad.ini", BASIC_INI.replace("gamma = 0.05", "gamma = nan")),
            ("bad.ini", BASIC_INI.replace("rho = 1.0", "rho = nan")),
            ("bad.ini", BASIC_INI.replace("t_g = 1.0", "t_g = nan")),
            ("bad.ini", BASIC_INI.replace("t_g = 1.0", "t_g = inf")),
            ("bad.ini", BASIC_INI.replace("t_c = 2.0", "t_c = nan")),
            ("bad.ini", BASIC_INI + "\n[sweep]\ntg_tc_ratio = 1, nan\n"),
            ("bad.json", manifest_with_key("name", "tiny")[:40]),
            ("bad.json", json.dumps([json.loads(manifest_with_key("name", "tiny"))])),
            ("bad.json", json.dumps(dataclasses.asdict(parse_config(BASIC_INI)))),
            ("bad.json", manifest_with_key("sweep", {"gamma": 0.1})),
            ("bad.json", manifest_with_key("topology", 5)),
            ("bad.json", manifest_with_key("points", [1, 2])),
            ("bad.json", manifest_with_key("sweep", {"gamma": [0.1, 0.2, 0.3]}, points=[{"gamma": 0.05}])),
            ("bad.ini", BASIC_INI.replace("name = tiny", "name = sub/x")),
            ("bad.ini", BASIC_INI.replace("name = tiny", "name = ../escaped")),
            ("bad.json", manifest_with_key("name", "sub/x")),
            ("bad.json", manifest_with_key("name", "../escaped")),
            ("bad.json", manifest_with_problem_key("gamma", True, section="algorithm")),
            ("bad.json", manifest_with_problem_key("init_std", False, section="algorithm")),
            ("bad.json", manifest_with_problem_key("epsilon", True)),
        ],
        ids=[
            "sweep-tau-abc",
            "unknown-key",
            "negative-sweep-gamma",
            "unknown-kind",
            "infeasible-batch",
            "manifest-without-n-agents",
            "n-agents-not-topology",
            "edges-without-n-agents",
            "unknown-problem-key",
            "unknown-output-key",
            "unknown-section",
            "unknown-topology-key",
            "unknown-experiment-key",
            "manifest-unknown-problem-key",
            "negative-stop-threshold",
            "zero-stop-threshold",
            "manifest-stop-threshold-abc",
            "manifest-negative-stop-threshold",
            "manifest-unknown-top-level-key",
            "manifest-fractional-dimension",
            "manifest-seed-abc",
            "manifest-epsilon-abc",
            "negative-problem-seed",
            "zero-dimension",
            "zero-points-per-agent",
            "negative-epsilon",
            "negative-init-std",
            *(f"topology-{name}" for name in BAD_TOPOLOGIES),
            "nan-epsilon",
            "nan-gamma",
            "nan-rho",
            "nan-t-g",
            "inf-t-g",
            "nan-t-c",
            "nan-sweep-tg-tc-ratio",
            "manifest-truncated",
            "manifest-json-list",
            "manifest-without-config",
            "manifest-scalar-sweep-axis",
            "manifest-scalar-topology",
            "manifest-points-not-mappings",
            "manifest-points-and-sweep",
            "name-with-directory",
            "name-outside-out",
            "manifest-name-with-directory",
            "manifest-name-outside-out",
            "manifest-gamma-true",
            "manifest-init-std-false",
            "manifest-epsilon-true",
        ],
    )
    def test_invalid_config_rejected_before_any_point(self, tmp_path, name, text):
        ini = tmp_path / name
        ini.write_text(text)
        out = tmp_path / "out"
        proc = self.run_cli("run", str(ini), "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert "config error" in proc.stderr
        # nothing written in --out or beside it
        assert not list(tmp_path.rglob("*.csv"))

    def test_seed_override_of_a_malformed_algorithm_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(manifest_with_key("algorithm", None))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out), "--seed", "2"]) == 2
        assert "algorithm" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "certify"])
    def test_directory_as_config_exits_2(self, tmp_path, command):
        proc = self.run_cli(command, str(tmp_path))
        assert proc.returncode == 2, proc.stderr
        assert "config error" in proc.stderr

    @pytest.mark.parametrize("topology", BAD_TOPOLOGIES.values(), ids=BAD_TOPOLOGIES)
    def test_invalid_topology_named(self, tmp_path, capsys, topology):
        ini = tmp_path / "bad.ini"
        ini.write_text(BASIC_INI.replace("ring = 4", topology))
        assert cli.main(["run", str(ini), "--out", str(tmp_path / "out")]) == 2
        stderr = capsys.readouterr().err
        assert "config error" in stderr and "topology" in stderr

    @pytest.mark.parametrize("command", ["run", "preset"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_non_positive_workers_rejected(self, tmp_path, capsys, command, workers):
        target = str(tmp_path / "exp.ini") if command == "run" else "fig1"
        (tmp_path / "exp.ini").write_text(BASIC_INI)
        out = tmp_path / "out"
        assert cli.main([command, target, "--out", str(out), "--workers", workers]) == 2
        assert "workers" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("command", ["run", "certify"])
    def test_each_command_builds_the_problem_once(self, tmp_path, monkeypatch, command):
        calls = []

        def counting_build_instance(spec):
            calls.append(spec)
            return build_instance(spec)

        monkeypatch.setattr(runner, "build_instance", counting_build_instance)
        ini = tmp_path / "exp.ini"
        ini.write_text(BASIC_INI.replace("ring = 4", "ring = 3"))
        extra = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert cli.main([command, str(ini), *extra]) == 0
        assert len(calls) == 1

    def test_certify_invalid_topology_exit_code(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text(BASIC_INI.replace("ring = 4", "ring = 1"))
        proc = self.run_cli("certify", str(ini))
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    def test_certify_one_agent_is_not_certified(self, tmp_path):
        run_experiment(parse_config(BASIC_INI), out_dir=tmp_path)
        manifest = json.loads((tmp_path / "tiny_manifest.json").read_text())
        manifest["config"]["topology"] = {"n_agents": 1, "edges": []}
        manifest["config"]["problem"]["n_agents"] = 1
        path = tmp_path / "one_agent.json"
        path.write_text(json.dumps(manifest))
        proc = self.run_cli("certify", str(path))
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        report = json.loads(proc.stdout)["point000"]
        assert report["certified"] is False
        assert "one agent" in report["findings"][0]
        assert self.run_cli("run", str(path), "--out", str(tmp_path / "run")).returncode == 0

    def test_output_dir_under_a_file_exits_2(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(BASIC_INI)
        proc = self.run_cli("run", str(ini), "--out", str(ini / "out"))
        assert proc.returncode == 2, proc.stderr
        assert "config error" in proc.stderr and "output dir" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_file_exit_code(self):
        proc = self.run_cli("run", "/nonexistent/nope.ini")
        assert proc.returncode == 2

    def test_seed_override_changes_outputs(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(BASIC_INI)
        self.run_cli("run", str(ini), "--out", str(tmp_path / "a"), "--seed", "1")
        self.run_cli("run", str(ini), "--out", str(tmp_path / "b"), "--seed", "99")
        a = (tmp_path / "a" / "tiny_point000.csv").read_bytes()
        b = (tmp_path / "b" / "tiny_point000.csv").read_bytes()
        assert a != b
        manifest = json.loads((tmp_path / "b" / "tiny_manifest.json").read_text())
        assert manifest["seeds"]["master_seed"] == 99

    def test_certify_subcommand(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(BASIC_INI)
        proc = self.run_cli("certify", str(ini))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)["point000"]
        assert report["regime"] == "sgd"
        assert "certified" in report

    def certify(self, tmp_path, text):
        ini = tmp_path / "exp.ini"
        ini.write_text(text)
        proc = self.run_cli("certify", str(ini))
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_certify_variant_from_sweep_only(self, tmp_path):
        text = BASIC_INI.replace("variant = lt_admm\n", "") + "\n[sweep]\nvariant = exact, lt_admm_vr\n"
        reports = self.certify(tmp_path, text)
        assert {label: r["regime"] for label, r in reports.items()} == {
            "point000_variant-exact": "sgd",
            "point001_variant-lt_admm_vr": "sarah",
        }

    def test_certify_every_gamma_of_a_sweep(self, tmp_path):
        reports = self.certify(tmp_path, BASIC_INI + "\n[sweep]\ngamma = 0.05, 0.5\n")
        assert sorted(reports) == ["point000_gamma-0.05", "point001_gamma-0.5"]
        assert reports["point000_gamma-0.05"]["report"]["gamma_candidate"] == 0.05
        # gamma * rho * tau * lambda_max = 0.5 * 1 * 2 * 4 on the 4-ring breaks bound 1
        assert reports["point001_gamma-0.5"]["binding_bound"] == 1
        assert not reports["point001_gamma-0.5"]["certified"]

    def test_divergence_exit_code(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(DIVERGING_INI)
        proc = self.run_cli("run", str(ini), "--out", str(tmp_path / "out"))
        assert proc.returncode == 3
        lines = (tmp_path / "out" / "tiny_point000.csv").read_text().splitlines()
        assert lines == [
            "k,model_time,grad_norm_sq_mean,grad_norm_sq_std,consensus_err_mean,component_evals,comms"
        ]


# --- the batch fit: only a point that draws a batch needs b <= m ----------


def unfit_batch_ini(variant: str, tau: int, iterations: int) -> str:
    """BASIC_INI with batches of 7 from 6 points per agent, without replacement."""
    return (
        BASIC_INI.replace("batch_size = 1", "batch_size = 7\nbatch_replacement = false")
        .replace("variant = lt_admm\n", f"variant = {variant}\n")
        .replace("tau = 2", f"tau = {tau}")
        .replace("outer_iterations = 8", f"outer_iterations = {iterations}")
    )


# each refreshes at every inner step it runs, or runs none
@pytest.mark.parametrize(
    "variant,tau,iterations",
    [("lt_admm_vr", 1, 2), ("lt_admm", 2, 0), ("lt_admm_vr_v2", 1, 1), ("exact", 2, 2)],
)
def test_a_point_that_draws_no_batch_runs_with_an_unfit_batch(tmp_path, variant, tau, iterations):
    text = unfit_batch_ini(variant, tau, iterations)
    assert [run_cfg.variant for _, _, run_cfg in resolve(parse_config(text)).points] == [variant]
    ini = tmp_path / "exp.ini"
    ini.write_text(text)
    assert cli.main(["run", str(ini), "--out", str(tmp_path / "out")]) == 0
    assert len((tmp_path / "out" / "tiny_point000.csv").read_text().splitlines()) == iterations + 2


# lt_admm_vr_v2 at tau = 1 draws from its second outer iteration on
@pytest.mark.parametrize("variant", ["lt_admm", "lt_admm_vr_v2"])
def test_a_point_that_draws_a_batch_needs_it_to_fit(tmp_path, variant):
    text = unfit_batch_ini(variant, 1, 2)
    with pytest.raises(ConfigError, match="batch_size 7 exceeds"):
        resolve(parse_config(text))
    ini = tmp_path / "exp.ini"
    ini.write_text(text)
    assert cli.main(["run", str(ini), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


# --- property: every config either runs or is rejected with exit code 2 ----

# --- shared random inputs: a point does not depend on the other points ---

# a ring of 3 with 40 points per agent, so that b = 33 fits without replacement
SHARED_INPUTS_INI = BASIC_INI.replace("ring = 4", "ring = 3").replace(
    "points_per_agent = 6", "points_per_agent = 40"
).replace("outer_iterations = 8", "outer_iterations = 2")

# fields of a point's random inputs besides the call's batch size and
# sampling mode, each with a second value that puts a point in another group
OTHER_GROUP = {"master_seed": 2, "monte_carlo_runs": 1, "init_std": 0.5}


@st.composite
def drawn_points(draw) -> list[dict]:
    """2-5 grid points of every variant, tau and gamma, some in groups of their own."""
    points = []
    for _ in range(draw(st.integers(2, 5))):
        point = {
            "variant": draw(st.sampled_from(algorithms.VARIANTS)),
            "tau": draw(st.integers(1, 3)),
            "gamma": draw(st.sampled_from([0.05, 0.2])),
        }
        for key in draw(st.lists(st.sampled_from(sorted(OTHER_GROUP)), max_size=1)):
            point[key] = OTHER_GROUP[key]
        points.append(point)
    return points


# b = 33 without replacement draws with one choice call per step and stream
@pytest.mark.parametrize("replacement", [True, False])
@pytest.mark.parametrize("batch_size", [1, 3, 33])
@settings(derandomize=True, max_examples=12, deadline=None)
@given(points=drawn_points())
def test_a_point_does_not_depend_on_the_other_points(points, batch_size, replacement):
    cfg = parse_config(SHARED_INPUTS_INI)
    cfg.algorithm.update(batch_size=batch_size, batch_replacement=replacement)
    cfg.points = points
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        grids = {w: run_experiment(cfg, out_dir=tmp / f"grid{w}", workers=w) for w in (1, 2)}
        for index, point in enumerate(grids[1].manifest["points"]):
            alone = parse_config(SHARED_INPUTS_INI)
            alone.algorithm = dict(point["resolved"])
            run_experiment(alone, out_dir=tmp / f"alone{index}")
            expected = (tmp / f"alone{index}" / "tiny_point000.csv").read_bytes()
            for workers in (1, 2):
                assert (tmp / f"grid{workers}" / point["csv"]).read_bytes() == expected, (index, workers)


# draws per stream of a run of K outer iterations of tau inner steps
DRAWS = {
    "exact": lambda K, tau: 0,
    "lt_admm": lambda K, tau: K * tau,
    "lt_admm_vr": lambda K, tau: K * (tau - 1),
    "lt_admm_vr_v2": lambda K, tau: K * tau - 1,
}


# blocks of 3 steps for the 2 x 4 streams: every point that draws is longer
# than one block, so the group's block has no steps; blocks of 8 steps:
# exact and lt_admm_vr read the shared block, and lt_admm and lt_admm_vr_v2
# draw from generators of their own
@pytest.mark.parametrize("block_steps", [3, 8])
@pytest.mark.parametrize("batch_size,replacement", [(1, True), (2, False)])
def test_points_past_the_shared_block(tmp_path, monkeypatch, batch_size, replacement, block_steps):
    text = BASIC_INI.replace("tau = 2", "tau = 3").replace("outer_iterations = 8", "outer_iterations = 4")
    cfg = parse_config(text + "\n[sweep]\nvariant = exact, lt_admm, lt_admm_vr, lt_admm_vr_v2\n")
    cfg.algorithm.update(batch_size=batch_size, batch_replacement=replacement)
    topology, instance, grid, _ = resolve(cfg)
    alone = {}
    for label, _, run_cfg in grid:
        alone[label] = tmp_path / f"{label}.csv"
        runner._write_csv(alone[label], algorithms.run(instance, topology, run_cfg))

    entries = batch_size if replacement else 2 * batch_size - 1
    monkeypatch.setattr(oracles, "_BLOCK_ENTRIES", block_steps * 8 * entries)
    started = []
    init_states = algorithms.init_states

    def recording_init_states(*args):
        started.append((args[2], init_states(*args)))
        return started[-1][1]

    monkeypatch.setattr(algorithms, "init_states", recording_init_states)
    result = run_experiment(cfg, out_dir=tmp_path / "grid")
    for label, _, _ in grid:
        assert (tmp_path / "grid" / f"tiny_{label}.csv").read_bytes() == alone[label].read_bytes()

    # no replicate diverges, so every run draws its whole budget
    assert all(point["num_diverged"] == 0 for point in result.manifest["points"])
    assert sorted(run_cfg.variant for run_cfg, _ in started) == sorted(DRAWS)
    draws = {variant: count(4, 3) for variant, count in DRAWS.items()}
    readers = {run_cfg.variant: streams for run_cfg, streams in started if not streams.rngs}
    assert set(readers) == {variant for variant in DRAWS if draws[variant] <= block_steps}
    assert set(readers) == ({"exact"} if block_steps == 3 else {"exact", "lt_admm_vr"})
    # the readers read the group's one block and hold no generators, and no
    # generator is held by two runs
    group = readers["exact"].block
    assert all(streams.block is group for streams in readers.values())
    held = [id(rng) for _, streams in started for rng in streams.rngs]
    assert len(set(held)) == len(held)
    # the group's block holds the batches of the reader that draws most, and
    # every other run's generators drew exactly its owner's batches
    assert group.shape[0] == max(draws[variant] for variant in readers)
    for run_cfg, streams in started:
        steps = group.shape[0] if run_cfg.variant in readers else draws[run_cfg.variant]
        for index, stream in enumerate(streams):
            r, i = divmod(index, 4)
            reference = np.random.default_rng(np.random.SeedSequence([1, r, 1 + i]))
            expected = [
                reference.integers(0, stream.num_points, size=batch_size)
                if replacement
                else reference.choice(stream.num_points, batch_size, replace=False)
                for _ in range(steps)
            ]
            if run_cfg.variant in readers:
                assert stream.rng is None
                assert np.array_equal(group[:, r, i], np.reshape(expected, (steps, batch_size)))
            else:
                assert stream.rng.bit_generator.state == reference.bit_generator.state, (run_cfg.variant, r, i)


ODD_VALUES = ("-1", "0", "0.5", "nan", "inf", "abc", "true")
NUMERIC_KEYS = [
    (section, key)
    for section, keys in {
        "problem": ("seed", "dimension", "points_per_agent", "epsilon"),
        "algorithm": ("gamma", "rho", "tau", "batch_size", "master_seed", "init_std"),
        "cost": ("t_g", "t_c"),
    }.items()
    for key in keys
]


@st.composite
def drawn_configs(draw) -> str:
    """BASIC_INI with a drawn topology and odd numeric values, one iteration long."""
    parser = configparser.ConfigParser()
    parser.read_string(BASIC_INI)
    parser["algorithm"]["outer_iterations"] = "1"
    parser["algorithm"]["monte_carlo_runs"] = "1"
    if draw(st.booleans()):
        parser["topology"] = {"ring": str(draw(st.integers(1, 6)))}
    else:
        n_agents = draw(st.integers(2, 5))
        # a path through every agent, less a drawn edge (disconnection), plus
        # drawn pairs (self-loops, duplicates, and vertex n_agents out of range)
        edges = [(i, i + 1) for i in range(n_agents - 1)]
        if draw(st.booleans()):
            del edges[draw(st.integers(0, n_agents - 2))]
        vertex = st.integers(0, n_agents)
        edges += draw(st.lists(st.tuples(vertex, vertex), max_size=2))
        if not edges:
            edges = [(0, 0)]
        parser["topology"] = {
            "n_agents": str(n_agents),
            "edges": ", ".join(f"{i}-{j}" for i, j in edges),
        }
    for section, key in draw(st.lists(st.sampled_from(NUMERIC_KEYS), max_size=2, unique=True)):
        parser[section][key] = draw(st.sampled_from(ODD_VALUES))
    if draw(st.booleans()):
        parser["algorithm"]["batch_replacement"] = "false"
    text = io.StringIO()
    parser.write(text)
    return text.getvalue()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(drawn_configs())
def test_every_config_runs_or_exits_2(text):
    try:
        resolve(parse_config(text))
        rejected = False
    except ConfigError:
        rejected = True
    with tempfile.TemporaryDirectory() as tmp:
        ini = Path(tmp) / "drawn.ini"
        ini.write_text(text)
        out = Path(tmp) / "out"
        code = cli.main(["run", str(ini), "--out", str(out)])
        assert code in (0, 2, 3)
        assert (code == 2) == rejected
        if rejected:
            assert not list(out.glob("*.csv"))


# --- property: every manifest either runs or is rejected with exit code 2 --

# as text, so that no drawn list or dict is shared between examples
ODD_JSON = ("null", "-1", "0.5", '"abc"', "[]", "{}", "[1, 2]")


@functools.cache
def basic_manifest() -> str:
    """Manifest that run_experiment writes for BASIC_INI at one iteration."""
    cfg = parse_config(BASIC_INI.replace("outer_iterations = 8", "outer_iterations = 1"))
    with tempfile.TemporaryDirectory() as tmp:
        run_experiment(cfg, out_dir=tmp)
        return (Path(tmp) / "tiny_manifest.json").read_text()


def json_paths(node, prefix=()):
    """Path of every key and list item below ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield (*prefix, key)
        yield from json_paths(child, (*prefix, key))


@st.composite
def drawn_manifests(draw) -> str:
    """basic_manifest with keys dropped, values replaced and the text truncated.

    Below the top level only the ``config`` block is mutated, since it is
    all that ``load_config`` reads.
    """
    data = json.loads(basic_manifest())
    for _ in range(draw(st.integers(1, 3))):
        paths = [p for p in json_paths(data) if len(p) == 1 or p[0] == "config"]
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        parent = functools.reduce(lambda node, k: node[k], parents, data)
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = json.loads(draw(st.sampled_from(ODD_JSON)))
    text = json.dumps(data)
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


@settings(derandomize=True, max_examples=50, deadline=None)
@given(drawn_manifests())
def test_every_manifest_runs_or_exits_2(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.json"
        path.write_text(text)
        try:
            resolve(load_config(path))
            rejected = False
        except ConfigError:
            rejected = True
        out = Path(tmp) / "out"
        for command in (["run", str(path), "--out", str(out)], ["certify", str(path)]):
            code = cli.main(command)
            assert code in (0, 2, 3)
            assert (code == 2) == rejected
        if rejected:
            assert not list(Path(tmp).rglob("*.csv"))

"""Benchmark of the ltadmm simulator.

Run from the repository root:

    python3 benchmarks/run.py --workload fig1-r20 --seed 0 --seconds 20 --trace 0

The program is imported from ``src/`` of the current directory, never from an
installed copy.  Each call of the measured loop runs the workload's
``run_experiment`` (``workers=1``) and checks its outputs (``check.py``).

``--trace 0`` reports the end-to-end metrics, measured with tracing off after
a warm-up call.  Their times are scaled to the reference host's nominal speed
by a fixed kernel timed before and after each measured call
(``calibration.py``); the raw medians are printed alongside.  ``--trace 1``
alternates untraced and traced calls and reports the per-layer metrics of the
traced ones (``tracer.py``); the spans
of the last traced call are written to ``.bench_work/<workload>/spans.json``.
Timings are medians over the calls made in ``--seconds`` seconds.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it show every
metric with its unit, and the environment the numbers were taken on.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import workloads

WORK_DIR = ".bench_work"
SETUP_REPEATS = 7

_SETUP_CODE = """\
import sys
src, bench, workload, seed, problem_seed, iterations = sys.argv[1:]
sys.path[:0] = [src, bench]
import workloads
workloads.setup(workload, int(seed), int(problem_seed), int(iterations))
"""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="master seed of the solvers")
    parser.add_argument(
        "--problem-seed",
        type=int,
        default=None,
        help="seed of the synthetic data (default: 31 + seed)",
    )
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.problem_seed is None:
        args.problem_seed = workloads.default_problem_seed(args.seed)
    return args


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(root: Path) -> dict:
    """Host and library versions the numbers (and the CSV bytes) depend on."""
    import numpy
    import scipy

    source = hashlib.sha256()
    for path in sorted((root / "src" / "ltadmm").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": source.hexdigest(),
    }


def measure_setup(root: Path, args: argparse.Namespace, iterations: int) -> tuple[float, float]:
    """Median wall time of fresh interpreters doing the workload's set-up.

    Returns the median scaled to the reference speed, and the raw median.
    """
    argv = [
        sys.executable,
        "-c",
        _SETUP_CODE,
        str(root / "src"),
        str(Path(__file__).resolve().parent),
        args.workload,
        str(args.seed),
        str(args.problem_seed),
        str(iterations),
    ]
    times = []
    kernels = [calibration.kernel_s()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        kernels.append(calibration.kernel_s())
    return statistics.median(calibration.scaled(times, kernels)), statistics.median(times)


_END_TO_END_UNITS = {
    "wall_s": "s",
    "iters_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "correct_frac": "ratio",
    "failed_frac": "ratio",
    "raw_wall_s": "s",
    "raw_setup_s": "s",
    "kernel_s": "s",
}


def unit_of(name: str) -> str:
    """Unit of a metric; for a per-layer one, from the last part of its name."""
    if name in _END_TO_END_UNITS:
        return _END_TO_END_UNITS[name]
    stat = name.rsplit(".", 1)[-1]
    if stat in ("calls", "rows", "solver_calls", "metric_calls", "csv_digest_mismatch"):
        return "count"
    if stat == "bytes":
        return "B"
    if stat.startswith("us"):
        return "us"
    if stat.startswith("ms"):
        return "ms"
    if stat.endswith("_s") or stat == "s_p50":
        return "s"
    return "ratio"


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "ltadmm" / "__init__.py").is_file():
        print(f"error: no ltadmm package under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # One CPU for the whole run, set-up interpreters included: on a shared host
    # the cores are not equally loaded, and a run that migrates mixes speeds.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    # imported here: both need the program from src/ on the path
    import check
    import tracer as tracing
    from ltadmm import runner

    if not Path(runner.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: ltadmm was imported from {runner.__file__}, not {src}", file=sys.stderr)
        return 2

    iterations = workloads.ITERATIONS[args.workload]
    references = check.load_references()
    reference = check.reference_seeds(
        references, args.workload, args.seed, args.problem_seed, iterations
    )
    if reference is None:
        print(
            f"error: {check.REFERENCES} pins no {args.workload} values at {iterations} "
            "iterations; re-pin with benchmarks/pin.py",
            file=sys.stderr,
        )
        return 2

    env = environment(root)
    calibration.kernel_s()  # warm-up
    setup_s, raw_setup_s = measure_setup(root, args, iterations) if args.trace == 0 else (None, None)
    expected = workloads.EXPECTED_RESOLVED[args.workload]

    def config(seed: int, problem_seed: int, iterations: int):
        return workloads.build_config(args.workload, seed, problem_seed, iterations)

    out_dir = root / WORK_DIR / args.workload
    runner.run_experiment(
        config(args.seed, args.problem_seed, 1), out_dir=root / WORK_DIR / "warmup", workers=1
    )

    def checker_for(cfg, seeds: tuple[int, int]) -> check.OutputCheck:
        pinned = check.pinned_points(references, args.workload, *seeds, iterations)
        return check.OutputCheck(args.workload, cfg, expected, pinned)

    seeds = (args.seed, args.problem_seed)
    cfg = config(*seeds, iterations)
    checker = checker_for(cfg, seeds)
    checkers = [checker]
    if reference != seeds:
        # this seed pair is not pinned: compare one untimed call of a pinned pair
        reference_cfg = config(*reference, iterations)
        reference_checker = checker_for(reference_cfg, reference)
        reference_checker(
            runner.run_experiment(reference_cfg, out_dir=root / WORK_DIR / "reference", workers=1)
        )
        checkers.append(reference_checker)

    def timed_call(traced_by=None) -> tuple[float, object]:
        with traced_by or contextlib.nullcontext():
            start = time.perf_counter()
            result = runner.run_experiment(cfg, out_dir=out_dir, workers=1)
            return time.perf_counter() - start, result

    walls: list[float] = []
    traced_walls: list[float] = []
    layer_runs: list[dict] = []
    tracer = tracing.Tracer() if args.trace else None
    config_ms: list[float] = []
    kernels = [calibration.kernel_s()] if tracer is None else []
    deadline = time.perf_counter() + args.seconds
    while True:
        wall, result = timed_call()
        walls.append(wall)
        checker(result)
        if tracer is None:
            kernels.append(calibration.kernel_s())
        else:
            start = time.perf_counter()
            config(*seeds, iterations)
            config_ms.append((time.perf_counter() - start) * 1e3)
            tracer.reset(len(traced_walls))
            wall, result = timed_call(tracer)
            traced_walls.append(wall)
            checker(result)
            layer_runs.append(tracing.layer_metrics(tracer, wall))
        if time.perf_counter() >= deadline:
            break

    attempted = sum(c.attempted for c in checkers)
    failed = sum(c.failed for c in checkers)
    failed_frac = failed / attempted
    manifest = out_dir / f"{cfg.name}_manifest.json"
    if tracer is None:
        wall_s = statistics.median(calibration.scaled(walls, kernels))
        work = sum(p["monte_carlo_runs"] for p in result.manifest["points"]) * iterations
        metrics = {
            "wall_s": wall_s,
            "iters_per_s": work / wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "correct_frac": 1.0 - failed_frac,
        }
        shown = dict(
            metrics,
            failed_frac=failed_frac,
            raw_wall_s=statistics.median(walls),
            raw_setup_s=raw_setup_s,
            kernel_s=statistics.median(kernels),
        )
    else:
        metrics = {key: statistics.median(run[key] for run in layer_runs) for key in layer_runs[0]}
        metrics["runner.parse_config.ms"] = statistics.median(config_ms)
        metrics["runner._write_csv.bytes"] = checker.csv_bytes
        metrics["runner.manifest.bytes"] = manifest.stat().st_size
        metrics["runner.csv_digest_mismatch"] = sum(c.digest_mismatch for c in checkers)
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        tracer.write(out_dir / "spans.json")
        shown = dict(metrics)

    print("environment " + json.dumps(env, sort_keys=True))
    print(
        f"workload {args.workload} seed {args.seed} problem_seed {args.problem_seed} "
        f"iterations {iterations} untraced_calls {len(walls)} "
        f"traced_calls {len(traced_walls)} pinned_seed {reference[0]} "
        f"pinned_problem_seed {reference[1]}"
    )
    if tracer is not None:
        for name, seconds in tracing.self_time_by_function(tracer).items():
            print(f"self_time {name} {seconds:.6f} s {seconds / traced_walls[-1]:.4f} of wall")
    for failure in [f for c in checkers for f in c.failures][:20]:
        print(f"FAILED {failure}")
    for name, value in shown.items():
        print(f"{name} {value!r} {unit_of(name)}")
    report = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    (out_dir / f"result_trace{args.trace}.json").write_text(
        json.dumps(dict(report, environment=env, arguments=vars(args)), indent=1) + "\n"
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Pin the per-point reference values that the output check compares against.

Run from the repository root on the commit whose outputs are the reference:

    python3 benchmarks/pin.py --seeds 0-31,1000

Each workload runs once per seed at its default budget.  A point that fails
the closed-form checks is not pinned: the command stops with an error.  The
result replaces ``benchmarks/references.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import workloads


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def pin(root: Path, seeds: list[int]) -> dict | None:
    """References of every workload at its budget in ``workloads.ITERATIONS``.

    Returns None, after printing the failures, when a point fails the
    closed-form checks.
    """
    # imported here: both need the program from src/ on the path
    import check
    import run
    from ltadmm import runner

    references = {"environment": run.environment(root), "workloads": {}}
    for workload in workloads.WORKLOADS:
        iterations = workloads.ITERATIONS[workload]
        pinned = {}
        for seed in seeds:
            problem_seed = workloads.default_problem_seed(seed)
            cfg = workloads.build_config(workload, seed, problem_seed, iterations)
            result = runner.run_experiment(
                cfg, out_dir=root / run.WORK_DIR / "pin" / workload, workers=1
            )
            checker = check.OutputCheck(
                workload, cfg, workloads.EXPECTED_RESOLVED[workload], pinned=None
            )
            checker(result)
            if checker.failed:
                print("\n".join(checker.failures), file=sys.stderr)
                return None
            points = [
                {k: v for k, v in s.items() if k != "csv_bytes"} for s in check.summarize(result)
            ]
            pinned[str(seed)] = {"problem_seed": problem_seed, "points": points}
            print(f"pinned {workload} seed {seed}", flush=True)
        references["workloads"][workload] = {"iterations": iterations, "seeds": pinned}
    return references


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    args = parser.parse_args(argv)
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import check

    references = pin(root, args.seeds)
    if references is None:
        return 1
    check.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

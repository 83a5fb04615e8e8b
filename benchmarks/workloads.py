"""Workloads of the ltadmm benchmark and the set-up step that ``setup_s`` times.

Every workload is one closed-loop ``ltadmm.runner.run_experiment`` call with
``workers=1``: a single caller, and each grid point starts after the previous
one has finished.  Inputs depend only on the master seed and the problem
seed, which are benchmark arguments.  ltadmm is imported inside the functions
so that a fresh interpreter running :func:`setup` pays for the import inside
the timed region.
"""

from __future__ import annotations

WORKLOADS = ("fig1-r20", "fig2-tau", "wide40-dk")

# Outer-iteration budget of one measured call, chosen so that one call takes
# about two seconds on a 2-core host.
ITERATIONS = {"fig1-r20": 4, "fig2-tau": 20, "wide40-dk": 40}

# Problem seed of the fig1/fig2 presets; seed 0 reproduces their data.
PRESET_PROBLEM_SEED = 31

# Stopping threshold of fig2-tau.  The preset's 1e-9 is out of reach at the
# reduced budget (the pinned seeds end at mean squared gradients of 0.02 to
# 0.12), so no point would record a stopping time to check.  Every pinned
# point crosses 0.15 within its budget, at a k that varies with tau.  The threshold only steers the scan
# of the finished trace, not the solver.
FIG2_STOP_THRESHOLD = 0.15

# Values every grid point's resolved run configuration must hold, so that the
# timed code path is the one the workload is named for.
EXPECTED_RESOLVED = {
    "fig1-r20": {"monte_carlo_runs": 20, "batch_size": 1, "batch_replacement": True},
    "fig2-tau": {"monte_carlo_runs": 4, "batch_size": 1, "variant": "lt_admm_vr"},
    "wide40-dk": {
        "monte_carlo_runs": 2,
        "batch_size": 8,
        "batch_replacement": False,
        "record_dk": True,
        "tau": 2,
    },
}

WIDE40_AGENTS = 40
WIDE40_OFFSETS = (1, 2, 5)

_WIDE40_INI = """\
[experiment]
name = wide40_dk

[topology]
n_agents = {agents}
edges = {edges}

[problem]
kind = logistic_nonconvex
seed = {problem_seed}
dimension = 5
points_per_agent = 40
epsilon = 0.01

[algorithm]
variant = exact
gamma = 0.1
rho = 1.0
tau = 2
batch_size = 8
batch_replacement = false
record_dk = true
outer_iterations = {iterations}
master_seed = {seed}
monte_carlo_runs = 2

[cost]
t_g = 1.0
t_c = 10.0

[sweep]
variant = exact, lt_admm_vr_v2
"""


def default_problem_seed(seed: int) -> int:
    return PRESET_PROBLEM_SEED + seed


def wide40_edges() -> list[tuple[int, int]]:
    """Agent i linked to i+1, i+2 and i+5 (mod 40): 120 undirected edges."""
    n = WIDE40_AGENTS
    return [(i, (i + d) % n) for i in range(n) for d in WIDE40_OFFSETS]


def wide40_ini(seed: int, problem_seed: int, iterations: int) -> str:
    edges = ", ".join(f"{i}-{j}" for i, j in wide40_edges())
    return _WIDE40_INI.format(
        agents=WIDE40_AGENTS,
        edges=edges,
        problem_seed=problem_seed,
        iterations=iterations,
        seed=seed,
    )


def build_config(workload: str, seed: int, problem_seed: int, iterations: int):
    """The workload's ``ExperimentConfig``; wide40-dk goes through INI text."""
    from ltadmm import runner

    if workload == "fig1-r20":
        cfg = runner.preset_fig1(master_seed=seed, outer_iterations=iterations)
    elif workload == "fig2-tau":
        cfg = runner.preset_fig2(master_seed=seed, outer_iterations=iterations)
        cfg.stop_threshold = FIG2_STOP_THRESHOLD
    elif workload == "wide40-dk":
        return runner.parse_config(wide40_ini(seed, problem_seed, iterations))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    cfg.problem["seed"] = problem_seed
    return cfg


def setup(workload: str, seed: int, problem_seed: int, iterations: int) -> None:
    """What ``setup_s`` times after interpreter start: import, config, build."""
    from ltadmm import runner

    cfg = build_config(workload, seed, problem_seed, iterations)
    runner.build_instance(cfg.problem)
    runner.build_topology(cfg.topology)

"""The benchmark's workloads: scenario files made from a seed, and the
sequence of `blockmf` subcommands each workload runs on them.

Every workload is a closed loop with one client: the next subcommand
starts when the previous one has returned. The `why` of each workload is
copied into BENCHMARK.json.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import checks

THIRD = 1.0 / 3.0

# Two-block SIS of acceptance criteria 4-5: near-critical pull through the
# peripheral pool, even masses, N-exact proportions for N divisible by 4.
CHAOS_MODEL = {
    "rates": {"model": "sis", "r": 2, "gamma": 1.0, "nu": 3.0, "eta": 3.0,
              "zeta": 2.0},
    "targets": {"p_c": [0.5, 0.5], "alpha_c": [THIRD, THIRD],
                "q": [[THIRD, THIRD], [THIRD, THIRD]], "alpha": [0.5, 0.5]},
    "init": {"c": [[0.75, 0.25], [0.75, 0.25]],
             "p": [[0.75, 0.25], [0.75, 0.25]]},
}

# The two-block SIS workhorse of the unit tests.
SIS2_MODEL = {
    "rates": {"model": "sis", "r": 2, "gamma": [0.8, 1.1], "nu": [0.5, 0.4],
              "eta": 0.6, "zeta": [0.9, 0.7]},
    "init": {"c": [[0.7, 0.3], [0.8, 0.2]], "p": [[0.6, 0.4], [0.75, 0.25]]},
}

QUEUE_RATES = {"model": "queue", "colors": 6,
               "zeta": [1.2, 1.1, 1.0, 0.9, 0.8, 0.7],
               "vartheta": [0.0, 1.0, 1.1, 1.2, 1.3, 1.4], "c0": 0.3}
QUEUE_TARGETS = {"p_c": [0.4, 0.6], "alpha_c": [0.3, 0.25],
                 "q": [[0.35, 0.35], [0.3, 0.45]], "alpha": [0.5, 0.5]}
QUEUE_INIT = {"c": [[0.5, 0.2, 0.1, 0.1, 0.05, 0.05],
                    [0.3, 0.3, 0.2, 0.1, 0.05, 0.05]],
              "p": [[0.6, 0.2, 0.1, 0.05, 0.03, 0.02],
                    [0.2, 0.2, 0.2, 0.2, 0.1, 0.1]]}

# Problem sizes. `small` shrinks every workload for the harness self-test.
SIZES = {
    "full": {
        "farm_n": [40, 160, 640], "farm_replicas": 24,
        "sparse_blocks": [[80, 240], [80, 240]], "sparse_horizon": 0.3,
        "limit_dt": 0.0025,
        "oracle_replicas": 2000,
    },
    "small": {
        "farm_n": [8, 32, 128], "farm_replicas": 10,
        "sparse_blocks": [[4, 12], [4, 12]], "sparse_horizon": 1.0,
        "limit_dt": 0.01,
        "oracle_replicas": 300,
    },
}

WHY = {
    "particles": "chaos, multichaos (complete design, N 40..640, 2 "
                 "workers), a long simulate on a regular N=640 design, then "
                 "oracle-check's exact solve and thousands of tiny simulate "
                 "calls",
    "limit": "meanfield, picard and ldp-cost on a 6-colour queue, no "
             "particles: RK4, Picard sweeps, variational-norm solves and "
             "CSV I/O",
}


@dataclass(frozen=True)
class Step:
    """One subcommand; `check` returns the problems found in its output."""

    command: str
    scenario: str
    check: object
    artifacts: tuple
    threads: int | None = None

    @property
    def metric(self) -> str:
        return "step." + self.command.replace("-", "_") + "_s"

    def argv(self, scenario_path, out_dir, seed, threads=None):
        argv = [self.command, "--scenario", scenario_path, "--out", out_dir,
                "--seed", str(seed)]
        threads = threads or self.threads
        if threads is not None:
            argv += ["--threads", str(threads)]
        return argv


@dataclass
class Workload:
    name: str
    why: str
    master: int                     # master seed of iteration 0
    scenarios: dict                 # file stem -> scenario JSON object
    steps: list = field(default_factory=list)

    def iteration_seed(self, index: int) -> int:
        """Master seed of iteration `index`. Each iteration draws fresh
        randomness, so a run's median covers many trajectories rather
        than one; the subcommands take it through `--seed`."""
        return (self.master + index) % 2 ** 32

    @property
    def pool_steps(self) -> list:
        return [s for s in self.steps if s.threads]


def _scenario(seed, **fields):
    return {"schema": "blockmf/1", "seed": seed, **fields}


def build(name: str, seed: int, size: str = "full") -> Workload:
    """The workload `name` with inputs drawn from `seed`; the same seed
    gives the same scenario files."""
    if name not in WHY:
        raise KeyError(name)
    sz = SIZES[size]
    rnd = random.Random(f"{name}:{seed}")
    master = rnd.randrange(2 ** 32)
    if name == "limit":
        # The flow has no randomness; the seed tilts the initial measures.
        init = {cls: [_tilt(row, rnd) for row in rows]
                for cls, rows in QUEUE_INIT.items()}
        scenarios = {"limit": _scenario(
            master, rates=QUEUE_RATES, targets=QUEUE_TARGETS, init=init,
            horizon=5.0, dt=sz["limit_dt"])}
        steps = [
            Step("meanfield", "limit", checks.meanfield, ("flow.csv",)),
            Step("picard", "limit", checks.picard,
                 ("flow_picard.csv", "residuals.csv")),
            Step("ldp-cost", "limit", checks.ldp_cost, ("cost.csv",)),
        ]
        return Workload(name, WHY[name], master, scenarios, steps)
    scenarios = {
        # The paper's headline experiment: graph builds, the complete-design
        # kernel, empirical_process, d_bl and the process pool.
        "farm": _scenario(master, **CHAOS_MODEL, horizon=3.0, dt=0.01,
                          grid=31, replicas=sz["farm_replicas"],
                          n_list=sz["farm_n"]),
        # The only long run on the non-complete path (one group per
        # peripheral node).
        "sparse": _scenario(master, **SIS2_MODEL,
                            graph={"regular": {"blocks": sz["sparse_blocks"],
                                               "fractions": 0.5}},
                            targets="from_graph",
                            horizon=sz["sparse_horizon"], grid=21),
        # The only oracle run; simulate as thousands of tiny calls, where
        # fixed per-call cost dominates.
        "oracle": _scenario(master, **SIS2_MODEL,
                            graph={"regular": {"blocks": [[1, 4], [1, 4]],
                                               "fractions": 0.5}},
                            targets="from_graph", horizon=1.0,
                            replicas=sz["oracle_replicas"]),
    }
    steps = [
        Step("chaos", "farm", checks.chaos,
             ("convergence.csv", "chaos_convergence.svg"), threads=2),
        Step("multichaos", "farm", checks.multichaos, ("multichaos.csv",),
             threads=2),
        Step("simulate", "sparse", checks.sparse,
             ("trajectory.csv", "empirical.csv")),
        Step("oracle-check", "oracle", checks.oracle, ("oracle_check.csv",)),
    ]
    return Workload(name, WHY[name], master, scenarios, steps)


def _tilt(row, rnd):
    """Mix a probability row 9:1 with a random one; rows stay exact
    probability vectors up to rounding, renormalized."""
    noise = [rnd.random() for _ in row]
    total = sum(noise)
    mixed = [0.9 * p + 0.1 * x / total for p, x in zip(row, noise)]
    s = sum(mixed)
    return [x / s for x in mixed]

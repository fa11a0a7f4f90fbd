"""Benchmark workloads: `hirnet run` configs derived from the benchmark seed.

Every workload trains the same suite and network as acceptance criteria 4
and 7 (moons, 100 points per class, six angles 0-75 degrees, one hidden
layer of 32, five points per (domain, class) cell per batch, 40 epochs).
They differ in which layer dominates the run; README.md gives the reasons.
"""

from __future__ import annotations

DEFAULT_SEED = 7

SUITE = {
    "kind": "moons",
    "n_per_class": 100,
    "angles": [0.0, 15.0, 30.0, 45.0, 60.0, 75.0],
    "noise_sd": 0.08,
}

TRAINING = {"hidden_sizes": [32], "epochs": 40, "per_class_per_domain": 5}

# ``n_seeds`` runs per held-out domain, with run seeds seed, seed + 1, ...
WORKLOADS = {
    "agg-steps": {"loss_kind": "agg", "alpha": 0.0, "paired": False,
                  "collect_diagnostics": False, "held_out": "all", "n_seeds": 2},
    "hir-full": {"loss_kind": "hir", "alpha": 1e-2, "paired": True,
                 "collect_diagnostics": True, "held_out": "all", "n_seeds": 1},
    "mmd-align": {"loss_kind": "mmd", "alpha": 1.0, "paired": False,
                  "collect_diagnostics": False, "held_out": 2, "n_seeds": 1},
}


def experiment_config(workload: str, seed: int) -> dict:
    """The JSON config of ``workload``; ``seed`` seeds the suite and the runs."""
    spec = dict(WORKLOADS[workload])
    n_seeds = spec.pop("n_seeds")
    return {"suite": {**SUITE, "seed": seed}, **TRAINING, **spec,
            "seeds": [seed + i for i in range(n_seeds)]}


def expected_runs(config: dict) -> list[tuple[int, int]]:
    """Every (held-out domain, run seed) pair the config asks for."""
    if config["held_out"] == "all":
        held_out = range(len(config["suite"]["angles"]))
    else:
        held_out = [config["held_out"]]
    return [(ho, seed) for ho in held_out for seed in config["seeds"]]

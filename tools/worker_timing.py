#!/usr/bin/env python3
"""Wall time of ``run_experiment`` on one process against the worker count
the grid picks.

    python3 tools/worker_timing.py [--pairs N] [--runs 6,12,18,30] [--kinds agg,hir]

For each loss kind and grid size it takes a benchmark workload's config from
``perfbench/workloads.py`` (``agg-steps`` for ``agg``, ``hir-full`` for
``hir``), with probes off, every held-out domain and as many seeds as the
grid needs (a grid of R runs is 6 held-out domains by R / 6 seeds). It then
runs N pairs (default 10), each side in a fresh interpreter that imports
``hirnet`` from this repository's ``src`` and times one ``run_experiment``
call: ``one`` forces ``harness._worker_count`` to 1, ``derived`` leaves the
count to the grid. The side that runs first alternates from pair to pair.
The process is not pinned, so the derived side may use every CPU in its
affinity mask.

It prints one line per (kind, runs): the derived count, the median seconds
of each side, and the pairs the derived side won.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import DEFAULT_SEED, experiment_config  # noqa: E402

WORKLOAD = {"agg": "agg-steps", "hir": "hir-full"}
CHILD = """
import json, sys, time
from hirnet import harness
config = harness.ExperimentConfig.from_dict(json.loads(sys.argv[1]))
if sys.argv[2] == "one":
    harness._worker_count = lambda n_rows: 1
start = time.perf_counter()
harness.run_experiment(config)
seconds = time.perf_counter() - start
print(json.dumps([seconds, harness._worker_count(len(config.held_out_indices()) * len(config.seeds))]))
"""


def timed(config: dict, side: str) -> tuple[float, int]:
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(config), side], env=env,
                          capture_output=True, text=True, check=True)
    seconds, workers = json.loads(proc.stdout.splitlines()[-1])
    return seconds, workers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--runs", default="6,12,18,30")
    parser.add_argument("--kinds", default="agg,hir")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for kind in args.kinds.split(","):
        for runs in map(int, args.runs.split(",")):
            config = experiment_config(WORKLOAD[kind], DEFAULT_SEED)
            config.update(collect_diagnostics=False, held_out="all",
                          seeds=[DEFAULT_SEED + i for i in range(runs // 6)])
            times = {"one": [], "derived": []}
            for pair in range(args.pairs):
                for side in ("one", "derived") if pair % 2 == 0 else ("derived", "one"):
                    seconds, workers = timed(config, side)
                    times[side].append(seconds)
                    if side == "derived":
                        derived = workers
            wins = sum(d < o for o, d in zip(times["one"], times["derived"]))
            print(f"{kind} {runs:3d} runs: {derived} workers, "
                  f"one {statistics.median(times['one']):.3f} s, "
                  f"derived {statistics.median(times['derived']):.3f} s, "
                  f"derived faster in {wins} of {args.pairs}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

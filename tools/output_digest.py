#!/usr/bin/env python3
"""SHA-256 of every file hirnet writes on a fixed set of commands.

    python3 tools/output_digest.py [--seed N] [--src DIR]

Runs, each in a fresh interpreter with ``DIR/hirnet`` on the path (default:
this repository's ``src``):

- ``hirnet run`` on each workload config of ``perfbench/workloads.py``;
- ``hirnet sweep`` of the ``hir-full`` config over three alpha values;
- ``hirnet diag`` on one ``hir-full`` checkpoint against the workload suite,
  at one and at three points per (domain, class) cell, and against two
  edge manifests: two domains whose class priors share no class, so no
  base_id is common to both, and a single domain;
- ``hirnet run`` of the ``agg-steps`` config at a learning rate that makes
  every run diverge (exit 3), so the failure messages are digested.

It prints one ``<sha256>  <path>`` line per output file, sorted by path.
In JSON files each ``wall_clock_s`` value is blanked first, as the only
value that differs between equal runs. Two checkouts give the same outputs
when their printed lines are equal, for example:

    diff <(python3 tools/output_digest.py --src ../parent/src) \\
         <(python3 tools/output_digest.py)

It reads ``perfbench/`` and changes nothing in it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import DEFAULT_SEED, SUITE, WORKLOADS, experiment_config  # noqa: E402

SWEEP_WORKLOAD = "hir-full"
SWEEP_ALPHAS = "0.001,0.01,0.1"
DIVERGING_WORKLOAD = "agg-steps"
# Suite manifests besides the workload suite, each diagnosed at one point per cell.
EDGE_SUITES = {
    "no_common_id": {"angles": [0.0, 15.0], "prior_shift": [[1.0, 0.0], [0.0, 1.0]]},
    "one_domain": {"angles": [0.0]},
}
WALL_CLOCK = re.compile(rb'"wall_clock_s": [^,\n]*')


def hirnet(src: str, *args: str, exit_code: int = 0) -> None:
    env = {**os.environ, "PYTHONPATH": src, "HIRNET_WORKERS": "1"}
    proc = subprocess.run([sys.executable, "-m", "hirnet.cli", *args], env=env,
                          capture_output=True, text=True)
    if proc.returncode != exit_code:
        raise SystemExit(f"hirnet {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")


def write_commands(src: str, out: str, seed: int) -> None:
    configs = os.path.join(out, "configs")
    os.makedirs(configs)
    for workload in WORKLOADS:
        path = os.path.join(configs, f"{workload}.json")
        with open(path, "w") as fh:
            json.dump(experiment_config(workload, seed), fh)
        hirnet(src, "run", "--config", path, "--out", os.path.join(out, "run", workload))
    hirnet(src, "sweep", "--config", os.path.join(configs, f"{SWEEP_WORKLOAD}.json"),
           "--alpha", SWEEP_ALPHAS, "--out", os.path.join(out, "sweep"))
    diverging = os.path.join(configs, "diverging.json")
    with open(diverging, "w") as fh:
        json.dump({**experiment_config(DIVERGING_WORKLOAD, seed), "optimizer": {"lr": 1e200}}, fh)
    hirnet(src, "run", "--config", diverging, "--out", os.path.join(out, "run", "diverging"),
           exit_code=3)
    checkpoint = os.path.join(out, "run", SWEEP_WORKLOAD, f"checkpoint_ho0_seed{seed}.ckpt")
    cases = [("workload", {}, "1"), ("workload", {}, "3")]
    cases += [(name, changes, "1") for name, changes in EDGE_SUITES.items()]
    for name, changes, cells in cases:
        suite = os.path.join(configs, f"suite_{name}.json")
        with open(suite, "w") as fh:
            json.dump({**SUITE, "seed": seed, **changes}, fh)
        folder = f"diag_{cells}" if name == "workload" else f"diag_{name}"
        hirnet(src, "diag", "--checkpoint", checkpoint, "--suite", suite, "--seed", str(seed),
               "--per-class-per-domain", cells, "--out", os.path.join(out, folder))


def digests(out: str) -> list[str]:
    lines = []
    for folder, _, files in os.walk(out):
        for name in files:
            path = os.path.join(folder, name)
            rel = os.path.relpath(path, out)
            if rel.startswith("configs" + os.sep):
                continue
            with open(path, "rb") as fh:
                data = fh.read()
            if name.endswith(".json"):
                data = WALL_CLOCK.sub(b'"wall_clock_s": null', data)
            lines.append(f"{hashlib.sha256(data).hexdigest()}  {rel}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory that holds the hirnet package to run")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as out:
        write_commands(os.path.abspath(args.src), out, args.seed)
        print("\n".join(digests(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""SHA-256 of every file hirnet writes on a fixed set of commands.

    python3 tools/output_digest.py [--seed N] [--src DIR] [--against PARENT_SRC]

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

It prints a header line naming the Python, numpy and BLAS versions, whose
arithmetic the bits depend on, then one ``<sha256>  <path>`` line per
output file, sorted by path. In JSON files each ``wall_clock_s`` value is
blanked first, as the only value that differs between equal runs. Two
checkouts give the same outputs when their printed lines are equal, for
example:

    diff <(python3 tools/output_digest.py --src ../parent/src) \\
         <(python3 tools/output_digest.py)

With ``--against PARENT_SRC`` it runs the commands for both and prints, in
place of the digests, one ``<deviation>  <path>`` line per output file whose
digest differs from the parent's: the worst relative deviation
|a - b| / max(|a|, |b|) over the numbers of the two files, read in order,
or ``text`` when they differ in anything besides their numbers. A last line
counts the identical files.

It reads ``perfbench/`` and changes nothing in it. The seed-7 digest is
committed as ``tests/output_digest_seed7.txt``, which a Tier-1 test checks
by running the same commands in-process; regenerate it with

    python3 tools/output_digest.py --seed 7 > tests/output_digest_seed7.txt
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile

import numpy as np

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
NUMBER = re.compile(rb"-?(?:Infinity|NaN|nan|inf|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def header() -> str:
    """The digest's first line: the Python, numpy and BLAS versions of this process."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return (f"# python {platform.python_version()}, numpy {np.__version__}, "
            f"blas {blas['name']} {blas.get('version', 'unknown')}")


def hirnet(src: str, *args: str, exit_code: int = 0) -> None:
    """Run ``hirnet ARGS`` from ``src`` in a fresh interpreter and check its exit code."""
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "hirnet.cli", *args], env=env,
                          capture_output=True, text=True)
    if proc.returncode != exit_code:
        raise SystemExit(f"hirnet {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")


def write_commands(runner, out: str, seed: int) -> None:
    """Run every command into ``out`` through ``runner(*args, exit_code=0)``,
    which runs one ``hirnet`` command and checks its exit code."""
    configs = os.path.join(out, "configs")
    os.makedirs(configs)
    for workload in WORKLOADS:
        path = os.path.join(configs, f"{workload}.json")
        with open(path, "w") as fh:
            json.dump(experiment_config(workload, seed), fh)
        runner("run", "--config", path, "--out", os.path.join(out, "run", workload))
    runner("sweep", "--config", os.path.join(configs, f"{SWEEP_WORKLOAD}.json"),
           "--alpha", SWEEP_ALPHAS, "--out", os.path.join(out, "sweep"))
    diverging = os.path.join(configs, "diverging.json")
    with open(diverging, "w") as fh:
        json.dump({**experiment_config(DIVERGING_WORKLOAD, seed), "optimizer": {"lr": 1e200}}, fh)
    runner("run", "--config", diverging, "--out", os.path.join(out, "run", "diverging"),
           exit_code=3)
    checkpoint = os.path.join(out, "run", SWEEP_WORKLOAD, f"checkpoint_ho0_seed{seed}.ckpt")
    cases = [("workload", {}, "1"), ("workload", {}, "3")]
    cases += [(name, changes, "1") for name, changes in EDGE_SUITES.items()]
    for name, changes, cells in cases:
        suite = os.path.join(configs, f"suite_{name}.json")
        with open(suite, "w") as fh:
            json.dump({**SUITE, "seed": seed, **changes}, fh)
        folder = f"diag_{cells}" if name == "workload" else f"diag_{name}"
        runner("diag", "--checkpoint", checkpoint, "--suite", suite, "--seed", str(seed),
               "--per-class-per-domain", cells, "--out", os.path.join(out, folder))


def outputs(out: str) -> dict[str, bytes]:
    """Each output file's contents by its path under ``out``, ``wall_clock_s`` blanked."""
    files = {}
    for folder, _, names in os.walk(out):
        for name in names:
            path = os.path.join(folder, name)
            rel = os.path.relpath(path, out)
            if rel.startswith("configs" + os.sep):
                continue
            with open(path, "rb") as fh:
                data = fh.read()
            if name.endswith(".json"):
                data = WALL_CLOCK.sub(b'"wall_clock_s": null', data)
            files[rel] = data
    return files


def digests(files: dict[str, bytes]) -> list[str]:
    return [f"{hashlib.sha256(files[rel]).hexdigest()}  {rel}" for rel in sorted(files)]


def relative(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|): 0 for equal values (NaN equals NaN), inf if one is not finite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def deviation(data: bytes, parent: bytes) -> str:
    """The worst relative deviation between the numbers of two files that
    differ only in their numbers, else ``text``."""
    if NUMBER.sub(b"#", data) != NUMBER.sub(b"#", parent):
        return "text"
    numbers = [[float(x.replace(b"Infinity", b"inf")) for x in NUMBER.findall(text)]
               for text in (data, parent)]
    return f"{max(map(relative, *numbers), default=0.0):.3g}"


def compare(files: dict[str, bytes], parent: dict[str, bytes]) -> list[str]:
    """One line per file that differs from the parent's or exists on one side only, then a count."""
    lines = []
    for rel in sorted(files.keys() | parent.keys()):
        if rel not in files or rel not in parent:
            lines.append(f"{'missing' if rel in parent else 'new'}  {rel}")
        elif files[rel] != parent[rel]:
            lines.append(f"{deviation(files[rel], parent[rel])}  {rel}")
    identical = sum(files.get(rel) == data for rel, data in parent.items())
    return lines + [f"{identical} of {len(parent)} files identical to the parent's"]


def run(src: str, seed: int) -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as out:
        write_commands(functools.partial(hirnet, os.path.abspath(src)), out, seed)
        return outputs(out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory that holds the hirnet package to run")
    parser.add_argument("--against", metavar="PARENT_SRC",
                        help="compare with the outputs of the hirnet package in this directory")
    args = parser.parse_args()
    files = run(args.src, args.seed)
    lines = compare(files, run(args.against, args.seed)) if args.against else [
        header(), *digests(files)]
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

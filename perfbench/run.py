#!/usr/bin/env python3
"""Benchmark of `hirnet run`: hold-one-domain-out experiments end to end.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the package is imported from ``src/``.
Each repeat is a fresh child interpreter (``child.py``) that sets up and
runs one ``hirnet run`` with HIRNET_WORKERS=1 and single-threaded BLAS.
A run first makes a few set-up-only repeats, then full repeats, one after
the other, until the next one would end after ``--seconds`` (at least two,
or one untraced/traced pair). Every repeat's outputs are checked: each
(held-out, seed) run must finish unfailed with finite traces and a
parseable report.json, every repeat must give the same accuracies, and at
the default seed they must equal ``reference.json``. A run that fails the
check counts as a failed operation.

The benchmark pins itself and its children to one vCPU and runs the
calibration loop of ``speed.py`` beside them. Times are reported at the
reference speed: each interval's time, less what the loop took of it,
times the loop's speed factor over that interval.

``--trace 0`` reports the median of each end-to-end metric over the
repeats. ``--trace 1`` alternates untraced and traced repeats and reports
the per-layer metrics of the traced ones (see ``recorder.py``) and their
overhead. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from recorder import layer_metrics, metric_units, read_spans
from speed import NICE, Speedometer
from workloads import DEFAULT_SEED, WORKLOADS, expected_runs, experiment_config

HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170.0  # a benchmark run must end within 180 s
MIN_REPEATS = 2
SETUP_REPEATS = 5
END_TO_END_UNITS = {
    "setup_s": "s",
    "experiment_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "heldout_acc": "fraction",
}
CHILD_ENV = {
    "HIRNET_WORKERS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    # Set-up is timed with hirnet's bytecode cached, as a user has it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def pin_to_one_cpu() -> tuple[int, int]:
    """Pins this process, and so every child, to one usable vCPU."""
    usable = os.sched_getaffinity(0)
    cpu = max(usable)
    os.sched_setaffinity(0, {cpu})
    return cpu, len(usable)


def machine_facts(env: dict, cpu: int, cpus_usable: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": cpus_usable,
        "pinned_cpu": cpu,
        "calibration_nice": NICE,
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        **{name: env[name] for name in CHILD_ENV},
    }


def run_child(root, env, config_path, out_dir, spans_path, timeout):
    """Start one repeat and wait for it; returns (timings, error)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           repr(time.clock_gettime(time.CLOCK_MONOTONIC)), config_path, out_dir, spans_path]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"repeat killed after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"repeat exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    try:
        timings = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, "repeat printed no result"
    if timings.get("exit_code", 0) != 0:
        return None, f"hirnet run exited {timings['exit_code']}"
    return timings, None


def _finite_numbers(value) -> bool:
    if isinstance(value, (list, tuple)):
        return all(_finite_numbers(v) for v in value)
    if isinstance(value, dict):
        return all(_finite_numbers(v) for v in value.values())
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return math.isfinite(value)
    return True


def _config_matches(wanted: dict, written: dict) -> bool:
    for key, value in wanted.items():
        if isinstance(value, dict):
            if not isinstance(written.get(key), dict) or not _config_matches(value, written[key]):
                return False
        elif written.get(key) != value:
            return False
    return True


def _run_problem(run: dict | None, config: dict, out_dir: str) -> str | None:
    if run is None:
        return "missing from report.json"
    if run["failed"]:
        return f"failed: {run['failure']}"
    accuracy = run["accuracy"]
    if not isinstance(accuracy, float) or not 0.0 <= accuracy <= 1.0:
        return f"accuracy {accuracy!r} out of [0, 1]"
    traces = run["traces"]
    if len(traces["l_c"]) != config["epochs"] or not _finite_numbers(traces):
        return "traces incomplete or not finite"
    if config["collect_diagnostics"] != (run["diagnostics"] is not None):
        return "diagnostics present when off or absent when on"
    if not _finite_numbers(run["diagnostics"]):
        return "diagnostics not finite"
    stem = f"ho{run['held_out']}_seed{run['seed']}"
    for name in (f"traces_{stem}.csv", f"checkpoint_{stem}.ckpt"):
        if not os.path.isfile(os.path.join(out_dir, name)):
            return f"{name} not written"
    return None


def check_outputs(out_dir: str, config: dict):
    """Per-run accuracies, per-run problems and the harness's failed-run count."""
    expected = expected_runs(config)
    try:
        with open(os.path.join(out_dir, "report.json")) as fh:
            report = json.load(fh)
        if not _config_matches(config, report["config"]):
            raise ValueError("report config differs from the workload config")
        runs = {(r["held_out"], r["seed"]): r for r in report["runs"]}
        problems = {key: _run_problem(runs.get(key), config, out_dir) for key in expected}
        if not os.path.isfile(os.path.join(out_dir, "accuracy.csv")):
            raise ValueError("accuracy.csv not written")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return {}, {key: f"report.json: {exc}" for key in expected}, len(expected)
    accuracies = {key: runs[key]["accuracy"] for key, p in problems.items() if p is None}
    return accuracies, {k: p for k, p in problems.items() if p}, sum(
        bool(r.get("failed")) for r in report["runs"])


def bytes_in(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(directory) for f in files)


def load_reference(workload: str) -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        table = json.load(fh)["accuracies"][workload]
    return {tuple(int(p) for p in key.split("/")): acc for key, acc in table.items()}


def at_reference_speed(timings: dict, speed) -> dict:
    """A repeat's times at the reference speed (see ``speed.py``), with its
    speed factor over the experiment and its peak memory."""
    lost, factor = speed.interval(timings["spawned"], timings["ready"])
    result = {"setup_s": (timings["ready"] - timings["spawned"] - lost) * factor}
    if "started" in timings:
        wall = timings["ended"] - timings["started"]
        lost, factor = speed.interval(timings["started"], timings["ended"])
        result.update(experiment_s=(wall - lost) * factor, cpu_s=timings["cpu_s"] * factor,
                      peak_rss_mb=timings["peak_rss_mb"], speed_factor=factor,
                      wall_s=wall, raw_cpu_s=timings["cpu_s"])
    return result


def check_repeat(out_dir, config, first_accuracies, reference):
    """Accuracies and per-run problems of one finished repeat, and its
    harness-failed count; runs are compared with the first repeat and with
    the reference."""
    accuracies, problems, harness_failed = check_outputs(out_dir, config)
    earlier = first_accuracies or {}
    for key, acc in accuracies.items():
        if key in earlier and earlier[key] != acc:
            problems[key] = f"accuracy {acc} differs from an earlier repeat"
        elif reference is not None and reference.get(key) != acc:
            problems[key] = f"accuracy {acc} != reference {reference.get(key)}"
    return accuracies, problems, harness_failed


def run_setups(root, env, config_path, program_start):
    """Set-up-only repeats; returns their timings and problems."""
    timings, problems = [], []
    for n in range(SETUP_REPEATS):
        began = time.monotonic()
        result, error = run_child(root, env, config_path, "-", "-",
                                  DEADLINE_S - (began - program_start))
        if error:
            problems.append(f"set-up repeat {n + 1}: {error}")
        else:
            timings.append(result)
    return timings, problems


def run_repeats(args, root, env, work, config_path, config, program_start):
    """Repeats until the next would end after ``args.seconds``; returns them
    with the check problems and the first repeat's accuracies."""
    expected = expected_runs(config)
    reference = load_reference(args.workload) if args.seed == DEFAULT_SEED else None
    repeats, problems, first_accuracies = [], [], None
    group = 2 if args.trace else 1
    min_repeats = group if args.trace else MIN_REPEATS
    measure_start, longest = time.monotonic(), 0.0
    while True:
        if len(repeats) % group == 0:
            now = time.monotonic()
            if len(repeats) >= min_repeats and now - measure_start + group * longest > args.seconds:
                break
            if now - program_start + group * longest > DEADLINE_S:
                break
        traced = bool(args.trace) and len(repeats) % 2 == 1
        out_dir = os.path.join(work, f"out{len(repeats)}")
        spans_path = os.path.join(work, f"spans{len(repeats)}.csv") if traced else "-"
        began = time.monotonic()
        timings, error = run_child(root, env, config_path, out_dir, spans_path,
                                   DEADLINE_S - (began - program_start))
        longest = max(longest, time.monotonic() - began)
        repeat = {"traced": traced, "timings": timings, "n_failed": len(expected)}
        repeats.append(repeat)
        if error:
            problems.append(f"repeat {len(repeats)}: {error}")
            continue
        accuracies, run_problems, harness_failed = check_repeat(
            out_dir, config, first_accuracies, reference)
        first_accuracies = first_accuracies or accuracies
        problems += [f"repeat {len(repeats)} run ho={ho} seed={s}: {p}"
                     for (ho, s), p in sorted(run_problems.items())]
        repeat["n_failed"] = len(run_problems)
        if traced:
            repeat["layers"] = {
                **layer_metrics(read_spans(spans_path)),
                "cli.bytes_written": bytes_in(out_dir),
                "harness.runs_failed": harness_failed,
            }
        shutil.rmtree(out_dir, ignore_errors=True)
    return repeats, problems, first_accuracies


def measure(args, root, env, work, config, program_start):
    """Set-up and full repeats beside the calibration loop; returns the set-up
    timings, the repeats, the check problems, the first repeat's accuracies
    and the loop's samples."""
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh)
    speedometer = Speedometer(os.path.join(work, "speed.bin"), DEADLINE_S)
    try:
        # Warm-up: fails fast if hirnet does not import, and caches its
        # bytecode so that no timed set-up pays for compiling it.
        warm = subprocess.run([sys.executable, "-c", "import hirnet.cli"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)
        if warm.returncode != 0:
            raise RuntimeError(f"hirnet does not import: {warm.stderr.strip()[-500:]}")
        setups, problems = ([], []) if args.trace else run_setups(
            root, env, config_path, program_start)
        repeats, repeat_problems, first_accuracies = run_repeats(
            args, root, env, work, config_path, config, program_start)
        speed = speedometer.stop()
    finally:
        speedometer.kill()
    return setups, repeats, problems + repeat_problems, first_accuracies, speed


def main(argv=None) -> int:
    args = parse_args(argv)
    program_start = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hirnet", "__init__.py")):
        print("error: src/hirnet not found; run from the repository root", file=sys.stderr)
        return 2
    env = child_env(root)
    facts = machine_facts(env, *pin_to_one_cpu())

    config = experiment_config(args.workload, args.seed)
    work = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        setups, repeats, problems, first_accuracies, speed = measure(
            args, root, env, work, config, program_start)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    timed = [r for r in repeats if r["timings"] is not None]
    try:
        for r in timed:
            r["measured"] = at_reference_speed(r["timings"], speed)
        setup_values = [at_reference_speed(t, speed)["setup_s"] for t in setups]
    except ValueError as exc:
        print(f"error: calibration: {exc}", file=sys.stderr)
        return 1
    plain = [r["measured"] for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    if not plain or (args.trace and not traced) or not first_accuracies:
        print("error: no repeat finished", *problems, sep="\n", file=sys.stderr)
        return 1
    if args.trace:
        units = metric_units()
        overhead = (statistics.median(r["measured"]["experiment_s"] for r in traced)
                    / statistics.median(m["experiment_s"] for m in plain))
        samples = []
        for r in traced:
            # Span times are wall times; they get the repeat's own scale.
            scale = r["measured"]["experiment_s"] / r["measured"]["wall_s"]
            samples.append({name: value * scale if name.endswith(".self_s") else value
                            for name, value in r["layers"].items()})
            samples[-1]["trace_overhead"] = overhead
        values = {name: [s[name] for s in samples] for name in units}
    else:
        units = END_TO_END_UNITS
        values = {name: [m[name] for m in plain] for name in units if name != "heldout_acc"}
        values["setup_s"] += setup_values
        values["heldout_acc"] = [statistics.fmean(first_accuracies.values())]
    metrics = {name: {"value": statistics.median(values[name]), "unit": unit}
               for name, unit in units.items()}

    n_runs = len(expected_runs(config))
    failed = sum(r["n_failed"] for r in repeats)
    facts["numpy"] = timed[0]["timings"]["numpy"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(repeats)} repeats of {n_runs} runs in {time.monotonic() - program_start:.1f} s")
    print("machine " + json.dumps(facts, sort_keys=True))
    for name in ("wall_s", "raw_cpu_s", "speed_factor"):
        raw = [m[name] for m in plain]
        print(f"  as measured: {name:29s} {statistics.median(raw):>14.6g} "
              f"(median of {len(raw)}, min {min(raw):.6g}, max {max(raw):.6g})")
    for name, metric in metrics.items():
        v = values[name]
        print(f"  {name:42s} {metric['value']:>14.6g} {metric['unit']:8s} "
              f"(median of {len(v)}, min {min(v):.6g}, max {max(v):.6g})")
    for problem in problems[:20]:
        print(f"check failed: {problem}")
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": n_runs * len(repeats), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Microseconds per training step, phase by phase, for one benchmark workload.

    python3 tools/step_profile.py WORKLOAD [--seed N] [--repeats R] [--src DIR]

Builds the ``hirnet run`` config of WORKLOAD from ``perfbench/workloads.py``
and runs its experiment R times (default 5) in this process, pinned to one
CPU and with single-threaded BLAS, importing ``hirnet`` from DIR
(default: this repository's ``src``). It changes no file: it wraps the
functions the stacked training step calls, in their modules, for the length
of the runs, and times each call made inside ``harness.train_runs``:

- ``draw``: ``BatchPlan.draw``, one epoch of batches for one run;
- ``forward``: ``models.forward``, as ``harness`` calls it;
- ``log_softmax``: ``autodiff.log_softmax``;
- ``loss``: ``harness._batch_breakdown``, the loss functions of the step,
  less the penalty;
- ``penalty``: the alignment term inside it: ``hir_kl``,
  ``domain_mmd_penalty`` or ``class_conditional_align``, as ``harness``
  calls them;
- ``backward``: from the loss's return to the call of ``adam_step``, which
  is ``Graph.backward``, ``flatten`` and the finite check;
- ``adam``: ``optim.adam_step``, as ``harness`` calls it;
- ``attribution``: ``harness._epoch_attributions``, once per epoch;
- ``other``: the rest of ``train_runs``: the loop, the traces and the
  stacking of the epoch's batches.

A step is one ``adam_step`` call, which serves every run of a stack. For
each phase it prints the median over the repeats of the phase's time over
the step count, and the phase's share of ``train_runs``. For a workload
that probes its models, it also prints the median milliseconds per
``diagnostics.collect_bundle`` call, which is one call per trained model.
Each wrapped call adds a few tenths of a microsecond. The wrappers see only
this process, so it pins itself to the highest-numbered CPU it may use, as
``perfbench/run.py`` does; a run then trains every stack in this process.
To see which layer a change moved, run it against both checkouts:

    python3 tools/step_profile.py hir-full --src ../parent/src
    python3 tools/step_profile.py hir-full
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import DEFAULT_SEED, WORKLOADS, experiment_config  # noqa: E402

PHASES = ("draw", "forward", "log_softmax", "loss", "penalty", "backward", "adam", "attribution",
          "other")


class StepTimer:
    """Phase totals and the step count of the ``train_runs`` calls it wraps."""

    def __init__(self):
        self.totals = dict.fromkeys(PHASES + ("train_runs",), 0.0)
        self.steps = 0
        self.bundles, self.bundle_s = 0, 0.0  # collect_bundle calls and their time
        self._inside = False
        self._loss_end: float | None = None

    def timed(self, phase: str, fn):
        def wrapper(*args, **kwargs):
            if not self._inside:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            if phase == "adam":
                self.steps += 1
                if self._loss_end is not None:
                    self.totals["backward"] += start - self._loss_end
                    self._loss_end = None
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.totals[phase] += end - start
                if phase == "loss":
                    self._loss_end = end
        return wrapper

    def training(self, fn):
        def wrapper(*args, **kwargs):
            self._inside, start = True, time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.totals["train_runs"] += time.perf_counter() - start
                self._inside = False
        return wrapper

    def probing(self, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.bundle_s += time.perf_counter() - start
                self.bundles += 1
        return wrapper

    def per_step_us(self) -> dict[str, float]:
        """Each phase's microseconds per step, ``other`` and ``train_runs`` included."""
        totals = dict(self.totals)
        totals["loss"] -= totals["penalty"]  # the penalty runs inside the loss
        totals["other"] = totals["train_runs"] - sum(totals[p] for p in PHASES if p != "other")
        return {name: 1e6 * total / max(self.steps, 1) for name, total in totals.items()}


def profile(workload: str, seed: int) -> tuple[dict[str, float], int, float | None]:
    """One run of the workload's experiment: µs per step by phase, the step
    count, and ms per ``collect_bundle`` call (None if it probes nothing)."""
    from hirnet import autodiff, data, diagnostics, harness

    timer = StepTimer()
    patches = [(harness, "train_runs", timer.training(harness.train_runs)),
               (diagnostics, "collect_bundle", timer.probing(diagnostics.collect_bundle))]
    patches += [(owner, name, timer.timed(phase, getattr(owner, name))) for owner, name, phase in (
        (data.BatchPlan, "draw", "draw"), (harness, "forward", "forward"),
        (autodiff, "log_softmax", "log_softmax"), (harness, "_batch_breakdown", "loss"),
        (harness, "hir_kl", "penalty"), (harness, "domain_mmd_penalty", "penalty"),
        (harness, "class_conditional_align", "penalty"),
        (harness, "adam_step", "adam"), (harness, "_epoch_attributions", "attribution"))]
    originals = [(owner, name, vars(owner)[name]) for owner, name, _ in patches]
    for owner, name, wrapper in patches:
        setattr(owner, name, wrapper)
    try:
        harness.run_experiment(harness.ExperimentConfig.from_dict(experiment_config(workload, seed)))
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
    bundle_ms = 1e3 * timer.bundle_s / timer.bundles if timer.bundles else None
    return timer.per_step_us(), timer.steps, bundle_ms


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory that holds the hirnet package to profile")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"  # read when numpy first loads, below
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, os.path.abspath(args.src))

    runs = [profile(args.workload, args.seed) for _ in range(args.repeats)]
    medians = {name: statistics.median(us[name] for us, _, _ in runs) for name in runs[0][0]}
    print(f"{args.workload}, seed {args.seed}: {runs[0][1]} steps per run, "
          f"median of {args.repeats} runs, microseconds per step")
    for name in PHASES + ("train_runs",):
        share = 100.0 * medians[name] / medians["train_runs"]
        print(f"{name:<12} {medians[name]:9.1f} {share:6.1f}%")
    if runs[0][2] is not None:
        print(f"collect_bundle {statistics.median(ms for _, _, ms in runs):.2f} ms per model, "
              f"median of {args.repeats} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Microseconds per training step, phase by phase, for one benchmark workload.

    python3 tools/step_profile.py WORKLOAD [--seed N] [--repeats R] [--src DIR] [--counts]

Builds the ``hirnet run`` config of WORKLOAD from ``perfbench/workloads.py``
and runs its experiment R times (default 5) in this process, pinned to one
CPU and with single-threaded BLAS, importing ``hirnet`` from DIR
(default: this repository's ``src``). It changes no file: it wraps the
functions the stacked training step calls, in their modules, for the length
of the runs, and times each call made inside ``harness.train_runs``:

- ``draw``: ``BatchPlan.draw``, one epoch of batches for one run;
- ``forward``: ``models.forward``, as ``harness`` calls it;
- ``log_softmax``: ``autodiff.log_softmax``;
- ``loss``: ``losses.combined_loss``, as ``harness`` calls it: the step's
  objective, less the penalty;
- ``penalty``: the alignment term inside it: ``hir_kl``,
  ``domain_mmd_penalty`` or ``class_conditional_align``, in ``losses``,
  where the objective's builder looks them up;
- ``backward``: from the loss's return to the call of ``adam_step``, which
  is ``Graph.backward``, ``flatten`` and the finite check;
- ``adam``: ``optim.adam_step``, as ``harness`` calls it;
- ``attribution``: ``harness._epoch_attributions``, once per epoch;
- ``other``: the rest of ``train_runs``: the loop, the traces, the
  stacking of the epoch's batches and each step's copy of its log-probs
  into the epoch's rows, which falls between ``log_softmax`` and the loss.

A step is one ``adam_step`` call, which serves every run of a stack. For
each phase it prints the median over the repeats of the phase's time over
the step count, and the phase's share of ``train_runs``. For a workload
that probes its models, it also prints the median milliseconds per
``diagnostics.collect_bundle`` call, which is one call per trained model.
Last, it writes each run's outputs as ``hirnet run`` does
(``cli._write_run_outputs``, into a temporary directory) and prints the
median milliseconds of each of the four writers it calls, ``report``
(``write_report_json``), ``accuracy``, ``traces`` (every
``write_trace_csv`` call) and ``checkpoints``, and of all four.
Each wrapped call adds a few tenths of a microsecond. The wrappers see only
this process, so it pins itself to the highest-numbered CPU it may use, as
``perfbench/run.py`` does; a run then trains every stack in this process.
To see which layer a change moved, run it against both checkouts:

    python3 tools/step_profile.py hir-full --src ../parent/src
    python3 tools/step_profile.py hir-full

With ``--counts`` it times nothing and wraps nothing but ``train_runs``:
it runs the experiment R times under ``sys.setprofile``, switched on only
inside ``harness.train_runs``, and prints the Python-level calls (``call``
events, a generator's resumptions included) and C-function calls
(``c_call`` events) per step of the last run, a step being one call of
``optim.adam_step``. The counts do not depend on the machine's speed, and
they repeat exactly from a second run in one process on; the first differs
by a few calls for lazy caches. The profiler sees neither ufuncs nor
operators, so numpy's dispatches are more than the C-function calls.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import DEFAULT_SEED, WORKLOADS, experiment_config  # noqa: E402

PHASES = ("draw", "forward", "log_softmax", "loss", "penalty", "backward", "adam", "attribution",
          "other")
# The writers `hirnet run` calls through `harness`, by the name the outputs line gives them.
WRITERS = {"report": "write_report_json", "accuracy": "write_accuracy_csv",
           "traces": "write_trace_csv", "checkpoints": "write_checkpoints"}


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


def write_outputs(report) -> dict[str, float]:
    """Milliseconds of each writer, by its name in WRITERS, as ``hirnet run``
    writes ``report``'s outputs into a temporary directory."""
    from hirnet import cli, harness

    ms = dict.fromkeys(WRITERS, 0.0)

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ms[name] += 1e3 * (time.perf_counter() - start)
        return wrapper

    originals = {name: getattr(harness, writer) for name, writer in WRITERS.items()}
    for name, writer in WRITERS.items():
        setattr(harness, writer, timed(name, originals[name]))
    try:
        with tempfile.TemporaryDirectory() as out:
            cli._write_run_outputs(report, out)
    finally:
        for name, writer in WRITERS.items():
            setattr(harness, writer, originals[name])
    return ms


def profile(workload: str, seed: int) -> tuple[dict[str, float], int, float | None,
                                                dict[str, float]]:
    """One run of the workload's experiment: µs per step by phase, the step
    count, ms per ``collect_bundle`` call (None if it probes nothing), and
    the ms of each writer of its outputs (:func:`write_outputs`)."""
    from hirnet import autodiff, data, diagnostics, harness, losses

    timer = StepTimer()
    patches = [(harness, "train_runs", timer.training(harness.train_runs)),
               (diagnostics, "collect_bundle", timer.probing(diagnostics.collect_bundle))]
    patches += [(owner, name, timer.timed(phase, getattr(owner, name))) for owner, name, phase in (
        (data.BatchPlan, "draw", "draw"), (harness, "forward", "forward"),
        (autodiff, "log_softmax", "log_softmax"), (harness, "combined_loss", "loss"),
        (losses, "hir_kl", "penalty"), (losses, "domain_mmd_penalty", "penalty"),
        (losses, "class_conditional_align", "penalty"),
        (harness, "adam_step", "adam"), (harness, "_epoch_attributions", "attribution"))]
    originals = [(owner, name, vars(owner)[name]) for owner, name, _ in patches]
    for owner, name, wrapper in patches:
        setattr(owner, name, wrapper)
    try:
        report = harness.run_experiment(
            harness.ExperimentConfig.from_dict(experiment_config(workload, seed)))
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
    bundle_ms = 1e3 * timer.bundle_s / timer.bundles if timer.bundles else None
    return timer.per_step_us(), timer.steps, bundle_ms, write_outputs(report)


class CallCounter:
    """A ``sys.setprofile`` function that counts Python and C-function calls,
    and the calls of the code object ``step``."""

    def __init__(self, step):
        self.step, self.python, self.c_function, self.steps = step, 0, 0, 0

    def __call__(self, frame, event, arg):
        if event == "call":
            self.python += 1
            self.steps += frame.f_code is self.step
        elif event == "c_call":
            self.c_function += 1


def count_calls(workload: str, seed: int) -> tuple[int, float, float]:
    """One run of the workload's experiment with the profiler on inside
    ``harness.train_runs``: its step count, and its Python and C-function
    calls per step."""
    from hirnet import harness, optim

    counter, train_runs = CallCounter(optim.adam_step.__code__), harness.train_runs

    def counted(*args, **kwargs):
        previous = sys.getprofile()
        sys.setprofile(counter)
        try:
            return train_runs(*args, **kwargs)
        finally:
            sys.setprofile(previous)

    config = harness.ExperimentConfig.from_dict(experiment_config(workload, seed))
    harness.train_runs = counted
    try:
        harness.run_experiment(config)
    finally:
        harness.train_runs = train_runs
    steps = max(counter.steps, 1)
    return counter.steps, counter.python / steps, counter.c_function / steps


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory that holds the hirnet package to profile")
    parser.add_argument("--counts", action="store_true",
                        help="print calls per step, not times")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"  # read when numpy first loads, below
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, os.path.abspath(args.src))

    if args.counts:
        steps, python, c_function = [count_calls(args.workload, args.seed)
                                     for _ in range(args.repeats)][-1]
        print(f"{args.workload}, seed {args.seed}: {steps} steps per run, calls per step "
              f"of the last of {args.repeats} runs\npython     {python:9.2f}\n"
              f"c_function {c_function:9.2f}")
        return 0
    runs = [profile(args.workload, args.seed) for _ in range(args.repeats)]
    medians = {name: statistics.median(us[name] for us, _, _, _ in runs) for name in runs[0][0]}
    print(f"{args.workload}, seed {args.seed}: {runs[0][1]} steps per run, "
          f"median of {args.repeats} runs, microseconds per step")
    for name in PHASES + ("train_runs",):
        share = 100.0 * medians[name] / medians["train_runs"]
        print(f"{name:<12} {medians[name]:9.1f} {share:6.1f}%")
    if runs[0][2] is not None:
        print(f"collect_bundle {statistics.median(ms for _, _, ms, _ in runs):.2f} ms per model, "
              f"median of {args.repeats} runs")
    writers = {name: statistics.median(out[name] for *_, out in runs) for name in WRITERS}
    total = statistics.median(sum(out.values()) for *_, out in runs)
    print("outputs " + ", ".join(f"{name} {ms:.2f}" for name, ms in writers.items())
          + f", all four {total:.2f} ms per hirnet run, median of {args.repeats} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span recorder for traced benchmark runs.

``Recorder.install`` wraps public ``hirnet`` functions from outside the
package. ``harness``, ``diagnostics``, ``losses`` and ``cli`` bind some of
these names with ``from ... import``, so every module attribute that holds
the original is replaced, not only the defining one. Each call (each
``next()`` for the batch generator) becomes one span: name, parent span,
start, end and an optional value. Spans stay in memory until ``write``;
``uninstall`` puts every original back.

``layer_metrics`` turns spans into per-layer metrics: ``<span>.calls`` and
``<span>.self_s``, the span's duration minus that of its direct children.
"""

from __future__ import annotations

import csv
import sys
import time

# (module, qualified name); the span is named "<module>.<qualified name>".
TARGETS = (
    ("data", "stratified_batches"),
    ("data", "SuiteSpec.build"),
    ("models", "forward"),
    ("autodiff", "log_softmax"),
    ("autodiff", "Graph.backward"),
    ("losses", "cross_entropy"),
    ("losses", "combined_loss"),
    ("losses", "hir_kl"),
    ("losses", "pairwise_kl"),
    ("losses", "domain_mmd_penalty"),
    ("losses", "mmd_rbf"),
    ("optim", "adam_step"),
    ("harness", "train"),
    ("harness", "evaluate"),
    ("harness", "run_single"),
    ("diagnostics", "collect_bundle"),
    ("diagnostics", "domain_alignment_matrix"),
    ("diagnostics", "prediction_agreement"),
    ("diagnostics", "paired_vs_unpaired_kl"),
    ("diagnostics", "posterior_kl_matrix"),
)
GENERATORS = {"data.stratified_batches"}

# The harness writers that `hirnet run` calls, timed together as one span.
OUTPUT_SPAN = "cli.outputs"
OUTPUT_WRITERS = ("write_report_json", "write_accuracy_csv", "write_trace_csv",
                  "write_checkpoints")

SPAN_NAMES = tuple(f"{module}.{name}" for module, name in TARGETS) + (OUTPUT_SPAN,)


def _graph_size(args, kwargs) -> float:
    return float(len(args[0]))


def _per_class(args, kwargs) -> float:
    per_class = kwargs["per_class"] if "per_class" in kwargs else (
        len(args) > 2 and args[2])
    return 1.0 if per_class else 0.0


# Span values: tape length at backward; 1 for a per-class alignment matrix.
SPAN_VALUES = {
    "autodiff.Graph.backward": _graph_size,
    "diagnostics.domain_alignment_matrix": _per_class,
}


class Recorder:
    """Wraps the target functions and records one span per call."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end, value]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str, value: float) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, value])
        self._stack.append(len(self.spans) - 1)

    def _close(self) -> None:
        self.spans[self._stack.pop()][3] = time.perf_counter()

    def _wrap(self, fn, name: str):
        value_of = SPAN_VALUES.get(name)
        if name in GENERATORS:
            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    self._open(name, 0.0)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close()
                    yield item
            return generator

        def wrapper(*args, **kwargs):
            self._open(name, value_of(args, kwargs) if value_of else 0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return wrapper

    def _patch_everywhere(self, original, wrapper) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "hirnet" or n.startswith("hirnet.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        import hirnet.cli  # noqa: F401  (loads every module that binds a target)

        for module_name, qualname in TARGETS:
            module = sys.modules[f"hirnet.{module_name}"]
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = vars(owner)[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
            else:
                original = getattr(module, qualname)
                self._patch_everywhere(original, self._wrap(original, name))
        harness = sys.modules["hirnet.harness"]
        for writer in OUTPUT_WRITERS:
            original = getattr(harness, writer)
            self._patch_everywhere(original, self._wrap(original, OUTPUT_SPAN))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("name", "parent", "start", "end", "value"))
            out.writerows(self.spans)


def read_spans(path: str) -> list[tuple[str, int, float, float, float]]:
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        return [(name, int(parent), float(start), float(end), float(value))
                for name, parent, start, end, value in rows]


def layer_metrics(spans) -> dict[str, float]:
    """Calls and self time per span name, plus tape size and wasted probe time."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end, value in spans:
        if parent >= 0:
            child_time[parent] += end - start
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = 0
        metrics[f"{name}.self_s"] = 0.0
    for (name, parent, start, end, value), inner in zip(spans, child_time):
        metrics[f"{name}.calls"] += 1
        metrics[f"{name}.self_s"] += end - start - inner

    tape = [value for name, _, _, _, value in spans if name == "autodiff.Graph.backward"]
    metrics["autodiff.nodes_per_step"] = sum(tape) / len(tape) if tape else 0.0
    probe_s = sum(end - start for name, _, start, end, _ in spans
                  if name == "diagnostics.collect_bundle")
    discarded_s = sum(end - start for name, _, start, end, value in spans
                      if name == "diagnostics.domain_alignment_matrix" and value)
    metrics["diagnostics.discarded_share"] = discarded_s / probe_s if probe_s else 0.0
    return metrics


def metric_units() -> dict[str, str]:
    """Unit of every per-layer metric the benchmark reports, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "autodiff.nodes_per_step": "count",
        "diagnostics.discarded_share": "fraction",
        "cli.bytes_written": "bytes",
        "harness.runs_failed": "count",
        "trace_overhead": "ratio",
    })
    return units

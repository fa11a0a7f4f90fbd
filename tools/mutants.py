#!/usr/bin/env python3
"""Named mutants of hirnet, each with the tests that must catch it.

    python3 tools/mutants.py [NAME ...]

Each mutant is a file under ``src/``, an old text that occurs exactly once
in it, the new text that replaces it, and the tests that must fail once it
is replaced. For each mutant (all of them, or those named) the tool copies
``src/``, ``tests/``, ``tools/``, ``perfbench/workloads.py`` (which the
digest tool imports) and ``pyproject.toml`` (pytest's settings) into a
temporary directory, applies the mutant there and runs its tests with
pytest, with that copy's ``src`` on the path. A mutant is caught when pytest
reports a failing test (exit code 1); any other outcome, a collection error
included, is a survival. The repository itself is never changed.

It prints ``caught`` or ``SURVIVED`` for each mutant, and ``NOT FOUND ONCE``
for one whose old text does not occur exactly once in its file, and exits 1
if any mutant survived or was not found once. ``tests/test_mutants.py``
checks the second condition in Tier-1, so that a change that rewrites a
mutated line must update the list here; run this tool in full after
changing a test.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "tools", os.path.join("perfbench", "workloads.py"), "pyproject.toml")


class Mutant(NamedTuple):
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = {
    # A bias row's gradient read off the first row, not summed over the rows.
    "bias-grad-first-row": Mutant(
        "src/hirnet/autodiff.py",
        "up.sum(axis=-2, keepdims=True) if bias else up",
        "up[..., :1, :] if bias else up",
        ("tests/test_autodiff.py::test_every_op_passes_grad_check[add_bias_row]",)),
    # The group mean of the CCSA spread summed in reverse row order.
    "spread-reversed-mean": Mutant(
        "src/hirnet/losses.py",
        "rows -= rows.mean(axis=-2, keepdims=True)",
        "rows -= rows[..., ::-1, :].mean(axis=-2, keepdims=True)",
        ("tests/test_losses.py::test_segment_kernels_give_the_per_group_bits",)),
    # HIR's earlier sums as a difference of prefix sums over the whole order.
    "pair-sums-prefix-difference": Mutant(
        "src/hirnet/losses.py",
        "np.cumsum(rows[0, ..., start:end - 1, :], axis=-2, out=out[0, ..., start + 1:end, :])",
        "out[0, ..., start + 1:end, :] = (np.cumsum(rows[0, ..., :end - 1, :], axis=-2)"
        "[..., start:, :] - rows[0, ..., :start, :].sum(axis=-2, keepdims=True))",
        ("tests/test_losses.py::test_segment_kernels_give_the_per_group_bits",)),
    # HIR's later sums run forward, like the earlier ones.
    "pair-sums-forward-both-ways": Mutant(
        "src/hirnet/losses.py",
        "np.cumsum(rows[1, ..., end - 1:start:-1, :], axis=-2,\n"
        "                  out=out[1, ..., start:end - 1, :][..., ::-1, :])",
        "np.cumsum(rows[1, ..., start + 1:end, :], axis=-2, out=out[1, ..., start:end - 1, :])",
        ("tests/test_losses.py::test_pair_sums_give_the_per_segment_loops_bytes",)),
    # The combined loss scaled by the reciprocal of alpha's reciprocal.
    "combined-over-reciprocal": Mutant(
        "src/hirnet/losses.py",
        "classification.data + term.data * alpha",
        "classification.data + term.data / (1 / alpha)",
        ("tests/test_harness.py::test_combined_node_gives_the_scale_and_add_bits",)),
    # An AGG objective that adds a term, here CCSA's, at a nonzero alpha.
    "agg-builds-a-term": Mutant(
        "src/hirnet/losses.py",
        'if kind == "agg" or alpha == 0:',
        "if alpha == 0:",
        ("tests/test_harness.py::TestTrain::test_agg_hir_trace_is_zero",)),
    # An objective at alpha 0 that adds 0 times its term, a second node, to cross-entropy.
    "alpha-zero-builds-a-term": Mutant(
        "src/hirnet/losses.py",
        'if kind == "agg" or alpha == 0:',
        'if kind == "agg":',
        ("tests/test_losses.py::TestCombinedLoss::test_alpha_zero_is_classification_tensor",)),
    # The MMD penalty's domain count by a plain np.unique, which imports numpy.ma.
    "domain-count-plain-unique": Mutant(
        "src/hirnet/losses.py",
        'if len(labels.segments("domains").spans) < 2:',
        "if np.unique(labels.domains).size < 2:",
        ("tests/test_cli.py::TestRunCommand::test_never_imports_numpy_ma",)),
    # Adam's update with the bias correction applied after the learning rate.
    "adam-undivided-first-moment": Mutant(
        "src/hirnet/optim.py",
        "p -= state.lr * (m / correct1) / (np.sqrt(v / correct2) + state.eps)",
        "p -= state.lr * m / correct1 / (np.sqrt(v / correct2) + state.eps)",
        ("tests/test_optim.py::test_stacked_step_has_the_textbook_bits",)),
    # The step's finite test reads the gradient only, in adam_step.
    "finite-test-drops-loss": Mutant(
        "src/hirnet/harness.py",
        "if not frozen and np.isfinite(loss).all():",
        "if not frozen:",
        ("tests/test_harness.py::test_loss_and_gradient_failures_at_one_step_fail_as_alone",)),
    # A failed run found by its loss only.
    "finite-mask-drops-gradient": Mutant(
        "src/hirnet/harness.py",
        "ok = loss_ok & np.isfinite(grad).all(axis=(-2, -1))",
        "ok = loss_ok",
        ("tests/test_harness.py::test_gradient_failure_names_the_first_non_finite_array",)),
    # Every failure named as a gradient's.
    "loss-message-dropped": Mutant(
        "src/hirnet/harness.py",
        'f"non-finite loss at epoch {epoch}" if not loss_ok[row] else\n'
        "                    ",
        "",
        ("tests/test_harness.py::TestStackedRuns::"
         "test_diverging_run_fails_as_alone_and_the_others_go_on",)),
    # A frozen row that keeps its first moment, and so goes on stepping.
    "frozen-row-keeps-first-moment": Mutant(
        "src/hirnet/harness.py",
        "grad[~alive] = opt.m[0][~alive] = 0.0",
        "grad[~alive] = 0.0",
        ("tests/test_harness.py::test_a_failed_run_is_frozen_in_place",)),
    # Per-class blocks that read the first rows of the whole domain's norms.
    "class-blocks-read-domain-norms": Mutant(
        "src/hirnet/diagnostics.py",
        "(z_d[k], n_d[k]) for z_d, n_d, k in",
        "(z_d[k], n_d[:len(z_d[k])]) for z_d, n_d, k in",
        ("tests/test_diagnostics.py::test_alignment_matrix_gives_the_per_block_bits",)),
    # A block's two sides' norms swapped.
    "block-norms-swapped": Mutant(
        "src/hirnet/diagnostics.py",
        "row_norms[a], row_norms[b])",
        "row_norms[b], row_norms[a])",
        ("tests/test_diagnostics.py::test_alignment_matrix_gives_the_per_block_bits",)),
    # The count below the bracket that also takes the values equal to its lower end.
    "median-below-takes-lower-end": Mutant(
        "src/hirnet/diagnostics.py",
        "below += np.count_nonzero(lt := values < lo)",
        "below += np.count_nonzero(lt := values <= lo)",
        ("tests/test_diagnostics.py::test_selected_median_is_the_median_of_every_pair",)),
    # The gathered values indexed by the middle rank of all pairs, not of those inside.
    "median-rank-not-offset": Mutant(
        "src/hirnet/diagnostics.py",
        "k = rank - below",
        "k = rank",
        ("tests/test_diagnostics.py::test_selected_median_is_the_median_of_every_pair",)),
    # A prior-shift matrix whose rows need not sum to 1 (case 17 is the row-sum case).
    "prior-shift-rows-unsummed": Mutant(
        "src/hirnet/data.py",
        "if np.any(np.abs(np.sum(self.prior_shift, axis=1) - 1.0) > 1e-9):",
        "if False:",
        ("tests/test_data.py::TestManifest::test_mistyped_values_rejected[overrides17]",)),
    # A prior-shift matrix with more rows than angles.
    "prior-shift-extra-rows": Mutant(
        "src/hirnet/data.py",
        "len(rows) != len(self.angles)",
        "len(rows) < len(self.angles)",
        ("tests/test_data.py::TestManifest::"
         "test_mis_shaped_prior_shift_rejected_when_constructed[three-rows-two-angles]",)),
    # Prior-shift entries above 1 left to the row sums (case 21 overflows them).
    "prior-shift-entries-unbounded": Mutant(
        "src/hirnet/data.py",
        "if np.max(self.prior_shift) > 1.0:",
        "if False:",
        ("tests/test_data.py::TestManifest::test_mistyped_values_rejected[overrides21]",)),
    # An unpickled plan that keeps the layout as numpy unpickles it: writeable, its caches full.
    "unpickled-plan-keeps-stale-labels": Mutant(
        "src/hirnet/data.py",
        "\n        self.batch_labels = BatchLabels(self.batch_labels.labels, "
        "self.batch_labels.domains)",
        "",
        ("tests/test_data.py::test_an_unpickled_plan_keeps_its_read_only_layout",)),
    # One worker per usable CPU, whatever the grid's size.
    "workers-ignore-grid-size": Mutant(
        "src/hirnet/harness.py",
        "min(cpus or 1, n_rows // RUNS_PER_WORKER)",
        "cpus or 1",
        ("tests/test_harness.py::TestRunExperiment::test_worker_count_follows_the_grid",)),
    # Tensors of any shape up to a stack: scalars and vectors pass unreshaped.
    "tensor-ndim-unchecked": Mutant(
        "src/hirnet/autodiff.py",
        "if not 2 <= a.ndim <= 3:",
        "if not a.ndim <= 3:",
        ("tests/test_autodiff.py::test_tensors_are_matrices_or_stacks_of_them",)),
    # The JSON fast path takes a list holding NaN or an infinity: repr writes "nan", not "NaN".
    "json-fast-path-non-finite": Mutant(
        "src/hirnet/errors.py",
        "if not (floats and abs(sum(map(sum, rows))) <= sys.float_info.max):",
        "if not floats:",
        ("tests/test_writers.py::test_write_json_gives_the_bytes_of_json_dumps",)),
    # The JSON fast path takes a list of floats and bools, which float.__repr__ cannot write.
    "json-fast-path-bools": Mutant(
        "src/hirnet/errors.py",
        "floats = set(map(type, itertools.chain(*rows))) == {float}",
        "floats = set(map(type, itertools.chain(*rows))) <= {float, bool}",
        ("tests/test_writers.py::test_write_json_gives_the_bytes_of_json_dumps",)),
    # A run whose step losses are finite but whose epoch mean of one is not reported as trained.
    "epoch-mean-check-dropped": Mutant(
        "src/hirnet/harness.py",
        '("l_c epoch mean", l_c), ("l_h epoch mean", l_h),',
        "",
        ("tests/test_cli.py::TestRunCommand::"
         "test_an_epoch_mean_that_overflows_fails_its_run_and_no_other",)),
    # A run whose probes report an infinity keeps them in report.json.
    "probe-finite-check-dropped": Mutant(
        "src/hirnet/harness.py",
        'bundle = {"error": f"non-finite {bad[0]}"} if bad else bundle',
        "bundle = bundle",
        ("tests/test_cli.py::TestRunCommand::test_probes_that_overflow_report_an_error_not_values",)),
    # No base_id common to every domain read as no agreement, not as no probe.
    "agreement-unavailable-as-zero": Mutant(
        "src/hirnet/diagnostics.py",
        "if common.size == 0:\n        return None",
        "if common.size == 0:\n        return 0.0",
        ("tests/test_diagnostics.py::TestPredictionAgreement::test_no_common_base_ids",)),
    # The common base_ids by a plain np.unique, which imports numpy.ma.
    "common-ids-plain-unique": Mutant(
        "src/hirnet/data.py",
        "ds.base_id[ds.y == cls], return_index=True)[0]",
        "ds.base_id[ds.y == cls])",
        ("tests/test_cli.py::TestRunCommand::test_never_imports_numpy_ma",)),
    # A run whose epoch attribution overflows, its other values finite, reported as trained.
    "attribution-finite-check-dropped": Mutant(
        "src/hirnet/harness.py",
        '("per_domain_l_c", dom_ce), ("per_domain_kl", dom_kl)',
        "",
        ("tests/test_cli.py::TestRunCommand::"
         "test_an_attribution_that_overflows_fails_its_run_and_no_other",)),
    # JSON written with NaN and Infinity, which strict JSON readers reject.
    "json-writes-non-finite": Mutant(
        "src/hirnet/errors.py",
        "return json.dumps(value, allow_nan=False)",
        "return json.dumps(value)",
        ("tests/test_writers.py::test_write_json_gives_the_bytes_of_json_dumps",)),
}


def occurrences(mutant: Mutant) -> int:
    """How often the mutant's old text occurs in its file in this repository."""
    with open(os.path.join(ROOT, mutant.file)) as fh:
        return fh.read().count(mutant.old)


def run(name: str, mutant: Mutant) -> str:
    """``caught``, ``SURVIVED`` or ``NOT FOUND ONCE`` for one mutant."""
    if occurrences(mutant) != 1:
        return "NOT FOUND ONCE"
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as copy:
        for path in COPIED:
            source, target = os.path.join(ROOT, path), os.path.join(copy, path)
            if os.path.isdir(source):
                shutil.copytree(source, target, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                os.makedirs(os.path.dirname(target), exist_ok=True)
                shutil.copy(source, target)
        target = os.path.join(copy, mutant.file)
        with open(target) as fh:
            text = fh.read()
        with open(target, "w") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": os.path.join(copy, "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               *mutant.tests], cwd=copy, env=env, capture_output=True, text=True)
    return "caught" if proc.returncode == 1 else "SURVIVED"


def main() -> int:
    names = sys.argv[1:] or list(MUTANTS)
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}; known: {', '.join(MUTANTS)}")
        return 2
    outcomes = []
    for name in names:
        outcomes.append(run(name, MUTANTS[name]))
        print(f"{outcomes[-1]:<15} {name}", flush=True)
    return 0 if all(outcome == "caught" for outcome in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())

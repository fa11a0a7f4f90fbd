"""Command-line entry points.

``hirnet run`` executes the experiment described by a JSON config and
writes report.json, accuracy.csv, per-run trace CSVs and final-model
checkpoints. ``hirnet sweep`` repeats the run over a list of alpha values
and emits one combined accuracy CSV. ``hirnet diag`` probes a saved
checkpoint against a suite manifest and writes the diagnostics files.

Exit codes: 0 success, 2 configuration error, 3 every run failed. Exit 2
covers every malformed input: a config or suite manifest that is missing,
not valid JSON, of the wrong shape or with a bad value, and a bad flag or
checkpoint; it prints ``config error: ...`` instead of a traceback.

A run's grid, every (held-out domain, seed) pair, picks its own worker
count: one process per CPU the run may use, but at most one per
``harness.RUNS_PER_WORKER`` runs, so a small grid trains in this process.
There is no option for it; ``taskset`` limits the CPUs, and so the count.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import diagnostics as diag
from . import harness
from .data import SuiteSpec
from .errors import ConfigError, ContractError, check_int, check_real
from .losses import rbf_gamma
from .models import load_checkpoint


def _check_out(path: str) -> None:
    """Raise ConfigError, before any training or probing, unless ``path`` is a directory or
    can be made one (its nearest existing ancestor is a writable directory); it is made only
    to write to."""
    probe = os.path.abspath(path)
    while not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if not (os.path.isdir(probe) and os.access(probe, os.W_OK | os.X_OK)):
        raise ConfigError(f"--out {path} cannot be a directory: {probe} is not a writable one")


def _write_run_outputs(report: harness.RunReport, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    harness.write_report_json(report, os.path.join(out_dir, "report.json"))
    harness.write_accuracy_csv([report], os.path.join(out_dir, "accuracy.csv"))
    for run in report.runs:
        if run.traces is not None:
            harness.write_trace_csv(
                run, os.path.join(out_dir, f"traces_ho{run.held_out}_seed{run.seed}.csv"))
    harness.write_checkpoints(report, out_dir)


def _cmd_run(args) -> int:
    config = harness.ExperimentConfig.read(args.config)
    _check_out(args.out)
    report = harness.run_experiment(config)
    _write_run_outputs(report, args.out)
    print(f"wrote {args.out}/report.json ({len(report.runs)} runs, "
          f"{sum(r.failed for r in report.runs)} failed)")
    return 3 if harness.all_runs_failed(report) else 0


def _cmd_sweep(args) -> int:
    config = harness.ExperimentConfig.read(args.config)
    try:
        alphas = [float(tok) for tok in args.alpha.split(",") if tok]
    except ValueError as exc:
        raise ConfigError(f"bad --alpha list: {args.alpha!r}") from exc
    _check_out(args.out)
    reports = harness.sweep_alpha(config, alphas)
    os.makedirs(args.out, exist_ok=True)
    for alpha, report in reports.items():
        harness.write_report_json(report, os.path.join(args.out, f"report_alpha_{alpha:g}.json"))
    harness.write_accuracy_csv(list(reports.values()), os.path.join(args.out, "accuracy.csv"))
    print(f"wrote {args.out}/accuracy.csv ({len(alphas)} alpha values)")
    return 3 if all(harness.all_runs_failed(r) for r in reports.values()) else 0


def _cmd_diag(args) -> int:
    check_int("--seed", args.seed, 0)
    check_int("--per-class-per-domain", args.per_class_per_domain, 1)
    if args.bandwidth is not None:  # finite, and a bandwidth the probes take
        rbf_gamma(check_real("--bandwidth", args.bandwidth), 1, "--bandwidth")
    try:
        params = load_checkpoint(args.checkpoint)
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint {args.checkpoint}: {exc.strerror}") from exc
    except ContractError as exc:
        raise ConfigError(str(exc)) from exc
    suite = SuiteSpec.read(args.suite).build()
    expected = params.layer_sizes[0], params.layer_sizes[-1]
    if (suite.feature_dim, suite.class_count) != expected:
        raise ConfigError(f"checkpoint expects (input dim, classes) {expected}, "
                          f"suite provides {(suite.feature_dim, suite.class_count)}")
    _check_out(args.out)
    # Finite weights can still overflow on the suite; no output is then written.
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            bundle = diag.collect_bundle(params, suite,
                                         per_class_per_domain=args.per_class_per_domain,
                                         seed=args.seed, bandwidth=args.bandwidth)
    except FloatingPointError as exc:
        raise ConfigError(f"checkpoint gives non-finite values on the suite: {exc}") from exc
    os.makedirs(args.out, exist_ok=True)
    diag.write_domain_mmd_csv(bundle.domain_mmd, suite.domain_params,
                              os.path.join(args.out, "domain_mmd.csv"))
    diag.write_posterior_kl_csv(bundle, os.path.join(args.out, "posterior_kl.csv"))
    diag.write_diag_summary(bundle, os.path.join(args.out, "diag_summary.json"),
                            extra={"probe_size": diag.PROBE_SIZE, "seed": args.seed})
    print(f"wrote {args.out}/domain_mmd.csv, posterior_kl.csv, diag_summary.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hirnet",
                                     description="Domain-generalization experiment engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("--config", required=True, help="JSON experiment config")
    p_run.add_argument("--out", default="hirnet_out", help="output directory")
    p_run.set_defaults(handler=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run the config once per alpha value")
    p_sweep.add_argument("--config", required=True, help="JSON experiment config")
    p_sweep.add_argument("--alpha", required=True, help="comma-separated alpha values")
    p_sweep.add_argument("--out", default="hirnet_out", help="output directory")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_diag = sub.add_parser("diag", help="probe a checkpoint against a suite manifest")
    p_diag.add_argument("--checkpoint", required=True, help="model checkpoint path")
    p_diag.add_argument("--suite", required=True, help="suite manifest JSON")
    p_diag.add_argument("--out", default=".", help="output directory")
    p_diag.add_argument("--bandwidth", type=float, default=None,
                        help="RBF bandwidth (default: median heuristic)")
    p_diag.add_argument("--per-class-per-domain", type=int, default=1)
    p_diag.add_argument("--seed", type=int, default=0)
    p_diag.set_defaults(handler=_cmd_diag)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

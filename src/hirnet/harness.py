"""Hold-one-domain-out experiment runner.

For each held-out domain and each seed, the runner rebuilds the suite,
drops the held-out domain from training entirely, trains the configured
objective, evaluates accuracy on the held-out domain, and aggregates
mean and standard deviation across seeds. Runs that diverge (non-finite
loss) are marked failed and the remaining runs continue.

Loss kinds: "agg" is cross-entropy only; "hir" adds the pairwise
posterior-alignment term weighted by alpha; "mmd" and "ccsa" add the
corresponding feature-alignment penalty on the latent z instead.

A training step is one forward pass, one tape backward and one Adam step on
a batch of the epoch that ``stratified_batches`` plans up front. The
per-domain attribution traces are computed once per epoch, from the
epoch's stacked detached log-probs, never pair by pair inside a step.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import diagnostics as diag
from .data import DomainDataset, DomainSuite, SuiteSpec, stratified_batches
from .errors import (
    ConfigError,
    ContractError,
    JsonConfig,
    check_bool,
    check_int,
    check_ints,
    check_real,
)
from .losses import (
    LossBreakdown,
    class_conditional_align,
    combined_loss,
    cross_entropy,
    domain_mmd_penalty,
)
from .models import MlpSpec, ModelParams, forward, init_params, predict, save_checkpoint
from .optim import adam_step, init_adam

LOSS_KINDS = ("agg", "hir", "mmd", "ccsa")

# Published protocol defaults for the rotated ordered-domain experiments.
ROTATED_LR = 1e-3
ROTATED_ALPHA = 1e-3


class TrainingDiverged(RuntimeError):
    """Loss or gradients became non-finite during training."""


@dataclass(frozen=True)
class OptimizerConfig(JsonConfig):
    lr: float = ROTATED_LR
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        for name in ("lr", "beta1", "beta2", "eps"):
            object.__setattr__(self, name, check_real(f"optimizer {name}", getattr(self, name)))


@dataclass(frozen=True)
class ExperimentConfig(JsonConfig):
    """Everything a run depends on; serializes 1:1 to the JSON config file."""

    suite: SuiteSpec = field(default_factory=SuiteSpec)
    hidden_sizes: tuple[int, ...] = (32,)
    loss_kind: str = "hir"
    alpha: float = ROTATED_ALPHA
    normalize_hir: bool = False
    cross_domain_only: bool = False
    paired: bool = False
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    epochs: int = 300
    per_class_per_domain: int = 5
    seeds: tuple[int, ...] = (0,)
    held_out: int | str = "all"
    collect_diagnostics: bool = True

    def __post_init__(self):
        checked = {
            "hidden_sizes": check_ints("hidden_sizes", self.hidden_sizes, 1),
            "seeds": check_ints("seeds", self.seeds, 0),
            "alpha": check_real("alpha", self.alpha, 0.0),
            "epochs": check_int("epochs", self.epochs, 1),
            "per_class_per_domain": check_int("per_class_per_domain",
                                              self.per_class_per_domain, 1),
            **{name: check_bool(name, getattr(self, name)) for name in (
                "normalize_hir", "cross_domain_only", "paired", "collect_diagnostics")},
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        if self.loss_kind not in LOSS_KINDS:
            raise ConfigError(f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}")
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        n_domains = len(self.suite.angles)
        if self.held_out != "all":
            if isinstance(self.held_out, bool) or not isinstance(self.held_out, int):
                raise ConfigError('held_out must be a domain index or "all"')
            if not 0 <= self.held_out < n_domains:
                raise ConfigError(f"held_out index {self.held_out} out of range [0, {n_domains})")

    def held_out_indices(self) -> list[int]:
        if self.held_out == "all":
            return list(range(len(self.suite.angles)))
        return [self.held_out]


@dataclass
class TrainTraces:
    """Per-epoch loss traces plus per-training-domain attributions.

    ``per_domain_kl[e][d]`` is the mean posterior KL over same-class pairs
    involving training domain d during epoch e, the quantity that separates
    paired from unpaired runs. ``per_domain_l_c`` is the mean cross-entropy
    restricted to each domain's batch rows. Both are batch means averaged
    over the epoch, computed in one pass at the end of it; a domain with no
    rows, or no pairs, gets 0.
    """

    domain_params: list[float]
    l_c: list[float] = field(default_factory=list)
    l_h: list[float] = field(default_factory=list)
    per_domain_l_c: list[list[float]] = field(default_factory=list)
    per_domain_kl: list[list[float]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "domain_params": [float(a) for a in self.domain_params],
            "l_c": self.l_c,
            "l_h": self.l_h,
            "per_domain_l_c": self.per_domain_l_c,
            "per_domain_kl": self.per_domain_kl,
        }


def _batch_breakdown(config: ExperimentConfig, z: ad.Tensor, log_probs: ad.Tensor,
                     labels) -> LossBreakdown:
    if config.loss_kind == "agg":
        return combined_loss(log_probs, labels, 0.0)
    if config.loss_kind == "hir":
        return combined_loss(log_probs, labels, config.alpha,
                             cross_domain_only=config.cross_domain_only,
                             normalize_hir=config.normalize_hir)
    classification = cross_entropy(log_probs, labels)
    if config.alpha == 0:
        return LossBreakdown(classification, None, classification, 0.0, 0)
    if config.loss_kind == "mmd":
        penalty = domain_mmd_penalty(z, labels.domains)
    else:  # ccsa
        penalty = class_conditional_align(z, labels.labels, labels.domains)
    combined = classification + penalty * config.alpha
    return LossBreakdown(classification, penalty, combined, config.alpha, 0)


def _epoch_attributions(log_probs: np.ndarray, labels, n_domains: int):
    """Per-domain mean cross-entropy and mean same-class posterior KL over an
    epoch, from its detached (batches, n, m) log-probs and shared layout.

    KL(p_i || p_j) = h_i - p_i . log p_j with h_i = p_i . log p_i, so the
    epoch's sums K_ij over batches come from one matmul over the stacked
    (batch, class) axis. With M the same-class i < j mask and U the
    row-to-domain indicator, U^T (M o K) U sums them by the domains of both
    ends; a domain's pairs are its row plus its column less the pairs with
    both ends in it. Since every batch has the same layout, the epoch mean
    of the batch means is the epoch's sum divided by the per-batch count
    times the number of batches. A domain with no rows or no pairs gets 0.
    """
    y, doms = labels.labels, labels.domains
    n_batches, n, _ = log_probs.shape
    member = (doms[:, None] == np.arange(n_domains)).astype(np.float64)
    true_lp = log_probs[:, np.arange(n), y].sum(axis=0)
    ce = _safe_mean(-(true_lp @ member), member.sum(axis=0) * n_batches)
    p_rows = np.exp(log_probs).transpose(1, 0, 2).reshape(n, -1)
    lp_rows = log_probs.transpose(1, 0, 2).reshape(n, -1)
    kl = (p_rows * lp_rows).sum(axis=1)[:, None] - p_rows @ lp_rows.T
    same_class = np.triu(y[:, None] == y[None, :], k=1).astype(np.float64)

    def touching(pair_values):
        by_domains = member.T @ pair_values @ member
        return by_domains.sum(axis=1) + by_domains.sum(axis=0) - np.diag(by_domains)

    kl_d = _safe_mean(touching(same_class * kl), touching(same_class) * n_batches)
    return ce, kl_d


def _safe_mean(total: np.ndarray, count: np.ndarray) -> np.ndarray:
    return np.where(count > 0, total / np.maximum(count, 1), 0.0)


def train(params: ModelParams, train_suite: DomainSuite, config: ExperimentConfig,
          batch_seed: int = 0) -> tuple[ModelParams, TrainTraces]:
    """Train ``params`` in place over the configured epoch budget.

    Raises :class:`TrainingDiverged` on a non-finite loss or gradient.
    """
    if len(train_suite) == 0:
        raise ConfigError("training suite is empty")
    if len(train_suite) < 2:
        warnings.warn("single training domain: cross-domain alignment terms are vacuous")
    arrays = params.arrays()
    opt = init_adam(arrays, lr=config.optimizer.lr, beta1=config.optimizer.beta1,
                    beta2=config.optimizer.beta2, eps=config.optimizer.eps)
    traces = TrainTraces(domain_params=list(train_suite.domain_params))
    n_domains = len(train_suite)
    for epoch in range(config.epochs):
        epoch_lc, epoch_lh, epoch_lp = [], [], []
        for x, labels in stratified_batches(train_suite, config.per_class_per_domain,
                                            paired=config.paired, seed=[batch_seed, epoch]):
            graph = ad.Graph()
            z, logits = forward(params, x, graph)
            log_probs = ad.log_softmax(logits)
            breakdown = _batch_breakdown(config, z, log_probs, labels)
            loss_value = breakdown.combined.item()
            if not np.isfinite(loss_value):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
            grads = graph.backward(breakdown.combined)
            try:
                adam_step(opt, arrays, [grads[i] for i in graph.param_ids])
            except ContractError as exc:
                raise TrainingDiverged(str(exc)) from exc
            epoch_lc.append(breakdown.classification_value)
            epoch_lh.append(breakdown.hir_value)
            epoch_lp.append(log_probs.data)
        if not epoch_lp:
            raise ConfigError("sampler produced no batches; check cell sizes")
        traces.l_c.append(float(np.mean(epoch_lc)))
        traces.l_h.append(float(np.mean(epoch_lh)))
        # Every batch of the epoch has the last batch's label layout.
        dom_ce, dom_kl = _epoch_attributions(np.stack(epoch_lp), labels, n_domains)
        traces.per_domain_l_c.append(dom_ce.tolist())
        traces.per_domain_kl.append(dom_kl.tolist())
    return params, traces


def evaluate(params: ModelParams, dataset: DomainDataset) -> float:
    """Fraction of samples whose argmax posterior matches the label."""
    if len(dataset) == 0:
        raise ContractError("cannot evaluate on an empty domain")
    return float(np.mean(predict(params, dataset.x) == dataset.y))


@dataclass
class RunOutcome:
    held_out: int
    held_out_param: float
    seed: int
    accuracy: float | None
    failed: bool
    failure: str | None
    traces: TrainTraces | None
    diagnostics: dict | None
    final_params: ModelParams | None
    wall_clock_s: float

    def to_dict(self) -> dict:
        return {
            "held_out": self.held_out,
            "held_out_param": self.held_out_param,
            "seed": self.seed,
            "accuracy": self.accuracy,
            "failed": self.failed,
            "failure": self.failure,
            "traces": self.traces.to_dict() if self.traces else None,
            "diagnostics": self.diagnostics,
            "wall_clock_s": self.wall_clock_s,
        }


@dataclass
class RunReport:
    config: dict
    runs: list[RunOutcome]
    aggregates: dict
    wall_clock_s: float

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "runs": [r.to_dict() for r in self.runs],
            "aggregates": self.aggregates,
            "wall_clock_s": self.wall_clock_s,
        }


def derive_seed(*parts: int) -> int:
    """Stable child seed from a tuple of integers."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def run_single(config: ExperimentConfig, held_out: int, seed: int) -> RunOutcome:
    """One (held-out domain, seed) training run; never raises on divergence."""
    start = time.perf_counter()
    suite = config.suite.build()
    train_suite = suite.drop(held_out)
    spec = MlpSpec((suite.feature_dim, *config.hidden_sizes, suite.class_count),
                   seed=derive_seed(seed, held_out, 0))
    params = init_params(spec)
    try:
        params, traces = train(params, train_suite, config,
                               batch_seed=derive_seed(seed, held_out, 1))
        accuracy = evaluate(params, suite.domains[held_out])
        bundle = None
        if config.collect_diagnostics:
            bundle = diag.bundle_to_jsonable(diag.collect_bundle(
                params, suite, per_class_per_domain=1, seed=derive_seed(seed, held_out, 2)))
        return RunOutcome(held_out, suite.domain_params[held_out], seed, accuracy,
                          False, None, traces, bundle, params,
                          time.perf_counter() - start)
    except TrainingDiverged as exc:
        return RunOutcome(held_out, suite.domain_params[held_out], seed, None,
                          True, str(exc), None, None, None,
                          time.perf_counter() - start)


def _run_single_job(args) -> RunOutcome:
    return run_single(*args)


def run_experiment(config: ExperimentConfig) -> RunReport:
    """All (held-out, seed) runs plus per-domain aggregate accuracy.

    The HIRNET_WORKERS environment variable bounds parallel runs
    (default 1); results are identical regardless of worker count.
    """
    start = time.perf_counter()
    jobs = [(config, ho, seed) for ho in config.held_out_indices() for seed in config.seeds]
    workers = max(1, int(os.environ.get("HIRNET_WORKERS", "1")))
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_single_job, jobs))
    else:
        outcomes = [run_single(*job) for job in jobs]
    aggregates = {}
    for ho in config.held_out_indices():
        accs = [r.accuracy for r in outcomes if r.held_out == ho and not r.failed]
        entry = {
            "param": float(config.suite.angles[ho]),
            "n_runs": len([r for r in outcomes if r.held_out == ho]),
            "n_failed": len([r for r in outcomes if r.held_out == ho and r.failed]),
        }
        if accs:
            entry["mean_accuracy"] = float(np.mean(accs))
            entry["sd_accuracy"] = float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0
        else:
            entry["mean_accuracy"] = None
            entry["sd_accuracy"] = None
        aggregates[str(ho)] = entry
    return RunReport(config.to_dict(), outcomes, aggregates, time.perf_counter() - start)


def all_runs_failed(report: RunReport) -> bool:
    return bool(report.runs) and all(r.failed for r in report.runs)


def sweep_alpha(config: ExperimentConfig, alphas: list[float]) -> dict[float, RunReport]:
    """Re-run the experiment once per alpha value."""
    if config.loss_kind == "agg":
        raise ConfigError("alpha sweep needs a loss kind that uses alpha")
    return {a: run_experiment(replace(config, alpha=a)) for a in alphas}


def write_report_json(report: RunReport, path) -> None:
    import json

    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_accuracy_csv(reports: list[RunReport], path) -> None:
    """Flat per-run rows: held_out,seed,loss_kind,alpha,accuracy."""
    with open(path, "w") as fh:
        fh.write("held_out,seed,loss_kind,alpha,accuracy\n")
        for report in reports:
            kind = report.config["loss_kind"]
            alpha = report.config["alpha"]
            for run in report.runs:
                acc = "" if run.accuracy is None else f"{run.accuracy:.17g}"
                fh.write(f"{run.held_out_param:g},{run.seed},{kind},{alpha:g},{acc}\n")


def write_trace_csv(outcome: RunOutcome, path) -> None:
    """Rows ``epoch,domain,l_c,l_h``: one "total" row per epoch for the
    optimized losses, plus one row per training domain carrying that
    domain's cross-entropy and posterior-KL attribution."""
    traces = outcome.traces
    if traces is None:
        raise ContractError("failed run has no traces")
    with open(path, "w") as fh:
        fh.write("epoch,domain,l_c,l_h\n")
        for epoch, (lc, lh) in enumerate(zip(traces.l_c, traces.l_h)):
            fh.write(f"{epoch},total,{lc:.17g},{lh:.17g}\n")
            for d, angle in enumerate(traces.domain_params):
                fh.write(f"{epoch},{angle:g},{traces.per_domain_l_c[epoch][d]:.17g},"
                         f"{traces.per_domain_kl[epoch][d]:.17g}\n")


def write_checkpoints(report: RunReport, out_dir) -> list[str]:
    paths = []
    for run in report.runs:
        if run.final_params is None:
            continue
        path = os.path.join(out_dir, f"checkpoint_ho{run.held_out}_seed{run.seed}.ckpt")
        save_checkpoint(run.final_params, path)
        paths.append(path)
    return paths

"""Hold-one-domain-out experiment runner.

The runner builds the suite once. For each held-out domain and seed it
trains the configured objective on the suite less that domain, evaluates
accuracy on the held-out domain, and aggregates mean and standard deviation
across seeds. Runs that diverge (non-finite loss or gradient) are marked
failed and the remaining runs continue.

Loss kinds: "agg" is cross-entropy only; "hir" adds the pairwise
posterior-alignment term weighted by alpha; "mmd" and "ccsa" add the
corresponding feature-alignment penalty on the latent z instead.

Runs train in groups, one per batch layout: the labels, domains and batch
count that ``batch_layout`` gives for a run's training suite. Held-out
domains of a rotated suite all share one layout, so every run of such a
config is in one group; a prior-shift suite can give several. A group's
parameters are stacked on a leading run axis, so one training step serves
every run in it. It is one forward pass, one tape backward and one Adam
step, on each run's own batch of the epoch that ``stratified_batches``
plans up front from that run's suite and seed. Every run gets the same bits
as it would training alone. HIRNET_WORKERS splits a group into contiguous
chunks, one stack per worker process. The per-domain attribution traces are
computed once per epoch, from the epoch's stacked detached log-probs, never
pair by pair inside a step.
"""

from __future__ import annotations

import itertools
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import diagnostics as diag
from .data import DomainDataset, DomainSuite, SuiteSpec, batch_layout, stratified_batches
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
from .optim import NonFiniteGradient, adam_step, init_adam

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


def _epoch_attributions(log_probs: np.ndarray, y: np.ndarray, member: np.ndarray,
                        same_class: np.ndarray):
    """Per-domain mean cross-entropy and mean same-class posterior KL over an
    epoch, from its detached (batches, n, m) log-probs and the shared
    layout's labels ``y``, row-to-domain indicator U and same-class i < j
    mask M.

    KL(p_i || p_j) = h_i - p_i . log p_j with h_i = p_i . log p_i, so the
    epoch's sums K_ij over batches come from one matmul over the stacked
    (batch, class) axis. With M the same-class i < j mask and U the
    row-to-domain indicator, U^T (M o K) U sums them by the domains of both
    ends; a domain's pairs are its row plus its column less the pairs with
    both ends in it. Since every batch has the same layout, the epoch mean
    of the batch means is the epoch's sum divided by the per-batch count
    times the number of batches. A domain with no rows or no pairs gets 0.
    """
    n_batches, n, _ = log_probs.shape
    true_lp = log_probs[:, np.arange(n), y].sum(axis=0)
    ce = _safe_mean(-(true_lp @ member), member.sum(axis=0) * n_batches)
    p_rows = np.exp(log_probs).transpose(1, 0, 2).reshape(n, -1)
    lp_rows = log_probs.transpose(1, 0, 2).reshape(n, -1)
    kl = (p_rows * lp_rows).sum(axis=1)[:, None] - p_rows @ lp_rows.T

    def touching(pair_values):
        by_domains = member.T @ pair_values @ member
        return by_domains.sum(axis=1) + by_domains.sum(axis=0) - np.diag(by_domains)

    kl_d = _safe_mean(touching(same_class * kl), touching(same_class) * n_batches)
    return ce, kl_d


def _safe_mean(total: np.ndarray, count: np.ndarray) -> np.ndarray:
    return np.where(count > 0, total / np.maximum(count, 1), 0.0)


def _write_back(stack: ModelParams, row: int, params: ModelParams) -> None:
    for dst, src in zip(params.arrays(), stack.arrays()):
        dst[...] = src[row]


def train_runs(runs: list[ModelParams], train_suites: list[DomainSuite], config: ExperimentConfig,
               batch_seeds) -> list[TrainTraces | TrainingDiverged]:
    """Train every run in ``runs`` together, each in place: run r on
    ``train_suites[r]``, drawing its batches from ``batch_seeds[r]``.

    The runs' parameters are stacked on a leading run axis, so each step is
    one forward pass, one tape backward and one Adam step for all of them.
    That needs one batch layout: every suite must give the labels, domains
    and batch count of the first (:func:`~hirnet.data.batch_layout`), which
    is checked every epoch. Every run gets the same bits as it would alone.
    A run whose loss or gradient turns non-finite leaves the stack with the
    :class:`TrainingDiverged` it would raise alone, its parameters at their
    last finite values; the others go on. Returns each run's traces, or its
    failure.
    """
    if any(len(suite) == 0 for suite in train_suites):
        raise ConfigError("training suite is empty")
    n_domains = len(train_suites[0])
    if any(len(suite) != n_domains for suite in train_suites):
        raise ContractError("runs of one stack must train on the same number of domains")
    if n_domains < 2:
        warnings.warn("single training domain: cross-domain alignment terms are vacuous")
    results: list[TrainTraces | TrainingDiverged] = [
        TrainTraces(domain_params=list(suite.domain_params)) for suite in train_suites]
    alive = list(range(len(runs)))  # the run on each row of the stack
    stack = ModelParams([np.stack(ws) for ws in zip(*(p.weights for p in runs))],
                        [np.stack(bs) for bs in zip(*(p.biases for p in runs))])
    opt = init_adam(stack.arrays(), lr=config.optimizer.lr, beta1=config.optimizer.beta1,
                    beta2=config.optimizer.beta2, eps=config.optimizer.eps)

    def drop(messages: dict[int, str]) -> list[int]:
        """Fail the runs on the given rows and take them off every stack;
        returns the rows that stay."""
        nonlocal alive, stack, xs
        for row, message in messages.items():
            results[alive[row]] = TrainingDiverged(message)
            _write_back(stack, row, runs[alive[row]])
        keep = [row for row in range(len(alive)) if row not in messages]
        alive = [alive[row] for row in keep]
        stack = ModelParams([w[keep] for w in stack.weights], [b[keep] for b in stack.biases])
        for values in (opt.m, opt.v, epoch_lc, epoch_lh, epoch_lp):
            values[:] = [v[keep] for v in values]
        xs = xs[:, keep]
        return keep

    labels = None  # the stack's layout, from its first run's first epoch
    for epoch in range(config.epochs):
        planned = [list(stratified_batches(train_suites[run], config.per_class_per_domain,
                                           paired=config.paired, seed=[batch_seeds[run], epoch]))
                   for run in alive]
        if labels is None:
            if not planned[0]:
                raise ConfigError("sampler produced no batches; check cell sizes")
            labels, n_batches = planned[0][0][1], len(planned[0])
            y = labels.labels  # the layout's attribution masks, U and M
            masks = ((labels.domains[:, None] == np.arange(n_domains)).astype(np.float64),
                     np.triu(y[:, None] == y[None, :], k=1).astype(np.float64))
        for batches in planned:
            if len(batches) != n_batches or not (
                    np.array_equal(batches[0][1].labels, labels.labels)
                    and np.array_equal(batches[0][1].domains, labels.domains)):
                raise ContractError("runs of one stack must share one batch layout")
        xs = np.stack([np.stack([x for x, _ in batches]) for batches in planned], axis=1)
        del planned
        epoch_lc, epoch_lh, epoch_lp = [], [], []
        # A diverging run overflows before the checks below catch it.
        with np.errstate(over="ignore", invalid="ignore"):
            for b in range(n_batches):
                graph = ad.Graph()
                z, logits = forward(stack, xs[b], graph)
                log_probs = ad.log_softmax(logits)
                breakdown = _batch_breakdown(config, z, log_probs, labels)
                epoch_lc.append(breakdown.classification.data)
                if breakdown.hir is not None:
                    epoch_lh.append(breakdown.hir.data)
                epoch_lp.append(log_probs.data)
                finite = np.isfinite(breakdown.combined.data.reshape(-1))
                keep = None
                if not finite.all():
                    keep = drop({int(row): f"non-finite loss at epoch {epoch}"
                                 for row in np.flatnonzero(~finite)})
                    if not alive:
                        return results
                grads = graph.backward(breakdown.combined)
                grads = [grads[i] if keep is None else grads[i][keep] for i in graph.param_ids]
                try:
                    adam_step(opt, stack.arrays(), grads)
                except NonFiniteGradient as exc:
                    keep = drop(exc.messages)
                    if not alive:
                        return results
                    adam_step(opt, stack.arrays(), [g[keep] for g in grads])
        # Each run's step values lie along one contiguous row, reduced in
        # the order its own list of steps would be.
        l_c = np.concatenate(epoch_lc, axis=-1).mean(axis=-1)
        l_h = np.concatenate(epoch_lh, axis=-1).mean(axis=-1) if epoch_lh else np.zeros_like(l_c)
        log_probs_by_run = np.stack(epoch_lp, axis=1)
        for row, run in enumerate(alive):
            traces = results[run]
            traces.l_c.append(float(l_c[row, 0]))
            traces.l_h.append(float(l_h[row, 0]))
            dom_ce, dom_kl = _epoch_attributions(log_probs_by_run[row], y, *masks)
            traces.per_domain_l_c.append(dom_ce.tolist())
            traces.per_domain_kl.append(dom_kl.tolist())
        # Free the epoch's copies before the next epoch plans its own.
        del xs, epoch_lp, log_probs_by_run
    for row, run in enumerate(alive):
        _write_back(stack, row, runs[run])
    return results


def train(params: ModelParams, train_suite: DomainSuite, config: ExperimentConfig,
          batch_seed: int = 0) -> tuple[ModelParams, TrainTraces]:
    """Train ``params`` in place over the configured epoch budget: the
    one-run case of :func:`train_runs`.

    Raises :class:`TrainingDiverged` on a non-finite loss or gradient.
    """
    [result] = train_runs([params], [train_suite], config, [batch_seed])
    if isinstance(result, TrainingDiverged):
        raise result
    return params, result


def evaluate(params: ModelParams, dataset: DomainDataset) -> float:
    """Fraction of samples whose argmax posterior matches the label."""
    if len(dataset) == 0:
        raise ContractError("cannot evaluate on an empty domain")
    return float(np.mean(predict(params, dataset.x) == dataset.y))


@dataclass
class RunOutcome:
    """One (held-out, seed) run. ``wall_clock_s`` is its share of its
    stack's training time plus its own evaluation and diagnostics, as
    :func:`run_single` sets it."""

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


def run_single(config: ExperimentConfig, suite: DomainSuite, held_out: int, trained,
               train_s: float) -> list[RunOutcome]:
    """The outcomes of one held-out domain's runs, one per ``(seed, params,
    result)`` of ``trained`` and in its order: each run's seed, its trained
    parameters and its :func:`train_runs` result. A run that did not
    diverge is evaluated on the held-out domain of ``suite`` and, if the
    config asks, probed. Never raises on divergence.

    An outcome's ``wall_clock_s`` is ``train_s``, its share of its stack's
    training time, plus its own evaluation and diagnostics.
    """
    held_out_param = suite.domain_params[held_out]
    outcomes = []
    for seed, params, result in trained:
        start = time.perf_counter()
        if isinstance(result, TrainingDiverged):
            outcomes.append(RunOutcome(held_out, held_out_param, seed, None, True, str(result),
                                       None, None, None, train_s))
            continue
        accuracy = evaluate(params, suite.domains[held_out])
        bundle = None
        if config.collect_diagnostics:
            bundle = diag.bundle_to_jsonable(diag.collect_bundle(
                params, suite, per_class_per_domain=1, seed=derive_seed(seed, held_out, 2)))
        outcomes.append(RunOutcome(held_out, held_out_param, seed, accuracy, False, None, result,
                                   bundle, params, train_s + time.perf_counter() - start))
    return outcomes


def _run_rows(config: ExperimentConfig, suite: DomainSuite, rows) -> list[RunOutcome]:
    """Train the (held-out, seed) ``rows``, which share one batch layout, as
    one stack, then build each held-out domain's outcomes with
    :func:`run_single`; one outcome per row, in order."""
    start = time.perf_counter()
    layer_sizes = (suite.feature_dim, *config.hidden_sizes, suite.class_count)
    runs = [init_params(MlpSpec(layer_sizes, seed=derive_seed(seed, ho, 0))) for ho, seed in rows]
    results = train_runs(runs, [suite.drop(ho) for ho, _ in rows], config,
                         [derive_seed(seed, ho, 1) for ho, seed in rows])
    train_s = (time.perf_counter() - start) / len(rows)
    outcomes = []
    for ho, cell in itertools.groupby(zip(rows, runs, results), key=lambda item: item[0][0]):
        outcomes += run_single(config, suite, ho,
                               [(seed, params, result) for (_, seed), params, result in cell],
                               train_s)
    return outcomes


def _worker_count() -> int:
    """The HIRNET_WORKERS environment variable, 1 when unset."""
    raw = os.environ.get("HIRNET_WORKERS", "1")
    try:
        raw = int(raw)
    except ValueError:
        pass  # check_int names the bad value
    return check_int("HIRNET_WORKERS", raw, 1)


def run_experiment(config: ExperimentConfig) -> RunReport:
    """All (held-out, seed) runs plus per-domain aggregate accuracy.

    The suite is built once. Every run's training suite is the suite less
    its held-out domain, and runs whose training suites give one batch
    layout (:func:`~hirnet.data.batch_layout`: labels, domains and batch
    count) form a group; on a rotated suite that is every run. Each group
    trains as one stack, then :func:`run_single` evaluates each held-out
    domain's runs. A run's ``wall_clock_s`` is its share of its stack's
    training time plus its own evaluation and diagnostics.

    The HIRNET_WORKERS environment variable (default 1) splits each group's
    rows into that many contiguous chunks, one job and one stack each, and
    runs the jobs in a pool of at most that many processes. Results are
    identical whatever the worker count.
    """
    start = time.perf_counter()
    workers = _worker_count()
    suite = config.suite.build()
    rows = [(ho, seed) for ho in config.held_out_indices() for seed in config.seeds]
    groups: dict[tuple, list[int]] = {}  # layout key: indices into rows
    n_seeds = len(config.seeds)
    for h, ho in enumerate(config.held_out_indices()):
        labels, domains, n_batches = batch_layout(suite.drop(ho), config.per_class_per_domain,
                                                  config.paired)
        groups.setdefault((labels.tobytes(), domains.tobytes(), n_batches), []).extend(
            range(h * n_seeds, (h + 1) * n_seeds))
    chunks = [chunk.tolist() for members in groups.values()
              for chunk in np.array_split(members, min(workers, len(members)))]
    jobs = [[rows[i] for i in chunk] for chunk in chunks]
    processes = min(workers, len(jobs))
    if processes > 1:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            done = list(pool.map(_run_rows, [config] * len(jobs), [suite] * len(jobs), jobs))
    else:
        done = [_run_rows(config, suite, job) for job in jobs]
    by_row = dict(zip(itertools.chain(*chunks), itertools.chain(*done)))
    outcomes = [by_row[i] for i in range(len(rows))]
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

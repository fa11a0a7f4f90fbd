"""Hold-one-domain-out experiment runner.

The runner builds the suite once. For each held-out domain and seed it
trains the configured objective on the suite less that domain, evaluates
accuracy on the held-out domain, and aggregates mean and standard deviation
across seeds. Runs that diverge (non-finite loss or gradient) are marked
failed and frozen in place in their stack, and the remaining runs continue.

Loss kinds: "agg" is cross-entropy only; "hir" adds the pairwise
posterior-alignment term weighted by alpha; "mmd" and "ccsa" add the
corresponding feature-alignment penalty on the latent z instead.

Each training suite's ``BatchPlan`` is built once per experiment; it holds
the suite's batch layout (labels, domains, batch count and domain count), the
``BatchLabels`` the losses read, and the gather map its epochs are drawn
through. Runs train in groups, one per layout. Held-out domains of a rotated
suite all share one layout, so every run of such a config is in one group; a
prior-shift suite can give several. A group's parameters are one (runs, 1, P)
buffer, ``ModelParams.stack``, so one training step serves every run in it:
one forward pass, one tape backward, and one Adam pass and finite check over
the buffer, each run on its own batch of the epoch its plan draws from its
seed. Every run gets the same bits as it would training alone.
A grid of at least 2 * ``RUNS_PER_WORKER`` runs, on a process that may use
more than one CPU, splits its groups into contiguous chunks of at least that
many runs, one stack per worker process; a smaller grid trains in this
process. The per-domain attribution traces are computed once per epoch, in
one pass over the stack's detached (runs, batches, n, m) log-probs.
"""

from __future__ import annotations

import itertools
import os
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import diagnostics as diag
# stratified_batches stays bound here for perfbench's test_uninstall_restores_every_original.
from .data import BatchPlan, DomainDataset, DomainSuite, SuiteSpec, stratified_batches  # noqa: F401
from .errors import (
    ConfigError,
    ContractError,
    JsonConfig,
    JsonRecord,
    check_bool,
    check_int,
    check_ints,
    check_real,
    write_json,
)
from .losses import (LossBreakdown, class_conditional_align, cross_entropy, domain_mmd_penalty,
                     hir_kl)
from .models import (MlpSpec, ModelParams, flatten, forward, init_params, predict,
                     save_checkpoint)
from .optim import NonFiniteGradient, adam_step, init_adam

LOSS_KINDS = ("agg", "hir", "mmd", "ccsa")

# A second worker process pays for itself from about this many runs on: on a
# 2-CPU machine, 18- and 30-run grids train faster on two processes than on
# one, and 6- and 12-run grids do not.
RUNS_PER_WORKER = 9

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
        for name, bounds in (("lr", "> 0"), ("beta1", "in [0, 1)"), ("beta2", "in [0, 1)"),
                             ("eps", "> 0")):
            value = check_real(f"optimizer {name}", getattr(self, name))
            if not (0 < value if bounds == "> 0" else 0 <= value < 1):
                raise ConfigError(f"optimizer {name} must be {bounds}, got {value}")
            object.__setattr__(self, name, value)


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
        if not self.seeds or len(set(self.seeds)) < len(self.seeds):
            raise ConfigError(f"seeds must be non-empty and distinct, got {list(self.seeds)}")
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
class TrainTraces(JsonRecord):
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


def _batch_breakdown(config: ExperimentConfig, z: ad.Tensor, log_probs: ad.Tensor,
                     labels) -> LossBreakdown:
    classification = cross_entropy(log_probs, labels)
    if config.loss_kind == "agg" or config.alpha == 0:
        penalty = None
    elif config.loss_kind == "hir":
        penalty = hir_kl(log_probs, labels, config.cross_domain_only, config.normalize_hir)[0]
    else:
        penalty = (domain_mmd_penalty if config.loss_kind == "mmd" else class_conditional_align)(
            z, labels)
    return LossBreakdown.combine(classification, penalty, config.alpha)


def _epoch_attributions(log_probs: np.ndarray, y: np.ndarray, member: np.ndarray,
                        same_class: np.ndarray, work: dict):
    """Per-domain mean cross-entropy and mean same-class posterior KL over an
    epoch, one (runs, domains) array each, from the stack's detached
    (runs, batches, n, m) log-probs and the shared layout's labels ``y``,
    row-to-domain indicator U and same-class i < j mask M; each run's row
    has the bits of a call on that run alone. ``work`` keeps the pass's
    large arrays from one call to the next of one shape: fresh ones each
    epoch make malloc hand their pages back and fault them in again.

    KL(p_i || p_j) = h_i - p_i . log p_j with h_i = p_i . log p_i, so a
    run's sums K_ij over the epoch come from one matmul over its stacked
    (batch, class) axis. U^T (M o K) U sums them by the domains of both
    ends; a domain's pairs are its row plus its column less the pairs with
    both ends in it. Since every batch has the same layout, the epoch mean
    of the batch means is the epoch's sum divided by the per-batch count
    times the number of batches. A domain with no rows or no pairs gets 0.
    """
    runs, n_batches, n, m = log_probs.shape
    # A run's CE sums are one (n,) @ (n, D) product on a fresh sum, as alone: a
    # stacked product, or one on a row of a stack, can round differently.
    true_lp = log_probs.reshape(runs, n_batches, -1)[..., np.arange(n) * m + y]
    ce_sums = [run.sum(axis=0) @ member for run in true_lp]
    ce = _safe_mean(-np.stack(ce_sums), member.sum(axis=0) * n_batches)
    if work.get("shape") != log_probs.shape:
        work.update(shape=log_probs.shape, kl=np.empty((runs, n, n)),
                    rows=np.empty((2, runs, n, n_batches * m)))
    lp_rows, p_rows = work["rows"]
    # Each row's batches end to end, copied as one item per row and batch: a
    # copy of the transposed (..., m) view moves m values at a time, far slower.
    cell = np.dtype((np.void, 8 * m))
    np.copyto(lp_rows.view(cell), log_probs.view(cell)[..., 0].transpose(0, 2, 1))
    kl = np.matmul(np.exp(lp_rows, out=p_rows), lp_rows.swapaxes(-1, -2), out=work["kl"])
    lp_rows *= p_rows
    np.subtract(lp_rows.sum(axis=-1)[..., None], kl, out=kl)
    kl *= same_class

    def touching(pair_values):
        by_domains = member.T @ pair_values @ member
        return by_domains.sum(axis=-1) + by_domains.sum(axis=-2) - by_domains.diagonal(0, -2, -1)

    return ce, _safe_mean(touching(kl), touching(same_class) * n_batches)


def _safe_mean(total: np.ndarray, count: np.ndarray) -> np.ndarray:
    return np.where(count > 0, total / np.maximum(count, 1), 0.0)


# A run overflows before its step's check fails it, and after it is frozen: nothing on it warns.
@np.errstate(over="ignore", invalid="ignore")
def train_runs(runs: list[ModelParams], plans: list[BatchPlan], config: ExperimentConfig,
               batch_seeds) -> list[TrainTraces | TrainingDiverged]:
    """Train every run in ``runs`` together, each in place: run r on the
    :class:`~hirnet.data.BatchPlan` ``plans[r]`` of its training suite.

    The runs' parameters are stacked into one buffer, so each step is one
    forward pass, one tape backward and one Adam pass for all of them.
    That needs one batch layout: the call checks once that every plan has
    the first's ``layout_key``, and every step reads the first plan's
    ``batch_labels``. Each epoch, run r's plan draws from
    ``[batch_seeds[r], epoch]``. Every run gets the same bits as it would alone.
    Each step tests the loss buffer, and ``adam_step`` the gradient buffer, for
    finiteness once; row by row only if one fails or a run has. Row r of
    the stack is run r throughout. A run whose loss or gradient turns
    non-finite gets the :class:`TrainingDiverged` it would raise alone and is
    frozen in place, its row at its last finite values (a zero gradient and
    first moment make its Adam step 0.0); the others go on. Returns each
    run's traces, or its failure.
    """
    n_domains = len(plans[0].domain_params)
    if n_domains < 2:
        warnings.warn("single training domain: cross-domain alignment terms are vacuous")
    n_batches = plans[0].n_batches
    if n_batches == 0:
        raise ConfigError("sampler produced no batches; check cell sizes")
    if any(plan.layout_key != plans[0].layout_key for plan in plans):
        raise ContractError("runs of one stack must share one batch layout")
    labels = plans[0].batch_labels
    y = labels.labels  # the layout's attribution masks, U and M
    masks = ((labels.domains[:, None] == np.arange(n_domains)).astype(np.float64),
             np.triu(y[:, None] == y[None, :], k=1).astype(np.float64))
    results: list[TrainTraces | TrainingDiverged] = [
        TrainTraces(domain_params=list(plan.domain_params)) for plan in plans]
    alive, frozen = np.ones(len(runs), dtype=bool), False  # frozen: any row not alive
    work: dict = {}  # the epoch attribution's arrays, reused
    stack = ModelParams.stack(runs)
    opt = init_adam([stack.flat], lr=config.optimizer.lr, beta1=config.optimizer.beta1,
                    beta2=config.optimizer.beta2, eps=config.optimizer.eps)

    for epoch in range(config.epochs):
        xs = np.stack([plan.draw([seed, epoch]) for plan, seed in zip(plans, batch_seeds)], axis=1)
        epoch_lc, epoch_lh, epoch_lp = [], [], []
        for b in range(n_batches):
            graph = ad.Graph()
            z, logits = forward(stack, xs[b], graph)
            log_probs = ad.log_softmax(logits)
            breakdown = _batch_breakdown(config, z, log_probs, labels)
            epoch_lc.append(breakdown.classification.data)
            if breakdown.hir is not None:
                epoch_lh.append(breakdown.hir.data)
            epoch_lp.append(log_probs.data)
            grads = graph.backward(breakdown.combined)
            grad = flatten([grads[i] for i in graph.param_ids])
            loss = breakdown.combined.data
            if not frozen and np.isfinite(loss).all():
                try:
                    adam_step(opt, [stack.flat], [grad])
                    continue
                except NonFiniteGradient:  # raised before adam_step changes anything
                    pass
            # Fail each newly bad run as alone; its frozen row steps by 0.0.
            loss_ok = np.isfinite(loss.reshape(-1))
            ok = loss_ok & np.isfinite(grad).all(axis=(-2, -1))
            for row in np.flatnonzero(alive & ~ok):
                results[row] = TrainingDiverged(
                    f"non-finite loss at epoch {epoch}" if not loss_ok[row] else
                    "non-finite gradient at parameter index "
                    f"{stack.array_index(np.argmin(np.isfinite(grad[row, 0])))}")
            alive &= ok
            frozen = True
            grad[~alive] = opt.m[0][~alive] = 0.0
            adam_step(opt, [stack.flat], [grad])
        # Each run's step values lie along one contiguous row, reduced in
        # the order its own list of steps would be.
        l_c = np.concatenate(epoch_lc, axis=-1).mean(axis=-1)
        l_h = np.concatenate(epoch_lh, axis=-1).mean(axis=-1) if epoch_lh else np.zeros_like(l_c)
        dom_ce, dom_kl = _epoch_attributions(np.stack(epoch_lp, axis=1), y, *masks, work)
        for row in np.flatnonzero(alive):
            traces = results[row]
            traces.l_c.append(float(l_c[row, 0]))
            traces.l_h.append(float(l_h[row, 0]))
            traces.per_domain_l_c.append(dom_ce[row].tolist())
            traces.per_domain_kl.append(dom_kl[row].tolist())
        if not alive.any():
            break
        # Free the epoch's copies before the next epoch draws its own.
        del xs, epoch_lp
    for row, params in enumerate(runs):
        stack.write_row(row, params)
    return results


def train(params: ModelParams, train_suite: DomainSuite, config: ExperimentConfig,
          batch_seed: int = 0) -> tuple[ModelParams, TrainTraces]:
    """Train ``params`` in place over the configured epoch budget: the
    one-run case of :func:`train_runs`, on the one plan built here.

    Raises :class:`TrainingDiverged` on a non-finite loss or gradient.
    """
    if len(train_suite) == 0:
        raise ConfigError("training suite is empty")
    plan = BatchPlan(train_suite, config.per_class_per_domain, config.paired)
    [result] = train_runs([params], [plan], config, [batch_seed])
    if isinstance(result, TrainingDiverged):
        raise result
    return params, result


def evaluate(params: ModelParams, dataset: DomainDataset) -> float:
    """Fraction of samples whose argmax posterior matches the label."""
    if len(dataset) == 0:
        raise ContractError("cannot evaluate on an empty domain")
    return float(np.mean(predict(params, dataset.x) == dataset.y))


@dataclass
class RunOutcome(JsonRecord):
    """One (held-out, seed) run. ``wall_clock_s`` is its share of its
    stack's training time plus its own evaluation and diagnostics, as
    :func:`run_single` sets it. ``final_params`` is not part of the JSON
    report; :func:`write_checkpoints` writes it."""

    held_out: int
    held_out_param: float
    seed: int
    accuracy: float | None
    failed: bool
    failure: str | None
    traces: TrainTraces | None
    diagnostics: dict | None
    final_params: ModelParams | None = field(metadata={"json": False})
    wall_clock_s: float


@dataclass
class RunReport(JsonRecord):
    config: dict
    runs: list[RunOutcome]
    aggregates: dict
    wall_clock_s: float


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


def _run_rows(config: ExperimentConfig, suite: DomainSuite, rows, plans) -> list[RunOutcome]:
    """Train the (held-out, seed) ``rows``, which share one batch layout, as
    one stack, each on the plan ``plans[held_out]``, then build each held-out
    domain's outcomes with :func:`run_single`; one outcome per row, in order."""
    start = time.perf_counter()
    layer_sizes = (suite.feature_dim, *config.hidden_sizes, suite.class_count)
    runs = [init_params(MlpSpec(layer_sizes, seed=derive_seed(seed, ho, 0))) for ho, seed in rows]
    results = train_runs(runs, [plans[ho] for ho, _ in rows], config,
                         [derive_seed(seed, ho, 1) for ho, seed in rows])
    train_s = (time.perf_counter() - start) / len(rows)
    outcomes = []
    for ho, cell in itertools.groupby(zip(rows, runs, results), key=lambda item: item[0][0]):
        outcomes += run_single(config, suite, ho,
                               [(seed, params, result) for (_, seed), params, result in cell],
                               train_s)
    return outcomes


def _worker_count(n_rows: int) -> int:
    """Processes for a grid of ``n_rows`` runs: one per CPU this process may
    use, but at most one per RUNS_PER_WORKER runs, and at least one."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, n_rows // RUNS_PER_WORKER))


def run_experiment(config: ExperimentConfig) -> RunReport:
    """All (held-out, seed) runs plus per-domain aggregate accuracy.

    The suite is built once, and so is the :class:`~hirnet.data.BatchPlan`
    of each training suite, the suite less a held-out domain. Runs whose
    plans share a ``layout_key`` (labels, domains, batch and domain counts)
    form a group; on a rotated suite that is every run. Each group trains as
    one stack, then :func:`run_single` evaluates each held-out domain's runs.
    A run's ``wall_clock_s`` is its share of its stack's training time plus
    its own evaluation and diagnostics.

    The grid picks its own worker count: one per CPU in this process's
    affinity mask, but at most one per ``RUNS_PER_WORKER`` runs. With one
    worker every job runs in this process. With more, each group's rows are
    split into at most that many contiguous chunks of at least
    ``RUNS_PER_WORKER`` rows, one job and one stack each, so a group of fewer
    than twice that many rows is one job; the jobs run in a pool of at most
    that many processes, each job sent only its rows' plans. Results are
    identical whatever the count.
    """
    start = time.perf_counter()
    suite = config.suite.build()
    if len(suite) < 2:
        raise ConfigError("training suite is empty: holding out the only domain leaves none")
    plans = {ho: BatchPlan(suite.drop(ho), config.per_class_per_domain, config.paired)
             for ho in config.held_out_indices()}
    rows = [(ho, seed) for ho in plans for seed in config.seeds]
    groups: dict[tuple, list[int]] = {}  # layout key: indices into rows
    for i, (ho, _) in enumerate(rows):
        groups.setdefault(plans[ho].layout_key, []).append(i)
    workers = _worker_count(len(rows))
    chunks = [chunk.tolist() for members in groups.values() for chunk in np.array_split(
        members, max(1, min(workers, len(members) // RUNS_PER_WORKER)))]
    jobs = [[rows[i] for i in chunk] for chunk in chunks]
    processes = min(workers, len(jobs))
    if processes > 1:
        from concurrent.futures import ProcessPoolExecutor  # its import is a cost of every run
        with ProcessPoolExecutor(max_workers=processes) as pool:
            done = list(pool.map(_run_rows, [config] * len(jobs), [suite] * len(jobs), jobs,
                                 [{ho: plans[ho] for ho, _ in job} for job in jobs]))
    else:
        done = [_run_rows(config, suite, job, plans) for job in jobs]
    by_row = dict(zip(itertools.chain(*chunks), itertools.chain(*done)))
    outcomes = [by_row[i] for i in range(len(rows))]
    aggregates = {}
    for ho in config.held_out_indices():
        accs = [r.accuracy for r in outcomes if r.held_out == ho and not r.failed]
        aggregates[str(ho)] = {
            "param": float(config.suite.angles[ho]),
            "n_runs": len([r for r in outcomes if r.held_out == ho]),
            "n_failed": len([r for r in outcomes if r.held_out == ho and r.failed]),
            "mean_accuracy": float(np.mean(accs)) if accs else None,
            "sd_accuracy": float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0 if accs else None,
        }
    return RunReport(config.to_dict(), outcomes, aggregates, time.perf_counter() - start)


def all_runs_failed(report: RunReport) -> bool:
    return bool(report.runs) and all(r.failed for r in report.runs)


def sweep_alpha(config: ExperimentConfig, alphas: list[float]) -> dict[float, RunReport]:
    """Re-run the experiment once per alpha value. Every value is checked,
    and must differ from the others as its ``:g`` report label, before any
    training."""
    if config.loss_kind == "agg":
        raise ConfigError("alpha sweep needs a loss kind that uses alpha")
    if not alphas:
        raise ConfigError("alpha list is empty")
    labels = [f"{check_real('alpha', alpha, 0.0):g}" for alpha in alphas]
    if len(set(labels)) < len(labels):
        raise ConfigError(f"alpha values must differ as written to file names, got {labels}")
    return {a: run_experiment(replace(config, alpha=a)) for a in alphas}


def write_report_json(report: RunReport, path) -> None:
    write_json(report.to_dict(), path)


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

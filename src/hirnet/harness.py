"""Hold-one-domain-out experiment runner.

The runner builds the suite once. For each held-out domain and seed it
trains the configured objective on the suite less that domain, evaluates
accuracy on the held-out domain, and aggregates mean and standard deviation
across seeds. Runs that diverge (a non-finite loss, gradient, epoch mean of a
loss or per-domain attribution) are marked failed and frozen in place in their
stack; the rest go on.

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
process. Each step copies its detached log-probs into one rows buffer per
call, (runs, n, batches * m), row i of a run holding its batches' rows i end
to end; one pass per epoch reads it, unchanged, for the attribution traces.
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
    write_lines,
)
from .losses import LOSS_KINDS, combined_loss
from .models import (MlpSpec, ModelParams, flatten, forward, init_params, predict,
                     save_checkpoint)
from .optim import NonFiniteGradient, adam_step, init_adam

# A second worker process pays for itself from about this many runs on: on a
# 2-CPU machine, 18- and 30-run grids train faster on two processes than on
# one, and 6- and 12-run grids do not.
RUNS_PER_WORKER = 9

# Published protocol defaults for the rotated ordered-domain experiments.
ROTATED_LR = 1e-3
ROTATED_ALPHA = 1e-3


class TrainingDiverged(RuntimeError):
    """A loss, a gradient, an epoch mean of a loss or an attribution became non-finite."""


@dataclass(frozen=True)
class OptimizerConfig(JsonConfig):
    lr: float = ROTATED_LR  # Adam's other constants are optim's

    def __post_init__(self):
        lr = check_real("optimizer lr", self.lr)
        if not 0 < lr:
            raise ConfigError(f"optimizer lr must be > 0, got {lr}")
        object.__setattr__(self, "lr", lr)


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


def _touching(pair_values: np.ndarray, member: np.ndarray) -> np.ndarray:
    """Each domain's sum of the (..., n, n) ``pair_values`` over the pairs with an end in it:
    its row plus its column of U^T P U, less the pairs with both ends in it."""
    by_domains = member.T @ pair_values @ member
    return by_domains.sum(axis=-1) + by_domains.sum(axis=-2) - by_domains.diagonal(0, -2, -1)


def _attribution_layout(y: np.ndarray, domains: np.ndarray, n_domains: int, n_batches: int,
                        m: int) -> tuple:
    """What :func:`_epoch_attributions` reads of a layout with labels ``y`` and
    ``domains``: each row's true-class columns in its run's rows, row i's at
    (i * n_batches + b) * m + y_i for batch b; the row-to-domain indicator U and
    its rows per domain in an epoch; the same-class i < j mask M and its pairs
    per domain in an epoch."""
    member = (domains[:, None] == np.arange(n_domains)).astype(np.float64)
    same_class = np.triu(y[:, None] == y[None, :], k=1).astype(np.float64)
    cols = np.arange(y.size * n_batches).reshape(-1, n_batches) * m + y[:, None]
    return (cols, member, member.sum(axis=0) * n_batches, same_class,
            _touching(same_class, member) * n_batches)


def _epoch_attributions(rows: np.ndarray, kl: np.ndarray, cols: np.ndarray, member: np.ndarray,
                        row_counts: np.ndarray, same_class: np.ndarray, pair_counts: np.ndarray):
    """Per-domain mean cross-entropy and mean same-class posterior KL over an
    epoch, one (runs, domains) array each, from the stack's detached
    log-probs and the layout of :func:`_attribution_layout`; each run's row
    has the bits of a call on that run alone. ``rows[0]`` holds the log-probs,
    (runs, n, n_batches * m): row i of a run is its batches' rows i end to
    end. The call leaves them as they are; ``rows[1]``, of that shape, and
    the (runs, n, n) ``kl`` are scratch.

    KL(p_i || p_j) = h_i - p_i . log p_j with h_i = p_i . log p_i, so a
    run's sums K_ij over the epoch come from one matmul over its stacked
    (batch, class) axis; like ``losses.hir_kl``, they are accurate in absolute
    terms, not relative ones. :func:`_touching` sums M o K by domain. Since
    every batch has the same layout, the epoch mean of the batch means is the
    epoch's sum divided by the per-batch count times the number of batches.
    A domain with no rows or no pairs gets 0.
    """
    lp_rows, p_rows = rows
    # Each row's true-class log-probs along one contiguous axis, which sets the
    # order the sum adds them in. A run's CE sums are one (n,) @ (n, D) product
    # on a fresh sum, as alone: a stacked product, or one on a row of a stack,
    # can round differently.
    true_lp = np.take(lp_rows.reshape(len(lp_rows), -1), cols, axis=-1)
    ce = _safe_mean(-np.stack([run.sum(axis=-1) @ member for run in true_lp]), row_counts)
    kl = np.matmul(np.exp(lp_rows, out=p_rows), lp_rows.swapaxes(-1, -2), out=kl)
    p_rows *= lp_rows  # p log p, into the probs half, which the matmul is done with
    np.subtract(p_rows.sum(axis=-1)[..., None], kl, out=kl)
    kl *= same_class
    return ce, _safe_mean(_touching(kl, member), pair_counts)


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
    the stack is run r throughout. A run whose step loss or gradient, epoch mean
    of ``l_c`` or ``l_h``, or epoch attribution (``per_domain_l_c`` or
    ``per_domain_kl``) turns non-finite gets the :class:`TrainingDiverged`
    it would raise alone and is frozen in place, its row at its last finite values
    (a zero gradient and first moment make its Adam step 0.0); the others go on.
    Returns each run's traces, or its failure.
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
    results: list[TrainTraces | TrainingDiverged] = [
        TrainTraces(domain_params=list(plan.domain_params)) for plan in plans]
    alive, frozen = np.ones(len(runs), dtype=bool), False  # frozen: any row not alive
    stack = ModelParams.stack(runs)
    opt = init_adam([stack.flat], lr=config.optimizer.lr)
    # The epoch's log-prob rows and the attribution's scratch. A step copies a
    # row's m log-probs in as one item: m values at a time is far slower.
    m, n = stack.layer_sizes[-1], labels.labels.size
    layout = _attribution_layout(labels.labels, labels.domains, n_domains, n_batches, m)
    cell, rows = np.dtype((np.void, 8 * m)), np.empty((2, len(runs), n, n_batches * m))
    kl, lp_cells = np.empty((len(runs), n, n)), rows[0].view(cell)

    def fail(bad, message):
        """Fail each alive run of the mask ``bad`` as alone, with ``message(row)``; freeze it."""
        nonlocal frozen
        for row in np.flatnonzero(alive & bad):
            results[row] = TrainingDiverged(message(row))
            alive[row], frozen = False, True

    for epoch in range(config.epochs):
        xs = np.stack([plan.draw([seed, epoch]) for plan, seed in zip(plans, batch_seeds)], axis=1)
        epoch_lc, epoch_lh = [], []
        for b in range(n_batches):
            graph = ad.Graph()
            z, logits = forward(stack, xs[b], graph)
            log_probs = ad.log_softmax(logits)
            np.copyto(lp_cells[..., b], log_probs.data.view(cell)[..., 0])
            breakdown = combined_loss(log_probs, labels, config.alpha, config.loss_kind, z,
                                      config.cross_domain_only, config.normalize_hir)
            epoch_lc.append(breakdown.classification.data)
            if breakdown.hir is not None:
                epoch_lh.append(breakdown.hir.data)
            grads = graph.backward(breakdown.combined)
            grad = flatten([grads[i] for i in graph.param_ids])
            loss = breakdown.combined.data
            if not frozen and np.isfinite(loss).all():
                try:
                    adam_step(opt, [stack.flat], [grad])
                    continue
                except NonFiniteGradient:  # raised before adam_step changes anything
                    pass
            fail(~np.isfinite(loss.reshape(-1)), lambda row: f"non-finite loss at epoch {epoch}")
            fail(~np.isfinite(grad).all(axis=(-2, -1)), lambda row: "non-finite gradient at "
                 f"parameter index {stack.array_index(np.argmin(np.isfinite(grad[row, 0])))}")
            grad[~alive] = opt.m[0][~alive] = 0.0  # so a frozen row steps by 0.0
            adam_step(opt, [stack.flat], [grad])
        # Each run's step values lie along one contiguous row, reduced in
        # the order its own list of steps would be.
        l_c = np.concatenate(epoch_lc, axis=-1).mean(axis=-1)
        l_h = np.concatenate(epoch_lh, axis=-1).mean(axis=-1) if epoch_lh else np.zeros_like(l_c)
        dom_ce, dom_kl = _epoch_attributions(rows, kl, *layout)
        # Finite steps can overflow an epoch's means and its attributions.
        for name, values in (("l_c epoch mean", l_c), ("l_h epoch mean", l_h),
                             ("per_domain_l_c", dom_ce), ("per_domain_kl", dom_kl)):
            fail(~np.isfinite(values).all(axis=-1),
                 lambda row: f"non-finite {name} at epoch {epoch}")
        for row in np.flatnonzero(alive):
            traces = results[row]
            traces.l_c.append(float(l_c[row, 0]))
            traces.l_h.append(float(l_h[row, 0]))
            traces.per_domain_l_c.append(dom_ce[row].tolist())
            traces.per_domain_kl.append(dom_kl[row].tolist())
        if not alive.any():
            break
        del xs  # before the next epoch draws its own
    for row, params in enumerate(runs):
        stack.write_row(row, params)
    return results


def train(params: ModelParams, train_suite: DomainSuite, config: ExperimentConfig,
          batch_seed: int = 0) -> tuple[ModelParams, TrainTraces]:
    """Train ``params`` in place over the configured epoch budget: the
    one-run case of :func:`train_runs`, on the one plan built here.

    Raises :class:`TrainingDiverged` on a non-finite loss, gradient, epoch mean or attribution.
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
    """One (held-out, seed) run, as :func:`run_single` scores it. ``wall_clock_s`` is its share
    of its stack's training time plus its own evaluation and diagnostics. ``final_params`` is
    not part of the JSON report; :func:`write_checkpoints` writes it. ``diagnostics`` is None
    without probes, else their values, or ``{"error": "non-finite <name>"}`` if one is not
    finite; the run keeps its accuracy and traces."""

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


def run_single(config: ExperimentConfig, suite: DomainSuite, held_out: int, seed: int,
               params: ModelParams, result, train_s: float) -> RunOutcome:
    """The outcome of one (held-out, seed) run: its trained ``params`` and
    its :func:`train_runs` result. A run that did not diverge is evaluated
    on the held-out domain of ``suite`` and, if the config asks, probed.
    Never raises on divergence.

    The outcome's ``wall_clock_s`` is ``train_s``, the run's share of its
    stack's training time, plus its own evaluation and diagnostics.
    """
    held_out_param = suite.domain_params[held_out]
    if isinstance(result, TrainingDiverged):
        return RunOutcome(held_out, held_out_param, seed, None, True, str(result),
                          None, None, None, train_s)
    start = time.perf_counter()
    accuracy = evaluate(params, suite.domains[held_out])
    bundle = None
    if config.collect_diagnostics:
        with np.errstate(over="ignore", invalid="ignore"):  # checked below, not warned of
            bundle = diag.bundle_to_jsonable(diag.collect_bundle(
                params, suite, per_class_per_domain=1, seed=derive_seed(seed, held_out, 2)))
        bad = [k for k, v in bundle.items() if v is not None and not np.isfinite(v).all()]
        bundle = {"error": f"non-finite {bad[0]}"} if bad else bundle
    return RunOutcome(held_out, held_out_param, seed, accuracy, False, None, result, bundle,
                      params, train_s + time.perf_counter() - start)


def _run_rows(config: ExperimentConfig, suite: DomainSuite, rows, plans) -> list[RunOutcome]:
    """Train the (held-out, seed) ``rows``, which share one batch layout, as
    one stack, each on the plan ``plans[held_out]``, then score each run
    alone with :func:`run_single`; one outcome per row, in order."""
    start = time.perf_counter()
    layer_sizes = (suite.feature_dim, *config.hidden_sizes, suite.class_count)
    runs = [init_params(MlpSpec(layer_sizes, seed=derive_seed(seed, ho, 0))) for ho, seed in rows]
    results = train_runs(runs, [plans[ho] for ho, _ in rows], config,
                         [derive_seed(seed, ho, 1) for ho, seed in rows])
    train_s = (time.perf_counter() - start) / len(rows)
    return [run_single(config, suite, ho, seed, params, result, train_s)
            for (ho, seed), params, result in zip(rows, runs, results)]


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
    one stack, then :func:`run_single` scores each run alone.
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
    write_json(report, path)


def write_accuracy_csv(reports: list[RunReport], path) -> None:
    """Flat per-run rows: held_out,seed,loss_kind,alpha,accuracy."""
    write_lines(["held_out,seed,loss_kind,alpha,accuracy"] + [
        f"{run.held_out_param:g},{run.seed},{report.config['loss_kind']},"
        f"{report.config['alpha']:g}," + ("" if run.accuracy is None else f"{run.accuracy:.17g}")
        for report in reports for run in report.runs], path)


def write_trace_csv(outcome: RunOutcome, path) -> None:
    """Rows ``epoch,domain,l_c,l_h``: one "total" row per epoch for the
    optimized losses, plus one row per training domain carrying that
    domain's cross-entropy and posterior-KL attribution."""
    traces = outcome.traces
    if traces is None:
        raise ContractError("failed run has no traces")
    # An epoch's rows are one format of its epoch, l_c, l_h, each domain's l_c and each domain's KL.
    n = len(traces.domain_params)
    epoch_rows = "{0},total,{1:.17g},{2:.17g}" + "".join(
        f"\n{{0}},{angle:g},{{{3 + d}:.17g}},{{{3 + n + d}:.17g}}"
        for d, angle in enumerate(traces.domain_params))
    write_lines(["epoch,domain,l_c,l_h"] + [
        epoch_rows.format(epoch, lc, lh, *ces, *kls) for epoch, (lc, lh, ces, kls) in enumerate(
            zip(traces.l_c, traces.l_h, traces.per_domain_l_c, traces.per_domain_kl))], path)


def write_checkpoints(report: RunReport, out_dir) -> None:
    for run in report.runs:
        if run.final_params is not None:
            save_checkpoint(run.final_params, os.path.join(
                out_dir, f"checkpoint_ho{run.held_out}_seed{run.seed}.ckpt"))

"""Invariance probes for trained models.

Three complementary views of how a model treats an ordered domain suite:
how far apart the domains' latent representations sit (RBF-MMD matrices,
from the mean kernel value of each pair of groups, one block at a time),
whether paired points get the same predicted class in every domain
(prediction agreement), and how divergent same-class posteriors are
(pairwise KL, paired versus unpaired). All probes are read-only over a
frozen model.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import models
from .data import BatchPlan, DomainSuite, _common_ids, _last_rows
from .errors import ContractError, write_json, write_lines
# mmd_rbf stays bound here for perfbench's test_uninstall_restores_every_original.
from .losses import (BatchLabels, _sq_dists, hir_kl, median_distance, mmd_rbf,  # noqa: F401
                     pairwise_kl, rbf_gamma)


@dataclass
class DiagnosticsBundle:
    """One model's invariance profile over a suite."""

    domain_mmd: np.ndarray                 # (|D|, |D|), symmetric, zero diagonal
    class_mmd: np.ndarray                  # (classes, |D|, |D|); NaN where a cell is empty
    agreement: float | None                # None when no paired structure exists
    paired_kl_mean: float | None
    unpaired_kl_mean: float
    posterior_kl: np.ndarray               # (n, n) upper triangle; NaN where absent
    probe_classes: np.ndarray              # (n,) class of each posterior_kl row
    bandwidth: float


SAMPLE_PAIRS, BRACKET, GATHER_CAP = 4096, 0.02, 1 << 20  # the default bandwidth's selection
PROBE_SIZE = 100  # base points that collect_bundle's agreement probe compares


def _sample_sq_dists(z: np.ndarray) -> np.ndarray:
    """Squared distances of SAMPLE_PAIRS random pairs of distinct rows, the same on every call."""
    i, j = np.random.default_rng(0).integers([[len(z)], [len(z) - 1]], size=(2, SAMPLE_PAIRS))
    with np.errstate(over="ignore", invalid="ignore"):  # in 16 parts, to hold little memory
        return np.concatenate([np.einsum("ij,ij->i", *[z[a] - z[(a + b + 1) % len(z)]] * 2)
                               for a, b in zip(np.split(i, 16), np.split(j, 16))])


def _select_median(scan, total: int, z: np.ndarray) -> float:
    """Bitwise ``median_distance`` of the ``total`` values >= 0 that ``scan()`` yields a block at
    a time for the rows ``z``, keeping none (Floyd & Rivest, 1975). Each pass counts the values
    below a bracket [lo, hi] and gathers those inside; until at most GATHER_CAP hold the upper
    middle rank, its bounds [L, H] close in to the counts, and the next bracket is [L, H], or its
    lower half by bit pattern if too many values lie in it. The first is BRACKET of the ranks
    either side of a sample's middle. A NaN gives 1.0; if |row|^2 <= max / 4, none can arise."""
    if not total or not np.abs(z).max(initial=0.0) <= np.sqrt(np.finfo(float).max / 4 / max(
            z.shape[-1], 1)) and any(np.isnan(values).any() for values in scan()):
        return 1.0
    rank, (lo, hi) = total // 2, np.fmin(np.quantile(
        _sample_sq_dists(z), [0.5 - BRACKET, 0.5 + BRACKET], method="inverted_cdf"), np.inf)
    L, H, n_below_L, n_to_H = 0.0, np.inf, 0, total
    while True:
        below, kept, parts = 0, 0, []
        for values in scan():
            below += np.count_nonzero(lt := values < lo)
            parts.append(np.compress((values <= hi) ^ lt, values))
            kept += parts[-1].size
            parts = parts if kept <= GATHER_CAP else []
        if below <= rank < below + kept and (kept <= GATHER_CAP or lo == hi):
            break
        L, n_below_L = ((np.nextafter(hi, np.inf), below + kept) if rank >= below + kept else
                        (lo, below) if rank >= below else (L, n_below_L))
        H, n_to_H = ((np.nextafter(lo, -np.inf), below) if rank < below else
                     (hi, below + kept) if rank < below + kept else (H, n_to_H))
        lo, hi = (L, H) if n_to_H - n_below_L <= GATHER_CAP else \
            (L, np.int64(sum(np.array([L, H]).view(np.int64).tolist()) // 2).view(np.float64))
    k = rank - below  # over the cap, every value inside is lo
    pile, k = (np.concatenate(parts), k) if kept <= GATHER_CAP else (np.full(2, lo), min(k, 1))
    pile.partition(k)  # an even total's lower middle: below k, or the largest value below lo
    lower = total % 2 or (pile[:k].max() if k else
                          max(np.max(v, initial=-np.inf, where=v < lo) for v in scan()))
    return median_distance(np.array([lower, pile[k]][total % 2:]))


def domain_alignment_matrix(params: models.ModelParams, suite: DomainSuite,
                            per_class: bool = False, bandwidth: float | None = None):
    """Pairwise squared RBF MMD between the domains' latents; returns (matrix, bandwidth).

    One forward pass over the pooled domains, then one block of squared
    distances per pair of groups a <= b, exponentiated in place and reduced
    to its mean k_ab: MMD^2_ab = k_aa + k_bb - 2 k_ab, and no pooled (N, N)
    kernel is ever built. The default bandwidth is the median distance of
    the pooled rows' i < j pairs, and no buffer holds them either: passes
    over the domain blocks count and gather them for :func:`_select_median`.
    With ``per_class`` a group is a (class, domain) cell and only
    same-class blocks are built, giving a (classes, |D|, |D|) stack, NaN
    where a domain is missing the class. Row norms are taken once a call,
    and every block is written into the same two buffers."""
    n, classes = len(suite), suite.class_count if per_class else 1
    z, _ = models.forward(params, np.vstack([ds.x for ds in suite.domains]))
    cuts = np.cumsum([ds.y.size for ds in suite.domains])[:-1]
    domains, norms = np.split(z.data, cuts), np.split(np.sum(z.data * z.data, axis=-1), cuts)
    buffers = np.empty((2, max(map(len, domains)) ** 2))  # every block's out and gram
    def blocks(rows, row_norms):  # (a, b, squared distances) of each pair of groups a <= b
        for a, b in zip(*np.triu_indices(n)):  # with rows on both sides
            if all(shape := (len(rows[a]), len(rows[b]))):
                yield a, b, _sq_dists(rows[a], rows[b], *(buf[:shape[0] * shape[1]].reshape(shape)
                                      for buf in buffers), row_norms[a], row_norms[b])
    if bandwidth is None:
        upper = {m: np.flatnonzero(np.triu(np.ones((m, m), bool), 1)) for m in set(map(len, domains))}
        def scan():  # each domain block's i < j values; a diagonal block's by one flat index,
            for a, b, dists in blocks(domains, norms):  # in range: "raise" would buffer out
                v, k = dists.reshape(-1), upper[len(dists)]
                yield np.take(v, k, out=buffers[1][:k.size], mode="clip") if a == b else v
        bandwidth = _select_median(scan, len(z.data) * (len(z.data) - 1) // 2, z.data)
    gamma, kernel_means = rbf_gamma(bandwidth, 2), np.full((classes, n, n), np.nan)
    for c in range(classes):
        cells = [ds.y == c if per_class else slice(None) for ds in suite.domains]
        rows, row_norms = zip(*[(z_d[k], n_d[k]) for z_d, n_d, k in zip(domains, norms, cells)])
        for a, b, dists in blocks(rows, row_norms):
            dists *= gamma
            kernel_means[c, a, b] = kernel_means[c, b, a] = np.exp(dists, out=dists).mean()
    own = np.diagonal(kernel_means, axis1=1, axis2=2)
    stack = own[:, :, None] + own[:, None, :] - 2.0 * kernel_means
    return (stack if per_class else stack[0]), bandwidth


def prediction_agreement(params: models.ModelParams, suite: DomainSuite,
                         probe_size: int = PROBE_SIZE, seed: int = 0) -> float | None:
    """Fraction of probed base points predicted identically in every domain.

    Probes base_ids present in all domains; None when no base_id is. Invariant
    to any strictly monotone rescaling of the logits because only the argmax
    is compared.
    """
    common = _common_ids(suite)
    if common.size == 0:
        return None
    if common.size > probe_size:
        common = np.sort(np.random.default_rng(seed).choice(common, size=probe_size, replace=False))
    predictions = [models.predict(params, dataset.x[_last_rows(dataset, common)])
                   for dataset in suite.domains]
    stacked = np.stack(predictions)
    return float(np.mean(np.all(stacked == stacked[0], axis=0)))


def posterior_kl_matrix(params: models.ModelParams, x, labels: BatchLabels) -> np.ndarray:
    """Upper-triangular matrix of KL(p_i || p_j) for same-class pairs i < j.

    Entries for different-class pairs (and the lower triangle) are NaN.
    The sum of present entries equals the posterior-alignment loss of the
    batch.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] == 0:
        raise ContractError("posterior_kl_matrix needs a non-empty batch")
    log_probs = models.log_posteriors(params, x)
    i_idx, j_idx, kl = pairwise_kl(log_probs, labels)
    matrix = np.full((x.shape[0], x.shape[0]), np.nan)
    matrix[i_idx, j_idx] = kl
    return matrix


def _plan(suite: DomainSuite, per_class_per_domain: int, paired: bool) -> BatchPlan:
    """The suite's :class:`BatchPlan`; raises if it has no batches."""
    plan = BatchPlan(suite, per_class_per_domain, paired)
    if plan.n_batches == 0:
        raise ContractError("sampler produced no batches")
    return plan


def _mean_batch_kl(params: models.ModelParams, plan: BatchPlan, seed: int, salt: int,
                   n_batches: int) -> float:
    """Mean hir_kl over ``n_batches`` batches that ``plan`` draws, spanning
    epochs as needed; each epoch's share one layout, so they are one stacked pass."""
    values: list[float] = []
    for epoch in range(-(-n_batches // plan.n_batches)):
        x = plan.draw([seed, salt, epoch])[:n_batches - len(values)]
        log_probs = models.log_posteriors(params, x.reshape(-1, x.shape[-1]))
        loss, _ = hir_kl(log_probs.reshape(x.shape[:2] + log_probs.shape[-1:]), plan.batch_labels)
        values += loss.data.reshape(-1).tolist()
    return float(np.mean(values))


def paired_vs_unpaired_kl(params: models.ModelParams, suite: DomainSuite,
                          per_class_per_domain: int = 1, seed: int = 0,
                          unpaired: BatchPlan | None = None) -> tuple[float | None, float]:
    """Mean posterior-alignment loss over paired vs unpaired sampled batches.

    Both modes use matched batch sizes; means are over 50 batches each. The
    paired mean is None when no class has a base_id common to every domain.
    ``unpaired`` is the suite's unpaired plan, if already built.
    """
    n_batches = 50
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=UserWarning)
        paired = BatchPlan(suite, per_class_per_domain, True)
    paired_mean = _mean_batch_kl(params, paired, seed, 0, n_batches) if paired.n_batches else None
    if unpaired is None:
        unpaired = _plan(suite, per_class_per_domain, False)
    return paired_mean, _mean_batch_kl(params, unpaired, seed, 1, n_batches)


def collect_bundle(params: models.ModelParams, suite: DomainSuite,
                   per_class_per_domain: int = 1, seed: int = 0,
                   bandwidth: float | None = None) -> DiagnosticsBundle:
    """Run every probe once and package the results. Warns on a one-domain
    suite, where the cross-domain probes are vacuous."""
    if len(suite) < 2:
        warnings.warn("single probed domain: cross-domain probes are vacuous")
    domain_mmd, used_bw = domain_alignment_matrix(params, suite, bandwidth=bandwidth)
    class_mmd, _ = domain_alignment_matrix(params, suite, per_class=True, bandwidth=used_bw)
    plan = _plan(suite, per_class_per_domain, False)
    paired_mean, unpaired_mean = paired_vs_unpaired_kl(
        params, suite, per_class_per_domain=per_class_per_domain, seed=seed, unpaired=plan)
    return DiagnosticsBundle(
        domain_mmd=domain_mmd,
        class_mmd=class_mmd,
        agreement=prediction_agreement(params, suite, seed=seed),
        paired_kl_mean=paired_mean,
        unpaired_kl_mean=unpaired_mean,
        posterior_kl=posterior_kl_matrix(params, plan.draw(seed)[0], plan.batch_labels),
        probe_classes=plan.batch_labels.labels,
        bandwidth=used_bw,
    )


def _scalars(bundle: DiagnosticsBundle) -> dict:
    """The bundle's scalar results, as both report.json and diag_summary.json give them."""
    return {name: getattr(bundle, name)
            for name in ("agreement", "paired_kl_mean", "unpaired_kl_mean", "bandwidth")}


def bundle_to_jsonable(bundle: DiagnosticsBundle) -> dict:
    present = ~np.isnan(bundle.posterior_kl)
    off_diagonal = ~np.eye(len(bundle.domain_mmd), dtype=bool)
    return {
        **_scalars(bundle),
        "domain_mmd": bundle.domain_mmd.tolist(),
        "mean_offdiag_mmd": float(bundle.domain_mmd[off_diagonal].mean()),
        "posterior_kl_sum": float(np.nansum(bundle.posterior_kl)),
        "posterior_kl_pairs": int(present.sum()),
    }


def write_domain_mmd_csv(matrix: np.ndarray, domain_params: list[float], path) -> None:
    """Square MMD matrix with a header row of the domain angles."""
    write_lines([",".join(f"{a:g}" for a in domain_params),
                 *(",".join(f"{v:.17g}" for v in row) for row in matrix.tolist())], path)


def write_posterior_kl_csv(bundle: DiagnosticsBundle, path) -> None:
    """Rows ``i,j,class,value`` for every present entry of the bundle's
    ``posterior_kl``, ordered by (class, i, j) as :func:`pairwise_kl` gives them."""
    i_idx, j_idx = np.nonzero(~np.isnan(bundle.posterior_kl))
    order = np.argsort(bundle.probe_classes[i_idx], kind="stable")
    i_idx, j_idx = i_idx[order], j_idx[order]
    rows = zip(i_idx.tolist(), j_idx.tolist(), bundle.probe_classes[i_idx].tolist(),
               bundle.posterior_kl[i_idx, j_idx].tolist())
    write_lines(["i,j,class,value", *(f"{i},{j},{c},{v:.17g}" for i, j, c, v in rows)], path)


def write_diag_summary(bundle: DiagnosticsBundle, path, extra: dict) -> None:
    write_json({**_scalars(bundle), **extra}, path)

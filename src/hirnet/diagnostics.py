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
from .data import BatchPlan, DomainSuite, _last_rows
from .errors import ContractError, write_json
# mmd_rbf stays bound here for perfbench's test_uninstall_restores_every_original.
from .losses import (BatchLabels, _sq_dists, hir_kl, median_distance, mmd_rbf,  # noqa: F401
                     pairwise_kl, rbf_gamma)


class DiagnosticUnavailableError(ContractError):
    """The suite lacks the structure this diagnostic needs."""


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


def domain_alignment_matrix(params: models.ModelParams, suite: DomainSuite,
                            per_class: bool = False, bandwidth: float | None = None):
    """Pairwise squared RBF MMD between the domains' latents; returns (matrix, bandwidth).

    One forward pass over the pooled domains, then one block of squared
    distances per pair of groups a <= b, exponentiated in place and reduced
    to its mean k_ab: MMD^2_ab = k_aa + k_bb - 2 k_ab, and no pooled (N, N)
    kernel is ever built. The default bandwidth is the median distance of
    the pooled rows' i < j pairs, which the domain blocks write into one
    buffer, a diagonal block its upper triangle by one flat index per block
    size. With ``per_class`` a group is a (class, domain) cell and only
    same-class blocks are built, giving a (classes, |D|, |D|) stack, NaN
    where a domain is missing the class."""
    n, classes = len(suite), suite.class_count if per_class else 1
    z, _ = models.forward(params, np.vstack([ds.x for ds in suite.domains]))
    domains = np.split(z.data, np.cumsum([ds.y.size for ds in suite.domains])[:-1])
    if bandwidth is None:
        pairs, at = np.empty(len(z.data) * (len(z.data) - 1) // 2), 0
        upper = {m: np.flatnonzero(np.triu(np.ones((m, m), bool), 1))
                 for m in set(map(len, domains))}
        for a, b in zip(*np.triu_indices(n)):
            z_a, z_b = domains[a], domains[b]
            block = pairs[at:at + (upper[len(z_a)].size if a == b else len(z_a) * len(z_b))]
            if a == b:  # its i < j entries; the index is in range, and "raise" buffers out
                np.take(_sq_dists(z_a, z_b), upper[len(z_a)], out=block, mode="clip")
            else:
                _sq_dists(z_a, z_b, out=block.reshape(len(z_a), len(z_b)))
            at += block.size
        bandwidth = median_distance(pairs)
    gamma, kernel_means = rbf_gamma(bandwidth, 2), np.full((classes, n, n), np.nan)
    for c in range(classes):
        rows = [z_d[ds.y == c] if per_class else z_d for z_d, ds in zip(domains, suite.domains)]
        for a, b in zip(*np.triu_indices(n)):
            if rows[a].size and rows[b].size:
                block = _sq_dists(rows[a], rows[b])
                block *= gamma
                kernel_means[c, a, b] = kernel_means[c, b, a] = np.exp(block, out=block).mean()
    own = np.diagonal(kernel_means, axis1=1, axis2=2)
    stack = own[:, :, None] + own[:, None, :] - 2.0 * kernel_means
    return (stack if per_class else stack[0]), bandwidth


def prediction_agreement(params: models.ModelParams, suite: DomainSuite,
                         probe_size: int = 100, seed: int = 0) -> float:
    """Fraction of probed base points predicted identically in every domain.

    Probes base_ids present in all domains. Invariant to any strictly
    monotone rescaling of the logits because only the argmax is compared.
    """
    common = None
    for dataset in suite.domains:
        ids = np.unique(dataset.base_id, return_index=True)[0]
        common = ids if common is None else np.intersect1d(common, ids, assume_unique=True)
    if common is None or common.size == 0:
        raise DiagnosticUnavailableError("no base_id is present in every domain")
    rng = np.random.default_rng(seed)
    if common.size > probe_size:
        common = np.sort(rng.choice(common, size=probe_size, replace=False))
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
        raise DiagnosticUnavailableError("sampler produced no batches")
    return plan


def _mean_batch_kl(params: models.ModelParams, plan: BatchPlan, seed: int, salt: int,
                   n_batches: int) -> float:
    """Mean hir_kl over ``n_batches`` batches that ``plan`` draws, spanning
    epochs as needed; each epoch's share one layout, so they are one stacked pass."""
    values: list[float] = []
    for epoch in range(-(-n_batches // plan.n_batches)):
        x = plan.draw([seed, salt, epoch])[0][:n_batches - len(values)]
        log_probs = models.log_posteriors(params, x.reshape(-1, x.shape[-1]))
        loss, _ = hir_kl(log_probs.reshape(x.shape[:2] + log_probs.shape[-1:]), plan.batch_labels)
        values += loss.data.reshape(-1).tolist()
    return float(np.mean(values))


def paired_vs_unpaired_kl(params: models.ModelParams, suite: DomainSuite,
                          per_class_per_domain: int = 1, seed: int = 0,
                          n_batches: int = 50,
                          unpaired: BatchPlan | None = None) -> tuple[float | None, float]:
    """Mean posterior-alignment loss over paired vs unpaired sampled batches.

    Both modes use matched batch sizes; means are over ``n_batches``
    batches each. The paired mean is None when no class has a base_id
    common to every domain. ``unpaired`` is the suite's unpaired plan, if already built.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=UserWarning)
        paired = BatchPlan(suite, per_class_per_domain, True)
    paired_mean = _mean_batch_kl(params, paired, seed, 0, n_batches) if paired.n_batches else None
    if unpaired is None:
        unpaired = _plan(suite, per_class_per_domain, False)
    return paired_mean, _mean_batch_kl(params, unpaired, seed, 1, n_batches)


def collect_bundle(params: models.ModelParams, suite: DomainSuite,
                   per_class_per_domain: int = 1, probe_size: int = 100,
                   seed: int = 0, bandwidth: float | None = None) -> DiagnosticsBundle:
    """Run every probe once and package the results. Warns on a one-domain
    suite, where the cross-domain probes are vacuous."""
    if len(suite) < 2:
        warnings.warn("single probed domain: cross-domain probes are vacuous")
    domain_mmd, used_bw = domain_alignment_matrix(params, suite, bandwidth=bandwidth)
    class_mmd, _ = domain_alignment_matrix(params, suite, per_class=True, bandwidth=used_bw)
    try:
        agreement = prediction_agreement(params, suite, probe_size=probe_size, seed=seed)
    except DiagnosticUnavailableError:
        agreement = None
    plan = _plan(suite, per_class_per_domain, False)
    paired_mean, unpaired_mean = paired_vs_unpaired_kl(
        params, suite, per_class_per_domain=per_class_per_domain, seed=seed, unpaired=plan)
    return DiagnosticsBundle(
        domain_mmd=domain_mmd,
        class_mmd=class_mmd,
        agreement=agreement,
        paired_kl_mean=paired_mean,
        unpaired_kl_mean=unpaired_mean,
        posterior_kl=posterior_kl_matrix(params, plan.draw(seed)[0][0], plan.batch_labels),
        probe_classes=plan.labels,
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
    with open(path, "w") as fh:
        fh.write(",".join(f"{a:g}" for a in domain_params) + "\n")
        for row in matrix:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def write_posterior_kl_csv(bundle: DiagnosticsBundle, path) -> None:
    """Rows ``i,j,class,value`` for every present entry of the bundle's
    ``posterior_kl``, ordered by (class, i, j) as :func:`pairwise_kl` gives them."""
    i_idx, j_idx = np.nonzero(~np.isnan(bundle.posterior_kl))
    order = np.argsort(bundle.probe_classes[i_idx], kind="stable")
    with open(path, "w") as fh:
        fh.write("i,j,class,value\n")
        for i, j in zip(i_idx[order], j_idx[order]):
            fh.write(f"{i},{j},{bundle.probe_classes[i]},{bundle.posterior_kl[i, j]:.17g}\n")


def write_diag_summary(bundle: DiagnosticsBundle, path, extra: dict | None = None) -> None:
    write_json({**_scalars(bundle), **(extra or {})}, path)

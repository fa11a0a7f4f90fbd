"""Invariance probes for trained models.

Three complementary views of how a model treats an ordered domain suite:
how far apart the domains' latent representations sit (RBF-MMD matrices,
each read off the block means of one kernel over the pooled latents),
whether paired points get the same predicted class in every domain
(prediction agreement), and how divergent same-class posteriors are
(pairwise KL, paired versus unpaired). All probes are read-only over a
frozen model.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from . import models
from .data import BatchPlan, DomainSuite, stratified_batches
from .errors import ContractError
# mmd_rbf stays bound here for perfbench's test_uninstall_restores_every_original.
from .losses import BatchLabels, hir_kl, mmd_rbf, pairwise_kl, rbf_kernel  # noqa: F401


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
    bandwidth: float

    def mean_offdiag_mmd(self) -> float:
        n = self.domain_mmd.shape[0]
        mask = ~np.eye(n, dtype=bool)
        return float(self.domain_mmd[mask].mean())


def domain_alignment_matrix(params: models.ModelParams, suite: DomainSuite,
                            per_class: bool = False, bandwidth: float | None = None):
    """Pairwise squared RBF MMD between the domains' latents; returns (matrix, bandwidth).

    One kernel K over the pooled latents, bandwidth by default their median
    distance; B = U^T K U holds the block means, U being the row-to-group
    indicator over the group's size, so MMD^2_ab = B_aa + B_bb - 2 B_ab. With ``per_class``
    a group is a (class, domain) cell, giving a (classes, |D|, |D|) stack, NaN
    where a domain is missing the class."""
    n, classes = len(suite), suite.class_count if per_class else 1
    z, _ = models.forward(params, np.vstack([ds.x for ds in suite.domains]))
    group = np.repeat(np.arange(n), [ds.y.size for ds in suite.domains])
    if per_class:
        group += n * np.concatenate([ds.y for ds in suite.domains])
    kernel, _, bandwidth = rbf_kernel(z.data, BatchLabels(group), bandwidth)
    sizes = np.bincount(group, minlength=classes * n)
    indicator = np.eye(sizes.size)[group] / sizes[group, None]
    blocks = indicator.T @ kernel @ indicator
    means = np.diag(blocks)
    matrix = np.triu(means[:, None] + means - 2.0 * blocks, k=1)
    matrix += matrix.T
    matrix[sizes == 0] = matrix[:, sizes == 0] = np.nan
    cells = np.arange(classes)
    stack = matrix.reshape(classes, n, classes, n)[cells, :, cells]
    return (stack if per_class else stack[0]), bandwidth


def prediction_agreement(params: models.ModelParams, suite: DomainSuite,
                         probe_size: int = 100, seed: int = 0) -> float:
    """Fraction of probed base points predicted identically in every domain.

    Probes base_ids present in all domains. Invariant to any strictly
    monotone rescaling of the logits because only the argmax is compared.
    """
    common = None
    for dataset in suite.domains:
        ids = set(dataset.base_id.tolist())
        common = ids if common is None else (common & ids)
    if not common:
        raise DiagnosticUnavailableError("no base_id is present in every domain")
    common = np.array(sorted(common), dtype=np.int64)
    rng = np.random.default_rng(seed)
    if common.size > probe_size:
        common = np.sort(rng.choice(common, size=probe_size, replace=False))
    predictions = []
    for dataset in suite.domains:
        pos = {int(b): i for i, b in enumerate(dataset.base_id)}
        rows = np.array([pos[int(b)] for b in common], dtype=np.intp)
        predictions.append(models.predict(params, dataset.x[rows]))
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


def _mean_batch_kl(params: models.ModelParams, suite: DomainSuite, per_class_per_domain: int,
                   paired: bool, seed: int, salt: int, n_batches: int) -> float:
    """Mean hir_kl over ``n_batches`` sampled batches, spanning epochs as
    needed; each epoch's share one layout, so they are one stacked pass."""
    plan = BatchPlan(suite, per_class_per_domain, paired)
    if plan.n_batches == 0:
        raise DiagnosticUnavailableError("sampler produced no batches")
    labels = BatchLabels(plan.labels, plan.domains)
    values: list[float] = []
    for epoch in range(-(-n_batches // plan.n_batches)):
        x = plan.draw([seed, salt, epoch])[0][:n_batches - len(values)]
        log_probs = models.log_posteriors(params, x.reshape(-1, x.shape[-1]))
        loss, _ = hir_kl(log_probs.reshape(x.shape[:2] + log_probs.shape[-1:]), labels)
        values += loss.data.reshape(-1).tolist()
    return float(np.mean(values))


def paired_vs_unpaired_kl(params: models.ModelParams, suite: DomainSuite,
                          per_class_per_domain: int = 1, seed: int = 0,
                          n_batches: int = 50) -> tuple[float, float]:
    """Mean posterior-alignment loss over paired vs unpaired sampled batches.

    Both modes use matched batch sizes; means are over ``n_batches``
    batches each. Requires the suite's paired structure for the first
    component.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", category=UserWarning)
        paired_mean = _mean_batch_kl(params, suite, per_class_per_domain,
                                     True, seed, 0, n_batches)
    unpaired_mean = _mean_batch_kl(params, suite, per_class_per_domain,
                                   False, seed, 1, n_batches)
    return paired_mean, unpaired_mean


def collect_bundle(params: models.ModelParams, suite: DomainSuite,
                   per_class_per_domain: int = 1, probe_size: int = 100,
                   seed: int = 0, bandwidth: float | None = None) -> DiagnosticsBundle:
    """Run every probe once and package the results."""
    domain_mmd, used_bw = domain_alignment_matrix(params, suite, bandwidth=bandwidth)
    class_mmd, _ = domain_alignment_matrix(params, suite, per_class=True, bandwidth=used_bw)
    try:
        agreement = prediction_agreement(params, suite, probe_size=probe_size, seed=seed)
    except DiagnosticUnavailableError:
        agreement = None
    try:
        paired_mean, unpaired_mean = paired_vs_unpaired_kl(
            params, suite, per_class_per_domain=per_class_per_domain, seed=seed)
    except DiagnosticUnavailableError:
        paired_mean = None
        unpaired_mean = _mean_batch_kl(params, suite, per_class_per_domain,
                                       False, seed, 1, 50)
    x, labels = _probe_batch(suite, per_class_per_domain, seed)
    return DiagnosticsBundle(
        domain_mmd=domain_mmd,
        class_mmd=class_mmd,
        agreement=agreement,
        paired_kl_mean=paired_mean,
        unpaired_kl_mean=unpaired_mean,
        posterior_kl=posterior_kl_matrix(params, x, labels),
        bandwidth=used_bw,
    )


def _probe_batch(suite: DomainSuite, per_class_per_domain: int, seed: int):
    for x, labels in stratified_batches(suite, per_class_per_domain, paired=False, seed=seed):
        return x, labels
    raise DiagnosticUnavailableError("sampler produced no batches")


def bundle_to_jsonable(bundle: DiagnosticsBundle) -> dict:
    present = ~np.isnan(bundle.posterior_kl)
    return {
        "domain_mmd": bundle.domain_mmd.tolist(),
        "mean_offdiag_mmd": bundle.mean_offdiag_mmd(),
        "agreement": bundle.agreement,
        "paired_kl_mean": bundle.paired_kl_mean,
        "unpaired_kl_mean": bundle.unpaired_kl_mean,
        "posterior_kl_sum": float(np.nansum(bundle.posterior_kl)),
        "posterior_kl_pairs": int(present.sum()),
        "bandwidth": bundle.bandwidth,
    }


def write_domain_mmd_csv(matrix: np.ndarray, domain_params: list[float], path) -> None:
    """Square MMD matrix with a header row of the domain angles."""
    with open(path, "w") as fh:
        fh.write(",".join(f"{a:g}" for a in domain_params) + "\n")
        for row in matrix:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def write_posterior_kl_csv(params: models.ModelParams, x, labels: BatchLabels, path) -> None:
    """Rows ``i,j,class,value`` for every present upper-triangle entry."""
    log_probs = models.log_posteriors(params, np.asarray(x, dtype=np.float64))
    i_idx, j_idx, kl = pairwise_kl(log_probs, labels)
    with open(path, "w") as fh:
        fh.write("i,j,class,value\n")
        for i, j, v in zip(i_idx, j_idx, kl):
            fh.write(f"{i},{j},{labels.labels[i]},{v:.17g}\n")


def write_diag_summary(bundle: DiagnosticsBundle, path, extra: dict | None = None) -> None:
    payload = {
        "agreement": bundle.agreement,
        "paired_kl_mean": bundle.paired_kl_mean,
        "unpaired_kl_mean": bundle.unpaired_kl_mean,
        "bandwidth": bundle.bandwidth,
    }
    if extra:
        payload.update(extra)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

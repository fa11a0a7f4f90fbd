"""Training objectives: cross-entropy, pairwise posterior-alignment (KL),
and the two feature-alignment baselines (RBF-kernel MMD and same-class
cross-domain distance).

All functions accept plain arrays or graph-attached tensors; losses built
on attached tensors are differentiable through the recording graph. Each
loss is one node (``autodiff.emit``) with an analytic backward: the pair
sums of HIR, MMD and CCSA are evaluated in closed form, never pair by pair
on the tape. The posterior-alignment loss works on log-space posteriors
throughout, so no probability clamping is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError

__all__ = [
    "BatchLabels",
    "LossBreakdown",
    "cross_entropy",
    "hir_kl",
    "combined_loss",
    "mmd_rbf",
    "class_conditional_align",
    "domain_mmd_penalty",
    "median_bandwidth",
    "same_class_pairs",
]


@dataclass
class BatchLabels:
    """Per-sample class labels, source-domain indices and optional pair ids.

    ``pair_id`` marks paired provenance: rows sharing a pair id are the same
    base point observed under different domains. ``None`` means unpaired.
    """

    labels: np.ndarray
    domains: np.ndarray | None = None
    pair_id: np.ndarray | None = None

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        if self.domains is not None:
            self.domains = np.asarray(self.domains, dtype=np.int64).reshape(-1)
            if self.domains.shape != self.labels.shape:
                raise ContractError("domains and labels must have the same length")
        if self.pair_id is not None:
            self.pair_id = np.asarray(self.pair_id, dtype=np.int64).reshape(-1)
            if self.pair_id.shape != self.labels.shape:
                raise ContractError("pair_id and labels must have the same length")

    def __len__(self) -> int:
        return self.labels.size

    @property
    def paired(self) -> bool:
        return self.pair_id is not None


@dataclass
class LossBreakdown:
    """One objective evaluation: L = classification + alpha * hir.

    ``hir`` is the alignment term (the feature penalty for the MMD and CCSA
    baselines). It is None when the term was never constructed
    (alpha == 0), in which case ``combined`` is the classification tensor
    itself. ``pair_count`` is the number of KL terms summed (0 without one).
    """

    classification: Tensor
    hir: Tensor | None
    combined: Tensor
    alpha: float
    pair_count: int

    @property
    def classification_value(self) -> float:
        return self.classification.item()

    @property
    def hir_value(self) -> float:
        return 0.0 if self.hir is None else self.hir.item()

    @property
    def combined_value(self) -> float:
        return self.combined.item()


def _label_info(labels) -> tuple[np.ndarray, np.ndarray | None]:
    if isinstance(labels, BatchLabels):
        return labels.labels, labels.domains
    return np.asarray(labels, dtype=np.int64).reshape(-1), None


def cross_entropy(log_probs, labels) -> Tensor:
    """Mean negative log-probability of the true class.

    ``log_probs`` rows are log-space posteriors (as from ``log_softmax``);
    the one-hot form of the usual sum reduces to picking one entry per row.
    """
    log_probs = ad.as_tensor(log_probs)
    y, _ = _label_info(labels)
    n, m = log_probs.shape
    if y.size != n:
        raise ContractError(f"{y.size} labels for {n} rows")
    if n < 1:
        raise ContractError("cross_entropy needs at least one sample")
    if y.min() < 0 or y.max() >= m:
        raise ContractError(f"label out of range [0, {m})")
    onehot = np.zeros((n, m))
    onehot[np.arange(n), y] = 1.0
    scale = -1.0 / n
    value = np.array([[(log_probs.data * onehot).sum() * scale]])
    return ad.emit("cross_entropy", (log_probs,), value, lambda up: (onehot * (up[0, 0] * scale),))


def same_class_pairs(labels) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i < j in batch order, with equal class labels.

    Classes with fewer than two samples contribute no pairs.
    """
    y, _ = _label_info(labels)
    firsts, seconds = [], []
    for c in np.unique(y):
        idx = np.flatnonzero(y == c)
        if idx.size < 2:
            continue
        iu, ju = np.triu_indices(idx.size, k=1)
        firsts.append(idx[iu])
        seconds.append(idx[ju])
    if not firsts:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    return np.concatenate(firsts), np.concatenate(seconds)


def _groups(*keys: np.ndarray) -> list[np.ndarray]:
    """Row indices, in batch order, of each distinct combination of the keys.

    Each key is replaced by its dense rank (< n), so the mixed-radix code in
    base n is distinct per combination.
    """
    code = np.zeros(len(keys[0]), dtype=np.int64)
    for key in keys:
        code = code * len(key) + np.unique(key, return_inverse=True)[1].reshape(-1)
    return [np.flatnonzero(code == g) for g in np.unique(code)]


def _pair_sums(groups, p: np.ndarray, lp: np.ndarray):
    """Per row, within its group: the sum of p over earlier rows, the sum of
    lp over later rows and the number of later rows (an (n, 1) column)."""
    earlier, later, n_later = np.zeros_like(p), np.zeros_like(lp), np.zeros((len(p), 1))
    for idx in groups:
        earlier[idx[1:]] = np.cumsum(p[idx[:-1]], axis=0)
        later[idx[:-1]] = np.cumsum(lp[idx[:0:-1]], axis=0)[::-1]
        n_later[idx, 0] = np.arange(idx.size - 1, -1, -1)
    return earlier, later, n_later


def hir_kl(log_probs, labels, cross_domain_only: bool = False,
           normalize: bool = False) -> tuple[Tensor, int]:
    """Posterior-alignment loss: summed KL divergence over same-class pairs.

    For every same-class ordered pair (i, j) with i earlier in the batch,
    adds KL(p_i || p_j) = sum_k p_i[k] * (log p_i[k] - log p_j[k]) with
    p = exp(log_probs), one direction per pair. Returns the loss and the
    number of KL terms.

    One tape node, O(n m): the sum is sum_i p_i . (c_i log p_i - S_i), S_i
    summing log p_j over the c_i later same-class rows; its gradient in
    log p is p o (c log p - S + c) - P, P_i summing p_j over the earlier ones.

    ``normalize`` divides by the term count so the scale is decoupled from
    batch size; ``cross_domain_only`` drops pairs drawn from a single
    domain, by subtracting the same sums taken per (class, domain).
    """
    log_probs = ad.as_tensor(log_probs)
    y, doms = _label_info(labels)
    if cross_domain_only and doms is None:
        raise ContractError("cross_domain_only needs domain indices")
    lp = log_probs.data
    p = np.exp(lp)
    earlier_p, later_lp, n_later = _pair_sums(_groups(y), p, lp)
    if cross_domain_only:
        cell_p, cell_lp, cell_n = _pair_sums(_groups(y, doms), p, lp)
        earlier_p, later_lp, n_later = earlier_p - cell_p, later_lp - cell_lp, n_later - cell_n
    pair_count = int(n_later.sum())
    if pair_count == 0:
        return ad.tensor(0.0), 0
    scale = 1.0 / pair_count if normalize else 1.0
    value = np.array([[np.sum(p * (n_later * lp - later_lp)) * scale]])

    def back(up):
        return ((up[0, 0] * scale) * (p * (n_later * lp - later_lp + n_later) - earlier_p),)

    return ad.emit("hir_kl", (log_probs,), value, back), pair_count


def pairwise_kl(log_probs, labels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Detached per-pair KL values for every same-class pair (i < j).

    Returns (i_idx, j_idx, kl) as plain arrays; their sum equals the
    default ``hir_kl`` loss value.
    """
    lp = log_probs.data if isinstance(log_probs, Tensor) else np.asarray(log_probs, dtype=np.float64)
    i_idx, j_idx = same_class_pairs(labels)
    if i_idx.size == 0:
        return i_idx, j_idx, np.empty(0)
    lp_i, lp_j = lp[i_idx], lp[j_idx]
    kl = np.sum(np.exp(lp_i) * (lp_i - lp_j), axis=1)
    return i_idx, j_idx, kl


def combined_loss(log_probs, labels, alpha: float, cross_domain_only: bool = False,
                  normalize_hir: bool = False) -> LossBreakdown:
    """Classification loss plus ``alpha`` times the posterior-alignment loss.

    alpha == 0 skips the alignment term entirely: the combined tensor IS
    the classification tensor, so the recorded graph is identical to one
    that never knew about alignment.
    """
    if alpha < 0:
        raise ConfigError(f"alpha must be >= 0, got {alpha}")
    classification = cross_entropy(log_probs, labels)
    if alpha == 0:
        return LossBreakdown(classification, None, classification, 0.0, 0)
    hir, pair_count = hir_kl(log_probs, labels, cross_domain_only=cross_domain_only,
                             normalize=normalize_hir)
    combined = classification + hir * alpha
    return LossBreakdown(classification, hir, combined, alpha, pair_count)


def _sq_dists(z: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between every two rows of z, clipped at 0."""
    sq = np.sum(z * z, axis=1)
    return np.maximum(sq[:, None] + sq[None, :] - 2.0 * (z @ z.T), 0.0)


def _mmd_sum(parts: tuple[Tensor, ...], domains: np.ndarray, bandwidth: float) -> Tensor:
    """Mean squared RBF MMD over the domain pairs of the stacked rows z of
    ``parts``, as one node: sum_ij W_ij K_ij, K_ij = exp(gamma |z_i - z_j|^2)
    with gamma = -1 / (2 bandwidth^2). W is the mean over domain pairs a < b
    of (u_a - u_b)(u_a - u_b)^T, u_a being domain a's row indicator over its
    size. The gradient is 4 gamma (diag((W o K) 1) z - (W o K) z).
    """
    if bandwidth <= 0:
        raise ConfigError(f"bandwidth must be positive, got {bandwidth}")
    _, inverse, sizes = np.unique(domains, return_inverse=True, return_counts=True)
    w = 1.0 / sizes[inverse]
    same = inverse[:, None] == inverse[None, :]
    weights = np.outer(w, w) * (sizes.size * same - 1.0) / (sizes.size * (sizes.size - 1) / 2)
    z = np.vstack([t.data for t in parts])
    gamma = -1.0 / (2.0 * bandwidth * bandwidth)
    wk = weights * np.exp(gamma * _sq_dists(z))

    def back(up):
        grad = (4.0 * gamma * up[0, 0]) * (wk.sum(axis=1, keepdims=True) * z - wk @ z)
        rows = np.split(grad, np.cumsum([t.shape[0] for t in parts[:-1]]))
        return tuple(g for t, g in zip(parts, rows) if t.graph is not None)

    return ad.emit("mmd", parts, np.array([[wk.sum()]]), back)


def mmd_rbf(z_a, z_b, bandwidth: float) -> Tensor:
    """Biased (V-statistic) squared MMD with a Gaussian kernel.

    mean k(a, a') + mean k(b, b') - 2 mean k(a, b), where
    k(u, v) = exp(-||u - v||^2 / (2 * bandwidth^2)), as one tape node.
    """
    z_a, z_b = ad.as_tensor(z_a), ad.as_tensor(z_b)
    return _mmd_sum((z_a, z_b), np.repeat([0, 1], [z_a.shape[0], z_b.shape[0]]), bandwidth)


def median_bandwidth(z, fallback: float = 1.0) -> float:
    """Median pairwise Euclidean distance; ``fallback`` if it degenerates."""
    arr = z.data if isinstance(z, Tensor) else np.asarray(z, dtype=np.float64)
    n = arr.shape[0]
    if n < 2:
        return fallback
    med = float(np.median(np.sqrt(_sq_dists(arr)[np.triu_indices(n, k=1)])))
    return med if med > 0 else fallback


def _spread(groups, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row: its group's size (an (n, 1) column) and its offset from the group mean."""
    sizes, offsets = np.zeros((len(z), 1)), np.zeros_like(z)
    for idx in groups:
        sizes[idx], offsets[idx] = idx.size, z[idx] - z[idx].mean(axis=0)
    return sizes, offsets


def class_conditional_align(z, labels, domains=None) -> Tensor:
    """Mean squared distance between same-class rows from different domains.

    Zero when the batch has no cross-domain same-class pair. Within n rows,
    sum_{i<j} ||z_i - z_j||^2 = n sum_i ||z_i - mean||^2; the cross-domain
    sum is that of each class less that of each (class, domain) cell.
    """
    z = ad.as_tensor(z)
    y, doms = _label_info(labels)
    if domains is not None:
        doms = np.asarray(domains, dtype=np.int64).reshape(-1)
    if doms is None:
        raise ContractError("class_conditional_align needs domain indices")
    class_n, class_dev = _spread(_groups(y), z.data)
    cell_n, cell_dev = _spread(_groups(y, doms), z.data)
    pair_count = int((class_n - cell_n).sum()) // 2
    if pair_count == 0:
        return ad.tensor(0.0)
    total = np.sum(class_n * class_dev * class_dev) - np.sum(cell_n * cell_dev * cell_dev)

    def back(up):
        return ((2.0 * up[0, 0] / pair_count) * (class_n * class_dev - cell_n * cell_dev),)

    return ad.emit("ccsa", (z,), np.array([[total / pair_count]]), back)


def domain_mmd_penalty(z, domains, bandwidth: float | None = None) -> Tensor:
    """Mean RBF MMD between the z-rows of every pair of domains in the batch.

    Bandwidth defaults to the median pairwise-distance heuristic over the
    whole batch, computed on detached values (it is a constant of the loss,
    not differentiated).
    """
    z = ad.as_tensor(z)
    doms = np.asarray(domains, dtype=np.int64).reshape(-1)
    if doms.size != z.shape[0]:
        raise ContractError("one domain index per z row required")
    if bandwidth is None:
        bandwidth = median_bandwidth(z.data)
    if np.unique(doms).size < 2:
        return ad.tensor(0.0)
    return _mmd_sum((z,), doms, bandwidth)

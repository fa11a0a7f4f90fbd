"""Training objectives: cross-entropy, pairwise posterior-alignment (KL),
and the two feature-alignment baselines (RBF-kernel MMD and same-class
cross-domain distance).

All functions accept plain arrays or graph-attached tensors; losses built
on attached tensors are differentiable through the recording graph. Rows
are a matrix (one run) or a stack of matrices (one per run) that share one
label layout, and every loss gives one value per run. Each
loss is one node (``autodiff.emit``) with an analytic backward: the pair
sums of HIR, MMD and CCSA are evaluated in closed form, never pair by pair
on the tape. The posterior-alignment loss works on log-space posteriors
throughout, so no probability clamping is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    "rbf_kernel",
    "class_conditional_align",
    "domain_mmd_penalty",
    "median_bandwidth",
    "same_class_pairs",
]


@dataclass(frozen=True)
class BatchLabels:
    """Per-sample class labels, source-domain indices and optional pair ids.

    ``pair_id`` marks paired provenance: rows sharing a pair id are the same
    base point observed under different domains. ``None`` means unpaired.

    Frozen, with read-only arrays: copies of those given, or those given if
    already read-only and owning their memory, as a
    :class:`~hirnet.data.BatchPlan`'s layout is. So the layout fields the
    losses read (:meth:`onehot`, ``class_groups``, ``cell_groups``,
    ``mmd_weights`` and ``upper``) are computed on first use, read-only,
    and never stale; a training stack builds one for all its steps.
    """

    labels: np.ndarray
    domains: np.ndarray | None = None
    pair_id: np.ndarray | None = None
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("labels", "domains", "pair_id"):
            if getattr(self, name) is None:
                continue
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            if arr.ndim != 1 or arr.flags.writeable or arr.base is not None:
                arr = arr.reshape(-1).copy()
                arr.flags.writeable = False
            object.__setattr__(self, name, arr)
            if arr.shape != self.labels.shape:
                raise ContractError(f"{name} and labels must have the same length")

    def __len__(self) -> int:
        return self.labels.size

    @property
    def paired(self) -> bool:
        return self.pair_id is not None

    def _cached(self, key, make):
        """``make()``, computed on the first call per key, its arrays read-only."""
        if key not in self._cache:
            value = self._cache[key] = make()
            for arr in value if isinstance(value, tuple) else (value,):
                arr.flags.writeable = False
        return self._cache[key]

    def onehot(self, m: int) -> np.ndarray:
        """The (n, m) one-hot of the labels; raises if one is outside [0, m)."""
        def make():
            if self.labels.min() < 0 or self.labels.max() >= m:
                raise ContractError(f"label out of range [0, {m})")
            return np.eye(m)[self.labels]
        return self._cached(("onehot", m), make)

    @property
    def class_groups(self) -> tuple[np.ndarray, ...]:
        """Row indices of each class, in batch order."""
        return self._cached("class_groups", lambda: _groups(self.labels))

    @property
    def cell_groups(self) -> tuple[np.ndarray, ...]:
        """Row indices of each (class, domain) cell, in batch order."""
        return self._cached("cell_groups", lambda: _groups(self.labels, self.domains))

    @property
    def mmd_weights(self) -> np.ndarray:
        """W of :func:`_mmd_sum`: the mean over domain pairs a < b of
        (u_a - u_b)(u_a - u_b)^T, u_a being domain a's row indicator over its size."""
        def make():
            _, inverse, sizes = np.unique(self.domains, return_inverse=True, return_counts=True)
            w, same = 1.0 / sizes[inverse], inverse[:, None] == inverse[None, :]
            pairs = sizes.size * (sizes.size - 1) / 2
            return np.outer(w, w) * (sizes.size * same - 1.0) / pairs
        return self._cached("mmd_weights", make)

    @property
    def upper(self) -> np.ndarray:
        """The (n, n) i < j mask that :func:`_median_distance` reads pairs with."""
        return self._cached("upper", lambda: np.triu(np.ones((len(self),) * 2, dtype=bool), k=1))


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


def _as_labels(labels, domains=None) -> BatchLabels:
    """``labels`` itself, or a fresh :class:`BatchLabels` over plain arrays or new ``domains``."""
    if domains is None and isinstance(labels, BatchLabels):
        return labels
    return BatchLabels(labels.labels if isinstance(labels, BatchLabels) else labels, domains)


def _per_run(values: np.ndarray) -> np.ndarray:
    """Sum over each matrix: one (1, 1) scalar per run."""
    return values.sum(axis=(-2, -1), keepdims=True)


def _zero(rows: Tensor) -> Tensor:
    """A constant zero loss with one value per run of ``rows``."""
    return ad.tensor(np.zeros(rows.shape[:-2] + (1, 1)))


def cross_entropy(log_probs, labels) -> Tensor:
    """Mean negative log-probability of the true class.

    ``log_probs`` rows are log-space posteriors (as from ``log_softmax``);
    the one-hot form of the usual sum reduces to picking one entry per row.
    """
    log_probs = ad.as_tensor(log_probs)
    labels = _as_labels(labels)
    n, m = log_probs.shape[-2:]
    if len(labels) != n:
        raise ContractError(f"{len(labels)} labels for {n} rows")
    if n < 1:
        raise ContractError("cross_entropy needs at least one sample")
    onehot = labels.onehot(m)
    scale = -1.0 / n
    value = _per_run(log_probs.data * onehot) * scale
    return ad.emit("cross_entropy", (log_probs,), value, lambda up: (onehot * (up * scale),))


def same_class_pairs(labels) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i < j in batch order, with equal class labels.

    Classes with fewer than two samples contribute no pairs.
    """
    firsts, seconds = [], []
    for idx in _as_labels(labels).class_groups:
        if idx.size < 2:
            continue
        iu, ju = np.triu_indices(idx.size, k=1)
        firsts.append(idx[iu])
        seconds.append(idx[ju])
    if not firsts:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    return np.concatenate(firsts), np.concatenate(seconds)


def _groups(*keys: np.ndarray) -> tuple[np.ndarray, ...]:
    """Row indices, in batch order, of each distinct combination of the keys, in sorted order."""
    rows = np.stack(keys, axis=1)
    return tuple(np.flatnonzero((rows == key).all(axis=1)) for key in np.unique(rows, axis=0))


def _pair_sums(groups, p: np.ndarray, lp: np.ndarray):
    """Per row, within its group: the sum of p over earlier rows, the sum of
    lp over later rows and the number of later rows (an (n, 1) column)."""
    earlier, later = np.zeros_like(p), np.zeros_like(lp)
    n_later = np.zeros((p.shape[-2], 1))
    for idx in groups:
        earlier[..., idx[1:], :] = np.cumsum(p[..., idx[:-1], :], axis=-2)
        later[..., idx[:-1], :] = np.cumsum(lp[..., idx[:0:-1], :], axis=-2)[..., ::-1, :]
        n_later[idx, 0] = np.arange(idx.size - 1, -1, -1)
    return earlier, later, n_later


def hir_kl(log_probs, labels, cross_domain_only: bool = False,
           normalize: bool = False) -> tuple[Tensor, int]:
    """Posterior-alignment loss: summed KL divergence over same-class pairs.

    For every same-class ordered pair (i, j) with i earlier in the batch,
    adds KL(p_i || p_j) = sum_k p_i[k] * (log p_i[k] - log p_j[k]) with
    p = exp(log_probs), one direction per pair. Returns the loss and the
    number of KL terms, which the shared label layout makes the same for
    every run.

    One tape node, O(n m): the sum is sum_i p_i . (c_i log p_i - S_i), S_i
    summing log p_j over the c_i later same-class rows; its gradient in
    log p is p o (c log p - S + c) - P, P_i summing p_j over the earlier ones.

    ``normalize`` divides by the term count so the scale is decoupled from
    batch size; ``cross_domain_only`` drops pairs drawn from a single
    domain, by subtracting the same sums taken per (class, domain).
    """
    log_probs = ad.as_tensor(log_probs)
    labels = _as_labels(labels)
    if cross_domain_only and labels.domains is None:
        raise ContractError("cross_domain_only needs domain indices")
    lp = log_probs.data
    p = np.exp(lp)
    earlier_p, later_lp, n_later = _pair_sums(labels.class_groups, p, lp)
    if cross_domain_only:
        cell_p, cell_lp, cell_n = _pair_sums(labels.cell_groups, p, lp)
        earlier_p, later_lp, n_later = earlier_p - cell_p, later_lp - cell_lp, n_later - cell_n
    pair_count = int(n_later.sum())
    if pair_count == 0:
        return _zero(log_probs), 0
    scale = 1.0 / pair_count if normalize else 1.0
    value = _per_run(p * (n_later * lp - later_lp)) * scale

    def back(up):
        return ((up * scale) * (p * (n_later * lp - later_lp + n_later) - earlier_p),)

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
    sq = np.sum(z * z, axis=-1)
    dists = sq[..., :, None] + sq[..., None, :]
    dists -= 2.0 * (z @ z.swapaxes(-1, -2))
    return np.maximum(dists, 0.0, out=dists)


def rbf_kernel(z: np.ndarray, labels: BatchLabels, bandwidth=None):
    """(K, gamma, bandwidth) for the Gaussian kernel K_ij = exp(gamma |z_i - z_j|^2)
    over the rows of z, gamma = -1 / (2 bandwidth^2), with ``exp`` taken in place
    over the squared distances. ``bandwidth`` is one value, or one per run of a
    stack, each positive with a finite gamma; ``None`` takes :func:`median_bandwidth`
    of z, per run, from those distances and the i < j mask ``labels.upper``."""
    sq_dists = _sq_dists(z)
    if bandwidth is None:
        bandwidth = _median_distance(sq_dists, labels.upper)
    spread = np.asarray(bandwidth, dtype=np.float64).reshape((-1,) + (1,) * (z.ndim - 1))
    with np.errstate(divide="ignore", over="ignore"):
        gamma = -1.0 / (2.0 * spread * spread)
    if not np.all((spread > 0) & np.isfinite(gamma)):
        raise ConfigError(f"bandwidth must be positive with a finite 1 / (2 bandwidth^2), "
                          f"got {spread.reshape(-1).tolist()}")
    sq_dists *= gamma
    return np.exp(sq_dists, out=sq_dists), gamma, bandwidth


def _mmd_sum(parts: tuple[Tensor, ...], labels: BatchLabels, bandwidth=None) -> Tensor:
    """Mean squared RBF MMD over the domain pairs of the stacked rows z of
    ``parts``, as one node: sum_ij W_ij K_ij, with K the :func:`rbf_kernel`
    of z and W the ``mmd_weights`` of the rows' ``labels``. The gradient is
    4 gamma (diag((W o K) 1) z - (W o K) z).
    """
    z = np.concatenate([t.data for t in parts], axis=-2)
    wk, gamma, _ = rbf_kernel(z, labels, bandwidth)
    wk *= labels.mmd_weights

    def back(up):
        grad = (4.0 * gamma * up) * (wk.sum(axis=-1, keepdims=True) * z - wk @ z)
        rows = np.split(grad, np.cumsum([t.shape[-2] for t in parts[:-1]]), axis=-2)
        return tuple(g for t, g in zip(parts, rows) if t.graph is not None)

    return ad.emit("mmd", parts, _per_run(wk), back)


def mmd_rbf(z_a, z_b, bandwidth: float) -> Tensor:
    """Biased (V-statistic) squared MMD with a Gaussian kernel.

    mean k(a, a') + mean k(b, b') - 2 mean k(a, b), where
    k(u, v) = exp(-||u - v||^2 / (2 * bandwidth^2)), as one tape node.
    """
    z_a, z_b = ad.as_tensor(z_a), ad.as_tensor(z_b)
    sizes = [z_a.shape[-2], z_b.shape[-2]]
    return _mmd_sum((z_a, z_b), BatchLabels(np.zeros(sum(sizes)), np.repeat([0, 1], sizes)),
                    bandwidth)


def median_bandwidth(z, fallback: float = 1.0):
    """Median pairwise Euclidean distance; ``fallback`` if it degenerates.

    A float for a matrix of rows, one value per run for a stack of them.
    """
    arr = z.data if isinstance(z, Tensor) else np.asarray(z, dtype=np.float64)
    return _median_distance(_sq_dists(arr), BatchLabels(np.zeros(arr.shape[-2])).upper, fallback)


def _median_distance(sq_dists: np.ndarray, upper: np.ndarray, fallback: float = 1.0):
    """:func:`median_bandwidth` from the rows' squared distances and their
    i < j mask ``upper``. It leaves the distances as they are: it takes the
    pairs out as a copy."""
    n = sq_dists.shape[-1]
    medians = []
    for dists in sq_dists.reshape(-1, n, n):
        pairs = dists[upper]
        med = float(np.median(np.sqrt(pairs, out=pairs), overwrite_input=True)) if n > 1 else 0.0
        medians.append(med if med > 0 else fallback)
    return medians[0] if sq_dists.ndim == 2 else np.array(medians)


def _spread(groups, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row: its group's size (an (n, 1) column) and its offset from the group mean."""
    sizes, offsets = np.zeros((z.shape[-2], 1)), np.zeros_like(z)
    for idx in groups:
        cell = z[..., idx, :]
        sizes[idx], offsets[..., idx, :] = idx.size, cell - cell.mean(axis=-2, keepdims=True)
    return sizes, offsets


def class_conditional_align(z, labels, domains=None) -> Tensor:
    """Mean squared distance between same-class rows from different domains.

    Zero when the batch has no cross-domain same-class pair. Within n rows,
    sum_{i<j} ||z_i - z_j||^2 = n sum_i ||z_i - mean||^2; the cross-domain
    sum is that of each class less that of each (class, domain) cell.
    """
    z = ad.as_tensor(z)
    labels = _as_labels(labels, domains)
    if labels.domains is None:
        raise ContractError("class_conditional_align needs domain indices")
    class_n, class_dev = _spread(labels.class_groups, z.data)
    cell_n, cell_dev = _spread(labels.cell_groups, z.data)
    pair_count = int((class_n - cell_n).sum()) // 2
    if pair_count == 0:
        return _zero(z)
    total = _per_run(class_n * class_dev * class_dev) - _per_run(cell_n * cell_dev * cell_dev)

    def back(up):
        return ((2.0 * up / pair_count) * (class_n * class_dev - cell_n * cell_dev),)

    return ad.emit("ccsa", (z,), total / pair_count, back)


def domain_mmd_penalty(z, domains, bandwidth: float | None = None) -> Tensor:
    """Mean RBF MMD between the z-rows of every pair of domains in the batch,
    given as a :class:`BatchLabels` or plain domain indices.

    Bandwidth defaults to the median pairwise-distance heuristic over the
    whole batch, per run, computed on detached values (it is a constant of
    the loss, not differentiated), from the kernel's squared distances.
    """
    z = ad.as_tensor(z)
    if not isinstance(domains, BatchLabels):
        domains = BatchLabels(np.zeros(np.size(domains)), domains)
    doms = domains.domains
    if doms is None or doms.size != z.shape[-2]:
        raise ContractError("one domain index per z row required")
    if np.all(doms == doms[:1]):  # fewer than two domains
        return _zero(z)
    return _mmd_sum((z,), domains, bandwidth)

"""Training objectives: cross-entropy, pairwise posterior-alignment (KL),
and the two feature-alignment baselines (RBF-kernel MMD and same-class
cross-domain distance).

All functions accept plain arrays or graph-attached tensors, and labels as
plain arrays or a :class:`BatchLabels`, except the MMD penalty, which reads
the batch's :class:`BatchLabels`. Losses built on attached tensors are
differentiable through the recording graph. Rows are a matrix (one run) or
a stack of matrices (one per run) that share one label layout, and every
loss gives one value per run. Each loss, and the weighted sum of two that
:func:`combined_loss` builds as the step objective of every loss kind, is
one node (``autodiff.emit``) with an analytic backward: the pair sums of
HIR, MMD and CCSA are evaluated in closed form (HIR's and CCSA's over
groups sorted into one order), never pair by pair. HIR works on log-space
posteriors throughout, so it never clamps a probability.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError


@dataclass(frozen=True)
class BatchLabels:
    """Per-sample class labels and source-domain indices: a batch's layout.

    Frozen, with read-only arrays: copies of those given, or those given if
    already read-only and owning their memory. So the layout fields the
    losses read (:meth:`onehot`, :meth:`segments`, ``mmd_weights`` and
    ``upper``) are computed on first use, read-only, and never stale. Each
    :class:`~hirnet.data.BatchPlan` holds one, whose arrays are its layout,
    and every step and probe batch drawn from the plan reads it.
    """

    labels: np.ndarray
    domains: np.ndarray | None = None
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("labels", "domains"):
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

    def segments(self, *keys: str) -> Segments:
        """The :func:`_segments` of the named fields; "labels", "domains" gives the cells."""
        return self._cached(keys, lambda: _segments(*(getattr(self, key) for key in keys)))

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
        """The (n, n) i < j mask that :func:`_mmd_sum` reads each run's pairs with."""
        return self._cached("upper", lambda: np.triu(np.ones((len(self),) * 2, dtype=bool), k=1))


Segments = namedtuple("Segments", "order inverse spans n_later")


def _segments(*keys: np.ndarray) -> Segments:
    """The groups of rows equal in every key as one order: ``order`` sorts the rows by key,
    stably, ``inverse`` is each row's place in it, ``spans`` holds each group's (start, end)
    there and ``n_later`` is the (n, 1) column of each row's count of later rows in its group."""
    order = np.lexsort(keys[::-1])
    starts = np.r_[order.size > 0, np.diff(np.stack(keys)[:, order], axis=1).any(axis=0)]
    bounds = np.append(np.flatnonzero(starts), order.size)
    inverse, ends = np.argsort(order), np.repeat(bounds[1:], np.diff(bounds))
    n_later = (ends - 1.0 - np.arange(order.size))[inverse, None]
    return Segments(order, inverse, np.stack((bounds[:-1], bounds[1:]), axis=1), n_later)


@dataclass
class LossBreakdown:
    """One objective evaluation, L = classification + alpha * hir: ``hir`` is the
    alignment term (the feature penalty for the MMD and CCSA baselines), or None
    when it was never constructed ("agg", or alpha 0) and ``combined`` is ``classification``."""

    classification: Tensor
    hir: Tensor | None
    combined: Tensor


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


def _pair_sums(segments: Segments, p: np.ndarray, lp: np.ndarray) -> np.ndarray:
    """Per row, stacked: the sum of p over the earlier rows of its group and of
    lp over the later ones, as running sums over its span of ``segments.order``.
    Groups of one width are one (groups, width) grid: one sum per direction."""
    ordered, sums = np.take(np.stack((p, lp)), segments.order, axis=-2), np.zeros((2,) + p.shape)
    rows, out, spans = ordered, sums, segments.spans.tolist()
    widths = {end - start for start, end in spans}
    if len(widths) == 1:  # views of ordered and sums, so the sums land in sums
        grid = ordered.shape[:-2] + (-1, *widths, p.shape[-1])
        rows, out, spans = ordered.reshape(grid), sums.reshape(grid), [(0, *widths)]
    for start, end in spans:
        np.cumsum(rows[0, ..., start:end - 1, :], axis=-2, out=out[0, ..., start + 1:end, :])
        np.cumsum(rows[1, ..., end - 1:start:-1, :], axis=-2,
                  out=out[1, ..., start:end - 1, :][..., ::-1, :])
    return np.take(sums, segments.inverse, axis=-2)


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
    S and P are running sums over ``labels``' class segments; the backward reuses c log p - S.
    Accurate in absolute terms, not relative ones: a loss near 0 may have no correct digit.

    ``normalize`` divides by the term count so the scale is decoupled from
    batch size; ``cross_domain_only`` drops pairs drawn from a single
    domain, by subtracting the same sums taken per (class, domain).
    """
    log_probs = ad.as_tensor(log_probs)
    labels = _as_labels(labels)
    if cross_domain_only and labels.domains is None:
        raise ContractError("cross_domain_only needs domain indices")
    classes = labels.segments("labels")
    cells = labels.segments("labels", "domains") if cross_domain_only else None
    n_later = classes.n_later if cells is None else classes.n_later - cells.n_later
    pair_count = int(n_later.sum())
    if pair_count == 0:
        return _zero(log_probs), 0
    lp = log_probs.data
    p = np.exp(lp)
    sums = _pair_sums(classes, p, lp)
    earlier_p, later_lp = sums if cells is None else sums - _pair_sums(cells, p, lp)
    scale = 1.0 / pair_count if normalize else 1.0
    gap = n_later * lp - later_lp
    value = _per_run(p * gap) * scale

    def back(up):
        return ((up * scale) * (p * (gap + n_later) - earlier_p),)

    return ad.emit("hir_kl", (log_probs,), value, back), pair_count


def pairwise_kl(log_probs, labels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Detached per-pair KL values for every same-class pair (i < j).

    Returns (i_idx, j_idx, kl) as plain arrays, ordered by (class, i, j);
    their sum equals the default ``hir_kl`` loss value.
    """
    lp = log_probs.data if isinstance(log_probs, Tensor) else np.asarray(log_probs, dtype=np.float64)
    y = _as_labels(labels).labels
    i_idx, j_idx = np.nonzero(np.triu(y[:, None] == y[None, :], k=1))
    order = np.argsort(y[i_idx], kind="stable")
    i_idx, j_idx = i_idx[order], j_idx[order]
    lp_i, lp_j = lp[i_idx], lp[j_idx]
    kl = np.sum(np.exp(lp_i) * (lp_i - lp_j), axis=1)
    return i_idx, j_idx, kl


def _sq_dists(z: np.ndarray, w: np.ndarray | None = None, out=None, gram=None,
              norms=None, w_norms=None) -> np.ndarray:
    """Squared Euclidean distances from every row of z to every row of w (default:
    z itself), (|z_i|^2 + |w_j|^2) - 2 z_i.w_j clipped at 0; into ``out`` and ``gram``
    (the z.w products) and from z's squared row ``norms``, if given; a w needs ``w_norms``."""
    norms = np.sum(z * z, axis=-1) if norms is None else norms
    w, w_norms = (z, norms) if w is None else (w, w_norms)
    dists = np.empty(z.shape[:-1] + w.shape[-2:-1]) if out is None else out
    dists[...] = w_norms[..., None, :]  # a row copy, then one broadcast add
    dists += norms[..., :, None]
    gram = np.matmul(z, w.swapaxes(-1, -2), out=gram)
    gram *= 2.0
    dists -= gram
    return np.maximum(dists, 0.0, out=dists)


def rbf_gamma(bandwidth, ndim: int, name: str = "bandwidth") -> np.ndarray:
    """gamma = -1 / (2 bandwidth^2), shaped to scale ``ndim``-dimensional distances: one value,
    or one per run of a stack, each computed as a Python float in numpy's order of operations.
    Raises ConfigError, naming the value ``name``, unless each is positive with a finite gamma."""
    spreads = np.asarray(bandwidth, dtype=np.float64).reshape(-1).tolist()
    gammas = [-1.0 / (2.0 * s * s) if s > 0 and 2.0 * s * s > 0 else math.nan for s in spreads]
    if not all(map(math.isfinite, gammas)):
        raise ConfigError(f"{name} must be positive with a finite 1 / (2 bandwidth^2), "
                          f"got {spreads}")
    return np.array(gammas).reshape((-1,) + (1,) * (ndim - 1))


def _mmd_sum(parts: tuple[Tensor, ...], labels: BatchLabels, bandwidth=None) -> Tensor:
    """Mean squared RBF MMD over the domain pairs of the stacked rows z of
    ``parts``, as one node: sum_ij W_ij K_ij, with W the ``mmd_weights`` of the
    rows' ``labels`` and K the Gaussian kernel K_ij = exp(gamma |z_i - z_j|^2),
    gamma from :func:`rbf_gamma` and ``exp`` taken in place over the squared
    distances. ``None`` takes the bandwidth per run as the
    :func:`median_distance` of those distances' pairs in the i < j mask
    ``labels.upper``: a constant of the loss, not differentiated. The gradient
    is 4 gamma (diag((W o K) 1) z - (W o K) z).
    """
    z = parts[0].data if len(parts) == 1 else np.concatenate([t.data for t in parts], axis=-2)
    wk = _sq_dists(z)
    if bandwidth is None:
        runs = wk[None] if z.ndim == 2 else wk
        bandwidth = [median_distance(dists[labels.upper]) for dists in runs]
    gamma = rbf_gamma(bandwidth, z.ndim)
    wk *= gamma
    np.exp(wk, out=wk)
    wk *= labels.mmd_weights

    def back(up):
        grad = (4.0 * gamma * up) * (wk.sum(axis=-1, keepdims=True) * z - wk @ z)
        return [grad] if len(parts) == 1 else np.split(
            grad, np.cumsum([t.shape[-2] for t in parts[:-1]]), axis=-2)

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


def median_distance(sq_pairs: np.ndarray) -> float:
    """The median of ``sqrt(sq_pairs)``, 1.0 if it is NaN or not positive or
    there is no pair: bitwise ``float(np.median(np.sqrt(sq_pairs)))`` for sq_pairs >= 0.
    As ``sqrt`` is monotone, it is taken (of Python floats) of the one or two middle values
    only, which one in-place partition of the 1-D ``sq_pairs`` at its upper middle selects."""
    half = sq_pairs.size // 2
    if sq_pairs.size == 0 or np.isnan(sq_pairs.max()):  # max is NaN if any is; no mask
        return 1.0
    sq_pairs.partition(half)  # the lower middle is then the largest value below
    med = math.sqrt(sq_pairs[half])
    med = med if sq_pairs.size % 2 else (math.sqrt(sq_pairs[:half].max()) + med) / 2.0
    return med if med > 0 else 1.0


def _spread(segments: Segments, z: np.ndarray) -> np.ndarray:
    """Per row, stacked: its offset from its group's mean times the group's
    size, and the offset, the mean taken over its span of ``segments.order``."""
    scaled, offsets = spread = np.empty((2,) + z.shape)
    np.take(z, segments.order, axis=-2, out=offsets)
    for start, end in segments.spans.tolist():
        rows = offsets[..., start:end, :]
        rows -= rows.mean(axis=-2, keepdims=True)
        np.multiply(rows, end - start, out=scaled[..., start:end, :])
    return np.take(spread, segments.inverse, axis=-2)


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
    classes, cells = labels.segments("labels"), labels.segments("labels", "domains")
    pair_count = int(classes.n_later.sum() - cells.n_later.sum())
    if pair_count == 0:
        return _zero(z)
    class_scaled, class_dev = _spread(classes, z.data)
    cell_scaled, cell_dev = _spread(cells, z.data)
    total = _per_run(class_scaled * class_dev) - _per_run(cell_scaled * cell_dev)

    def back(up):
        return ((2.0 * up / pair_count) * (class_scaled - cell_scaled),)

    return ad.emit("ccsa", (z,), total / pair_count, back)


def domain_mmd_penalty(z, labels: BatchLabels) -> Tensor:
    """Mean RBF MMD between the z-rows of every pair of the domains of the
    batch's ``labels``, at the median bandwidth of :func:`_mmd_sum`: over the
    whole batch, per run."""
    z = ad.as_tensor(z)
    if labels.domains is None or len(labels) != z.shape[-2]:
        raise ContractError("one domain index per z row required")
    if len(labels.segments("domains").spans) < 2:
        return _zero(z)
    return _mmd_sum((z,), labels)


LOSS_KINDS = ("agg", "hir", "mmd", "ccsa")


def combined_loss(log_probs, labels, alpha: float, kind: str = "hir", z=None,
                  cross_domain_only: bool = False, normalize: bool = False) -> LossBreakdown:
    """The step objective: cross-entropy plus ``alpha`` times the alignment term of ``kind``.

    Loss kinds: "agg" is cross-entropy only; "hir" adds the pairwise
    posterior-alignment term (:func:`hir_kl`, with ``cross_domain_only`` and
    ``normalize``); "mmd" and "ccsa" add the corresponding feature-alignment
    penalty on the latent ``z`` instead. The sum is one node. "agg", or
    alpha == 0, skips the alignment term entirely: the combined tensor IS
    the classification tensor, so the graph is identical to one that never
    knew about alignment.
    """
    if alpha < 0:
        raise ConfigError(f"alpha must be >= 0, got {alpha}")
    classification = cross_entropy(log_probs, labels)
    if kind == "agg" or alpha == 0:
        return LossBreakdown(classification, None, classification)
    if kind == "hir":
        term = hir_kl(log_probs, labels, cross_domain_only, normalize)[0]
    else:
        term = (domain_mmd_penalty if kind == "mmd" else class_conditional_align)(z, labels)
    return LossBreakdown(classification, term, ad.emit(
        "combined", (classification, term), classification.data + term.data * alpha,
        lambda up: (up, up * alpha)))

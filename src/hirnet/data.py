"""Synthetic ordered-domain data: rotated 2-D point clouds with shifted class
priors, and the batch-construction protocols used by the training harness.

A suite is an ordered list of domains generated from one set of base points;
:class:`SuiteSpec` alone describes, checks and builds one. Every domain
rotates the same base points by its own angle and then adds fresh Gaussian
noise, so the sample sharing ``base_id`` across domains is a near- (not
exact-) rotation of itself. That shared ``base_id`` is what makes
paired batches and the paired-prediction diagnostics possible.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, JsonConfig, check_int, check_real
from .losses import BatchLabels

DEFAULT_ANGLES = (0.0, 15.0, 30.0, 45.0, 60.0, 75.0)
GENERATOR_KINDS = ("moons", "gaussians")

# Offset that roughly centers the standard two-moons construction on the
# origin, so domain rotations spin the cloud in place.
_MOONS_CENTER = np.array([0.5, 0.25])
_GAUSSIAN_RADIUS = 2.0
_GAUSSIAN_SPREAD = 0.35


@dataclass
class DomainDataset:
    """Array-backed collection of samples from a single domain."""

    x: np.ndarray
    y: np.ndarray
    base_id: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64).reshape(-1)
        self.base_id = np.asarray(self.base_id, dtype=np.int64).reshape(-1)
        if self.x.shape[0] != self.y.size or self.y.size != self.base_id.size:
            raise ContractError("x, y and base_id must agree in length")

    def __len__(self) -> int:
        return self.y.size

    def subset(self, indices) -> "DomainDataset":
        idx = np.asarray(indices, dtype=np.intp)
        return DomainDataset(self.x[idx], self.y[idx], self.base_id[idx])

    def class_counts(self, class_count: int) -> np.ndarray:
        return np.bincount(self.y, minlength=class_count)


@dataclass
class DomainSuite:
    """Ordered domains plus the per-domain transformation parameter (degrees)."""

    domains: list[DomainDataset]
    domain_params: list[float]
    class_count: int

    def __post_init__(self):
        if len(self.domains) != len(self.domain_params):
            raise ContractError("one parameter per domain required")

    def __len__(self) -> int:
        return len(self.domains)

    @property
    def feature_dim(self) -> int:
        return self.domains[0].x.shape[1]

    def drop(self, index: int) -> "DomainSuite":
        """Suite without domain ``index``; shares the underlying arrays."""
        keep = [i for i in range(len(self.domains)) if i != index]
        return DomainSuite([self.domains[i] for i in keep],
                           [self.domain_params[i] for i in keep], self.class_count)


def rotate(points: np.ndarray, degrees: float) -> np.ndarray:
    """Counterclockwise rotation about the origin."""
    theta = np.deg2rad(degrees)
    c, s = np.cos(theta), np.sin(theta)
    return points @ np.array([[c, s], [-s, c]])


def _moons_base(n_per_class: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    t = rng.uniform(0.0, np.pi, size=n_per_class)
    upper = np.column_stack([np.cos(t), np.sin(t)])
    t = rng.uniform(0.0, np.pi, size=n_per_class)
    lower = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
    x = np.vstack([upper, lower]) - _MOONS_CENTER
    y = np.repeat([0, 1], n_per_class)
    return x, y


def _gaussians_base(n_per_class: int, class_count: int,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    blocks, labels = [], []
    for c in range(class_count):
        angle = 2.0 * np.pi * c / class_count
        center = _GAUSSIAN_RADIUS * np.array([np.cos(angle), np.sin(angle)])
        blocks.append(center + rng.normal(0.0, _GAUSSIAN_SPREAD, size=(n_per_class, 2)))
        labels.append(np.full(n_per_class, c))
    return np.vstack(blocks), np.concatenate(labels)


def _rotated_suite(spec: "SuiteSpec") -> DomainSuite:
    """The base points and one rotated, freshly noised domain per angle of a checked spec."""
    streams = np.random.SeedSequence(spec.seed).spawn(len(spec.angles) + 1)
    base_rng = np.random.default_rng(streams[0])
    if spec.kind == "moons":
        base_x, base_y = _moons_base(spec.n_per_class, base_rng)
        m = 2
    else:
        base_x, base_y = _gaussians_base(spec.n_per_class, spec.class_count, base_rng)
        m = spec.class_count
    base_ids = np.arange(base_y.size)
    domains = []
    for k, angle in enumerate(spec.angles):
        rng = np.random.default_rng(streams[k + 1])
        noise = rng.normal(0.0, spec.noise_sd, size=base_x.shape) if spec.noise_sd > 0 else 0.0
        domains.append(DomainDataset(rotate(base_x, angle) + noise, base_y.copy(), base_ids.copy()))
    return DomainSuite(domains, list(spec.angles), m)


def _apportion(target_probs: np.ndarray, available: np.ndarray) -> np.ndarray:
    """Largest subsample whose class mix matches ``target_probs`` within one.

    Total T is the largest integer with p_c * T <= available_c for every
    class with p_c > 0; counts are floor(p_c * T) topped up by largest
    fractional remainder until they sum to T.
    """
    with np.errstate(divide="ignore"):
        caps = np.where(target_probs > 0, available / np.where(target_probs > 0, target_probs, 1.0), np.inf)
    total = int(np.floor(caps.min()))
    raw = target_probs * total
    counts = np.floor(raw).astype(np.int64)
    remainder = total - counts.sum()
    if remainder > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:remainder]] += 1
    return counts


def _prior_shifted(suite: DomainSuite, probs: np.ndarray, seed: int) -> DomainSuite:
    """Each domain subsampled to the class mix of its row of a checked ``probs``."""
    streams = np.random.SeedSequence(seed).spawn(len(suite))
    shifted = []
    for d, dataset in enumerate(suite.domains):
        rng = np.random.default_rng(streams[d])
        counts = _apportion(probs[d], dataset.class_counts(suite.class_count))
        keep = []
        for c in range(suite.class_count):
            idx = np.flatnonzero(dataset.y == c)
            if counts[c] > 0:
                keep.append(rng.choice(idx, size=counts[c], replace=False))
        keep = np.sort(np.concatenate(keep)) if keep else np.empty(0, dtype=np.intp)
        shifted.append(dataset.subset(keep))
    return DomainSuite(shifted, list(suite.domain_params), suite.class_count)


def _last_rows(dataset: DomainDataset, ids: np.ndarray, cls: int | None = None) -> np.ndarray:
    """Row of each base_id in ``ids``, among the rows of class ``cls`` if given;
    a repeated id resolves to its last row."""
    rows = (np.arange(len(dataset)) if cls is None else np.flatnonzero(dataset.y == cls))[::-1]
    keys, first = np.unique(dataset.base_id[rows], return_index=True)
    return rows[first[np.searchsorted(keys, ids)]]


def _join(vectors) -> np.ndarray:
    """The index vectors end to end; none give an empty vector."""
    return np.concatenate([np.empty(0, dtype=np.intp), *vectors])


class BatchPlan:
    """The seed-free part of the epochs of batches drawn from ``suite``,
    derived once per training suite and handed to every user.

    A batch takes ``per_class_per_domain`` rows from each non-empty (domain,
    class) cell, domain-major, then class, so all batches share the read-only
    ``labels``, ``domains`` and ``batch_labels`` over both; an epoch has
    ``n_batches``. A cell draws from a pool: its rows, or, if paired, its
    class's base_ids common to all domains. The gather map holds each cell's
    source row per pool position, paired ids resolved once; runs of pools of
    one size share one grid of positions to shuffle. Plans with equal
    ``layout_key`` draw epochs that stack. Warns of each cell or class left out.
    An unpickled plan keeps these promises, with a fresh ``batch_labels``.
    """

    def __init__(self, suite: DomainSuite, per_class_per_domain: int, paired: bool = False):
        k = check_int("per_class_per_domain", per_class_per_domain, 1)
        cells: list[tuple[int, int, int]] = []  # (domain, class, index of its pool)
        pools: list[np.ndarray] = []
        if paired:
            for c in range(suite.class_count):
                common = None
                for dataset in suite.domains:
                    ids = np.unique(dataset.base_id[dataset.y == c], return_index=True)[0]
                    common = ids if common is None else np.intersect1d(common, ids, assume_unique=True)
                if common is None or common.size == 0:
                    warnings.warn(f"paired sampling: class {c} has no base_id common to all domains")
                else:
                    cells += [(d, c, len(pools)) for d in range(len(suite))]
                    pools.append(common)
            cells.sort()  # domain-major
        else:
            for d, dataset in enumerate(suite.domains):
                for c in range(suite.class_count):
                    idx = np.flatnonzero(dataset.y == c)
                    if idx.size == 0:
                        warnings.warn(f"empty cell: domain {d} has no samples of class {c}")
                    else:
                        cells.append((d, c, len(pools)))
                        pools.append(idx)
        self.labels = np.repeat(np.array([c for _, c, _ in cells], dtype=np.int64), k)
        self.domains = np.repeat(np.array([d for d, _, _ in cells], dtype=np.int64), k)
        self.labels.flags.writeable = self.domains.flags.writeable = False
        self.batch_labels = BatchLabels(self.labels, self.domains)
        self.domain_params = list(suite.domain_params)
        sizes = np.array([pool.size for pool in pools], dtype=np.intp)
        self.n_batches = int((-(-sizes // k)).max(initial=0))
        self._grids = [np.tile(np.arange(size), (len(list(run)), 1))
                       for size, run in itertools.groupby(sizes.tolist())]
        cell_pool = np.array([p for _, _, p in cells], dtype=np.intp)
        cell_sizes, slot_pool = sizes[cell_pool], np.repeat(cell_pool, k)
        # Slot s of batch b takes entry (b k + s mod k) mod size of its pool's
        # permutation, so a pool smaller than the epoch's draws cycles.
        cycled = np.arange(self.n_batches)[:, None] * k + np.arange(slot_pool.size) % k
        self._take = (np.cumsum(sizes) - sizes)[slot_pool] + cycled % sizes[slot_pool]
        self._cell_start = np.repeat(np.cumsum(cell_sizes) - cell_sizes, k)
        first_row = np.cumsum([0] + [len(dataset) for dataset in suite.domains])
        rows = _join(first_row[d] + (_last_rows(suite.domains[d], pools[p], c) if paired
                                     else pools[p]) for d, c, p in cells)
        self._x = np.concatenate([dataset.x for dataset in suite.domains])[rows]

    def __setstate__(self, state: dict) -> None:
        """numpy unpickles arrays writeable: freeze the layout again, in a new ``batch_labels``."""
        self.__dict__.update(state)
        self.batch_labels = BatchLabels(self.labels, self.domains)
        self.labels, self.domains = self.batch_labels.labels, self.batch_labels.domains

    @property
    def layout_key(self) -> tuple:
        """``labels``, ``domains``, ``n_batches`` and the domain count as one hashable key."""
        return (self.labels.tobytes(), self.domains.tobytes(), self.n_batches,
                len(self.domain_params))

    def draw(self, seed) -> np.ndarray:
        """One epoch's ``(n_batches, n, d)`` rows, whose labels and domains are the
        plan's. The draws are ``default_rng(seed)``'s permutations of each pool in turn:
        one ``permuted`` call per grid shuffles its rows in order, each with the draws of
        one ``permutation``. The rows are one ``take``."""
        rng = np.random.default_rng(seed)
        shuffled = _join(rng.permuted(grid, axis=1).ravel() for grid in self._grids)
        return self._x.take(self._cell_start + shuffled[self._take], axis=0)


def stratified_batches(suite: DomainSuite, per_class_per_domain: int, seed=0):
    """One epoch of batches, each with ``per_class_per_domain`` samples from
    every (domain, class) cell, each cell sampled independently.

    Cells smaller than the draw size cycle their shuffled samples (each
    sample reused at most once more than any other over the epoch); empty
    cells contribute nothing and raise a warning. Deterministic given
    ``seed``. Yields (x, BatchLabels) pairs.

    A thin generator over ``BatchPlan(suite, per_class_per_domain).draw(seed)``:
    every batch shares the plan's ``batch_labels``, whose read-only labels and
    domains depend on the suite and the draw size, not on ``seed``. Code
    that draws many epochs of one suite, or paired ones, builds its
    :class:`BatchPlan` once instead.
    """
    plan = BatchPlan(suite, per_class_per_domain)
    for x in plan.draw(seed):
        yield x, plan.batch_labels


@dataclass
class SuiteSpec(JsonConfig):
    """A suite: the one way to describe, check and build one, deterministically.

    ``build`` draws one base point cloud from ``seed``, ``n_per_class`` points
    per class: two half-moons for ``kind`` "moons", which is always binary, or
    ``class_count`` Gaussian blobs on a circle for "gaussians" (``class_count``
    applies to gaussians only). Domain k holds the base points rotated by
    ``angles[k]`` degrees plus fresh Gaussian noise of sd ``noise_sd``;
    ``base_id`` runs over the base points and is shared across domains. The
    angles must differ as written to the output files.

    ``prior_shift``, if given, is P(Y | D): one row per angle and one column
    per class, each entry in [0, 1] and each row summing to 1 within 1e-9.
    Each domain is then subsampled, from ``prior_shift_seed``, to the largest
    sample whose class mix matches its row within one; a zero empties that
    class, which later stages must tolerate. Retained samples keep their
    ``base_id``.

    Every value is checked here, so a bad config or manifest fails when read.
    """

    kind: str = "moons"
    n_per_class: int = 100
    angles: tuple[float, ...] = DEFAULT_ANGLES
    noise_sd: float = 0.08
    seed: int = 0
    class_count: int = 3
    prior_shift: list[list[float]] | None = None
    prior_shift_seed: int = 0

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ConfigError(f"unknown generator kind {self.kind!r}; "
                              f"expected one of {GENERATOR_KINDS}")
        if not isinstance(self.angles, (list, tuple)) or not self.angles:
            raise ConfigError(f"angles must be a non-empty list of numbers, got {self.angles!r}")
        self.angles = tuple(check_real("angles", a) for a in self.angles)
        labels = [f"{a:g}" for a in self.angles]  # each domain's name in the outputs
        if len(set(labels)) < len(labels):
            raise ConfigError(f"angles must differ as written to output files, got {labels}")
        self.n_per_class = check_int("n_per_class", self.n_per_class, 1)
        self.noise_sd = check_real("noise_sd", self.noise_sd, 0.0)
        self.seed = check_int("seed", self.seed, 0)
        self.class_count = check_int("class_count", self.class_count, 2)
        self.prior_shift_seed = check_int("prior_shift_seed", self.prior_shift_seed, 0)
        if self.prior_shift is not None:
            rows, m = self.prior_shift, 2 if self.kind == "moons" else self.class_count
            if (not isinstance(rows, (list, tuple)) or len(rows) != len(self.angles)
                    or not all(isinstance(row, (list, tuple)) and len(row) == m for row in rows)):
                raise ConfigError(f"prior_shift must be a (domains x classes) = "
                                  f"({len(self.angles)} x {m}) matrix, got {rows!r}")
            self.prior_shift = [[check_real("prior_shift", p, 0.0) for p in row] for row in rows]
            if np.max(self.prior_shift) > 1.0:  # before the row sums, which could overflow
                raise ConfigError(f"prior_shift entries must be <= 1, got {self.prior_shift}")
            if np.any(np.abs(np.sum(self.prior_shift, axis=1) - 1.0) > 1e-9):
                raise ConfigError(f"each row of prior_shift must sum to 1, got {self.prior_shift}")

    def build(self) -> DomainSuite:
        suite = _rotated_suite(self)
        if self.prior_shift is not None:
            suite = _prior_shifted(suite, np.array(self.prior_shift), self.prior_shift_seed)
        return suite

"""Synthetic ordered-domain data: rotated 2-D point clouds, class-prior
shifting, and the batch-construction protocols used by the training harness.

A suite is an ordered list of domains generated from one set of base points.
Every domain rotates the same base points by its own angle and then adds
fresh Gaussian noise, so the sample sharing ``base_id`` across domains is a
near- (not exact-) rotation of itself. That shared ``base_id`` is what makes
paired batches and the paired-prediction diagnostics possible.
"""

from __future__ import annotations

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


@dataclass
class PriorShiftSpec:
    """Per-domain class probabilities P(Y | D); each row sums to 1."""

    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 2:
            raise ConfigError("probs must be a (domains x classes) matrix")
        if np.any(self.probs < 0):
            raise ConfigError("class probabilities must be nonnegative")
        if np.any(np.abs(self.probs.sum(axis=1) - 1.0) > 1e-9):
            raise ConfigError("each domain's class probabilities must sum to 1")


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


def gen_rotated_suite(kind: str, n_per_class: int, angles=DEFAULT_ANGLES,
                      noise_sd: float = 0.08, seed: int = 0,
                      class_count: int = 3) -> DomainSuite:
    """Generate one base point cloud and one rotated domain per angle.

    Domain k holds the base points rotated by ``angles[k]`` plus fresh
    per-domain Gaussian noise of sd ``noise_sd``. ``base_id`` runs over the
    base points and is shared across domains. ``class_count`` only applies
    to the "gaussians" kind; "moons" is binary.
    """
    if kind not in GENERATOR_KINDS:
        raise ConfigError(f"unknown generator kind {kind!r}; expected one of {GENERATOR_KINDS}")
    angles = [float(a) for a in angles]
    if len(set(angles)) != len(angles):
        raise ConfigError("angles must be distinct")
    if n_per_class < 1:
        raise ConfigError("n_per_class must be >= 1")
    streams = np.random.SeedSequence(seed).spawn(len(angles) + 1)
    base_rng = np.random.default_rng(streams[0])
    if kind == "moons":
        base_x, base_y = _moons_base(n_per_class, base_rng)
        m = 2
    else:
        base_x, base_y = _gaussians_base(n_per_class, class_count, base_rng)
        m = class_count
    base_ids = np.arange(base_y.size)
    domains = []
    for k, angle in enumerate(angles):
        rng = np.random.default_rng(streams[k + 1])
        noise = rng.normal(0.0, noise_sd, size=base_x.shape) if noise_sd > 0 else 0.0
        domains.append(DomainDataset(rotate(base_x, angle) + noise, base_y.copy(), base_ids.copy()))
    return DomainSuite(domains, angles, m)


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


def apply_prior_shift(suite: DomainSuite, spec: PriorShiftSpec, seed: int = 0) -> DomainSuite:
    """Subsample each domain so its class frequencies match the spec.

    A class probability of zero empties that class, which later stages
    must tolerate. ``base_id`` values of retained samples are preserved.
    """
    if spec.probs.shape != (len(suite), suite.class_count):
        raise ConfigError(
            f"prior-shift spec shape {spec.probs.shape} does not match "
            f"({len(suite)}, {suite.class_count})"
        )
    streams = np.random.SeedSequence(seed).spawn(len(suite))
    shifted = []
    for d, dataset in enumerate(suite.domains):
        rng = np.random.default_rng(streams[d])
        counts = _apportion(spec.probs[d], dataset.class_counts(suite.class_count))
        keep = []
        for c in range(suite.class_count):
            idx = np.flatnonzero(dataset.y == c)
            if counts[c] > 0:
                keep.append(rng.choice(idx, size=counts[c], replace=False))
        keep = np.sort(np.concatenate(keep)) if keep else np.empty(0, dtype=np.intp)
        shifted.append(dataset.subset(keep))
    return DomainSuite(shifted, list(suite.domain_params), suite.class_count)


def _last_rows(dataset: DomainDataset, cls: int, ids: np.ndarray) -> np.ndarray:
    """Row of each (base_id, ``cls``) in ``ids``; a repeated pair resolves to its last row."""
    rows = np.flatnonzero(dataset.y == cls)[::-1]
    keys, first = np.unique(dataset.base_id[rows], return_index=True)
    return rows[first[np.searchsorted(keys, ids)]]


def stratified_batches(suite: DomainSuite, per_class_per_domain: int,
                       paired: bool = False, seed=0):
    """One epoch of batches, each with ``per_class_per_domain`` samples from
    every (domain, class) cell.

    Paired mode draws base_ids common to all domains per class, so every
    domain contributes the same base points; unpaired mode samples each
    cell independently. Cells smaller than the draw size cycle their
    shuffled samples (each sample reused at most once more than any other
    over the epoch); empty cells contribute nothing and raise a warning.
    Deterministic given ``seed``. Yields (x, BatchLabels) pairs.

    Each call plans its whole epoch up front: it makes every random draw,
    gathers each domain's rows for all batches with one fancy index, and
    then yields slices. All batches of one call share one label layout
    (domain-major, then class, ``per_class_per_domain`` rows per cell) and
    the same read-only ``labels`` and ``domains`` arrays. The layout and the
    batch count depend on the suite and the draw size, not on ``seed``, so
    runs with different seeds can stack their batches.
    """
    k = check_int("per_class_per_domain", per_class_per_domain, 1)
    rng = np.random.default_rng(seed)
    n_domains, m = len(suite), suite.class_count

    # (domain, class, shuffled draw order): row indices, or base_ids if paired.
    cells: list[tuple[int, int, np.ndarray]] = []
    if paired:
        usable: dict[int, np.ndarray] = {}
        for c in range(m):
            common = None
            for dataset in suite.domains:
                ids = np.unique(dataset.base_id[dataset.y == c])
                common = ids if common is None else np.intersect1d(common, ids, assume_unique=True)
            if common is None or common.size == 0:
                warnings.warn(f"paired sampling: class {c} has no base_id common to all domains")
            else:
                usable[c] = common[rng.permutation(common.size)]
        cells = [(d, c, ids) for d in range(n_domains) for c, ids in usable.items()]
    else:
        for d, dataset in enumerate(suite.domains):
            for c in range(m):
                idx = np.flatnonzero(dataset.y == c)
                if idx.size == 0:
                    warnings.warn(f"empty cell: domain {d} has no samples of class {c}")
                else:
                    cells.append((d, c, idx[rng.permutation(idx.size)]))
    if not cells:
        return
    n_batches = max(-(-order.size // k) for _, _, order in cells)
    take = np.arange(n_batches * k).reshape(n_batches, k)
    xs, pair_ids = [], []
    for d, dataset in enumerate(suite.domains):
        drawn = [(c, order[take % order.size]) for dd, c, order in cells if dd == d]
        if not drawn:
            continue
        if paired:
            pair_ids.extend(ids for _, ids in drawn)
            drawn = [(c, _last_rows(dataset, c, ids)) for c, ids in drawn]
        xs.append(dataset.x[np.hstack([rows for _, rows in drawn])])
    x = np.concatenate(xs, axis=1)
    pids = np.hstack(pair_ids) if paired else None
    labels = np.repeat(np.array([c for _, c, _ in cells], dtype=np.int64), k)
    domains = np.repeat(np.array([d for d, _, _ in cells], dtype=np.int64), k)
    labels.flags.writeable = domains.flags.writeable = False
    for b in range(n_batches):
        yield x[b], BatchLabels(labels, domains, None if pids is None else pids[b])


@dataclass
class SuiteSpec(JsonConfig):
    """Everything needed to regenerate a suite deterministically."""

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
            raise ConfigError(f"unknown generator kind {self.kind!r}")
        if not isinstance(self.angles, (list, tuple)) or not self.angles:
            raise ConfigError(f"angles must be a non-empty list of numbers, got {self.angles!r}")
        self.angles = tuple(check_real("angles", a) for a in self.angles)
        self.n_per_class = check_int("n_per_class", self.n_per_class, 1)
        self.noise_sd = check_real("noise_sd", self.noise_sd, 0.0)
        self.seed = check_int("seed", self.seed, 0)
        self.class_count = check_int("class_count", self.class_count, 2)
        self.prior_shift_seed = check_int("prior_shift_seed", self.prior_shift_seed, 0)
        if self.prior_shift is not None:
            rows = self.prior_shift
            if (not isinstance(rows, (list, tuple))
                    or not all(isinstance(row, (list, tuple)) for row in rows)
                    or len({len(row) for row in rows}) > 1):
                raise ConfigError(f"prior_shift must be a (domains x classes) matrix, got {rows!r}")
            self.prior_shift = [[check_real("prior_shift", p, 0.0) for p in row] for row in rows]
            PriorShiftSpec(self.prior_shift)  # a matrix whose rows sum to 1

    def build(self) -> DomainSuite:
        suite = gen_rotated_suite(self.kind, self.n_per_class, self.angles,
                                  self.noise_sd, self.seed, self.class_count)
        if self.prior_shift is not None:
            suite = apply_prior_shift(suite, PriorShiftSpec(np.array(self.prior_shift)),
                                      self.prior_shift_seed)
        return suite


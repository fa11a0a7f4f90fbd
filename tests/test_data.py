import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hirnet.data import (
    DEFAULT_ANGLES,
    BatchPlan,
    DomainDataset,
    DomainSuite,
    SuiteSpec,
    rotate,
    stratified_batches,
)
from hirnet.errors import ConfigError, write_json
from hirnet.losses import BatchLabels


def _cycled(order, start, count):
    return order[np.arange(start, start + count) % order.size]


def per_batch_stratified_batches(suite, k, paired=False, seed=0):
    """Reference sampler: the batch-by-batch loop the planned sampler replaced."""
    rng = np.random.default_rng(seed)
    m = suite.class_count
    if paired:
        usable = {}
        for c in range(m):
            common = None
            for dataset in suite.domains:
                ids = set(dataset.base_id[dataset.y == c].tolist())
                common = ids if common is None else (common & ids)
            common = np.array(sorted(common), dtype=np.int64) if common else np.empty(0, np.int64)
            if common.size == 0:
                warnings.warn(f"paired sampling: class {c} has no base_id common to all domains")
            else:
                usable[c] = common[rng.permutation(common.size)]
        if not usable:
            return
        lookup = [{(int(b), int(cc)): i for i, (b, cc) in enumerate(zip(ds.base_id, ds.y))}
                  for ds in suite.domains]
        n_batches = max(int(np.ceil(ids.size / k)) for ids in usable.values())
        for b in range(n_batches):
            xs, ys, doms = [], [], []
            chosen = {c: _cycled(ids, b * k, k) for c, ids in usable.items()}
            for d, dataset in enumerate(suite.domains):
                for c, ids in chosen.items():
                    rows = [lookup[d][(int(bid), c)] for bid in ids]
                    xs.append(dataset.x[rows])
                    ys.append(np.full(k, c, dtype=np.int64))
                    doms.append(np.full(k, d, dtype=np.int64))
            yield np.vstack(xs), BatchLabels(np.concatenate(ys), np.concatenate(doms))
        return
    orders = {}
    for d, dataset in enumerate(suite.domains):
        for c in range(m):
            idx = np.flatnonzero(dataset.y == c)
            if idx.size == 0:
                warnings.warn(f"empty cell: domain {d} has no samples of class {c}")
            else:
                orders[(d, c)] = idx[rng.permutation(idx.size)]
    if not orders:
        return
    n_batches = max(int(np.ceil(order.size / k)) for order in orders.values())
    for b in range(n_batches):
        xs, ys, doms = [], [], []
        for d, dataset in enumerate(suite.domains):
            for c in range(m):
                order = orders.get((d, c))
                if order is None:
                    continue
                xs.append(dataset.x[_cycled(order, b * k, k)])
                ys.append(np.full(k, c, dtype=np.int64))
                doms.append(np.full(k, d, dtype=np.int64))
        yield np.vstack(xs), BatchLabels(np.concatenate(ys), np.concatenate(doms))


def epoch(suite, k, paired=False, seed=0):
    """``stratified_batches``' epoch, or the paired one ``BatchPlan(suite, k, True)`` draws."""
    if not paired:
        return list(stratified_batches(suite, k, seed=seed))
    plan = BatchPlan(suite, k, True)
    return [(x, plan.batch_labels) for x in plan.draw(seed)]


def batch_bytes(batches):
    return [(x.shape, x.tobytes(), labels.labels.tobytes(), labels.domains.tobytes())
            for x, labels in batches]


def with_repeated_pair(suite):
    """Domain 0 gains a second row for three (base_id, class) pairs it already has."""
    ds = suite.domains[0]
    extra = np.array([1, 4, 7])
    suite.domains[0] = DomainDataset(np.vstack([ds.x, ds.x[extra] + 10.0]),
                                     np.concatenate([ds.y, ds.y[extra]]),
                                     np.concatenate([ds.base_id, ds.base_id[extra]]))
    return suite


def cell_base_ids(suite, x, labels, domain, cls):
    rows = (labels.domains == domain) & (labels.labels == cls)
    # recover base ids by matching rows back into the domain dataset
    ds = suite.domains[domain]
    ids = []
    for row in x[rows]:
        match = np.flatnonzero(np.all(ds.x == row, axis=1))
        ids.append(int(ds.base_id[match[0]]))
    return sorted(ids)


class TestRotation:
    def test_point_1_0_at_90_degrees(self):
        out = rotate(np.array([[1.0, 0.0]]), 90.0)
        np.testing.assert_allclose(out, [[0.0, 1.0]], atol=1e-12)

    def test_matches_stated_formula(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(10, 2))
        theta = np.deg2rad(33.0)
        expected = np.column_stack([
            pts[:, 0] * np.cos(theta) - pts[:, 1] * np.sin(theta),
            pts[:, 0] * np.sin(theta) + pts[:, 1] * np.cos(theta),
        ])
        np.testing.assert_allclose(rotate(pts, 33.0), expected, atol=1e-12)


class TestGenRotatedSuite:
    """The rotated domains ``SuiteSpec.build`` draws."""

    def test_default_angles(self):
        assert DEFAULT_ANGLES == (0.0, 15.0, 30.0, 45.0, 60.0, 75.0)
        suite = SuiteSpec("moons", 10, seed=1).build()
        assert suite.domain_params == list(DEFAULT_ANGLES)
        assert len(suite) == 6

    def test_angle_zero_no_noise_equals_base(self):
        suite = SuiteSpec("moons", 25, angles=[0.0, 40.0], noise_sd=0.0, seed=3).build()
        rotated_back = rotate(suite.domains[1].x, -40.0)
        np.testing.assert_allclose(suite.domains[0].x, rotated_back, atol=1e-12)

    def test_base_ids_and_labels_shared_across_domains(self):
        suite = SuiteSpec("moons", 30, seed=5).build()
        first = suite.domains[0]
        for ds in suite.domains[1:]:
            np.testing.assert_array_equal(ds.base_id, first.base_id)
            np.testing.assert_array_equal(ds.y, first.y)

    def test_per_domain_noise_is_fresh(self):
        suite = SuiteSpec("moons", 30, angles=[0.0, 15.0], noise_sd=0.1, seed=6).build()
        aligned = rotate(suite.domains[0].x, 15.0)
        assert not np.allclose(aligned, suite.domains[1].x, atol=1e-6)

    def test_reproducible_byte_for_byte(self):
        a = SuiteSpec("moons", 20, seed=9).build()
        b = SuiteSpec("moons", 20, seed=9).build()
        for da, db in zip(a.domains, b.domains):
            assert da.x.tobytes() == db.x.tobytes()

    def test_gaussians_kind(self):
        suite = SuiteSpec("gaussians", 15, angles=[0.0, 30.0], seed=2, class_count=4).build()
        assert suite.class_count == 4
        assert len(suite.domains[0]) == 60

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="expected one of .'moons', 'gaussians'."):
            SuiteSpec("spirals", 10)

    def test_duplicate_angles_rejected(self):
        with pytest.raises(ConfigError, match="angles must differ"):
            SuiteSpec("moons", 10, angles=[0.0, 0.0])


class TestPriorShift:
    def test_uniform_spec_keeps_counts(self):
        shifted = SuiteSpec("moons", 50, angles=[0.0, 20.0], seed=4,
                            prior_shift=[[0.5, 0.5]] * 2, prior_shift_seed=0).build()
        for ds in shifted.domains:
            np.testing.assert_array_equal(ds.class_counts(2), [50, 50])

    def test_ninety_ten_counts(self):
        # Counting oracle: largest T with 0.9T <= 100 is 111, split 100/11
        # by largest remainder.
        shifted = SuiteSpec("moons", 100, angles=[0.0], seed=7, prior_shift=[[0.9, 0.1]],
                            prior_shift_seed=1).build()
        np.testing.assert_array_equal(shifted.domains[0].class_counts(2), [100, 11])

    def test_achieved_frequencies_within_one_sample(self):
        probs = [[0.7, 0.3], [0.5, 0.5], [0.35, 0.65]]
        shifted = SuiteSpec("moons", 100, angles=[0.0, 10.0, 20.0], seed=8, prior_shift=probs,
                            prior_shift_seed=2).build()
        for d, ds in enumerate(shifted.domains):
            counts = ds.class_counts(2)
            target = np.array(probs[d]) * counts.sum()
            assert np.all(np.abs(counts - target) <= 1.0)

    def test_zero_probability_empties_class(self):
        shifted = SuiteSpec("moons", 40, angles=[0.0], seed=9, prior_shift=[[1.0, 0.0]]).build()
        counts = shifted.domains[0].class_counts(2)
        assert counts[1] == 0
        assert counts[0] == 40

    def test_base_ids_preserved(self):
        spec = SuiteSpec("moons", 30, angles=[0.0, 15.0], seed=10)
        suite = spec.build()
        shifted = replace(spec, prior_shift=[[0.6, 0.4]] * 2, prior_shift_seed=3).build()
        for orig, sub in zip(suite.domains, shifted.domains):
            assert set(sub.base_id) <= set(orig.base_id)


class TestStratifiedBatches:
    def test_batch_size_250(self):
        # 5 domains x 10 classes x 5 per cell
        suite = SuiteSpec("gaussians", 20, angles=[0, 15, 30, 45, 60],
                          seed=11, class_count=10).build()
        x, labels = next(stratified_batches(suite, 5, seed=0))
        assert x.shape[0] == 250
        assert len(labels) == 250

    def test_batch_size_50_one_per_cell(self):
        suite = SuiteSpec("gaussians", 20, angles=[0, 15, 30, 45, 60],
                          seed=11, class_count=10).build()
        x, labels = next(stratified_batches(suite, 1, seed=0))
        assert x.shape[0] == 50

    def test_every_cell_exactly_k(self):
        suite = SuiteSpec("moons", 40, angles=[0, 30, 60], seed=12).build()
        x, labels = next(stratified_batches(suite, 5, seed=1))
        for d in range(3):
            for c in range(2):
                assert np.sum((labels.domains == d) & (labels.labels == c)) == 5

    def test_epoch_has_expected_batch_count(self):
        # 100 per cell, 5 per draw -> 20 batches
        suite = SuiteSpec("moons", 100, angles=[0, 15, 30], seed=13).build()
        batches = list(stratified_batches(suite, 5, seed=2))
        assert len(batches) == 20

    def test_epoch_coverage_balanced(self):
        suite = SuiteSpec("moons", 20, angles=[0.0, 30.0], seed=14).build()
        seen = {d: [] for d in range(2)}
        for x, labels in stratified_batches(suite, 3, seed=3):
            for d in range(2):
                ids = cell_base_ids(suite, x, labels, d, 0)
                seen[d].extend(ids)
        for d in range(2):
            counts = np.bincount(seen[d])
            counts = counts[counts > 0]
            assert counts.max() - counts.min() <= 1

    def test_paired_mode_shares_base_ids(self):
        suite = SuiteSpec("moons", 30, seed=15).build()
        x, labels = epoch(suite, 2, paired=True, seed=4)[0]
        for c in range(2):
            reference = cell_base_ids(suite, x, labels, 0, c)
            assert len(reference) == 2
            for d in range(1, len(suite)):
                assert cell_base_ids(suite, x, labels, d, c) == reference

    def test_unpaired_mode_rarely_coincides(self):
        suite = SuiteSpec("moons", 100, seed=16).build()
        coincidences = 0
        for trial in range(100):
            x, labels = next(stratified_batches(suite, 5, seed=trial))
            ids0 = cell_base_ids(suite, x, labels, 0, 0)
            ids1 = cell_base_ids(suite, x, labels, 1, 0)
            if ids0 == ids1:
                coincidences += 1
        assert coincidences / 100 < 0.05

    def test_empty_cell_warns_and_skips(self):
        shifted = SuiteSpec("moons", 30, angles=[0.0, 20.0], seed=17,
                            prior_shift=[[1.0, 0.0], [0.5, 0.5]], prior_shift_seed=4).build()
        with pytest.warns(UserWarning, match="empty cell"):
            batches = list(stratified_batches(shifted, 3, seed=5))
        assert batches
        x, labels = batches[0]
        assert np.sum((labels.domains == 0) & (labels.labels == 1)) == 0
        assert np.sum((labels.domains == 1) & (labels.labels == 1)) == 3

    def test_deterministic_given_seed(self):
        suite = SuiteSpec("moons", 40, seed=18).build()
        a = list(stratified_batches(suite, 4, seed=6))
        b = list(stratified_batches(suite, 4, seed=6))
        for (xa, la), (xb, lb) in zip(a, b):
            assert xa.tobytes() == xb.tobytes()
            assert la.labels.tobytes() == lb.labels.tobytes()
            assert la.domains.tobytes() == lb.domains.tobytes()


class TestPlannedSamplerMatchesPerBatchLoop:
    """The planned epoch makes the same draws and yields bitwise-equal batches."""

    @pytest.mark.parametrize("paired", [False, True])
    @pytest.mark.parametrize("k", [1, 5, 7, 45])  # 45 exceeds every 40-row cell: cycling
    def test_bitwise_equal(self, paired, k):
        suite = SuiteSpec("gaussians", 40, angles=[0.0, 20.0, 40.0], seed=31,
                          class_count=3).build()
        new = epoch(suite, k, paired, seed=[8, k])
        old = list(per_batch_stratified_batches(suite, k, paired=paired, seed=[8, k]))
        assert len(new) == len(old) == -(-40 // k)
        assert batch_bytes(new) == batch_bytes(old)

    @pytest.mark.parametrize("paired", [False, True])
    def test_uneven_cells_after_prior_shift(self, paired):
        suite = SuiteSpec("gaussians", 30, angles=[0.0, 20.0, 40.0], seed=32, class_count=3,
                          prior_shift=[[0.6, 0.3, 0.1], [0.2, 0.3, 0.5], [0.4, 0.4, 0.2]],
                          prior_shift_seed=3).build()
        new = epoch(suite, 4, paired, seed=9)
        old = list(per_batch_stratified_batches(suite, 4, paired=paired, seed=9))
        assert batch_bytes(new) == batch_bytes(old)

    @pytest.mark.parametrize("paired", [False, True])
    def test_empty_cell_warns_the_same(self, paired):
        suite = SuiteSpec("moons", 30, angles=[0.0, 20.0], seed=17,
                          prior_shift=[[1.0, 0.0], [0.5, 0.5]], prior_shift_seed=4).build()
        match = "no base_id common" if paired else "empty cell"
        with pytest.warns(UserWarning, match=match) as new_warnings:
            new = epoch(suite, 3, paired, seed=5)
        with pytest.warns(UserWarning, match=match) as old_warnings:
            old = list(per_batch_stratified_batches(suite, 3, paired=paired, seed=5))
        assert [str(w.message) for w in new_warnings] == [str(w.message) for w in old_warnings]
        assert new and batch_bytes(new) == batch_bytes(old)

    def test_repeated_pair_resolves_to_its_last_row(self):
        suite = with_repeated_pair(SuiteSpec("moons", 12, angles=[0.0, 30.0], seed=33).build())
        new = epoch(suite, 3, paired=True, seed=6)
        old = list(per_batch_stratified_batches(suite, 3, paired=True, seed=6))
        assert batch_bytes(new) == batch_bytes(old)
        assert any((x > 5.0).any() for x, _ in new)  # the shifted duplicates are drawn

    @pytest.mark.parametrize("paired", [False, True])
    def test_batches_share_one_layout(self, paired):
        suite = SuiteSpec("moons", 25, angles=[0.0, 20.0, 40.0], seed=34).build()
        batches = epoch(suite, 4, paired, seed=7)
        first = batches[0][1]
        for _, labels in batches:
            assert np.shares_memory(labels.labels, first.labels)
            assert np.shares_memory(labels.domains, first.domains)
        np.testing.assert_array_equal(first.domains, np.repeat([0, 1, 2], 8))
        np.testing.assert_array_equal(first.labels, np.tile(np.repeat([0, 1], 4), 3))
        with pytest.raises(ValueError):
            first.labels[0] = 1  # shared by every batch, so read-only


@pytest.mark.parametrize("paired", [False, True])
def test_an_unpickled_plan_keeps_its_read_only_layout(paired):
    """A plan sent to a worker process comes back with its layout read-only,
    in a new ``batch_labels`` over it whose caches start empty, and draws
    the epochs it drew before."""
    plan = BatchPlan(SuiteSpec("moons", 20, angles=[0.0, 30.0, 60.0], seed=35).build(), 3, paired)
    plan.batch_labels.segments("labels")  # a cache filled before pickling
    again = pickle.loads(pickle.dumps(plan))
    labels = again.batch_labels
    assert labels._cache == {}
    assert labels.labels is again.labels and labels.domains is again.domains
    for arr in [again.labels, again.domains, labels.onehot(2), *labels.segments("labels"),
                labels.mmd_weights, labels.upper]:
        with pytest.raises(ValueError):
            arr.flat[0] = arr.flat[0]
    assert again.layout_key == plan.layout_key
    assert again.draw([4, 1]).tobytes() == plan.draw([4, 1]).tobytes()


@st.composite
def small_suites(draw):
    """A few tiny gaussian domains, each with its own class mix; a zero in
    a mix empties that (domain, class) cell."""
    n_domains = draw(st.integers(1, 3))
    class_count = draw(st.integers(2, 3))
    n_per_class, seed = draw(st.integers(1, 8)), draw(st.integers(0, 100))
    weights = draw(st.lists(st.lists(st.integers(0, 3), min_size=class_count,
                                     max_size=class_count).filter(any),
                            min_size=n_domains, max_size=n_domains))
    probs = np.array(weights, dtype=np.float64)
    return SuiteSpec("gaussians", n_per_class, [20.0 * d for d in range(n_domains)], seed=seed,
                     class_count=class_count,
                     prior_shift=(probs / probs.sum(axis=1, keepdims=True)).tolist(),
                     prior_shift_seed=draw(st.integers(0, 100))).build()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(suite=small_suites(), k=st.integers(1, 4), paired=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_plan_draw_gives_the_per_batch_loop_bytes(suite, k, paired, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        plan = BatchPlan(suite, k, paired)
        old = list(per_batch_stratified_batches(suite, k, paired=paired, seed=seed))
    x = plan.draw(seed)
    assert x.shape[0] == plan.n_batches == len(old)
    assert batch_bytes([(batch, plan.batch_labels) for batch in x]) == batch_bytes(old)


def manifest_spec():
    return SuiteSpec(kind="moons", n_per_class=50, angles=(0.0, 30.0), noise_sd=0.05, seed=99,
                     prior_shift=[[0.8, 0.2], [0.2, 0.8]], prior_shift_seed=4)


# What the manifest writer has always produced for manifest_spec():
# sorted keys, two-space indent, trailing newline.
MANIFEST_BYTES = b"""\
{
  "angles": [
    0.0,
    30.0
  ],
  "class_count": 3,
  "kind": "moons",
  "n_per_class": 50,
  "noise_sd": 0.05,
  "prior_shift": [
    [
      0.8,
      0.2
    ],
    [
      0.2,
      0.8
    ]
  ],
  "prior_shift_seed": 4,
  "seed": 99
}
"""


class TestManifest:
    def test_round_trip(self, tmp_path):
        spec = manifest_spec()
        path = tmp_path / "suite.json"
        write_json(spec.to_dict(), path)
        loaded = SuiteSpec.read(path)
        assert loaded == spec
        a, b = spec.build(), loaded.build()
        for da, db in zip(a.domains, b.domains):
            assert da.x.tobytes() == db.x.tobytes()

    # (fields, the message they raise). Each prior_shift case has two angles,
    # so only the value it targets is wrong.
    @pytest.mark.parametrize("overrides", [
        ({"n_per_class": True}, "n_per_class must be an integer"),
        ({"n_per_class": 0}, "n_per_class must be >= 1"),
        ({"noise_sd": -0.1}, "noise_sd must be >= 0"),
        ({"noise_sd": "0.1"}, "noise_sd must be a finite number"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"seed": 1.0}, "seed must be an integer"),
        ({"class_count": 1}, "class_count must be >= 2"),
        ({"angles": (0.0, float("nan"))}, "angles must be a finite number"),
        ({"angles": 30.0}, "angles must be a non-empty list"),
        ({"angles": ()}, "angles must be a non-empty list"),
        ({"prior_shift_seed": 0.5}, "prior_shift_seed must be an integer"),
        ({"kind": "spirals"}, "unknown generator kind 'spirals'"),
        ({"prior_shift": [["a", 1], [1, 0]]}, "prior_shift must be a finite number, got 'a'"),
        ({"prior_shift": [[1.0], [0.5, 0.5]]}, "prior_shift must be a .domains x classes"),
        ({"prior_shift": [[float("nan"), 1.0], [1.0, 0.0]]},
         "prior_shift must be a finite number, got nan"),
        ({"prior_shift": [[True, 0], [0, 1]]}, "prior_shift must be a finite number, got True"),
        ({"prior_shift": [[1.5, -0.5], [0.5, 0.5]]}, "prior_shift must be >= 0.0, got -0.5"),
        ({"prior_shift": [[0.5, 0.4], [0.5, 0.5]]}, "each row of prior_shift must sum to 1"),
        ({"prior_shift": [1.0, 0.0]}, "prior_shift must be a .domains x classes"),
        ({"prior_shift": []}, "prior_shift must be a .domains x classes"),
        ({"prior_shift": "0.5"}, "prior_shift must be a .domains x classes"),
        # Above 1, before a row sum can overflow to inf.
        ({"prior_shift": [[1e308, 1e308], [0.5, 0.5]]}, "prior_shift entries must be <= 1"),
    ])
    def test_mistyped_values_rejected(self, overrides):
        fields, match = overrides
        if "prior_shift" in fields:
            fields = {"angles": (0.0, 30.0), **fields}
        with pytest.raises(ConfigError, match=match):
            SuiteSpec(**fields)

    @pytest.mark.parametrize("overrides", [
        {"prior_shift": [[0.5, 0.5]] * 3},
        {"kind": "moons", "class_count": 3, "prior_shift": [[0.2, 0.3, 0.5]] * 2},
    ], ids=["three-rows-two-angles", "moons-three-columns"])
    def test_mis_shaped_prior_shift_rejected_when_constructed(self, overrides):
        """Rows are angles and columns are classes, two for moons whatever
        ``class_count`` says; a spec that breaks either never gets to ``build``."""
        with pytest.raises(ConfigError, match=r"\(2 x 2\) matrix"):
            SuiteSpec(angles=(0.0, 30.0), **overrides)

    def test_unknown_fields_rejected(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text('{"kind": "moons", "n_per_class": 5, "bogus": 1}')
        with pytest.raises(ConfigError):
            SuiteSpec.read(path)

    def test_written_bytes(self, tmp_path):
        spec = manifest_spec()
        path = tmp_path / "suite.json"
        write_json(spec.to_dict(), path)
        assert path.read_bytes() == MANIFEST_BYTES


def test_suite_drop_removes_domain():
    suite = SuiteSpec("moons", 10, seed=29).build()
    reduced = suite.drop(2)
    assert len(reduced) == 5
    assert 30.0 not in reduced.domain_params
    assert suite.domain_params[2] == 30.0


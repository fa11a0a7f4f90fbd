import itertools
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from hirnet import diagnostics, losses
from hirnet.data import BatchPlan, DomainDataset, DomainSuite, SuiteSpec, stratified_batches
from hirnet.diagnostics import (
    collect_bundle,
    domain_alignment_matrix,
    paired_vs_unpaired_kl,
    posterior_kl_matrix,
    prediction_agreement,
)
from hirnet.losses import BatchLabels, hir_kl
from hirnet.models import MlpSpec, ModelParams, forward, init_params, log_posteriors


def constant_model(input_dim=2, classes=2):
    """All-zero weights: identical (uniform) posterior for every input."""
    return ModelParams([np.zeros((input_dim, 4)), np.zeros((4, classes))],
                       [np.zeros((1, 4)), np.zeros((1, classes))])


def sign_of_first_coordinate_model():
    """Two-class model whose prediction is the sign of x0.

    Hidden relu pair (x0, -x0) feeds logits (x0, -x0), so logit margin is
    2*x0 and the argmax flips exactly when x0 changes sign (ties at x0=0
    go to class 0).
    """
    w1 = np.array([[1.0, -1.0], [0.0, 0.0]])
    w2 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return ModelParams([w1, w2], [np.zeros((1, 2)), np.zeros((1, 2))])


def duplicated_domain_suite(n=40, seed=0):
    """Two 'domains' backed by the identical dataset."""
    base = SuiteSpec("moons", n, angles=[0.0], seed=seed).build().domains[0]
    copy = DomainDataset(base.x.copy(), base.y.copy(), base.base_id.copy())
    return DomainSuite([base, copy], [0.0, 0.0], 2)


class TestPredictionAgreement:
    def test_constant_model_agrees_everywhere(self):
        suite = SuiteSpec("moons", 30, seed=1).build()
        assert prediction_agreement(constant_model(), suite, probe_size=20, seed=0) == 1.0

    def test_identical_domains_agree(self):
        suite = duplicated_domain_suite()
        params = init_params(MlpSpec((2, 8, 2), seed=3))
        assert prediction_agreement(params, suite, probe_size=30, seed=0) == 1.0

    def test_sign_model_on_quarter_turn(self):
        # Hand-built probe: base points at known angles; rotating 90deg
        # moves x0 -> -x1, so exactly the points with sign(x0) != sign(-x1)
        # flip prediction.
        angles = np.deg2rad([10.0, 80.0, 100.0, 170.0, 190.0, 260.0, 280.0, 350.0])
        base = np.column_stack([np.cos(angles), np.sin(angles)])
        labels = np.zeros(8, dtype=int)
        ids = np.arange(8)
        rotated = np.column_stack([-base[:, 1], base[:, 0]])
        suite = DomainSuite([DomainDataset(base, labels, ids),
                             DomainDataset(rotated, labels, ids)], [0.0, 90.0], 2)
        keeps = np.sign(base[:, 0]) == np.sign(rotated[:, 0])
        expected = keeps.mean()
        got = prediction_agreement(sign_of_first_coordinate_model(), suite,
                                   probe_size=8, seed=0)
        assert got == pytest.approx(expected)
        assert got < 1.0

    def test_monotone_logit_rescaling_invariance(self):
        suite = SuiteSpec("moons", 40, seed=4).build()
        params = init_params(MlpSpec((2, 8, 2), seed=5))
        scaled = params.copy()
        scaled.weights[-1] *= 3.7
        scaled.biases[-1] *= 3.7
        a = prediction_agreement(params, suite, probe_size=40, seed=1)
        b = prediction_agreement(scaled, suite, probe_size=40, seed=1)
        assert a == b

    def test_no_common_base_ids(self):
        d0 = DomainDataset(np.zeros((2, 2)), np.zeros(2, int), np.array([0, 1]))
        d1 = DomainDataset(np.zeros((2, 2)), np.zeros(2, int), np.array([2, 3]))
        suite = DomainSuite([d0, d1], [0.0, 1.0], 1)
        assert prediction_agreement(constant_model(), suite) is None

    def test_repeated_base_id_probes_its_last_row(self):
        # Both domains hold base_id 0 twice; only their last rows agree.
        x0 = np.array([[-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        x1 = np.array([[-1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
        suite = DomainSuite([DomainDataset(x0, [0, 0, 0], [0, 0, 1]),
                             DomainDataset(x1, [0, 0, 0], [0, 1, 0])], [0.0, 90.0], 2)
        assert prediction_agreement(sign_of_first_coordinate_model(), suite, probe_size=2) == 1.0


class TestDomainAlignmentMatrix:
    def test_identical_domains_off_diagonal_zero(self):
        suite = duplicated_domain_suite()
        params = init_params(MlpSpec((2, 6, 2), seed=6))
        matrix, _ = domain_alignment_matrix(params, suite)
        assert abs(matrix[0, 1]) <= 1e-12

    def test_symmetric_zero_diagonal_nonnegative(self):
        suite = SuiteSpec("moons", 30, seed=7).build()
        params = init_params(MlpSpec((2, 6, 2), seed=8))
        matrix, _ = domain_alignment_matrix(params, suite)
        np.testing.assert_array_equal(matrix, matrix.T)
        np.testing.assert_array_equal(np.diag(matrix), np.zeros(len(suite)))
        assert np.all(matrix >= -1e-12)

    def test_far_separated_identity_features_saturate(self):
        # Two tight far-apart clusters through a wide relu passthrough:
        # z distances huge next to the bandwidth, so MMD -> 2.
        x0 = 0.01 * np.random.default_rng(9).normal(size=(20, 2))
        x1 = x0 + 500.0
        suite = DomainSuite([DomainDataset(x0, np.zeros(20, int), np.arange(20)),
                             DomainDataset(x1, np.zeros(20, int), np.arange(20))],
                            [0.0, 1.0], 1)
        passthrough = ModelParams([np.vstack([np.eye(2), -np.eye(2)]).T, np.eye(4)[:, :2]],
                                  [np.zeros((1, 4)), np.zeros((1, 2))])
        matrix, _ = domain_alignment_matrix(passthrough, suite, bandwidth=1.0)
        assert matrix[0, 1] == pytest.approx(2.0, abs=1e-2)

    @pytest.mark.parametrize("per_class", [False, True])
    def test_matches_recomputation_from_exported_latents(self, per_class):
        suite = SuiteSpec("moons", 25, angles=[0.0, 30.0, 60.0], seed=10).build()
        params = init_params(MlpSpec((2, 5, 2), seed=11))
        matrix, bw = domain_alignment_matrix(params, suite, per_class=per_class)
        latents = [forward(params, ds.x)[0].data for ds in suite.domains]

        def recompute(a, b):
            kaa = np.exp(-cdist(a, a, "sqeuclidean") / (2 * bw**2)).mean()
            kbb = np.exp(-cdist(b, b, "sqeuclidean") / (2 * bw**2)).mean()
            kab = np.exp(-cdist(a, b, "sqeuclidean") / (2 * bw**2)).mean()
            return kaa + kbb - 2 * kab

        cells = ([(matrix, latents)] if not per_class else
                 [(matrix[c], [z[ds.y == c] for z, ds in zip(latents, suite.domains)])
                  for c in range(suite.class_count)])
        for entries, rows in cells:
            for a in range(3):
                for b in range(a + 1, 3):
                    assert entries[a, b] == pytest.approx(recompute(rows[a], rows[b]), abs=1e-10)

    @pytest.mark.parametrize("per_class", [False, True])
    def test_workload_suite_never_holds_a_pooled_kernel(self, per_class):
        """6 domains x 200 rows: the call's peak stays below one (1200, 1200)
        float64 array, and its bandwidth keeps the bits of the pooled median."""
        suite = SuiteSpec("moons", 100, angles=[0.0, 15.0, 30.0, 45.0, 60.0, 75.0],
                          noise_sd=0.08, seed=7).build()
        params = init_params(MlpSpec((2, 32, 2), seed=7))
        tracemalloc.start()
        try:
            _, bandwidth = domain_alignment_matrix(params, suite, per_class=per_class)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1200 * 1200 * 8
        z = forward(params, np.vstack([ds.x for ds in suite.domains]))[0].data
        assert z.shape[0] == 1200
        sq = np.sum(z * z, axis=-1)
        dists = sq[:, None] + sq[None, :]
        dists -= 2.0 * (z @ z.T)
        dists = np.maximum(dists, 0.0)
        assert bandwidth == float(np.median(np.sqrt(dists[np.triu_indices(1200, k=1)])))

    def test_per_class_marks_missing_cells(self):
        suite = SuiteSpec("moons", 20, angles=[0.0, 30.0], seed=12).build()
        # strip class 1 from domain 0
        keep = np.flatnonzero(suite.domains[0].y == 0)
        suite.domains[0] = suite.domains[0].subset(keep)
        params = init_params(MlpSpec((2, 5, 2), seed=13))
        stack, _ = domain_alignment_matrix(params, suite, per_class=True)
        assert stack.shape == (2, 2, 2)
        assert np.isnan(stack[1, 0, 1]) and np.isnan(stack[1, 1, 0])
        assert np.isfinite(stack[0, 0, 1])


def per_block_sq_dists(z, w):
    """A block's squared distances as each block was once built: both sides'
    row norms taken for the block, and their outer sum by one np.add."""
    norms = np.sum(z * z, axis=-1)
    w_norms = norms if w is z else np.sum(w * w, axis=-1)
    dists = np.add(norms[..., :, None], w_norms[..., None, :])
    gram = z @ w.swapaxes(-1, -2)
    gram *= 2.0
    dists -= gram
    return np.maximum(dists, 0.0, out=dists)


def per_block_alignment_matrix(params, suite, per_class, bandwidth):
    """domain_alignment_matrix from fresh per-block arrays: the domain blocks'
    pairs gathered for np.median, then one kernel block per pair of groups."""
    n, classes = len(suite), suite.class_count if per_class else 1
    z = forward(params, np.vstack([ds.x for ds in suite.domains]))[0].data
    domains = np.split(z, np.cumsum([ds.y.size for ds in suite.domains])[:-1])
    pairs_ab = itertools.combinations_with_replacement(range(n), 2)
    if bandwidth is None:
        pairs = np.concatenate([
            per_block_sq_dists(domains[a], domains[b])[np.triu_indices(len(domains[a]), 1)]
            if a == b else per_block_sq_dists(domains[a], domains[b]).ravel()
            for a, b in pairs_ab])
        median = float(np.median(np.sqrt(pairs))) if pairs.size else np.nan
        bandwidth = median if median > 0 else 1.0
    gamma, kernel_means = -1.0 / (2.0 * bandwidth * bandwidth), np.full((classes, n, n), np.nan)
    for c in range(classes):
        rows = [z_d[ds.y == c] if per_class else z_d for z_d, ds in zip(domains, suite.domains)]
        for a, b in itertools.combinations_with_replacement(range(n), 2):
            if rows[a].size and rows[b].size:
                block = per_block_sq_dists(rows[a], rows[b])
                block *= gamma
                kernel_means[c, a, b] = kernel_means[c, b, a] = np.exp(block).mean()
    own = np.diagonal(kernel_means, axis1=1, axis2=2)
    stack = own[:, :, None] + own[:, None, :] - 2.0 * kernel_means
    return (stack if per_class else stack[0]), bandwidth


def alignment_layouts():
    """Suites whose blocks differ in shape: equal domains, unequal domains
    from a prior shift, a class missing from one domain, a one-row domain
    and a single domain."""
    equal = SuiteSpec("moons", 30, angles=[0.0, 25.0, 50.0], seed=41).build()
    shifted = SuiteSpec("moons", 30, angles=[0.0, 25.0, 50.0], seed=42,
                        prior_shift=[[0.5, 0.5], [0.8, 0.2], [0.3, 0.7]], prior_shift_seed=43).build()
    missing = SuiteSpec("moons", 20, angles=[0.0, 30.0, 60.0], seed=44).build()
    missing.domains[1] = missing.domains[1].subset(np.flatnonzero(missing.domains[1].y == 0))
    one_row = SuiteSpec("moons", 20, angles=[0.0, 40.0], seed=45).build()
    one_row.domains[0] = one_row.domains[0].subset([3])
    single = SuiteSpec("moons", 25, angles=[10.0], seed=46).build()
    return {"equal": equal, "prior_shift": shifted, "missing_class": missing,
            "one_row_domain": one_row, "one_domain": single}


@pytest.mark.parametrize("bandwidth", [None, 0.7])
@pytest.mark.parametrize("per_class", [False, True])
@pytest.mark.parametrize("layout", sorted(alignment_layouts()))
def test_alignment_matrix_gives_the_per_block_bits(layout, per_class, bandwidth):
    suite = alignment_layouts()[layout]
    params = init_params(MlpSpec((2, 16, 2), seed=47))
    got, got_bw = domain_alignment_matrix(params, suite, per_class=per_class, bandwidth=bandwidth)
    want, want_bw = per_block_alignment_matrix(params, suite, per_class, bandwidth)
    assert got_bw == want_bw
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if layout == "missing_class" and per_class:
        assert np.isnan(got[1, 0, 1]) and np.isnan(got[1, 1, 1]) and np.isfinite(got[1, 0, 2])
    if layout == "prior_shift":
        assert len({len(ds.y) for ds in suite.domains}) == len(suite)


@pytest.mark.parametrize("w_rows", [None, 9])
def test_sq_dists_of_given_norms_and_buffers_gives_the_per_block_bits(w_rows):
    """On stacked (runs, n, d) MMD inputs, with z's own rows or another w:
    _sq_dists computing its norms, _sq_dists given them and its output and
    Gram buffers, and the per-block formula all agree bitwise."""
    rng = np.random.default_rng(48)
    z = rng.normal(size=(3, 12, 4))
    w = z if w_rows is None else rng.normal(size=(3, w_rows, 4))
    norms = np.sum(z * z, axis=-1)
    w_norms = norms if w is z else np.sum(w * w, axis=-1)
    out, gram = np.empty((2,) + z.shape[:-1] + w.shape[-2:-1])
    own = losses._sq_dists(z, None if w is z else w)
    given = losses._sq_dists(z, w, out, gram, norms, w_norms)
    assert given is out
    assert own.tobytes() == given.tobytes() == per_block_sq_dists(z, w).tobytes()
    assert np.all(own >= 0.0)


def random_latents(seed):
    """1-7 domains of 1-60 rows each, in 1-5 dimensions; every third draw
    repeats its rows, so distances tie, and every fifth rounds them."""
    rng = np.random.default_rng(seed)
    dim, sizes = int(rng.integers(1, 6)), rng.integers(1, 61, size=rng.integers(1, 8))
    z = rng.normal(size=(int(sizes.sum()), dim))
    if seed % 3 == 0:
        z = z[rng.integers(max(1, len(z) // 4), size=len(z))]
    if seed % 5 == 0:
        z = np.round(z, 1)
    return np.split(z, np.cumsum(sizes)[:-1])


def block_scan(domains, passes):
    """A scan over the domain blocks' i < j values, as domain_alignment_matrix
    gives it; ``passes`` counts the scans, and a selection that does not end fails."""
    def scan():
        passes.append(1)
        assert len(passes) < 200, "the selection made 200 passes"
        for a, b in itertools.combinations_with_replacement(range(len(domains)), 2):
            d = losses._sq_dists(domains[a], domains[b])
            yield d[np.triu_indices(len(d), 1)] if a == b else d.ravel()
    return scan


def edge_latents():
    rng = np.random.default_rng(3)
    nan_row = rng.normal(size=(30, 3))
    nan_row[7] = np.nan
    return {"all_zero": [np.zeros((25, 4)), np.zeros((10, 4))],
            "nan_row": np.split(nan_row, [12]),
            "single_pair": [rng.normal(size=(1, 2)), rng.normal(size=(1, 2))],
            "one_domain_pair": [rng.normal(size=(2, 3))],
            "no_pair": [rng.normal(size=(1, 3))],
            "ties": [np.repeat(rng.normal(size=(6, 2)), 5, axis=0), np.zeros((4, 2))]}


# How the first bracket is placed: by the sample, below every value (a miss
# low), above every value (a miss high), at exact pair values, so the
# bracket's ends tie with other pairs, or around every value with a small cap,
# so that the gathered set passes it and the bounds close in by bit pattern.
SAMPLES = {
    "sampled": None,
    "bracket_below": lambda pairs: np.zeros(diagnostics.SAMPLE_PAIRS),
    "bracket_above": lambda pairs: np.full(diagnostics.SAMPLE_PAIRS, np.inf),
    "ends_on_pairs": lambda pairs: np.resize(pairs, diagnostics.SAMPLE_PAIRS),
    "over_the_cap": lambda pairs: np.resize([0.0, np.inf], diagnostics.SAMPLE_PAIRS),
}


@pytest.mark.parametrize("sample", sorted(SAMPLES))
@pytest.mark.parametrize("latents", [*range(24), *sorted(edge_latents())])
def test_selected_median_is_the_median_of_every_pair(monkeypatch, latents, sample):
    """The default bandwidth's selection gives median_distance of the concatenated
    i < j buffer bitwise, wherever its first bracket falls."""
    domains = random_latents(latents) if isinstance(latents, int) else edge_latents()[latents]
    z = np.vstack(domains)
    pairs = np.concatenate([values.copy() for values in block_scan(domains, [])()])
    want = losses.median_distance(pairs.copy())
    if SAMPLES[sample] is not None:
        monkeypatch.setattr(diagnostics, "_sample_sq_dists", lambda _: SAMPLES[sample](pairs))
    if sample == "over_the_cap":
        monkeypatch.setattr(diagnostics, "GATHER_CAP", 7)
    passes = []
    assert diagnostics._select_median(block_scan(domains, passes), pairs.size, z) == want
    if sample == "sampled" and isinstance(latents, int):
        assert len(passes) <= 2  # one, and one more for a lower middle below the bracket


def test_workload_suite_at_4800_rows_selects_its_median_in_bounded_memory():
    """At 400 points per class the pooled i < j pairs take 92 MB, which the call
    once held; its traced peak now stays below 40 MiB, and its bandwidth is still
    median_distance of those pairs, bitwise."""
    suite = SuiteSpec("moons", 400, angles=[0.0, 15.0, 30.0, 45.0, 60.0, 75.0],
                      noise_sd=0.08, seed=7).build()
    params = init_params(MlpSpec((2, 32, 2), seed=7))
    tracemalloc.start()
    try:
        _, bandwidth = domain_alignment_matrix(params, suite)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20
    z = forward(params, np.vstack([ds.x for ds in suite.domains]))[0].data
    domains = np.split(z, 6)
    assert len(z) == 4800 and {len(d) for d in domains} == {800}
    pairs = np.concatenate([values.copy() for values in block_scan(domains, [])()])
    assert bandwidth == losses.median_distance(pairs)


class TestPosteriorKlMatrix:
    def test_identical_posteriors_zero_entries(self):
        x = np.random.default_rng(14).normal(size=(6, 2))
        labels = BatchLabels(np.zeros(6, int), np.zeros(6, int))
        matrix = posterior_kl_matrix(constant_model(), x, labels)
        present = ~np.isnan(matrix)
        assert present.sum() == 15
        np.testing.assert_allclose(matrix[present], 0.0, atol=1e-15)

    def test_sum_equals_hir_kl(self):
        rng = np.random.default_rng(15)
        params = init_params(MlpSpec((2, 6, 3), seed=16))
        x = rng.normal(size=(12, 2))
        labels = BatchLabels(rng.integers(0, 3, size=12), rng.integers(0, 2, size=12))
        matrix = posterior_kl_matrix(params, x, labels)
        loss, count = hir_kl(log_posteriors(params, x), labels)
        assert np.nansum(matrix) == pytest.approx(loss.item(), abs=1e-10)
        assert (~np.isnan(matrix)).sum() == count

    def test_five_sample_single_class_has_ten_entries(self):
        x = np.random.default_rng(17).normal(size=(5, 2))
        labels = BatchLabels(np.zeros(5, int), np.zeros(5, int))
        params = init_params(MlpSpec((2, 4, 2), seed=18))
        matrix = posterior_kl_matrix(params, x, labels)
        present = ~np.isnan(matrix)
        assert present.sum() == 10
        assert not np.isnan(matrix[np.triu_indices(5, k=1)]).any()

    def test_different_class_pairs_absent(self):
        x = np.random.default_rng(19).normal(size=(4, 2))
        labels = BatchLabels(np.array([0, 1, 0, 1]), np.zeros(4, int))
        params = init_params(MlpSpec((2, 4, 2), seed=20))
        matrix = posterior_kl_matrix(params, x, labels)
        assert np.isnan(matrix[0, 1]) and np.isnan(matrix[2, 3])
        assert np.isfinite(matrix[0, 2]) and np.isfinite(matrix[1, 3])


class TestPairedVsUnpaired:
    def test_identical_domains_give_zero_paired_kl(self):
        suite = duplicated_domain_suite(n=30, seed=21)
        params = init_params(MlpSpec((2, 6, 2), seed=22))
        paired_mean, unpaired_mean = paired_vs_unpaired_kl(params, suite, seed=0)
        assert paired_mean == pytest.approx(0.0, abs=1e-12)
        assert unpaired_mean > 0.0

    def test_both_means_nonnegative(self):
        suite = SuiteSpec("moons", 30, seed=23).build()
        params = init_params(MlpSpec((2, 6, 2), seed=24))
        paired_mean, unpaired_mean = paired_vs_unpaired_kl(params, suite, seed=1)
        assert paired_mean >= 0.0
        assert unpaired_mean >= 0.0

    @pytest.mark.parametrize("per_class_per_domain", [1, 4])
    def test_stacked_batches_give_the_per_batch_values(self, monkeypatch, per_class_per_domain):
        # 12 rows per cell: 50 batches span several epochs and end mid-epoch.
        suite = SuiteSpec("moons", 12, angles=[0.0, 25.0, 50.0], seed=29).build()
        params = init_params(MlpSpec((2, 6, 2), seed=30))
        values = []

        def recording_hir_kl(log_probs, labels):
            loss, count = hir_kl(log_probs, labels)
            values.extend(loss.data.reshape(-1).tolist())
            return loss, count

        monkeypatch.setattr(diagnostics, "hir_kl", recording_hir_kl)
        means = paired_vs_unpaired_kl(params, suite, per_class_per_domain, seed=4)
        expected = []
        for paired, salt in [(True, 0), (False, 1)]:
            plan, per_batch = BatchPlan(suite, per_class_per_domain, paired), []
            for epoch in itertools.count():
                for x in plan.draw([4, salt, epoch]):
                    per_batch.append(hir_kl(log_posteriors(params, x), plan.batch_labels)[0].item())
                if len(per_batch) >= 50:
                    break
            expected += per_batch[:50]
        assert values == expected
        assert means == (np.mean(expected[:50]), np.mean(expected[50:]))

    def test_no_common_base_id_gives_no_paired_mean(self):
        suite = SuiteSpec("moons", 20, angles=[0.0, 30.0], seed=33,
                          prior_shift=[[1.0, 0.0], [0.0, 1.0]]).build()
        params = init_params(MlpSpec((2, 6, 2), seed=34))
        with pytest.warns(UserWarning, match="empty cell"):
            paired_mean, unpaired_mean = paired_vs_unpaired_kl(params, suite, 2, seed=5)
            bundle = collect_bundle(params, suite, per_class_per_domain=2, seed=5)
        assert paired_mean is None and unpaired_mean > 0.0
        assert bundle.paired_kl_mean is None and bundle.agreement is None
        assert bundle.unpaired_kl_mean == unpaired_mean


class TestCollectBundle:
    def test_bundle_invariants(self):
        suite = SuiteSpec("moons", 25, seed=25).build()
        params = init_params(MlpSpec((2, 6, 2), seed=26))
        bundle = collect_bundle(params, suite, seed=2)
        assert 0.0 <= bundle.agreement <= 1.0
        np.testing.assert_array_equal(bundle.domain_mmd, bundle.domain_mmd.T)
        assert np.all(bundle.domain_mmd >= -1e-12)
        assert bundle.bandwidth > 0
        present = ~np.isnan(bundle.posterior_kl)
        assert present.any()
        assert bundle.unpaired_kl_mean >= 0.0

    def test_calls_no_mmd_rbf(self, monkeypatch):
        """The probes read every entry off kernel blocks, never pair by pair."""
        def forbidden(*args, **kwargs):
            raise AssertionError("mmd_rbf called by a probe")

        original = losses.mmd_rbf
        for name, module in list(sys.modules.items()):
            if (name == "hirnet" or name.startswith("hirnet.")) and \
                    getattr(module, "mmd_rbf", None) is original:
                monkeypatch.setattr(module, "mmd_rbf", forbidden)
        suite = SuiteSpec("moons", 20, angles=[0.0, 30.0, 60.0], seed=31).build()
        bundle = collect_bundle(init_params(MlpSpec((2, 6, 2), seed=32)), suite)
        assert bundle.domain_mmd.shape == (3, 3) and bundle.class_mmd.shape == (2, 3, 3)

    def test_builds_each_batch_plan_once(self, monkeypatch):
        built = []

        class CountingPlan(diagnostics.BatchPlan):
            def __init__(self, suite, per_class_per_domain, paired=False):
                built.append(paired)
                super().__init__(suite, per_class_per_domain, paired)

        monkeypatch.setattr(diagnostics, "BatchPlan", CountingPlan)
        suite = SuiteSpec("moons", 20, angles=[0.0, 30.0, 60.0], seed=33).build()
        collect_bundle(init_params(MlpSpec((2, 6, 2), seed=34)), suite)
        assert sorted(built) == [False, True]


def test_trained_model_probe_batch_consistency():
    suite = SuiteSpec("moons", 20, angles=[0.0, 30.0], seed=27).build()
    params = init_params(MlpSpec((2, 5, 2), seed=28))
    for x, labels in stratified_batches(suite, 2, seed=3):
        matrix = posterior_kl_matrix(params, x, labels)
        loss, _ = hir_kl(log_posteriors(params, x), labels)
        assert np.nansum(matrix) == pytest.approx(loss.item(), abs=1e-10)
        break

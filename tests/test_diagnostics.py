import itertools
import sys

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from hirnet import diagnostics, losses
from hirnet.data import DomainDataset, DomainSuite, gen_rotated_suite, stratified_batches
from hirnet.diagnostics import (
    DiagnosticUnavailableError,
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
    base = gen_rotated_suite("moons", n, angles=[0.0], seed=seed).domains[0]
    copy = DomainDataset(base.x.copy(), base.y.copy(), base.base_id.copy())
    return DomainSuite([base, copy], [0.0, 0.0], 2)


class TestPredictionAgreement:
    def test_constant_model_agrees_everywhere(self):
        suite = gen_rotated_suite("moons", 30, seed=1)
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
        suite = gen_rotated_suite("moons", 40, seed=4)
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
        with pytest.raises(DiagnosticUnavailableError):
            prediction_agreement(constant_model(), suite)


class TestDomainAlignmentMatrix:
    def test_identical_domains_off_diagonal_zero(self):
        suite = duplicated_domain_suite()
        params = init_params(MlpSpec((2, 6, 2), seed=6))
        matrix, _ = domain_alignment_matrix(params, suite)
        assert abs(matrix[0, 1]) <= 1e-12

    def test_symmetric_zero_diagonal_nonnegative(self):
        suite = gen_rotated_suite("moons", 30, seed=7)
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
        suite = gen_rotated_suite("moons", 25, angles=[0.0, 30.0, 60.0], seed=10)
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

    def test_per_class_marks_missing_cells(self):
        suite = gen_rotated_suite("moons", 20, angles=[0.0, 30.0], seed=12)
        # strip class 1 from domain 0
        keep = np.flatnonzero(suite.domains[0].y == 0)
        suite.domains[0] = suite.domains[0].subset(keep)
        params = init_params(MlpSpec((2, 5, 2), seed=13))
        stack, _ = domain_alignment_matrix(params, suite, per_class=True)
        assert stack.shape == (2, 2, 2)
        assert np.isnan(stack[1, 0, 1]) and np.isnan(stack[1, 1, 0])
        assert np.isfinite(stack[0, 0, 1])


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
        paired_mean, unpaired_mean = paired_vs_unpaired_kl(params, suite, seed=0,
                                                           n_batches=10)
        assert paired_mean == pytest.approx(0.0, abs=1e-12)
        assert unpaired_mean > 0.0

    def test_both_means_nonnegative(self):
        suite = gen_rotated_suite("moons", 30, seed=23)
        params = init_params(MlpSpec((2, 6, 2), seed=24))
        paired_mean, unpaired_mean = paired_vs_unpaired_kl(params, suite, seed=1,
                                                           n_batches=5)
        assert paired_mean >= 0.0
        assert unpaired_mean >= 0.0

    @pytest.mark.parametrize("per_class_per_domain", [1, 4])
    def test_stacked_batches_give_the_per_batch_values(self, monkeypatch, per_class_per_domain):
        # 12 rows per cell: 50 batches span several epochs and end mid-epoch.
        suite = gen_rotated_suite("moons", 12, angles=[0.0, 25.0, 50.0], seed=29)
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
            per_batch = []
            for epoch in itertools.count():
                for x, labels in stratified_batches(suite, per_class_per_domain, paired=paired,
                                                    seed=[4, salt, epoch]):
                    per_batch.append(hir_kl(log_posteriors(params, x), labels)[0].item())
                if len(per_batch) >= 50:
                    break
            expected += per_batch[:50]
        assert values == expected
        assert means == (np.mean(expected[:50]), np.mean(expected[50:]))


class TestCollectBundle:
    def test_bundle_invariants(self):
        suite = gen_rotated_suite("moons", 25, seed=25)
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
        """The probes read every entry off one kernel, never pair by pair."""
        def forbidden(*args, **kwargs):
            raise AssertionError("mmd_rbf called by a probe")

        original = losses.mmd_rbf
        for name, module in list(sys.modules.items()):
            if (name == "hirnet" or name.startswith("hirnet.")) and \
                    getattr(module, "mmd_rbf", None) is original:
                monkeypatch.setattr(module, "mmd_rbf", forbidden)
        suite = gen_rotated_suite("moons", 20, angles=[0.0, 30.0, 60.0], seed=31)
        bundle = collect_bundle(init_params(MlpSpec((2, 6, 2), seed=32)), suite)
        assert bundle.domain_mmd.shape == (3, 3) and bundle.class_mmd.shape == (2, 3, 3)


def test_trained_model_probe_batch_consistency():
    suite = gen_rotated_suite("moons", 20, angles=[0.0, 30.0], seed=27)
    params = init_params(MlpSpec((2, 5, 2), seed=28))
    for x, labels in stratified_batches(suite, 2, seed=3):
        matrix = posterior_kl_matrix(params, x, labels)
        loss, _ = hir_kl(log_posteriors(params, x), labels)
        assert np.nansum(matrix) == pytest.approx(loss.item(), abs=1e-10)
        break

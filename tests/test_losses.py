import dataclasses
import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from hirnet import autodiff as ad
from hirnet.errors import ConfigError, ContractError
from hirnet.losses import (
    BatchLabels,
    class_conditional_align,
    combined_loss,
    cross_entropy,
    domain_mmd_penalty,
    hir_kl,
    median_bandwidth,
    mmd_rbf,
    pairwise_kl,
    same_class_pairs,
)


def naive_hir_kl(log_probs, labels, domains=None, cross_domain_only=False):
    """Loop-based reference: KL(p_i || p_j) over same-class pairs i < j."""
    n, m = log_probs.shape
    total, count = 0.0, 0
    for i in range(n):
        for j in range(i + 1, n):
            if labels[i] != labels[j]:
                continue
            if cross_domain_only and domains[i] == domains[j]:
                continue
            for k in range(m):
                total += math.exp(log_probs[i, k]) * (log_probs[i, k] - log_probs[j, k])
            count += 1
    return total, count


def naive_ccsa(z, labels, domains):
    """Loop-based reference: mean squared distance, same class, different domain."""
    total, count = 0.0, 0
    n = z.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            if labels[i] == labels[j] and domains[i] != domains[j]:
                total += float(np.sum((z[i] - z[j]) ** 2))
                count += 1
    return (total / count, count) if count else (0.0, 0)


def naive_mmd(a, b, bandwidth):
    """cdist-based reference for the biased V-statistic."""
    k = lambda u, v: np.exp(-cdist(u, v, "sqeuclidean") / (2 * bandwidth**2))
    return k(a, a).mean() + k(b, b).mean() - 2 * k(a, b).mean()


def random_log_posteriors(rng, n, m):
    logits = rng.normal(scale=2.0, size=(n, m))
    return ad.log_softmax(ad.tensor(logits)).data


class TestCrossEntropy:
    def test_perfect_prediction_is_zero(self):
        lp = np.array([[0.0, -50.0], [-50.0, 0.0]])
        assert cross_entropy(lp, [0, 1]).item() == 0.0

    def test_uniform_posterior_ten_classes(self):
        lp = np.full((4, 10), -np.log(10.0))
        assert cross_entropy(lp, [0, 3, 7, 9]).item() == pytest.approx(np.log(10.0), abs=1e-12)

    def test_mean_of_two_hand_values(self):
        lp = np.array([[-0.3133, -2.0], [-2.0, -1.3133]])
        assert cross_entropy(lp, [0, 1]).item() == pytest.approx(0.8133, abs=1e-12)

    def test_label_out_of_range(self):
        lp = np.full((2, 3), -1.0)
        with pytest.raises(ContractError):
            cross_entropy(lp, [0, 3])
        with pytest.raises(ContractError):
            cross_entropy(lp, [-1, 0])

    def test_accepts_batch_labels(self):
        lp = np.full((2, 2), -np.log(2.0))
        labels = BatchLabels([0, 1], [0, 1])
        assert cross_entropy(lp, labels).item() == pytest.approx(np.log(2.0), abs=1e-15)

    def test_gradient(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(5, 3))
        y = rng.integers(0, 3, size=5)
        err = ad.grad_check(
            lambda g, ts: cross_entropy(ad.log_softmax(ts[0]), y), [logits])
        assert err < 1e-4

    def test_gradient_with_respect_to_log_probs(self):
        rng = np.random.default_rng(32)
        lp = random_log_posteriors(rng, 6, 4)
        y = rng.integers(0, 4, size=6)
        assert ad.grad_check(lambda g, ts: cross_entropy(ts[0], y) * 3.0, [lp]) < 1e-4


class TestHirKl:
    def test_identical_posteriors_zero(self):
        lp = np.tile(np.log([[0.2, 0.8]]), (4, 1))
        loss, count = hir_kl(lp, [1, 1, 1, 1])
        assert loss.item() == pytest.approx(0.0, abs=1e-15)
        assert count == 6

    def test_single_sample_no_pairs(self):
        loss, count = hir_kl(np.log([[0.5, 0.5]]), [0])
        assert loss.item() == 0.0
        assert count == 0

    def test_two_sample_closed_form(self):
        # KL((.5,.5) || (.25,.75)) = .5 ln 2 + .5 ln(2/3)
        lp = np.log([[0.5, 0.5], [0.25, 0.75]])
        loss, count = hir_kl(lp, [0, 0])
        expected = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
        assert expected == pytest.approx(0.14384103622589045)
        assert loss.item() == pytest.approx(expected, abs=1e-12)
        assert count == 1

    def test_three_samples_sum_three_directed_terms(self):
        rng = np.random.default_rng(0)
        lp = random_log_posteriors(rng, 3, 4)
        loss, count = hir_kl(lp, [2, 2, 2])
        assert count == 3

        def kl(i, j):
            return float(np.sum(np.exp(lp[i]) * (lp[i] - lp[j])))

        assert loss.item() == pytest.approx(kl(0, 1) + kl(0, 2) + kl(1, 2), abs=1e-12)

    def test_matches_naive_oracle_on_random_batches(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(1, 30))
            m = int(rng.integers(2, 6))
            lp = random_log_posteriors(rng, n, m)
            y = rng.integers(0, m, size=n)
            loss, count = hir_kl(lp, y)
            expected, expected_count = naive_hir_kl(lp, y)
            assert count == expected_count
            assert loss.item() == pytest.approx(expected, abs=1e-10)

    def test_cross_domain_only_drops_same_domain_pairs(self):
        rng = np.random.default_rng(1)
        lp = random_log_posteriors(rng, 12, 3)
        y = rng.integers(0, 3, size=12)
        d = rng.integers(0, 2, size=12)
        labels = BatchLabels(y, d)
        loss, count = hir_kl(lp, labels, cross_domain_only=True)
        expected, expected_count = naive_hir_kl(lp, y, d, cross_domain_only=True)
        assert count == expected_count
        assert loss.item() == pytest.approx(expected, abs=1e-10)

    def test_cross_domain_only_needs_domains(self):
        with pytest.raises(ContractError):
            hir_kl(np.log([[0.5, 0.5]] * 2), [0, 0], cross_domain_only=True)

    def test_normalize_divides_by_pair_count(self):
        rng = np.random.default_rng(2)
        lp = random_log_posteriors(rng, 8, 3)
        y = np.zeros(8, dtype=int)
        raw, count = hir_kl(lp, y)
        normed, _ = hir_kl(lp, y, normalize=True)
        assert normed.item() == pytest.approx(raw.item() / count, abs=1e-12)

    def test_nonnegative_and_zero_iff_identical(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            lp = random_log_posteriors(rng, 10, 4)
            y = rng.integers(0, 3, size=10)
            loss, _ = hir_kl(lp, y)
            assert loss.item() >= 0.0
        # zero case: force identical posteriors within each class
        lp = random_log_posteriors(rng, 3, 4)
        lp_rows = lp[np.array([0, 0, 1, 1, 2, 2])]
        y = np.array([0, 0, 1, 1, 2, 2])
        loss, _ = hir_kl(lp_rows, y)
        assert abs(loss.item()) < 1e-9

    def test_asymmetric_invariant_to_cross_class_permutation(self):
        # Swapping samples of different classes keeps all pair directions.
        rng = np.random.default_rng(5)
        lp = random_log_posteriors(rng, 6, 3)
        y = np.array([0, 1, 0, 1, 0, 1])
        base, _ = hir_kl(lp, y)
        perm = np.array([1, 0, 2, 3, 4, 5])  # swap a class-0 and class-1 sample
        loss, _ = hir_kl(lp[perm], y[perm])
        assert loss.item() == pytest.approx(base.item(), abs=1e-12)

    def test_asymmetric_depends_on_same_class_order(self):
        lp = np.log([[0.5, 0.5], [0.25, 0.75]])
        forward_, _ = hir_kl(lp, [0, 0])
        reverse_, _ = hir_kl(lp[::-1].copy(), [0, 0])
        assert forward_.item() != pytest.approx(reverse_.item(), abs=1e-6)

    def test_gradient_through_log_softmax(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(8, 3))
        y = rng.integers(0, 2, size=8)
        err = ad.grad_check(
            lambda g, ts: hir_kl(ad.log_softmax(ts[0]), y)[0], [logits])
        assert err < 1e-4

    @pytest.mark.parametrize("cross_domain_only,normalize",
                             [(True, False), (False, True), (True, True)])
    def test_gradient_of_options(self, cross_domain_only, normalize):
        rng = np.random.default_rng(23)
        logits = rng.normal(size=(12, 3))
        labels = BatchLabels(rng.integers(0, 2, size=12), rng.integers(0, 3, size=12))
        err = ad.grad_check(
            lambda g, ts: hir_kl(ad.log_softmax(ts[0]), labels, cross_domain_only=cross_domain_only,
                                 normalize=normalize)[0], [logits])
        assert err < 1e-4

    def test_gradient_with_respect_to_log_probs(self):
        # The node's own backward, without log_softmax's projection in front.
        rng = np.random.default_rng(24)
        lp = random_log_posteriors(rng, 9, 4)
        labels = BatchLabels(rng.integers(0, 3, size=9), rng.integers(0, 2, size=9))
        err = ad.grad_check(
            lambda g, ts: hir_kl(ts[0], labels, cross_domain_only=True)[0], [lp])
        assert err < 1e-4

    def test_records_one_tape_node(self):
        g = ad.Graph()
        lp = ad.log_softmax(g.param(np.random.default_rng(25).normal(size=(30, 3))))
        before = len(g)
        hir_kl(lp, np.zeros(30, dtype=int))
        assert len(g) == before + 1


class TestPairwiseKl:
    def test_sum_matches_hir_kl(self):
        rng = np.random.default_rng(8)
        lp = random_log_posteriors(rng, 15, 4)
        y = rng.integers(0, 3, size=15)
        i_idx, j_idx, kl = pairwise_kl(lp, y)
        loss, count = hir_kl(lp, y)
        assert i_idx.size == count
        assert np.all(i_idx < j_idx)
        assert kl.sum() == pytest.approx(loss.item(), abs=1e-10)


class TestCombinedLoss:
    def test_alpha_zero_is_classification_tensor(self):
        rng = np.random.default_rng(9)
        lp = ad.log_softmax(ad.tensor(rng.normal(size=(6, 3))))
        breakdown = combined_loss(lp, rng.integers(0, 3, size=6), 0.0)
        assert breakdown.combined is breakdown.classification
        assert breakdown.hir is None
        assert breakdown.pair_count == 0

    def test_combination_identity(self):
        rng = np.random.default_rng(10)
        for alpha in (1e-3, 1e-2, 0.5):
            lp = random_log_posteriors(rng, 10, 3)
            y = rng.integers(0, 3, size=10)
            bd = combined_loss(lp, y, alpha)
            assert bd.combined_value == pytest.approx(
                bd.classification_value + alpha * bd.hir_value, abs=1e-12)

    def test_arithmetic_example(self):
        # L_c = 2.0, L_h = 100.0, alpha = 1e-3 -> 2.1
        assert 2.0 + 1e-3 * 100.0 == pytest.approx(2.1, abs=1e-15)
        rng = np.random.default_rng(11)
        lp = random_log_posteriors(rng, 10, 3)
        y = rng.integers(0, 3, size=10)
        bd = combined_loss(lp, y, 1e-3)
        assert bd.alpha == 1e-3

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigError):
            combined_loss(np.log([[0.5, 0.5]]), [0], -0.1)


class TestMmd:
    def test_identical_sets_zero(self):
        rng = np.random.default_rng(12)
        z = rng.normal(size=(10, 4))
        assert abs(mmd_rbf(z, z.copy(), 1.0).item()) <= 1e-12

    def test_singleton_closed_form(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[3.0, 4.0]])  # distance 5
        sigma = 2.0
        expected = 2.0 - 2.0 * np.exp(-25.0 / (2 * sigma**2))
        assert mmd_rbf(a, b, sigma).item() == pytest.approx(expected, abs=1e-12)

    def test_separated_clusters_approach_two(self):
        # Tight clusters relative to the bandwidth, far apart: within-cluster
        # kernel ~1, cross-cluster kernel ~0.
        rng = np.random.default_rng(13)
        a = 0.01 * rng.normal(size=(20, 2))
        b = 0.01 * rng.normal(size=(20, 2)) + 1000.0
        value = mmd_rbf(a, b, 1.0).item()
        assert value == pytest.approx(2.0, abs=1e-2)

    def test_symmetric_and_nonnegative(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            a = rng.normal(size=(rng.integers(1, 8), 3))
            b = rng.normal(size=(rng.integers(1, 8), 3))
            ab = mmd_rbf(a, b, 0.7).item()
            ba = mmd_rbf(b, a, 0.7).item()
            assert ab == pytest.approx(ba, abs=1e-12)
            assert ab >= -1e-12

    def test_matches_cdist_oracle(self):
        rng = np.random.default_rng(15)
        a = rng.normal(size=(6, 3))
        b = rng.normal(size=(9, 3))
        assert mmd_rbf(a, b, 1.3).item() == pytest.approx(naive_mmd(a, b, 1.3), abs=1e-10)

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0])
    def test_bad_bandwidth(self, bandwidth):
        with pytest.raises(ConfigError):
            mmd_rbf(np.ones((2, 2)), np.ones((2, 2)), bandwidth)

    @pytest.mark.parametrize("bandwidth", [1e-160, 1e-300])
    def test_positive_bandwidth_with_an_infinite_gamma_rejected(self, bandwidth):
        # 1 / (2 bandwidth^2) overflows: no kernel value would be finite.
        with pytest.raises(ConfigError):
            mmd_rbf(np.ones((2, 2)), np.ones((2, 2)), bandwidth)

    def test_bad_bandwidth_of_one_run_rejects_the_stack(self):
        z = np.random.default_rng(31).normal(size=(3, 6, 2))
        with pytest.raises(ConfigError):
            domain_mmd_penalty(z, np.arange(6) % 2, bandwidth=np.array([1.0, 1e-200, 1.0]))

    def test_gradient(self):
        rng = np.random.default_rng(16)
        a = rng.normal(size=(4, 2))
        b = rng.normal(size=(3, 2))
        err = ad.grad_check(lambda g, ts: mmd_rbf(ts[0], ts[1], 0.9), [a, b])
        assert err < 1e-4

    def test_gradient_with_one_constant_side(self):
        rng = np.random.default_rng(30)
        a = rng.normal(size=(4, 2))
        b = rng.normal(size=(5, 2))
        err = ad.grad_check(lambda g, ts: mmd_rbf(ad.tensor(a), ts[0], 0.9), [b])
        assert err < 1e-4


class TestClassConditionalAlign:
    def test_coinciding_pairs_zero(self):
        z = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0]])
        labels = np.array([0, 0, 1])
        domains = np.array([0, 1, 0])
        assert class_conditional_align(z, labels, domains).item() == 0.0

    def test_single_pair_squared_distance(self):
        z = np.array([[0.0, 0.0], [2.0, 0.0]])
        value = class_conditional_align(z, [1, 1], [0, 1]).item()
        assert value == pytest.approx(4.0, abs=1e-15)

    def test_no_cross_domain_pair_returns_zero(self):
        z = np.random.default_rng(17).normal(size=(4, 2))
        assert class_conditional_align(z, [0, 0, 1, 1], [0, 0, 0, 0]).item() == 0.0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            n = int(rng.integers(2, 25))
            z = rng.normal(size=(n, 3))
            labels = rng.integers(0, 3, size=n)
            domains = rng.integers(0, 3, size=n)
            expected, _ = naive_ccsa(z, labels, domains)
            got = class_conditional_align(z, labels, domains).item()
            assert got == pytest.approx(expected, abs=1e-10)

    def test_gradient(self):
        rng = np.random.default_rng(19)
        z = rng.normal(size=(6, 2))
        labels = np.array([0, 0, 1, 1, 0, 1])
        domains = np.array([0, 1, 0, 1, 2, 2])
        err = ad.grad_check(
            lambda g, ts: class_conditional_align(ts[0], labels, domains), [z])
        assert err < 1e-4

    def test_gradient_with_uneven_cells(self):
        rng = np.random.default_rng(26)
        z = rng.normal(size=(11, 3))
        labels = np.array([0, 0, 0, 1, 1, 0, 1, 2, 0, 1, 1])
        domains = np.array([0, 0, 1, 1, 1, 2, 0, 2, 0, 1, 2])
        err = ad.grad_check(
            lambda g, ts: class_conditional_align(ts[0], BatchLabels(labels, domains)), [z])
        assert err < 1e-4

    def test_needs_domains(self):
        with pytest.raises(ContractError):
            class_conditional_align(np.zeros((2, 2)), [0, 0])


class TestDomainMmdPenalty:
    def test_mean_over_domain_pairs(self):
        rng = np.random.default_rng(20)
        z = rng.normal(size=(9, 2))
        domains = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
        bw = 1.1
        parts = [naive_mmd(z[domains == a], z[domains == b], bw)
                 for a in range(3) for b in range(a + 1, 3)]
        got = domain_mmd_penalty(z, domains, bandwidth=bw).item()
        assert got == pytest.approx(np.mean(parts), abs=1e-10)

    def test_single_domain_zero(self):
        z = np.random.default_rng(21).normal(size=(4, 2))
        assert domain_mmd_penalty(z, [0, 0, 0, 0], bandwidth=1.0).item() == 0.0

    def test_matches_pair_oracle_with_unequal_domains(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            sizes = rng.integers(1, 9, size=int(rng.integers(2, 6)))
            domains = rng.permutation(np.repeat(np.arange(sizes.size), sizes))
            z = rng.normal(scale=1.5, size=(domains.size, 3))
            bw = float(rng.uniform(0.3, 2.0))
            parts = [naive_mmd(z[domains == a], z[domains == b], bw)
                     for a in range(sizes.size) for b in range(a + 1, sizes.size)]
            got = domain_mmd_penalty(z, domains, bandwidth=bw).item()
            assert got == pytest.approx(np.mean(parts), abs=1e-10)

    def test_gradient_with_unequal_domains_and_a_single_row(self):
        rng = np.random.default_rng(28)
        z = rng.normal(size=(8, 2))
        domains = np.array([0, 1, 0, 2, 0, 1, 0, 0])  # domain 2 has one row
        err = ad.grad_check(lambda g, ts: domain_mmd_penalty(ts[0], domains, bandwidth=0.8),
                            [z])
        assert err < 1e-4

    def test_records_one_tape_node(self):
        g = ad.Graph()
        z = g.param(np.random.default_rng(29).normal(size=(40, 4))) * 1.0
        before = len(g)
        domain_mmd_penalty(z, np.arange(40) % 4)
        assert len(g) == before + 1


class TestMedianBandwidth:
    def test_matches_cdist_median(self):
        rng = np.random.default_rng(22)
        z = rng.normal(size=(12, 3))
        d = cdist(z, z)
        expected = np.median(d[np.triu_indices(12, k=1)])
        assert median_bandwidth(z) == pytest.approx(expected, abs=1e-10)

    def test_degenerate_falls_back(self):
        assert median_bandwidth(np.zeros((5, 2))) == 1.0
        assert median_bandwidth(np.zeros((1, 2))) == 1.0
        np.testing.assert_array_equal(median_bandwidth(np.zeros((2, 1, 2))), [1.0, 1.0])

    @pytest.mark.parametrize("n", [50, 1200, 1201])
    def test_bitwise_equal_to_the_index_pair_formula(self, n):
        z = np.random.default_rng(n).normal(size=(n, 32))
        sq = np.sum(z * z, axis=1)
        dists = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (z @ z.T), 0.0)
        expected = float(np.median(np.sqrt(dists[np.triu_indices(n, k=1)])))
        assert median_bandwidth(z) == expected

    def test_stack_gives_each_matrix_its_own_median(self):
        z = np.random.default_rng(33).normal(size=(3, 40, 4))
        z[1] = 0.0
        expected = [median_bandwidth(matrix) for matrix in z]
        assert expected[1] == 1.0
        np.testing.assert_array_equal(median_bandwidth(z), expected)


STACKED_LOSSES = {
    "cross_entropy": lambda lp, z, labels: cross_entropy(lp, labels),
    "hir_kl": lambda lp, z, labels: hir_kl(lp, labels)[0],
    "hir_kl_cross_domain_normalized": lambda lp, z, labels: hir_kl(
        lp, labels, cross_domain_only=True, normalize=True)[0],
    "ccsa": lambda lp, z, labels: class_conditional_align(z, labels),
    "domain_mmd_median_bandwidth": lambda lp, z, labels: domain_mmd_penalty(z, labels.domains),
}


@pytest.mark.parametrize("name", sorted(STACKED_LOSSES))
def test_loss_of_a_stack_is_each_run_alone(name):
    """A stack of runs sharing one label layout: one value per run, and each
    run's value and gradients are those of the run alone, bit for bit."""
    rng = np.random.default_rng(34)
    labels = BatchLabels(rng.integers(0, 3, size=14), rng.integers(0, 3, size=14))
    logits, z = rng.normal(size=(3, 14, 3)), rng.normal(size=(3, 14, 4))

    def value_and_grads(logits, z):
        g = ad.Graph()
        leaves = g.param(logits), g.param(z)
        loss = STACKED_LOSSES[name](ad.log_softmax(leaves[0]), leaves[1] * 1.0, labels)
        grads = g.backward(loss)
        return loss.data, [grads[leaf.node_id] for leaf in leaves]

    stacked_value, stacked_grads = value_and_grads(logits, z)
    assert stacked_value.shape == (3, 1, 1)
    for run in range(3):
        value, grads = value_and_grads(logits[run], z[run])
        assert stacked_value[run].tobytes() == value.tobytes()
        for stacked_grad, grad in zip(stacked_grads, grads):
            assert stacked_grad[run].tobytes() == grad.tobytes()


def separate_distances_mmd(z, domains):
    """The median-bandwidth MMD penalty with the median and the kernel each
    taking their own distance matrix, the kernel's from a concatenated copy
    of z: value and gradient in z, seeded with one per run."""
    sq_dists = lambda a: np.maximum(  # noqa: E731
        np.sum(a * a, axis=-1)[..., :, None] + np.sum(a * a, axis=-1)[..., None, :]
        - 2.0 * (a @ a.swapaxes(-1, -2)), 0.0)
    bandwidth = np.asarray(median_bandwidth(z)).reshape(-1, 1, 1)
    zc = np.concatenate([z], axis=-2)
    gamma = -1.0 / (2.0 * bandwidth * bandwidth)
    gamma = gamma[0] if z.ndim == 2 else gamma
    _, inverse, sizes = np.unique(domains, return_inverse=True, return_counts=True)
    w = 1.0 / sizes[inverse]
    same = inverse[:, None] == inverse[None, :]
    weights = np.outer(w, w) * (sizes.size * same - 1.0) / (sizes.size * (sizes.size - 1) / 2)
    wk = weights * np.exp(gamma * sq_dists(zc))
    up = np.ones(z.shape[:-2] + (1, 1))
    grad = (4.0 * gamma * up) * (wk.sum(axis=-1, keepdims=True) * zc - wk @ zc)
    return wk.sum(axis=(-2, -1), keepdims=True), grad


@pytest.mark.parametrize("shape", [(30, 4), (3, 30, 4), (1, 60, 32)])
def test_shared_distances_give_the_separate_distances_bits(shape):
    """The median and the kernel share one distance matrix; the penalty
    keeps the bits of computing it twice."""
    rng = np.random.default_rng(41)
    z = rng.normal(size=shape)
    domains = np.arange(shape[-2]) % 3
    g = ad.Graph()
    leaf = g.param(z)
    loss = domain_mmd_penalty(leaf, domains)
    grad = g.backward(loss)[leaf.node_id]
    expected_value, expected_grad = separate_distances_mmd(z, domains)
    assert loss.data.tobytes() == expected_value.tobytes()
    assert grad.tobytes() == expected_grad.tobytes()


def test_loss_without_pairs_is_zero_per_run():
    lp = ad.log_softmax(ad.tensor(np.zeros((2, 3, 2))))
    labels = BatchLabels([0, 1, 0], [0, 0, 0])
    assert hir_kl(lp, [0, 1, 2])[0].shape == (2, 1, 1)
    assert class_conditional_align(np.zeros((2, 3, 2)), labels).shape == (2, 1, 1)
    assert domain_mmd_penalty(np.zeros((2, 3, 2)), labels.domains).shape == (2, 1, 1)


class TestBatchLabels:
    def test_length_checks(self):
        with pytest.raises(ContractError):
            BatchLabels([0, 1], [0])
        with pytest.raises(ContractError):
            BatchLabels([0, 1], [0, 1], [5])

    def test_paired_flag(self):
        assert BatchLabels([0], [0], [3]).paired
        assert not BatchLabels([0], [0]).paired

    def test_arrays_and_layout_fields_are_read_only(self):
        y, d, ids = np.array([1, 0, 1, 2, 0, 1]), np.array([0, 0, 1, 1, 2, 2]), np.arange(6)
        labels = BatchLabels(y, d, ids)
        y[0] = d[0] = ids[0] = 7  # the caller's arrays were copied
        assert labels.labels[0] == 1 and labels.domains[0] == 0 and labels.pair_id[0] == 0
        fields = [labels.onehot(3), *labels.class_groups, *labels.cell_groups,
                  labels.mmd_weights, labels.upper]
        for arr in [labels.labels, labels.domains, labels.pair_id, *fields]:
            with pytest.raises(ValueError):
                arr.flat[0] = arr.flat[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            labels.labels = np.zeros(6, dtype=np.int64)

    def test_layout_fields_equal_a_fresh_computation(self):
        rng = np.random.default_rng(3)
        y, d = rng.integers(0, 3, size=11), rng.integers(1, 4, size=11)
        labels = BatchLabels(y, d)
        classes = [np.flatnonzero(y == c).tolist() for c in sorted(set(y))]
        cells = [np.flatnonzero((y == c) & (d == e)).tolist() for c, e in sorted(set(zip(y, d)))]
        domains = sorted(set(d))
        pairs = [(a, b) for a in domains for b in domains if a < b]
        weights = sum(np.outer(v, v) for v in ((d == a) / np.sum(d == a) - (d == b) / np.sum(d == b)
                                               for a, b in pairs)) / len(pairs)
        for _ in range(2):  # the first call computes, the second reads the cache
            np.testing.assert_array_equal(labels.onehot(4), np.eye(4)[y])
            assert [g.tolist() for g in labels.class_groups] == classes
            assert [g.tolist() for g in labels.cell_groups] == cells
            np.testing.assert_allclose(labels.mmd_weights, weights, rtol=1e-12, atol=1e-15)
            np.testing.assert_array_equal(labels.upper, np.triu(np.ones((11, 11), bool), k=1))
        with pytest.raises(ContractError, match="out of range"):
            labels.onehot(2)


def test_same_class_pairs_ordering():
    y = np.array([1, 0, 1, 0, 1])
    i_idx, j_idx = same_class_pairs(y)
    pairs = set(zip(i_idx.tolist(), j_idx.tolist()))
    assert pairs == {(0, 2), (0, 4), (2, 4), (1, 3)}

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from hirnet import autodiff as ad
from hirnet.errors import ConfigError, ContractError
from hirnet.losses import (
    BatchLabels,
    _mmd_sum,
    _pair_sums,
    _sq_dists,
    class_conditional_align,
    combined_loss,
    cross_entropy,
    domain_mmd_penalty,
    hir_kl,
    median_distance,
    mmd_rbf,
    pairwise_kl,
    rbf_gamma,
)
from tape_ops import scale


def median_bandwidth(z):
    """The bandwidth that the MMD penalty takes for the rows of z: per run,
    the :func:`median_distance` of their i < j squared distances."""
    upper = np.triu(np.ones((z.shape[-2],) * 2, dtype=bool), k=1)
    runs = _sq_dists(z)[None] if z.ndim == 2 else _sq_dists(z)
    medians = [median_distance(dists[upper]) for dists in runs]
    return medians[0] if z.ndim == 2 else np.array(medians)


def domain_labels(domains):
    """The :class:`BatchLabels` of a batch with these domain indices, all of class 0."""
    return BatchLabels(np.zeros(len(domains)), domains)


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


# Deterministic, and no example database written next to the sources.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


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
        assert ad.grad_check(lambda g, ts: scale(cross_entropy(ts[0], y), 3.0), [lp]) < 1e-4


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

    @PROPERTY
    @given(n=st.integers(2, 60), m=st.integers(2, 10), seed=st.integers(0, 2**32 - 1),
           spread=st.just(0.0) | st.floats(-12.0, -2.0).map(lambda e: 10.0 ** e))
    def test_absolute_error_on_near_aligned_posteriors(self, n, m, seed, spread):
        # Same-class posteriors that nearly agree: class centres at scale 3, and
        # rows off theirs by ``spread`` times a standard normal. The KL sum is then
        # near 0 and its O(n m) form has no relative accuracy, but stays within
        # 1e-11 in absolute terms.
        rng = np.random.default_rng(seed)
        y = rng.integers(0, m, size=n)
        logits = rng.normal(scale=3.0, size=(m, m))[y] + spread * rng.normal(size=(n, m))
        lp = ad.log_softmax(ad.tensor(logits)).data
        i, j = np.nonzero(np.triu(y[:, None] == y[None, :], k=1))
        oracle = math.fsum((np.exp(lp[i]) * (lp[i] - lp[j])).ravel().tolist())
        loss, count = hir_kl(lp, y)
        assert count == len(i)
        assert abs(loss.item() - oracle) <= 1e-11

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

    def test_combination_identity(self):
        rng = np.random.default_rng(10)
        for alpha in (1e-3, 1e-2, 0.5):
            lp = random_log_posteriors(rng, 10, 3)
            y = rng.integers(0, 3, size=10)
            bd = combined_loss(lp, y, alpha)
            assert bd.combined.item() == pytest.approx(
                bd.classification.item() + alpha * bd.hir.item(), abs=1e-12)

    def test_arithmetic_example(self):
        # L_c = 2.0, L_h = 100.0, alpha = 1e-3 -> 2.1
        assert 2.0 + 1e-3 * 100.0 == pytest.approx(2.1, abs=1e-15)
        rng = np.random.default_rng(11)
        lp = random_log_posteriors(rng, 10, 3)
        y = rng.integers(0, 3, size=10)
        bd = combined_loss(lp, y, 1e-3)
        assert bd.combined.item() == pytest.approx(
            bd.classification.item() + 1e-3 * bd.hir.item(), abs=1e-15)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigError):
            combined_loss(np.log([[0.5, 0.5]]), [0], -0.1)


class TestCombineRouting:
    """``combined_loss``'s sum returns a gradient for each term; the tape drops a
    constant one's. The terms are the cross-entropy of the log-probs and the
    CCSA penalty of z; one case keeps z constant, the other the log-probs."""

    def terms(self, attach):
        rng = np.random.default_rng(12)
        g = ad.Graph()
        values = [ad.log_softmax(ad.tensor(rng.normal(size=(3, 6, 3)))).data,
                  rng.normal(size=(3, 6, 2))]
        log_probs, z = [g.param(v) if on else ad.tensor(v) for v, on in zip(values, attach)]
        labels = BatchLabels([0, 1, 0, 1, 0, 1], [0, 0, 1, 1, 2, 2])
        return g, (log_probs, z), combined_loss(log_probs, labels, 0.3, "ccsa", z)

    @pytest.mark.parametrize("attach", [(True, False), (False, True)])
    def test_constant_term_gets_no_gradient(self, attach):
        g_all, all_leaves, both = self.terms((True, True))
        expected = g_all.backward(both.combined)
        g, leaves, breakdown = self.terms(attach)
        assert breakdown.combined.data.tobytes() == both.combined.data.tobytes()
        grads = g.backward(breakdown.combined)
        for leaf, leaf_all, on in zip(leaves, all_leaves, attach):
            assert (leaf.node_id is not None and grads[leaf.node_id] is not None) == on
            if on:
                assert grads[leaf.node_id].tobytes() == expected[leaf_all.node_id].tobytes()


def loop_pair_sums(segments, p, lp):
    """Reference: each segment's running sums on their own, one segment at a time."""
    ordered = np.take(np.stack((p, lp)), segments.order, axis=-2)
    sums = np.zeros((2,) + p.shape)
    for start, end in segments.spans.tolist():
        for k in range(start + 1, end):
            sums[0, ..., k, :] = sums[0, ..., k - 1, :] + ordered[0, ..., k - 1, :]
        for k in range(end - 2, start - 1, -1):
            sums[1, ..., k, :] = sums[1, ..., k + 1, :] + ordered[1, ..., k + 1, :]
    return np.take(sums, segments.inverse, axis=-2)


def shuffled_layout(rng, counts):
    """Labels and domains with ``counts[c][d]`` rows of class c in domain d, in random order."""
    cells = [(c, d) for c, row in enumerate(counts) for d, n in enumerate(row) for _ in range(n)]
    y, dom = np.array(cells).T[:, rng.permutation(len(cells))]
    return BatchLabels(y, dom)


PRIOR_SHIFT_COUNTS = [[3, 1], [2, 3], [0, 4]]


@pytest.mark.parametrize("runs", [None, 3], ids=["2d", "stacked"])
@pytest.mark.parametrize("counts", [[[1], [1], [1]], [[2], [2]], [[1, 1], [1, 1], [1, 1]],
                                    [[2, 2, 2], [2, 2, 2]], [[5] * 4] * 2, PRIOR_SHIFT_COUNTS],
                         ids=["spans-1", "spans-2", "cells-1", "cells-2", "grid", "prior-shift"])
def test_pair_sums_give_the_per_segment_loops_bytes(counts, runs):
    """Segments of one width take one cumsum per direction over a grid; the
    class segments and (class, domain) cells get the per-segment loop's bytes.
    The prior-shift layout's segments differ in width and take the loop."""
    rng = np.random.default_rng(len(str(counts)))
    labels = shuffled_layout(rng, counts)
    n, m = len(labels), 3
    shape = (n, m) if runs is None else (runs, n, m)
    lp = random_log_posteriors(rng, int(np.prod(shape[:-1])), m).reshape(shape)
    lp = lp * 10.0 ** rng.uniform(-3, 3, size=shape)
    for segments in (labels.segments("labels"), labels.segments("labels", "domains")):
        widths = set(np.diff(segments.spans, axis=1).ravel().tolist())
        assert (len(widths) > 1) == (counts is PRIOR_SHIFT_COUNTS)
        expected = loop_pair_sums(segments, np.exp(lp), lp)
        got = _pair_sums(segments, np.exp(lp), lp)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


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
        with pytest.raises(ConfigError):
            rbf_gamma(np.array([1.0, 1e-200, 1.0]), 3)

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
        bw = median_bandwidth(z)
        parts = [naive_mmd(z[domains == a], z[domains == b], bw)
                 for a in range(3) for b in range(a + 1, 3)]
        got = domain_mmd_penalty(z, domain_labels(domains)).item()
        assert got == pytest.approx(np.mean(parts), abs=1e-10)

    def test_single_domain_zero(self):
        z = np.random.default_rng(21).normal(size=(4, 2))
        assert domain_mmd_penalty(z, domain_labels([0, 0, 0, 0])).item() == 0.0

    def test_needs_one_domain_index_per_row(self):
        with pytest.raises(ContractError):
            domain_mmd_penalty(np.zeros((4, 2)), BatchLabels([0, 0, 1, 1]))
        with pytest.raises(ContractError):
            domain_mmd_penalty(np.zeros((4, 2)), domain_labels([0, 1, 0]))

    def test_matches_pair_oracle_with_unequal_domains(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            sizes = rng.integers(1, 9, size=int(rng.integers(2, 6)))
            domains = rng.permutation(np.repeat(np.arange(sizes.size), sizes))
            z = rng.normal(scale=1.5, size=(domains.size, 3))
            bw = median_bandwidth(z)
            parts = [naive_mmd(z[domains == a], z[domains == b], bw)
                     for a in range(sizes.size) for b in range(a + 1, sizes.size)]
            got = domain_mmd_penalty(z, domain_labels(domains)).item()
            assert got == pytest.approx(np.mean(parts), abs=1e-10)

    def test_gradient_with_unequal_domains_and_a_single_row(self):
        # At a fixed bandwidth: a finite difference of the penalty would also move its median.
        rng = np.random.default_rng(28)
        z = rng.normal(size=(8, 2))
        labels = domain_labels([0, 1, 0, 2, 0, 1, 0, 0])  # domain 2 has one row
        err = ad.grad_check(lambda g, ts: _mmd_sum((ts[0],), labels, 0.8), [z])
        assert err < 1e-4

    def test_records_one_tape_node(self):
        g = ad.Graph()
        z = scale(g.param(np.random.default_rng(29).normal(size=(40, 4))), 1.0)
        before = len(g)
        domain_mmd_penalty(z, domain_labels(np.arange(40) % 4))
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


def reference_median(sq_pairs):
    """The median heuristic as ``np.median`` over every pair's distance, 1.0 if it degenerates."""
    med = float(np.median(np.sqrt(sq_pairs))) if sq_pairs.size else 0.0
    return med if med > 0 else 1.0


class TestMedianDistance:
    @pytest.mark.parametrize("size", [1, 2, 7, 8, 1001, 1000])
    def test_odd_and_even_counts_give_np_median_bits(self, size):
        given = np.random.default_rng(size).random(size) ** 2 * 3.0
        pairs = given.copy()
        assert median_distance(pairs) == reference_median(given)
        np.testing.assert_array_equal(np.sort(pairs), np.sort(given))  # partitioned in place

    @pytest.mark.parametrize("pairs", [[4.0, 4.0, 1.0, 1.0, 9.0, 9.0], [0.0, 1.0, 1.0, 1.0, 4.0],
                                       [2.0, 2.0, 2.0, 2.0], [0.0, 0.0, 0.0, 3.0], [0.0, 0.0, 3.0]])
    def test_ties_give_np_median_bits(self, pairs):
        pairs = np.array(pairs)
        assert median_distance(pairs.copy()) == reference_median(pairs)

    @pytest.mark.parametrize("size", [1, 2, 5, 6])
    def test_all_zero_pairs_fall_back_to_one(self, size):
        assert median_distance(np.zeros(size)) == reference_median(np.zeros(size)) == 1.0

    @pytest.mark.parametrize("at", [0, 3, 6])
    def test_a_nan_entry_falls_back_to_one(self, at):
        pairs = np.random.default_rng(at).random(7)
        pairs[at] = np.nan
        assert np.isnan(np.median(np.sqrt(pairs)))
        assert median_distance(pairs.copy()) == reference_median(pairs) == 1.0

    @pytest.mark.parametrize("rows", [0, 1])
    def test_zero_and_one_rows_have_no_pair(self, rows):
        z = np.ones((rows, 3))
        assert median_distance(_sq_dists(z)[np.triu(np.ones((rows, rows), bool), k=1)]) == 1.0
        assert median_bandwidth(z) == 1.0

    def test_stack_gives_each_run_the_np_median_of_its_pairs(self):
        z = np.random.default_rng(43).normal(size=(4, 31, 5))
        z[2] = 0.0
        upper = np.triu(np.ones((31, 31), dtype=bool), k=1)
        got = median_bandwidth(z)
        assert got.shape == (4,) and got[2] == 1.0
        np.testing.assert_array_equal(got, [reference_median(d[upper]) for d in _sq_dists(z)])


STACKED_LOSSES = {
    "cross_entropy": lambda lp, z, labels: cross_entropy(lp, labels),
    "hir_kl": lambda lp, z, labels: hir_kl(lp, labels)[0],
    "hir_kl_cross_domain_normalized": lambda lp, z, labels: hir_kl(
        lp, labels, cross_domain_only=True, normalize=True)[0],
    "ccsa": lambda lp, z, labels: class_conditional_align(z, labels),
    "domain_mmd_median_bandwidth": lambda lp, z, labels: domain_mmd_penalty(z, labels),
}


@pytest.mark.parametrize("name", sorted(STACKED_LOSSES))
def test_loss_of_a_stack_is_each_run_alone(name):
    """A stack of runs sharing one label layout: one value per run, and each
    run's value and gradients are those of the run alone, bit for bit. Each
    loss reads one leaf, the log-probs or z; the other gets no gradient."""
    rng = np.random.default_rng(34)
    labels = BatchLabels(rng.integers(0, 3, size=14), rng.integers(0, 3, size=14))
    logits, z = rng.normal(size=(3, 14, 3)), rng.normal(size=(3, 14, 4))

    def value_and_grads(logits, z):
        g = ad.Graph()
        leaves = g.param(logits), g.param(z)
        loss = STACKED_LOSSES[name](ad.log_softmax(leaves[0]), scale(leaves[1], 1.0), labels)
        grads = g.backward(loss)
        return loss.data, [grads[leaf.node_id] for leaf in leaves]

    stacked_value, stacked_grads = value_and_grads(logits, z)
    assert stacked_value.shape == (3, 1, 1)
    reads_z = name in ("ccsa", "domain_mmd_median_bandwidth")
    assert stacked_grads[1 - reads_z] is None
    for run in range(3):
        value, grads = value_and_grads(logits[run], z[run])
        assert stacked_value[run].tobytes() == value.tobytes()
        assert grads[1 - reads_z] is None
        assert stacked_grads[reads_z][run].tobytes() == grads[reads_z].tobytes()


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
    loss = domain_mmd_penalty(leaf, domain_labels(domains))
    grad = g.backward(loss)[leaf.node_id]
    expected_value, expected_grad = separate_distances_mmd(z, domains)
    assert loss.data.tobytes() == expected_value.tobytes()
    assert grad.tobytes() == expected_grad.tobytes()


def test_loss_without_pairs_is_zero_per_run():
    lp = ad.log_softmax(ad.tensor(np.zeros((2, 3, 2))))
    labels = BatchLabels([0, 1, 0], [0, 0, 0])
    assert hir_kl(lp, [0, 1, 2])[0].shape == (2, 1, 1)
    assert class_conditional_align(np.zeros((2, 3, 2)), labels).shape == (2, 1, 1)
    assert domain_mmd_penalty(np.zeros((2, 3, 2)), labels).shape == (2, 1, 1)


class TestBatchLabels:
    def test_length_checks(self):
        with pytest.raises(ContractError):
            BatchLabels([0, 1], [0])

    def test_arrays_and_layout_fields_are_read_only(self):
        y, d = np.array([1, 0, 1, 2, 0, 1]), np.array([0, 0, 1, 1, 2, 2])
        labels = BatchLabels(y, d)
        y[0] = d[0] = 7  # the caller's arrays were copied
        assert labels.labels[0] == 1 and labels.domains[0] == 0
        fields = [labels.onehot(3), *labels.segments("labels"),
                  *labels.segments("labels", "domains"), labels.mmd_weights, labels.upper]
        for arr in [labels.labels, labels.domains, *fields]:
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
            for keys, groups in ((["labels"], classes), (["labels", "domains"], cells)):
                order, inverse, spans, n_later = labels.segments(*keys)
                assert [order[s:e].tolist() for s, e in spans.tolist()] == groups
                np.testing.assert_array_equal(order[inverse], np.arange(11))
                later = {i: len(g) - 1 - g.index(i) for g in groups for i in g}
                np.testing.assert_array_equal(n_later, [[later[i]] for i in range(11)])
            assert len(labels.segments("domains").spans) == len(set(d))
            np.testing.assert_allclose(labels.mmd_weights, weights, rtol=1e-12, atol=1e-15)
            np.testing.assert_array_equal(labels.upper, np.triu(np.ones((11, 11), bool), k=1))
        with pytest.raises(ContractError, match="out of range"):
            labels.onehot(2)


def test_pairwise_kl_orders_pairs_by_class_then_i_then_j():
    y = np.array([1, 0, 1, 0, 1])
    lp = random_log_posteriors(np.random.default_rng(34), 5, 3)
    i_idx, j_idx, kl = pairwise_kl(lp, y)
    assert list(zip(i_idx.tolist(), j_idx.tolist())) == [(1, 3), (0, 2), (0, 4), (2, 4)]
    lp_i, lp_j = lp[i_idx], lp[j_idx]
    assert kl.tobytes() == np.sum(np.exp(lp_i) * (lp_i - lp_j), axis=1).tobytes()


def per_group_rows(*keys):
    """Row indices, in batch order, of each distinct combination of the keys."""
    rows = np.stack(keys, axis=1)
    return [np.flatnonzero((rows == key).all(axis=1)) for key in np.unique(rows, axis=0)]


def per_group_pair_sums(groups, p, lp):
    """The pair sums of :func:`hir_kl` as one gather, cumsum and scatter per group."""
    earlier, later = np.zeros_like(p), np.zeros_like(lp)
    n_later = np.zeros((p.shape[-2], 1))
    for idx in groups:
        earlier[..., idx[1:], :] = np.cumsum(p[..., idx[:-1], :], axis=-2)
        later[..., idx[:-1], :] = np.cumsum(lp[..., idx[:0:-1], :], axis=-2)[..., ::-1, :]
        n_later[idx, 0] = np.arange(idx.size - 1, -1, -1)
    return earlier, later, n_later


def per_group_spread(groups, z):
    """Group sizes and offsets from the group means, one gather and scatter per group."""
    sizes, offsets = np.zeros((z.shape[-2], 1)), np.zeros_like(z)
    for idx in groups:
        cell = z[..., idx, :]
        sizes[idx], offsets[..., idx, :] = idx.size, cell - cell.mean(axis=-2, keepdims=True)
    return sizes, offsets


def per_group_hir_kl(lp, y, d, cross_domain_only, normalize):
    """Value and log-prob gradient of :func:`hir_kl` from the per-group pair sums."""
    p = np.exp(lp)
    earlier, later, n_later = per_group_pair_sums(per_group_rows(y), p, lp)
    if cross_domain_only:
        cell_p, cell_lp, cell_n = per_group_pair_sums(per_group_rows(y, d), p, lp)
        earlier, later, n_later = earlier - cell_p, later - cell_lp, n_later - cell_n
    pair_count = int(n_later.sum())
    if pair_count == 0:
        return np.zeros(lp.shape[:-2] + (1, 1)), None
    scale = 1.0 / pair_count if normalize else 1.0
    value = (p * (n_later * lp - later)).sum(axis=(-2, -1), keepdims=True) * scale
    up = np.ones(value.shape)
    return value, (up * scale) * (p * (n_later * lp - later + n_later) - earlier)


def per_group_ccsa(z, y, d):
    """Value and gradient of :func:`class_conditional_align` from the per-group spreads."""
    class_n, class_dev = per_group_spread(per_group_rows(y), z)
    cell_n, cell_dev = per_group_spread(per_group_rows(y, d), z)
    pair_count = int((class_n - cell_n).sum()) // 2
    if pair_count == 0:
        return np.zeros(z.shape[:-2] + (1, 1)), None
    total = ((class_n * class_dev * class_dev).sum(axis=(-2, -1), keepdims=True)
             - (cell_n * cell_dev * cell_dev).sum(axis=(-2, -1), keepdims=True))
    up = np.ones(total.shape)
    return total / pair_count, (2.0 * up / pair_count) * (class_n * class_dev - cell_n * cell_dev)


def value_and_gradient(loss_of, values):
    """A loss's value and the gradient of a leaf holding ``values``, None if constant."""
    g = ad.Graph()
    leaf = g.param(values)
    loss = loss_of(leaf)
    return loss.data, (g.backward(loss)[leaf.node_id] if loss.graph is not None else None)


def random_layout(rng):
    """Labels and domains with unequal and singleton groups and an absent class."""
    n, classes, domains = int(rng.integers(1, 25)), int(rng.integers(2, 5)), int(rng.integers(1, 5))
    present = rng.choice(classes, size=int(rng.integers(1, classes)), replace=False)
    y = rng.choice(present, size=n, p=rng.dirichlet(np.ones(present.size)))
    return y, rng.integers(0, domains, size=n), classes


@pytest.mark.parametrize("seed", range(40))
def test_segment_kernels_give_the_per_group_bits(seed):
    """``hir_kl`` and ``class_conditional_align`` over the layout's cached
    segments give the values and gradients of per-group gathers, bit for bit."""
    rng = np.random.default_rng(seed)
    y, d, classes = random_layout(rng)
    labels = BatchLabels(y, d)
    runs = int(rng.integers(1, 5))
    shape = (y.size,) if runs == 1 and rng.random() < 0.5 else (runs, y.size)
    lp = random_log_posteriors(rng, int(np.prod(shape)), classes).reshape(shape + (classes,))
    for cross_domain_only in (False, True):
        for normalize in (False, True):
            got = value_and_gradient(lambda t: hir_kl(t, labels, cross_domain_only, normalize)[0], lp)
            want = per_group_hir_kl(lp, y, d, cross_domain_only, normalize)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1] is want[1] is None or got[1].tobytes() == want[1].tobytes()
    # A 1-wide z is left out: a gathered stack of one column sums its rows in
    # another order than one run's column does, so per-group gathers of a
    # stack do not give each run its bits alone there.
    z = rng.normal(size=shape + (int(rng.integers(2, 7)),))
    got = value_and_gradient(lambda t: class_conditional_align(t, labels), z)
    want = per_group_ccsa(z, y, d)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1] is want[1] is None or got[1].tobytes() == want[1].tobytes()


def test_one_wide_ccsa_of_a_stack_is_each_run_alone():
    rng = np.random.default_rng(5)
    labels = BatchLabels(rng.integers(0, 2, size=30), rng.integers(0, 3, size=30))
    z = rng.normal(size=(3, 30, 1))
    stacked = class_conditional_align(z, labels).data
    assert stacked.tobytes() == np.stack([class_conditional_align(run, labels).data
                                          for run in z]).tobytes()

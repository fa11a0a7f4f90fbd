"""Each tape node's backward as a vector-Jacobian product on a stack of runs.

``Graph.backward`` seeds every run's loss with 1, so a backward that
divides by its upstream where it should multiply passes every gradient
check that starts there. Here each node is driven with a random upstream per
run, through one node that sums ``up * f`` per run, and its gradients are
compared with central differences of the sum of ``up * f`` over all runs.
"""

import numpy as np
import pytest

from hirnet import autodiff as ad
from hirnet import losses, models
from hirnet.losses import BatchLabels

RUNS, STEP = 3, 1e-6
# Two classes over three domains of four rows, in uneven (class, domain) cells.
LABELS = BatchLabels([0, 0, 1, 1, 0, 1, 1, 1, 0, 0, 0, 1], [0] * 4 + [1] * 4 + [2] * 4)
N = len(LABELS)


def weighted(out: ad.Tensor, up: np.ndarray) -> ad.Tensor:
    """The sum of ``up * out`` per run, as one node that hands ``out`` the upstream ``up``."""
    return ad.emit("weighted", (out,), (out.data * up).sum(axis=(-2, -1), keepdims=True),
                   lambda seed: (seed * up,))


def node_cases():
    """Each node by name: its output from a list of input tensors, the inputs'
    values, and, where the node holds a quantity constant, the same output
    with that constant fixed at the inputs' values, for the differences."""
    rng = np.random.default_rng(61)
    lp = ad.log_softmax(ad.tensor(rng.normal(scale=2.0, size=(RUNS, N, 3)))).data
    z = rng.normal(size=(RUNS, N, 4))
    x = rng.normal(size=(RUNS, N, 2))
    # W0, b0, W1, b1, W2, b2 of a (2, 5, 4, 3) network; nonzero biases, so that no
    # relu sits at its kink, as one whose inputs are all 0 would at a zero bias.
    net = [rng.normal(size=(RUNS, *shape)) for shape in
           ((2, 5), (1, 5), (5, 4), (1, 4), (4, 3), (1, 3))]
    # The MMD penalty's median bandwidth is a constant of the loss, not differentiated.
    bandwidth = [losses.median_distance(d[LABELS.upper]) for d in losses._sq_dists(z)]
    return {
        "cross_entropy": (lambda ts: losses.cross_entropy(ts[0], LABELS), [lp], None),
        "hir_kl": (lambda ts: losses.hir_kl(ts[0], LABELS)[0], [lp], None),
        "hir_kl-cross-domain-normalized": (
            lambda ts: losses.hir_kl(ts[0], LABELS, cross_domain_only=True, normalize=True)[0],
            [lp], None),
        "domain_mmd_penalty": (lambda ts: losses.domain_mmd_penalty(ts[0], LABELS), [z],
                               lambda ts: losses._mmd_sum((ts[0],), LABELS, bandwidth)),
        "class_conditional_align": (lambda ts: losses.class_conditional_align(ts[0], LABELS),
                                    [z], None),
        "mlp_body": (lambda ts: models.network(x, ts)[0], net, None),
        "mlp_head": (lambda ts: models.network(x, ts)[1], net, None),
        "combined": (lambda ts: losses.combined_loss(ts[0], LABELS, 0.3, "hir").combined,
                     [lp], None),
    }


@pytest.mark.parametrize("node", sorted(node_cases()))
def test_backward_is_the_vjp_of_a_random_upstream(node):
    f, arrays, held = node_cases()[node]
    held = held or f
    graph = ad.Graph()
    leaves = [graph.param(a) for a in arrays]
    out = f(leaves)
    # Away from 1 in size, so that multiplying by it and dividing by it differ.
    rng = np.random.default_rng(62)
    up = rng.uniform(0.2, 0.6, out.shape) * rng.choice([-1.0, 1.0], out.shape)
    grads = graph.backward(weighted(out, up))

    def total(values):
        return float((held([ad.tensor(v) for v in values]).data * up).sum())

    for k, a in enumerate(arrays):
        flat, numeric = a.reshape(-1), np.empty(a.size)
        for i in range(a.size):
            bumped = [v.copy() for v in arrays]
            bumped[k].reshape(-1)[i] = flat[i] + STEP
            hi = total(bumped)
            bumped[k].reshape(-1)[i] = flat[i] - STEP
            numeric[i] = (hi - total(bumped)) / (2 * STEP)
        analytic = grads[leaves[k].node_id]  # None for an input out of the node's reach
        analytic = np.zeros_like(a) if analytic is None else analytic
        assert analytic.shape == a.shape
        np.testing.assert_allclose(analytic.reshape(-1), numeric, rtol=1e-5, atol=1e-7,
                                   err_msg=f"{node}: input {k}")

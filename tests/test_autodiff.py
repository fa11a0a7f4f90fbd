import gc
import weakref

import numpy as np
import pytest

from hirnet import autodiff as ad
from hirnet.errors import ContractError, ShapeError


def naive_matmul(a, b):
    """Triple-loop reference product."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


class TestMatmul:
    def test_identity(self):
        out = ad.matmul(ad.tensor(np.eye(2)), ad.tensor([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_unit_row_selects_first_entry(self):
        out = ad.matmul(ad.tensor([[1.0, 0.0]]), ad.tensor([[2.0], [5.0]]))
        np.testing.assert_array_equal(out.data, [[2.0]])

    def test_matches_naive_triple_loop(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        out = ad.matmul(ad.tensor(a), ad.tensor(b))
        np.testing.assert_allclose(out.data, naive_matmul(a, b), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(ad.tensor(np.ones((2, 3))), ad.tensor(np.ones((2, 3))))


RELU_EDGES = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308,
              -2.2e-308, 1e-310, -1e-310, 1.0, -1.5, 1.7976931348623157e308, -3e300]


@pytest.mark.parametrize("layout", ["contiguous", "strided", "reversed"])
def test_relu_is_bitwise_the_where_formula(layout):
    """fmax plus +0.0 gives np.where's bits, NaN and -0.0 included, on every
    memory layout and size (fmax alone keeps -0.0 on some of them); the
    gradient mask agrees too."""
    for cols in range(1, 40):
        for fill in (RELU_EDGES, [-0.0]):
            base = np.resize(np.array(fill), (4, 3 * cols))
            x = {"contiguous": base, "strided": base[::2, ::3],
                 "reversed": base[::-1, ::-1]}[layout]
            expected = np.where(x > 0, x, 0.0)
            assert ad.relu_values(x).tobytes() == expected.tobytes()
            copy = x.copy()
            assert ad.relu_values(copy, out=copy).tobytes() == expected.tobytes()
            g = ad.Graph()
            leaf = g.param(x)
            out = ad.relu(leaf)
            assert out.data.tobytes() == expected.tobytes()
            with np.errstate(over="ignore"):
                grads = g.backward(ad.sum_all(out))
            assert grads[leaf.node_id].tobytes() == (np.ones(x.shape) * (x > 0)).tobytes()


class TestRelu:
    def test_sign_cases(self):
        out = ad.relu(ad.tensor([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out.data, [[0.0, 0.0, 2.0]])

    def test_all_positive_unchanged(self):
        x = np.array([[0.5, 1.5], [2.0, 3.0]])
        np.testing.assert_array_equal(ad.relu(ad.tensor(x)).data, x)

    def test_gradient_mask(self):
        g = ad.Graph()
        x = g.param([[-1.0, 2.0]])
        loss = ad.sum_all(ad.relu(x))
        grads = g.backward(loss)
        np.testing.assert_array_equal(grads[x.node_id], [[0.0, 1.0]])


class TestLogSoftmax:
    def test_uniform_two_class(self):
        out = ad.log_softmax(ad.tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[-np.log(2), -np.log(2)]], atol=1e-15)

    def test_one_zero_logits(self):
        # Direct evaluation of the softmax formula as the oracle.
        logits = np.array([[1.0, 0.0]])
        expected = logits - np.log(np.exp(logits).sum())
        out = ad.log_softmax(ad.tensor(logits))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)
        np.testing.assert_allclose(out.data, [[-0.31326168751822286, -1.3132616875182228]],
                                   atol=1e-12)

    def test_huge_logits_stay_finite(self):
        out = ad.log_softmax(ad.tensor([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out.data))
        assert abs(out.data[0, 0]) < 1e-12

    def test_rows_exponentiate_to_one(self):
        rng = np.random.default_rng(5)
        x = rng.normal(scale=50.0, size=(7, 4))
        out = ad.log_softmax(ad.tensor(x))
        np.testing.assert_allclose(np.exp(out.data).sum(axis=1), 1.0, atol=1e-12)

    def test_needs_two_columns(self):
        with pytest.raises(ShapeError):
            ad.log_softmax(ad.tensor([[1.0]]))


class TestBackward:
    def test_sum_gradient_all_ones(self):
        g = ad.Graph()
        x = g.param(np.arange(4.0).reshape(2, 2))
        grads = g.backward(ad.sum_all(x))
        np.testing.assert_array_equal(grads[x.node_id], np.ones((2, 2)))

    def test_square_gradient(self):
        g = ad.Graph()
        x = g.param([[3.0]])
        grads = g.backward(ad.sum_all(x * x))
        np.testing.assert_array_equal(grads[x.node_id], [[6.0]])

    def test_loss_gradient_wrt_itself_is_one(self):
        g = ad.Graph()
        x = g.param([[2.0]])
        loss = ad.sum_all(x * x)
        grads = g.backward(loss)
        np.testing.assert_array_equal(grads[loss.node_id], [[1.0]])

    def test_non_scalar_rejected(self):
        g = ad.Graph()
        x = g.param(np.ones((2, 2)))
        with pytest.raises(ContractError):
            g.backward(x * x)

    def test_second_backward_rejected(self):
        g = ad.Graph()
        x = g.param([[1.0]])
        loss = ad.sum_all(x)
        g.backward(loss)
        with pytest.raises(ContractError):
            g.backward(loss)

    def test_constant_loss_rejected(self):
        with pytest.raises(ContractError):
            ad.backward(ad.tensor([[1.0]]))

    def test_mixing_graphs_rejected(self):
        g1, g2 = ad.Graph(), ad.Graph()
        with pytest.raises(ContractError):
            g1.param([[1.0]]) * g2.param([[1.0]])

    def test_unused_param_gets_zero_gradient(self):
        g = ad.Graph()
        x = g.param([[1.0, 2.0]])
        unused = g.param([[5.0]])
        grads = g.backward(ad.sum_all(x))
        np.testing.assert_array_equal(grads[unused.node_id], [[0.0]])

    def test_composite_mlp_loss_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 3))
        w1, b1 = rng.normal(size=(3, 4)), rng.normal(size=(1, 4))
        w2, b2 = rng.normal(size=(4, 2)), rng.normal(size=(1, 2))

        def f(graph, ts):
            h = ad.relu(ad.matmul(ad.tensor(x), ts[0]) + ts[1])
            logits = ad.matmul(h, ts[2]) + ts[3]
            return ad.sum_all(ad.log_softmax(logits) * ad.log_softmax(logits)) * (1.0 / 6)

        assert ad.grad_check(f, [w1, b1, w2, b2], step=1e-5) < 1e-4


class TestGradCheck:
    def test_quadratic_is_nearly_exact(self):
        err = ad.grad_check(lambda g, ts: ad.sum_all(ts[0] * ts[0]),
                            [np.array([[0.3, -1.2], [2.0, 0.7]])])
        assert err < 1e-9

    def test_constant_function(self):
        err = ad.grad_check(lambda g, ts: ad.sum_all(ts[0] * 0.0), [np.array([[1.0, 2.0]])])
        assert err < 1e-9


OPS = {
    "add": lambda g, ts: ad.sum_all((ts[0] + ts[1]) * (ts[0] + ts[1])),
    "add_bias_row": lambda g, ts: ad.sum_all((ts[0] + ts[1]) * (ts[0] + ts[1])),
    "sub": lambda g, ts: ad.sum_all((ts[0] - ts[1]) * (ts[0] - ts[1])),
    "mul": lambda g, ts: ad.sum_all(ts[0] * ts[1] * 0.5),
    "scale": lambda g, ts: ad.sum_all(ts[0] * 3.7),
    "matmul": lambda g, ts: ad.sum_all(ad.matmul(ts[0], ts[1]) * ad.matmul(ts[0], ts[1])),
    "relu": lambda g, ts: ad.sum_all(ad.relu(ts[0]) * ad.relu(ts[0])),
    "log_softmax": lambda g, ts: ad.sum_all(ad.log_softmax(ts[0]) * ad.log_softmax(ts[0])),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_every_op_passes_grad_check(name):
    params = op_params(name, np.random.default_rng(hash(name) % 2**32))
    assert ad.grad_check(OPS[name], params, step=1e-5) < 1e-4


def op_params(name: str, rng) -> list[np.ndarray]:
    a = rng.normal(size=(3, 4))
    if name == "add_bias_row":
        return [a, rng.normal(size=(1, 4))]
    if name == "matmul":
        return [a, rng.normal(size=(4, 2))]
    if name in ("add", "sub", "mul"):
        return [a, rng.normal(size=(3, 4))]
    return [a]


def value_and_grads(name: str, params: list[np.ndarray]):
    g = ad.Graph()
    leaves = [g.param(p) for p in params]
    loss = OPS[name](g, leaves)
    grads = g.backward(loss)
    return loss.data, [grads[leaf.node_id] for leaf in leaves]


@pytest.mark.parametrize("name", sorted(OPS))
def test_every_op_acts_run_by_run_on_a_stack(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    solo = [op_params(name, rng) for _ in range(3)]
    stacked_value, stacked_grads = value_and_grads(name, [np.stack(p) for p in zip(*solo)])
    assert stacked_value.shape == (3, 1, 1)
    for run, params in enumerate(solo):
        value, grads = value_and_grads(name, params)
        np.testing.assert_array_equal(stacked_value[run], value)
        for stacked_grad, grad in zip(stacked_grads, grads):
            np.testing.assert_array_equal(stacked_grad[run], grad)


def test_matmul_needs_stacks_of_one_length():
    with pytest.raises(ShapeError):
        ad.matmul(ad.tensor(np.ones((2, 3, 4))), ad.tensor(np.ones((3, 4, 2))))
    with pytest.raises(ShapeError):
        ad.matmul(ad.tensor(np.ones((3, 4))), ad.tensor(np.ones((2, 4, 2))))


def test_backward_frees_the_tape_without_the_cyclic_collector():
    enabled = gc.isenabled()
    gc.disable()
    try:
        g = ad.Graph()
        w = g.param(np.ones((3, 2)))
        loss = ad.sum_all(ad.log_softmax(ad.relu(ad.matmul(ad.tensor(np.ones((4, 3))), w))))
        g.backward(loss)
        tape = weakref.ref(g)
        del g, w, loss
        assert tape() is None
    finally:
        if enabled:
            gc.enable()


def cube_sum(x: ad.Tensor) -> ad.Tensor:
    """sum(x^3) recorded as one node through the public entry point."""
    value = np.array([[np.sum(x.data ** 3)]])
    return ad.emit("cube_sum", (x,), value, lambda up: (3.0 * up[0, 0] * x.data ** 2,))


class TestEmit:
    def test_custom_node_passes_grad_check(self):
        x = np.random.default_rng(4).normal(size=(3, 2))
        assert ad.grad_check(lambda g, ts: cube_sum(ts[0] * 2.0), [x]) < 1e-4

    def test_records_one_node(self):
        g = ad.Graph()
        x = g.param([[1.0, 2.0]])
        before = len(g)
        loss = cube_sum(x)
        assert len(g) == before + 1
        np.testing.assert_array_equal(g.backward(loss)[x.node_id], [[3.0, 12.0]])

    def test_constant_inputs_give_a_constant(self):
        out = cube_sum(ad.tensor([[2.0]]))
        assert out.graph is None and out.item() == 8.0

    def test_constant_input_gets_no_gradient(self):
        g = ad.Graph()
        x = g.param([[1.0, 2.0]])
        c = ad.tensor([[5.0, 5.0]])
        loss = ad.emit("dot", (c, x), np.array([[np.sum(c.data * x.data)]]),
                       lambda up: (up[0, 0] * c.data,))
        np.testing.assert_array_equal(g.backward(loss)[x.node_id], [[5.0, 5.0]])


def test_tensors_are_matrices_or_stacks_of_them():
    assert ad.tensor(np.zeros((2, 3, 4))).shape == (2, 3, 4)
    with pytest.raises(ShapeError):
        ad.tensor(np.zeros((2, 2, 2, 2)))


def test_scalar_item():
    assert ad.tensor(3.5).item() == 3.5
    with pytest.raises(ShapeError):
        ad.tensor([[1.0, 2.0]]).item()

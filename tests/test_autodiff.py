import gc
import weakref
import zlib

import numpy as np
import pytest

from hirnet import autodiff as ad
from hirnet.errors import ContractError, ShapeError
from tape_ops import scale, square_sum, total


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
                grads = g.backward(total(out))
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
        loss = total(ad.relu(x))
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
        grads = g.backward(total(x))
        np.testing.assert_array_equal(grads[x.node_id], np.ones((2, 2)))

    def test_square_gradient(self):
        g = ad.Graph()
        x = g.param([[3.0]])
        grads = g.backward(square_sum(x))
        np.testing.assert_array_equal(grads[x.node_id], [[6.0]])

    def test_loss_gradient_wrt_itself_is_one(self):
        g = ad.Graph()
        x = g.param([[2.0]])
        loss = square_sum(x)
        grads = g.backward(loss)
        np.testing.assert_array_equal(grads[loss.node_id], [[1.0]])

    def test_non_scalar_rejected(self):
        g = ad.Graph()
        x = g.param(np.ones((2, 2)))
        with pytest.raises(ContractError):
            g.backward(x + x)

    def test_second_backward_rejected(self):
        g = ad.Graph()
        x = g.param([[1.0]])
        loss = total(x)
        g.backward(loss)
        with pytest.raises(ContractError):
            g.backward(loss)

    def test_constant_loss_rejected(self):
        with pytest.raises(ContractError):
            ad.Graph().backward(ad.tensor([[1.0]]))

    def test_mixing_graphs_rejected(self):
        g1, g2 = ad.Graph(), ad.Graph()
        with pytest.raises(ContractError):
            g1.param([[1.0]]) + g2.param([[1.0]])

    def test_unused_param_gets_zero_gradient(self):
        """A leaf the loss never used gets ``None`` in the list by node id, not zeros."""
        g = ad.Graph()
        x = g.param([[1.0, 2.0]])
        unused = g.param([[5.0]])
        loss = total(x)
        grads = g.backward(loss)
        assert len(grads) == len(g) and grads[unused.node_id] is None
        np.testing.assert_array_equal(grads[x.node_id], [[1.0, 1.0]])

    def test_composite_mlp_loss_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 3))
        w1, b1 = rng.normal(size=(3, 4)), rng.normal(size=(1, 4))
        w2, b2 = rng.normal(size=(4, 2)), rng.normal(size=(1, 2))

        def f(graph, ts):
            h = ad.relu(ad.matmul(ad.tensor(x), ts[0]) + ts[1])
            logits = ad.matmul(h, ts[2]) + ts[3]
            return scale(square_sum(ad.log_softmax(logits)), 1.0 / 6)

        assert ad.grad_check(f, [w1, b1, w2, b2], step=1e-5) < 1e-4


class TestGradCheck:
    def test_quadratic_is_nearly_exact(self):
        err = ad.grad_check(lambda g, ts: square_sum(ts[0]),
                            [np.array([[0.3, -1.2], [2.0, 0.7]])])
        assert err < 1e-9

    def test_constant_function(self):
        err = ad.grad_check(lambda g, ts: scale(total(ts[0]), 0.0), [np.array([[1.0, 2.0]])])
        assert err < 1e-9

    def test_unused_param_is_checked_as_a_zero_gradient(self):
        """The tape gives a param the loss never used ``None``; grad_check
        compares zeros with its central differences, which are zero too."""
        err = ad.grad_check(lambda g, ts: square_sum(ts[0]),
                            [np.array([[0.3, -1.2]]), np.array([[5.0], [2.0]])])
        assert err < 1e-9


OPS = {
    "add": lambda g, ts: square_sum(ts[0] + ts[1]),
    "add_bias_row": lambda g, ts: square_sum(ts[0] + ts[1]),
    "matmul": lambda g, ts: square_sum(ad.matmul(ts[0], ts[1])),
    "relu": lambda g, ts: square_sum(ad.relu(ts[0])),
    "log_softmax": lambda g, ts: square_sum(ad.log_softmax(ts[0])),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_every_op_passes_grad_check(name):
    params = op_params(name, np.random.default_rng(zlib.crc32(name.encode())))
    assert ad.grad_check(OPS[name], params, step=1e-5) < 1e-4


def op_params(name: str, rng) -> list[np.ndarray]:
    a = rng.normal(size=(3, 4))
    if name == "add_bias_row":
        return [a, rng.normal(size=(1, 4))]
    if name == "matmul":
        return [a, rng.normal(size=(4, 2))]
    if name == "add":
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
    rng = np.random.default_rng(zlib.crc32(name.encode()))
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


def test_bias_row_adds_on_the_right_only():
    matrix, row = ad.tensor(np.ones((2, 3))), ad.tensor(np.ones((1, 3)))
    assert (matrix + row).shape == (2, 3)
    with pytest.raises(ShapeError):
        row + matrix


def test_backward_frees_the_tape_without_the_cyclic_collector():
    enabled = gc.isenabled()
    gc.disable()
    try:
        g = ad.Graph()
        w = g.param(np.ones((3, 2)))
        loss = total(ad.log_softmax(ad.relu(ad.matmul(ad.tensor(np.ones((4, 3))), w))))
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
        assert ad.grad_check(lambda g, ts: cube_sum(scale(ts[0], 2.0)), [x]) < 1e-4

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
                       lambda up: (up[0, 0] * x.data, up[0, 0] * c.data))
        np.testing.assert_array_equal(g.backward(loss)[x.node_id], [[5.0, 5.0]])


def test_tensors_are_matrices_or_stacks_of_them():
    assert ad.tensor(np.zeros((2, 3))).shape == (2, 3)
    assert ad.tensor(np.zeros((2, 3, 4))).shape == (2, 3, 4)
    for values in (3.5, np.zeros(3), np.zeros((2, 2, 2, 2))):  # a scalar, a vector, 4-D
        with pytest.raises(ShapeError):
            ad.tensor(values)
        with pytest.raises(ShapeError):
            ad.Graph().param(values)


def test_scalar_item():
    assert ad.tensor([[3.5]]).item() == 3.5
    with pytest.raises(ShapeError):
        ad.tensor([[1.0, 2.0]]).item()


def rows_with_edge_values(shape, rng) -> np.ndarray:
    """Normal values over many scales, one all-(-0.0) row and rows holding
    +0.0, -0.0, +inf, -inf and NaN."""
    x = rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 6, size=shape)
    flat = x.reshape(-1, shape[-1])
    flat[0] = -0.0
    flat[1, :2] = [0.0, -0.0]
    flat[2, -1] = np.inf
    flat[3, 0] = -np.inf
    flat[4, -1] = np.nan
    flat[5, :2] = [np.inf, -np.inf]
    return x


@pytest.mark.parametrize("shape", [(9,), (4, 7)], ids=["2d", "3d"])
@pytest.mark.parametrize("m", range(2, 10))
def test_fold_last_is_bitwise_numpy_reduce(m, shape):
    x = rows_with_edge_values(shape + (m,), np.random.default_rng(m))
    with np.errstate(invalid="ignore"):
        pairs = [(ad.fold_last(np.add, x), x.sum(axis=-1, keepdims=True)),
                 (ad.fold_last(np.maximum, x), x.max(axis=-1, keepdims=True))]
    for folded, reduced in pairs:
        assert folded.shape == reduced.shape
        assert folded.tobytes() == reduced.tobytes()


def spy(x: ad.Tensor, seen: list) -> ad.Tensor:
    """Identity node whose backward keeps each upstream it gets, with a copy."""
    def back(up):
        seen.append((up, up.copy()))
        return (up,)

    return ad.emit("spy", (x,), x.data, back)


class TestCopyFreeBackward:
    def test_node_consumed_twice(self):
        x_values = np.arange(-6.0, 6.0).reshape(3, 4) / 4.0
        seen = []
        g = ad.Graph()
        x = g.param(x_values)
        y = spy(scale(x, 2.0), seen)
        square = spy(square_sum(y), seen)
        loss = square + total(y)
        tensors = [x, y, square, loss]
        before = [t.data.copy() for t in tensors]
        grads = g.backward(loss)
        # d/dx sum((2x)^2 + 2x) = 8x + 2, exact on quarter steps.
        np.testing.assert_array_equal(grads[x.node_id], 8.0 * x_values + 2.0)
        np.testing.assert_array_equal(grads[y.node_id], 2.0 * y.data + 1.0)
        for t, value in zip(tensors, before):
            assert t.data.tobytes() == value.tobytes()
        assert len(seen) == 2
        for up, copy in seen:
            assert up.tobytes() == copy.tobytes()

    def test_sum_all_of_a_leaf(self):
        g = ad.Graph()
        values = np.arange(6.0).reshape(2, 3)
        x = g.param(values)
        grads = g.backward(total(x))
        np.testing.assert_array_equal(grads[x.node_id], np.ones((2, 3)))
        np.testing.assert_array_equal(x.data, values)

    def test_read_only_first_contribution_takes_a_second(self):
        g = ad.Graph()
        x = g.param(np.arange(6.0).reshape(2, 3))
        seen = []
        # The tape runs backwards, so the read-only broadcast from the later
        # total(x) reaches x first and the scale's gradient second.
        loss = spy(total(scale(x, 2.0)) + total(x), seen)
        grads = g.backward(loss)
        np.testing.assert_array_equal(grads[x.node_id], np.full((2, 3), 3.0))
        [(up, copy)] = seen
        assert up.tobytes() == copy.tobytes()

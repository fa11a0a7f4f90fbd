import numpy as np
import pytest

from hirnet import optim
from hirnet.errors import ContractError
from hirnet.optim import NonFiniteGradient, adam_step, init_adam


def test_first_step_moves_by_lr_times_sign():
    # Hand-unrolled step 1: m_hat = g, v_hat = g^2, so the update is
    # lr * g / (|g| + eps) = lr * sign(g) up to eps.
    params = [np.array([[1.0, -2.0, 0.5]])]
    grads = [np.array([[0.3, -0.7, 2.0]])]
    state = init_adam(params, lr=1e-3)
    before = params[0].copy()
    adam_step(state, params, grads)
    delta = params[0] - before
    np.testing.assert_allclose(delta, -1e-3 * np.sign(grads[0]), atol=1e-9)


def test_zero_gradient_leaves_params_unchanged():
    params = [np.array([[0.4, -1.1]])]
    state = init_adam(params, lr=1e-2)
    for _ in range(25):
        adam_step(state, params, [np.zeros((1, 2))])
    np.testing.assert_array_equal(params[0], [[0.4, -1.1]])


def test_determinism():
    def run():
        params = [np.array([[1.0, 2.0], [3.0, 4.0]])]
        state = init_adam(params, lr=3e-3)
        rng = np.random.default_rng(9)
        for _ in range(50):
            adam_step(state, params, [rng.normal(size=(2, 2))])
        return params[0]

    np.testing.assert_array_equal(run(), run())


def test_convex_quadratic_converges():
    # f(p) = 0.5 (p - t)^T A (p - t), analytic gradient A (p - t).
    target = np.array([[0.3, 0.1]])
    a_mat = np.array([[2.0, 0.5], [0.5, 1.0]])

    def loss(p):
        d = (p - target)[0]
        return 0.5 * d @ a_mat @ d

    params = [np.array([[1.2, -0.7]])]
    initial = loss(params[0])
    state = init_adam(params, lr=1e-2)
    for _ in range(500):
        grad = ((params[0] - target) @ a_mat.T)
        adam_step(state, params, [grad])
    assert loss(params[0]) < 0.01 * initial


def test_moment_shapes_mirror_params():
    params = [np.zeros((2, 3)), np.zeros((1, 3))]
    state = init_adam(params)
    assert [m.shape for m in state.m] == [(2, 3), (1, 3)]
    assert [v.shape for v in state.v] == [(2, 3), (1, 3)]
    assert state.t == 0


def test_step_counter_increments():
    params = [np.zeros((1, 1))]
    state = init_adam(params)
    adam_step(state, params, [np.ones((1, 1))])
    adam_step(state, params, [np.ones((1, 1))])
    assert state.t == 2


def test_shape_mismatch_rejected():
    params = [np.zeros((2, 2))]
    state = init_adam(params)
    with pytest.raises(ContractError):
        adam_step(state, params, [np.zeros((2, 3))])


def test_nan_gradient_rejected():
    params = [np.zeros((1, 2))]
    state = init_adam(params)
    with pytest.raises(ContractError):
        adam_step(state, params, [np.array([[np.nan, 0.0]])])


def test_nan_gradient_names_the_first_non_finite_array_and_changes_nothing():
    for first in (0, 1):
        params = [np.zeros((3, 2, 2)), np.zeros((3, 1, 2))]
        grads = [np.ones((3, 2, 2)), np.ones((3, 1, 2))]
        if first == 0:
            grads[0][1, 0, 1] = np.nan
        grads[1][1, 0, 0] = np.inf
        grads[1][2, 0, 1] = -np.inf
        state = init_adam(params)
        with pytest.raises(NonFiniteGradient) as caught:
            adam_step(state, params, grads)
        assert str(caught.value) == f"non-finite gradient at parameter index {first}"
        assert state.t == 0
        assert all(not p.any() for p in params + state.m + state.v)


def test_stacked_step_equals_each_run_alone():
    rng = np.random.default_rng(12)
    solo = [[rng.normal(size=(2, 3)), rng.normal(size=(1, 3))] for _ in range(3)]
    grads = [[rng.normal(size=p.shape) for p in params] for params in solo]
    stacked = [np.stack(p) for p in zip(*solo)]
    stacked_state = init_adam(stacked, lr=1e-2)
    states = [init_adam(params, lr=1e-2) for params in solo]
    for _ in range(3):
        adam_step(stacked_state, stacked, [np.stack(g) for g in zip(*grads)])
        for params, state, g in zip(solo, states, grads):
            adam_step(state, params, g)
    for run, params in enumerate(solo):
        for stacked_p, p in zip(stacked, params):
            assert stacked_p[run].tobytes() == p.tobytes()


def test_default_hyperparameters():
    assert (optim.BETA1, optim.BETA2, optim.EPS) == (0.9, 0.999, 1e-8)


def test_stacked_step_has_the_textbook_bits():
    """Five steps on a (runs, 1, P) buffer give, byte for byte, the
    parameters and moments of the update written out as one expression."""
    rng = np.random.default_rng(17)
    lr, beta1, beta2, eps = 3e-3, 0.9, 0.999, 1e-8
    flat = rng.normal(size=(4, 1, 61))
    state = init_adam([flat], lr=lr)
    p, m, v = flat.copy(), np.zeros_like(flat), np.zeros_like(flat)
    for t in range(1, 6):
        g = rng.normal(size=flat.shape) * 10.0 ** rng.uniform(-6, 3, size=flat.shape)
        adam_step(state, [flat], [g])
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        p = p - lr * (m / (1.0 - beta1 ** t)) / (np.sqrt(v / (1.0 - beta2 ** t)) + eps)
        assert flat.tobytes() == p.tobytes(), t
        assert state.m[0].tobytes() == m.tobytes() and state.v[0].tobytes() == v.tobytes(), t

import itertools

import numpy as np
import pytest

from hirnet import autodiff as ad
from hirnet.errors import ConfigError, ContractError, ShapeError
from hirnet.losses import combined_loss, domain_mmd_penalty
from hirnet.models import (
    MlpSpec,
    ModelParams,
    forward,
    init_params,
    load_checkpoint,
    network,
    predict,
    save_checkpoint,
)


class TestInit:
    def test_deterministic_given_seed(self):
        a = init_params(MlpSpec((2, 8, 2), seed=7))
        b = init_params(MlpSpec((2, 8, 2), seed=7))
        for wa, wb in zip(a.arrays(), b.arrays()):
            assert wa.tobytes() == wb.tobytes()

    def test_different_seeds_differ(self):
        a = init_params(MlpSpec((2, 8, 2), seed=7))
        b = init_params(MlpSpec((2, 8, 2), seed=8))
        assert any(not np.array_equal(x, y) for x, y in zip(a.arrays(), b.arrays()))

    def test_biases_zero(self):
        params = init_params(MlpSpec((3, 5, 4, 2), seed=1))
        for b in params.biases:
            np.testing.assert_array_equal(b, np.zeros_like(b))

    def test_weight_bound_from_fan_sum(self):
        params = init_params(MlpSpec((2, 8, 2), seed=0))
        bound = np.sqrt(6.0 / (2 + 8))
        assert bound == pytest.approx(0.7745966692414834)
        assert np.all(np.abs(params.weights[0]) <= bound)

    def test_invalid_layer_list(self):
        with pytest.raises(ConfigError):
            MlpSpec((4,))
        with pytest.raises(ConfigError):
            MlpSpec((4, 0, 2))


class TestForward:
    def test_zero_weights_give_uniform_posterior(self):
        params = ModelParams([np.zeros((2, 3)), np.zeros((3, 4))],
                             [np.zeros((1, 3)), np.zeros((1, 4))])
        _, logits = forward(params, np.random.default_rng(0).normal(size=(5, 2)))
        np.testing.assert_array_equal(logits.data, np.zeros((5, 4)))
        posterior = np.exp(ad.log_softmax(logits).data)
        np.testing.assert_allclose(posterior, 0.25, atol=1e-15)

    def test_batch_independence(self):
        params = init_params(MlpSpec((3, 6, 2), seed=2))
        rng = np.random.default_rng(4)
        batch = rng.normal(size=(5, 3))
        _, logits_batch = forward(params, batch)
        _, logits_single = forward(params, batch[2:3])
        np.testing.assert_allclose(logits_batch.data[2], logits_single.data[0], atol=1e-12)

    def test_row_permutation_permutes_outputs(self):
        params = init_params(MlpSpec((2, 4, 3), seed=5))
        rng = np.random.default_rng(6)
        x = rng.normal(size=(7, 2))
        perm = rng.permutation(7)
        _, base = forward(params, x)
        _, permuted = forward(params, x[perm])
        np.testing.assert_allclose(permuted.data, base.data[perm], atol=1e-12)

    def test_hand_set_weights_match_hand_computation(self):
        w1 = np.array([[1.0, 0.0, -1.0], [0.5, 2.0, 1.0]])
        b1 = np.array([[0.1, -0.2, 0.0]])
        w2 = np.array([[1.0, -1.0], [0.0, 1.0], [2.0, 0.0]])
        b2 = np.array([[0.0, 0.5]])
        params = ModelParams([w1, w2], [b1, b2])
        x = np.array([[1.0, 2.0]])
        hidden = np.maximum(0.0, x @ w1 + b1)
        expected = hidden @ w2 + b2
        z, logits = forward(params, x)
        np.testing.assert_allclose(z.data, hidden, atol=1e-15)
        np.testing.assert_allclose(logits.data, expected, atol=1e-15)

    def test_forward_is_pure(self):
        params = init_params(MlpSpec((2, 5, 2), seed=3))
        x = np.random.default_rng(1).normal(size=(4, 2))
        _, first = forward(params, x)
        _, second = forward(params, x)
        assert first.data.tobytes() == second.data.tobytes()

    def test_z_is_penultimate_activation(self):
        params = init_params(MlpSpec((2, 4, 3, 2), seed=9))
        x = np.random.default_rng(2).normal(size=(3, 2))
        z, _ = forward(params, x)
        assert z.shape == (3, 3)
        assert np.all(z.data >= 0)  # post-relu

    def test_shape_mismatch(self):
        params = init_params(MlpSpec((2, 4, 2), seed=0))
        with pytest.raises(ShapeError):
            forward(params, np.zeros((3, 5)))

    def test_gradient_through_forward(self):
        """grad_check reaches the body and head nodes that forward records,
        for 0, 1 and 2 hidden layers, on a matrix and on a stack of 3, with
        a penalty on z so the body's gradient sums two paths."""
        rng = np.random.default_rng(12)
        for hidden, runs in itertools.product([(), (4,), (5, 4)], [None, 3]):
            lead = () if runs is None else (runs,)
            arrays = [rng.normal(scale=0.8, size=lead + a.shape)
                      for a in init_params(MlpSpec((2, *hidden, 3), seed=11)).arrays()]
            x = rng.normal(size=lead + (6, 2))
            y = rng.integers(0, 3, size=6)

            def f(graph, ts):
                z, logits = network(x, ts)
                assert len(graph) == len(ts) + (2 if hidden else 1)
                penalty = domain_mmd_penalty(z, np.arange(6) % 2, bandwidth=1.5)
                loss = combined_loss(ad.log_softmax(logits), y, 1e-1).combined + penalty * 0.5
                if runs is None:
                    return loss
                # One scalar for a stack: the sum of its runs' losses.
                return ad.emit("runs", (loss,), loss.data.sum(axis=0),
                               lambda up: (np.broadcast_to(up, loss.shape),))

            assert ad.grad_check(f, arrays, step=1e-5) < 1e-4, (hidden, runs)

    @pytest.mark.parametrize("hidden", [(), (4,), (5, 4)])
    def test_forward_records_the_network_after_its_leaves(self, hidden):
        params = init_params(MlpSpec((2, *hidden, 3), seed=1))
        x = np.random.default_rng(3).normal(size=(5, 2))
        graph = ad.Graph()
        z, logits = forward(params, x, graph)
        leaves = [ad.tensor(a) for a in params.arrays()]
        z_alone, logits_alone = network(x, leaves)
        assert len(graph) == len(leaves) + (2 if hidden else 1)
        assert logits.node_id == len(graph) - 1
        assert (z.node_id is None) == (not hidden)
        assert z.data.tobytes() == z_alone.data.tobytes()
        assert logits.data.tobytes() == logits_alone.data.tobytes()

    def test_graph_binding_order_matches_arrays(self):
        params = init_params(MlpSpec((2, 3, 2), seed=1))
        graph = ad.Graph()
        forward(params, np.zeros((1, 2)), graph)
        assert len(graph.param_ids) == len(params.arrays())


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = init_params(MlpSpec((3, 7, 4), seed=21))
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        for a, b in zip(params.arrays(), loaded.arrays()):
            assert a.tobytes() == b.tobytes()

    def test_magic_header_present(self, tmp_path):
        params = init_params(MlpSpec((2, 2), seed=0))
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        assert path.read_text().startswith("HIRNET-CKPT-1\n")

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_text("something else\n1 2 3\n")
        with pytest.raises(ContractError):
            load_checkpoint(path)

    @pytest.mark.parametrize("keep", [1, 2, 4, 6])
    def test_truncated_file_rejected(self, tmp_path, keep):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(MlpSpec((2, 3, 2), seed=2)), path)
        path.write_text("\n".join(path.read_text().splitlines()[:keep]) + "\n")
        with pytest.raises(ContractError):
            load_checkpoint(path)

    @pytest.mark.parametrize("line,text", [(1, "layer_sizes 2 x 2"), (2, "W 2 three"),
                                           (3, "0.5 abc 1.0"), (3, "0.5 1.0"),
                                           (1, "layer_sizes 2")])
    def test_garbled_file_rejected(self, tmp_path, line, text):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(MlpSpec((2, 3, 2), seed=2)), path)
        lines = path.read_text().splitlines()
        lines[line] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ContractError):
            load_checkpoint(path)

    def test_predictions_survive_round_trip(self, tmp_path):
        params = init_params(MlpSpec((2, 6, 3), seed=13))
        x = np.random.default_rng(8).normal(size=(10, 2))
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        np.testing.assert_array_equal(predict(params, x), predict(load_checkpoint(path), x))

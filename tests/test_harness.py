import concurrent.futures
import json
import os
import pickle
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hirnet import autodiff as ad
from hirnet import harness
from hirnet import losses
from hirnet.data import (
    BatchPlan,
    DomainDataset,
    DomainSuite,
    SuiteSpec,
    stratified_batches,
)
from hirnet.errors import ConfigError, ContractError
from hirnet.harness import (
    ROTATED_ALPHA,
    ROTATED_LR,
    ExperimentConfig,
    OptimizerConfig,
    TrainingDiverged,
    derive_seed,
    evaluate,
    run_experiment,
    run_single,
    sweep_alpha,
    train,
    write_accuracy_csv,
    write_report_json,
    write_trace_csv,
)
from hirnet.losses import combined_loss, cross_entropy, pairwise_kl
from hirnet.models import MlpSpec, ModelParams, flatten, forward, init_params
from hirnet.optim import NonFiniteGradient, adam_step, init_adam
from tape_ops import scale


def tiny_config(**overrides):
    base = dict(
        suite=SuiteSpec(kind="moons", n_per_class=20, angles=(0.0, 25.0, 50.0),
                        noise_sd=0.08, seed=5),
        hidden_sizes=(8,),
        loss_kind="hir",
        alpha=1e-3,
        epochs=3,
        per_class_per_domain=4,
        seeds=(0,),
        held_out=1,
        collect_diagnostics=False,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def plans_of(suites, cfg):
    """One :class:`BatchPlan` per training suite, as ``train_runs`` takes them."""
    return [BatchPlan(suite, cfg.per_class_per_domain, cfg.paired) for suite in suites]


def strip_wall_clock(payload):
    if isinstance(payload, dict):
        return {k: strip_wall_clock(v) for k, v in payload.items() if k != "wall_clock_s"}
    if isinstance(payload, list):
        return [strip_wall_clock(v) for v in payload]
    return payload


class TestProtocolDefaults:
    def test_published_settings(self):
        assert ROTATED_LR == 1e-3
        assert ROTATED_ALPHA == 1e-3
        assert OptimizerConfig().lr == ROTATED_LR
        assert ExperimentConfig().alpha == ROTATED_ALPHA
        assert ExperimentConfig().epochs == 300


class TestConfig:
    def test_round_trip(self):
        cfg = tiny_config()
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_json_round_trip(self):
        cfg = tiny_config(held_out="all", seeds=(1, 2))
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_unknown_key_rejected(self):
        raw = tiny_config().to_dict()
        raw["verbose"] = True
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    def test_unknown_optimizer_key_rejected(self):
        raw = tiny_config().to_dict()
        raw["optimizer"]["momentum"] = 0.9
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    def test_validation(self):
        with pytest.raises(ConfigError):
            tiny_config(loss_kind="dann")
        with pytest.raises(ConfigError):
            tiny_config(alpha=-1.0)
        with pytest.raises(ConfigError):
            tiny_config(seeds=())
        with pytest.raises(ConfigError):
            tiny_config(held_out=7)
        with pytest.raises(ConfigError):
            tiny_config(epochs=0)

    @pytest.mark.parametrize("overrides", [
        {"hidden_sizes": (2.5,)}, {"hidden_sizes": 8}, {"seeds": (-1,)}, {"seeds": "12"},
        {"epochs": True}, {"alpha": float("inf")}, {"alpha": 10**400},
        {"paired": "no"}, {"normalize_hir": 1}, {"collect_diagnostics": None},
    ])
    def test_mistyped_values_rejected(self, overrides):
        with pytest.raises(ConfigError):
            tiny_config(**overrides)

    @pytest.mark.parametrize("overrides", [{"lr": "x"}, {"lr": float("nan")}, {"lr": None}])
    def test_mistyped_optimizer_values_rejected(self, overrides):
        with pytest.raises(ConfigError):
            OptimizerConfig(**overrides)

    def test_optimizer_range_ends_that_are_valid(self):
        # lr need only be positive.
        assert OptimizerConfig(lr=1e-300).lr == 1e-300

    def test_held_out_all_expands(self):
        assert tiny_config(held_out="all").held_out_indices() == [0, 1, 2]

    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_held_out_rejected(self, flag):
        # bool is an int subclass; True would otherwise run as domain 1.
        with pytest.raises(ConfigError):
            tiny_config(held_out=flag)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({**tiny_config().to_dict(), "held_out": flag})


class TestTrain:
    def test_traces_have_one_series_per_training_domain(self):
        cfg = tiny_config(epochs=2)
        suite = cfg.suite.build().drop(1)
        params = init_params(MlpSpec((2, 8, 2), seed=0))
        _, traces = train(params, suite, cfg, batch_seed=0)
        assert len(traces.l_c) == 2
        assert len(traces.per_domain_kl) == 2
        assert all(len(row) == 2 for row in traces.per_domain_kl)
        assert traces.domain_params == [0.0, 50.0]

    def test_agg_hir_trace_is_zero(self):
        cfg = tiny_config(loss_kind="agg", epochs=2)
        suite = cfg.suite.build().drop(1)
        params = init_params(MlpSpec((2, 8, 2), seed=0))
        _, traces = train(params, suite, cfg, batch_seed=0)
        assert traces.l_h == [0.0, 0.0]

    def test_single_training_domain_warns(self):
        cfg = tiny_config(epochs=1)
        suite = cfg.suite.build().drop(0).drop(0)
        params = init_params(MlpSpec((2, 8, 2), seed=0))
        with pytest.warns(UserWarning, match="single training domain"):
            train(params, suite, cfg, batch_seed=0)

    def test_empty_suite_rejected(self):
        cfg = tiny_config()
        with pytest.raises(ConfigError):
            train(init_params(MlpSpec((2, 4, 2), seed=0)),
                  DomainSuite([], [], 2), cfg, batch_seed=0)

    def test_divergence_raises(self):
        cfg = tiny_config(optimizer=OptimizerConfig(lr=1e200), epochs=3)
        suite = cfg.suite.build().drop(1)
        params = init_params(MlpSpec((2, 8, 2), seed=0))
        with pytest.raises(TrainingDiverged):
            train(params, suite, cfg, batch_seed=0)

    def test_alpha_zero_matches_hirless_build_bitwise(self):
        cfg = tiny_config()
        suite = cfg.suite.build().drop(1)
        x, labels = next(stratified_batches(suite, 4, seed=9))

        def one_step(use_combined_path):
            params = init_params(MlpSpec((2, 8, 2), seed=3))
            arrays = params.arrays()
            opt = init_adam(arrays, lr=1e-3)
            graph = ad.Graph()
            _, logits = forward(params, x, graph)
            log_probs = ad.log_softmax(logits)
            if use_combined_path:
                loss = combined_loss(log_probs, labels, 0.0).combined
            else:
                loss = cross_entropy(log_probs, labels)
            grads = graph.backward(loss)
            adam_step(opt, arrays, [grads[i] for i in graph.param_ids])
            return arrays

        with_breakdown = one_step(True)
        without = one_step(False)
        for a, b in zip(with_breakdown, without):
            assert a.tobytes() == b.tobytes()

    def test_tiny_alpha_close_to_agg(self):
        results = {}
        for alpha, kind in ((0.0, "hir"), (1e-12, "hir")):
            cfg = tiny_config(loss_kind=kind, alpha=alpha, epochs=5)
            suite = cfg.suite.build()
            params, traces = train(init_params(MlpSpec((2, 8, 2), seed=0)), suite.drop(1), cfg)
            results[alpha] = run_single(cfg, suite, 1, 0, params, traces, 0.0).accuracy
        assert abs(results[0.0] - results[1e-12]) < 0.1


@pytest.mark.parametrize("loss_kind", ["hir", "mmd", "ccsa"])
def test_step_tape_length_does_not_grow_with_batch_size(loss_kind, monkeypatch):
    """Each penalty is one tape node, so the pair count never reaches the tape."""
    original = ad.Graph.backward

    def tape_lengths(per_class_per_domain: int, n_runs: int) -> set[int]:
        seen = []

        def spy(graph, loss):
            seen.append(len(graph))
            return original(graph, loss)

        monkeypatch.setattr(ad.Graph, "backward", spy)
        cfg = tiny_config(loss_kind=loss_kind, alpha=0.1, epochs=1,
                          per_class_per_domain=per_class_per_domain)
        runs = [init_params(MlpSpec((2, 8, 2), seed=s)) for s in range(n_runs)]
        harness.train_runs(runs, plans_of([cfg.suite.build().drop(1)] * n_runs, cfg), cfg,
                           list(range(n_runs)))
        return set(seen)

    # 4 parameters, the network's body and head, log_softmax, cross-entropy,
    # the penalty and the combined node (cross-entropy plus alpha times the
    # penalty), however many runs share the tape.
    assert tape_lengths(2, 1) == tape_lengths(10, 1) == tape_lengths(10, 3) == {10}


@pytest.mark.parametrize("loss_kind", ["agg", "hir", "mmd", "ccsa"])
def test_combined_node_gives_the_scale_and_add_bits(loss_kind):
    """The objective ``combined_loss`` builds for the config's kind gives the
    loss and flat gradient of ``cross_entropy`` and the kind's term, with
    HIR's two options, chained as a scale and an add: for "agg", of
    ``cross_entropy`` alone."""
    cfg = tiny_config(loss_kind=loss_kind, alpha=7.0, paired=True, cross_domain_only=True,
                      normalize_hir=True)
    plan = BatchPlan(cfg.suite.build().drop(1), cfg.per_class_per_domain, cfg.paired)
    labels = plan.batch_labels
    x = np.stack([plan.draw([run, 0])[0] for run in range(3)])
    stack = ModelParams.stack([init_params(MlpSpec((2, 8, 2), seed=run)) for run in range(3)])
    terms = {"hir": lambda z, log_probs: losses.hir_kl(log_probs, labels, True, True)[0],
             "mmd": lambda z, log_probs: losses.domain_mmd_penalty(z, labels),
             "ccsa": lambda z, log_probs: losses.class_conditional_align(z, labels)}

    def built(z, log_probs):
        return combined_loss(log_probs, labels, cfg.alpha, cfg.loss_kind, z,
                             cfg.cross_domain_only, cfg.normalize_hir).combined

    def chained(z, log_probs):
        classification = cross_entropy(log_probs, labels)
        if loss_kind == "agg":
            return classification
        return classification + scale(terms[loss_kind](z, log_probs), cfg.alpha)

    def step(objective):
        graph = ad.Graph()
        z, logits = forward(stack, x, graph)
        loss = objective(z, ad.log_softmax(logits))
        grads = graph.backward(loss)
        return loss.data, flatten([grads[i] for i in graph.param_ids])

    value, grad = step(built)
    chain_value, chain_grad = step(chained)
    assert value.tobytes() == chain_value.tobytes()
    assert grad.tobytes() == chain_grad.tobytes()


def op_chain_forward(params, x, graph=None):
    """The network as one tape node per matmul, bias add and np.where relu."""
    bind = ad.tensor if graph is None else graph.param
    bound = [(bind(w), bind(b)) for w, b in zip(params.weights, params.biases)]
    h = z = ad.tensor(np.asarray(x, dtype=np.float64))
    for i, (w, b) in enumerate(bound):
        pre = ad.matmul(h, w) + b
        if i == len(bound) - 1:
            return z, pre
        mask = pre.data > 0
        h = z = ad.emit("relu", (pre,), np.where(mask, pre.data, 0.0),
                        lambda up, mask=mask: (up * mask,))


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("hidden", [(), (8,), (6, 4), (1,), (3, 1)])
@pytest.mark.parametrize("loss_kind", ["agg", "hir", "mmd", "ccsa"])
def test_two_node_network_trains_as_the_op_chain(loss_kind, hidden, monkeypatch):
    """A stack of 3 trained on the two-node network gets the bits it gets
    from one tape node per op."""
    cfg = tiny_config(loss_kind=loss_kind, alpha=0.0 if loss_kind == "agg" else 0.1, epochs=2,
                      hidden_sizes=hidden)
    suite = cfg.suite.build().drop(1)

    def trained():
        runs = [init_params(MlpSpec((2, *hidden, 2), seed=s)) for s in range(3)]
        return runs, harness.train_runs(runs, plans_of([suite] * 3, cfg), cfg, [10, 11, 12])

    runs, results = trained()
    monkeypatch.setattr(harness, "forward", op_chain_forward)
    expected_runs, expected_results = trained()
    for got, expected, result, expected_result in zip(runs, expected_runs, results,
                                                      expected_results):
        assert same_bytes(got, expected)
        assert result.to_dict() == expected_result.to_dict()


def check_poisoned_stack(poison, monkeypatch):
    """Train runs 0-2 as a stack and alone, where ``poison`` maps a run to
    the arrays whose gradient is NaN at its third step. A poisoned run fails
    with the message naming its first such array, as it does alone, its
    parameters at their last finite values; the other runs go on, on the
    stack of the rows that stay, with the bits they get alone."""
    cfg = tiny_config(loss_kind="hir", alpha=0.1, epochs=2, hidden_sizes=(6, 4))
    suite = cfg.suite.build().drop(1)
    backward = ad.Graph.backward

    def train_poisoned(run_ids):
        steps = []

        def poisoned(graph, loss):
            grads = backward(graph, loss)
            steps.append(len(steps))
            for row, run in enumerate(run_ids):
                for k in poison.get(run, ()) if len(steps) == 3 else ():
                    grads[graph.param_ids[k]][row].flat[-1] = np.nan
            return grads

        monkeypatch.setattr(ad.Graph, "backward", poisoned)
        runs = [init_params(MlpSpec((2, 6, 4, 2), seed=s)) for s in run_ids]
        return runs, harness.train_runs(runs, plans_of([suite] * len(runs), cfg), cfg,
                                        [10 + s for s in run_ids])

    stacked, results = train_poisoned([0, 1, 2])
    for run in range(3):
        if run in poison:
            assert str(results[run]) == f"non-finite gradient at parameter index {min(poison[run])}"
        else:
            assert not isinstance(results[run], TrainingDiverged)
        [alone], [result] = train_poisoned([run])
        assert same_bytes(stacked[run], alone)
        if run in poison:
            assert str(result) == str(results[run])
        else:
            assert result.to_dict() == results[run].to_dict()


def test_gradient_failure_names_the_first_non_finite_array(monkeypatch):
    check_poisoned_stack({0: (5, 3), 2: (1,)}, monkeypatch)


@pytest.mark.parametrize("array", range(4), ids=["W0", "b0", "W1", "b1"])
def test_gradient_failure_in_each_array_fails_as_alone(array, monkeypatch):
    check_poisoned_stack({1: (array,)}, monkeypatch)


def test_loss_and_gradient_failures_at_one_step_fail_as_alone(monkeypatch):
    """In a stack of 3, run 0's loss and run 2's gradient turn non-finite at
    the same step. Each fails with the message it gets alone, its parameters
    at their last finite values; run 1 keeps the bits it gets alone. Every
    step, that one too, makes one tape backward and one Adam call."""
    cfg = tiny_config(loss_kind="hir", alpha=0.1, epochs=2, hidden_sizes=(6, 4))
    suite = cfg.suite.build().drop(1)
    n_batches = BatchPlan(suite, cfg.per_class_per_domain, cfg.paired).n_batches
    bad_step = n_batches + 1  # the second step of epoch 1
    breakdown, backward, step = harness.combined_loss, ad.Graph.backward, harness.adam_step

    def train_poisoned(run_ids):
        calls = []

        def poisoned_breakdown(*args):
            calls.append("loss")
            out = breakdown(*args)
            if calls.count("loss") == bad_step and 0 in run_ids:
                out.combined.data[run_ids.index(0)] = np.nan
            return out

        def poisoned_backward(graph, loss):
            calls.append("backward")
            grads = backward(graph, loss)
            if calls.count("loss") == bad_step and 2 in run_ids:
                grads[graph.param_ids[2]][run_ids.index(2)].flat[-1] = np.nan
            return grads

        def counted_step(*args):
            calls.append("adam")
            return step(*args)

        monkeypatch.setattr(harness, "combined_loss", poisoned_breakdown)
        monkeypatch.setattr(ad.Graph, "backward", poisoned_backward)
        monkeypatch.setattr(harness, "adam_step", counted_step)
        runs = [init_params(MlpSpec((2, 6, 4, 2), seed=s)) for s in run_ids]
        results = harness.train_runs(runs, plans_of([suite] * len(runs), cfg), cfg,
                                     [10 + s for s in run_ids])
        return runs, results, calls

    stacked, results, calls = train_poisoned([0, 1, 2])
    assert calls == ["loss", "backward", "adam"] * (cfg.epochs * n_batches)
    assert [str(results[0]), str(results[2])] == ["non-finite loss at epoch 1",
                                                  "non-finite gradient at parameter index 2"]
    monkeypatch.undo()
    for run in (0, 2):  # the values after the one finished epoch
        one_epoch = init_params(MlpSpec((2, 6, 4, 2), seed=run))
        harness.train_runs([one_epoch], plans_of([suite], cfg), replace(cfg, epochs=1), [10 + run])
        assert same_bytes(stacked[run], one_epoch)
    for run in range(3):
        [alone], [result], _ = train_poisoned([run])
        assert same_bytes(stacked[run], alone)
        if run == 1:
            assert result.to_dict() == results[run].to_dict()
        else:
            assert isinstance(result, TrainingDiverged) and str(result) == str(results[run])


def test_a_failed_run_is_frozen_in_place(monkeypatch):
    """In a stack of 3 whose run 1 turns non-finite at its third step, every
    step's Adam update gets the same (3, 1, P) buffer, and run 1's row holds
    the bits it had when it failed at every step from then on. The one Adam
    call that finds the non-finite gradient raises and changes nothing."""
    cfg = tiny_config(loss_kind="hir", alpha=0.1, epochs=3, hidden_sizes=(6, 4))
    suite = cfg.suite.build().drop(1)
    backward, step = ad.Graph.backward, harness.adam_step
    seen = []  # each Adam update's buffer and its run 1 row, as the call finds them
    raised = []  # for each Adam call that raised: whether it left the state as it found it

    def poisoned(graph, loss):
        grads = backward(graph, loss)
        if len(seen) == 2:
            grads[graph.param_ids[2]][1].flat[-1] = np.nan
        return grads

    def state_bytes(state, params):
        return params[0].tobytes(), state.m[0].tobytes(), state.v[0].tobytes(), state.t

    def spy(state, params, grads):
        found, row = state_bytes(state, params), params[0][1].tobytes()
        try:
            result = step(state, params, grads)
        except NonFiniteGradient:
            raised.append(state_bytes(state, params) == found)
            raise
        seen.append((params[0], row))
        return result

    monkeypatch.setattr(ad.Graph, "backward", poisoned)
    monkeypatch.setattr(harness, "adam_step", spy)
    runs = [init_params(MlpSpec((2, 6, 4, 2), seed=s)) for s in range(3)]
    results = harness.train_runs(runs, plans_of([suite] * 3, cfg), cfg, [10, 11, 12])
    assert str(results[1]) == "non-finite gradient at parameter index 2"
    n_steps = cfg.epochs * BatchPlan(suite, cfg.per_class_per_domain, cfg.paired).n_batches
    assert len(seen) == n_steps and seen[0][0].shape == (3, 1, 2 * 6 + 6 + 6 * 4 + 4 + 4 * 2 + 2)
    assert raised == [True]
    assert all(buffer is seen[0][0] for buffer, _ in seen)
    last_finite = seen[2][1]
    assert seen[1][1] != last_finite  # it moved until it failed
    assert all(row == last_finite for _, row in seen[2:])
    assert np.concatenate([a.reshape(-1) for a in runs[1].arrays()]).tobytes() == last_finite


@pytest.mark.parametrize("loss_kind", ["agg", "hir", "mmd", "ccsa"])
def test_a_frozen_row_of_non_finite_latents_runs_quietly(loss_kind):
    """Run 1's weights make its latent z overflow to inf, so it fails at the
    first step and stays frozen, its z non-finite, for the whole run.
    Nothing computed on it, the MMD bandwidth included, raises or warns,
    and runs 0 and 2 get the bits they get alone."""
    cfg = tiny_config(loss_kind=loss_kind, alpha=0.0 if loss_kind == "agg" else 0.1, epochs=3,
                      hidden_sizes=(6, 4))
    suite = cfg.suite.build().drop(1)
    runs = [init_params(MlpSpec((2, 6, 4, 2), seed=s)) for s in range(3)]
    for w in runs[1].weights[:2]:
        w *= 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isinf(forward(runs[1], suite.domains[0].x)[0].data).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = harness.train_runs(runs, plans_of([suite] * 3, cfg), cfg, [10, 11, 12])
    assert str(results[1]) == "non-finite loss at epoch 0"
    for s in (0, 2):
        alone = init_params(MlpSpec((2, 6, 4, 2), seed=s))
        _, traces = train(alone, suite, cfg, batch_seed=10 + s)
        assert same_bytes(runs[s], alone)
        assert results[s].to_dict() == traces.to_dict()


@pytest.mark.parametrize("n_runs", [1, 3])
def test_one_adam_pass_per_step_over_one_buffer(n_runs, monkeypatch):
    """Every step updates the whole stack with one Adam call over one
    (runs, 1, P) array."""
    cfg = tiny_config(loss_kind="hir", alpha=0.1, epochs=2)
    suite = cfg.suite.build().drop(1)
    shapes = []
    step = harness.adam_step

    def spy(state, params, grads):
        shapes.append([p.shape for p in params])
        return step(state, params, grads)

    monkeypatch.setattr(harness, "adam_step", spy)
    runs = [init_params(MlpSpec((2, 8, 2), seed=s)) for s in range(n_runs)]
    harness.train_runs(runs, plans_of([suite] * n_runs, cfg), cfg, list(range(n_runs)))
    n_steps = cfg.epochs * BatchPlan(suite, cfg.per_class_per_domain, cfg.paired).n_batches
    assert shapes == [[(n_runs, 1, 2 * 8 + 8 + 8 * 2 + 2)]] * n_steps


def per_batch_attributions(log_probs, labels, n_domains):
    """Reference: one batch's per-domain mean cross-entropy and mean KL over
    the same-class pairs touching each domain, by pair enumeration."""
    y, doms = labels.labels, labels.domains
    true_lp = log_probs[np.arange(y.size), y]
    ce = np.zeros(n_domains)
    kl = np.zeros(n_domains)
    i_idx, j_idx, kl_values = pairwise_kl(log_probs, labels)
    for d in range(n_domains):
        rows = doms == d
        if rows.any():
            ce[d] = -true_lp[rows].mean()
        touching = rows[i_idx] | rows[j_idx]
        if touching.any():
            kl[d] = kl_values[touching].mean()
    return ce, kl


def train_with_oracle(monkeypatch, suite, cfg):
    """Train, recording each batch's labels and detached log-probs, and
    return the traces with the per-batch reference averaged per epoch."""
    epochs = []
    draw, log_softmax = BatchPlan.draw, ad.log_softmax

    # An epoch's batches are all drawn before its first step, and its
    # log_softmax calls come in batch order; the one run is row 0 of the stack.
    def recording_draw(plan, seed):
        epochs.append(([plan.batch_labels] * plan.n_batches, []))
        return draw(plan, seed)

    def recording_log_softmax(logits):
        out = log_softmax(logits)
        epochs[-1][1].append(out.data[0])
        return out

    monkeypatch.setattr(BatchPlan, "draw", recording_draw)
    monkeypatch.setattr(ad, "log_softmax", recording_log_softmax)
    _, traces = train(init_params(MlpSpec((2, 8, suite.class_count), seed=4)), suite, cfg,
                      batch_seed=5)
    expected_ce, expected_kl = [], []
    for batch_labels, batch_lps in epochs:
        assert len(batch_labels) == len(batch_lps)
        per_batch = [per_batch_attributions(lp, labels, len(suite))
                     for labels, lp in zip(batch_labels, batch_lps)]
        expected_ce.append(np.mean([ce for ce, _ in per_batch], axis=0))
        expected_kl.append(np.mean([kl for _, kl in per_batch], axis=0))
    return traces, np.array(expected_ce), np.array(expected_kl)


class TestEpochAttributions:
    """The per-epoch pass matches per-batch pair enumeration within 1e-12."""

    @pytest.mark.parametrize("paired", [False, True])
    def test_matches_pair_enumeration(self, monkeypatch, paired):
        cfg = tiny_config(paired=paired, epochs=3, alpha=0.1)
        traces, ce, kl = train_with_oracle(monkeypatch, cfg.suite.build().drop(1), cfg)
        np.testing.assert_allclose(traces.per_domain_l_c, ce, rtol=1e-12, atol=0)
        np.testing.assert_allclose(traces.per_domain_kl, kl, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("paired", [False, True])
    def test_empty_cell_after_prior_shift(self, monkeypatch, paired):
        suite_spec = SuiteSpec(kind="gaussians", n_per_class=15, angles=(0.0, 20.0, 40.0),
                               seed=6, class_count=3,
                               prior_shift=[[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [0.4, 0.3, 0.3]])
        cfg = tiny_config(suite=suite_spec, paired=paired, epochs=2, per_class_per_domain=3)
        with pytest.warns(UserWarning):
            traces, ce, kl = train_with_oracle(monkeypatch, suite_spec.build(), cfg)
        np.testing.assert_allclose(traces.per_domain_l_c, ce, rtol=1e-12, atol=0)
        np.testing.assert_allclose(traces.per_domain_kl, kl, rtol=1e-12, atol=0)

    def test_domain_without_pairs_is_exactly_zero(self, monkeypatch):
        # One row per cell: domain 0 holds the only class-1 row, so no
        # same-class pair touches it; domains 1 and 2 share one class-0 pair.
        suite_spec = SuiteSpec(kind="moons", n_per_class=10, angles=(0.0, 20.0, 40.0), seed=7,
                               prior_shift=[[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        cfg = tiny_config(suite=suite_spec, loss_kind="agg", epochs=2, per_class_per_domain=1)
        with pytest.warns(UserWarning, match="empty cell"):
            traces, ce, kl = train_with_oracle(monkeypatch, suite_spec.build(), cfg)
        assert all(row[0] == 0.0 for row in traces.per_domain_kl)
        assert all(row[1] > 0.0 and row[2] > 0.0 for row in traces.per_domain_kl)
        np.testing.assert_allclose(traces.per_domain_l_c, ce, rtol=1e-12, atol=0)
        np.testing.assert_allclose(traces.per_domain_kl, kl, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed", range(25))
    def test_each_run_of_a_stack_gets_its_lone_bits(self, seed):
        """Random runs R, batches B, domains D, rows per cell k and classes m.
        The log-prob rows are laid out as train_runs writes them, row i of a run
        holding its batches' rows i end to end, and no call changes them."""
        rng = np.random.default_rng(seed)
        runs, n_batches, n_domains, k, m = (int(rng.integers(lo, hi)) for lo, hi in
                                            ((2, 7), (1, 6), (1, 5), (1, 4), (2, 5)))
        domains = np.repeat(np.arange(n_domains), m * k)
        y = np.tile(np.repeat(np.arange(m), k), n_domains)
        layout = harness._attribution_layout(y, domains, n_domains, n_batches, m)
        logits = rng.normal(scale=3.0, size=(runs, n_batches, y.size, m))
        log_probs = ad.log_softmax(ad.tensor(logits.reshape(-1, y.size, m))).data
        lp_rows = log_probs.reshape(logits.shape).transpose(0, 2, 1, 3).reshape(runs, y.size, -1)

        def attributions(lp):
            """The call on a fresh rows buffer holding ``lp``, which it must leave as it is."""
            rows = np.stack((lp, np.full_like(lp, np.nan)))
            kl_scratch = np.full((len(lp), y.size, y.size), np.nan)
            out = harness._epoch_attributions(rows, kl_scratch, *layout)
            assert rows[0].tobytes() == lp.tobytes()
            return out

        ce, kl = attributions(lp_rows)
        assert ce.shape == kl.shape == (runs, n_domains)
        for run in range(runs):
            lone_ce, lone_kl = attributions(lp_rows[run:run + 1])
            assert ce[run].tobytes() == lone_ce[0].tobytes()
            assert kl[run].tobytes() == lone_kl[0].tobytes()
        # A second call on the same buffers gets the same bits.
        rows, kl_scratch = np.stack((lp_rows, lp_rows)), np.empty((runs, y.size, y.size))
        first = harness._epoch_attributions(rows, kl_scratch, *layout)
        again = harness._epoch_attributions(rows, kl_scratch, *layout)
        assert [a.tobytes() for a in first] == [a.tobytes() for a in again] == [
            ce.tobytes(), kl.tobytes()]


@pytest.mark.parametrize("loss_kind", ["agg", "hir", "mmd", "ccsa"])
def test_training_step_enumerates_no_pairs(loss_kind, monkeypatch):
    """Per-step pair enumeration must not come back into training."""
    def forbidden(*args, **kwargs):
        raise AssertionError("pair enumeration in a training step")

    # Taken before any patch, so that every module's binding gets patched,
    # whichever comes first in sys.modules.
    original = losses.pairwise_kl
    for name, module in list(sys.modules.items()):
        if (name == "hirnet" or name.startswith("hirnet.")) and \
                getattr(module, "pairwise_kl", None) is original:
            monkeypatch.setattr(module, "pairwise_kl", forbidden)
    cfg = tiny_config(loss_kind=loss_kind, alpha=0.1, paired=True, epochs=2)
    _, traces = train(init_params(MlpSpec((2, 8, 2), seed=0)), cfg.suite.build().drop(1), cfg)
    assert len(traces.per_domain_kl) == 2


PRIOR_SHIFT_SUITE = SuiteSpec(kind="gaussians", n_per_class=15, angles=(0.0, 20.0, 40.0), seed=6,
                              class_count=3, prior_shift=[[0.5, 0.5, 0.0], [0.2, 0.3, 0.5],
                                                          [0.4, 0.3, 0.3]])
STACK_CASES = {
    **{f"{kind}-{'paired' if paired else 'unpaired'}": dict(loss_kind=kind, paired=paired,
                                                           alpha=0.0 if kind == "agg" else 0.1)
       for kind in ("agg", "hir", "mmd", "ccsa") for paired in (False, True)},
    "hir-cross-domain-normalized": dict(loss_kind="hir", alpha=0.1, cross_domain_only=True,
                                        normalize_hir=True),
    "hir-prior-shift-empty-cell": dict(loss_kind="hir", alpha=0.1, suite=PRIOR_SHIFT_SUITE,
                                       per_class_per_domain=3),
}


def three_runs(class_count: int) -> list[ModelParams]:
    return [init_params(MlpSpec((2, 8, class_count), seed=s)) for s in range(3)]


def same_bytes(a: ModelParams, b: ModelParams) -> bool:
    return all(x.tobytes() == y.tobytes() for x, y in zip(a.arrays(), b.arrays()))


def layout_key(suite, cfg):
    return BatchPlan(suite, cfg.per_class_per_domain, cfg.paired).layout_key


@pytest.mark.filterwarnings("ignore::UserWarning", "ignore::RuntimeWarning")
class TestStackedRuns:
    """Runs trained together on one stack give the bits of each run alone."""

    @pytest.mark.parametrize("case", sorted(STACK_CASES))
    def test_each_run_of_a_stack_is_its_solo_run(self, case):
        cfg = tiny_config(epochs=3, **STACK_CASES[case])
        suite = cfg.suite.build()
        # Runs held out on different domains share a stack when their
        # training suites share domain 1's layout.
        cells = [ho for ho in range(len(suite))
                 if layout_key(suite.drop(ho), cfg) == layout_key(suite.drop(1), cfg)]
        held_out = [cells[s % len(cells)] for s in range(3)]
        assert len(set(held_out)) > 1
        solo = three_runs(suite.class_count)
        solo_traces = [train(p, suite.drop(ho), cfg, batch_seed=10 + s)[1]
                       for s, (p, ho) in enumerate(zip(solo, held_out))]
        stacked = three_runs(suite.class_count)
        stacked_traces = harness.train_runs(
            stacked, plans_of([suite.drop(ho) for ho in held_out], cfg), cfg, [10, 11, 12])
        for alone, together, alone_traces, together_traces, ho in zip(
                solo, stacked, solo_traces, stacked_traces, held_out):
            assert same_bytes(alone, together)
            assert together_traces.to_dict() == alone_traces.to_dict()
            assert evaluate(together, suite.domains[ho]) == evaluate(alone, suite.domains[ho])

    def test_runs_of_two_layouts_do_not_stack(self):
        cfg = tiny_config(loss_kind="hir", alpha=0.1, suite=PRIOR_SHIFT_SUITE,
                          per_class_per_domain=3)
        suite = cfg.suite.build()
        assert layout_key(suite.drop(0), cfg) != layout_key(suite.drop(1), cfg)
        with pytest.raises(ContractError, match="one batch layout"):
            harness.train_runs(three_runs(3)[:2], plans_of([suite.drop(0), suite.drop(1)], cfg),
                               cfg, [10, 11])

    def test_two_layouts_fail_before_any_step(self, monkeypatch):
        cfg = tiny_config(loss_kind="hir", alpha=0.1, suite=PRIOR_SHIFT_SUITE,
                          per_class_per_domain=3)
        suite = cfg.suite.build()
        runs = three_runs(3)
        before = [[a.copy() for a in p.arrays()] for p in runs]

        def no_step(*args, **kwargs):
            raise AssertionError("a step ran")

        monkeypatch.setattr(harness, "forward", no_step)
        plans = plans_of([suite.drop(1), suite.drop(2), suite.drop(0)], cfg)
        with pytest.raises(ContractError, match="one batch layout"):
            harness.train_runs(runs, plans, cfg, [10, 11, 12])
        for params, arrays in zip(runs, before):
            assert all(a.tobytes() == b.tobytes() for a, b in zip(params.arrays(), arrays))

    def test_empty_cell_warns_once_per_run(self):
        cfg = tiny_config(loss_kind="agg", alpha=0.0, suite=PRIOR_SHIFT_SUITE,
                          per_class_per_domain=3, epochs=4)
        train_suite = cfg.suite.build().drop(1)  # domain 0 lacks class 2
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            harness.train_runs(three_runs(3)[:2], plans_of([train_suite] * 2, cfg), cfg, [10, 11])
        messages = [str(w.message) for w in caught]
        assert messages == ["empty cell: domain 0 has no samples of class 2"] * 2

    def test_plans_of_two_domain_counts_do_not_stack(self):
        """An extra empty domain leaves labels, domains and batch count as
        they are, but not the per-domain traces: the plans must not stack."""
        cfg = tiny_config(loss_kind="hir", alpha=0.1)
        suite = cfg.suite.build().drop(1)
        empty = DomainDataset(np.empty((0, 2)), [], [])
        padded = DomainSuite(suite.domains + [empty], suite.domain_params + [99.0],
                             suite.class_count)
        with pytest.warns(UserWarning, match="empty cell: domain 2"):
            plan, padded_plan = plans_of([suite, padded], cfg)
        for name in ("labels", "domains"):
            assert (getattr(padded_plan.batch_labels, name).tobytes()
                    == getattr(plan.batch_labels, name).tobytes())
        assert padded_plan.n_batches == plan.n_batches
        assert padded_plan.layout_key != plan.layout_key
        with pytest.raises(ContractError, match="one batch layout"):
            harness.train_runs(three_runs(2)[:2], [plan, padded_plan], cfg, [10, 11])

    def test_one_plan_per_training_suite(self, monkeypatch):
        """run_experiment builds each held-out domain's plan once, for all
        its seeds; train builds its one plan."""
        built = []
        init = BatchPlan.__init__

        def counting_init(plan, *args, **kwargs):
            built.append(plan)
            init(plan, *args, **kwargs)

        monkeypatch.setattr(BatchPlan, "__init__", counting_init)
        cfg = tiny_config(held_out="all", seeds=(0, 1), epochs=1)
        assert len(run_experiment(cfg).runs) == 6
        assert len(built) == 3
        built.clear()
        train(init_params(MlpSpec((2, 8, 2), seed=0)), cfg.suite.build().drop(1), cfg)
        assert len(built) == 1

    def test_empty_cell_warns_once_per_training_suite(self):
        cfg = tiny_config(loss_kind="agg", alpha=0.0, suite=PRIOR_SHIFT_SUITE,
                          per_class_per_domain=3, epochs=1, held_out="all", seeds=(0, 1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_experiment(cfg)
        # Held out 1 or 2, domain 0 lacks class 2; held out 0, no cell is empty.
        assert [str(w.message) for w in caught] == [
            "empty cell: domain 0 has no samples of class 2"] * 2

    @pytest.mark.parametrize("cause,message", [
        ("loss", "non-finite loss at epoch 0"),
        ("gradient", "non-finite gradient at parameter index 0"),
    ])
    def test_diverging_run_fails_as_alone_and_the_others_go_on(self, cause, message):
        cfg = tiny_config(loss_kind="hir", alpha=0.1, epochs=3)
        train_suite = cfg.suite.build().drop(1)

        def runs():
            out = three_runs(2)
            if cause == "loss":
                for w in out[1].weights:
                    w *= 1e160
            else:  # the loss stays finite, the HIR gradient overflows
                out[1].weights[1][:] = 0.0
                out[1].weights[1][0] = [1e308, -1e308]
            return out

        solo = runs()
        with pytest.raises(TrainingDiverged, match=f"^{message}$"):
            train(solo[1], train_suite, cfg, batch_seed=11)
        solo_traces = {s: train(solo[s], train_suite, cfg, batch_seed=10 + s)[1] for s in (0, 2)}
        stacked = runs()
        results = harness.train_runs(stacked, plans_of([train_suite] * 3, cfg), cfg, [10, 11, 12])
        assert isinstance(results[1], TrainingDiverged) and str(results[1]) == message
        assert same_bytes(stacked[1], solo[1])  # its last finite values
        for s in (0, 2):
            assert same_bytes(stacked[s], solo[s])
            assert results[s].to_dict() == solo_traces[s].to_dict()

    def test_run_single_gives_one_outcome_per_seed(self):
        cfg = tiny_config(seeds=(3, 1, 2), collect_diagnostics=True, epochs=2)
        suite = cfg.suite.build()
        trained = []
        for seed in cfg.seeds:
            params = init_params(MlpSpec((2, 8, 2), seed=derive_seed(seed, 1, 0)))
            _, traces = train(params, suite.drop(1), cfg, batch_seed=derive_seed(seed, 1, 1))
            trained.append((seed, params, traces))
        outcomes = [run_single(cfg, suite, 1, seed, params, traces, 0.0)
                    for seed, params, traces in trained]
        assert [o.seed for o in outcomes] == [3, 1, 2]
        stacked = run_experiment(cfg).runs
        for outcome, together in zip(outcomes, stacked):
            assert strip_wall_clock(outcome.to_dict()) == strip_wall_clock(together.to_dict())
            assert same_bytes(outcome.final_params, together.final_params)

    def test_cells_of_two_layouts_train_as_two_stacks(self, monkeypatch):
        cfg = tiny_config(loss_kind="hir", alpha=0.1, suite=PRIOR_SHIFT_SUITE,
                          per_class_per_domain=3, held_out="all", seeds=(0, 1),
                          collect_diagnostics=True)
        stack_sizes = []
        train_runs = harness.train_runs

        def recording_train_runs(runs, *args):
            stack_sizes.append(len(runs))
            return train_runs(runs, *args)

        monkeypatch.setattr(harness, "train_runs", recording_train_runs)
        report = run_experiment(cfg)
        # Held out 0, the other two domains keep every cell; held out 1 or 2,
        # domain 0 lacks class 2 and both suites give one layout.
        assert stack_sizes == [2, 4]
        monkeypatch.setattr(harness, "train_runs", train_runs)
        for outcome in report.runs:
            [alone] = run_experiment(replace(cfg, held_out=outcome.held_out,
                                             seeds=(outcome.seed,))).runs
            assert strip_wall_clock(outcome.to_dict()) == strip_wall_clock(alone.to_dict())
            assert same_bytes(outcome.final_params, alone.final_params)


class TestEvaluate:
    def test_uniform_model_tie_breaks_to_class_zero(self):
        params = ModelParams([np.zeros((2, 3)), np.zeros((3, 2))],
                             [np.zeros((1, 3)), np.zeros((1, 2))])
        suite = SuiteSpec("moons", 50, angles=[0.0], seed=1).build()
        assert evaluate(params, suite.domains[0]) == 0.5

    def test_perfect_fit_scores_one(self):
        # gaussians two classes far apart: train quickly to separability
        cfg = tiny_config(
            suite=SuiteSpec(kind="gaussians", n_per_class=20, angles=(0.0, 10.0),
                            noise_sd=0.01, seed=2, class_count=2),
            loss_kind="agg", epochs=40, per_class_per_domain=5, held_out=1,
            optimizer=OptimizerConfig(lr=1e-2))
        suite = cfg.suite.build()
        params = init_params(MlpSpec((2, 8, 2), seed=1))
        train(params, suite, cfg, batch_seed=1)
        assert evaluate(params, suite.domains[0]) == 1.0

    def test_untrained_accuracy_near_chance(self):
        # Monte Carlo over inits: mean accuracy ~ 1/m on balanced classes.
        suite = SuiteSpec("gaussians", 40, angles=[0.0], seed=3, class_count=5).build()
        accs = [evaluate(init_params(MlpSpec((2, 10, 5), seed=s)), suite.domains[0])
                for s in range(25)]
        assert np.mean(accs) == pytest.approx(1.0 / 5, abs=0.08)


class TestRunExperiment:
    def test_all_in_turn_runs_every_domain(self):
        cfg = tiny_config(held_out="all", seeds=(0, 1))
        report = run_experiment(cfg)
        assert len(report.runs) == 6
        assert sorted({r.held_out for r in report.runs}) == [0, 1, 2]
        assert all(not r.failed for r in report.runs)

    def test_aggregates_mean_and_sd(self):
        cfg = tiny_config(seeds=(0, 1, 2))
        report = run_experiment(cfg)
        entry = report.aggregates["1"]
        accs = [r.accuracy for r in report.runs]
        assert entry["mean_accuracy"] == pytest.approx(np.mean(accs))
        assert entry["sd_accuracy"] == pytest.approx(np.std(accs, ddof=1))
        assert entry["n_runs"] == 3

    def test_failed_runs_marked_and_others_continue(self):
        cfg = tiny_config(optimizer=OptimizerConfig(lr=1e200), seeds=(0, 1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = run_experiment(cfg)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert [r.failure for r in report.runs] == ["non-finite loss at epoch 0"] * 2
        assert all(r.failed for r in report.runs)
        assert all(r.accuracy is None for r in report.runs)
        assert report.aggregates["1"]["mean_accuracy"] is None
        assert report.aggregates["1"]["n_failed"] == 2

    def test_target_isolation_under_nan_poisoning(self):
        cfg = tiny_config(epochs=2)
        suite = cfg.suite.build()
        suite.domains[1].x[:] = np.nan
        params = init_params(MlpSpec((2, 8, 2), seed=0))
        _, traces = train(params, suite.drop(1), cfg, batch_seed=0)
        assert np.all(np.isfinite(traces.l_c))
        assert all(np.all(np.isfinite(w)) for w in params.arrays())

    def test_determinism_excluding_wall_clock(self):
        cfg = tiny_config(seeds=(0, 1), collect_diagnostics=True)
        a = strip_wall_clock(run_experiment(cfg).to_dict())
        b = strip_wall_clock(run_experiment(cfg).to_dict())
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    @pytest.mark.parametrize("cpus, rows, workers", [
        (1, 30, 1), (2, 6, 1), (2, 12, 1), (2, 17, 1), (2, 18, 2), (2, 30, 2), (64, 30, 3),
        (None, 18, 2),  # no affinity on this platform: the CPU count, 2 here
    ])
    def test_worker_count_follows_the_grid(self, monkeypatch, cpus, rows, workers):
        """One worker per usable CPU, but at most one per RUNS_PER_WORKER rows."""
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 2)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert harness._worker_count(rows) == workers

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_no_layout_group_is_split_below_runs_per_worker(self, monkeypatch):
        # Held out on domain 0, the runs form one layout group of 10 rows;
        # held out on domains 1 and 2, one group of 20. On 64 CPUs the grid of
        # 30 rows takes 3 workers: the small group goes to the pool whole and
        # the other is split in two, never into chunks below RUNS_PER_WORKER.
        cfg = tiny_config(suite=PRIOR_SHIFT_SUITE, per_class_per_domain=3, held_out="all",
                          seeds=tuple(range(10)), epochs=2)
        suite = cfg.suite.build()
        assert [layout_key(suite.drop(ho), cfg) for ho in range(3)].count(
            layout_key(suite.drop(1), cfg)) == 2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(1)))
        sequential = strip_wall_clock(run_experiment(cfg).to_dict())
        jobs, sizes = [], []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, configs, suites, job_rows, plans):
                jobs.extend((len(rows), sorted({ho for ho, _ in rows})) for rows in job_rows)
                return map(fn, configs, suites, job_rows, plans)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        parallel = strip_wall_clock(run_experiment(cfg).to_dict())
        assert sizes == [3]
        assert jobs == [(10, [0]), (10, [1]), (10, [2])]
        assert json.dumps(sequential, sort_keys=True) == json.dumps(parallel, sort_keys=True)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_worker_count_does_not_change_results(self, workers, monkeypatch):
        # 27 rows in one stack, in worker processes at counts 2 and 3: 2 workers
        # split held-out domain 1 between chunks.
        cfg = tiny_config(held_out="all", seeds=tuple(range(9)), epochs=2)
        monkeypatch.setattr(harness, "_worker_count", lambda n_rows: 1)
        sequential = strip_wall_clock(run_experiment(cfg).to_dict())
        monkeypatch.setattr(harness, "_worker_count", lambda n_rows: workers)
        parallel = strip_wall_clock(run_experiment(cfg).to_dict())
        assert json.dumps(sequential, sort_keys=True) == json.dumps(parallel, sort_keys=True)

    def test_pool_is_no_larger_than_the_rows(self, monkeypatch):
        class InlinePool:
            """Records the pool size and runs the jobs in this process."""
            sizes = []

            def __init__(self, max_workers):
                self.sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        # 27 rows in one stack make at most 3 chunks of RUNS_PER_WORKER rows, so a
        # count of 500 gets a pool of 3.
        cfg = tiny_config(held_out="all", seeds=tuple(range(9)), epochs=2)
        monkeypatch.setattr(harness, "_worker_count", lambda n_rows: 1)
        sequential = strip_wall_clock(run_experiment(cfg).to_dict())
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(harness, "_worker_count", lambda n_rows: 500)
        parallel = strip_wall_clock(run_experiment(cfg).to_dict())
        assert InlinePool.sizes == [3]
        assert json.dumps(sequential, sort_keys=True) == json.dumps(parallel, sort_keys=True)

    def test_each_job_is_sent_only_its_rows_plans(self, monkeypatch):
        class PicklingPool:
            """Runs each job in this process on a pickled copy of its
            arguments, as a process pool does, and records for each job the
            held-out domains of its rows, its plans' keys and whether every
            plan's layout is read-only."""
            jobs = []

            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                calls = [pickle.loads(pickle.dumps(args)) for args in zip(*iterables)]
                for _, _, rows, plans in calls:
                    self.jobs.append((sorted({ho for ho, _ in rows}), sorted(plans), all(
                        not (p.batch_labels.labels.flags.writeable
                             or p.batch_labels.domains.flags.writeable)
                        for p in plans.values())))
                return [fn(*args) for args in calls]

        # 18 rows in one stack: two jobs of 9, held out on domains 0 (6 times)
        # and 1 (3 times), and 1 (3 times) and 2 (6 times).
        cfg = tiny_config(held_out="all", seeds=tuple(range(6)), epochs=2)
        monkeypatch.setattr(harness, "_worker_count", lambda n_rows: 1)
        sequential = strip_wall_clock(run_experiment(cfg).to_dict())
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", PicklingPool)
        monkeypatch.setattr(harness, "_worker_count", lambda n_rows: 2)
        parallel = strip_wall_clock(run_experiment(cfg).to_dict())
        assert PicklingPool.jobs == [([0, 1], [0, 1], True), ([1, 2], [1, 2], True)]
        assert json.dumps(sequential, sort_keys=True) == json.dumps(parallel, sort_keys=True)

    def test_mmd_and_ccsa_kinds_run(self):
        for kind in ("mmd", "ccsa"):
            cfg = tiny_config(loss_kind=kind, alpha=0.1, epochs=2)
            report = run_experiment(cfg)
            assert not report.runs[0].failed
            assert report.runs[0].traces.l_h[-1] >= 0.0


class TestSeparableSanity:
    def test_agg_reaches_high_train_accuracy(self):
        # Linearly separable single-domain task: >= 0.99 within 200 epochs.
        cfg = tiny_config(
            suite=SuiteSpec(kind="gaussians", n_per_class=30, angles=(0.0,),
                            noise_sd=0.02, seed=4, class_count=2),
            loss_kind="agg", epochs=200, per_class_per_domain=5, held_out=0)
        suite = cfg.suite.build()
        params = init_params(MlpSpec((2, 8, 2), seed=2))
        with pytest.warns(UserWarning, match="single training domain"):
            train(params, suite, cfg, batch_seed=2)
        assert evaluate(params, suite.domains[0]) >= 0.99


class TestSweep:
    def test_sweep_rejects_agg(self):
        with pytest.raises(ConfigError):
            sweep_alpha(tiny_config(loss_kind="agg"), [1e-3])

    @pytest.mark.parametrize("alphas", [[], [0.1, 0.1], [1e-3, 0.0010000001], [0.1, -1.0],
                                        [0.1, float("nan")]])
    def test_bad_alpha_list_raises_before_any_run(self, alphas, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_experiment", lambda config: calls.append(config))
        with pytest.raises(ConfigError):
            sweep_alpha(tiny_config(), alphas)
        assert calls == []

    def test_sweep_runs_each_alpha(self):
        reports = sweep_alpha(tiny_config(epochs=2), [1e-3, 1e-2])
        assert set(reports) == {1e-3, 1e-2}
        for alpha, report in reports.items():
            assert report.config["alpha"] == alpha


class TestReportFiles:
    def test_records_have_the_report_keys_and_no_others(self):
        report = run_experiment(tiny_config(collect_diagnostics=True))
        assert set(report.to_dict()) == {"config", "runs", "aggregates", "wall_clock_s"}
        assert set(report.runs[0].to_dict()) == {
            "held_out", "held_out_param", "seed", "accuracy", "failed", "failure", "traces",
            "diagnostics", "wall_clock_s"}
        assert set(report.runs[0].traces.to_dict()) == {
            "domain_params", "l_c", "l_h", "per_domain_l_c", "per_domain_kl"}
        assert report.runs[0].final_params is not None

    def test_report_json_and_csvs(self, tmp_path):
        cfg = tiny_config(seeds=(0, 1))
        report = run_experiment(cfg)
        write_report_json(report, tmp_path / "report.json")
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["config"] == cfg.to_dict()
        assert len(payload["runs"]) == 2

        write_accuracy_csv([report], tmp_path / "accuracy.csv")
        lines = (tmp_path / "accuracy.csv").read_text().splitlines()
        assert lines[0] == "held_out,seed,loss_kind,alpha,accuracy"
        assert len(lines) == 3
        held_out_param, seed, kind, alpha, acc = lines[1].split(",")
        assert held_out_param == "25" and kind == "hir"

        write_trace_csv(report.runs[0], tmp_path / "traces.csv")
        tlines = (tmp_path / "traces.csv").read_text().splitlines()
        assert tlines[0] == "epoch,domain,l_c,l_h"
        # 1 total row + 2 domain rows per epoch
        assert len(tlines) == 1 + cfg.epochs * 3

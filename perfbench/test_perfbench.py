"""Self-tests of the benchmark: tracing changes no result and leaves no
patch behind, metric names are well formed, the seed reaches the
experiment, and times are put at the reference speed as documented."""

import json
import math
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from hirnet import cli  # noqa: E402
from hirnet.harness import ExperimentConfig  # noqa: E402
from recorder import SPAN_NAMES, Recorder, layer_metrics, metric_units  # noqa: E402
from run import END_TO_END_UNITS, at_reference_speed, check_outputs  # noqa: E402
from speed import REFERENCE_UNIT_S, UNITS_PER_SAMPLE, Samples, Speedometer  # noqa: E402
from workloads import WORKLOADS, expected_runs, experiment_config  # noqa: E402


def tiny_config(loss_kind: str) -> dict:
    return {
        "suite": {"kind": "moons", "n_per_class": 12, "angles": [0.0, 30.0, 60.0],
                  "noise_sd": 0.08, "seed": 3},
        "hidden_sizes": [6], "loss_kind": loss_kind, "alpha": 0.5, "paired": True,
        "epochs": 2, "per_class_per_domain": 3, "seeds": [0], "held_out": "all",
        "collect_diagnostics": True,
    }


def run_cli(tmp_path, name: str, config: dict) -> dict:
    config_path = tmp_path / f"{name}.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / name
    assert cli.main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    return json.loads((out / "report.json").read_text())


def without_wall_clock(value):
    if isinstance(value, dict):
        return {k: without_wall_clock(v) for k, v in value.items() if k != "wall_clock_s"}
    if isinstance(value, list):
        return [without_wall_clock(v) for v in value]
    return value


def hirnet_bindings() -> dict:
    """Every attribute of every hirnet module and class, by identity."""
    bound = {}
    for name, module in list(sys.modules.items()):
        if name == "hirnet" or name.startswith("hirnet."):
            for attr, value in vars(module).items():
                bound[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cls_attr, member in vars(value).items():
                        bound[(name, attr, cls_attr)] = member
    return bound


@pytest.mark.parametrize("loss_kind", ["hir", "mmd"])
def test_traced_run_gives_the_untraced_report(tmp_path, loss_kind):
    config = tiny_config(loss_kind)
    untraced = run_cli(tmp_path, "untraced", config)
    recorder = Recorder()
    recorder.install()
    try:
        traced = run_cli(tmp_path, "traced", config)
    finally:
        recorder.uninstall()
    assert without_wall_clock(traced) == without_wall_clock(untraced)

    metrics = layer_metrics(recorder.spans)
    assert metrics["harness.run_single.calls"] == 3
    assert metrics["autodiff.Graph.backward.calls"] == metrics["optim.adam_step.calls"] > 0
    assert metrics["diagnostics.collect_bundle.calls"] == 3
    assert metrics["cli.outputs.calls"] == 1 + 1 + 3 + 1  # report, accuracy, traces, checkpoints
    penalty = "losses.hir_kl.calls" if loss_kind == "hir" else "losses.domain_mmd_penalty.calls"
    assert metrics[penalty] > 0
    assert 0.0 < metrics["diagnostics.discarded_share"] < 1.0
    assert all(v >= 0 for v in metrics.values())


def test_uninstall_restores_every_original(tmp_path):
    before = hirnet_bindings()
    recorder = Recorder()
    recorder.install()
    patched = hirnet_bindings()
    changed = {key for key in before if patched[key] is not before[key]}
    # Names bound by ``from ... import`` are patched where callers read them.
    for key in [("hirnet.diagnostics", "mmd_rbf"), ("hirnet.losses", "mmd_rbf"),
                ("hirnet.harness", "stratified_batches"), ("hirnet.harness", "forward"),
                ("hirnet.autodiff", "Graph", "backward"), ("hirnet.data", "SuiteSpec", "build")]:
        assert key in changed
    try:
        run_cli(tmp_path, "traced", tiny_config("hir"))
    finally:
        recorder.uninstall()
    after = hirnet_bindings()
    assert [key for key in before if after[key] is not before[key]] == []


def test_metric_names_are_well_formed():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    names = list(metric_units()) + list(END_TO_END_UNITS)
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
    assert len(SPAN_NAMES) == len(set(SPAN_NAMES))
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == metric_units()
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END_UNITS
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_reaches_suite_and_run_seeds(workload):
    configs = {seed: ExperimentConfig.from_dict(experiment_config(workload, seed))
               for seed in (4, 11)}
    for seed, config in configs.items():
        assert config.suite.seed == seed
        assert config.seeds[0] == seed
        assert {s for _, s in expected_runs(experiment_config(workload, seed))} == set(
            config.seeds)
    first, second = (configs[s].suite.build() for s in (4, 11))
    assert not (first.domains[0].x == second.domains[0].x).all()


def test_output_check_flags_bad_runs(tmp_path):
    config = tiny_config("hir")
    run_cli(tmp_path, "out", config)
    out = tmp_path / "out"
    accuracies, problems, harness_failed = check_outputs(str(out), config)
    assert sorted(accuracies) == expected_runs(config) and not problems
    assert harness_failed == 0

    report = json.loads((out / "report.json").read_text())
    report["runs"][0]["traces"]["l_c"][0] = math.nan
    report["runs"][1]["failed"] = True
    (out / "report.json").write_text(json.dumps(report))
    accuracies, problems, harness_failed = check_outputs(str(out), config)
    assert sorted(problems) == expected_runs(config)[:2]
    assert harness_failed == 1

    (out / "report.json").write_text("{")
    accuracies, problems, _ = check_outputs(str(out), config)
    assert accuracies == {} and sorted(problems) == expected_runs(config)


def uniform_samples(unit_cost: float, cpu_share: float, seconds: float) -> Samples:
    """Samples of a loop that gets ``cpu_share`` of a vCPU at a steady speed."""
    flat, step = [], UNITS_PER_SAMPLE * unit_cost / cpu_share
    for n in range(int(seconds / step) + 1):
        flat += [n * step, n * step * cpu_share, n * UNITS_PER_SAMPLE]
    return Samples(flat)


def test_times_are_put_at_the_reference_speed():
    # A vCPU at half the reference speed, a tenth of which the loop takes.
    speed = uniform_samples(2 * REFERENCE_UNIT_S, 0.1, 30.0)
    lost, factor = speed.interval(1.0, 11.0)
    assert lost == pytest.approx(1.0)
    assert factor == pytest.approx(0.5)
    timings = {"spawned": 1.0, "ready": 1.5, "started": 2.0, "ended": 12.0,
               "cpu_s": 8.8, "peak_rss_mb": 40.0}
    measured = at_reference_speed(timings, speed)
    assert measured["setup_s"] == pytest.approx(0.45 * 0.5)
    assert measured["experiment_s"] == pytest.approx(9.0 * 0.5)
    assert measured["cpu_s"] == pytest.approx(4.4)
    with pytest.raises(ValueError):
        speed.interval(1.0, 31.0)


def test_speedometer_samples_and_stops(tmp_path):
    speedometer = Speedometer(str(tmp_path / "speed.bin"), 30.0)
    try:
        samples = speedometer.stop()
    finally:
        speedometer.kill()
    assert speedometer.proc.returncode == 0
    assert len(samples.times) >= 1
    assert samples.units == sorted(samples.units) and samples.units[0] == UNITS_PER_SAMPLE

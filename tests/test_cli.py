import json
import os
import subprocess
import sys

import numpy as np
import pytest

import hirnet
from hirnet import diagnostics, harness
from hirnet.cli import main
from hirnet.data import SuiteSpec
from hirnet.errors import write_json
from hirnet.harness import ExperimentConfig, OptimizerConfig
from hirnet.losses import pairwise_kl
from hirnet.models import MlpSpec, init_params, save_checkpoint


def small_config(**overrides):
    cfg = ExperimentConfig(
        suite=SuiteSpec(kind="moons", n_per_class=15, angles=(0.0, 30.0, 60.0),
                        noise_sd=0.08, seed=1),
        hidden_sizes=(6,),
        loss_kind="hir",
        alpha=1e-3,
        epochs=2,
        per_class_per_domain=3,
        seeds=(0,),
        held_out=1,
        collect_diagnostics=False,
    )
    raw = cfg.to_dict()
    raw.update(overrides)
    return raw


def write_config(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def write_manifest(path, **fields):
    """Write ``SuiteSpec(**fields)`` as the manifest ``hirnet diag --suite`` reads."""
    write_json(SuiteSpec(**fields).to_dict(), path)


def unusable_out(tmp_path, under_file: bool) -> str:
    """An --out that cannot be a directory: an existing file, or a path under one."""
    blocker = tmp_path / "taken"
    blocker.write_text("a file\n")
    return str(blocker / "out" if under_file else blocker)


def refuse(what: str):
    def refused(*args, **kwargs):
        raise AssertionError(what)
    return refused


# Two angles that print alike as the domain names of every output file.
ALIKE_ANGLES = [15.0000001, 15.0000002, 60.0]


class TestRunCommand:
    @pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
    def test_unusable_out_exits_2_before_training(self, tmp_path, capsys, monkeypatch,
                                                  under_file):
        monkeypatch.setattr(harness, "run_experiment", refuse("trained"))
        out = unusable_out(tmp_path, under_file)
        assert main(["run", "--config", write_config(tmp_path, small_config()),
                     "--out", out]) == 2
        assert f"config error: --out {out} cannot be a directory" in capsys.readouterr().err

    def test_out_under_an_unwritable_directory_exits_2_before_training(self, tmp_path, capsys,
                                                                       monkeypatch):
        cfg_path = write_config(tmp_path, small_config())
        monkeypatch.setattr(harness, "run_experiment", refuse("trained"))
        monkeypatch.setattr(os, "access", lambda path, mode: path != str(tmp_path))
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
        assert f"{tmp_path} is not a writable one" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_writes_report_and_csvs(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, small_config())
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["runs"][0]["accuracy"] is not None
        assert (out / "accuracy.csv").exists()
        assert (out / "traces_ho1_seed0.csv").exists()
        assert (out / "checkpoint_ho1_seed0.ckpt").exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2

    def test_unknown_field_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {**small_config(), "gpu": True})
        assert main(["run", "--config", cfg_path]) == 2

    def test_boolean_held_out_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, small_config(held_out=True))
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--alpha", "0.1"]])
    def test_one_domain_suite_exits_2(self, tmp_path, capsys, command):
        # Holding out the only domain leaves nothing to train on.
        raw = {"suite": {"angles": [0]}, "epochs": 1}
        out = tmp_path / "out"
        assert main([*command, "--config", write_config(tmp_path, raw), "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("overrides", [
        {"epochs": 2.5},
        {"alpha": "x"},
        {"per_class_per_domain": 2.5},
        {"seeds": [1.7]},
        {"seeds": [True]},
        {"alpha": float("nan")},
        {"suite_field": {"noise_sd": "nan"}},
        {"suite_field": {"n_per_class": 10.5}},
        {"suite": 5},
        {"suite": [1]},
        {"optimizer": 3},
        {"suite_field": {"prior_shift": [["a", 1], [1, 0], [0.5, 0.5]]}},
        {"suite_field": {"prior_shift": [[1.0], [1, 0], [0.5, 0.5]]}},
        {"suite_field": {"prior_shift": [[float("nan"), 1], [1, 0], [0.5, 0.5]]}},
        {"paired": "no"},
        {"collect_diagnostics": "no"},
        {"normalize_hir": 1},
        {"suite_field": {"angles": []}, "held_out": "all"},
        5,
        None,
        "abc",
    ], ids=["epochs-float", "alpha-string", "per-cell-float", "seed-float", "seed-bool",
            "alpha-nan", "noise-string", "n-per-class-float", "suite-number", "suite-list",
            "optimizer-number", "prior-shift-string", "prior-shift-ragged", "prior-shift-nan",
            "paired-string", "diagnostics-string", "normalize-number", "no-angles",
            "config-number", "config-null", "config-string"])
    def test_mistyped_field_exits_2(self, tmp_path, capsys, overrides):
        raw = overrides
        if isinstance(overrides, dict):
            overrides = dict(overrides)
            raw = small_config()
            raw["suite"].update(overrides.pop("suite_field", {}))
            raw.update(overrides)
        cfg_path = write_config(tmp_path, raw)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_seeds_exit_2_before_training(self, tmp_path, capsys, monkeypatch):
        # Two equal seeds would train identical runs and write each file twice.
        monkeypatch.setattr(harness, "run_experiment", refuse("trained"))
        out = tmp_path / "out"
        raw = small_config(seeds=[1, 1], held_out="all")
        assert main(["run", "--config", write_config(tmp_path, raw), "--out", str(out)]) == 2
        assert "config error: seeds must be non-empty and distinct, got [1, 1]" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value, bounds", [
        ("lr", -1, "> 0"), ("lr", 0, "> 0"), ("eps", -1e-8, "> 0"), ("eps", 0.0, "> 0"),
        ("beta1", 1.0, "in [0, 1)"), ("beta1", -0.5, "in [0, 1)"), ("beta2", 1.5, "in [0, 1)"),
    ], ids=["lr-negative", "lr-zero", "eps-negative", "eps-zero", "beta1-one", "beta1-negative",
            "beta2-above-one"])
    def test_optimizer_value_out_of_range_exits_2_before_training(self, tmp_path, capsys,
                                                                  monkeypatch, field, value,
                                                                  bounds):
        monkeypatch.setattr(harness, "run_experiment", refuse("trained"))
        out = tmp_path / "out"
        raw = small_config(optimizer={field: value})
        assert main(["run", "--config", write_config(tmp_path, raw), "--out", str(out)]) == 2
        assert f"config error: optimizer {field} must be {bounds}, got {float(value)}" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_angles_alike_as_written_exit_2(self, tmp_path, capsys):
        raw = small_config()
        raw["suite"]["angles"] = ALIKE_ANGLES
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, raw), "--out", str(out)]) == 2
        assert "config error: angles must differ as written" in capsys.readouterr().err
        assert not out.exists()

    def test_all_runs_failed_exits_3(self, tmp_path, capsys):
        raw = small_config(optimizer=OptimizerConfig(lr=1e200).to_dict(), epochs=3)
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 3
        report = json.loads((out / "report.json").read_text())
        assert all(r["failed"] for r in report["runs"])

    @pytest.mark.parametrize("loss_kind", ["agg", "hir", "mmd", "ccsa"])
    def test_never_imports_numpy_ma(self, tmp_path, loss_kind):
        """A paired run with diagnostics, in a fresh interpreter, leaves
        ``numpy.ma`` unimported: its first import is a cost of every run. Its
        grid of 3 runs is below 2 * RUNS_PER_WORKER, so it trains in that
        process and leaves ``concurrent.futures`` unimported too."""
        assert 3 < 2 * harness.RUNS_PER_WORKER
        cfg_path = write_config(tmp_path, small_config(paired=True, collect_diagnostics=True,
                                                       held_out="all", loss_kind=loss_kind))
        argv = ["run", "--config", cfg_path, "--out", str(tmp_path / "out")]
        script = (f"import sys; from hirnet.cli import main; print(main({argv!r}), "
                  "*(m in sys.modules for m in ('numpy.ma', 'concurrent.futures')))")
        src = os.path.dirname(os.path.dirname(os.path.abspath(hirnet.__file__)))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False False"

    def test_import_leaves_the_process_pool_unimported(self):
        """``import hirnet.cli`` in a fresh interpreter imports neither
        ``concurrent.futures`` nor ``multiprocessing``: only a run with more
        than one worker process needs them."""
        script = ("import sys, hirnet.cli; "
                  "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])")
        src = os.path.dirname(os.path.dirname(os.path.abspath(hirnet.__file__)))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


class TestSweepCommand:
    def test_combined_accuracy_csv(self, tmp_path):
        cfg_path = write_config(tmp_path, small_config())
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", cfg_path, "--alpha", "1e-3,1e-2",
                     "--out", str(out)])
        assert code == 0
        lines = (out / "accuracy.csv").read_text().splitlines()
        assert lines[0] == "held_out,seed,loss_kind,alpha,accuracy"
        alphas = {line.split(",")[3] for line in lines[1:]}
        assert alphas == {"0.001", "0.01"}
        assert (out / "report_alpha_0.001.json").exists()
        assert (out / "report_alpha_0.01.json").exists()

    def test_sweep_on_agg_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, small_config(loss_kind="agg"))
        assert main(["sweep", "--config", cfg_path, "--alpha", "1e-3"]) == 2

    def test_bad_alpha_list_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, small_config())
        assert main(["sweep", "--config", cfg_path, "--alpha", "abc"]) == 2

    def test_out_under_a_file_exits_2_before_training(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness, "run_experiment", refuse("trained"))
        assert main(["sweep", "--config", write_config(tmp_path, small_config()),
                     "--alpha", "1e-3", "--out", unusable_out(tmp_path, True)]) == 2
        assert "config error: --out" in capsys.readouterr().err

    @pytest.mark.parametrize("alphas", ["0.1,0.1", "0.001,0.0010000001", "0.1,-1", "0.1,nan"])
    def test_colliding_or_bad_alpha_exits_2_before_training(self, tmp_path, capsys, monkeypatch,
                                                           alphas):
        def no_training(*args, **kwargs):
            raise AssertionError("trained")

        monkeypatch.setattr(harness, "run_experiment", no_training)
        cfg_path = write_config(tmp_path, small_config())
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg_path, "--alpha", alphas, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


class TestDiagCommand:
    def test_emits_three_files(self, tmp_path):
        params = init_params(MlpSpec((2, 6, 2), seed=4))
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(params, ckpt)
        manifest = tmp_path / "suite.json"
        write_manifest(manifest, kind="moons", n_per_class=20, angles=(0.0, 30.0),
                       noise_sd=0.05, seed=2)
        out = tmp_path / "diag"
        code = main(["diag", "--checkpoint", str(ckpt), "--suite", str(manifest),
                     "--out", str(out)])
        assert code == 0
        mmd_lines = (out / "domain_mmd.csv").read_text().splitlines()
        assert mmd_lines[0] == "0,30"
        assert len(mmd_lines) == 3
        kl_lines = (out / "posterior_kl.csv").read_text().splitlines()
        assert kl_lines[0] == "i,j,class,value"
        summary = json.loads((out / "diag_summary.json").read_text())
        assert {"agreement", "paired_kl_mean", "unpaired_kl_mean", "bandwidth"} <= set(summary)

    def test_one_domain_suite_warns_that_cross_domain_probes_are_vacuous(self, tmp_path):
        ckpt, manifest, out = tmp_path / "model.ckpt", tmp_path / "suite.json", tmp_path / "diag"
        save_checkpoint(init_params(MlpSpec((2, 6, 2), seed=4)), ckpt)
        write_manifest(manifest, kind="moons", n_per_class=20, angles=(0.0,), noise_sd=0.05,
                       seed=2)
        with pytest.warns(UserWarning, match="cross-domain probes are vacuous"):
            assert main(["diag", "--checkpoint", str(ckpt), "--suite", str(manifest),
                         "--out", str(out)]) == 0
        summary = json.loads((out / "diag_summary.json").read_text())
        assert summary["agreement"] == 1.0 and summary["paired_kl_mean"] == 0.0

    def test_posterior_kl_is_computed_once(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return pairwise_kl(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "pairwise_kl", counting)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(init_params(MlpSpec((2, 6, 2), seed=4)), ckpt)
        manifest = tmp_path / "suite.json"
        write_manifest(manifest, kind="moons", n_per_class=20, angles=(0.0, 30.0), seed=2)
        assert main(["diag", "--checkpoint", str(ckpt), "--suite", str(manifest),
                     "--out", str(tmp_path / "diag"), "--per-class-per-domain", "3"]) == 0
        assert len(calls) == 1

    def test_angles_alike_as_written_exit_2(self, tmp_path, capsys):
        ckpt, manifest, out = tmp_path / "model.ckpt", tmp_path / "suite.json", tmp_path / "diag"
        save_checkpoint(init_params(MlpSpec((2, 6, 2), seed=4)), ckpt)
        manifest.write_text(json.dumps({**SuiteSpec(seed=2).to_dict(), "angles": ALIKE_ANGLES}))
        assert main(["diag", "--checkpoint", str(ckpt), "--suite", str(manifest),
                     "--out", str(out)]) == 2
        assert "config error: angles must differ as written" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "suite.json"
        write_manifest(manifest)
        assert main(["diag", "--checkpoint", str(tmp_path / "none.ckpt"),
                     "--suite", str(manifest)]) == 2

    def test_foreign_checkpoint_exits_2(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.ckpt"
        bogus.write_text("not a checkpoint\n")
        manifest = tmp_path / "suite.json"
        write_manifest(manifest)
        assert main(["diag", "--checkpoint", str(bogus), "--suite", str(manifest)]) == 2

    @pytest.mark.parametrize("damage", ["truncate", "garble", "inf", "nan", "bias-width",
                                        "trailing-line"])
    def test_damaged_checkpoint_exits_2(self, tmp_path, capsys, damage):
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(init_params(MlpSpec((2, 6, 2), seed=4)), ckpt)
        lines = ckpt.read_text().splitlines()
        if damage == "truncate":
            lines = lines[:4]
        elif damage == "garble":
            lines[3] = "0.25 not-a-number " + lines[3]
        elif damage in ("inf", "nan"):
            lines[3] = " ".join([damage] + lines[3].split()[1:])
        elif damage == "bias-width":
            lines[5] = "b 1 7"
        else:
            lines.append("0.5")
        ckpt.write_text("\n".join(lines) + "\n")
        manifest = tmp_path / "suite.json"
        write_manifest(manifest, kind="moons", n_per_class=10, angles=(0.0, 30.0))
        code = main(["diag", "--checkpoint", str(ckpt), "--suite", str(manifest),
                     "--out", str(tmp_path / "diag")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_out_that_is_a_file_exits_2_before_probing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(diagnostics, "collect_bundle", refuse("probed"))
        ckpt, manifest = tmp_path / "model.ckpt", tmp_path / "suite.json"
        save_checkpoint(init_params(MlpSpec((2, 6, 2), seed=4)), ckpt)
        write_manifest(manifest, kind="moons", n_per_class=10, angles=(0.0, 30.0))
        out = unusable_out(tmp_path, False)
        assert main(["diag", "--checkpoint", str(ckpt), "--suite", str(manifest),
                     "--out", out]) == 2
        assert "config error: --out" in capsys.readouterr().err
        assert (tmp_path / "taken").read_text() == "a file\n"

    def test_checkpoint_that_overflows_on_the_suite_exits_2(self, tmp_path, capsys):
        params = init_params(MlpSpec((2, 6, 2), seed=4))
        params.weights[0][:] = 1e308  # finite, but x @ W0 is not
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(params, ckpt)
        manifest = tmp_path / "suite.json"
        write_manifest(manifest, kind="moons", n_per_class=10, angles=(0.0, 30.0))
        code = main(["diag", "--checkpoint", str(ckpt), "--suite", str(manifest),
                     "--out", str(tmp_path / "diag")])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "diag").exists()

    def test_unreadable_checkpoint_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "suite.json"
        write_manifest(manifest)
        assert main(["diag", "--checkpoint", str(tmp_path), "--suite", str(manifest)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        params = init_params(MlpSpec((3, 4, 2), seed=0))
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(params, ckpt)
        manifest = tmp_path / "suite.json"
        write_manifest(manifest, kind="moons", n_per_class=10, angles=(0.0, 30.0))
        assert main(["diag", "--checkpoint", str(ckpt), "--suite", str(manifest)]) == 2

    def test_class_count_mismatch_exits_2(self, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(init_params(MlpSpec((2, 6, 2), seed=0)), ckpt)
        manifest = tmp_path / "suite.json"
        write_manifest(manifest, kind="gaussians", n_per_class=10, angles=(0.0, 30.0),
                       class_count=4)
        code = main(["diag", "--checkpoint", str(ckpt), "--suite", str(manifest),
                     "--out", str(tmp_path / "diag")])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "diag").exists()

    @pytest.mark.parametrize("text", ["5", "null", '{"angles": []}', '{"angles": [0, 30]',
                                      '{"prior_shift": [["a", 1], [1, 0]], "angles": [0, 30]}'],
                             ids=["number", "null", "no-angles", "invalid-json", "prior-shift-string"])
    def test_malformed_manifest_exits_2(self, tmp_path, capsys, text):
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(init_params(MlpSpec((2, 6, 2), seed=4)), ckpt)
        manifest = tmp_path / "suite.json"
        manifest.write_text(text)
        code = main(["diag", "--checkpoint", str(ckpt), "--suite", str(manifest),
                     "--out", str(tmp_path / "diag")])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "diag").exists()

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(init_params(MlpSpec((2, 6, 2), seed=4)), ckpt)
        assert main(["diag", "--checkpoint", str(ckpt), "--suite", str(tmp_path / "no.json")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--probe-size", "-1"], ["--probe-size", "0"],
                                      ["--seed", "-1"], ["--bandwidth", "nan"],
                                      ["--bandwidth", "0"], ["--bandwidth", "-1"],
                                      ["--bandwidth", "1e-160"], ["--bandwidth", "1e-300"]],
                             ids=["probe-size-negative", "probe-size-zero", "seed-negative",
                                  "bandwidth-nan", "bandwidth-zero", "bandwidth-negative",
                                  "bandwidth-1e-160", "bandwidth-1e-300"])
    def test_bad_flag_exits_2(self, tmp_path, capsys, flag):
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(init_params(MlpSpec((2, 6, 2), seed=4)), ckpt)
        manifest = tmp_path / "suite.json"
        write_manifest(manifest, kind="moons", n_per_class=10, angles=(0.0, 30.0))
        code = main(["diag", "--checkpoint", str(ckpt), "--suite", str(manifest),
                     "--out", str(tmp_path / "diag"), *flag])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "diag").exists()

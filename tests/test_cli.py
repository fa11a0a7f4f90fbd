import json

import numpy as np
import pytest

from hirnet.cli import main
from hirnet.data import SuiteSpec
from hirnet.harness import ExperimentConfig, OptimizerConfig
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


class TestRunCommand:
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

    @pytest.mark.parametrize("workers", ["abc", "2.5", "0", "-3"])
    def test_bad_worker_count_exits_2(self, tmp_path, capsys, monkeypatch, workers):
        monkeypatch.setenv("HIRNET_WORKERS", workers)
        cfg_path = write_config(tmp_path, small_config())
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
        assert "config error: HIRNET_WORKERS" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_all_runs_failed_exits_3(self, tmp_path, capsys):
        raw = small_config(optimizer=OptimizerConfig(lr=1e200).to_dict(), epochs=3)
        cfg_path = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 3
        report = json.loads((out / "report.json").read_text())
        assert all(r["failed"] for r in report["runs"])


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


class TestDiagCommand:
    def test_emits_three_files(self, tmp_path):
        params = init_params(MlpSpec((2, 6, 2), seed=4))
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(params, ckpt)
        manifest = tmp_path / "suite.json"
        SuiteSpec(kind="moons", n_per_class=20, angles=(0.0, 30.0),
                                noise_sd=0.05, seed=2).write(manifest)
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

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "suite.json"
        SuiteSpec().write(manifest)
        assert main(["diag", "--checkpoint", str(tmp_path / "none.ckpt"),
                     "--suite", str(manifest)]) == 2

    def test_foreign_checkpoint_exits_2(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.ckpt"
        bogus.write_text("not a checkpoint\n")
        manifest = tmp_path / "suite.json"
        SuiteSpec().write(manifest)
        assert main(["diag", "--checkpoint", str(bogus), "--suite", str(manifest)]) == 2

    @pytest.mark.parametrize("damage", ["truncate", "garble"])
    def test_damaged_checkpoint_exits_2(self, tmp_path, capsys, damage):
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(init_params(MlpSpec((2, 6, 2), seed=4)), ckpt)
        lines = ckpt.read_text().splitlines()
        if damage == "truncate":
            lines = lines[:4]
        else:
            lines[3] = "0.25 not-a-number " + lines[3]
        ckpt.write_text("\n".join(lines) + "\n")
        manifest = tmp_path / "suite.json"
        SuiteSpec(kind="moons", n_per_class=10, angles=(0.0, 30.0)).write(manifest)
        code = main(["diag", "--checkpoint", str(ckpt), "--suite", str(manifest),
                     "--out", str(tmp_path / "diag")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        params = init_params(MlpSpec((3, 4, 2), seed=0))
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(params, ckpt)
        manifest = tmp_path / "suite.json"
        SuiteSpec(kind="moons", n_per_class=10, angles=(0.0, 30.0)).write(manifest)
        assert main(["diag", "--checkpoint", str(ckpt), "--suite", str(manifest)]) == 2

    def test_class_count_mismatch_exits_2(self, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(init_params(MlpSpec((2, 6, 2), seed=0)), ckpt)
        manifest = tmp_path / "suite.json"
        SuiteSpec(kind="gaussians", n_per_class=10, angles=(0.0, 30.0), class_count=4).write(manifest)
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
        SuiteSpec(kind="moons", n_per_class=10, angles=(0.0, 30.0)).write(manifest)
        code = main(["diag", "--checkpoint", str(ckpt), "--suite", str(manifest),
                     "--out", str(tmp_path / "diag"), *flag])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "diag").exists()

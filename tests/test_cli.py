import json
import os

import numpy as np
import pytest

from cusm.cli import main
from cusm.hamgen import init_full_model, save_model


def run(argv, tmp_path, monkeypatch):
    monkeypatch.setenv("CUSM_OUTPUT_DIR", str(tmp_path))
    return main(argv)


class TestGenTask:
    def test_writes_task_and_certificate(self, tmp_path, monkeypatch):
        code = run(["gen-task", "--n", "2", "--seed", "0"], tmp_path, monkeypatch)
        assert code == 0
        task = json.loads((tmp_path / "task_n2_seed0.json").read_text())
        cert = json.loads((tmp_path / "task_n2_seed0.certificate.json").read_text())
        assert task["schema_version"] == 1
        assert cert["certificate_rank"] == 4
        assert cert["rank_P"] == 4
        assert cert["general_position"] is True
        assert cert["version"]
        assert cert["tolerances"]["rank_tolerance"] == 1e-10

    def test_reference_determinant(self, tmp_path, monkeypatch):
        code = run(["gen-task", "--n", "2", "--reference"], tmp_path, monkeypatch)
        assert code == 0
        cert = json.loads((tmp_path / "task_n2_seed0.certificate.json").read_text())
        assert abs(cert["det"] - (-0.25)) < 1e-12

    def test_bad_size_is_usage_error(self, tmp_path, monkeypatch, capsys):
        code = run(["gen-task", "--n", "0"], tmp_path, monkeypatch)
        assert code == 2
        assert "must be >= 2" in capsys.readouterr().err


class TestVerifySeparation:
    def test_report_contents(self, tmp_path, monkeypatch):
        code = run(["verify-separation", "--n", "2", "--seed", "1", "--audits", "10"],
                   tmp_path, monkeypatch)
        assert code == 0
        report = json.loads((tmp_path / "separation_n2_seed1.json").read_text())
        assert report["cusm_max_error"] < 1e-10
        assert report["rank_P"] == 4
        assert report["rosm_audit_violations"] == 0
        assert len(report["rosm_audits"]) == 10
        assert abs(report["exact_cusm_gap"]) < 1e-10

    def test_accepts_saved_task(self, tmp_path, monkeypatch):
        assert run(["gen-task", "--n", "2", "--seed", "3"], tmp_path, monkeypatch) == 0
        code = run(["verify-separation", "--task", str(tmp_path / "task_n2_seed3.json"),
                    "--audits", "5"], tmp_path, monkeypatch)
        assert code == 0

    def test_rosm_training_sweep(self, tmp_path, monkeypatch):
        code = run(["verify-separation", "--n", "2", "--seed", "2", "--audits", "3",
                    "--rosm-dims", "1", "--epochs", "60", "--seeds", "1"],
                   tmp_path, monkeypatch)
        assert code == 0
        report = json.loads((tmp_path / "separation_n2_seed2.json").read_text())
        sweep = report["rosm_gap_sweep"]
        assert sweep[0]["d"] == 1
        assert sweep[0]["best_gap"] > 0


class TestSimulate:
    def test_task_mode_diagnostics(self, tmp_path, monkeypatch):
        code = run(["simulate", "--mode", "task", "--n", "2", "--seed", "0",
                    "--tokens", "0,2,2,3"], tmp_path, monkeypatch)
        assert code == 0
        lines = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == "step,token,norm,total_current,balance_residual"
        assert len(lines) == 5
        for line in lines[1:]:
            _, _, norm, _, balance = line.split(",")
            assert abs(float(norm) - 1.0) < 1e-10
            assert abs(float(balance)) < 1e-11
        report = json.loads((tmp_path / "trajectory.json").read_text())
        assert report["steps"] == 4
        assert report["max_balance_residual"] < 1e-11

    def test_filler_only_has_zero_current(self, tmp_path, monkeypatch):
        # the separation construction keeps the filler transition trivial
        code = run(["simulate", "--mode", "task", "--n", "2", "--seed", "0",
                    "--tokens", "2,2,2"], tmp_path, monkeypatch)
        assert code == 0
        lines = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
        for line in lines[1:]:
            total = float(line.split(",")[3])
            assert abs(total) < 1e-13

    def test_full_mode(self, tmp_path, monkeypatch):
        code = run(["simulate", "--mode", "full", "--n", "6", "--r", "2", "--d", "3",
                    "--v", "6", "--seed", "4", "--tokens", "0,1,2,1"], tmp_path, monkeypatch)
        assert code == 0
        report = json.loads((tmp_path / "trajectory.json").read_text())
        assert report["max_norm_deviation"] < 1e-10

    def test_missing_tokens_is_usage_error(self, tmp_path, monkeypatch):
        code = run(["simulate", "--mode", "task", "--n", "2"], tmp_path, monkeypatch)
        assert code == 2

    def test_negative_token_is_usage_error(self, tmp_path, monkeypatch, capsys):
        code = run(["simulate", "--mode", "full", "--tokens", "0,-1"], tmp_path, monkeypatch)
        assert code == 2
        assert "-1" in capsys.readouterr().err

    def test_token_outside_checkpoint_vocabulary_is_usage_error(self, tmp_path, monkeypatch,
                                                                capsys):
        path = str(tmp_path / "model.json")
        save_model(init_full_model(n=2, r=1, d=2, v=4, v_in=3, seed=0), path)
        code = run(["simulate", "--mode", "full", "--checkpoint", path, "--tokens", "0,3"],
                   tmp_path, monkeypatch)
        assert code == 2
        assert "error: token id 3 outside" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["task", "full"])
    def test_empty_token_list_is_usage_error(self, mode, tmp_path, monkeypatch, capsys):
        code = run(["simulate", "--mode", mode, "--tokens", ","], tmp_path, monkeypatch)
        assert code == 2
        assert "empty" in capsys.readouterr().err

    def test_unknown_task_token_is_usage_error(self, tmp_path, monkeypatch):
        # the n=2 task has tokens 0..4
        code = run(["simulate", "--mode", "task", "--n", "2", "--tokens", "0,7"],
                   tmp_path, monkeypatch)
        assert code == 2


class TestTrain:
    def test_reports_and_aggregate(self, tmp_path, monkeypatch):
        code = run(["train", "--n", "2", "--seed", "0", "--model-kind", "rosm",
                    "--dim", "1", "--seeds", "2", "--epochs", "40", "--ablation"],
                   tmp_path, monkeypatch)
        assert code == 0
        for seed in (0, 1):
            rep = json.loads((tmp_path / f"train_rosm_seed{seed}.json").read_text())
            assert rep["model_kind"] == "rosm"
            assert np.isfinite(rep["final_nll"])
            assert rep["extra"]["softmax_rank_audit"]["satisfied"]
            trace = (tmp_path / f"train_rosm_seed{seed}_trace.csv").read_text()
            assert trace.splitlines()[0] == "epoch,mean_nll,gap"
        agg = json.loads((tmp_path / "train_rosm_aggregate.json").read_text())
        assert agg["seeds"] == [0, 1]
        assert "gap_mean" in agg and "gap_std" in agg and "gap_best" in agg
        assert agg["ablation"]["nll_diagonal"] >= agg["ablation"]["nll_born"]

    def test_rerun_is_byte_identical(self, tmp_path, monkeypatch):
        argv = ["train", "--n", "2", "--seed", "0", "--model-kind", "cusm-trainable",
                "--seeds", "1", "--epochs", "20", "--early-stop-gap", "0"]
        assert run(argv, tmp_path / "a", monkeypatch) == 0
        assert run(argv, tmp_path / "b", monkeypatch) == 0
        trace = "train_cusm-trainable_seed0_trace.csv"
        assert (tmp_path / "a" / trace).read_bytes() == (tmp_path / "b" / trace).read_bytes()

        def normalize(doc):
            # drop fields that legitimately vary between reruns
            doc.pop("wall_clock", None)
            doc.pop("reports", None)
            return doc

        for name in ("train_cusm-trainable_seed0.json",
                     "train_cusm-trainable_aggregate.json"):
            first = normalize(json.loads((tmp_path / "a" / name).read_text()))
            second = normalize(json.loads((tmp_path / "b" / name).read_text()))
            assert first == second

    def test_ill_conditioned_full_training_is_numerical_failure(self, tmp_path, monkeypatch,
                                                                 capsys):
        # cond(Gram) <= (1 + dt |Phi|^2 / 2)^2, so only a huge Phi can fail the
        # check, and only at rank >= 2: a 1 x 1 Gram matrix has condition 1
        from cusm import train
        real_init = train.init_full_model

        def blown_up(**dims):
            model = real_init(**{**dims, "r": 2})
            model.mlp.biases[-1][: 2 * model.n] = 1e7   # column 0 of Phi
            return model

        monkeypatch.setattr(train, "init_full_model", blown_up)
        code = run(["train", "--n", "2", "--model-kind", "full", "--seeds", "1",
                    "--epochs", "2"], tmp_path, monkeypatch)
        assert code == 3
        assert "at step 0" in capsys.readouterr().err

    def test_rosm_without_dim_is_usage_error(self, tmp_path, monkeypatch):
        code = run(["train", "--n", "2", "--model-kind", "rosm", "--seeds", "1",
                    "--epochs", "5"], tmp_path, monkeypatch)
        assert code == 2


    @pytest.mark.parametrize("command", ["train", "verify-separation"])
    def test_task_size_one_is_usage_error(self, command, tmp_path, monkeypatch, capsys):
        code = run([command, "--n", "1"], tmp_path, monkeypatch)
        assert code == 2
        assert "must be >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["rosm", "cusm-trainable"])
    def test_dimension_below_one_is_usage_error(self, kind, tmp_path, monkeypatch, capsys):
        code = run(["train", "--n", "2", "--model-kind", kind, "--dim", "0", "--seeds", "1",
                    "--epochs", "5"], tmp_path, monkeypatch)
        assert code == 2
        assert "dimension must be >= 1" in capsys.readouterr().err


class TestLoadErrors:
    def _task_file(self, tmp_path, monkeypatch):
        assert run(["gen-task", "--n", "2"], tmp_path, monkeypatch) == 0
        return tmp_path / "task_n2_seed0.json"

    def _model_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        save_model(init_full_model(n=2, r=1, d=2, v=4, v_in=3, seed=0), str(path))
        return path

    def _command(self, kind, path):
        if kind == "task":
            return ["verify-separation", "--task", str(path), "--audits", "1"]
        return ["simulate", "--mode", "full", "--checkpoint", str(path), "--tokens", "0,1"]

    @pytest.mark.parametrize("kind", ["task", "model"])
    def test_missing_field(self, kind, tmp_path, monkeypatch, capsys):
        path = getattr(self, f"_{kind}_file")(tmp_path, monkeypatch)
        doc = json.loads(path.read_text())
        field = "measurement" if kind == "task" else "meas_raw"
        del doc[field]
        path.write_text(json.dumps(doc))
        assert run(self._command(kind, path), tmp_path, monkeypatch) == 2
        assert f"missing field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["task", "model"])
    def test_other_schema_version(self, kind, tmp_path, monkeypatch, capsys):
        path = getattr(self, f"_{kind}_file")(tmp_path, monkeypatch)
        doc = json.loads(path.read_text())
        doc["schema_version"] = 7
        path.write_text(json.dumps(doc))
        assert run(self._command(kind, path), tmp_path, monkeypatch) == 2
        assert "schema_version 7" in capsys.readouterr().err


class TestBench:
    def test_grid_complete(self, tmp_path, monkeypatch):
        code = run(["bench", "--sizes", "16,32", "--ranks", "2", "--batch", "4",
                    "--repeats", "2"], tmp_path, monkeypatch)
        assert code == 0
        report = json.loads((tmp_path / "bench.json").read_text())
        grid = report["grid"]
        assert [(e["n"], e["r"]) for e in grid] == [(16, 2), (32, 2)]
        for entry in grid:
            assert entry["woodbury_s"] > 0
            assert entry["dense_s"] > 0


class TestConfigFile:
    def test_defaults_from_config_with_flag_override(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "n": 3, "seed": 5}))
        code = run(["gen-task", "--config", str(cfg), "--seed", "7"],
                   tmp_path, monkeypatch)
        assert code == 0
        # n came from the config, seed from the explicit flag
        assert (tmp_path / "task_n3_seed7.json").exists()

    def test_bad_schema_version(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 99, "n": 2}))
        code = run(["gen-task", "--config", str(cfg)], tmp_path, monkeypatch)
        assert code == 2
        assert "schema_version" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "epoch": 3}))
        code = run(["train", "--config", str(cfg)], tmp_path, monkeypatch)
        assert code == 2
        assert "'epoch'" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, monkeypatch):
        code = run(["gen-task", "--config", str(tmp_path / "nope.json")],
                   tmp_path, monkeypatch)
        assert code == 2

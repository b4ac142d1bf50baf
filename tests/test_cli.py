import json
import os

import numpy as np
import pytest

from cusm import hamgen, septask
from cusm.cli import main
from cusm.currents import midpoint_current, total_current
from cusm.dynamics import InteractionFactors, evolve_full_model
from cusm.hamgen import init_full_model, save_model


def run(argv, tmp_path, monkeypatch):
    monkeypatch.setenv("CUSM_OUTPUT_DIR", str(tmp_path))
    return main(argv)


def saved_checkpoint(tmp_path) -> str:
    """A full model saved at N=8, r=2, dt=0.25; returns its path."""
    path = str(tmp_path / "model.json")
    save_model(init_full_model(n=8, r=2, d=3, v=9, v_in=5, dt=0.25, seed=1), path)
    return path


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

    def test_audits_run_stacked_per_dimension(self, tmp_path, monkeypatch):
        assert run(["gen-task", "--n", "3", "--seed", "4"], tmp_path, monkeypatch) == 0
        evolves, svd_shapes = [], []
        evolve, svd = septask.evolve_fixed_batch, np.linalg.svd

        def counting_evolve(*args):
            evolves.append(args[0].shape)
            return evolve(*args)

        def counting_svd(a, *args, **kwargs):
            svd_shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(septask, "evolve_fixed_batch", counting_evolve)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        code = run(["verify-separation", "--task", str(tmp_path / "task_n3_seed4.json"),
                    "--audits", "50", "--seed", "4"], tmp_path, monkeypatch)
        assert code == 0
        audits = json.loads((tmp_path / "separation_n3_seed4.json").read_text())["rosm_audits"]
        dims = {audit["d"] for audit in audits}
        assert len(audits) == 50 and len(dims) > 1
        # one forward pass and one stacked SVD per d; the two other SVDs are
        # the ranks of P* and L*
        assert len(evolves) == len(dims)
        assert sum(shape[0] for shape in evolves) == 50
        assert len(svd_shapes) == len(dims) + 2
        assert sum(len(shape) == 3 for shape in svd_shapes) == len(dims)

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

    def test_full_mode_matches_dense_currents(self, tmp_path, monkeypatch):
        tokens = [0, 1, 2, 1, 3, 0, 2, 2, 1, 0, 3, 3]
        code = run(["simulate", "--mode", "full", "--n", "7", "--r", "3", "--d", "3",
                    "--v", "7", "--dt", "0.5", "--seed", "11",
                    "--tokens", ",".join(map(str, tokens))], tmp_path, monkeypatch)
        assert code == 0
        report = json.loads((tmp_path / "trajectory.json").read_text())
        assert report["max_balance_residual"] <= 1e-11
        lines = (tmp_path / "trajectory.csv").read_text().strip().splitlines()[1:]
        assert len(lines) == len(tokens)
        model = init_full_model(n=7, r=3, d=3, v=7, v_in=4, dt=0.5, seed=11)
        states, factors, _ = evolve_full_model(model, tokens)
        for t, line in enumerate(lines):
            _, _, _, total, balance = (float(x) for x in line.split(","))
            pre, post = states[t], states[t + 1]
            j = midpoint_current(factors[t].materialize(), pre, post)
            dp = np.abs(post) ** 2 - np.abs(pre) ** 2
            assert abs(total - total_current(j)) <= 1e-13 * total_current(j)
            # both residuals are rounding noise of dp - dt J 1, so they agree
            # to the size of the terms they difference
            oracle = np.abs(dp - 0.5 * j.sum(axis=1)).max()
            assert abs(balance - oracle) <= 1e-13 * np.abs(dp).max()

    @pytest.mark.parametrize("checkpoint", [False, True])
    def test_full_mode_reports_the_model_that_ran(self, checkpoint, tmp_path, monkeypatch):
        argv = ["simulate", "--mode", "full", "--tokens", "0,1,2"]
        if checkpoint:
            path = str(tmp_path / "model.json")
            save_model(init_full_model(n=8, r=2, d=3, v=9, v_in=5, dt=0.25, seed=1), path)
            argv += ["--checkpoint", path]
            want = {"n": 8, "r": 2, "d": 3, "v": 9, "v_in": 5, "dt": 0.25}
        else:
            argv += ["--n", "3", "--r", "2", "--d", "2", "--v", "4", "--dt", "0.5"]
            want = {"n": 3, "r": 2, "d": 2, "v": 4, "v_in": 3, "dt": 0.5}
        assert run(argv, tmp_path, monkeypatch) == 0
        report = json.loads((tmp_path / "trajectory.json").read_text())
        assert report["model"] == want

    @pytest.mark.parametrize("flag, value", [("--n", "8"), ("--r", "2"), ("--d", "1"),
                                             ("--v", "9"), ("--dt", "0.5")])
    def test_checkpoint_rejects_model_flags(self, flag, value, tmp_path, monkeypatch, capsys):
        path = saved_checkpoint(tmp_path)
        out = tmp_path / "out"
        code = main(["simulate", "--mode", "full", "--tokens", "0,1,2", "--checkpoint",
                     path, flag, value, "--output-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and flag in err[0]
        assert not out.exists()

    def test_checkpoint_rejects_model_keys_of_a_config(self, tmp_path, monkeypatch, capsys):
        path = saved_checkpoint(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "dt": 0.5}))
        code = run(["simulate", "--mode", "full", "--tokens", "0,1", "--checkpoint", path,
                    "--config", str(cfg)], tmp_path, monkeypatch)
        assert code == 2
        assert "--dt" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "model.json"]

    def test_checkpoint_config_echoes_no_model_flag(self, tmp_path, monkeypatch):
        path = saved_checkpoint(tmp_path)
        assert run(["simulate", "--mode", "full", "--tokens", "0,1", "--checkpoint", path],
                   tmp_path, monkeypatch) == 0
        report = json.loads((tmp_path / "trajectory.json").read_text())
        assert not {"n", "r", "d", "v", "dt"} & set(report["config"])
        assert report["model"]["dt"] == 0.25

    def test_defaults_are_echoed_without_a_checkpoint(self, tmp_path, monkeypatch):
        assert run(["simulate", "--mode", "full", "--tokens", "0,1"], tmp_path, monkeypatch) == 0
        config = json.loads((tmp_path / "trajectory.json").read_text())["config"]
        assert {key: config[key] for key in ("n", "r", "d", "v", "dt")} == \
            {"n": 2, "r": 1, "d": 4, "v": 4, "dt": 1.0}

    def test_overflowing_step_has_no_traceback(self, tmp_path, monkeypatch, capsys):
        code = run(["simulate", "--mode", "full", "--tokens", "0,1,0", "--dt", "1e300"],
                   tmp_path, monkeypatch)
        assert code in (0, 3)
        assert "Traceback" not in capsys.readouterr().err

    def test_complex_delta_is_invariant_violation(self, tmp_path, monkeypatch, capsys):
        split = hamgen.split_factor_output

        def complex_delta(out, n, r):
            factors = split(out, n, r)
            return InteractionFactors(factors.phi, factors.delta + 0j)

        monkeypatch.setattr(hamgen, "split_factor_output", complex_delta)
        code = run(["simulate", "--mode", "full", "--tokens", "0,1"], tmp_path, monkeypatch)
        assert code == 1
        assert "delta is not real" in capsys.readouterr().err

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

    def test_full_model_trains_at_dim(self, tmp_path, monkeypatch):
        code = run(["train", "--model-kind", "full", "--n", "2", "--dim", "3", "--seeds", "1",
                    "--epochs", "2"], tmp_path, monkeypatch)
        assert code == 0
        rep = json.loads((tmp_path / "train_full_seed0.json").read_text())
        assert rep["config"]["dim"] == 3
        assert rep["dim"] == 3

    @pytest.mark.parametrize("command", ["train", "verify-separation"])
    def test_task_size_one_is_usage_error(self, command, tmp_path, monkeypatch, capsys):
        code = run([command, "--n", "1"], tmp_path, monkeypatch)
        assert code == 2
        assert "must be >= 2" in capsys.readouterr().err


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

    @pytest.mark.parametrize("kind", ["task", "model"])
    def test_field_of_wrong_type(self, kind, tmp_path, monkeypatch, capsys):
        path = getattr(self, f"_{kind}_file")(tmp_path, monkeypatch)
        doc = json.loads(path.read_text())
        doc["n"] = "two"
        path.write_text(json.dumps(doc))
        assert run(self._command(kind, path), tmp_path, monkeypatch) == 2
        assert "field 'n' must be an integer, got 'two'" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, field", [
        ("task", "context_states"), ("task", "query_unitaries"), ("task", "measurement"),
        ("model", "init_a"), ("model", "embed"), ("model", "meas_raw"),
        ("model", "mlp_biases"),
    ])
    def test_array_of_wrong_shape(self, kind, field, tmp_path, monkeypatch, capsys):
        path = getattr(self, f"_{kind}_file")(tmp_path, monkeypatch)
        doc = json.loads(path.read_text())
        if field == "mlp_biases":
            doc[field][0] = doc[field][0][:-1]
        else:
            doc[field] = doc[field][:-1]
        path.write_text(json.dumps(doc))
        assert run(self._command(kind, path), tmp_path, monkeypatch) == 2
        assert "expected a numeric array of shape" in capsys.readouterr().err

    def test_mlp_that_does_not_chain(self, tmp_path, monkeypatch, capsys):
        path = self._model_file(tmp_path, monkeypatch)
        doc = json.loads(path.read_text())
        doc["r"] = 2
        path.write_text(json.dumps(doc))
        assert run(self._command("model", path), tmp_path, monkeypatch) == 2
        assert "last MLP layer has" in capsys.readouterr().err


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

    @pytest.mark.parametrize("key, value", [
        ("n", 2.5), ("n", "two"), ("n", True), ("n", [2]), ("reference", 1),
        ("model_kind", "bogus"),
    ])
    def test_value_of_wrong_type(self, key, value, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, key: value}))
        code = run(["gen-task", "--config", str(cfg)], tmp_path, monkeypatch)
        assert code == 2
        assert f"config key {key!r}: invalid value" in capsys.readouterr().err

    def test_values_go_through_the_option_type(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "n": "3", "task": None}))
        assert run(["gen-task", "--config", str(cfg)], tmp_path, monkeypatch) == 0
        assert (tmp_path / "task_n3_seed0.json").exists()

    def test_missing_config_file(self, tmp_path, monkeypatch):
        code = run(["gen-task", "--config", str(tmp_path / "nope.json")],
                   tmp_path, monkeypatch)
        assert code == 2


class TestFlagValues:
    """Each bad integer or out-of-range value of a flag exits 2 with a message,
    whether it comes from the command line or from a config file."""

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--tokens", "a,b"], "argument --tokens: invalid integer 'a'"),
        (["bench", "--sizes", "8,x"], "argument --sizes: invalid integer 'x'"),
        (["verify-separation", "--rosm-dims", "2,x"], "argument --rosm-dims: invalid integer 'x'"),
        (["bench", "--sizes", "0"], "argument --sizes: must be >= 1, got 0"),
        (["bench", "--ranks", "4,0"], "argument --ranks: must be >= 1, got 0"),
        (["bench", "--batch", "0"], "argument --batch: must be >= 1, got 0"),
        (["bench", "--dense-batch", "0"], "argument --dense-batch: must be >= 1, got 0"),
        (["bench", "--repeats", "0"], "argument --repeats: must be >= 1, got 0"),
        (["bench", "--dt", "-1"], "argument --dt: must be > 0, got -1.0"),
        (["simulate", "--tokens", "0", "--dt", "0"], "argument --dt: must be > 0, got 0.0"),
        (["gen-task", "--filler-length", "-1"], "argument --filler-length: must be >= 0, got -1"),
        (["verify-separation", "--audits", "-1"], "argument --audits: must be >= 0, got -1"),
        (["verify-separation", "--rosm-dims", "0"], "argument --rosm-dims: must be >= 1, got 0"),
        (["train", "--seeds", "0"], "argument --seeds: must be >= 1, got 0"),
        (["verify-separation", "--seeds", "0"], "argument --seeds: must be >= 1, got 0"),
        (["train", "--dim", "0"], "argument --dim: must be >= 1, got 0"),
        (["train", "--epochs", "0"], "argument --epochs: must be >= 1, got 0"),
        (["verify-separation", "--epochs", "-3"], "argument --epochs: must be >= 1, got -3"),
        (["train", "--lr", "-1"], "argument --lr: must be > 0, got -1.0"),
        (["train", "--early-stop-gap", "-1"], "argument --early-stop-gap: must be >= 0.0, got -1.0"),
        (["train", "--early-stop-gap", "nan"], "argument --early-stop-gap: must be >= 0.0, got nan"),
        (["simulate", "--r", "0"], "argument --r: must be >= 1, got 0"),
        (["simulate", "--d", "0"], "argument --d: must be >= 1, got 0"),
        (["simulate", "--v", "0"], "argument --v: must be >= 1, got 0"),
        (["simulate", "--n", "0"], "argument --n: must be >= 1, got 0"),
        (["simulate", "--n", "1", "--tokens", "0"], "--n must be >= 2 in task mode, got 1"),
        (["simulate", "--mode", "full", "--tokens", "0,1", "--dt", "inf"],
         "argument --dt: must be finite, got inf"),
        (["train", "--model-kind", "full", "--lr", "inf"], "argument --lr: must be finite, got inf"),
    ])
    def test_bad_flag_value_is_usage_error(self, argv, message, tmp_path, monkeypatch, capsys):
        assert run(argv, tmp_path, monkeypatch) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("content", [["x"], {"a": 1}, [1.7, 2], [True], "0,1"])
    def test_token_file_of_non_integers_is_usage_error(self, content, tmp_path, monkeypatch,
                                                       capsys):
        path = tmp_path / "tokens.json"
        path.write_text(json.dumps(content))
        code = run(["simulate", "--tokens-file", str(path)], tmp_path, monkeypatch)
        assert code == 2
        assert "does not hold a JSON array of integers" in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [([], "the list is empty"),
                                                  ([0, -2], "must be >= 0, got -2")])
    def test_token_file_out_of_range_is_usage_error(self, content, message, tmp_path,
                                                    monkeypatch, capsys):
        path = tmp_path / "tokens.json"
        path.write_text(json.dumps(content))
        code = run(["simulate", "--tokens-file", str(path)], tmp_path, monkeypatch)
        assert code == 2
        assert message in capsys.readouterr().err

    def test_token_file_of_integers_runs(self, tmp_path, monkeypatch):
        path = tmp_path / "tokens.json"
        path.write_text(json.dumps([0, 2, 2, 3]))
        assert run(["simulate", "--tokens-file", str(path)], tmp_path, monkeypatch) == 0
        report = json.loads((tmp_path / "trajectory.json").read_text())
        assert report["steps"] == 4

    @pytest.mark.parametrize("key, value", [("sizes", "8,x"), ("sizes", 0), ("batch", 0),
                                            ("dt", 0), ("ranks", ""), ("dt", float("inf")),
                                            ("lr", float("inf"))])
    def test_bad_config_value_is_usage_error(self, key, value, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, key: value}))
        code = run(["bench", "--config", str(cfg)], tmp_path, monkeypatch)
        assert code == 2
        assert f"config key {key!r}: invalid value" in capsys.readouterr().err

    def test_config_list_goes_through_the_option_type(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "sizes": "8, 16", "ranks": 2,
                                   "batch": 2, "repeats": 1}))
        assert run(["bench", "--config", str(cfg)], tmp_path, monkeypatch) == 0
        grid = json.loads((tmp_path / "bench.json").read_text())["grid"]
        assert [(e["n"], e["r"]) for e in grid] == [(8, 2), (16, 2)]

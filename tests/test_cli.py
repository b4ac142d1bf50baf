import dataclasses
import json
import os
import re
import warnings

import numpy as np
import pytest
from test_properties import blown_up_model

from cusm import cli, septask
from cusm.cli import TOLERANCES, main
from cusm.currents import midpoint_current, total_current
from cusm.dynamics import evolve_full_model
from cusm.hamgen import init_full_model, save_model
from cusm.train import MODEL_KINDS, OptimizerConfig


# the keys of every report's envelope, and those that failure.json adds to it
ENVELOPE = {"schema_version", "version", "seed", "config", "tolerances"}
FAILURE = {"exception", "message", "step", "gram_condition", "residual", "norm_change"}


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

    def test_reference_of_another_size_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["gen-task", "--reference", "--n", "3", "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == "error: the reference witness is defined for n = 2 only\n"
        assert not out.exists()

    def test_failed_rename_leaves_no_temporary_file(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "task_n2_seed0.json").mkdir()
        assert run(["gen-task", "--n", "2"], tmp_path, monkeypatch) == 2
        assert "Is a directory" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir() if ".tmp." in p.name] == []

    def test_rank_deficient_table_is_invariant_violation(self, tmp_path, monkeypatch):
        ranks = cli.check_separation_ranks
        monkeypatch.setattr(cli, "check_separation_ranks",
                            lambda table, n: {**ranks(table, n), "rank_P": n * n - 1})
        assert run(["gen-task", "--n", "2"], tmp_path, monkeypatch) == 1
        cert = json.loads((tmp_path / "task_n2_seed0.certificate.json").read_text())
        assert cert["rank_P"] == 3
        assert (tmp_path / "task_n2_seed0.json").exists()


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

    def test_exact_model_is_evaluated_once(self, tmp_path, monkeypatch):
        # one build, one forward pass and one target table give both the
        # reproduction error and the gap
        from cusm import cli, train
        calls = []

        def counting(name, real):
            def wrapper(*args):
                calls.append(name)
                return real(*args)
            return wrapper

        for module in (cli, train):
            for name in ("build_exact_cusm", "target_table", "evolve_fixed_batch"):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        assert run(["verify-separation", "--n", "2", "--audits", "3"], tmp_path, monkeypatch) == 0
        assert sorted(calls) == ["build_exact_cusm", "evolve_fixed_batch", "target_table"]

    def test_ablation_is_the_one_train_reports(self, tmp_path, monkeypatch):
        # both commands report the one evaluation of the task's exact model
        assert run(["gen-task", "--n", "3", "--seed", "2"], tmp_path, monkeypatch) == 0
        task = str(tmp_path / "task_n3_seed2.json")
        assert run(["verify-separation", "--task", task, "--audits", "2"],
                   tmp_path, monkeypatch) == 0
        assert run(["train", "--task", task, "--seeds", "1", "--epochs", "1", "--ablation"],
                   tmp_path, monkeypatch) == 0
        report = json.loads((tmp_path / "separation_n3_seed2.json").read_text())
        aggregate = json.loads((tmp_path / "train_cusm-trainable_aggregate.json").read_text())
        assert report["ablation"] == aggregate["ablation"]
        nll_born = report["ablation"]["nll_born"]
        assert report["exact_cusm_gap"] == nll_born - report["entropy_floor"]

    def test_exact_model_miss_is_invariant_violation(self, tmp_path, monkeypatch):
        exact = cli.exact_cusm_report
        monkeypatch.setattr(cli, "exact_cusm_report",
                            lambda *args: {**exact(*args), "cusm_max_error": 1.0})
        assert run(["verify-separation", "--n", "2", "--audits", "3"], tmp_path, monkeypatch) == 1
        report = json.loads((tmp_path / "separation_n2_seed0.json").read_text())
        assert report["cusm_max_error"] == 1.0

    def test_broken_rank_bound_is_invariant_violation(self, tmp_path, monkeypatch):
        audit = cli.softmax_rank_audits

        def one_unsatisfied(rosms, task):
            audits = audit(rosms, task)
            return [{**audits[0], "satisfied": False}, *audits[1:]]

        monkeypatch.setattr(cli, "softmax_rank_audits", one_unsatisfied)
        assert run(["verify-separation", "--n", "2", "--audits", "3"], tmp_path, monkeypatch) == 1
        report = json.loads((tmp_path / "separation_n2_seed0.json").read_text())
        assert report["rosm_audit_violations"] == 1


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

    def test_witness_token_without_cayley_generator(self, tmp_path, monkeypatch, capsys):
        # W1 of the reference witness has the eigenvalue -1
        assert run(["gen-task", "--reference"], tmp_path, monkeypatch) == 0
        task = str(tmp_path / "task_n2_seed0.json")
        capsys.readouterr()
        code = run(["simulate", "--task", task, "--tokens", "0,2,4,3,4"], tmp_path, monkeypatch)
        assert code == 1
        assert capsys.readouterr().err == ("invariant violation: token 4: its unitary has an "
                                           "eigenvalue at -1, so it has no Cayley generator\n")
        assert not (tmp_path / "trajectory.csv").exists()
        assert not (tmp_path / "trajectory.json").exists()
        assert run(["simulate", "--task", task, "--tokens", "0,2,3"], tmp_path, monkeypatch) == 0

    def test_tiny_dt_is_numerical_failure(self, tmp_path, monkeypatch, capsys):
        # -2i/dt overflows, so the recovered generators are not finite
        argv = ["simulate", "--mode", "task", "--n", "2", "--tokens", "0,2,3", "--dt"]
        assert run(argv + ["1e-308"], tmp_path, monkeypatch) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure: ")
        assert [p.name for p in tmp_path.iterdir()] == ["failure.json"]
        assert run(argv + ["1e-300"], tmp_path, monkeypatch) == 0

    @pytest.mark.parametrize("mode", ["task", "full"])
    def test_balance_above_tolerance_is_invariant_violation(self, mode, tmp_path, monkeypatch):
        balance = cli.continuity_balance

        def off_balance(states, dt, row_sums):
            norms, residuals = balance(states, dt, row_sums)
            return norms, residuals + 2.0 * TOLERANCES["balance_tolerance"]

        monkeypatch.setattr(cli, "continuity_balance", off_balance)
        code = run(["simulate", "--mode", mode, "--tokens", "0,2,3"], tmp_path, monkeypatch)
        assert code == 1
        report = json.loads((tmp_path / "trajectory.json").read_text())
        assert report["max_balance_residual"] > TOLERANCES["balance_tolerance"]
        assert len((tmp_path / "trajectory.csv").read_text().splitlines()) == 4

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
            total, balance = (float(x) for x in line.split(",")[3:5])
            pre, post = states[t], states[t + 1]
            j = midpoint_current(factors[t].materialize(), pre, post)
            dp = np.abs(post) ** 2 - np.abs(pre) ** 2
            assert abs(total - total_current(j)) <= 1e-13 * total_current(j)
            # both residuals are rounding noise of dp - dt J 1, so they agree
            # to the size of the terms they difference
            oracle = np.abs(dp - 0.5 * j.sum(axis=1)).max()
            assert abs(balance - oracle) <= 1e-13 * np.abs(dp).max()

    def test_full_mode_writes_each_steps_checks(self, tmp_path, monkeypatch):
        # the residual, norm change and Gram condition of evolve_full_model's report follow
        # the five columns that task mode writes alone
        tokens = [2, 0, 1, 1, 3, 0, 2]
        assert run(["simulate", "--mode", "full", "--n", "5", "--r", "2", "--d", "3", "--v", "6",
                    "--dt", "0.5", "--seed", "3", "--tokens", ",".join(map(str, tokens))],
                   tmp_path, monkeypatch) == 0
        header, *lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        names = ["gram_condition", "residual", "norm_change"]
        assert header.split(",") == ["step", "token", "norm", "total_current",
                                     "balance_residual", *names]
        checks = evolve_full_model(init_full_model(n=5, r=2, d=3, v=6, v_in=4, dt=0.5, seed=3),
                                   tokens)[2]
        columns = list(zip(*(line.split(",")[5:] for line in lines)))
        assert columns == [tuple(f"{x:.15e}" for x in getattr(checks, name)) for name in names]
        task_dir = tmp_path / "task"
        assert run(["simulate", "--mode", "task", "--n", "2", "--tokens", "0,2,2,1"], task_dir,
                   monkeypatch) == 0
        assert (task_dir / "trajectory.csv").read_text().splitlines()[0] == (
            "step,token,norm,total_current,balance_residual")

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

    @pytest.mark.parametrize("mode, flag, value", [
        ("task", "--checkpoint", "/nonexistent/model.json"), ("task", "--r", "5"),
        ("task", "--d", "3"), ("task", "--v", "4"), ("full", "--task", "/nonexistent/task.json"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_flag_of_the_other_mode_is_usage_error(self, mode, flag, value, source, tmp_path,
                                                   monkeypatch, capsys):
        argv = ["simulate", "--mode", mode, "--n", "2", "--tokens", "0,2,3"]
        if source == "flag":
            argv += [flag, value]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"schema_version": 1, flag[2:]: value}))
            argv += ["--config", str(cfg)]
        out = tmp_path / "out"
        assert main(argv + ["--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {flag} does not apply in {mode} mode\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag, value, reason", [
        (["simulate", "--mode", "full", "--tokens", "0,1", "--checkpoint"], "--dt", "0.5",
         "with --checkpoint, whose model fixes it"),
        (["simulate", "--mode", "full", "--tokens", "0,1", "--checkpoint"], "--r", "2",
         "with --checkpoint, whose model fixes it"),
        (["simulate", "--mode", "full", "--tokens", "0,1", "--checkpoint"], "--seed", "1",
         "with --checkpoint, whose model fixes it"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_flag_that_the_run_does_not_read_is_usage_error(self, argv, flag, value, reason,
                                                            source, tmp_path, capsys):
        if argv[-1] == "--checkpoint":
            argv = argv + [saved_checkpoint(tmp_path)]
        if source == "flag":
            argv = argv + [flag, value]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"schema_version": 1, flag[2:]: value}))
            argv = argv + ["--config", str(cfg)]
        out = tmp_path / "out"
        assert main(argv + ["--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {flag} does not apply {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("source, seed", [("task", 5), ("checkpoint", 1)])
    def test_report_seed_is_the_seed_of_what_ran(self, source, seed, tmp_path, monkeypatch):
        if source == "task":
            assert run(["gen-task", "--seed", "5"], tmp_path, monkeypatch) == 0
            argv = ["--task", str(tmp_path / "task_n2_seed5.json"), "--tokens", "0,2,3"]
        else:
            argv = ["--mode", "full", "--checkpoint", saved_checkpoint(tmp_path), "--tokens", "0,1"]
        assert run(["simulate", *argv], tmp_path, monkeypatch) == 0
        report = json.loads((tmp_path / "trajectory.json").read_text())
        assert report["seed"] == seed
        assert "seed" not in report["config"]

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

    @pytest.mark.parametrize("dt", ["1e160", "1e300"])
    def test_overflowing_gram_bound_warns_nothing(self, dt, tmp_path, monkeypatch):
        # (1 + dt ||Phi||^2 / 2)^2 overflows a float at every step, so the SVD decides
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["simulate", "--mode", "full", "--tokens", "0,1,0,2", "--dt", dt],
                       tmp_path, monkeypatch)
        assert code == 0

    @pytest.mark.parametrize("scale, twin, reason", [
        (1e7, False, "condition 3.000e+14 exceeds 1e+12"),
        (1e160, False, "has a non-finite entry"), (1e9, True, "condition inf exceeds 1e+12")])
    def test_first_ill_conditioned_step_fails_the_run(self, scale, twin, reason, tmp_path,
                                                      capsys):
        # step 2 is the first ill-conditioned one; neither it nor a later step is solved,
        # so the only warnings are those of building and bounding its Gram matrix
        path = str(tmp_path / "model.json")
        save_model(blown_up_model(scale, twin), path)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["simulate", "--mode", "full", "--checkpoint", path,
                         "--tokens", "0,0,1,0,1", "--output-dir", str(out)])
        assert code == 3
        assert capsys.readouterr().err == f"numerical failure at step 2: Gram matrix {reason}\n"
        assert [p.name for p in out.iterdir()] == ["failure.json"]
        messages = {str(w.message).rsplit(" in ", 1)[-1] for w in caught}
        assert messages == (set() if scale < 1e154 else {"matmul", "vecdot"})

    def test_numerical_failure_writes_failure_json(self, tmp_path, monkeypatch):
        # the catalogue's exit-3 rollout: step 2 is the first ill-conditioned one, and
        # its report holds the Gram condition only
        path = str(tmp_path / "model.json")
        save_model(blown_up_model(1e7), path)
        monkeypatch.setenv("CUSM_OUTPUT_DIR", str(tmp_path / "out"))
        code = main(["simulate", "--mode", "full", "--checkpoint", path, "--tokens", "0,0,1,0"])
        assert code == 3
        doc = json.loads((tmp_path / "out" / "failure.json").read_text())
        assert set(doc) == ENVELOPE | FAILURE
        assert doc["config"]["checkpoint"] == path and doc["seed"] is None
        assert {key: doc[key] for key in FAILURE} == {
            "exception": "IllConditionedStepError", "step": 2, "gram_condition": 3e14,
            "message": "Gram matrix condition 3.000e+14 exceeds 1e+12", "residual": None,
            "norm_change": None}

    def test_failure_json_that_cannot_be_written_keeps_exit_3(self, tmp_path, capsys):
        # full mode makes its output directory after the rollout, so an --output-dir that
        # is a file fails only when failure.json is written: the failure stays exit 3
        path, blocked = str(tmp_path / "model.json"), tmp_path / "file"
        save_model(blown_up_model(1e7), path)
        blocked.write_text("")
        code = main(["simulate", "--mode", "full", "--checkpoint", path, "--tokens", "0,0,1,0",
                     "--output-dir", str(blocked)])
        assert code == 3
        assert capsys.readouterr().err.count("\n") == 1 and blocked.read_text() == ""

    def test_readout_below_model_dimension_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # --v's default of 4 fails every full-mode --n above 4: the error names the
        # rule, and --help gives the bound
        argv = ["simulate", "--mode", "full", "--n", "6", "--r", "2", "--tokens", "0,1,2"]
        assert run(argv, tmp_path, monkeypatch) == 2
        assert capsys.readouterr().err == \
            "error: v=4 is below n=6; the Born readout needs v >= n\n"
        assert not list(tmp_path.iterdir())
        monkeypatch.setenv("COLUMNS", "1000")
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        assert "--v V model readout size, at least --n (>= 1; default 4;" in \
            " ".join(capsys.readouterr().out.split())

    def test_missing_tokens_is_usage_error(self, tmp_path, monkeypatch):
        code = run(["simulate", "--mode", "task", "--n", "2"], tmp_path, monkeypatch)
        assert code == 2

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_tokens_and_tokens_file_is_usage_error(self, source, tmp_path, capsys):
        path = tmp_path / "tokens.json"
        path.write_text(json.dumps([0, 1, 0]))
        argv = ["simulate", "--mode", "full", "--tokens", "0,1,2,3"]
        if source == "flag":
            argv += ["--tokens-file", str(path)]
            message = "argument --tokens-file: not allowed with argument --tokens"
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"schema_version": 1, "tokens_file": str(path)}))
            argv += ["--config", str(cfg)]
            message = "argument --tokens: not allowed with argument --tokens-file"
        out = tmp_path / "out"
        assert main(argv + ["--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_token_id_beyond_64_bits_is_usage_error(self, mode, source, tmp_path, capsys):
        big = 10 ** 23
        argv = ["simulate", "--mode", mode]
        if mode == "full":
            argv += ["--checkpoint", saved_checkpoint(tmp_path)]
        if source == "flag":
            argv += ["--tokens", f"0,{big}"]
        else:
            path = tmp_path / "tokens.json"
            path.write_text(json.dumps([0, big]))
            argv += ["--tokens-file", str(path)]
        out = tmp_path / "out"
        assert main(argv + ["--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: token id {big} outside the vocabulary [0, 5)\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["task", "full"])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_token_id_that_a_float_rounds_is_reported_as_given(self, mode, source, tmp_path,
                                                               capsys):
        # beside a smaller id, numpy holds 2**63 + 1 as a float64, which rounds it to 2**63
        big = 2 ** 63 + 1
        argv = ["simulate", "--mode", mode]
        if mode == "full":
            argv += ["--checkpoint", saved_checkpoint(tmp_path)]
        if source == "flag":
            argv += ["--tokens", f"0,{big}"]
        else:
            path = tmp_path / "tokens.json"
            path.write_text(json.dumps([0, big]))
            argv += ["--tokens-file", str(path)]
        out = tmp_path / "out"
        assert main(argv + ["--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: token id {big} outside the vocabulary [0, 5)\n"
        assert not out.exists()

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
        # the rank bound's verdict, in each seed's extra and once in the aggregate
        verdict = {"rank_L": 4, "bound_forbids_exact": True}
        assert verdict.items() <= rep["extra"].items() and verdict.items() <= agg.items()
        assert agg["eckart_young_floor"] == rep["extra"]["eckart_young_floor"] > 0.0
        assert "gap_mean" in agg and "gap_std" in agg and "gap_best" in agg
        assert agg["ablation"]["nll_diagonal"] >= agg["ablation"]["nll_born"]

    # per kind, the readout's verdict keys, in each seed's extra and once in the aggregate,
    # and its audit keys, in each seed's extra: the Born readout, exact at N = n, has neither
    READOUT_KEYS = {"cusm-trainable": (set(), set()), "full": (set(), set()),
                    "rosm": ({"rank_L", "bound_forbids_exact", "eckart_young_floor"},
                             {"softmax_rank_audit"})}

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_each_kind_writes_its_readouts_verdict_and_audit(self, kind, tmp_path, monkeypatch):
        verdict, audit = self.READOUT_KEYS[kind]
        assert run(["train", "--n", "2", "--model-kind", kind, "--dim", "2", "--seeds", "2",
                    "--epochs", "3"], tmp_path, monkeypatch) == 0
        agg = json.loads((tmp_path / f"train_{kind}_aggregate.json").read_text())
        assert set(agg) - ENVELOPE - {"model_kind", "seeds", "gap_mean", "gap_std", "gap_best",
                                      "any_gap_zero", "reports"} == verdict
        for seed in (0, 1):
            extra = json.loads((tmp_path / f"train_{kind}_seed{seed}.json").read_text())["extra"]
            assert set(extra) == verdict | audit
            assert {key: extra[key] for key in verdict} == {key: agg[key] for key in verdict}

    def test_early_stop(self, tmp_path, monkeypatch):
        code = run(["train", "--early-stop-gap", "100", "--seeds", "1"], tmp_path, monkeypatch)
        assert code == 0
        rep = json.loads((tmp_path / "train_cusm-trainable_seed0.json").read_text())
        assert rep["stopped"] == "early_stop"
        trace = (tmp_path / "train_cusm-trainable_seed0_trace.csv").read_text().splitlines()
        assert len(trace) == 2

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

    @pytest.mark.parametrize("argv", [
        ["--model-kind", "full", "--lr", "1e200", "--epochs", "3"],
        ["--model-kind", "full", "--lr", "1e300", "--epochs", "3"],
        ["--model-kind", "rosm", "--dim", "2", "--lr", "1e308", "--epochs", "4"],
        ["--model-kind", "cusm-trainable", "--lr", "1e308", "--epochs", "4"],
    ])
    def test_overflowing_training_is_numerical_failure(self, argv, tmp_path, monkeypatch,
                                                       capsys):
        # the first Adam step overflows the parameters: the initial state's norm
        # cannot be formed
        with np.errstate(all="ignore"):
            code = run(["train", "--n", "2", "--seeds", "1", *argv], tmp_path, monkeypatch)
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 3
        assert len(err) == 1 and err[0].startswith("numerical failure")

    def test_baseline_start_state_that_overflows_is_numerical_failure(self, tmp_path,
                                                                      monkeypatch, capsys):
        # h0 grows to about 5e300, so h0 . h0 overflows and the start state has no
        # unit vector; dividing by the inf norm would give the zero vector
        code = run(["train", "--n", "2", "--model-kind", "rosm", "--dim", "2", "--lr", "1e300",
                    "--epochs", "30"], tmp_path, monkeypatch)
        assert code == 3
        assert capsys.readouterr().err == \
            "numerical failure: initial-state parameter vector has norm inf\n"
        assert [p.name for p in tmp_path.iterdir()] == ["failure.json"]

    def test_singular_cayley_system_is_numerical_failure(self, tmp_path, monkeypatch, capsys):
        # at d = 3 the overflowing Adam step leaves generators whose Cayley system I + S is
        # singular; np.linalg.solve's gufunc alone would return NaN there, and the run would
        # fail later, at the start state's norm
        code = run(["train", "--n", "2", "--model-kind", "rosm", "--dim", "3", "--seeds", "2",
                    "--epochs", "30", "--lr", "1e300"], tmp_path, monkeypatch)
        assert code == 3
        assert capsys.readouterr().err == "numerical failure: Singular matrix\n"
        assert [p.name for p in tmp_path.iterdir()] == ["failure.json"]

    def test_numerical_failure_writes_failure_json(self, tmp_path, monkeypatch):
        # the first Adam step overflows h0, so epoch 1's start state has no unit vector;
        # the failure is no Cayley step's, so the report's fields are null
        code = run(["train", "--n", "2", "--model-kind", "rosm", "--dim", "2", "--lr", "1e300",
                    "--seeds", "1", "--epochs", "30"], tmp_path, monkeypatch)
        assert code == 3
        doc = json.loads((tmp_path / "failure.json").read_text())
        assert set(doc) == ENVELOPE | FAILURE | {"model_kind", "epoch"}
        assert doc["config"]["lr"] == 1e300
        assert {key: doc[key] for key in FAILURE | {"model_kind", "seed", "epoch"}} == {
            "exception": "FloatingPointError", "step": None, "gram_condition": None,
            "message": "initial-state parameter vector has norm inf", "residual": None,
            "norm_change": None, "model_kind": "rosm", "seed": 0, "epoch": 1}

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


class TestTaskFile:
    """A --task file fixes the task: --n and --filler-length do not apply, by
    flag or by config key, and the runs do not echo them."""

    def _task_file(self, tmp_path) -> str:
        path = str(tmp_path / "task.json")
        septask.save_task(septask.make_task(2, 0), path)
        return path

    @pytest.mark.parametrize("argv, flag", [
        (["verify-separation", "--audits", "2"], "--n"),
        (["verify-separation", "--audits", "2"], "--filler-length"),
        (["train", "--seeds", "1", "--epochs", "2"], "--n"),
        (["simulate", "--tokens", "0,2,3"], "--n"),
        (["train", "--seeds", "1", "--epochs", "2"], "--seed"),
        (["simulate", "--tokens", "0,2,3"], "--seed"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_task_flag_with_a_task_file_is_usage_error(self, argv, flag, source, tmp_path,
                                                       capsys):
        # even the task's own value: the file alone sets it
        value = {"--n": "2", "--filler-length": "1", "--seed": "0"}[flag]
        argv = argv + ["--task", self._task_file(tmp_path)]
        if source == "flag":
            argv += [flag, value]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"schema_version": 1, flag[2:].replace("-", "_"): value}))
            argv += ["--config", str(cfg)]
        out = tmp_path / "out"
        assert main(argv + ["--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {flag} does not apply with --task, " \
                                          "whose task fixes it\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, report", [
        (["verify-separation", "--audits", "2"], "separation_n2_seed0.json"),
        (["train", "--seeds", "1", "--epochs", "2"], "train_cusm-trainable_seed0.json"),
        (["simulate", "--tokens", "0,2,3"], "trajectory.json"),
    ])
    def test_task_file_run_echoes_no_task_flag(self, argv, report, tmp_path, monkeypatch):
        argv = argv + ["--task", self._task_file(tmp_path)]
        assert run(argv, tmp_path, monkeypatch) == 0
        config = json.loads((tmp_path / report).read_text())["config"]
        assert not {"n", "filler_length"} & set(config)

    @pytest.mark.parametrize("task_file", [False, True])
    def test_task_mode_simulate_echoes_no_model_flag(self, task_file, tmp_path, monkeypatch):
        argv = ["simulate", "--tokens", "0,2,3"]
        if task_file:
            argv += ["--task", self._task_file(tmp_path)]
        assert run(argv, tmp_path, monkeypatch) == 0
        config = json.loads((tmp_path / "trajectory.json").read_text())["config"]
        assert not {"r", "d", "v"} & set(config)
        assert config["dt"] == 1.0
        assert config.get("n") == (None if task_file else 2)


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

    @pytest.mark.parametrize("kind, field, value, message", [
        ("task", "n", 1, "field 'n' must be >= 2, got 1"),
        ("task", "v", 3, "field 'v' must be n^2 = 4, got 3"),
        ("task", "filler_length", -1, "field 'filler_length' must be >= 0, got -1"),
        ("task", "seed", -5, "field 'seed' must be >= 0, got -5"),
        ("model", "r", 0, "field 'r' must be >= 1, got 0"),
        ("model", "v", 1, "field 'v' must be >= 2, got 1"),
        ("model", "seed", -1, "field 'seed' must be >= 0, got -1"),
        ("model", "dt", 0, "field 'dt' must be finite and > 0, got 0.0"),
        ("model", "dt", -1, "field 'dt' must be finite and > 0, got -1.0"),
        ("model", "dt", float("nan"), "field 'dt' must be finite and > 0, got nan"),
        ("model", "dt", float("inf"), "field 'dt' must be finite and > 0, got inf"),
    ])
    def test_field_out_of_range(self, kind, field, value, message, tmp_path, monkeypatch,
                                capsys):
        path = getattr(self, f"_{kind}_file")(tmp_path, monkeypatch)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(self._command(kind, path), tmp_path, monkeypatch) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("flag", ["--task", "--checkpoint", "--config", "--tokens-file"])
    @pytest.mark.parametrize("unreadable", ["directory", "not utf-8"])
    def test_unreadable_file_is_usage_error(self, flag, unreadable, tmp_path, monkeypatch,
                                            capsys):
        path = tmp_path / "input"
        if unreadable == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"schema_version": 1, "n": "\xff"}')
        argv = ["simulate", "--tokens", "0", flag, str(path)]
        if flag == "--checkpoint":
            argv[1:1] = ["--mode", "full"]
        elif flag == "--tokens-file":
            argv[1:3] = []
        assert run(argv, tmp_path, monkeypatch) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--task", "--checkpoint", "--config", "--tokens-file"])
    @pytest.mark.parametrize("text, message", [
        ("[" * 200000 + "]" * 200000, "{path}: JSON nesting beyond the parser's limits"),
        ("[" + "7" * 5000 + "]", "{path}: JSON integer literal beyond the parser's limits"),
        ("[7,", "Expecting value: line 1 column 4 (char 3)")],
        ids=["deep", "long-integer", "malformed"])
    def test_json_the_parser_rejects_is_usage_error(self, flag, text, message, tmp_path, capsys):
        # json.load raises RecursionError, or the ValueError of int()'s digit limit, where
        # malformed JSON raises JSONDecodeError, whose message is kept
        path, out = tmp_path / "input.json", tmp_path / "out"
        path.write_text(text)
        argv = ["simulate", "--tokens", "0", flag, str(path), "--output-dir", str(out)]
        if flag == "--checkpoint":
            argv[1:1] = ["--mode", "full"]
        elif flag == "--tokens-file":
            argv[1:3] = []
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message.format(path=path)}\n"
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("kind, field, value, command", [
        ("task", "context_states", "nan", None),  # None: the command of _command
        ("task", "query_unitaries", "inf", "train"),
        ("task", "measurement", "nan", "simulate"),
        ("model", "embed", "inf", None),
        ("model", "mlp_weights", "-inf", None),
    ])
    def test_non_finite_entry(self, kind, field, value, command, tmp_path, monkeypatch, capsys):
        path = getattr(self, f"_{kind}_file")(tmp_path, monkeypatch)
        doc = json.loads(path.read_text())
        entries = doc[field]
        while isinstance(entries[0], list):
            entries = entries[0]
        entries[0] = float(value)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        argv = {"train": ["train", "--task", str(path), "--seeds", "1", "--epochs", "2"],
                "simulate": ["simulate", "--task", str(path), "--tokens", "0,2,3"]}.get(command)
        assert run(argv or self._command(kind, path), tmp_path, monkeypatch) == 2
        where = "mlp_weights[0]" if field == "mlp_weights" else f"field {field!r}"
        assert capsys.readouterr().err == \
            f"error: {path}: {where}: expected finite entries, got {value}\n"

    @pytest.mark.parametrize("field, scale, message", [
        ("context_states", 3.0, "a norm misses 1 by 2.000e+00"),
        ("query_unitaries", 2.0, "W^dag W misses I by 3.000e+00"),
        ("measurement", 0.0, "MM^dag misses I by 1.000e+00"),
    ])
    @pytest.mark.parametrize("command", ["verify-separation", "train"])
    def test_task_that_breaks_its_physics(self, field, scale, message, command, tmp_path,
                                          monkeypatch, capsys):
        # gen-task files, doctored: the first two ran to exit 0, the third to exit 1
        # with a raw numpy warning
        path = self._task_file(tmp_path, monkeypatch)
        doc = json.loads(path.read_text())
        doc[field] = (scale * np.array(doc[field])).tolist()
        path.write_text(json.dumps(doc))
        written = sorted(os.listdir(tmp_path))
        capsys.readouterr()
        argv = {"verify-separation": self._command("task", path),
                "train": ["train", "--task", str(path), "--seeds", "1", "--epochs", "2"]}[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv, tmp_path, monkeypatch) == 2
        assert capsys.readouterr().err == f"error: {path}: field {field!r}: {message}\n"
        assert sorted(os.listdir(tmp_path)) == written

    @pytest.mark.parametrize("entry, message", [
        (0.0, "initial-state parameter vector is zero"),
        (1e200, "initial-state parameter vector has norm inf"),
    ])
    def test_degenerate_start_vector(self, entry, message, tmp_path, monkeypatch, capsys):
        path = self._model_file(tmp_path, monkeypatch)
        doc = json.loads(path.read_text())
        doc["init_a"] = [entry] * len(doc["init_a"])
        doc["init_b"] = [0.0] * len(doc["init_b"])
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            assert run(self._command("model", path), tmp_path, monkeypatch) == 2
        assert capsys.readouterr().err == \
            f"error: {path}: fields 'init_a' and 'init_b': {message}\n"

    def test_start_vector_below_the_normal_range(self, tmp_path, monkeypatch):
        # its squared norm underflows to zero, but the vector is not zero
        path = self._model_file(tmp_path, monkeypatch)
        doc = json.loads(path.read_text())
        doc["init_a"] = [1e-170] * len(doc["init_a"])
        doc["init_b"] = [0.0] * len(doc["init_b"])
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(self._command("model", path), tmp_path, monkeypatch) == 0
        report = json.loads((tmp_path / "trajectory.json").read_text())
        assert report["max_norm_deviation"] < 1e-14

    def test_ragged_array(self, tmp_path, monkeypatch, capsys):
        path = self._task_file(tmp_path, monkeypatch)
        doc = json.loads(path.read_text())
        doc["measurement"][0] = doc["measurement"][0][:-1]
        path.write_text(json.dumps(doc))
        assert run(self._command("task", path), tmp_path, monkeypatch) == 2
        assert "got non-numeric or ragged entries" in capsys.readouterr().err

    def test_mlp_layers_that_are_not_lists(self, tmp_path, monkeypatch, capsys):
        path = self._model_file(tmp_path, monkeypatch)
        doc = json.loads(path.read_text())
        doc["mlp_weights"] = {}
        path.write_text(json.dumps(doc))
        assert run(self._command("model", path), tmp_path, monkeypatch) == 2
        assert "must be lists of one array per layer" in capsys.readouterr().err

    def test_mlp_that_does_not_chain(self, tmp_path, monkeypatch, capsys):
        path = self._model_file(tmp_path, monkeypatch)
        doc = json.loads(path.read_text())
        doc["r"] = 2
        path.write_text(json.dumps(doc))
        assert run(self._command("model", path), tmp_path, monkeypatch) == 2
        assert "last MLP layer has" in capsys.readouterr().err


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
        for command, key in (("train", "epoch"), ("verify-separation", "rosm_dims")):
            cfg.write_text(json.dumps({"schema_version": 1, key: 3}))
            code = run([command, "--config", str(cfg)], tmp_path, monkeypatch)
            assert code == 2
            assert f"config key {key!r} is no option of any subcommand" in capsys.readouterr().err
            assert list(tmp_path.iterdir()) == [cfg]

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

    @pytest.mark.parametrize("argv, key, default, report", [
        (["gen-task"], "seed", 0, "task_n2_seed0.certificate.json"),
        (["verify-separation"], "audits", 50, "separation_n2_seed0.json"),
        (["simulate", "--tokens", "0,2,3"], "mode", "task", "trajectory.json"),
        (["simulate", "--tokens", "0,2,3"], "n", 2, "trajectory.json"),
        (["verify-separation", "--audits", "1"], "epochs", None, "separation_n2_seed0.json"),
    ])
    def test_null_adds_nothing(self, argv, key, default, report, tmp_path, monkeypatch):
        # the run takes the default where it reads the flag, as if the key were absent
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, key: None}))
        assert run(argv + ["--config", str(cfg)], tmp_path, monkeypatch) == 0
        assert json.loads((tmp_path / report).read_text())["config"].get(key) == default

    def test_key_is_converted_by_the_chosen_subcommand(self, tmp_path, monkeypatch):
        # gen-task's --n needs 2, simulate's takes 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "n": 1}))
        code = run(["simulate", "--mode", "full", "--tokens", "0,1", "--config", str(cfg)],
                   tmp_path, monkeypatch)
        assert code == 0
        assert json.loads((tmp_path / "trajectory.json").read_text())["model"]["n"] == 1

    def test_keys_of_other_subcommands_are_not_echoed(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        for argv, keys, report in (
            (["gen-task"], {"lr": 0.5, "model_kind": "rosm", "tokens": "0,1"},
             "task_n2_seed0.certificate.json"),
            (["verify-separation", "--audits", "1"], {"epochs": 7, "seeds": 4},
             "separation_n2_seed0.json"),
        ):
            cfg.write_text(json.dumps({"schema_version": 1, **keys}))
            assert run(argv + ["--config", str(cfg)], tmp_path, monkeypatch) == 0
            assert not set(keys) & set(json.loads((tmp_path / report).read_text())["config"])

    def test_missing_config_file(self, tmp_path, monkeypatch):
        code = run(["gen-task", "--config", str(tmp_path / "nope.json")],
                   tmp_path, monkeypatch)
        assert code == 2

    def test_true_switch_sets_the_flag(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "reference": True}))
        assert run(["gen-task", "--config", str(cfg)], tmp_path, monkeypatch) == 0
        cert = json.loads((tmp_path / "task_n2_seed0.certificate.json").read_text())
        assert abs(cert["det"] - (-0.25)) < 1e-12
        assert cert["config"]["reference"] is True

    def test_config_does_not_leak_into_a_later_call(self, tmp_path, monkeypatch):
        # one parser serves every call, so a config must not change its defaults;
        # the first run also shows a true switch from a config turning its flag on
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "epochs": 3, "ablation": True}))
        argv = ["train", "--seeds", "1", "--early-stop-gap", "100"]
        assert run(argv + ["--config", str(cfg)], tmp_path / "a", monkeypatch) == 0
        assert run(argv, tmp_path / "b", monkeypatch) == 0
        first, second = (json.loads((tmp_path / out / "train_cusm-trainable_aggregate.json")
                                    .read_text()) for out in ("a", "b"))
        assert first["config"]["epochs"] == 3 and "ablation" in first
        assert second["config"]["epochs"] == 2000 and "ablation" not in second
        assert second["config"]["ablation"] is False and "config" not in second["config"]

    def test_help_is_no_config_key(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "help": True}))
        assert run(["gen-task", "--config", str(cfg)], tmp_path, monkeypatch) == 2
        assert "config key 'help' is no option" in capsys.readouterr().err


class TestConfigMerge:
    """Config keys fill the flags that argv left unset, after one parse of argv.
    Of two exclusive flags, argparse's message blames the later source: argv's
    flags come after the config's keys, which come in file order."""

    NOT_AFTER_TOKENS = "argument --tokens-file: not allowed with argument --tokens"
    NOT_AFTER_FILE = "argument --tokens: not allowed with argument --tokens-file"

    @pytest.mark.parametrize("flags, keys, message", [
        (["--tokens", "0,1", "--tokens-file", "T"], {}, NOT_AFTER_TOKENS),
        (["--tokens-file", "T", "--tokens", "0,1"], {}, NOT_AFTER_FILE),
        (["--tokens-file", "T"], {"tokens": "0,1"}, NOT_AFTER_TOKENS),
        (["--tokens", "0,1"], {"tokens_file": "T"}, NOT_AFTER_FILE),
        ([], {"tokens": "0,1", "tokens_file": "T"}, NOT_AFTER_TOKENS),
        ([], {"tokens_file": "T", "tokens": "0,1"}, NOT_AFTER_FILE),
        # the keys clash before argv's flag is reached
        (["--tokens", "0,2"], {"tokens": "0,1", "tokens_file": "T"}, NOT_AFTER_TOKENS),
    ], ids=["flag-tokens,flag-file", "flag-file,flag-tokens", "key-tokens,flag-file",
            "key-file,flag-tokens", "key-tokens,key-file", "key-file,key-tokens",
            "key-tokens,key-file,flag-tokens"])
    def test_exclusive_flags_blame_the_later_source(self, flags, keys, message, tmp_path,
                                                    capsys):
        path = tmp_path / "tokens.json"
        path.write_text("[0, 1]")
        argv = ["simulate"] + [str(path) if arg == "T" else arg for arg in flags]
        if keys:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"schema_version": 1, **{
                key: str(path) if value == "T" else value for key, value in keys.items()}}))
            argv += ["--config", str(cfg)]
        out = tmp_path / "out"
        assert main(argv + ["--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["tokens", "tokens_file"])
    def test_tokens_from_the_config_alone(self, key, tmp_path, monkeypatch):
        path = tmp_path / "tokens.json"
        path.write_text("[0, 2, 2, 3]")
        cfg = tmp_path / "cfg.json"
        value = {"tokens": "0,2,2,3", "tokens_file": str(path)}[key]
        cfg.write_text(json.dumps({"schema_version": 1, key: value}))
        assert run(["simulate", "--config", str(cfg)], tmp_path, monkeypatch) == 0
        report = json.loads((tmp_path / "trajectory.json").read_text())
        assert report["steps"] == 4
        assert report["config"][key] == ([0, 2, 2, 3] if key == "tokens" else str(path))

    @pytest.mark.parametrize("config", [False, True])
    def test_tokens_from_no_source_is_usage_error(self, config, tmp_path, capsys):
        argv = ["simulate", "--n", "2"]
        if config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"schema_version": 1, "tokens": None, "dt": 0.5}))
            argv += ["--config", str(cfg)]
        out = tmp_path / "out"
        assert main(argv + ["--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: one of the arguments --tokens --tokens-file is required\n"
        assert not out.exists()

    def test_argv_error_is_reported_before_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "n": "two"}))
        out = tmp_path / "out"
        assert main(["gen-task", "--seed", "-1", "--config", str(cfg),
                     "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == "error: argument --seed: must be >= 0, got -1\n"
        assert not out.exists()


def test_main_builds_one_parser_per_process(tmp_path, monkeypatch):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._shared_parser.cache_clear()
    try:
        assert run(["gen-task"], tmp_path, monkeypatch) == 0
        assert run(["gen-task", "--seed", "1"], tmp_path, monkeypatch) == 0
    finally:
        cli._shared_parser.cache_clear()
    assert len(builds) == 1


def test_train_flags_default_to_the_optimizer_config_and_model_kinds():
    rows = {flag.dest: flag for flag in cli.FLAGS if "train" in flag.commands}
    defaults = {key: rows[key].default for key in ("lr", "epochs", "early_stop_gap")}
    assert defaults == dataclasses.asdict(OptimizerConfig())
    assert rows["model_kind"].kind == MODEL_KINDS
    assert rows["model_kind"].default == MODEL_KINDS[0]


@pytest.mark.parametrize("command", ["gen-task", "verify-separation", "simulate", "train"])
def test_help_shows_each_flags_limit_default_and_read_condition(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "1000")  # no wrapping, which may split a flag's name
    with pytest.raises(SystemExit):
        main([command, "--help"])
    # each entry: the flag's name without its dashes, metavar or choices, and help
    entries = {entry.split()[0]: " ".join(entry.split())
               for entry in capsys.readouterr().out.split("\n  --")[1:]}
    flags = [flag for flag in cli.FLAGS if command in flag.commands]
    assert sorted(flag.name[2:] for flag in flags) == sorted(entries)
    for flag in flags:
        entry = entries[flag.name[2:]]
        assert getattr(flag.kind, "limit", "") in entry
        assert "read " + " and ".join(met for _, met, _ in flag.when) in entry or not flag.when
        if flag.kind is not bool and flag.default is not None:
            assert f"default {flag.default}" in entry


@pytest.mark.parametrize("command", ["gen-task", "verify-separation", "simulate", "train"])
def test_help_at_80_columns_keeps_each_flag_name_whole(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        main([command, "--help"])
    # a name split at one of its hyphens would leave a fragment such as "--early-"
    names = {flag.name for flag in cli.FLAGS if command in flag.commands}
    assert set(re.findall(r"--[\w-]*", capsys.readouterr().out)) == names | {"--help"}


class TestFlagValues:
    """Each bad integer or out-of-range value of a flag exits 2 with a message,
    whether it comes from the command line or from a config file."""

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--tokens", "a,b"], "argument --tokens: invalid integer 'a'"),
        (["simulate", "--tokens", "0,x"], "argument --tokens: invalid integer 'x'"),
        (["verify-separation", "--rosm-dims", "1"], "unrecognized arguments: --rosm-dims 1"),
        (["simulate", "--tokens=-1,"], "argument --tokens: must be >= 0, got -1"),
        (["simulate", "--tokens=4,-1"], "argument --tokens: must be >= 0, got -1"),
        (["verify-separation", "--epochs", "7"], "unrecognized arguments: --epochs 7"),
        (["gen-task", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
        (["gen-task", "--n", "1"], "argument --n: must be >= 2, got 1"),
        (["simulate", "--tokens", "0", "--dt", "-1"], "argument --dt: must be > 0, got -1.0"),
        (["simulate", "--tokens", "0", "--dt", "0"], "argument --dt: must be > 0, got 0.0"),
        (["gen-task", "--filler-length", "-1"], "argument --filler-length: must be >= 0, got -1"),
        (["verify-separation", "--audits", "-1"], "argument --audits: must be >= 0, got -1"),
        (["verify-separation", "--seeds", "3"], "unrecognized arguments: --seeds 3"),
        (["train", "--seeds", "0"], "argument --seeds: must be >= 1, got 0"),
        (["train", "--epochs", "1.5"], "argument --epochs: invalid integer '1.5'"),
        (["train", "--dim", "0"], "argument --dim: must be >= 1, got 0"),
        (["train", "--epochs", "0"], "argument --epochs: must be >= 1, got 0"),
        (["train", "--model-kind", "bogus"], "argument --model-kind: invalid choice: 'bogus'"),
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
        (["simulate", "--tokens", "0", "--dt", "abc"], "argument --dt: invalid number 'abc'"),
    ])
    def test_bad_flag_value_is_usage_error(self, argv, message, tmp_path, monkeypatch, capsys):
        assert run(argv, tmp_path, monkeypatch) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["simulate", "--mode", "full", "--tokens", "100000000000"],  # a 2.91 TiB embedding
        ["simulate", "--mode", "full", "--tokens", "99999999999999999999"],
        ["gen-task", "--n", "100000"],  # 74.5 GiB of context states, and far more later
        ["train", "--n", "2", "--model-kind", "rosm", "--dim", "1000000"],  # 7.28 TiB per token
        ["train", "--n", "2", "--model-kind", "cusm-trainable", "--dim", "1000000"],
        # a 29.1 TiB token array, of a task that is made or loaded
        ["gen-task", "--n", "2", "--filler-length", "1000000000000"],
        ["verify-separation", "--n", "2", "--filler-length", "1000000000000"],
        ["verify-separation", "--task", "huge_task.json"],
        ["train", "--task", "huge_task.json"],
    ])
    def test_array_beyond_memory_is_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        if "huge_task.json" in argv:
            task = tmp_path / "huge_task.json"
            septask.save_task(septask.make_task(2, 0), str(task))
            task.write_text(json.dumps({**json.loads(task.read_text()), "filler_length": 10 ** 12}))
            argv = [str(task) if arg == task.name else arg for arg in argv]
        assert run(argv, tmp_path, monkeypatch) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "bytes; memory holds" in err[0]

    def test_seed_beyond_64_bits_runs(self, tmp_path, monkeypatch):
        # verify-separation also derives the baseline seeds seed * 1000 + k
        code = run(["verify-separation", "--seed", str(2 ** 64), "--audits", "2"],
                   tmp_path, monkeypatch)
        assert code == 0
        report = json.loads((tmp_path / f"separation_n2_seed{2 ** 64}.json").read_text())
        assert report["seed"] == 2 ** 64

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

    @pytest.mark.parametrize("key, value", [("tokens", "8,x"), ("tokens", -1),
                                            ("audits", -1), ("dt", 0), ("tokens", ""),
                                            ("dt", float("inf")), ("lr", float("inf"))])
    def test_bad_config_value_is_usage_error(self, key, value, tmp_path, monkeypatch, capsys):
        # each key is given to the subcommand that reads it
        command = {"tokens": ["simulate"], "dt": ["simulate", "--tokens", "0"], "lr": ["train"]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, key: value}))
        code = run(command.get(key, ["verify-separation"]) + ["--config", str(cfg)],
                   tmp_path, monkeypatch)
        assert code == 2
        assert f"config key {key!r}: invalid value" in capsys.readouterr().err

    def test_config_list_goes_through_the_option_type(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "tokens": "0, 2, 3"}))
        assert run(["simulate", "--config", str(cfg)], tmp_path, monkeypatch) == 0
        report = json.loads((tmp_path / "trajectory.json").read_text())
        assert report["steps"] == 3
        assert report["config"]["tokens"] == [0, 2, 3]

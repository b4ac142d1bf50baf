"""The benchmark workloads.

Each workload turns a workload seed into a fixed list of op inputs and runs
them closed loop: one client, one op at a time, the next op issued when the
previous one returns. An op times only its calls into cusm and then checks
every output; a failed check fails the op.

- train-full: `cusm train --n 3 --model-kind full` for one task seed. The
  only load on the adjoint pass, the generator MLP backward and the
  per-sequence QR projection, all at tiny N where per-call overhead rules.
- separation-study: gen-task, verify-separation, the cusm-trainable trainer
  with the readout ablation, and the rosm baseline at d = 1, 2, 4, 6, for one
  task seed. Loads septask and the fixed-unitary and orthogonal trainers; it
  makes no Woodbury and no MLP call.
- rollout-full: `cusm simulate --mode full` at N=64 over 256 tokens.
  Forward-only inference with one state: the MLP, the Woodbury step,
  `materialize` and the midpoint currents, plus a 256-row CSV.
- woodbury-batch: 32 unit states at N=512, r=4 advanced through factors from
  a pool built at set-up. The one workload where the step's O(N r B)
  arithmetic outweighs its call overhead.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from cusm import cli, dynamics
from cusm.numerics import ginibre, make_rng

# Task seeds are drawn from this pool so every training op has a recorded
# reference NLL in reference.json.
TASK_SEEDS = tuple(range(32))

TRAIN_FULL_EPOCHS = 10
SEPARATION_EPOCHS = 20
SEPARATION_AUDITS = 50
ROSM_DIMS = (1, 2, 4, 6)

ROLLOUT = {"n": 64, "r": 4, "d": 8, "v": 64}
ROLLOUT_VOCAB = 16
ROLLOUT_TOKENS = 256

WOODBURY_N, WOODBURY_R, WOODBURY_COLUMNS = 512, 4, 32
WOODBURY_DT = 1.0
WOODBURY_POOL = 64
WOODBURY_STEPS_PER_OP = 256

# simulate's own norm and balance limits; the suite's dense-agreement and
# exact-reproduction tolerances
NORM_TOL = 1e-10
BALANCE_TOL = 1e-11
DENSE_TOL = 1e-10
REPRODUCTION_TOL = 1e-10


@dataclass
class OpResult:
    seconds: float                 # time inside cusm calls only
    work: int                      # epochs, tokens or state steps done
    failures: list = field(default_factory=list)
    warnings: int = 0
    epochs: int = 0
    nlls: dict = field(default_factory=dict)   # final NLLs, checked against reference.json


def _cli(argv: list, out_dir: str):
    """Run one cusm command in-process; returns (exit code, seconds, warnings, output)."""
    sink = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            code = cli.main(argv + ["--output-dir", out_dir])
        except SystemExit as exc:  # argparse rejects argv this way
            code = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - start
    return code, elapsed, len(caught), sink.getvalue()


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _csv_rows(path: str) -> int:
    with open(path, newline="") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


def _check(failures: list, ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


class SmallMatrixKernel:
    """Calibration job that never touches cusm: small-matrix numpy calls from
    a Python loop, the work the CLI workloads spend their time on. A kernel
    with BLAS-sized products slowed down for minutes at a time on a shared
    host while these ops did not, so they get this one."""

    reference_s = 0.015   # median standalone time on the 2-vCPU Intel Xeon VM it was tuned on

    @staticmethod
    def seconds() -> float:
        rng = np.random.default_rng(0)
        small = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        vec = rng.standard_normal(6) + 0j
        start = time.perf_counter()
        for _ in range(300):
            q, _ = np.linalg.qr(small)
            vec = np.linalg.solve(small + 3 * np.eye(6), vec)
            vec = np.tanh(q.real @ (vec / np.linalg.norm(vec)).real) + 0j
        return time.perf_counter() - start


class BlasKernel:
    """Calibration job that never touches cusm: complex BLAS products of the
    woodbury-batch shapes, whose speed tracks that workload's."""

    reference_s = 0.0073   # median standalone time on the 2-vCPU Intel Xeon VM it was tuned on

    @staticmethod
    def seconds() -> float:
        rng = np.random.default_rng(1)
        tall = rng.standard_normal((WOODBURY_N, WOODBURY_R)) * (1 + 1j)
        cols = rng.standard_normal((WOODBURY_N, WOODBURY_COLUMNS)) * (1 + 1j)
        start = time.perf_counter()
        for _ in range(45):
            cols = cols - 0.01 * (tall @ (tall.conj().T @ cols))
        return time.perf_counter() - start


class Workload:
    name = ""
    stream = 0   # keeps the workloads' input streams apart for one seed
    throughput_name = ""   # the detail line's name for work_per_s on this workload
    rate = 1.0   # ops per second of op time on the reference machine; sets the op count
    calibration = SmallMatrixKernel

    def __init__(self, seed: int, n_ops: int, out_dir: str):
        self.rng = make_rng(seed, stream=self.stream)
        self.out_dir = out_dir
        self.pause = contextlib.nullcontext   # the harness pauses tracing during checks
        self.warmup = self.make_input()
        self.inputs = [self.make_input() for _ in range(n_ops)]

    def make_input(self):
        raise NotImplementedError

    def begin(self) -> None:
        """Reset state carried between ops before a pass over the inputs."""

    def run(self, inp) -> OpResult:
        raise NotImplementedError

    def clear(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)


class TrainingWorkload(Workload):
    throughput_name = "epochs_per_s"

    def make_input(self):
        return int(self.rng.choice(TASK_SEEDS))

    def _check_report(self, failures, out, kind, label, epochs, nlls) -> tuple[int, int]:
        """Checks one training report; returns (trace rows, caught warnings)."""
        rep = _read_json(os.path.join(out, f"train_{kind}_seed0.json"))
        rows = _csv_rows(os.path.join(out, f"train_{kind}_seed0_trace.csv"))
        _check(failures, math.isfinite(rep["gap"]), f"{label}: gap {rep['gap']}")
        _check(failures, rep["stopped"] == "epochs", f"{label}: stopped {rep['stopped']}")
        _check(failures, rows == epochs, f"{label}: {rows} trace rows, expected {epochs}")
        nlls[label] = rep["final_nll"]
        return rows, rep["warning_count"]


class TrainFull(TrainingWorkload):
    name = "train-full"
    stream = 1
    rate = 6.5

    def run(self, task_seed) -> OpResult:
        code, secs, warns, text = _cli(
            ["train", "--n", "3", "--model-kind", "full", "--seeds", "1",
             "--epochs", str(TRAIN_FULL_EPOCHS), "--seed", str(task_seed)], self.out_dir)
        res = OpResult(secs, 0, warnings=warns)
        if code != 0:
            res.failures.append(f"train exit {code}: {text.strip()[-300:]}")
            return res
        rows, caught = self._check_report(res.failures, self.out_dir, "full", "full",
                                          TRAIN_FULL_EPOCHS, res.nlls)
        res.work = res.epochs = rows
        res.warnings += caught
        return res


class SeparationStudy(TrainingWorkload):
    name = "separation-study"
    stream = 2
    rate = 6.5

    def run(self, task_seed) -> OpResult:
        out = self.out_dir
        task = os.path.join(out, f"task_n3_seed{task_seed}.json")
        epochs = ["--seeds", "1", "--epochs", str(SEPARATION_EPOCHS)]
        steps = [
            (["gen-task", "--n", "3", "--seed", str(task_seed)], out),
            (["verify-separation", "--task", task, "--audits", str(SEPARATION_AUDITS),
              "--seed", str(task_seed)], out),
            (["train", "--task", task, "--model-kind", "cusm-trainable", "--ablation"]
             + epochs, out),
        ]
        for d in ROSM_DIMS:
            steps.append((["train", "--task", task, "--model-kind", "rosm", "--dim", str(d)]
                          + epochs, os.path.join(out, f"rosm_d{d}")))
        res = OpResult(0.0, 0)
        for argv, step_out in steps:
            code, secs, warns, text = _cli(argv, step_out)
            res.seconds += secs
            res.warnings += warns
            if code != 0:
                res.failures.append(f"{argv[0]} exit {code}: {text.strip()[-300:]}")
                return res

        fails = res.failures
        sep = _read_json(os.path.join(out, f"separation_n3_seed{task_seed}.json"))
        _check(fails, sep["cusm_max_error"] <= REPRODUCTION_TOL,
               f"cusm_max_error {sep['cusm_max_error']}")
        _check(fails, sep["rank_P"] == 9, f"rank_P {sep['rank_P']}")
        _check(fails, sep["rosm_audit_violations"] == 0,
               f"{sep['rosm_audit_violations']} audit violations")
        _check(fails, len(sep["rosm_audits"]) == SEPARATION_AUDITS
               and all(a["satisfied"] for a in sep["rosm_audits"]), "softmax rank audit failed")

        rows, caught = self._check_report(fails, out, "cusm-trainable", "cusm-trainable",
                                          SEPARATION_EPOCHS, res.nlls)
        res.epochs += rows
        res.warnings += caught
        floor = _read_json(os.path.join(out, "train_cusm-trainable_seed0.json"))["entropy_floor"]
        ablation = _read_json(os.path.join(out, "train_cusm-trainable_aggregate.json"))["ablation"]
        _check(fails, abs(ablation["nll_born"] - floor) <= REPRODUCTION_TOL,
               f"exact model Born NLL {ablation['nll_born']} vs floor {floor}")
        _check(fails, math.isfinite(ablation["nll_diagonal"]),
               f"diagonal NLL {ablation['nll_diagonal']}")
        for d in ROSM_DIMS:
            d_out = os.path.join(out, f"rosm_d{d}")
            rows, caught = self._check_report(fails, d_out, "rosm", f"rosm-d{d}",
                                              SEPARATION_EPOCHS, res.nlls)
            res.epochs += rows
            res.warnings += caught
            audit = _read_json(os.path.join(d_out, "train_rosm_seed0.json"))["extra"]
            _check(fails, audit["softmax_rank_audit"]["satisfied"],
                   f"rosm-d{d}: trained model breaks the softmax rank bound")
        res.work = res.epochs
        return res


class RolloutFull(Workload):
    name = "rollout-full"
    stream = 3
    throughput_name = "tokens_per_s"
    rate = 7.0

    def make_input(self):
        tokens = np.concatenate([np.arange(ROLLOUT_VOCAB),
                                 self.rng.integers(0, ROLLOUT_VOCAB,
                                                   ROLLOUT_TOKENS - ROLLOUT_VOCAB)])
        self.rng.shuffle(tokens)
        return int(self.rng.integers(2 ** 31)), ",".join(map(str, tokens))

    def run(self, inp) -> OpResult:
        model_seed, tokens = inp
        argv = ["simulate", "--mode", "full", "--seed", str(model_seed), "--tokens", tokens]
        for key, value in ROLLOUT.items():
            argv += [f"--{key}", str(value)]
        code, secs, warns, text = _cli(argv, self.out_dir)
        res = OpResult(secs, 0, warnings=warns)
        if code != 0:
            res.failures.append(f"simulate exit {code}: {text.strip()[-300:]}")
            return res
        rep = _read_json(os.path.join(self.out_dir, "trajectory.json"))
        rows = _csv_rows(os.path.join(self.out_dir, "trajectory.csv"))
        _check(res.failures, rep["max_norm_deviation"] <= NORM_TOL,
               f"norm deviation {rep['max_norm_deviation']}")
        _check(res.failures, rep["max_balance_residual"] <= BALANCE_TOL,
               f"balance residual {rep['max_balance_residual']}")
        _check(res.failures, rep["steps"] == ROLLOUT_TOKENS == rows,
               f"{rep['steps']} steps, {rows} CSV rows, expected {ROLLOUT_TOKENS}")
        res.work = rows
        return res


class WoodburyBatch(Workload):
    name = "woodbury-batch"
    stream = 4
    throughput_name = "state_steps_per_s"
    calibration = BlasKernel
    rate = 4.0

    def __init__(self, seed, n_ops, out_dir):
        super().__init__(seed, n_ops, out_dir)
        scale = 1.0 / math.sqrt(WOODBURY_N)
        self.pool = [dynamics.InteractionFactors(
            phi=scale * ginibre(self.rng, WOODBURY_N, WOODBURY_R),
            delta=self.rng.standard_normal(WOODBURY_N)) for _ in range(WOODBURY_POOL)]
        self.frequencies = np.linspace(-np.pi / 2, np.pi / 2, WOODBURY_N)
        psi = ginibre(self.rng, WOODBURY_N, WOODBURY_COLUMNS)
        self.psi0 = psi / np.linalg.norm(psi, axis=0)
        self.begin()

    def make_input(self):
        return self.rng.integers(0, WOODBURY_POOL, WOODBURY_STEPS_PER_OP + 1)

    def begin(self) -> None:
        self.psi = self.psi0.copy()
        self.t = 0

    def run(self, picks) -> OpResult:
        psi, t = self.psi, self.t
        start = time.perf_counter()
        for k in picks[:-1]:
            factors = dynamics.interaction_picture_factors(
                self.pool[k], self.frequencies, t, WOODBURY_DT)
            psi, _ = dynamics.cayley_step_woodbury(factors, psi, WOODBURY_DT)
            t += 1
        elapsed = time.perf_counter() - start
        self.psi, self.t = psi, t

        res = OpResult(elapsed, WOODBURY_COLUMNS * (len(picks) - 1))
        with self.pause():
            drift = float(np.abs(np.linalg.norm(psi, axis=0) - 1.0).max())
            _check(res.failures, drift <= NORM_TOL, f"column norm drift {drift}")
            factors = dynamics.interaction_picture_factors(
                self.pool[picks[-1]], self.frequencies, t, WOODBURY_DT)
            fast, _ = dynamics.cayley_step_woodbury(factors, psi, WOODBURY_DT)
            dense = dynamics.cayley_step_dense(factors.materialize(), psi, WOODBURY_DT)
            err = float(np.abs(fast - dense).max())
            _check(res.failures, err <= DENSE_TOL, f"Woodbury vs dense {err}")
        return res


WORKLOADS = {w.name: w for w in (TrainFull, SeparationStudy, RolloutFull, WoodburyBatch)}

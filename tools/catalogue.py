"""The fixed catalogue of CLI runs that tools/unreached.py --cli and tools/against.py
run, the input files that it names, and the one runner of its argvs.

CATALOGUE is (argv, expected exit code) of every subcommand and mode; TRAINING adds
the training runs that tools/against.py also compares. An argument `{name}` is the
path of input file `name`, which write_inputs makes and input_paths names. run
passes each argv through cli.main in a fresh CUSM_OUTPUT_DIR. Standard library
only; the input files are written, and the argvs run, with whatever cusm package
is importable.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import warnings
from pathlib import Path

# a fixed string of 256 token ids that uses all 16 ids, for rollout-full's shape
ROLLOUT_TOKENS = ",".join(str(7 * k % 16) for k in range(256))

# (argv, exit code) of --version, --help, every subcommand and mode, all three model kinds
# with --ablation, each kind of input file, full-mode simulate at perfbench's rollout-full
# shape (perfbench/workloads.py) and at N = 8, r = 2 and N = 6, r = 1, an overflowing step,
# an ill-conditioned one, three diverging training runs, an invariant violation (a token of
# the witness task with no Cayley generator) and twelve usage errors
CATALOGUE = (
    (["gen-task", "--n", "2", "--seed", "0"], 0),
    (["gen-task", "--n", "3", "--seed", "1", "--filler-length", "0"], 0),
    (["gen-task", "--n", "2", "--reference"], 0),
    (["verify-separation", "--n", "2", "--seed", "0", "--audits", "8"], 0),
    (["verify-separation", "--task", "{task}", "--audits", "4"], 0),
    (["simulate", "--mode", "task", "--n", "2", "--tokens", "0,2,2,1"], 0),
    (["simulate", "--task", "{task}", "--tokens-file", "{tokens}"], 0),
    (["simulate", "--task", "{witness}", "--tokens", "0,4"], 1),  # W1 has an eigenvalue at -1
    (["simulate", "--mode", "full", "--n", "6", "--r", "2", "--d", "3", "--v", "6",
      "--tokens", "0,1,2,1"], 0),
    (["simulate", "--mode", "full", "--checkpoint", "{model}", "--tokens", "0,1,1,0"], 0),
    (["simulate", "--mode", "full", "--n", "64", "--r", "4", "--d", "8", "--v", "64", "--seed",
      "1234", "--tokens", ROLLOUT_TOKENS], 0),
    (["simulate", "--mode", "full", "--n", "8", "--r", "2", "--d", "3", "--v", "9", "--seed", "2",
      "--tokens", "0,3,1,2,3,0,1,1,2,0,3,2"], 0),
    (["simulate", "--mode", "full", "--n", "6", "--r", "1", "--d", "4", "--v", "6", "--seed", "1",
      "--tokens", "2,0,1,1,0,2,2,1"], 0),
    (["simulate", "--mode", "full", "--tokens", "0,1,0,2", "--dt", "1e300"], 0),
    (["simulate", "--mode", "full", "--checkpoint", "{blown_up_model}", "--tokens", "0,0,1,0"], 3),
    (["simulate", "--config", "{config}", "--tokens", "1,0,2"], 0),
    (["train", "--n", "2", "--model-kind", "cusm-trainable", "--seeds", "2", "--epochs", "5",
      "--ablation"], 0),
    (["train", "--n", "2", "--model-kind", "rosm", "--dim", "2", "--seeds", "2", "--epochs", "5",
      "--ablation"], 0),
    (["train", "--n", "2", "--model-kind", "full", "--seeds", "1", "--epochs", "3",
      "--ablation"], 0),
    (["train", "--task", "{task}", "--model-kind", "rosm", "--dim", "1", "--seeds", "1",
      "--epochs", "5"], 0),
    (["train", "--n", "2", "--model-kind", "full", "--seeds", "1", "--epochs", "3",
      "--lr", "1e300"], 3),
    (["train", "--n", "2", "--model-kind", "rosm", "--dim", "2", "--seeds", "1", "--epochs", "30",
      "--lr", "1e300"], 3),
    (["train", "--n", "2", "--model-kind", "rosm", "--dim", "3", "--seeds", "2", "--epochs", "30",
      "--lr", "1e300"], 3),  # a singular Cayley system: LinAlgError from linalg_solve
    (["--version"], 0),
    (["simulate", "--help"], 0),
    ([], 2),
    (["gen-task", "--n", "1"], 2),
    (["gen-task", "--bogus"], 2),
    (["simulate", "--mode", "task", "--n", "2"], 2),
    (["simulate", "--tokens", "0", "--tokens-file", "{tokens}"], 2),
    (["simulate", "--mode", "task", "--tokens", "0", "--checkpoint", "{model}"], 2),
    (["simulate", "--mode", "task", "--n", "2", "--tokens", "0,9"], 2),
    (["simulate", "--mode", "full", "--n", "6", "--r", "2", "--tokens", "0,1,2"], 2),
    (["train", "--n", "2", "--model-kind", "rosm", "--seeds", "1"], 2),
    (["verify-separation", "--task", "{missing}"], 2),
    (["verify-separation", "--task", "{bad_config}"], 2),
    (["train", "--config", "{bad_config}"], 2),
)

# train of all three kinds at n = 2 and 3 on task seeds 0 and 1: rosm at --dim 1, 2
# and 4, and cusm-trainable with and without --ablation; then each kind at --dim 4 with
# lr 0.05, whose two seeds each stop early, within 64-84 of their 3000 epochs; then the argvs
# of perfbench's train-full and separation-study ops
TRAINING = tuple(
    (["train", "--n", str(n), "--seed", str(seed), "--seeds", "2", "--epochs", "200", *extra], 0)
    for n in (2, 3) for seed in (0, 1) for extra in (
        ["--model-kind", "cusm-trainable"],
        ["--model-kind", "cusm-trainable", "--ablation"],
        ["--model-kind", "rosm", "--dim", "1"],
        ["--model-kind", "rosm", "--dim", "2"],
        ["--model-kind", "rosm", "--dim", "4"],
        ["--model-kind", "full"],
    )) + tuple(
    (["train", "--n", "2", "--dim", "4", "--lr", "0.05", "--epochs", "3000", "--seeds", "2",
      "--model-kind", kind], 0) for kind in ("cusm-trainable", "rosm", "full")) + tuple(
    # perfbench's argvs (perfbench/workloads.py): train-full on task seeds 3 and 17, and one
    # separation-study op on task seed 5, whose task file is the input `task3`
    (["train", "--n", "3", "--model-kind", "full", "--seeds", "1", "--epochs", "10", "--seed",
      seed], 0) for seed in ("3", "17")) + (
    (["gen-task", "--n", "3", "--seed", "5"], 0),
    (["verify-separation", "--task", "{task3}", "--audits", "50", "--seed", "5"], 0),
    (["train", "--task", "{task3}", "--model-kind", "cusm-trainable", "--ablation", "--seeds", "1",
      "--epochs", "20"], 0),
) + tuple((["train", "--task", "{task3}", "--model-kind", "rosm", "--dim", dim, "--seeds", "1",
            "--epochs", "20"], 0) for dim in ("1", "2", "4", "6"))


def input_paths(directory: Path) -> dict:
    """name -> path in directory of each input file that CATALOGUE names."""
    return {name: str(Path(directory) / f"{name}.json") for name in
            ("task", "task3", "witness", "model", "blown_up_model", "tokens", "config",
             "bad_config", "missing")}


def write_inputs(directory: Path) -> dict:
    """The input files that CATALOGUE names, written into directory, except `missing`,
    which stays absent: input_paths(directory)."""
    from cusm.hamgen import init_full_model, save_model
    from cusm.septask import make_task, save_task

    files = input_paths(directory)
    save_task(make_task(2, seed=0), files["task"])
    save_task(make_task(3, seed=5), files["task3"])
    save_task(make_task(2, seed=0, reference=True), files["witness"])
    save_model(init_full_model(n=3, r=2, d=2, v=4, v_in=3, seed=1), files["model"])
    # token 1 sets column 0 of Phi to 1e7 (1 + i): a Gram condition of 3e14
    model = init_full_model(n=3, r=2, d=1, v=4, v_in=2, seed=0, hidden=[])
    model.mlp.weights[0][:] = 0.0
    model.mlp.weights[0][: 2 * model.n, 0] = 1e7
    model.embed[:] = [[0.0], [1.0]]
    save_model(model, files["blown_up_model"])
    for name, doc in (("tokens", [0, 2, 2, 1]), ("bad_config", {"schema_version": 1, "bogus": 1}),
                      ("config", {"schema_version": 1, "mode": "full", "n": 3, "r": 2, "d": 2,
                                  "v": 4, "seed": 5})):
        Path(files[name]).write_text(json.dumps(doc))
    return files


def run(argvs, files: dict, output_root: Path) -> list:
    """Each argv, its `{name}` arguments filled from files, through cli.main in its own
    CUSM_OUTPUT_DIR output_root/runNN; per run its argv, exit code, stdout, stderr and the
    messages of the warnings it raised."""
    from cusm import cli

    results = []
    for k, argv in enumerate(argvs):
        argv = [arg.format(**files) for arg in argv]
        os.environ[cli.OUTPUT_DIR_ENV] = str(Path(output_root) / f"run{k:02d}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # --help and --version
                code = exc.code
        results.append({"argv": argv, "exit": code, "stdout": out.getvalue(),
                        "stderr": err.getvalue(),
                        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught]})
    del os.environ[cli.OUTPUT_DIR_ENV]
    return results

"""Command-line entry point.

Subcommands wire the library into reproducible experiments: task generation
with rank certificates, separation verification, trajectory simulation with
current diagnostics, the training drivers, and a solver benchmark. Reports
are JSON, time series are CSV, and every report embeds the seed, the
effective configuration, the library version, and the tolerance values, so
a run can be reproduced bit-for-bit on one platform.

Exit codes: 0 success, 1 invariant violation, 2 usage or configuration
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .codec import SCHEMA_VERSION, read_json
from .dynamics import (
    InteractionFactors,
    cayley_step_dense,
    cayley_step_woodbury,
    evolve_fixed_batch,
    evolve_fixed_unitaries,
    evolve_full_model,
)
from .exceptions import ConfigurationError, CusmError, IllConditionedStepError, VocabularyError
from .hamgen import init_full_model, load_model
from .numerics import make_rng, ginibre
from .readout import born_probabilities, project_measurement
from .currents import midpoint_current, total_current
from .septask import (
    build_exact_cusm,
    check_separation_ranks,
    load_task,
    make_task,
    n2_reference_config,
    random_rosm,
    save_task,
    softmax_rank_audit,
    target_table,
)
from .train import (
    OptimizerConfig,
    entropy_floor,
    exact_cusm_report,
    readout_ablation,
    train_on_task,
)

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

OUTPUT_DIR_ENV = "CUSM_OUTPUT_DIR"

TOLERANCES = {
    "rank_tolerance": 1e-10,
    "reproduction_tolerance": 1e-10,
    "balance_tolerance": 1e-11,
    "norm_tolerance": 1e-10,
}


def _output_dir(args) -> str:
    out = getattr(args, "output_dir", None) or os.environ.get(OUTPUT_DIR_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".{os.path.basename(path)}.tmp.{os.getpid()}")
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_json(path: str, doc: dict) -> None:
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True))


def _write_csv(path: str, header: list, rows: list) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue())


def _envelope(args, seed=None) -> dict:
    config = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    return {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "seed": seed,
        "config": config,
        "tolerances": TOLERANCES,
    }


def _load_config_defaults(parser: argparse.ArgumentParser, argv: list) -> list:
    """Apply a JSON config file as defaults; explicit flags still win because
    argparse only falls back to defaults for absent flags."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if known.config:
        doc = read_json(known.config)
        del doc["schema_version"]
        subs = parser._subparsers._group_actions[0].choices.values()
        options = {action.dest for sub in subs for action in sub._actions}
        unknown = sorted(set(doc) - options)
        if unknown:
            raise ConfigurationError(f"config key {unknown[0]!r} is no option of any subcommand")
        for sub in subs:
            sub.set_defaults(**doc)
    return argv


def _parse_tokens(args) -> list:
    if args.tokens is not None:
        tokens = [int(x) for x in args.tokens.split(",") if x.strip() != ""]
    elif args.tokens_file is not None:
        with open(args.tokens_file) as fh:
            tokens = [int(x) for x in json.load(fh)]
    else:
        raise ConfigurationError("provide --tokens or --tokens-file")
    if not tokens:
        raise ConfigurationError("the token list is empty")
    negative = [tok for tok in tokens if tok < 0]
    if negative:
        raise ConfigurationError(f"token ids must be >= 0, got {negative[0]}")
    return tokens


def _task(args):
    """The task of --task, or one made from --n, --seed and, where the command
    has them, --filler-length and --reference."""
    if getattr(args, "task", None) is not None:
        return load_task(args.task)
    if args.n < 2:
        raise ConfigurationError(f"--n must be >= 2, got {args.n}")
    return make_task(args.n, args.seed, filler_length=getattr(args, "filler_length", 1),
                     reference=getattr(args, "reference", False))


# ---------------------------------------------------------------------------

def cmd_gen_task(args) -> int:
    out = _output_dir(args)
    task = _task(args)
    table = target_table(task)
    ranks = check_separation_ranks(table, task.n)
    task_path = os.path.join(out, f"task_n{task.n}_seed{task.seed}.json")
    save_task(task, task_path)
    certificate = _envelope(args, seed=task.seed)
    certificate.update({
        "task_file": task_path,
        "certificate_rank": task.certificate_rank,
        "measurement_rank": task.measurement_rank,
        "rank_P": ranks["rank_P"],
        "rank_L": ranks["rank_L"],
        "min_pstar_entry": table.min_entry,
        "general_position": bool(task.certificate_rank == task.n ** 2),
    })
    if args.reference:
        certificate["det"] = n2_reference_config()["detR"]
    cert_path = os.path.join(out, f"task_n{task.n}_seed{task.seed}.certificate.json")
    _write_json(cert_path, certificate)
    print(f"wrote {task_path}")
    print(f"wrote {cert_path}")
    if not certificate["general_position"] or ranks["rank_P"] != task.n ** 2:
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_verify_separation(args) -> int:
    out = _output_dir(args)
    task = _task(args)
    table = target_table(task)
    ranks = check_separation_ranks(table, task.n)

    cusm = build_exact_cusm(task)
    final = evolve_fixed_batch(cusm.unitaries, cusm.psi0, task.sequences())[-1]
    max_err = float(np.abs(born_probabilities(cusm.measurement, final.T).T - table.pstar).max())

    violations = 0
    audits = []
    rng = make_rng(args.seed, stream=900)
    for k in range(args.audits):
        d = int(rng.choice([1, 2, 4, 8]))
        rosm = random_rosm(d, task, seed=args.seed * 1000 + k)
        audit = softmax_rank_audit(rosm, task)
        audits.append({"d": d, **audit})
        if not audit["satisfied"]:
            violations += 1

    report = _envelope(args, seed=task.seed)
    report.update({
        "n": task.n,
        "cusm_max_error": max_err,
        "rank_P": ranks["rank_P"],
        "rank_L": ranks["rank_L"],
        "lstar_full_rank": ranks["lstar_full_rank"],
        "entropy_floor": entropy_floor(table),
        "exact_cusm_gap": exact_cusm_report(task).gap,
        "rosm_audit_violations": violations,
        "rosm_audits": audits,
    })
    if args.rosm_dims:
        dims = [int(x) for x in args.rosm_dims.split(",")]
        config = OptimizerConfig(epochs=args.epochs)
        sweep = []
        for d in dims:
            reports = train_on_task(task, "rosm", dim=d, config=config,
                                    seeds=tuple(range(args.seeds)))
            sweep.append({
                "d": d,
                "gaps": [r.gap for r in reports],
                "best_gap": min(r.gap for r in reports),
            })
        report["rosm_gap_sweep"] = sweep
    path = os.path.join(out, f"separation_n{task.n}_seed{task.seed}.json")
    _write_json(path, report)
    print(f"wrote {path}")
    if max_err > TOLERANCES["reproduction_tolerance"] or ranks["rank_P"] != task.n ** 2:
        return EXIT_INVARIANT
    if violations > 0:
        return EXIT_INVARIANT
    return EXIT_OK


def _inverse_cayley(w: np.ndarray, dt: float) -> np.ndarray:
    """Recover the Hermitian generator of a fixed unitary step:
    H = -(2i/dt) (I - W)(I + W)^{-1}."""
    n = w.shape[0]
    eye = np.eye(n)
    k = np.linalg.solve((eye + w).conj().T, (eye - w).conj().T).conj().T
    h = (-2j / dt) * k
    return 0.5 * (h + h.conj().T)  # symmetrize away rounding


def cmd_simulate(args) -> int:
    out = _output_dir(args)
    tokens = _parse_tokens(args)
    dt = args.dt
    rows = []
    if args.mode == "task":
        cusm = build_exact_cusm(_task(args))
        traj = evolve_fixed_unitaries(cusm.unitaries, cusm.psi0, tokens)
        hams = [_inverse_cayley(u, dt) for u in cusm.unitaries]
        step_hams = [hams[tok] for tok in tokens]
        states = traj
    else:
        if args.checkpoint is not None:
            model = load_model(args.checkpoint)
        else:
            model = init_full_model(n=args.n, r=args.r, d=args.d, v=args.v,
                                    v_in=max(tokens) + 1, dt=dt, seed=args.seed)
        dt = model.dt
        states, factor_log, _ = evolve_full_model(model, tokens)
        step_hams = [f.materialize() for f in factor_log]

    max_balance = 0.0
    max_norm_dev = 0.0
    for t, h in enumerate(step_hams):
        pre, post = states[t], states[t + 1]
        j_mid = midpoint_current(h, pre, post)
        dp = np.abs(post) ** 2 - np.abs(pre) ** 2
        balance = float(np.abs(dp - dt * j_mid.sum(axis=1)).max())
        norm = float(np.linalg.norm(post))
        max_balance = max(max_balance, balance)
        max_norm_dev = max(max_norm_dev, abs(norm - 1.0))
        rows.append([t + 1, tokens[t], f"{norm:.15f}",
                     f"{total_current(j_mid):.15e}", f"{balance:.15e}"])

    csv_path = os.path.join(out, "trajectory.csv")
    _write_csv(csv_path, ["step", "token", "norm", "total_current", "balance_residual"], rows)
    report = _envelope(args, seed=args.seed)
    report.update({
        "steps": len(tokens),
        "max_balance_residual": max_balance,
        "max_norm_deviation": max_norm_dev,
        "csv": csv_path,
    })
    json_path = os.path.join(out, "trajectory.json")
    _write_json(json_path, report)
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    if max_balance > TOLERANCES["balance_tolerance"] or max_norm_dev > TOLERANCES["norm_tolerance"]:
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_train(args) -> int:
    out = _output_dir(args)
    task = _task(args)
    config = OptimizerConfig(lr=args.lr, epochs=args.epochs,
                             early_stop_gap=args.early_stop_gap)
    seeds = tuple(range(args.seeds))
    reports = train_on_task(task, args.model_kind, dim=args.dim,
                            config=config, seeds=seeds)
    paths = []
    for rep in reports:
        doc = _envelope(args, seed=rep.seed)
        doc.update({
            "model_kind": rep.model_kind, "dim": rep.dim,
            "final_nll": rep.final_nll, "entropy_floor": rep.entropy_floor,
            "gap": rep.gap, "gap_zero": rep.gap_zero, "stopped": rep.stopped,
            "wall_clock": rep.wall_clock, "warning_count": rep.warning_count,
            "extra": rep.extra,
        })
        path = os.path.join(out, f"train_{rep.model_kind}_seed{rep.seed}.json")
        _write_json(path, doc)
        paths.append(path)
        trace_path = os.path.join(out, f"train_{rep.model_kind}_seed{rep.seed}_trace.csv")
        _write_csv(trace_path,
                   ["epoch", "mean_nll", "gap"],
                   [[e, f"{nll:.15e}", f"{nll - rep.entropy_floor:.15e}"]
                    for e, nll in enumerate(rep.loss_trace)])
    gaps = np.array([rep.gap for rep in reports])
    aggregate = _envelope(args)
    aggregate.update({
        "model_kind": args.model_kind,
        "seeds": list(seeds),
        "gap_mean": float(gaps.mean()),
        "gap_std": float(gaps.std()),
        "gap_best": float(gaps.min()),
        "any_gap_zero": bool(any(rep.gap_zero for rep in reports)),
        "reports": paths,
    })
    if args.ablation:
        eval_set = list(zip(task.sequences(), target_table(task).pstar))
        aggregate["ablation"] = readout_ablation(build_exact_cusm(task), eval_set)
    agg_path = os.path.join(out, f"train_{args.model_kind}_aggregate.json")
    _write_json(agg_path, aggregate)
    print(f"wrote {agg_path}")
    return EXIT_OK


def _time_step(step_fn, repeats: int, inner: int = 3) -> float:
    step_fn()  # warmup (allocation, BLAS thread pool)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            step_fn()
        times.append((time.perf_counter() - start) / inner)
    return float(min(times))


def cmd_bench(args) -> int:
    out = _output_dir(args)
    sizes = [int(x) for x in args.sizes.split(",")]
    ranks = [int(x) for x in args.ranks.split(",")]
    rng = make_rng(args.seed, stream=777)
    grid = []
    # the fast path is timed on a batch of state columns so the measurement is
    # linear-algebra work rather than Python call overhead; the dense path is
    # timed on a single state so its cubic factorization cost dominates
    batch = args.batch
    for n in sizes:
        for r in ranks:
            phi = ginibre(rng, n, r)
            delta = rng.standard_normal(n)
            factors = InteractionFactors(phi=phi, delta=delta)
            psi = ginibre(rng, n, batch)
            psi /= np.linalg.norm(psi, axis=0)
            entry = {"n": n, "r": r, "batch": batch, "dense_batch": args.dense_batch}
            entry["woodbury_s"] = _time_step(
                lambda: cayley_step_woodbury(factors, psi, args.dt), args.repeats)
            h = factors.materialize()
            psi_d = ginibre(rng, n, args.dense_batch)
            psi_d /= np.linalg.norm(psi_d, axis=0)
            entry["dense_s"] = _time_step(
                lambda: cayley_step_dense(h, psi_d, args.dt), args.repeats)
            grid.append(entry)
    report = _envelope(args, seed=args.seed)
    report["grid"] = grid
    path = os.path.join(out, "bench.json")
    _write_json(path, report)
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cusm",
        description="Complex-unitary sequence model experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--output-dir", help=f"defaults to ${OUTPUT_DIR_ENV} or .")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gen-task", help="generate a task instance with certificates")
    common(p)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--filler-length", type=int, default=1)
    p.add_argument("--reference", action="store_true",
                   help="use the explicit N=2 witness configuration")
    p.set_defaults(func=cmd_gen_task)

    p = sub.add_parser("verify-separation", help="rank audits and exact reproduction check")
    common(p)
    p.add_argument("--task", help="task JSON file; otherwise generated from --n/--seed")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--filler-length", type=int, default=1)
    p.add_argument("--audits", type=int, default=50)
    p.add_argument("--rosm-dims", help="comma list of baseline dimensions to train")
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--seeds", type=int, default=3)
    p.set_defaults(func=cmd_verify_separation)

    p = sub.add_parser("simulate", help="run a trajectory and emit current diagnostics")
    common(p)
    p.add_argument("--mode", choices=["task", "full"], default="task")
    p.add_argument("--task", help="task JSON file (task mode)")
    p.add_argument("--checkpoint", help="model JSON file (full mode)")
    p.add_argument("--tokens", help="comma-separated token ids")
    p.add_argument("--tokens-file", help="JSON array of token ids")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--v", type=int, default=4)
    p.add_argument("--dt", type=float, default=1.0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train a model on a task, one report per seed")
    common(p)
    p.add_argument("--task", help="task JSON file; otherwise generated from --n/--seed")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--model-kind", choices=["cusm-trainable", "rosm", "full"],
                   default="cusm-trainable")
    p.add_argument("--dim", type=int)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--epochs", type=int, default=2000)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--early-stop-gap", type=float, default=1e-4)
    p.add_argument("--ablation", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("bench", help="time Woodbury vs dense steps over an (N, r) grid")
    common(p)
    p.add_argument("--sizes", default="64,128,256,512")
    p.add_argument("--ranks", default="4")
    p.add_argument("--batch", type=int, default=256)
    p.add_argument("--dense-batch", type=int, default=1)
    p.add_argument("--repeats", type=int, default=15)
    p.add_argument("--dt", type=float, default=1.0)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _load_config_defaults(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except IllConditionedStepError as exc:
        where = f" at step {exc.step}" if exc.step is not None else ""
        print(f"numerical failure{where}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigurationError, VocabularyError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CusmError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())

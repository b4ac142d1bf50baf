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
import math
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
    evolve_full_batch,
)
from .exceptions import (
    ConfigurationError,
    CusmError,
    IllConditionedStepError,
    NonHermitianError,
    VocabularyError,
)
from .hamgen import init_full_model, load_model
from .numerics import make_rng, ginibre
from .readout import born_probabilities, project_measurement
from .currents import factor_current_rows, factor_total_current, midpoint_current, total_current
from .septask import (
    build_exact_cusm,
    check_separation_ranks,
    load_task,
    make_task,
    n2_reference_config,
    random_rosm,
    save_task,
    softmax_rank_audits,
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

# the baseline dimensions that verify-separation draws its audits from
AUDIT_DIMS = (1, 2, 4, 8)
# simulate's model flags and their defaults; a --checkpoint fixes all of them
SIMULATE_MODEL_DEFAULTS = {"n": 2, "r": 1, "d": 4, "v": 4, "dt": 1.0}

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
        for action in (action for sub in subs for action in sub._actions):
            if action.dest in doc:
                doc[action.dest] = _config_value(action, doc[action.dest])
        for sub in subs:
            sub.set_defaults(**doc)
    return argv


def _config_value(action: argparse.Action, value):
    """A config value checked as argparse checks a flag's text: true or false
    for a flag without an argument, else a string or number put through the
    flag's type and choices; null leaves an option without a default unset."""
    if value is None and action.default is None:
        return None
    if action.nargs == 0:
        if isinstance(value, bool):
            return value
    elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
        try:
            converted = (action.type or str)(str(value))
        except (ValueError, argparse.ArgumentTypeError):
            converted = None
        if converted is not None and (action.choices is None or converted in action.choices):
            return converted
    raise ConfigurationError(f"config key {action.dest!r}: invalid value {value!r}")


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ConfigurationError, so that main() reports a bad
    flag like every other usage error: one message line and exit code 2."""

    def error(self, message):
        raise ConfigurationError(message)


def _at_least(minimum, values: list) -> list:
    """values, if it is not empty and no entry is below minimum."""
    if not values:
        raise argparse.ArgumentTypeError("the list is empty")
    low = [v for v in values if not v >= minimum]
    if low:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {low[0]}")
    return values


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None


def _int_at_least(minimum: int):
    """argparse type: one integer >= minimum."""
    return lambda text: _at_least(minimum, [_integer(text)])[0]


def _int_list(minimum: int):
    """argparse type: a comma list of integers, each >= minimum; blank items are
    skipped and at least one integer must remain."""
    return lambda text: _at_least(minimum, [_integer(x) for x in text.split(",") if x.strip()])


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None


def _float_at_least(minimum: float):
    """argparse type: one number >= minimum."""
    return lambda text: _at_least(minimum, [_number(text)])[0]


def _positive_float(text: str) -> float:
    value = _number(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    if value == math.inf:
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _parse_tokens(args) -> list:
    """The token ids of --tokens, or of --tokens-file, a JSON array of integers >= 0."""
    if args.tokens is not None:
        return args.tokens
    if args.tokens_file is None:
        raise ConfigurationError("provide --tokens or --tokens-file")
    with open(args.tokens_file) as fh:
        tokens = json.load(fh)
    if not isinstance(tokens, list) or not all(type(tok) is int for tok in tokens):
        raise ConfigurationError(f"{args.tokens_file} does not hold a JSON array of integers")
    try:
        return _at_least(0, tokens)
    except argparse.ArgumentTypeError as exc:
        raise ConfigurationError(f"token ids in {args.tokens_file}: {exc}") from None


def _task(args):
    """The task of --task, or one made from --n, --seed and, where the command
    has them, --filler-length and --reference."""
    if getattr(args, "task", None) is not None:
        return load_task(args.task)
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

    # one rng.integers draw per audit, the stream rng.choice(AUDIT_DIMS) draws
    rng = make_rng(args.seed, stream=900)
    dims = [AUDIT_DIMS[rng.integers(len(AUDIT_DIMS))] for _ in range(args.audits)]
    rosms = [random_rosm(d, task, seed=args.seed * 1000 + k) for k, d in enumerate(dims)]
    audits = [{"d": d, **audit} for d, audit in zip(dims, softmax_rank_audits(rosms, task))]
    violations = sum(not audit["satisfied"] for audit in audits)

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
        config = OptimizerConfig(epochs=args.epochs)
        sweep = []
        for d in args.rosm_dims:
            reports = train_on_task(task, "rosm", dim=d, config=config, seeds=range(args.seeds))
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
    if args.mode == "full" and args.checkpoint is not None:
        given = [key for key in SIMULATE_MODEL_DEFAULTS if getattr(args, key) is not None]
        if given:
            raise ConfigurationError(f"--{given[0]} does not apply with --checkpoint, "
                                     "whose model fixes it")
    else:
        for key, default in SIMULATE_MODEL_DEFAULTS.items():
            if getattr(args, key) is None:
                setattr(args, key, default)
    out = _output_dir(args)
    tokens = _parse_tokens(args)
    report = _envelope(args, seed=args.seed)
    if args.mode == "task":
        # --n is also the full model's dimension, so the flag's type allows 1
        if args.task is None and args.n < 2:
            raise ConfigurationError(f"--n must be >= 2 in task mode, got {args.n}")
        dt = args.dt
        cusm = build_exact_cusm(_task(args))
        states = np.stack(evolve_fixed_unitaries(cusm.unitaries, cusm.psi0, tokens))
        hams = [_inverse_cayley(u, dt) for u in cusm.unitaries]
        currents = [midpoint_current(hams[tok], states[t], states[t + 1])
                    for t, tok in enumerate(tokens)]
        row_sums = np.array([j.sum(axis=1) for j in currents])
        totals = np.array([total_current(j) for j in currents])
    else:
        if args.checkpoint is not None:
            model = load_model(args.checkpoint)
        else:
            model = init_full_model(n=args.n, r=args.r, d=args.d, v=args.v,
                                    v_in=max(tokens) + 1, dt=args.dt, seed=args.seed)
        dt = model.dt
        report["model"] = {"n": model.n, "r": model.r, "d": model.d, "v": model.v,
                           "v_in": model.v_in, "dt": dt}
        states, factor_log, _, _ = evolve_full_batch(model, np.asarray([tokens]))
        states = np.concatenate(states)
        phi = np.concatenate([f.phi for f in factor_log])
        # H = Phi Phi^dag + diag(delta) is Hermitian exactly when delta is real
        if any(np.iscomplexobj(f.delta) for f in factor_log):
            raise NonHermitianError("the diagonal shift delta is not real")
        cbar = 0.5 * (states[:-1] + states[1:])
        row_sums, totals = factor_current_rows(phi, cbar), factor_total_current(phi, cbar)

    dp = np.abs(states[1:]) ** 2 - np.abs(states[:-1]) ** 2
    balances = np.abs(dp - dt * row_sums).max(axis=1)
    # one vector norm per state: a norm over an axis sums in another order
    norms = np.array([np.linalg.norm(psi) for psi in states[1:]])
    max_balance = float(balances.max())
    max_norm_dev = float(np.abs(norms - 1.0).max())
    rows = [[t + 1, tok, f"{norm:.15f}", f"{total:.15e}", f"{balance:.15e}"]
            for t, (tok, norm, total, balance) in enumerate(zip(tokens, norms, totals, balances))]

    csv_path = os.path.join(out, "trajectory.csv")
    _write_csv(csv_path, ["step", "token", "norm", "total_current", "balance_residual"], rows)
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
    seeds = range(args.seeds)
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
        aggregate["ablation"] = readout_ablation(build_exact_cusm(task), task.sequences(),
                                                 target_table(task).pstar)
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
    rng = make_rng(args.seed, stream=777)
    grid = []
    # the fast path is timed on a batch of state columns so the measurement is
    # linear-algebra work rather than Python call overhead; the dense path is
    # timed on a single state so its cubic factorization cost dominates
    batch = args.batch
    for n in args.sizes:
        for r in args.ranks:
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
    parser = _Parser(
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
    p.add_argument("--n", type=_int_at_least(2), default=2)
    p.add_argument("--filler-length", type=_int_at_least(0), default=1)
    p.add_argument("--reference", action="store_true",
                   help="use the explicit N=2 witness configuration")
    p.set_defaults(func=cmd_gen_task)

    p = sub.add_parser("verify-separation", help="rank audits and exact reproduction check")
    common(p)
    p.add_argument("--task", help="task JSON file; otherwise generated from --n/--seed")
    p.add_argument("--n", type=_int_at_least(2), default=2)
    p.add_argument("--filler-length", type=_int_at_least(0), default=1)
    p.add_argument("--audits", type=_int_at_least(0), default=50)
    p.add_argument("--rosm-dims", type=_int_list(1),
                   help="comma list of baseline dimensions to train")
    p.add_argument("--epochs", type=_int_at_least(1), default=500)
    p.add_argument("--seeds", type=_int_at_least(1), default=3)
    p.set_defaults(func=cmd_verify_separation)

    p = sub.add_parser("simulate", help="run a trajectory and emit current diagnostics")
    common(p)
    p.add_argument("--mode", choices=["task", "full"], default="task")
    p.add_argument("--task", help="task JSON file (task mode)")
    p.add_argument("--checkpoint", help="model JSON file (full mode)")
    p.add_argument("--tokens", type=_int_list(0), help="comma-separated token ids")
    p.add_argument("--tokens-file", help="JSON array of token ids")
    # defaults in SIMULATE_MODEL_DEFAULTS, so that a flag given with --checkpoint shows
    p.add_argument("--n", type=_int_at_least(1))
    p.add_argument("--r", type=_int_at_least(1))
    p.add_argument("--d", type=_int_at_least(1))
    p.add_argument("--v", type=_int_at_least(1))
    p.add_argument("--dt", type=_positive_float)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train a model on a task, one report per seed")
    common(p)
    p.add_argument("--task", help="task JSON file; otherwise generated from --n/--seed")
    p.add_argument("--n", type=_int_at_least(2), default=2)
    p.add_argument("--model-kind", choices=["cusm-trainable", "rosm", "full"],
                   default="cusm-trainable")
    p.add_argument("--dim", type=_int_at_least(1),
                   help="state dimension; defaults to the task's n, and rosm needs it")
    p.add_argument("--seeds", type=_int_at_least(1), default=5)
    p.add_argument("--epochs", type=_int_at_least(1), default=2000)
    p.add_argument("--lr", type=_positive_float, default=1e-3)
    p.add_argument("--early-stop-gap", type=_float_at_least(0.0), default=1e-4)
    p.add_argument("--ablation", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("bench", help="time Woodbury vs dense steps over an (N, r) grid")
    common(p)
    p.add_argument("--sizes", type=_int_list(1), default="64,128,256,512")
    p.add_argument("--ranks", type=_int_list(1), default="4")
    p.add_argument("--batch", type=_int_at_least(1), default=256)
    p.add_argument("--dense-batch", type=_int_at_least(1), default=1)
    p.add_argument("--repeats", type=_int_at_least(1), default=15)
    p.add_argument("--dt", type=_positive_float, default=1.0)
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

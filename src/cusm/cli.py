"""Command-line entry point.

Subcommands wire the library into reproducible experiments: task generation
with rank certificates, separation verification, trajectory simulation with
current diagnostics, and the training drivers. Reports are JSON, time series
are CSV, and every report embeds the seed, the effective configuration, the
library version, and the tolerance values, so a run can be reproduced
bit-for-bit on one platform.

One table, FLAGS, holds every flag with the condition under which a run reads
it; the parser, the defaults, the "does not apply" errors and --help come from
it. main() parses argv once, with a parser built once per process that nothing
changes; a --config file's keys then fill, by row, the flags argv left unset.
A key of the chosen subcommand is converted by its own flag's type or choices;
a key that only other subcommands have is checked by theirs but neither set nor
echoed; a key that names no option of any subcommand (`help` is none), or a
value its flag rejects, is an error, reported after any error of argv. When
--tokens and --tokens-file both come, by flag or by key, the error names the
later one, counting the config's keys in file order before argv's flags.

Exit codes: 0 success, 1 invariant violation, 2 usage or configuration
error, 3 numerical failure, which also writes failure.json.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import json
import os
import sys
import textwrap
from collections import namedtuple

import numpy as np

from . import __version__
from .codec import SCHEMA_VERSION, atomic_write, load_json, read_json
from .dynamics import (REPRODUCTION_TOL, CayleyStepReport, evolve_fixed_batch, evolve_full_batch,
                       inverse_cayley)
from .exceptions import (
    NUMERICAL_FAILURES,
    ConfigurationError,
    CusmError,
    InvalidDimensionError,
    VocabularyError,
)
from .hamgen import init_full_model, load_model
from .numerics import DEFAULT_RANK_TOL, make_rng
from .currents import continuity_balance, factor_currents, midpoint_current, total_current
from .septask import (
    AUDIT_RANK_TOL,
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
from .train import MODEL_KINDS, OptimizerConfig, exact_cusm_report, train_on_task

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

OUTPUT_DIR_ENV = "CUSM_OUTPUT_DIR"

# the baseline dimensions that verify-separation draws its audits from
AUDIT_DIMS = (1, 2, 4, 8)

TOLERANCES = {
    "rank_tolerance": DEFAULT_RANK_TOL,
    "audit_rank_tolerance": AUDIT_RANK_TOL,
    "reproduction_tolerance": REPRODUCTION_TOL,
    "balance_tolerance": 1e-11,
    "norm_tolerance": 1e-10,
}


def _output_dir(args) -> str:
    out = getattr(args, "output_dir", None) or os.environ.get(OUTPUT_DIR_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_json(path: str, doc: dict) -> None:
    atomic_write(path, json.dumps(doc, indent=2, sort_keys=True))


def _write_csv(path: str, header: list, rows: list) -> None:
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    atomic_write(path, buf.getvalue())


def _write_report(args, name: str, fields: dict, seed=None) -> str:
    """Write a command's fields under the envelope (schema and library version,
    seed, effective flags, tolerances) as `name` in the output directory."""
    path = os.path.join(_output_dir(args), name)
    config = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    _write_json(path, {"schema_version": SCHEMA_VERSION, "version": __version__, "seed": seed,
                       "config": config, "tolerances": TOLERANCES, **fields})
    return path


def _write_failure(args, exc) -> None:
    """failure.json for a numerical failure: the exception's type and message, its step
    and its CayleyStepReport's fields, null where absent (a NaN field was not computed),
    and for train the model kind, seed and epoch that it carries."""
    report = getattr(exc, "report", None)
    fields = {"exception": type(exc).__name__, "message": str(exc),
              "step": getattr(exc, "step", None)}
    for name in (field.name for field in dataclasses.fields(CayleyStepReport)):
        value = getattr(report, name, None)
        fields[name] = None if value is None or np.isnan(value) else float(value)
    if args.command == "train":
        fields.update({key: getattr(exc, key, None) for key in ("model_kind", "seed", "epoch")})
    # the failure stays exit 3 with its one stderr line when its record cannot be written
    with contextlib.suppress(OSError):
        _write_report(args, "failure.json", fields)


def _merge_config(args) -> None:
    """Fill the flags that argv left unset from the --config file's keys. A key
    converts through its row of the chosen subcommand, else through a row of
    another subcommand, and then is neither set nor echoed. Of two exclusive
    flags the later source is blamed, config keys in file order coming first."""
    doc = read_json(args.config)
    del doc["schema_version"]
    rows = {flag.dest: flag for flag in sorted(FLAGS, key=lambda f: args.command in f.commands)}
    unknown = sorted(set(doc) - set(rows))
    if unknown:
        raise ConfigurationError(f"config key {unknown[0]!r} is no option of any subcommand")
    values = {key: _config_value(rows[key], value) for key, value in doc.items()}
    own = {key: value for key, value in values.items()
           if value is not None and args.command in rows[key].commands}
    given = [key for key, value in vars(args).items() if value is not None]
    exclusive = [rows[key].name for key in [*own, *given] if key in rows and rows[key].one_of]
    clash = next((name for name in exclusive if name != exclusive[0]), None)
    if clash:
        raise ConfigurationError(f"argument {clash}: not allowed with argument {exclusive[0]}")
    # kept: into the namespace, never through set_defaults, which would change the shared
    # parser (tests/test_cli.py::TestConfigFile::test_config_does_not_leak_into_a_later_call)
    vars(args).update({key: value for key, value in own.items() if key not in given})


def _config_value(flag, value):
    """A config value checked as argparse checks a flag's text: a bool for a
    switch, else a string or number put through the flag's type or choices.
    None, for null or a false switch, adds nothing, as if the key were absent."""
    if value is None or flag.kind is bool and isinstance(value, bool):
        return value or None
    if flag.kind is not bool and type(value) in (str, int, float):
        choices = flag.kind if isinstance(flag.kind, tuple) else None
        try:
            converted = str(value) if choices else flag.kind(str(value))
            if not choices or converted in choices:
                return converted
        except argparse.ArgumentTypeError:
            pass
    raise ConfigurationError(f"config key {flag.dest!r}: invalid value {value!r}")


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ConfigurationError, so that main() reports a bad
    flag like every other usage error: one message line and exit code 2."""

    def error(self, message):
        raise ConfigurationError(message)


class _Formatter(argparse.HelpFormatter):
    """Wraps help at spaces only, never inside a flag's name at a hyphen."""

    def _split_lines(self, text, width):
        return textwrap.wrap(" ".join(text.split()), width, break_on_hyphens=False)


class _Bounded:
    """argparse type: an int or a float >= low, or with strict a finite one >
    low; of kind list, a comma list of ints >= low, whose blank items are
    skipped and of which one must remain. limit is the bound --help shows."""

    def __init__(self, kind, low, strict=False):
        self.kind, self.low, self.strict = kind, low, strict
        self.bound = f"{'>' if strict else '>='} {low}"
        self.limit = f"{'each ' if kind is list else ''}{self.bound}{' and finite' if strict else ''}"

    def __call__(self, text: str):
        items = [item for item in text.split(",") if item.strip()] if self.kind is list else [text]
        values = self.check([self._number(item) for item in items])
        return values if self.kind is list else values[0]

    def _number(self, text: str):
        try:
            return float(text) if self.kind is float else int(text)
        except ValueError:
            kind = "number" if self.kind is float else "integer"
            raise argparse.ArgumentTypeError(f"invalid {kind} {text!r}") from None

    def check(self, values: list) -> list:
        """values, if it is not empty and each entry meets the bound."""
        if not values:
            raise argparse.ArgumentTypeError("the list is empty")
        for value in values:
            if not (value > self.low if self.strict else value >= self.low):
                raise argparse.ArgumentTypeError(f"must be {self.bound}, got {value}")
            if self.strict and value == np.inf:
                raise argparse.ArgumentTypeError(f"must be finite, got {value}")
        return values


def _parse_tokens(args) -> list:
    """The token ids of --tokens, or of --tokens-file, a JSON array of integers >= 0."""
    if args.tokens is not None:
        return args.tokens
    tokens = load_json(args.tokens_file)
    if not isinstance(tokens, list) or not all(type(tok) is int for tok in tokens):
        raise ConfigurationError(f"{args.tokens_file} does not hold a JSON array of integers")
    try:
        return _Bounded(list, 0).check(tokens)
    except argparse.ArgumentTypeError as exc:
        raise ConfigurationError(f"token ids in {args.tokens_file}: {exc}") from None


# Conditions under which a run reads a flag: a test of the parsed arguments, what
# --help says of a run that meets it, and why a flag does not apply to one that does not.
TASK_MODE = (lambda args: args.mode == "task", "in task mode", "in full mode")
FULL_MODE = (lambda args: args.mode == "full", "in full mode", "in task mode")
NO_TASK = (lambda args: args.task is None, "without --task, whose task fixes it",
           "with --task, whose task fixes it")
NO_CHECKPOINT = (lambda args: args.checkpoint is None,
                 "without --checkpoint, whose model fixes it",
                 "with --checkpoint, whose model fixes it")
NO_FILE, MODEL = (NO_TASK, NO_CHECKPOINT), (FULL_MODE, NO_CHECKPOINT)


class Flag(namedtuple("Flag", "name commands kind default help when one_of",
                      defaults=(str, None, "", (), False))):
    """A flag of the named subcommands. kind is its argparse type, a tuple of
    choices, or bool for a switch. A run reads the flag where every condition
    of `when` holds. A subcommand needs exactly one of its `one_of` flags."""

    dest = property(lambda flag: flag.name[2:].replace("-", "_"))


GEN, VER, SIM, TRAIN = ("gen-task",), ("verify-separation",), ("simulate",), ("train",)
# A row comes after those of the flags that its conditions read, so that a flag
# of the other mode is blamed, not the flags whose conditions it fails.
FLAGS = (
    Flag("--mode", SIM, ("task", "full"), "task", "the exact model of a task, or a full model"),
    Flag("--task", VER + TRAIN, help="task JSON file; else made from --n and --seed"),
    Flag("--task", SIM, help="task JSON file; else made from --n and --seed", when=(TASK_MODE,)),
    Flag("--checkpoint", SIM, help="model JSON file; else a new model", when=(FULL_MODE,)),
    Flag("--config", GEN + VER + SIM + TRAIN, help="JSON config file; flags override it"),
    Flag("--output-dir", GEN + VER + SIM + TRAIN, help=f"defaults to ${OUTPUT_DIR_ENV} or ."),
    Flag("--seed", GEN + VER, _Bounded(int, 0), 0, "random seed"),
    Flag("--seed", TRAIN, _Bounded(int, 0), 0, "random seed", (NO_TASK,)),
    Flag("--seed", SIM, _Bounded(int, 0), 0, "random seed", NO_FILE),
    Flag("--n", GEN, _Bounded(int, 2), 2, "task size"),
    Flag("--n", VER + TRAIN, _Bounded(int, 2), 2, "task size", (NO_TASK,)),
    Flag("--n", SIM, _Bounded(int, 1), 2, "model dimension, or task size of 2 or more", NO_FILE),
    Flag("--filler-length", GEN, _Bounded(int, 0), 1, "filler tokens per sequence"),
    Flag("--filler-length", VER, _Bounded(int, 0), 1, "filler tokens per sequence", (NO_TASK,)),
    Flag("--reference", GEN, bool, False, "use the explicit N=2 witness configuration"),
    Flag("--audits", VER, _Bounded(int, 0), 50, "random baselines to audit"),
    Flag("--tokens", SIM, _Bounded(list, 0), help="comma-separated token ids", one_of=True),
    Flag("--tokens-file", SIM, help="JSON array of token ids", one_of=True),
    Flag("--r", SIM, _Bounded(int, 1), 1, "model rank", MODEL),
    Flag("--d", SIM, _Bounded(int, 1), 4, "model embedding width", MODEL),
    Flag("--v", SIM, _Bounded(int, 1), 4, "model readout size, at least --n", MODEL),
    Flag("--dt", SIM, _Bounded(float, 0, strict=True), 1.0, "time step", (NO_CHECKPOINT,)),
    Flag("--model-kind", TRAIN, MODEL_KINDS, MODEL_KINDS[0], "the model"),
    Flag("--dim", TRAIN, _Bounded(int, 1),
         help="state dimension, also the verdict's; defaults to the task's n; rosm needs it"),
    Flag("--seeds", TRAIN, _Bounded(int, 1), 5, "runs, seeded 0, 1, ..."),
    Flag("--epochs", TRAIN, _Bounded(int, 1), OptimizerConfig.epochs, "epochs per run"),
    Flag("--lr", TRAIN, _Bounded(float, 0, strict=True), OptimizerConfig.lr, "learning rate"),
    Flag("--early-stop-gap", TRAIN, _Bounded(float, 0.0), OptimizerConfig.early_stop_gap,
         "stop once the gap is below this"),
    Flag("--ablation", TRAIN, bool, False, "also report the readout ablation"),
)


def _help(flag: Flag) -> str:
    """flag's help, with its limit, its default and when a run reads it."""
    notes = [getattr(flag.kind, "limit", None),
             flag.default is not None and flag.kind is not bool and f"default {flag.default}",
             flag.when and "read " + " and ".join(met for _, met, _ in flag.when)]
    notes = "; ".join(note for note in notes if note)
    return f"{flag.help} ({notes})" if notes else flag.help


def _settle(args) -> None:
    """Apply FLAGS to a parse: a subcommand needs one of its one_of flags, a
    given flag that the run does not read is a usage error that says why, a
    read flag that was not given takes its default, and an unread flag stays
    unset, so that no report echoes it."""
    flags = [flag for flag in FLAGS if args.command in flag.commands]
    one_of = [flag for flag in flags if flag.one_of]
    if one_of and all(getattr(args, flag.dest) is None for flag in one_of):
        names = " ".join(flag.name for flag in one_of)
        raise ConfigurationError(f"one of the arguments {names} is required")
    for flag in flags:
        unmet = [unmet for holds, _, unmet in flag.when if not holds(args)]
        if unmet and getattr(args, flag.dest) is not None:
            raise ConfigurationError(f"{flag.name} does not apply {unmet[0]}")
        if not unmet and getattr(args, flag.dest) is None:
            setattr(args, flag.dest, flag.default)


def _task(args):
    """The task of --task, or one made from --n, --seed and, where the command
    has them, --filler-length and --reference."""
    if getattr(args, "task", None) is not None:
        return load_task(args.task)
    return make_task(args.n, args.seed, **{key: value for key, value in vars(args).items()
                                          if key in ("filler_length", "reference")})


# ---------------------------------------------------------------------------

def cmd_gen_task(args) -> int:
    task = _task(args)
    out = _output_dir(args)
    table = target_table(task)
    ranks = check_separation_ranks(table, task.n)
    task_path = os.path.join(out, f"task_n{task.n}_seed{task.seed}.json")
    save_task(task, task_path)
    certificate = {
        "task_file": task_path,
        "certificate_rank": task.certificate_rank,
        "measurement_rank": task.measurement_rank,
        "rank_P": ranks["rank_P"],
        "rank_L": ranks["rank_L"],
        "min_pstar_entry": table.min_entry,
        "general_position": bool(task.certificate_rank == task.n ** 2),
    }
    if args.reference:
        certificate["det"] = n2_reference_config()["detR"]
    cert_path = _write_report(args, f"task_n{task.n}_seed{task.seed}.certificate.json",
                              certificate, seed=task.seed)
    print(f"wrote {task_path}")
    print(f"wrote {cert_path}")
    ok = certificate["general_position"] and ranks["rank_P"] == task.n ** 2
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_verify_separation(args) -> int:
    task = _task(args)
    table = target_table(task)
    ranks = check_separation_ranks(table, task.n)
    exact = exact_cusm_report(task, table)

    # one rng.integers draw per audit, the stream rng.choice(AUDIT_DIMS) draws
    rng = make_rng(args.seed, stream=900)
    dims = [AUDIT_DIMS[rng.integers(len(AUDIT_DIMS))] for _ in range(args.audits)]
    rosms = [random_rosm(d, task, seed=args.seed * 1000 + k) for k, d in enumerate(dims)]
    audits = [{"d": d, **audit} for d, audit in zip(dims, softmax_rank_audits(rosms, task))]
    violations = sum(not audit["satisfied"] for audit in audits)

    report = {
        "n": task.n,
        **exact,
        **ranks,
        "rosm_audit_violations": violations,
        "rosm_audits": audits,
    }
    path = _write_report(args, f"separation_n{task.n}_seed{task.seed}.json", report,
                         seed=task.seed)
    print(f"wrote {path}")
    bad = violations or exact["cusm_max_error"] > REPRODUCTION_TOL or ranks["rank_P"] != task.n ** 2
    return EXIT_INVARIANT if bad else EXIT_OK


def cmd_simulate(args) -> int:
    tokens = _parse_tokens(args)
    report = {}
    if args.mode == "task":
        if args.task is None and args.n < 2:  # the type of --n allows a model of 1
            raise ConfigurationError(f"--n must be >= 2 in task mode, got {args.n}")
        task = _task(args)
        seed, dt, cusm = task.seed, args.dt, build_exact_cusm(task)
        states = np.concatenate(evolve_fixed_batch(cusm.unitaries, cusm.psi0, [tokens]))
        gens, reproduced = inverse_cayley(cusm.unitaries, dt)
        bad = [tok for tok in tokens if not reproduced[tok]]
        if bad:
            raise CusmError(f"token {bad[0]}: its unitary has an eigenvalue at -1, "
                            "so it has no Cayley generator")
        currents = midpoint_current(gens[tokens], states[:-1], states[1:])
        row_sums, totals = currents.sum(axis=-1), total_current(currents)
    else:
        if args.checkpoint is not None:
            model = load_model(args.checkpoint)
        else:
            model = init_full_model(n=args.n, r=args.r, d=args.d, v=args.v,
                                    v_in=max(tokens) + 1, dt=args.dt, seed=args.seed)
        seed, dt = model.seed, model.dt
        report["model"] = {"n": model.n, "r": model.r, "d": model.d, "v": model.v,
                           "v_in": model.v_in, "dt": dt}
        states, factors = evolve_full_batch(model, [tokens])[:2]
        states, phi = states[:, 0], factors.phi[:, 0]
        cbar = 0.5 * (states[:-1] + states[1:])
        row_sums, totals = factor_currents(phi, cbar)

    norms, balances = continuity_balance(states, dt, row_sums)
    max_balance = float(balances.max())
    max_norm_dev = float(np.abs(norms - 1.0).max())
    columns = zip(tokens, norms.tolist(), totals.tolist(), balances.tolist())
    rows = [[t + 1, tok, f"{norm:.15f}", f"{total:.15e}", f"{balance:.15e}"]
            for t, (tok, norm, total, balance) in enumerate(columns)]

    csv_path = os.path.join(_output_dir(args), "trajectory.csv")
    _write_csv(csv_path, ["step", "token", "norm", "total_current", "balance_residual"], rows)
    json_path = _write_report(args, "trajectory.json", {
        **report,
        "steps": len(tokens),
        "max_balance_residual": max_balance,
        "max_norm_deviation": max_norm_dev,
        "csv": csv_path,
    }, seed=seed)
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    if max_balance > TOLERANCES["balance_tolerance"] or max_norm_dev > TOLERANCES["norm_tolerance"]:
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_train(args) -> int:
    out = _output_dir(args)
    task = _task(args)
    config = OptimizerConfig(lr=args.lr, epochs=args.epochs, early_stop_gap=args.early_stop_gap)
    seeds = range(args.seeds)
    reports = train_on_task(task, args.model_kind, dim=args.dim, config=config, seeds=seeds)
    paths = []
    for rep in reports:
        fields = {k: v for k, v in vars(rep).items() if k not in ("seed", "loss_trace")}
        paths.append(_write_report(args, f"train_{rep.model_kind}_seed{rep.seed}.json", fields,
                                   seed=rep.seed))
        trace_path = os.path.join(out, f"train_{rep.model_kind}_seed{rep.seed}_trace.csv")
        _write_csv(trace_path, ["epoch", "mean_nll", "gap"],
                   [[e, f"{nll:.15e}", f"{nll - rep.entropy_floor:.15e}"]
                    for e, nll in enumerate(rep.loss_trace)])
    gaps = np.array([rep.gap for rep in reports])
    aggregate = {
        "model_kind": args.model_kind,
        "seeds": list(seeds),
        "gap_mean": float(gaps.mean()),
        "gap_std": float(gaps.std()),
        "gap_best": float(gaps.min()),
        "any_gap_zero": bool(any(rep.gap_zero for rep in reports)),
        "reports": paths,
    }
    # the readout's verdict, the same in every seed's report (a Born kind's is empty)
    aggregate.update({k: v for k, v in reports[0].extra.items() if k != "softmax_rank_audit"})
    if args.ablation:
        aggregate["ablation"] = exact_cusm_report(task, target_table(task))["ablation"]
    agg_path = _write_report(args, f"train_{args.model_kind}_aggregate.json", aggregate)
    print(f"wrote {agg_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cusm", description="Complex-unitary sequence model experiments",
                     formatter_class=_Formatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, about in (
        ("gen-task", cmd_gen_task, "generate a task instance with certificates"),
        ("verify-separation", cmd_verify_separation, "rank audits and exact reproduction check"),
        ("simulate", cmd_simulate, "run a trajectory and emit current diagnostics"),
        ("train", cmd_train, "train a model on a task, one report per seed"),
    ):
        p = sub.add_parser(command, help=about, formatter_class=_Formatter)
        p.set_defaults(func=func)
        flags = [flag for flag in FLAGS if command in flag.commands]
        if any(flag.one_of for flag in flags):  # argparse cannot format an empty group
            one_of = p.add_mutually_exclusive_group()  # _settle asks for one
        for flag in flags:
            options = ({"action": "store_true"} if flag.kind is bool else {"choices": flag.kind}
                       if isinstance(flag.kind, tuple) else {"type": flag.kind})
            # no argparse default: _settle sets the defaults of the flags a run reads
            (one_of if flag.one_of else p).add_argument(flag.name, default=None,
                                                        help=_help(flag), **options)
    return parser


# kept: one parser per process, which nothing changes; building it per call cost
# separation-study about 22% (tests/test_cli.py::test_main_builds_one_parser_per_process)
@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """build_parser's tree, built once per process; parsing never changes it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        if args.config is not None:
            _merge_config(args)
        _settle(args)
        return args.func(args)
    except NUMERICAL_FAILURES as exc:
        step = getattr(exc, "step", None)
        where = f" at step {step}" if step is not None else ""
        print(f"numerical failure{where}: {exc}", file=sys.stderr)
        _write_failure(args, exc)
        return EXIT_NUMERICAL
    except (ConfigurationError, VocabularyError, InvalidDimensionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CusmError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())

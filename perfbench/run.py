"""cusm benchmark: one seeded workload per run, end to end or traced.

    python3 perfbench/run.py --workload train-full --seed 1 --seconds 15 --trace 0

Run it from the repository root; cusm is imported from ./src. A run makes its
op inputs from --seed, runs them one at a time, checks every output and
prints two JSON lines: details (environment, tail percentile, sample count,
named throughputs, first failures), then the result
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs
the same ops, tracing every second one, reports the per-layer metrics of the
traced half and writes its spans to .perfbench_out/.

The op count is --seconds times a fixed per-workload rate, so two commits
given the same arguments do identical work. BLAS is pinned to one thread.

On a shared 2-vCPU VM the host's speed drifts by 20-40% over minutes, and
that drift, not the code, set the run-to-run spread of raw wall times. So
after every op of an end-to-end run the workload's calibration kernel, a
fixed job that never touches cusm, is timed, and each op time and set-up
time is reported at reference speed: scaled by the kernel's reference time
over its time measured right after the op. The raw values and the median
slowdown are in the details line.

--write-reference records the final training NLLs of every task seed in
perfbench/reference.json; a later run fails an op whose NLL moves by more
than the tolerance stored there.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
NLL_TOLERANCE = 1e-9
SETUP_SAMPLES = 5
TAIL_BEYOND = 10


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND samples above it,
    never below the median (short runs have too few samples for a tail)."""
    return max(50, math.floor(100 * (n - TAIL_BEYOND) / n))


def nearest_rank(sorted_values: list, q: float) -> float:
    return sorted_values[max(math.ceil(q / 100 * len(sorted_values)) - 1, 0)]


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so*"))
    if libs:
        getter = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_", None)
        threads = getter() if getter is not None else None
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
    }


def import_cusm():
    """Imports cusm from ./src; None when the checkout has no cusm there."""
    if not (SRC / "cusm" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import cusm
    if Path(cusm.__file__).resolve().parent != (SRC / "cusm").resolve():
        return None
    return cusm


def run_op(wl, inp, reference: dict | None):
    """One op with its checks; an exception fails the op instead of the run."""
    from workloads import OpResult
    start = time.perf_counter()
    try:
        res = wl.run(inp)
    except Exception as exc:  # the op boundary: record it, keep running
        res = OpResult(time.perf_counter() - start, 0,
                       [f"{type(exc).__name__}: {exc}".strip()[:300]])
        traceback.print_exc(file=sys.stderr)
    if reference is not None and res.nlls:
        expected = reference[wl.name].get(str(inp))
        if expected is None:
            res.failures.append(f"no reference NLL for task seed {inp}")
        else:
            for label, nll in res.nlls.items():
                if abs(nll - expected[label]) > reference["nll_tolerance"]:
                    res.failures.append(f"{label}: final NLL {nll!r}, reference {expected[label]!r}")
    wl.clear()
    return res


def run_calibrated(wl, reference) -> tuple[list, list]:
    """Runs every op once, timing the calibration kernel after each."""
    wl.begin()
    gc.collect()
    results, kernel = [], []
    for inp in wl.inputs:
        results.append(run_op(wl, inp, reference))
        kernel.append(wl.calibration.seconds())
    return results, kernel


def run_alternating(wl, reference, tracer) -> tuple[list, list]:
    """Runs every op once, tracing every second one; returns (untraced, traced).

    Alternating keeps drift in machine speed out of the tracing overhead.
    """
    wl.begin()
    gc.collect()
    untraced, traced = [], []
    for op_id, inp in enumerate(wl.inputs):
        if op_id % 2 == 0:
            untraced.append(run_op(wl, inp, reference))
            continue
        tracer.op_id = op_id
        with tracer.tracing():
            traced.append(run_op(wl, inp, reference))
    return untraced, traced


def load_reference(workloads) -> dict:
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    if ref["settings"] != reference_settings(workloads):
        raise SystemExit("reference.json was recorded with other workload settings; "
                         "rerun with --write-reference")
    return ref


def reference_settings(w) -> dict:
    return {"task_seeds": list(w.TASK_SEEDS), "train_full_epochs": w.TRAIN_FULL_EPOCHS,
            "separation_epochs": w.SEPARATION_EPOCHS, "rosm_dims": list(w.ROSM_DIMS)}


def write_reference(workloads, out_dir: str) -> int:
    doc = {"nll_tolerance": NLL_TOLERANCE, "settings": reference_settings(workloads)}
    for name in ("train-full", "separation-study"):
        wl = workloads.WORKLOADS[name](0, 0, out_dir)
        doc[name] = {}
        for task_seed in workloads.TASK_SEEDS:
            res = run_op(wl, task_seed, None)
            if res.failures:
                print(f"{name} task seed {task_seed}: {res.failures}", file=sys.stderr)
                return 1
            doc[name][str(task_seed)] = res.nlls
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


def setup_probes(args, count: int) -> list:
    """(set-up seconds, calibration kernel seconds right after) of fresh
    processes; set-up runs from the start of this file to the first timed op."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"],
            capture_output=True, text=True, timeout=60, cwd=str(ROOT))
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-300:]}")
        samples.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
    return samples


def throughput(results: list) -> float:
    """Work units (epochs, tokens or state steps) per second of op time."""
    return sum(r.work for r in results) / sum(r.seconds for r in results)


def end_to_end(results: list, checked: list, setup: list, kernel: list,
               ref_s: float) -> tuple[dict, dict]:
    times = sorted(r.seconds for r in results)
    q = tail_percentile(len(times))
    failed = sum(1 for r in checked if r.failures)
    raw = {
        "setup_s": statistics.median(s for s, _ in setup),
        "op_s_p50": statistics.median(times),
        "op_s_tail": nearest_rank(times, q),
        "work_per_s": throughput(results),
    }
    scaled = sorted(r.seconds * ref_s / k for r, k in zip(results, kernel))
    metrics = {
        "setup_s": (statistics.median(s * ref_s / k for s, k in setup), "s"),
        "op_s_p50": (statistics.median(scaled), "s"),
        "op_s_tail": (nearest_rank(scaled, q), "s"),
        "work_per_s": (sum(r.work for r in results) / sum(scaled), "1/s"),
        "ok_ratio": (1.0 - failed / len(checked), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {"op_s_tail_percentile": q, "samples": len(times), "setup_samples": setup,
               "raw": raw, "slowdown": statistics.median(kernel) / ref_s}
    return metrics, details


def per_layer(tracer, traced: list, untraced: list) -> dict:
    metrics = {}
    summary = tracer.summary()
    for span, stats in summary.items():
        metrics[f"{span}.calls"] = (stats["calls"], "count")
        metrics[f"{span}.self_s"] = (stats["self_s"], "s")
        metrics[f"{span}.p50_us"] = (stats["p50_us"], "us")
    step = summary["dynamics.cayley_step_woodbury"]
    flops = tracer.flops.get("dynamics.cayley_step_woodbury", 0.0)
    metrics["dynamics.cayley_step_woodbury.useful_gflop_per_s"] = (
        flops / step["self_s"] / 1e9 if step["self_s"] > 0 else 0.0, "GFLOP/s")

    def ratio(num, den):
        return num / den if den else 0.0

    epochs = sum(r.epochs for r in traced)
    metrics["hamgen.mlp_forward_per_step"] = (
        ratio(summary["hamgen.mlp_forward_cached"]["calls"], step["calls"]), "ratio")
    metrics["readout.project_measurement_per_epoch"] = (
        ratio(summary["readout.project_measurement"]["calls"], epochs), "ratio")
    metrics["septask.build_exact_cusm_per_op"] = (
        ratio(summary["septask.build_exact_cusm"]["calls"], len(traced)), "ratio")
    metrics["ops.warnings_per_op"] = (ratio(sum(r.warnings for r in traced), len(traced)), "ratio")
    metrics["trace.overhead_ratio"] = (throughput(untraced) / throughput(traced), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    cusm = import_cusm()
    if cusm is None:
        print(f"error: no cusm package under {SRC}", file=sys.stderr)
        return 2
    import numpy as np
    import spantrace
    import workloads

    os.makedirs(OUT, exist_ok=True)
    out_dir = os.path.join(OUT, f"ops-{os.getpid()}")
    try:
        if args.write_reference:
            return write_reference(workloads, out_dir)
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
        if args.seconds < 1:
            parser.error("--seconds must be >= 1")
        reference = load_reference(workloads)
        cls = workloads.WORKLOADS[args.workload]
        n_ops = max(1, round(args.seconds * cls.rate))
        wl = cls(args.seed, n_ops, out_dir)
        wl.clear()
        warm = run_op(wl, wl.warmup, reference)
        setup = [(time.perf_counter() - _T0, wl.calibration.seconds())]
        if args.setup_probe:
            print(json.dumps(setup[0]))
            return 0 if not warm.failures else 1

        details = {"workload": args.workload, "seed": args.seed, "ops": n_ops,
                   "env": environment(np)}
        if args.trace == 0:
            untraced, kernel = run_calibrated(wl, reference)
            checked = [warm] + untraced
            setup += setup_probes(args, SETUP_SAMPLES - 1)
            metrics, extra = end_to_end(untraced, checked, setup, kernel,
                                        wl.calibration.reference_s)
            details.update(extra)
            details[cls.throughput_name] = throughput(untraced)
        else:
            tracer = spantrace.Tracer()
            wl.pause = tracer.paused
            untraced, traced = run_alternating(wl, reference, tracer)
            checked = [warm] + untraced + traced
            metrics = per_layer(tracer, traced, untraced)
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
            tracer.write_csv(str(spans))
            details[cls.throughput_name] = throughput(traced)
            details["spans"] = str(spans.relative_to(ROOT))
        failed = [r for r in checked if r.failures]
        details["failures"] = [f for r in failed[:5] for f in r.failures]
        print(json.dumps(details, sort_keys=True))
        print(json.dumps({
            "correct": not failed,
            "attempted": len(checked),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

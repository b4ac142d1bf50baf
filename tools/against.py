"""Compare the CLI's outputs at two revisions of src/cusm, file by file.

    python3 tools/against.py bytes --parent REV [--change REV] [--ulps K]

Run it from anywhere inside the repository. Each REV's src/ comes from a local
`git archive` into a temporary directory; without --change the change side is
the working tree's src/. Both sides run the same catalogue, this checkout's
tools/catalogue.py: CATALOGUE (the runs of tools/unreached.py --cli) and
TRAINING. Each side runs in its own Python process with BLAS pinned to one
thread, writes the catalogue's input files with its own cusm, and runs each
argv through cli.main in a fresh CUSM_OUTPUT_DIR.

For each run it compares the exit code, the stdout and stderr lines, the
messages of the warnings raised, and every file the run wrote. Paths are
stripped (each side's directory reads `<root>`), and so is every `wall_clock`
key of a JSON file, whose keys are then sorted. It prints one line per item
that differs, with the largest absolute difference and the largest difference
in ulps over the numbers of the two texts when only numbers differ, and a
count of the items compared. It exits 0 when every item is identical, or with
--ulps K when every difference is numeric and at most K ulps; else 1.
Standard library only; not part of Tier-1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tarfile
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a JSON or CSV number, or a float's text as Python or JSON writes it
NUMBER = re.compile(r"-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|Infinity|NaN|inf|nan)")


def archive_src(rev: str, into: Path) -> Path:
    """src/ of git revision rev, unpacked under `into`; the path of that src/."""
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def run_side(src: Path, work: Path) -> None:
    """Run the catalogue on the cusm under src, in a process of its own, into work:
    work/runNN/ holds each run's files and work/results.json its other outputs."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               COLUMNS="80")
    subprocess.run([sys.executable, __file__, "_side", str(src), str(work)], check=True,
                   env=env, cwd=work)


def side_main(src: str, work: str) -> int:
    """The body of run_side's process."""
    sys.path[:0] = [src, str(ROOT / "tools")]
    from catalogue import CATALOGUE, TRAINING, write_inputs
    from cusm import cli

    inputs = Path(work) / "inputs"
    inputs.mkdir()
    files = write_inputs(inputs)
    results = []
    for k, (argv, _) in enumerate(CATALOGUE + TRAINING):
        argv = [arg.format(**files) for arg in argv]
        os.environ[cli.OUTPUT_DIR_ENV] = str(Path(work) / f"run{k:02d}")
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
    Path(work, "results.json").write_text(json.dumps(results))
    return 0


def _drop_wall_clock(doc):
    if isinstance(doc, dict):
        return {key: _drop_wall_clock(value) for key, value in doc.items() if key != "wall_clock"}
    if isinstance(doc, list):
        return [_drop_wall_clock(value) for value in doc]
    return doc


def normalized(text: str, root: Path, name: str) -> str:
    """text with root's path as <root>, and for a JSON file without wall_clock, keys sorted."""
    text = text.replace(str(root), "<root>")
    if name.endswith(".json"):
        with contextlib.suppress(ValueError):
            return json.dumps(_drop_wall_clock(json.loads(text)), indent=1, sort_keys=True)
    return text


def items(work: Path) -> dict:
    """(run index, item name) -> normalized text, for every output of one side."""
    found = {}
    for k, result in enumerate(json.loads((work / "results.json").read_text())):
        found[k, "exit code"] = str(result["exit"])
        for name in ("stdout", "stderr"):
            found[k, name] = normalized(result[name], work, name)
        found[k, "warnings"] = normalized("\n".join(result["warnings"]), work, "warnings")
        outputs = work / f"run{k:02d}"
        for path in sorted(outputs.rglob("*")) if outputs.is_dir() else []:
            if path.is_file():
                name = str(path.relative_to(outputs))
                found[k, name] = normalized(path.read_text(errors="replace"), work, name)
    return found


def _ordered(x: float) -> int:
    """x's bits as an integer that counts ulps: adjacent floats differ by one."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def numeric_difference(a: str, b: str):
    """(largest |x - y|, largest ulps) over the numbers of two texts that differ only
    in their numbers, or None when anything else differs."""
    if NUMBER.sub("#", a) != NUMBER.sub("#", b):
        return None
    worst_abs, worst_ulps = 0.0, 0
    for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
        fx, fy = float(x), float(y)
        if x == y or (math.isnan(fx) and math.isnan(fy)):
            continue
        if not (math.isfinite(fx) and math.isfinite(fy)):
            return math.inf, math.inf
        worst_abs = max(worst_abs, abs(fx - fy))
        worst_ulps = max(worst_ulps, abs(_ordered(fx) - _ordered(fy)))
    return worst_abs, worst_ulps


def compare(parent: Path, change: Path, ulps: int | None) -> int:
    """Print each item that differs between two sides' work directories; 0 if none
    does, or, with ulps, if every difference is numeric and within ulps."""
    old, new = items(parent), items(change)
    argvs = [result["argv"] for result in json.loads((change / "results.json").read_text())]
    failed = 0
    for key in sorted(set(old) | set(new)):
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        k, name = key
        argv = " ".join(argv.replace(str(change), "<root>") for argv in argvs[k])
        where = f"run {k} (cusm {argv}) {name}"
        if a is None or b is None:
            print(f"{where}: only in the {'change' if a is None else 'parent'}")
            failed += 1
            continue
        diff = numeric_difference(a, b)
        if diff is None:
            print(f"{where}: differs beyond its numbers")
            failed += 1
            continue
        print(f"{where}: max |difference| {diff[0]:.3e}, max {diff[1]} ulps")
        failed += ulps is None or diff[1] > ulps
    print(f"{len(set(old) | set(new))} items compared, {failed} failing"
          + ("" if ulps is None else f" beyond {ulps} ulps"))
    return 1 if failed else 0


def main(argv: list) -> int:
    if argv[:1] == ["_side"]:
        return side_main(*argv[1:])
    parser = argparse.ArgumentParser(prog="against.py", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    cmd = sub.add_parser("bytes", help="compare the catalogue's outputs, file by file")
    cmd.add_argument("--parent", required=True, help="git revision of the parent side")
    cmd.add_argument("--change", help="git revision of the change side; default the working tree")
    cmd.add_argument("--ulps", type=int, help="allow numeric differences of at most this many ulps")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = {}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            work[side] = Path(tmp, side)
            work[side].mkdir()
            src = ROOT / "src" if rev is None else archive_src(rev, Path(tmp, f"{side}-tree"))
            run_side(src, work[side])
        return compare(work["parent"], work["change"], args.ulps)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

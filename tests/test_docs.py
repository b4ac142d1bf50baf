"""The prose that points at code: README's CLI examples run as written, and every
`kept:` comment in src/cusm names a test, benchmark record or perfbench file that exists."""

import ast
import contextlib
import functools
import io
import re
import shlex
import tokenize
from pathlib import Path

import pytest

from cusm import cli

ROOT = Path(__file__).resolve().parent.parent
TEST_REF = re.compile(r"(tests/\w+\.py)::(\w+)(?:::(\w+))?")
BENCH_REF = re.compile(r"BENCH_\w+\.json")
PERFBENCH_REF = re.compile(r"perfbench/[\w/.]*\w")


def kept_comments(path: Path) -> list:
    """(line, text) of each `kept:` comment in path, with the comment lines that follow it
    directly at its column joined on; a reference split after `::` is joined whole."""
    comments = [(tok.start, tok.string.lstrip("#").strip())
                for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
                if tok.type == tokenize.COMMENT]
    found = []
    for k, ((line, col), text) in enumerate(comments):
        if "kept:" not in text:
            continue
        parts = [text[text.index("kept:"):]]
        for (next_line, next_col), more in comments[k + 1:]:
            if (next_line, next_col) != (line + len(parts), col) or "kept:" in more:
                break
            parts.append(more)
        found.append((line, re.sub(r"::\s+", "::", " ".join(parts))))
    return found


@functools.cache
def defined_tests(path: Path) -> set:
    """`name` of each top-level function and class of a test file, and `Class::name` of
    each method of its classes."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names |= {f"{node.name}::{sub.name}" for sub in node.body
                      if isinstance(sub, ast.FunctionDef)}
    return names


def missing_references(text: str) -> list:
    """The references in text that do not resolve, or ["none"] if it names none."""
    tests = TEST_REF.findall(text)
    benches, paths = BENCH_REF.findall(text), PERFBENCH_REF.findall(text)
    if not tests and not benches and not paths:
        return ["none"]
    names = [(file, f"{cls}::{name}" if name else cls) for file, cls, name in tests]
    missing = [f"{file}::{name}" for file, name in names
               if not (ROOT / file).is_file() or name not in defined_tests(ROOT / file)]
    return missing + [ref for ref in benches + paths if not (ROOT / ref).exists()]


def test_every_kept_comment_names_a_reference_that_exists():
    found = [(path, line, text) for path in sorted((ROOT / "src" / "cusm").glob("*.py"))
             for line, text in kept_comments(path)]
    assert len(found) >= 18
    missing = [(path.name, line, missing_references(text)) for path, line, text in found]
    assert [entry for entry in missing if entry[2]] == []


def test_a_reference_that_does_not_resolve_is_reported(tmp_path):
    source = tmp_path / "guarded.py"
    source.write_text("# kept: a reason\n"
                      "# (tests/test_docs.py::\n"
                      "# test_every_kept_comment_names_a_reference_that_exists)\n"
                      "x = 1  # kept: no reference\n"
                      "y = 2  # kept: (tests/test_docs.py::TestNone::test_gone, BENCH_0.json,\n"
                      "       # perfbench/gone.py)\n")
    assert [(line, missing_references(text)) for line, text in kept_comments(source)] == [
        (1, []), (4, ["none"]),
        (5, ["tests/test_docs.py::TestNone::test_gone", "BENCH_0.json", "perfbench/gone.py"])]


def readme_cli_commands(readme: str) -> list:
    """The argv of each `cusm` line of the fenced sh blocks in README's CLI section; any
    other line there that is neither blank nor a comment fails the test."""
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", section, flags=re.M | re.S):
        for line in block.splitlines():
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            assert line.startswith("cusm ") and not line.endswith("\\"), line
            commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_commands_run_as_written(tmp_path, monkeypatch):
    commands = readme_cli_commands((ROOT / "README.md").read_text())
    assert commands
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    for argv in commands:
        if argv[0] == "train":
            argv = [*argv, "--epochs", "3"]  # argparse keeps the last value
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == cli.EXIT_OK, argv
        wrote = [line.removeprefix("wrote ") for line in out.getvalue().splitlines()
                 if line.startswith("wrote ")]
        assert wrote and all(Path(path).is_file() for path in wrote), argv


@pytest.mark.parametrize("line", ["for d in 1 2 4; do", "cusm train --task t.json \\",
                                  "python -m cusm.cli gen-task"])
def test_readme_line_that_is_no_one_line_command_fails(line):
    readme = "intro\n\n## CLI\n\n```sh\n# a comment\ncusm gen-task --n 2\n\n{}\n```\n\n## Next\n"
    assert readme_cli_commands(readme.format("")) == [["gen-task", "--n", "2"]]
    with pytest.raises(AssertionError):
        readme_cli_commands(readme.format(line))

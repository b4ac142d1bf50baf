"""List the function-body statements of src/cusm that a test run never executes.

    python3 tools/unreached.py                 # the Tier-1 suite
    python3 tools/unreached.py tests/test_cli.py -q

Run it from anywhere; it changes to the repository root. It runs pytest in
this process under sys.settrace, with the Tier-1 arguments unless others are
given, then prints `path:line` for each statement of a function or method
body in src/cusm that never ran, and their count. Module and class-level
statements and docstrings are not counted. A compound statement counts as run
when its header line runs; a `try` when its first statement runs.

A code object stops being traced once every line of it has run, which keeps
the suite's timing tests within their bounds; the run still takes about twice
the plain suite's time, so it is not part of Tier-1. The tests in UNTRACED
run with the tracer suspended: they compare call times, which the tracer's
fixed cost per call would skew; other tests reach the lines they run. A line
report cannot see data branches: an `np.where` on a line that runs is reached
even if it never picks one side. Standard library and pytest only.
"""

from __future__ import annotations

import ast
import functools
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cusm"
TIER1_ARGS = ["-q", "--continue-on-collection-errors"]
UNTRACED = {"test_criterion_11_scaling_trend"}  # it checks per-step time ratios


def _evidence(stmt: ast.stmt) -> range:
    """The lines of which one must run for `stmt` to have run."""
    if isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
        return _evidence(stmt.body[0])
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:  # a compound statement: its header
        return range(first, body[0].lineno)
    return range(first, stmt.end_lineno + 1)


def _statements(body: list):
    """The statements of a block and of the blocks nested in it, except the
    bodies of nested functions and classes, which are blocks of their own."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(stmt, field, []))
        for handler in getattr(stmt, "handlers", []):
            yield from _statements(handler.body)


def function_statements(path: Path) -> dict:
    """First line -> evidence lines, for each function-body statement in path."""
    found = {}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                body = body[1:]  # the docstring
            for stmt in _statements(body):
                found[stmt.lineno] = _evidence(stmt)
    return found


@functools.cache
def _code_lines(code) -> frozenset:
    return frozenset(line for _, _, line in code.co_lines() if line is not None)


def traced_pytest(args: list) -> tuple[int, dict]:
    """pytest's exit code and the lines run in each file under src/cusm."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    executed, wanted, done = {}, {}, set()

    def on_call(frame, event, arg):
        code = frame.f_code
        if code in done:
            return None
        if code.co_filename not in wanted:
            wanted[code.co_filename] = os.path.realpath(code.co_filename).startswith(prefix)
        if not wanted[code.co_filename]:
            return None
        lines = executed.setdefault(os.path.realpath(code.co_filename), set())
        lines.add(frame.f_lineno)

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            elif event == "return" and lines.issuperset(_code_lines(code)):
                done.add(code)  # every line of it has run: stop tracing it
            return on_line
        return on_line

    class Untraced:
        @pytest.hookimpl(hookwrapper=True)
        def pytest_runtest_call(self, item):
            tracer = sys.gettrace()
            if item.originalname in UNTRACED:
                sys.settrace(None)
            try:
                yield
            finally:
                sys.settrace(tracer)

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(args, plugins=[Untraced()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), executed


def main(argv: list) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(PACKAGE.parent))
    code, executed = traced_pytest(argv or TIER1_ARGS)
    unreached, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executed.get(str(path), set())
        statements = function_statements(path)
        total += len(statements)
        unreached += [f"{path.relative_to(ROOT)}:{line}" for line, evidence
                      in sorted(statements.items()) if lines.isdisjoint(evidence)]
    print("\n".join(unreached))
    print(f"{len(unreached)} of {total} function-body statements in src/cusm never ran")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

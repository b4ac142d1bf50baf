"""List the function-body statements of src/cusm that a test run never executes,
or the functions of src/cusm that no command of a fixed catalogue of CLI runs enters.

    python3 tools/unreached.py                 # the Tier-1 suite
    python3 tools/unreached.py tests/test_cli.py -q
    python3 tools/unreached.py --cli           # the CLI catalogue

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

With --cli it runs each argv of tools/catalogue.py's CATALOGUE through the
catalogue's runner (cli.main in a fresh CUSM_OUTPUT_DIR) in this process, under
the same tracer, after writing the input files the catalogue names. It prints
`path:line name` for each function or method of src/cusm that no run entered
and that ALLOWED does not name, and their count; then each run whose exit code
is not the catalogue's. It exits 1 if it printed a function or a run. ALLOWED
is what the acceptance suite imports, what perfbench's tracer binds, and
EXTRA_ALLOWED; an allowed function allows the functions nested in it, but a
class allows none of its methods. Not part of Tier-1.
"""

from __future__ import annotations

import ast
import functools
import os
import sys
import tempfile
import threading
from pathlib import Path

from catalogue import CATALOGUE, run, write_inputs

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cusm"
TIER1_ARGS = ["-q", "--continue-on-collection-errors"]
UNTRACED = {"test_criterion_11_scaling_trend"}  # it checks per-step time ratios

# what no command enters besides the acceptance suite's imports and perfbench's bindings:
# what the acceptance suite reaches through them (finite_difference_grad's and
# backward_full_model's helpers, materialize's dim, the sequences of make_task's task), and
# save_model, whose fate ROADMAP item 6 decides
EXTRA_ALLOWED = ("train.central_difference", "train.full_model_loss", "train._one_hot_rows",
                 "dynamics.InteractionFactors.dim", "septask.TaskInstance.sequence",
                 "hamgen.save_model")


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


def traced(run) -> tuple:
    """run()'s result, the lines run in each file under src/cusm, and the first lines of
    the code objects entered in each."""
    prefix = str(PACKAGE) + os.sep
    executed, entered, wanted, done = {}, {}, {}, set()

    def on_call(frame, event, arg):
        code = frame.f_code
        if code in done:
            return None
        if code.co_filename not in wanted:
            wanted[code.co_filename] = os.path.realpath(code.co_filename).startswith(prefix)
        if not wanted[code.co_filename]:
            return None
        path = os.path.realpath(code.co_filename)
        entered.setdefault(path, set()).add(code.co_firstlineno)
        lines = executed.setdefault(path, set())
        lines.add(frame.f_lineno)

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            elif event == "return" and lines.issuperset(_code_lines(code)):
                done.add(code)  # every line of it has run: stop tracing it
            return on_line
        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, executed, entered


def traced_pytest(args: list) -> tuple[int, dict]:
    """pytest's exit code and the lines run in each file under src/cusm."""
    import pytest

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

    code, executed, _ = traced(lambda: pytest.main(args, plugins=[Untraced()]))
    return int(code), executed


def allowed_names() -> set:
    """ALLOWED: module.name of each cusm import of tests/test_acceptance.py and of each
    binding in perfbench's TRACED, and EXTRA_ALLOWED."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    names = {f"{node.module.removeprefix('cusm.')}.{alias.name}" for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cusm.")
             for alias in node.names}
    sys.path.insert(0, str(ROOT / "perfbench"))
    from spantrace import TRACED

    names |= {f"{module.removeprefix('cusm.')}.{attr}" for _, module, attr, _ in TRACED}
    return names | set(EXTRA_ALLOWED)


def functions(path: Path) -> list:
    """(module.qualified name, the lines on which its code object may start) of each
    function or method in path, nested ones included."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found.append((prefix + child.name, range(first, child.lineno + 1)))
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(), str(path)), f"{path.stem}.")
    return found


def main_cli() -> int:
    with tempfile.TemporaryDirectory() as work:
        files = write_inputs(Path(work))  # before tracing: save_model is no command's
        results, _, entered = traced(lambda: run([argv for argv, _ in CATALOGUE], files, work))
    wrong = [f"run {k} (cusm {' '.join(result['argv'])}) exited {result['exit']}, expected {want}"
             for k, (result, (_, want)) in enumerate(zip(results, CATALOGUE))
             if result["exit"] != want]
    found = [(path, *function) for path in sorted(PACKAGE.glob("*.py"))
             for function in functions(path)]
    names, allowed = {name for _, name, _ in found}, allowed_names()
    # an allowed function allows the functions nested in it; a class allows no method
    allowed |= {name for name in names if any(name.startswith(f"{ok}.") for ok in allowed & names)}
    unreached, skipped = [], 0
    for path, name, starts in found:
        if entered.get(str(path), set()).isdisjoint(starts):
            if name in allowed:
                skipped += 1
            else:
                unreached.append(f"{path.relative_to(ROOT)}:{starts[-1]} {name}")
    print("\n".join(unreached + [f"{len(unreached)} functions of src/cusm entered by no CLI run "
                                  f"outside the allow-list ({skipped} on it)"] + wrong))
    return 1 if unreached or wrong else 0


def main(argv: list) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(PACKAGE.parent))
    if argv == ["--cli"]:
        return main_cli()
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

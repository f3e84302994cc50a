"""List the lines of `src/initrack` that the test suite never runs.

Run from anywhere as `python tests/linecov.py [pytest options]`.  It runs the
suite under `tests/` in this process with a `sys.settrace` line tracer, then
prints each executable line no test ran, as `path:line: source`, and a
count.  A line is executable when a code object compiled from the file has
bytecode on it; docstrings are not counted.  Only this process is traced, so
a command a test runs in a subprocess counts as not run.  It exits with
pytest's exit code.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "initrack"


def executable_lines(path: Path) -> set[int]:
    """The lines of `path` that carry bytecode, less its docstrings."""
    source = path.read_text(encoding="utf-8")
    lines: set[int] = set()
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(const for const in code.co_consts if isinstance(const, CodeType))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and ast.get_docstring(node):
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def main(pytest_args: list[str]) -> int:
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def trace_lines(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return trace_lines

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    sys.settrace(trace_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *pytest_args])
    finally:
        sys.settrace(None)

    total = unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        source = path.read_text(encoding="utf-8").splitlines()
        total += len(lines)
        for line in sorted(lines - ran.get(str(path), set())):
            unrun += 1
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{unrun} of {total} executable lines never run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Statements of the lvmut package that the tier-1 tests never run.

A line trace with the standard library alone: tier-1 runs in this process
through pytest.main under sys.settrace, and the tracer records the lines it
sees in files under src/lvmut. Each module's statements come from its
syntax tree, less docstrings and `def`, `class` and import lines; a
statement counts if some line of it (of its header, for a compound
statement) compiles to bytecode, and it ran if any such line ran.

    python tools/linecov.py [pytest arguments]

The arguments default to tier-1's (`-q --continue-on-collection-errors`).
The report goes to stdout after pytest's own; the exit code is pytest's.
Tracing makes tier-1 about twice as slow.
"""
from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lvmut"
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _header(node: ast.stmt) -> range:
    """The lines of a statement, up to its body for a compound one."""
    body = getattr(node, "body", None)
    end = body[0].lineno - 1 if body else node.end_lineno
    return range(node.lineno, max(node.lineno, end) + 1)


def _code_lines(code) -> set[int]:
    """The lines that carry bytecode in a code object and all nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> list[tuple[int, range]]:
    """(first line, lines) of each counted statement of a module."""
    source = path.read_text()
    with_code = _code_lines(compile(source, str(path), "exec"))
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED) or _is_docstring(node):
            continue
        header = _header(node)
        if with_code.intersection(header):
            found.append((node.lineno, header))
    return sorted(found, key=lambda item: item[0])


def _trace(executed: dict[str, set[int]]):
    prefix = str(PACKAGE) + os.sep
    wanted: dict[str, set[int] | None] = {}

    def local(frame, event, arg):
        if event == "line":
            wanted[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in wanted:
            path = os.path.abspath(filename)
            wanted[filename] = executed.setdefault(path, set()) if path.startswith(prefix) else None
        return None if wanted[filename] is None else local

    return tracer


def report(executed: dict[str, set[int]]) -> int:
    """Print each module's statements that never ran; the total."""
    total_missed = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        ran = executed.get(str(path), set())
        counted = statements(path)
        missed = [(first, lines) for first, lines in counted if not ran.intersection(lines)]
        total += len(counted)
        total_missed += len(missed)
        text = path.read_text().splitlines()
        print(f"{path.relative_to(ROOT)}: {len(missed)} of {len(counted)} statements never ran")
        for first, _ in missed:
            print(f"  {first}: {text[first - 1].strip()}")
    print(f"total: {total_missed} of {total} statements never ran")
    return total_missed


def main(argv: list[str]) -> int:
    import pytest

    os.chdir(ROOT)
    executed: dict[str, set[int]] = {}
    tracer = _trace(executed)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv or ["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print()
    report(executed)
    return int(code)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

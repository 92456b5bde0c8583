"""List the executable lines of ``src/ummlearn`` that a pytest run never executes.

Usage, from the repository root::

    python tools/unrun_lines.py [pytest arguments ...]

The pytest arguments select the run, for example Tier-1 without the three
slow training criteria::

    python tools/unrun_lines.py -q -k "not Criterion6 and not Criterion7 and not Criterion11"

A ``sys.settrace`` line tracer, standard library only, runs in this process
for the whole pytest run. The script prints every unrun executable line as
``path:line: text``, marks each unrun ``raise`` statement, and exits 1 if
any ``raise`` is unrun, or with pytest's exit code if the tests fail.
Lines that run only in a forked worker process are not seen; every code
path of such a worker also runs in-process under the tests.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ummlearn"


def executable_lines(path: Path) -> tuple[set[int], set[int]]:
    """(every line that starts a statement, the lines of the ``raise`` statements) of ``path``.

    Docstrings are left out: inside a function they compile to no code.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {
        node.body[0].lineno
        for node in ast.walk(tree)
        if isinstance(node, documented) and ast.get_docstring(node, clean=False) is not None
    }
    statements = {
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and node.lineno not in docstrings
    }
    raises = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)}
    return statements, raises


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    seen: dict[str, set[int]] = {}

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None  # no line events for the frames of pytest, numpy and the tests
        lines = seen.setdefault(filename, set())

        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    n_unrun = n_raise = 0
    for path in sorted(PACKAGE.glob("*.py")):
        statements, raises = executable_lines(path)
        ran = seen.get(str(path), set())
        text = path.read_text(encoding="utf-8").splitlines()
        for lineno in sorted(statements - ran):
            mark = " [raise]" if lineno in raises else ""
            print(f"{path.relative_to(ROOT)}:{lineno}:{mark} {text[lineno - 1].strip()}")
            n_unrun += 1
            n_raise += lineno in raises
    print(f"{n_unrun} unrun lines, {n_raise} of them raise statements")
    if code != 0:
        return int(code)
    return 1 if n_raise else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Lists the statements of src/prolate that a run of the test suite never executes.

    python tests/line_trace.py [pytest arguments]

Runs pytest in this process (the whole suite by default) under a sys.settrace
line tracer, on every thread, and then prints one ``file:line text`` line per
library statement that no line event reached.  A compound statement counts as
run when its header or any statement inside it ran; docstrings are not
statements.  Code run in a subprocess is not seen.  It needs nothing beyond
pytest, so it stands in for a coverage report where coverage is not installed.
Exits with pytest's status.
"""

from __future__ import annotations

import ast
import collections
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "prolate"


def _statements(tree):
    """Per statement of the module: its line, the lines whose events count as running it, and its children."""

    def walk(body):
        out = []
        for i, node in enumerate(body):
            if i == 0 and isinstance(node, ast.Expr) and isinstance(getattr(node.value, "value", None), str):
                continue  # a docstring is stored, not run
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            blocks = [b for name in ("body", "orelse", "finalbody") for b in [getattr(node, name, None)] if b]
            blocks += [h.body for h in getattr(node, "handlers", [])]
            blocks += [c.body for c in getattr(node, "cases", [])]
            children = [s for block in blocks for s in walk(block)]
            last = node.end_lineno if not blocks else min(b[0].lineno for b in blocks) - 1
            out.append((node.lineno, range(first, max(last, node.lineno) + 1), children))
        return out

    return walk(tree.body)


def _unexecuted(statements, ran):
    """The lines of the statements that did not run, and whether any did; a compound one runs if a child does."""
    missing, any_ran = [], False
    for line, lines, children in statements:
        inner, inner_ran = _unexecuted(children, ran)
        here = inner_ran or any(i in ran for i in lines)
        missing += inner if here else [line]
        any_ran |= here
    return missing, any_ran


def main(args) -> int:
    ran = collections.defaultdict(set)  # file name -> lines with a line event
    prefix = str(LIBRARY) + "/"

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(start)
    sys.settrace(start)
    try:
        status = pytest.main(args or [str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    count = 0
    for path in sorted(LIBRARY.glob("*.py")):
        text = path.read_text()
        missing, _ = _unexecuted(_statements(ast.parse(text)), ran[str(path)])
        lines = text.splitlines()
        for line in missing:
            print(f"{path.relative_to(ROOT)}:{line} {lines[line - 1].strip()}")
        count += len(missing)
    print(f"{count} library statements never executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

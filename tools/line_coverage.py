"""Print the statement lines of ``src/gplda`` that a pytest run never executes.

No coverage package is needed: the tool runs pytest in this process under
``sys.settrace``, records the lines executed in the package's files, and
compares them with the package's statements.  A statement counts as run
when any of its own lines executes: every line of a simple statement, the
header lines of a compound one (``if``, ``for``, ``with``, ...), whose
body statements count on their own.  It is reported by its first line.
Docstrings, ``def`` and ``class`` statements, imports and the code-free
``try``, ``global`` and ``nonlocal`` lines are left out.

This process and the children it forks are traced.  While pytest runs,
``os._exit`` is wrapped so that a forked child, such as the CSV codec's,
writes the lines it recorded to a temp directory before it exits, and
those lines are merged with this process's afterwards.  A test that runs
the CLI in a new interpreter (``subprocess.run([... "gplda" ...])``) adds
nothing, so a line that only such a run reaches is reported as not run.

Usage::

    python3 tools/line_coverage.py [PYTEST_ARGS...]

runs ``pytest -q PYTEST_ARGS`` from the repository root (the whole suite
by default) and then prints one ``<count> <module>: <lines>`` line per
module with unrun lines, runs of adjacent lines shown as ``a-b``.  The
exit status is pytest's.
"""

from __future__ import annotations

import ast
import contextlib
import json
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gplda"

sys.path.insert(0, str(ROOT / "tools"))
from count_code_lines import docstring_lines  # noqa: E402

_NOT_STATEMENTS = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
    ast.Try, ast.Global, ast.Nonlocal,
)


def statements(source: str) -> list[tuple[int, ...]]:
    """The statements of ``source``, each as the tuple of its own lines:
    a simple statement's lines, or a compound statement's header lines."""
    tree = ast.parse(source)
    docstrings = docstring_lines(tree)
    found = []
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or isinstance(node, _NOT_STATEMENTS)
                or node.lineno in docstrings):
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        found.append(tuple(range(node.lineno, max(last, node.lineno) + 1)))
    return sorted(found)


def unrun_lines(source: str, executed: set[int]) -> list[int]:
    """First lines of the statements of ``source`` none of whose own lines
    is in ``executed``."""
    return [lines[0] for lines in statements(source) if executed.isdisjoint(lines)]


def _ranges(lines: list[int]) -> str:
    spans = []
    for line in lines:
        if spans and spans[-1][1] == line - 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


class LineRecorder:
    """Context manager that records, per file under ``root``, the line
    numbers executed in this process (all threads started inside it).
    On exit it puts back the tracer it replaced."""

    def __init__(self, root: Path):
        self.root = str(root.resolve()) + os.sep
        self.executed: dict[str, set[int]] = {}
        # code file name -> its line set, or None outside ``root``
        self._sets: dict[str, set[int] | None] = {}

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self._sets:
            path = os.path.realpath(name)
            self._sets[name] = (
                self.executed.setdefault(path, set()) if path.startswith(self.root) else None
            )
        return None if self._sets[name] is None else self._local

    def _local(self, frame, event, arg):
        if event == "line":
            self._sets[frame.f_code.co_filename].add(frame.f_lineno)
        return self._local

    def __enter__(self):
        self._outer = sys.gettrace(), threading.gettrace()
        threading.settrace(self._global)
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._outer[0])
        threading.settrace(self._outer[1])


@contextlib.contextmanager
def forked_children(recorder: LineRecorder):
    """Let forked children that end in ``os._exit`` report their lines.

    Inside the block, a child forked from this process writes the lines
    its copy of ``recorder`` holds to a temp directory when it calls
    ``os._exit``; on exit the block merges them into ``recorder``."""
    real_exit, parent = os._exit, os.getpid()
    with tempfile.TemporaryDirectory() as directory:

        def reporting_exit(status):
            if os.getpid() != parent:
                # Renamed when whole: a child killed while writing leaves
                # only a ".part" file, which is not read.
                part = os.path.join(directory, f"{os.getpid()}.part")
                with open(part, "w") as fh:
                    json.dump({name: sorted(lines) for name, lines in recorder.executed.items()}, fh)
                os.replace(part, part.removesuffix(".part") + ".json")
            real_exit(status)

        os._exit = reporting_exit
        try:
            yield
        finally:
            os._exit = real_exit
            for name in Path(directory).glob("*.json"):
                with open(name) as fh:
                    for path, lines in json.load(fh).items():
                        recorder.executed.setdefault(path, set()).update(lines)


def report(package: Path, executed: dict[str, set[int]]) -> list[str]:
    """One ``<count> <module>: <lines>`` line per module of ``package``
    with statement lines that ``executed`` does not hold."""
    lines = []
    for path in sorted(package.glob("*.py")):
        unrun = unrun_lines(path.read_text(encoding="utf-8"),
                            executed.get(str(path.resolve()), set()))
        if unrun:
            lines.append(f"{len(unrun):5d} {path.name}: {_ranges(unrun)}")
    return lines


def main(argv: list[str]) -> int:
    import pytest

    os.chdir(ROOT)
    # gplda must not be imported before tracing starts, or its module-level
    # lines would read as never run.
    with LineRecorder(PACKAGE) as recorder, forked_children(recorder):
        status = pytest.main(["-q", *argv])
    print(f"statement lines of {PACKAGE.relative_to(ROOT)} not run in this process or "
          "its forked children (subprocess CLI runs are not seen):")
    for line in report(PACKAGE, recorder.executed):
        print(line)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

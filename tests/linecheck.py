"""Every executable line of `src/gridledger/` runs in some tier-1 test.

The check runs the tier-1 command (``pytest -q
--continue-on-collection-errors``) in this process under `sys.settrace`,
tracing only frames whose code lives in `src/gridledger/`, and compares the
lines that ran with the lines the compiler gives bytecode in each module.
A `sigpass` worker is a forked child that leaves through `os._exit`, so it
flushes nothing: each fork re-arms the tracer in the child
(`os.register_at_fork`), and the child appends each line the first time it
runs it to a file of its own, which the parent reads at the end. A test
that runs the package in a subprocess of its own drives no line here.

    PYTHONPATH=src python tests/linecheck.py

It prints each line that fails the check and exits 1 when a line ran in no
test and is not in `tests/linecheck_allow.txt`, when a line listed there
ran, or when an entry there names no executable line. Each entry is
``<file>:<line>  <reason>``, the file relative to `src/gridledger/`; ``#``
starts a comment. Otherwise it exits with pytest's status. pytest does not
collect this file.
"""

from __future__ import annotations

import os
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gridledger"
ALLOW = ROOT / "tests" / "linecheck_allow.txt"
TIER1 = ["-q", "--continue-on-collection-errors"]


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that some instruction of its compiled code,
    at any depth of nesting, is attributed to."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec", dont_inherit=True)]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [const for const in code.co_consts if isinstance(const, types.CodeType)]
    return lines


class LineTracer:
    """Which lines of each module of `PACKAGE` ran in this process: a byte
    per line, set once it ran, so that marking a line allocates nothing and
    the tests that bound the heap with `tracemalloc` see what they see
    untraced. `call` is the global trace function."""

    def __init__(self, modules: dict[str, Path]) -> None:
        self.marks = {name: bytearray(len(path.read_text().splitlines()) + 2) for name, path in modules.items()}
        self._tracers: dict[str, object] = {}  # code filename: its module's line tracer, or None outside PACKAGE
        self._out = None  # in a forked child: the file each line it runs first is appended to

    def ran(self) -> set[tuple[str, int]]:
        return {(name, n) for name, marks in self.marks.items() for n, mark in enumerate(marks) if mark}

    def call(self, frame, event, arg):
        """Hand each frame of `PACKAGE` its module's line tracer."""
        filename = frame.f_code.co_filename
        tracer = self._tracers.get(filename, False)
        if tracer is False:
            path = Path(os.path.realpath(filename))
            name = path.relative_to(PACKAGE).as_posix() if PACKAGE in path.parents else None
            tracer = self._tracers[filename] = None if name is None else self._line_tracer(name)
        return tracer

    def _line_tracer(self, name: str):
        marks = self.marks[name]

        def trace(frame, event, arg):
            if event == "line" and not marks[frame.f_lineno]:
                marks[frame.f_lineno] = 1
                if self._out is not None:
                    self._out.write(f"{name}:{frame.f_lineno}\n")
                    self._out.flush()  # the child leaves through os._exit, which flushes nothing
            return trace

        return trace

    def arm_child(self, directory: str) -> None:
        """In a forked child: append each line it runs first to a file of its own."""
        self._out = open(os.path.join(directory, f"{os.getpid()}.lines"), "a", encoding="ascii")
        sys.settrace(self.call)


def read_allowlist() -> dict[tuple[str, int], str]:
    allowed = {}
    for text in ALLOW.read_text(encoding="utf-8").splitlines():
        text = text.split("#", 1)[0].strip()
        if text:
            where, _, reason = text.partition(" ")
            name, _, line = where.rpartition(":")
            allowed[name, int(line)] = reason.strip()
    return allowed


def main() -> int:
    import pytest

    modules = {path.relative_to(PACKAGE).as_posix(): path for path in sorted(PACKAGE.rglob("*.py"))}
    executable = {name: executable_lines(path) for name, path in modules.items()}
    tracer = LineTracer(modules)
    with tempfile.TemporaryDirectory() as children:
        os.register_at_fork(after_in_child=lambda: tracer.arm_child(children))
        threading.settrace(tracer.call)
        sys.settrace(tracer.call)
        try:
            status = pytest.main(TIER1)
        finally:
            sys.settrace(None)
            threading.settrace(None)
        ran = tracer.ran()
        for path in Path(children).iterdir():
            for text in path.read_text(encoding="ascii").splitlines():
                name, _, line = text.rpartition(":")
                ran.add((name, int(line)))
    every = {(name, n) for name, lines in executable.items() for n in lines}
    allowed = read_allowlist()
    problems = [f"{name}:{n}  ran in no test" for name, n in sorted(every - ran - allowed.keys())]
    problems += [f"{name}:{n}  is allowed unrun but ran" for name, n in sorted(allowed.keys() & ran)]
    problems += [f"{name}:{n}  is allowed unrun but is not executable" for name, n in sorted(allowed.keys() - every)]
    print(f"linecheck: {len(ran & every)} of {len(every)} executable lines of src/gridledger/ ran;"
          f" {len(allowed)} allowed unrun")
    for problem in problems:
        print(f"linecheck: {problem}")
    return 1 if problems else status


if __name__ == "__main__":
    sys.exit(main())

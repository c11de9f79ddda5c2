"""Line gate: every statement of ``src/pulsequad`` runs in some test, or is allowed not to.

An opt-in pytest plugin on the standard library's line tracer,
``sys.settrace`` (Python 3.11, which CI runs, has no ``sys.monitoring``).
Run the suite under it from the repository root with

    PYTHONPATH=src:tests python -m pytest -q -p line_gate

It records every line of the package that runs, on the calling thread and
on each thread started after it, and fails the session when a statement
outside ``ALLOWED`` never ran, or when an ``ALLOWED`` entry matches no
statement that never ran.  Only in-process code counts: the tracer does
not follow a subprocess.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pulsequad"

# (file, stripped source line) -> why no in-process test runs it.  An entry
# allows one statement with that text to go unreached; an entry that matches
# none is stale and fails the gate too.
ALLOWED = {
    ("cli.py", "sys.exit(main())"): (
        "runs only when cli.py is a script; the console-script tests run"
        " it in a subprocess, which the tracer does not follow"
    ),
    ("cli.py", 'raise ConfigError("config nests too deeply") from None'): (
        "test_config_fault_exits_2[mixture nested 300 deep] runs it, but the"
        " RecursionError is raised inside the trace function, and CPython"
        " removes a trace function that raises"
    ),
    # tomography.py's stop for a plain RhoR step that would lower the
    # likelihood: no input is known to reach it, and the Newton finisher of
    # ROADMAP item 7 removes it with the rest of the stall rule
    ("tomography.py", "converged = True"): "see the comment above",
    ("tomography.py", "break"): "see the comment above",
}

_UNSEEN = object()


def statement_lines(source: str) -> set:
    """First line of every statement in ``source``, docstrings excluded."""
    tree = ast.parse(source)
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, scopes)
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }
    return {
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and id(node) not in docstrings
    }


class LineCollector:
    """The lines of the ``.py`` files under ``root`` that run while it is installed."""

    def __init__(self, root):
        self.root = Path(os.path.realpath(root))
        self.reached = {}  # real path -> line numbers run
        self._tracers = {}  # code file name -> its line tracer, None outside root

    def install(self) -> None:
        """Trace this thread, and every thread started from now on."""
        threading.settrace(self._trace)
        sys.settrace(self._trace)

    def _trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        tracer = self._tracers.get(filename, _UNSEEN)
        if tracer is _UNSEEN:
            tracer = self._tracers[filename] = self._line_tracer(filename)
        return tracer

    def _line_tracer(self, filename):
        path = Path(os.path.realpath(filename))
        if path.suffix != ".py" or self.root not in path.parents:
            return None
        lines = self.reached.setdefault(path, set())

        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    def unreached(self) -> dict:
        """``{file: {line: stripped source}}`` of the statements under ``root``
        that never ran, each file named relative to ``root``."""
        out = {}
        for path in sorted(self.root.rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            missed = statement_lines(source) - self.reached.get(path, set())
            if missed:
                text = source.splitlines()
                name = path.relative_to(self.root).as_posix()
                out[name] = {n: text[n - 1].strip() for n in sorted(missed)}
        return out


def gate_faults(unreached: dict, allowed) -> list:
    """A line per unreached statement that ``allowed`` does not name, and
    per ``allowed`` entry left over once each has taken one statement."""
    left = set(allowed)
    faults = []
    for name, missed in unreached.items():
        for line, text in missed.items():
            if (name, text) in left:
                left.remove((name, text))
            else:
                faults.append(f"{name}:{line} never runs: {text}")
    faults += [f"{name}: allowed, but no unreached statement reads: {text}" for name, text in sorted(left)]
    return faults


class LineGate:
    """The pytest plugin object: trace the whole session, judge it at the end."""

    def __init__(self):
        self.collector = LineCollector(PACKAGE)
        self.faults = []

    # hypothesis, and CPython on a trace function that raises, can remove the
    # tracer: install it again before every test's fixtures and body
    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        self.collector.install()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        self.collector.install()

    def pytest_sessionfinish(self, session):
        sys.settrace(None)
        threading.settrace(None)
        self.faults = gate_faults(self.collector.unreached(), ALLOWED)
        if self.faults and session.exitstatus == pytest.ExitCode.OK:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(self, terminalreporter):
        terminalreporter.section("line gate")
        for fault in self.faults:
            terminalreporter.line(fault, red=True)
        if not self.faults:
            terminalreporter.line(
                f"every statement of src/pulsequad ran, but the {len(ALLOWED)} allowed"
            )


def pytest_configure(config):
    gate = LineGate()
    config.pluginmanager.register(gate, "line-gate")
    gate.collector.install()

"""The line gate's collector and verdict, on a module written for the purpose.

If these fail, the CI step that runs tier-1 under ``-p line_gate`` can pass
or fail for the wrong reason.
"""

import importlib.util
import sys
import threading

from line_gate import ALLOWED, PACKAGE, LineCollector, gate_faults

PROBE = '''\
"""A docstring is no statement that runs."""
import sys


def branch(flag):
    """Nor is a function's."""
    if flag:
        return "taken"
    return "not taken"


def on_thread():
    return "helper"


def while_off():
    return "untraced"


def after_reinstall():
    return "traced again"
'''


def test_collector_reports_exactly_the_unreached_lines(tmp_path):
    (tmp_path / "probe.py").write_text(PROBE, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("line_gate_probe", tmp_path / "probe.py")
    probe = importlib.util.module_from_spec(spec)
    collector = LineCollector(tmp_path)
    previous = sys.gettrace(), threading.gettrace()
    collector.install()
    try:
        spec.loader.exec_module(probe)
        probe.branch(True)
        helper = threading.Thread(target=probe.on_thread)
        helper.start()
        helper.join(timeout=30)
        sys.settrace(None)  # as a tool that takes the tracer over and drops it
        probe.while_off()
        collector.install()
        probe.after_reinstall()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    assert not helper.is_alive()
    assert collector.unreached() == {
        "probe.py": {9: 'return "not taken"', 17: 'return "untraced"'},
    }


def test_gate_fails_an_unallowed_line_and_a_stale_entry():
    unreached = {"a.py": {3: "x = 1", 7: "return y", 9: "x = 1"}}
    allowed = {("a.py", "x = 1"): "why", ("a.py", "gone()"): "why"}
    # each entry allows one line: the second "x = 1" is a fault
    assert gate_faults(unreached, allowed) == [
        "a.py:7 never runs: return y",
        "a.py:9 never runs: x = 1",
        "a.py: allowed, but no unreached statement reads: gone()",
    ]
    assert gate_faults(unreached, {}) == [
        "a.py:3 never runs: x = 1",
        "a.py:7 never runs: return y",
        "a.py:9 never runs: x = 1",
    ]


def test_allowed_entries_name_package_lines_with_a_reason():
    for (name, text), reason in ALLOWED.items():
        lines = (PACKAGE / name).read_text(encoding="utf-8").splitlines()
        assert text in {line.strip() for line in lines}, (name, text)
        assert reason
    assert len(ALLOWED) <= 4

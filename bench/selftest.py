#!/usr/bin/env python3
"""Self-test of the benchmark at reduced sizes; takes well under a minute.

    python3 bench/selftest.py

For every workload it makes two traced smoke runs at one seed and requires
identical exact counts (``layers.EXACT_COUNTS``), a result line of the
documented shape holding every per-layer metric, and ``correct`` true.  It
also makes one untraced smoke run, and checks that a copy of the benchmark
without the pulsequad sources fails without printing a result.  It is not a
pytest module, so the tier-1 suite does not collect it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
sys.path.insert(0, BENCH_DIR)

from layers import EXACT_COUNTS, PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
END_TO_END = {"wall_s", "setup_s", "pulses_per_s", "peak_rss_mb"}


def bench(run_py: str, workload: str, trace: int) -> tuple[int, list[str]]:
    argv = [sys.executable, run_py, "--workload", workload, "--seed", "3",
            "--seconds", "0", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_result(lines: list[str], names: set) -> tuple[dict, dict]:
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    assert set(result) == RESULT_KEYS, f"result keys {sorted(result)}"
    assert result["correct"] is True, f"failures: {detail['failures']}"
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == names, f"metrics {sorted(result['metrics'])}"
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"} and isinstance(m["value"], (int, float))
    return result, detail


def main() -> int:
    failures = 0

    def report(name: str, fn) -> None:
        nonlocal failures
        try:
            fn()
            print(f"PASS {name}")
        except (AssertionError, ValueError, IndexError, KeyError) as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")

    for workload in WORKLOADS:
        def traced_twice(workload=workload):
            counts = []
            for _ in range(2):
                code, lines = bench(RUN, workload, 1)
                assert code == 0, f"exit code {code}"
                _, detail = check_result(lines, set(PER_LAYER_UNITS))
                counts.append(detail["traced"]["exact_counts"])
            assert counts[0] == counts[1], f"exact counts differ: {counts}"
            assert set(counts[0]) == set(EXACT_COUNTS)

        report(f"{workload}: two traced smoke runs agree on exact counts", traced_twice)

    def untraced():
        code, lines = bench(RUN, "characterize-default", 0)
        assert code == 0, f"exit code {code}"
        check_result(lines, END_TO_END)

    report("characterize-default: untraced smoke run prints every end-to-end metric", untraced)

    def without_sources():
        work = os.path.join(ROOT, ".bench_work")
        os.makedirs(work, exist_ok=True)
        bare = tempfile.mkdtemp(dir=work)
        try:
            shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            code, lines = bench(os.path.join(bare, "bench", "run.py"), "characterize-default", 0)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
            try:
                os.rmdir(work)
            except OSError:  # a benchmark run still uses it
                pass
        assert code != 0, "run without sources exited 0"
        assert not lines, f"run without sources printed {lines[-1:]}"

    report("a checkout without src/ fails without a result", without_sources)
    print(f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""pulsequad benchmark: CLI runs timed end to end, and a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Paths are resolved from this file, so it runs from any directory.  Each
measurement is one ``pulsequad`` CLI run in a fresh child process
(``bench/child.py``), spawned in a closed loop with one client: the next
child starts only after the previous one has exited and its outputs were
checked, so at most one child process exists at a time.  Children use
``BLAS_THREADS`` BLAS/OpenMP threads.

A run first spawns one untimed child that stops after loading its config, so
the bytecode and page caches are warm.  It then spawns full children at
config seed ``--seed`` while another child, as long as the last one, still
ends within ``--seconds``; there is always at least one, so a run lasts
about ``--seconds`` or one child, whichever is longer.  With ``--trace 0``
it adds children that stop after loading the config until ``SETUP_SAMPLES``
set-up times were taken, and reports the end-to-end metrics:

    wall_s        spawn of the child to its exit (median over children)
    setup_s       spawn to the return of ``load_config``: interpreter start,
                  imports and config loading (median over all children)
    pulses_per_s  configured ``n_pulses`` / (wall_s - setup_s) (median)
    peak_rss_mb   the child's ``ru_maxrss`` (median)
    failed_frac   failed children / attempted children; it is reported as
                  the result's ``failed`` and ``attempted`` and in the
                  detail line, since on correct code it is always 0.

The shared host's speed drifts by up to 1.6x within minutes, and a run's
medians drift with it.  So before each timed child and after the last one,
outside their timed spans, the benchmark times a reference child,
``REFERENCE_ARGV``: interpreter start and the import of the program's
third-party libraries, which pulsequad's code does not affect.  Each timed
child's times are multiplied by ``REFERENCE_S`` / (the mean of the reference
times just before and just after it), and its pulses_per_s is divided by
that factor, before the medians are taken: figures on a host where the
reference takes ``REFERENCE_S``.  peak_rss_mb is not scaled.  The unscaled
medians and every child's factor are in the detail line.

With ``--trace 1`` the timed children are followed by one traced child; the
result holds the per-layer metrics of ``bench/layers.py``.

A child fails if it exits non-zero, times out, or its outputs fail the
workload's check (``bench/workloads.py``).  Artifacts are written to a
temporary directory under ``.bench_work/`` in the checkout and deleted after
each child, outside the timed span.  The last stdout line is the result
JSON; the line before it records the environment, every child's timings,
results and artifact SHA-256 digests, and the tail percentiles.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(BENCH_DIR, "child.py")

sys.path.insert(0, SRC)

from layers import EXACT_COUNTS, per_layer_metrics, span_shares  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

# One thread keeps runs steady on a small shared host; the pipeline's dense
# linear algebra is on cutoff-sized (10 x 10) matrices, which BLAS does not
# split across threads anyway.
BLAS_THREADS = 1
SETUP_SAMPLES = 8  # set-up times per run: every child's, topped up by probes
RUN_DEADLINE_S = 150.0  # no child starts later, and none outlives it by over 1 s
CHILD_TIMEOUT_S = 90.0
REFERENCE_ARGV = [sys.executable, "-c", "import numpy, scipy.sparse, scipy.special"]
REFERENCE_S = 0.5  # about the reference's median on a 2-core shared host; any constant serves


@dataclass
class Child:
    seed: int
    wall_s: float
    setup_s: float | None
    peak_rss_mb: float
    error: str | None
    results: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    artifact_bytes: int = 0
    trace: dict | None = None
    scale: float = 1.0  # REFERENCE_S over this child's reference time


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    # Installed packages run from cached bytecode; the warm-up child fills the cache.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` and return ``(rusage, timed_out)``; kill it at ``timeout``."""
    pidfd = os.pidfd_open(proc.pid)
    timed_out = True
    try:
        timed_out = not select.select([pidfd], [], [], timeout)[0]
    finally:
        if timed_out:  # or interrupted: never leave the child running
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage, timed_out


def reference_s(deadline: float) -> float:
    """Seconds one reference child takes, from spawn to exit."""
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    t0 = time.monotonic()
    subprocess.run(REFERENCE_ARGV, env=child_env(), cwd=BENCH_DIR, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, check=True, timeout=timeout)
    return time.monotonic() - t0


def _digests(out_dir: str) -> tuple[dict, int]:
    digests, size = {}, 0
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
                size += len(block)
        digests[name] = h.hexdigest()
    return digests, size


def run_child(workload, seed: int, n_pulses: int, full: bool, deadline: float,
              setup_only: bool = False, trace_id: str | None = None) -> Child:
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        out_dir = os.path.join(work, "out")
        cfg_path = os.path.join(work, "config.json")
        rec_path = os.path.join(work, "record.json")
        with open(cfg_path, "w") as fh:
            json.dump(dict(workload.config, n_pulses=n_pulses, seed=seed, out_dir=out_dir), fh)
        argv = [sys.executable, CHILD, rec_path]
        argv += ["--setup-only"] if setup_only else []
        argv += ["--trace", trace_id] if trace_id else []
        argv += ["--", workload.config["run"], "--config", cfg_path]
        env = child_env()
        timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
        with open(os.path.join(work, "stderr.txt"), "wb+") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, env=env, cwd=work, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            usage, timed_out = _wait(proc, timeout)
            wall = time.monotonic() - t0
            err.seek(0)
            stderr_tail = err.read()[-400:].decode(errors="replace").strip()

        try:
            with open(rec_path) as fh:
                record = json.load(fh)
        except (OSError, ValueError):  # the child died before writing it
            record = {}
        loaded = record.get("config_loaded")
        child = Child(seed=seed, wall_s=wall, setup_s=None if loaded is None else loaded - t0,
                      peak_rss_mb=usage.ru_maxrss / 1024.0, error=None, trace=record.get("trace"))
        if timed_out:
            child.error = f"timed out after {timeout:.0f} s"
        elif proc.returncode != 0:
            child.error = f"exit code {proc.returncode}: {stderr_tail}"
        elif loaded is None:
            child.error = "child wrote no set-up time"
        elif not record.get("package", "").startswith(SRC + os.sep):
            child.error = f"imported pulsequad from {record.get('package')}, not {SRC}"
        elif not setup_only:
            try:
                child.results = workload.check(out_dir, n_pulses, full)
            except (CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
                child.error = f"output check: {type(exc).__name__}: {exc}"
            if os.path.isdir(out_dir):
                child.digests, child.artifact_bytes = _digests(out_dir)
        return child
    finally:
        shutil.rmtree(work, ignore_errors=True)


def tail(values: list) -> dict | None:
    """The highest nearest-rank percentile with at least ten samples beyond it."""
    xs = sorted(values)
    rank = len(xs) - 10
    if rank < 1:
        return None
    return {"percentile": 100.0 * rank / len(xs), "value": xs[rank - 1]}


def summary(values: list, unit: str) -> dict:
    return {"median": statistics.median(values), "unit": unit, "n": len(values),
            "tail": tail(values), "samples": values}


def git_rev() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "git_rev": git_rev(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy")}


def child_detail(c: Child) -> dict:
    return {"seed": c.seed, "wall_s": c.wall_s, "setup_s": c.setup_s, "scale": c.scale,
            "peak_rss_mb": c.peak_rss_mb, "error": c.error, "results": c.results,
            "sha256": c.digests}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pulsequad end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, structural output checks only")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pulsequad", "cli.py")):
        print(f"bench: no pulsequad sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    # On SIGTERM, unwind so the running child is killed and its directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    full = not args.smoke
    n_pulses = workload.n_pulses if full else workload.smoke_pulses
    deadline = time.monotonic() + RUN_DEADLINE_S

    def spawn(seed, **kw):
        return run_child(workload, seed, n_pulses, full, deadline, **kw)

    children: list[Child] = []
    probes: list[Child] = []
    references: list[float] = []

    def timed(**kw):
        references.append(reference_s(deadline))
        return spawn(args.seed, **kw)

    try:
        spawn(args.seed, setup_only=True)  # warm-up, not counted
        start = time.monotonic()
        while time.monotonic() < deadline:
            children.append(timed())
            now = time.monotonic()
            if now + children[-1].wall_s - start > args.seconds:
                break  # a child as long as the last would end past --seconds
        while (not args.trace and len(children) + len(probes) < SETUP_SAMPLES
               and time.monotonic() < deadline):
            probes.append(timed(setup_only=True))
        references.append(reference_s(deadline))  # the one after the last timed child
        traced = spawn(args.seed, trace_id=f"{args.workload}:{args.seed}") if args.trace else None
    finally:
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    attempted = children + probes + ([traced] if traced else [])
    failures = [c for c in attempted if c.error]
    passed = [c for c in children if not c.error] or children
    setups = [c.setup_s for c in passed + probes if c.setup_s is not None]
    if not setups or (traced and traced.trace is None):
        for c in failures:
            print(f"bench: seed {c.seed}: {c.error}", file=sys.stderr)
        print("bench: no child reached the end of set-up; nothing to report", file=sys.stderr)
        return 1

    for c, before, after in zip(children + probes, references, references[1:]):
        c.scale = 2 * REFERENCE_S / (before + after)

    def end_to_end(scale) -> dict:
        timed_setup = [c for c in passed + probes if c.setup_s is not None]
        return {
            "wall_s": summary([c.wall_s * scale(c) for c in passed], "s"),
            "setup_s": summary([c.setup_s * scale(c) for c in timed_setup], "s"),
            "pulses_per_s": summary([n_pulses / ((c.wall_s - c.setup_s) * scale(c))
                                     for c in passed if c.setup_s is not None], "1/s"),
            "peak_rss_mb": summary([c.peak_rss_mb for c in passed], "MB"),
        }

    e2e = end_to_end(lambda c: c.scale)
    raw = {name: s["median"] for name, s in end_to_end(lambda c: 1.0).items()}
    detail = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "n_pulses": n_pulses, "environment": environment(),
        "failed_frac": {"value": len(failures) / len(attempted), "unit": "ratio",
                        "failed": len(failures), "attempted": len(attempted)},
        "end_to_end": e2e, "end_to_end_raw": raw, "reference_s": references,
        "children": [child_detail(c) for c in children],
        "setup_probes_s": [c.setup_s for c in probes],
        "failures": [{"seed": c.seed, "error": c.error} for c in failures],
    }
    if traced:
        overhead = traced.wall_s - statistics.median(c.wall_s for c in passed)
        metrics = per_layer_metrics(traced.trace, traced.artifact_bytes, overhead)
        detail["traced"] = dict(child_detail(traced),
                                span_shares=span_shares(traced.trace, traced.wall_s),
                                exact_counts={k: metrics[k]["value"] for k in EXACT_COUNTS})
    else:
        metrics = {name: {"value": s["median"], "unit": s["unit"]} for name, s in e2e.items()}

    for name, s in e2e.items():
        print(f"{args.workload} {name} = {s['median']:.6g} {s['unit']}"
              f" (median of {s['n']}; {raw[name]:.6g} unscaled)")
    print(f"{args.workload} reference child = {statistics.median(references):.6g} s"
          f" (median of {len(references)})")
    ff = detail["failed_frac"]
    print(f"{args.workload} failed_frac = {ff['value']:.6g} ({ff['failed']}/{ff['attempted']})")
    if traced:
        for name, m in metrics.items():
            print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for c in failures:
        print(f"bench: seed {c.seed}: {c.error}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not failures, "attempted": len(attempted),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

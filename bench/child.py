"""One pulsequad CLI run in its own process, as the benchmark spawns it.

    python3 bench/child.py RECORD [--setup-only] [--trace RUN_ID] -- CLI_ARGS...

Runs ``pulsequad.cli.main(CLI_ARGS)`` and writes a JSON record to RECORD
when it ends: the ``time.monotonic()`` at which ``load_config`` returned
(the end of set-up), the imported package's path, and with ``--trace`` the
spans and counts of every public function of the six pulsequad modules.
``--setup-only`` exits as soon as the config is loaded.

Spans are kept in memory and written once, after the CLI returns.  Each
wrapper replaces every reference to the original function that a module
holds, whether the caller imported it by name (``from .states import
quadrature_pdf``), reaches it through the module (``tomography.
sample_quadratures``) or through a dict (the CLI's runner table), so the
spans follow the calls the program really makes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
import types

LAYERS = ("detector", "extraction", "characterization", "states", "tomography", "cli")


class Tracer:
    """In-memory span recorder: ``[name, parent index, start, end]`` per call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.deferred: list = []  # (count name, thunk) evaluated after the run

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(value)

    def wrap(self, name: str, fn, counter=None):
        clock = time.monotonic
        spans, stack = self.spans, self.stack
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self, bound.arguments, result)
            return result

        return traced

    def record(self) -> dict:
        for name, thunk in self.deferred:
            self.add(name, thunk())
        return {"run_id": self.run_id, "spans": self.spans, "counts": self.counts}


def _mle_cells(values, phases, bin_width) -> int:
    import numpy as np

    keys = np.column_stack([np.asarray(phases), np.floor(np.asarray(values) / bin_width)])
    return int(np.unique(keys, axis=0).shape[0])


def _count_mle(tracer, args, result):
    tracer.add("tomography.mle_iterations", result.iterations)
    batch, width = args["batch"], args["bin_width"]
    tracer.deferred.append(
        ("tomography.mle_cells", lambda: _mle_cells(batch.values, batch.phases, width))
    )


# Exact counts taken at a layer boundary, keyed by function name.  Counting
# that costs more than a len is deferred until the run has ended.
COUNTERS = {
    "generate_trace": lambda t, a, r: t.add("detector.samples", r[0].samples.size),
    "segment_pulses": lambda t, a, r: t.add("extraction.windows", len(r)),
    "sample_quadratures": lambda t, a, r: t.add("tomography.samples", len(r)),
    "mle_reconstruct": _count_mle,
}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer module at all their references."""
    modules = [importlib.import_module(f"pulsequad.{name}") for name in LAYERS]
    originals = {}
    for module in modules:
        layer = module.__name__.rpartition(".")[2]
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr, None)
            if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                originals[id(fn)] = tracer.wrap(f"{layer}.{attr}", fn, COUNTERS.get(attr))
    for module in [m for m in sys.modules.values() if m and m.__name__.startswith("pulsequad")]:
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and id(value) in originals:
                setattr(module, attr, originals[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if isinstance(item, types.FunctionType) and id(item) in originals:
                        value[key] = originals[id(item)]


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, cli_argv = argv[:split], argv[split + 1 :]
    record_path = own[0]
    setup_only = "--setup-only" in own
    tracer = Tracer(own[own.index("--trace") + 1]) if "--trace" in own else None
    record: dict = {"config_loaded": None}

    def write_record() -> None:
        with open(record_path, "w") as fh:
            json.dump(record, fh)

    import pulsequad
    import pulsequad.cli as cli

    record["package"] = os.path.abspath(pulsequad.__file__)
    if tracer is not None:
        install(tracer)
    load_config = cli.load_config

    def timed_load_config(*args, **kwargs):
        config = load_config(*args, **kwargs)
        record["config_loaded"] = time.monotonic()
        if setup_only:
            write_record()
            os._exit(0)
        return config

    cli.load_config = timed_load_config
    code = cli.main(cli_argv)
    if tracer is not None:
        record["trace"] = tracer.record()
    write_record()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

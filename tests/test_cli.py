"""Command-line front end: config validation, artifacts, reproducibility."""

import gc
import importlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import types
import warnings
from dataclasses import fields
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pulsequad
from pulsequad import cli, states
from pulsequad.cli import (
    DEFAULT_N_PULSES,
    MAX_N_PULSES,
    RUN_KINDS,
    ConfigError,
    ExperimentConfig,
    PhaseSchedule,
    TomographyOptions,
    load_config,
    main,
    run_characterize,
    run_tomography,
    run_trace_export,
)
from pulsequad.detector import (
    BLOCK_SAMPLES,
    PULSE_SHAPES,
    DetectorConfig,
    DriftModel,
    _child_seed,
    _seeded_rng,
)
from pulsequad.states import StateModel

from reference import generate_trace, write_trace_binary, write_trace_csv


# pulse periods per trace block at the default detector: 2,621 of 25 samples
BLOCK_ROWS = BLOCK_SAMPLES // DetectorConfig().samples_per_period


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_all_outputs(directory):
    return {
        p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()
    }


class TestConfigParsing:
    def test_minimal_config(self, tmp_path):
        path = write_config(tmp_path, {"run": "trace-export"})
        cfg = load_config(path)
        assert cfg.run == "trace-export"
        assert cfg.n_pulses == 100
        assert cfg.seed == 0

    @pytest.mark.parametrize("run", RUN_KINDS)
    def test_n_pulses_defaults_to_the_runs(self, tmp_path, run):
        assert ExperimentConfig(run=run).n_pulses == DEFAULT_N_PULSES[run]
        path = write_config(tmp_path, {"run": run, "n_pulses": None})
        assert load_config(path) == ExperimentConfig(run=run)

    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, {"run": "trace-export", "n_pulse": 5})
        with pytest.raises(ConfigError, match="n_pulse"):
            load_config(path)

    def test_unknown_detector_key(self, tmp_path):
        path = write_config(
            tmp_path, {"run": "trace-export", "detector": {"gains": 10}}
        )
        with pytest.raises(ConfigError, match="gains"):
            load_config(path)

    def test_unknown_state_key(self, tmp_path):
        path = write_config(
            tmp_path, {"run": "tomography", "state": {"kind": "fock", "m": 2}}
        )
        with pytest.raises(ConfigError, match="state"):
            load_config(path)

    def test_unknown_phases_key(self, tmp_path):
        path = write_config(
            tmp_path, {"run": "tomography", "phases": {"kind": "sweep", "n": 4}}
        )
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_tomography_key(self, tmp_path):
        path = write_config(
            tmp_path, {"run": "tomography", "tomography": {"cutof": 8}}
        )
        with pytest.raises(ConfigError):
            load_config(path)

    def test_config_must_be_an_object(self, tmp_path):
        with pytest.raises(ConfigError, match="config must be a JSON object"):
            load_config(write_config(tmp_path, [{"run": "tomography"}]))

    def test_unknown_run_kind(self, tmp_path):
        with pytest.raises(ConfigError, match="run must be one of"):
            load_config(write_config(tmp_path, {"run": "calibrate"}))

    def test_run_mismatch(self, tmp_path):
        path = write_config(tmp_path, {"run": "tomography"})
        with pytest.raises(ConfigError, match="does not match"):
            load_config(path, run="characterize")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="read"):
            load_config(str(tmp_path / "absent.json"))

    def test_overrides(self, tmp_path):
        path = write_config(tmp_path, {"run": "trace-export", "seed": 5})
        cfg = load_config(path, seed_override=11, out_override="elsewhere")
        assert cfg.seed == 11
        assert cfg.out_dir == "elsewhere"

    def test_complex_alpha(self, tmp_path):
        path = write_config(
            tmp_path,
            {"run": "tomography", "state": {"kind": "coherent", "alpha": [0.5, 0.2]}},
        )
        cfg = load_config(path)
        assert cfg.state.alpha == complex(0.5, 0.2)

    def test_invalid_detector_value(self, tmp_path):
        path = write_config(
            tmp_path, {"run": "trace-export", "detector": {"p_lo": -1.0}}
        )
        with pytest.raises(ConfigError, match="detector"):
            load_config(path)

    def test_integral_numbers_coerce(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "run": "trace-export",
                "n_pulses": 1e5,
                "detector": {"f_rep": 80_000_000, "drift": {"linear_rate": 0}},
                "state": {"kind": "coherent", "alpha": 1},
                "phases": {"kind": "list", "values": [0, 1.5]},
            },
        )
        cfg = load_config(path)
        assert cfg.n_pulses == 100_000 and type(cfg.n_pulses) is int
        assert type(cfg.detector.f_rep) is float
        assert type(cfg.detector.drift.linear_rate) is float
        assert cfg.state.alpha == 1 + 0j and type(cfg.state.alpha) is complex
        assert cfg.phases.values == (0.0, 1.5)

    def test_fault_names_dotted_path(self, tmp_path):
        path = write_config(
            tmp_path,
            {"run": "trace-export", "detector": {"drift": {"linear_rate": "fast"}}},
        )
        with pytest.raises(ConfigError, match=r"config\.detector\.drift\.linear_rate"):
            load_config(path)

    def test_mixture_components_are_parsed_recursively(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "run": "tomography",
                "state": {
                    "kind": "mixture",
                    "weights": [0.5, 0.5],
                    "components": [{"kind": "fock", "n": 1}, {"kind": "coherent", "alpha": 1.0}],
                },
            },
        )
        state = load_config(path).state
        assert state.components == (StateModel.fock(1), StateModel.coherent(1.0))
        bad = write_config(
            tmp_path,
            {"run": "tomography", "state": {"components": [{"kind": "fock", "m": 1}]}},
            "bad.json",
        )
        with pytest.raises(ConfigError, match=r"config\.state\.components\[0\]"):
            load_config(bad)


# refused at config load, before any setting is built or out_dir is made:
# 10**15 sweep settings would need 7.11 PiB, and a sweep's settings can overflow
SCHEDULE_FAULTS = {
    "sweep count 1e15": {"phases": {"kind": "sweep", "count": 10**15}},
    "phase list longer than n_pulses": {"phases": {"kind": "list", "values": [0.5] * 201}},
    "trace-export sweep count 1e15": {
        "run": "trace-export",
        "phases": {"kind": "sweep", "count": 10**15},
    },
    "sweep settings overflow": {"phases": {"kind": "sweep", "start": 1e308, "span": 1e308}},
    "sweep settings overflow before the last": {
        "phases": {"kind": "sweep", "count": 200, "start": -1e308, "span": 1.7e308},
    },
}

def nested_mixture(depth):
    """A vacuum wrapped in ``depth`` one-component mixtures."""
    state = {"kind": "vacuum"}
    for _ in range(depth):
        state = {"kind": "mixture", "weights": [1.0], "components": [state]}
    return state


# Each of these once crashed with a traceback, failed at run time (exit 3)
# or was silently truncated; all are configuration faults.
CONFIG_FAULTS = {
    "seed string": {"seed": "abc"},
    "n_pulses string": {"n_pulses": "x"},
    "phase list string": {"phases": {"kind": "list", "values": ["a"]}},
    "efficiency string": {"state": {"efficiency": "x"}},
    "detector list": {"run": "trace-export", "detector": [1, 2]},
    "state list": {"state": [1]},
    "phases list": {"phases": [1]},
    "drift list": {"run": "trace-export", "detector": {"drift": [1]}},
    "gain overflow": {"run": "trace-export", "detector": {"gain": 1e308}},
    "fractional cutoff": {"tomography": {"cutoff": 4.5}},
    "fractional max_iter": {"tomography": {"max_iter": 5.5}},
    "phase value string": {"phases": {"value": "x"}},
    "huge LO power": {"run": "trace-export", "detector": {"p_lo": 1e300}},
    "NaN CMRR": {"run": "trace-export", "detector": {"cmrr_db": math.nan}},
    "negative infinite CMRR": {"run": "trace-export", "detector": {"cmrr_db": -math.inf}},
    "fractional seed": {"seed": 3.7},
    "fractional sweep count": {"phases": {"kind": "sweep", "count": 2.5}},
    "negative seed": {"seed": -1},
    "boolean n_pulses": {"n_pulses": True},
    "infinite bin_width": {"tomography": {"bin_width": math.inf}},
    "vanishing bin_width": {"tomography": {"bin_width": 1e-300}},
    "bin_width wider than the sampling grid": {"tomography": {"bin_width": 50.0}},
    # JSON's Infinity: the reconstruction stopped after one step, "converged"
    "infinite tol": {"tomography": {"tol": math.inf}},
    # exited 3 with "maximum recursion depth exceeded"
    "mixture nested 300 deep": {"state": nested_mixture(300)},
    "characterize single pulse": {"run": "characterize", "n_pulses": 1},
    "fock above cutoff": {"state": {"kind": "fock", "n": 7}, "tomography": {"cutoff": 4}},
    "fock at cutoff": {"state": {"kind": "fock", "n": 4}, "tomography": {"cutoff": 4}},
    "mixture fock above cutoff": {
        "state": {
            "kind": "mixture",
            "weights": [0.5, 0.5],
            "components": [
                {"kind": "vacuum"},
                {"kind": "mixture", "weights": [1.0], "components": [{"kind": "fock", "n": 5}]},
            ],
        },
        "tomography": {"cutoff": 5},
    },
    "trace-export fock above cutoff": {"run": "trace-export", "state": {"kind": "fock", "n": 10}},
    # the cutoff discarded 0.102 of the norm; the run reported W(0,0) -0.0018 and exited 0
    "coherent alpha 2.5 at cutoff 10": {
        "state": {"kind": "coherent", "alpha": 2.5},
        "tomography": {"cutoff": 10},
    },
    "trace-export coherent alpha 2.5": {
        "run": "trace-export",
        "state": {"kind": "coherent", "alpha": 2.5},
    },
    "tomography eta 0": {"tomography": {"eta": 0.0}},
    "tomography n_pulses 0": {"n_pulses": 0},
    "phase values not a list": {"phases": {"kind": "list", "values": 0.5}},
    "unknown phase kind": {"phases": {"kind": "spiral"}},
    "empty phase list": {"phases": {"kind": "list", "values": []}},
    "sweep count 0": {"phases": {"kind": "sweep", "count": 0}},
    "NaN phase": {"phases": {"kind": "list", "values": [0.5, math.nan]}},
    "negative electronic noise": {
        "run": "trace-export",
        "detector": {"elec_noise_area_var": -1e-22},
    },
    "unknown state kind": {"state": {"kind": "squeezed"}},
    "state efficiency above 1": {"state": {"kind": "coherent", "alpha": 0.5, "efficiency": 1.5}},
    "NaN alpha": {"state": {"kind": "coherent", "alpha": math.nan}},
    "mixture with more weights than components": {
        "state": {"kind": "mixture", "weights": [0.5, 0.5], "components": [{"kind": "vacuum"}]},
    },
    # a field another kind reads: the vacuum alpha 2.0 reconstructed the vacuum and exited 0
    "vacuum alpha": {"state": {"kind": "vacuum", "alpha": 2.0}},
    "fock alpha": {"state": {"kind": "fock", "n": 1, "alpha": 0.5}},
    "coherent n": {"state": {"kind": "coherent", "alpha": 0.5, "n": 1}},
    "vacuum weights": {"state": {"kind": "vacuum", "weights": [1.0]}},
    "mixture component with a foreign field": {
        "state": {
            "kind": "mixture",
            "weights": [0.5, 0.5],
            "components": [{"kind": "vacuum"}, {"kind": "fock", "n": 1, "alpha": 0.5}],
        },
    },
    "random phase values": {"phases": {"kind": "random", "values": [0.5]}},
    "phase list count": {"phases": {"kind": "list", "values": [0.5], "count": 3}},
    "sweep phase value": {"phases": {"kind": "sweep", "value": 1.0}},
    # a section the run does not read: each was accepted and ignored, and
    # trace-export refused a Fock 12 state at a cutoff of 10 it was not given
    "characterize state": {"run": "characterize", "state": {"kind": "fock", "n": 12}},
    "characterize sweep count 1e15": {
        "run": "characterize",
        "phases": {"kind": "sweep", "count": 10**15},
    },
    "characterize tomography": {"run": "characterize", "tomography": {"eta": 0.5}},
    "trace-export tomography cutoff 13": {
        "run": "trace-export",
        "state": {"kind": "fock", "n": 12},
        "tomography": {"cutoff": 13},
    },
    # a limit of trace synthesis, which tomography never does: 76 MHz at the
    # default 2 GS/s is no whole number of samples per period
    "tomography f_rep 76 MHz": {"detector": {"f_rep": 76e6}},
    # loss maps a vacuum to itself: the trace was byte-identical, and tomography
    # reported a null fidelity for a sampled state that was exactly the vacuum
    "trace-export vacuum efficiency 0.5": {
        "run": "trace-export",
        "state": {"kind": "vacuum", "efficiency": 0.5},
    },
    "mixture vacuum component efficiency": {
        "state": {
            "kind": "mixture",
            "weights": [0.5, 0.5],
            "components": [{"kind": "fock", "n": 1}, {"kind": "vacuum", "efficiency": 0.5}],
        },
    },
    # f_rep * ALLAN_BLOCK_S rounds to no pulse per Allan block, 0.5 included
    **{
        f"characterize f_rep {f_rep:g}": {
            "run": "characterize",
            "detector": {"f_rep": f_rep, "sample_rate": 25 * f_rep, "fwhm_pulse": 0.44 / f_rep},
        }
        for f_rep in (100.0, 400.0, 500.0)
    },
    # characterize calibrates against shot noise, and eta_pd 0 gives none
    "characterize eta_pd 0": {"run": "characterize", "detector": {"eta_pd": 0.0}},
    "characterize eta_pd 0 with electronic noise": {
        "run": "characterize",
        "detector": {"eta_pd": 0.0, "elec_noise_area_var": 1e-22},
    },
    # 1e9 samples per period: one array over a period is 7.45 GiB
    "samples per period 1e9": {"detector": {"f_rep": 1e3, "sample_rate": 1e12}},
    # detectors whose characterize battery float64 cannot compute: each exited 3,
    # or 0 after RuntimeWarnings with infinite or overflowed figures
    **{
        f"characterize {name}": {"run": "characterize", "detector": detector}
        for name, detector in {
            "leakage 1e9 shot-noise sds": {"cmrr_db": -102.0},
            "leakage at 1e100 W": {"p_lo": 1e100},
            "shot-noise variance underflow": {"gain": 1e-148},
            "electronic variance 1e300": {"elec_noise_area_var": 1e300},
            "drift ramp overflow": {"drift": {"linear_rate": 1e200}},
            "drift walk overflow": {"drift": {"random_walk_sigma": 1e150}},
            "variance squares overflow": {"gain": 1e150},
            # the blocked/balanced PSD ratio of the CMRR underflowed to a -inf dB report
            "LO below one photon per pulse": {
                "gain": 1.7e16,
                "p_lo": 4e-129,
                "elec_noise_area_var": 0.0,
                "drift": {"linear_rate": -1.6e123},
            },
        }.items()
    },
    **SCHEDULE_FAULTS,
}


# what the characterize faults that once had checks of their own report
FAULT_QUANTITIES = {
    "characterize single pulse": "the number of pulses, 1,",
    **{
        f"characterize f_rep {f_rep:g}": "the number of pulses per Allan block, 0,"
        for f_rep in (100.0, 400.0, 500.0)
    },
    "characterize eta_pd 0": "the shot-noise area variance, 0,",
    "characterize eta_pd 0 with electronic noise": "the shot-noise area variance, 0,",
    "infinite tol": "tol must be positive and finite",
    "mixture nested 300 deep": "config nests too deeply",
    "coherent alpha 2.5 at cutoff 10": (
        "tomography state: coherent(2.5+0j) loses 0.102 of its norm at cutoff 10"
    ),
    "trace-export coherent alpha 2.5": (
        "trace-export state: coherent(2.5+0j) loses 0.102 of its norm at cutoff 10"
    ),
    "tomography eta 0": "tomography eta must lie in (0, 1]",
    "tomography n_pulses 0": "n_pulses must be at least 1 for run 'tomography'",
    "phase values not a list": "config.phases.values must be a list",
    "unknown phase kind": "unknown phase schedule kind 'spiral'",
    "empty phase list": "phase list must not be empty",
    "sweep count 0": "sweep count must be at least 1",
    "NaN phase": "phases must be finite",
    "negative electronic noise": "elec_noise_area_var must be nonnegative",
    "unknown state kind": "unknown state kind 'squeezed'",
    "state efficiency above 1": "efficiency must lie in [0, 1]",
    "NaN alpha": "alpha must be finite",
    "mixture with more weights than components": "mixture needs matching weights and components",
    "vacuum alpha": "invalid config.state: a vacuum state takes no alpha",
    "fock alpha": "invalid config.state: a fock state takes no alpha",
    "coherent n": "invalid config.state: a coherent state takes no n",
    "vacuum weights": "invalid config.state: a vacuum state takes no weights",
    "mixture component with a foreign field": (
        "invalid config.state.components[1]: a fock state takes no alpha"
    ),
    "random phase values": "a random phase schedule takes no values",
    "phase list count": "a list phase schedule takes no count",
    "sweep phase value": "a sweep phase schedule takes no value",
    "characterize state": "config error: a characterize run takes no state\n",
    "characterize sweep count 1e15": "config error: a characterize run takes no phases\n",
    "characterize tomography": "config error: a characterize run takes no tomography\n",
    "trace-export tomography cutoff 13": "config error: a trace-export run takes no tomography\n",
    "trace-export vacuum efficiency 0.5": "invalid config.state: a vacuum state takes no efficiency",
    "mixture vacuum component efficiency": (
        "invalid config.state.components[1]: a vacuum state takes no efficiency"
    ),
}


@pytest.mark.parametrize("fault", sorted(CONFIG_FAULTS))
def test_config_fault_exits_2(tmp_path, capsys, fault):
    doc = {"run": "tomography", "n_pulses": 200, "out_dir": str(tmp_path / "out")}
    doc.update(CONFIG_FAULTS[fault])
    path = write_config(tmp_path, doc)
    assert main([doc["run"], "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("pulsequad: config error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert FAULT_QUANTITIES.get(fault, "") in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fault", sorted(SCHEDULE_FAULTS))
def test_schedule_fault_leaves_no_out_dir(tmp_path, fault):
    doc = {"run": "tomography", "n_pulses": 200, "out_dir": str(tmp_path / "out")}
    doc.update(SCHEDULE_FAULTS[fault])
    path = write_config(tmp_path, doc)
    with pytest.raises(ConfigError):
        load_config(path)
    assert main([doc["run"], "--config", path]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("run", RUN_KINDS)
def test_huge_samples_per_period_leaves_no_out_dir(tmp_path, run):
    # refused at config load, before any array over a period is built: it
    # exited 3 under a 3 GiB address-space limit and was killed without one
    doc = {"run": run, "n_pulses": 200, "out_dir": str(tmp_path / "out")}
    doc["detector"] = {"f_rep": 1e3, "sample_rate": 1e12}
    path = write_config(tmp_path, doc)
    with pytest.raises(ConfigError, match="sample_rate must be at most 4096 times f_rep"):
        load_config(path)
    assert main([run, "--config", path]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n_pulses", [10**20, 10**400])
@pytest.mark.parametrize("run", RUN_KINDS)
def test_n_pulses_beyond_any_array_exits_2(tmp_path, capsys, run, n_pulses):
    # tomography and trace-export made the output directory and exited 3 with
    # "Maximum allowed dimension exceeded"; characterize overflowed a float in
    # its battery table and named no field
    doc = {"run": run, "n_pulses": n_pulses, "out_dir": str(tmp_path / "out")}
    path = write_config(tmp_path, doc)
    assert main([run, "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("pulsequad: config error: ")
    assert err.count("\n") == 1
    assert "n_pulses" in err
    assert not (tmp_path / "out").exists()
    with pytest.raises(ConfigError, match="n_pulses must be at most"):
        ExperimentConfig(run=run, n_pulses=n_pulses)


def test_n_pulses_bound_is_exact():
    assert ExperimentConfig(run="tomography", n_pulses=MAX_N_PULSES).n_pulses == MAX_N_PULSES
    with pytest.raises(ConfigError, match="n_pulses must be at most"):
        ExperimentConfig(run="tomography", n_pulses=MAX_N_PULSES + 1)


def test_realize_refuses_more_settings_than_pulses():
    schedule = PhaseSchedule(kind="list", values=(0.0, 1.0, 2.0))
    with pytest.raises(ConfigError, match="more phase settings than pulses"):
        schedule.realize(2, _seeded_rng(0, 0))


def test_a_schedule_takes_only_the_fields_its_kind_reads():
    # written out here, not read from PhaseSchedule.KIND_FIELDS: 9 of the 24
    # (kind, field) pairs are settable
    reads = {
        "constant": {"kind", "value"},
        "list": {"kind", "values"},
        "sweep": {"kind", "count", "start", "span"},
        "random": {"kind"},
    }
    values = {"value": 0.5, "values": (0.5, 1.0), "count": 3, "start": 0.5, "span": 1.0}
    for kind, names in reads.items():
        for name in (f.name for f in fields(PhaseSchedule)):
            args = {"values": values["values"]} if kind == "list" else {}
            args.update({name: values.get(name), "kind": kind})
            if name in names:
                assert getattr(PhaseSchedule(**args), name) == args[name]
            else:
                with pytest.raises(ConfigError, match=f"^a {kind} phase schedule takes no {name}$"):
                    PhaseSchedule(**args)
    # an explicit default says nothing new; a list equals the default tuple
    defaults = dict(value=0.0, values=[], count=7, start=0.0, span=math.pi)
    assert PhaseSchedule(kind="random", **defaults) == PhaseSchedule(kind="random")


def test_schedule_with_as_many_settings_as_pulses_loads(tmp_path):
    # as many settings as pulses is the most a schedule may have
    phases = {"kind": "sweep", "count": 200}
    for run in ("tomography", "trace-export"):
        path = write_config(tmp_path, {"run": run, "n_pulses": 200, "phases": phases})
        assert load_config(path).phases.settings == phases["count"]
    # characterize draws no schedule, so it takes none, of any size
    phases = {"kind": "sweep", "count": 10**15}
    path = write_config(tmp_path, {"run": "characterize", "n_pulses": 2000, "phases": phases})
    with pytest.raises(ConfigError, match="^a characterize run takes no phases$"):
        load_config(path)


def test_a_run_takes_only_the_sections_it_reads(tmp_path):
    # written out here, not read from ExperimentConfig.KIND_FIELDS: 16 of the
    # 21 (run, field) pairs besides run are settable
    common = {"n_pulses", "seed", "out_dir"}
    reads = {
        "characterize": common | {"detector"},
        "tomography": common | {"state", "phases", "tomography"},
        "trace-export": common | {"detector", "state", "phases"},
    }
    values = {
        "detector": DetectorConfig(eta_pd=0.8),
        "state": StateModel.coherent(0.5),
        "phases": PhaseSchedule(kind="random"),
        "n_pulses": 2000,
        "seed": 3,
        "out_dir": "elsewhere",
        "tomography": TomographyOptions(eta=0.5),
    }
    assert [f.name for f in fields(ExperimentConfig)] == ["run", *values]
    for run, names in reads.items():
        for name, value in values.items():
            if name in names:
                assert getattr(ExperimentConfig(run=run, **{name: value}), name) == value
            else:
                with pytest.raises(ConfigError, match=f"^a {run} run takes no {name}$"):
                    ExperimentConfig(run=run, **{name: value})
        # an explicit default says nothing new
        doc = {"run": run, "detector": {"f_rep": 80e6}, "state": {"kind": "vacuum"}, "phases": {},
               "tomography": {"cutoff": 10}}
        assert load_config(write_config(tmp_path, doc)) == ExperimentConfig(run=run)
    # every section the run does not read is named, in field order
    unread = {name: values[name] for name in ("tomography", "phases", "state")}
    message = "^a characterize run takes no state, phases, tomography$"
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(run="characterize", **unread)


# d * theta overflowed in the harmonic factors, and each of these exited 3
# after RuntimeWarnings; one exp(i theta) per phase forms no such product
HUGE_PHASE_RUNS = {
    "tomography phase list": {
        "run": "tomography",
        "phases": {"kind": "list", "values": [1e308, 0.5]},
        "tomography": {"cutoff": 4},
    },
    "trace-export constant phase": {
        "run": "trace-export",
        "state": {"kind": "coherent", "alpha": 1.0},
        "phases": {"kind": "constant", "value": 1e308},
    },
}


@pytest.mark.parametrize("case", sorted(HUGE_PHASE_RUNS))
def test_huge_finite_phase_runs_cleanly(tmp_path, capsys, recwarn, case):
    doc = {"n_pulses": 200, "out_dir": str(tmp_path / "out"), **HUGE_PHASE_RUNS[case]}
    assert main([doc["run"], "--config", write_config(tmp_path, doc)]) == 0
    assert capsys.readouterr().err == ""
    assert [str(w.message) for w in recwarn] == []


@pytest.mark.parametrize("n_pulses", [1, 2, 3, 7])
@pytest.mark.parametrize("run", RUN_KINDS)
def test_tiny_n_pulses(tmp_path, capsys, recwarn, run, n_pulses):
    out = tmp_path / "out"
    path = write_config(tmp_path, {"run": run, "n_pulses": n_pulses, "out_dir": str(out)})
    code = main([run, "--config", path])
    err = capsys.readouterr().err
    assert [str(w.message) for w in recwarn] == []
    assert code in (0, 2)
    assert err.count("\n") == (0 if code == 0 else 1)
    if code == 0:
        for csv in out.glob("*.csv"):
            assert "nan" not in csv.read_text().lower(), csv.name


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner),
    max_leaves=8,
)
# field values that often pass coercion, so that the validation behind it runs too
PLAUSIBLE = (
    st.integers(-2, 12)
    | st.floats()
    | st.lists(st.floats(), max_size=3)
    | st.sampled_from(["vacuum", "coherent", "fock", "mixture", "list", "sweep", "gaussian"])
)


def section(cls, **nested):
    """JSON objects over the fields of ``cls``, each field present or not."""
    optional = {f.name: PLAUSIBLE for f in fields(cls)}
    optional.update({name: s | JSON_VALUES for name, s in nested.items()})
    return st.fixed_dictionaries({}, optional=optional)


CONFIG_DOCS = st.builds(
    lambda doc, run: {**doc, "run": run},
    section(
        ExperimentConfig,
        detector=section(DetectorConfig, drift=section(DriftModel)),
        state=section(StateModel, components=st.lists(section(StateModel), max_size=2)),
        phases=section(PhaseSchedule),
        tomography=section(TomographyOptions),
    ),
    st.sampled_from(RUN_KINDS),
)


# one new file per example: truncating a file that holds data can take
# 50-70 ms on ext4, where creating one takes about 0.01 ms
FUZZ_FILE_NUMBERS = itertools.count()


@settings(max_examples=300, deadline=None)
@given(doc=CONFIG_DOCS | JSON_VALUES, subcommand=st.booleans())
def test_load_config_raises_only_config_error(tmp_path_factory, doc, subcommand):
    run = doc.get("run") if subcommand and isinstance(doc, dict) else None
    path = tmp_path_factory.getbasetemp() / f"fuzz-{next(FUZZ_FILE_NUMBERS)}.json"
    path.write_text(json.dumps(doc))
    try:
        config = load_config(str(path), run=run)
    except ConfigError:
        return
    assert isinstance(config, ExperimentConfig)


class TestTraceExport:
    def test_outputs_and_shape(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(
            tmp_path, {"run": "trace-export", "out_dir": str(out), "n_pulses": 100}
        )
        assert main(["trace-export", "--config", path]) == 0
        csv_lines = (out / "trace.csv").read_text().split("\n")
        assert csv_lines[0] == "time_s,voltage_v"
        assert len(csv_lines) == 2502  # header + 2500 samples + trailing newline
        raw = (out / "trace.bin").read_bytes()
        assert raw[:8] == b"PQTRACE2"
        assert len(raw) == 32 + 8 * 2500

    def test_byte_reproducibility(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        base = {"run": "trace-export", "seed": 9, "n_pulses": 50}
        p1 = write_config(tmp_path, {**base, "out_dir": str(out1)}, "c1.json")
        p2 = write_config(tmp_path, {**base, "out_dir": str(out2)}, "c2.json")
        assert main(["trace-export", "--config", p1]) == 0
        assert main(["trace-export", "--config", p2]) == 0
        assert read_all_outputs(out1) == read_all_outputs(out2)

    def test_seed_override_changes_output(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        base = {"run": "trace-export", "seed": 9, "n_pulses": 50}
        p1 = write_config(tmp_path, {**base, "out_dir": str(out1)}, "c1.json")
        p2 = write_config(tmp_path, {**base, "out_dir": str(out2)}, "c2.json")
        main(["trace-export", "--config", p1])
        main(["trace-export", "--config", p2, "--seed", "10"])
        assert (out1 / "trace.bin").read_bytes() != (out2 / "trace.bin").read_bytes()

    @pytest.mark.parametrize("shape", PULSE_SHAPES)
    @pytest.mark.parametrize("n_pulses", [1, BLOCK_ROWS, BLOCK_ROWS + 1, 4095, 4096, 4097, 8193])
    def test_streamed_export_equals_assembled_trace(self, tmp_path, n_pulses, shape):
        # the run writes pulse block by pulse block; BLOCK_ROWS and one more
        # end on and just past the first block edge
        self.check_streamed_export(tmp_path, n_pulses, {"pulse_shape": shape})

    def test_streamed_export_of_noiseless_detector(self, tmp_path):
        self.check_streamed_export(tmp_path, 4097, {"elec_noise_area_var": 0.0})

    @staticmethod
    def check_streamed_export(tmp_path, n_pulses, detector):
        doc = {
            "run": "trace-export",
            "n_pulses": n_pulses,
            "seed": 5,
            "out_dir": str(tmp_path / "out"),
            "detector": {**detector, "drift": {"random_walk_sigma": 0.01}},
            "state": {"kind": "coherent", "alpha": [1.5, -0.5]},
            "phases": {"kind": "random"},
        }
        path = write_config(tmp_path, doc)
        assert main(["trace-export", "--config", path]) == 0
        # the trace the run once assembled, written whole
        config = load_config(path)
        phases = config.phases.realize(n_pulses, _seeded_rng(config.seed, 0))
        trace, _ = generate_trace(
            config.detector, config.state, phases, n_pulses, _child_seed(config.seed, 1)
        )
        assert trace.samples.size == 25 * n_pulses
        write_trace_csv(trace, tmp_path / "trace.csv")
        write_trace_binary(trace, tmp_path / "trace.bin")
        for name in ("trace.csv", "trace.bin"):
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_non_finite_trace_exits_3_and_leaves_no_file(self, tmp_path, capsys, recwarn):
        # the random walk overflows to inf in the first pulse block, so the
        # CSV writer fails after it has opened its temporary file
        out = tmp_path / "out"
        doc = {
            "run": "trace-export",
            "n_pulses": 400,
            "out_dir": str(out),
            "detector": {"drift": {"random_walk_sigma": 1e307}},
        }
        assert main(["trace-export", "--config", write_config(tmp_path, doc)]) == 3
        assert capsys.readouterr().err == "pulsequad: error: trace contains non-finite samples\n"
        assert [str(w.message) for w in recwarn] == []
        assert sorted(os.listdir(out)) == []

    def test_unwritable_out_dir_is_config_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        path = write_config(
            tmp_path, {"run": "trace-export", "out_dir": str(blocker / "sub")}
        )
        assert main(["trace-export", "--config", path]) == 2


class TestTomographyRun:
    def test_vacuum_summary(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            {
                "run": "tomography",
                "out_dir": str(out),
                "n_pulses": 10_000,
                "state": {"kind": "vacuum"},
                "phases": {"kind": "random"},
                "tomography": {"cutoff": 6},
            },
        )
        assert main(["tomography", "--config", path]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["w00"] == pytest.approx(1 / math.pi, abs=0.01)
        assert summary["fidelity"] > 0.98
        assert summary["converged"] is True
        for name in ("rho.csv", "wigner.csv", "photon_stats.csv", "samples.csv"):
            assert (out / name).exists()
        rho_lines = (out / "rho.csv").read_text().splitlines()
        assert rho_lines[0] == "m,n,re,im"
        assert len(rho_lines) == 1 + 36
        stats_lines = (out / "photon_stats.csv").read_text().splitlines()
        assert stats_lines[0] == "n,p"

    def test_fidelity_null_for_lossy_state(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            {
                "run": "tomography",
                "out_dir": str(out),
                "n_pulses": 4000,
                "state": {"kind": "fock", "n": 1, "efficiency": 0.649},
                "phases": {"kind": "random"},
                "tomography": {"cutoff": 5},
            },
        )
        assert main(["tomography", "--config", path]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["fidelity"] is None

    def test_vacuum_is_sampled_lossless_at_any_eta(self, tmp_path):
        # loss maps a vacuum to itself, so none is composed into it: the run
        # samples and reconstructs, and the declared state stays pure
        config = ExperimentConfig(
            run="tomography",
            n_pulses=2000,
            out_dir=str(tmp_path),
            phases=PhaseSchedule(kind="random"),
            tomography=TomographyOptions(cutoff=4, eta=0.86),
        )
        summary = run_tomography(config)
        assert summary["fidelity"] > 0.99
        assert sorted(os.listdir(tmp_path)) == [
            "photon_stats.csv", "rho.csv", "samples.csv", "summary.json", "wigner.csv"
        ]

    def test_runtime_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        # a valid config whose run fails: one stderr line, no traceback
        def failing_run(config):
            raise FloatingPointError("likelihood became NaN")

        monkeypatch.setitem(cli._RUNNERS, "tomography", failing_run)
        path = write_config(tmp_path, {"run": "tomography", "out_dir": str(tmp_path / "out")})
        assert main(["tomography", "--config", path]) == 3
        assert capsys.readouterr().err == "pulsequad: error: likelihood became NaN\n"

    def test_fock_cutoff_checked_only_where_a_state_is_sampled(self, tmp_path):
        state = {"kind": "fock", "n": 12}
        path = write_config(
            tmp_path, {"run": "tomography", "state": state, "tomography": {"cutoff": 13}}
        )
        assert load_config(path).tomography.cutoff == 13
        # characterize samples no configured state, and trace-export samples
        # at the default cutoff: neither takes the section it would ignore
        path = write_config(tmp_path, {"run": "characterize", "state": state})
        with pytest.raises(ConfigError, match="^a characterize run takes no state$"):
            load_config(path)
        path = write_config(
            tmp_path, {"run": "trace-export", "state": state, "tomography": {"cutoff": 13}}
        )
        with pytest.raises(ConfigError, match="^a trace-export run takes no tomography$"):
            load_config(path)

    @pytest.mark.parametrize("cutoff, code", [(20, 0), (21, 2)])
    def test_cutoff_bounded_by_the_sampling_grid(self, tmp_path, capsys, cutoff, code):
        # over [-8, 8] level 19 loses 6.6e-8 of its mass and level 20 2.9e-7
        out = tmp_path / "out"
        doc = {"run": "tomography", "n_pulses": 200, "out_dir": str(out),
               "tomography": {"cutoff": cutoff}}
        assert main(["tomography", "--config", write_config(tmp_path, doc)]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
            assert len((out / "rho.csv").read_text().splitlines()) == 1 + cutoff**2
        else:
            assert err == "pulsequad: config error: tomography cutoff must lie in [2, 20]\n"

    def test_huge_coherent_alpha_runs_cleanly(self, tmp_path, capsys, recwarn):
        # the cutoff discards all of its norm, found in logs with no overflow
        path = write_config(
            tmp_path,
            {
                "run": "tomography",
                "out_dir": str(tmp_path / "out"),
                "n_pulses": 200,
                "state": {"kind": "coherent", "alpha": 1e308},
                "tomography": {"cutoff": 4},
            },
        )
        assert main(["tomography", "--config", path]) == 2
        assert capsys.readouterr().err == (
            "pulsequad: config error: tomography state: coherent(1e+308+0j) loses 1"
            " of its norm at cutoff 4, more than 0.001\n"
        )
        assert [str(w.message) for w in recwarn] == []
        assert not (tmp_path / "out").exists()


class TestCharacterizeRun:
    def test_report_contents_fast(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            {
                "run": "characterize",
                "out_dir": str(out),
                "n_pulses": 4000,
                "seed": 1,
            },
        )
        assert main(["characterize", "--config", path]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["eta_pd"] == 0.9
        assert report["snr_db"] == pytest.approx(14.5, abs=0.3)
        assert report["cmrr_db"] == pytest.approx(63.0, abs=1.0)
        assert report["tbp"] == pytest.approx(
            report["bandwidth_hz"] * report["stability_interval_s"], rel=1e-12
        )
        assert [row["m"] for row in report["cc"]] == list(range(10))
        for name in ("noise_curve.csv", "allan.csv", "spectrum.csv", "cc.csv"):
            assert (out / name).exists()
        assert (out / "allan.csv").read_text().splitlines()[0] == "tau_s,allan_dev"
        assert (out / "noise_curve.csv").read_text().splitlines()[0] == "power_w,variance"
        assert (out / "spectrum.csv").read_text().splitlines()[0] == "freq_hz,psd"

    def test_zero_electronic_noise(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            {
                "run": "characterize",
                "out_dir": str(out),
                "n_pulses": 2000,
                "detector": {"elec_noise_area_var": 0.0},
            },
        )
        assert main(["characterize", "--config", path]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["eta_en"] == 1.0
        assert report["snr_db"] is None

    def test_random_walk_drift_shortens_the_stability_interval(self, tmp_path):
        reports, last_allan = {}, {}
        for sigma in (0.0, 1e-5):
            out = tmp_path / f"walk {sigma:g}"
            doc = {"run": "characterize", "out_dir": str(out), "n_pulses": 2000, "seed": 3,
                   "detector": {"drift": {"random_walk_sigma": sigma}}}
            assert main(["characterize", "--config", write_config(tmp_path, doc)]) == 0
            reports[sigma] = json.loads((out / "report.json").read_text())
            last_allan[sigma] = float((out / "allan.csv").read_text().split(",")[-1])
        # the walk's Allan deviation grows as sqrt(tau), so it is least at the
        # shortest intervals, where white shot noise alone keeps falling to 1.778 s
        assert reports[0.0]["stability_interval_s"] == 1.778
        assert reports[1e-5]["stability_interval_s"] == 0.002
        assert last_allan[0.0] == pytest.approx(0.00111, rel=0.01)
        assert last_allan[1e-5] == pytest.approx(0.254, rel=0.01)

    def test_configured_cmrr_recovered(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            {
                "run": "characterize",
                "out_dir": str(out),
                "n_pulses": 2000,
                "detector": {"cmrr_db": 40.0},
                "seed": 3,
            },
        )
        assert main(["characterize", "--config", path]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["cmrr_db"] == pytest.approx(40.0, abs=1.0)


    @pytest.mark.parametrize("lane_fn", ["allan_deviation", "noise_spectrum"])
    def test_failed_record_in_either_lane_exits_3(
        self, tmp_path, capsys, monkeypatch, lane_fn
    ):
        # allan_deviation runs on the helper thread, the spectra on the caller's
        def fail(*args, **kwargs):
            raise RuntimeError(f"{lane_fn} failed")

        monkeypatch.setattr(cli, lane_fn, fail)
        out = tmp_path / "out"
        doc = {"run": "characterize", "n_pulses": 200, "out_dir": str(out)}
        path = write_config(tmp_path, doc)
        threads = threading.active_count()
        assert main(["characterize", "--config", path]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"pulsequad: error: {lane_fn} failed"]
        assert threading.active_count() == threads
        assert not (out / "report.json").exists()

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or 0 not in os.sched_getaffinity(0),
        reason="CPU affinity is unavailable",
    )
    def test_one_cpu_run_writes_same_bytes(self, tmp_path):
        outputs = {}
        for pin in ("pin", "free"):
            out = tmp_path / pin
            doc = {"run": "characterize", "n_pulses": 2000, "seed": 3, "out_dir": str(out)}
            path = write_config(tmp_path, doc, f"{pin}.json")
            proc = subprocess.run(
                [sys.executable, "-c", ONE_CPU_SCRIPT, pin, path],
                env=fresh_env(), capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == ("[0]\n" if pin == "pin" else "")
            outputs[pin] = read_all_outputs(out)
        assert len(outputs["pin"]) == 5
        assert outputs["pin"] == outputs["free"]


# accepted characterize configs that once exited 3 with "no -3 dB crossing
# found within the grid": a pulse shorter than one sample leaves the shot
# spectrum flat to Nyquist, and a steep drift lifts its plateau
CHARACTERIZE_PROBES = {  # detector section, seed, exit codes it may give, report entries
    "fwhm 1 ps rectangular": ({"fwhm_pulse": 1e-12}, 1, (0, 2), {}),
    "fwhm 1 ps gaussian": ({"fwhm_pulse": 1e-12, "pulse_shape": "gaussian"}, 1, (0, 2), {}),
    "drift 1e6 per s": ({"drift": {"linear_rate": 1e6}}, 1, (0, 2), {}),
    "fwhm 1 ms": ({"fwhm_pulse": 1e-3}, 1, (2,), {}),  # longer than the 12.5 ns period
    "fwhm 12 ns rectangular": ({"fwhm_pulse": 12e-9}, 1, (2,), {}),  # covers all 25 samples: flat
    "fwhm 11.9 ns rectangular": ({"fwhm_pulse": 11.9e-9}, 1, (0,), {}),  # 23 of the 25 samples
    # a one-sample pulse responds flat to Nyquist, so no seed's noise is a
    # crossing: seeds 1-3 once reported 49,997-49,999 Hz, seed 0 null
    **{
        "f_rep 1 kHz at 100 kHz sampling" + (f", seed {seed}" if seed else ""): (
            {"f_rep": 1e3, "sample_rate": 1e5}, seed, (0,), {"bandwidth_hz": None},
        )
        for seed in range(4)
    },
}


@pytest.mark.parametrize("probe", sorted(CHARACTERIZE_PROBES))
def test_characterize_probe_answers_or_exits_2(tmp_path, capsys, probe):
    detector, seed, codes, entries = CHARACTERIZE_PROBES[probe]
    out = tmp_path / "out"
    doc = {"run": "characterize", "n_pulses": 4000, "seed": seed, "out_dir": str(out),
           "detector": detector}
    code = main(["characterize", "--config", write_config(tmp_path, doc)])
    assert code in codes, capsys.readouterr().err
    if code == 0:
        report = json.loads((out / "report.json").read_text())
        numbers = [v for k, v in report.items() if k != "cc"]
        numbers += [v for row in report["cc"] for v in row.values()]
        assert all(v is None or math.isfinite(v) for v in numbers)
        assert (report["bandwidth_hz"] is None) == (report["tbp"] is None)
        assert {k: report[k] for k in entries} == entries


def finite_artifacts(out):
    """Check that report.json and every CSV in ``out`` hold only finite numbers."""

    def refuse(constant):
        raise ValueError(constant)

    json.loads((out / "report.json").read_text(), parse_constant=refuse)
    for csv in out.glob("*.csv"):
        for line in csv.read_text().splitlines()[1:]:
            assert all(math.isfinite(float(v)) for v in line.split(",")), (csv.name, line)


@pytest.mark.parametrize("seed", [2, 4])
def test_electronics_dominated_snr_is_reported_as_measured(tmp_path, capsys, recwarn, seed):
    # about 1000x the shot-noise area variance: at these seeds the measured
    # total variance falls below the electronic one, which once exited 3
    out = tmp_path / "out"
    doc = {"run": "characterize", "n_pulses": 2000, "seed": seed, "out_dir": str(out),
           "detector": {"elec_noise_area_var": 7e-18}}
    assert main(["characterize", "--config", write_config(tmp_path, doc)]) == 0
    assert capsys.readouterr().err == ""
    assert [str(w.message) for w in recwarn] == []
    finite_artifacts(out)
    report = json.loads((out / "report.json").read_text())
    assert report["snr_db"] < 0.0
    assert report["eta_en"] == report["eta_bhd"] == 0.0


def log_uniform(low, high):
    return st.floats(low, high).map(lambda e: 10.0**e)


# each field present or not; the exponents reach past every battery bound
BATTERY_DETECTORS = st.fixed_dictionaries(
    {},
    optional={
        "gain": log_uniform(-70.0, 100.0),
        "p_lo": log_uniform(-140.0, 160.0),
        "cmrr_db": st.floats(-130.0, 200.0) | st.just(math.inf),
        "elec_noise_area_var": st.just(0.0) | log_uniform(-170.0, 170.0),
        "drift": st.fixed_dictionaries(
            {},
            optional={
                "linear_rate": st.builds(
                    lambda sign, rate: sign * rate, st.sampled_from([-1.0, 1.0]), log_uniform(-8.0, 160.0)
                ),
                "random_walk_sigma": st.just(0.0) | log_uniform(-8.0, 160.0),
            },
        ),
    },
)


@settings(max_examples=40, deadline=None)
@given(detector=BATTERY_DETECTORS, seed=st.integers(0, 3))
def test_characterize_answers_finitely_or_refuses_at_load(tmp_path_factory, detector, seed):
    base = tmp_path_factory.mktemp("battery")
    doc = {"run": "characterize", "n_pulses": 50, "seed": seed, "out_dir": str(base / "out"),
           "detector": detector}
    try:
        config = load_config(write_config(base, doc))
    except ConfigError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_characterize(config)
    finite_artifacts(base / "out")


class TestRerunIntoOutDir:
    def test_rerun_writes_same_bytes_and_no_tmp(self, tmp_path):
        out = tmp_path / "out"
        doc = {"run": "characterize", "n_pulses": 1000, "seed": 4, "out_dir": str(out)}
        path = write_config(tmp_path, doc)
        assert main(["characterize", "--config", path]) == 0
        first = read_all_outputs(out)
        assert main(["characterize", "--config", path]) == 0
        assert read_all_outputs(out) == first
        assert sorted(first) == sorted(os.listdir(out))  # no .tmp left

    def test_failing_writer_keeps_the_previous_artifact(self, tmp_path):
        def write(text, path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            if text == "second":
                raise RuntimeError("writer failed")

        cli._atomic(str(tmp_path), "a.txt", write, "first")
        with pytest.raises(RuntimeError, match="writer failed"):
            cli._atomic(str(tmp_path), "a.txt", write, "second")
        assert (tmp_path / "a.txt").read_text() == "first"
        assert os.listdir(tmp_path) == ["a.txt"]


class TestRecordQueue:
    def test_results_come_back_in_list_order(self):
        # the first record holds its thread until the second, taken by the
        # other thread, has finished, so the records finish out of order
        finished = []
        second_done = threading.Event()

        def first():
            assert second_done.wait(30)
            finished.append(0)
            return "first"

        def second():
            finished.append(1)
            second_done.set()
            return "second"

        def quick(i):
            finished.append(i)
            return i

        records = [first, second, *(partial(quick, i) for i in range(2, 20))]
        assert cli._run_records(records, range(20)) == ["first", "second", *range(2, 20)]
        assert finished.index(0) > finished.index(1)

    def test_records_are_taken_in_the_given_order(self):
        # each record waits until the one before it in ``order`` has started;
        # taken in any other order, both threads would wait and time out
        order = [*range(19, 0, -2), *range(0, 20, 2)]
        after = dict(zip(order[1:], order))
        started = [threading.Event() for _ in order]

        def record(i):
            if i in after:
                assert started[after[i]].wait(5), f"record {i} taken before {after[i]}"
            started[i].set()
            return i

        assert cli._run_records([partial(record, i) for i in range(20)], order) == [*range(20)]

    def test_failed_record_stops_the_queue_and_is_raised_once(self):
        started = []
        error = RuntimeError("record failed")
        neighbour_started, raised = threading.Event(), threading.Event()

        def fail():
            started.append("fail")
            assert neighbour_started.wait(30)
            raised.set()
            raise error

        def neighbour():
            started.append("neighbour")
            neighbour_started.set()
            assert raised.wait(30)
            time.sleep(0.05)  # the failing thread records the failure meanwhile
            return "neighbour"

        def later(i):
            started.append(i)
            return i

        threads = threading.active_count()
        with pytest.raises(RuntimeError) as caught:
            cli._run_records([fail, neighbour, *(partial(later, i) for i in range(10))], range(12))
        assert caught.value is error
        assert sorted(started) == ["fail", "neighbour"]
        assert threading.active_count() == threads


# Pins itself to CPU 0 when asked, so both characterize lanes share one CPU.
ONE_CPU_SCRIPT = """
import os, sys
if sys.argv[1] == "pin":
    os.sched_setaffinity(0, {0})
    print(sorted(os.sched_getaffinity(0)))
from pulsequad.cli import main
sys.exit(main(["characterize", "--config", sys.argv[2]]))
"""


class TestMainEntry:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "pulsequad" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"run": "trace-export", "bogus": 1})
        assert main(["trace-export", "--config", path]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["trace-export", "--config", str(tmp_path / "nope.json")]) == 2


# Runs in a fresh interpreter, so that nothing imported by the test session
# counts; a module imported lazily inside a run shows up as well.
FRESH_RUN_SCRIPT = """
import json, sys
import pulsequad
import pulsequad.cli as cli
for run, path in json.loads(sys.argv[1]):
    if cli.main([run, "--config", path]) != 0:
        sys.exit(f"{run} run failed")
print(json.dumps(sorted(sys.modules)))
"""


def fresh_env():
    """The environment of a new interpreter that imports this pulsequad."""
    src = os.path.dirname(os.path.dirname(pulsequad.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def modules_after_fresh_runs(tmp_path, docs):
    """Run each ``{run: config}`` in one new interpreter; return the names of
    the modules it has imported at the end."""
    runs = []
    for run, doc in docs.items():
        doc = {**doc, "run": run, "out_dir": str(tmp_path / run)}
        runs.append((run, write_config(tmp_path, doc, f"{run}.json")))
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_RUN_SCRIPT, json.dumps(runs)],
        env=fresh_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_cli_runs_without_scipy(tmp_path):
    docs = {
        "tomography": {
            "n_pulses": 50,
            "state": {"kind": "coherent", "alpha": 0.5},
            "phases": {"kind": "random"},
            "tomography": {"cutoff": 4},
        },
        "characterize": {"n_pulses": 50},
    }
    modules = modules_after_fresh_runs(tmp_path, docs)
    assert sorted(m for m in modules if m.partition(".")[0] == "scipy") == []
    assert (tmp_path / "tomography" / "wigner.csv").exists()
    assert (tmp_path / "characterize" / "report.json").exists()


def test_characterize_leaves_numpy_ma_unimported(tmp_path):
    # numpy imports numpy.ma lazily, on first use (np.unique reaches it),
    # and that import costs about 15 ms and 1.5 MB on every run
    modules = modules_after_fresh_runs(tmp_path, {"characterize": {"n_pulses": 50}})
    assert "numpy" in modules
    assert "numpy.ma" not in modules
    assert (tmp_path / "characterize" / "report.json").exists()


def test_runs_leave_numpy_polynomial_unimported(tmp_path):
    # the POVM quadrature rule is written out, not taken from leggauss: the
    # numpy.polynomial import costs about 4.5 ms and 1 MB on every run
    docs = {
        "characterize": {"n_pulses": 50},
        "tomography": {"n_pulses": 50, "tomography": {"cutoff": 4}},
        "trace-export": {"n_pulses": 10},
    }
    modules = modules_after_fresh_runs(tmp_path, docs)
    assert "numpy" in modules
    assert sorted(m for m in modules if m.startswith("numpy.polynomial")) == []
    assert (tmp_path / "tomography" / "wigner.csv").exists()
    assert (tmp_path / "trace-export" / "trace.bin").exists()


MAIN_SCRIPT = "import sys; from pulsequad.cli import main; sys.exit(main(sys.argv[1:]))"


@pytest.mark.parametrize("run", RUN_KINDS)
def test_runs_name_their_text_encoding(tmp_path, run):
    # JSON is UTF-8 whatever the locale: every text open() says so, and any
    # that relied on the locale default would raise here and exit 3
    doc = {"run": run, "n_pulses": 20, "out_dir": str(tmp_path / "out")}
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-c", MAIN_SCRIPT, run, "--config", write_config(tmp_path, doc)],
        env=fresh_env(), capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


# The probe is registered before the CLI module is imported, and atexit hooks
# run last in, first out, so it sees the heap as the CLI's hook left it.
EXIT_FREEZE_SCRIPT = """
import atexit, gc, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count()))
from pulsequad.cli import main
sys.exit(main(["tomography", "--config", sys.argv[1]]))
"""


class TestExitFreeze:
    def test_cli_process_freezes_its_heap_at_exit(self, tmp_path):
        out = tmp_path / "out"
        doc = {"run": "tomography", "n_pulses": 200, "out_dir": str(out)}
        proc = subprocess.run(
            [sys.executable, "-c", EXIT_FREEZE_SCRIPT, write_config(tmp_path, doc)],
            env=fresh_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        word, count = proc.stdout.split()
        assert word == "frozen" and int(count) > 0
        assert (out / "summary.json").exists()

    def test_main_leaves_its_callers_heap_unfrozen(self, tmp_path):
        doc = {"run": "tomography", "n_pulses": 200, "out_dir": str(tmp_path / "out")}
        assert main(["tomography", "--config", write_config(tmp_path, doc)]) == 0
        assert gc.get_freeze_count() == 0


def test_characterize_peak_memory(tmp_path):
    # at the default 40,000 pulses an area record streams through pulse
    # blocks; holding one whole trace (1M samples) and its two same-size
    # temporaries, as the record once did, peaks at about 18 MiB
    path = write_config(tmp_path, {"run": "characterize", "out_dir": str(tmp_path / "out")})
    config = load_config(path)
    assert config.n_pulses == 40_000
    tracemalloc.start()
    try:
        run_characterize(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_trace_export_peak_memory(tmp_path):
    # each writer draws the trace in pulse blocks as it writes; holding the
    # whole 40,000-pulse trace and its time axis, as the run once did, peaks
    # at about 25 MiB
    doc = {"run": "trace-export", "n_pulses": 40_000, "out_dir": str(tmp_path / "out")}
    config = load_config(write_config(tmp_path, doc))
    tracemalloc.start()
    try:
        run_trace_export(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "out" / "trace.bin").stat().st_size == 32 + 8 * 25 * 40_000
    assert peak < 12 * 2**20


LAYER_MODULES = ("detector", "extraction", "characterization", "states", "tomography", "cli")

# the four kinds of run that reach the library: characterize, a phase-swept
# coherent state, a lossy mixture at random phases, and a trace export
SURFACE_RUNS = [
    {"run": "characterize", "n_pulses": 2000},
    {
        "run": "tomography",
        "n_pulses": 700,
        "state": {"kind": "coherent", "alpha": 0.86},
        "phases": {"kind": "sweep", "count": 7},
    },
    {
        "run": "tomography",
        "n_pulses": 500,
        "state": {
            "kind": "mixture",
            "weights": [0.6, 0.4],
            "components": [{"kind": "fock", "n": 1}, {"kind": "coherent", "alpha": 0.5}],
            "efficiency": 0.8,
        },
        "phases": {"kind": "random"},
        "tomography": {"cutoff": 5, "eta": 0.86},
    },
    {"run": "trace-export", "n_pulses": 50},
]


def test_package_reexports_every_layer_name():
    # one list of public names: the layer modules' __all__, and nothing of cli's
    exported = {
        name for name, value in vars(pulsequad).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    layers = (importlib.import_module(f"pulsequad.{m}") for m in LAYER_MODULES if m != "cli")
    assert exported == set().union(*(module.__all__ for module in layers))


def readme_library_names():
    """The backquoted names that head the items of the README's "Library"
    section (each item's text up to its first colon)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n#", 1)[0]
    heads = re.findall(r"^- (.*?):", section, flags=re.MULTILINE)
    return {name for head in heads for name in re.findall(r"`([\w.]+)`", head)}


def public_callables():
    """``{name: function}`` for every function in a layer module's ``__all__`` and
    every classmethod of a class there, named ``Class.method``; classes apart."""
    functions, classes = {}, set()
    for layer in LAYER_MODULES:
        module = importlib.import_module(f"pulsequad.{layer}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # a re-export is checked where it is defined
            if isinstance(obj, types.FunctionType):
                functions[attr] = obj
            elif isinstance(obj, type):
                classes.add(attr)
                for name, member in vars(obj).items():
                    if isinstance(member, classmethod):
                        functions[f"{attr}.{name}"] = member.__func__
    return functions, classes


def test_public_surface_is_what_runs_reach(tmp_path, monkeypatch):
    # a phase-free sampler table kept from an earlier test would skip its build
    monkeypatch.setattr(states, "_PHASE_FREE_TABLES", {})
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    threading.setprofile(profile)  # characterize runs a helper thread
    sys.setprofile(profile)
    try:
        for i, doc in enumerate(SURFACE_RUNS):
            doc = {**doc, "out_dir": str(tmp_path / f"out{i}")}
            assert main([doc["run"], "--config", write_config(tmp_path, doc, f"{i}.json")]) == 0
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    functions, classes = public_callables()
    unreached = {name for name, fn in functions.items() if fn.__code__ not in reached}
    listed = readme_library_names()
    # what no run reaches is listed with its reason, and what is listed is public
    # and reached by no run
    assert sorted(unreached - listed) == []
    assert sorted(listed - unreached - classes) == []

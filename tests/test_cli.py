"""Command-line front end: config validation, artifacts, reproducibility."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pulsequad
from pulsequad import cli
from pulsequad.cli import (
    RUN_KINDS,
    ConfigError,
    ExperimentConfig,
    PhaseSchedule,
    TomographyOptions,
    load_config,
    main,
    run_characterize,
)
from pulsequad.detector import DetectorConfig, DriftModel
from pulsequad.states import StateModel


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
                "run": "tomography",
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
                    "components": [{"kind": "fock", "n": 1}, {"alpha": 2}],
                },
            },
        )
        state = load_config(path).state
        assert state.components == (StateModel.fock(1), StateModel(alpha=2 + 0j))
        bad = write_config(
            tmp_path,
            {"run": "tomography", "state": {"components": [{"kind": "fock", "m": 1}]}},
            "bad.json",
        )
        with pytest.raises(ConfigError, match=r"config\.state\.components\[0\]"):
            load_config(bad)


# Each of these once crashed with a traceback, failed at run time (exit 3)
# or was silently truncated; all are configuration faults.
CONFIG_FAULTS = {
    "seed string": {"seed": "abc"},
    "n_pulses string": {"n_pulses": "x"},
    "phase list string": {"phases": {"kind": "list", "values": ["a"]}},
    "efficiency string": {"state": {"efficiency": "x"}},
    "detector list": {"detector": [1, 2]},
    "state list": {"state": [1]},
    "phases list": {"phases": [1]},
    "drift list": {"detector": {"drift": [1]}},
    "gain overflow": {"detector": {"gain": 1e308}},
    "fractional cutoff": {"tomography": {"cutoff": 4.5}},
    "fractional max_iter": {"tomography": {"max_iter": 5.5}},
    "phase value string": {"phases": {"value": "x"}},
    "huge LO power": {"detector": {"p_lo": 1e300}},
    "NaN CMRR": {"detector": {"cmrr_db": math.nan}},
    "negative infinite CMRR": {"detector": {"cmrr_db": -math.inf}},
    "fractional seed": {"seed": 3.7},
    "fractional sweep count": {"phases": {"kind": "sweep", "count": 2.5}},
    "negative seed": {"seed": -1},
    "boolean n_pulses": {"n_pulses": True},
    "infinite bin_width": {"tomography": {"bin_width": math.inf}},
    "vanishing bin_width": {"tomography": {"bin_width": 1e-300}},
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
    # f_rep * ALLAN_BLOCK_S rounds to no pulse per Allan block, 0.5 included
    **{
        f"characterize f_rep {f_rep:g}": {
            "run": "characterize",
            "detector": {"f_rep": f_rep, "sample_rate": 25 * f_rep, "fwhm_pulse": 0.44 / f_rep},
        }
        for f_rep in (100.0, 400.0, 500.0)
    },
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


@settings(max_examples=300, deadline=None)
@given(doc=CONFIG_DOCS | JSON_VALUES, subcommand=st.booleans())
def test_load_config_raises_only_config_error(tmp_path_factory, doc, subcommand):
    run = doc.get("run") if subcommand and isinstance(doc, dict) else None
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
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
        path = write_config(tmp_path, {"run": "characterize", "state": state})
        assert load_config(path).state == StateModel.fock(12)
        path = write_config(
            tmp_path, {"run": "tomography", "state": state, "tomography": {"cutoff": 13}}
        )
        assert load_config(path).tomography.cutoff == 13

    def test_huge_coherent_alpha_runs_cleanly(self, tmp_path, capsys, recwarn):
        path = write_config(
            tmp_path,
            {
                "run": "tomography",
                "out_dir": str(tmp_path / "out"),
                "n_pulses": 200,
                "state": {"kind": "coherent", "alpha": 1e200},
                "tomography": {"cutoff": 4},
            },
        )
        assert main(["tomography", "--config", path]) == 0
        assert capsys.readouterr().err == ""
        assert [str(w.message) for w in recwarn] == []


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


def modules_after_fresh_runs(tmp_path, docs):
    """Run each ``{run: config}`` in one new interpreter; return the names of
    the modules it has imported at the end."""
    runs = []
    for run, doc in docs.items():
        doc = {**doc, "run": run, "out_dir": str(tmp_path / run)}
        runs.append((run, write_config(tmp_path, doc, f"{run}.json")))
    src = os.path.dirname(os.path.dirname(pulsequad.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_RUN_SCRIPT, json.dumps(runs)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_cli_runs_without_scipy(tmp_path):
    docs = {
        "tomography": {
            "n_pulses": 50,
            "state": {"kind": "coherent", "alpha": 0.8},
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

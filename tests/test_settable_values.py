"""Every value a run accepts changes its output.

The table lists each (run, value) pair, the 78 a run reads and 14 it refuses,
written out here, not read from the config classes' ``KIND_FIELDS``.  A
settable pair runs a small config through ``pulsequad.cli.main`` twice, once
with the value at its base and once with only that value changed, and some
artifact's SHA-256 must differ; ``out_dir`` must move the same artifacts.  A
refused pair must exit 2 with one line and make no output directory.
"""

import hashlib
import json
import os
from dataclasses import fields

import pytest

from pulsequad.cli import ExperimentConfig, PhaseSchedule, TomographyOptions, main
from pulsequad.detector import DetectorConfig, DriftModel
from pulsequad.states import StateModel

# each run's base config: few pulses, a coherent state, whose samples depend
# on the LO phase, wherever a state is sampled, and random phases for
# tomography, since one phase does not determine a state
BASES = {
    "characterize": {"run": "characterize", "n_pulses": 200},
    "tomography": {
        "run": "tomography",
        "n_pulses": 300,
        "state": {"kind": "coherent", "alpha": 0.5},
        "phases": {"kind": "random"},
    },
    "trace-export": {
        "run": "trace-export",
        "n_pulses": 10,
        "state": {"kind": "coherent", "alpha": 0.5},
    },
}

COMMON = {  # value: (base doc, changed doc), over the run's base config
    "n_pulses": ({}, {"n_pulses": 150}),
    "seed": ({}, {"seed": 1}),
    "out_dir": ({}, {"out_dir": "elsewhere"}),
}


def section(name, rows):
    """Rows of ``(base, changed)`` sections, as rows of docs."""
    return {f"{name}.{value}": ({name: a}, {name: b}) for value, (a, b) in rows.items()}


# a detector's or tomography's base is its default; each row changes one value
DETECTOR = section("detector", {
    "f_rep": ({}, {"f_rep": 40e6}),
    "wavelength": ({}, {"wavelength": 780e-9}),
    "p_lo": ({}, {"p_lo": 4e-3}),
    "eta_pd": ({}, {"eta_pd": 0.8}),
    "gain": ({}, {"gain": 30e3}),
    "fwhm_pulse": ({}, {"fwhm_pulse": 4e-9}),
    "sample_rate": ({}, {"sample_rate": 1.6e9}),
    "elec_noise_area_var": ({}, {"elec_noise_area_var": 2 * DetectorConfig().elec_noise_area_var}),
    "cmrr_db": ({}, {"cmrr_db": 50.0}),
    "pulse_shape": ({}, {"pulse_shape": "gaussian"}),
    "drift.linear_rate": ({}, {"drift": {"linear_rate": 1e3}}),
    "drift.random_walk_sigma": ({}, {"drift": {"random_walk_sigma": 0.01}}),
})

# a state or schedule of each kind with its fields at base values; coherent(0)
# and fock(0) are the vacuum, so a kind's row changes the kind from the one
# before it, each with its base fields
VACUUM = {"kind": "vacuum"}
COHERENT = {"kind": "coherent", "alpha": 0.5}
FOCK = {"kind": "fock", "n": 1}
MIXTURE = {"kind": "mixture", "weights": [0.5, 0.5], "components": [FOCK, VACUUM]}
STATE = section("state", {
    "vacuum.kind": (MIXTURE, VACUUM),
    "coherent.kind": (VACUUM, COHERENT),
    "coherent.alpha": ({"kind": "coherent"}, COHERENT),
    "coherent.efficiency": (COHERENT, {**COHERENT, "efficiency": 0.5}),
    "fock.kind": (COHERENT, FOCK),
    "fock.n": ({"kind": "fock"}, FOCK),
    "fock.efficiency": (FOCK, {**FOCK, "efficiency": 0.5}),
    "mixture.kind": (FOCK, MIXTURE),
    "mixture.weights": (MIXTURE, {**MIXTURE, "weights": [0.8, 0.2]}),
    "mixture.components": (MIXTURE, {**MIXTURE, "components": [COHERENT, VACUUM]}),
    "mixture.efficiency": (MIXTURE, {**MIXTURE, "efficiency": 0.5}),
})

CONSTANT = {"kind": "constant"}
LIST = {"kind": "list", "values": [0.0, 1.0]}
SWEEP = {"kind": "sweep"}
RANDOM = {"kind": "random"}
PHASES = section("phases", {
    "constant.kind": (RANDOM, CONSTANT),
    "constant.value": (CONSTANT, {**CONSTANT, "value": 0.5}),
    "list.kind": (CONSTANT, LIST),
    "list.values": (LIST, {**LIST, "values": [0.0, 2.0]}),
    "sweep.kind": (LIST, SWEEP),
    "sweep.count": (SWEEP, {**SWEEP, "count": 3}),
    "sweep.start": (SWEEP, {**SWEEP, "start": 0.5}),
    "sweep.span": (SWEEP, {**SWEEP, "span": 1.0}),
    "random.kind": (SWEEP, RANDOM),
})

TOMOGRAPHY = section("tomography", {
    "cutoff": ({}, {"cutoff": 8}),
    "bin_width": ({}, {"bin_width": 0.2}),
    "tol": ({}, {"tol": 1e-2}),
    "max_iter": ({}, {"max_iter": 3}),
    "eta": ({}, {"eta": 0.8}),
})

# 78 settable pairs, and 14 refused ones that no run reads, 92 in all:
# tomography samples quadratures, not a trace, and loss maps a vacuum to itself
SETTABLE = {
    "characterize": {**COMMON, **DETECTOR},
    "tomography": {**COMMON, **STATE, **PHASES, **TOMOGRAPHY},
    "trace-export": {**COMMON, **DETECTOR, **STATE, **PHASES},
}
REFUSED = {  # pair: (changed doc, its one-line error)
    **{
        ("tomography", value): (changed, "a tomography run takes no detector")
        for value, (_, changed) in DETECTOR.items()
    },
    **{
        (run, "state.vacuum.efficiency"): (
            {"state": {**VACUUM, "efficiency": 0.5}},
            "invalid config.state: a vacuum state takes no efficiency",
        )
        for run in ("tomography", "trace-export")
    },
}

@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Run a config doc into a new directory, or into ``out``, and return each
    artifact's SHA-256; a doc that recurs, as the base of several rows, runs once."""
    digests = {}

    def run(doc, out=None):
        key = json.dumps(doc, sort_keys=True)
        if out is None and key in digests:
            return digests[key]
        out = out or tmp_path_factory.mktemp("out")
        path = tmp_path_factory.mktemp("config") / "config.json"
        path.write_text(json.dumps({**doc, "out_dir": str(out)}))
        assert main([doc["run"], "--config", str(path)]) == 0
        found = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        digests.setdefault(key, found)
        return found

    return run


@pytest.mark.parametrize(
    "run, value",
    [(run, value) for run, rows in SETTABLE.items() for value in rows],
    ids=str,
)
def test_a_settable_value_changes_an_artifact(tmp_path, artifacts, run, value):
    base, changed = SETTABLE[run][value]
    before = artifacts({**BASES[run], **base})
    out = tmp_path / changed["out_dir"] if value == "out_dir" else None
    after = artifacts({**BASES[run], **changed}, out)
    assert sorted(after) == sorted(before) != []
    if out:  # the same artifacts, in the new directory
        assert sorted(os.listdir(out)) == sorted(after)
        assert after == before
    else:
        assert after != before


@pytest.mark.parametrize("run, value", sorted(REFUSED), ids=str)
def test_a_refused_value_exits_2(tmp_path, capsys, run, value):
    changed, error = REFUSED[run, value]
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BASES[run], **changed, "out_dir": str(out)}))
    assert main([run, "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"pulsequad: config error: {error}\n"
    assert not out.exists()


def test_the_table_counts_and_covers_every_value():
    counts = {run: len(rows) for run, rows in SETTABLE.items()}
    assert counts == {"characterize": 15, "tomography": 28, "trace-export": 35}
    assert sum(counts.values()) == 78
    assert sum(counts.values()) + len(REFUSED) == 92
    # every field of every section is some row's value
    detector = {f"detector.{f.name}" for f in fields(DetectorConfig) if f.name != "drift"}
    detector |= {f"detector.drift.{f.name}" for f in fields(DriftModel)}
    assert set(DETECTOR) == detector
    assert {f"tomography.{f.name}" for f in fields(TomographyOptions)} == set(TOMOGRAPHY)
    for cls, rows in ((StateModel, STATE), (PhaseSchedule, PHASES)):
        assert {value.rsplit(".", 1)[1] for value in rows} == {f.name for f in fields(cls)}
    sections = {value.split(".", 1)[0] for value in {**DETECTOR, **STATE, **PHASES, **TOMOGRAPHY}}
    assert {f.name for f in fields(ExperimentConfig)} == {"run", *COMMON, *sections}

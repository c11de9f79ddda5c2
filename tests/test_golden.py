"""Golden SHA-256 digests of every CLI artifact: the behaviour lock.

Each case runs one small fixed-seed config through ``pulsequad.cli.main``
and compares every file it writes, byte for byte, with digests recorded
before the config and I/O layer was refactored.  A change that alters any
artifact, even at round-off level, fails here; such a change must say so
and refresh the digests on purpose.  The digests were recorded with
numpy 2.4 and scipy 1.17 on x86-64.
"""

import hashlib
import json

import pytest

from pulsequad.cli import main

CONFIGS = {
    "characterize": {"run": "characterize", "seed": 3, "n_pulses": 2000},
    "characterize-noiseless": {
        "run": "characterize",
        "seed": 4,
        "n_pulses": 2000,
        "detector": {"elec_noise_area_var": 0.0, "cmrr_db": 50.0},
    },
    "tomo-mixture-random": {
        "run": "tomography",
        "seed": 5,
        "n_pulses": 3000,
        "state": {
            "kind": "mixture",
            "weights": [0.7, 0.3],
            "components": [{"kind": "fock", "n": 1}, {"kind": "vacuum"}],
            "efficiency": 0.9,
        },
        "phases": {"kind": "random"},
        "tomography": {"cutoff": 5, "eta": 0.86},
    },
    "tomo-coherent-list": {
        "run": "tomography",
        "seed": 6,
        "n_pulses": 3000,
        "state": {"kind": "coherent", "alpha": [0.6, -0.3]},
        "phases": {"kind": "list", "values": [0.0, 1.0, 2.0, 3.0]},
        "tomography": {"cutoff": 6, "bin_width": 0.2},
    },
    "tomo-coherent-sweep": {
        "run": "tomography",
        "seed": 7,
        "n_pulses": 2000,
        "state": {"kind": "coherent", "alpha": 0.8, "efficiency": 0.95},
        "phases": {"kind": "sweep", "count": 5, "start": 0.1, "span": 3.0},
        "tomography": {"cutoff": 6, "eta": 0.9},
    },
    "tomo-fock-random": {
        "run": "tomography",
        "seed": 9,
        "n_pulses": 2000,
        "state": {"kind": "fock", "n": 2},
        "phases": {"kind": "random"},
        "tomography": {"cutoff": 5, "tol": 1e-8, "max_iter": 300},
    },
    "tomo-vacuum-default": {
        "run": "tomography",
        "seed": 10,
        "n_pulses": 1000,
        "tomography": {"cutoff": 3},
    },
    "trace-gaussian": {
        "run": "trace-export",
        "seed": 8,
        "n_pulses": 1e1,
        "detector": {
            "pulse_shape": "gaussian",
            "drift": {"linear_rate": 1e3, "random_walk_sigma": 0.01},
        },
        "state": {"kind": "coherent", "alpha": 1.5},
        "phases": {"kind": "constant", "value": 0.4},
    },
}

DIGESTS = {
    "characterize": {
        "allan.csv": "7003643bdcec7c1ee62cc5e2942a27c8c89cce3a20a44df6bd6fc4d7ec97dcab",
        "cc.csv": "05723fb07253ad72b3adb5f9f189bbbed7167040ad85d82bdc60a7d767d72d73",
        "noise_curve.csv": "f9d06e993162fad3e7284cbcc3794269621692332370e3231053af4d230dc7f3",
        "report.json": "77f165bdf5207fd0747189563df51ac3f2233a9776013c751024cbb0d95a0791",
        "spectrum.csv": "2528e28fdfa8841505d2de495ce8a8ddefb099435ca3221b23ad4fcb844a2ff4",
    },
    "characterize-noiseless": {
        "allan.csv": "a4ffd7420af23205ed6f33e8b22b4d3736596a864e69a9f3ab06bbb7add8006e",
        "cc.csv": "26a4621a289cfc70cffe292c86b06534a16184349e99c25c76486dad1b843059",
        "noise_curve.csv": "b22d85f0a50c476665287eb316fde3447d464e4a29c8667b867a30426f7d400f",
        "report.json": "2a7fb70093f4b05d9932d8af6f803713a1ebb4c723c8b9a5bee10834f69218d9",
        "spectrum.csv": "4eea9de4c080b476650a816e4f4b1b1283d94dcf77484d70bd0186a15f902cea",
    },
    "tomo-mixture-random": {
        "photon_stats.csv": "16e75bba98b61a0bfca5c0c5f395811fea8fa1f859b07edc2e79c8451974f598",
        "rho.csv": "0c016855537a09de13d3423445f961c5a21438800e45c05ad48370f86ccf5aa1",
        "samples.csv": "dc22b6b212b8b2910e6f424120bc4a8e21fd0a8dcb1d9d56050aa6d37ece0040",
        "summary.json": "d251774876725bfb44b7b8035e64140564e92142e87a6eae9e51b26e8c071f91",
        "wigner.csv": "df4b52f919e3bc6bfeb2835e622904b1e14aa003ffa93ba2cf0d15f035e6d5d2",
    },
    "tomo-coherent-list": {
        "photon_stats.csv": "a08e973e2fb7e330f210d8fa4b6fffaf5397c4ef8d5c7c3b2b2686aef16014f2",
        "rho.csv": "ba631725b5eeeeb3e7f3157779dc91a039d08989d46188991fa047572f9c4c51",
        "samples.csv": "eb06565b150292efd6e775fa8e2e0244c5f8d7a3edae44a2bb779818d967eb49",
        "summary.json": "ec8ffa1a4dec56dc2ffa200e95c56e40f5525ca715b57b51bb6375723d8792e7",
        "wigner.csv": "387e6fcfe3f0a43138172ae9df5131457d409dc1271fa0707a0d70929299f547",
    },
    "tomo-coherent-sweep": {
        "photon_stats.csv": "ef1fdd658ddddc0e876e63ac7f42b9b83d1ca1b22ffe26864ebb18bee7bb159b",
        "rho.csv": "ebd6801a43fc2a573c3fb1f3647b98942654b303e7ae22c9322998470d3ab290",
        "samples.csv": "4a4f7bf359501cfba40036cb4ad479219c4ddc7ecdcf9be2334996a76754e0ba",
        "summary.json": "397ee62a8df01fbd37a0e300cb110ec9a5fe1f5916270e8d1d15c3316e64a205",
        "wigner.csv": "f49561a596ef305ddc08d635765e0dfa1f3e5fbb40e2276be3d636efdcab8243",
    },
    "tomo-fock-random": {
        "photon_stats.csv": "1a13dce82396b69c1a19fa666965b4eb58d99a395faf8b5577f463dd4beff9a7",
        "rho.csv": "5623437eb247b0513fb077f0decdf7269773258434f1ba529717b3cb1896e11d",
        "samples.csv": "252d68b1402ffc1ed723830b1749c65cfab179023c1d780b4054fe76903baf4a",
        "summary.json": "44263dd4cbe6c0baeaeec68c7ad3d6b31b59b2b51db7da57020cd086f53cd171",
        "wigner.csv": "3d62a8b055c446d3ae0418880043b1abafb23481047939ceb9209a8425c1e0b0",
    },
    "tomo-vacuum-default": {
        "photon_stats.csv": "158b4bbaccf16fce4e47c54d5d65a17cf676506823570b99d722d8ba35fc378f",
        "rho.csv": "358545af5c45da7a86683e8baf464fc2a649b8ab081ff8a34fc582157231ae2d",
        "samples.csv": "dcd2cfa57e16d61ab92998199569a0e570d3abc2a63bf3eb3a83f30fbe5dec51",
        "summary.json": "3f0fd1f960c947fc12e98d1de6dbc797612bd5f0bbe70aafd29e66295ca55700",
        "wigner.csv": "96d7a03cdfefa831dbbb7d9415ff7136a1e355a8b797e32bacc6b16ff4c4cd3c",
    },
    "trace-gaussian": {
        "trace.bin": "d2fc71d495c51e43c36b450ff8f1487e91dcaf6e5128eebd33aa8526130e20d1",
        "trace.csv": "c12395cceebde3c50df1f6ac2c36949ad5c535febd5fbcee5f403e8665551f07",
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifact_digests(name, tmp_path):
    config = CONFIGS[name]
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**config, "out_dir": str(out)}))
    assert main([config["run"], "--config", str(path)]) == 0
    written = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
    }
    assert written == DIGESTS[name]

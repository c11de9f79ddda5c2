"""Golden SHA-256 digests of every CLI artifact: the behaviour lock.

Each case runs one small fixed-seed config through ``pulsequad.cli.main``
and compares every file it writes, byte for byte, with recorded digests.
A change that alters any artifact, even at round-off level, fails here;
such a change must say so in CHANGES.md and refresh the digests on
purpose.  The digests were recorded with numpy 2.4 on x86-64; scipy
enters no artifact, since the package imports numpy alone.
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
        "allan.csv": "e561ae2b8b66c1f282a4c0392fb0eef797f04a358c0ea05ce12339d62c2fdfb8",
        "cc.csv": "d3c36bb3e34d9c90f969a44effc1a93e7f3f2f3d036b99a4ae7d02e64064dfd2",
        "noise_curve.csv": "6407d9a5b51b93313b4c7c683aa191d0b6de170eda28321c0e412fd943147ebd",
        "report.json": "afbf0bb20d362d392d3e407e05cef9262f815ada99fcee8ba7f980b8c2c1781c",
        "spectrum.csv": "15fae19d8b76fa3b43a3d91b1a0efd1f5e7e1222ded80aadf1f077a870308ba8",
    },
    "characterize-noiseless": {
        "allan.csv": "40843c9b88a24475c97e9b7cd12838aa42a10b974ec64e78e89f4e94475b093d",
        "cc.csv": "a3c7419bc29ab8293d093e4a22adbde3c83d4ee094c3b13c6e04de47e9b3e1c9",
        "noise_curve.csv": "9a6115fe5659e8dfdd957baf88536aeccec775f20a4d0aa046ef551b88e2a713",
        "report.json": "58cdd4340d5fad48fbf2ad14e7ef5cd79d67b116d88e9fdcd225b11b8a4bc1c5",
        "spectrum.csv": "5942c8d1814d6d658e900c8fafa320ee13582406c0d1c1f54c098d3a5099b572",
    },
    "tomo-mixture-random": {
        "photon_stats.csv": "722e2639f5b58da349d07748772bc128f3d99710e155a9962e69a599b6ddafe5",
        "rho.csv": "6287f31bde4dc30ab724acaa6015b8b141cf57ffcf23beb2d6f642d849341e2e",
        "samples.csv": "03f6664f474bc9bfd4486b34c2dd4318d27740843145cd545d909a93c1762e9b",
        "summary.json": "b123c5474dd992c97a46f83e3a141bc2825a151308686de94e7fe11cf1d99f45",
        "wigner.csv": "2dcdddb64244efad59c4c2b8e788dc0626bd77a9133c23ed2457db2efe07587c",
    },
    "tomo-coherent-list": {
        "photon_stats.csv": "49b784789a6270f2bf42916df159e05b1b90299787b99a1e411e689da1638057",
        "rho.csv": "6635afe309531af1a58e86b14c1d51376cde44b841f42420011e9aa9258c2b5f",
        "samples.csv": "4956fe002e3df50ad639514ac92c273f59bae4a39ceb7eeb65d2a9b7c9d79ced",
        "summary.json": "9449450305ae673fbd403c1f122bedba482fdf16ebea3a3db71c655181efca3d",
        "wigner.csv": "3a021387cafe1cf0eae0bbc5c41ac25bf990dbbbcd7943676a08e13c500a5c8c",
    },
    "tomo-coherent-sweep": {
        "photon_stats.csv": "14e32ad7203c4a91a03e85c11faf73b29ef16bf0a20fbd60fd559319b2f18354",
        "rho.csv": "1a2d9f1ffca028d5553aab97a510c855c0205a34b556195ef947f505c1149bf3",
        "samples.csv": "a69ac953553db755484e7818b50350c1f5f7a4ce638ea1b0806a23227435022c",
        "summary.json": "995939491567ae280aa739e79f727ecde5183908499688ffe034882c98adf673",
        "wigner.csv": "9685c869113a2619317eb76a973d0298a157288a3f2e853afd26e9e43ee66be4",
    },
    "tomo-fock-random": {
        "photon_stats.csv": "575ff971a0faf0a98eb27d546d26733a75b18934c781522b744c20c65735fbfd",
        "rho.csv": "96c6a4ba5c3c600c611b58cdedd060f0685701f2632e0e486938d0dc53d92ce6",
        "samples.csv": "3c9560510dbcd7b0010ef023de6fb4702ee43e012ba7836a797979d656320b3e",
        "summary.json": "a087cec35cd640d4b5a6c07f4999776ef1e56d7ae4a2d84fbcd078e0145d67b9",
        "wigner.csv": "9c1b84bce8c30ef0c0f50be2fead8739c190be98e46a6b6ff31f2c064458c61d",
    },
    "tomo-vacuum-default": {
        "photon_stats.csv": "a78ba85fa15ece204fc3651e892b0dc5e9f89053cc16a41851d8adb41e697f0a",
        "rho.csv": "a70b2c272decf523c5a29971387c2f3d2d3af36047457ecd0c33eeaf19f5560e",
        "samples.csv": "993ffd0214736e4f07a95fdb54fcaca2a985cfab13014ad4242f37a75e0ac154",
        "summary.json": "905981020c132401dd2367a63279ccde29b426ffc593111d9027bebb225757b6",
        "wigner.csv": "98c31f6301fb7fa7eb8ec21c5ed07d5c0d9e9177b916a052c86ba6fb78052f14",
    },
    "trace-gaussian": {
        "trace.bin": "d32b2949b35eaa28d2dad8d1dfbd28f25b0e4afa1b8a005a3338916daa20df42",
        "trace.csv": "d48df51c739db6f5ca4d7d8370a620bfca7c6889b0a79f5fb59d3b61c5c8f544",
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

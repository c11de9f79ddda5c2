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
        "photon_stats.csv": "8ae690a22ce16044b274cd57230c49c0bcd468f1f40d758644247d3a073ee684",
        "rho.csv": "d36761abf3e349fe2760ad84b3f3a50f3ca0d702ac0a47e770caff0d7d68907a",
        "samples.csv": "03f6664f474bc9bfd4486b34c2dd4318d27740843145cd545d909a93c1762e9b",
        "summary.json": "8b22ee7c7facf293b482aa52655b4a8bfc1c7cbe1bfe6d4b0b1055ae0d7cb5d6",
        "wigner.csv": "9455bf0f0b2a996f2cbdd0b9a5bc85b07e5f4cfe08ddf3922caddc0a5eb1ee6b",
    },
    "tomo-coherent-list": {
        "photon_stats.csv": "4e6a2a08738fd00a6ff871a3a8e1107b8be553b3c110df67b7858a32c7053db8",
        "rho.csv": "6bfe5464a42c5b3cadf20ba34c22202420d9a6190df92db84ec79366e4ab048e",
        "samples.csv": "4956fe002e3df50ad639514ac92c273f59bae4a39ceb7eeb65d2a9b7c9d79ced",
        "summary.json": "3f868e2c383e29285b1439ceed8f616c365207170052e822af4ca898e9ffc967",
        "wigner.csv": "34fa65a44f5934a89a7318a1c1d9d29169fc7345d54853c87ef987879daf7a31",
    },
    "tomo-coherent-sweep": {
        "photon_stats.csv": "bbca4c5e60bc424bb4f6332f0200ad9c2dccc3fbd77b8950d99ba646fa149f18",
        "rho.csv": "2a79bc6308f429babf81a8f9af638a03cdbf98bea258dca32e2c57d6d32df4e3",
        "samples.csv": "a69ac953553db755484e7818b50350c1f5f7a4ce638ea1b0806a23227435022c",
        "summary.json": "701a80a80b812cada8a2e2d1dafc076a4bf34ca7508f7138c042a2ebaa690d25",
        "wigner.csv": "55add599ff7d9123af663720d12da6265befcc907600004a3fbb42a560a12cc0",
    },
    "tomo-fock-random": {
        "photon_stats.csv": "a7025079bdadeac39a5222478d51dfe524c25312c4eb8f0b0056406b7548a402",
        "rho.csv": "82ebe20ba5c42e177078f4045e5abf3eb489cebc778548d3beb24bbf305ecc6d",
        "samples.csv": "3c9560510dbcd7b0010ef023de6fb4702ee43e012ba7836a797979d656320b3e",
        "summary.json": "9ad122e1963e66a8293946af3b8f799de718edaa8beb326569d961fc5db0d41c",
        "wigner.csv": "ee3b040a7edc1bf010e610a5aabcc5b25073570dc645c02a0ee209f04489ccc4",
    },
    "tomo-vacuum-default": {
        "photon_stats.csv": "132b99f25778d073ccb142a6a50975eb93365bd87baf0839fdb42b47d1f3715d",
        "rho.csv": "754796d17ce0bcce5a9223b2577d0e591c13392f41b2d4261e27458a0182ef5f",
        "samples.csv": "993ffd0214736e4f07a95fdb54fcaca2a985cfab13014ad4242f37a75e0ac154",
        "summary.json": "54271daa488e127818cd984886cda768424d563dc4a93baae2d64f437788b94c",
        "wigner.csv": "7625123d4631de0d7923f234f9a2f4e4485c6513439117d0e0c9868c2c21091f",
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

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
        "spectrum.csv": "3ceb7c75227426962140ec71207e6f958b9de57bcd8035249858920aae695a7d",
    },
    "characterize-noiseless": {
        "allan.csv": "40843c9b88a24475c97e9b7cd12838aa42a10b974ec64e78e89f4e94475b093d",
        "cc.csv": "a3c7419bc29ab8293d093e4a22adbde3c83d4ee094c3b13c6e04de47e9b3e1c9",
        "noise_curve.csv": "9a6115fe5659e8dfdd957baf88536aeccec775f20a4d0aa046ef551b88e2a713",
        "report.json": "58cdd4340d5fad48fbf2ad14e7ef5cd79d67b116d88e9fdcd225b11b8a4bc1c5",
        "spectrum.csv": "66ef33bdf435a415190e55f44cb9ff08dc482fc673d35f529e9642f3709c9bf1",
    },
    "tomo-mixture-random": {
        "photon_stats.csv": "3d3abc63be80ec73031c9f788c108a3b914efea89caad016e995d7fb0ea33c58",
        "rho.csv": "d51c088117b3b983570c53cb2975f3169a18ec9ec0876b9373553ba4bd0ac639",
        "samples.csv": "03f6664f474bc9bfd4486b34c2dd4318d27740843145cd545d909a93c1762e9b",
        "summary.json": "f81b8dacdf7f42378225629a5ae5e63a6e8e5c0e744ca43fa23e9363cf1aeff6",
        "wigner.csv": "3752507f2124ebc8faadfb9b3ae5cc0ad7bd29d3ad4bea1e365fb8bd3ae4d01a",
    },
    "tomo-coherent-list": {
        "photon_stats.csv": "692687bf73d4f794501ea6e7f60914c36878d2ed0d8a8db723af0b63ca723795",
        "rho.csv": "472ef97e52fa610fb3f5e64942f9bd03cda31987c3ce81de861aa931f59fb5f5",
        "samples.csv": "34d53dab579d642c9e01df32ffcfa0275edbed1ec5cd65729682520a36a277c6",
        "summary.json": "2a1ec8341f18c4861c6cd3756ad1f47a01e29cd198a3a1892b9b01bc1a9a2551",
        "wigner.csv": "8e95d2a80beaeae16d13d165a7742f7a756891faf7a155b0b82a68cf3da339a7",
    },
    "tomo-coherent-sweep": {
        "photon_stats.csv": "d8fcf77b3224b06ba10b18769f71f7b4593700454ec81a969c033bc502cb91e8",
        "rho.csv": "80abbee68c8f5fb04d4a3bf5a6fcaf1eb9778c26955b63a919076361616ac67e",
        "samples.csv": "48da7513e97df0ce30da766cb2fc46019ef86f8932a866f56f9fc92398e284ce",
        "summary.json": "0ad36365bb297a8407eb1bcc177ffaf2e2523bbce4c6844d89e915b762c85297",
        "wigner.csv": "bec61bdfb3f77710a439c8c5a265f89c875b0b37c895221cd02312e3b1e043b8",
    },
    "tomo-fock-random": {
        "photon_stats.csv": "8f0c043836c537fda141baf4f2b78291ec312f4403be998c13e63920417bf9fb",
        "rho.csv": "40d4262879453a57cd01d8c61188be3fe7284e6f7b6a6eccad421bf48eb0a52a",
        "samples.csv": "3c9560510dbcd7b0010ef023de6fb4702ee43e012ba7836a797979d656320b3e",
        "summary.json": "4284b7aa53f0bf67032b73d6deaa930826367bb529bff8a6e0f7ce2c0dccde50",
        "wigner.csv": "4a14070fa4850c9cb6f4d94d4e100cab7e1c159b7ec45e68efaee44191ffbc42",
    },
    "tomo-vacuum-default": {
        "photon_stats.csv": "132b99f25778d073ccb142a6a50975eb93365bd87baf0839fdb42b47d1f3715d",
        "rho.csv": "3e30fb8da000e1af515545791f862b6559f49f01d8865760f18a1a87dc21d13d",
        "samples.csv": "993ffd0214736e4f07a95fdb54fcaca2a985cfab13014ad4242f37a75e0ac154",
        "summary.json": "54271daa488e127818cd984886cda768424d563dc4a93baae2d64f437788b94c",
        "wigner.csv": "6bc8f3d7f4cbb3210b8ec638128a623cc615df15d22ceb07c522690a1c54e184",
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

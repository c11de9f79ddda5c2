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
        "cc.csv": "1588ada2e23e56229c6efac1bae6d2faed79751e89503fcf66e76535fc3da763",
        "noise_curve.csv": "d14e89c6bc7782fbc3602f97c2076d0edba075b804ede6e43ff615326373e69b",
        "report.json": "7193c775e13c042ded4b829fc8565808e6a80dc1c66831d0f402be72d0828a40",
        "spectrum.csv": "9584562fbfd527f9a0703d3e207bcacd8e22410992bdf675f86ea1e0c76ba00b",
    },
    "characterize-noiseless": {
        "allan.csv": "40843c9b88a24475c97e9b7cd12838aa42a10b974ec64e78e89f4e94475b093d",
        "cc.csv": "4a378f4eecdbcd70eb0c75c5501b564f966cf1bcaed024d57e2e5c29ae8e938d",
        "noise_curve.csv": "2afdeb3f8ae228bfeac592341d5661b14d142588975ac0c6e36afd38af4013bf",
        "report.json": "04e888d7ea50ff5631630951a65eef80224803c238c3196c7231031df5dd64bb",
        "spectrum.csv": "e7b134e7aba210c0cc9ad1f223f269b3d9520784409f6d3a8d221324a15d3b5c",
    },
    "tomo-mixture-random": {
        "photon_stats.csv": "16e75bba98b61a0bfca5c0c5f395811fea8fa1f859b07edc2e79c8451974f598",
        "rho.csv": "0c016855537a09de13d3423445f961c5a21438800e45c05ad48370f86ccf5aa1",
        "samples.csv": "03f6664f474bc9bfd4486b34c2dd4318d27740843145cd545d909a93c1762e9b",
        "summary.json": "d251774876725bfb44b7b8035e64140564e92142e87a6eae9e51b26e8c071f91",
        "wigner.csv": "8975da24ae1634b5fe7cd5709bddb93cafc483348c3af6cdff2b79d82f0ab755",
    },
    "tomo-coherent-list": {
        "photon_stats.csv": "a08e973e2fb7e330f210d8fa4b6fffaf5397c4ef8d5c7c3b2b2686aef16014f2",
        "rho.csv": "ba631725b5eeeeb3e7f3157779dc91a039d08989d46188991fa047572f9c4c51",
        "samples.csv": "4956fe002e3df50ad639514ac92c273f59bae4a39ceb7eeb65d2a9b7c9d79ced",
        "summary.json": "ec8ffa1a4dec56dc2ffa200e95c56e40f5525ca715b57b51bb6375723d8792e7",
        "wigner.csv": "35be55ab04477af9018d67507c84aea64750bcd4c33929f4fb64855e07f62df2",
    },
    "tomo-coherent-sweep": {
        "photon_stats.csv": "ef1fdd658ddddc0e876e63ac7f42b9b83d1ca1b22ffe26864ebb18bee7bb159b",
        "rho.csv": "ebd6801a43fc2a573c3fb1f3647b98942654b303e7ae22c9322998470d3ab290",
        "samples.csv": "a69ac953553db755484e7818b50350c1f5f7a4ce638ea1b0806a23227435022c",
        "summary.json": "397ee62a8df01fbd37a0e300cb110ec9a5fe1f5916270e8d1d15c3316e64a205",
        "wigner.csv": "f652ad1aa21fd90b45910436b04276b98b91eeb91203292d3261a2e99561e920",
    },
    "tomo-fock-random": {
        "photon_stats.csv": "1a13dce82396b69c1a19fa666965b4eb58d99a395faf8b5577f463dd4beff9a7",
        "rho.csv": "5623437eb247b0513fb077f0decdf7269773258434f1ba529717b3cb1896e11d",
        "samples.csv": "3c9560510dbcd7b0010ef023de6fb4702ee43e012ba7836a797979d656320b3e",
        "summary.json": "44263dd4cbe6c0baeaeec68c7ad3d6b31b59b2b51db7da57020cd086f53cd171",
        "wigner.csv": "fd12fb8261603ddb635f1955d553ce6b46e77204e5ac19595431e41c9e7bb243",
    },
    "tomo-vacuum-default": {
        "photon_stats.csv": "158b4bbaccf16fce4e47c54d5d65a17cf676506823570b99d722d8ba35fc378f",
        "rho.csv": "358545af5c45da7a86683e8baf464fc2a649b8ab081ff8a34fc582157231ae2d",
        "samples.csv": "993ffd0214736e4f07a95fdb54fcaca2a985cfab13014ad4242f37a75e0ac154",
        "summary.json": "3f0fd1f960c947fc12e98d1de6dbc797612bd5f0bbe70aafd29e66295ca55700",
        "wigner.csv": "8ea04db602da96aaccc300f817987560a67bcbc5cabfb6108c5c9b050e0a6f75",
    },
    "trace-gaussian": {
        "trace.bin": "06ed3c7cf5abf260377ec20cd84951273cae704327e1af76e62822aec8910b8c",
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

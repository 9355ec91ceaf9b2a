"""Golden outputs: SHA-256 digests of CLI outputs on fixed desk-scale rooms.

A change that keeps behaviour must keep these bytes. Each digest covers one
output of ``planeops.cli.main`` on a ``make_box_room`` cloud: the ``gt``
sidecar, the ``eval`` JSON (that sidecar scored against the synthetic
truth), and the OPS and FSPF ``detect`` reports without ``timings_ms``.
A change that alters results on purpose updates the digests and says why.

Run as ``python tests/test_golden.py`` to print the digests of the current
code.
"""

import hashlib
import json

import pytest

from planeops import make_box_room, save_labeled
from planeops.cli import main

GOLDEN = {
    1: {
        "gt": "b90277da86e6f18bea51f453607f77fda424142b31db7bbd6b19de9f08b40720",
        "eval": "93e2ad4b63f32659d47b538995bdf3e62c6d5a980125f55a0af9467e478c2d7e",
        "ops": "3622629b88bdca30adccb142d6cf7da31d7d9316eba122851574944b4fa3eea4",
        "fspf": "bbd4e5d8e8280e0b3cd1610fc7ff2695dd7067d3f4dbc558a74bf884beaad792",
    },
    2: {
        "gt": "2496decc77badc8510ed435bf630812bb3359e95988ffcfba3d02dfdb05c7892",
        "eval": "689c33ad0549fa254c95ac252a46aa603dbb87848a76e2c1cbba00c38755d30b",
        "ops": "1db7f7bc9081e6a857aef500eeff7f0280d0ddb14c02aec8a88dc0673bcbe43c",
        "fspf": "775aec509033b75648ead64f6dc363344ffda2a4a27c6f71ba1434e2f21b1238",
    },
    3: {
        "gt": "20e0fa8d47b9cfbcfad08c1e2ea5c2af16b98f80d352eb697ebb993637289428",
        "eval": "0a08ee8a46c902ff710d93537d1b0560341cebf9a5728952544962544c7a8d99",
        "ops": "30b077cb752a1610106536e408642a01b9b3218f46bf9e5002bb4989a7a22942",
        "fspf": "5ce16080769e03a5394c51db5ba1a1e6692e779fc0b5d66f5fe2ea0802b82561",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report_digest(path) -> str:
    report = json.loads(path.read_text())
    del report["timings_ms"]
    return _sha256(json.dumps(report, sort_keys=True).encode())


def golden_digests(seed: int, workdir) -> dict:
    """Digests of the four outputs for the 6,600-point room of ``seed``."""
    points, truth = make_box_room(size=3.5, points_per_face=1000, clutter=600, noise_sigma=0.005, seed=seed)
    cloud = workdir / "room.ply"
    save_labeled(points, truth, cloud)
    gt, scores = workdir / "room.gt.labels.txt", workdir / "room.eval.json"
    assert main(["gt", "--input", str(cloud), "--out", str(gt)]) == 0
    assert main(["eval", "--pred", str(gt), "--truth", str(cloud.with_suffix(".labels.txt")),
                 "--json", str(scores)]) == 0
    digests = {"gt": _sha256(gt.read_bytes()), "eval": _sha256(scores.read_bytes())}
    for detector in ("ops", "fspf"):
        out = workdir / detector
        main(["detect", "--input", str(cloud), "--out", str(out), "--detector", detector, "--seed", "1"])
        digests[detector] = _report_digest(out / "room.report.json")
    return digests


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_golden_outputs(tmp_path, seed):
    assert golden_digests(seed, tmp_path) == GOLDEN[seed]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    for seed in sorted(GOLDEN):
        with tempfile.TemporaryDirectory() as tmp:
            print(seed, json.dumps(golden_digests(seed, Path(tmp)), indent=4))

"""Golden outputs: SHA-256 digests of CLI outputs on fixed desk-scale rooms.

A change that keeps behaviour must keep these bytes. Each digest covers one
output of ``planeops.cli.main`` on a ``make_box_room`` cloud: the ``gt``
sidecar, the ``eval`` JSON (that sidecar scored against the synthetic
truth), and the OPS and FSPF ``detect`` reports without ``timings_ms``.
A change that alters results on purpose updates the digests and says why.
The ``ops`` and ``fspf`` digests last changed when the report's ``params``
block stopped echoing settings no run reads (``gt``, the detectors' own
seeds, and the oriented-point detector's copies of the up axis and the
orientation tolerance); planes, labels and every other field stayed the same.

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
        "ops": "e2000dd64e83d6992eb57240667c6b59afb522a21e51f006e7796c05b8d9a001",
        "fspf": "3e7cfaf48331a272444253adcaf2009bf8273f5869144ccaf9693a858bcf75b6",
    },
    2: {
        "gt": "2496decc77badc8510ed435bf630812bb3359e95988ffcfba3d02dfdb05c7892",
        "eval": "689c33ad0549fa254c95ac252a46aa603dbb87848a76e2c1cbba00c38755d30b",
        "ops": "168199a35d042e1d339153abe87c0bdca7a8903e78300cdb194e44a8150ac119",
        "fspf": "208fddb3b393859a3fab9db12ef8fe073dfc87b723a0ca89026d83d05c0cacd2",
    },
    3: {
        "gt": "20e0fa8d47b9cfbcfad08c1e2ea5c2af16b98f80d352eb697ebb993637289428",
        "eval": "0a08ee8a46c902ff710d93537d1b0560341cebf9a5728952544962544c7a8d99",
        "ops": "a42f96ff8d7edc422e98770d81a09050b6a06a30868b51107eefe05076dca127",
        "fspf": "9911c6683728234ced58d33fa8fbe578fd13a5a2c9e5cbb58282921d5357bdc9",
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

"""Golden outputs: SHA-256 digests of CLI outputs on fixed synthetic rooms.

A change that keeps behaviour must keep these bytes. Each digest covers one
output of ``planeops.cli.main`` on a ``make_box_room`` cloud: the ``gt``
sidecar, the ``eval`` JSON (that sidecar scored against the synthetic
truth), and for each detector the ``detect`` report without ``timings_ms``
(``ops``, ``fspf``), the labeled PLY (``ops_ply``, ``fspf_ply``) and the
sidecar (``ops_labels``, ``fspf_labels``).
Three rooms have 6,600 points; one has 65,000, enough that the oriented-point
detector's set of unclaimed points shrinks to a small share of the cloud.
A change that alters results on purpose updates the digests and says why.
The ``fspf`` digests last changed when merging began to fit a merged plane
from its parts' moments (count, mean, centred scatter) instead of refitting
the union's points: merged centroids and normals changed in their last bits
(under 1e-15 on these rooms), and every plane count, inlier count, label and
other report field stayed the same, so ``fspf_ply`` and ``fspf_labels`` did
not change. Before that, they changed when the local-sampling detector began
drawing and testing its hypotheses in blocks, which changed its random
stream (each hypothesis keeps its distribution). The ``fspf_ply`` and
``fspf_labels`` digests were added then: the report alone does not pin the
per-point labels that ``assign_to_planes`` gives FSPF runs.
The ``ops`` digests last changed when the report's ``params``
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
        "ops_ply": "7c06a4c9a5e85a4965acae6b7e6df794d1a6e5fba67634a3c441fe129d781303",
        "ops_labels": "fb63cea6b94595e71f5575392b725ae62d017a2c711e092a2e85b5d13f22d0e5",
        "fspf": "353821810492ce03db2656e7f60caaec4f1100802ce31014d85c0e2c24ecaf14",
        "fspf_ply": "059c44c7aaf5086f822c8a385cc000631c0834696fe0bdebac73ba2a34ae906e",
        "fspf_labels": "f2908ab3d5e53fa294b8d992ffeb024055597a562fcea83fc5e84e60c68e87f5",
    },
    2: {
        "gt": "2496decc77badc8510ed435bf630812bb3359e95988ffcfba3d02dfdb05c7892",
        "eval": "689c33ad0549fa254c95ac252a46aa603dbb87848a76e2c1cbba00c38755d30b",
        "ops": "168199a35d042e1d339153abe87c0bdca7a8903e78300cdb194e44a8150ac119",
        "ops_ply": "6d11201abea8f3c59fc19039761cf8833cdffbcfbd6acce740a5a276c079cf33",
        "ops_labels": "0740c916bc8e1127d61ffdf305746c63ab201830e85187c75d8ce5feda567b72",
        "fspf": "940f315b5430c3f603889c7f51026828e357a768a3425c0b0ccc673106c4e0d3",
        "fspf_ply": "b21c59019c006a00d150afc4273407089273e6bf1170047ebd2455d2aa1c4822",
        "fspf_labels": "5d54a4ca42f6c919d10d6d0f01517929db96cb55b12a06693e10cc229baaa713",
    },
    3: {
        "gt": "20e0fa8d47b9cfbcfad08c1e2ea5c2af16b98f80d352eb697ebb993637289428",
        "eval": "0a08ee8a46c902ff710d93537d1b0560341cebf9a5728952544962544c7a8d99",
        "ops": "a42f96ff8d7edc422e98770d81a09050b6a06a30868b51107eefe05076dca127",
        "ops_ply": "537a40304c699b5cbd1497c418b5b3bdbd8e64fbc81050c6e0aaaeb7b4bf9130",
        "ops_labels": "0dc049f4c8754f8fccb77d8d6ea18a532f2e943e3e3da444226ff2d627e1722c",
        "fspf": "808ed1ecbcd2ae3278694b3cce11f9aaf40bdff97463383dd46c86d8d8f8b9cc",
        "fspf_ply": "42d298f1dbab65752ecb5680a58f223844b9cd85943baba4dedf5caeb249c424",
        "fspf_labels": "8c65d11073c1b53939d835b069c3495a7fc235fa8728efc84ea3eb6a61d84c90",
    },
}


GOLDEN_OPS_65K_SEED = 4
GOLDEN_OPS_65K = {
    "ops": "5c09ce1b3965e2afbf693f8953ea5ec0ead12dd94895b0e005fd9591d680c87f",
    "ops_ply": "b5b23ff33057c8a691f8e5d216a80257a1912f6d1509e8c7707d5ba7fbb73ac6",
    "ops_labels": "d8bc6e21c79142f74fde0ef2bf156a68570c0c937a6e192b941462e9369b0bdf",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report_digest(path) -> str:
    report = json.loads(path.read_text())
    del report["timings_ms"]
    return _sha256(json.dumps(report, sort_keys=True).encode())


def _room(workdir, points_per_face: int, clutter: int, seed: int):
    points, truth = make_box_room(size=3.5, points_per_face=points_per_face, clutter=clutter,
                                  noise_sigma=0.005, seed=seed)
    cloud = workdir / "room.ply"
    save_labeled(points, truth, cloud)
    return cloud


def _detect_digests(cloud, workdir, detector: str) -> dict:
    out = workdir / detector
    main(["detect", "--input", str(cloud), "--out", str(out), "--detector", detector, "--seed", "1"])
    return {
        detector: _report_digest(out / "room.report.json"),
        f"{detector}_ply": _sha256((out / "room.labeled.ply").read_bytes()),
        f"{detector}_labels": _sha256((out / "room.labels.txt").read_bytes()),
    }


def golden_digests(seed: int, workdir) -> dict:
    """Digests of the outputs for the 6,600-point room of ``seed``."""
    cloud = _room(workdir, 1000, 600, seed)
    gt, scores = workdir / "room.gt.labels.txt", workdir / "room.eval.json"
    assert main(["gt", "--input", str(cloud), "--out", str(gt)]) == 0
    assert main(["eval", "--pred", str(gt), "--truth", str(cloud.with_suffix(".labels.txt")),
                 "--json", str(scores)]) == 0
    digests = {"gt": _sha256(gt.read_bytes()), "eval": _sha256(scores.read_bytes())}
    for detector in ("ops", "fspf"):
        digests.update(_detect_digests(cloud, workdir, detector))
    return digests


def golden_ops_65k_digests(workdir) -> dict:
    """Digests of the OPS detect outputs for the 65,000-point room."""
    return _detect_digests(_room(workdir, 10000, 5000, GOLDEN_OPS_65K_SEED), workdir, "ops")


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_golden_outputs(tmp_path, seed):
    assert golden_digests(seed, tmp_path) == GOLDEN[seed]


def test_golden_ops_65k(tmp_path):
    assert golden_ops_65k_digests(tmp_path) == GOLDEN_OPS_65K


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    for seed in sorted(GOLDEN):
        with tempfile.TemporaryDirectory() as tmp:
            print(seed, json.dumps(golden_digests(seed, Path(tmp)), indent=4))
    with tempfile.TemporaryDirectory() as tmp:
        print("ops 65k", json.dumps(golden_ops_65k_digests(Path(tmp)), indent=4))

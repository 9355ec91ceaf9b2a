"""Golden outputs: SHA-256 digests of CLI outputs on fixed synthetic rooms.

A change that keeps behaviour must keep these bytes. Each digest covers one
output of ``planeops.cli.main`` on a ``make_box_room`` cloud: the ``gt``
sidecar, the ``eval`` JSON (that sidecar scored against the synthetic
truth), and for each detector the ``detect`` report without ``timings_ms``
(``ops``, ``fspf``), the labeled PLY (``ops_ply``, ``fspf_ply``) and the
sidecar (``ops_labels``, ``fspf_labels``).
Three rooms have 6,600 points; one has 65,000, enough that the set of
unclaimed points that ``assign_to_planes`` measures shrinks to a small share
of the cloud as the planes claim theirs.
One more has 22,750 points and runs ``fspf`` with the ``room_fspf_23k``
benchmark flags, so merging makes about 280 merges: it pins the greedy merge
order. Room 1's OPS run is also written with ``--color-mode orientation``,
which pins the labeled PLY's other color branch.
A change that alters results on purpose updates the digests and says why in
CHANGES.md, which holds the history of every digest change.

Run as ``python tests/test_golden.py`` to print the digests of the current
code.
"""

import hashlib
import json

import pytest

from planeops import make_box_room, save_labeled, save_labeling
from planeops.cli import main

GOLDEN = {
    1: {
        "gt": "baa10ae59651e5137c1f2b48e79c9740c290310154d44bddceb94fd67ba98bbf",
        "eval": "ae542217755cd36850825a1f64efbd6e03b3e9c6b62a60b4264020c71ad86373",
        "ops": "1bfd4bd47c75d2cb0d145ef1330fe7a5cf26c8a1c720de96c43b53a478ae66e2",
        "ops_ply": "00f79deb7ea58e9be3f1c5687c9a801ae03b2aa82eec977648075425d0c7c50e",
        "ops_labels": "6c0026bba08c52ca6f29d572438381c228669c2b27f42aca9b013a26db318670",
        "fspf": "8ac4b82b5a6e8a41665a4b9e71ab0a8e781acf1a314b5c5d3f56b0d6594a8e4e",
        "fspf_ply": "9430e127be2bc2669d40ef6d072ee82250c6c73b9c9acbcc0e9fc0bbda206779",
        "fspf_labels": "f3cb7717261f0983334fc1b64508236600447ffc31f03f8cf0aba71085cbb3e1",
    },
    2: {
        "gt": "ea0b54d9a6953fdfe54b7287b572f3108c54a8ea824e49c7dd3db50bcc7e7811",
        "eval": "7888309e387a8f813b92b5c4b91495615272a3bda1e1e48a16cd0f74cb99200c",
        "ops": "4c723fee9b401c2b3fa8513b0f728f7a4e711264c0ac76992f7ccf673a6ce6e2",
        "ops_ply": "bbdbaf75dc155ba950210716dd961a6f50bb6f16998620568720b739ecbbabb6",
        "ops_labels": "9f5f358b94a42c2d5db6a152ab3af2edbd069d54278f77f1d6c88ae70d9658d3",
        "fspf": "9bf3443967143176b4c949a8cfdc542d9db465194c6072362c5d8d4406da5315",
        "fspf_ply": "4e6705d8eca0ac1ffeecce0e4ae9cf7432a08b4ee82667d2145019cbc0cc6281",
        "fspf_labels": "2d1452ace32faa7fe9625abed5c93311d94514194270afb0625f8e35346eed65",
    },
    3: {
        "gt": "0f97631f63c4c40dc0bf725b26bdad491da5d73a393908b7b38eb74c3284c1df",
        "eval": "d319b607636884a740e4aa6a3a338e84edd4ab5042b29b955618525d5c551693",
        "ops": "c5d44289bc359e79e71c3659933c19ee35687d9efca170a31e0311e1cb399fef",
        "ops_ply": "80bc659722edb05d6120b8f356fbabcc96cdddf717a146f108f6fd8d4d47ceac",
        "ops_labels": "58e7b9415f5d436eda8bffb9ac956790ab3315774c40e7c3646cf16ffac2fb4a",
        "fspf": "bd244002dce749b6312032d375e363aca2aa7e41731fcc5ba3d2ae4d5a66ac47",
        "fspf_ply": "724105765f6e06d99131fd625f6b14e5a0cd1a20520a44d3cbf528ba2cf48556",
        "fspf_labels": "4921bd25050633360859ec97a608f18d212286e307728a006e3f7d7d0bf1d5e0",
    },
}


GOLDEN_OPS_65K_SEED = 4
GOLDEN_OPS_65K = {
    "ops": "54f83c310c4e06ebd1f1ba9b6db4d591785514b29640104ac34a08e9aed09459",
    "ops_ply": "2167a2edddc86056971159e317523a7ad0cf958ea30616d9dbe0950d953f402f",
    "ops_labels": "31003e1cc638cfd30c01a0f456d32a9562dbca5cc2b9e8f8a52259ad8d83f5ac",
}

GOLDEN_ORIENTATION_PLY = "2192dfe9cfffbfee7869433bf2a23903b017c2fc422bcabc7b481aea6976b1fc"

GOLDEN_FSPF_23K_SEED = 1
GOLDEN_FSPF_23K = {
    "fspf": "e84d9f4d1085af67b1c1d5412469fb1c4a76711951d6fba569c4684ca9120d14",
    "fspf_ply": "4394a9b677b416700a380c3840daca62d93787b05453d3ea2a52f3e41281c630",
    "fspf_labels": "c4150c912a0cf822d944c85aaec55f23d7cf30d41c9e5b4806fc4c59643dc1ec",
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
    save_labeling(truth, cloud.with_suffix(".labels.txt"))
    return cloud


def _detect_digests(cloud, workdir, detector: str, *flags: str) -> dict:
    out = workdir / detector
    main(["detect", "--input", str(cloud), "--out", str(out), "--detector", detector, "--seed", "1", *flags])
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


def golden_orientation_ply_digest(workdir) -> str:
    """Digest of the labeled PLY of room 1's OPS detect, colored by orientation class."""
    cloud = _room(workdir, 1000, 600, 1)
    return _detect_digests(cloud, workdir, "ops", "--color-mode", "orientation")["ops_ply"]


def golden_fspf_23k_digests(workdir) -> dict:
    """Digests of the FSPF detect outputs for the 22,750-point room, run with
    the ``room_fspf_23k`` benchmark flags (inlier budget = cloud size, wide
    merge thresholds): about 300 fragments, so merging makes hundreds of
    merges in long chains."""
    cloud = _room(workdir, 3500, 1750, GOLDEN_FSPF_23K_SEED)
    return _detect_digests(cloud, workdir, "fspf", "--n-max", str(6 * 3500 + 1750),
                           "--merge-angle", "10", "--merge-offset", "0.075")


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_golden_outputs(tmp_path, seed):
    assert golden_digests(seed, tmp_path) == GOLDEN[seed]


def test_golden_ops_65k(tmp_path):
    assert golden_ops_65k_digests(tmp_path) == GOLDEN_OPS_65K


def test_golden_orientation_ply(tmp_path):
    assert golden_orientation_ply_digest(tmp_path) == GOLDEN_ORIENTATION_PLY


def test_golden_fspf_23k(tmp_path):
    assert golden_fspf_23k_digests(tmp_path) == GOLDEN_FSPF_23K


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    for seed in sorted(GOLDEN):
        with tempfile.TemporaryDirectory() as tmp:
            print(seed, json.dumps(golden_digests(seed, Path(tmp)), indent=4))
    with tempfile.TemporaryDirectory() as tmp:
        print("ops 65k", json.dumps(golden_ops_65k_digests(Path(tmp)), indent=4))
    with tempfile.TemporaryDirectory() as tmp:
        print("orientation ply", golden_orientation_ply_digest(Path(tmp)))
    with tempfile.TemporaryDirectory() as tmp:
        print("fspf 23k", json.dumps(golden_fspf_23k_digests(Path(tmp)), indent=4))

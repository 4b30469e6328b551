"""Byte identity of the CLI outputs.

Every output file of the three benchmark workloads' steps at seed 0, plus a
quadrature ``ft``, an ``stft`` and a small ``stft_abs`` scan of the pentagon,
is pinned by its sha256, and so are two ``check-orth`` reports whose time
groups meet every group, which the workloads' lattices never do. The workload inputs come from the benchmark's
``workloads.py``, imported read-only as ``test_perfbench`` loads it, and
every path is relative to the run directory, so the scan's ``# in`` line
does not depend on where it runs. A
refactor that claims byte-identical output keeps these digests; a change
that moves a value names the moved files and records their new digests.
"""

import hashlib
import json
from pathlib import Path

import pytest

from gonb.cli import main
from test_perfbench import workloads

PENTAGON_STEPS = [
    ["ft", "--in", "window.json", "--lambda", "0.7,-1.3", "--quadrature", "2000",
     "--out", "ft.out.json"],
    ["stft", "--in", "window.json", "--t=-0.3,0.2", "--lambda=1.5,-0.5",
     "--out", "stft.out.json"],
    ["scan", "--in", "window.json", "--field", "stft_abs", "--t=-0.3,0.2",
     "--lambda-box=-2:2,-1:3", "--grid", "7", "--out", "stft_abs.out.csv"],
]

# sha256 of each output file, numpy 2.4.6 with Python 3.11.7 on x86-64 Linux;
# another numpy, BLAS or CPU may move a last bit and so a digest
DIGESTS = {
    "orth-square": {
        "orth-integer.out.json":
            "78ebf710c10f5d9f13c8a9c1b275a6d64d5cf8a1703c5c9c504029e36881c598",
    },
    "orth-pentagon": {
        "orth-sheared.out.json":
            "1cc38455635f2b7c7cf60bec6b0a081a48a4492540940d436b95c63b09f4e77a",
        "orth-scaled.out.json":
            "35dc0ffacce64a31d4d419dbb9509260b5be6ebab8ab406b11677e0ffa3cc07e",
    },
    "cert-pentagon": {
        "cert.out.json":
            "0d8e5dfb2352b62e6e378a6ae31967d5194e32bfec829dcf5ad1baad04779588",
        "scan.out.csv":
            "f8b54d6bab5ff48f86e1311ab8e82cf9aa6357cefac3ea5951feac41068b11ca",
        "violation.out.json":
            "547d8a8299c585a35a2e38e4aebeff719b81dc03337a51d620c967a9df62e169",
        "ft.out.json":
            "5937a7bf3e7153ef5db84895c5c150c4760d2208ca982647f47140959d45fe10",
        "stft.out.json":
            "c3e9e113c9a34b84fa1c274f7608452d17877bdf460eedba439481868d2ee9ca",
        "stft_abs.out.csv":
            "17e2387143d8fe49ea6d0f9d2c4a1031bfcd91f3d6248700db0c8fe97b1a8efe",
    },
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_outputs_keep_their_bytes(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = workloads.WORKLOADS[name](Path("."), 0)
    steps = wl.steps() + (PENTAGON_STEPS if name == "cert-pentagon" else [])
    assert [main(argv) for argv in steps] == [0] * len(steps)
    assert {path.name for path in wl.outputs()} <= set(DIGESTS[name])
    got = {path: hashlib.sha256(Path(path).read_bytes()).hexdigest()
           for path in sorted(DIGESTS[name])}
    assert got == DIGESTS[name]


def _halfspaces(rows) -> dict:
    return {"dim": len(rows[0][0]),
            "halfspaces": [{"normal": list(n), "offset": c} for n, c in rows]}


# check-orth --max-reports 8 inputs: Z^4 in [-2,2]^4 with the unit square
# scaled 10x, and the 300 points (k/10, (k mod 2)/2) with the window [0, 200]
WIDE_WINDOWS = {
    "square": (_halfspaces([((1, 0), 10), ((-1, 0), 0), ((0, 1), 10), ((0, -1), 0)]),
               {"lattice": {"basis": [[float(i == j) for j in range(4)] for i in range(4)],
                            "shift": [0.0] * 4, "box": {"lo": [-2.0] * 4, "hi": [2.0] * 4}}},
               "f5ed75ad421c5338eee887b3c91775a8b7cfab705dbd7a9202ea0b69f5ed8dcc"),
    "line": (_halfspaces([((1,), 200), ((-1,), 0)]),
             {"points": [[k / 10, (k % 2) / 2] for k in range(300)]},
             "f1ec2ed1e801b6a3633a05c561dc982aa3fb050b02f9393e8e8a1294dfe9b7ac"),
}


@pytest.mark.parametrize("name", list(WIDE_WINDOWS))
def test_wide_window_reports_keep_their_bytes(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    window, points, digest = WIDE_WINDOWS[name]
    Path("window.json").write_text(json.dumps(window))
    Path("points.json").write_text(json.dumps(points))
    assert main(["check-orth", "--in", "window.json", "--lattice", "points.json",
                 "--max-reports", "8", "--out", "orth.out.json"]) == 0
    assert hashlib.sha256(Path("orth.out.json").read_bytes()).hexdigest() == digest

"""CLI harness: commands, formats, determinism, exit codes."""

import functools
import json
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gonb
from gonb import cli
from gonb.cli import main
from gonb import (
    CertificateScanParams,
    ConeScanParams,
    apply_frame,
    build_certificate,
    normalize,
    stft_indicator,
)
from gonb.fourier import _ball_cone_constant
from gonb.io import certificate_to_dict, load_certificate, load_polytope, polytope_to_dict
from gonb.polytope import _translate_intersections

from conftest import make_pentagon, sphere_points


@pytest.fixture
def pentagon_file(tmp_path):
    path = tmp_path / "pentagon.json"
    path.write_text(json.dumps(
        {"dim": 2, "vertices": [[0, 0], [2, 0], [2, 2], [1, 2], [0, 1]]}))
    return str(path)


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps({
        "dim": 2,
        "halfspaces": [
            {"normal": [1, 0], "offset": 1}, {"normal": [-1, 0], "offset": 0},
            {"normal": [0, 1], "offset": 1}, {"normal": [0, -1], "offset": 0},
        ],
    }))
    return str(path)


@pytest.fixture
def lattice_file(tmp_path):
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps({
        "lattice": {"basis": np.eye(4).tolist(), "shift": [0, 0, 0, 0],
                    "box": {"lo": [-1, -1, -1, -1], "hi": [1, 1, 1, 1]}},
    }))
    return str(path)


def run(argv):
    return main(argv)


def test_symmetry_pentagon(pentagon_file, tmp_path):
    out = tmp_path / "sym.json"
    assert run(["symmetry", "--in", pentagon_file, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["symmetric"] is False
    assert data["margin"] == pytest.approx(1.0)
    vols = sorted([data["witness"]["facet_volume"], data["witness"]["parallel_volume"]])
    assert vols == pytest.approx([1.0, 2.0])


def test_intersect_pentagon_is_unit_square(pentagon_file, tmp_path):
    out = tmp_path / "q.json"
    assert run(["intersect", "--in", pentagon_file, "--t=-1,-1",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    Q = load_polytope(data)
    V = Q.vertex_array()
    expected = np.array([(0, 0), (1, 0), (0, 1), (1, 1)], dtype=float)
    assert V.shape == (4, 2)
    for v in expected:
        assert np.min(np.linalg.norm(V - v, axis=1)) <= 1e-9
    assert data["volume"] == pytest.approx(1.0)


def test_stft_square_unit_value(square_file, tmp_path):
    out = tmp_path / "stft.json"
    assert run(["stft", "--in", square_file, "--t", "0,0", "--lambda", "0,0",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["value"]["re"] == pytest.approx(1.0, abs=1e-12)
    assert data["value"]["im"] == pytest.approx(0.0, abs=1e-12)


def test_ft_with_quadrature(pentagon_file, tmp_path):
    out = tmp_path / "ft.json"
    assert run(["ft", "--in", pentagon_file, "--lambda", "1,0",
                "--quadrature", "400", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["value"]["im"] == pytest.approx(1 / (2 * np.pi), abs=1e-12)
    assert data["quadrature"]["im"] == pytest.approx(1 / (2 * np.pi), abs=1e-2)


def test_scan_deterministic_and_integer_zeros(square_file, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["scan", "--in", square_file, "--field", "stft_abs", "--t", "0,0",
            "--lambda-box=-3:3,-3:3", "--grid", "61"]
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = [ln for ln in out1.read_text().splitlines() if not ln.startswith("#")]
    header = rows[0].split(",")
    assert header == ["t_1", "t_2", "lambda_1", "lambda_2", "re", "im", "abs"]
    n_zero_rows = 0
    for ln in rows[1:]:
        cells = ln.split(",")
        lam = (float(cells[2]), float(cells[3]))
        if all(abs(x - round(x)) < 1e-12 for x in lam) and lam != (0.0, 0.0):
            assert float(cells[6]) < 1e-10
            n_zero_rows += 1
    assert n_zero_rows == 48  # 7*7 integer grid points minus the origin
    assert len(rows) - 1 == 61 * 61


def test_scan_gt_abs_matches_cone_constant(pentagon_file, tmp_path):
    cert_path = tmp_path / "cert.json"
    assert run(["certificate", "--in", pentagon_file, "--eps", "0.2",
                "--omega", "0.2", "--out", str(cert_path)]) == 0
    cert = load_certificate(str(cert_path))
    out = tmp_path / "gt.csv"
    assert run(["scan", "--in", pentagon_file, "--field", "gt_abs",
                "--certificate", str(cert_path), "--lambda1", "10:200",
                "--grid", "24", "--n-cross", "5", "--out", str(out)]) == 0
    rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][1:]
    sup = max(abs(float(c.split(",")[2])) * float(c.split(",")[6]) for c in rows)
    P = make_pentagon()
    zero = np.zeros((1, 2))
    bound = _ball_cone_constant(_translate_intersections(apply_frame(P, cert.frame), zero).families,
                                zero, cert.omega,
                                ConeScanParams(r0=10, r1=200, n_radial=24, n_cross=5))
    assert sup == pytest.approx(bound.value, rel=1e-12)


def test_scan_gt_abs_requires_certificate(pentagon_file, tmp_path):
    code = run(["scan", "--in", pentagon_file, "--field", "gt_abs",
                "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_scan_gt_abs_of_an_empty_translate_writes_zeros(pentagon_file, tmp_path):
    """At t = (5, 5) the pentagon's translate is empty: the gt_abs scan exits
    0 with a zero residual at each of its 4 x 3 frequencies, as a stft_abs
    scan there writes zeros."""
    cert = str(tmp_path / "cert.json")
    assert run(["certificate", "--in", pentagon_file, "--eps", "0.2", "--omega", "0.2",
                "--out", cert]) == 0
    out = tmp_path / "gt.csv"
    assert run(["scan", "--in", pentagon_file, "--field", "gt_abs", "--certificate", cert,
                "--t", "5,5", "--grid", "4", "--n-cross", "3", "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines() if not ln.startswith("#")][1:]
    assert len(rows) == 12 and all(float(c) == 0 for row in rows for c in row[-3:])


def test_certificate_of_another_window_exits_3(pentagon_file, square_file, lattice_file,
                                               tmp_path, capsys):
    """A gt_abs scan of the square with the pentagon's certificate is refused
    like find-violation with it (exit 3, CertificateMismatch), after the flag
    and region checks, which keep exit 2."""
    cert = str(tmp_path / "cert.json")
    assert run(["certificate", "--in", pentagon_file, "--eps", "0.2", "--omega", "0.2",
                "--out", cert]) == 0
    out = tmp_path / "o"
    for argv in (["scan", "--field", "gt_abs", "--grid", "4", "--n-cross", "3"],
                 ["find-violation", "--lattice", lattice_file]):
        capsys.readouterr()
        code = run(argv + ["--in", square_file, "--certificate", cert, "--out", str(out)])
        assert code == 3 and not out.exists()
        assert capsys.readouterr().err.startswith("CertificateMismatch")
    assert run(["scan", "--field", "gt_abs", "--n-cross", "0", "--in", square_file,
                "--certificate", cert, "--out", str(out)]) == 2
    assert "empty scan region" in capsys.readouterr().err


def test_scan_empty_region_is_parse_error(square_file, tmp_path):
    code = run(["scan", "--in", square_file, "--field", "ft",
                "--lambda-box=3:3,0:1", "--grid", "5",
                "--out", str(tmp_path / "x.csv")])
    assert code == 2


@pytest.mark.parametrize("box", ["nan:1,0:1", "0:inf,0:1", "0:1,-inf:0"])
def test_scan_rejects_non_finite_ranges(box, square_file, tmp_path, capsys):
    code = run(["scan", "--in", square_file, "--field", "ft", f"--lambda-box={box}",
                "--grid", "3", "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("ParseError") and "non-finite" in err


def test_exit_code_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["symmetry", "--in", str(bad)]) == 2


def test_exit_code_precondition(square_file, tmp_path):
    # symmetric window cannot carry a certificate
    code = run(["certificate", "--in", square_file, "--eps", "0.2",
                "--omega", "0.2", "--out", str(tmp_path / "c.json")])
    assert code == 3


def test_exit_code_scan_falsification(pentagon_file, tmp_path, capsys):
    """A frequency truncation below the region's entry radius falsifies the
    certificate scan: exit 4 with no traceback; a wider one builds it."""
    argv = ["certificate", "--in", pentagon_file, "--eps", "0.2", "--omega", "0.2",
            "--out", str(tmp_path / "c.json")]
    code = run(argv + ["--lambda-max", "0.5"])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("ScanFailure: region entry radius exceeds the frequency "
                          "truncation") and "Traceback" not in err
    assert run(argv + ["--lambda-max", "2"]) == 0


def test_exit_code_unbounded(tmp_path):
    path = tmp_path / "halfline.json"
    path.write_text(json.dumps({
        "dim": 1, "halfspaces": [{"normal": [1], "offset": 1}]}))
    assert run(["symmetry", "--in", str(path)]) == 3


@pytest.mark.parametrize("vertices", [[[0], [5e-9]], [[0, 0], [1, 0], [0, 5e-9]]],
                         ids=["1-d", "2-d"])
def test_flat_vertex_input_exits_3(vertices, tmp_path, capsys):
    """Vertex sets flat at the 1e-8 affine-rank tolerance are degenerate in
    every dimension, a 1-d segment of length 5e-9 as well."""
    path = _write(tmp_path, "flat.json", {"dim": len(vertices[0]), "vertices": vertices})
    code = run(["symmetry", "--in", path])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("DegeneratePolytope") and "Traceback" not in err


def test_check_orth_cli(square_file, lattice_file, tmp_path):
    out = tmp_path / "orth.json"
    assert run(["check-orth", "--in", square_file, "--lattice", lattice_file,
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["n_points"] == 81
    assert data["n_violations_reported"] == 0


def test_find_violation_cli(pentagon_file, tmp_path):
    cert_path = tmp_path / "cert.json"
    assert run(["certificate", "--in", pentagon_file, "--eps", "0.2",
                "--omega", "0.2", "--out", str(cert_path)]) == 0
    cert = load_certificate(str(cert_path))
    u1 = cert.frame.basis[:, 0]
    rows = [np.concatenate([[0.0, 0.0], k * 0.5 * u1]) for k in range(8)]
    lat_path = tmp_path / "axis.json"
    lat_path.write_text(json.dumps({"points": [list(map(float, r)) for r in rows]}))
    out = tmp_path / "viol.json"
    assert run(["find-violation", "--in", pentagon_file, "--lattice",
                str(lat_path), "--certificate", str(cert_path),
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["found"] is True
    assert data["value"]["abs"] > 0


def test_polytope_json_round_trip(pentagon_file):
    P = load_polytope(pentagon_file)
    again = load_polytope(polytope_to_dict(P))
    assert len(P.b) == len(again.b)
    for a1, c1, a2, c2 in zip(P.A, P.b, again.A, again.b):
        assert np.allclose(a1, a2, atol=0)
        assert c1 == c2


def test_check_orth_float_points_cli(pentagon_file, tmp_path):
    rng = np.random.default_rng(40)
    lat = tmp_path / "float.json"
    lat.write_text(json.dumps({"points": rng.uniform(-1.5, 1.5, (40, 4)).tolist()}))
    out = tmp_path / "orth.json"
    assert run(["check-orth", "--in", pentagon_file, "--lattice", str(lat),
                "--max-reports", "10", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["n_points"] == 40
    assert data["n_violations_reported"] == 10
    P = make_pentagon()
    for v in data["violations"]:
        w = np.array(v["v"]) - np.array(v["v_prime"])
        value = complex(v["value"]["re"], v["value"]["im"])
        assert abs(stft_indicator(P, w[:2], w[2:]) - value) <= 1e-10


@pytest.mark.parametrize("max_reports", ["0", "1"])
def test_check_orth_needs_a_report(max_reports, pentagon_file, tmp_path, capsys):
    """The sheared lattice violates on the pentagon: with no report allowed
    the command would print the orthogonal verdict, so 0 is refused."""
    shear = np.eye(4)
    shear[2, 0] = 0.5
    lat = _write(tmp_path, "l.json", {"lattice": {**_LATTICE_4D, "basis": shear.tolist()}})
    out = tmp_path / "o.json"
    code = run(["check-orth", "--in", pentagon_file, "--lattice", lat,
                "--max-reports", max_reports, "--out", str(out)])
    if max_reports == "0":
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert err.startswith("ParseError") and "--max-reports must be >= 1" in err
    else:
        assert code == 0 and json.loads(out.read_text())["n_violations_reported"] == 1


@pytest.mark.parametrize("gap", [1e-10, 4e-10, 6e-10])
def test_check_orth_point_resolution(gap, square_file, tmp_path, capsys):
    """Points 1e-9 apart or more give a pair; closer ones are refused, since
    their difference would have the all-zero key and never be evaluated."""
    lat = _write(tmp_path, "l.json", {"points": [[0, 0, 0, 0], [gap, 0, 0, 0]]})
    out = tmp_path / "o.json"
    code = run(["check-orth", "--in", square_file, "--lattice", lat, "--out", str(out)])
    if gap < 5e-10:
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ParseError") and "1e-9 resolution" in err
    else:
        assert code == 0
        data = json.loads(out.read_text())
        assert data["n_violations_reported"] == 1
        assert data["violations"][0]["value"]["abs"] == pytest.approx(1 - gap, abs=1e-12)


def test_scan_stft_abs_rows_equal_the_stft_command(pentagon_file, tmp_path):
    """The scan and ``gonb stft`` share one evaluator, so each row has the
    bits of the single-point value."""
    scan = tmp_path / "scan.csv"
    assert run(["scan", "--in", pentagon_file, "--field", "stft_abs", "--t=0.3,-0.2",
                "--lambda-box=-2:2,-2:2", "--grid", "21", "--out", str(scan)]) == 0
    rows = [ln.split(",") for ln in scan.read_text().splitlines()
            if not ln.startswith("#")][1:]
    assert len(rows) == 21 * 21
    out = tmp_path / "stft.json"
    for row in rows:
        assert run(["stft", "--in", pentagon_file, "--t=" + ",".join(row[:2]),
                    "--lambda=" + ",".join(row[2:4]), "--out", str(out)]) == 0
        value = json.loads(out.read_text())["value"]
        assert [value["re"], value["im"], value["abs"]] == [float(x) for x in row[4:7]]


_LATTICE_4D = {"basis": np.eye(4).tolist(),
               "box": {"lo": [-1, -1, -1, -1], "hi": [1, 1, 1, 1]}}


@pytest.mark.parametrize("spec, message", [
    ({"points": [[0, 0, 0, 0], [1, 0, 0, 0], ["NaN", 0, 0, 0]]}, "finite"),
    ({"points": [[0, 0, 0, 0], [1e300, 0, 0, 0]]}, "|x| <="),
    ({"lattice": {**_LATTICE_4D, "shift": [0, 0, 0, "Infinity"]}}, "finite"),
    ({"lattice": {**_LATTICE_4D, "box": {"lo": [-2e6] * 4, "hi": [1] * 4}}}, "|x| <="),
    ({"lattice": {"basis": [[1, 0, 0, 0], [0, 1, 0, 0]],
                  "box": {"lo": [-1] * 4, "hi": [1] * 4}}}, "square"),
    ({"lattice": {"basis": np.eye(3).tolist(),
                  "box": {"lo": [-1] * 3, "hi": [1] * 3}}}, "even"),
    ({"lattice": {"basis": np.eye(6).tolist(),
                  "box": {"lo": [-1] * 6, "hi": [1] * 6}}}, "dimension"),
])
def test_check_orth_rejects_bad_time_frequency_input(spec, message, square_file,
                                                     tmp_path, capsys):
    lat = tmp_path / "bad.json"
    # NaN and Infinity are written as bare JSON tokens
    lat.write_text(json.dumps(spec).replace('"NaN"', "NaN").replace('"Infinity"', "Infinity"))
    code = run(["check-orth", "--in", square_file, "--lattice", str(lat),
                "--out", str(tmp_path / "o.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("ParseError") and message in err
    assert "Traceback" not in err


def test_find_violation_rejects_lattice_of_other_dimension(pentagon_file, tmp_path,
                                                           capsys):
    lat = tmp_path / "six.json"
    lat.write_text(json.dumps({"lattice": {"basis": np.eye(6).tolist(),
                                           "box": {"lo": [-1] * 6, "hi": [1] * 6}}}))
    code = run(["find-violation", "--in", pentagon_file, "--lattice", str(lat),
                "--certificate", str(tmp_path / "unused.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "dimension 3, the window 2" in err


@pytest.mark.parametrize("argv", [
    ["ft", "--lambda", "nan,0"],
    ["ft", "--lambda", "inf,0"],
    ["ft", "--lambda", "1,2,3"],
    ["ft", "--lambda", "1"],
    ["stft", "--t", "0,0", "--lambda", "0,-inf"],
    ["stft", "--t", "0,0,0", "--lambda", "0,0"],
    ["intersect", "--t", "nan,1"],
    ["scan", "--field", "ft", "--t", "0", "--lambda-box=-1:1,-1:1", "--grid", "3"],
])
def test_vector_flags_validated(argv, square_file, tmp_path, capsys):
    code = run(argv + ["--in", square_file, "--out", str(tmp_path / "o.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("ParseError: vector")


_SQUARE_HALFSPACES = [{"normal": [1, 0], "offset": 1}, {"normal": [-1, 0], "offset": 0},
                      {"normal": [0, 1], "offset": 1}]


@pytest.mark.parametrize("poly, message", [
    ({"dim": 2, "halfspaces": _SQUARE_HALFSPACES + [{"normal": [0, -1], "offset": "NaN"}]},
     "finite"),
    ({"dim": 2, "halfspaces": _SQUARE_HALFSPACES + [{"normal": ["NaN", -1], "offset": 0}]},
     "finite"),
    ({"dim": 2, "vertices": [[0, 0], [1, 0], ["Infinity", 1]]}, "finite"),
    ({"dim": 2, "halfspaces": _SQUARE_HALFSPACES + [{"normal": [0, -1, 0], "offset": 0}]},
     "2 entries"),
])
def test_polytope_json_rejects_bad_numbers(poly, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    # NaN and Infinity are written as bare JSON tokens
    path.write_text(json.dumps(poly).replace('"NaN"', "NaN").replace('"Infinity"', "Infinity"))
    code = run(["symmetry", "--in", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("ParseError") and message in err
    assert "Traceback" not in err


_PENTAGON_HALFSPACES = {"dim": 2, "halfspaces": [
    {"normal": [0, -1], "offset": 0}, {"normal": [1, 0], "offset": 2},
    {"normal": [0, 1], "offset": 2}, {"normal": [-1, 1], "offset": 1},
    {"normal": [-1, 0], "offset": 0}]}


def test_cold_path_never_imports_scipy(tmp_path, pentagon_file):
    """Importing the CLI, loading a half-space window, building its
    certificate and loading the same window as vertex input leave scipy
    unloaded."""
    window = tmp_path / "pentagon_h.json"
    window.write_text(json.dumps(_PENTAGON_HALFSPACES))
    code = textwrap.dedent("""
        import sys
        from gonb import cli, io
        io.load_polytope(sys.argv[1])
        code = cli.main(["certificate", "--in", sys.argv[1], "--eps", "0.2",
                         "--omega", "0.2", "--out", sys.argv[2]])
        code += cli.main(["symmetry", "--in", sys.argv[3]])
        print(code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    src = str(Path(gonb.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, str(window), str(tmp_path / "c.json"),
                           pentagon_file], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 []"


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("poly, message", [
    ({"dim": 2, "halfspaces": _SQUARE_HALFSPACES + [{"normal": [0, 0], "offset": 1}]},
     "norm above"),
    ({"dim": 2, "halfspaces": _SQUARE_HALFSPACES + [{"normal": [1e308, 0], "offset": 1}]},
     "|x| <="),
    ({"dim": 2, "halfspaces": _SQUARE_HALFSPACES + [{"normal": [0, -1], "offset": 1e7}]},
     "|x| <="),
    ({"dim": 2, "vertices": [[0, 0], [1e308, 0], [0, 1]]}, "|x| <="),
    ({"dim": 5, "vertices": np.vstack([np.zeros(5), np.eye(5)]).tolist()}, "dim <= 4"),
    ({"dim": 8, "halfspaces": [{"normal": list(row), "offset": 1}
                               for row in np.vstack([np.eye(8), -np.eye(8)] * 2)]},
     "vertex candidates"),
    ({**_PENTAGON_HALFSPACES, "dim": 2.5}, "integer 'dim'"),
    ({**_PENTAGON_HALFSPACES, "dim": True}, "integer 'dim'"),
    ({**_PENTAGON_HALFSPACES, "dim": "2"}, "integer 'dim'"),
    ({"dim": 5, "halfspaces": [{"normal": list(row), "offset": 1}
                               for row in np.vstack([np.eye(5), -np.eye(5)])]},
     "dim <= 4"),
])
def test_polytope_json_contract(poly, message, tmp_path, capsys):
    code = run(["symmetry", "--in", _write(tmp_path, "p.json", poly)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("ParseError") and message in err


def test_vertex_input_is_accepted_up_to_dim_4(tmp_path, capsys):
    """The 4-simplex as vertex input loads like its half-spaces."""
    simplex = {"dim": 4, "vertices": np.vstack([np.zeros(4), np.eye(4)]).tolist()}
    halfspaces = {"dim": 4, "halfspaces": [{"normal": list(-row), "offset": 0} for row in np.eye(4)]
                  + [{"normal": [1, 1, 1, 1], "offset": 1}]}
    outs = []
    for name, poly in (("v.json", simplex), ("h.json", halfspaces)):
        assert run(["symmetry", "--in", _write(tmp_path, name, poly)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv, message", [
    (["ft", "--lambda", "1,0", "--quadrature", "1"], "--quadrature"),
    (["ft", "--lambda", "1,0", "--quadrature", "2000000"], "--quadrature rows"),
    (["ft", "--lambda", "1e308,0"], "|x| <="),
    (["stft", "--t", "0,0", "--lambda", "2e6,0"], "|x| <="),
    (["certificate", "--eps", "0", "--omega", "0.2"], "--eps"),
    (["certificate", "--eps", "0.2", "--omega", "nan"], "--omega"),
    (["certificate", "--eps", "0.2", "--omega", "1e-300"], "--omega"),
    (["certificate", "--eps", "0.2", "--omega", "0.2", "--lambda-max", "0"], "--lambda-max"),
    (["scan", "--field", "ft", "--lambda-box=-1e308:1,0:1", "--grid", "3"], "|x| <="),
    (["intersect", "--t=--"], "may not be '--'"),
    (["scan", "--field", "ft", "--lambda-box=-1:1,0:1", "--grid=--"], "may not be '--'"),
    (["symmetry", "--tol", "nan"], "--tol must be finite"),
    (["symmetry", "--tol", "inf"], "--tol must be finite"),
    (["symmetry", "--tol=-1e-9"], "--tol must be finite"),
    # checked before the (here absent) lattice file is read
    (["check-orth", "--lattice", "absent.json", "--tol-zero", "nan"], "--tol-zero"),
    (["check-orth", "--lattice", "absent.json", "--tol-zero", "inf"], "--tol-zero"),
    (["check-orth", "--lattice", "absent.json", "--tol-zero", "0"], "--tol-zero"),
    (["check-orth", "--lattice", "absent.json", "--tol-zero", "1"], "--tol-zero"),
    (["check-orth", "--lattice", "absent.json", "--max-reports", "-1"], "--max-reports"),
    # checked before the (here absent) certificate is read
    (["scan", "--field", "gt_abs", "--lambda1", "10:200,1:2", "--certificate", "absent.json"],
     "--lambda1 needs 1 range lo:hi, got 2"),
])
def test_flag_contract(argv, message, square_file, tmp_path, capsys):
    code = run(argv + ["--in", square_file, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("spec, message", [
    ({"points": [[0, 0, 1, 0], [0, 0, 1, 0]]}, "duplicate"),
    ({"lattice": {**_LATTICE_4D, "basis": np.diag([1.0, 1.0, 0.0, 1.0]).tolist()}},
     "invertible"),
])
def test_time_frequency_contract(spec, message, square_file, tmp_path, capsys):
    code = run(["check-orth", "--in", square_file, "--lattice",
                _write(tmp_path, "l.json", spec), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("ParseError") and message in err


@pytest.mark.parametrize("field, value, message", [
    ("R", 0.0, "R > 0"),
    ("eta", float("nan"), "finite"),
    ("frame", {"origin": [0, 0, 0], "basis": np.eye(3).tolist(), "scale": 1.0},
     "dimension 3, the window 2"),
    ("frame", {"origin": [0, 0], "basis": np.eye(2).tolist(), "scale": -1.0}, "scale"),
    ("frame", {"origin": [0, 0], "basis": np.eye(2).tolist(), "scale": 5e-324}, "scale"),
    ("frame", {"origin": [-1e308, 0], "basis": np.eye(2).tolist(), "scale": 1.0}, "|x| <="),
    ("omega", 1e7, "omega"),
    # fields are read without conversion
    ("provenance.n_scan_points", 12240.9, "n_scan_points must be of type int, got 12240.9"),
    ("provenance.n_t", True, "n_t must be of type int, got True"),
    ("min_abs_scanned", "0.5", "min_abs_scanned must be of type float, got '0.5'"),
    ("provenance.window_hash", 12, "window_hash must be of type str, got 12"),
    # array fields read nested lists of finite numbers, of the frame's dimension
    ("provenance.cone.arg_t", ["0.1", "-0.2"], "arg_t must be nested lists of finite numbers"),
    ("provenance.cone.arg_t", [True, False], "arg_t must be nested lists of finite numbers"),
    ("provenance.cone.arg_lam", None, "arg_lam must be nested lists of finite numbers"),
    ("provenance.min_abs_point.t", "nan", "t must be nested lists of finite numbers"),
    ("provenance.min_abs_point.lam", "1e400", "lam must be nested lists of finite numbers"),
    ("provenance.min_abs_point.lam", None, "lam must be nested lists of finite numbers"),
    ("provenance.cone.arg_t", [[[1.0]]], "cone.arg_t needs the frame's 2 entries"),
    ("provenance.min_abs_point.t", [0.0], "min_abs_point.t needs the frame's 2 entries"),
])
def test_certificate_contract(field, value, message, tmp_path, capsys):
    window = _write(tmp_path, "p.json", _PENTAGON_HALFSPACES)
    cert_path = tmp_path / "cert.json"
    assert run(["certificate", "--in", window, "--eps", "0.2", "--omega", "0.2",
                "--out", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    *path, key = field.split(".")
    functools.reduce(dict.__getitem__, path, cert)[key] = value
    bad = _write(tmp_path, "bad.json", cert)
    # the string "1e400" stands for that JSON number, beyond the float range
    Path(bad).write_text(Path(bad).read_text().replace('"1e400"', "1e400"))
    for argv in (["scan", "--field", "gt_abs", "--certificate", bad],
                 ["find-violation", "--lattice", _write(tmp_path, "l.json", {"points": [[0] * 4]}),
                  "--certificate", bad]):
        code = run(argv + ["--in", window, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("ParseError") and message in err


def test_certificate_int_field_takes_an_integral_float(tmp_path):
    """An int field reads an integral float as an int, as a polytope's dim
    does: n_t 17.0 loads as 17."""
    window = _write(tmp_path, "p.json", _PENTAGON_HALFSPACES)
    cert_path = tmp_path / "cert.json"
    assert run(["certificate", "--in", window, "--eps", "0.2", "--omega", "0.2",
                "--out", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    cert["provenance"]["n_t"] = 17.0
    n_t = load_certificate(_write(tmp_path, "c.json", cert)).provenance.n_t
    assert type(n_t) is int and n_t == 17


@pytest.mark.parametrize("argv", [
    ["scan", "--field", "gt_abs", "--n-cross", "0"],
    ["scan", "--field", "gt_abs", "--lambda1", "0:10"],
])
def test_empty_gt_abs_region(argv, tmp_path, capsys):
    window = _write(tmp_path, "p.json", _PENTAGON_HALFSPACES)
    cert_path = tmp_path / "cert.json"
    assert run(["certificate", "--in", window, "--eps", "0.2", "--omega", "0.2",
                "--out", str(cert_path)]) == 0
    code = run(argv + ["--in", window, "--certificate", str(cert_path),
                       "--out", str(tmp_path / "o")])
    assert code == 2
    assert "empty scan region" in capsys.readouterr().err


def test_certificate_cone_holding_a_g_normal_exits_3(tmp_path, capsys):
    """omega 2 puts the pentagon's framed slant normal inside the cone."""
    window = _write(tmp_path, "p.json", _PENTAGON_HALFSPACES)
    code = run(["certificate", "--in", window, "--eps", "0.2", "--omega", "2",
                "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("ConeTooWide") and "omega_max = 1.0" in err


def _cut_box_files(tmp_path, d):
    """The unit d-cube cut by x_1 + x_2 <= 1.5 (a pentagon in 2-d) and its
    certificate at tiny grids (eps 0.1, omega 0.2), as files."""
    box = [(tuple(s * e), 1.0 if s > 0 else 0.0) for e in np.eye(d) for s in (1, -1)]
    P = normalize(box + [((1.0, 1.0) + (0.0,) * (d - 2), 1.5)], d)
    cert = build_certificate(P, 0.1, 0.2, CertificateScanParams(
        n_lambda1=4, n_cross=3, n_t_angles=2, n_t_radii=1, cone_n_radial=4, cone_n_cross=2))
    return (_write(tmp_path, f"w{d}.json", polytope_to_dict(P)),
            _write(tmp_path, f"c{d}.json", certificate_to_dict(cert)))


# cone grid rows per lam_1: n_cross in 2-d, 2 k + 1 in 3-d and 4-d, with the
# k = n_cross ball_grid directions in 3-d and k = n (n - 2) + 2 in 4-d (1 for n = 1)
@pytest.mark.parametrize("d, n_cross, rows", [
    (2, 5, 5), (3, 1, 3), (3, 16, 33), (4, 1, 3), (4, 3, 11), (4, 6, 53),
])
def test_gt_abs_size_bound_counts_the_built_grid(d, n_cross, rows, tmp_path, capsys,
                                                 monkeypatch):
    """A gt_abs scan of --grid 3 is admitted exactly when its 3 x rows built
    frequencies fit MAX_SCAN_POINTS."""
    window, cert = _cut_box_files(tmp_path, d)
    argv = ["scan", "--in", window, "--field", "gt_abs", "--certificate", cert,
            "--grid", "3", "--n-cross", str(n_cross), "--out", str(tmp_path / "gt.csv")]
    monkeypatch.setattr(cli, "MAX_SCAN_POINTS", 3 * rows - 1)
    assert run(argv) == 2
    assert f"--grid with --n-cross gives {3 * rows} points" in capsys.readouterr().err
    monkeypatch.setattr(cli, "MAX_SCAN_POINTS", 3 * rows)
    assert run(argv) == 0
    lines = (tmp_path / "gt.csv").read_text().splitlines()
    assert len([ln for ln in lines if not ln.startswith("#")]) == 1 + 3 * rows


def test_gt_abs_direction_walk_bounded_before_it_runs(tmp_path, capsys):
    """A 4-d gt_abs scan with --grid 2 and --n-cross 700 (977,205 cross-section
    rows) or 2000 is refused before any ball_grid direction of its cross
    section is built: the rows are counted (ConeScanParams.cross_rows)."""
    window, cert = _cut_box_files(tmp_path, 4)
    for n_cross in (700, 2000):
        _traced_refusal(["scan", "--in", window, "--field", "gt_abs", "--certificate", cert,
                         "--grid", "2", "--n-cross", str(n_cross), "--out", str(tmp_path / "o")],
                        capsys)


def _oversize_inputs(tmp_path):
    rng = np.random.default_rng(0)
    huge_box = {"lattice": {"basis": np.eye(4).tolist(),
                            "box": {"lo": [-1e6] * 4, "hi": [1e6] * 4}}}
    return [
        # 2,401 float points: 2.88M distinct differences
        (["check-orth", "--lattice",
          _write(tmp_path, "float.json", {"points": rng.uniform(-3, 3, (2401, 4)).tolist()})],
         "key tables"),
        (["check-orth", "--lattice", _write(tmp_path, "box.json", huge_box)], "candidate"),
        (["scan", "--field", "ft", "--lambda-box=-1:1,-1:1", "--grid", "100000"], "--grid"),
    ]


def test_oversize_inputs_exit_2_without_allocating(square_file, tmp_path, capsys):
    for argv, message in _oversize_inputs(tmp_path):
        tracemalloc.start()
        try:
            code = run(argv + ["--in", square_file, "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("ParseError") and message in err
        assert peak < 16 * 2 ** 20, f"{argv[0]} traced {peak} bytes before refusing"


def _traced_refusal(argv, capsys, mb=16):
    """Run argv under tracemalloc, check that it exits 2 with a ParseError
    inside mb MB traced and 2.0 s, and return its stderr."""
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        code = run(argv)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("ParseError") and "Traceback" not in err
    assert peak < mb * 2 ** 20, f"traced {peak} bytes before refusing"
    assert elapsed < 2.0, f"{elapsed:.2f} s"
    return err


def test_vertex_input_hull_bounded_before_allocating(tmp_path, capsys):
    """The hull of 60 sphere points has 116 facet planes: C(116, 3) =
    253,460 vertex systems are refused with exit 2 before they are set up
    (unbounded, the load took 1.4 s and 361 MB); 39 points (74 planes,
    C(74, 3) = 64,824 systems) still load. 363 distinct circle points give
    C(363, 2) = 65,703 hull candidates and are refused before any hull
    plane is built."""
    def sphere_file(n):
        return _write(tmp_path, f"sphere{n}.json",
                      {"dim": 3, "vertices": sphere_points(n).tolist()})

    err = _traced_refusal(["symmetry", "--in", sphere_file(60)], capsys)
    assert "116 distinct halfspaces" in err
    assert run(["symmetry", "--in", sphere_file(39)]) == 0
    ang = 2 * np.pi * np.arange(363) / 363
    circle = _write(tmp_path, "circle.json",
                    {"dim": 2, "vertices": np.column_stack([np.cos(ang), np.sin(ang)]).tolist()})
    err = _traced_refusal(["symmetry", "--in", circle], capsys)
    assert "363 distinct points" in err


def test_4d_vertex_input_hull_bounded_before_allocating(tmp_path, capsys):
    """On S^3, 11 random points (33 hull planes, C(33, 4) = 40,920 vertex
    systems) load; 36 points give 165 planes, whose C(165, 4) = 2.97e7
    vertex systems are refused with exit 2 after the C(36, 4) = 58,905 hull
    candidates (measured on a 2-core VM: 0.47 s and 19.1 MB traced, so the
    gate is 32 MB and 2.0 s), and 37 points give
    66,045 hull candidates and are refused before any hull plane is built."""
    def sphere_file(n):
        pts = np.random.default_rng(0).normal(size=(n, 4))
        return _write(tmp_path, f"s3_{n}.json",
                      {"dim": 4, "vertices": (pts / np.linalg.norm(pts, axis=1)[:, None]).tolist()})

    assert run(["symmetry", "--in", sphere_file(11)]) == 0
    err = _traced_refusal(["symmetry", "--in", sphere_file(36)], capsys, mb=32)
    assert "165 distinct halfspaces" in err
    err = _traced_refusal(["symmetry", "--in", sphere_file(37)], capsys)
    assert "37 distinct points" in err


def test_unexpected_value_error_is_not_a_precondition_failure(square_file, monkeypatch):
    """A ValueError the input contract does not foresee is a bug: it
    propagates instead of exiting 3."""
    def broken(*_args, **_kwargs):
        raise ValueError("bug")

    monkeypatch.setattr("gonb.cli.is_symmetric", broken)
    with pytest.raises(ValueError, match="bug"):
        run(["symmetry", "--in", square_file])

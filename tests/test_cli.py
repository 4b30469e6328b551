"""CLI harness: commands, formats, determinism, exit codes."""

import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gonb
from gonb.cli import main
from gonb import cone_constant, ConeScanParams, stft_indicator
from gonb.io import load_certificate, load_polytope, polytope_to_dict

from conftest import make_pentagon


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
    bound = cone_constant(P, cert.frame, cert.omega,
                          ConeScanParams(r0=10, r1=200, n_radial=24, n_cross=5))
    assert sup == pytest.approx(bound.value, rel=1e-12)


def test_scan_gt_abs_requires_certificate(pentagon_file, tmp_path):
    code = run(["scan", "--in", pentagon_file, "--field", "gt_abs",
                "--out", str(tmp_path / "x.csv")])
    assert code == 2


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


def test_exit_code_unbounded(tmp_path):
    path = tmp_path / "halfline.json"
    path.write_text(json.dumps({
        "dim": 1, "halfspaces": [{"normal": [1], "offset": 1}]}))
    assert run(["symmetry", "--in", str(path)]) == 3


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


def test_cold_path_never_imports_scipy(tmp_path):
    """Importing the CLI, loading a half-space window and building its
    certificate leave scipy unloaded; only vertex input needs ConvexHull."""
    window = tmp_path / "pentagon.json"
    window.write_text(json.dumps(_PENTAGON_HALFSPACES))
    code = textwrap.dedent("""
        import sys
        from gonb import cli, io
        io.load_polytope(sys.argv[1])
        code = cli.main(["certificate", "--in", sys.argv[1], "--eps", "0.2",
                         "--omega", "0.2", "--out", sys.argv[2]])
        print(code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    src = str(Path(gonb.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, str(window), str(tmp_path / "c.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


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
    ({"dim": 4, "vertices": np.vstack([np.zeros(4), np.eye(4)]).tolist()}, "dim <= 3"),
    ({"dim": 8, "halfspaces": [{"normal": list(row), "offset": 1}
                               for row in np.vstack([np.eye(8), -np.eye(8)] * 2)]},
     "vertex candidates"),
    ({**_PENTAGON_HALFSPACES, "dim": 2.5}, "integer 'dim'"),
    ({**_PENTAGON_HALFSPACES, "dim": True}, "integer 'dim'"),
    ({**_PENTAGON_HALFSPACES, "dim": "2"}, "integer 'dim'"),
])
def test_polytope_json_contract(poly, message, tmp_path, capsys):
    code = run(["symmetry", "--in", _write(tmp_path, "p.json", poly)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("ParseError") and message in err


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
])
def test_certificate_contract(field, value, message, tmp_path, capsys):
    window = _write(tmp_path, "p.json", _PENTAGON_HALFSPACES)
    cert_path = tmp_path / "cert.json"
    assert run(["certificate", "--in", window, "--eps", "0.2", "--omega", "0.2",
                "--out", str(cert_path)]) == 0
    cert = json.loads(cert_path.read_text())
    cert[field] = value
    bad = _write(tmp_path, "bad.json", cert)
    for argv in (["scan", "--field", "gt_abs", "--certificate", bad],
                 ["find-violation", "--lattice", _write(tmp_path, "l.json", {"points": [[0] * 4]}),
                  "--certificate", bad]):
        code = run(argv + ["--in", window, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("ParseError") and message in err


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


def test_unexpected_value_error_is_not_a_precondition_failure(square_file, monkeypatch):
    """A ValueError the input contract does not foresee is a bug: it
    propagates instead of exiting 3."""
    def broken(*_args, **_kwargs):
        raise ValueError("bug")

    monkeypatch.setattr("gonb.cli.is_symmetric", broken)
    with pytest.raises(ValueError, match="bug"):
        run(["symmetry", "--in", square_file])

"""Fuzzed CLI input: every run ends in a documented exit code, never a traceback."""

import contextlib
import io
import json

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from gonb.cli import main

# numbers and the junk that JSON can put where a number belongs
NUMBER = st.one_of(
    st.integers(-3, 3),
    st.floats(-3, 3),
    st.sampled_from([0.0, 1e-300, 1e-12, 1e7, -1e308, float("nan"), float("inf")]),
)
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.just([]), st.just({}))
VALUE = st.one_of(NUMBER, NUMBER, JUNK)
VECTOR = st.one_of(st.lists(VALUE, max_size=5), VALUE)
MATRIX = st.one_of(st.lists(VECTOR, max_size=5), VALUE)

HALFSPACE = st.one_of(st.fixed_dictionaries({"normal": VECTOR, "offset": VALUE}), VALUE)
# well-formed numbers in the right shapes: bounded, unbounded, empty and flat windows
POLYGON = st.fixed_dictionaries({"dim": st.just(2), "halfspaces": st.lists(
    st.fixed_dictionaries({"normal": st.lists(NUMBER, min_size=2, max_size=2),
                           "offset": NUMBER}), min_size=1, max_size=7)})
POINT_HULL = st.integers(1, 3).flatmap(lambda d: st.fixed_dictionaries({
    "dim": st.just(d),
    "vertices": st.lists(st.lists(NUMBER, min_size=d, max_size=d), min_size=1, max_size=6)}))
POLYTOPE = st.one_of(
    POLYGON,
    POINT_HULL,
    st.fixed_dictionaries({"dim": st.one_of(st.integers(-1, 5), VALUE),
                           "halfspaces": st.one_of(st.lists(HALFSPACE, max_size=8), VALUE)}),
    st.fixed_dictionaries({"dim": st.one_of(st.integers(-1, 5), VALUE), "vertices": MATRIX}),
    VALUE,
)
BOX = st.one_of(st.fixed_dictionaries({"lo": VECTOR, "hi": VECTOR}), VALUE)
TF_SET = st.one_of(
    st.fixed_dictionaries({"points": MATRIX}),
    st.fixed_dictionaries({"lattice": st.one_of(
        st.fixed_dictionaries({"basis": MATRIX, "box": BOX},
                              optional={"shift": VECTOR}),
        VALUE)}),
    VALUE,
)

TOKEN = st.one_of(
    st.sampled_from(["1,0", "0,0", "0.5,-0.25", "1", "1,2,3", "nan,0", "inf,0", "1e308,0",
                     "-1:1,-1:1", "10:200", "0:10", "1:1e300", "a:b", "", ",", "0", "-1",
                     "2", "3", "0.2", "1e-300", "1e9", "nan"]),
    # at most two characters, so that a well-formed --grid or --quadrature stays small
    st.text(alphabet="0123456789.,:-einaf", max_size=2),
)
FLAGS = {
    "symmetry": ["--tol"],
    "intersect": ["--t"],
    "ft": ["--lambda", "--quadrature"],
    "stft": ["--t", "--lambda"],
    "certificate": ["--eps", "--omega", "--lambda-max"],
    "check-orth": ["--tol-zero", "--max-reports"],
    "find-violation": [],
    "scan": ["--field", "--t", "--lambda-box", "--lambda1", "--grid", "--n-cross"],
}

PENTAGON = {"dim": 2, "halfspaces": [
    {"normal": [0, -1], "offset": 0}, {"normal": [1, 0], "offset": 2},
    {"normal": [0, 1], "offset": 2}, {"normal": [-1, 1], "offset": 1},
    {"normal": [-1, 0], "offset": 0}]}
LATTICE = {"lattice": {"basis": np.eye(4).tolist(), "box": {"lo": [-1] * 4, "hi": [1] * 4}}}


def _dump(path, obj) -> str:
    # NaN and Infinity are written as the bare tokens Python's json accepts
    path.write_text(json.dumps(obj))
    return str(path)


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _certificate(workdir) -> dict:
    path = workdir / "cert.json"
    if not path.exists():
        code, err = _run(["certificate", "--in", _dump(workdir / "pentagon.json", PENTAGON),
                          "--eps", "0.2", "--omega", "0.2", "--out", str(path)])
        assert code == 0, err
    return json.loads(path.read_text())


def _mutated(cert: dict, path: list, value) -> dict:
    """The certificate with the entry at ``path`` (as far as it exists) replaced."""
    cert = json.loads(json.dumps(cert))
    node = cert
    for key in path[:-1]:
        if not isinstance(node.get(key), dict):
            break
        node = node[key]
    node[path[-1]] = value
    return cert


CERT_PATHS = st.sampled_from([["eps"], ["delta"], ["R"], ["omega"], ["eta"], ["C"],
                              ["min_abs_scanned"], ["frame"], ["frame", "origin"],
                              ["frame", "basis"], ["frame", "scale"], ["provenance"],
                              ["provenance", "window_hash"], ["provenance", "cone"],
                              ["provenance", "min_abs_point"]])

SETTINGS = settings(max_examples=60, deadline=5000, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _assert_documented(code, err):
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err


@SETTINGS
@given(poly=POLYTOPE, command=st.sampled_from(["symmetry", "intersect", "ft", "stft"]),
       flags=st.lists(TOKEN, min_size=2, max_size=2))
def test_fuzzed_polytope_json(tmp_path_factory, poly, command, flags):
    workdir = tmp_path_factory.getbasetemp()
    argv = [command, "--in", _dump(workdir / "fuzz-poly.json", poly),
            "--out", str(workdir / "fuzz.out")]
    argv += [f"{flag}={value}" for flag, value in zip(FLAGS[command], flags)]
    _assert_documented(*_run(argv))


@SETTINGS
@given(tf=TF_SET, command=st.sampled_from(["check-orth", "find-violation"]))
def test_fuzzed_time_frequency_json(tmp_path_factory, tf, command):
    workdir = tmp_path_factory.getbasetemp()
    argv = [command, "--in", _dump(workdir / "fuzz-pentagon.json", PENTAGON),
            "--lattice", _dump(workdir / "fuzz-tf.json", tf),
            "--out", str(workdir / "fuzz.out")]
    if command == "find-violation":
        argv += ["--certificate", _dump(workdir / "fuzz-cert.json", _certificate(workdir))]
    _assert_documented(*_run(argv))


@SETTINGS
@given(path=CERT_PATHS, value=st.one_of(VALUE, VECTOR, MATRIX),
       command=st.sampled_from(["scan", "find-violation"]))
def test_fuzzed_certificate_json(tmp_path_factory, path, value, command):
    workdir = tmp_path_factory.getbasetemp()
    cert = _dump(workdir / "fuzz-cert.json", _mutated(_certificate(workdir), path, value))
    argv = [command, "--in", _dump(workdir / "fuzz-pentagon.json", PENTAGON),
            "--certificate", cert, "--out", str(workdir / "fuzz.out")]
    argv += (["--field", "gt_abs", "--grid", "4", "--n-cross", "3"] if command == "scan"
             else ["--lattice", _dump(workdir / "fuzz-lattice.json", LATTICE)])
    _assert_documented(*_run(argv))


@SETTINGS
@given(command=st.sampled_from(sorted(FLAGS)), data=st.data())
def test_fuzzed_flags(tmp_path_factory, command, data):
    workdir = tmp_path_factory.getbasetemp()
    flags = data.draw(st.lists(st.sampled_from(FLAGS[command]), unique=True)
                      if FLAGS[command] else st.just([]))
    argv = [command, "--in", _dump(workdir / "fuzz-pentagon.json", PENTAGON),
            "--out", str(workdir / "fuzz.out")]
    for flag in flags:
        value = data.draw(st.sampled_from(["ft", "stft_abs", "gt_abs"]) if flag == "--field"
                          else TOKEN)
        argv.append(f"{flag}={value}")
    if command in ("check-orth", "find-violation"):
        argv += ["--lattice", _dump(workdir / "fuzz-lattice.json", LATTICE)]
    if command == "find-violation" or (command == "scan" and data.draw(st.booleans())):
        argv += ["--certificate", _dump(workdir / "fuzz-cert.json", _certificate(workdir))]
    _assert_documented(*_run(argv))

"""The three gonb workloads: seeded inputs, CLI steps, output checks, and the
input properties a traced run reports.

Seed 0 writes exactly the acceptance-suite inputs (criteria 5, 6 and 7).
Other seeds translate the square window together with its lattice (lattice
shift and box move by the same vector), which leaves every point count,
every difference vector and every verdict unchanged, and move the pentagon's
cut corner on a grid where every step of every workload succeeds.

Tolerances come from ``tests/test_acceptance.py``:

* ``STFT_TOL``: STFT magnitudes and values, absolute (criterion 8, |V| <= 1);
* ``EXACT_TOL``: other exact-transform values, |a - b| <= tol * max(1, |a|, |b|)
  (criterion 3, the divergence identity);
* ``SLACK_TOL`` and ``MIN_SCAN_POINTS``: the certificate inequalities
  (criterion 5).

Integers, flags and verdicts must match exactly.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import gonb
from gonb import io as gio

TOL_ZERO = 1e-9
STFT_TOL = 1e-10
EXACT_TOL = 1e-9
SLACK_TOL = 1e-12
MIN_SCAN_POINTS = 10_000

SHEAR = np.eye(4)
SHEAR[2, 0] = 0.5
SCALE = np.diag([2.0, 1.0, 0.5, 1.0])  # det 1: unit density
CUTS = np.arange(6, 11) / 8  # cut-corner positions 0.75 .. 1.25 for seeds != 0
SCAN_GRID = 48
SCAN_CROSS = 16  # the CLI default --n-cross

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
# keys whose float values are STFT magnitudes; other floats use EXACT_TOL
_STFT_KEYS = {"abs", "min_abs_scanned", "min_chain_slack"}


class Checks:
    """Counts checks attempted and keeps the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def compare(self, name: str, got, ref) -> None:
        """One check per scalar or (nested) list of a reference fingerprint."""
        if isinstance(ref, dict):
            if not isinstance(got, dict) or set(got) != set(ref):
                self.add(name, False, "keys differ")
                return
            for key in ref:
                self.compare(f"{name}.{key}", got[key], ref[key])
        elif isinstance(ref, list):
            g, r = _flat(got), _flat(ref)
            if g is None or len(g) != len(r):
                self.add(name, False, "shape differs")
                return
            bad = [i for i, (a, b) in enumerate(zip(g, r)) if not _close(name, a, b)]
            self.add(name, not bad, f"entries {bad[:5]} differ")
        else:
            self.add(name, _close(name, got, ref), f"{got!r} != {ref!r}")


def _flat(x):
    """Scalars of a nested list in order, or None when x is not a list."""
    if not isinstance(x, list):
        return None
    out = []
    for item in x:
        out.extend(_flat(item) if isinstance(item, list) else [item])
    return out


def _close(name: str, got, ref) -> bool:
    if isinstance(ref, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        if name.rsplit(".", 1)[-1] in _STFT_KEYS:
            return abs(got - ref) <= STFT_TOL
        return abs(got - ref) <= EXACT_TOL * max(1.0, abs(got), abs(ref))
    return type(got) is type(ref) and got == ref


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def seed_params(seed: int) -> dict:
    """Lattice translation (multiples of 1/256, so sums stay exact) and the
    pentagon cut corner: the edge from (cut[0], 2) to (0, cut[1])."""
    if seed == 0:
        return {"shift": [0.0] * 4, "cut": [1.0, 1.0]}
    rng = np.random.default_rng(seed)
    shift = rng.integers(-128, 129, 4) / 256
    cut = rng.choice(CUTS, 2)
    return {"shift": shift.tolist(), "cut": cut.tolist()}


def square_json(shift) -> dict:
    s1, s2 = (float(x) for x in shift[:2])
    return {"dim": 2, "halfspaces": [
        {"normal": [1, 0], "offset": 1 + s1}, {"normal": [-1, 0], "offset": 0.0 - s1},
        {"normal": [0, 1], "offset": 1 + s2}, {"normal": [0, -1], "offset": 0.0 - s2}]}


def pentagon_json(cut) -> dict:
    a, b = (float(x) for x in cut)
    return {"dim": 2, "halfspaces": [
        {"normal": [0, -1], "offset": 0}, {"normal": [1, 0], "offset": 2},
        {"normal": [0, 1], "offset": 2}, {"normal": [b - 2, a], "offset": a * b},
        {"normal": [-1, 0], "offset": 0}]}


def lattice_json(basis, shift, radius) -> dict:
    u = np.asarray(shift, dtype=float)
    return {"lattice": {"basis": np.asarray(basis, dtype=float).tolist(),
                        "shift": u.tolist(),
                        "box": {"lo": (u - radius).tolist(), "hi": (u + radius).tolist()}}}


def _dump(path: Path, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _read(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _complex(d: dict) -> complex:
    return complex(d["re"], d["im"])


def _stft_of_pair(P, v, v_prime) -> complex:
    w = np.asarray(v, dtype=float) - np.asarray(v_prime, dtype=float)
    return gonb.stft_indicator(P, w[:P.dim], w[P.dim:])


class Workload:
    """Inputs live in ``work``; ``steps`` are CLI argument lists run in order
    and ``outputs`` the files they write."""

    name = ""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.params = seed_params(seed)
        self.write_inputs()

    def file(self, name: str) -> Path:
        return self.work / name

    def clear_outputs(self) -> None:
        for path in self.outputs():
            path.unlink(missing_ok=True)

    def out_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.outputs())

    def write_inputs(self) -> None:
        raise NotImplementedError

    def steps(self) -> list[list[str]]:
        raise NotImplementedError

    def outputs(self) -> list[Path]:
        raise NotImplementedError

    def loads(self) -> list[tuple[str, Path]]:
        """(gonb.io loader, input file) pairs that set-up time covers."""
        raise NotImplementedError

    def fingerprint(self) -> dict:
        """The outputs compared with the seed-0 reference."""
        raise NotImplementedError

    def check(self, book: Checks, reference: dict | None) -> None:
        raise NotImplementedError

    def profile(self, book: Checks) -> dict:
        """Traced-run counts derived from the inputs and outputs."""
        raise NotImplementedError


class CheckOrth(Workload):
    """``check-orth`` of one window against one or more lattices."""

    max_reports = 64  # the CLI default
    n_points: dict[str, int] = {}

    def window(self) -> dict:
        raise NotImplementedError

    def lattices(self) -> list[tuple[str, np.ndarray, list, float]]:
        raise NotImplementedError

    def write_inputs(self) -> None:
        _dump(self.file("window.json"), self.window())
        for label, basis, shift, radius in self.lattices():
            _dump(self.file(f"{label}.json"), lattice_json(basis, shift, radius))

    def steps(self):
        return [["check-orth", "--in", str(self.file("window.json")),
                 "--lattice", str(self.file(f"{label}.json")),
                 "--tol-zero", repr(TOL_ZERO), "--max-reports", str(self.max_reports),
                 "--out", str(self.file(f"orth-{label}.out.json"))]
                for label, *_ in self.lattices()]

    def outputs(self):
        return [self.file(f"orth-{label}.out.json") for label, *_ in self.lattices()]

    def loads(self):
        return [("load_polytope", self.file("window.json"))] + [
            ("load_tf_set", self.file(f"{label}.json")) for label, *_ in self.lattices()]

    def _results(self):
        return {label: _read(self.file(f"orth-{label}.out.json"))
                for label, *_ in self.lattices()}

    def fingerprint(self):
        fp = {}
        for label, out in self._results().items():
            flags = [v["confirmed"] for v in out["violations"]]
            fp[label] = {
                "n_points": out["n_points"],
                "n_violations_reported": out["n_violations_reported"],
                "abs": sorted((v["value"]["abs"] for v in out["violations"]), reverse=True),
                "n_confirmed": flags.count(True),
                "n_rejected": flags.count(False),
                "n_abstained": flags.count(None),
            }
        return fp

    def check(self, book, reference):
        P = gio.load_polytope(self.file("window.json"))
        for label, out in self._results().items():
            book.add(f"{label}: n_points", out["n_points"] == self.n_points[label],
                     f"{out['n_points']} != {self.n_points[label]}")
            violations = out["violations"]
            book.add(f"{label}: violation count",
                     out["n_violations_reported"] == len(violations) <= self.max_reports)
            self.check_verdict(book, label, violations)
            worst = max((abs(_complex(v["value"]) - _stft_of_pair(P, v["v"], v["v_prime"]))
                         for v in violations), default=0.0)
            book.add(f"{label}: reported values match their pairs", worst <= STFT_TOL,
                     f"worst gap {worst:.3e}")
        if reference is not None:
            book.compare(self.name, self.fingerprint(), reference)

    def check_verdict(self, book, label, violations):
        raise NotImplementedError

    def profile(self, book):
        P = gio.load_polytope(self.file("window.json"))
        totals = dict(pairs=0, diffs=0, shifts=0, empty=0, nonzero=0)
        results = self._results()
        flags = []
        for label, basis, shift, radius in self.lattices():
            u = np.asarray(shift, dtype=float)
            prof = difference_profile(P, basis, u, u - radius, u + radius)
            for key in totals:
                totals[key] += prof[key]
            reported = results[label]["n_violations_reported"]
            book.add(f"{label}: reported = min(nonzero differences, max reports)",
                     reported == min(prof["nonzero"], self.max_reports),
                     f"{reported} vs {prof['nonzero']}")
            flags += [v["confirmed"] for v in results[label]["violations"]]
        return {**totals, "stft_calls": totals["diffs"], "stft_nonzero": totals["nonzero"],
                "confirmed": flags.count(True), "rejected": flags.count(False),
                "abstained": flags.count(None), "reported": len(flags), "scan_points": 0}


class OrthSquare(CheckOrth):
    name = "orth-square"
    n_points = {"integer": 2401}

    def window(self):
        return square_json(self.params["shift"])

    def lattices(self):
        return [("integer", np.eye(4), self.params["shift"], 3.0)]

    def check_verdict(self, book, label, violations):
        book.add(f"{label}: no violation on the square", violations == [],
                 f"{len(violations)} reported")


class OrthPentagon(CheckOrth):
    name = "orth-pentagon"
    max_reports = 6
    n_points = {"sheared": 575, "scaled": 675}

    def window(self):
        return pentagon_json(self.params["cut"])

    def lattices(self):
        return [("sheared", SHEAR, [0.0] * 4, 2.0), ("scaled", SCALE, [0.0] * 4, 2.0)]

    def check_verdict(self, book, label, violations):
        flags = [v["confirmed"] for v in violations]
        book.add(f"{label}: a confirmed violation, none rejected",
                 True in flags and False not in flags, f"confirmed flags {flags}")


class CertPentagon(Workload):
    """certificate, then a gt_abs scan with it, then find-violation with the
    orth-square lattice."""

    name = "cert-pentagon"

    def write_inputs(self):
        _dump(self.file("window.json"), pentagon_json(self.params["cut"]))
        _dump(self.file("lattice.json"), lattice_json(np.eye(4), self.params["shift"], 3.0))

    def steps(self):
        window, cert = str(self.file("window.json")), str(self.file("cert.out.json"))
        return [
            ["certificate", "--in", window, "--eps", "0.2", "--omega", "0.2", "--out", cert],
            ["scan", "--in", window, "--field", "gt_abs", "--certificate", cert,
             "--lambda1", "10:200", "--grid", str(SCAN_GRID),
             "--out", str(self.file("scan.out.csv"))],
            ["find-violation", "--in", window, "--lattice", str(self.file("lattice.json")),
             "--certificate", cert, "--out", str(self.file("violation.out.json"))],
        ]

    def outputs(self):
        return [self.file("cert.out.json"), self.file("scan.out.csv"),
                self.file("violation.out.json")]

    def loads(self):
        return [("load_polytope", self.file("window.json")),
                ("load_tf_set", self.file("lattice.json"))]

    def _scan_rows(self):
        with open(self.file("scan.out.csv"), newline="") as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        return rows[0], [[float(x) for x in row] for row in rows[1:]]

    def fingerprint(self):
        cert = _read(self.file("cert.out.json"))
        prov = cert["provenance"]
        header, rows = self._scan_rows()
        return {
            "certificate": {
                **{k: cert[k] for k in ("eps", "delta", "R", "omega", "eta", "C",
                                        "min_abs_scanned", "frame")},
                **{k: prov[k] for k in ("n_scan_points", "n_t", "n_lambda",
                                        "min_chain_slack")},
                "cone_value": prov["cone"]["value"],
            },
            "scan": {"header": header, "lambda": [r[2:4] for r in rows],
                     "value": [r[4:6] for r in rows]},
            "find_violation": {"found": _read(self.file("violation.out.json"))["found"]},
        }

    def check(self, book, reference):
        P = gio.load_polytope(self.file("window.json"))
        cert = _read(self.file("cert.out.json"))
        eta, C, R = cert["eta"], cert["C"], cert["R"]
        prov = cert["provenance"]
        book.add("certificate: eta > 0", eta > 0)
        book.add("certificate: eta - C/R >= eta/2", eta - C / R >= eta / 2 - SLACK_TOL)
        book.add("certificate: min |V| > 0", cert["min_abs_scanned"] > 0)
        book.add("certificate: scan points", prov["n_scan_points"] >= MIN_SCAN_POINTS)
        book.add("certificate: chain slack", prov["min_chain_slack"] >= -SLACK_TOL)

        header, rows = self._scan_rows()
        book.add("scan: header", header == ["t_1", "t_2", "lambda_1", "lambda_2",
                                            "re", "im", "abs"], str(header))
        book.add("scan: row count", len(rows) == SCAN_GRID * SCAN_CROSS, str(len(rows)))
        # every row against the other side of the divergence identity
        frame = gio.load_certificate(self.file("cert.out.json")).frame
        Q = gonb.translate_intersection(gonb.apply_frame(P, frame), np.zeros(P.dim))
        ident = gonb.AxisFrame.identity(P.dim)
        worst = 0.0
        for row in rows:
            direct = gonb.divergence_residual(Q, ident, row[2:4], via_boundary=False)
            got = complex(row[4], row[5])
            worst = max(worst, abs(got - direct) / max(1.0, abs(got), abs(direct)))
        book.add("scan: divergence identity", worst <= EXACT_TOL, f"worst gap {worst:.3e}")

        found = _read(self.file("violation.out.json"))
        book.add("find-violation: found", found["found"] is True)
        if found["found"]:
            value = abs(_complex(found["value"]))
            direct = abs(_stft_of_pair(P, found["v"], found["v_prime"]))
            book.add("find-violation: |V| nonzero and matches its pair",
                     value > TOL_ZERO and abs(value - direct) <= STFT_TOL,
                     f"{value!r} vs {direct!r}")
        if reference is not None:
            book.compare(self.name, self.fingerprint(), reference)

    def profile(self, book):
        cert = _read(self.file("cert.out.json"))
        found = int(_read(self.file("violation.out.json"))["found"])
        points = cert["provenance"]["n_scan_points"]
        # a certificate guarantees |V| > 0 at every scanned point
        return dict(pairs=0, diffs=0, shifts=0, empty=0, nonzero=0,
                    stft_calls=points + found, stft_nonzero=points + found,
                    confirmed=0, rejected=0, abstained=0, reported=0,
                    scan_points=points)


WORKLOADS = {cls.name: cls for cls in (OrthSquare, OrthPentagon, CertPentagon)}


def difference_profile(P, basis, shift, lo, hi) -> dict:
    """Pair, difference, time-shift and non-zero counts of a lattice-built set.

    Differences are deduplicated up to sign in lattice index space, where
    they are small integers, then each distinct time shift is intersected
    once and only differences with a non-empty intersection get an STFT.
    """
    B = np.asarray(basis, dtype=float)
    shift = np.asarray(shift, dtype=float)
    pts = gonb.lattice_points(B, shift, lo, hi)
    k = np.rint(np.linalg.solve(B, (pts - shift).T).T).astype(np.int64)
    m, n = k.shape
    span = k.max(axis=0) - k.min(axis=0)
    mult = np.cumprod(np.concatenate([[1], 2 * span[:-1] + 1]))
    keys = []
    for start in range(0, m, 256):
        dk = (k[start:start + 256, None, :] - k[None, :, :]).reshape(-1, n)
        keys.append(np.unique(np.minimum((dk + span) @ mult, (span - dk) @ mult)))
    keys = np.unique(np.concatenate(keys))
    keys = keys[keys != span @ mult]
    digits = []
    rest = keys
    for c in range(n):
        digits.append(rest % (2 * span[c] + 1) - span[c])
        rest = rest // (2 * span[c] + 1)
    w = np.round(np.stack(digits, axis=1) @ B.T, 9)
    first = w[np.arange(w.shape[0]), np.argmax(w != 0, axis=1)]
    w = w * np.sign(first)[:, None]
    d = P.dim
    shifts, inverse = np.unique(w[:, :d], axis=0, return_inverse=True)
    live = np.array([not (Q.empty or Q.degenerate)
                     for Q in (gonb.translate_intersection(P, s) for s in shifts)])
    live = live[inverse.ravel()]
    nonzero = sum(abs(gonb.stft_indicator(P, w[i, :d], w[i, d:])) > TOL_ZERO
                  for i in np.flatnonzero(live))
    return {"pairs": m * (m - 1), "diffs": int(keys.size), "shifts": int(shifts.shape[0]),
            "empty": int((~live).sum()), "nonzero": int(nonzero)}

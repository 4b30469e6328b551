"""JSON readers/writers for polytopes, time-frequency sets and certificates."""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ParseError
from .fourier import AxisFrame, ConeBound
from .gabor import (
    CertificateProvenance,
    NonZeroCertificate,
    TimeFrequencySet,
    check_coordinates,
    check_scale,
    lattice_points,
)
from .polytope import (
    GEOM_TOL,
    MAX_VERTEX_CANDIDATES,
    HPolytope,
    from_vertices,
    normalize,
)


def load_polytope(source) -> HPolytope:
    """Parse {"dim", "halfspaces": [...]} or {"dim", "vertices": [...]} JSON.

    ``dim`` is a number with an integral value >= 1, not a boolean. Normals
    need ``dim`` entries and a norm above GEOM_TOL; normal entries, offsets
    and vertex coordinates must be finite with |x| <= COORD_BOUND; the vertex
    candidates C(n, dim) of n halfspaces are bounded by MAX_VERTEX_CANDIDATES
    and vertex input needs dim <= 3. Anything else is a ParseError.
    """
    data = _load(source)
    dim = data.get("dim")
    if isinstance(dim, float) and dim.is_integer():
        dim = int(dim)
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ParseError(f"polytope JSON needs an integer 'dim', got {dim!r}")
    if dim < 1:
        raise ParseError("polytope dimension must be >= 1")
    if "halfspaces" in data:
        try:
            raw = [(_float_array(hs["normal"], "normal"), _float_array(hs["offset"], "offset"))
                   for hs in data["halfspaces"]]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad halfspace entry: {exc}") from exc
        if not raw:
            raise ParseError("empty halfspace list")
        for normal, offset in raw:
            if normal.shape != (dim,) or offset.shape != ():
                raise ParseError(f"a halfspace needs a normal of {dim} entries "
                                 f"and one offset")
            check_coordinates(np.append(normal, offset), "halfspace")
            if np.linalg.norm(normal) <= GEOM_TOL:
                raise ParseError(f"a halfspace normal needs a norm above {GEOM_TOL:g}")
        if math.comb(len(raw), dim) > MAX_VERTEX_CANDIDATES:
            raise ParseError(f"{len(raw)} halfspaces in dimension {dim} give more than "
                             f"{MAX_VERTEX_CANDIDATES} vertex candidates")
        return normalize(raw, dim)
    if "vertices" in data:
        verts = _float_array(data["vertices"], "vertices")
        if verts.ndim != 2 or verts.shape[1] != dim:
            raise ParseError("vertices must be rows of length dim")
        if dim > 3:
            raise ParseError("vertex input needs dim <= 3")
        check_coordinates(verts, "vertex")
        return from_vertices(verts, dim)
    raise ParseError("polytope JSON needs 'halfspaces' or 'vertices'")


def polytope_to_dict(P: HPolytope) -> dict:
    return {
        "dim": P.dim,
        "halfspaces": [
            {"normal": [float(x) for x in a], "offset": float(c)}
            for a, c in zip(P.A, P.b)
        ],
    }


def load_tf_set(source) -> TimeFrequencySet:
    """Parse {"points": [[...]]} or {"lattice": {"basis", "shift", "box"}}.

    Points, lattice shift and box need finite coordinates with |x| <= 1e6; a
    lattice basis is a finite square matrix of even size 2d.
    """
    data = _load(source)
    if "points" in data:
        pts = _float_array(data["points"], "points")
        if pts.ndim != 2 or pts.shape[1] % 2 != 0:
            raise ParseError("points must be rows of even length 2d")
        return _distinct_set(pts)
    if "lattice" in data:
        lat = data["lattice"]
        try:
            basis = _float_array(lat["basis"], "lattice basis")
            n = basis.shape[0] if basis.ndim == 2 else 0
            shift = _float_array(lat.get("shift", np.zeros(n)), "lattice shift")
            box = lat["box"]
            lo = _float_array(box["lo"], "lattice box")
            hi = _float_array(box["hi"], "lattice box")
        except (AttributeError, KeyError, TypeError) as exc:
            raise ParseError(f"bad lattice spec: {exc}") from exc
        if basis.shape != (n, n) or n == 0 or n % 2 != 0:
            raise ParseError("lattice basis must be a square matrix of even size 2d")
        if not np.all(np.isfinite(basis)):
            raise ParseError("lattice basis entries must be finite")
        for name, vec in (("shift", shift), ("box lo", lo), ("box hi", hi)):
            if vec.shape != (n,):
                raise ParseError(f"lattice {name} needs {n} entries")
            check_coordinates(vec, f"lattice {name}")
        pts = lattice_points(basis, shift, lo, hi)
        if pts.shape[0] == 0:
            raise ParseError("lattice truncation is empty")
        return _distinct_set(pts)
    raise ParseError("time-frequency JSON needs 'points' or 'lattice'")


def _distinct_set(pts) -> TimeFrequencySet:
    try:
        return TimeFrequencySet(pts)
    except ValueError as exc:  # a repeated point
        raise ParseError(str(exc)) from exc


def _float_array(value, what: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{what} must be numbers: {exc}") from exc


def frame_to_dict(frame: AxisFrame) -> dict:
    return {
        "origin": [float(x) for x in frame.origin],
        "basis": [[float(x) for x in row] for row in frame.basis],
        "scale": float(frame.scale),
    }


def frame_from_dict(data: dict) -> AxisFrame:
    return AxisFrame(np.asarray(data["origin"], dtype=float),
                     np.asarray(data["basis"], dtype=float),
                     float(data["scale"]))


def certificate_to_dict(cert: NonZeroCertificate) -> dict:
    prov = cert.provenance
    return {
        "eps": cert.eps,
        "delta": cert.delta,
        "R": cert.R,
        "omega": cert.omega,
        "eta": cert.eta,
        "C": cert.C,
        "frame": frame_to_dict(cert.frame),
        "min_abs_scanned": cert.min_abs_scanned,
        "provenance": {
            "window_hash": prov.window_hash,
            "n_scan_points": prov.n_scan_points,
            "n_t": prov.n_t,
            "n_lambda": prov.n_lambda,
            "min_sigma_gap": prov.min_sigma_gap,
            "max_axial_residual": prov.max_axial_residual,
            "min_chain_slack": prov.min_chain_slack,
            "cone": {
                "value": prov.cone.value,
                "arg_t": [float(x) for x in prov.cone.arg_t],
                "arg_lam": [float(x) for x in prov.cone.arg_lam],
                "min_sin_theta": prov.cone.min_sin_theta,
            },
            "min_abs_point": {
                "t": [float(x) for x in prov.min_abs_point[0]],
                "lam": [float(x) for x in prov.min_abs_point[1]],
            },
        },
    }


def certificate_from_dict(data: dict) -> NonZeroCertificate:
    try:
        prov = data["provenance"]
        cone = prov["cone"]
        provenance = CertificateProvenance(
            prov["window_hash"], int(prov["n_scan_points"]), int(prov["n_t"]),
            int(prov["n_lambda"]), float(prov["min_sigma_gap"]),
            float(prov["max_axial_residual"]), float(prov["min_chain_slack"]),
            ConeBound(float(cone["value"]), np.asarray(cone["arg_t"], float),
                      np.asarray(cone["arg_lam"], float),
                      float(cone["min_sin_theta"])),
            (np.asarray(prov["min_abs_point"]["t"], float),
             np.asarray(prov["min_abs_point"]["lam"], float)),
        )
        cert = NonZeroCertificate(
            float(data["eps"]), float(data["delta"]), float(data["R"]),
            float(data["omega"]), float(data["eta"]), float(data["C"]),
            frame_from_dict(data["frame"]), float(data["min_abs_scanned"]),
            provenance,
        )
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise ParseError(f"bad certificate JSON: {exc}") from exc
    # the bounds of the CLI flags, which keep frame coordinates and
    # frequencies finite
    check_coordinates(cert.frame.origin, "certificate frame origin")
    check_scale(cert.frame.scale, "certificate frame scale")
    check_scale(cert.omega, "certificate omega")
    return cert


def load_certificate(source) -> NonZeroCertificate:
    return certificate_from_dict(_load(source))


def _load(source) -> dict:
    if isinstance(source, dict):
        return source
    try:
        if hasattr(source, "read"):
            data = json.load(source)
        else:
            with open(source) as fh:
                data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read JSON input: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("top-level JSON value must be an object")
    return data


def dump_json(obj: dict, fh) -> None:
    json.dump(obj, fh, indent=2)
    fh.write("\n")

"""JSON readers/writers for polytopes, time-frequency sets and certificates."""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing

import numpy as np

from .errors import ParseError
from .gabor import (
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

# The geometry is cheap beyond d = 4, but the certificate grids are not: at
# d = 5 the defaults give 3,629 translates, 405,312 cone frequencies and
# 1.34e9 verify points (101 translates and 223,008 points at d = 3), and the
# correctness references cover d = 1-4 only.
MAX_DIM = 4


def load_polytope(source) -> HPolytope:
    """Parse {"dim", "halfspaces": [...]} or {"dim", "vertices": [...]} JSON.

    ``dim`` is a number with an integral value >= 1, not a boolean. Normals
    need ``dim`` entries and a norm above GEOM_TOL; normal entries, offsets
    and vertex coordinates must be finite with |x| <= COORD_BOUND; the vertex
    candidates C(n, dim) of n halfspaces and the hull candidates C(n, dim) of
    n distinct vertices are bounded by MAX_VERTEX_CANDIDATES, and dim by
    MAX_DIM in both forms. Anything else is a ParseError.
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
    elif "vertices" in data:
        verts = _float_array(data["vertices"], "vertices")
        if verts.ndim != 2 or verts.shape[1] != dim:
            raise ParseError("vertices must be rows of length dim")
    else:
        raise ParseError("polytope JSON needs 'halfspaces' or 'vertices'")
    if dim > MAX_DIM:
        raise ParseError(f"polytope dimension {dim} is above the supported "
                         f"dim <= {MAX_DIM}")
    if "halfspaces" in data:
        return normalize(raw, dim)
    check_coordinates(verts, "vertex")
    return from_vertices(verts)


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


def to_json(obj):
    """The JSON value of a record (a dataclass or named tuple: an object of
    its fields in declaration order), an array (nested lists) or a complex
    ({"re", "im", "abs"}); any other value is returned as it is."""
    if dataclasses.is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        return {name: to_json(value) for name, value in zip(obj._fields, obj)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag, "abs": abs(obj)}
    return obj


@functools.cache
def _field_types(cls) -> tuple:
    return tuple(typing.get_type_hints(cls).items())


def _finite_numbers(value) -> bool:
    """Whether value is a finite number that is not a bool, or nested lists of such."""
    if isinstance(value, list):
        return all(map(_finite_numbers, value))
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def from_json(cls, data):
    """The record cls read from the object ``data`` of its fields, by each
    field's annotated type: a str from a string, a float from a number that
    is not a bool, an int from such a number with an integral value (17.0
    reads as 17), an np.ndarray as a float array from nested lists of finite
    numbers that are not bools, and a nested record by recursion; ValueError
    for any other value. Unknown keys are ignored."""
    values = {}
    for name, kind in _field_types(cls):
        value = data[name]
        if kind is np.ndarray:
            if not _finite_numbers(value):
                raise ValueError(f"{name} must be nested lists of finite numbers, got {value!r}")
            values[name] = np.array(value, dtype=float)
        elif kind in (float, int, str):
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (isinstance(value, str) if kind is str
                    else number and (kind is float or float(value).is_integer())):
                raise ValueError(f"{name} must be of type {kind.__name__}, got {value!r}")
            values[name] = kind(value)
        else:
            values[name] = from_json(kind, value)
    return cls(**values)


def certificate_to_dict(cert: NonZeroCertificate) -> dict:
    return to_json(cert)


def certificate_from_dict(data: dict, dim: int | None = None) -> NonZeroCertificate:
    """The certificate of the JSON object data (from_json), whose frame has
    the dimension dim of its window, if given, and whose points (frame
    origin, cone and min_abs_point rows) have the frame's."""
    try:
        cert = from_json(NonZeroCertificate, data)
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise ParseError(f"bad certificate JSON: {exc}") from exc
    d = cert.frame.basis.shape[0]
    if dim is not None and d != dim:
        raise ParseError(f"certificate frame has dimension {d}, the window {dim}")
    pv = cert.provenance
    for name, x in (("frame.origin", cert.frame.origin), ("cone.arg_t", pv.cone.arg_t),
                    ("cone.arg_lam", pv.cone.arg_lam), ("min_abs_point.t", pv.min_abs_point.t),
                    ("min_abs_point.lam", pv.min_abs_point.lam)):
        if x.shape != (d,):
            raise ParseError(f"certificate {name} needs the frame's {d} entries, "
                             f"got shape {x.shape}")
    # the bounds of the CLI flags, which keep frame coordinates and
    # frequencies finite
    check_coordinates(cert.frame.origin, "certificate frame origin")
    check_scale(cert.frame.scale, "certificate frame scale")
    check_scale(cert.omega, "certificate omega")
    return cert


def load_certificate(source, dim: int | None = None) -> NonZeroCertificate:
    return certificate_from_dict(_load(source), dim)


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

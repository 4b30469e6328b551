"""Command-line workbench.

Subcommands: symmetry, intersect, ft, stft, certificate, check-orth,
find-violation, scan. Outputs are deterministic for a fixed configuration;
exit codes: 0 success, 2 parse/config error, 3 mathematical precondition
failure, 4 scan falsification.

Vector flags take comma-separated values and accept the ``--flag=-1,-1``
form for negative entries.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import io as gio
from .errors import ParseError, PreconditionError, RegionFrameMissing, ScanFailure, WorkbenchError
from .fourier import (
    AxisFrame,
    ConeScanParams,
    ScanGrid,
    apply_frame,
    cone_lambda_grid,
    divergence_residual,
    ft_indicator,
    ft_indicator_quadrature,
)
from .gabor import (
    CertificateScanParams,
    NotFound,
    build_certificate,
    check_orthogonality,
    check_certificate_window,
    check_coordinates,
    check_scale,
    find_violation_pair,
    stft_indicator,
)
from .polytope import is_symmetric, translate_intersection, volume

# Bound on the points of a scan grid (grid**d for a box scan, grid *
# n_cross**(d-1) for a gt_abs scan) and on the rows of a --quadrature oracle,
# checked before the grid is built.
MAX_SCAN_POINTS = 1 << 20


def _vector(text: str, dim: int) -> np.ndarray:
    try:
        vec = np.array([float(x) for x in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ParseError(f"bad vector {text!r}: {exc}") from exc
    if vec.size != dim:
        raise ParseError(f"vector {text!r} needs {dim} entries, got {vec.size}")
    check_coordinates(vec, f"vector {text!r}")
    return vec


def _grid_size(n: int, flag: str) -> None:
    if n > MAX_SCAN_POINTS:
        raise ParseError(f"{flag} gives {n} points, more than {MAX_SCAN_POINTS}")


def _tf_set(path, P):
    """Time-frequency set of the window's dimension."""
    L = gio.load_tf_set(path)
    if L.d != P.dim:
        raise ParseError(f"time-frequency set has dimension {L.d}, "
                         f"the window {P.dim}")
    return L


def _ranges(text: str, count: int, flag: str) -> list[tuple[float, float]]:
    out = []
    for part in text.split(","):
        try:
            lo, hi = part.split(":")
            out.append((float(lo), float(hi)))
        except ValueError as exc:
            raise ParseError(f"bad range {part!r}: {exc}") from exc
    if not np.all(np.isfinite(out)):
        raise ParseError(f"range {text!r} has a non-finite end")
    check_coordinates(np.array(out), f"range {text!r}")
    if len(out) != count:
        raise ParseError(f"{flag} needs {count} range{'s' * (count > 1)} lo:hi, got {len(out)}")
    return out


def _open_out(path):
    return open(path, "w", newline="") if path else sys.stdout


def _emit(args, obj: dict) -> None:
    fh = _open_out(args.out)
    try:
        gio.dump_json(obj, fh)
    finally:
        if fh is not sys.stdout:
            fh.close()


def cmd_symmetry(args) -> int:
    if not 0 <= args.tol < np.inf:
        raise ParseError(f"--tol must be finite and >= 0, got {args.tol!r}")
    P = gio.load_polytope(args.infile)
    rep = is_symmetric(P, tol=args.tol)
    out = {"symmetric": rep.symmetric, "margin": rep.margin}
    if rep.witness is not None:
        F, G = rep.witness
        out["witness"] = {
            "facet_normal": [float(x) for x in F.normal],
            "facet_volume": F.volume_dm1,
            "parallel_volume": None if G is None else G.volume_dm1,
        }
    _emit(args, out)
    return 0


def cmd_intersect(args) -> int:
    P = gio.load_polytope(args.infile)
    Q = translate_intersection(P, _vector(args.t, P.dim))
    out = gio.polytope_to_dict(Q)
    out["empty"] = Q.empty
    out["degenerate"] = Q.degenerate
    out["volume"] = volume(Q)
    _emit(args, out)
    return 0


def cmd_ft(args) -> int:
    P = gio.load_polytope(args.infile)
    lam = _vector(args.lam, P.dim)
    val = ft_indicator(P, lam)
    out = {"lambda": [float(x) for x in lam], "value": gio.to_json(val)}
    if args.quadrature:
        if args.quadrature < 2:
            raise ParseError("--quadrature needs at least 2 points per axis")
        _grid_size(args.quadrature ** (P.dim - 1), "--quadrature rows")
        q = ft_indicator_quadrature(P, lam, args.quadrature)
        out["quadrature"] = gio.to_json(q)
    _emit(args, out)
    return 0


def cmd_stft(args) -> int:
    P = gio.load_polytope(args.infile)
    t = _vector(args.t, P.dim)
    lam = _vector(args.lam, P.dim)
    val = stft_indicator(P, t, lam)
    _emit(args, {"t": [float(x) for x in t], "lambda": [float(x) for x in lam],
                 "value": gio.to_json(val)})
    return 0


def cmd_certificate(args) -> int:
    P = gio.load_polytope(args.infile)
    params = CertificateScanParams(lambda_max=check_scale(args.lambda_max, "--lambda-max"))
    cert = build_certificate(P, check_scale(args.eps, "--eps"),
                             check_scale(args.omega, "--omega"), params)
    _emit(args, gio.certificate_to_dict(cert))
    return 0


def cmd_check_orth(args) -> int:
    # with no report allowed, a violation would print as the orthogonal verdict
    if args.max_reports < 1:
        raise ParseError("--max-reports must be >= 1")
    # |V| <= 1, so a threshold of 1 or more would pass every window
    if not 0 < args.tol_zero < 1:
        raise ParseError(f"--tol-zero must lie in (0, 1), got {args.tol_zero!r}")
    P = gio.load_polytope(args.infile)
    L = _tf_set(args.lattice, P)
    reports = check_orthogonality(P, L, args.tol_zero,
                                  max_reports=args.max_reports)
    _emit(args, {"n_points": len(L), "n_violations_reported": len(reports),
                 "violations": [gio.to_json(r) for r in reports]})
    return 0


def cmd_find_violation(args) -> int:
    P = gio.load_polytope(args.infile)
    L = _tf_set(args.lattice, P)
    cert = gio.load_certificate(args.certificate, P.dim)
    result = find_violation_pair(P, L, cert)
    if isinstance(result, NotFound):
        _emit(args, {"found": False, **gio.to_json(result)})
    else:
        _emit(args, {"found": True,
                     "v": [float(x) for x in result.v],
                     "v_prime": [float(x) for x in result.v_prime],
                     "value": gio.to_json(result.value)})
    return 0


def cmd_scan(args) -> int:
    P = gio.load_polytope(args.infile)
    d = P.dim
    config = {"command": "scan", "field": args.field, "in": str(args.infile)}
    if args.field in ("ft", "stft_abs"):
        if not args.lambda_box:
            raise ParseError("box scans need --lambda-box")
        ranges = _ranges(args.lambda_box, d, "--lambda-box")
        if args.grid < 2 or any(hi <= lo for lo, hi in ranges):
            raise ParseError("empty scan region")
        _grid_size(args.grid ** d, "--grid")
        axes = [np.linspace(lo, hi, args.grid) for lo, hi in ranges]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        t = _vector(args.t, d) if args.t else np.zeros(d)
        config.update({"t": list(map(float, t)), "lambda_box": args.lambda_box,
                       "grid": args.grid})
        vals = stft_indicator(P, t, mesh) if args.field == "stft_abs" \
            else ft_indicator(translate_intersection(P, t), mesh)
        pts = np.concatenate([np.broadcast_to(t, mesh.shape), mesh], axis=1)
    elif args.field == "gt_abs":
        (lo, hi), = _ranges(args.lambda1, 1, "--lambda1") if args.lambda1 else [(10.0, 200.0)]
        if not args.certificate:
            raise RegionFrameMissing("gt_abs scans need --certificate for the frame")
        cert = gio.load_certificate(args.certificate, P.dim)
        if args.grid < 2 or args.n_cross < 1 or not 0 < lo < hi:
            raise ParseError("empty scan region")
        params = ConeScanParams(r0=lo, r1=hi, n_radial=args.grid, n_cross=args.n_cross)
        _grid_size(args.grid * params.cross_rows(d), "--grid with --n-cross")
        check_certificate_window(P, cert)
        mesh = cone_lambda_grid(d, cert.omega, params)
        t = _vector(args.t, d) if args.t else np.zeros(d)
        config.update({"t": list(map(float, t)), "lambda1": f"{lo}:{hi}",
                       "grid": args.grid, "n_cross": args.n_cross,
                       "omega": cert.omega})
        Q = translate_intersection(apply_frame(P, cert.frame),
                                   cert.frame.to_frame_shift(t))
        vals = divergence_residual(Q, AxisFrame.identity(d), mesh, via_boundary=True)
        pts = np.concatenate([np.broadcast_to(t, mesh.shape), mesh], axis=1)
    else:
        raise ParseError(f"unknown field {args.field!r}")
    cols = tuple(f"t_{k+1}" for k in range(d)) + tuple(f"lambda_{k+1}" for k in range(d))
    grid = ScanGrid(cols, pts, vals)
    fh = _open_out(args.out)
    try:
        grid.write_csv(fh, config)
    finally:
        if fh is not sys.stdout:
            fh.close()
    return 0


@functools.cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="gonb", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--in", dest="infile", required=True, help="polytope JSON")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("symmetry", help="Minkowski parallel-facet symmetry test")
    common(p)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(fn=cmd_symmetry)

    p = sub.add_parser("intersect", help="intersect the window with its translate")
    common(p)
    p.add_argument("--t", required=True)
    p.set_defaults(fn=cmd_intersect)

    p = sub.add_parser("ft", help="indicator Fourier transform at one frequency")
    common(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--quadrature", type=int, default=0,
                   help="also evaluate the midpoint oracle at this resolution")
    p.set_defaults(fn=cmd_ft)

    p = sub.add_parser("stft", help="STFT of the normalized indicator window")
    common(p)
    p.add_argument("--t", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.set_defaults(fn=cmd_stft)

    p = sub.add_parser("certificate", help="build the non-vanishing certificate")
    common(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--lambda-max", dest="lambda_max", type=float, default=200.0)
    p.set_defaults(fn=cmd_certificate)

    p = sub.add_parser("check-orth", help="mutual-orthogonality violations")
    common(p)
    p.add_argument("--lattice", required=True, help="time-frequency set JSON")
    p.add_argument("--tol-zero", dest="tol_zero", type=float, default=1e-9)
    p.add_argument("--max-reports", dest="max_reports", type=int, default=64)
    p.set_defaults(fn=cmd_check_orth)

    p = sub.add_parser("find-violation", help="certificate-driven pair search")
    common(p)
    p.add_argument("--lattice", required=True)
    p.add_argument("--certificate", required=True)
    p.set_defaults(fn=cmd_find_violation)

    p = sub.add_parser("scan", help="emit a CSV field scan")
    common(p)
    p.add_argument("--field", required=True, choices=["ft", "stft_abs", "gt_abs"])
    p.add_argument("--t", default=None)
    p.add_argument("--lambda-box", dest="lambda_box", default=None,
                   help="per-axis ranges lo:hi, comma separated")
    p.add_argument("--lambda1", default=None, help="axial range lo:hi for gt_abs")
    p.add_argument("--grid", type=int, default=61)
    p.add_argument("--n-cross", dest="n_cross", type=int, default=16)
    p.add_argument("--certificate", default=None)
    p.set_defaults(fn=cmd_scan)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse before Python 3.12 drops an option value of "--" (as in
        # --t=--) and passes an empty list that skipped the option's type
        if any(value == [] for value in vars(args).values()):
            parser.error("an option value may not be '--'")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ScanFailure as exc:
        print(f"ScanFailure: {exc}", file=sys.stderr)
        return 4
    except PreconditionError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except WorkbenchError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

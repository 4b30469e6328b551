"""Fourier transforms of polytope indicators and facet surface measures.

The indicator transform uses the exact simplex formula

    integral over T of exp(-2*pi*i*<lam, x>) dx
        = d! * vol(T) * divdiff(exp; z_0, ..., z_d),   z_j = -2*pi*i*<lam, v_j>,

where divdiff is the divided difference of exp over the nodes. Nodes that
cluster within CLUSTER_TOL are handled by a truncated confluent series; the
recursion always divides by the spread of the current node subset, so no
denominator below CLUSTER_TOL is ever formed.

A deterministic midpoint-rule quadrature over the bounding box serves as the
independent oracle for everything in this module; it sums the grid row by row
in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConeTooWide,
    DegenerateFacet,
    DegenerateSimplex,
    FrameMismatch,
    ParallelDirection,
)
from .polytope import (
    GEOM_TOL,
    Facet,
    HPolytope,
    _reduce,
    facets,
    translate_intersection,
    triangulate,
    volume,
)

CLUSTER_TOL = 1e-4
SERIES_EPS = 1e-16
_MAX_SERIES_TERMS = 80
_INV_FACT = 1.0 / np.array([math.factorial(k) for k in range(_MAX_SERIES_TERMS + 8)])


# ---------------------------------------------------------------------------
# exponential divided differences
# ---------------------------------------------------------------------------


def divdiff_exp_series(z: np.ndarray) -> complex:
    """Confluent divided difference of exp via the shifted homogeneous series.

    divdiff(exp; z_0..z_k) = exp(m) * sum_j h_j(z - m) / (j + k)! with m the
    node mean and h_j the complete homogeneous symmetric polynomials. Terms
    are added until the relative increment drops below SERIES_EPS.
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    k = z.size - 1
    if k == 0:
        return complex(np.exp(z[0]))
    m = z.mean()
    w = z - m
    # h[j] over all nodes via the incremental recurrence
    h = np.zeros(_MAX_SERIES_TERMS + 1, dtype=complex)
    h[0] = 1.0
    for wi in w:
        for j in range(1, _MAX_SERIES_TERMS + 1):
            h[j] += wi * h[j - 1]
    total = 0.0 + 0.0j
    small_run = 0
    for j in range(_MAX_SERIES_TERMS + 1):
        term = h[j] * _INV_FACT[j + k]
        total += term
        # symmetric node sets zero out alternate terms, so require two
        # consecutive negligible terms before truncating
        if j >= 2 and abs(term) <= SERIES_EPS * max(abs(total), 1e-300):
            small_run += 1
            if small_run >= 2:
                break
        else:
            small_run = 0
    return complex(np.exp(m) * total)


def divdiff_exp_direct(z: np.ndarray) -> complex:
    """Classic divided-difference table for exp, no confluency handling."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    table = np.exp(z)
    n = z.size
    for level in range(1, n):
        table = (table[1:] - table[:-1]) / (z[level:] - z[: n - level])
    return complex(table[0])


def divdiff_exp(z: np.ndarray) -> complex:
    """Production evaluator: subset recursion splitting on the extreme nodes,
    with the series fallback whenever a subset's spread is below CLUSTER_TOL."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    order = np.argsort(z.imag, kind="stable")
    z = z[order]
    n = z.size
    memo: dict[int, complex] = {}

    def rec(mask: int) -> complex:
        val = memo.get(mask)
        if val is not None:
            return val
        idx = [i for i in range(n) if mask >> i & 1]
        lo, hi = idx[0], idx[-1]  # nodes sorted by imaginary part
        if abs(z[hi] - z[lo]) <= CLUSTER_TOL:
            val = divdiff_exp_series(z[idx])
        else:
            val = (rec(mask & ~(1 << lo)) - rec(mask & ~(1 << hi))) / (z[hi] - z[lo])
        memo[mask] = val
        return val

    return rec((1 << n) - 1)


# ---------------------------------------------------------------------------
# indicator transforms
# ---------------------------------------------------------------------------


def ft_simplex(simplex_vertices, lam) -> complex:
    """Exact integral of exp(-2*pi*i*<lam, x>) over a d-simplex."""
    V = np.asarray(simplex_vertices, dtype=float)
    d = V.shape[1]
    if V.shape[0] != d + 1:
        raise ValueError("simplex needs d+1 vertices")
    lam = np.asarray(lam, dtype=float).reshape(d)
    det = np.linalg.det(V[1:] - V[0])
    vol = abs(det) / math.factorial(d)
    if vol <= 1e-15:
        raise DegenerateSimplex("simplex vertices are affinely dependent")
    z = -2j * np.pi * (V @ lam)
    return math.factorial(d) * vol * divdiff_exp(z)


def ft_indicator(P: HPolytope, lam) -> complex:
    """Fourier transform of the indicator of P at frequency lam."""
    if P.empty or P.degenerate:
        return 0.0 + 0.0j
    lam = np.asarray(lam, dtype=float).reshape(P.dim)
    simp = triangulate(P)
    d = P.dim
    fact = math.factorial(d)
    edges = simp[:, 1:, :] - simp[:, :1, :]
    vols = np.abs(np.linalg.det(edges))  # = d! * simplex volume
    phases = -2j * np.pi * (simp @ lam)  # (m, d+1) nodes
    total = 0.0 + 0.0j
    for k in range(simp.shape[0]):
        if vols[k] <= 1e-15:
            continue
        total += vols[k] * divdiff_exp(phases[k])
    return complex(total)


def ft_indicator_many(P: HPolytope, lams: np.ndarray) -> np.ndarray:
    """ft_indicator evaluated at each row of lams (triangulation reused)."""
    lams = np.asarray(lams, dtype=float).reshape(-1, P.dim)
    out = np.zeros(lams.shape[0], dtype=complex)
    if P.empty or P.degenerate:
        return out
    simp = triangulate(P)
    edges = simp[:, 1:, :] - simp[:, :1, :]
    vols = np.abs(np.linalg.det(edges))
    nodes = -2j * np.pi * np.einsum("mvd,ld->lmv", simp, lams)
    for i in range(lams.shape[0]):
        acc = 0.0 + 0.0j
        for k in range(simp.shape[0]):
            if vols[k] <= 1e-15:
                continue
            acc += vols[k] * divdiff_exp(nodes[i, k])
        out[i] = acc
    return out


def ft_indicator_quadrature(P: HPolytope, lam, n_per_axis: int) -> complex:
    """Midpoint-rule oracle for ft_indicator over the bounding box of P."""
    return ft_indicator_quadrature_many(P, np.asarray(lam, float).reshape(1, -1),
                                        n_per_axis)[0]


def ft_indicator_quadrature_many(P: HPolytope, lams: np.ndarray,
                                 n_per_axis: int, chunk: int = 500_000) -> np.ndarray:
    """Midpoint-rule quadrature, vectorized over frequencies.

    The deterministic n^d midpoint grid over the bounding box is summed row by
    row along the last axis. On a convex body the midpoints of a row that pass
    the inside test A x <= b + 1e-12 form an index interval, and the exp sum
    over an interval is a closed geometric series, so each frequency costs
    n^(d-1) row terms. ``chunk`` bounds the rows times frequencies held at once.
    """
    if n_per_axis < 2:
        raise ValueError("n_per_axis must be >= 2")
    lams = np.asarray(lams, dtype=float).reshape(-1, P.dim)
    out = np.zeros(lams.shape[0], dtype=complex)
    if P.empty or P.degenerate:
        return out
    lo, hi = P.bounding_box()
    d = P.dim
    n = n_per_axis
    h = (hi - lo) / n
    cellvol = float(np.prod(h))
    # the row sum over k = 0..L-1 of q^k with q = exp(-2 pi i theta) only
    # depends on theta mod 1, so it is taken at phi = theta - rint(theta)
    theta = lams[:, -1] * h[-1]
    phi = theta - np.rint(theta)
    n_rows = n ** (d - 1)
    step = max(1, chunk // max(1, lams.shape[0]))
    for start in range(0, n_rows, step):
        rows = np.arange(start, min(start + step, n_rows))
        idx = np.unravel_index(rows, (n,) * (d - 1)) if d > 1 else ()
        idx = np.array(idx, dtype=np.int64).T.reshape(rows.size, d - 1)
        X = lo[:-1] + (idx + 0.5) * h[:-1]
        first, count = _midpoint_intervals(P.A, P.b, lo, h, n, X)
        X, first, count = X[count > 0], first[count > 0], count[count > 0]
        if count.size == 0:
            continue
        x0 = lo[-1] + (first + 0.5) * h[-1]
        phase = X @ lams[:, :-1].T + x0[:, None] * lams[:, -1]
        series = count[:, None] * np.sinc(phi * count[:, None]) / np.sinc(phi)
        out += (np.exp(-2j * np.pi * phase - 1j * np.pi * phi * (count[:, None] - 1))
                * series).sum(axis=0)
    return out * cellvol


def _midpoint_intervals(A, b, lo, h, n, X):
    """(first index, count) of the midpoints of each row at front coordinates X
    (rows, d-1) along the last axis that pass A x <= b + 1e-12.

    The ends come from the row's linear bounds and are then moved until the
    inside test itself holds at both ends and fails just beyond them, so the
    interval holds exactly the points the test admits.
    """

    def inside(m):
        pts = np.concatenate([X, (lo[-1] + (m + 0.5) * h[-1])[:, None]], axis=1)
        return np.all(A @ pts.T <= b[:, None] + 1e-12, axis=0)

    a = A[:, -1]
    slack = b + 1e-12 - X @ A[:, :-1].T  # (rows, halfspaces)
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = (slack / a - lo[-1]) / h[-1] - 0.5
    up = np.where(a > 0, bound, np.inf).min(axis=1)
    down = np.where(a < 0, bound, -np.inf).max(axis=1)
    blocked = np.any((a == 0) & (slack < 0), axis=1)
    first = np.clip(np.ceil(down), 0, n).astype(np.int64)
    last = np.where(blocked, -1, np.clip(np.floor(up), -1, n - 1)).astype(np.int64)
    # rounding leaves the ends at most a step or two off; the cap only
    # guarantees termination
    for _ in range(2 * n):
        near = first <= last + 1
        live = first <= last
        out_first = live & ~inside(np.minimum(first, n - 1))
        out_last = live & ~inside(np.maximum(last, 0))
        grow_first = near & (first > 0) & inside(np.maximum(first - 1, 0))
        grow_last = near & (last < n - 1) & inside(np.minimum(last + 1, n - 1))
        if not (out_first | out_last | grow_first | grow_last).any():
            break
        first = first + out_first - grow_first
        last = last - out_last + grow_last
    return first, np.maximum(last - first + 1, 0)


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AxisFrame:
    """Affine chart y = basis^T (x - origin) / scale with orthonormal basis.

    The first basis column is the distinguished axis: a designated facet pair
    lands on {y_1 = 0} and {y_1 = 1}. Frequencies transform dually:
    lam_frame = scale * basis^T lam.
    """

    origin: np.ndarray
    basis: np.ndarray  # (d, d), columns orthonormal
    scale: float

    def __post_init__(self):
        o = np.asarray(self.origin, dtype=float).copy()
        U = np.asarray(self.basis, dtype=float).copy()
        if self.scale <= 0:
            raise ValueError("frame scale must be positive")
        if np.linalg.norm(U.T @ U - np.eye(U.shape[0])) > 1e-7:
            raise ValueError("frame basis is not orthonormal")
        o.setflags(write=False)
        U.setflags(write=False)
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "basis", U)
        object.__setattr__(self, "scale", float(self.scale))

    @property
    def dim(self) -> int:
        return self.origin.size

    @classmethod
    def identity(cls, dim: int) -> "AxisFrame":
        return cls(np.zeros(dim), np.eye(dim), 1.0)

    def is_identity(self) -> bool:
        return (
            self.scale == 1.0
            and not np.any(self.origin)
            and np.array_equal(self.basis, np.eye(self.dim))
        )

    def to_frame_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.basis.T @ (x - self.origin) / self.scale

    def to_frame_shift(self, t) -> np.ndarray:
        return self.basis.T @ np.asarray(t, dtype=float) / self.scale

    def to_frame_freq(self, lam) -> np.ndarray:
        return self.scale * (self.basis.T @ np.asarray(lam, dtype=float))

    def from_frame_point(self, y) -> np.ndarray:
        return self.origin + self.scale * (self.basis @ np.asarray(y, dtype=float))


def apply_frame(P: HPolytope, frame: AxisFrame) -> HPolytope:
    """Image of P under the frame chart (an isotropic similarity)."""
    if frame.is_identity():
        return P
    A, b = P.A, P.b
    A2 = A @ frame.basis
    b2 = (b - A @ frame.origin) / frame.scale
    return _reduce(A2, b2, P.dim)


@dataclass(frozen=True, eq=False)
class ConeRegion:
    """Axis cone in frame coordinates: |lam_j| <= omega * |lam_1| for j >= 2."""

    omega: float
    frame: AxisFrame

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError("cone aperture must be positive")

    def contains(self, lam) -> bool:
        y = self.frame.to_frame_freq(lam)
        return bool(np.all(np.abs(y[1:]) <= self.omega * abs(y[0]) + GEOM_TOL))


# ---------------------------------------------------------------------------
# facet surface measures
# ---------------------------------------------------------------------------


def ft_facet_measure(F: Facet, lam) -> complex:
    """Fourier transform of the facet surface measure at frequency lam.

    Parameterizes the facet isometrically by its tangent chart and reduces to
    the (d-1)-dimensional indicator transform times the hyperplane phase.
    """
    if F.volume_dm1 <= 0:
        raise DegenerateFacet("facet has zero surface volume")
    lam = np.asarray(lam, dtype=float).reshape(F.dim)
    phase = np.exp(-2j * np.pi * float(lam @ F.origin))
    if F.dim == 1:
        return complex(phase)
    lam_t = F.tangent.T @ lam
    return complex(phase * ft_indicator(F.body, lam_t))


def boundary_volume_dm2(F: Facet) -> float:
    """(d-2)-volume of the facet boundary (ridge sum; endpoint count in d=2)."""
    if F.dim < 2:
        raise ValueError("facet boundary volume needs ambient dimension >= 2")
    if F.dim == 2:
        return 2.0
    return sum(G.volume_dm1 for G in facets(F.body))


def sigma_bound(F: Facet, lam) -> float:
    """Decay bound for |ft_facet_measure|:

        V_{d-2}(boundary F) / (2*pi) * |lam|^{-1} / |sin(angle(lam, n_F))|.
    """
    lam = np.asarray(lam, dtype=float).reshape(F.dim)
    r = float(np.linalg.norm(lam))
    if r <= GEOM_TOL:
        raise ValueError("lam must be nonzero")
    perp = lam - (lam @ F.normal) * F.normal
    sin_theta = float(np.linalg.norm(perp)) / r
    if sin_theta < GEOM_TOL:
        raise ParallelDirection("lam is parallel to the facet normal")
    return boundary_volume_dm2(F) / (2 * np.pi) / (r * sin_theta)


# ---------------------------------------------------------------------------
# divergence decomposition along a distinguished axis
# ---------------------------------------------------------------------------


def _axis_facets(Q: HPolytope) -> tuple[Facet | None, Facet | None]:
    """Facets of Q with unit normals -e1 (the low face A) and +e1 (B)."""
    d = Q.dim
    e1 = np.zeros(d)
    e1[0] = 1.0
    fa = fb = None
    for F in facets(Q):
        if np.linalg.norm(F.normal + e1) <= 1e-7:
            fa = F
        elif np.linalg.norm(F.normal - e1) <= 1e-7:
            fb = F
    return fa, fb


def divergence_residual(P_t: HPolytope, frame: AxisFrame, lam,
                        via_boundary: bool = False) -> complex:
    """Residual G_t(lam) of the axis divergence identity in frame coordinates.

    With A the facet on {y_1 = 0} (outward normal -e1) and B its parallel on
    {y_1 = 1} (outward normal +e1),

        -2*pi*i*lam_1 * ft_indicator = -sigma_A + sigma_B + G_t,

    so G_t = -2*pi*i*lam_1*ft_indicator + sigma_A - sigma_B, which equals the
    boundary sum over the remaining facets sum_{F not in {A,B}} <e1, n_F> *
    ft_facet_measure(F). ``via_boundary`` selects that equivalent route.
    """
    Q = apply_frame(P_t, frame)
    lam = np.asarray(lam, dtype=float).reshape(Q.dim)
    fa, fb = _axis_facets(Q)
    if fa is None and fb is None:
        raise FrameMismatch("no facet pair normalized to the frame axis")
    if via_boundary:
        e1 = np.zeros(Q.dim)
        e1[0] = 1.0
        total = 0.0 + 0.0j
        for F in facets(Q):
            if F is fa or F is fb:
                continue
            w = float(e1 @ F.normal)
            if abs(w) <= 1e-14:
                continue
            total += w * ft_facet_measure(F, lam)
        return complex(total)
    sa = ft_facet_measure(fa, lam) if fa is not None else 0.0
    sb = ft_facet_measure(fb, lam) if fb is not None else 0.0
    return complex(-2j * np.pi * lam[0] * ft_indicator(Q, lam) + sa - sb)


@dataclass(frozen=True)
class ConeScanParams:
    """Grid for the cone constant: log-spaced axial frequencies, uniform
    cross-section fractions, and a polar translate grid."""

    r0: float = 10.0
    r1: float = 200.0
    n_radial: int = 64
    n_cross: int = 16
    t_radius: float = 0.0
    n_t_angles: int = 8
    n_t_radii: int = 2

    def cross_fractions(self) -> np.ndarray:
        return np.linspace(-1.0, 1.0, self.n_cross)


@dataclass(frozen=True)
class ConeBound:
    """sup over the scan of |lam_1| * |G_t(lam)| with its attaining point."""

    value: float
    arg_t: np.ndarray
    arg_lam: np.ndarray
    min_sin_theta: float

    def __float__(self):
        return self.value


def cone_lambda_grid(dim: int, omega: float, params: ConeScanParams) -> np.ndarray:
    """Frequencies lam = lam1 * (1, u), |u_j| <= omega, lam1 log-spaced."""
    from .polytope import ball_grid

    lam1 = np.geomspace(params.r0, params.r1, params.n_radial)
    fr = params.cross_fractions()
    if dim == 1:
        return lam1[:, None]
    if dim == 2:
        cross = (omega * fr)[:, None]
    else:
        dirs = ball_grid(dim - 1, 1.0, params.n_cross, 1, include_origin=False)
        cross = np.concatenate(
            [omega * dirs, 0.5 * omega * dirs, np.zeros((1, dim - 1))]
        )
    pts = []
    for r in lam1:
        for u in cross:
            pts.append(np.concatenate([[r], r * np.atleast_1d(u).ravel()]))
    return np.array(pts)


def cone_constant(P: HPolytope, frame: AxisFrame, omega: float,
                  params: ConeScanParams = ConeScanParams()) -> ConeBound:
    """Numeric constant C with |G_t(lam)| <= C / |lam_1| on the scanned cone.

    Takes the sup of |lam_1| * |G_t(lam)| over the cone grid and the translate
    grid |t| <= t_radius; raises ConeTooWide when a scanned direction gets
    within GEOM_TOL of some non-axis facet normal.
    """
    from .polytope import ball_grid

    Q = apply_frame(P, frame)
    d = Q.dim
    lam_grid = cone_lambda_grid(d, omega, params)
    fa, fb = _axis_facets(Q)
    if fa is None and fb is None:
        raise FrameMismatch("no facet pair normalized to the frame axis")
    rest = [F for F in facets(Q) if F is not fa and F is not fb]
    min_sin = 1.0
    for F in rest:
        for lam in lam_grid:
            s = np.linalg.norm(lam - (lam @ F.normal) * F.normal) / np.linalg.norm(lam)
            min_sin = min(min_sin, float(s))
    if min_sin < GEOM_TOL:
        raise ConeTooWide(f"scanned direction parallel to a facet normal "
                          f"(min sin theta = {min_sin:.3e})")
    tgrid = ball_grid(d, params.t_radius, params.n_t_angles, params.n_t_radii)
    best = -1.0
    arg_t = tgrid[0]
    arg_lam = lam_grid[0]
    for t in tgrid:
        Qt = translate_intersection(Q, t)
        if Qt.empty or Qt.degenerate:
            continue
        for lam in lam_grid:
            g = divergence_residual(Qt, AxisFrame.identity(d), lam, via_boundary=True)
            val = abs(lam[0]) * abs(g)
            if val > best:
                best = val
                arg_t = t.copy()
                arg_lam = lam.copy()
    return ConeBound(float(best), arg_t, arg_lam, min_sin)


# ---------------------------------------------------------------------------
# scan grids and CSV output
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ScanGrid:
    """Rectangular sample of a complex field: coordinate rows plus values."""

    columns: tuple[str, ...]
    points: np.ndarray
    values: np.ndarray

    def write_csv(self, fh, config: dict | None = None) -> None:
        if config:
            for key in sorted(config):
                fh.write(f"# {key} = {config[key]}\n")
        fh.write(",".join([*self.columns, "re", "im", "abs"]) + "\n")
        for row, val in zip(self.points, self.values):
            cells = [f"{x:.17g}" for x in row]
            cells += [f"{val.real:.17g}", f"{val.imag:.17g}", f"{abs(val):.17g}"]
            fh.write(",".join(cells) + "\n")

"""Fourier transforms of polytope indicators and facet surface measures.

The indicator transform uses the exact simplex formula

    integral over T of exp(-2*pi*i*<lam, x>) dx
        = d! * vol(T) * divdiff(exp; z_0, ..., z_d),   z_j = -2*pi*i*<lam, v_j>,

where divdiff is the divided difference of exp over the nodes. Every exact
transform passes its node rows, one per (frequency, simplex) pair, to one
call of the kernel ``divdiff_exp``, which splits regimes as McCurdy, Ng and
Parlett (Math. Comp. 43, 1984) do: windows of nodes spread at most 1 take a
mean-shifted series, the others the recurrence. Against 60-digit mpmath the
worst relative error measured is 2.3e-15. Rows are computed elementwise, so a
row has the same bits in any batch, and a certificate costs one batched call
per translate-intersection.

A deterministic midpoint-rule quadrature over the bounding box serves as the
independent oracle for everything in this module; it sums the grid row by row
in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    ball_grid,
    facets,
    translate_intersection,
    triangulate,
)

_SERIES_TERMS = 20
_CHUNK_ROWS = 1 << 14  # (frequency x simplex) rows a transform holds at once


# ---------------------------------------------------------------------------
# exponential divided differences
# ---------------------------------------------------------------------------


def _node_rows(z) -> tuple[np.ndarray, bool]:
    """Nodes as complex rows (n, k+1), and whether one 1-D row was given."""
    z = np.asarray(z, dtype=complex)
    one = z.ndim == 1
    z = z.reshape(1, -1) if one else z.reshape(-1, z.shape[-1])
    if not np.isfinite(z).all():
        raise ValueError("divided-difference nodes must be finite")
    if np.any(z.real != z.real[:, :1]):
        raise ValueError("the nodes of a row must share their real part")
    return z, one


def divdiff_exp_series(z):
    """Divided difference of exp over each row of nodes c + i*y (n, k+1) by
    the mean-shifted series; a 1-D row returns a complex. With m the mean of
    y and h_j the complete homogeneous polynomials (in real arithmetic),

        divdiff = exp(c + i*m) * sum_j i^j h_j(y - m) / (j + k)!.

    For nodes within r <= 1 of their mean term j is at most r^j / (j! k!)
    while |divdiff| >= |exp(c)| cos(1) / k!, so _SERIES_TERMS = 20 terms
    leave a relative tail below 1e-18; against 60-digit mpmath the worst
    relative error measured for 2-5 nodes is 2.3e-15.
    """
    z, one = _node_rows(z)
    y = z.imag
    k = y.shape[1] - 1
    mean = y[:, 0]
    for a in range(1, k + 1):
        mean = mean + y[:, a]
    mean = mean / (k + 1)
    w = (y - mean[:, None]).T.copy()  # nodes along the first axis
    h = np.ones(w.shape)
    part = [np.full(y.shape[0], 1.0 / math.factorial(k)), np.zeros(y.shape[0])]
    for j in range(1, _SERIES_TERMS):
        h *= w
        for a in range(1, k + 1):
            h[a] += h[a - 1]
        # i^j = (-1)^(j // 2) times 1 for even j and i for odd j
        part[j % 2] = part[j % 2] + h[-1] * ((-1) ** (j // 2) / math.factorial(j + k))
    out = np.exp(z.real[:, 0] + 1j * mean) * (part[0] + 1j * part[1])
    return complex(out[0]) if one else out


def divdiff_exp_direct(z: np.ndarray) -> complex:
    """Classic divided-difference table for exp, no confluency handling."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    table = np.exp(z)
    n = z.size
    for level in range(1, n):
        table = (table[1:] - table[:-1]) / (z[level:] - z[: n - level])
    return complex(table[0])


def divdiff_exp(z):
    """Divided differences of exp over each row of nodes (n, k+1), which lie
    on a line parallel to the imaginary axis; a 1-D row returns a complex.
    The table is filled level by level over windows of the row sorted by
    imaginary part: a window of spread at most 1 takes divdiff_exp_series,
    any other the recurrence, which then divides by a gap above 1."""
    z, one = _node_rows(z)
    z = np.sort(z, axis=1)  # one real part per row: sorted by imaginary part
    table = np.exp(z)
    for lv in range(1, z.shape[1]):
        gap = z.imag[:, lv:] - z.imag[:, :-lv]
        small = gap <= 1.0
        table = (table[:, 1:] - table[:, :-1]) / (1j * np.where(small, 1.0, gap))
        r, i = np.nonzero(small)
        if r.size:
            table[small] = divdiff_exp_series(z[r[:, None], i[:, None] + np.arange(lv + 1)])
    return complex(table[0, 0]) if one else table[:, 0]


# ---------------------------------------------------------------------------
# indicator transforms
# ---------------------------------------------------------------------------


def _freqs(lams, dim: int) -> tuple[np.ndarray, bool]:
    """Finite frequency rows (n, dim), and whether one 1-D lam was given."""
    lams = np.asarray(lams, dtype=float)
    one = lams.ndim <= 1
    lams = lams.reshape((1, dim) if one else (-1, dim))
    if not np.isfinite(lams).all():
        raise ValueError("frequencies must be finite")
    return lams, one


def _dot(lams: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Rows of lams (n, d) against the leading axis of M (d, ...), summed in a
    fixed order: unlike a matmul, a row's result does not depend on its batch."""
    out = 0.0
    for c in range(M.shape[0]):
        out = out + lams[(slice(None), c) + (None,) * (M.ndim - 1)] * M[c]
    return out


def _ft_simplices(simp: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Sum over the simplices (m, d+1, d) of d! * vol * divdiff at each row of
    lams, the (frequency x simplex) node rows in chunks of _CHUNK_ROWS."""
    vols = np.abs(np.linalg.det(simp[:, 1:, :] - simp[:, :1, :]))  # = d! * volume
    simp, vols = simp[vols > 1e-15], vols[vols > 1e-15]
    out = np.zeros(lams.shape[0], dtype=complex)
    m = simp.shape[0]
    if m == 0:
        return out
    step = max(1, _CHUNK_ROWS // m)
    for start in range(0, lams.shape[0], step):
        y = _dot(lams[start:start + step], simp.transpose(2, 0, 1))
        dd = divdiff_exp(-2j * np.pi * y.reshape(-1, simp.shape[1])).reshape(-1, m)
        for k in range(m):
            out[start:start + step] += vols[k] * dd[:, k]
    return out


def ft_simplex(simplex_vertices, lam) -> complex:
    """Exact integral of exp(-2*pi*i*<lam, x>) over a d-simplex."""
    V = np.asarray(simplex_vertices, dtype=float)
    d = V.shape[1]
    if V.shape[0] != d + 1:
        raise ValueError("simplex needs d+1 vertices")
    lams, _ = _freqs(np.reshape(lam, d), d)
    vol = abs(np.linalg.det(V[1:] - V[0])) / math.factorial(d)
    if vol <= 1e-15:
        raise DegenerateSimplex("simplex vertices are affinely dependent")
    return complex(_ft_simplices(V[None], lams)[0])


def ft_indicator(P: HPolytope, lam) -> complex:
    """ft_indicator_many at the single frequency lam."""
    return complex(ft_indicator_many(P, np.reshape(lam, P.dim))[0])


def ft_indicator_many(P: HPolytope, lams: np.ndarray) -> np.ndarray:
    """Fourier transform of the indicator of P at each row of lams."""
    lams, _ = _freqs(np.reshape(lams, (-1, P.dim)), P.dim)
    if P.empty or P.degenerate:
        return np.zeros(lams.shape[0], dtype=complex)
    return _ft_simplices(triangulate(P), lams)


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
        if U.shape != (o.size, o.size) or not np.all(np.isfinite(U)) \
                or not np.all(np.isfinite(o)):
            raise ValueError("frame needs a finite square basis of the origin's size")
        if not 0 < self.scale < np.inf:
            raise ValueError("frame scale must be positive and finite")
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


def ft_facet_measure(F: Facet, lams):
    """Fourier transform of the facet surface measure at each row of lams
    (n, d); a 1-D lam returns a complex.

    Parameterizes the facet isometrically by its tangent chart and reduces to
    the (d-1)-dimensional indicator transform times the hyperplane phase.
    """
    if F.volume_dm1 <= 0:
        raise DegenerateFacet("facet has zero surface volume")
    lams, one = _freqs(lams, F.dim)
    vals = np.exp(-2j * np.pi * _dot(lams, F.origin))
    if F.dim > 1:
        vals = vals * ft_indicator_many(F.body, _dot(lams, F.tangent))
    return complex(vals[0]) if one else vals


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


def _axis_facets(Q: HPolytope) -> tuple[list[Facet], Facet | None, Facet | None]:
    """Facets of Q and those with unit normals -e1 (the low face A) and +e1
    (B); FrameMismatch when both are absent."""
    fs = facets(Q)
    e1 = np.zeros(Q.dim)
    e1[0] = 1.0
    fa = next((F for F in fs if np.linalg.norm(F.normal + e1) <= 1e-7), None)
    fb = next((F for F in fs if np.linalg.norm(F.normal - e1) <= 1e-7), None)
    if fa is None and fb is None:
        raise FrameMismatch("no facet pair normalized to the frame axis")
    return fs, fa, fb


def axis_sigmas(Q: HPolytope, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sigma_A, sigma_B): ft_facet_measure of the facets of Q with unit
    normals -e1 and +e1 at each row of lams (n, d), zeros where a facet is
    absent; FrameMismatch when both are."""
    _, fa, fb = _axis_facets(Q)
    return tuple(np.zeros(lams.shape[0], dtype=complex) if F is None
                 else ft_facet_measure(F, lams) for F in (fa, fb))


def divergence_residual(P_t: HPolytope, frame: AxisFrame, lams,
                        via_boundary: bool = False):
    """Residual G_t(lam) of the axis divergence identity in frame coordinates,
    at each row of lams (n, d); a 1-D lam returns a complex.

    With A the facet on {y_1 = 0} (outward normal -e1) and B its parallel on
    {y_1 = 1} (outward normal +e1),

        -2*pi*i*lam_1 * ft_indicator = -sigma_A + sigma_B + G_t,

    so G_t = -2*pi*i*lam_1*ft_indicator + sigma_A - sigma_B, which equals the
    boundary sum over the remaining facets sum_{F not in {A,B}} <e1, n_F> *
    ft_facet_measure(F). ``via_boundary`` selects that equivalent route.
    """
    Q = apply_frame(P_t, frame)
    lams, one = _freqs(lams, Q.dim)
    if via_boundary:
        fs, fa, fb = _axis_facets(Q)
        rest = [F for F in fs if F is not fa and F is not fb and abs(F.normal[0]) > 1e-14]
        vals = sum((F.normal[0] * ft_facet_measure(F, lams) for F in rest),
                   np.zeros(lams.shape[0], dtype=complex))
    else:
        sa, sb = axis_sigmas(Q, lams)
        vals = -2j * np.pi * lams[:, 0] * ft_indicator_many(Q, lams) + sa - sb
    return complex(vals[0]) if one else vals


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
    lam1 = np.geomspace(params.r0, params.r1, params.n_radial)
    if dim == 1:
        return lam1[:, None]
    if dim == 2:
        cross = (omega * params.cross_fractions())[:, None]
    else:
        dirs = ball_grid(dim - 1, 1.0, params.n_cross, 1, include_origin=False)
        cross = np.concatenate(
            [omega * dirs, 0.5 * omega * dirs, np.zeros((1, dim - 1))]
        )
    r = np.repeat(lam1, cross.shape[0])[:, None]
    return np.concatenate([r, r * np.tile(cross, (lam1.size, 1))], axis=1)


def cone_constant(P: HPolytope, frame: AxisFrame, omega: float,
                  params: ConeScanParams = ConeScanParams()) -> ConeBound:
    """Numeric constant C with |G_t(lam)| <= C / |lam_1| on the scanned cone.

    Takes the sup of |lam_1| * |G_t(lam)| over the cone grid and the translate
    grid |t| <= t_radius, one boundary-route residual call per non-empty
    translate, and reports its first maximum in (t, lam) order. Raises
    ConeTooWide when a scanned direction is within GEOM_TOL of a non-axis
    facet normal.
    """
    Q = apply_frame(P, frame)
    d = Q.dim
    lam_grid = cone_lambda_grid(d, omega, params)
    fs, fa, fb = _axis_facets(Q)
    normals = np.array([F.normal for F in fs if F is not fa and F is not fb]).reshape(-1, d)
    along = (lam_grid @ normals.T)[:, :, None] * normals
    sins = (np.linalg.norm(lam_grid[:, None, :] - along, axis=2)
            / np.linalg.norm(lam_grid, axis=1)[:, None])
    min_sin = float(sins.min(initial=1.0))
    if min_sin < GEOM_TOL:
        raise ConeTooWide(f"scanned direction parallel to a facet normal "
                          f"(min sin theta = {min_sin:.3e})")
    tgrid = ball_grid(d, params.t_radius, params.n_t_angles, params.n_t_radii)
    ident = AxisFrame.identity(d)
    best = -1.0
    arg_t = tgrid[0]
    arg_lam = lam_grid[0]
    for t in tgrid:
        Qt = translate_intersection(Q, t)
        if Qt.empty or Qt.degenerate:
            continue
        g = divergence_residual(Qt, ident, lam_grid, via_boundary=True)
        vals = np.abs(lam_grid[:, 0]) * np.abs(g)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best = float(vals[k])
            arg_t = t.copy()
            arg_lam = lam_grid[k].copy()
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

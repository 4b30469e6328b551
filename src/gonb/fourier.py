"""Fourier transforms of polytope indicators and facet surface measures.

The indicator transform uses the exact simplex formula

    integral over T of exp(-2*pi*i*<lam, x>) dx
        = d! * vol(T) * divdiff(exp; z_0, ..., z_d),   z_j = -2*pi*i*<lam, v_j>,

where divdiff is the divided difference of exp over the nodes. Every exact
transform passes its node rows, one per (frequency, simplex) pair, to the
kernel ``divdiff_exp``, which splits regimes as McCurdy, Ng and Parlett
(Math. Comp. 43, 1984) do: windows of nodes spread at most 1 take a
mean-shifted series, the others the recurrence. Against 60-digit mpmath the
worst relative error measured is 2.3e-15. Rows are computed elementwise, so a
row has the same bits in any batch: the transforms of many bodies or facets
(``_ft_indicators``, ``axis_sigmas``, ``_axis_residuals``,
``_ball_cone_constant``, and the translate families of an orthogonality
check) share one batch of node rows, ``_ft_simplices`` over stacked arrays. An axis facet whose
tangent's first row is exactly zero (the framed normals +-e1) has chart rows
that do not depend on lam_1, so ``axis_sigmas`` charts it at the distinct
transverse rows lam[1:] only and gives every frequency its own phase: a
certificate scan over a lam_1 x lam' grid charts each such facet at |lam'|
rows, with the bits of every row. One cutter, ``_runs``, splits consecutive
items by a row budget: node rows reach the kernel in runs of at most
_CHUNK_ROWS rows, and bodies reach a batch in runs of at most _BODY_ROWS
(body x frequency) rows, so a certificate stage, or a block of shift groups
of an orthogonality check, costs one batch per run.

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
    triangulate,
)

_SERIES_TERMS = 20
# (frequency x simplex) rows a transform batch holds at once: divdiff_exp needs
# 200-360 bytes per 3-node row, so a chunk stays below 0.75 MB (chunks of
# 16,384 and 4,096 rows raised the pentagon certificate's peak RSS by about
# 5.5 and 1.7 MB, against 1.0 MB at 2,048)
_CHUNK_ROWS = 1 << 11
# (body x frequency) pairs a batch over bodies holds at once: the batch keeps
# about 100 bytes a pair in values, frequency copies and index arrays (the
# 223,008 pairs of the 3-d cut-cube certificate scan raised peak RSS by 19 MB
# in one batch), so a block stays near 3 MB; the pentagon certificate's
# stages (at most 17,408 pairs) each fit one block
_BODY_ROWS = 1 << 15
_QUAD_CHUNK = 500_000  # (grid row x frequency) terms the quadrature holds at once


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


def _runs(sizes, limit: int) -> list[slice]:
    """Runs of consecutive items, one size per item, that hold at most limit
    in total each; an item larger than limit is a run of its own."""
    ends = np.cumsum(sizes)
    runs, start = [], 0
    while start < ends.size:
        base = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + limit, side="right")))
        runs.append(slice(start, stop))
        start = stop
    return runs


def _ft_simplices(simp: np.ndarray, m, lams: np.ndarray, n) -> np.ndarray:
    """The sum over a part's simplices of k! * vol * divdiff at each of its
    frequency rows, for consecutive parts: part i has m[i] of the simplices
    simp (M, k+1, k) and n[i] of the frequency rows lams (N, k), in order.

    The (frequency x simplex) node rows of every part go to divdiff_exp
    together, in runs of at most _CHUNK_ROWS rows (one frequency's rows when
    they are more); each frequency sums its simplices in order, so a value
    has the same bits whatever the parts around it. A part without
    simplices gives zeros.
    """
    m, n = np.asarray(m, dtype=np.intp), np.asarray(n, dtype=np.intp)
    owner = np.repeat(np.arange(m.size), m)
    vols = np.abs(np.linalg.det(simp[:, 1:, :] - simp[:, :1, :]))  # = k! * volume
    live = vols > 1e-15
    simp, vols = simp[live], vols[live]
    m = np.bincount(owner[live], minlength=m.size)  # live simplices per part
    first = np.cumsum(m) - m  # each part's first simplex
    part = np.repeat(np.arange(m.size), n)  # frequency -> part
    per_lam = m[part]  # node rows of each frequency
    vals = np.zeros(lams.shape[0], dtype=complex)
    for run in _runs(per_lam, _CHUNK_ROWS):
        rows = per_lam[run]
        if not rows.any():
            continue
        lam = np.repeat(np.arange(run.start, run.stop), rows)  # node row -> frequency
        k = np.arange(lam.size) - np.repeat(np.cumsum(rows) - rows, rows)
        cell = first[part[lam]] + k  # node row -> simplex
        L, S = lams[lam], simp[cell]
        y = 0.0  # node by node, the fixed-order sum of _dot
        for c in range(L.shape[1]):
            y = y + L[:, c, None] * S[:, :, c]
        # terms by (frequency, simplex), zero-padded: a sum that starts at
        # +0 is never -0, so adding a padding zero leaves its bits alone
        terms = np.zeros((rows.size, int(rows.max())), dtype=complex)
        terms[lam - run.start, k] = vols[cell] * divdiff_exp(-2j * np.pi * y)
        acc = vals[run]
        for j in range(terms.shape[1]):
            acc += terms[:, j]
    return vals


def _ft_indicators(bodies, lams: np.ndarray) -> np.ndarray:
    """ft_indicator of each body at the frequency rows lams (n, d), as a
    (len(bodies), n) array, all node rows through one divided-difference
    batch; an empty or degenerate body has no simplices and gives zeros."""
    simps = [triangulate(P) for P in bodies]
    vals = _ft_simplices(np.concatenate(simps), [len(sp) for sp in simps],
                         np.tile(lams, (len(bodies), 1)), [lams.shape[0]] * len(bodies))
    return vals.reshape(len(bodies), lams.shape[0])


def ft_indicator(P: HPolytope, lam):
    """Fourier transform of the indicator of P at each row of lam (n, d); a
    1-D lam returns a complex."""
    lams, one = _freqs(lam, P.dim)
    vals = _ft_indicators([P], lams)[0]
    return complex(vals[0]) if one else vals


def ft_indicator_quadrature(P: HPolytope, lam, n_per_axis: int):
    """Midpoint-rule oracle for ft_indicator over the bounding box of P, at
    each row of lam (n, d); a 1-D lam returns a complex.

    The deterministic n^d midpoint grid over the bounding box is summed row by
    row along the last axis. On a convex body the midpoints of a row that pass
    the inside test A x <= b + 1e-12 form an index interval, and the exp sum
    over an interval is a closed geometric series, so each frequency costs
    n^(d-1) row terms, at most _QUAD_CHUNK rows times frequencies at once.
    """
    if n_per_axis < 2:
        raise ValueError("n_per_axis must be >= 2")
    lams, one = _freqs(lam, P.dim)
    out = np.zeros(lams.shape[0], dtype=complex)
    if P.empty or P.degenerate:
        return complex(out[0]) if one else out
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
    step = max(1, _QUAD_CHUNK // max(1, lams.shape[0]))
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
    out *= cellvol
    return complex(out[0]) if one else out


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


def apply_frame(P: HPolytope, frame: AxisFrame) -> HPolytope:
    """Image of P under the frame chart (an isotropic similarity)."""
    if frame.is_identity():
        return P
    A, b = P.A, P.b
    A2 = A @ frame.basis
    b2 = (b - A @ frame.origin) / frame.scale
    return _reduce(A2, b2[None], P.dim).polytopes()[0]


# ---------------------------------------------------------------------------
# facet surface measures
# ---------------------------------------------------------------------------


def _ft_facets(fs: list[Facet], lams: np.ndarray, charts=None) -> list[np.ndarray]:
    """ft_facet_measure of each facet at the frequency rows lams (n, d), all
    node rows through one divided-difference batch. charts[k] = (rows, back)
    charts facet k at the frequency rows ``rows`` and gathers the result
    back to lams by [back] (default (lams, :)); each row takes its own phase."""
    if any(F.volume_dm1 <= 0 for F in fs):
        raise DegenerateFacet("facet has zero surface volume")
    # the phases of every facet in one array, elementwise as for one alone
    origins = np.array([F.origin for F in fs]).reshape(-1, lams.shape[1])
    phases = np.exp(-2j * np.pi * _dot(lams, origins.T)).T
    if lams.shape[1] == 1 or not fs:
        return list(phases)
    charts = charts or [(lams, slice(None))] * len(fs)
    sizes = [rows.shape[0] for rows, _ in charts]
    vals = _ft_simplices(np.concatenate([F.simplices for F in fs]), [len(F.simplices) for F in fs],
                         np.concatenate([_dot(rows, F.tangent) for F, (rows, _) in zip(fs, charts)]),
                         sizes)
    vals = np.split(vals, np.cumsum(sizes)[:-1])
    return [p * v[back] for p, v, (_, back) in zip(phases, vals, charts)]


def ft_facet_measure(F: Facet, lams):
    """Fourier transform of the facet surface measure at each row of lams
    (n, d); a 1-D lam returns a complex.

    Parameterizes the facet isometrically by its tangent chart and reduces to
    the (d-1)-dimensional transform of its simplices times the hyperplane
    phase.
    """
    lams, one = _freqs(lams, F.dim)
    vals = _ft_facets([F], lams)[0]
    return complex(vals[0]) if one else vals


def boundary_volume_dm2(F: Facet) -> float:
    """(d-2)-volume of the facet boundary (ridge sum; endpoint count in d=2)."""
    if F.dim < 2:
        raise ValueError("facet boundary volume needs ambient dimension >= 2")
    return F.boundary_dm2


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


def _axis_facets(Q: HPolytope) -> tuple[Facet | None, Facet | None, list[Facet]]:
    """The facets of the divergence identity: those with unit normals -e1 (A)
    and +e1 (B), None where absent, and those G sums, off the pair with
    <e1, n_F> nonzero, in facet order. An empty or degenerate Q has none;
    FrameMismatch when a full-dimensional Q has neither A nor B."""
    fa, fb = Q._axis_pair
    fs = facets(Q)
    if fa is None and fb is None and fs:
        raise FrameMismatch("no facet pair normalized to the frame axis")
    return fa, fb, [F for F in fs if F is not fa and F is not fb and abs(F.normal[0]) > 1e-14]


def axis_sigmas(bodies, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sigma_A, sigma_B) of each body: ft_facet_measure of its facets with
    unit normals -e1 and +e1 at the rows of lams (n, d), as two
    (len(bodies), n) arrays, zeros where a facet is absent; FrameMismatch
    when a full-dimensional body has neither.

    The fixed-order sum <lam, tangent> of _dot starts with lam_1 * tangent[0],
    which adds +-0 to +0 when the tangent's first row is exactly zero (the
    framed normals +-e1): such a facet is charted at the distinct rows of
    lams[:, 1:] only, with the bits of every row; any other at every row."""
    pairs = [_axis_facets(Q)[:2] for Q in bodies]
    present = [(i, side, F) for i, pair in enumerate(pairs) for side, F in enumerate(pair)
               if F is not None]
    _, first, back = np.unique(lams[:, 1:], axis=0, return_index=True, return_inverse=True)
    distinct = (lams[first], back)
    charts = [(lams, slice(None)) if F.tangent[0].any() else distinct for *_, F in present]
    vals = _ft_facets([F for *_, F in present], lams, charts)
    out = np.zeros((2, len(pairs), lams.shape[0]), dtype=complex)
    for (i, side, _), v in zip(present, vals):
        out[side, i] = v
    return out[0], out[1]


def _boundary_residuals(bodies, lams: np.ndarray) -> list[np.ndarray]:
    """G of each body at the rows of lams (n, d) by the boundary route: the
    sum over its G facets F (_axis_facets) of <e1, n_F> ft_facet_measure(F),
    in facet order; zeros for an empty or degenerate body."""
    rests = [_axis_facets(Q)[2] for Q in bodies]
    vals = iter(_ft_facets([F for rest in rests for F in rest], lams))
    return [sum((F.normal[0] * next(vals) for F in rest), np.zeros(lams.shape[0], dtype=complex))
            for rest in rests]


def _axis_residuals(bodies, lams: np.ndarray):
    """(ft, sigma_A, sigma_B, G) of each body at the rows of lams (n, d), as
    (len(bodies), n) arrays: the indicator transform, the axis facet
    transforms and the axis-route residual G = -2*pi*i*lam_1*ft + sigma_A -
    sigma_B."""
    sa, sb = axis_sigmas(bodies, lams)
    ft = _ft_indicators(bodies, lams)
    return ft, sa, sb, -2j * np.pi * lams[:, 0] * ft + sa - sb


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
        vals = _boundary_residuals([Q], lams)[0]
    else:
        vals = _axis_residuals([Q], lams)[3][0]
    return complex(vals[0]) if one else vals


@dataclass(frozen=True)
class ConeScanParams:
    """Grid for the cone constant: log-spaced axial frequencies and uniform
    cross-section fractions."""

    r0: float = 10.0
    r1: float = 200.0
    n_radial: int = 64
    n_cross: int = 16

    def cross_fractions(self) -> np.ndarray:
        return np.linspace(-1.0, 1.0, self.n_cross)


@dataclass(frozen=True)
class ConeBound:
    """sup over the scan of |lam_1| * |G_t(lam)| with its attaining point."""

    value: float
    arg_t: np.ndarray
    arg_lam: np.ndarray
    min_sin_theta: float


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


def _ball_cone_constant(bodies, shifts: np.ndarray, omega: float,
                        params: ConeScanParams = ConeScanParams()) -> ConeBound:
    """Numeric constant C with |G(lam)| <= C / |lam_1| on the scanned cone
    for every body, the translates (in frame coordinates) at the rows of
    shifts.

    Takes the first maximum of |lam_1| * |G(lam)| in (shift, lam) order from
    boundary-route residual batches over blocks of bodies, with the smallest
    angle seen between a scanned direction and a normal of the G facets
    (_axis_facets), whose rows the batches hold. Raises ConeTooWide when a
    scanned direction is within GEOM_TOL of such a normal.
    """
    d = shifts.shape[1]
    lam_grid = cone_lambda_grid(d, omega, params)
    min_sin = 1.0
    rows = []  # (facet x frequency) rows of each body's residual
    for Q in bodies:
        normals = np.array([F.normal for F in _axis_facets(Q)[2]]).reshape(-1, d)
        along = (lam_grid @ normals.T)[:, :, None] * normals
        sins = (np.linalg.norm(lam_grid[:, None, :] - along, axis=2)
                / np.linalg.norm(lam_grid, axis=1)[:, None])
        low = float(sins.min(initial=1.0))
        if low < GEOM_TOL:
            raise ConeTooWide(f"scanned direction parallel to a facet normal "
                              f"(min sin theta = {low:.3e})")
        min_sin = min(min_sin, low)
        rows.append(normals.shape[0] * lam_grid.shape[0])
    best = (-1.0, 0, 0)
    for blk in _runs(rows, _BODY_ROWS):
        g = np.array(_boundary_residuals(bodies[blk], lam_grid)).reshape(-1, lam_grid.shape[0])
        vals = np.abs(lam_grid[:, 0]) * np.abs(g)
        i, k = np.unravel_index(int(np.argmax(vals)), vals.shape)
        if vals[i, k] > best[0]:
            best = (float(vals[i, k]), blk.start + int(i), int(k))
    value, i, k = best
    return ConeBound(value, shifts[i].copy(), lam_grid[k].copy(), min_sin)


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
        line = ",".join(["%.17g"] * (self.points.shape[1] + 3)) + "\n"
        for lo in range(0, len(self.values), 4096):
            rows = zip(self.points[lo:lo + 4096].tolist(), self.values[lo:lo + 4096].tolist())
            # Python's complex abs, as a numpy scalar's: np.abs of an array
            # differs from it in the last bit
            fh.write("".join(line % (*row, val.real, val.imag, abs(val)) for row, val in rows))

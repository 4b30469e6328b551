"""Fourier transforms of polytope indicators and facet surface measures.

The indicator transform uses the exact simplex formula

    integral over T of exp(-2*pi*i*<lam, x>) dx
        = d! * vol(T) * divdiff(exp; i*y_0, ..., i*y_d),   y_j = -2*pi*<lam, v_j>,

where divdiff is the divided difference of exp over the nodes. Every exact
transform passes its real phase rows y, one per (frequency, simplex) pair, to
the kernel ``divdiff_exp``, which checks them once a call and splits regimes
as McCurdy, Ng and Parlett (Math. Comp. 43, 1984) do: windows of nodes spread
at most 1 take a mean-shifted series, the others the recurrence. Against
60-digit mpmath the worst relative error measured is 2.3e-15. A row is computed
elementwise, so it has the same bits in any batch, and the transforms of many
bodies or facets share one batch of rows, ``_ft_simplices`` on stacked arrays.

The evaluators read translate families (polytope.Family) at member indices.
Indicator transforms are family transforms ``transform(parts, lams, n)`` of
(family, members) parts, each member with its run of frequency rows: the exact
``_ft_members`` and the oracle ``_quad_members``, both fed by gabor's one walk
over time shifts. Facet transforms (``axis_sigmas``, ``_boundary_residuals``)
take a family's chart rows, each applying its tangent once for all members.
``ft_indicator``, ``ft_indicator_quadrature``, ``ft_facet_measure`` and
``divergence_residual`` are one-member cases. One cutter, ``_runs``, splits
consecutive items by a row budget: node rows reach the kernel in runs of at
most _CHUNK_ROWS rows, and members reach a batch in runs of at most _BODY_ROWS
(member x frequency) rows, so a certificate stage costs one batch per run.

The independent oracle is a deterministic midpoint rule over a member's
bounding box that reads only its rows, offsets and vertices; it sums the grid
row by row in closed form, and its values keep their bits in any batch.
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
    Family,
    HPolytope,
    _reduce,
    ball_directions,
    ball_grid,
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


def _phase_rows(y) -> tuple[np.ndarray, bool]:
    """Finite real phase rows (n, k+1), and whether one 1-D row was given."""
    if np.iscomplexobj(y) or not np.isfinite(y := np.asarray(y, dtype=float)).all():
        raise ValueError("divided-difference phases must be real and finite")
    one = y.ndim == 1
    return y.reshape(1 if one else -1, y.shape[-1]), one


def divdiff_exp_series(y):
    """Divided difference of exp over each row of nodes i*y, y real (n, k+1),
    by the mean-shifted series; a 1-D row returns a complex. With m the mean
    of y and h_j the complete homogeneous polynomials (in real arithmetic),

        divdiff = exp(i*m) * sum_j i^j h_j(y - m) / (j + k)!.

    For nodes within r <= 1 of their mean term j is at most r^j / (j! k!)
    while |divdiff| >= cos(1) / k!, so _SERIES_TERMS = 20 terms leave a
    relative tail below 1e-18; against 60-digit mpmath the worst relative
    error measured for 2-5 nodes is 2.3e-15.
    """
    y, one = _phase_rows(y)
    out = _series(y)
    return complex(out[0]) if one else out


def _series(y: np.ndarray) -> np.ndarray:
    """divdiff_exp_series of checked phase rows y (n, k+1)."""
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
    return np.exp(1j * mean) * (part[0] + 1j * part[1])


def divdiff_exp_direct(z: np.ndarray) -> complex:
    """Classic divided-difference table for exp, no confluency handling."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    table = np.exp(z)
    n = z.size
    for level in range(1, n):
        table = (table[1:] - table[:-1]) / (z[level:] - z[: n - level])
    return complex(table[0])


def divdiff_exp(y):
    """Divided differences of exp over each row of nodes i*y, y real phases
    (n, k+1) checked once a call; a 1-D row returns a complex. The table is
    filled level by level over windows of the sorted row: a window of spread
    at most 1 takes the series of divdiff_exp_series, any other the
    recurrence, which then divides by a gap above 1."""
    y, one = _phase_rows(y)
    y = np.sort(y, axis=1)
    table = np.exp(1j * y)
    for lv in range(1, y.shape[1]):
        gap = y[:, lv:] - y[:, :-lv]
        small = gap <= 1.0
        table = (table[:, 1:] - table[:, :-1]) / (1j * np.where(small, 1.0, gap))
        if small.any():
            table[small] = _series(np.lib.stride_tricks.sliding_window_view(y, lv + 1, axis=1)[small])
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
        terms[lam - run.start, k] = vols[cell] * divdiff_exp(-2 * np.pi * y)
        acc = vals[run]
        for j in range(terms.shape[1]):
            acc += terms[:, j]
    return vals


def _ft_members(parts, lams: np.ndarray, n) -> np.ndarray:
    """ft_indicator of the members js of each (family, js) of parts, member
    by member, where member i has n[i] of the frequency rows lams (N, d) in
    order: the exact family transform. The family gather V[j][cells()] of
    every member goes to _ft_simplices in runs of at most _BODY_ROWS (member
    x frequency) rows."""
    simps = [F.V[js][:, F.cells()] for F, js in parts]
    simp = np.concatenate([sp.reshape(-1, *sp.shape[2:]) for sp in simps])
    m = np.concatenate([np.full(sp.shape[0], sp.shape[1]) for sp in simps])
    first, ends = np.cumsum(m) - m, np.cumsum(n)
    vals = np.zeros(lams.shape[0], dtype=complex)
    for run in _runs(n, _BODY_ROWS):
        rows = slice(ends[run.start] - n[run.start], ends[run.stop - 1])
        part = simp[first[run.start]:first[run.start] + m[run].sum()]
        vals[rows] = _ft_simplices(part, m[run], lams[rows], n[run])
    return vals


def _ft_indicators(F: Family, js, lams: np.ndarray) -> np.ndarray:
    """ft_indicator of the members js of the family F at the frequency rows
    lams (n, d), as a (len(js), n) array: the shared-frequency case of
    _ft_members."""
    k = F.members[js].size
    return _ft_members([(F, js)], np.tile(lams, (k, 1)), np.full(k, lams.shape[0])).reshape(k, -1)


def _one_member(evaluate, P: HPolytope, lams: np.ndarray) -> np.ndarray:
    """evaluate(F, [j], lams) of the body P, member j of its family F, as
    one row; zeros for an empty or degenerate P, which has no family."""
    if P.empty or P.degenerate:
        return np.zeros(lams.shape[0], dtype=complex)
    F, j = P._member
    return evaluate(F, [j], lams)[0]


def ft_indicator(P: HPolytope, lam):
    """Fourier transform of the indicator of P at each row of lam (n, d); a
    1-D lam returns a complex: the one-member case of _ft_indicators."""
    lams, one = _freqs(lam, P.dim)
    vals = _one_member(_ft_indicators, P, lams)
    return complex(vals[0]) if one else vals


def ft_indicator_quadrature(P: HPolytope, lam, n_per_axis: int):
    """Midpoint-rule oracle for ft_indicator at each row of lam (n, d); a 1-D
    lam returns a complex: the one-member case of _quad_members."""
    if n_per_axis < 2:
        raise ValueError("n_per_axis must be >= 2")
    lams, one = _freqs(lam, P.dim)
    vals = _one_member(lambda F, js, lams: _quad_members([(F, js)], lams, [lams.shape[0]],
                                                         n_per_axis)[None], P, lams)
    return complex(vals[0]) if one else vals


def _quad_members(parts, lams: np.ndarray, n, n_per_axis: int) -> np.ndarray:
    """The values of _ft_members by the midpoint-rule oracle, n_per_axis
    points per axis, from each member j's arrays F.A, F.B[j] and F.V[j].

    The deterministic grid of grid^d midpoints (grid = n_per_axis) over a
    member's bounding box is summed row by row along the last axis. On a
    convex body the midpoints of a row that pass the inside test A x <= b +
    1e-12 form an index interval, and the exp sum over an interval is a
    closed geometric series, so each frequency costs grid^(d-1) row terms. A run of _QUAD_CHUNK rows finds its
    intervals once for all frequencies; each frequency then sums its terms
    alone, one pairwise sum of a contiguous array, so a value has the same
    bits in any batch.
    """
    vals = np.zeros(lams.shape[0], dtype=complex)
    members = [(F, j) for F, js in parts for j in np.arange(F.members.size)[js]]
    for (F, j), end, size in zip(members, np.cumsum(n), n):
        out, lam = vals[end - size:end], lams[end - size:end]
        lo, hi = F.V[j].min(axis=0), F.V[j].max(axis=0)
        d, grid = F.A.shape[1], n_per_axis
        h = (hi - lo) / grid
        # the row sum over k = 0..L-1 of q^k with q = exp(-2 pi i theta) only
        # depends on theta mod 1, so it is taken at phi = theta - rint(theta)
        theta = lam[:, -1] * h[-1]
        phi = theta - np.rint(theta)
        n_rows = grid ** (d - 1)
        for start in range(0, n_rows, _QUAD_CHUNK):
            rows = np.arange(start, min(start + _QUAD_CHUNK, n_rows))
            idx = np.unravel_index(rows, (grid,) * (d - 1)) if d > 1 else ()
            idx = np.array(idx, dtype=np.int64).T.reshape(rows.size, d - 1)
            X = lo[:-1] + (idx + 0.5) * h[:-1]
            first, count = _midpoint_intervals(F.A, F.B[j], lo, h, grid, X)
            X, first, count = X[count > 0], first[count > 0], count[count > 0]
            x0 = lo[-1] + (first + 0.5) * h[-1]
            for f, (lam_f, phi_f) in enumerate(zip(lam, phi)):
                phase = X @ lam_f[:-1] + x0 * lam_f[-1]
                series = count * np.sinc(phi_f * count) / np.sinc(phi_f)
                out[f] += (np.exp(-2j * np.pi * phase - 1j * np.pi * phi_f * (count - 1))
                           * series).sum()
        out *= float(np.prod(h))
    return vals


def _midpoint_intervals(A, b, lo, h, n, X):
    """(first index, count) of the midpoints of each row at front coordinates X
    (rows, d-1) along the last axis that pass A x <= b + 1e-12.

    The ends come from the row's linear bounds and are then moved until the
    inside test itself holds at both ends and fails just beyond them, so the
    interval holds exactly the points the test admits.
    """
    front = A[:, :-1] @ X.T  # (halfspace, row): reductions run over axis 0
    a, lim = A[:, -1:], b[:, None] + 1e-12

    def inside(m):
        return np.all(front + a * (lo[-1] + (m + 0.5) * h[-1]) <= lim, axis=0)

    slack = lim - front
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = (slack / a - lo[-1]) / h[-1] - 0.5
    up = np.where(a > 0, bound, np.inf).min(axis=0)
    down = np.where(a < 0, bound, -np.inf).max(axis=0)
    blocked = np.any((a == 0) & (slack < 0), axis=0)
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


def _ft_charts(charts, lams: np.ndarray) -> list[np.ndarray]:
    """ft_facet_measure of stacked facets at the frequency rows lams (n, d),
    one (s, n) array per chart (T, origins (s, d), simplices (s, m, d, d-1))
    of s facets whose hyperplanes share the tangent basis T, which is applied
    to lams once for all of them; one divided-difference batch. The
    fixed-order sum <lam, T> of _dot starts with lam_1 * T[0], which adds +-0
    to +0 when T's first row is exactly zero (the framed normals +-e1): such
    a chart is applied at the distinct rows of lams[:, 1:] only, with the
    bits of every row, and each row takes its own phase."""
    phases = [np.exp(-2j * np.pi * _dot(lams, origins.T)).T for _, origins, _ in charts]
    if lams.shape[1] == 1 or not charts:
        return phases
    if not all(T[0].any() for T, _, _ in charts):
        _, first, back = np.unique(lams[:, 1:], axis=0, return_index=True, return_inverse=True)
    rows = [(lams, slice(None)) if T[0].any() else (lams[first], back) for T, _, _ in charts]
    ys = [_dot(r, T) for (r, _), (T, _, _) in zip(rows, charts)]
    s = [origins.shape[0] for _, origins, _ in charts]
    vals = _ft_simplices(np.concatenate([simp.reshape(-1, *simp.shape[2:]) for *_, simp in charts]),
                         np.repeat([simp.shape[1] for *_, simp in charts], s),
                         np.concatenate([np.tile(y, (k, 1)) for y, k in zip(ys, s)]),
                         np.repeat([y.shape[0] for y in ys], s))
    vals = np.split(vals, np.cumsum([y.shape[0] * k for y, k in zip(ys, s)])[:-1])
    return [p * v.reshape(k, -1)[:, back] for p, v, k, (_, back) in zip(phases, vals, s, rows)]


def ft_facet_measure(F: Facet, lams):
    """Fourier transform of the facet surface measure at each row of lams
    (n, d); a 1-D lam returns a complex.

    Parameterizes the facet isometrically by its tangent chart and reduces to
    the (d-1)-dimensional transform of its simplices times the hyperplane
    phase: the one-facet case of _ft_charts.
    """
    lams, one = _freqs(lams, F.dim)
    if F.volume_dm1 <= 0:
        raise DegenerateFacet("facet has zero surface volume")
    vals = _ft_charts([(F.tangent, F.origin[None], F.simplices[None])], lams)[0][0]
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


def _axis_rows(F: Family) -> tuple[int | None, int | None, list[int]]:
    """Family.axis_rows (A, B, G); FrameMismatch when neither A nor B is."""
    if F.axis_rows[:2] == (None, None):
        raise FrameMismatch("no facet pair normalized to the frame axis")
    return F.axis_rows


def _ft_rows(F: Family, js, rows, lams: np.ndarray) -> list[np.ndarray]:
    """ft_facet_measure of the facets of the members js of F on each chart
    row of rows at lams (n, d), one (len(js), n) array a row, zeros for a
    row None; the charts go to one _ft_charts batch."""
    vals = iter(_ft_charts([(T, origin[js], simp[js]) for _, T, _, origin, simp, _, _
                            in (F.charts[r] for r in rows if r is not None)], lams))
    return [np.zeros((F.members[js].size, lams.shape[0]), dtype=complex) if r is None
            else next(vals) for r in rows]


def _member_runs(fams, rows: int) -> list[tuple[Family, slice]]:
    """(family, members) runs through the families fams: consecutive members
    of one family, at most _BODY_ROWS rows a run at rows rows a member."""
    return [(F, run) for F in fams for run in _runs([rows] * F.members.size, _BODY_ROWS)]


def axis_sigmas(F: Family, js, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sigma_A, sigma_B) of the members js of the family F:
    ft_facet_measure of their facets on the axis rows (normals -e1 and +e1)
    at the rows of lams (n, d), as two (len(js), n) arrays, zeros where a
    row is absent; FrameMismatch when the family has neither."""
    return tuple(_ft_rows(F, js, _axis_rows(F)[:2], lams))


def _boundary_residuals(F: Family, js, lams: np.ndarray) -> np.ndarray:
    """G of the members js of the family F at the rows of lams (n, d) by the
    boundary route, a (len(js), n) array: the sum over its G rows
    (_axis_rows), in row order, of <e1, n> ft_facet_measure."""
    g = _axis_rows(F)[2]
    out = np.zeros((F.members[js].size, lams.shape[0]), dtype=complex)
    for r, v in zip(g, _ft_rows(F, js, g, lams)):
        out += F.A[F.charts[r][0], 0] * v
    return out


def _axis_residuals(F: Family, js, lams: np.ndarray):
    """(ft, sigma_A, sigma_B, G) of the members js of the family F at the
    rows of lams (n, d), as (len(js), n) arrays: the indicator transform,
    the axis facet transforms and the axis-route residual G =
    -2*pi*i*lam_1*ft + sigma_A - sigma_B."""
    sa, sb = axis_sigmas(F, js, lams)
    ft = _ft_indicators(F, js, lams)
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
    ft_facet_measure(F). ``via_boundary`` selects that equivalent route: the
    one-member case of _boundary_residuals, else of _axis_residuals.
    """
    Q = apply_frame(P_t, frame)
    lams, one = _freqs(lams, Q.dim)
    vals = _one_member(_boundary_residuals if via_boundary
                       else lambda *args: _axis_residuals(*args)[3], Q, lams)
    return complex(vals[0]) if one else vals


@dataclass(frozen=True)
class ConeScanParams:
    """Grid for the cone constant: log-spaced axial frequencies and the
    cone's cross sections (cross_section)."""

    r0: float = 10.0
    r1: float = 200.0
    n_radial: int = 64
    n_cross: int = 16

    def cross_section(self, dim: int, omega: float) -> np.ndarray:
        """The rows u, |u| <= omega, of the cone frequencies lam1 * (1, u):
        u = () in 1-d, n_cross uniform fractions of omega in 2-d, and in 3-d
        and 4-d the ball_grid directions at omega and omega / 2, and u = 0."""
        if dim == 1:
            return np.zeros((1, 0))
        if dim == 2:
            return omega * np.linspace(-1.0, 1.0, self.n_cross)[:, None]
        dirs = ball_grid(dim - 1, 1.0, self.n_cross, 1)[1:]
        return np.concatenate([omega * dirs, 0.5 * omega * dirs, np.zeros((1, dim - 1))])

    def cross_rows(self, dim: int) -> int:
        """len(cross_section(dim, omega)), counted without building it."""
        if dim == 1:
            return 1
        if dim == 2:
            return self.n_cross
        return 2 * ball_directions(dim - 1, self.n_cross) + 1


@dataclass(frozen=True)
class ConeBound:
    """sup over the scan of |lam_1| * |G_t(lam)| with its attaining point."""

    value: float
    arg_t: np.ndarray
    arg_lam: np.ndarray
    min_sin_theta: float


def cone_lambda_grid(dim: int, omega: float, params: ConeScanParams) -> np.ndarray:
    """Frequencies lam = lam1 * (1, u), u in params.cross_section, lam1 log-spaced."""
    lam1 = np.geomspace(params.r0, params.r1, params.n_radial)
    cross = params.cross_section(dim, omega)
    r = np.repeat(lam1, cross.shape[0])[:, None]
    return np.concatenate([r, r * np.tile(cross, (lam1.size, 1))], axis=1)


def _ball_cone_constant(fams, shifts: np.ndarray, omega: float,
                        params: ConeScanParams = ConeScanParams()) -> ConeBound:
    """Numeric constant C with |G(lam)| <= C / |lam_1| on the scanned cone
    for every translate (in frame coordinates) at the rows of shifts, whose
    families fams hold the translates; a shift in no family (an empty or
    degenerate translate) has G = 0.

    Takes the first maximum of |lam_1| * |G(lam)| in (shift, lam) order from
    boundary-route residual batches over runs of family members, with the
    least sine of the angle between the cone |lam'| <= omega lam_1 and a unit
    G-row normal n = (n_1, n') (_axis_rows), (|n'| - omega |n_1|) / sqrt(1 +
    omega^2), 1.0 with no G row. Raises ConeTooWide when that sine is at most
    GEOM_TOL, naming omega_max = min |n'| / |n_1|.
    """
    d = shifts.shape[1]
    normals = np.concatenate([np.zeros((0, d))] + [
        F.A[[F.charts[r][0] for r in _axis_rows(F)[2]]] for F in fams])
    tails, heads = np.linalg.norm(normals[:, 1:], axis=1), np.abs(normals[:, 0])
    min_sin = float(((tails - omega * heads) / math.sqrt(1 + omega ** 2)).min(initial=1.0))
    if min_sin <= GEOM_TOL:
        raise ConeTooWide(f"the cone |lam'| <= {omega} lam_1 holds a facet normal (signed sin "
                          f"theta {min_sin:.3e}); omega_max = {float(np.min(tails / heads))}")
    lam_grid = cone_lambda_grid(d, omega, params)
    # each shift's first maximum over the grid, 0 at lam index 0 for G = 0
    best, arg = np.zeros(shifts.shape[0]), np.zeros(shifts.shape[0], dtype=np.intp)
    for F in fams:
        for run in _runs([len(F.axis_rows[2]) * lam_grid.shape[0]] * F.members.size, _BODY_ROWS):
            vals = np.abs(lam_grid[:, 0]) * np.abs(_boundary_residuals(F, run, lam_grid))
            k = np.argmax(vals, axis=1)
            best[F.members[run]], arg[F.members[run]] = vals[np.arange(k.size), k], k
    i = int(np.argmax(best))
    return ConeBound(float(best[i]), shifts[i].copy(), lam_grid[arg[i]].copy(), min_sin)


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

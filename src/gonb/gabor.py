"""STFT of indicator windows, time-frequency diagnostics, non-vanishing
certificates, and orthogonality-violation searches.

For a window g = vol(P)^(-1/2) * indicator(P) the short-time Fourier
transform reduces to

    V(t, lam) = vol(P)^{-1} * ft_indicator(P intersect (P + t), lam),

so every check in this module runs on exact polytope transforms. Certificate
quantities (eps, delta, R, eta, C) live in the normalized axis frame that
maps the witness facet pair onto {y_1 = 0} and {y_1 = 1}; the frame is part
of the certificate so regions can be mapped back.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificateMismatch,
    MarginVanished,
    ParseError,
    ScanFailure,
    SymmetricInput,
    TooFewPoints,
    ZeroVolumeWindow,
)
from .fourier import (
    AxisFrame,
    ConeBound,
    ConeScanParams,
    apply_frame,
    axis_sigmas,
    cone_constant,
    ft_indicator,
    ft_indicator_many,
    ft_indicator_quadrature_many,
)
from .polytope import (
    Facet,
    GEOM_TOL,
    HPolytope,
    ball_grid,
    facet_gap,
    is_symmetric,
    tangent_basis,
    translate_intersection,
    volume,
)

TOL_ZERO = 1e-9
# Time-frequency coordinates are bounded so that the difference keys
# rint(D * KEY_SCALE) stay exact in int64 and in float64 (|key| <= 2e15 < 2^53).
COORD_BOUND = 1e6
KEY_SCALE = 1e9
# Size bounds, checked before the arrays they bound are allocated: the
# candidate grid of a lattice truncation, the ordered pairs a pair search
# visits, the per-column difference key tables of the dedup (one entry per
# pair of distinct coordinate values) and the per-chunk distinct differences
# it merges. Z^4 in [-3,3]^4 needs 6,561 candidates, 5,762,400 pairs, 196
# table entries and 128,613 differences to merge.
MAX_LATTICE_CANDIDATES = 1 << 20
MAX_PAIRS = 1 << 23
MAX_KEY_TABLE = 1 << 22
MAX_DIFFS = 1 << 20
_INT64_MAX = int(np.iinfo(np.int64).max)


# ---------------------------------------------------------------------------
# time-frequency sets
# ---------------------------------------------------------------------------


def check_coordinates(values: np.ndarray, what: str) -> None:
    """Raise ParseError unless every coordinate is finite with |x| <= COORD_BOUND."""
    if not np.all(np.isfinite(values)):
        raise ParseError(f"{what} coordinates must be finite")
    if np.any(np.abs(values) > COORD_BOUND):
        raise ParseError(f"{what} coordinates must satisfy |x| <= {COORD_BOUND:g}")


def check_scale(value: float, what: str) -> float:
    """Raise ParseError unless a positive parameter (a radius, an aperture, a
    frame scale) lies in [1 / COORD_BOUND, COORD_BOUND]; return it."""
    if not 1 / COORD_BOUND <= value <= COORD_BOUND:
        raise ParseError(f"{what} must lie in [{1 / COORD_BOUND:g}, {COORD_BOUND:g}], "
                         f"got {value!r}")
    return value


@dataclass(frozen=True, eq=False)
class TimeFrequencyPoint:
    t: np.ndarray
    lam: np.ndarray

    def as_row(self) -> np.ndarray:
        return np.concatenate([self.t, self.lam])


@dataclass(frozen=True, eq=False)
class TimeFrequencySet:
    """Finite candidate set in R^{2d}: rows are (t_1..t_d, lam_1..lam_d)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] % 2 != 0:
            raise ValueError("points must be rows of even length 2d")
        check_coordinates(pts, "time-frequency point")
        uniq = np.unique(np.round(pts, 12), axis=0)
        if uniq.shape[0] != pts.shape[0]:
            raise ValueError("duplicate time-frequency point")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def d(self) -> int:
        return self.points.shape[1] // 2

    def __len__(self) -> int:
        return self.points.shape[0]

    def point(self, i: int) -> TimeFrequencyPoint:
        row = self.points[i]
        return TimeFrequencyPoint(row[: self.d].copy(), row[self.d:].copy())


def lattice_points(basis, shift, lo, hi) -> np.ndarray:
    """Points of {basis @ k + shift : k integer} inside the box [lo, hi]."""
    B = np.asarray(basis, dtype=float)
    n = B.shape[0]
    shift = np.asarray(shift, dtype=float).reshape(n)
    lo = np.asarray(lo, dtype=float).reshape(n)
    hi = np.asarray(hi, dtype=float).reshape(n)
    try:
        Binv = np.linalg.inv(B)
    except np.linalg.LinAlgError as exc:
        raise ParseError("lattice basis must be invertible") from exc
    corners = np.array(list(np.ndindex(*(2,) * n)))
    xs = np.where(corners == 0, lo, hi)
    ks = (xs - shift) @ Binv.T
    klo = np.floor(ks.min(axis=0)) - 1
    khi = np.ceil(ks.max(axis=0)) + 1
    candidates = math.prod((khi - klo + 1).tolist())
    if not candidates <= MAX_LATTICE_CANDIDATES:
        raise ParseError(f"lattice truncation needs {candidates:.3g} candidate points, "
                         f"more than {MAX_LATTICE_CANDIDATES}")
    ranges = [np.arange(a, b + 1) for a, b in zip(klo.astype(int), khi.astype(int))]
    grid = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, n)
    pts = grid @ B.T + shift
    inside = np.all((pts >= lo - 1e-9) & (pts <= hi + 1e-9), axis=1)
    return pts[inside]


def check_pair_count(m: int) -> None:
    """Raise ParseError when the m(m-1) ordered pairs of m points exceed MAX_PAIRS."""
    if m * (m - 1) > MAX_PAIRS:
        raise ParseError(f"{m} time-frequency points give {m * (m - 1)} ordered pairs, "
                         f"more than {MAX_PAIRS}")


# ---------------------------------------------------------------------------
# STFT of an indicator window
# ---------------------------------------------------------------------------


def stft_indicator(P: HPolytope, t, lam) -> complex:
    """V(t, lam) = vol(P)^{-1} * ft_indicator(P intersect (P+t), lam)."""
    vol = volume(P)
    if vol <= GEOM_TOL:
        raise ZeroVolumeWindow("window polytope has zero volume")
    Q = translate_intersection(P, t)
    if Q.empty or Q.degenerate:
        return 0.0 + 0.0j
    return complex(ft_indicator(Q, lam) / vol)


def stft_indicator_quadrature(P: HPolytope, t, lam, n_per_axis: int) -> complex:
    """Independent midpoint-rule evaluation of the same STFT value."""
    vol = volume(P)
    if vol <= GEOM_TOL:
        raise ZeroVolumeWindow("window polytope has zero volume")
    Q = translate_intersection(P, t)
    if Q.empty or Q.degenerate:
        return 0.0 + 0.0j
    lam = np.asarray(lam, dtype=float).reshape(1, P.dim)
    return complex(ft_indicator_quadrature_many(Q, lam, n_per_axis)[0] / vol)


# ---------------------------------------------------------------------------
# set diagnostics
# ---------------------------------------------------------------------------


def separation(L: TimeFrequencySet) -> float:
    """Minimum pairwise distance in R^{2d} (uniform-discreteness diagnostic)."""
    pts = L.points
    m = pts.shape[0]
    if m < 2:
        raise TooFewPoints("separation needs at least two points")
    best = math.inf
    for i in range(m - 1):
        dist = np.linalg.norm(pts[i + 1:] - pts[i], axis=1)
        best = min(best, float(dist.min()))
    return best


def covering_radius(L: TimeFrequencySet, box, grid_n: int) -> float:
    """Max over a deterministic grid of ``box`` of the distance to the nearest
    point of L (relative-density diagnostic; upper-bounds the largest empty
    ball centered on the grid)."""
    lo, hi = (np.asarray(v, dtype=float) for v in box)
    n = lo.size
    axes = [np.linspace(lo[k], hi[k], grid_n) for k in range(n)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    pts = L.points
    worst = 0.0
    chunk = 4096
    for start in range(0, grid.shape[0], chunk):
        g = grid[start:start + chunk]
        d2 = ((g[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        worst = max(worst, float(np.sqrt(d2.min(axis=1)).max()))
    return worst


# ---------------------------------------------------------------------------
# orthogonality checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ViolationReport:
    """A pair of candidate points whose STFT difference value is nonzero."""

    pair: tuple[TimeFrequencyPoint, TimeFrequencyPoint]
    value: complex
    abs_value: float
    confirmed: bool | None = None


def _lex_codes(ranks: list[np.ndarray], radices: list[int]) -> np.ndarray:
    """One int64 per row, ordered like the rows of the rank columns.

    Column c holds ranks in range(radices[c]); the columns are packed in mixed
    radix, and the running code is re-ranked densely whenever the next step
    could overflow int64.
    """
    code = ranks[0].astype(np.int64)
    size = radices[0]
    for r, n in zip(ranks[1:], radices[1:]):
        if size * n > _INT64_MAX:
            uniq, code = np.unique(code, return_inverse=True)
            size = uniq.size
        code = code * n + r
        size *= n
    return code


def _unique_signed_diffs(pts: np.ndarray, pairs_per_chunk: int = 1 << 18):
    """Distinct nonzero pair differences up to sign (first nonzero > 0).

    Differences are compared through the integer keys rint(D * 1e9), the same
    equivalence as rounding to 9 decimals. Returns the rounded differences in
    lexicographic order and, for each, the generating ordered pair (i, j)
    with points[i] - points[j] equal to it and the smallest i.
    """
    m, k = pts.shape
    check_pair_count(m)
    values = [np.unique(pts[:, c], return_inverse=True) for c in range(k)]
    entries = sum(u.size ** 2 for u, _ in values)
    if entries > MAX_KEY_TABLE:
        raise ParseError(f"the difference key tables of the {m} time-frequency points "
                         f"need {entries} entries, more than {MAX_KEY_TABLE}")
    cols = []  # per column: point value index, rank table of the keys, keys
    for u, idx in values:
        keys, rank = np.unique(np.rint((u[:, None] - u) * KEY_SCALE).astype(np.int64),
                               return_inverse=True)
        # ranks stay below m^2, within int32 for any table that fits in memory
        cols.append((idx, rank.reshape(u.size, u.size).astype(np.int32), keys))
    radices = [keys.size for _, _, keys in cols]
    zeros = [int(np.searchsorted(keys, 0)) for _, _, keys in cols]
    step = max(1, pairs_per_chunk // m)
    parts = []
    n_parts = 0
    for start in range(0, m, step):
        rows = slice(start, min(start + step, m))
        R = [rank[idx[rows]][:, idx].ravel() for idx, rank, _ in cols]
        # ordered pairs whose first nonzero key is positive
        positive = np.zeros(R[0].size, dtype=bool)
        open_ = np.ones(R[0].size, dtype=bool)
        for r, z in zip(R, zeros):
            positive |= open_ & (r > z)
            open_ &= r == z
        flat = np.flatnonzero(positive)
        R = [r[flat] for r in R]
        _, first = np.unique(_lex_codes(R, radices), return_index=True)
        n_parts += first.size
        if n_parts > MAX_DIFFS:
            raise ParseError(f"the {m} time-frequency points give more than "
                             f"{MAX_DIFFS} pair differences to merge")
        parts.append((np.stack([r[first] for r in R]), start * m + flat[first]))
    R = np.concatenate([p[0] for p in parts], axis=1)
    flat = np.concatenate([p[1] for p in parts])
    # chunks run in increasing i, so the first occurrence has the smallest i
    _, first = np.unique(_lex_codes(list(R), radices), return_index=True)
    diffs = np.stack([keys[r[first]] for r, (_, _, keys) in zip(R, cols)], axis=1)
    i, j = np.divmod(flat[first], m)
    return diffs / KEY_SCALE, i, j


def check_orthogonality(P: HPolytope, L: TimeFrequencySet,
                        tol_zero: float = TOL_ZERO, *, max_reports: int = 64,
                        confirm: bool = True, quad_n: int = 2000) -> list[ViolationReport]:
    """Test mutual orthogonality of the Gabor system of (P, L) on the truncation.

    Evaluates V(v - v') over all ordered pairs v != v' (deduplicated by
    difference vector rounded to 9 decimals; |V| is symmetric under sign flip)
    and reports the differences with |V| > tol_zero, each with its generating
    pair of smallest first index and the value at that pair's difference. An empty list means mutual orthogonality
    holds on the truncation. At most ``max_reports`` violations are returned,
    largest |V| first selection, sorted lexicographically by (t, lam); each is
    re-confirmed against the quadrature oracle when it is large enough for the
    oracle to resolve.
    """
    vol = volume(P)
    if vol <= GEOM_TOL:
        raise ZeroVolumeWindow("window polytope has zero volume")
    d = L.d
    if d != P.dim:
        raise ValueError("time-frequency set dimension mismatch")
    _, first, second = _unique_signed_diffs(L.points)
    # each distinct difference is evaluated at the exact difference of its
    # generating pair, grouped by time shift: one translate intersection per
    # shift, and one batched transform where the intersection has volume
    W = L.points[first] - L.points[second]
    shifts, inverse = np.unique(W[:, :d], axis=0, return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    ends = np.cumsum(np.bincount(inverse))
    values = np.zeros(W.shape[0], dtype=complex)
    for t, members in zip(shifts, np.split(order, ends[:-1])):
        Q = translate_intersection(P, t)
        if Q.empty or Q.degenerate:
            continue
        # each part divided by vol, as a complex / float division does
        values[members] = (ft_indicator_many(Q, W[members, d:]).view(float) / vol).view(complex)
    hits = [(k, complex(values[k])) for k in np.flatnonzero(np.abs(values) > tol_zero)]
    hits.sort(key=lambda h: -abs(h[1]))
    hits = hits[:max_reports]
    reports = []
    for k, val in hits:
        ok: bool | None = None
        if confirm:
            ok = _confirm_violation(P, W[k, :d], W[k, d:], val, quad_n)
        reports.append(ViolationReport((L.point(first[k]), L.point(second[k])),
                                       complex(val), abs(val), ok))
    reports.sort(key=lambda r: tuple(np.concatenate([r.pair[0].as_row(),
                                                     r.pair[1].as_row()])))
    return reports


def _confirm_violation(P, t, lam, val, quad_n) -> bool | None:
    """Two-evaluator agreement; None when below the oracle's resolution."""
    if abs(val) < 1e-3:
        return None
    q = stft_indicator_quadrature(P, t, lam, quad_n)
    return abs(q - val) <= 0.3 * abs(val) + 1e-3


# ---------------------------------------------------------------------------
# the non-vanishing certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertificateScanParams:
    lambda_max: float = 200.0
    n_lambda1: int = 48
    n_cross: int = 15
    n_t_angles: int = 8
    n_t_radii: int = 2
    cone_n_radial: int = 64
    cone_n_cross: int = 16
    delta_init: float = 0.5
    max_halvings: int = 14
    tol_zero: float = TOL_ZERO
    symmetry_tol: float = 1e-9


@dataclass(frozen=True, eq=False)
class CertificateProvenance:
    window_hash: str
    n_scan_points: int
    n_t: int
    n_lambda: int
    min_sigma_gap: float
    max_axial_residual: float
    min_chain_slack: float
    cone: ConeBound
    min_abs_point: tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True, eq=False)
class NonZeroCertificate:
    """Numeric realization (eps, delta, R, omega, eta, C) of the non-vanishing
    region S(2*delta) minus B_R for translate radius eps, all in frame
    coordinates; min_abs_scanned is the smallest |V| seen on the verify scan."""

    eps: float
    delta: float
    R: float
    omega: float
    eta: float
    C: float
    frame: AxisFrame
    min_abs_scanned: float
    provenance: CertificateProvenance

    def __post_init__(self):
        fields = (self.eps, self.delta, self.R, self.omega, self.eta, self.C)
        if not (np.all(np.isfinite(fields)) and min(fields) >= 0 and self.R > 0):
            raise ValueError("certificate fields must be finite and non-negative, R > 0")
        if not (self.eta - self.C / self.R > 0):
            raise ValueError("certificate violates eta - C/R > 0")
        if not (self.min_abs_scanned > 0):
            raise ValueError("certificate requires min_abs_scanned > 0")


def window_fingerprint(P: HPolytope) -> str:
    blob = np.round(np.column_stack([P.A, P.b]), 10).tobytes()
    return hashlib.sha256(blob + bytes([P.dim])).hexdigest()


def build_axis_frame(P: HPolytope, F: Facet, G: Facet | None) -> AxisFrame:
    """Frame mapping facet F onto {y_1 = 0} and its parallel G onto {y_1 = 1}.

    First basis column is the inward direction -n_F; the scale is the slab
    width between the two supporting hyperplanes (support width when G is
    absent)."""
    u1 = -F.normal
    if G is not None:
        s = F.offset + G.offset
    else:
        heights = (P.vertex_array() - F.origin) @ u1
        s = float(heights.max())
    U = np.column_stack([u1, tangent_basis(u1)])
    return AxisFrame(F.origin, U, float(s))


def _axis_gap_profile(Qt: HPolytope, transverse: np.ndarray) -> np.ndarray:
    """Phase-robust lower bound | |sigma_A| - |sigma_B| | on the cylinder
    cross-section (independent of the axial frequency)."""
    d = Qt.dim
    lams = np.concatenate([np.zeros((transverse.shape[0], 1)), transverse], axis=1) \
        if d > 1 else np.zeros((transverse.shape[0], 1))
    sa, sb = axis_sigmas(Qt, lams)
    return np.abs(np.abs(sa) - np.abs(sb))


def _transverse_grid(d: int, radius: float, n_cross: int) -> np.ndarray:
    if d == 1:
        return np.zeros((1, 0))
    if d == 2:
        return np.linspace(-radius, radius, n_cross)[:, None]
    return ball_grid(d - 1, radius, n_cross, max(1, n_cross // 4))


def build_certificate(P: HPolytope, eps: float, omega: float,
                      params: CertificateScanParams = CertificateScanParams()
                      ) -> NonZeroCertificate:
    """Construct and verify the non-vanishing certificate for window P.

    ``eps`` is the translate-ball radius in original coordinates; certificate
    fields are stated in the witness frame (eps_frame = eps / scale).
    Pipeline: witness frame -> margin eta over the translate grid -> cylinder
    radius delta by halving until the facet-transform gap stays >= eta ->
    cone constant C -> R = max(2C/eta, cone entry radius) -> direct scan of
    |V| over (|t| <= eps) x (S(2 delta) \\ B_R, |lam_1| <= lambda_max), with
    (eta, C, R) tightened to the scan observations.
    """
    vol_p = volume(P)
    if vol_p <= GEOM_TOL:
        raise ZeroVolumeWindow("window polytope has zero volume")
    rep = is_symmetric(P, tol=params.symmetry_tol)
    if rep.symmetric or rep.witness is None:
        raise SymmetricInput("window is symmetric; the certificate needs a "
                             "non-symmetric facet pair")
    F, G = rep.witness
    frame = build_axis_frame(P, F, G)
    Q = apply_frame(P, frame)
    vol_q = volume(Q)
    d = P.dim
    eps_f = float(eps) / frame.scale
    e1 = np.zeros(d)
    e1[0] = 1.0

    tgrid = ball_grid(d, eps_f, params.n_t_angles, params.n_t_radii)
    Qts = [translate_intersection(Q, t) for t in tgrid]
    eta = min(facet_gap(Qt, -e1, e1) for Qt in Qts)
    if eta <= 1e-12:
        raise MarginVanished(f"facet-volume margin vanished inside |t| <= {eps}")

    # shrink the cylinder until the facet-transform gap stays at the margin,
    # then adopt the sampled cylinder minimum as the certified eta (so the
    # "gap >= eta on S(2 delta)" statement holds exactly on the sample)
    delta = params.delta_init
    for _ in range(params.max_halvings):
        tr = _transverse_grid(d, 2 * delta * (1 - 1e-9), params.n_cross)
        worst = min(float(_axis_gap_profile(Qt, tr).min()) for Qt in Qts)
        if worst >= 0.9 * eta:
            break
        delta *= 0.5
    else:
        raise ScanFailure("no cylinder radius achieved the sampled margin")
    eta = min(eta, worst)
    if eta <= 1e-12:
        raise MarginVanished("facet-transform gap collapsed on the cylinder")

    entry = 2 * delta * math.sqrt(1.0 + 1.0 / omega ** 2)
    cone = cone_constant(
        Q, AxisFrame.identity(d), omega,
        ConeScanParams(r0=max(0.95 * 2 * delta / omega, 1e-3), r1=params.lambda_max,
                       n_radial=params.cone_n_radial, n_cross=params.cone_n_cross,
                       t_radius=eps_f, n_t_angles=params.n_t_angles,
                       n_t_radii=params.n_t_radii),
    )
    C = cone.value
    R = max(2.0 * C / eta, entry)

    tr = _transverse_grid(d, 2 * delta * (1 - 1e-6), params.n_cross)
    for _attempt in range(4):
        if R * 1.000001 >= params.lambda_max:
            raise ScanFailure("region entry radius exceeds the frequency truncation")
        lam1 = np.geomspace(R * 1.000001, params.lambda_max, params.n_lambda1)
        lams = np.concatenate(
            [np.repeat(lam1, tr.shape[0])[:, None],
             np.tile(tr, (lam1.shape[0], 1))], axis=1)
        min_abs = math.inf
        min_gap = math.inf
        max_l1g = 0.0
        min_abs_at = (tgrid[0], lams[0])
        abs_vals_by_t = []
        for t, Qt in zip(tgrid, Qts):
            if Qt.empty or Qt.degenerate:
                raise ScanFailure("translate intersection vanished inside the ball")
            vals = ft_indicator_many(Qt, lams) / vol_q
            sa, sb = axis_sigmas(Qt, lams)
            g = -2j * np.pi * lams[:, 0] * (vals * vol_q) + sa - sb
            gap = np.abs(np.abs(sa) - np.abs(sb))
            l1g = np.abs(lams[:, 0]) * np.abs(g)
            k = int(np.argmin(np.abs(vals)))
            if abs(vals[k]) < min_abs:
                min_abs = float(abs(vals[k]))
                min_abs_at = (t.copy(), lams[k].copy())
            min_gap = min(min_gap, float(gap.min()))
            max_l1g = max(max_l1g, float(l1g.max()))
            abs_vals_by_t.append(np.abs(vals))
        eta_new = min(eta, min_gap)
        C_new = max(C, max_l1g)
        if eta_new <= 1e-12:
            raise MarginVanished("facet-transform gap collapsed on the cylinder")
        R_new = max(2.0 * C_new / eta_new, entry)
        eta, C = eta_new, C_new
        if R_new <= R * (1 + 1e-9):
            break
        R = R_new
    else:
        raise ScanFailure("certificate parameters did not stabilize")

    if min_abs <= params.tol_zero:
        raise ScanFailure(
            f"|V| = {min_abs:.3e} at a scanned point; parameters falsified")

    # pointwise chain slack: |V| >= (eta - C/l1) / (2 pi vol l1), guaranteed
    # once eta <= every sigma gap and C >= every |l1 G| on the scan
    bound = (eta - C / lams[:, 0]) / (2 * np.pi * vol_q * lams[:, 0])
    slack = min(float((av - bound).min()) for av in abs_vals_by_t)

    prov = CertificateProvenance(
        window_fingerprint(P), int(len(tgrid) * lams.shape[0]), len(tgrid),
        int(lams.shape[0]), float(min_gap), float(max_l1g), float(slack), cone,
        min_abs_at,
    )
    return NonZeroCertificate(eps_f, float(delta), float(R), float(omega),
                              float(eta), float(C), frame, float(min_abs), prov)


# ---------------------------------------------------------------------------
# violation search driven by a certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NotFound:
    """Search exhaustion record: how many ordered pairs survived each filter."""

    n_pairs: int
    n_time_close: int
    n_in_cylinder: int
    n_beyond_radius: int
    message: str


def find_violation_pair(P: HPolytope, L: TimeFrequencySet,
                        cert: NonZeroCertificate):
    """Search L for a pair landing in the certificate region and return its
    (necessarily nonzero) STFT value; NotFound carries the filter statistics.

    Pair condition in frame coordinates: |t - t'| < eps and lam - lam' in
    S(2*delta) \\ B_R.
    """
    if window_fingerprint(P) != cert.provenance.window_hash:
        raise CertificateMismatch("certificate was built for a different window")
    frame = cert.frame
    Q = apply_frame(P, frame)
    vol_q = volume(Q)
    d = P.dim
    pts = L.points
    m = pts.shape[0]
    check_pair_count(m)
    T = (pts[:, :d] @ frame.basis) / frame.scale
    Lam = frame.scale * (pts[:, d:] @ frame.basis)
    n_time = n_cyl = n_rad = 0
    for i in range(m):
        dt = T[i] - T
        dl = Lam[i] - Lam
        near = np.linalg.norm(dt, axis=1) < cert.eps
        near[i] = False
        n_time += int(near.sum())
        if not near.any():
            continue
        trans = np.linalg.norm(dl[:, 1:], axis=1) < 2 * cert.delta
        cyl = near & trans
        n_cyl += int(cyl.sum())
        far = cyl & (np.linalg.norm(dl, axis=1) > cert.R)
        n_rad += int(far.sum())
        for j in np.flatnonzero(far):
            Qt = translate_intersection(Q, dt[j])
            val = complex(ft_indicator(Qt, dl[j]) / vol_q) \
                if not (Qt.empty or Qt.degenerate) else 0.0
            if abs(val) > TOL_ZERO:
                return ViolationReport((L.point(i), L.point(int(j))), val,
                                       abs(val), None)
            raise ScanFailure(
                "certificate region contained a vanishing pair; parameters "
                "falsified")
    return NotFound(m * (m - 1), n_time, n_cyl, n_rad,
                    "no pair reached the certificate region")

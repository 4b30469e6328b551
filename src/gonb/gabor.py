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
from typing import NamedTuple

import numpy as np

from .errors import (
    CertificateMismatch,
    MarginVanished,
    ParseError,
    ScanFailure,
    SymmetricInput,
    ZeroVolumeWindow,
)
from .fourier import (
    AxisFrame,
    ConeBound,
    ConeScanParams,
    _axis_residuals,
    _ball_cone_constant,
    _freqs,
    _ft_members,
    _member_runs,
    _quad_members,
    apply_frame,
    axis_sigmas,
)
from .polytope import (
    Facet,
    GEOM_TOL,
    HPolytope,
    _translate_intersections,
    _vertex_groups,
    ball_grid,
    is_symmetric,
    tangent_basis,
    volume,
)

TOL_ZERO = 1e-9
# Midpoint-rule points per axis of the oracle that confirms a violation.
QUAD_N = 2000
# Time-frequency coordinates are bounded so that the difference keys
# rint(D * KEY_SCALE) stay exact in int64 and in float64 (|key| <= 2e15 < 2^53).
COORD_BOUND = 1e6
KEY_SCALE = 1e9
# Size bounds, checked before the arrays they bound are allocated: the
# candidate grid of a lattice truncation, the ordered pairs a pair search
# visits, the per-column difference key tables of the dedup (one entry per
# pair of distinct coordinate values), and both the dedup's code table and
# the per-chunk distinct differences its sort path merges. Z^4 in [-3,3]^4
# needs 6,561 candidates, 5,762,400 pairs, 196 key-table entries and a
# 28,561-code table.
MAX_LATTICE_CANDIDATES = 1 << 20
MAX_PAIRS = 1 << 23
MAX_KEY_TABLE = 1 << 22
MAX_DIFFS = 1 << 20
# Pairs a dedup chunk holds at once, and (group pair, row of A) products a
# slab of the time-class test holds.
PAIRS_PER_CHUNK = 1 << 18
# Time shifts an orthogonality check intersects at once: the translates of a
# block are built, transformed and dropped before the next block.
SHIFT_BLOCK = 1 << 12
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
class TimeFrequencySet:
    """Finite candidate set in R^{2d}: rows are (t_1..t_d, lam_1..lam_d)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] % 2 != 0:
            raise ValueError("points must be rows of even length 2d")
        check_coordinates(pts, "time-frequency point")
        # rows equal after rounding to 12 decimals (-0.0 == 0.0) are adjacent
        # once the rounded rows are sorted
        r = np.round(pts, 12)
        r = r[np.lexsort(r.T)]
        if np.all(r[1:] == r[:-1], axis=1).any():
            raise ValueError("duplicate time-frequency point")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def d(self) -> int:
        return self.points.shape[1] // 2

    def __len__(self) -> int:
        return self.points.shape[0]


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


def _window_volume(P: HPolytope) -> float:
    """vol(P) of a window; ZeroVolumeWindow when it is at most GEOM_TOL."""
    vol = volume(P)
    if vol <= GEOM_TOL:
        raise ZeroVolumeWindow("window polytope has zero volume")
    return vol


def _per_volume(vals: np.ndarray, vol: float) -> np.ndarray:
    """Transform values divided by a volume part by part, as Python divides a
    complex by a float: every STFT value of this module passes through here."""
    return (np.asarray(vals, dtype=complex).view(float) / vol).view(complex)


def _stfts(P: HPolytope, shifts: np.ndarray, lams: np.ndarray, counts,
           transform) -> np.ndarray:
    """V(t, lam) = ft_indicator(P intersect (P + t), lam) / vol(P) at each row
    of lams (n, d), whose rows come grouped by shift: counts[g] consecutive
    rows belong to the row shifts[g] of shifts (s, d).

    One translate batch per SHIFT_BLOCK shifts: its live translates, family
    by family, go with their frequency rows to the family transform
    transform(parts, lams, n) (fourier._ft_members or _quad_members), one
    division by vol(P) per batch. An empty or degenerate translate is in no
    family and gives zeros. A transform is elementwise, so a row has the
    same bits in any batch.
    """
    vol = _window_volume(P)
    counts = np.asarray(counts)
    ends = np.cumsum(counts)
    vals = np.zeros(lams.shape[0], dtype=complex)
    for lo in range(0, shifts.shape[0], SHIFT_BLOCK):
        fams = _translate_intersections(P, shifts[lo:lo + SHIFT_BLOCK]).families
        if not fams:
            continue
        g = lo + np.concatenate([F.members for F in fams])
        n = counts[g]
        rows = np.repeat(ends[g] - np.cumsum(n), n) + np.arange(n.sum())
        vals[rows] = _per_volume(transform([(F, slice(None)) for F in fams], lams[rows], n), vol)
    return vals


def stft_indicator(P: HPolytope, t, lam):
    """V(t, lam) = vol(P)^{-1} * ft_indicator(P intersect (P+t), lam) for one
    shift t at each row of lam (n, d); a 1-D lam returns a complex."""
    _window_volume(P)
    lams, one = _freqs(lam, P.dim)
    vals = _stfts(P, np.reshape(t, (1, P.dim)), lams, [lams.shape[0]], _ft_members)
    return complex(vals[0]) if one else vals


def stft_indicator_quadrature(P: HPolytope, t, lam, n_per_axis: int):
    """Independent midpoint-rule evaluation of the same STFT values."""
    _window_volume(P)
    lams, one = _freqs(lam, P.dim)
    if n_per_axis < 2:  # an empty translate never reaches the oracle
        raise ValueError("n_per_axis must be >= 2")
    vals = _stfts(P, np.reshape(t, (1, P.dim)), lams, [lams.shape[0]],
                  lambda *batch: _quad_members(*batch, n_per_axis))
    return complex(vals[0]) if one else vals


# ---------------------------------------------------------------------------
# orthogonality checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ViolationReport:
    """A pair of candidate points, read-only rows (t, lam), whose STFT
    difference value V(v - v_prime) is nonzero."""

    v: np.ndarray
    v_prime: np.ndarray
    value: complex
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


def _live_blocks(window: HPolytope | None, cols: list, m: int, tables: list):
    """The pairs the dedup visits, as blocks (rows, live, time) of point
    indices: each row of a block is paired with each point of live, and time
    is None or, per live point, the time columns' part of the pairs' codes.

    Without a window one block holds all m^2 pairs. With a window the points
    are grouped by their time tuple (the value indices of the window's d
    time columns), and each group is one block. A group g meets the points
    of the groups h whose time class with it can meet: its time key kappa
    passes, for every row a of the window's A,

        |<a, kappa>| / KEY_SCALE - slack <= w(a),

    where w(a) is the width along a of the relaxed window
    {A x <= b + GEOM_TOL}, the tolerance within which _vertex_groups calls a
    vertex candidate feasible. A candidate x of the translate at shift t has
    A x <= min(b, b + A t) + GEOM_TOL, so x and x - t lie in the relaxed
    window and |<a, t>| <= w(a): a class that fails the test holds no pair
    whose translate is non-empty or degenerate. The slack bounds
    |<a, t - kappa / KEY_SCALE>| for every exact pair difference t of the
    class: per column, |t_c| <= 2 COORD_BOUND, so the product t_c * KEY_SCALE
    rounds by at most 2 COORD_BOUND KEY_SCALE 2^-53 < 1/4 and rint by 1/2,
    and |t_c - kappa_c / KEY_SCALE| < 1 / KEY_SCALE; a unit row a has
    |a|_1 <= d, which gives the first term, d / KEY_SCALE. The second,
    d 2 COORD_BOUND 2^-48, covers rounding: a sum of d products with factors
    |t_c| <= 2 COORD_BOUND is off by at most d^2 2 COORD_BOUND 2^-53 <=
    d 2 COORD_BOUND 2^-51 (d <= 4), and the term holds eight such errors,
    those of the translate's A t and A x, of the widths and of <a, kappa>
    here. _vertex_groups' own GEOM_TOL on the relaxed window only adds
    candidates, which widens w. The all-zero class always passes, so every
    coincident pair is visited.

    Of the live groups, g visits only those whose time code, the sum over
    the time columns c of tables[c][g_c, h_c], is not below the all-zero
    class's: the time columns are a code's most significant digits, so every
    pair of a lower class codes below the zero code, which the dedup never
    reads. The all-zero classes stay, so the coincidence check still sees
    every pair, and each live point's time code stands in for the gathers of
    the time columns.
    """
    everyone = np.arange(m)
    if window is None:
        return [(everyone, everyone, None)]
    d = window.dim
    A = window.A
    _, first, group = np.unique(
        np.ravel_multi_index([idx for idx, _, _ in cols[:d]],
                             [rank.shape[0] for _, rank, _ in cols[:d]]),
        return_index=True, return_inverse=True)
    times = np.stack([idx[first] for idx, _, _ in cols[:d]], axis=1)
    order = np.argsort(group, kind="stable")
    sizes = np.bincount(group)
    starts = np.cumsum(sizes) - sizes
    _, V = next(_vertex_groups(A, (window.b + GEOM_TOL)[None], d))
    reach = V[0] @ A.T
    width = reach.max(axis=0) - reach.min(axis=0)
    slack = d * (1 + 2 * COORD_BOUND * KEY_SCALE * 2.0 ** -48) / KEY_SCALE
    zero = sum(t[0, 0] for t in tables[:d])  # a table's diagonal holds the zero key
    n = times.shape[0]
    blocks = []
    # slabs of groups with at most PAIRS_PER_CHUNK (group pair, row of A) products
    step = max(1, PAIRS_PER_CHUNK // (n * A.shape[0]))
    for lo in range(0, n, step):
        g = np.arange(lo, min(lo + step, n))
        at = [np.ix_(times[g, c], times[:, c]) for c in range(d)]
        kappa = np.stack([keys[rank[i]] for i, (_, rank, keys) in zip(at, cols)], axis=-1)
        code = sum(t[i] for i, t in zip(at, tables))
        # the (group b, live group h) pairs whose time code is not below zero's
        b, h = np.nonzero(np.all(np.abs(kappa @ A.T) / KEY_SCALE - slack <= width, axis=-1)
                          & (code >= zero))
        # the points of the kept groups h, end to end, and their time codes
        lens = sizes[h]
        ends = np.cumsum(lens)
        points = order[np.repeat(starts[h] - ends + lens, lens) + np.arange(lens.sum())]
        time = np.repeat(code[b, h], lens)
        cuts = np.r_[0, ends][np.searchsorted(b, np.arange(g.size + 1))]
        blocks += [(order[starts[j]:starts[j] + sizes[j]], points[a:z], time[a:z])
                   for j, a, z in zip(g, cuts[:-1], cuts[1:])]
    return blocks


def _unique_signed_diffs(pts: np.ndarray, window: HPolytope | None = None):
    """Distinct nonzero pair differences up to sign (first nonzero > 0).

    Differences are compared through the integer keys rint(D * 1e9), the same
    equivalence as rounding to 9 decimals; two points whose difference has
    all keys zero are a ParseError. Returns, for each distinct difference in
    the lexicographic order of the rounded differences, its generating
    ordered pair (i, j) with the smallest i, as two index arrays.

    The code space, the product over columns of the number of distinct keys,
    numbers the key tuples in lexicographic order. When it holds at most
    MAX_DIFFS codes (lattice truncations: Z^4 in [-3,3]^4 has 28,561), one
    table keeps the least flat pair index i * m + j per code; a larger space
    (points in general position) sorts each chunk's codes, in increasing i,
    and merges them.

    With a window, the table path visits only the pairs whose time class can
    meet (_live_blocks) and drops the differences of the other classes,
    whose translates are surely empty; each time group's block skips the
    classes whose codes all lie below the zero code. On Z^4 in [-3,3]^4 and
    the unit square it visits 492,205 of the 5,764,801 pairs and keeps 760
    of the 14,280 differences. Every pair of a kept difference with a code
    above the zero code is visited, so it keeps its bits and its
    smallest-i pair. Without a window nothing is dropped.
    """
    m, k = pts.shape
    if m == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
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
    space = math.prod(radices)
    table = space <= MAX_DIFFS
    if table:
        # a pair's code is the sum of its column codes, and it is positive
        # (first nonzero key > 0) exactly when its code exceeds the zero code
        tables = [rank * math.prod(radices[c + 1:]) for c, (_, rank, _) in enumerate(cols)]
        zero = int(np.ravel_multi_index(zeros, radices))
        seen = np.full(space, m * m, dtype=np.int64)
    else:
        tables = [rank for _, rank, _ in cols]
    # the sort path's chunks run in increasing i over every pair
    blocks = _live_blocks(window if table else None, cols, m, tables)
    parts = []
    n_parts = 0
    coincident = m * m  # least flat index of a pair of distinct points with all keys zero
    for rows, live, time in blocks:
        # a block's time codes stand in for the gathers of the time columns
        gathered = slice(0 if time is None else window.dim, k)
        at = [idx[live] for idx, _, _ in cols[gathered]]
        step = max(1, PAIRS_PER_CHUNK // live.size)
        for start in range(0, rows.size, step):
            r = rows[start:start + step]
            pair = (r[:, None] * m + live).ravel()
            # take gathers the (r, live) block in C order, so ravel copies nothing
            R = (t[idx[r]].take(a, axis=1)
                 for t, (idx, _, _), a in zip(tables[gathered], cols[gathered], at))
            if table:
                code = sum(R, 0 if time is None else time).ravel()
                open_ = code == zero
            else:
                R = [c.ravel() for c in R]
                # ordered pairs whose first nonzero key is positive
                positive = np.zeros(pair.size, dtype=bool)
                open_ = np.ones(pair.size, dtype=bool)
                for c, z in zip(R, zeros):
                    positive |= open_ & (c > z)
                    open_ &= c == z
            same = pair[open_]
            same = same[same // m != same % m]
            if same.size:
                coincident = min(coincident, int(same.min()))
            if table:
                # negative pairs fill codes below the zero code, which are never read
                np.minimum.at(seen, code, pair)
                continue
            flat = np.flatnonzero(positive)
            R = [c[flat] for c in R]
            _, first = np.unique(_lex_codes(R, radices), return_index=True)
            n_parts += first.size
            if n_parts > MAX_DIFFS:
                raise ParseError(f"the {m} time-frequency points give more than "
                                 f"{MAX_DIFFS} pair differences to merge")
            parts.append((np.stack([c[first] for c in R]), pair[flat[first]]))
    # a pair of distinct points with all keys zero would drop out unseen
    if coincident < m * m:
        i, j = divmod(coincident, m)
        raise ParseError(f"time-frequency points {i} and {j} coincide at the 1e-9 "
                         f"resolution of pair differences")
    if table:
        flat = seen[zero + 1:]
        flat = flat[flat < m * m]
    else:
        R = np.concatenate([p[0] for p in parts], axis=1)
        flat = np.concatenate([p[1] for p in parts])
        # chunks run in increasing i, so the first occurrence has the smallest i
        _, first = np.unique(_lex_codes(list(R), radices), return_index=True)
        flat = flat[first]
    return np.divmod(flat, m)


def check_orthogonality(P: HPolytope, L: TimeFrequencySet,
                        tol_zero: float = TOL_ZERO, *, max_reports: int = 64,
                        confirm: bool = True) -> list[ViolationReport]:
    """Test mutual orthogonality of the Gabor system of (P, L) on the truncation.

    Evaluates V(v - v') over all ordered pairs v != v' (deduplicated by
    difference vector rounded to 9 decimals; |V| is symmetric under sign flip)
    and reports the differences with |V| > tol_zero, each with its generating
    pair of smallest first index and the value at that pair's difference.
    On the table path of _unique_signed_diffs, differences whose time class
    cannot meet P (see _live_blocks) are never formed: V is identically zero
    there; the sort path forms every pair. The table path also skips every
    pair whose time class is negative. An empty list means mutual
    orthogonality holds on the truncation. At most ``max_reports`` (at
    least 1) violations are returned, largest |V| first selection,
    sorted lexicographically by (t, lam); each is re-confirmed against the
    quadrature oracle when it is large enough for the oracle to resolve, by
    the values' walk over time shifts (_stfts) with the oracle's transform.
    """
    if max_reports < 1:
        raise ValueError(f"max_reports must be at least 1, got {max_reports!r}")
    _window_volume(P)
    d = L.d
    if d != P.dim:
        raise ValueError("time-frequency set dimension mismatch")
    first, second = _unique_signed_diffs(L.points, P)
    # each distinct difference is evaluated at the exact difference of its
    # generating pair
    W = L.points[first] - L.points[second]
    values = _by_shift(_ft_members, P, W)
    # only values near the max_reports-th largest |V| can be reported: the
    # margin covers np.abs's last-bit difference from the complex abs they sort by
    mags = np.abs(values)
    floor = np.partition(mags, -max_reports)[-max_reports] if mags.size > max_reports else 0.0
    keep = np.flatnonzero((mags > tol_zero) & (mags >= floor * (1 - 1e-15)))
    hits = sorted(((k, complex(values[k])) for k in keep), key=lambda h: -abs(h[1]))[:max_reports]
    oks = _confirm_violations(P, W, hits) if confirm else [None] * len(hits)
    reports = [ViolationReport(L.points[first[k]], L.points[second[k]], val, ok)
               for (k, val), ok in zip(hits, oks)]
    reports.sort(key=lambda r: tuple(np.concatenate([r.v, r.v_prime])))
    return reports


def _by_shift(transform, P: HPolytope, W: np.ndarray) -> np.ndarray:
    """_stfts by the family transform at the rows (t, lam) of W, in W's
    order: the rows go stably sorted by exact time shift, so each distinct
    shift is one run of rows."""
    d = P.dim
    shifts, inverse, counts = np.unique(W[:, :d], axis=0, return_inverse=True,
                                        return_counts=True)
    order = np.argsort(inverse, kind="stable")
    vals = np.empty(W.shape[0], dtype=complex)
    vals[order] = _stfts(P, shifts, W[order, d:], counts, transform)
    return vals


def _confirm_violations(P: HPolytope, W: np.ndarray, hits) -> list[bool | None]:
    """Two-evaluator agreement of each hit (k, value at row k of W) with the
    midpoint oracle's family transform, one _stfts walk over the hits' time
    shifts; None when below the oracle's resolution, and for every hit when
    the QUAD_N^(d-1) grid rows of a translate exceed QUAD_N^2 (d >= 4): the
    oracle's error is measured at QUAD_N points per axis only."""
    grid_ok = QUAD_N ** (P.dim - 1) <= QUAD_N ** 2
    big = [n for n, (_, val) in enumerate(hits) if abs(val) >= 1e-3 and grid_ok]
    oks: list[bool | None] = [None] * len(hits)
    qs = _by_shift(lambda *batch: _quad_members(*batch, QUAD_N), P, W[[hits[n][0] for n in big]])
    for n, q in zip(big, qs):
        val = hits[n][1]
        oks[n] = abs(complex(q) - val) <= 0.3 * abs(val) + 1e-3
    return oks


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


class ScanPoint(NamedTuple):
    """A point (t, lam) of the certificate's verify scan."""

    t: np.ndarray
    lam: np.ndarray


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
    min_abs_point: ScanPoint


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


def check_certificate_window(P: HPolytope, cert: NonZeroCertificate) -> None:
    """Raise CertificateMismatch unless cert was built for the window P."""
    if window_fingerprint(P) != cert.provenance.window_hash:
        raise CertificateMismatch("certificate was built for a different window")


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


def _axis_gap(fams, transverse: np.ndarray) -> float:
    """Least phase-robust lower bound | |sigma_A| - |sigma_B| | over the
    members of the translate families fams on the cylinder cross-section
    (independent of the axial frequency)."""
    lams = np.concatenate([np.zeros((transverse.shape[0], 1)), transverse], axis=1)
    runs = _member_runs(fams, lams.shape[0])
    return min(float(np.abs(np.abs(sa) - np.abs(sb)).min())
               for sa, sb in (axis_sigmas(F, run, lams) for F, run in runs))


def _verify_scan(fams, lams: np.ndarray, vol_q: float):
    """The verify scan of the translate families fams, which hold every shift
    of the ball, at the rows of lams, run by run of family members: the
    least sigma gap, the largest |lam_1| * |G|, the least |V| with the first
    shift and its first frequency index where it is taken, and the least |V|
    at each frequency over the shifts."""
    gaps, l1gs = [], []
    mins = np.zeros(sum(F.members.size for F in fams))
    ks = np.zeros(mins.size, dtype=np.intp)
    low = np.full(lams.shape[0], np.inf)
    for F, run in _member_runs(fams, lams.shape[0]):
        # rows are members, columns frequencies
        ft, sa, sb, g = _axis_residuals(F, run, lams)
        V = _per_volume(ft, vol_q)
        abs_v = np.abs(V)
        gaps.append(float(np.abs(np.abs(sa) - np.abs(sb)).min()))
        l1gs.append(float((np.abs(lams[:, 0]) * np.abs(g)).max()))
        # each member's first minimum as a complex abs (which can differ
        # from np.abs in the last bit), the value gonb stft reports there
        k = np.argmin(abs_v, axis=1)
        mins[F.members[run]] = [abs(complex(v)) for v in V[np.arange(k.size), k]]
        ks[F.members[run]] = k
        low = np.minimum(low, abs_v.min(axis=0))
    i = int(np.argmin(mins))
    return min(gaps), max(l1gs), mins[i], i, ks[i], low


def _transverse_grid(d: int, radius: float, n_cross: int) -> np.ndarray:
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
    _window_volume(P)
    rep = is_symmetric(P)
    if rep.symmetric or rep.witness is None:
        raise SymmetricInput("window is symmetric; the certificate needs a "
                             "non-symmetric facet pair")
    F, G = rep.witness
    frame = build_axis_frame(P, F, G)
    Q = apply_frame(P, frame)
    vol_q = volume(Q)
    d = P.dim
    eps_f = float(eps) / frame.scale

    tgrid = ball_grid(d, eps_f, params.n_t_angles, params.n_t_radii)
    fams = _translate_intersections(Q, tgrid).families
    # the least |vol A - vol B| of a translate's axis pair (Family.axis_rows;
    # a chart's sixth entry holds its members' volumes), an absent facet
    # counting 0; a shift in no family has neither
    vols = [[0.0 if r is None else fam.charts[r][5] for r in fam.axis_rows[:2]] for fam in fams]
    live = sum(fam.members.size for fam in fams) == len(tgrid)
    eta = min(float(np.abs(a - b).min()) for a, b in vols) if live else 0.0
    if eta <= 1e-12:
        raise MarginVanished(f"facet-volume margin vanished inside |t| <= {eps}")

    # shrink the cylinder from delta = 0.5, in at most 14 halvings, until the
    # facet-transform gap stays at the margin, then adopt the sampled cylinder
    # minimum as the certified eta (so the "gap >= eta on S(2 delta)"
    # statement holds exactly on the sample)
    delta = 0.5
    for _ in range(14):
        tr = _transverse_grid(d, 2 * delta * (1 - 1e-9), params.n_cross)
        worst = _axis_gap(fams, tr)
        if worst >= 0.9 * eta:
            break
        delta *= 0.5
    else:
        raise ScanFailure("no cylinder radius achieved the sampled margin")
    eta = min(eta, worst)
    if eta <= 1e-12:
        raise MarginVanished("facet-transform gap collapsed on the cylinder")

    entry = 2 * delta * math.sqrt(1.0 + 1.0 / omega ** 2)
    # C over the translate ball, every translate non-empty since eta > 0
    cone_params = ConeScanParams(r0=max(0.95 * 2 * delta / omega, 1e-3),
                                 r1=params.lambda_max, n_radial=params.cone_n_radial,
                                 n_cross=params.cone_n_cross)
    cone = _ball_cone_constant(fams, tgrid, omega, cone_params)
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
        min_gap, max_l1g, min_abs, i, k, low = _verify_scan(fams, lams, vol_q)
        min_abs_at = ScanPoint(tgrid[i].copy(), lams[k].copy())
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

    if min_abs <= TOL_ZERO:
        raise ScanFailure(
            f"|V| = {min_abs:.3e} at a scanned point; parameters falsified")

    # pointwise chain slack: |V| >= (eta - C/l1) / (2 pi vol l1), guaranteed
    # once eta <= every sigma gap and C >= every |l1 G| on the scan; the
    # bound only depends on the frequency, and subtracting it is monotone,
    # so the least |V| at each frequency gives the least slack to the bit
    bound = (eta - C / lams[:, 0]) / (2 * np.pi * vol_q * lams[:, 0])
    slack = float((low - bound).min())

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
    S(2*delta) \\ B_R; the value is V(v - v') in window coordinates, as
    check_orthogonality reports it.
    """
    check_certificate_window(P, cert)
    frame = cert.frame
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
            w = pts[i] - pts[j]
            val = stft_indicator(P, w[:d], w[d:])
            if abs(val) > TOL_ZERO:
                return ViolationReport(pts[i], pts[j], val)
            raise ScanFailure(
                "certificate region contained a vanishing pair; parameters "
                "falsified")
    return NotFound(m * (m - 1), n_time, n_cyl, n_rad,
                    "no pair reached the certificate region")

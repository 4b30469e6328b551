"""STFT, set diagnostics, certificates, and violation searches."""

import functools
import json
import math
import re
import time
from dataclasses import dataclass
from typing import NamedTuple

import mpmath
import numpy as np
import pytest

from gonb import (
    CertificateMismatch,
    CertificateScanParams,
    ConeScanParams,
    ConeTooWide,
    MarginVanished,
    NotFound,
    ParseError,
    ScanFailure,
    SymmetricInput,
    TimeFrequencySet,
    ZeroVolumeWindow,
    build_certificate,
    check_orthogonality,
    find_violation_pair,
    from_vertices,
    ft_indicator,
    lattice_points,
    normalize,
    stft_indicator,
    stft_indicator_quadrature,
    translate_intersection,
    triangulate,
    volume,
)
from gonb import fourier, gabor, polytope
from gonb.gabor import KEY_SCALE, TOL_ZERO, _unique_signed_diffs, build_axis_frame, window_fingerprint
from gonb.io import certificate_from_dict, certificate_to_dict, from_json, to_json
from gonb.polytope import _translate_intersections, is_symmetric

from conftest import (
    PENTAGON_VERTICES,
    _mp_divdiff_exp,
    ball_cone_bounds,
    certificate_hex,
    make_pentagon,
    make_unit_square,
    random_polygon,
)

SMALL_PARAMS = CertificateScanParams(n_lambda1=24, n_cross=9, cone_n_radial=32,
                                     cone_n_cross=8)


# -- STFT ----------------------------------------------------------------------


def test_stft_normalization_at_origin(pentagon, unit_square):
    assert stft_indicator(pentagon, (0, 0), (0, 0)) == pytest.approx(1.0, abs=1e-12)
    assert stft_indicator(unit_square, (0, 0), (0, 0)) == pytest.approx(1.0, abs=1e-12)


def test_stft_empty_overlap_is_zero(unit_square):
    assert stft_indicator(unit_square, (2.0, 0.0), (1.3, -0.4)) == 0.0


def test_stft_pentagon_square_overlap(pentagon):
    # overlap is the unit square, area normalization 1/3.5
    assert stft_indicator(pentagon, (-1.0, -1.0), (0.0, 0.0)) == pytest.approx(
        1 / 3.5, abs=1e-12
    )
    # and at integer frequencies the square transform vanishes
    assert abs(stft_indicator(pentagon, (-1.0, -1.0), (2.0, -1.0))) < 1e-12


def test_stft_zero_volume_window_raises(unit_square, pentagon):
    """Both STFT evaluators raise ZeroVolumeWindow on a degenerate window
    before any other check, and the oracle raises ValueError below two
    points per axis on a live translate and on an empty one (t = (5, 5))."""
    degenerate = translate_intersection(unit_square, (1.0, 0.0))
    with pytest.raises(ZeroVolumeWindow):
        stft_indicator(degenerate, (0, 0), (0, 0))
    for n in (2, 1):
        with pytest.raises(ZeroVolumeWindow):
            stft_indicator_quadrature(degenerate, (0, 0), (0, 0), n)
    for t in ((0.5, 0.5), (5.0, 5.0)):
        with pytest.raises(ValueError, match="n_per_axis must be >= 2"):
            stft_indicator_quadrature(pentagon, t, (1.0, 0.0), 1)


# float.hex (re, im) of the pentagon's stft_indicator_quadrature at QUAD_N
# points per axis, numpy 2.4.6 with Python 3.11.7 on x86-64 Linux; another
# numpy, BLAS or CPU may move the last bit
STFT_QUAD_BITS = [
    ((-0.3, 0.2), (1.5, -0.5), ("0x1.1e029ce1ec582p-6", "0x1.7d47c8575530bp-7")),
    ((1.0, -0.5), (0.25, 2.0), ("-0x1.a599f9fa5950ap-7", "0x1.a599ad3b274b7p-7")),
    ((-1.2, -0.7), (-3.0, 0.75), ("0x1.001fdbce2b188p-8", "-0x1.552bc48328e27p-8")),
]


def test_stft_indicator_quadrature_keeps_its_bits(pentagon):
    for t, lam, bits in STFT_QUAD_BITS:
        v = stft_indicator_quadrature(pentagon, t, lam, gabor.QUAD_N)
        assert (v.real.hex(), v.imag.hex()) == bits


def test_stft_covariance_and_bound():
    rng = np.random.default_rng(17)
    for _ in range(60):
        P = random_polygon(rng)
        t = rng.uniform(-0.6, 0.6, 2)
        lam = rng.uniform(-5, 5, 2)
        a = stft_indicator(P, -t, -lam)
        b = np.exp(-2j * np.pi * (lam @ t)) * np.conj(stft_indicator(P, t, lam))
        assert abs(a - b) <= 1e-10
        assert abs(stft_indicator(P, t, lam)) <= 1.0 + 1e-12


def test_stft_continuity_at_origin(pentagon):
    vol = volume(pentagon)
    for r in (0.5, 0.25, 0.1, 0.02):
        t = np.array([r, -r]) / math.sqrt(2)
        covered = volume(translate_intersection(pentagon, t))
        gap = abs(1 - stft_indicator(pentagon, t, (0, 0)))
        assert gap == pytest.approx((vol - covered) / vol, abs=1e-12)
    assert gap <= 0.05  # shrinks with |t|


def test_stft_quadrature_route_agrees(pentagon):
    val = stft_indicator(pentagon, (-0.3, 0.2), (1.5, -0.5))
    q = stft_indicator_quadrature(pentagon, (-0.3, 0.2), (1.5, -0.5), 800)
    assert abs(val - q) <= 2e-3


# -- time-frequency sets -------------------------------------------------------


def test_duplicate_points_rejected():
    with pytest.raises(ValueError):
        TimeFrequencySet(np.array([[0.0, 0, 0, 0], [0.0, 0, 0, 0]]))


def test_duplicate_rule_is_the_unique_rule():
    """A set is refused exactly when np.unique of its rows rounded to 12
    decimals has fewer rows: on random near-duplicate sets, with rows moved
    by about 1e-13 and coordinates set to +0.0 and -0.0."""
    rng = np.random.default_rng(5)
    refused = 0
    for _ in range(300):
        m = int(rng.integers(2, 12))
        pool = rng.integers(-1, 2, (6, 4)).astype(float)
        pts = pool[rng.integers(0, 6, m)]
        pts += rng.choice([0.0, 0.0, 1e-13, -4e-13, 6e-13], (m, 4))
        pts[rng.random((m, 4)) < 0.3] *= -1.0  # zeros become -0.0
        want = np.unique(np.round(pts, 12), axis=0).shape[0] != m
        try:
            TimeFrequencySet(pts)
            got = False
        except ValueError as exc:
            assert str(exc) == "duplicate time-frequency point"
            got = True
        assert got == want
        refused += got
    assert 50 < refused < 250
    with pytest.raises(ValueError, match="duplicate"):
        TimeFrequencySet(np.array([[0.0, 1, 0, 0], [-0.0, 1, 0, 0]]))


def test_lattice_points_sheared_unit_density():
    basis = np.eye(4)
    basis[2, 0] = 0.5
    pts = lattice_points(basis, np.zeros(4), [-2] * 4, [2] * 4)
    assert pts.shape[0] > 100
    # all lattice points satisfy lam1 - 0.5 t1 integer
    assert np.allclose(np.round(pts[:, 2] - 0.5 * pts[:, 0]) , pts[:, 2] - 0.5 * pts[:, 0])


# -- orthogonality checking ------------------------------------------------------


def test_square_small_lattice_orthogonal(unit_square):
    pts = lattice_points(np.eye(4), np.zeros(4), [-1] * 4, [1] * 4)
    out = check_orthogonality(unit_square, TimeFrequencySet(pts), 1e-9)
    assert out == []


def test_pentagon_small_lattice_violates(pentagon):
    pts = lattice_points(np.eye(4), np.zeros(4), [-1] * 4, [1] * 4)
    out = check_orthogonality(pentagon, TimeFrequencySet(pts), 1e-9, max_reports=6)
    assert len(out) > 0
    for rep in out:
        assert abs(rep.value) > 1e-9
        assert rep.confirmed in (True, None)
        assert not (rep.v.flags.writeable or rep.v_prime.flags.writeable)
        w = rep.v - rep.v_prime
        direct = stft_indicator(pentagon, w[:2], w[2:])
        assert direct == pytest.approx(rep.value, abs=1e-12)


# Lattice tiles: the lattice L by its basis (columns), the radius that holds
# the vectors of L whose bisectors bound its Voronoi cell, the radii of the
# set's time points in L and frequencies in L*, and the set's size.
TILES = {
    "hexagon": (np.array([[1.5, 0.0], [math.sqrt(3) / 2, math.sqrt(3)]]), math.sqrt(3),
                4.0, 4.0, 2413),
    "truncated octahedron": (np.array([[1, 0, 0.5], [0, 1, 0.5], [0, 0, 0.5]]), 1.0,
                             math.sqrt(2), 2.0, 513),
    "24-cell": (np.array([[1, -1, 0, 0], [1, 1, -1, 0], [0, 0, 1, -1], [0, 0, 0, 1]], float),
                math.sqrt(2), math.sqrt(2), 1.0, 625),
    "unit 4-cube": (np.eye(4), 1.0, 1.0, 1.0, 81),
}
# The largest |V| over the kept differences reads 6.3e-16, 1.2e-16, 2.0e-16
# and 4.5e-17 on the four tiles (numpy 2.4.6); the floor is 16 times the
# largest, and five decades below TOL_ZERO.
TILE_FLOOR = 1e-14


def _lattice_ball(B, r):
    """The points of the lattice with basis B (columns) within radius r."""
    pts = lattice_points(B, np.zeros(len(B)), [-r] * len(B), [r] * len(B))
    return pts[np.linalg.norm(pts, axis=1) <= r * (1 + 1e-12)]


@pytest.mark.parametrize("name", list(TILES))
def test_lattice_tiles_are_orthonormal(name):
    """The Voronoi cell P of a lattice L tiles by L, so it has the spectrum L*
    (Fuglede 1974) and its Gabor system over L x L* is orthonormal: every V
    there is exactly 0. P is the regular hexagon of circumradius 1, the
    truncated octahedron of the body-centred cubic lattice, the 24-cell of
    D4 and the unit 4-cube of Z^4: check_orthogonality reports nothing, and no kept difference reaches
    TILE_FLOOR."""
    B, r_cell, r_t, r_lam, size = TILES[name]
    d = len(B)
    P = normalize([(v, v @ v / 2) for v in _lattice_ball(B, r_cell) if v.any()], d)
    assert volume(P) == pytest.approx(abs(np.linalg.det(B)), abs=1e-12)
    T, lams = _lattice_ball(B, r_t), _lattice_ball(np.linalg.inv(B).T, r_lam)
    pts = np.concatenate([np.repeat(T, len(lams), axis=0), np.tile(lams, (len(T), 1))], axis=1)
    assert len(pts) == size
    assert check_orthogonality(P, TimeFrequencySet(pts)) == []
    first, second = _unique_signed_diffs(pts, P)
    values = gabor._by_shift(fourier._ft_members, P, pts[first] - pts[second])
    assert np.abs(values).max() < TILE_FLOOR


@pytest.mark.parametrize("name", ["float", "lattice"])
def test_check_orthogonality_values_are_per_difference_transforms(name, pentagon):
    """One batched transform per shift group gives, bit for bit, the value of
    one transform per difference, the evaluation it replaced."""
    if name == "float":
        pts = np.random.default_rng(12).uniform(-1.5, 1.5, (30, 4))
    else:
        pts = lattice_points(np.eye(4), np.zeros(4), [-1] * 4, [1] * 4)
    L = TimeFrequencySet(pts)
    out = check_orthogonality(pentagon, L, 1e-9, max_reports=10_000, confirm=False)
    first, second = _unique_signed_diffs(pts)
    expected = {}
    for i, j in zip(first, second):
        w = pts[i] - pts[j]
        Q = translate_intersection(pentagon, w[:2])
        val = 0.0 if Q.empty or Q.degenerate else ft_indicator(Q, w[2:]) / volume(pentagon)
        if abs(val) > 1e-9:
            expected[(i, j)] = val
    index = {tuple(p): k for k, p in enumerate(pts)}
    got = {(index[tuple(r.v)], index[tuple(r.v_prime)]): r.value
           for r in out}
    assert len(out) > 0 and got == expected


@pytest.mark.parametrize("m", [0, 1])
def test_single_point_no_pairs(m, pentagon):
    pts = np.zeros((m, 4))
    assert check_orthogonality(pentagon, TimeFrequencySet(pts), 1e-9) == []
    diffs, i, j = _dedup(pts)
    assert diffs.shape == (0, 4) and diffs.dtype == float
    assert i.shape == j.shape == (0,) and i.dtype == j.dtype == np.int64


# -- difference dedup ------------------------------------------------------------


def _dedup(pts: np.ndarray, window=None):
    """The rounded differences of _unique_signed_diffs' pairs, and the pairs."""
    i, j = _unique_signed_diffs(pts, window)
    return np.rint((pts[i] - pts[j]) * KEY_SCALE) / KEY_SCALE, i, j


def _reference_unique_signed_diffs(pts: np.ndarray, chunk: int = 400) -> np.ndarray:
    """Distinct nonzero pair differences up to sign (first nonzero > 0)."""
    m, k = pts.shape
    parts = []
    for start in range(0, m, chunk):
        D = (pts[start:start + chunk, None, :] - pts[None, :, :]).reshape(-1, k)
        D = np.round(D, 9)
        sgn = np.zeros(D.shape[0])
        for c in range(k):
            sgn = np.where(sgn == 0, np.sign(D[:, c]), sgn)
        nz = sgn != 0
        parts.append(np.unique(D[nz] * sgn[nz, None], axis=0))
    return np.unique(np.concatenate(parts, axis=0), axis=0)


def _smallest_first_index(pts: np.ndarray) -> dict:
    """Rounded difference -> smallest i of an ordered pair (i, j) generating it."""
    out = {}
    for i in range(pts.shape[0]):
        for row in np.round(pts[i] - pts, 9):
            out.setdefault(tuple(row), i)
    return out


def _straddling_points(rng, m: int, k: int, distinct: bool = True) -> np.ndarray:
    # offsets whose differences land on, just below and just above the
    # half-way points of the 1e-9 rounding grid; with ``distinct`` a point
    # whose difference from an earlier one rounds to zero in every column is
    # dropped, as the dedup refuses such a pair
    offsets = np.array([0.0, 0.5e-9, 1.5e-9, 2.5e-9, 0.5e-9 - 1e-15, 0.5e-9 + 1e-15])
    pts = rng.integers(-2, 3, (m, k)) + rng.choice(offsets, (m, k))
    if not distinct:
        return pts
    same = np.all(np.rint((pts[:, None] - pts[None]) * 1e9) == 0, axis=2)
    return pts[~np.any(np.tril(same, k=-1), axis=1)]


def _dedup_cases():
    rng = np.random.default_rng(7)
    shear = np.eye(4)
    shear[2, 0] = 0.5
    return {
        "integer": lattice_points(np.eye(4), np.zeros(4), [-2] * 4, [2] * 4),
        "sheared": lattice_points(shear, np.zeros(4), [-1] * 4, [1] * 4),
        "scaled": lattice_points(np.diag([2.0, 1.0, 0.5, 1.0]), np.zeros(4),
                                 [-1.5] * 4, [1.5] * 4),
        "random": rng.uniform(-2, 2, (200, 4)),
        "straddling": _straddling_points(rng, 150, 4),
        "d1": rng.uniform(-3, 3, (120, 2)),
        "d1_lattice": lattice_points(np.eye(2), np.zeros(2), [-4] * 2, [4] * 2),
        # radices of six random columns overflow int64: exercises re-ranking
        "d3": rng.uniform(-1, 1, (80, 6)),
        "d3_straddling": _straddling_points(rng, 60, 6),
        "single": np.zeros((1, 4)),
    }


@pytest.mark.parametrize("name", list(_dedup_cases()))
def test_unique_signed_diffs_matches_reference(name):
    pts = _dedup_cases()[name]
    diffs, i, j = _dedup(pts)
    assert np.array_equal(diffs, _reference_unique_signed_diffs(pts))
    # each difference carries its generating pair with the smallest i
    assert np.array_equal(np.round(pts[i] - pts[j], 9), diffs)
    smallest = _smallest_first_index(pts)
    assert [smallest[tuple(w)] for w in diffs] == list(i)


def _code_space(pts: np.ndarray) -> int:
    """Product over columns of the number of distinct rounded differences."""
    return math.prod(np.unique(np.round(u[:, None] - u, 9)).size
                     for u in (np.unique(col) for col in pts.T))


def _sort_calls(monkeypatch) -> list:
    """Count the calls of gabor._lex_codes, which only the sort path makes."""
    calls = []
    lex_codes = gabor._lex_codes

    def counted(*args):
        calls.append(1)
        return lex_codes(*args)

    monkeypatch.setattr(gabor, "_lex_codes", counted)
    return calls


@pytest.mark.parametrize("name", [name for name, pts in _dedup_cases().items()
                                  if _code_space(pts) <= gabor.MAX_DIFFS])
def test_unique_signed_diffs_table_and_sort_paths_agree(name, monkeypatch):
    pts = _dedup_cases()[name]
    sorts = _sort_calls(monkeypatch)
    table = _dedup(pts)
    assert not sorts
    # one code fewer than the space sends the same input through the sort path
    monkeypatch.setattr(gabor, "MAX_DIFFS", _code_space(pts) - 1)
    merged = _dedup(pts)
    assert sorts
    for a, b in zip(table, merged):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_unique_signed_diffs_refuses_points_closer_than_the_resolution():
    """A pair whose difference rounds to the all-zero key would drop out of
    the dedup and never be evaluated, so the set is refused instead, on the
    sort path and on the table path."""
    pts = _straddling_points(np.random.default_rng(2), 150, 4, distinct=False)  # one such pair
    with pytest.raises(ParseError, match="1e-9 resolution"):
        _unique_signed_diffs(pts)
    grid = lattice_points(np.eye(4), np.zeros(4), [-1] * 4, [1] * 4)
    near = np.vstack([grid, grid[40] + [0, 0, 0, 3e-10]])
    assert _code_space(near) <= gabor.MAX_DIFFS
    with pytest.raises(ParseError, match="points 40 and 81 coincide at the 1e-9 resolution"):
        _unique_signed_diffs(near)


def test_unique_signed_diffs_chunking_is_invisible(monkeypatch):
    # the straddling points take the sort path, the integer lattice the
    # table; with the pentagon each time group is a block
    cases = _dedup_cases()
    for pts, window in ((cases["straddling"], None), (cases["integer"], None),
                        (cases["sheared"], make_pentagon())):
        monkeypatch.setattr(gabor, "PAIRS_PER_CHUNK", pts.shape[0] ** 2)
        whole = _dedup(pts, window)
        monkeypatch.setattr(gabor, "PAIRS_PER_CHUNK", 1)
        pieces = _dedup(pts, window)
        for a, b in zip(whole, pieces):
            assert np.array_equal(a, b)


def _benchmark_sets():
    """The point sets of the orth-square and orth-pentagon workloads at seed 0,
    and 200 points in general position."""
    shear = np.eye(4)
    shear[2, 0] = 0.5
    return {
        "integer": lattice_points(np.eye(4), np.zeros(4), [-3] * 4, [3] * 4),
        "sheared": lattice_points(shear, np.zeros(4), [-2] * 4, [2] * 4),
        "scaled": lattice_points(np.diag([2.0, 1.0, 0.5, 1.0]), np.zeros(4),
                                 [-2] * 4, [2] * 4),
        "float": np.random.default_rng(0).uniform(-1.5, 1.5, (200, 4)),
    }


@pytest.mark.parametrize("name, space", [("integer", 28_561), ("sheared", 12_393),
                                         ("scaled", 6_885), ("float", None)])
def test_unique_signed_diffs_lattices_take_the_table_path(name, space, monkeypatch):
    pts = _benchmark_sets()[name]
    if space is None:
        assert _code_space(pts) > gabor.MAX_DIFFS
    else:
        assert _code_space(pts) == space
    sorts = _sort_calls(monkeypatch)
    _unique_signed_diffs(pts)
    assert bool(sorts) == (space is None)


def test_lattice_truncation_refused_before_allocation():
    # 2e6 + 3 candidates per axis: about 1.6e25 points, never built
    with pytest.raises(ParseError, match="candidate points"):
        lattice_points(np.eye(4), np.zeros(4), [-1e6] * 4, [1e6] * 4)
    with pytest.raises(ParseError, match="invertible"):
        lattice_points(np.zeros((2, 2)), np.zeros(2), [-1] * 2, [1] * 2)


def test_pair_and_key_table_bounds_refuse_before_allocation():
    m = math.isqrt(gabor.MAX_PAIRS) + 2
    many = np.zeros((m, 4))
    with pytest.raises(ParseError, match="ordered pairs"):
        _unique_signed_diffs(many)
    with pytest.raises(ParseError, match="ordered pairs"):
        gabor.check_pair_count(m)
    # 1,100 distinct values per column: 4 tables of 1.21M entries
    spread = np.random.default_rng(0).uniform(-3, 3, (1100, 4))
    with pytest.raises(ParseError, match="key tables"):
        _unique_signed_diffs(spread)


def test_merge_bound_refuses_before_the_merge(monkeypatch):
    pts = np.random.default_rng(1).uniform(-1, 1, (60, 2))
    n_diffs = _unique_signed_diffs(pts)[0].size  # 1,770: all distinct
    monkeypatch.setattr(gabor, "MAX_DIFFS", n_diffs)
    assert _unique_signed_diffs(pts)[0].size == n_diffs
    monkeypatch.setattr(gabor, "MAX_DIFFS", n_diffs - 1)
    with pytest.raises(ParseError, match="pair differences to merge"):
        _unique_signed_diffs(pts)


# -- the time-class prune ---------------------------------------------------------


def _cut_cube():
    cube = [(tuple(s * e), 1.0 if s > 0 else 0.0) for e in np.eye(3) for s in (1, -1)]
    return normalize(cube + [((1, 1, 0), 1.5)], 3)


def _prune_window(d: int):
    """A non-symmetric window of each dimension the dedup cases have."""
    return {1: normalize([((1,), 1.3), ((-1,), -0.2)], 1), 2: make_pentagon(),
            3: _cut_cube()}[d]


def _near_times():
    """Z^4 in [-1,1]^4 with 3e-10 added to the first time coordinate of the
    points whose second is -1: the time group (3e-10, -1) follows (0, 0),
    yet the time key of its class with (0, 0) is (0, -1), negative."""
    pts = lattice_points(np.eye(4), np.zeros(4), [-1] * 4, [1] * 4)
    pts[pts[:, 1] == -1, 0] += 3e-10
    return pts


def _prune_cases():
    """(window, points): every dedup case with the window of its dimension,
    the three workload lattices with their windows, random non-symmetric
    polygons on Z^4 in [-2,2]^4, the cut cube on Z^6 in [-1,1]^6, the unit
    square, whose time groups meet distinct groups, on a lattice with time
    groups 3e-10 apart, and the unit square scaled 10x on Z^4 in [-2,2]^4,
    where every time group meets every group."""
    cases = {f"dedup_{name}": (_prune_window(pts.shape[1] // 2), pts)
             for name, pts in _dedup_cases().items()}
    sets = _benchmark_sets()
    cases["integer"] = (make_unit_square(), sets["integer"])
    cases["sheared"] = (make_pentagon(), sets["sheared"])
    cases["scaled"] = (make_pentagon(), sets["scaled"])
    rng = np.random.default_rng(5)
    grid = lattice_points(np.eye(4), np.zeros(4), [-2] * 4, [2] * 4)
    for n in range(3):
        cases[f"polygon_{n}"] = (random_polygon(rng, scale=0.8), grid)
    cases["cut_cube_6"] = (_cut_cube(), lattice_points(np.eye(6), np.zeros(6), [-1] * 6, [1] * 6))
    cases["near_times"] = (make_unit_square(), _near_times())
    cases["wide_square"] = (normalize([((1, 0), 10), ((-1, 0), 0), ((0, 1), 10), ((0, -1), 0)], 2),
                            grid)
    return cases


def _recorded(monkeypatch) -> list:
    """Record the blocks of each call of gabor._live_blocks."""
    calls = []
    live_blocks = gabor._live_blocks

    def recorded(window, cols, m, tables):
        calls.append(live_blocks(window, cols, m, tables))
        return calls[-1]

    monkeypatch.setattr(gabor, "_live_blocks", recorded)
    return calls


def _pairs(blocks) -> int:
    return sum(rows.size * live.size for rows, live, _ in blocks)


def _visits(monkeypatch) -> list:
    """Record the pairs of each call of gabor._live_blocks' blocks."""
    visits = []
    live_blocks = gabor._live_blocks

    def counted(window, cols, m, tables):
        blocks = live_blocks(window, cols, m, tables)
        visits.append(_pairs(blocks))
        return blocks

    monkeypatch.setattr(gabor, "_live_blocks", counted)
    return visits


def _every_sign(monkeypatch) -> None:
    """Make gabor._live_blocks visit the mirror image of each of its pairs
    too, in blocks of one row point that gather every column: every live
    time class in both signs."""
    live_blocks = gabor._live_blocks

    def both(window, cols, m, tables):
        seen = np.zeros((m, m), dtype=bool)
        for rows, live, _ in live_blocks(window, cols, m, tables):
            seen[np.ix_(rows, live)] = True
        seen |= seen.T
        return [(np.array([i]), np.flatnonzero(row), None) for i, row in enumerate(seen)]

    monkeypatch.setattr(gabor, "_live_blocks", both)


@pytest.mark.parametrize("name", list(_prune_cases()))
def test_prune_drops_only_surely_empty_translates(name):
    """The window's dedup keeps rows of the dedup without one, with their
    bits, dtypes and pairs, and every difference it drops has an empty
    translate at its generating pair's exact difference."""
    P, pts = _prune_cases()[name]
    every = _dedup(pts)
    kept = _dedup(pts, P)
    index = {tuple(w): n for n, w in enumerate(every[0])}
    rows = [index[tuple(w)] for w in kept[0]]
    for a, b in zip(kept, every):
        assert a.dtype == b.dtype and np.array_equal(a, b[rows])
    dropped = np.setdiff1d(np.arange(every[0].shape[0]), rows)
    W = pts[every[1][dropped]] - pts[every[2][dropped]]
    shifts = np.unique(W[:, :P.dim], axis=0)
    assert not _translate_intersections(P, shifts).feasible.any()
    # float sets take the sort path, which keeps every pair, and the scaled
    # dedup case spans no more than the pentagon
    keep_all = {"dedup_random", "dedup_straddling", "dedup_d1", "dedup_d3",
                "dedup_d3_straddling", "dedup_single", "dedup_scaled", "wide_square"}
    assert (dropped.size == 0) == (name in keep_all)


def test_prune_visits_the_pairs_of_the_live_classes(unit_square, monkeypatch):
    """Z^4 in [-3,3]^4 with the unit square: of the 13^2 time shifts only
    those with both |t_c| <= 1 can meet, so a time group meets at most 9 of
    the 49 groups, 19^2 = 361 group pairs of 49^2 = 2,401 pairs each. Each
    group is one block and visits its 49 zero-class and 156 positive group pairs, not the 156 negative
    ones: (49 + 156) x 2,401 = 492,205 pairs, 361 x 2,401 = 866,761 in both
    signs. 760 differences of 14,280 and 5 distinct time shifts instead of
    85 are kept."""
    pts = _benchmark_sets()["integer"]
    visits = _visits(monkeypatch)
    diffs, _, _ = _dedup(pts, unit_square)
    everything, _, _ = _dedup(pts)
    assert visits == [492_205, 2401 ** 2]
    assert diffs.shape[0] == 760 and everything.shape[0] == 14_280
    assert np.unique(diffs[:, :2], axis=0).shape[0] == 5
    with monkeypatch.context() as mp:
        _every_sign(mp)
        both = _visits(mp)
        assert np.array_equal(_dedup(pts, unit_square)[0], diffs)
    assert both == [866_761]


def _report_rows(reports):
    return [(r.v.tolist(), r.v_prime.tolist(), r.value, r.confirmed) for r in reports]


@pytest.mark.parametrize("tol_zero", [1e-9, 1e-15])
def test_prune_keeps_check_orthogonality_reports(tol_zero, monkeypatch):
    """The reports are equal with every time class forced live."""
    cases = _prune_cases()
    live_blocks = gabor._live_blocks
    for name in ("integer", "sheared", "scaled", "polygon_0", "cut_cube_6"):
        P, pts = cases[name]
        L = TimeFrequencySet(pts)
        pruned = check_orthogonality(P, L, tol_zero, max_reports=10_000, confirm=False)
        with monkeypatch.context() as mp:
            mp.setattr(gabor, "_live_blocks",
                       lambda window, cols, m, tables: live_blocks(None, cols, m, tables))
            every = check_orthogonality(P, L, tol_zero, max_reports=10_000, confirm=False)
        assert _report_rows(pruned) == _report_rows(every)
        assert (len(pruned) > 0) == (name != "integer")


@pytest.mark.parametrize("windowed", [False, True])
@pytest.mark.parametrize("name", list(_prune_cases()))
def test_sign_skip_keeps_the_dedup(name, windowed, monkeypatch):
    """The dedup, whose blocks skip their negative time classes, returns the arrays of one that visits every live class in both signs."""
    P, pts = _prune_cases()[name]
    window = P if windowed else None
    skipped = _unique_signed_diffs(pts, window)
    _every_sign(monkeypatch)
    for a, b in zip(skipped, _unique_signed_diffs(pts, window)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("width", [200.0, 1.0])
def test_sign_skip_keeps_the_dedup_on_a_time_line(width, monkeypatch):
    """300 points (k/10, (k mod 2)/2): each of the 300 time groups is a block
    of its own, whatever the window. The window [0, 200] meets every time
    class, and the blocks visit the 300 x 301 / 2 = 45,150 pairs whose class
    is not negative (one block of both signs visited all 90,000); [0, 1]
    meets few, 3,245 pairs. Either way the dedup equals the one that visits
    every live class in both signs."""
    pts = np.array([(k / 10, (k % 2) / 2) for k in range(300)])
    window = normalize([((1,), width), ((-1,), 0.0)], 1)
    with monkeypatch.context() as mp:
        calls = _recorded(mp)
        skipped = _unique_signed_diffs(pts, window)
    (blocks,) = calls
    assert len(blocks) == 300 and all(rows.size == 1 and t is not None for rows, _, t in blocks)
    assert _pairs(blocks) == (45_150 if width > 1 else 3_245)
    _every_sign(monkeypatch)
    for a, b in zip(skipped, _unique_signed_diffs(pts, window)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("name, groups, pairs", [("integer", 49, 492_205),
                                                 ("sheared", 25, 96_500),
                                                 ("scaled", 15, 137_700),
                                                 ("wide_square", 25, 203_125)])
def test_every_time_group_is_one_block(name, groups, pairs, monkeypatch):
    """With a window, each time group is one block, whose time codes stand in
    for the time columns of every live point. The traffic of the workload
    lattices: orth-square's integer lattice and orth-pentagon's sheared and
    scaled ones. Z^4 in [-2,2]^4 with the unit square scaled 10x meets every
    class: its 25 groups of 25 points visit the 25 x 26 / 2 = 325 group
    pairs whose class is not negative, 325 x 625 = 203,125 pairs, where one
    block of both signs visited all 390,625."""
    P, pts = _prune_cases()[name]
    calls = _recorded(monkeypatch)
    _unique_signed_diffs(pts, P)
    (blocks,) = calls
    assert len(blocks) == groups and _pairs(blocks) == pairs
    for rows, live, time in blocks:
        assert np.unique(pts[rows, :P.dim], axis=0).shape[0] == 1
        assert time.shape == live.shape


def test_prune_still_refuses_near_coincident_points(unit_square, monkeypatch):
    """A point 3e-10 from lattice point 1200 of Z^4 in [-3,3]^4 is refused
    through the window's dedup too, where most classes are pruned."""
    grid = _benchmark_sets()["integer"]
    near = np.vstack([grid, grid[1200] + [0, 0, 0, 3e-10]])
    visits = _visits(monkeypatch)
    with pytest.raises(ParseError, match="points 1200 and 2401 coincide at the 1e-9 resolution"):
        _unique_signed_diffs(near, unit_square)
    assert visits[0] < near.shape[0] ** 2 / 5
    with pytest.raises(ParseError, match="points 1200 and 2401 coincide"):
        check_orthogonality(unit_square, TimeFrequencySet(near))


def test_confirmations_are_the_quadrature_stft_values(pentagon, monkeypatch):
    """The midpoint-rule values of one translate batch, one shift per row or
    several rows per shift, equal stft_indicator_quadrature at each row bit
    for bit, and the confirmations of a check come from one batch over the
    distinct time shifts of its hits."""
    rng = np.random.default_rng(3)
    W = np.concatenate([rng.uniform(-1.5, 1.5, (5, 2)), rng.uniform(-2, 2, (5, 2))], axis=1)
    W[0, :2] = [3.0, 0.0]  # an empty translate
    for n in (40, gabor.QUAD_N):
        oracle = functools.partial(fourier._quad_members, n_per_axis=n)
        want = [stft_indicator_quadrature(pentagon, w[:2], w[2:], n) for w in W]
        got = gabor._stfts(pentagon, W[:, :2], W[:, 2:], [1] * 5, oracle)
        assert got.dtype == complex and got.tolist() == want
        # rows 1-3 share row 1's shift, row 4 keeps its own
        W2 = W.copy()
        W2[2:4, :2] = W[1, :2]
        want = [stft_indicator_quadrature(pentagon, w[:2], w[2:], n) for w in W2]
        got = gabor._stfts(pentagon, W2[[0, 1, 4], :2], W2[[0, 1, 2, 3, 4], 2:],
                           [1, 3, 1], oracle)
        assert got.tolist() == want
    batches = []

    def counted(P, T):
        batches.append(len(T))
        return _translate_intersections(P, T)

    monkeypatch.setattr(gabor, "_translate_intersections", counted)
    L = TimeFrequencySet(lattice_points(np.eye(4), np.zeros(4), [-1] * 4, [1] * 4))
    out = check_orthogonality(pentagon, L, 1e-9, max_reports=6)
    shifts = {tuple(rep.v[:2] - rep.v_prime[:2]) for rep in out}
    assert len(out) == 6 and len(batches) == 2 and batches[1] == len(shifts)
    for rep in out:
        w = rep.v - rep.v_prime
        q = stft_indicator_quadrature(pentagon, w[:2], w[2:], gabor.QUAD_N)
        assert rep.confirmed == (abs(q - rep.value) <= 0.3 * abs(rep.value) + 1e-3)


def test_stft_quadrature_batch_rows_are_the_single_values(pentagon):
    """On 7 pentagon translates, every row of a 7-frequency
    stft_indicator_quadrature call has the bits of its frequency alone."""
    rng = np.random.default_rng(24)
    for t in rng.uniform(-1.5, 1.5, (7, 2)):
        lams = rng.uniform(-3, 3, (7, 2))
        got = stft_indicator_quadrature(pentagon, t, lams, gabor.QUAD_N)
        assert got.tolist() == [stft_indicator_quadrature(pentagon, t, lam, gabor.QUAD_N)
                                for lam in lams]


@pytest.mark.parametrize("max_reports", [0, -1])
def test_check_orthogonality_needs_a_report(max_reports, pentagon):
    L = TimeFrequencySet(lattice_points(np.eye(4), np.zeros(4), [-1] * 4, [1] * 4))
    with pytest.raises(ValueError, match="max_reports must be at least 1"):
        check_orthogonality(pentagon, L, max_reports=max_reports)


def test_check_orthogonality_float_points_report_their_pairs(pentagon):
    rng = np.random.default_rng(11)
    L = TimeFrequencySet(rng.uniform(-1.5, 1.5, (40, 4)))
    out = check_orthogonality(pentagon, L, 1e-9, max_reports=8, confirm=False)
    assert len(out) == 8
    for rep in out:
        w = rep.v - rep.v_prime
        assert abs(stft_indicator(pentagon, w[:2], w[2:]) - rep.value) <= 1e-10


def test_check_orthogonality_makes_no_translate_polytope(pentagon, monkeypatch):
    """The 40 float points above: the exact values and the oracle
    confirmations both come from the translate families' arrays, so no
    HPolytope is made after the window, with or without confirmations, nor
    by stft_indicator_quadrature."""
    made = []
    init = polytope.HPolytope.__post_init__

    def counted(self):
        made.append(self)
        init(self)

    monkeypatch.setattr(polytope.HPolytope, "__post_init__", counted)
    L = TimeFrequencySet(np.random.default_rng(11).uniform(-1.5, 1.5, (40, 4)))
    assert len(check_orthogonality(pentagon, L, 1e-9, max_reports=8, confirm=False)) == 8
    assert made == []
    out = check_orthogonality(pentagon, L, 1e-9, max_reports=8)
    assert any(r.confirmed for r in out) and made == []
    w = out[0].v - out[0].v_prime
    assert stft_indicator_quadrature(pentagon, w[:2], w[2:], 40) != 0 and made == []


def _counted_kernel(monkeypatch):
    """Record the node-row shape of every fourier.divdiff_exp call."""
    calls = []
    kernel = fourier.divdiff_exp

    def counted(z):
        calls.append(np.shape(z))
        return kernel(z)

    monkeypatch.setattr(fourier, "divdiff_exp", counted)
    return calls


def test_check_orthogonality_float_points_batch_their_transforms(pentagon, monkeypatch):
    """The 40 float points above: one divided-difference call covers every
    live shift group (each node row holds d + 1 nodes), and every reported
    value is the one-shift stft_indicator value bit for bit."""
    L = TimeFrequencySet(np.random.default_rng(11).uniform(-1.5, 1.5, (40, 4)))
    calls = _counted_kernel(monkeypatch)
    out = check_orthogonality(pentagon, L, 1e-9, max_reports=10_000, confirm=False)
    assert [width for _, width in calls] == [3]
    monkeypatch.undo()
    assert len(out) > 8
    for rep in out:
        w = rep.v - rep.v_prime
        assert stft_indicator(pentagon, w[:2], w[2:]) == rep.value


def test_check_orthogonality_blocks_of_shift_groups_keep_the_reports(pentagon, monkeypatch):
    """Translate batches of at most gabor.SHIFT_BLOCK shifts and transform
    batches of at most fourier._BODY_ROWS frequency rows give the reports of
    one batch over every live shift group, value for value: on 40 float
    points (one row per shift group) and on Z^4 in [-1, 1]^4 (81 rows per
    group, several live translates)."""
    sets = [np.random.default_rng(11).uniform(-1.5, 1.5, (40, 4)),
            lattice_points(np.eye(4), np.zeros(4), [-1] * 4, [1] * 4)]
    calls = _counted_kernel(monkeypatch)
    batches = []

    def counted(P, T):
        batches.append(len(T))
        return _translate_intersections(P, T)

    monkeypatch.setattr(gabor, "_translate_intersections", counted)
    default = (gabor.SHIFT_BLOCK, fourier._BODY_ROWS)
    for pts in sets:
        L = TimeFrequencySet(pts)
        reports = []
        for shift_block, body_rows in (default, (default[0], 7), (3, 7), (1, 1)):
            monkeypatch.setattr(gabor, "SHIFT_BLOCK", shift_block)
            monkeypatch.setattr(fourier, "_BODY_ROWS", body_rows)
            calls.clear()
            batches.clear()
            out = check_orthogonality(pentagon, L, 1e-9, max_reports=10_000, confirm=False)
            reports.append([(r.v.tolist(), r.v_prime.tolist(), r.value)
                            for r in out])
            assert max(batches) <= shift_block
            if body_rows < default[1]:
                assert len(calls) > 1
            if shift_block < default[0]:
                assert len(batches) > 1
        assert reports[0] and all(r == reports[0] for r in reports[1:])


def _perturbed_grid(seed):
    """Z^4 in [-1, 1]^4 with the time parts moved by multiples of 1e-10 (at
    most 3e-10): differences of one dedup key hold several exact shifts."""
    pts = lattice_points(np.eye(4), np.zeros(4), [-1] * 4, [1] * 4)
    pts[:, :2] += 1e-10 * np.random.default_rng(seed).integers(-3, 4, (81, 2))
    return pts


@pytest.mark.parametrize("name, batches", [
    ("integer", [5]), ("sheared", [12, 4]), ("scaled", [7, 2]),
    ("perturbed 0", [474, 6]), ("perturbed 1", [436, 6]), ("perturbed 2", [428, 6]),
    ("perturbed 3", [433, 6]), ("perturbed 4", [513, 6]),
])
def test_check_orthogonality_translate_batches(name, batches, unit_square, pentagon,
                                               monkeypatch):
    """The translate batches of a check, as the workloads run it (the
    integer lattice on the square with 64 reports, the others on the
    pentagon with 6): one batch over the distinct exact time shifts of the
    kept differences, then one over those of the confirmed hits (the six
    hits have 4 shifts on the sheared lattice, 2 on the scaled one and 6 on
    a perturbed grid). Grouping by exact shift keeps the perturbed grids at
    428-513 translates."""
    sizes = []

    def counted(P, T):
        sizes.append(len(T))
        return _translate_intersections(P, T)

    monkeypatch.setattr(gabor, "_translate_intersections", counted)
    if name.startswith("perturbed"):
        P, pts = pentagon, _perturbed_grid(int(name.split()[1]))
    else:
        P, pts = (unit_square if name == "integer" else pentagon), _benchmark_sets()[name]
    check_orthogonality(P, TimeFrequencySet(pts), 1e-9, max_reports=64 if name == "integer" else 6)
    assert sizes == batches


@pytest.mark.parametrize("name, shifts", [("sheared", 4), ("scaled", 2)])
def test_confirmations_grid_once_per_distinct_shift(name, shifts, pentagon, monkeypatch):
    """The six hits of each orth-pentagon lattice have 4 (sheared) and 2
    (scaled) distinct time shifts, so the oracle finds the midpoint
    intervals of 4 and 2 translates, on QUAD_N = 2,000 grid rows each."""
    rows = []
    intervals = fourier._midpoint_intervals

    def counted(A, b, lo, h, n, X):
        rows.append(X.shape[0])
        return intervals(A, b, lo, h, n, X)

    monkeypatch.setattr(fourier, "_midpoint_intervals", counted)
    out = check_orthogonality(pentagon, TimeFrequencySet(_benchmark_sets()[name]), 1e-9,
                              max_reports=6)
    assert len(out) == 6 and all(rep.confirmed for rep in out)
    assert rows == [gabor.QUAD_N] * shifts


def test_oracle_error_on_the_benchmark_hits(pentagon):
    """The measurement behind the oracle's thresholds: on the 12 hits of the
    orth-pentagon lattices, |q - V| of the QUAD_N = 2,000 midpoint rule is at
    most 9.1e-5 (1.6e-3 of |V|), far inside the acceptance rule |q - V| <=
    0.3 |V| + 1e-3 and below its 1e-3 resolution."""
    for name in ("sheared", "scaled"):
        out = check_orthogonality(pentagon, TimeFrequencySet(_benchmark_sets()[name]), 1e-9,
                                  max_reports=6)
        for rep in out:
            w = rep.v - rep.v_prime
            q = stft_indicator_quadrature(pentagon, w[:2], w[2:], gabor.QUAD_N)
            assert abs(rep.value) >= 1e-3 and rep.confirmed
            assert abs(q - rep.value) <= 2e-4


# check_orthogonality(pentagon, 200 uniform float points in 4-d, confirm=False):
# 19,900 time shifts, 15,297 live translates. 2.5 x the slowest of ten
# measured runs of this test (0.21-0.31 s by pytest --durations; 2-core VM,
# Python 3.11, numpy 2.4)
FLOAT_200_BUDGET_S = 0.78


def test_check_orthogonality_200_float_points_within_budget(pentagon):
    L = TimeFrequencySet(np.random.default_rng(0).uniform(-1.5, 1.5, (200, 4)))
    t0 = time.perf_counter()
    out = check_orthogonality(pentagon, L, confirm=False)
    elapsed = time.perf_counter() - t0
    assert len(out) == 64 and all(abs(rep.value) > TOL_ZERO for rep in out)
    assert elapsed < FLOAT_200_BUDGET_S, f"{elapsed:.2f} s"


def test_check_orthogonality_reports_the_largest_values(pentagon):
    """With at most m reports, check_orthogonality keeps m of the largest |V|
    over all nonzero differences, on float points and on Z^4, where many
    values tie."""
    z4 = lattice_points(np.eye(4), np.zeros(4), -2 * np.ones(4), 2 * np.ones(4))
    for pts in (np.random.default_rng(0).uniform(-1.5, 1.5, (200, 4)), z4):
        L = TimeFrequencySet(pts)
        every = check_orthogonality(pentagon, L, max_reports=10_000, confirm=False)
        ranked = sorted((abs(r.value) for r in every), reverse=True)
        assert len(ranked) > 64
        for m in (1, 6, 64):
            out = check_orthogonality(pentagon, L, max_reports=m, confirm=False)
            assert sorted((abs(r.value) for r in out), reverse=True) == ranked[:m]


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300, -2e6])
def test_tf_set_rejects_bad_coordinates(bad):
    pts = np.zeros((3, 4))
    pts[1, 0] = 1.0
    pts[2, 3] = bad
    with pytest.raises(ParseError):
        TimeFrequencySet(pts)


# -- certificates ------------------------------------------------------------------


def test_build_certificate_pentagon(pentagon):
    cert = build_certificate(pentagon, 0.2, 0.2, SMALL_PARAMS)
    assert cert.eta > 0
    assert cert.eta - cert.C / cert.R >= cert.eta / 2 - 1e-12
    assert cert.min_abs_scanned > 0
    assert cert.provenance.min_chain_slack >= -1e-12
    assert cert.provenance.n_scan_points >= SMALL_PARAMS.n_lambda1 * SMALL_PARAMS.n_cross
    # frame maps the witness pair onto {y1=0} and {y1=1}
    rep = is_symmetric(pentagon, 1e-9)
    F, G = rep.witness
    for v in F.vertices:
        assert abs(cert.frame.to_frame_point(v)[0]) <= 1e-9
    for v in G.vertices:
        assert abs(cert.frame.to_frame_point(v)[0] - 1.0) <= 1e-9


def test_build_certificate_intersects_each_ball_shift_once(pentagon, monkeypatch):
    """eta, delta, C and the verify scan share one translate batch over the
    ball shifts, and no shift is intersected on its own: every translate,
    one-shift ones included, passes through polytope._translate_intersections."""
    calls = []

    def counted(P, T):
        calls.append(np.asarray(T).shape[0])
        return _translate_intersections(P, T)

    monkeypatch.setattr(gabor, "_translate_intersections", counted)
    monkeypatch.setattr(polytope, "_translate_intersections", counted)
    cert = build_certificate(pentagon, 0.2, 0.2, SMALL_PARAMS)
    assert calls == [cert.provenance.n_t] == [17]


def _count_charting(monkeypatch):
    """Lists that record each Family.charts evaluation as (members, rows)
    and each tangent_basis call."""
    passes, bases = [], []
    charts, basis = polytope.Family.charts.func, polytope.tangent_basis

    def counted_charts(F):
        passes.append((F.V.shape[0], F.A.shape[0]))
        return charts(F)

    def counted_basis(a):
        bases.append(a)
        return basis(a)

    prop = functools.cached_property(counted_charts)
    prop.__set_name__(polytope.Family, "charts")
    monkeypatch.setattr(polytope.Family, "charts", prop)
    monkeypatch.setattr(polytope, "tangent_basis", counted_basis)
    return passes, bases


def test_certificate_charts_one_tangent_basis_per_family_row(pentagon, monkeypatch):
    """The pentagon certificate's 17 ball translates form one family with 5
    kept rows, whose facet charts share one tangent basis per row: two
    chart passes over 10 rows, the window's own 5 and the family's 5, with
    10 tangent_basis calls (90 per-body charts when every translate charted
    its facets alone)."""
    passes, bases = _count_charting(monkeypatch)
    build_certificate(pentagon, 0.2, 0.2)
    assert passes == [(1, 5), (17, 5)] and len(bases) == 10


def test_cut_cube_certificate_charts_each_row_once(monkeypatch):
    """The cut cube's certificate charts in two passes over 14 rows, the
    window's 7 and its ball family's 7 (at the default grids 714 per-body
    charts for the 101 translates when each charted alone)."""
    cube = [(tuple(s * e), 1.0 if s > 0 else 0.0) for e in np.eye(3) for s in (1, -1)]
    P = normalize(cube + [((1, 1, 0), 1.5)], 3)
    params = CertificateScanParams(n_lambda1=12, n_cross=7, n_t_angles=4, n_t_radii=1,
                                   cone_n_radial=16, cone_n_cross=6)
    passes, bases = _count_charting(monkeypatch)
    cert = build_certificate(P, 0.1, 0.2, params)
    assert passes == [(1, 7), (cert.provenance.n_t, 7)] and len(bases) == 14


def test_certificate_makes_one_kernel_call_per_stage(pentagon, monkeypatch):
    """Divided-difference calls of the pentagon certificate (204 when every
    translate and facet had its own, 43 while the verify scan charted its
    axis facets at all 720 frequencies): with chunks that hold a whole stage,
    one per delta halving, one for the cone constant and one per node width
    of the verify scan; at the shipped chunk size (32 calls) no call exceeds
    a chunk."""
    calls = _counted_kernel(monkeypatch)
    build_certificate(pentagon, 0.2, 0.2)
    assert len(calls) <= 32
    assert max(rows for rows, _ in calls) <= fourier._CHUNK_ROWS
    calls.clear()
    monkeypatch.setattr(fourier, "_CHUNK_ROWS", 1 << 20)
    build_certificate(pentagon, 0.2, 0.2)
    assert len(calls) <= 12


def test_certificate_reads_translate_families(pentagon, monkeypatch):
    """The pentagon certificate reads its 17 ball translates from their
    family: it makes one HPolytope, the framed window (18 when each
    translate had a view), calls facet_by_normal 0 times (5 when
    is_symmetric found each partner by a facet scan, 39 when each
    translate's axis pair was found by facet scans too), and its kernel
    makes 32 calls over 56,678 node rows, as then."""
    made, scans = [], []
    init, scan = polytope.HPolytope.__post_init__, polytope.facet_by_normal

    def counted_init(self):
        made.append(self)
        init(self)

    def counted_scan(P, normal):
        scans.append(normal)
        return scan(P, normal)

    monkeypatch.setattr(polytope.HPolytope, "__post_init__", counted_init)
    monkeypatch.setattr(polytope, "facet_by_normal", counted_scan)
    calls = _counted_kernel(monkeypatch)
    build_certificate(pentagon, 0.2, 0.2)
    assert len(made) == 1 and scans == []
    assert len(calls) == 32 and sum(rows for rows, _ in calls) == 56_678


def test_4d_hit_abstains_before_any_oracle_grid(monkeypatch):
    """The oracle grids QUAD_N^(d-1) rows a translate, 8e9 in 4-d: on the
    unit 4-cube cut by x_1 + x_2 <= 1.5 with the points 0 and
    (0.1, 0, 0, 0, 0.3, 0, 0, 0), the one hit (|V| = 0.79) is reported
    unconfirmed and no grid row is formed (the check ran past 30 s when it
    gridded)."""
    grids = []
    intervals = fourier._midpoint_intervals

    def counted(*args):
        grids.append(args)
        return intervals(*args)

    monkeypatch.setattr(fourier, "_midpoint_intervals", counted)
    box = [(tuple(s * e), 1.0 if s > 0 else 0.0) for e in np.eye(4) for s in (1, -1)]
    P = normalize(box + [((1, 1, 0, 0), 1.5)], 4)
    L = TimeFrequencySet(np.array([[0.0] * 8, [0.1, 0, 0, 0, 0.3, 0, 0, 0]]))
    (rep,) = check_orthogonality(P, L)
    assert rep.confirmed is None and grids == []
    assert abs(rep.value) == pytest.approx(0.79, abs=5e-3)
    w = rep.v - rep.v_prime
    assert rep.value == stft_indicator(P, w[:4], w[4:])


def test_verify_scan_charts_axis_facets_at_distinct_transverse_rows(pentagon, monkeypatch):
    """The default-grid pentagon certificate's verify scan charts the 34
    axis facets of its 17 translates at the 15 distinct transverse rows, not
    at the 720 scan frequencies; the indicator transforms take all 720."""
    batches, inside = [], []
    scan, batch = gabor._verify_scan, fourier._ft_simplices

    def tagged(*args):
        inside.append(True)
        try:
            return scan(*args)
        finally:
            inside.pop()

    def counted(simp, m, lams, n):
        if inside:  # (nodes per simplex, frequency rows) of each part
            batches.append([(simp.shape[1], rows) for rows in n])
        return batch(simp, m, lams, n)

    monkeypatch.setattr(gabor, "_verify_scan", tagged)
    monkeypatch.setattr(fourier, "_ft_simplices", counted)
    cert = build_certificate(pentagon, 0.2, 0.2)
    assert cert.provenance.n_t == 17 and cert.provenance.n_lambda == 720
    facet_parts, body_parts = [(2, 15)] * 34, [(3, 720)] * 17
    assert batches[:2] == [facet_parts, body_parts]
    assert batches == [facet_parts, body_parts] * (len(batches) // 2)


def _certificate_bits(cert):
    pv = cert.provenance
    return (cert.eps, cert.delta, cert.R, cert.omega, cert.eta, cert.C, cert.min_abs_scanned,
            pv.n_scan_points, pv.min_sigma_gap, pv.max_axial_residual, pv.min_chain_slack,
            pv.cone.value, pv.cone.min_sin_theta,
            *(tuple(x) for x in (pv.cone.arg_t, pv.cone.arg_lam, *pv.min_abs_point)))


def test_certificate_stages_run_in_blocks_of_translates(pentagon, monkeypatch):
    """The pentagon certificate's stages each fit one block of
    fourier._BODY_ROWS (translate x frequency) pairs; with blocks of one
    translate no transform batch holds more than one translate's facets at
    the cone grid (1,024 frequencies), and every field keeps its bits."""
    whole = build_certificate(pentagon, 0.2, 0.2)
    rows = []
    batch = fourier._ft_simplices

    def counted(simp, m, lams, n):
        rows.append(lams.shape[0])
        return batch(simp, m, lams, n)

    monkeypatch.setattr(fourier, "_ft_simplices", counted)
    monkeypatch.setattr(fourier, "_BODY_ROWS", 1)
    blocked = build_certificate(pentagon, 0.2, 0.2)
    assert _certificate_bits(blocked) == _certificate_bits(whole)
    assert blocked.provenance.n_t == 17 and blocked.provenance.n_lambda == 720
    assert max(rows) <= 5 * 1024


def test_certificate_min_abs_is_the_stft_value(pentagon):
    """The verify scan divides by vol(Q) as stft_indicator does, so |V| at
    min_abs_point is the one-shift STFT of the frame window there."""
    cert = build_certificate(pentagon, 0.2, 0.2, SMALL_PARAMS)
    t, lam = cert.provenance.min_abs_point
    Q = fourier.apply_frame(pentagon, cert.frame)
    assert abs(stft_indicator(Q, t, lam)) == cert.min_abs_scanned


def test_certificate_cone_is_the_ball_maximum(pentagon):
    """provenance.cone is the first maximum over the ball of the per-translate
    bounds, at the certificate's cone grid, with the smallest facet angle."""
    p = SMALL_PARAMS
    cert = build_certificate(pentagon, 0.2, 0.2, p)
    params = ConeScanParams(r0=max(0.95 * 2 * cert.delta / cert.omega, 1e-3),
                            r1=p.lambda_max, n_radial=p.cone_n_radial,
                            n_cross=p.cone_n_cross)
    bounds = ball_cone_bounds(pentagon, cert.frame, cert.omega, params, cert.eps,
                              p.n_t_angles, p.n_t_radii)
    values = [b.value for _, b in bounds]
    first = values.index(max(values))
    cone = cert.provenance.cone
    assert cone.value == values[first]
    assert np.array_equal(cone.arg_t, bounds[first][0])
    assert np.array_equal(cone.arg_lam, bounds[first][1].arg_lam)
    assert cone.min_sin_theta == min(b.min_sin_theta for _, b in bounds)


def test_translated_pentagons_give_one_witness_and_frame(pentagon):
    """The pentagon's two facet pairs tie at gap 1; the first pair in
    canonical facet order (x = 2 over x = 0) wins for every translate, in
    vertex and in half-space input, so the certificate frame basis is one."""
    basis = build_certificate(pentagon, 0.2, 0.2, SMALL_PARAMS).frame.basis
    rng = np.random.default_rng(0)
    for s in rng.uniform(-50, 50, (6, 2)):
        for P in (from_vertices(PENTAGON_VERTICES + s),
                  normalize([(a, c + a @ s) for a, c in zip(pentagon.A, pentagon.b)], 2)):
            F, G = is_symmetric(P, 1e-9).witness
            assert np.allclose(F.normal, (1, 0), rtol=0, atol=1e-12)
            frame = build_certificate(P, 0.2, 0.2, SMALL_PARAMS).frame
            assert np.allclose(frame.basis, basis, rtol=0, atol=1e-12)


def test_build_certificate_cut_cube_3d():
    """Unit cube cut by x + y <= 1.5 at reduced grids: the criterion-5
    inequalities hold in three dimensions."""
    cube = [(tuple(s * e), 1.0 if s > 0 else 0.0) for e in np.eye(3) for s in (1, -1)]
    P = normalize(cube + [((1, 1, 0), 1.5)], 3)
    params = CertificateScanParams(n_lambda1=12, n_cross=7, n_t_angles=4, n_t_radii=1,
                                   cone_n_radial=16, cone_n_cross=6)
    cert = build_certificate(P, 0.1, 0.2, params)
    assert cert.eta > 0
    assert cert.eta - cert.C / cert.R >= cert.eta / 2 - 1e-12
    assert cert.min_abs_scanned > 0
    assert cert.provenance.min_chain_slack >= -1e-12
    # float.hex bits of numpy 2.4.6 with Python 3.11.7 on x86-64 Linux; another
    # numpy, BLAS or CPU may move the last bit
    assert certificate_hex(cert) == ["0x1.bb7cb20ca8a44p-2", "0x1.976d476e685d2p-2",
                                     "0x1.d65e738eaf160p+0", "0x1.a28fffa976dcbp-12",
                                     "0x1.bb7cb44cd95b0p-2"]


def test_build_certificate_cut_4cube_4d():
    """The unit 4-cube cut by x_1 + x_2 <= 1.5 at reduced grids (23
    translates, 10,488 scan points): the criterion-5 inequalities hold in
    four dimensions, and |V| at min_abs_point is the one-shift STFT there
    and agrees with a 60-digit mpmath sum over the translate's simplices."""
    box = [(tuple(s * e), 1.0 if s > 0 else 0.0) for e in np.eye(4) for s in (1, -1)]
    P = normalize(box + [((1, 1, 0, 0), 1.5)], 4)
    params = CertificateScanParams(n_lambda1=12, n_cross=7, n_t_angles=4, n_t_radii=1,
                                   cone_n_radial=16, cone_n_cross=6)
    cert = build_certificate(P, 0.1, 0.2, params)
    assert cert.provenance.n_scan_points >= 10_000
    assert cert.eta > 0
    assert cert.eta - cert.C / cert.R >= cert.eta / 2 - 1e-12
    assert cert.min_abs_scanned > 0
    assert cert.provenance.min_chain_slack >= -1e-12
    # float.hex bits of numpy 2.4.6 with Python 3.11.7 on x86-64 Linux; another
    # numpy, BLAS or CPU may move the last bit
    assert certificate_hex(cert) == ["0x1.9e746b9c968c9p-2", "0x1.976d476e685d5p-2",
                                     "0x1.f7516a9a5a0c9p+0", "0x1.880206b29c6aap-12",
                                     "0x1.9e746df784737p-2"]
    t, lam = cert.provenance.min_abs_point
    Q = fourier.apply_frame(P, cert.frame)
    assert abs(stft_indicator(Q, t, lam)) == cert.min_abs_scanned
    with mpmath.workdps(60):
        lam_mp = [mpmath.mpf(x) for x in lam]
        total = 0
        for simp in triangulate(translate_intersection(Q, t)):
            y = [-2 * mpmath.pi * mpmath.fsum(a * x for a, x in zip(lam_mp, v)) for v in simp]
            k_vol = abs(np.linalg.det(simp[1:] - simp[0]))  # 4! * volume
            total += k_vol * mpmath.mpc(_mp_divdiff_exp(y, mpmath))
        ref = abs(complex(total)) / volume(Q)
    # measured 2.9e-16 relative at |V| = 3.7e-4; the kernel's worst relative
    # error per node row against mpmath is 2.3e-15
    assert abs(cert.min_abs_scanned - ref) <= 1e-13 * ref


# 2.5 x the slowest of ten measured runs (3.6-4.8 s; 2-core VM, Python 3.11, numpy 2.4)
CUT_CUBE_BUDGET_S = 12.0


def test_build_certificate_cut_cube_3d_default_grids_within_budget():
    """The 3-d cut cube at the default grids: 101 translates, 223,008 verify
    points, the criterion-5 inequalities, inside its time budget."""
    cube = [(tuple(s * e), 1.0 if s > 0 else 0.0) for e in np.eye(3) for s in (1, -1)]
    P = normalize(cube + [((1, 1, 0), 1.5)], 3)
    t0 = time.perf_counter()
    cert = build_certificate(P, 0.1, 0.2)
    elapsed = time.perf_counter() - t0
    assert cert.provenance.n_t == 101 and cert.provenance.n_scan_points == 223_008
    assert cert.eta > 0
    assert cert.eta - cert.C / cert.R >= cert.eta / 2 - 1e-12
    assert cert.min_abs_scanned > 0
    assert cert.provenance.min_chain_slack >= -1e-12
    assert elapsed < CUT_CUBE_BUDGET_S, f"{elapsed:.1f} s"


def test_build_certificate_symmetric_window_refused(unit_square):
    # a 1-d window is an interval, always symmetric
    for P in (unit_square, normalize([((1,), 2.0), ((-1,), 0.5)], 1)):
        with pytest.raises(SymmetricInput):
            build_certificate(P, 0.2, 0.2, SMALL_PARAMS)


def test_build_certificate_triangle_frame_by_support_width(simplex2):
    """The triangle's witness facet x + y = 1 has no parallel facet, so the
    frame scale is the support width 1/sqrt(2) down to the opposite vertex:
    the witness lands on y_1 = 0 and the vertex (0, 0) on y_1 = 1. The
    criterion-5 inequalities hold, and Z^4 in [-3, 3]^4 holds a pair in the
    certificate region."""
    F, G = is_symmetric(simplex2, 1e-9).witness
    assert G is None
    cert = build_certificate(simplex2, 0.05, 0.2)
    frame = cert.frame
    assert np.allclose(frame.origin, (0.5, 0.5), rtol=0, atol=1e-12)
    assert frame.scale == pytest.approx(1 / math.sqrt(2), rel=1e-12)
    y = np.array([frame.to_frame_point(x) for x in ((1.0, 0.0), (0.0, 1.0), (0.0, 0.0))])
    assert np.allclose(y[:, 0], (0, 0, 1), rtol=0, atol=1e-12)
    assert cert.provenance.n_scan_points == 12_240
    assert cert.eta > 0
    assert cert.eta - cert.C / cert.R >= cert.eta / 2 - 1e-12
    assert cert.min_abs_scanned > 0
    assert cert.provenance.min_chain_slack >= -1e-12
    L = TimeFrequencySet(lattice_points(np.eye(4), np.zeros(4), -3 * np.ones(4),
                                        3 * np.ones(4)))
    res = find_violation_pair(simplex2, L, cert)
    assert not isinstance(res, NotFound)
    assert abs(res.value) > TOL_ZERO


def test_build_certificate_margin_vanishes_for_large_eps(pentagon):
    # |t| <= 2 contains the symmetrizing translate (-1, -1)
    with pytest.raises(MarginVanished):
        build_certificate(pentagon, 2.0, 0.2, SMALL_PARAMS)


@pytest.mark.parametrize("omega", [1.0, 1.01, 2.0, 10.0, 1e6])
def test_build_certificate_refuses_a_cone_that_holds_a_g_normal(pentagon, omega, monkeypatch):
    """The pentagon's framed slant normal (1, -1) / sqrt(2) lies in the
    closed cone |lam'| <= omega lam_1 from omega_max = 1 on: the certificate
    refuses before any cone residual and names omega_max."""
    def no_residual(*args):
        raise AssertionError("cone residual evaluated")

    monkeypatch.setattr(fourier, "_boundary_residuals", no_residual)
    with pytest.raises(ConeTooWide, match=r"omega_max = 1\.0$"):
        build_certificate(pentagon, 0.2, omega)


def test_build_certificate_certifies_just_below_omega_max(pentagon):
    """At omega 0.99 the slant normal lies outside the cone, at the sine
    (1 - 0.99) / sqrt(2 (1 + 0.99^2)), and C = 31.8."""
    cert = build_certificate(pentagon, 0.2, 0.99)
    sine = 0.01 / math.sqrt(2 * (1 + 0.99 ** 2))
    assert cert.provenance.cone.min_sin_theta == pytest.approx(sine, rel=1e-9)
    assert cert.C == pytest.approx(31.824, abs=1e-3)


def _framed_g_normals(P, frame):
    """The unit normals of the framed window's G rows (Family.axis_rows)."""
    F, = _translate_intersections(fourier.apply_frame(P, frame), np.zeros((1, P.dim))).families
    return F.A[[F.charts[r][0] for r in F.axis_rows[2]]]


def test_random_polygon_certificates_keep_every_g_normal_outside_the_cone():
    """Of 40 random polygons at eps 0.05, omega 0.2 and reduced grids, every
    certificate that builds has every framed G normal n = (n_1, n') strictly
    outside the cone, |n'| > omega |n_1|, and every ConeTooWide names
    omega_max = min |n'| / |n_1| below omega."""
    rng = np.random.default_rng(2026)
    params = CertificateScanParams(n_lambda1=6, n_cross=5, n_t_angles=4, n_t_radii=1,
                                   cone_n_radial=8, cone_n_cross=4)
    omega, outcomes = 0.2, {"built": 0, "refused": 0}
    for _ in range(40):
        P = random_polygon(rng)
        rep = is_symmetric(P)
        if rep.witness is None:
            continue
        normals = _framed_g_normals(P, build_axis_frame(P, *rep.witness))
        ratios = np.linalg.norm(normals[:, 1:], axis=1) / np.abs(normals[:, 0])
        try:
            cert = build_certificate(P, 0.05, omega, params)
        except ConeTooWide as exc:
            outcomes["refused"] += 1
            named = float(re.search(r"omega_max = (\S+)$", str(exc)).group(1))
            assert named == ratios.min() < omega
            continue
        except (MarginVanished, ScanFailure):
            continue
        outcomes["built"] += 1
        assert np.all(ratios > omega) and cert.provenance.cone.min_sin_theta > 0
    assert min(outcomes.values()) >= 5, outcomes


def _frame_bits(frame):
    return (tuple(frame.origin), tuple(map(tuple, frame.basis)), frame.scale)


def test_certificate_json_round_trip(pentagon):
    """Every field, the frame and the provenance counts keep their bits
    through the JSON text."""
    cert = build_certificate(pentagon, 0.2, 0.2, SMALL_PARAMS)
    back = certificate_from_dict(json.loads(json.dumps(certificate_to_dict(cert))))
    assert _certificate_bits(back) == _certificate_bits(cert)
    assert _frame_bits(back.frame) == _frame_bits(cert.frame)
    pv, bpv = cert.provenance, back.provenance
    assert (bpv.window_hash, bpv.n_t, bpv.n_lambda) == (pv.window_hash, pv.n_t, pv.n_lambda)
    t, lam = bpv.min_abs_point
    assert np.array_equal(t, pv.min_abs_point.t) and np.array_equal(lam, pv.min_abs_point.lam)


# the certificate JSON layout: its records' fields in declaration order
CERTIFICATE_KEY_PATHS = [
    "eps", "delta", "R", "omega", "eta", "C",
    "frame", "frame.origin", "frame.basis", "frame.scale",
    "min_abs_scanned",
    "provenance", "provenance.window_hash", "provenance.n_scan_points",
    "provenance.n_t", "provenance.n_lambda", "provenance.min_sigma_gap",
    "provenance.max_axial_residual", "provenance.min_chain_slack",
    "provenance.cone", "provenance.cone.value", "provenance.cone.arg_t",
    "provenance.cone.arg_lam", "provenance.cone.min_sin_theta",
    "provenance.min_abs_point", "provenance.min_abs_point.t",
    "provenance.min_abs_point.lam",
]


def _key_paths(obj, prefix=""):
    for key, value in obj.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + key + ".")


def test_certificate_json_key_paths(pentagon):
    """A renamed or reordered certificate field changes the JSON contract."""
    data = certificate_to_dict(build_certificate(pentagon, 0.2, 0.2, SMALL_PARAMS))
    assert list(_key_paths(data)) == CERTIFICATE_KEY_PATHS


class _Pair(NamedTuple):
    a: np.ndarray
    n: int


@dataclass(frozen=True, eq=False)
class _Record:
    x: float
    k: int
    name: str
    rows: np.ndarray
    pair: _Pair


def test_record_json_round_trip():
    """The writer gives a record's fields in order, arrays as nested lists
    and a complex as re, im, abs; the reader rebuilds the record by the
    annotated types and ignores unknown keys."""
    rec = _Record(0.1, 3, "w", np.array([[1.5, -2.0], [0.0, 1e-300]]),
                  _Pair(np.array([0.25]), 7))
    data = json.loads(json.dumps(to_json(rec)))
    assert data == {"x": 0.1, "k": 3, "name": "w", "rows": [[1.5, -2.0], [0.0, 1e-300]],
                    "pair": {"a": [0.25], "n": 7}}
    back = from_json(_Record, {**data, "extra": None})
    assert (back.x, back.k, back.name, back.pair.n) == (0.1, 3, "w", 7)
    assert back.rows.dtype == float and np.array_equal(back.rows, rec.rows)
    assert np.array_equal(back.pair.a, rec.pair.a)
    assert to_json(complex(3, -4)) == {"re": 3.0, "im": -4.0, "abs": 5.0}
    with pytest.raises(KeyError):
        from_json(_Record, {k: v for k, v in data.items() if k != "k"})


# -- violation search ---------------------------------------------------------------


def _axis_spread_set(cert, n=8, step=0.5):
    u1 = cert.frame.basis[:, 0]
    rows = [np.concatenate([[0.0, 0.0], k * step * u1]) for k in range(n)]
    return TimeFrequencySet(np.array(rows))


def test_find_violation_pair_pentagon(pentagon):
    cert = build_certificate(pentagon, 0.2, 0.2, SMALL_PARAMS)
    L = _axis_spread_set(cert)
    res = find_violation_pair(pentagon, L, cert)
    assert not isinstance(res, NotFound)
    assert abs(res.value) > 0
    # the certificate chain floor holds at the found pair
    dlam = cert.frame.to_frame_freq(res.v[2:] - res.v_prime[2:])
    floor = (cert.eta - cert.C / abs(dlam[0])) / (
        2 * np.pi * volume(pentagon) / cert.frame.scale ** 2 * abs(dlam[0])
    )
    assert abs(res.value) >= 0.9 * floor


def test_find_violation_value_is_the_window_stft():
    """On a rotated window the frame shift and frequency are not those of
    the window: the reported value is V(v - v') in window coordinates, bit
    for bit, as check-orth reports it."""
    c, s = math.cos(0.3), math.sin(0.3)
    P = from_vertices(PENTAGON_VERTICES @ np.array([[c, -s], [s, c]]).T)
    cert = build_certificate(P, 0.2, 0.2, SMALL_PARAMS)
    # lam maps to (3R, 0) in the frame
    lam = cert.frame.basis[:, 0] * 3 * cert.R / cert.frame.scale
    L = TimeFrequencySet(np.array([[0.0, 0.0, *lam], [0.0, 0.0, 0.0, 0.0]]))
    res = find_violation_pair(P, L, cert)
    assert not isinstance(res, NotFound)
    w = res.v - res.v_prime
    assert res.value == stft_indicator(P, w[:2], w[2:])


def test_find_violation_tight_spread_not_found(pentagon):
    cert = build_certificate(pentagon, 0.2, 0.2, SMALL_PARAMS)
    L = TimeFrequencySet(np.array([
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.01, 0.0],
        [0.0, 0.0, 0.0, 0.01],
    ]))
    res = find_violation_pair(pentagon, L, cert)
    assert isinstance(res, NotFound)
    assert res.n_time_close == 6  # all ordered pairs share t
    assert res.n_beyond_radius == 0


def test_find_violation_wrong_window_rejected(pentagon, unit_square):
    cert = build_certificate(pentagon, 0.2, 0.2, SMALL_PARAMS)
    L = _axis_spread_set(cert)
    with pytest.raises(CertificateMismatch):
        find_violation_pair(unit_square, L, cert)


def test_window_fingerprint_distinguishes(pentagon, unit_square):
    assert window_fingerprint(pentagon) != window_fingerprint(unit_square)
    assert window_fingerprint(pentagon) == window_fingerprint(pentagon)


def test_frame_scale_matches_slab_width(pentagon):
    rep = is_symmetric(pentagon, 1e-9)
    frame = build_axis_frame(pentagon, *rep.witness)
    assert frame.scale == pytest.approx(2.0)

"""STFT, set diagnostics, certificates, and violation searches."""

import math

import numpy as np
import pytest

from gonb import (
    CertificateMismatch,
    CertificateScanParams,
    MarginVanished,
    NotFound,
    ParseError,
    SymmetricInput,
    TimeFrequencySet,
    TooFewPoints,
    ZeroVolumeWindow,
    build_certificate,
    check_orthogonality,
    covering_radius,
    find_violation_pair,
    from_vertices,
    ft_indicator,
    lattice_points,
    normalize,
    separation,
    stft_indicator,
    stft_indicator_quadrature,
    translate_intersection,
    volume,
)
from gonb import gabor
from gonb.gabor import _unique_signed_diffs, build_axis_frame, window_fingerprint
from gonb.io import certificate_from_dict, certificate_to_dict
from gonb.polytope import is_symmetric

from conftest import PENTAGON_VERTICES, random_polygon

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


def test_stft_zero_volume_window_raises(unit_square):
    degenerate = translate_intersection(unit_square, (1.0, 0.0))
    with pytest.raises(ZeroVolumeWindow):
        stft_indicator(degenerate, (0, 0), (0, 0))


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


# -- separation / covering -------------------------------------------------------


def test_separation_integer_lattice():
    pts = lattice_points(np.eye(4), np.zeros(4), [-2] * 4, [2] * 4)
    assert separation(TimeFrequencySet(pts)) == pytest.approx(1.0)


def test_separation_scaled_lattice():
    pts = lattice_points(0.5 * np.eye(4), np.zeros(4), [-1] * 4, [1] * 4)
    assert separation(TimeFrequencySet(pts)) == pytest.approx(0.5)


def test_duplicate_points_rejected():
    with pytest.raises(ValueError):
        TimeFrequencySet(np.array([[0.0, 0, 0, 0], [0.0, 0, 0, 0]]))


def test_separation_needs_two_points():
    with pytest.raises(TooFewPoints):
        separation(TimeFrequencySet(np.array([[0.0, 0, 0, 0]])))


def test_covering_radius_integer_lattice():
    pts = lattice_points(np.eye(4), np.zeros(4), [-3] * 4, [3] * 4)
    L = TimeFrequencySet(pts)
    r = covering_radius(L, (np.full(4, -1.0), np.full(4, 1.0)), 9)
    assert r == pytest.approx(1.0, abs=1e-12)  # deep holes at half-integer corners


def test_covering_radius_single_point():
    L = TimeFrequencySet(np.array([[0.0, 0.0, 0.0, 0.0]]))
    r = covering_radius(L, (np.full(4, -1.0), np.full(4, 1.0)), 5)
    assert r == pytest.approx(2.0)  # corner at distance sqrt(4)


def test_covering_radius_grid_refinement_stable():
    pts = lattice_points(np.eye(4), np.zeros(4), [-2] * 4, [2] * 4)
    L = TimeFrequencySet(pts)
    box = (np.full(4, -1.0), np.full(4, 1.0))
    r1 = covering_radius(L, box, 5)
    r2 = covering_radius(L, box, 9)
    assert abs(r1 - r2) <= 1.0  # within a cell diagonal


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
        assert rep.abs_value > 1e-9
        assert rep.confirmed in (True, None)
        w = rep.pair[0].as_row() - rep.pair[1].as_row()
        direct = stft_indicator(pentagon, w[:2], w[2:])
        assert direct == pytest.approx(rep.value, abs=1e-12)


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
    _, first, second = _unique_signed_diffs(pts)
    expected = {}
    for i, j in zip(first, second):
        w = pts[i] - pts[j]
        Q = translate_intersection(pentagon, w[:2])
        val = 0.0 if Q.empty or Q.degenerate else ft_indicator(Q, w[2:]) / volume(pentagon)
        if abs(val) > 1e-9:
            expected[(i, j)] = val
    index = {tuple(p): k for k, p in enumerate(pts)}
    got = {(index[tuple(r.pair[0].as_row())], index[tuple(r.pair[1].as_row())]): r.value
           for r in out}
    assert len(out) > 0 and got == expected


def test_single_point_no_pairs(pentagon):
    L = TimeFrequencySet(np.array([[0.0, 0.0, 0.0, 0.0]]))
    assert check_orthogonality(pentagon, L, 1e-9) == []


# -- difference dedup ------------------------------------------------------------


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


def _straddling_points(rng, m: int, k: int) -> np.ndarray:
    # offsets whose differences land on, just below and just above the
    # half-way points of the 1e-9 rounding grid
    offsets = np.array([0.0, 0.5e-9, 1.5e-9, 2.5e-9, 0.5e-9 - 1e-15, 0.5e-9 + 1e-15])
    return rng.integers(-2, 3, (m, k)) + rng.choice(offsets, (m, k))


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
    diffs, i, j = _unique_signed_diffs(pts)
    assert np.array_equal(diffs, _reference_unique_signed_diffs(pts))
    # each difference carries its generating pair with the smallest i
    assert np.array_equal(np.round(pts[i] - pts[j], 9), diffs)
    smallest = _smallest_first_index(pts)
    assert [smallest[tuple(w)] for w in diffs] == list(i)


def test_unique_signed_diffs_chunking_is_invisible():
    pts = _dedup_cases()["straddling"]
    whole = _unique_signed_diffs(pts, pairs_per_chunk=pts.shape[0] ** 2)
    pieces = _unique_signed_diffs(pts, pairs_per_chunk=1)
    for a, b in zip(whole, pieces):
        assert np.array_equal(a, b)


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
    n_diffs = _unique_signed_diffs(pts)[0].shape[0]  # 1,770: all distinct
    monkeypatch.setattr(gabor, "MAX_DIFFS", n_diffs)
    assert _unique_signed_diffs(pts)[0].shape[0] == n_diffs
    monkeypatch.setattr(gabor, "MAX_DIFFS", n_diffs - 1)
    with pytest.raises(ParseError, match="pair differences to merge"):
        _unique_signed_diffs(pts)


def test_check_orthogonality_float_points_report_their_pairs(pentagon):
    rng = np.random.default_rng(11)
    L = TimeFrequencySet(rng.uniform(-1.5, 1.5, (40, 4)))
    out = check_orthogonality(pentagon, L, 1e-9, max_reports=8, confirm=False)
    assert len(out) == 8
    for rep in out:
        w = rep.pair[0].as_row() - rep.pair[1].as_row()
        assert abs(stft_indicator(pentagon, w[:2], w[2:]) - rep.value) <= 1e-10


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


def test_build_certificate_symmetric_window_refused(unit_square):
    with pytest.raises(SymmetricInput):
        build_certificate(unit_square, 0.2, 0.2, SMALL_PARAMS)


def test_build_certificate_margin_vanishes_for_large_eps(pentagon):
    # |t| <= 2 contains the symmetrizing translate (-1, -1)
    with pytest.raises(MarginVanished):
        build_certificate(pentagon, 2.0, 0.2, SMALL_PARAMS)


def test_certificate_json_round_trip(pentagon):
    cert = build_certificate(pentagon, 0.2, 0.2, SMALL_PARAMS)
    back = certificate_from_dict(certificate_to_dict(cert))
    assert back.eta == cert.eta
    assert back.R == cert.R
    assert back.min_abs_scanned == cert.min_abs_scanned
    assert np.allclose(back.frame.basis, cert.frame.basis)
    assert back.provenance.window_hash == cert.provenance.window_hash


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
    assert res.abs_value > 0
    # the certificate chain floor holds at the found pair
    dlam = cert.frame.to_frame_freq(res.pair[0].lam - res.pair[1].lam)
    floor = (cert.eta - cert.C / abs(dlam[0])) / (
        2 * np.pi * volume(pentagon) / cert.frame.scale ** 2 * abs(dlam[0])
    )
    assert res.abs_value >= 0.9 * floor


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

"""Indicator/surface-measure transforms, divergence residual, cone bound."""

import io
import math

import mpmath
import numpy as np
import pytest

from gonb import (
    AxisFrame,
    ConeScanParams,
    ConeTooWide,
    FrameMismatch,
    ParallelDirection,
    ScanGrid,
    divergence_residual,
    facets,
    ft_facet_measure,
    ft_indicator,
    ft_indicator_quadrature,
    normalize,
    sigma_bound,
    translate_intersection,
    volume,
)
from gonb import fourier, from_vertices
from gonb.fourier import (
    _axis_residuals,
    _boundary_residuals,
    _ball_cone_constant,
    _ft_simplices,
    apply_frame,
    axis_sigmas,
    boundary_volume_dm2,
    cone_lambda_grid,
    divdiff_exp,
    divdiff_exp_direct,
    divdiff_exp_series,
)
from gonb.gabor import _transverse_grid, build_axis_frame
from gonb.polytope import _translate_intersections, ball_grid, facet_by_normal, is_symmetric

from conftest import (
    PENTAGON_VERTICES,
    _mp_divdiff_exp,
    ball_cone_bounds,
    make_pentagon,
    random_polygon,
    random_polytope_3d,
)

I2PI = 1j / (2 * math.pi)


# -- divided differences -----------------------------------------------------


def test_divdiff_single_node_is_exp():
    assert divdiff_exp(np.array([0.7])) == pytest.approx(np.exp(0.7j))


def test_divdiff_two_node_closed_form():
    y = np.array([0.0, 2.0])
    expected = (np.exp(2.0j) - 1.0) / 2.0j
    assert divdiff_exp(y) == pytest.approx(expected, abs=1e-14)


def test_divdiff_confluent_repeated_nodes():
    # divdiff(exp; a, a) = exp(a)
    y = np.array([1.3, 1.3])
    assert divdiff_exp(y) == pytest.approx(np.exp(1.3j), abs=1e-14)


def test_divdiff_production_matches_series_on_tight_clusters():
    rng = np.random.default_rng(5)
    for k in (2, 3, 4, 5):
        for s in (1e-8, 1e-6, 1e-5):
            y = 3.0 + s * np.sort(rng.uniform(0, 1, k))
            assert divdiff_exp(y) == pytest.approx(divdiff_exp_series(y), abs=1e-14)


def test_divdiff_production_matches_direct_when_separated():
    rng = np.random.default_rng(6)
    for k in (2, 3, 4, 5):
        for _ in range(20):
            y = np.sort(rng.uniform(-5, 5, k))
            if np.min(np.diff(y)) < 5e-2:
                continue
            a, b = divdiff_exp(y), divdiff_exp_direct(1j * y)
            assert abs(a - b) <= 1e-11 * max(1.0, abs(b))


def test_divdiff_branch_agreement_in_overlap_band():
    """Direct recursion vs confluent series in the band where both are accurate."""
    bands = {
        2: (1e-3, 1e-1, [np.array([0.0, 1.0])]),
        3: (5e-3, 1e-1, [np.array([0.0, a, 1.0]) for a in (0.3, 0.5, 0.7)]),
        4: (1e-1, 1.0, [np.array([0.0, 0.34, 0.71, 1.0])]),
        5: (3e-1, 1.0, [np.array([0.0, 0.27, 0.52, 0.77, 1.0])]),
    }
    for _k, (lo, hi, shapes) in bands.items():
        for s in np.geomspace(lo, hi, 12):
            for base in (-15.0, 0.0, 7.3):
                for f in shapes:
                    y = base + s * f
                    d = divdiff_exp_direct(1j * y)
                    t = divdiff_exp_series(y)
                    assert abs(d - t) <= 1e-10 * max(1.0, abs(t))


def test_divdiff_two_far_clusters():
    # forces the subset split: tight pairs at both ends of a wide gap
    y = np.array([0.0, 1e-7, 2.5, 2.5 + 3e-8])
    direct_wide = divdiff_exp(y)
    # reference by perturbing the clusters apart slightly and Richardson-like check
    y2 = np.array([0.0, 1e-3, 2.5, 2.5 + 1e-3])
    assert abs(divdiff_exp(y2) - direct_wide) < 2e-3


@pytest.mark.parametrize("k", [3, 4, 5])
def test_divdiff_matches_mpmath_across_the_regime_split(k):
    """Gaps straddle 1e-4 (where a subset recursion switching to the series
    lost accuracy) and 1 (the split between series and recurrence)."""
    rng = np.random.default_rng(k)
    rows = []
    for gap in (1e-7, 5e-5, 9.9e-5, 1.01e-4, 2e-4, 1e-3, 0.3, 0.99, 1.0, 1.01, 2.0, 30.0):
        for _ in range(6):
            y = rng.uniform(-20, 20) + np.cumsum(gap * rng.uniform(0.5, 1.5, k))
            rows.append(rng.permutation(y))
    rows = np.array(rows)
    batch = divdiff_exp(rows)
    with mpmath.workdps(60):
        for y, got in zip(rows, batch):
            ref = _mp_divdiff_exp(y, mpmath)
            assert abs(got - ref) <= 1e-13 * abs(ref)
            assert divdiff_exp(y) == got  # a row has the same bits alone


def test_divdiff_rejects_bad_nodes():
    for y in ([0.0, np.nan], [0.0, np.inf], [0.0, 1.0 + 2.0j]):
        with pytest.raises(ValueError):
            divdiff_exp(np.array(y))


def test_divdiff_checks_phases_once_per_call(monkeypatch):
    """The kernel checks its phase rows once per public call, however many
    levels take the series: on 5-node rows of spread below 1 all four do."""
    calls = []
    check = fourier._phase_rows
    monkeypatch.setattr(fourier, "_phase_rows", lambda y: calls.append(1) or check(y))
    rows = np.random.default_rng(26).uniform(0.0, 0.9, (7, 5))
    divdiff_exp(rows)
    assert len(calls) == 1
    assert isinstance(divdiff_exp(rows[0]), complex)
    for y in (1j * rows, [0.0, np.nan], [np.inf, 0.0]):
        with pytest.raises(ValueError):
            divdiff_exp(y)


# -- the transform of a simplex (one pulled simplex) ---------------------------

TRIANGLE = [((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)]  # (0,0), (1,0), (0,1)


def test_ft_simplex_at_zero_is_volume():
    assert ft_indicator(normalize(TRIANGLE, 2), (0.0, 0.0)) == pytest.approx(0.5, abs=1e-14)


def test_ft_simplex_interval_full_period():
    interval = normalize([((1,), 1), ((-1,), 0)], 1)
    assert ft_indicator(interval, (1.0,)) == pytest.approx(0.0, abs=1e-14)


def test_ft_simplex_triangle_frozen_value_and_oracle():
    T = normalize(TRIANGLE, 2)
    val = ft_indicator(T, (1.0, 0.0))
    assert val == pytest.approx(-I2PI, abs=1e-13)  # hand-computed -i/(2 pi)
    q = ft_indicator_quadrature(T, (1.0, 0.0), 4000)
    assert abs(val - q) <= 1e-6 * abs(val) * 10  # quadrature-limited agreement


def test_ft_simplex_clustered_nodes_vs_quadrature():
    # lam nearly orthogonal to the bottom edge (0,0)-(1,0): its two nodes merge
    T = normalize(TRIANGLE, 2)
    lam = np.array([1e-8, 1.0])
    val = ft_indicator(T, lam)
    q = ft_indicator_quadrature(T, lam, 4000)
    assert abs(val - q) <= 1e-6 * abs(val)


# -- ft_indicator ---------------------------------------------------------------


def test_ft_square_vanishes_at_nonzero_integers(unit_square):
    for lam in [(1, 0), (0, 1), (2, -3), (5, 5)]:
        assert abs(ft_indicator(unit_square, lam)) < 1e-12


def test_ft_at_zero_is_volume(pentagon):
    assert ft_indicator(pentagon, (0.0, 0.0)) == pytest.approx(3.5, abs=1e-12)


def test_ft_pentagon_frozen_value(pentagon):
    assert ft_indicator(pentagon, (1.0, 0.0)) == pytest.approx(I2PI, abs=1e-12)
    assert ft_indicator(pentagon, (0.0, 1.0)) == pytest.approx(-I2PI, abs=1e-12)


def test_ft_pentagon_vs_quadrature_reference(pentagon):
    lam = (2.0, 3.0)
    q = ft_indicator_quadrature(pentagon, lam, 2000)
    assert abs(ft_indicator(pentagon, lam) - q) <= 1e-3 * volume(pentagon)


def test_ft_empty_and_degenerate_are_zero(unit_square):
    assert ft_indicator(translate_intersection(unit_square, (5, 0)), (1, 1)) == 0
    assert ft_indicator(translate_intersection(unit_square, (1, 0)), (1, 1)) == 0


def test_ft_conjugate_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(20):
        P = random_polygon(rng)
        lam = rng.uniform(-8, 8, 2)
        a = ft_indicator(P, -lam)
        b = np.conj(ft_indicator(P, lam))
        assert abs(a - b) <= 1e-12


def test_ft_translation_phase_law():
    rng = np.random.default_rng(12)
    for _ in range(15):
        P = random_polygon(rng)
        v = rng.uniform(-2, 2, 2)
        lam = rng.uniform(-6, 6, 2)
        shifted = normalize([(a, c + a @ v) for a, c in zip(P.A, P.b)], 2)
        lhs = ft_indicator(shifted, lam)
        rhs = np.exp(-2j * np.pi * (lam @ v)) * ft_indicator(P, lam)
        assert abs(lhs - rhs) <= 1e-10


def test_ft_indicator_many_matches_single(pentagon):
    lams = np.array([[0.0, 0.0], [1.0, 0.0], [2.5, -1.5], [0.1, 7.7]])
    many = ft_indicator(pentagon, lams)
    for row, lam in zip(many, lams):
        assert row == pytest.approx(ft_indicator(pentagon, lam), abs=1e-13)


@pytest.mark.parametrize("name", ["pentagon", "polygon"])
def test_ft_indicator_many_rows_are_single_calls_bit_for_bit(name):
    P = make_pentagon() if name == "pentagon" else random_polygon(np.random.default_rng(8))
    Q = translate_intersection(P, (0.5, -0.25))
    assert not Q.empty
    rng = np.random.default_rng(600)
    lams = rng.uniform(-12, 12, (600, 2)) * 10.0 ** rng.uniform(-6, 1, (600, 1))
    many = ft_indicator(Q, lams)
    assert np.array_equal(many, [ft_indicator(Q, lam) for lam in lams])


def _box(d):
    return normalize([(tuple(s * e), 1.0 if s > 0 else 0.0)
                      for e in np.eye(d) for s in (1, -1)], d)


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("scale", [1e-6, 1e-5, 1e-4, 1.0])
def test_box_transform_matches_sinc_product(d, scale):
    rng = np.random.default_rng(d)
    lams = scale * np.concatenate([[[3.0, 1.0, -2.0, 0.5][:d]],
                                   rng.uniform(-3, 3, (7, d))])
    exact = np.prod(np.exp(-1j * np.pi * lams) * np.sinc(lams), axis=1)
    assert np.abs(ft_indicator(_box(d), lams) - exact).max() <= 1e-13


# float.hex (re, im) of ft_indicator, numpy 2.4.6 with Python 3.11.7 on x86-64
# Linux; another numpy, BLAS or CPU may move the last bit
FT_BITS = {
    1: [
        ("0x1.1763ff045efc2p-2", "0x1.cee8d644435dap-4"),
        ("0x1.bfffffa9c37b5p+0", "-0x1.b05d12fc489a3p-13"),
        ("-0x1.c16db99c34145p-55", "0x1.45f306dc9c883p-3"),
    ],
    2: [
        ("0x1.0f185979eca00p-13", "0x1.bf2831071c1bap-4"),
        ("0x1.bfffff856c5f2p+1", "-0x1.12843cc791159p-11"),
        ("0x0.0p+0", "0x0.0p+0"),
    ],
    3: [
        ("0x1.2cc85ca19a760p-9", "-0x1.ef0a6690c7fbep-9"),
        ("0x1.bfffffb88e49dp-1", "-0x1.b739faf71ac09p-14"),
        ("0x1.ffffffffffffep-61", "0x0.0p+0"),
    ],
    4: [
        ("-0x1.1dfa6317630dap-9", "-0x1.4c4670114b6f7p-9"),
        ("0x1.bfffffa930880p-1", "-0x1.f0dffd7b478f3p-14"),
        ("-0x1.4000000000000p-61", "0x1.1319d7c4be5e8p-62"),
    ],
}


def _bit_cases(pentagon):
    """(d, body, frequencies): one body per dimension (an interval, the
    pentagon, the cut cube and the cut 4-cube) at a generic, a tiny and an
    integer frequency."""
    bodies = {1: normalize([((1,), 1.5), ((-1,), 0.25)], 1), 2: pentagon,
              3: _cut_box(3), 4: _cut_box(4)}
    for d, P in bodies.items():
        yield d, P, np.array([[0.7, -1.3, 2.1, 0.4][:d], [3e-5, -1e-5, 2e-5, 5e-6][:d],
                              [2.0, -1.0, 3.0, 1.0][:d]])


def test_ft_indicator_keeps_its_bits(pentagon):
    for d, P, lams in _bit_cases(pentagon):
        assert [(v.real.hex(), v.imag.hex()) for v in ft_indicator(P, lams)] == FT_BITS[d]


# float.hex (re, im) of ft_indicator_quadrature at 40 points per axis, numpy
# 2.4.6 with Python 3.11.7 on x86-64 Linux; another numpy, BLAS or CPU may
# move the last bit
QUAD_BITS = {
    1: [
        ("0x1.17d275dc43c4ep-2", "0x1.cf9fdc303b2a2p-4"),
        ("0x1.bfffffa9c8ef1p+0", "-0x1.b05d12fc4ddd2p-13"),
        ("-0x1.c723975f58097p-55", "0x1.4a173fd0e7a97p-3"),
    ],
    2: [
        ("-0x1.310a4995afc54p-7", "0x1.a0602140ecebfp-4"),
        ("0x1.c33332b89e76cp+1", "-0x1.127d35b53b7a0p-11"),
        ("0x1.e6d94cc216328p-56", "-0x1.1637d8f2ee63ep-54"),
    ],
    3: [
        ("0x1.2ed42fa49ea1cp-9", "-0x1.f268884d0e04cp-9"),
        ("0x1.c33332eb0782fp-1", "-0x1.bb5ba340f608fp-14"),
        ("-0x1.7abe34e423747p-59", "-0x1.dcec6bee8f6cbp-63"),
    ],
}


def test_ft_indicator_quadrature_keeps_its_bits(pentagon):
    """The oracle at the bodies and frequencies of the FT_BITS pins, d = 1-3."""
    for d, P, lams in _bit_cases(pentagon):
        if d in QUAD_BITS:
            got = ft_indicator_quadrature(P, lams, 40)
            assert [(v.real.hex(), v.imag.hex()) for v in got] == QUAD_BITS[d]


def test_thin_simplex_4d_at_small_frequency():
    """x >= 0, sum x_i / a_i <= 1: nodes 0 and -2 pi i a_i lam_i, spread 5e-4."""
    a = np.array([1.0, 2.0, 3.0, 4.0])
    S = normalize([(tuple(-e), 0.0) for e in np.eye(4)] + [(tuple(1 / a), 1.0)], 4)
    assert volume(S) == pytest.approx(1.0, abs=1e-12)  # prod(a) / 4!
    lam = 2e-5 * np.ones(4)
    val = ft_indicator(S, lam)
    assert abs(abs(val) / volume(S) - 1.0) <= 1e-8
    with mpmath.workdps(60):
        ref = 24.0 * _mp_divdiff_exp(np.concatenate([[0.0], -2 * np.pi * a * lam]), mpmath)
    assert abs(val - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_transforms_reject_non_finite_frequencies(bad, pentagon):
    F = facets(pentagon)[0]
    with pytest.raises(ValueError):
        ft_indicator(pentagon, (bad, 0.0))
    with pytest.raises(ValueError):
        ft_indicator(pentagon, [[0.0, 1.0], [1.0, bad]])
    with pytest.raises(ValueError):
        ft_facet_measure(F, (0.0, bad))


# -- quadrature oracle -----------------------------------------------------------


def test_quadrature_volume_control(unit_square):
    assert ft_indicator_quadrature(unit_square, (0.0, 0.0), 100) == pytest.approx(
        1.0, abs=1e-3
    )


def test_quadrature_interval_full_period():
    P = normalize([((1,), 1), ((-1,), 0)], 1)
    q = ft_indicator_quadrature(P, (1.0,), 10_000)
    assert abs(q) <= 1e-3


def test_quadrature_rejects_tiny_grid(unit_square):
    with pytest.raises(ValueError):
        ft_indicator_quadrature(unit_square, (1.0, 0.0), 1)


def test_quadrature_many_matches_single(pentagon):
    lams = np.array([[1.0, 0.0], [0.0, 1.0]])
    many = ft_indicator_quadrature(pentagon, lams, 400)
    for row, lam in zip(many, lams):
        assert row == pytest.approx(ft_indicator_quadrature(pentagon, lam, 400), abs=1e-12)


def _masked_quadrature(P, lams, n):
    """The midpoint rule as a masked sum over the whole n^d grid: the
    reference for the row-wise oracle. Returns (values, included points)."""
    lams = np.asarray(lams, dtype=float).reshape(-1, P.dim)
    lo, hi = P.bounding_box()
    d = P.dim
    h = (hi - lo) / n
    idx = np.unravel_index(np.arange(n ** d), (n,) * d)
    pts = np.stack([lo[k] + (idx[k] + 0.5) * h[k] for k in range(d)], axis=1)
    inside = np.all(P.A @ pts.T <= P.b[:, None] + 1e-12, axis=0)
    vals = np.exp(-2j * np.pi * (pts[inside] @ lams.T)).sum(axis=0) * np.prod(h)
    return vals, int(inside.sum())


def _quadrature_cases():
    rng = np.random.default_rng(404)
    box4 = [(tuple(s * e), 1.0 if s > 0 else 0.0) for e in np.eye(4) for s in (1, -1)]
    return {
        "interval": (normalize([((1,), 1.3), ((-1,), 0.2)], 1), 301),
        # at even n, midpoints lie exactly on the cut edge y - x = 1 and pass
        # the inside test through its 1e-12 slack
        "pentagon_even": (make_pentagon(), 64),
        "polygon": (random_polygon(rng), 157),
        "polytope_3d": (random_polytope_3d(rng), 40),
        "cut_cube_4d": (normalize(box4 + [((1, 1, 1, 1), 3.2)], 4), 12),
        "simplex_4d": (normalize([(tuple(-e), 0.0) for e in np.eye(4)]
                                 + [((1, 2, 1, 1), 1.5)], 4), 11),
    }


@pytest.mark.parametrize("name", list(_quadrature_cases()))
def test_quadrature_rows_match_masked_sum(name):
    P, n = _quadrature_cases()[name]
    rng = np.random.default_rng(7)
    lams = np.concatenate([np.zeros((1, P.dim)), rng.uniform(-6, 6, (5, P.dim))])
    ref, count = _masked_quadrature(P, lams, n)
    got = ft_indicator_quadrature(P, lams, n)
    lo, hi = P.bounding_box()
    # at lam = 0 the sum counts the included midpoints
    assert round(got[0].real / np.prod((hi - lo) / n)) == count
    assert np.abs(got - ref).max() <= 1e-12 * volume(P)


@pytest.mark.parametrize("name", list(_quadrature_cases()))
def test_quadrature_batch_rows_are_the_single_values(name):
    """Row i of a batch has the bits of the call at lams[i] alone: each
    frequency's row terms are one contiguous pairwise sum."""
    P, n = _quadrature_cases()[name]
    lams = np.random.default_rng(9).uniform(-6, 6, (7, P.dim))
    got = ft_indicator_quadrature(P, lams, n)
    assert got.tolist() == [ft_indicator_quadrature(P, lam, n) for lam in lams]


def _grid_rows(lo, h, n, d):
    """Front coordinates (n^(d-1), d-1) of the grid rows, as the oracle
    forms them."""
    rows = np.arange(n ** (d - 1))
    idx = np.unravel_index(rows, (n,) * (d - 1)) if d > 1 else ()
    idx = np.array(idx, dtype=np.int64).T.reshape(rows.size, d - 1)
    return lo[:-1] + (idx + 0.5) * h[:-1]


def _interval_cases():
    """(body, lo, h, n): the quadrature cases on their bounding-box grids;
    unit boxes on grids whose midpoints fall on the facets (ties at the
    1e-12 slack) and whose rows partly miss the box; the pentagon on a grid
    reaching 0.5 beyond its bounding box."""
    cases = {}
    for name, (P, n) in _quadrature_cases().items():
        lo, hi = P.bounding_box()
        cases[name] = (P, lo, (hi - lo) / min(n, 40), min(n, 40))
    for d in (1, 2, 3):
        box = normalize([(tuple(s * e), 1.0 if s > 0 else 0.0)
                         for e in np.eye(d) for s in (1, -1)], d)
        # midpoints at 0.25 k, k = 0..7: the facets x_c = 0 and 1 hold k = 0 and 4
        cases[f"box_{d}d"] = (box, np.full(d, -0.125), np.full(d, 0.25), 8)
    P = make_pentagon()
    lo, hi = P.bounding_box()
    cases["pentagon_margin"] = (P, lo - 0.5, (hi - lo + 1) / 30, 30)
    return cases


@pytest.mark.parametrize("name", list(_interval_cases()))
def test_midpoint_intervals_match_a_brute_force_count(name):
    """(first, count) of each row marks exactly the n^d grid midpoints that
    pass A x <= b + 1e-12."""
    P, lo, h, n = _interval_cases()[name]
    d = P.dim
    idx = np.stack(np.unravel_index(np.arange(n ** d), (n,) * d), axis=1)
    pts = lo + (idx + 0.5) * h
    want = np.all(P.A @ pts.T <= P.b[:, None] + 1e-12, axis=0).reshape(-1, n)
    first, count = fourier._midpoint_intervals(P.A, P.b, lo, h, n, _grid_rows(lo, h, n, d))
    k = np.arange(n)
    got = (k >= first[:, None]) & (k < (first + count)[:, None])
    assert np.array_equal(got, want)
    assert want.any()
    if d > 1 and name.startswith(("box", "pentagon_margin")):
        assert not want.any(axis=1).all()  # some rows miss the body


# -- facet surface measures -------------------------------------------------------


def _left_edge(P):
    return next(F for F in facets(P) if F.normal[0] < -0.5)


def _right_edge(P):
    return next(F for F in facets(P) if F.normal[0] > 0.5)


def test_facet_measure_phase_free_segment(unit_square):
    F = _left_edge(unit_square)  # segment x=0 from (0,0) to (0,1)
    assert ft_facet_measure(F, (5.0, 0.0)) == pytest.approx(1.0, abs=1e-13)
    assert ft_facet_measure(F, (0.0, 1.0)) == pytest.approx(0.0, abs=1e-13)


def test_facet_measure_translation_phase(unit_square):
    right = _right_edge(unit_square)  # segment on {x=1}
    left = _left_edge(unit_square)  # its translate on {x=0}
    for lam in [(1.3, 0.4), (0.25, -2.0)]:
        lam = np.asarray(lam)
        expected = np.exp(-2j * np.pi * lam[0]) * ft_facet_measure(left, lam)
        assert ft_facet_measure(right, lam) == pytest.approx(expected, abs=1e-12)


def test_facet_measure_at_zero_is_volume(pentagon):
    for F in facets(pentagon):
        assert ft_facet_measure(F, (0.0, 0.0)) == pytest.approx(F.volume_dm1, abs=1e-12)


# -- divergence residual -----------------------------------------------------------


def test_divergence_identity_all_facets_random():
    rng = np.random.default_rng(21)
    for _ in range(40):
        P = random_polygon(rng) if rng.uniform() < 0.7 else random_polytope_3d(rng)
        lam = rng.uniform(-6, 6, P.dim)
        lhs = -2j * np.pi * lam[0] * ft_indicator(P, lam)
        rhs = sum(F.normal[0] * ft_facet_measure(F, lam) for F in facets(P))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


def test_divergence_residual_square_is_zero(unit_square):
    ident = AxisFrame.identity(2)
    for lam in [(3.3, 1.7), (0.5, -2.0), (10.0, 0.1), (0.0, 4.0)]:
        assert abs(divergence_residual(unit_square, ident, lam)) <= 1e-12
        assert abs(divergence_residual(unit_square, ident, lam, via_boundary=True)) == 0


def test_divergence_residual_at_zero_frequency(pentagon):
    rep = is_symmetric(pentagon, 1e-9)
    frame = build_axis_frame(pentagon, *rep.witness)
    g0 = divergence_residual(pentagon, frame, np.zeros(2))
    from gonb import apply_frame

    Q = apply_frame(pentagon, frame)
    fa, fb = _axis_pair(Q)
    assert g0 == pytest.approx(fa.volume_dm1 - fb.volume_dm1, abs=1e-12)


def test_divergence_residual_routes_agree(pentagon):
    rep = is_symmetric(pentagon, 1e-9)
    frame = build_axis_frame(pentagon, *rep.witness)
    rng = np.random.default_rng(3)
    for _ in range(25):
        t = rng.uniform(-0.05, 0.05, 2)
        lam = rng.uniform(-30, 30, 2)
        Qt = translate_intersection(pentagon, t)
        a = divergence_residual(Qt, frame, lam)
        b = divergence_residual(Qt, frame, lam, via_boundary=True)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def test_empty_and_touching_translates_have_zero_residuals(pentagon):
    """An empty translate and a touching one (the segment x = 2, y in [0, 1])
    have no facets, so both residual routes give zeros; a full-dimensional
    body with neither axis facet stays a FrameMismatch on both."""
    frame = build_axis_frame(pentagon, *is_symmetric(pentagon, 1e-9).witness)
    lams = np.random.default_rng(4).uniform(-30, 30, (6, 2))
    for t, empty in (((5.0, 5.0), True), ((2.0, 0.0), False)):
        Qt = translate_intersection(pentagon, t)
        assert Qt.degenerate and Qt.empty == empty
        for via in (False, True):
            vals = divergence_residual(Qt, frame, lams, via_boundary=via)
            assert vals.shape == (6,) and not vals.any()
    tilted = from_vertices([[0.0, 0.0], [2.0, 1.0], [1.0, 2.0]])
    for via in (False, True):
        with pytest.raises(FrameMismatch, match="no facet pair"):
            divergence_residual(tilted, AxisFrame.identity(2), lams, via_boundary=via)


def test_batched_residual_and_facet_measure_match_single_rows(pentagon):
    frame = build_axis_frame(pentagon, *is_symmetric(pentagon, 1e-9).witness)
    rng = np.random.default_rng(9)
    lams = rng.uniform(-30, 30, (40, 2))
    Qt = translate_intersection(pentagon, (0.03, -0.02))
    cases = [(lambda x, via=via: divergence_residual(Qt, frame, x, via_boundary=via))
             for via in (False, True)]
    cases += [(lambda x, F=F: ft_facet_measure(F, x)) for F in facets(pentagon)]
    for fn in cases:
        batch = fn(lams)
        assert batch.shape == (40,)
        for lam, val in zip(lams, batch):
            one = fn(lam)
            assert isinstance(one, complex) and one == val


def _axis_pair(Q):
    """The facets of Q with unit normals -e1 and +e1, None where absent."""
    e1 = np.eye(Q.dim)[0]
    return facet_by_normal(Q, -e1), facet_by_normal(Q, e1)


def _member(Q):
    """A full-dimensional body as the one-member call (family, [j])."""
    F, j = Q._member
    return F, [j]


def _axis_sigma_reference(Qt, lams):
    """(sigma_A, sigma_B) arrays over rows of lams for the axis facet pair,
    as the certificate scan computed them before fourier.axis_sigmas."""
    fa, fb = _axis_pair(Qt)
    n = lams.shape[0]
    sa = np.zeros(n, dtype=complex)
    sb = np.zeros(n, dtype=complex)
    for F, out in ((fa, sa), (fb, sb)):
        if F is None:
            continue
        phases = np.exp(-2j * np.pi * (lams @ F.origin))
        if F.dim == 1:
            out[:] = phases
        else:
            out[:] = phases * _ft_simplices(F.simplices, [len(F.simplices)], lams @ F.tangent, [n])
    return sa, sb


def _certificate_translates(P, eps, n_angles, n_radii):
    """The witness-frame window, a certificate translate grid, and
    frequencies like those of its scan and cylinder."""
    Q = apply_frame(P, build_axis_frame(P, *is_symmetric(P, 1e-9).witness))
    grid = ball_grid(P.dim, eps, n_angles, n_radii)
    tr = ball_grid(P.dim - 1, 0.5, 8, 2)
    lam1 = np.concatenate([[0.0], np.geomspace(10.0, 200.0, 12)])
    lams = np.concatenate([np.repeat(lam1, tr.shape[0])[:, None],
                           np.tile(tr, (lam1.size, 1))], axis=1)
    return Q, grid, lams


def test_axis_sigmas_match_the_scan_formula(pentagon):
    """One-body axis_sigmas against the scan formula; the batch over the
    translates gives each translate the bits of its one-body call."""
    cube = [(tuple(s * e), 1.0 if s > 0 else 0.0) for e in np.eye(3) for s in (1, -1)]
    # the default translate grid in 2-d, the reduced one of the 3-d certificate test
    for P, grid in ((pentagon, (8, 2)), (normalize(cube + [((1, 1, 0), 1.5)], 3), (4, 1))):
        Q, shifts, lams = _certificate_translates(P, 0.1, *grid)
        # the reference's matmuls and ft_facet_measure's fixed-order sums can
        # round <lam, origin> and the tangent coordinates an ulp apart; with
        # frame coordinates below 2 a phase moves by a few ulps of 4*pi*|lam|_1
        rel = 4 * np.finfo(float).eps * 4 * np.pi * np.abs(lams).sum(axis=1)
        for F in _translate_intersections(Q, shifts).families:
            sa, sb = axis_sigmas(F, slice(None), lams)
            for k, got_a, got_b in zip(F.members, sa, sb):
                Qt = translate_intersection(Q, shifts[k])
                one = [s[0] for s in axis_sigmas(*_member(Qt), lams)]
                assert np.array_equal(got_a, one[0]) and np.array_equal(got_b, one[1])
                for got, ref in zip(one, _axis_sigma_reference(Qt, lams)):
                    assert np.all(np.abs(got - ref) <= rel * np.abs(ref))


def _cut_box(d):
    """The unit d-cube cut by x_1 + x_2 <= 1.5."""
    box = [(tuple(s * e), 1.0 if s > 0 else 0.0) for e in np.eye(d) for s in (1, -1)]
    return normalize(box + [((1.0, 1.0) + (0.0,) * (d - 2), 1.5)], d)


def _rotated_pentagon(angle):
    c, s = math.cos(angle), math.sin(angle)
    return from_vertices(PENTAGON_VERTICES @ np.array([[c, -s], [s, c]]).T)


@pytest.mark.parametrize("case", ["pentagon", "cut cube", "cut 4-cube", "rotated pentagon"])
def test_axis_sigmas_keep_every_bit_on_a_product_grid(case, monkeypatch):
    """On a lam_1 x lam' product grid, the axis facet transforms of the
    framed ball translates and their axis-route residuals equal (==) a
    per-facet ft_facet_measure at every row. A framed axis tangent whose
    first row is exactly zero is charted at the distinct rows of lam' only;
    the pentagon rotated by 0.3 rad frames its axis normals about 1e-16 off
    +-e1, so its tangents' first rows are not zero and every row is charted."""
    P = {"pentagon": make_pentagon, "cut cube": lambda: _cut_box(3),
         "cut 4-cube": lambda: _cut_box(4),
         "rotated pentagon": lambda: _rotated_pentagon(0.3)}[case]()
    d = P.dim
    Q = apply_frame(P, build_axis_frame(P, *is_symmetric(P, 1e-9).witness))
    shifts = ball_grid(d, 0.1, 4, 1)
    fams = _translate_intersections(Q, shifts).families
    tr = _transverse_grid(d, 0.5, 7)
    lam1 = np.concatenate([[0.0], np.geomspace(10.0, 200.0, 6)])
    lams = np.concatenate([np.repeat(lam1, tr.shape[0])[:, None],
                           np.tile(tr, (lam1.size, 1))], axis=1)
    charted = []
    batch = fourier._ft_simplices

    def counted(simp, m, rows, n):
        charted.append(list(n))
        return batch(simp, m, rows, n)

    monkeypatch.setattr(fourier, "_ft_simplices", counted)
    out = [(F, axis_sigmas(F, slice(None), lams), _axis_residuals(F, slice(None), lams))
           for F in fams]
    monkeypatch.undo()
    full = case == "rotated pentagon"
    # the facet batches of both calls of each family (the residual's
    # indicator batch is last)
    for facet_a, facet_b, _ in zip(charted[::3], charted[1::3], charted[2::3]):
        assert facet_a == facet_b == [lams.shape[0] if full else tr.shape[0]] * len(facet_a)
    for F, (sa, sb), (ft, sa_r, sb_r, g) in out:
        for i, k in enumerate(F.members):
            Qt = translate_intersection(Q, shifts[k])
            fa, fb = _axis_pair(Qt)
            assert all(G is None or bool(G.tangent[0].any()) == full for G in (fa, fb))
            ref_a, ref_b = (np.zeros(lams.shape[0], dtype=complex) if G is None
                            else ft_facet_measure(G, lams) for G in (fa, fb))
            for got_a, got_b in ((sa[i], sb[i]), (sa_r[i], sb_r[i])):
                assert np.array_equal(got_a, ref_a) and np.array_equal(got_b, ref_b)
            ref_ft = ft_indicator(Qt, lams)
            assert np.array_equal(ft[i], ref_ft)
            assert np.array_equal(g[i], -2j * np.pi * lams[:, 0] * ref_ft + ref_a - ref_b)


@pytest.mark.parametrize("case", ["pentagon", "cut cube", "cut 4-cube"])
def test_family_evaluators_equal_the_one_body_transforms(case):
    """For every translate of a certificate ball (the pentagon at eps 0.2 on
    the default translate grid, the cut cube and the cut 4-cube at eps 0.1 on
    the reduced one), the family evaluators' sigma_A, sigma_B, G by both
    routes and ft equal (==) ft_facet_measure and ft_indicator on its
    translate_intersection view: its axis facets, its G facets summed in
    facet order, and the axis-route identity. The frequencies are a
    lam_1 x lam' grid plus rows off it."""
    P, eps, grid = {"pentagon": (make_pentagon(), 0.2, (8, 2)),
                    "cut cube": (_cut_box(3), 0.1, (4, 1)),
                    "cut 4-cube": (_cut_box(4), 0.1, (4, 1))}[case]
    d = P.dim
    frame = build_axis_frame(P, *is_symmetric(P, 1e-9).witness)
    Q = apply_frame(P, frame)
    shifts = ball_grid(d, eps / frame.scale, *grid)
    tr = _transverse_grid(d, 0.5, 5)
    lam1 = np.array([0.0, 10.0, 60.0, 200.0])
    lams = np.concatenate([np.concatenate([np.repeat(lam1, tr.shape[0])[:, None],
                                           np.tile(tr, (lam1.size, 1))], axis=1),
                           np.random.default_rng(2).uniform(-40, 40, (5, d))])
    fams = _translate_intersections(Q, shifts).families
    assert sum(F.members.size for F in fams) == len(shifts)
    zero = np.zeros(lams.shape[0], dtype=complex)
    for F in fams:
        sa, sb = axis_sigmas(F, slice(None), lams)
        g_boundary = _boundary_residuals(F, slice(None), lams)
        ft, sa_r, sb_r, g_axis = _axis_residuals(F, slice(None), lams)
        for i, k in enumerate(F.members):
            Qt = translate_intersection(Q, shifts[k])
            fa, fb = _axis_pair(Qt)
            ref_a, ref_b = (zero if G is None else ft_facet_measure(G, lams) for G in (fa, fb))
            ref_g = zero
            for G in facets(Qt):
                if G is not fa and G is not fb and abs(G.normal[0]) > 1e-14:
                    ref_g = ref_g + G.normal[0] * ft_facet_measure(G, lams)
            ref_ft = ft_indicator(Qt, lams)
            for got, ref in ((sa[i], ref_a), (sb[i], ref_b), (sa_r[i], ref_a), (sb_r[i], ref_b),
                             (g_boundary[i], ref_g), (ft[i], ref_ft),
                             (g_axis[i], -2j * np.pi * lams[:, 0] * ref_ft + ref_a - ref_b)):
                assert np.array_equal(got, ref)


# -- sigma bound ----------------------------------------------------------------


def test_sigma_bound_unit_segment_orthogonal(unit_square):
    F = _left_edge(unit_square)  # length 1, normal (-1, 0)
    # lam orthogonal to the normal, |lam| = 1
    assert sigma_bound(F, (0.0, 1.0)) == pytest.approx(1.0 / math.pi, abs=1e-12)


def test_boundary_volume_closed_forms():
    def box(d):
        return [(tuple(s * e), 1.0 if s > 0 else 0.0) for e in np.eye(d) for s in (1, -1)]

    for d, perimeter in ((2, 2.0), (3, 4.0), (4, 6.0)):
        assert all(boundary_volume_dm2(F) == pytest.approx(perimeter, rel=1e-14)
                   for F in facets(normalize(box(d), d)))
    cut = {tuple(np.round(F.normal, 12)): boundary_volume_dm2(F)
           for F in facets(normalize(box(3) + [((1, 1, 0), 1.5)], 3))}
    r = round(math.sqrt(0.5), 12)
    assert cut[(r, r, 0.0)] == pytest.approx(2 + math.sqrt(2), rel=1e-14)  # 1 x sqrt(1/2)
    assert cut[(0.0, 0.0, 1.0)] == pytest.approx(3 + math.sqrt(0.5), rel=1e-14)  # cut square
    assert cut[(-1.0, 0.0, 0.0)] == pytest.approx(4.0, rel=1e-14)


def test_sigma_bound_dominates_measure():
    rng = np.random.default_rng(31)
    for _ in range(40):
        P = random_polygon(rng) if rng.uniform() < 0.7 else random_polytope_3d(rng)
        F = facets(P)[int(rng.integers(0, len(facets(P))))]
        lam = rng.uniform(-8, 8, P.dim)
        perp = lam - (lam @ F.normal) * F.normal
        if np.linalg.norm(lam) < 0.3 or np.linalg.norm(perp) < 0.1:
            continue
        assert abs(ft_facet_measure(F, lam)) <= sigma_bound(F, lam) * (1 + 1e-9)


def test_sigma_bound_inverse_frequency_decay(unit_square):
    F = _left_edge(unit_square)
    b1 = sigma_bound(F, (0.0, 3.0))
    b2 = sigma_bound(F, (0.0, 6.0))
    assert b2 == pytest.approx(b1 / 2, abs=1e-12)


def test_sigma_bound_parallel_direction_raises(unit_square):
    F = _left_edge(unit_square)
    with pytest.raises(ParallelDirection):
        sigma_bound(F, (2.0, 0.0))


# -- cone constant ----------------------------------------------------------------


def test_cone_constant_square_is_zero(unit_square):
    zero = np.zeros((1, 2))
    bound = _ball_cone_constant(_translate_intersections(unit_square, zero).families, zero, 0.2,
                                ConeScanParams(n_radial=16, n_cross=5))
    assert bound.value <= 1e-12


def _pentagon_frame(pentagon):
    rep = is_symmetric(pentagon, 1e-9)
    return build_axis_frame(pentagon, *rep.witness)


def test_cone_constant_pentagon_finite_and_stable(pentagon):
    frame = _pentagon_frame(pentagon)
    p1 = ConeScanParams(r0=10, r1=200, n_radial=48, n_cross=9)
    p2 = ConeScanParams(r0=10, r1=400, n_radial=56, n_cross=9)
    c1 = max(b.value for _, b in ball_cone_bounds(pentagon, frame, 0.2, p1, 0.05))
    c2 = max(b.value for _, b in ball_cone_bounds(pentagon, frame, 0.2, p2, 0.05))
    assert 0 < c1 < 10
    assert abs(c2 - c1) < 0.1 * c1


def test_cone_constant_monotone_in_omega(pentagon):
    frame = _pentagon_frame(pentagon)
    # nested cross grids: fractions {0, +-1/2, +-1} at omega vs 2*omega
    p = ConeScanParams(r0=10, r1=100, n_radial=24, n_cross=5)
    zero = np.zeros((1, 2))
    Q = _translate_intersections(apply_frame(pentagon, frame), zero).families
    c_small = _ball_cone_constant(Q, zero, 0.1, p)
    c_big = _ball_cone_constant(Q, zero, 0.2, p)
    assert c_small.value <= c_big.value * (1 + 1e-9)


def test_cone_region_membership():
    """Every cone grid frequency lies in |lam_j| <= omega |lam_1|, j >= 2."""
    for dim in (2, 3):
        grid = cone_lambda_grid(dim, 0.2, ConeScanParams(r0=5, r1=20, n_radial=6, n_cross=7))
        assert np.all(np.abs(grid[:, 1:]) <= 0.2 * grid[:, :1] * (1 + 1e-12))
        assert np.all(grid[:, 0] >= 5.0 * (1 - 1e-12))


def test_cone_constant_matches_pointwise_scan(pentagon):
    """The batched scan of each ball translate against the loop over lam it
    replaced."""
    frame = _pentagon_frame(pentagon)
    params = ConeScanParams(r0=10, r1=100, n_radial=12, n_cross=5)
    Q = apply_frame(pentagon, frame)
    ident = AxisFrame.identity(2)

    def scaled_residual(Qt, lam):
        return abs(lam[0]) * abs(divergence_residual(Qt, ident, lam, via_boundary=True))

    for t, bound in ball_cone_bounds(pentagon, frame, 0.2, params, 0.05, 4, 1):
        Qt = translate_intersection(Q, t)
        best = max(scaled_residual(Qt, lam) for lam in cone_lambda_grid(2, 0.2, params))
        assert bound.value == pytest.approx(best, rel=1e-13)
        assert scaled_residual(Qt, bound.arg_lam) == pytest.approx(best, rel=1e-13)
        assert not np.any(bound.arg_t)


def test_cone_row_budget_is_the_rows_the_residuals_form(pentagon, monkeypatch):
    """The cone budgets the (G facet x frequency) rows that the boundary route
    forms: on the 17 framed ball translates of the pentagon certificate
    (eps 0.2) and its 64 x 16 cone frequencies that is one facet per
    translate, 17 x 1,024 rows in one batch. The framed top and bottom
    facets, with <e1, n> = 0, enter neither the rows nor the angle check."""
    frame = _pentagon_frame(pentagon)
    Q = apply_frame(pentagon, frame)
    shifts = ball_grid(2, 0.2 / frame.scale, 8, 2)
    fams = _translate_intersections(Q, shifts).families
    budgets, formed, batches = [], [], []
    runs, ft_charts, residuals = fourier._runs, fourier._ft_charts, fourier._boundary_residuals

    def counted_runs(sizes, limit):
        if limit == fourier._BODY_ROWS:
            budgets.append(list(sizes))
        return runs(sizes, limit)

    def counted_charts(charts, lams):
        formed.append(sum(origins.shape[0] for _, origins, _ in charts) * lams.shape[0])
        return ft_charts(charts, lams)

    def counted_residuals(F, js, lams):
        batches.append(F.members[js].size)
        return residuals(F, js, lams)

    monkeypatch.setattr(fourier, "_runs", counted_runs)
    monkeypatch.setattr(fourier, "_ft_charts", counted_charts)
    monkeypatch.setattr(fourier, "_boundary_residuals", counted_residuals)
    bound = _ball_cone_constant(fams, shifts, 0.2, ConeScanParams())
    assert budgets == [[1024] * 17] and formed == [17 * 1024] and batches == [17]
    assert all(len(F.axis_rows[2]) == 1 for F in fams)
    # the slant facet's normal (1, -1) / sqrt(2) against directions (1, u), |u| <= 0.2
    assert bound.min_sin_theta == pytest.approx(0.8 / math.sqrt(2 * 1.04), rel=1e-12)


def test_cone_too_wide_detects_parallel_normal(pentagon):
    frame = _pentagon_frame(pentagon)
    # omega = 1 puts the direction (1, -1) in the scanned cone, parallel to the
    # mapped slant normal
    with pytest.raises(ConeTooWide):
        zero = np.zeros((1, 2))
        _ball_cone_constant(_translate_intersections(apply_frame(pentagon, frame), zero).families,
                            zero, 1.0, ConeScanParams(r0=10, r1=20, n_radial=4, n_cross=5))


def _analytic_cone_bounds(F, omega):
    """Per member of the framed translate family F, the sum over its G rows
    (Family.axis_rows) of |n_1| V_{d-2}(boundary) / (2 pi sin theta(omega)),
    with the ridge volumes of Family.charts and, for a unit normal n outside
    the cone |lam'| <= omega lam_1, sin theta(omega) = (|n'| - omega |n_1|) /
    sqrt(1 + omega^2) its sine of the angle to the cone; and the least such
    sine (not positive when a normal lies in the cone)."""
    bound, sins = np.zeros(F.members.size), []
    for r in F.axis_rows[2]:
        i, *_, ridge = F.charts[r]
        n = F.A[i]
        sins.append((np.linalg.norm(n[1:]) - omega * abs(n[0])) / math.sqrt(1 + omega ** 2))
        bound += abs(n[0]) * ridge / (2 * np.pi * sins[-1])
    return bound, min(sins)


def _sampled_min_sin(fams, lams):
    """The least sine of the angle between a frequency of the cone grid lams
    and a G-row normal of the families fams, 1.0 with no G row: the sampled
    minimum that _ball_cone_constant took before its closed form."""
    low = 1.0
    for F in fams:
        normals = F.A[[F.charts[r][0] for r in F.axis_rows[2]]].reshape(-1, lams.shape[1])
        along = (lams @ normals.T)[:, :, None] * normals
        sins = (np.linalg.norm(lams[:, None, :] - along, axis=2)
                / np.linalg.norm(lams, axis=1)[:, None])
        low = min(low, float(sins.min(initial=1.0)))
    return low


def _framed_families(P, eps, grid):
    frame = build_axis_frame(P, *is_symmetric(P, 1e-9).witness)
    shifts = ball_grid(P.dim, eps / frame.scale, *grid)
    return _translate_intersections(apply_frame(P, frame), shifts).families, shifts


def _random_bodies_outside_the_cone(draw, omega, n, grid):
    """n random non-symmetric bodies from draw whose framed G normals all lie
    strictly outside the cone, with their eps 0.05 ball families on the
    ball_grid (n_angles, n_radii) grid."""
    rng = np.random.default_rng(11)
    out = []
    while len(out) < n:
        P = draw(rng)
        if is_symmetric(P, 1e-9).witness is None:
            continue
        fams, shifts = _framed_families(P, 0.05, grid)
        if min(_analytic_cone_bounds(F, omega)[1] for F in fams) > 0:
            out.append((fams, shifts))
    return out


@pytest.mark.parametrize("case", ["pentagon", "cut cube", "cut 4-cube", "random polygons",
                                  "random 3-d bodies"])
def test_sampled_cone_constant_is_below_the_analytic_bound(case):
    """|sigma_F(lam)| <= V_{d-2}(boundary F) / (2 pi |lam| sin(lam, n_F))
    (sigma_bound) and |lam_1| <= |lam|, so each translate's sampled
    C_t = max |lam_1 G_t(lam)| over the cone grid is at most the analytic
    bound when every G normal lies outside the cone. At omega 0.2: the
    pentagon 0.398 <= 0.406, the cut cube 0.398 <= 0.693 and the cut 4-cube
    0.398 <= 0.980; the ball's maximum is _ball_cone_constant's. Its
    min_sin_theta, the closed-form least sine over the whole cone, is at
    most the least sine sampled over the cone grid (_sampled_min_sin, up to
    rounding), and equal to it to the bit on the flagships, whose cone grids
    reach the cone's edge along the normal."""
    omega = 0.2
    params = ConeScanParams(r0=1.0, r1=200.0, n_radial=32, n_cross=8)
    if case == "random polygons":
        balls = _random_bodies_outside_the_cone(random_polygon, omega, 12, (8, 2))
    elif case == "random 3-d bodies":
        balls = _random_bodies_outside_the_cone(random_polytope_3d, omega, 6, (4, 1))
    else:
        P, eps, grid = {"pentagon": (make_pentagon(), 0.2, (8, 2)),
                        "cut cube": (_cut_box(3), 0.1, (8, 2)),
                        "cut 4-cube": (_cut_box(4), 0.1, (4, 1))}[case]
        balls = [_framed_families(P, eps, grid)]
    for fams, shifts in balls:
        lams = cone_lambda_grid(shifts.shape[1], omega, params)
        sampled, analytic, sins = [], [], []
        for F in fams:
            g = np.abs(lams[:, 0]) * np.abs(_boundary_residuals(F, slice(None), lams))
            sampled.append(g.max(axis=1))
            bound, low = _analytic_cone_bounds(F, omega)
            analytic.append(bound)
            sins.append(low)
        sampled, analytic = np.concatenate(sampled), np.concatenate(analytic)
        assert np.all(sampled <= analytic)
        cone = _ball_cone_constant(fams, shifts, omega, params)
        assert cone.value == sampled.max()
        assert abs(cone.min_sin_theta - min(sins)) <= 1e-15
        if case.startswith("random"):
            assert cone.min_sin_theta <= _sampled_min_sin(fams, lams) * (1 + 1e-12)
        else:
            assert cone.min_sin_theta == _sampled_min_sin(fams, lams) == min(sins)
            want = {"pentagon": 0.406, "cut cube": 0.693, "cut 4-cube": 0.980}[case]
            assert sampled.max() == pytest.approx(0.398, abs=1e-3)
            assert analytic.max() == pytest.approx(want, abs=1e-3)


# -- scan grid / CSV ---------------------------------------------------------------


def test_scan_grid_csv_deterministic():
    pts = np.array([[0.0, 0.0, 1.0, 2.0], [0.0, 0.0, -1.5, 0.25]])
    vals = np.array([1.0 + 2.0j, -0.5j])
    grid = ScanGrid(("t_1", "t_2", "lambda_1", "lambda_2"), pts, vals)
    out1, out2 = io.StringIO(), io.StringIO()
    grid.write_csv(out1, {"field": "ft", "grid": 2})
    grid.write_csv(out2, {"field": "ft", "grid": 2})
    assert out1.getvalue() == out2.getvalue()
    lines = out1.getvalue().splitlines()
    assert lines[0].startswith("# ")
    assert lines[2] == "t_1,t_2,lambda_1,lambda_2,re,im,abs"
    assert len(lines) == 3 + 2


def test_scan_grid_csv_rows_are_per_cell_formats():
    """Every row is the per-cell f-strings of the numpy scalars, |value|
    included, on -0.0, a subnormal, +-1e+-300 and values of random scale."""
    rng = np.random.default_rng(0)
    special = np.array([0.0, -0.0, 5e-324, 1e-300, -1e-300, 1e300, -1e300, 0.1])
    scaled = rng.normal(size=(5000, 6)) * 10.0 ** rng.integers(-8, 8, (5000, 6))
    cells = np.concatenate([rng.choice(special, (200, 6)), scaled])
    grid = ScanGrid(("t_1", "t_2", "lambda_1", "lambda_2"), cells[:, :4],
                    cells[:, 4] + 1j * cells[:, 5])
    out = io.StringIO()
    grid.write_csv(out)
    rows = []
    for row, val in zip(grid.points, grid.values):
        rows.append(",".join([f"{x:.17g}" for x in row]
                             + [f"{val.real:.17g}", f"{val.imag:.17g}", f"{abs(val):.17g}"]))
    assert out.getvalue().splitlines()[1:] == rows

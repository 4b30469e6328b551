"""Polytope geometry: canonical forms, facets, symmetry, intersections, metric."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gonb import (
    EmptyPolytope,
    FacetNotInPolytope,
    SymmetricInput,
    UnboundedPolytope,
    facet_hausdorff,
    facets,
    hausdorff_distance,
    is_symmetric,
    nonsymmetry_margin,
    normalize,
    parallel_facet,
    persistence_epsilon,
    symmetry_center_oracle,
    translate_intersection,
    vertices,
    volume,
)
from gonb.polytope import (
    _check_bounded,
    _merge_duplicate_normals,
    _reduce,
    ball_grid,
    distance_to_polytope,
    facet_gap,
    facet_volume_by_normal,
)

from conftest import PENTAGON_VERTICES, random_polygon, random_polytope_3d, symmetrized_polygon


def vertex_set_equal(V, W, tol=1e-9):
    V = np.asarray(V, float)
    W = np.asarray(W, float)
    if V.shape != W.shape:
        return False
    return all(np.min(np.linalg.norm(W - v, axis=1)) <= tol for v in V)


# -- normalize ---------------------------------------------------------------


def test_normalize_drops_dominated_constraint():
    P = normalize([((1,), 1), ((1,), 2), ((-1,), 0)], 1)
    assert len(P.b) == 2
    offs = sorted(P.b.tolist())
    assert offs == [0.0, 1.0]


def test_normalize_square_is_identity(unit_square):
    assert len(unit_square.b) == 4


def test_polytope_arrays_are_read_only(pentagon):
    with pytest.raises(ValueError):
        pentagon.A[0, 0] = 5.0
    with pytest.raises(ValueError):
        pentagon.b[0] = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        pentagon.A = np.eye(2)


def test_normalize_half_line_unbounded():
    with pytest.raises(UnboundedPolytope):
        normalize([((1,), 1)], 1)


def test_normalize_infeasible_empty():
    with pytest.raises(EmptyPolytope):
        normalize([((1,), -1), ((-1,), 0)], 1)


def test_normalize_rejects_zero_normal():
    with pytest.raises(ValueError):
        normalize([((0.0, 0.0), 1.0)], 2)


def test_normalize_merges_duplicate_normals():
    P = normalize([((2, 0), 4), ((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)], 2)
    # (2,0)<=4 normalizes to (1,0)<=2, merged with (1,0)<=1 keeping min offset
    assert len(P.b) == 4
    assert volume(P) == pytest.approx(1.0)


# -- boundedness -------------------------------------------------------------


def _lp_bounded(A):
    """Reference verdict: the recession cone {A u <= 0} is {0} when the LP
    max sgn * u_i over it, inside the box |u| <= 1, is 0 for every axis i and
    both signs."""
    from scipy.optimize import linprog

    d = A.shape[1]
    for i in range(d):
        for sgn in (1.0, -1.0):
            c = np.zeros(d)
            c[i] = -sgn
            res = linprog(c, A_ub=A, b_ub=np.zeros(A.shape[0]), bounds=[(-1, 1)] * d,
                          method="highs")
            if res.status != 0 or -res.fun > 1e-9:
                return False
    return True


def _bounded(A):
    try:
        _check_bounded(A, A.shape[1])
    except UnboundedPolytope:
        return False
    return True


def _unit_rows(A):
    """Unit normals with duplicates merged, as normalize hands them over."""
    A = np.asarray(A, dtype=float)
    A = A / np.linalg.norm(A, axis=1, keepdims=True)
    return _merge_duplicate_normals(A, np.zeros(A.shape[0]))[0]


def _normal_set(kind, d, rng):
    n = int(rng.integers(1, 3 * d + 4))
    w = rng.normal(size=d)
    w /= np.linalg.norm(w)
    if kind == "random":
        return rng.normal(size=(n, d))
    if kind == "cone":  # every normal in the half-space <w, a> > 0
        A = rng.normal(size=(n, d))
        return A * np.sign(A @ w)[:, None]
    if kind == "hyperplane":  # every normal orthogonal to w
        A = rng.normal(size=(n + d, d))
        return A - np.outer(A @ w, w)
    if kind == "d rows":
        return rng.normal(size=(d, d))
    if kind == "d+1 rows":
        return rng.normal(size=(d + 1, d))
    # a simplex: d random normals and minus a positive combination of them
    V = rng.normal(size=(d, d))
    return np.vstack([V, -(rng.uniform(0.1, 1.0, d) @ V)])


# kinds whose verdict is known; "random" and "d+1 rows" must show both
_KNOWN = {"cone": False, "hyperplane": False, "d rows": False, "simplex": True}


@pytest.mark.parametrize("kind, d", [
    (kind, d) for kind in ("random", "cone", "hyperplane", "d rows", "d+1 rows", "simplex")
    for d in (1, 2, 3, 4) if (kind, d) != ("hyperplane", 1)  # no nonzero 1-d normal is flat
])
def test_boundedness_matches_lp_reference(kind, d):
    rng = np.random.default_rng(1000 * d + len(kind))
    verdicts = set()
    for _ in range(12):
        A = _unit_rows(_normal_set(kind, d, rng))
        verdict = _bounded(A)
        assert verdict == _lp_bounded(A), A
        verdicts.add(verdict)
    if kind in _KNOWN:
        assert verdicts == {_KNOWN[kind]}
    elif d > 1:
        assert verdicts == {True, False}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_boundedness_of_boxes_with_a_face_dropped(d):
    rng = np.random.default_rng(d)
    R = np.linalg.qr(rng.normal(size=(d, d)))[0]
    box = np.vstack([np.eye(d), -np.eye(d)]) @ R.T
    assert _bounded(box) and _lp_bounded(box)
    for k in range(2 * d):
        A = np.delete(box, k, axis=0)
        assert not _bounded(A) and not _lp_bounded(A)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("gap", [1e-3, 1e-5, 1e-6, 1e-7, 1e-8])
def test_boundedness_of_thin_wedges(d, gap):
    """The wedge |u_2| <= gap * u_1 is capped by u_1 <= 0 (bounded) or only
    narrowed by u_2 <= -gap/2 * u_1 (unbounded); the other axes are boxed.
    The LP reference is compared down to gap 1e-7, its solver's feasibility
    tolerance; below that it calls the capped wedge unbounded."""
    rng = np.random.default_rng(d)
    R = np.linalg.qr(rng.normal(size=(d, d)))[0]
    rest = np.vstack([np.eye(d)[2:], -np.eye(d)[2:]])
    wedge = np.zeros((2, d))
    wedge[:, :2] = [[-gap, 1.0], [-gap, -1.0]]
    for cap, expected in (([1.0, 0.0], True), ([0.5 * gap, 1.0], False)):
        row = np.zeros((1, d))
        row[0, :2] = cap
        A = _unit_rows(np.vstack([wedge, row, rest]) @ R.T)
        assert _bounded(A) == expected
        if gap >= 1e-7:
            assert _lp_bounded(A) == expected


def test_normalize_reports_the_recession_direction():
    with pytest.raises(UnboundedPolytope, match="cannot bound"):
        normalize([((1, 0), 1), ((0, 1), 1)], 2)
    with pytest.raises(UnboundedPolytope, match="do not span"):
        normalize([((1, 0, 0), 1), ((-1, 0, 0), 1), ((0, 1, 0), 1), ((0, -1, 0), 1)], 3)
    with pytest.raises(UnboundedPolytope, match=r"recession direction \[0\.0, 1\.0\]"):
        normalize([((1, 0), 1), ((-1, 0), 1), ((0, -1), 1)], 2)


# -- vertices ----------------------------------------------------------------


def test_vertices_square(unit_square):
    assert vertex_set_equal(vertices(unit_square), [(0, 0), (1, 0), (0, 1), (1, 1)])


def test_vertices_pentagon(pentagon):
    assert vertex_set_equal(vertices(pentagon), PENTAGON_VERTICES)


def test_vertices_simplex(simplex2):
    assert vertex_set_equal(vertices(simplex2), [(0, 0), (1, 0), (0, 1)])


def test_vertices_degenerate_raises(unit_square):
    from gonb import DegeneratePolytope

    point = translate_intersection(unit_square, (1.0, 1.0))
    assert point.degenerate
    with pytest.raises(DegeneratePolytope):
        vertices(point)
    far = translate_intersection(unit_square, (4.0, 0.0))
    with pytest.raises(EmptyPolytope):
        vertices(far)


def test_hausdorff_empty_raises(unit_square):
    far = translate_intersection(unit_square, (4.0, 0.0))
    with pytest.raises(EmptyPolytope):
        hausdorff_distance(unit_square, far)


# -- volume ------------------------------------------------------------------


def test_volume_square(unit_square):
    assert volume(unit_square) == pytest.approx(1.0, abs=1e-12)


def test_volume_pentagon_shoelace(pentagon):
    assert volume(pentagon) == pytest.approx(3.5, abs=1e-12)


def test_volume_empty_is_zero(unit_square):
    Q = translate_intersection(unit_square, (5.0, 0.0))
    assert Q.empty
    assert volume(Q) == 0.0


# -- facets ------------------------------------------------------------------


def test_facets_square(unit_square):
    fs = facets(unit_square)
    assert len(fs) == 4
    assert all(F.volume_dm1 == pytest.approx(1.0, abs=1e-12) for F in fs)


def test_facets_pentagon_edge_lengths(pentagon):
    lens = sorted(F.volume_dm1 for F in facets(pentagon))
    assert np.allclose(lens, [1.0, 1.0, math.sqrt(2), 2.0, 2.0], atol=1e-12)


def test_facets_simplex(simplex2):
    lens = sorted(F.volume_dm1 for F in facets(simplex2))
    assert np.allclose(lens, [1.0, 1.0, math.sqrt(2)], atol=1e-12)


def test_facet_vertices_on_hyperplane(pentagon):
    for F in facets(pentagon):
        for v in F.vertices:
            assert abs(F.normal @ v - F.offset) <= 1e-9


def test_facets_are_rows_of_their_polytope(pentagon, unit_cube):
    rng = np.random.default_rng(8)
    for P in (pentagon, unit_cube, translate_intersection(pentagon, (0.3, -0.2)),
              random_polygon(rng), random_polytope_3d(rng)):
        rows = {(tuple(a), c) for a, c in zip(P.A.tolist(), P.b.tolist())}
        fs = facets(P)
        assert len(fs) == len(rows)
        assert all((tuple(F.normal.tolist()), F.offset) in rows for F in fs)


def test_facets_interval_are_unit_points():
    P = normalize([((1,), 2), ((-1,), 1)], 1)
    fs = facets(P)
    assert len(fs) == 2
    assert all(F.volume_dm1 == 1.0 for F in fs)


# -- parallel facets ---------------------------------------------------------


def test_parallel_facet_square(unit_square):
    bottom = next(F for F in facets(unit_square) if F.normal[1] < -0.5)
    top = parallel_facet(unit_square, bottom)
    assert top is not None
    assert np.allclose(top.normal, [0, 1])


def test_parallel_facet_simplex_empty(simplex2):
    diag = next(F for F in facets(simplex2) if F.normal[0] > 0.5)
    assert parallel_facet(simplex2, diag) is None


def test_parallel_facet_pentagon_bottom_to_top(pentagon):
    bottom = next(F for F in facets(pentagon) if F.normal[1] < -0.5)
    assert bottom.volume_dm1 == pytest.approx(2.0)
    top = parallel_facet(pentagon, bottom)
    assert top.volume_dm1 == pytest.approx(1.0)


def test_parallel_facet_foreign_raises(pentagon, unit_square):
    # the square's right edge {x=1} is not a facet of the pentagon
    foreign = next(F for F in facets(unit_square) if F.normal[0] > 0.5)
    with pytest.raises(FacetNotInPolytope):
        parallel_facet(pentagon, foreign)


# -- symmetry ----------------------------------------------------------------


def test_pentagon_not_symmetric(pentagon):
    rep = is_symmetric(pentagon, 1e-9)
    assert not rep.symmetric
    F, G = rep.witness
    assert (F.volume_dm1, G.volume_dm1) == pytest.approx((2.0, 1.0))
    assert rep.margin == pytest.approx(1.0)


def test_pentagon_shifted_intersection_symmetric(pentagon):
    Q = translate_intersection(pentagon, (-1.0, -1.0))
    assert is_symmetric(Q, 1e-9).symmetric


def test_simplex_not_symmetric_by_convention(simplex2):
    rep = is_symmetric(simplex2, 1e-9)
    assert not rep.symmetric
    F, G = rep.witness
    assert G is None
    assert rep.margin == pytest.approx(F.volume_dm1)


def test_interval_symmetric():
    P = normalize([((1,), 2), ((-1,), 1)], 1)
    assert is_symmetric(P, 1e-9).symmetric


# -- translate intersection --------------------------------------------------


def test_translate_pentagon_gives_unit_square(pentagon):
    Q = translate_intersection(pentagon, (-1.0, -1.0))
    assert vertex_set_equal(vertices(Q), [(0, 0), (1, 0), (0, 1), (1, 1)])


def test_translate_zero_is_identity(pentagon):
    Q = translate_intersection(pentagon, (0.0, 0.0))
    assert vertex_set_equal(vertices(Q), vertices(pentagon))


def test_translate_square_half_shift(unit_square):
    Q = translate_intersection(unit_square, (0.5, 0.0))
    assert vertex_set_equal(vertices(Q), [(0.5, 0), (1, 0), (0.5, 1), (1, 1)])


def test_translate_far_is_empty(unit_square):
    Q = translate_intersection(unit_square, (3.0, 0.0))
    assert Q.empty and volume(Q) == 0.0 and facets(Q) == []


def test_translate_touching_is_degenerate(unit_square):
    Q = translate_intersection(unit_square, (1.0, 0.0))
    assert Q.degenerate and not Q.empty
    assert volume(Q) == 0.0 and facets(Q) == []


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_translate_lemma_min_matches_stacked_representation(seed):
    rng = np.random.default_rng(seed)
    P = random_polygon(rng)
    t = rng.uniform(-0.4, 0.4, 2)
    Q = translate_intersection(P, t)
    A, b = P.A, P.b
    stacked = _reduce(np.vstack([A, A]), np.concatenate([b, b + A @ t]), 2)
    if Q.empty or Q.degenerate:
        assert stacked.empty or stacked.degenerate
    else:
        assert vertex_set_equal(Q.vertex_array(), stacked.vertex_array(), tol=1e-8)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_translate_containment_and_reflection(seed):
    rng = np.random.default_rng(seed)
    P = random_polygon(rng)
    t = rng.uniform(-0.3, 0.3, 2)
    Q = translate_intersection(P, t)
    if Q.empty:
        return
    for v in Q.vertex_array():
        assert P.contains(v, tol=1e-8)
        assert P.contains(v - t, tol=1e-8)  # v in P + t
    R = translate_intersection(P, -t)
    if not R.empty:
        assert vertex_set_equal(R.vertex_array(), Q.vertex_array() - t, tol=1e-8)


def test_facet_convergence_along_shrinking_translates(pentagon):
    bottom = next(F for F in facets(pentagon) if F.normal[1] < -0.5)
    dists = []
    vols = []
    for k in (1, 2, 4, 8, 16):
        t = (1.0 / k) * np.array([1.0, 1.0]) / math.sqrt(2)
        Q = translate_intersection(pentagon, t)
        Fk = next(F for F in facets(Q) if F.normal[1] < -0.5)
        dists.append(facet_hausdorff(Fk, bottom))
        vols.append(abs(Fk.volume_dm1 - bottom.volume_dm1))
    assert all(d1 > d2 for d1, d2 in zip(dists, dists[1:]))
    for k, d in zip((1, 2, 4, 8, 16), dists):
        assert d <= 3.0 / k  # d_H(F(t_k), F) <= c |t_k|
    assert vols[-1] < vols[0] and vols[-1] <= 0.2


# -- Hausdorff metric --------------------------------------------------------


def test_hausdorff_self_zero(pentagon):
    assert hausdorff_distance(pentagon, pentagon) == 0.0


def test_hausdorff_translated_square(unit_square):
    shifted = normalize(
        [((1, 0), 1.5), ((-1, 0), -0.5), ((0, 1), 1), ((0, -1), 0)], 2
    )
    assert hausdorff_distance(unit_square, shifted) == pytest.approx(0.5, abs=1e-12)


def test_hausdorff_thin_triangles_converge_to_segment():
    from gonb import from_vertices

    v1, v2, v3 = np.zeros(2), np.array([1.0, 0.0]), np.array([0.5, math.sqrt(3) / 2])
    seg = _reduce(np.array([(0, 1), (0, -1), (1, 0), (-1, 0)], float),
                  np.array([0.0, 0.0, 1.0, 0.0]), 2)
    prev = math.inf
    for n in (2, 4, 8, 16, 32):
        Tn = from_vertices(np.array([v1, v2, v3 / n + (1 - 1 / n) * v1]))
        d = hausdorff_distance(Tn, seg)
        assert d < prev
        prev = d
    assert prev < 0.03


def test_hausdorff_metric_axioms_random_triples():
    rng = np.random.default_rng(314)
    for _ in range(30):
        P, Q, R = (random_polygon(rng) for _ in range(3))
        dpq = hausdorff_distance(P, Q)
        dqp = hausdorff_distance(Q, P)
        assert dpq == pytest.approx(dqp, abs=1e-10)
        assert dpq >= 0
        assert dpq <= hausdorff_distance(P, R) + hausdorff_distance(R, Q) + 1e-10
    P = random_polygon(rng)
    assert hausdorff_distance(P, P) == 0.0


def test_distance_to_polytope_inside_outside(unit_square):
    assert distance_to_polytope(unit_square, (0.3, 0.7)) == 0.0
    assert distance_to_polytope(unit_square, (2.0, 0.5)) == pytest.approx(1.0)
    assert distance_to_polytope(unit_square, (2.0, 2.0)) == pytest.approx(math.sqrt(2))


# -- symmetry oracle equivalence ----------------------------------------------


def test_minkowski_agrees_with_centroid_reflection_oracle():
    rng = np.random.default_rng(99)
    for _ in range(25):
        S = symmetrized_polygon(rng)
        assert is_symmetric(S, 1e-7).symmetric
        assert symmetry_center_oracle(S)
        # push one vertex outward: generically breaks central symmetry
        V = S.vertex_array().copy()
        c = V.mean(axis=0)
        k = int(rng.integers(0, V.shape[0]))
        V[k] = c + (V[k] - c) * 1.25
        from gonb import from_vertices

        T = from_vertices(V)
        assert is_symmetric(T, 1e-7).symmetric == symmetry_center_oracle(T)


# -- margins and persistence ---------------------------------------------------


def test_margin_at_zero_radius(pentagon):
    assert nonsymmetry_margin(pentagon, 0.0) == pytest.approx(1.0)


def test_margin_small_ball_positive(pentagon):
    m = nonsymmetry_margin(pentagon, 0.25, 8)
    assert 0.0 < m <= 1.0


def test_margin_vanishes_at_symmetrizing_translate(pentagon):
    assert nonsymmetry_margin(pentagon, math.sqrt(2), 8) == pytest.approx(0.0, abs=1e-12)


def test_facet_gap_gives_the_margins(pentagon):
    e1 = np.array([1.0, 0.0])

    def margin(eps):
        return min(facet_gap(translate_intersection(pentagon, t), e1, -e1)
                   for t in ball_grid(2, eps, 8, 8))

    # the nonsymmetry_margin values of the witness pair x = 2 / x = 0
    assert margin(0.0) == pytest.approx(1.0)
    assert 0.0 < margin(0.25) <= 1.0
    assert margin(math.sqrt(2)) == pytest.approx(0.0, abs=1e-12)
    empty = translate_intersection(pentagon, (5.0, 0.0))
    assert empty.empty and facet_gap(empty, e1, -e1) == 0.0
    assert facet_gap(pentagon, np.array([0.0, -1.0]), None) == 2.0


def test_unpaired_witness_ties_go_to_the_first_facet():
    """An equilateral triangle has three unpaired facets of equal length; the
    first in canonical facet order is the witness wherever the triangle sits."""
    from gonb import from_vertices

    T = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)])
    rng = np.random.default_rng(1)
    for s in rng.uniform(-50, 50, (20, 2)):
        F, G = is_symmetric(from_vertices(T + s)).witness
        assert G is None
        assert np.allclose(F.normal, (-math.sqrt(3) / 2, 0.5), rtol=0, atol=1e-12)


def test_margin_requires_witness(unit_square):
    with pytest.raises(SymmetricInput):
        nonsymmetry_margin(unit_square, 0.1)


def test_persistence_epsilon_positive(pentagon):
    eps = persistence_epsilon(pentagon, n_samples=8)
    assert eps > 0.0
    assert nonsymmetry_margin(pentagon, eps, 8) > 0.0


def test_ball_grid_hits_requested_radius():
    grid = ball_grid(2, math.sqrt(2), 8, 8)
    target = np.array([-1.0, -1.0])
    assert min(np.linalg.norm(g - target) for g in grid) <= 1e-12


def test_facet_volume_by_normal(pentagon):
    assert facet_volume_by_normal(pentagon, np.array([0.0, -1.0])) == pytest.approx(2.0)
    assert facet_volume_by_normal(pentagon, np.array([0.0, 1.0])) == pytest.approx(1.0)
    assert facet_volume_by_normal(pentagon, np.array([5.0, 1.0]) / np.linalg.norm([5.0, 1.0])) == 0.0

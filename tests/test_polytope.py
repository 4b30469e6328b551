"""Polytope geometry: canonical forms, facets, symmetry, intersections, metric."""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gonb import (
    EmptyPolytope,
    ParseError,
    UnboundedPolytope,
    facet_by_normal,
    facets,
    from_vertices,
    hausdorff_distance,
    is_symmetric,
    normalize,
    symmetry_center_oracle,
    translate_intersection,
    triangulate,
    vertices,
    volume,
)
from gonb import polytope
from gonb.polytope import (
    GEOM_TOL,
    HPolytope,
    _check_bounded,
    _face_facets,
    _merge_duplicate_normals,
    _reduce,
    _translate_intersections,
    ball_directions,
    ball_grid,
    distance_to_polytope,
    _distance_to_facets,
)

from conftest import (
    PENTAGON_VERTICES,
    random_polygon,
    random_polytope_3d,
    sphere_points,
    symmetrized_polygon,
)


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


def test_normalize_bounds_distinct_halfspaces_before_allocating():
    """C(n, d) vertex systems of the n distinct halfspaces are bounded by
    MAX_VERTEX_CANDIDATES after duplicate normals merge: 400 copies of the
    square's 4 rows load, and 363 tangents of a circle (C(363, 2) = 65,703
    systems; 362 give 65,341, within the bound) do not."""
    square = [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)]
    assert normalize(square * 100, 2).A.shape == (4, 2)
    ang = 2 * np.pi * np.arange(363) / 363
    assert math.comb(363, 2) > polytope.MAX_VERTEX_CANDIDATES >= math.comb(362, 2)
    with pytest.raises(ParseError, match="363 distinct halfspaces"):
        normalize([((math.cos(a), math.sin(a)), 1.0) for a in ang], 2)


def _qhull_planes(pts):
    """The reference hull's facet planes (normal, offset), from Qhull."""
    from scipy.spatial import ConvexHull

    return [(e[:-1], -e[-1]) for e in ConvexHull(pts).equations]


def _qhull_route(pts):
    return normalize(_qhull_planes(pts), pts.shape[1])


def test_large_vertex_hull_refused_quickly():
    """The 1,596 hull planes of 800 sphere points: the duplicate-normal merge
    tests each row against the kept rows at once, so the refusal takes
    0.2 s (6.4 s with one norm per pair of rows). As vertex input the 800
    points are refused by their count, C(800, 3) hull candidates, before
    any hull plane is built."""
    raw = _qhull_planes(sphere_points(800))
    t0 = time.perf_counter()
    with pytest.raises(ParseError, match="1596 distinct halfspaces"):
        normalize(raw, 3)
    assert time.perf_counter() - t0 < 3.0
    with pytest.raises(ParseError, match="800 distinct points"):
        from_vertices(sphere_points(800))


def test_point_hulls_match_qhull():
    """80 random point sets each in d = 2 and 3 give Qhull's facets within
    1e-12; exactly coplanar sets (a 4x4x4 grid, the unit cube with interior
    and face points) give them exactly; so do six 4-d sets, within 1e-12."""
    rng = np.random.default_rng(12)
    for d in (2, 3):
        for _ in range(80):
            pts = rng.uniform(-1.0, 1.0, (int(rng.integers(d + 2, 12)), d))
            P, Q = from_vertices(pts), _qhull_route(pts)
            assert P.A.shape == Q.A.shape
            assert np.abs(P.A - Q.A).max() <= 1e-12 and np.abs(P.b - Q.b).max() <= 1e-12
    grid = np.array(list(itertools.product(range(4), repeat=3)), dtype=float)
    cube = np.array(list(itertools.product((0.0, 1.0), repeat=3)))
    cube = np.vstack([cube, rng.uniform(0.1, 0.9, (20, 3)), [[1, 0.5, 0.5], [0.5, 0, 0.3]]])
    for pts in (grid, cube):
        P, Q = from_vertices(pts), _qhull_route(pts)
        assert P.A.shape == (6, 3)
        assert np.array_equal(P.A, Q.A) and np.array_equal(P.b, Q.b)
    # 4-d: the cube, the simplex, the cross-polytope, the cube cut by
    # x_1 + x_2 <= 1.5 and random sets of 8 and 12 points
    corners = list(itertools.product((0.0, 1.0), repeat=4))
    cut = [v for v in corners if v[0] + v[1] <= 1.5]
    cut += [(a, b, *v[2:]) for v in corners if v[0] + v[1] == 2 for a, b in ((1, 0.5), (0.5, 1))]
    for pts, planes in ((corners, 8), (np.vstack([np.zeros(4), np.eye(4)]), 5),
                        (np.vstack([np.eye(4), -np.eye(4)]), 16), (cut, 9),
                        (rng.uniform(-1.0, 1.0, (8, 4)), None),
                        (rng.uniform(-1.0, 1.0, (12, 4)), None)):
        pts = np.asarray(pts, dtype=float)
        P, Q = from_vertices(pts), _qhull_route(pts)
        assert P.A.shape == Q.A.shape and planes in (None, P.A.shape[0])
        assert np.abs(P.A - Q.A).max() <= 1e-12 and np.abs(P.b - Q.b).max() <= 1e-12


def test_repeated_points_change_no_hull():
    """The pentagon closed by its first vertex, and 100 copies of its 5
    vertices, give the pentagon's A and b."""
    P = _qhull_route(PENTAGON_VERTICES)
    for pts in (PENTAGON_VERTICES, np.vstack([PENTAGON_VERTICES, PENTAGON_VERTICES[:1]]),
                np.tile(PENTAGON_VERTICES, (100, 1))):
        Q = from_vertices(pts)
        assert np.array_equal(Q.A, P.A) and np.array_equal(Q.b, P.b)


def test_random_point_hulls_load_under_the_bound():
    """The 4-9-point hulls the random generators draw (4-8 points in 2-d,
    5-9 in 3-d) stay far below the bound (at most 14 planes in 3-d)."""
    rng = np.random.default_rng(5)
    for d, sizes in ((2, range(4, 9)), (3, range(5, 10))):
        for n in sizes:
            for _ in range(5):
                P = from_vertices(rng.uniform(-1.0, 1.0, (n, d)))
                assert P.A.shape[0] <= (n if d == 2 else 2 * n - 4)


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


def test_vertex_cluster_split_by_another_vertex_merges():
    """The redundant row 3x + y <= 3 passes through the vertex (0.9, 0.3), so
    three candidates land there, with first coordinates a bit either side of
    0.9; the vertex (0.9, -0.9) sorts between them, yet they merge into one."""
    P = normalize([((0.0, -1.8), 1.62), ((1.2, 0.0), 1.08), ((0.3, 0.3), 0.36),
                   ((-1.5, 1.5), 0.0), ((0.9, 0.3), 0.9)], 2)
    assert vertex_set_equal(vertices(P), [(-0.9, -0.9), (0.9, -0.9), (0.9, 0.3), (0.6, 0.6)])
    assert [F.vertices.shape[0] for F in facets(P)] == [2, 2, 2, 2]


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


# -- face lattice and pulling triangulation ----------------------------------


def box_rows(lo, hi):
    d = len(lo)
    return ([(tuple(e), h) for e, h in zip(np.eye(d), hi)]
            + [(tuple(-e), -low) for e, low in zip(np.eye(d), lo)])


def simplex_rows(d):
    return [(tuple(-e), 0.0) for e in np.eye(d)] + [(tuple(np.ones(d)), 1.0)]


def cut_cube():
    return normalize(box_rows(np.zeros(3), np.ones(3)) + [((1, 1, 0), 1.5)], 3)


def random_polytope_4d(rng):
    """Random simple 4-polytope: random unit normals at offset 1."""
    while True:
        try:
            return normalize([(a, 1.0) for a in rng.normal(size=(int(rng.integers(7, 12)), 4))], 4)
        except UnboundedPolytope:
            continue


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_pulling_triangulates_simplex_once_and_cube_in_d_factorial(d):
    S = normalize(simplex_rows(d), d)
    C = normalize(box_rows(np.zeros(d), np.ones(d)), d)
    assert triangulate(S).shape == (1, d + 1, d)
    assert triangulate(C).shape == (math.factorial(d), d + 1, d)
    assert volume(S) == pytest.approx(1 / math.factorial(d), rel=1e-14)
    assert volume(C) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("width", [5e-8, 2e-8])
def test_thin_translates_keep_their_volume(width, unit_square, unit_cube):
    """Slabs thinner than 1e-7 but not flat: the incidence stays consistent,
    so the pulling triangulation covers them exactly once."""
    Q = translate_intersection(unit_square, (1 - width, 0.0))
    assert volume(Q) == pytest.approx(width, rel=1e-6)
    Q = translate_intersection(unit_cube, (1 - width, 0.3, 0.0))
    assert volume(Q) == pytest.approx(0.7 * width, rel=1e-6)


def f_vector(P):
    """Face counts f_0..f_{d-1} of P, each face level the union of the facets
    of the level above, derived from the incidence alone."""
    inc = P._member[0].incidence
    level, counts = [np.arange(P.vertex_array().shape[0])], []
    for k in range(P.dim, 0, -1):
        level = list({G.tobytes(): G for S in level for G in _face_facets(inc, S, k)}.values())
        counts.append(len(level))
    return counts[::-1]


def test_face_lattice_satisfies_euler_relation():
    rng = np.random.default_rng(5)
    cross3 = from_vertices(np.vstack([np.eye(3), -np.eye(3)]))  # 4 facets per vertex
    cross4 = normalize([(s, 0.5) for s in itertools.product((-0.5, 0.5), repeat=4)], 4)
    polys = [normalize(box_rows(np.zeros(d), np.ones(d)), d) for d in (2, 3, 4)]
    polys += [normalize(simplex_rows(d), d) for d in (2, 3, 4)]
    polys += [cut_cube(), cross3, cross4]
    polys += [random_polygon(rng) for _ in range(5)]
    polys += [random_polytope_3d(rng) for _ in range(5)]
    polys += [random_polytope_4d(rng) for _ in range(5)]
    for P in polys:
        f = f_vector(P)
        d = P.dim
        assert f[0] == P.vertex_array().shape[0] and f[-1] == len(facets(P))
        assert sum((-1) ** k * fk for k, fk in enumerate(f)) == 1 - (-1) ** d, f
        # divergence theorem: vol = sum over facets of offset * area / d
        assert volume(P) == pytest.approx(
            sum(F.offset * F.volume_dm1 for F in facets(P)) / d, rel=1e-12)
    assert f_vector(cross4) == [8, 24, 32, 16]
    assert f_vector(cut_cube()) == [10, 15, 7]


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
    top = facet_by_normal(unit_square, -bottom.normal)
    assert top is not None
    assert np.allclose(top.normal, [0, 1])


def test_parallel_facet_simplex_empty(simplex2):
    diag = next(F for F in facets(simplex2) if F.normal[0] > 0.5)
    assert facet_by_normal(simplex2, -diag.normal) is None


def test_parallel_facet_pentagon_bottom_to_top(pentagon):
    bottom = next(F for F in facets(pentagon) if F.normal[1] < -0.5)
    assert bottom.volume_dm1 == pytest.approx(2.0)
    top = facet_by_normal(pentagon, -bottom.normal)
    assert top.volume_dm1 == pytest.approx(1.0)


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


def _paired_hexagon(angles_deg, offsets):
    """The hexagon with outward unit normals at the given angles and offsets."""
    ang = np.radians(angles_deg)
    return normalize([((math.cos(a), math.sin(a)), b) for a, b in zip(ang, offsets)], 2)


def test_witness_is_the_first_gap_within_tol_of_the_largest():
    """The hexagon's pair gaps read 0.078, 0.125 and 0.152 in canonical facet
    order; at tol 0.05 the first within tol of the largest is 0.125 (a
    running maximum, which a chain of near-equal gaps carries along, gave
    0.152), and at the default tol the largest gap wins."""
    P = _paired_hexagon([25, 80, 111, 205, 260, 291], [1.2, 1.0, 1.1, 1.2, 0.9, 0.9])
    fs = facets(P)
    assert [round(abs(F.volume_dm1 - facet_by_normal(P, -F.normal).volume_dm1), 3)
            for F in fs[:3]] == [0.078, 0.125, 0.152]
    rep = is_symmetric(P, 0.05)
    F, G = rep.witness
    assert rep.margin == F.volume_dm1 - G.volume_dm1 == pytest.approx(0.1247, abs=1e-4)
    assert np.allclose(F.normal, -G.normal) and np.allclose(G.normal, fs[1].normal)
    rep = is_symmetric(P)
    assert rep.margin == pytest.approx(0.1519, abs=1e-4)
    assert {rep.witness[0].normal.tobytes(), rep.witness[1].normal.tobytes()} == \
        {fs[2].normal.tobytes(), facet_by_normal(P, -fs[2].normal).normal.tobytes()}


def _documented_witness(P, tol):
    """(witness, margin) by the rule is_symmetric states, one facet_by_normal
    scan per facet: the first facet in canonical order whose pair gap exceeds
    tol and lies within tol of the largest such gap, its pair larger facet
    first; else the first facet without a partner whose volume lies within
    tol of the largest such volume; else (None, 0.0)."""
    pairs = [(F, facet_by_normal(P, -F.normal)) for F in facets(P)]
    gaps = [None if G is None else abs(F.volume_dm1 - G.volume_dm1) for F, G in pairs]
    bad = [g for g in gaps if g is not None and g > tol]
    if bad:
        F, G = next(p for p, g in zip(pairs, gaps)
                    if g is not None and g > tol and g >= max(bad) - tol)
        return ((F, G) if F.volume_dm1 >= G.volume_dm1 else (G, F)), abs(F.volume_dm1 - G.volume_dm1)
    lone = [F.volume_dm1 for F, G in pairs if G is None]
    if lone:
        F = next(F for F, G in pairs if G is None and F.volume_dm1 >= max(lone) - tol)
        return (F, None), F.volume_dm1
    return None, 0.0


def test_witness_follows_its_documented_rule():
    """is_symmetric agrees with _documented_witness on random polygons, 3-d
    bodies and symmetric hulls at tol 1e-9, 1e-7 and 1e-3, and on hexagons of
    three opposite pairs whose gaps chain within tol 0.05."""
    rng = np.random.default_rng(32)
    cases = [(make(rng), tol) for make in (random_polygon, random_polytope_3d, symmetrized_polygon)
             for _ in range(20) for tol in (1e-9, 1e-7, 1e-3)]
    for _ in range(40):
        ang = rng.uniform(0, 120) + np.array([0, 60, 120]) + rng.uniform(-8, 8, 3)
        cases.append((_paired_hexagon(np.concatenate([ang, ang + 180]),
                                      rng.uniform(0.9, 1.2, 6)), 0.05))
    for P, tol in cases:
        rep = is_symmetric(P, tol)
        witness, margin = _documented_witness(P, tol)
        assert rep.symmetric == (witness is None)
        assert rep.margin == margin
        assert rep.witness is None if witness is None else \
            all(a is b for a, b in zip(rep.witness, witness, strict=True))


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
    stacked = _reduce(np.vstack([A, A]), np.concatenate([b, b + A @ t])[None], 2).polytopes()[0]
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


def _translate_bits(Q):
    """A translate's rows, flags, vertices and triangulation, as bytes."""
    return (Q.A.tobytes(), Q.b.tobytes(), Q.empty, Q.degenerate,
            Q.vertex_array().tobytes(), triangulate(Q).tobytes())


@pytest.mark.parametrize("name", ["pentagon", "cut cube", "unit 4-cube"])
def test_batched_translates_match_one_shift_translates(name, pentagon, monkeypatch):
    """One batch over random shifts and shifts that empty the body gives each
    translate the bits of its own one-shift call, also when the candidate
    solve runs a few shifts at a time."""
    P = {"pentagon": pentagon, "cut cube": cut_cube(),
         "unit 4-cube": normalize(box_rows(np.zeros(4), np.ones(4)), 4)}[name]
    rng = np.random.default_rng(3)
    far = rng.uniform(3.0, 4.0, (3, P.dim)) * rng.choice([-1.0, 1.0], (3, P.dim))
    T = np.concatenate([rng.uniform(-1.2, 1.2, (30, P.dim)), far, np.zeros((1, P.dim))])
    single = [_translate_bits(translate_intersection(P, t)) for t in T]
    assert [_translate_bits(Q) for Q in _translate_intersections(P, T).polytopes()] == single
    assert all(empty for _, _, empty, *_ in single[30:33])
    monkeypatch.setattr(polytope, "MAX_VERTEX_CANDIDATES", 2 * math.comb(P.A.shape[0], P.dim))
    assert [_translate_bits(Q) for Q in _translate_intersections(P, T).polytopes()] == single


def test_batched_translates_keep_touching_and_thin_shifts(unit_square, unit_cube):
    """A touching shift comes back degenerate and a 5e-8 slab keeps its
    volume inside a batch, as in their one-shift calls."""
    width = 5e-8
    shifts = [(1.0, 0.0), (1 - width, 0.0), (0.5, 0.25), (3.0, 0.0)]
    touching, slab, overlap, far = Qs = _translate_intersections(unit_square, shifts).polytopes()
    assert touching.degenerate and not touching.empty and volume(touching) == 0.0
    assert volume(slab) == pytest.approx(width, rel=1e-6)
    assert volume(overlap) == pytest.approx(0.375, abs=1e-15) and far.empty
    cube_shifts = [(1 - width, 0.3, 0.0), (0.2, -0.3, 0.1)]
    cubes = _translate_intersections(unit_cube, cube_shifts).polytopes()
    assert volume(cubes[0]) == pytest.approx(0.7 * width, rel=1e-6)
    for P, T, batch in ((unit_square, shifts, Qs), (unit_cube, cube_shifts, cubes)):
        assert [_translate_bits(Q) for Q in batch] == \
            [_translate_bits(translate_intersection(P, t)) for t in T]


def _facet_bits(F):
    """Every field of a Facet, arrays as bytes."""
    values = (getattr(F, f.name) for f in dataclasses.fields(F))
    return tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in values)


def _face_bits(P):
    """Vertices, triangulation, every field of every facet, the axis facet
    pair and the volume of P, as bytes and floats."""
    return (P.vertex_array().tobytes(), triangulate(P).tobytes(),
            [_facet_bits(F) for F in facets(P)],
            [None if F is None else _facet_bits(F) for F in _axis_pair(P)], volume(P))


@pytest.mark.parametrize("name", ["pentagon", "cut cube", "cut 4-cube"])
def test_family_members_equal_one_shift_translates(name, pentagon):
    """Each live translate of a batch is one family member whose arrays (kept
    rows, offsets, vertices, incidence, V[j][cells]) and body are those of
    its one-shift translate_intersection, bit for bit, down to every facet
    field and the axis facet pair; the member's facets are views of the
    family's charts. Every other shift's one-shift translate is flagged
    degenerate, and empty exactly where the batch found no vertex. The
    shifts include empty and touching ones."""
    P = {"pentagon": pentagon, "cut cube": cut_cube(),
         "cut 4-cube": normalize(box_rows(np.zeros(4), np.ones(4)) + [((1, 1, 0, 0), 1.5)], 4)}[name]
    d = P.dim
    rng = np.random.default_rng(7)
    far = rng.uniform(3.0, 4.0, (3, d)) * rng.choice([-1.0, 1.0], (3, d))
    touching = np.diag([2.0 if name == "pentagon" else 1.0] * d)[:2]
    T = np.concatenate([rng.uniform(-1.2, 1.2, (40, d)), far, touching, np.zeros((1, d))])
    batch = _translate_intersections(P, T)
    member = {k: (F, j) for F in batch.families for j, k in enumerate(F.members)}
    flagged = set()
    for k, t in enumerate(T):
        Q = translate_intersection(P, t)
        if k not in member:
            assert Q.degenerate and Q.empty != batch.feasible[k]
            flagged.add(bool(Q.empty))
            continue
        F, j = member[k]
        assert not (Q.empty or Q.degenerate)
        assert (F.A.tobytes(), F.B[j].tobytes(), F.V[j].tobytes(), F.incidence.tobytes(),
                F.V[j][F.cells()].tobytes()) == (
            Q.A.tobytes(), Q.b.tobytes(), Q.vertex_array().tobytes(),
            Q._member[0].incidence.tobytes(), triangulate(Q).tobytes())
        body = F.body(j)
        assert _translate_bits(body) == _translate_bits(Q)
        assert body._member[0].incidence.tobytes() == Q._member[0].incidence.tobytes()
        assert _face_bits(body) == _face_bits(Q)
        charted = [simp for *_, simp, _, _ in F.charts]
        assert all(any(np.shares_memory(G.simplices, simp) for simp in charted)
                   for G in facets(body))
    assert flagged == {True, False} and len(member) >= 15


@pytest.mark.parametrize("name", ["pentagon", "cut cube", "unit 4-cube", "pentagon translate"])
def test_lazy_faces_equal_seeded_faces(name, pentagon):
    """A body built directly from canonical rows is member 0 of its own
    one-member family, whose vertices, incidence and charts it computes on
    first use; its faces equal those of the _reduce-built body of the same
    rows, which comes with its family seeded. (A body that normalize built
    from raw rows solved its vertices from those rows, so their last bits
    may differ.)"""
    P = {"pentagon": pentagon, "cut cube": cut_cube(),
         "unit 4-cube": normalize(box_rows(np.zeros(4), np.ones(4)), 4),
         "pentagon translate": translate_intersection(pentagon, (0.3, -0.2))}[name]
    seeded, lazy = _reduce(P.A, P.b[None], P.dim).polytopes()[0], HPolytope(P.dim, P.A, P.b)
    assert np.array_equal(seeded.A, P.A) and np.array_equal(seeded.b, P.b)
    assert "_member" in vars(seeded) and "_member" not in vars(lazy)
    assert _face_bits(lazy) == _face_bits(seeded)
    assert "_member" in vars(lazy)
    family, j = lazy._member
    assert j == 0 and family.members.tolist() == [0] and family.V.shape[0] == 1


def test_shared_face_arrays_are_read_only(pentagon):
    """Two translates of one family share its arrays, all read-only: an
    in-place write into one body's vertices, triangulation or any facet
    array raises and leaves the other body as it was."""
    Q, R = _translate_intersections(pentagon, [(0.1, 0.0), (0.05, 0.02)]).polytopes()
    assert Q._member[0] is R._member[0]
    before = _face_bits(R)
    F = facets(Q)[0]
    for x in (Q.vertex_array(), triangulate(Q), F.normal, F.vertices, F.origin, F.tangent,
              F.simplices):
        with pytest.raises(ValueError):
            x[...] = 7.0
    assert _face_bits(R) == before


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stacked_chart_products_keep_one_body_bits(d):
    """The stacked products that Family.charts takes over all members at
    once give each member the bits of its one-body form, on random stacks:
    the means V[:, S].mean(axis=1), <a, c> as np.matmul(c[:, None, :],
    a[:, None]) against a @ c, and (V - origin) @ T. A plain c @ a, an
    einsum or (c * a).sum(axis=1) would not; a numpy or BLAS change that
    broke one of these would move the facets of batched translates away
    from their one-shift bits."""
    rng = np.random.default_rng(d)
    for _ in range(200):
        s, k, q = int(rng.integers(1, 30)), int(rng.integers(d, 9)), int(rng.integers(d + 1, 13))
        V = rng.uniform(-2.0, 2.0, (s, q, d))
        a = rng.normal(size=d)
        a /= np.linalg.norm(a)
        c = V[:, :k].mean(axis=1)
        assert c.tobytes() == np.array([v[:k].mean(axis=0) for v in V]).tobytes()
        ac = np.matmul(c[:, None, :], a[:, None])[:, 0, 0]
        assert ac.tobytes() == np.array([float(a @ x) for x in c]).tobytes()
        origin = c - (ac - rng.uniform(-1.0, 1.0, s))[:, None] * a
        T = polytope.tangent_basis(a)
        assert np.matmul(V - origin[:, None], T).tobytes() == \
            np.array([(v - o) @ T for v, o in zip(V, origin)]).tobytes()


def test_facet_convergence_along_shrinking_translates(pentagon):
    bottom = next(F for F in facets(pentagon) if F.normal[1] < -0.5)
    dists = []
    vols = []
    for k in (1, 2, 4, 8, 16):
        t = (1.0 / k) * np.array([1.0, 1.0]) / math.sqrt(2)
        Q = translate_intersection(pentagon, t)
        Fk = next(F for F in facets(Q) if F.normal[1] < -0.5)
        # d_H of two facets: the larger distance from one's vertices to the other
        dists.append(max(_distance_to_facets([bottom], Fk.vertices).max(),
                         _distance_to_facets([Fk], bottom.vertices).max()))
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
                  np.array([[0.0, 0.0, 1.0, 0.0]]), 2).polytopes()[0]
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


@pytest.mark.parametrize("d", [3, 4])
def test_distances_to_boxes_match_closed_forms(d):
    rng = np.random.default_rng(d)
    lo, hi = rng.uniform(-1.0, 0.0, d), rng.uniform(0.5, 1.5, d)
    box = normalize(box_rows(lo, hi), d)
    for x in rng.uniform(-3.0, 3.0, (40, d)):
        exact = np.linalg.norm(np.maximum(0.0, np.maximum(lo - x, x - hi)))
        assert distance_to_polytope(box, x) == pytest.approx(exact, rel=1e-12, abs=1e-12)
    s = rng.uniform(-0.5, 0.5, d)
    shifted = normalize(box_rows(lo + s, hi + s), d)
    grown = normalize(box_rows(lo, hi + 0.25), d)
    assert hausdorff_distance(box, shifted) == pytest.approx(np.linalg.norm(s), rel=1e-12)
    assert hausdorff_distance(grown, box) == pytest.approx(0.25 * math.sqrt(d), rel=1e-12)


def _slsqp_distance(P, x):
    """Distance from x to P by projecting with SLSQP: min |y - x|^2, A y <= b."""
    from scipy.optimize import minimize

    res = minimize(lambda y: np.sum((y - x) ** 2), P.vertex_array().mean(axis=0),
                   jac=lambda y: 2 * (y - x), method="SLSQP",
                   constraints=[{"type": "ineq", "fun": lambda y: P.b - P.A @ y,
                                 "jac": lambda y: -P.A}],
                   options={"ftol": 1e-12, "maxiter": 500})
    assert res.success
    return float(np.linalg.norm(res.x - x))


def test_distances_to_random_3d_polytopes_match_slsqp():
    rng = np.random.default_rng(21)
    for _ in range(6):
        P, Q = random_polytope_3d(rng), random_polytope_3d(rng)
        for x in rng.uniform(-2.5, 2.5, (6, 3)):
            assert distance_to_polytope(P, x) == pytest.approx(_slsqp_distance(P, x), abs=1e-6)
        ref = max(max(_slsqp_distance(Q, v) for v in P.vertex_array()),
                  max(_slsqp_distance(P, w) for w in Q.vertex_array()))
        assert hausdorff_distance(P, Q) == pytest.approx(ref, abs=1e-6)


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


# -- axis-pair margins ---------------------------------------------------


def _axis_pair(P):
    """The facets of P with unit normals -e1 and +e1, None where absent."""
    e1 = np.eye(P.dim)[0]
    return facet_by_normal(P, -e1), facet_by_normal(P, e1)


def _axis_gap(Q):
    """|vol A - vol B| of Q's facets with unit normals -e1 and +e1, an absent
    facet counting 0, as the certificate reads its margin."""
    a, b = (0.0 if F is None else F.volume_dm1 for F in _axis_pair(Q))
    return abs(a - b)


def test_axis_pair_gives_the_margins(pentagon):
    def margin(eps):
        return min(_axis_gap(translate_intersection(pentagon, t))
                   for t in ball_grid(2, eps, 8, 8))

    # the sampled margins of the witness pair x = 0 / x = 2 over balls of radius eps
    assert margin(0.0) == pytest.approx(1.0)
    assert 0.0 < margin(0.25) <= 1.0
    assert margin(math.sqrt(2)) == pytest.approx(0.0, abs=1e-12)
    empty = translate_intersection(pentagon, (5.0, 0.0))
    assert empty.empty and _axis_pair(empty) == (None, None) and _axis_gap(empty) == 0.0


@pytest.mark.parametrize("name", ["pentagon", "cut cube", "cut 4-cube"])
def test_family_rows_are_every_member_facet(name, pentagon):
    """A family keeps exactly the rows whose facets have (d-1)-volume above
    GEOM_TOL in every member, so a member's facets are all its family's
    chart rows; Family.axis_rows are the charts of the facets that
    facet_by_normal finds at -e1 and +e1, and the G rows the others with
    |n_1| > 1e-14, in facet order."""
    P = {"pentagon": pentagon, "cut cube": cut_cube(),
         "cut 4-cube": normalize(box_rows(np.zeros(4), np.ones(4)) + [((1, 1, 0, 0), 1.5)], 4)}[name]
    T = np.random.default_rng(3).uniform(-1.2, 1.2, (40, P.dim))
    fams = _translate_intersections(P, T).families
    assert len(fams) >= 2
    for F in fams:
        assert len(F.charts) == F.A.shape[0]
        assert all((vol > GEOM_TOL).all() for *_, vol, _ in F.charts)
        a, b, g = F.axis_rows
        for j in range(F.members.size):
            body = F.body(j)
            fs = facets(body)
            assert [G.normal.tobytes() for G in fs] == [row.tobytes() for row in F.A]
            pair = [None if r is None else fs[r] for r in (a, b)]
            assert pair == list(_axis_pair(body))
            assert [fs[r] for r in g] == [G for G in fs if G not in pair and abs(G.normal[0]) > 1e-14]


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


def test_ball_grid_hits_requested_radius():
    grid = ball_grid(2, math.sqrt(2), 8, 8)
    target = np.array([-1.0, -1.0])
    assert min(np.linalg.norm(g - target) for g in grid) <= 1e-12


@pytest.mark.parametrize("dim, sizes", [(1, range(1, 5)), (2, range(1, 33)), (3, range(1, 65)),
                                        (4, range(1, 41))])
def test_ball_directions_counts_ball_grid(dim, sizes):
    """ball_grid puts ball_directions(dim, n) directions on each radius."""
    for n in sizes:
        assert len(ball_grid(dim, 1.0, n, 1)) == 1 + ball_directions(dim, n)


def _looped_ball_grid(dim, radius, n, n_radii):
    """ball_grid for dim 3 and 4 built one angle tuple and one radius at a
    time: each direction multiplies in the cosine and the sines of its
    angles in turn, the directions are rounded to 12 decimals and made
    unique, and the origin comes first."""
    grids = [np.linspace(0.0, np.pi, n)] * (dim - 2) + [2 * np.pi * np.arange(n) / n]
    dirs = []
    for angs in itertools.product(*grids):
        v = np.ones(dim)
        for k, a in enumerate(angs):
            v[k + 1:] *= np.sin(a)
            v[k] *= np.cos(a)
        dirs.append(v)
    dirs = np.unique(np.round(np.array(dirs), 12), axis=0)
    radii = radius * np.arange(1, n_radii + 1) / n_radii
    return np.array([np.zeros(dim)] + [p for r in radii for p in r * dirs])


@pytest.mark.parametrize("dim", [3, 4])
def test_ball_grid_keeps_the_bits_of_its_angle_loop(dim):
    for n in range(1, 13):
        for radius, n_radii in ((1.0, 1), (0.37, 3)):
            assert np.array_equal(ball_grid(dim, radius, n, n_radii),
                                  _looped_ball_grid(dim, radius, n, n_radii))


def test_facet_volume_by_normal(pentagon):
    assert facet_by_normal(pentagon, np.array([0.0, -1.0])).volume_dm1 == pytest.approx(2.0)
    assert facet_by_normal(pentagon, np.array([0.0, 1.0])).volume_dm1 == pytest.approx(1.0)
    assert facet_by_normal(pentagon, np.array([5.0, 1.0]) / np.linalg.norm([5.0, 1.0])) is None
    # within 1e-7 of a unit normal, the first facet in canonical order
    assert facet_by_normal(pentagon, np.array([0.0, -1.0 + 5e-8])) is facets(pentagon)[2]

"""Convex polytope geometry on half-space representations.

Canonical H-representations, brute-force vertex enumeration, facet volumes
by isometric projection onto the facet hyperplane, translate-intersections
via the per-halfspace offset minimum, Minkowski parallel-facet symmetry
tests, and the exact Hausdorff metric for convex polytopes.

Coordinates are assumed to stay at desk scale (|x| <= ~1e3, n <= ~30
halfspaces, d <= 4), so a single absolute tolerance GEOM_TOL is adequate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegeneratePolytope,
    EmptyPolytope,
    FacetNotInPolytope,
    SymmetricInput,
    UnboundedPolytope,
)

GEOM_TOL = 1e-9
# Vertex enumeration solves one d x d system per d-subset of the halfspaces;
# 30 halfspaces in 4-d give 27,405 of them.
MAX_VERTEX_CANDIDATES = 1 << 16


def _unit(v: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n <= GEOM_TOL:
        raise ValueError("zero normal vector")
    return v / n


def tangent_basis(normal: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the hyperplane {x : <normal,x>=0}.

    Columns of the returned (d, d-1) matrix are the Householder reflector
    images of e_2..e_d, which are orthonormal and orthogonal to ``normal``.
    """
    a = np.asarray(normal, dtype=float)
    d = a.size
    if d == 1:
        return np.zeros((1, 0))
    sign = 1.0 if a[0] >= 0 else -1.0
    w = a.copy()
    w[0] += sign
    H = np.eye(d) - 2.0 * np.outer(w, w) / float(w @ w)
    return H[:, 1:]


@dataclass(frozen=True, eq=False)
class HalfSpace:
    """Closed half-space {x : <normal, x> <= offset} with unit normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        a = _unit(np.asarray(self.normal, dtype=float))
        a.setflags(write=False)
        object.__setattr__(self, "normal", a)
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def dim(self) -> int:
        return self.normal.size

    def signed_distance(self, x) -> float:
        return float(self.normal @ np.asarray(x, dtype=float) - self.offset)


@dataclass(frozen=True, eq=False)
class Facet:
    """(d-1)-face of a polytope: supporting halfspace, vertices, (d-1)-volume.

    ``origin``/``tangent`` give the isometric chart y -> origin + tangent @ y
    of the supporting hyperplane; ``body`` is the facet as a (d-1)-dimensional
    HPolytope in that chart (None when d == 1, where a facet is a point with
    counting measure 1).
    """

    supporting: HalfSpace
    vertices: np.ndarray
    volume_dm1: float
    origin: np.ndarray = field(repr=False)
    tangent: np.ndarray = field(repr=False)
    body: "HPolytope | None" = field(repr=False)

    @property
    def normal(self) -> np.ndarray:
        return self.supporting.normal

    @property
    def dim(self) -> int:
        return self.supporting.dim


@dataclass(frozen=True, eq=False)
class SymmetryReport:
    """Result of the parallel-facet volume test.

    ``witness`` is a (facet, parallel-facet-or-None) pair chosen among the
    violating ones; ``margin`` is the volume gap of the witness pair (the
    witness facet's own volume when its parallel facet is absent).
    """

    symmetric: bool
    witness: tuple[Facet, Facet | None] | None
    margin: float


@dataclass(frozen=True, eq=False)
class HPolytope:
    """Bounded intersection of closed half-spaces in canonical form.

    ``empty`` flags an infeasible intersection, ``degenerate`` a feasible one
    with no interior (volume 0). Instances are immutable; the vertex, volume,
    facet and triangulation caches are write-once.
    """

    dim: int
    halfspaces: tuple[HalfSpace, ...]
    empty: bool = False
    degenerate: bool = False

    def __post_init__(self):
        object.__setattr__(self, "_vertices", None)
        object.__setattr__(self, "_volume", None)
        object.__setattr__(self, "_facets", None)
        object.__setattr__(self, "_simplices", None)

    # -- matrix views ----------------------------------------------------
    @property
    def A(self) -> np.ndarray:
        return np.array([h.normal for h in self.halfspaces], dtype=float).reshape(
            len(self.halfspaces), self.dim
        )

    @property
    def b(self) -> np.ndarray:
        return np.array([h.offset for h in self.halfspaces], dtype=float)

    # -- membership -------------------------------------------------------
    def contains(self, x, tol: float = GEOM_TOL) -> bool:
        if self.empty:
            return False
        x = np.asarray(x, dtype=float)
        return bool(np.all(self.A @ x <= self.b + tol))

    def vertex_array(self) -> np.ndarray:
        """All vertices, shape (m, d); empty array for an empty polytope."""
        cached = getattr(self, "_vertices")
        if cached is None:
            cached = _enumerate_vertices(self.A, self.b, self.dim)
            object.__setattr__(self, "_vertices", cached)
        return cached

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        v = self.vertex_array()
        if v.size == 0:
            raise EmptyPolytope("empty polytope has no bounding box")
        return v.min(axis=0), v.max(axis=0)

    def centroid(self) -> np.ndarray:
        return self.vertex_array().mean(axis=0)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _enumerate_vertices(A: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
    """Feasible intersection points of all d-subsets of constraints, deduped."""
    n = A.shape[0]
    if n < dim:
        return np.zeros((0, dim))
    combos = np.array(list(itertools.combinations(range(n), dim)))
    M = A[combos]  # (m, d, d)
    rhs = b[combos]  # (m, d)
    dets = np.abs(np.linalg.det(M))
    good = dets > 1e-12
    if not np.any(good):
        return np.zeros((0, dim))
    sols = np.linalg.solve(M[good], rhs[good][..., None])[..., 0]
    feas = np.all(A @ sols.T <= b[:, None] + GEOM_TOL, axis=0)
    pts = sols[feas]
    if pts.shape[0] == 0:
        return np.zeros((0, dim))
    # lexicographic sort, then merge clusters within GEOM_TOL
    order = np.lexsort(pts.T[::-1])
    pts = pts[order]
    keep = [pts[0]]
    for p in pts[1:]:
        if np.linalg.norm(p - keep[-1]) > GEOM_TOL:
            keep.append(p)
    out = np.array(keep)
    out.setflags(write=False)
    return out


def _merge_duplicate_normals(A: np.ndarray, b: np.ndarray):
    """Merge halfspaces whose unit normals differ by <= GEOM_TOL, keeping min offset."""
    n = A.shape[0]
    keep: list[int] = []
    for i in range(n):
        merged = False
        for j in keep:
            if np.linalg.norm(A[i] - A[j]) <= GEOM_TOL:
                b[j] = min(b[j], b[i])
                merged = True
                break
        if not merged:
            keep.append(i)
    return A[keep], b[keep]


def _canonical_order(A: np.ndarray, b: np.ndarray):
    keys = np.column_stack([np.round(A, 12), np.round(b, 12)])
    order = np.lexsort(keys.T[::-1])
    return A[order], b[order]


def _affine_rank(pts: np.ndarray) -> int:
    if pts.shape[0] <= 1:
        return 0
    return int(np.linalg.matrix_rank(pts[1:] - pts[0], tol=1e-8))


def _reduce(A: np.ndarray, b: np.ndarray, dim: int, *, drop_redundant: bool = True) -> HPolytope:
    """Build a canonical HPolytope from unit-normal rows; never raises on
    empty/degenerate results (they come back flagged)."""
    A = np.asarray(A, dtype=float).reshape(-1, dim).copy()
    b = np.asarray(b, dtype=float).reshape(-1).copy()
    A, b = _merge_duplicate_normals(A, b)
    verts = _enumerate_vertices(A, b, dim)
    if verts.shape[0] == 0:
        A, b = _canonical_order(A, b)
        hs = tuple(HalfSpace(a, bb) for a, bb in zip(A, b))
        return HPolytope(dim, hs, empty=True, degenerate=True)
    degenerate = verts.shape[0] < dim + 1 or _affine_rank(verts) < dim
    if not degenerate and drop_redundant:
        supported = []
        for i in range(A.shape[0]):
            geo = _facet_chart(A[i], b[i], A, b, i, verts, dim)
            if geo is not None:
                supported.append(i)
        A, b = A[supported], b[supported]
    A, b = _canonical_order(A, b)
    hs = tuple(HalfSpace(a, bb) for a, bb in zip(A, b))
    P = HPolytope(dim, hs, empty=False, degenerate=degenerate)
    object.__setattr__(P, "_vertices", verts)
    return P


def normalize(raw_halfspaces, dim: int) -> HPolytope:
    """Canonicalize a raw half-space list into a bounded HPolytope.

    Unit-normalizes, merges duplicate normals by minimum offset, verifies
    boundedness (recession cone {Ax <= 0} must be trivial), then removes
    halfspaces that do not support a facet of positive (d-1)-volume.

    Raises UnboundedPolytope / EmptyPolytope accordingly.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    rows = []
    offs = []
    for a, bb in raw_halfspaces:
        a = np.asarray(a, dtype=float).reshape(-1)
        if a.size != dim:
            raise ValueError(f"normal of length {a.size}, expected {dim}")
        nrm = float(np.linalg.norm(a))
        if nrm <= GEOM_TOL:
            raise ValueError("zero normal vector in half-space list")
        rows.append(a / nrm)
        offs.append(float(bb) / nrm)
    A = np.array(rows)
    b = np.array(offs)
    A, b = _merge_duplicate_normals(A, b)
    _check_bounded(A, dim)
    P = _reduce(A, b, dim)
    if P.empty:
        raise EmptyPolytope("half-space intersection is infeasible")
    return P


def _check_bounded(A: np.ndarray, dim: int) -> None:
    """Raise UnboundedPolytope unless the recession cone {u : A u <= 0} is {0}.

    The rows of A are unit normals. A nonzero cone either holds a line, so
    that some unit u has |A u| <= GEOM_TOL (rank A < dim), or it is pointed
    and has an extreme ray: the null vector u of dim - 1 independent rows
    with A u <= 0 or A u >= 0. Every such candidate is tested in one batch;
    the null vector of rows M is their cofactor vector
    u_k = (-1)^k det(M without column k), and for dim = 1 the empty subset
    gives u = 1, so the test reads "A has entries of both signs".
    """
    n = A.shape[0]
    if n <= dim:
        raise UnboundedPolytope(f"{n} halfspaces cannot bound a {dim}-d polytope")
    if np.linalg.svd(A, compute_uv=False)[-1] <= GEOM_TOL:
        raise UnboundedPolytope("the normals do not span the space")
    subsets = np.array(list(itertools.combinations(range(n), dim - 1)), dtype=np.intp)
    M = A[subsets]
    U = np.stack([(-1) ** k * np.linalg.det(np.delete(M, k, axis=2)) for k in range(dim)],
                 axis=1)
    norms = np.linalg.norm(U, axis=1)
    live = norms > GEOM_TOL
    U = U[live] / norms[live, None]
    S = U @ A.T
    ray = (S.max(axis=1) <= GEOM_TOL) | (S.min(axis=1) >= -GEOM_TOL)
    if np.any(ray):
        k = int(np.argmax(ray))
        u = np.round(U[k] if S[k].max() <= GEOM_TOL else -U[k], 12) + 0.0
        raise UnboundedPolytope(f"recession direction {u.tolist()} exists")


def from_vertices(points, dim: int | None = None) -> HPolytope:
    """Convex hull of points converted to a canonical H-representation (d <= 3)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array")
    d = pts.shape[1] if dim is None else dim
    if d > 3:
        raise ValueError("vertex input supported for d <= 3 only")
    if d == 1:
        lo, hi = float(pts.min()), float(pts.max())
        if hi - lo <= GEOM_TOL:
            raise DegeneratePolytope("degenerate 1-d vertex input")
        return normalize([((1.0,), hi), ((-1.0,), -lo)], 1)
    if _affine_rank(pts) < d:
        raise DegeneratePolytope("vertex set is not full-dimensional")
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(pts)
    except QhullError as exc:
        raise DegeneratePolytope(f"convex hull failed: {str(exc).splitlines()[0]}") from exc
    raw = [(eq[:-1], -eq[-1]) for eq in hull.equations]
    return normalize(raw, d)


# ---------------------------------------------------------------------------
# facets
# ---------------------------------------------------------------------------


def _facet_chart(a, bb, A, b, i, verts, dim):
    """Geometry of the facet supported by constraint i, or None if it has
    zero (d-1)-volume. Returns (vertices, volume, origin, tangent, body)."""
    on = verts[np.abs(verts @ a - bb) <= 1e-7]
    if on.shape[0] < dim:
        return None
    if dim == 1:
        x = float(on[0, 0])
        return on[:1].copy(), 1.0, np.array([x]), np.zeros((1, 0)), None
    c = on.mean(axis=0)
    origin = c - (float(a @ c) - bb) * a  # exact projection onto the hyperplane
    T = tangent_basis(a)
    if dim == 2:
        params = (on - origin) @ T[:, 0]
        lo, hi = float(params.min()), float(params.max())
        if hi - lo <= GEOM_TOL:
            return None
        body = _interval(lo, hi)
        vv = np.array([origin + lo * T[:, 0], origin + hi * T[:, 0]])
        return vv, hi - lo, origin, T, body
    rowsA, rowsb = [], []
    for j in range(A.shape[0]):
        if j == i:
            continue
        ap = T.T @ A[j]
        nrm = float(np.linalg.norm(ap))
        if nrm <= 1e-12:
            continue
        rowsA.append(ap / nrm)
        rowsb.append((b[j] - float(A[j] @ origin)) / nrm)
    if not rowsA:
        return None
    body = _reduce(np.array(rowsA), np.array(rowsb), dim - 1)
    if body.empty or body.degenerate:
        return None
    vol = volume(body)
    if vol <= GEOM_TOL:
        return None
    vv = body.vertex_array() @ T.T + origin
    return vv, vol, origin, T, body


def _interval(lo: float, hi: float) -> HPolytope:
    hs = (HalfSpace(np.array([-1.0]), -lo), HalfSpace(np.array([1.0]), hi))
    P = HPolytope(1, hs, empty=False, degenerate=False)
    v = np.array([[lo], [hi]])
    v.setflags(write=False)
    object.__setattr__(P, "_vertices", v)
    return P


def facets(P: HPolytope) -> list[Facet]:
    """One Facet per retained halfspace; empty list for empty/degenerate P."""
    cached = getattr(P, "_facets")
    if cached is not None:
        return list(cached)
    if P.empty or P.degenerate:
        object.__setattr__(P, "_facets", ())
        return []
    A, b = P.A, P.b
    verts = P.vertex_array()
    out = []
    for i, h in enumerate(P.halfspaces):
        geo = _facet_chart(A[i], b[i], A, b, i, verts, P.dim)
        if geo is None:
            continue
        vv, vol, origin, T, body = geo
        out.append(Facet(h, vv, float(vol), origin, T, body))
    object.__setattr__(P, "_facets", tuple(out))
    return out


def vertices(P: HPolytope) -> np.ndarray:
    """Vertex array of a full-dimensional polytope.

    Raises EmptyPolytope / DegeneratePolytope when there is no interior.
    """
    if P.empty:
        raise EmptyPolytope("empty polytope has no vertices")
    if P.degenerate:
        raise DegeneratePolytope("polytope has empty interior")
    return P.vertex_array()


# ---------------------------------------------------------------------------
# volume and triangulation
# ---------------------------------------------------------------------------


def triangulate(P: HPolytope) -> np.ndarray:
    """Deterministic triangulation into d-simplices, shape (m, d+1, d).

    Fan from the vertex centroid over recursively triangulated facets;
    2-d polygons take a direct angular fan.
    """
    cached = getattr(P, "_simplices")
    if cached is not None:
        return cached
    d = P.dim
    if P.empty or P.degenerate:
        simp = np.zeros((0, d + 1, d))
    elif d == 1:
        v = P.vertex_array()
        simp = np.array([[v.min(axis=0), v.max(axis=0)]])
    elif d == 2:
        v = P.vertex_array()
        c = v.mean(axis=0)
        ang = np.arctan2(v[:, 1] - c[1], v[:, 0] - c[0])
        ring = v[np.argsort(ang)]
        m = ring.shape[0]
        simp = np.array([
            [ring[k], ring[(k + 1) % m], c] for k in range(m)
        ])
    else:
        c = P.centroid()
        parts = []
        for F in facets(P):
            sub = triangulate(F.body)  # (m', d, d-1)
            lifted = sub @ F.tangent.T + F.origin
            m = lifted.shape[0]
            block = np.concatenate(
                [lifted, np.broadcast_to(c, (m, 1, d)).copy()], axis=1
            )
            parts.append(block)
        simp = np.concatenate(parts, axis=0) if parts else np.zeros((0, d + 1, d))
    simp.setflags(write=False)
    object.__setattr__(P, "_simplices", simp)
    return simp


def volume(P: HPolytope) -> float:
    """Lebesgue d-volume; 0 for empty or degenerate polytopes."""
    cached = getattr(P, "_volume")
    if cached is not None:
        return cached
    if P.empty or P.degenerate:
        vol = 0.0
    else:
        simp = triangulate(P)
        edges = simp[:, 1:, :] - simp[:, :1, :]
        vol = float(np.sum(np.abs(np.linalg.det(edges)))) / math.factorial(P.dim)
    object.__setattr__(P, "_volume", vol)
    return vol


# ---------------------------------------------------------------------------
# parallel facets and symmetry
# ---------------------------------------------------------------------------


def parallel_facet(P: HPolytope, F: Facet) -> Facet | None:
    """Facet whose unit normal is -F.normal, or None when absent."""
    def same_facet(G: Facet) -> bool:
        if np.linalg.norm(G.normal - F.normal) > 1e-7:
            return False
        if abs(G.supporting.offset - F.supporting.offset) > 1e-7:
            return False
        if G.vertices.shape != F.vertices.shape:
            return False
        return all(np.min(np.linalg.norm(G.vertices - v, axis=1)) <= 1e-7
                   for v in F.vertices)

    if not any(same_facet(G) for G in facets(P)):
        raise FacetNotInPolytope("facet does not belong to this polytope")
    for G in facets(P):
        if np.linalg.norm(G.normal + F.normal) <= 1e-7:
            return G
    return None


def is_symmetric(P: HPolytope, tol: float = GEOM_TOL) -> SymmetryReport:
    """Minkowski test: symmetric iff every facet has a parallel facet of
    equal (d-1)-volume within ``tol``.

    The witness prefers a true facet pair with the largest volume gap; a
    facet with no parallel partner is used only when no paired violation
    exists (its margin is then its own volume).
    """
    fs = facets(P)
    best_pair: tuple[Facet, Facet | None] | None = None
    best_gap = 0.0
    worst_unpaired: Facet | None = None
    symmetric = True
    for F in fs:
        partner = None
        for G in fs:
            if np.linalg.norm(G.normal + F.normal) <= 1e-7:
                partner = G
                break
        if partner is None:
            symmetric = False
            if worst_unpaired is None or F.volume_dm1 > worst_unpaired.volume_dm1:
                worst_unpaired = F
            continue
        gap = abs(F.volume_dm1 - partner.volume_dm1)
        if gap > tol:
            symmetric = False
            if gap > best_gap:
                best_gap = gap
                if F.volume_dm1 >= partner.volume_dm1:
                    best_pair = (F, partner)
                else:
                    best_pair = (partner, F)
    if symmetric:
        return SymmetryReport(True, None, 0.0)
    if best_pair is not None:
        return SymmetryReport(False, best_pair, best_gap)
    assert worst_unpaired is not None
    return SymmetryReport(False, (worst_unpaired, None), worst_unpaired.volume_dm1)


def symmetry_center_oracle(P: HPolytope, tol: float = 1e-7) -> bool:
    """Independent symmetry test: is P equal to its reflection through the
    volume centroid? Vertex-set comparison, d-generic."""
    simp = triangulate(P)
    edges = simp[:, 1:, :] - simp[:, :1, :]
    vols = np.abs(np.linalg.det(edges)) / math.factorial(P.dim)
    cents = simp.mean(axis=1)
    total = vols.sum()
    if total <= 0:
        return True
    c = (vols[:, None] * cents).sum(axis=0) / total
    V = P.vertex_array()
    R = 2.0 * c - V
    for r in R:
        if np.min(np.linalg.norm(V - r, axis=1)) > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# translate-intersection
# ---------------------------------------------------------------------------


def translate_intersection(P: HPolytope, t) -> HPolytope:
    """P intersected with its translate P + t.

    Uses the representation with the same normals and offsets
    min(b_i, b_i + <a_i, t>), then re-canonicalizes. Empty or degenerate
    results come back flagged, never raised.
    """
    t = np.asarray(t, dtype=float).reshape(P.dim)
    A, b = P.A, P.b
    m = np.minimum(b, b + A @ t)
    return _reduce(A, m, P.dim)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def _dist_point_interval(x: float, lo: float, hi: float) -> float:
    return max(0.0, lo - x, x - hi)


def distance_to_polytope(P: HPolytope, x) -> float:
    """Euclidean distance from a point to a nonempty convex polytope (exact)."""
    if P.empty:
        raise EmptyPolytope("distance to empty polytope is undefined")
    x = np.asarray(x, dtype=float).reshape(P.dim)
    if P.degenerate:
        v = P.vertex_array()
        if v.shape[0] == 1:
            return float(np.linalg.norm(x - v[0]))
        if v.shape[0] == 2:
            return _dist_point_segment(x, v[0], v[1])
        # lower-dimensional body with >2 vertices: not needed at desk scale
        raise DegeneratePolytope("distance to this degenerate polytope unsupported")
    if P.dim == 1:
        v = P.vertex_array()
        return _dist_point_interval(float(x[0]), float(v.min()), float(v.max()))
    if P.contains(x):
        return 0.0
    best = math.inf
    for F in facets(P):
        h = float(F.normal @ x - F.supporting.offset)
        y = (x - h * F.normal) - F.origin
        yt = F.tangent.T @ y
        if F.body.dim == 1:
            vb = F.body.vertex_array()
            inplane = _dist_point_interval(float(yt[0]), float(vb.min()), float(vb.max()))
        else:
            inplane = distance_to_polytope(F.body, yt)
        best = min(best, math.hypot(h, inplane))
    return best


def _dist_point_segment(x, a, b) -> float:
    ab = b - a
    denom = float(ab @ ab)
    s = 0.0 if denom == 0 else float(np.clip((x - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(x - (a + s * ab)))


def hausdorff_distance(P: HPolytope, Q: HPolytope) -> float:
    """Hausdorff metric between two bounded nonempty polytopes (exact:
    the sup over each body is attained at a vertex)."""
    if P.empty or Q.empty:
        raise EmptyPolytope("Hausdorff distance needs nonempty polytopes")
    d1 = max(distance_to_polytope(Q, v) for v in P.vertex_array())
    d2 = max(distance_to_polytope(P, w) for w in Q.vertex_array())
    return max(d1, d2)


def facet_hausdorff(F: Facet, G: Facet) -> float:
    """Hausdorff metric between two facets (as compact convex sets in R^d)."""
    def dist_to(H: Facet, x):
        h = float(H.normal @ x - H.supporting.offset)
        y = (x - h * H.normal) - H.origin
        if H.dim == 1:
            return abs(h)
        yt = H.tangent.T @ y
        if H.body.dim == 1:
            vb = H.body.vertex_array()
            inplane = _dist_point_interval(float(yt[0]), float(vb.min()), float(vb.max()))
        else:
            inplane = distance_to_polytope(H.body, yt)
        return math.hypot(h, inplane)

    d1 = max(dist_to(G, v) for v in F.vertices)
    d2 = max(dist_to(F, w) for w in G.vertices)
    return max(d1, d2)


# ---------------------------------------------------------------------------
# non-symmetry margin over a translate ball
# ---------------------------------------------------------------------------


def ball_grid(dim: int, radius: float, n_angles: int, n_radii: int,
              include_origin: bool = True) -> np.ndarray:
    """Deterministic polar-style sample of the closed ball |t| <= radius."""
    pts = [np.zeros(dim)] if include_origin else []
    if radius > 0 and n_radii > 0:
        radii = radius * np.arange(1, n_radii + 1) / n_radii
        if dim == 1:
            dirs = np.array([[1.0], [-1.0]])
        elif dim == 2:
            ang = 2 * np.pi * np.arange(n_angles) / n_angles
            dirs = np.column_stack([np.cos(ang), np.sin(ang)])
        else:
            grids = [np.linspace(0.0, np.pi, n_angles)] * (dim - 2)
            grids.append(2 * np.pi * np.arange(n_angles) / n_angles)
            dirs = []
            for angs in itertools.product(*grids):
                v = np.ones(dim)
                for k, a in enumerate(angs):
                    v[k + 1:] *= np.sin(a)
                    v[k] *= np.cos(a)
                dirs.append(v)
            dirs = np.unique(np.round(np.array(dirs), 12), axis=0)
        for r in radii:
            pts.extend(r * dirs)
    out = np.array(pts) if pts else np.zeros((0, dim))
    return out


def _witness_normals(P: HPolytope) -> tuple[np.ndarray, np.ndarray | None]:
    rep = is_symmetric(P)
    if rep.symmetric or rep.witness is None:
        raise SymmetricInput("polytope is symmetric; no witness facet pair")
    F, G = rep.witness
    return F.normal.copy(), None if G is None else G.normal.copy()


def facet_volume_by_normal(P: HPolytope, normal: np.ndarray) -> float:
    """Volume of the facet of P whose unit normal matches ``normal`` (0 if absent)."""
    for F in facets(P):
        if np.linalg.norm(F.normal - normal) <= 1e-7:
            return F.volume_dm1
    return 0.0


def nonsymmetry_margin(P: HPolytope, eps: float, n_samples: int = 8) -> float:
    """Sampled min over the ball {|t| <= eps} of the witness facet-pair
    volume gap |V(A(t)) - V(B(t))| on the translate-intersections.

    A lower-bound estimate of the persistence margin; raises SymmetricInput
    when no witness pair exists.
    """
    nA, nB = _witness_normals(P)
    grid = ball_grid(P.dim, float(eps), n_samples, n_samples)
    best = math.inf
    for t in grid:
        Q = translate_intersection(P, t)
        vA = facet_volume_by_normal(Q, nA) if not Q.empty else 0.0
        vB = (facet_volume_by_normal(Q, nB) if nB is not None else 0.0) if not Q.empty else 0.0
        best = min(best, abs(vA - vB))
    return best


def persistence_epsilon(P: HPolytope, n_samples: int = 8, iters: int = 24,
                        margin_floor: float = 1e-12) -> float:
    """Largest ball radius (found by bisection) with positive sampled margin."""
    # upper end: margin is certainly gone once the translate misses P entirely
    v = P.vertex_array()
    hi = float(np.linalg.norm(v.max(axis=0) - v.min(axis=0))) + 1.0
    if nonsymmetry_margin(P, hi, n_samples) > margin_floor:
        return hi
    lo = 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if nonsymmetry_margin(P, mid, n_samples) > margin_floor:
            lo = mid
        else:
            hi = mid
    return lo

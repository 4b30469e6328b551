"""Convex polytope geometry on half-space representations.

Canonical H-representations, brute-force vertex enumeration, point hulls
from the cofactor planes of point d-subsets, translate-intersections via the
per-halfspace offset minimum (a batch of shifts shares one stacked vertex
solve), Minkowski parallel-facet symmetry tests, and the exact Hausdorff
metric for convex polytopes.

Every polytope is a member of a family: bodies with the same kept rows and
one incidence (a window's translates), held as stacked offsets and vertices.
A family triangulates once and charts each facet row once for all members;
a member's facets are views of those charts, and a polytope built from its
own rows is the one member of its own family.

Every face comes from one vertex-facet incidence matrix, |V A^T - b| <= 1e-8,
computed once per polytope: the facets of a face with vertex set S are the
inclusion-maximal proper nonempty sets S & F_j. Polytopes and facets are
triangulated by pulling (De Loera, Rambau and Santos, *Triangulations*,
Springer 2010, section 4.3), so a face with k + 1 vertices is one simplex and a
d-cube gives d! simplices.

Coordinates are assumed to stay at desk scale (|x| <= ~1e3, n <= ~30
halfspaces, d <= 4; ``io.load_polytope`` refuses d > 4), so a single absolute
tolerance GEOM_TOL is adequate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DegeneratePolytope, EmptyPolytope, ParseError, UnboundedPolytope

GEOM_TOL = 1e-9
# A vertex lies on a facet hyperplane within this distance: above the GEOM_TOL
# at which vertex candidates merge, and at the 1e-8 below which _affine_rank
# calls a body flat, so a thin body keeps a consistent incidence (at 1e-7 a
# 5e-8 wide slab lost half its volume to the pulling triangulation).
INCIDENCE_TOL = 1e-8
# Vertex enumeration solves one d x d system per d-subset of the halfspaces
# (30 in 4-d give 27,405), and a point hull spans one plane per point d-subset.
MAX_VERTEX_CANDIDATES = 1 << 16


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
class Facet:
    """(d-1)-face of a polytope: the row {x : <normal, x> <= offset} of its
    polytope's (A, b) that supports it, its incident vertices, its
    (d-1)-volume and the (d-2)-volume of its ridges (2 endpoints when d == 2).

    ``origin``/``tangent`` give the isometric chart y -> origin + tangent @ y
    of the supporting hyperplane; ``simplices`` (m, d, d-1) is the facet's
    pulling triangulation in that chart (one point with counting measure 1
    when d == 1).
    """

    normal: np.ndarray
    offset: float
    vertices: np.ndarray
    volume_dm1: float
    boundary_dm2: float
    origin: np.ndarray = field(repr=False)
    tangent: np.ndarray = field(repr=False)
    simplices: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.normal.size


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
    """Bounded intersection {x : A x <= b} of closed half-spaces in canonical
    form: ``A`` (n, dim) holds the unit normals and ``b`` (n,) the offsets,
    both read-only copies.

    ``empty`` flags an infeasible intersection, ``degenerate`` a feasible one
    with no interior (volume 0). Instances are immutable. The vertices,
    incidence, triangulation and facet charts live in the body's family
    (``_member``, which ``Family.body`` seeds); the facets, triangulation
    and volume are cached on first use.
    """

    dim: int
    A: np.ndarray
    b: np.ndarray
    empty: bool = False
    degenerate: bool = False

    def __post_init__(self):
        A = np.array(self.A, dtype=float).reshape(-1, self.dim)
        b = np.array(self.b, dtype=float).reshape(A.shape[0])
        A.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    # -- membership -------------------------------------------------------
    def contains(self, x, tol: float = GEOM_TOL) -> bool:
        if self.empty:
            return False
        x = np.asarray(x, dtype=float)
        return bool(np.all(self.A @ x <= self.b + tol))

    def vertex_array(self) -> np.ndarray:
        """All vertices, shape (m, d); empty array for an empty polytope."""
        F, j = self._member
        return F.V[j]

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        v = self.vertex_array()
        if v.size == 0:
            raise EmptyPolytope("empty polytope has no bounding box")
        return v.min(axis=0), v.max(axis=0)

    # -- cached faces -------------------------------------------------------
    @cached_property
    def _member(self) -> tuple[Family, int]:
        """(family, j) as Family.body seeds it; else the body's own family, j = 0."""
        V = next((V for _, V in _vertex_groups(self.A, self.b[None], self.dim)),
                 np.zeros((1, 0, self.dim)))
        inc = np.abs(V[0] @ self.A.T - self.b) <= INCIDENCE_TOL
        return Family(np.zeros(1, np.intp), self.A, self.b[None], V, inc, {}), 0

    @cached_property
    def _facets(self) -> tuple[Facet, ...]:
        """Views of the family's charts: a family keeps exactly the rows whose
        facets have (d-1)-volume above GEOM_TOL in every member."""
        if self.empty or self.degenerate:
            return ()
        F, j = self._member
        return tuple(Facet(F.A[i], float(F.B[j, i]), on[j], float(vol[j]), float(ridge[j]),
                           origin[j], T, simp[j])
                     for i, T, on, origin, simp, vol, ridge in F.charts)

    @cached_property
    def _simplices(self) -> np.ndarray:
        if self.empty or self.degenerate:
            simp = np.zeros((0, self.dim + 1, self.dim))
        else:
            F, j = self._member
            simp = F.V[j][F.cells()]
        simp.setflags(write=False)
        return simp

    @cached_property
    def _volume(self) -> float:
        return float(_content(self._simplices).sum())


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _vertex_groups(A: np.ndarray, B: np.ndarray, dim: int):
    """Vertices of {x : A x <= B[k]} for the offset rows of B (s, n), yielded
    as batches (rows, V): the nonempty rows with q distinct vertices each and
    their read-only vertex arrays V (len(rows), q, d) in lexicographic order.

    Every row shares the matrices of the d-subset systems of A, so one
    stacked solve serves all rows, at most MAX_VERTEX_CANDIDATES candidates
    at once; a row with no feasible candidate is in no batch.
    """
    n = A.shape[0]
    if n < dim:
        return
    combos = np.array(list(itertools.combinations(range(n), dim)))
    M = A[combos]  # (m, d, d)
    good = np.abs(np.linalg.det(M)) > 1e-12
    if not np.any(good):
        return
    combos, M = combos[good], M[good]
    step = max(1, MAX_VERTEX_CANDIDATES // combos.shape[0])
    for start in range(0, B.shape[0], step):
        Bs = B[start:start + step]
        sols = np.linalg.solve(M, Bs[:, combos, None])[..., 0]  # (s, m, d)
        feas = np.all(np.matmul(A, sols.transpose(0, 2, 1)) <= Bs[:, :, None] + GEOM_TOL,
                      axis=1)
        count = feas.sum(axis=1)
        for p in np.unique(count[count > 0]):
            rows = np.flatnonzero(count == p)
            pts = sols[rows][feas[rows]].reshape(rows.size, p, dim)
            pts, keep = _distinct_points(pts)
            q = keep.sum(axis=1)
            for size in np.unique(q):
                at = q == size
                V = pts[at][keep[at]].reshape(-1, size, dim)
                V.setflags(write=False)
                yield start + rows[at], V


def _distinct_points(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of points (s, p, d) in lexicographic order, and which points
    to keep: a point goes unless an earlier point lies within GEOM_TOL, its
    predecessor or, where another point's first coordinate splits a cluster,
    one before it (only points far from their predecessor need that second
    test)."""
    order = np.lexsort(pts.transpose(2, 0, 1)[::-1], axis=-1)
    pts = np.take_along_axis(pts, order[..., None], axis=1)
    keep = np.ones(pts.shape[:2], dtype=bool)
    keep[:, 1:] = np.linalg.norm(np.diff(pts, axis=1), axis=2) > GEOM_TOL
    row, k = np.nonzero(keep)
    near = np.linalg.norm(pts[row, k, None] - pts[row], axis=2) <= GEOM_TOL
    keep[row, k] = ~np.any(near & (np.arange(pts.shape[1]) < k[:, None]), axis=1)
    return pts, keep


def _merge_duplicate_normals(A: np.ndarray, b: np.ndarray):
    """Merge halfspaces whose unit normals differ by <= GEOM_TOL into the
    first kept one, keeping min offset."""
    keep: list[int] = []
    for i in range(A.shape[0]):
        near = np.flatnonzero(np.linalg.norm(A[keep] - A[i], axis=1) <= GEOM_TOL)
        if near.size:
            j = keep[near[0]]
            b[j] = min(b[j], b[i])
        else:
            keep.append(i)
    return A[keep], b[keep]


def _affine_rank(pts: np.ndarray) -> int:
    if pts.shape[0] <= 1:
        return 0
    return int(np.linalg.matrix_rank(pts[1:] - pts[0], tol=1e-8))


@dataclass(frozen=True, eq=False)
class Family:
    """Bodies {x : A x <= B[j]} with one incidence (q, n) and the same kept
    rows A (n, d): ``members`` (s,) are their rows in the batch, B (s, n)
    their offsets and V (s, q, d) their vertices, all read-only. They share
    one memo of pulled faces, and so one triangulation, one chart per facet
    row (``charts``), of which each member's facets are views, and the rows
    of the divergence identity (``axis_rows``)."""

    members: np.ndarray
    A: np.ndarray
    B: np.ndarray
    V: np.ndarray
    incidence: np.ndarray
    pulls: dict

    def __post_init__(self):
        for x in (self.A, self.B, self.V, self.incidence):
            x.setflags(write=False)

    def cells(self) -> np.ndarray:
        """The pulling triangulation as vertex-index rows (m, d + 1): member
        j's simplices are V[j][cells()]."""
        return _pull(self.incidence, np.arange(self.V.shape[1]), self.A.shape[1], self.pulls)

    def body(self, j: int) -> HPolytope:
        """Member j as an HPolytope whose faces are the family's."""
        P = HPolytope(self.A.shape[1], self.A, self.B[j])
        vars(P)["_member"] = (self, j)
        return P

    @cached_property
    def charts(self) -> list[tuple]:
        """One read-only chart per row i with at least d incident vertices S,
        for all members: (i, tangent basis T (d, d-1), facet vertices V[:, S],
        origins (s, d), chart simplices (s, m, d, d-1), (d-1)-volumes (s,),
        ridge (d-2)-volumes (s,)). Origin j projects the mean of V[j, S] onto
        the row's hyperplane, and each stacked product keeps the bits of its
        one-member form."""
        inc, memo = self.incidence, self.pulls
        s, _, d = self.V.shape
        charts = []
        for i, a in enumerate(self.A):
            S = np.flatnonzero(inc[:, i])
            if S.size < d:
                continue
            on = self.V[:, S]
            c = on.mean(axis=1)
            origin = c - (np.matmul(c[:, None, :], a[:, None])[:, 0] - self.B[:, i, None]) * a
            T = tangent_basis(a)
            simp = np.matmul(self.V - origin[:, None], T)[:, _pull(inc, S, d - 1, memo)]
            vol = _content(simp.reshape(s * simp.shape[1], d, d - 1)).reshape(s, -1).sum(axis=1)
            ridge = np.zeros(s)
            if d > 1:
                R = np.concatenate([_pull(inc, G, d - 2, memo) for G in _face_facets(inc, S, d - 1)])
                ridge = _content(self.V[:, R].reshape(s * len(R), d - 1, d)).reshape(s, -1).sum(axis=1)
            for x in (T, on, origin, simp, vol, ridge):
                x.setflags(write=False)
            charts.append((i, T, on, origin, simp, vol, ridge))
        return charts

    @cached_property
    def axis_rows(self) -> tuple[int | None, int | None, list[int]]:
        """Positions in ``charts`` of the divergence identity's rows along e1:
        the first with unit normal within 1e-7 of -e1 (A) and of +e1 (B), the
        pair a certificate frame puts on {y_1 = 0} and {y_1 = 1}, None where
        absent, and the others with |n_1| > 1e-14 (G), in row order."""
        normals = self.A[[c[0] for c in self.charts]]
        ab = _first_near(normals, np.eye(self.A.shape[1])[0] * [[-1.0], [1.0]])
        g = np.flatnonzero(np.abs(normals[:, 0]) > 1e-14)
        a, b = (None if r < 0 else int(r) for r in ab)
        return a, b, g[~np.isin(g, ab)].tolist()


class Batch(NamedTuple):
    """The bodies {x : A x <= B[k]} of an offset batch in canonical rows A
    (n, d): the families of the full-dimensional ones, and which rows of B
    (s, n) have vertices (the others are empty)."""

    A: np.ndarray
    B: np.ndarray
    feasible: np.ndarray
    families: list[Family]

    def polytopes(self) -> list[HPolytope]:
        """One HPolytope per row: a member's body, else all of A flagged
        degenerate (and empty where the row has no vertices)."""
        views = {k: F.body(j) for F in self.families for j, k in enumerate(F.members)}
        return [views[k] if k in views else
                HPolytope(self.A.shape[1], self.A, b, empty=not f, degenerate=True)
                for k, (b, f) in enumerate(zip(self.B, self.feasible))]


def _reduce(A: np.ndarray, B: np.ndarray, dim: int) -> Batch:
    """The bodies {x : A x <= B[k]} of distinct unit-normal rows A (n, dim),
    one per offset row of B (s, n), as a Batch in canonical rows: which rows
    have vertices, and the families of the full-dimensional bodies (_bodies).
    A full-dimensional body keeps a row iff its facet has (d-1)-volume >
    GEOM_TOL. Never raises on empty/degenerate results. Only ``normalize``
    sees raw rows, and it merges duplicate normals first; translate and frame
    rows are a polytope's own rows, moved or rotated."""
    # canonical row order: distinct unit normals differ by more than GEOM_TOL,
    # so their rows never tie at 12 decimals and the offsets never enter it
    order = np.lexsort(np.round(A, 12).T[::-1])
    # unit-normalize each stored row once more by its scalar norm, after the
    # vertices: this moves last bits (and a vectorized norm would move others)
    # on which witness ties and certificate frames have always depended
    An = np.array([a / float(np.linalg.norm(a)) for a in A[order]]).reshape(-1, dim)
    Bn = B[:, order]
    feasible = np.zeros(B.shape[0], dtype=bool)
    families = []
    for rows, V in _vertex_groups(A, B, dim):
        feasible[rows] = True
        families += _bodies(An, Bn, rows, V)
    return Batch(An, Bn, feasible, families)


def _bodies(A: np.ndarray, B: np.ndarray, rows: np.ndarray, V: np.ndarray) -> list[Family]:
    """The families of the full-dimensional bodies among {x : A x <= B[k]}
    for k in rows, with canonical rows and vertex sets V (len(rows), q, d):
    one per incidence pattern and set of kept rows. Bodies with one incidence
    share their face triangulations, which the incidence alone determines:
    their facet volumes are one stacked determinant per row, and a row is
    kept where its facet has volume above GEOM_TOL."""
    q, dim = V.shape[1:]
    live = np.flatnonzero(np.linalg.matrix_rank(V[:, 1:] - V[:, :1], tol=1e-8) == dim)
    inc = np.abs(np.matmul(V[live], A.T) - B[rows[live], None, :]) <= INCIDENCE_TOL
    patterns, which = _distinct_rows(inc.reshape(-1, q * A.shape[0]))
    families = []
    for p, pattern in enumerate(patterns):
        pinc = pattern.reshape(q, -1)
        at = live[which == p]
        Vm = V[at]
        memo: dict = {}
        vols = np.zeros((at.size, A.shape[0]))
        for i in range(A.shape[0]):
            S = np.flatnonzero(pinc[:, i])
            if S.size < dim:
                continue
            cells = Vm[:, _pull(pinc, S, dim - 1, memo)]  # (members, m, d, d)
            normal = np.broadcast_to(A[i], cells.shape[:2] + (1, dim))
            edges = np.concatenate([normal, cells[:, :, 1:] - cells[:, :, :1]], axis=2)
            vols[:, i] = np.abs(np.linalg.det(edges)).sum(axis=1) / math.factorial(dim - 1)
        keeps, kind = _distinct_rows(vols > GEOM_TOL)
        for j, keep in enumerate(keeps):
            k = at[kind == j]
            families.append(Family(rows[k], A[keep], B[rows[k]][:, keep], V[k], pinc[:, keep],
                                   dict(memo)))
    return families


def _distinct_rows(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the boolean matrix M in lexicographic order, and
    each row's index among them, by one 1-D sort: each row packed into bytes,
    most significant bit first (which compare as the row does), is one key."""
    packed = np.packbits(M, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    return M[first], which


def normalize(raw_halfspaces, dim: int) -> HPolytope:
    """Canonicalize a raw half-space list into a bounded HPolytope.

    Unit-normalizes, merges duplicate normals by minimum offset, verifies
    boundedness (recession cone {Ax <= 0} must be trivial), then removes
    halfspaces that do not support a facet of positive (d-1)-volume.

    Raises UnboundedPolytope / EmptyPolytope accordingly, and ParseError,
    before anything is allocated, when the n distinct halfspaces give more
    than MAX_VERTEX_CANDIDATES vertex systems C(n, dim).
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
    if math.comb(A.shape[0], dim) > MAX_VERTEX_CANDIDATES:
        raise ParseError(f"{A.shape[0]} distinct halfspaces in dimension {dim} give more "
                         f"than {MAX_VERTEX_CANDIDATES} vertex candidates")
    _check_bounded(A, dim)
    P = _reduce(A, b[None], dim).polytopes()[0]
    if P.empty:
        raise EmptyPolytope("half-space intersection is infeasible")
    return P


def _check_bounded(A: np.ndarray, dim: int) -> None:
    """Raise UnboundedPolytope unless the recession cone {u : A u <= 0} is {0}.

    The rows of A are unit normals. A nonzero cone either holds a line, so
    that some unit u has |A u| <= GEOM_TOL (rank A < dim), or it is pointed
    and has an extreme ray: the null vector u of dim - 1 independent rows
    with A u <= 0 or A u >= 0. Every such candidate is tested in one batch;
    the null vector of rows M is their cofactor vector, and for dim = 1 the
    empty subset gives u = 1, so the test reads "A has entries of both signs".
    """
    n = A.shape[0]
    if n <= dim:
        raise UnboundedPolytope(f"{n} halfspaces cannot bound a {dim}-d polytope")
    if np.linalg.svd(A, compute_uv=False)[-1] <= GEOM_TOL:
        raise UnboundedPolytope("the normals do not span the space")
    subsets = np.array(list(itertools.combinations(range(n), dim - 1)), dtype=np.intp)
    U, _ = _cofactors(A[subsets])
    S = U @ A.T
    ray = (S.max(axis=1) <= GEOM_TOL) | (S.min(axis=1) >= -GEOM_TOL)
    if np.any(ray):
        k = int(np.argmax(ray))
        u = np.round(U[k] if S[k].max() <= GEOM_TOL else -U[k], 12) + 0.0
        raise UnboundedPolytope(f"recession direction {u.tolist()} exists")


def _cofactors(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit cofactor vectors of the row stacks M (m, d-1, d) and which stacks
    they come from: those whose cofactor vector u_k = (-1)^k det(M without
    column k) has a norm above GEOM_TOL. Each u is orthogonal to the rows of
    its M, and the empty stack of d = 1 gives u = 1."""
    U = np.stack([(-1) ** k * np.linalg.det(np.delete(M, k, axis=2))
                  for k in range(M.shape[2])], axis=1)
    norms = np.linalg.norm(U, axis=1)
    live = norms > GEOM_TOL
    return U[live] / norms[live, None], live


def from_vertices(points) -> HPolytope:
    """Convex hull of points (n, d) as a canonical H-representation.

    Each d-subset of the distinct points spans a plane, its cofactor normal;
    a plane is kept, facing outward, when every point lies on one side of it
    within GEOM_TOL, and ``normalize`` merges, bounds and reduces the kept
    planes. Raises ParseError, before any subset is set up, when the n
    distinct points give more than MAX_VERTEX_CANDIDATES subsets C(n, d).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array")
    d = pts.shape[1]
    pts = np.unique(pts, axis=0)
    n = pts.shape[0]
    if math.comb(n, d) > MAX_VERTEX_CANDIDATES:
        raise ParseError(f"{n} distinct points in dimension {d} give more than "
                         f"{MAX_VERTEX_CANDIDATES} hull candidates")
    if _affine_rank(pts) < d:
        raise DegeneratePolytope("vertex set is not full-dimensional")
    P = pts[np.array(list(itertools.combinations(range(n), d)), dtype=np.intp)]
    U, live = _cofactors(P[:, 1:] - P[:, :1])
    c = np.einsum("ij,ij->i", U, P[live, 0])
    raw = []
    step = max(1, MAX_VERTEX_CANDIDATES // n)
    for start in range(0, U.shape[0], step):
        u, cu = U[start:start + step], c[start:start + step]
        S = pts @ u.T  # (n, planes)
        up, down = S.max(axis=0) - cu <= GEOM_TOL, S.min(axis=0) - cu >= -GEOM_TOL
        for sign, side in ((1.0, up), (-1.0, down)):
            raw += zip(sign * u[side], sign * cu[side])
    return normalize(raw, d)


# ---------------------------------------------------------------------------
# facets
# ---------------------------------------------------------------------------


def _face_facets(inc: np.ndarray, S: np.ndarray, k: int) -> list[np.ndarray]:
    """Facets of the k-face with ascending vertex indices S: the inclusion-
    maximal proper nonempty sets S & F_j, each once, in column order; those
    of a simplex are S less one vertex."""
    if S.size == k + 1:
        return [S[np.arange(S.size) != j] for j in range(S.size)]
    sub = inc[S]
    size = sub.sum(axis=0)
    cols = np.flatnonzero((size > 0) & (size < S.size))
    sub, size = sub[:, cols], size[cols]
    M = sub.astype(np.intp)
    inside = M.T @ M == size[:, None]  # [j, l]: S & F_j within S & F_l
    # keep S & F_j unless it lies in a bigger set or equals an earlier one
    beaten = (size[None, :] > size[:, None]) | np.tri(cols.size, k=-1, dtype=bool)
    keep = ~np.any(inside & beaten, axis=1)
    return [S[sub[:, j]] for j in np.flatnonzero(keep)]


def _pull(inc: np.ndarray, S: np.ndarray, k: int, memo: dict) -> np.ndarray:
    """Pulling triangulation of the k-face with ascending vertex indices S as
    vertex-index rows (m, k+1): its first vertex coned over the pulled
    triangulations of its facets that miss it."""
    key = (k, S.tobytes())
    cells = memo.get(key)
    if cells is None:
        if k == 0 or S.size == k + 1:  # a simplex is its own triangulation
            cells = S[None, :k + 1]
        else:
            parts = [_pull(inc, G, k - 1, memo) for G in _face_facets(inc, S, k) if G[0] != S[0]]
            cells = np.empty((sum(map(len, parts)), k + 1), np.intp)
            cells[:, 0] = S[0]
            if parts:
                cells[:, 1:] = np.concatenate(parts)
        memo[key] = cells
    return cells


def _content(cells: np.ndarray) -> np.ndarray:
    """k-volumes of the k-simplices (m, k+1, n): a point counts 1, a segment
    its exact length, otherwise |det| of the edges when n == k and the Gram
    determinant when n > k."""
    E = cells[:, 1:] - cells[:, :1]
    k, n = E.shape[1:]
    if k == 0:
        return np.ones(E.shape[0])
    if k == 1:
        return np.sqrt(np.sum(E[:, 0] * E[:, 0], axis=1))
    if n > k:
        return np.sqrt(np.abs(np.linalg.det(E @ E.transpose(0, 2, 1)))) / math.factorial(k)
    return np.abs(np.linalg.det(E)) / math.factorial(k)


def facets(P: HPolytope) -> list[Facet]:
    """One Facet per retained halfspace; empty list for empty/degenerate P."""
    return list(P._facets)


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

    Pulling: the first vertex in canonical order coned over the pulled
    triangulations of the facets that miss it; a d-simplex is one simplex.
    """
    return P._simplices


def volume(P: HPolytope) -> float:
    """Lebesgue d-volume; 0 for empty or degenerate polytopes."""
    return P._volume


# ---------------------------------------------------------------------------
# parallel facets and symmetry
# ---------------------------------------------------------------------------


def _first_near(normals: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """For each target row (m, d), the first of the rows normals (n, d) that
    lies within 1e-7 of it, -1 where none does."""
    near = np.linalg.norm(normals - targets[:, None], axis=2) <= 1e-7
    return np.where(near.any(axis=1), near.argmax(axis=1) if near.shape[1] else -1, -1)


def facet_by_normal(P: HPolytope, normal) -> Facet | None:
    """First facet of P in canonical order whose unit normal lies within 1e-7
    of ``normal``, or None when there is none."""
    fs = facets(P)
    k = _first_near(np.array([F.normal for F in fs]).reshape(-1, P.dim),
                    np.reshape(normal, (1, P.dim)))[0]
    return None if k < 0 else fs[k]


def is_symmetric(P: HPolytope, tol: float = GEOM_TOL) -> SymmetryReport:
    """Minkowski test: symmetric iff every facet has a parallel facet of
    equal (d-1)-volume within ``tol``; a facet's parallel facet is the first
    one whose unit normal lies within 1e-7 of its negative.

    The witness is the pair of the first facet in canonical order whose
    volume gap to its parallel facet exceeds ``tol`` and lies within ``tol``
    of the largest such gap, larger facet first. Only when no pair violates,
    it is the first facet with no parallel facet whose volume lies within
    ``tol`` of the largest such volume (its margin is then its own volume).
    """
    fs = facets(P)
    normals = np.array([F.normal for F in fs]).reshape(-1, P.dim)
    vol = np.array([F.volume_dm1 for F in fs])
    partner = _first_near(normals, -normals)
    lone = partner < 0
    gap = np.where(lone, 0.0, np.abs(vol - vol[partner]))
    bad = ~lone & (gap > tol)
    if bad.any():
        i = int(np.argmax(bad & (gap >= gap[bad].max() - tol)))
        k = int(partner[i])
        return SymmetryReport(False, (fs[i], fs[k]) if vol[i] >= vol[k] else (fs[k], fs[i]),
                              float(gap[i]))
    if lone.any():
        i = int(np.argmax(lone & (vol >= vol[lone].max() - tol)))
        return SymmetryReport(False, (fs[i], None), float(vol[i]))
    return SymmetryReport(True, None, 0.0)


def symmetry_center_oracle(P: HPolytope, tol: float = 1e-7) -> bool:
    """Independent symmetry test: is P equal to its reflection through the
    volume centroid? Vertex-set comparison, d-generic."""
    simp = triangulate(P)
    vols = _content(simp)
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


def _translate_intersections(P: HPolytope, T) -> Batch:
    """P intersected with its translate P + t, for every row t of the shift
    array T (s, d), as a Batch whose families hold the live translates.

    Each keeps the normals of P with offsets min(b_i, b_i + <a_i, t>), so all
    share the vertex systems of P: one stacked solve finds every shift's
    vertex candidates and sorts out the empty shifts, and only the live
    translates are grouped into families, from their feasible candidates and
    their incidence. Empty or degenerate translates are in no family.
    """
    T = np.asarray(T, dtype=float).reshape(-1, P.dim)
    # a stacked matrix-vector product: every row has the bits of A @ t
    offsets = np.minimum(P.b, P.b + np.matmul(P.A, T[..., None])[..., 0])
    return _reduce(P.A, offsets, P.dim)


def translate_intersection(P: HPolytope, t) -> HPolytope:
    """P intersected with P + t for one shift t: the one-row case of
    _translate_intersections, flagged empty or degenerate when it is."""
    return _translate_intersections(P, np.reshape(t, (1, P.dim))).polytopes()[0]


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def _distance_to_cells(X: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Distance from each point X (p, d) to the union of the simplices cells
    (m, k+1, d): the least distance to a projection onto the affine hull of
    a face of a simplex whose barycentric coordinates are all >= 0."""
    best = np.full(X.shape[0], np.inf)
    for r in range(1, cells.shape[1] + 1):
        for face in itertools.combinations(range(cells.shape[1]), r):
            V = cells[:, face]
            E = V[:, 1:] - V[:, :1]  # (m, r-1, d)
            W = X[None] - V[:, :1]  # (m, p, d)
            mu = np.linalg.solve(E @ E.transpose(0, 2, 1), E @ W.transpose(0, 2, 1))
            ok = np.all(mu >= 0, axis=1) & (mu.sum(axis=1) <= 1)  # (m, p)
            dist = np.linalg.norm(W - mu.transpose(0, 2, 1) @ E, axis=2)
            best = np.minimum(best, np.where(ok, dist, np.inf).min(axis=0))
    return best


def _distance_to_facets(fs: list[Facet], X: np.ndarray) -> np.ndarray:
    """Distance from each point X (p, d) to the union of the facets, each
    given by its pulled simplices lifted out of its chart."""
    cells = np.concatenate([F.origin + F.simplices @ F.tangent.T for F in fs])
    return _distance_to_cells(X, cells)


def distance_to_polytope(P: HPolytope, x) -> float:
    """Euclidean distance from a point to a nonempty convex polytope (exact)."""
    if P.empty:
        raise EmptyPolytope("distance to empty polytope is undefined")
    x = np.asarray(x, dtype=float).reshape(1, P.dim)
    if P.degenerate:
        v = P.vertex_array()
        if v.shape[0] > 2:
            # lower-dimensional body with >2 vertices: not needed at desk scale
            raise DegeneratePolytope("distance to this degenerate polytope unsupported")
        return float(_distance_to_cells(x, v[None])[0])
    if P.contains(x[0]):
        return 0.0
    return float(_distance_to_facets(facets(P), x)[0])


def hausdorff_distance(P: HPolytope, Q: HPolytope) -> float:
    """Hausdorff metric between two bounded nonempty polytopes (exact:
    the sup over each body is attained at a vertex)."""
    if P.empty or Q.empty:
        raise EmptyPolytope("Hausdorff distance needs nonempty polytopes")
    d1 = max(distance_to_polytope(Q, v) for v in P.vertex_array())
    d2 = max(distance_to_polytope(P, w) for w in Q.vertex_array())
    return max(d1, d2)


# ---------------------------------------------------------------------------
# translate balls
# ---------------------------------------------------------------------------


def ball_grid(dim: int, radius: float, n_angles: int, n_radii: int) -> np.ndarray:
    """Deterministic polar-style sample of the closed ball |t| <= radius: the
    origin, then each of n_radii radii in (0, radius] times the
    ball_directions(dim, n_angles) distinct unit directions."""
    if radius <= 0 or n_radii <= 0:
        return np.zeros((1, dim))
    radii = radius * np.arange(1, n_radii + 1) / n_radii
    if dim == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif dim == 2:
        ang = 2 * np.pi * np.arange(n_angles) / n_angles
        dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    else:
        grids = [np.linspace(0.0, np.pi, n_angles)] * (dim - 2)
        grids.append(2 * np.pi * np.arange(n_angles) / n_angles)
        angs = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, dim - 1)
        dirs = np.ones((angs.shape[0], dim))
        for k in range(dim - 1):
            dirs[:, k + 1:] *= np.sin(angs[:, k, None])
            dirs[:, k] *= np.cos(angs[:, k])
        dirs = np.unique(np.round(dirs, 12), axis=0)
    return np.concatenate([np.zeros((1, dim)), (radii[:, None, None] * dirs).reshape(-1, dim)])


def ball_directions(dim: int, n_angles: int) -> int:
    """How many directions ball_grid puts on each radius, for n >= 1 angles:
    S_1 = 2, S_2 = n and S_d = 2 + (n - 2) S_{d-1}, the two poles of the
    first polar angle and n - 2 rings of S_{d-1} (1 for n = 1)."""
    if dim == 1:
        return 2
    if dim == 2 or n_angles == 1:
        return n_angles
    return 2 + (n_angles - 2) * ball_directions(dim - 1, n_angles)

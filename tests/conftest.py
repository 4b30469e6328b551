"""Shared fixtures: canonical windows and random polytope generators."""

import numpy as np
import pytest

from gonb import (
    apply_frame,
    from_vertices,
    normalize,
    translate_intersection,
    volume,
)
from gonb.fourier import _ball_cone_constant
from gonb.polytope import _translate_intersections, ball_grid

PENTAGON_VERTICES = np.array([(0, 0), (2, 0), (2, 2), (1, 2), (0, 1)], dtype=float)


def make_pentagon():
    # square with the top left-hand corner cut off
    return normalize(
        [((0, -1), 0), ((1, 0), 2), ((0, 1), 2), ((-1, 1), 1), ((-1, 0), 0)], 2
    )


def make_unit_square():
    return normalize(
        [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)], 2
    )


def make_simplex2():
    return normalize([((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)], 2)


@pytest.fixture
def pentagon():
    return make_pentagon()


@pytest.fixture
def unit_square():
    return make_unit_square()


@pytest.fixture
def simplex2():
    return make_simplex2()


@pytest.fixture
def unit_cube():
    return normalize(
        [((1, 0, 0), 1), ((-1, 0, 0), 0), ((0, 1, 0), 1), ((0, -1, 0), 0),
         ((0, 0, 1), 1), ((0, 0, -1), 0)], 3
    )


def random_polygon(rng, scale=1.2, min_area=0.2, max_tries=50):
    """Full-dimensional random polygon from a planted point hull."""
    for _ in range(max_tries):
        pts = rng.uniform(-scale, scale, (int(rng.integers(4, 9)), 2))
        try:
            P = from_vertices(pts)
        except Exception:
            continue
        if volume(P) >= min_area:
            return P
    raise RuntimeError("could not generate a random polygon")


def random_polytope_3d(rng, scale=1.0, min_vol=0.05, max_tries=50):
    for _ in range(max_tries):
        pts = rng.uniform(-scale, scale, (int(rng.integers(5, 10)), 3))
        try:
            P = from_vertices(pts)
        except Exception:
            continue
        if volume(P) >= min_vol:
            return P
    raise RuntimeError("could not generate a random 3-d polytope")


def sphere_points(n):
    """n points on the unit sphere in convex position (a Fibonacci lattice)."""
    k = np.arange(n) + 0.5
    polar, azimuth = np.arccos(1 - 2 * k / n), np.pi * (1 + 5 ** 0.5) * k
    return np.column_stack([np.cos(azimuth) * np.sin(polar),
                            np.sin(azimuth) * np.sin(polar), np.cos(polar)])


def symmetrized_polygon(rng, scale=1.0):
    """Random centrally symmetric polygon (hull of points and their negations)."""
    pts = rng.uniform(-scale, scale, (int(rng.integers(3, 6)), 2))
    return from_vertices(np.concatenate([pts, -pts]))


def _mp_divdiff_exp(y, mpmath):
    """Divided difference of exp over the nodes i*y (floats or mpmath reals)
    at the working precision. The nodes are sorted, so equal nodes stand
    together, and a window of equal nodes takes the confluent entry
    exp(z) / lv!."""
    z = [mpmath.mpc(0, v) for v in sorted(y)]
    table = [mpmath.exp(v) for v in z]
    for lv in range(1, len(z)):
        table = [table[i] / lv if z[i + lv] == z[i]
                 else (table[i + 1] - table[i]) / (z[i + lv] - z[i])
                 for i in range(len(z) - lv)]
    return complex(table[0])


def certificate_hex(cert):
    """float.hex of a certificate's eta, C, R, min_abs_scanned and
    min_sigma_gap, the values that bit pins compare."""
    return [float(x).hex() for x in (cert.eta, cert.C, cert.R, cert.min_abs_scanned,
                                     cert.provenance.min_sigma_gap)]


def ball_cone_bounds(P, frame, omega, params, radius, n_angles=8, n_radii=2):
    """(t, cone bound) of each translate Q intersect (Q + t), Q =
    apply_frame(P, frame), at the ball_grid shifts |t| <= radius, in grid
    order; each bound is that of the one translate, with arg_t zero."""
    Q = apply_frame(P, frame)
    zero = np.zeros((1, P.dim))
    return [(t, _ball_cone_constant(_translate_intersections(Q, [t]).families, zero, omega,
                                    params))
            for t in ball_grid(P.dim, radius, n_angles, n_radii)]

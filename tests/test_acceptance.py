"""Acceptance suite: one test per criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion with its runtime.
"""

import time

import numpy as np
import pytest

from gonb import (
    ConeScanParams,
    TimeFrequencySet,
    build_certificate,
    check_orthogonality,
    facets,
    ft_facet_measure,
    ft_indicator,
    ft_indicator_quadrature,
    hausdorff_distance,
    is_symmetric,
    lattice_points,
    normalize,
    stft_indicator,
    stft_indicator_quadrature,
    symmetry_center_oracle,
    translate_intersection,
    vertices,
    volume,
)
from gonb.fourier import divdiff_exp_direct, divdiff_exp_series
from gonb.gabor import build_axis_frame
from gonb.polytope import from_vertices

from conftest import (
    ball_cone_bounds,
    certificate_hex,
    make_pentagon,
    make_unit_square,
    random_polygon,
    random_polytope_3d,
    symmetrized_polygon,
)

PENTAGON_SQUARE = np.array([(0, 0), (1, 0), (0, 1), (1, 1)], dtype=float)


def _report(k: int, started: float, budget: float, detail: str) -> None:
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE {k} PASS ({elapsed:.1f}s / budget {budget:.0f}s): {detail}")
    assert elapsed < budget


def vertex_set_equal(V, W, tol=1e-9):
    V, W = np.asarray(V, float), np.asarray(W, float)
    return V.shape == W.shape and all(
        np.min(np.linalg.norm(W - v, axis=1)) <= tol for v in V
    )


def test_criterion_1_pentagon_reproduction():
    t0 = time.perf_counter()
    pent = make_pentagon()
    rep = is_symmetric(pent, 1e-9)
    assert not rep.symmetric
    F, G = rep.witness
    assert (F.volume_dm1, G.volume_dm1) == pytest.approx((2.0, 1.0), abs=1e-12)
    Q = translate_intersection(pent, (-1.0, -1.0))
    assert vertex_set_equal(vertices(Q), PENTAGON_SQUARE, tol=1e-9)
    assert is_symmetric(Q, 1e-9).symmetric
    _report(1, t0, 1.0, "pentagon witness (2,1); intersection is the unit square")


def test_criterion_2_ft_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    polys = [random_polygon(rng) for _ in range(19)]
    polys += [make_pentagon(), make_unit_square()]
    worst = 0.0
    n_lam = 0
    for P in polys:
        lams = rng.uniform(-10, 10, (4, 2))
        nrm = np.linalg.norm(lams, axis=1)
        lams[nrm > 10] *= (10.0 / nrm[nrm > 10])[:, None]
        n_lam += len(lams)
        exact = ft_indicator(P, lams)
        quad = ft_indicator_quadrature(P, lams, 2000)
        err = float(np.abs(exact - quad).max()) / volume(P)
        assert err <= 1e-3, f"oracle disagreement {err:.2e}"
        worst = max(worst, err)
    assert len(polys) >= 20 and n_lam >= 20
    # divided-difference vs series fallback in the overlap band
    bands = {
        2: (1e-3, 1e-1, [np.array([0.0, 1.0])]),
        3: (5e-3, 1e-1, [np.array([0.0, a, 1.0]) for a in (0.3, 0.5, 0.7)]),
        4: (1e-1, 1.0, [np.array([0.0, 0.34, 0.71, 1.0])]),
        5: (3e-1, 1.0, [np.array([0.0, 0.27, 0.52, 0.77, 1.0])]),
    }
    worst_band = 0.0
    for lo, hi, shapes in bands.values():
        for s in np.geomspace(lo, hi, 12):
            for base in (-15.0, 0.0, 7.3):
                for f in shapes:
                    y = base + s * f
                    d = divdiff_exp_direct(1j * y)
                    t = divdiff_exp_series(y)
                    gap = abs(d - t) / max(1.0, abs(t))
                    assert gap <= 1e-10
                    worst_band = max(worst_band, gap)
    _report(2, t0, 60.0,
            f"{len(polys)} polytopes x 4 frequencies, worst |ft-quad|/vol = "
            f"{worst:.1e}; branch gap {worst_band:.1e}")


def test_criterion_3_divergence_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    worst = 0.0
    for k in range(100):
        if k % 10 == 0:
            P = normalize([((1,), rng.uniform(0.5, 2)), ((-1,), rng.uniform(0, 1))], 1)
        elif k % 10 in (1, 2):
            P = random_polytope_3d(rng)
        else:
            P = random_polygon(rng)
        lam = rng.uniform(-6, 6, P.dim)
        lhs = -2j * np.pi * lam[0] * ft_indicator(P, lam)
        rhs = sum(F.normal[0] * ft_facet_measure(F, lam) for F in facets(P))
        rel = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
        assert rel <= 1e-9
        worst = max(worst, rel)
    _report(3, t0, 30.0, f"100 random (P, lam), worst relative gap {worst:.1e}")


def test_criterion_4_cone_bound_finite_and_stable():
    t0 = time.perf_counter()
    pent = make_pentagon()
    frame = build_axis_frame(pent, *is_symmetric(pent, 1e-9).witness)

    def ball_bound(r1, n_radial):
        """The bound over the translate ball |t| <= 0.1, 8 angles x 2 radii."""
        params = ConeScanParams(r0=10, r1=r1, n_radial=n_radial, n_cross=11)
        return max(b.value for _, b in ball_cone_bounds(pent, frame, 0.2, params, 0.1, 8, 2))

    c1, c2 = ball_bound(200, 64), ball_bound(400, 74)
    assert np.isfinite(c1) and 0 < c1 < 100
    assert abs(c2 - c1) < 0.10 * c1
    _report(4, t0, 120.0,
            f"C[10,200] = {c1:.4f}, C[10,400] = {c2:.4f} "
            f"({100 * abs(c2 - c1) / c1:.1f}% change)")


def test_criterion_5_nonvanishing_certificate():
    t0 = time.perf_counter()
    pent = make_pentagon()
    cert = build_certificate(pent, 0.2, 0.2)  # defaults: lambda_max=200
    assert cert.eta > 0
    assert cert.eta - cert.C / cert.R >= cert.eta / 2 - 1e-12
    assert cert.min_abs_scanned > 0
    assert cert.provenance.n_scan_points >= 10_000
    assert cert.provenance.min_chain_slack >= -1e-12
    # float.hex bits of numpy 2.4.6 with Python 3.11.7 on x86-64 Linux; another
    # numpy, BLAS or CPU may move the last bit
    assert certificate_hex(cert) == ["0x1.a5e5088673b47p-2", "0x1.976d476e685d6p-2",
                                     "0x1.ee71393a9e909p+0", "0x1.c9cd8624648fbp-12",
                                     "0x1.a5e50ad337ef3p-2"]
    _report(5, t0, 300.0,
            f"eta = {cert.eta:.4f}, C = {cert.C:.4f}, R = {cert.R:.3f}, "
            f"min |V| = {cert.min_abs_scanned:.2e} over "
            f"{cert.provenance.n_scan_points} points")


def test_criterion_6_positive_control_unit_square():
    t0 = time.perf_counter()
    square = make_unit_square()
    pts = lattice_points(np.eye(4), np.zeros(4), [-3] * 4, [3] * 4)
    L = TimeFrequencySet(pts)
    out = check_orthogonality(square, L, 1e-9)
    assert out == []
    _report(6, t0, 120.0,
            f"{len(L)} lattice points, {len(L) * (len(L) - 1) // 2} unordered "
            f"pairs, zero violations at tol 1e-9")


def _confirm_by_oracle(P, w, value) -> float:
    """Relative disagreement of the midpoint oracle (one Richardson step on
    the n and 2n grids removes the coherent boundary term)."""
    q1 = stft_indicator_quadrature(P, w[:2], w[2:], 2000)
    q2 = stft_indicator_quadrature(P, w[:2], w[2:], 4000)
    rich = 2.0 * q2 - q1
    return abs(rich - value) / abs(value)


# float.hex (re, im) of each value criterion 7 reports, numpy 2.4.6 with
# Python 3.11.7 on x86-64 Linux; another numpy, BLAS or CPU may move the last bit
CRITERION_7_BITS = {
    "integer": [
        ("0x1.b6db6db6db6dap-2", "0x0.0p+0"),
        ("0x1.b6db6db6db6dap-2", "0x0.0p+0"),
        ("0x0.0p+0", "0x1.7483758e69c05p-5"),
        ("0x1.2492492492492p-3", "0x0.0p+0"),
        ("0x0.0p+0", "-0x1.7483758e69c05p-5"),
        ("0x1.2492492492492p-2", "0x0.0p+0"),
    ],
    "sheared": [
        ("0x1.b6db6db6db6dap-2", "0x0.0p+0"),
        ("0x1.da4c87027bef8p-5", "0x1.1762982acf502p-2"),
        ("0x1.da4c87027bef8p-5", "-0x1.1762982acf502p-2"),
        ("0x1.da4c87027befdp-5", "-0x1.7483758e69c03p-4"),
        ("-0x1.2492492492492p-56", "0x1.7483758e69c02p-3"),
        ("-0x1.2492492492492p-56", "-0x1.7483758e69c02p-3"),
    ],
    "scaled": [
        ("-0x1.da4c87027bf05p-5", "0x1.7483758e69c07p-4"),
        ("0x1.da4c87027befep-5", "-0x1.3ac499ecdc123p-55"),
        ("0x1.b6db6db6db6dap-2", "0x0.0p+0"),
        ("-0x1.da4c87027bf00p-5", "-0x1.7483758e69c03p-4"),
        ("0x1.da4c87027befbp-5", "0x1.2492492492492p-54"),
        ("-0x1.da4c87027bf00p-5", "0x1.7483758e69c03p-4"),
    ],
}


def test_criterion_7_main_theorem_witnesses():
    t0 = time.perf_counter()
    pent = make_pentagon()
    shear = np.eye(4)
    shear[2, 0] = 0.5
    scale = np.diag([2.0, 1.0, 0.5, 1.0])  # det 1: unit density
    lattices = {
        "integer": lattice_points(np.eye(4), np.zeros(4), [-3] * 4, [3] * 4),
        "sheared": lattice_points(shear, np.zeros(4), [-2] * 4, [2] * 4),
        "scaled": lattice_points(scale, np.zeros(4), [-2] * 4, [2] * 4),
    }
    summary = []
    for name, pts in lattices.items():
        L = TimeFrequencySet(pts)
        out = check_orthogonality(pent, L, 1e-9, max_reports=6, confirm=False)
        assert len(out) >= 1, f"lattice {name} produced no violation"
        assert [(r.value.real.hex(), r.value.imag.hex()) for r in out] \
            == CRITERION_7_BITS[name]
        worst = 0.0
        for repv in out:
            w = repv.v - repv.v_prime
            rel = _confirm_by_oracle(pent, w, repv.value)
            assert rel <= 1e-4, f"{name}: oracle disagreement {rel:.2e}"
            worst = max(worst, rel)
        summary.append(f"{name}: {len(out)} violations, worst oracle gap {worst:.1e}")
    _report(7, t0, 600.0, "; ".join(summary))


def test_criterion_8_stft_covariance_and_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    n = 0
    while n < 500:
        P = random_polygon(rng)
        for _ in range(10):
            t = rng.uniform(-0.8, 0.8, 2)
            lam = rng.uniform(-5, 5, 2)
            a = stft_indicator(P, -t, -lam)
            b = np.exp(-2j * np.pi * (lam @ t)) * np.conj(stft_indicator(P, t, lam))
            assert abs(a - b) <= 1e-10
            assert abs(stft_indicator(P, t, lam)) <= 1.0 + 1e-12
            n += 1
        assert abs(stft_indicator(P, (0, 0), (0, 0)) - 1.0) <= 1e-12
    _report(8, t0, 30.0, f"{n} random samples, covariance at 1e-10, |V| <= 1")


def test_criterion_9_metric_and_symmetry_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    for _ in range(100):
        P, Q, R = (random_polygon(rng) for _ in range(3))
        dpq = hausdorff_distance(P, Q)
        assert dpq == pytest.approx(hausdorff_distance(Q, P), abs=1e-10)
        assert dpq <= hausdorff_distance(P, R) + hausdorff_distance(R, Q) + 1e-10
    agree = 0
    for _ in range(50):
        S = symmetrized_polygon(rng)
        if rng.uniform() < 0.5:
            V = S.vertex_array().copy()
            c = V.mean(axis=0)
            k = int(rng.integers(0, V.shape[0]))
            V[k] = c + (V[k] - c) * 1.25
            S = from_vertices(V)
        assert is_symmetric(S, 1e-7).symmetric == symmetry_center_oracle(S)
        agree += 1
    _report(9, t0, 30.0,
            f"100 triangle inequalities; Minkowski test agreed with the "
            f"centroid-reflection oracle on {agree}/50 polygons")

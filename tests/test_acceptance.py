"""Acceptance suite: one test per shipped criterion, each printing a
PASS line with its measured runtime.  Run with ``pytest -s`` to see the
lines; tolerances are pinned here and nowhere else.
"""

import json
import os
import time

import numpy as np
import pytest
import scipy.linalg as dla

from plate_afem import afem, assembly as asm, eigen as eig, estimator as est
from plate_afem import helmholtz as hh, mesh as msh, space as sp

from oracles import dorfler_min_cardinality, jacobi_gevp, quadratic_on

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "square_clamped_theta05.json")
CONFIGS = [(g, bc) for g in ("square", "lshape")
           for bc in ("clamped", "simply_supported", "mixed")]


def _report(num, label, t0):
    print(f"\nACCEPTANCE {num} PASS: {label} ({time.time() - t0:.1f}s)")


class _Window:
    def __init__(self, lams, vecs):
        self.eigenvalues = np.atleast_1d(np.asarray(lams, dtype=float))
        self.vectors = np.atleast_2d(np.asarray(vecs, dtype=float))
        self.j_first = 1


def test_criterion_1_structural_identities():
    """Hessian mean projection, quadratic patch test, basis duality."""
    t0 = time.time()
    rng = np.random.default_rng(2024)

    # basis duality on every element of the square and L-shape presets
    for geometry, bc in CONFIGS:
        space = sp.build_space(msh.preset_mesh(geometry, bc))
        assert space.duality_residual <= 1e-12

    # quadratic patch test: interpolation reproduces quadratics exactly
    for geometry in ("square", "lshape"):
        m = msh.uniform_refine(msh.preset_mesh(geometry, "free"))
        S = sp.build_space(m)
        for _ in range(5):
            c = rng.standard_normal(6)
            u = sp.morley_interpolate(S, quadratic_on(m, c))
            bf = S.to_broken(u)
            scale = max(1.0, np.abs(c).max())
            for t in range(m.num_triangles):
                cx, cy = m.centroids[t]
                exact = np.array([
                    c[0] + c[1] * cx + c[2] * cy + c[3] * cx ** 2 + c[4] * cx * cy
                    + c[5] * cy ** 2, c[1] + 2 * c[3] * cx + c[4] * cy,
                    c[2] + c[4] * cx + 2 * c[5] * cy, c[3], c[4], c[5]])
                assert np.abs(bf.coeffs[t] - exact).max() <= 1e-12 * scale

    # Hessian mean projection: 20 random fine inputs across 3 nesting levels
    coarse = msh.preset_mesh("square", "clamped")
    fines = [coarse]
    for _ in range(3):
        fines.append(msh.uniform_refine(fines[-1]))
    Sc = sp.build_space(coarse)
    cases = [(1, 7), (2, 7), (3, 6)]
    for lvl, reps in cases:
        fine = fines[lvl]
        Sf = sp.build_space(fine)
        amap = msh.ancestor_map(fine, coarse)
        for _ in range(reps):
            w = rng.standard_normal(Sf.ndof)
            bw = Sf.to_broken(w)
            Ic = Sc.to_broken(sp.morley_interpolate(Sc, bw))
            Hf = sp.hessians(bw)
            mean = np.stack([
                np.bincount(amap, weights=fine.areas * Hf[:, k],
                            minlength=coarse.num_triangles) / coarse.areas
                for k in range(3)], axis=1)
            scale = max(1.0, np.abs(Hf).max())
            assert np.abs(mean - sp.hessians(Ic)).max() <= 1e-10 * scale
    _report(1, "structural identity suite", t0)


def test_criterion_2_helmholtz_theorem_audit():
    """Counting identities and exact splitting on all preset configurations."""
    t0 = time.time()
    rng = np.random.default_rng(7)
    for geometry, bc in CONFIGS:
        m = msh.preset_mesh(geometry, bc)
        S = sp.build_space(m)
        X = hh.build_xspace(m)
        rep = hh.dimension_audit(m, S, X)
        assert rep["euler_ok"]
        assert rep["dim_identity_ok"]
        assert 3 * m.num_triangles == rep["dims"]["rank_hessian_map"] + \
            rep["dims"]["rank_sym_curl_map"]
        for _ in range(10):
            sigma = rng.standard_normal((m.num_triangles, 3))
            res = hh.decompose(S, X, sigma)
            norm = np.linalg.norm(hh.tensor_features(m, sigma))
            assert res.residual <= 1e-9 * norm
            assert abs(res.orthogonality) <= 1e-10 * norm ** 2
    _report(2, "tensor splitting audit on six configurations", t0)


def test_criterion_3_eigensolver_correctness():
    """Scaled residuals, agreement with the rotation oracle, shift covariance."""
    t0 = time.time()
    rng = np.random.default_rng(11)

    # benchmark pencils: assembled plate problems, dense and sparse paths
    benchmarks = []
    for geometry, bc, refines in (("square", "clamped", 3),
                                  ("lshape", "mixed", 2),
                                  ("square", "simply_supported", 5)):
        m = msh.preset_mesh(geometry, bc)
        for _ in range(refines):
            m = msh.uniform_refine(m)
        S = sp.build_space(m)
        benchmarks.append((asm.assemble_stiffness(S), asm.assemble_mass(S)))
    for A, M in benchmarks:
        sol = eig.solve_gevp(A, M, 6)
        scaled = (eig._norm1(A) + np.abs(sol.eigenvalues) * eig._norm1(M))
        assert np.all(sol.residuals <= 1e-8 * scaled)
        assert sol.b_orthonormality_residual <= 1e-10

    # random pencils against the brute-force rotation oracle
    for _ in range(6):
        B = rng.standard_normal((8, 8))
        A = B + B.T
        C = rng.standard_normal((8, 8))
        M = C @ C.T + 8 * np.eye(8)
        sol = eig.solve_gevp(A, M, 8)
        w_ref, _ = jacobi_gevp(A, M)
        assert np.abs(sol.eigenvalues - w_ref).max() <= \
            1e-9 * max(1.0, np.abs(w_ref).max())
        # shift covariance
        sigma = float(rng.uniform(0.5, 5.0))
        shifted = eig.solve_gevp(A + sigma * M, M, 8)
        assert np.abs(shifted.eigenvalues - sol.eigenvalues - sigma).max() <= \
            1e-9 * max(1.0, np.abs(sol.eigenvalues).max())
    _report(3, "eigensolver residuals, oracle match, shift covariance", t0)


def test_criterion_4_clamped_square_convergence():
    """Uniform-refinement eigenvalue rate and guaranteed lower bounds."""
    t0 = time.time()
    ref_small = afem.reference_eigenvalues("square", "clamped", [1], 10000)
    ref_large = afem.reference_eigenvalues("square", "clamped", [1], 40000)
    a, b = float(ref_small.limits[0]), float(ref_large.limits[0])
    assert bool(ref_large.reliable[0])
    # self-consistency of the oracle to 4 significant digits
    assert abs(a - b) <= 5e-4 * abs(b)

    lam_ref = b
    errors = np.abs(ref_large.values[:, 0] - lam_ref)
    slope = afem.fit_rate(ref_large.ndofs, errors)
    assert slope == pytest.approx(-1.0, abs=0.15)

    # uniform refinement halves the largest triangle diameter, the diagonal
    H = msh.preset_mesh("square", "clamped").max_diameter
    for lam in ref_large.values[:, 0]:
        assert eig.lower_bound(float(lam), H) <= lam_ref
        H /= 2.0
    _report(4, f"eigenvalue rate {slope:.3f}, lower bounds below "
               f"{lam_ref:.2f} at every level", t0)


def test_criterion_5_afem_optimality_proxy():
    """Adaptive estimator decay on the L-shape beats uniform refinement."""
    t0 = time.time()
    cfg = afem.AfemConfig(geometry="lshape", bc="mixed", n=0, cluster_size=1,
                          theta=0.5, max_levels=40, max_ndof=15000)
    adaptive = afem.run_afem(cfg)
    slope_adaptive = afem.fit_rate(adaptive.ndofs,
                                   adaptive.column("eta2_total"), tail=6)
    cfg_uniform = afem.AfemConfig(geometry="lshape", bc="mixed", n=0,
                                  cluster_size=1, max_levels=7,
                                  max_ndof=15000)
    uniform = afem.uniform_trace(cfg_uniform)
    slope_uniform = afem.fit_rate(uniform.ndofs,
                                  uniform.column("eta2_total"))
    assert slope_adaptive <= -0.9
    assert slope_adaptive <= slope_uniform - 0.2
    _report(5, f"adaptive slope {slope_adaptive:.3f} vs uniform "
               f"{slope_uniform:.3f}", t0)


def test_criterion_5_cluster_afem_optimality_proxy():
    """Criterion 5 for the paper's cluster case: the window J={2,3} of the
    mixed L-shape."""
    t0 = time.time()
    cfg = afem.AfemConfig(geometry="lshape", bc="mixed", n=1, cluster_size=2,
                          theta=0.5, max_levels=40, max_ndof=15000)
    adaptive = afem.run_afem(cfg)
    slope_adaptive = afem.fit_rate(adaptive.ndofs,
                                   adaptive.column("eta2_total"), tail=6)
    cfg_uniform = afem.AfemConfig(geometry="lshape", bc="mixed", n=1,
                                  cluster_size=2, max_levels=7,
                                  max_ndof=15000)
    uniform = afem.uniform_trace(cfg_uniform)
    slope_uniform = afem.fit_rate(uniform.ndofs,
                                  uniform.column("eta2_total"))
    assert slope_adaptive <= -0.85
    assert slope_adaptive <= slope_uniform - 0.2
    _report("5c", f"J={{2,3}} adaptive slope {slope_adaptive:.3f} vs uniform "
                  f"{slope_uniform:.3f}", t0)


def test_criterion_6_efficiency_band():
    """Estimator-to-error ratio stays inside the recorded band."""
    t0 = time.time()
    with open(GOLDEN) as fh:
        gold = json.load(fh)
    lam_ref = afem.reference_eigenvalues("square", "clamped", [1],
                                         20000).limits[0]
    # the band is only as good as the reference it was recorded against
    assert abs(lam_ref - gold["lambda_ref"]) <= 1e-10 * gold["lambda_ref"]
    cfg = afem.AfemConfig(geometry="square", bc="clamped", theta=0.5,
                          max_levels=8, deterministic=True)
    trace = afem.run_afem(cfg)
    for level in range(2, 9):
        r = trace.levels[level]
        ratio = r.eta2_total / abs(lam_ref - r.eigenvalues[0])
        golden = gold["efficiency_ratio"][level]
        assert golden / 3.0 <= ratio <= golden * 3.0
    _report(6, "efficiency ratio within golden band on levels 2..8", t0)


def test_criterion_7_marking_minimality():
    """Greedy bulk marking matches exhaustive subset search."""
    t0 = time.time()
    rng = np.random.default_rng(5)
    base = msh.preset_mesh("square", "clamped")
    meshes = [base, msh.refine_nvb(base, [0]), msh.uniform_refine(base),
              msh.preset_mesh("lshape", "clamped"),
              msh.refine_nvb(msh.preset_mesh("lshape", "clamped"), [0, 1])]
    thetas = np.arange(0.1, 0.95, 0.1)
    for m in meshes:
        assert m.num_triangles <= 12
        S = sp.build_space(m)
        vecs = rng.standard_normal((S.ndof, 1))
        field = est.estimate(S, _Window([1.0], vecs))
        for theta in thetas:
            mk = est.dorfler_mark(field, float(theta))
            assert len(mk) == dorfler_min_cardinality(field.eta2, float(theta))
    # synthetic fields exercise ties and zeros
    for _ in range(10):
        vals = np.round(rng.random(10) * 4) / 2.0
        if vals.sum() == 0:
            continue
        field = est.EstimatorField(eta2=vals)
        for theta in thetas:
            mk = est.dorfler_mark(field, float(theta))
            assert len(mk) == dorfler_min_cardinality(vals, float(theta))
    _report(7, "marking cardinality equals exhaustive search", t0)


def test_criterion_8_angle_identities():
    """Symmetry and triangle inequality of the subspace angle."""
    t0 = time.time()
    rng = np.random.default_rng(13)
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(dim + 3, 16))
        C = rng.standard_normal((n, n))
        G = C @ C.T + n * np.eye(n)
        X = rng.standard_normal((n, dim))
        Y = rng.standard_normal((n, dim))
        Z = rng.standard_normal((n, dim))
        R = dla.cholesky(G, lower=False)        # G = R^T R: features R X
        sxy = eig.sin_max_angle(R @ X, R @ Y)
        assert sxy == pytest.approx(eig.sin_max_angle(R @ Y, R @ X), abs=1e-9)
        sxz = eig.sin_max_angle(R @ X, R @ Z)
        szy = eig.sin_max_angle(R @ Z, R @ Y)
        assert sxy <= sxz + szy + 1e-9
        assert -1e-12 <= sxy <= 1.0 + 1e-12
    _report(8, "angle symmetry and triangle inequality, 50 samples", t0)


def test_criterion_9_determinism(tmp_path):
    """Two deterministic-mode runs write byte-identical traces."""
    t0 = time.time()
    for geometry, bc, levels in (("square", "clamped", 6),
                                 ("lshape", "mixed", 5)):
        cfg = afem.AfemConfig(geometry=geometry, bc=bc, theta=0.5,
                              max_levels=levels, deterministic=True)
        p1 = tmp_path / f"{geometry}_1.csv"
        p2 = tmp_path / f"{geometry}_2.csv"
        afem.run_afem(cfg).to_csv(p1)
        afem.run_afem(cfg).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
    _report(9, "deterministic traces byte-identical", t0)

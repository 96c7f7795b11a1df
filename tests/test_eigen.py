import inspect
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from plate_afem import afem
from plate_afem import assembly as asm
from plate_afem import eigen as eig
from plate_afem import estimator as est
from plate_afem import helmholtz as hh
from plate_afem import mesh as msh
from plate_afem import space as sp
from plate_afem.eigen import ClusterSplitError, EigenError

from oracles import (jacobi_gevp, lanczos_machine_precision, patched_dense_cutoff,
                     shift_invert_lanczos)


def random_spd_pencil(rng, n):
    B = rng.standard_normal((n, n))
    A = B + B.T
    C = rng.standard_normal((n, n))
    M = C @ C.T + n * np.eye(n)
    return A, M


class TestSolveGevp:
    def test_scalar(self):
        sol = eig.solve_gevp(np.array([[2.0]]), np.array([[1.0]]), 1)
        assert sol.eigenvalues[0] == pytest.approx(2.0, abs=1e-14)

    def test_diagonal(self):
        sol = eig.solve_gevp(np.diag([1.0, 3.0]), np.eye(2), 2)
        assert np.allclose(sol.eigenvalues, [1.0, 3.0], atol=1e-14)
        assert np.allclose(np.abs(sol.vectors), np.eye(2), atol=1e-14)

    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            A, M = random_spd_pencil(rng, 8)
            sol = eig.solve_gevp(A, M, 8)
            w_ref, _ = jacobi_gevp(A, M)
            assert np.abs(sol.eigenvalues - w_ref).max() <= 1e-9 * max(
                1.0, np.abs(w_ref).max())

    def test_orthonormality_and_diagonality(self):
        rng = np.random.default_rng(1)
        A, M = random_spd_pencil(rng, 12)
        sol = eig.solve_gevp(A, M, 12)
        assert sol.b_orthonormality_residual <= 1e-10
        assert sol.a_diagonality_residual <= 1e-8

    def test_shift_covariance(self):
        rng = np.random.default_rng(2)
        A, M = random_spd_pencil(rng, 8)
        sigma = 4.25
        s0 = eig.solve_gevp(A, M, 8)
        s1 = eig.solve_gevp(A + sigma * M, M, 8)
        scale = np.abs(s0.eigenvalues).max()
        assert np.abs(s1.eigenvalues - s0.eigenvalues - sigma).max() <= 1e-9 * scale
        overlap = np.abs(np.einsum("ik,ik->k", s0.vectors, M @ s1.vectors))
        assert np.abs(overlap - 1.0).max() <= 1e-9

    def test_not_spd_mass_rejected(self):
        # dense path: the generalized solver's factorization of M detects it
        for n, count in ((2, 2), (6, 2)):
            M = np.eye(n)
            M[n // 2, n // 2] = -1.0
            with pytest.raises(EigenError, match="mass matrix is not positive definite"), \
                    patched_dense_cutoff(10 ** 9):
                eig.solve_gevp(np.diag(np.arange(1.0, n + 1.0)), M, count)

    def test_patched_cutoff_flips_the_path_at_the_boundary(self):
        m = msh.preset_mesh("square", "clamped")
        for _ in range(3):
            m = msh.uniform_refine(m)
        S = sp.build_space(m)
        A, M = asm.assemble_stiffness(S), asm.assemble_mass(S)
        n = A.shape[0]
        for cutoff, path in ((n, "dense"), (n - 1, "shift-invert")):
            with patched_dense_cutoff(cutoff):
                assert eig.solve_gevp(A, M, 5).path == path
        assert eig.DENSE_CUTOFF == 900
        assert list(inspect.signature(eig.solve_gevp).parameters) == ["A", "M", "count"]

    def test_count_out_of_range(self):
        with pytest.raises(EigenError):
            eig.solve_gevp(np.eye(2), np.eye(2), 3)

    def test_degenerate_pair_returns_orthonormal_basis(self):
        # plate on the square: second/third eigenvalues coincide
        m = msh.preset_mesh("square", "clamped")
        for _ in range(3):
            m = msh.uniform_refine(m)
        S = sp.build_space(m)
        sol = eig.solve_gevp(asm.assemble_stiffness(S), asm.assemble_mass(S), 4)
        assert sol.eigenvalues[1] == pytest.approx(sol.eigenvalues[2], rel=1e-10)
        assert sol.b_orthonormality_residual <= 1e-10

    def test_sparse_path_matches_dense(self):
        # clamped square (ndof 225) and mixed L-shape (ndof 3087)
        for geometry, bc, refinements in (("square", "clamped", 3),
                                          ("lshape", "mixed", 4)):
            m = msh.preset_mesh(geometry, bc)
            for _ in range(refinements):
                m = msh.uniform_refine(m)
            S = sp.build_space(m)
            A = asm.assemble_stiffness(S)
            M = asm.assemble_mass(S)
            with patched_dense_cutoff(10 ** 9):
                dense = eig.solve_gevp(A, M, 5)
            with patched_dense_cutoff(1):
                sparse = eig.solve_gevp(A, M, 5)
            assert (dense.path, sparse.path) == ("dense", "shift-invert")
            # the dense path is accurate to about eps * lambda_max / lambda
            # (2e-9 on the L-shape), so agreement is checked at 1e-8 ...
            assert np.abs(dense.eigenvalues - sparse.eigenvalues).max() <= \
                1e-8 * np.abs(dense.eigenvalues).max()
            R = np.linalg.cholesky(M.toarray()).T
            assert eig.sin_max_angle(R @ dense.vectors,
                                     R @ sparse.vectors) <= 1e-8
            # ... and the sparse eigenvalues are certified to 1e-10 relative
            # by |lambda - lambda_true| <= ||A v - lambda M v||_{M^-1}
            r = A @ sparse.vectors - (M @ sparse.vectors) * sparse.eigenvalues
            Mlu = spla.splu(M.tocsc())
            bound = np.sqrt(np.einsum("ik,ik->k", r, Mlu.solve(r)))
            assert (bound / sparse.eigenvalues).max() <= 1e-10

    @pytest.mark.parametrize("cutoff", [10 ** 9, 0])
    @pytest.mark.parametrize("which", ["stiffness", "mass"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected_on_both_paths(self, cutoff, which, bad):
        # an inf in A once passed the residual gate (inf > inf is false) on
        # the sparse path and returned a wrong lambda_1; NaN escaped the
        # dense path as a bare ValueError
        m = msh.preset_mesh("square", "clamped")
        for _ in range(3):
            m = msh.uniform_refine(m)
        S = sp.build_space(m)
        A = asm.assemble_stiffness(S)
        M = asm.assemble_mass(S)
        assert A.shape[0] == 225
        target = A if which == "stiffness" else M
        target.data[target.indptr[7]] = bad
        with pytest.raises(EigenError, match=f"{which} matrix is not finite"), \
                patched_dense_cutoff(cutoff):
            eig.solve_gevp(A, M, 5)

    def test_symmetric_csr_arrays_are_its_csc(self):
        # SuperLU reads the CSC view A.T; for the exactly symmetric assembled
        # A its arrays are those of A.tocsc(), so the factor is that of A
        m = msh.uniform_refine(msh.preset_mesh("lshape", "mixed"))
        S = sp.build_space(m)
        for A in (asm.assemble_stiffness(S), asm.assemble_mass(S)):
            want, got = A.tocsc(), A.T
            for name in ("data", "indices", "indptr"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_factor_reads_the_stiffness_matrix_own_arrays(self, monkeypatch):
        # clamped square, ndof 961, above the dense cutoff: SuperLU gets the
        # CSC view A.T of the assembled CSR, not a tocsc() copy
        m = msh.preset_mesh("square", "clamped")
        for _ in range(4):
            m = msh.uniform_refine(m)
        S = sp.build_space(m)
        A, M = asm.assemble_stiffness(S), asm.assemble_mass(S)
        seen, symmetric_splu = [], eig._symmetric_splu

        def spy(B, diag_pivot_thresh):
            seen.append(B)
            return symmetric_splu(B, diag_pivot_thresh)

        monkeypatch.setattr(eig, "_symmetric_splu", spy)
        sol = eig.solve_gevp(A, M, 5)
        assert sol.path == "shift-invert" and len(seen) == 1
        assert np.shares_memory(seen[0].data, A.data)
        assert sol.factor_nnz > A.nnz

    @pytest.mark.parametrize("cutoff", [10 ** 9, 1])
    def test_non_canonical_csr_is_left_unchanged(self, cutoff):
        # splu sums duplicates in place; through a view of a non-canonical
        # input that would rewrite the caller's arrays
        m = msh.preset_mesh("square", "clamped")
        for _ in range(3):
            m = msh.uniform_refine(m)
        S = sp.build_space(m)
        A, M = asm.assemble_stiffness(S), asm.assemble_mass(S)
        # every entry split into two exact halves, each row's order reversed
        rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
        order = np.lexsort((-A.indices, rows))
        data = np.repeat(0.5 * A.data[order], 2)
        indices = np.repeat(A.indices[order], 2)
        B = type(A)((data, indices, 2 * A.indptr), shape=A.shape)
        assert not B.has_canonical_format
        before = [getattr(B, name).copy() for name in ("data", "indices", "indptr")]
        with patched_dense_cutoff(cutoff):
            got = eig.solve_gevp(B, M, 5)
            want = eig.solve_gevp(A, M, 5)
        for name, old in zip(("data", "indices", "indptr"), before):
            assert getattr(B, name).tobytes() == old.tobytes()
        assert got.path == want.path
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert got.vectors.tobytes() == want.vectors.tobytes()

    @pytest.mark.parametrize("cutoff", [10 ** 9, 1])
    def test_dense_csr_and_csc_inputs_agree_bitwise(self, cutoff):
        m = msh.preset_mesh("square", "clamped")
        for _ in range(3):
            m = msh.uniform_refine(m)
        S = sp.build_space(m)
        A, M = asm.assemble_stiffness(S), asm.assemble_mass(S)
        with patched_dense_cutoff(cutoff):
            sols = [eig.solve_gevp(convert(A), convert(M), 5)
                    for convert in (lambda X: X, lambda X: X.tocsc(), lambda X: X.toarray())]
        assert sols[0].path == ("dense" if cutoff > 1 else "shift-invert")
        for sol in sols[1:]:
            assert sol.eigenvalues.tobytes() == sols[0].eigenvalues.tobytes()
            assert sol.vectors.tobytes() == sols[0].vectors.tobytes()

    def test_window_slicing(self):
        rng = np.random.default_rng(3)
        A, M = random_spd_pencil(rng, 10)
        sol = eig.solve_gevp(A, M, 8)
        win = sol.window(2, 3)
        assert win.j_first == 3 and len(win.eigenvalues) == 3
        assert np.array_equal(win.eigenvalues, sol.eigenvalues[2:5])
        assert win.path == sol.path == "dense"
        with pytest.raises(EigenError):
            sol.window(6, 4)

    @pytest.mark.parametrize("cutoff", [10 ** 9, 1])
    def test_window_copies_its_columns(self, cutoff):
        # a kept window must not pin the solve's whole eigenvector block
        m = msh.preset_mesh("square", "clamped")
        for _ in range(3):
            m = msh.uniform_refine(m)
        S = sp.build_space(m)
        with patched_dense_cutoff(cutoff):
            sol = eig.solve_gevp(asm.assemble_stiffness(S), asm.assemble_mass(S), 6)
        win = sol.window(1, 2)
        for name in ("eigenvalues", "vectors", "residuals"):
            assert not np.shares_memory(getattr(win, name), getattr(sol, name)), name
        assert win.vectors.tobytes() == sol.vectors[:, 1:3].tobytes()
        assert win.residuals.tobytes() == sol.residuals[1:3].tobytes()

    @pytest.mark.parametrize("cutoff", [10 ** 9, 1])
    def test_window_passes_every_other_field_through(self, cutoff):
        m = msh.uniform_refine(msh.uniform_refine(msh.preset_mesh("square", "clamped")))
        S = sp.build_space(m)
        with patched_dense_cutoff(cutoff):
            sol = eig.solve_gevp(asm.assemble_stiffness(S), asm.assemble_mass(S), 6)
        win = sol.window(1, 2)
        assert win.j_first == 2
        copied = {"j_first", "eigenvalues", "vectors", "residuals"}
        others = set(sol.__dataclass_fields__) - copied
        assert len(others) == 7
        for name in others:
            assert getattr(win, name) is getattr(sol, name), name


class TestNorm1:
    """``_norm1`` reads the compressed arrays of a canonical CSR matrix and
    must equal the scipy formula it replaced to the bit."""

    @staticmethod
    def scipy_norm1(op):
        return float(abs(op).sum(axis=0).max())

    @pytest.mark.parametrize("geometry, bc, refines", [
        ("square", "clamped", 3), ("square", "free", 2), ("lshape", "mixed", 2),
        ("triangle", "simply_supported", 4)])
    def test_assembled_stiffness_and_mass(self, geometry, bc, refines):
        m = msh.preset_mesh(geometry, bc)
        for _ in range(refines):
            m = msh.uniform_refine(m)
        m = msh.refine_nvb(m, np.arange(0, m.num_triangles, 3))
        S = sp.build_space(m)
        for op in (asm.assemble_stiffness(S), asm.assemble_mass(S)):
            assert op.format == "csr"
            assert eig._norm1(op) == self.scipy_norm1(op)

    @pytest.mark.parametrize("refines", [1, 2, 3])
    def test_helmholtz_gram_matrices(self, refines):
        m = msh.preset_mesh("lshape", "mixed")
        for _ in range(refines):
            m = msh.uniform_refine(m)
        for gram in (hh._hessian_gram(sp.build_space(m)), hh.build_xspace(m)._curl_gram):
            G = gram.G
            assert G.format == "csr" and G.has_canonical_format
            assert eig._norm1(G) == self.scipy_norm1(G)
            assert gram.norm == eig._norm1(G)

    def test_empty_columns(self):
        rng = np.random.default_rng(7)
        D = rng.standard_normal((40, 30)) * (rng.random((40, 30)) < 0.5)
        D[:, [0, 11, 29]] = 0.0
        for dense in (D, np.zeros((5, 4))):
            op = sparse.csr_matrix(dense)
            assert eig._norm1(op) == self.scipy_norm1(op)


@pytest.fixture(scope="module")
def lshape_mixed_trace():
    # the reference adaptive run: mixed L-shape, J={1}, to ndof 20000
    return afem.run_afem(afem.AfemConfig(geometry="lshape", bc="mixed", theta=0.5,
                                         max_levels=64, max_ndof=20000))


class TestLanczosStoppingRule:
    """The shift-invert path stops at ARPACK's relative Ritz tolerance 1e-10
    instead of machine precision; these bound what that costs and saves."""

    def test_lshape_level_matches_machine_precision(self, lshape_mixed_trace):
        levels = lshape_mixed_trace.levels
        k = next(k for k, r in enumerate(levels) if r.ndof >= 5000)
        S = sp.build_space(lshape_mixed_trace.meshes[k])
        A, M = asm.assemble_stiffness(S), asm.assemble_mass(S)
        sol = eig.solve_gevp(A, M, 5)
        assert (sol.path, sol.eigenvalues[0]) == ("shift-invert", levels[k].eigenvalues[0])
        w, v = lanczos_machine_precision(A, M, 5)
        assert (np.abs(sol.eigenvalues - w) / w).max() <= 1e-13
        eta2 = est.estimate(S, sol.window(0, 1)).total
        eta2_ref = est.estimate(S, SimpleNamespace(eigenvalues=w[:1], vectors=v[:, :1])).total
        assert abs(eta2 - eta2_ref) <= 1e-12 * eta2_ref

    def test_double_eigenvalue_window_matches_machine_precision(self):
        # clamped square, ndof 961: lambda_2 = lambda_3, window J={2,3}
        # with the adaptive loop's buffer of 4
        m = msh.preset_mesh("square", "clamped")
        for _ in range(4):
            m = msh.uniform_refine(m)
        S = sp.build_space(m)
        A, M = asm.assemble_stiffness(S), asm.assemble_mass(S)
        sol = eig.solve_gevp(A, M, 7)
        assert sol.path == "shift-invert"
        w, v = lanczos_machine_precision(A, M, 7)
        assert w[1] == pytest.approx(w[2], rel=1e-10)
        R = np.linalg.cholesky(M.toarray()).T
        assert eig.sin_max_angle(R @ sol.window(1, 2).vectors, R @ v[:, 1:3]) <= 1e-10

    def test_lshape_level_matches_default_supernodes(self, lshape_mixed_trace):
        # the factor is built with relax=1 and panel size 10; SuperLU's
        # default relaxed supernodes store more entries for the same solve.
        # Measured at ndof 6428: 214,978 against 244,564 entries, λ moved
        # by 9.4e-14 and η² by 7.6e-14 relative (1.3e-12 and 2.4e-13 at
        # ndof 24641, with 1,053,138 against 1,241,866 entries)
        levels = lshape_mixed_trace.levels
        k = next(k for k, r in enumerate(levels) if r.ndof >= 5000)
        S = sp.build_space(lshape_mixed_trace.meshes[k])
        A, M = asm.assemble_stiffness(S), asm.assemble_mass(S)
        sol = eig.solve_gevp(A, M, 5)
        lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
        assert sol.factor_nnz <= lu.nnz
        w, v = shift_invert_lanczos(A, M, 5, lu, tol=eig._LANCZOS_TOL)
        assert (np.abs(sol.eigenvalues - w) / w).max() <= 1e-11
        eta2 = est.estimate(S, sol.window(0, 1)).total
        eta2_ref = est.estimate(S, SimpleNamespace(eigenvalues=w[:1], vectors=v[:, :1])).total
        assert abs(eta2 - eta2_ref) <= 1e-9 * eta2_ref

    def test_lshape_levels_stop_after_one_lanczos_cycle(self, lshape_mixed_trace):
        solver = [r.solver for r in lshape_mixed_trace.levels]
        large = [d["lanczos_solves"] for d in solver if d["path"] == "shift-invert"]
        assert len(large) >= 10
        assert max(large) <= 22
        assert all(d["lanczos_solves"] == 0 for d in solver if d["path"] == "dense")


class TestSeparation:
    def test_worked_example(self):
        rep = eig.separation([1.0, 2.0, 10.0], [1, 2])
        assert rep.m_j == pytest.approx(0.25, abs=1e-15)
        assert rep.nearest_gap == pytest.approx(8.0)
        assert not rep.truncated

    def test_window_covering_everything_is_truncated(self):
        rep = eig.separation([1.0, 2.0, 3.0], [1, 2, 3])
        assert rep.truncated
        assert np.isnan(rep.m_j)

    def test_upper_end_truncation_flagged(self):
        rep = eig.separation([1.0, 2.0, 3.0], [2, 3])
        assert rep.truncated
        assert np.isfinite(rep.m_j)

    def test_split_multiple_eigenvalue(self):
        with pytest.raises(ClusterSplitError):
            eig.separation([1.0, 2.0, 2.0, 7.0], [1, 2])

    @given(st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=3,
                    max_size=8, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_matches_direct_arithmetic(self, values):
        evals = np.sort(np.asarray(values))
        J = [1, 2]
        gaps = np.abs(evals[2:, None] - evals[None, :2])
        if gaps.min() <= 1e-12 * evals.max():
            return
        want = float((evals[None, :2] / gaps).max())
        rep = eig.separation(evals, J)
        assert rep.m_j == pytest.approx(want, rel=1e-12)


class TestAngles:
    def test_identical_subspaces(self):
        rng = np.random.default_rng(4)
        F = rng.standard_normal((20, 3))
        assert eig.sin_max_angle(F, F) <= 1e-10

    def test_orthogonal_one_dimensional(self):
        F = np.eye(6)
        assert eig.sin_max_angle(F[:, :1], F[:, 1:2]) == pytest.approx(1.0, abs=1e-10)

    def test_energy_orthogonal_vectors_on_mesh(self):
        # distinct eigenvectors are orthogonal in the energy product
        m = msh.uniform_refine(msh.preset_mesh("square", "clamped"))
        S = sp.build_space(m)
        A, M = asm.assemble_stiffness(S), asm.assemble_mass(S)
        sol = eig.solve_gevp(A, M, 2)
        R = np.linalg.cholesky(A.toarray()).T       # energy product: features R x
        a = eig.sin_max_angle(R @ sol.vectors[:, :1], R @ sol.vectors[:, 1:2])
        assert a == pytest.approx(1.0, abs=1e-10)

    def test_symmetry_for_equal_dimensions(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            X = rng.standard_normal((12, 2))
            Y = rng.standard_normal((12, 2))
            assert eig.sin_max_angle(X, Y) == pytest.approx(
                eig.sin_max_angle(Y, X), abs=1e-10)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            X, Y, Z = (rng.standard_normal((10, 2)) for _ in range(3))
            sxy = eig.sin_max_angle(X, Y)
            sxz = eig.sin_max_angle(X, Z)
            szy = eig.sin_max_angle(Z, Y)
            assert sxy <= sxz + szy + 1e-9

    def test_value_range(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            X = rng.standard_normal((8, 3))
            Y = rng.standard_normal((8, 3))
            s = eig.sin_max_angle(X, Y)
            assert -1e-12 <= s <= 1.0 + 1e-12

    def test_rank_deficient_rejected(self):
        X = np.ones((6, 2))  # two identical columns
        with pytest.raises(EigenError):
            eig.sin_max_angle(X, np.eye(6)[:, :2])

    def test_gram_weighted_symmetry(self):
        rng = np.random.default_rng(8)
        C = rng.standard_normal((9, 9))
        G = C @ C.T + 9 * np.eye(9)
        X = rng.standard_normal((9, 2))
        Y = rng.standard_normal((9, 2))
        R = np.linalg.cholesky(G).T
        assert eig.sin_max_angle(R @ X, R @ Y) == pytest.approx(
            eig.sin_max_angle(R @ Y, R @ X), abs=1e-10)


class TestLowerBound:
    def test_zero_constant_is_identity(self):
        assert eig.lower_bound(7.5, 0.3, 0.0) == 7.5

    def test_worked_value(self):
        assert eig.lower_bound(1.0, 1.0, 1.0) == pytest.approx(0.5)

    @given(st.floats(min_value=1e-3, max_value=1e6),
           st.floats(min_value=1e-3, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_monotonicity(self, lam, h):
        b = eig.lower_bound(lam, h, 1.0)
        assert b <= lam
        assert eig.lower_bound(lam * 1.5, h, 1.0) >= b
        assert eig.lower_bound(lam, h * 1.5, 1.0) <= b

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            eig.lower_bound(-1.0, 1.0, 1.0)

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from plate_afem import assembly as asm
from plate_afem import mesh as msh
from plate_afem import space as sp

from oracles import (energy_product_symbolic, load_vector_duffy, local_stiffness,
                     morley_basis_symbolic, quadratic_on, stiffness_kernel_dimension,
                     symmetric_from_lower_triangle, triangle_rule)


class TestStiffness:
    def test_symmetry_exact(self):
        S = sp.build_space(msh.uniform_refine(msh.preset_mesh("lshape", "clamped")))
        for A in (asm.assemble_stiffness(S).toarray(), asm.assemble_mass(S).toarray()):
            assert np.array_equal(A, A.T)

    def test_clamped_square_value_symbolic(self):
        """1x1 stiffness entry cross-checked by symbolic element integration."""
        import sympy as sym

        m = msh.preset_mesh("square", "clamped")
        S = sp.build_space(m)
        A = asm.assemble_stiffness(S).toarray()
        assert A.shape == (1, 1)

        total = sym.Integer(0)
        diag = np.nonzero(m.interior_edge_mask)[0][0]
        for t in range(2):
            coords = [tuple(sym.nsimplify(c) for c in m.vertices[v])
                      for v in m.triangles[t]]
            normals = []
            for i in range(3):
                f = m.tri_edges[t, i]
                normals.append(tuple(sym.nsimplify(c, [sym.sqrt(2)])
                                     for c in m.edge_normals[f]))
            basis, xy = morley_basis_symbolic(coords, normals,
                                              m.edge_lengths[m.tri_edges[t]])
            # local index of the diagonal edge DOF on this triangle
            loc = 3 + list(m.tri_edges[t]).index(diag)
            phi = basis[loc]
            total += energy_product_symbolic(phi, phi, coords, xy)
        assert A[0, 0] == pytest.approx(float(total), rel=1e-13)
        assert float(total) == pytest.approx(8.0, rel=1e-13)

    def test_quadratic_reproduction_against_quadrature(self):
        # A @ dofs(q) equals the broken-Hessian products computed by quadrature
        rng = np.random.default_rng(0)
        m = msh.uniform_refine(msh.preset_mesh("square", "free"))
        S = sp.build_space(m)
        c = rng.standard_normal(6)
        q = sp.morley_interpolate(S, quadratic_on(m, c))
        Aq = asm.assemble_stiffness(S) @ q
        rule = triangle_rule(2)
        bf = S.to_broken(q)
        Hq = sp.hessians(bf)
        oracle = np.zeros(S.ndof)
        for t in range(m.num_triangles):
            for i in range(6):
                dof = S.cell_dofs[t, i]
                if dof < 0:
                    continue
                Hb = S.basis_hessians[t, i]
                dot = (Hq[t, 0] * Hb[0] + Hq[t, 1] * Hb[1]
                       + 2.0 * Hq[t, 2] * Hb[2])
                oracle[dof] += m.areas[t] * dot
        assert np.abs(Aq - oracle).max() <= 1e-12 * max(1.0, np.abs(oracle).max())

    def test_kernel_dimension_free_configuration(self):
        S = sp.build_space(msh.uniform_refine(msh.preset_mesh("square", "free")))
        assert stiffness_kernel_dimension(S) == 3

    def test_reduced_pencil_positive_with_constraints(self):
        from plate_afem.eigen import solve_gevp
        for bc in ("clamped", "simply_supported", "mixed"):
            m = msh.preset_mesh("square", bc)
            S = sp.build_space(msh.uniform_refine(m))
            A = asm.assemble_stiffness(S)
            M = asm.assemble_mass(S)
            sol = solve_gevp(A, M, 1)
            assert sol.eigenvalues[0] > 0


class TestMass:
    def test_trace_against_quadrature_oracle(self):
        m = msh.preset_mesh("triangle", "free")
        S = sp.build_space(m)
        M = asm.assemble_mass(S).toarray()
        rule = triangle_rule(6)
        pts = np.einsum("qi,id->qd", rule.points, m.vertices[m.triangles[0]])
        bf_cols = []
        for i in range(6):
            u = np.zeros(6)
            u[S.cell_dofs[0, i]] = 1.0
            bf = S.to_broken(u)
            bf_cols.append(bf.value(0, pts))
        oracle = sum(m.areas[0] * np.dot(rule.weights, col ** 2)
                     for col in bf_cols)
        assert np.trace(M) == pytest.approx(oracle, rel=1e-13)

    def test_spd_on_random_vectors(self):
        rng = np.random.default_rng(1)
        S = sp.build_space(msh.uniform_refine(msh.preset_mesh("square", "free")))
        M = asm.assemble_mass(S)
        X = rng.standard_normal((S.ndof, 100))
        quad = np.einsum("nk,nk->k", X, M @ X)
        assert np.all(quad > 0)

    def test_total_mass_identity(self):
        m = msh.uniform_refine(msh.preset_mesh("lshape", "free"))
        S = sp.build_space(m)
        one = sp.morley_interpolate(S, quadratic_on(m, [1, 0, 0, 0, 0, 0]))
        M = asm.assemble_mass(S)
        assert one @ (M @ one) == pytest.approx(3.0, abs=1e-12)  # meas = 3


class TestSolveLinear:
    """The linear plate problem, with a load vector from the oracles and a
    sparse direct solve."""

    def test_quadratic_reproduction_via_discrete_load(self):
        # the realizable patch test: load chosen so the discrete solution is
        # an interpolated quadratic (no classical source exists on these
        # presets for nonzero constant Hessians)
        rng = np.random.default_rng(2)
        m = msh.uniform_refine(msh.preset_mesh("square", "mixed"))
        S = sp.build_space(m)
        c = rng.standard_normal(6)
        q = sp.morley_interpolate(S, quadratic_on(m, c))
        A = asm.assemble_stiffness(S)
        u = spla.spsolve(A.tocsc(), A @ q)
        assert np.abs(u - q).max() <= 1e-10 * max(1.0, np.abs(q).max())

    def test_manufactured_solution_energy_and_l2_rates(self):
        """Energy error of a clamped manufactured solution decays about
        ndof^{-1/2} under uniform refinement, and the companion L2 error one
        order faster (symbolic plate load)."""
        import sympy as sym

        x, y = sym.symbols("x y")
        u_exact = (sym.sin(sym.pi * x) * sym.sin(sym.pi * y)) ** 2
        load = sym.diff(u_exact, x, 4) + 2 * sym.diff(u_exact, x, 2, y, 2) \
            + sym.diff(u_exact, y, 4)
        f = sym.lambdify((x, y), load, "numpy")
        uex = sym.lambdify((x, y), u_exact, "numpy")
        hess = [sym.lambdify((x, y), sym.diff(u_exact, *d), "numpy")
                for d in ((x, 2), (y, 2), (x, 1, y, 1))]

        errors, l2_errors, ndofs = [], [], []
        m = msh.preset_mesh("square", "clamped")
        for _ in range(3):
            m = msh.uniform_refine(m)
        rule = triangle_rule(8)
        for _ in range(3):
            m = msh.uniform_refine(m)
            S = sp.build_space(m)
            A = asm.assemble_stiffness(S)
            uh = spla.spsolve(A.tocsc(), load_vector_duffy(S, f))
            bf = S.to_broken(uh)
            H = sp.hessians(bf)
            pts = np.einsum("qi,tid->tqd", rule.points,
                            m.vertices[m.triangles])
            e11 = hess[0](pts[..., 0], pts[..., 1]) - H[:, None, 0]
            e22 = hess[1](pts[..., 0], pts[..., 1]) - H[:, None, 1]
            e12 = hess[2](pts[..., 0], pts[..., 1]) - H[:, None, 2]
            dens = e11 ** 2 + e22 ** 2 + 2 * e12 ** 2
            err2 = np.sum(m.areas * np.einsum("q,tq->t", rule.weights, dens))
            errors.append(np.sqrt(err2))
            vals = np.stack([bf.value(t, pts[t])
                             for t in range(m.num_triangles)])
            l2_dens = (uex(pts[..., 0], pts[..., 1]) - vals) ** 2
            l2 = np.sum(m.areas * np.einsum("q,tq->t", rule.weights, l2_dens))
            l2_errors.append(np.sqrt(l2))
            ndofs.append(S.ndof)
        rate = np.polyfit(np.log(ndofs), np.log(errors), 1)[0]
        assert rate == pytest.approx(-0.5, abs=0.1)
        l2_rate = np.polyfit(np.log(ndofs), np.log(l2_errors), 1)[0]
        assert l2_rate == pytest.approx(-1.0, abs=0.25)
        # observed gap between the two rates, reported rather than asserted
        # against a regularity index
        assert l2_rate < rate


class TestDeterministicAssembly:
    def test_bit_identical_reassembly(self):
        S = sp.build_space(msh.uniform_refine(msh.preset_mesh("lshape", "mixed")))
        A1 = asm.assemble_stiffness(S).toarray()
        A2 = asm.assemble_stiffness(S).toarray()
        M1 = asm.assemble_mass(S).toarray()
        M2 = asm.assemble_mass(S).toarray()
        assert np.array_equal(A1, A2)
        assert np.array_equal(M1, M2)


class TestNoScatterIndicesKept:
    def test_space_keeps_only_element_matrices(self):
        S = sp.build_space(msh.uniform_refine(msh.preset_mesh("lshape", "mixed")))
        before = set(vars(S))
        asm.assemble_stiffness(S)
        asm.assemble_mass(S)
        assert set(vars(S)) == before
        assert set(S._elements) == {"basis", "stiffness", "mass"}
        assert S._derived == {}


class TestSymmetricCSR:
    """A and M are plain CSR matrices holding both triangles, byte for byte
    the stored-lower-triangle construction mirrored; A also byte for byte
    that of element matrices with the L2(S) weighting written out."""

    @staticmethod
    def _assert_matches_oracle(S):
        for name, local, assemble in (
                ("stiffness", S.element_data("stiffness", asm._local_stiffness)[0],
                 asm.assemble_stiffness),
                ("stiffness oracle", local_stiffness(S), asm.assemble_stiffness),
                ("mass", S.element_data("mass", asm._local_mass)[0], asm.assemble_mass)):
            got = assemble(S)
            want = symmetric_from_lower_triangle(S, local)
            assert isinstance(got, sparse.csr_matrix) and got.shape == (S.ndof, S.ndof)
            for attr in ("data", "indices", "indptr"):
                a, b = getattr(got, attr), getattr(want, attr)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, attr)

    @pytest.mark.parametrize("geometry", ["square", "lshape"])
    @pytest.mark.parametrize("bc", ["clamped", "simply_supported", "mixed", "free"])
    def test_presets(self, geometry, bc):
        self._assert_matches_oracle(sp.build_space(msh.preset_mesh(geometry, bc)))

    def test_uniform_refinement(self):
        m = msh.preset_mesh("lshape", "mixed")
        for _ in range(4):
            self._assert_matches_oracle(sp.build_space(m))
            m = msh.uniform_refine(m)

    def test_every_level_of_nvb_run_with_element_reuse(self):
        from plate_afem.afem import AfemConfig, run_afem

        trace = run_afem(AfemConfig(geometry="lshape", bc="mixed", max_levels=64,
                                    max_ndof=3000))
        coarse, reused = None, 0
        for m in trace.meshes:
            S = sp.build_space(m, coarse)
            self._assert_matches_oracle(S)
            if not isinstance(S._fresh, slice):
                reused += m.num_triangles - len(S._fresh)
            coarse = S
        assert reused > 0

import itertools

import numpy as np
import pytest

from plate_afem import mesh as msh
from plate_afem import space as sp
from plate_afem.space import SpaceError

from oracles import (affine_kernel_dimension_matrix_rank, flip_edge_orientation,
                     morley_interpolate_geometric, prolong_to_fine, quadratic_on)


class TestDofCounts:
    def test_all_clamped_square(self):
        S = sp.build_space(msh.preset_mesh("square", "clamped"))
        assert S.ndof == 1

    def test_all_free_triangle(self):
        S = sp.build_space(msh.preset_mesh("triangle", "free"))
        assert S.ndof == 6

    def test_simply_supported_square(self):
        S = sp.build_space(msh.preset_mesh("square", "simply_supported"))
        assert S.ndof == 5

    def test_mixed_corner_vertex_constrained(self):
        # a vertex where simply supported meets free is constrained
        m = msh.preset_mesh("square", "mixed")
        S = sp.build_space(m)
        assert np.all(S.vertex_dof == -1)
        assert S.ndof == 4

    def test_affine_kernel_dimension_matches_matrix_rank_rule(self):
        # every per-segment BC list of the three presets, as given and
        # refined once uniformly: the rank read off the one SVD with the
        # relative 1e-10 rule against numpy's matrix_rank
        cases = 0
        for geometry, segments in (("square", 4), ("lshape", 6), ("triangle", 3)):
            for bc in itertools.product(("clamped", "simply_supported", "free"),
                                        repeat=segments):
                m = msh.preset_mesh(geometry, list(bc))
                for mesh in (m, msh.uniform_refine(m)):
                    assert (sp.affine_kernel_dimension(mesh)
                            == affine_kernel_dimension_matrix_rank(mesh)), (geometry, bc)
                    cases += 1
        assert cases == 1674


class TestDuality:
    @pytest.mark.parametrize("geometry,bc", [
        ("square", "clamped"), ("square", "free"),
        ("lshape", "clamped"), ("lshape", "simply_supported"),
    ])
    def test_duality_residual(self, geometry, bc):
        m = msh.preset_mesh(geometry, bc)
        for _ in range(2):
            S = sp.build_space(m)
            assert S.duality_residual <= 1e-12
            m = msh.uniform_refine(m)

    def test_dof_functional_inverts_basis(self):
        m = msh.uniform_refine(msh.preset_mesh("square", "free"))
        S = sp.build_space(m)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(S.ndof)
        bf = S.to_broken(u)
        again = sp.morley_interpolate(S, bf)
        assert np.abs(again - u).max() < 1e-12


class TestCoefficients:
    def test_window_block_equals_each_vector_bitwise(self):
        rng = np.random.default_rng(6)
        S = sp.build_space(msh.uniform_refine(msh.preset_mesh("lshape", "mixed")))
        U = rng.standard_normal((S.ndof, 3))
        block = S.window_coefficients(U)
        assert block.shape == (3, S.mesh.num_triangles, 6)
        for k in range(3):
            local = np.concatenate([U[:, k], [0.0]])[S.cell_dofs]
            want = np.einsum("ti,tim->tm", local, S.basis)
            assert block[k].tobytes() == want.tobytes()
            assert S.to_broken(U[:, k]).coeffs.tobytes() == want.tobytes()


class TestDofFunctional:
    X_SQUARED = [0, 0, 0, 1, 0, 0]

    def test_vertex_value(self):
        m = msh.preset_mesh("square", "free")
        S = sp.build_space(m)
        u = sp.morley_interpolate(S, quadratic_on(m, self.X_SQUARED))
        dof = S.vertex_dof[1]  # vertex (1, 0)
        assert u[dof] == pytest.approx(1.0, abs=1e-14)

    def test_edge_mean_zero_normal_derivative(self):
        m = msh.preset_mesh("square", "free")
        S = sp.build_space(m)
        u = sp.morley_interpolate(S, quadratic_on(m, self.X_SQUARED))  # grad = (2x, 0)
        left = [f for f in m.boundary_edges()
                if np.isclose(m.edge_midpoints[f][0], 0.0)][0]
        assert u[S.edge_dof[left]] == pytest.approx(0.0, abs=1e-14)

    def test_edge_mean_diagonal(self):
        # mean of the normal derivative of x^2 over the diagonal is
        # 2 * mid_x * nu_x for the stored normal
        m = msh.preset_mesh("square", "free")
        S = sp.build_space(m)
        diag = np.nonzero(m.interior_edge_mask)[0][0]
        nu = m.edge_normals[diag]
        got = sp.morley_interpolate(S, quadratic_on(m, self.X_SQUARED))[S.edge_dof[diag]]
        assert got == pytest.approx(2 * 0.5 * nu[0], abs=1e-14)
        assert abs(got) == pytest.approx(np.sqrt(2) / 2, abs=1e-14)


class TestInterpolation:
    def test_reproduces_quadratics(self):
        rng = np.random.default_rng(1)
        m = msh.uniform_refine(msh.preset_mesh("lshape", "free"))
        S = sp.build_space(m)
        for _ in range(5):
            c = rng.standard_normal(6)
            u = sp.morley_interpolate(S, quadratic_on(m, c))
            bf = S.to_broken(u)
            exact = np.array([c[0] + c[1] * cx + c[2] * cy + c[3] * cx ** 2
                              + c[4] * cx * cy + c[5] * cy ** 2
                              for cx, cy in m.centroids])
            scale = max(1.0, np.abs(c).max())
            assert np.abs(bf.coeffs[:, 0] - exact).max() <= 1e-12 * scale
            hess = sp.hessians(bf)
            ref = np.array([2 * c[3], 2 * c[5], c[4]])
            assert np.abs(hess - ref).max() <= 1e-12 * scale

    def test_zero_input(self):
        m = msh.uniform_refine(msh.preset_mesh("square", "clamped"))
        S = sp.build_space(m)
        z = sp.morley_interpolate(S, quadratic_on(m, np.zeros(6)))
        assert np.all(z == 0.0)

    def test_rejects_value_gradient_pair(self):
        S = sp.build_space(msh.preset_mesh("square", "free"))
        with pytest.raises(SpaceError, match="expected a BrokenFunction"):
            sp.morley_interpolate(S, (lambda p: 0.0, lambda p: np.zeros(2)))

    def test_hessian_mean_projection(self):
        # elementwise mean of the fine broken Hessian equals the Hessian of
        # the interpolant, for fine functions from the same constrained family
        rng = np.random.default_rng(2)
        coarse = msh.preset_mesh("square", "clamped")
        meshes = [coarse]
        for _ in range(3):
            meshes.append(msh.uniform_refine(meshes[-1]))
        for lvl in (1, 2, 3):
            fine = meshes[lvl]
            Sf = sp.build_space(fine)
            Sc = sp.build_space(coarse)
            amap = msh.ancestor_map(fine, coarse)
            for _ in range(4):
                w = rng.standard_normal(Sf.ndof)
                bw = Sf.to_broken(w)
                Ic = Sc.to_broken(sp.morley_interpolate(Sc, bw))
                Hf = sp.hessians(bw)
                mean = np.zeros((coarse.num_triangles, 3))
                for k in range(3):
                    mean[:, k] = np.bincount(
                        amap, weights=fine.areas * Hf[:, k],
                        minlength=coarse.num_triangles) / coarse.areas
                scale = max(1.0, np.abs(Hf).max())
                assert np.abs(mean - sp.hessians(Ic)).max() <= 1e-10 * scale

    def test_rejects_foreign_mesh(self):
        S = sp.build_space(msh.preset_mesh("square", "clamped"))
        other = msh.preset_mesh("lshape", "clamped")
        bf = sp.BrokenFunction(other, np.zeros((other.num_triangles, 6)))
        with pytest.raises(msh.MeshError):
            sp.morley_interpolate(S, bf)
        # same geometry, but outside the refinement chain of the space's mesh
        S = sp.build_space(msh.preset_mesh("lshape", "mixed"))
        fine = msh.uniform_refine(msh.preset_mesh("lshape", "mixed"))
        bf = sp.BrokenFunction(fine, np.zeros((fine.num_triangles, 6)))
        with pytest.raises(msh.MeshError):
            sp.morley_interpolate(S, bf)


def _nvb_toward_origin(m, steps):
    for _ in range(steps):
        dist = np.linalg.norm(m.centroids, axis=1)
        m = msh.refine_nvb(m, np.argsort(dist, kind="stable")[:3])
    return m


class TestBrokenInterpolation:
    CONFIGS = [("square", "free"), ("square", "clamped"), ("lshape", "mixed"),
               ("lshape", "simply_supported")]

    @staticmethod
    def _fine(coarse, refinement):
        if refinement == "uniform":
            return msh.uniform_refine(coarse)
        return _nvb_toward_origin(coarse, 3)

    @pytest.mark.parametrize("refinement", ["uniform", "adaptive"])
    @pytest.mark.parametrize("geometry,bc", CONFIGS)
    def test_matches_geometric_subedge_search(self, geometry, bc, refinement):
        rng = np.random.default_rng(5)
        coarse = msh.uniform_refine(msh.preset_mesh(geometry, bc))
        fine = self._fine(coarse, refinement)
        S = sp.build_space(coarse)
        bf = sp.BrokenFunction(fine, rng.standard_normal((fine.num_triangles, 6)))
        got = sp.morley_interpolate(S, bf)
        want = morley_interpolate_geometric(S, bf)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("geometry,bc", CONFIGS)
    def test_same_mesh_returns_coefficients(self, geometry, bc):
        rng = np.random.default_rng(6)
        S = sp.build_space(_nvb_toward_origin(msh.preset_mesh(geometry, bc), 3))
        u = rng.standard_normal(S.ndof)
        assert np.abs(sp.morley_interpolate(S, S.to_broken(u)) - u).max() <= 1e-13


class TestProlongation:
    """The prolongation oracle behind ``angle_to_reference_prolonged``."""

    def test_rejects_coefficient_vector(self):
        S = sp.build_space(msh.uniform_refine(msh.preset_mesh("square", "clamped")))
        fine = msh.uniform_refine(S.mesh)
        with pytest.raises(SpaceError, match="expected a BrokenFunction"):
            prolong_to_fine(np.ones(S.ndof), fine)

    def test_hessian_preserved_bitwise(self):
        rng = np.random.default_rng(3)
        m = msh.uniform_refine(msh.preset_mesh("square", "clamped"))
        S = sp.build_space(m)
        u = rng.standard_normal(S.ndof)
        bf = S.to_broken(u)
        fine = msh.uniform_refine(msh.refine_nvb(m, [0, 1]))
        pf = prolong_to_fine(bf, fine)
        amap = msh.ancestor_map(fine, m)
        assert np.array_equal(sp.hessians(pf), sp.hessians(bf)[amap])

    def test_energy_norm_preserved(self):
        rng = np.random.default_rng(4)
        m = msh.uniform_refine(msh.preset_mesh("lshape", "clamped"))
        S = sp.build_space(m)
        u = rng.standard_normal(S.ndof)
        bf = S.to_broken(u)
        fine = msh.uniform_refine(m)
        pf = prolong_to_fine(bf, fine)

        def energy2(b):
            H = sp.hessians(b)
            return float(np.sum(b.mesh.areas * (H[:, 0] ** 2 + H[:, 1] ** 2
                                                + 2 * H[:, 2] ** 2)))

        assert energy2(pf) == pytest.approx(energy2(bf), rel=1e-13)

    def test_value_at_new_midpoint(self):
        m = msh.preset_mesh("square", "clamped")
        S = sp.build_space(m)
        u = np.ones(S.ndof)
        bf = S.to_broken(u)
        fine = msh.uniform_refine(m)
        pf = prolong_to_fine(bf, fine)
        # the midpoint of the coarse diagonal is a fine vertex; coarse
        # polynomial values on both sides must match the prolonged values
        diag = np.nonzero(m.interior_edge_mask)[0][0]
        mid = m.edge_midpoints[diag]
        for t_new in range(fine.num_triangles):
            tri = fine.triangles[t_new]
            for local in range(3):
                if np.allclose(fine.vertices[tri[local]], mid):
                    anc = msh.ancestor_map(fine, m)[t_new]
                    expect = bf.value(int(anc), mid)[0]
                    got = pf.value(t_new, mid)[0]
                    assert got == pytest.approx(expect, abs=1e-13)


class TestSignConvention:
    def test_normal_flip_flips_exactly_one_dof(self):
        m = msh.uniform_refine(msh.preset_mesh("square", "clamped"))
        edge = int(np.nonzero(m.interior_edge_mask)[0][2])
        m2 = flip_edge_orientation(m, edge)
        S1 = sp.build_space(m)
        S2 = sp.build_space(m2)
        c = [0.0, 0.3, -0.2, 1.0, 0.5, -0.7]
        u1 = sp.morley_interpolate(S1, quadratic_on(m, c))
        u2 = sp.morley_interpolate(S2, quadratic_on(m2, c))
        flipped = np.nonzero(np.abs(u1 - u2) > 1e-13)[0]
        assert len(flipped) == 1
        assert flipped[0] == S1.edge_dof[edge]
        assert u2[flipped[0]] == pytest.approx(-u1[flipped[0]], rel=1e-13)

    def test_physical_quantities_invariant_under_flip(self):
        from plate_afem.assembly import assemble_mass, assemble_stiffness

        m = msh.uniform_refine(msh.preset_mesh("square", "clamped"))
        edge = int(np.nonzero(m.interior_edge_mask)[0][1])
        m2 = flip_edge_orientation(m, edge)
        S1, S2 = sp.build_space(m), sp.build_space(m2)
        A1 = assemble_stiffness(S1).toarray()
        A2 = assemble_stiffness(S2).toarray()
        sign = np.ones(S1.ndof)
        sign[S1.edge_dof[edge]] = -1.0
        assert np.abs(A2 - sign[:, None] * A1 * sign[None, :]).max() < 1e-11
        M1 = assemble_mass(S1).toarray()
        M2 = assemble_mass(S2).toarray()
        assert np.abs(M2 - sign[:, None] * M1 * sign[None, :]).max() < 1e-13


class TestBasisHessians:
    def test_formed_on_first_read_only(self):
        from plate_afem.assembly import assemble_stiffness

        m = msh.uniform_refine(msh.preset_mesh("lshape", "mixed"))
        space = sp.build_space(m)
        assemble_stiffness(space)
        assert "basis_hessians" not in vars(space)
        c = space.basis
        want = np.stack([2.0 * c[:, :, 3], 2.0 * c[:, :, 5], c[:, :, 4]], axis=2)
        assert space.basis_hessians.shape == (m.num_triangles, 6, 3)
        assert space.basis_hessians.tobytes() == want.tobytes()
        assert space.basis_hessians is space.basis_hessians


class TestElementReuse:
    """``build_space(mesh, coarse)`` copies the element data of the triangles
    that refinement left untouched; the space must equal one built from
    scratch bit for bit."""

    BC_LISTS = [("lshape", ["clamped", "free", "simply_supported", "free", "free", "clamped"]),
                ("square", ["clamped", "simply_supported", "free", "clamped"]),
                ("lshape", ["simply_supported", "clamped", "free", "clamped",
                            "simply_supported", "free"])]

    @staticmethod
    def _assert_chain_matches(meshes):
        from plate_afem.assembly import assemble_mass, assemble_stiffness

        coarse, reused = None, 0
        for m in meshes:
            got, want = sp.build_space(m, coarse), sp.build_space(m)
            for name in ("basis", "basis_hessians", "duality_residual"):
                assert (np.asarray(getattr(got, name)).tobytes()
                        == np.asarray(getattr(want, name)).tobytes()), name
            for assemble in (assemble_stiffness, assemble_mass):
                a, b = assemble(got), assemble(want)
                for name in ("data", "indices", "indptr"):
                    assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
            reused += m.num_triangles - len(np.arange(m.num_triangles)[got._fresh])
            coarse = got
        return reused

    @pytest.mark.parametrize("geometry,bc,max_ndof", [
        ("lshape", "mixed", 5000), ("square", "clamped", 3000),
        *[(g, bc, 2000) for g, bc in BC_LISTS]])
    def test_adaptive_levels_bitwise(self, geometry, bc, max_ndof):
        from plate_afem.afem import AfemConfig, run_afem

        trace = run_afem(AfemConfig(geometry=geometry, bc=bc, max_levels=64,
                                    max_ndof=max_ndof))
        assert trace.levels[-1].ndof >= max_ndof
        assert self._assert_chain_matches(trace.meshes) > 0

    def test_start_mesh_from_file(self, tmp_path):
        from plate_afem.afem import AfemConfig, run_afem

        path = tmp_path / "start.json"
        msh.save_mesh(msh.uniform_refine(msh.preset_mesh("square", "simply_supported")), path)
        trace = run_afem(AfemConfig(mesh_file=str(path), max_levels=64, max_ndof=1500))
        assert self._assert_chain_matches(trace.meshes) > 0

    def test_uniform_refinement_reuses_nothing(self):
        m = msh.preset_mesh("lshape", "mixed")
        meshes = [m]
        for _ in range(3):
            meshes.append(msh.uniform_refine(meshes[-1]))
        assert self._assert_chain_matches(meshes) == 0

    def test_space_on_another_mesh_is_ignored(self):
        m = msh.uniform_refine(msh.preset_mesh("square", "clamped"))
        fine = msh.refine_nvb(m, [0])
        other = sp.build_space(msh.uniform_refine(m))
        got, want = sp.build_space(fine, other), sp.build_space(fine)
        assert got.basis.tobytes() == want.basis.tobytes()
        assert isinstance(got._fresh, slice)

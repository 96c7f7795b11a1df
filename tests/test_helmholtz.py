import dataclasses
import itertools

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from plate_afem import assembly as asm
from plate_afem import helmholtz as hh
from plate_afem import mesh as msh
from plate_afem import space as sp
from plate_afem.helmholtz import HelmholtzError

from oracles import (curl_l2_norm, curl_part_dense, decompose_lstsq, hessian_map_loops,
                     hessian_part_stiffness, qr_rank, stiffness_kernel_dimension,
                     sym_curl, sym_curl_map_columns)

ALL_CONFIGS = [(g, bc) for g in ("square", "lshape")
               for bc in ("clamped", "simply_supported", "mixed")]

# every per-segment BC list of the square and the L-shape that leaves an
# affine function (a rigid-body mode) in the Morley space
_SS, _FR = "simply_supported", "free"
RIGID_BCS = ([("square", [_FR] * i + [_SS] + [_FR] * (3 - i)) for i in range(4)]
             + [("square", [_FR] * 4)]
             + [("lshape", [_FR] * i + [_SS] + [_FR] * (5 - i)) for i in range(6)]
             + [("lshape", [_FR] * 6)])


def _setup(geometry, bc, refine=0):
    m = msh.preset_mesh(geometry, bc)
    for _ in range(refine):
        m = msh.uniform_refine(m)
    return m, sp.build_space(m), hh.build_xspace(m)


def _admitting_dilation(X, eps=0.0):
    """X with its constraint rows stripped of all but ``eps`` of their
    component along the dilation field (x - x_bar, y - y_bar), whose
    symmetric Curl vanishes; with eps = 0 the field lies in the space."""
    m = X.mesh
    wz = np.zeros(m.num_vertices)
    np.add.at(wz, m.triangles.ravel(), np.repeat(m.areas / 3.0, 3))
    d = (m.vertices - wz @ m.vertices / wz.sum()).ravel()
    C = X.constraints.toarray()
    C -= (1.0 - eps) * np.outer(C @ d, d) / (d @ d)
    return dataclasses.replace(X, constraints=sparse.csr_matrix(C))


def _adaptive_mesh(geometry, bc, steps=3):
    # newest-vertex bisection of the triangles nearest the origin
    m = msh.preset_mesh(geometry, bc)
    for _ in range(steps):
        dist = np.linalg.norm(m.centroids, axis=1)
        m = msh.refine_nvb(m, np.argsort(dist, kind="stable")[:3])
    assert np.ptp(m.areas) > 0.0  # a non-uniform mesh
    return m


class TestXSpace:
    def test_clamped_square_dimension(self):
        _, _, X = _setup("square", "clamped")
        assert X.dim == 5  # 2*4 - 3, no boundary constraints

    @pytest.mark.parametrize("geometry,bc", ALL_CONFIGS)
    def test_dimension_formula(self, geometry, bc):
        m, _, X = _setup(geometry, bc)
        assert X.dim == X.expected_dim
        assert not X.rank_deficient

    @pytest.mark.parametrize("geometry,bc", ALL_CONFIGS)
    def test_basis_satisfies_constraints(self, geometry, bc):
        m, _, X = _setup(geometry, bc, refine=1)
        wz = np.zeros(m.num_vertices)
        np.add.at(wz, m.triangles.ravel(), np.repeat(m.areas / 3.0, 3))
        grads = hh._p1_gradients(m)
        for k in range(X.dim):
            v = X.basis[:, k].reshape(-1, 2)
            # zero mean
            assert np.abs(wz @ v).max() <= 1e-12
            # zero mean divergence
            div = np.einsum("tld,tld->t", grads, v[m.triangles][:, :, [0, 1]])
            assert abs(np.sum(m.areas * div)) <= 1e-12
            # no normal increment on simply supported / free edges
            for f in m.edges_with_tag(msh.BoundaryPart.SIMPLY_SUPPORTED,
                                      msh.BoundaryPart.FREE):
                z1, z2 = m.edges[f]
                inc = (v[z2] - v[z1]) @ m.edge_normals[f]
                assert abs(inc) <= 1e-12
            # matching scaled tangential increments at free-interior vertices
            free = m.edges_with_tag(msh.BoundaryPart.FREE)
            incoming = {int(m.edges[f, 1]): int(f) for f in free}
            outgoing = {int(m.edges[f, 0]): int(f) for f in free}
            for z in m.free_corner_vertices():
                fm, fp = incoming[int(z)], outgoing[int(z)]
                zm, zp = m.edges[fm, 0], m.edges[fp, 1]
                left = (v[z] - v[zm]) @ m.edge_tangents[fm] / m.edge_lengths[fm]
                right = (v[zp] - v[z]) @ m.edge_tangents[fp] / m.edge_lengths[fp]
                assert left == pytest.approx(right, abs=1e-12)

    def test_sym_curl_injective_on_basis(self):
        # only the zero field has vanishing symmetric Curl
        _, _, X = _setup("square", "clamped", refine=1)
        B = sym_curl_map_columns(X)
        s = np.linalg.svd(B, compute_uv=False)
        assert s[-1] > 1e-10 * s[0]


class TestDecompose:
    @pytest.mark.parametrize("geometry,bc", ALL_CONFIGS)
    def test_random_fields_split_exactly(self, geometry, bc):
        rng = np.random.default_rng(42)
        m, S, X = _setup(geometry, bc)
        for _ in range(3):
            sigma = rng.standard_normal((m.num_triangles, 3))
            res = hh.decompose(S, X, sigma)
            norm = np.linalg.norm(hh.tensor_features(m, sigma))
            assert res.residual <= 1e-9 * norm
            assert abs(res.orthogonality) <= 1e-10 * norm ** 2

    def test_hessian_only_field(self):
        rng = np.random.default_rng(1)
        m, S, X = _setup("lshape", "mixed", refine=1)
        u = rng.standard_normal(S.ndof)
        sigma = sp.hessians(S.to_broken(u))
        res = hh.decompose(S, X, sigma)
        norm = np.linalg.norm(hh.tensor_features(m, sigma))
        curl_part = np.linalg.norm(
            hh.tensor_features(m, sym_curl(m, res.psi_nodal)))
        assert curl_part <= 1e-10 * norm

    def test_curl_only_field(self):
        rng = np.random.default_rng(2)
        m, S, X = _setup("square", "simply_supported", refine=1)
        psi = X.basis @ rng.standard_normal(X.dim)
        sigma = sym_curl(m, psi)
        res = hh.decompose(S, X, sigma)
        norm = np.linalg.norm(hh.tensor_features(m, sigma))
        hess_part = np.linalg.norm(
            hh.tensor_features(m, sp.hessians(S.to_broken(res.phi))))
        assert hess_part <= 1e-10 * norm

    def test_orthogonality_of_images(self):
        rng = np.random.default_rng(3)
        m, S, X = _setup("square", "mixed", refine=1)
        for _ in range(5):
            phi = rng.standard_normal(S.ndof)
            psi = X.basis @ rng.standard_normal(X.dim)
            h = hh.tensor_features(m, sp.hessians(S.to_broken(phi)))
            c = hh.tensor_features(m, sym_curl(m, psi))
            denom = max(np.linalg.norm(h) * np.linalg.norm(c), 1e-300)
            assert abs(h @ c) <= 1e-10 * denom

    def test_shape_validation(self):
        m, S, X = _setup("square", "clamped")
        with pytest.raises(HelmholtzError):
            hh.decompose(S, X, np.zeros((m.num_triangles, 2)))

    @pytest.mark.parametrize("solver", [hh.decompose, decompose_lstsq])
    @pytest.mark.parametrize("defect", ["dropped", "zeroed"])
    def test_rank_deficient_map_raises(self, solver, defect):
        # one extra constraint leaves dim one short and fails the rank
        # count; constraints that admit the dilation field keep the count
        # and put a kernel vector of the Curl map in the space
        m, S, X = _setup("lshape", "mixed", refine=1)
        if defect == "dropped":
            extra = sparse.csr_matrix(([1.0], ([0], [0])), shape=(1, 2 * m.num_vertices))
            bad = dataclasses.replace(
                X, constraints=sparse.vstack([X.constraints, extra], format="csr"),
                dim=X.dim - 1, n_constraints=X.n_constraints + 1,
                constraint_rank=X.constraint_rank + 1)
        else:
            bad = _admitting_dilation(X)
        sigma = np.random.default_rng(5).standard_normal((m.num_triangles, 3))
        with pytest.raises(HelmholtzError, match="rank deficient"):
            solver(S, bad, sigma)

    def test_clamped_square_dimension_identity_hand_count(self):
        m, S, X = _setup("square", "clamped")
        assert 3 * m.num_triangles == 6
        assert S.ndof == 1
        assert X.dim == 5


class TestRigidBodySplitting:
    def test_rigid_lists_are_complete(self):
        found = [(g, list(bc)) for g, n in (("square", 4), ("lshape", 6))
                 for bc in itertools.product(("clamped", _SS, _FR), repeat=n)
                 if sp.affine_kernel_dimension(msh.preset_mesh(g, list(bc))) > 0]
        assert found == RIGID_BCS

    @pytest.mark.parametrize("geometry,bc", RIGID_BCS)
    def test_random_fields_split_exactly(self, geometry, bc):
        m, S, X = _setup(geometry, bc, refine=1)
        sigma = np.random.default_rng(6).standard_normal((m.num_triangles, 3))
        res = hh.decompose(S, X, sigma)
        norm = np.linalg.norm(hh.tensor_features(m, sigma))
        assert res.residual <= 1e-9 * norm
        assert abs(res.orthogonality) <= 1e-10 * norm ** 2

    @pytest.mark.parametrize("geometry,bc", RIGID_BCS)
    def test_audit_ranks_match_qr(self, geometry, bc):
        m, S, X = _setup(geometry, bc, refine=1)
        dims = hh.dimension_audit(m, S, X)["dims"]
        k = sp.affine_kernel_dimension(m)
        assert k > 0
        assert dims["rank_hessian_map"] == qr_rank(hessian_map_loops(S)) == S.ndof - k
        assert dims["rank_sym_curl_map"] == qr_rank(sym_curl_map_columns(X))

    @pytest.mark.parametrize("geometry,bc", RIGID_BCS + ALL_CONFIGS)
    def test_kernel_coefficients_span_stiffness_kernel(self, geometry, bc):
        _, S, _ = _setup(geometry, bc, refine=1)
        Z = sp.affine_kernel_coefficients(S)
        A = asm.assemble_stiffness(S)
        assert Z.shape == (S.ndof, stiffness_kernel_dimension(S))
        if Z.shape[1]:
            assert np.linalg.norm(A @ Z) <= 1e-12 * spla.norm(A) * np.linalg.norm(Z)


class TestDimensionAudit:
    @pytest.mark.parametrize("geometry,bc", ALL_CONFIGS)
    def test_identities_hold_on_presets(self, geometry, bc):
        m, S, X = _setup(geometry, bc)
        rep = hh.dimension_audit(m, S, X)
        assert rep["euler_ok"]
        assert rep["dim_identity_ok"]
        assert rep["x_constraints_independent"]
        assert rep["dims"]["rank_hessian_map"] == S.ndof
        assert rep["dims"]["rank_sym_curl_map"] == X.dim

    def test_refined_meshes(self):
        for refine in (1, 2):
            m, S, X = _setup("lshape", "mixed", refine=refine)
            rep = hh.dimension_audit(m, S, X)
            assert rep["euler_ok"] and rep["dim_identity_ok"]

    def test_singular_value_in_band_raises(self):
        # constraints within 1e-5 of admitting the dilation field put a
        # Gram eigenvalue near 2e-11 |G|_1
        m, S, X = _setup("lshape", "mixed", refine=1)
        with pytest.raises(HelmholtzError, match="rank undecided"):
            hh.dimension_audit(m, S, _admitting_dilation(X, eps=1e-5))

    def test_single_triangle_euler(self):
        m = msh.preset_mesh("triangle", "clamped")
        assert m.euler_identities() == (0, 0)

    def test_report_is_jsonable(self):
        import json

        m, S, X = _setup("square", "clamped")
        rep = hh.dimension_audit(m, S, X)
        json.dumps(rep)


class TestGramRank:
    @pytest.mark.parametrize("fmt", ["dense", "sparse"])
    @pytest.mark.parametrize("n,rank", [(3, 2), (5, 1), (40, 40), (40, 36),
                                        (40, 31), (40, 0)])
    def test_matches_qr_rank(self, fmt, n, rank):
        # kernels of 0, 4 and 9 take one, two and three solves of eigsh;
        # n = 3, and n = 5 with a kernel of 4, go straight to eigvalsh
        rng = np.random.default_rng(10 * n + rank)
        B = rng.standard_normal((60, rank)) @ rng.standard_normal((rank, n))
        got = hh._Gram(B if fmt == "dense" else sparse.csr_matrix(B)).rank
        assert got == qr_rank(B) == rank

    @pytest.mark.parametrize("fmt", ["dense", "sparse"])
    @pytest.mark.parametrize("n", [3, 30])
    @pytest.mark.parametrize("mu", [1e-12, 1e-10])
    def test_eigenvalue_in_band_raises(self, fmt, n, mu):
        B = np.diag(np.sqrt(np.r_[mu, np.linspace(0.5, 1.0, n - 1)]))
        with pytest.raises(HelmholtzError, match="rank undecided"):
            hh._Gram(B if fmt == "dense" else sparse.csr_matrix(B)).rank

    @pytest.mark.parametrize("fmt", ["dense", "sparse"])
    @pytest.mark.parametrize("mu,rank", [(1e-14, 29), (1e-8, 30)])
    def test_eigenvalues_outside_band_count(self, fmt, mu, rank):
        B = np.diag(np.sqrt(np.r_[mu, np.linspace(0.5, 1.0, 29)]))
        assert hh._Gram(B if fmt == "dense" else sparse.csr_matrix(B)).rank == rank

    @pytest.mark.parametrize("n,rank", [(30, 30), (30, 25)])
    def test_rank_on_constrained_space_matches_qr(self, n, rank):
        # the rank of B on ker C equals the rank of B times a null basis of C
        rng = np.random.default_rng(n + rank)
        B = rng.standard_normal((60, rank)) @ rng.standard_normal((rank, n))
        C = rng.standard_normal((3, n))
        assert hh._Gram(B, C).rank == qr_rank(B @ hh._null_basis(sparse.csr_matrix(C)))

    def test_failed_factorisation_raises(self):
        # dependent constraint rows: the saddle-point matrix is singular
        B = np.eye(30)
        C = np.zeros((2, 30))
        C[:, 0] = 1.0
        with pytest.raises(HelmholtzError, match="rank computation failed"):
            hh._Gram(B, C).rank

    def test_negative_eigenvalue_raises(self, monkeypatch):
        # a Ritz value below -1e-13 |G|_1 cannot come from a Gram matrix
        monkeypatch.setattr(spla, "eigsh", lambda *args, **kw: np.r_[-1e-6, np.ones(3)])
        with pytest.raises(HelmholtzError, match="negative Gram eigenvalue"):
            hh._Gram(np.eye(30)).rank


class TestMapOracles:
    MESHES = ([(g, bc, r) for g, bc in ALL_CONFIGS for r in (0, 2)]
              + [("lshape", "mixed", "nvb"), ("square", "simply_supported", "nvb")])

    @staticmethod
    def _mesh(geometry, bc, refine):
        if refine == "nvb":
            m = _adaptive_mesh(geometry, bc)
            return m, sp.build_space(m), hh.build_xspace(m)
        return _setup(geometry, bc, refine)

    @pytest.mark.parametrize("geometry,bc,refine", MESHES)
    def test_hessian_map_equals_loops(self, geometry, bc, refine):
        _, S, _ = self._mesh(geometry, bc, refine)
        assert np.array_equal(hh._hessian_operator(S).toarray(), hessian_map_loops(S))

    @pytest.mark.parametrize("geometry,bc,refine", MESHES)
    def test_sym_curl_map_matches_columns(self, geometry, bc, refine):
        m, _, X = self._mesh(geometry, bc, refine)
        got, want = hh._sym_curl_operator(m) @ X.basis, sym_curl_map_columns(X)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("geometry,bc,refine", MESHES)
    def test_decompose_matches_lstsq(self, geometry, bc, refine):
        m, S, X = self._mesh(geometry, bc, refine)
        sigma = np.random.default_rng(7).standard_normal((m.num_triangles, 3))
        got, want = hh.decompose(S, X, sigma), decompose_lstsq(S, X, sigma)
        for part in (lambda r: sp.hessians(S.to_broken(r.phi)),
                     lambda r: sym_curl(m, r.psi_nodal)):
            a = hh.tensor_features(m, part(got))
            b = hh.tensor_features(m, part(want))
            assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("geometry,bc,refine", MESHES + [
        (g, bc, 1) for g, bc in RIGID_BCS] + [("lshape", "mixed", 4)])
    def test_curl_side_matches_dense_oracle(self, geometry, bc, refine):
        m, S, X = self._mesh(geometry, bc, refine)
        sigma = np.random.default_rng(8).standard_normal((m.num_triangles, 3))
        res = hh.decompose(S, X, sigma)
        rank_c = hh.dimension_audit(m, S, X)["dims"]["rank_sym_curl_map"]
        dim, constraint_rank, want_rank, want_psi = curl_part_dense(m, sigma)
        assert (X.dim, X.constraint_rank, rank_c) == (dim, constraint_rank, want_rank)
        assert rank_c == X.dim
        err = np.linalg.norm(res.psi_nodal - want_psi)
        assert err <= 1e-10 * np.linalg.norm(want_psi)
        # the dense basis is never formed on the audit and decomposition path
        assert "basis" not in vars(X)

    @pytest.mark.parametrize("geometry,bc,refine", MESHES + [
        (g, bc, 1) for g, bc in RIGID_BCS])
    def test_hessian_side_matches_stiffness_oracle(self, geometry, bc, refine):
        # phi keeps the convention of the stiffness solve: the k DOFs
        # dropped for the affine kernel are zero
        m, S, X = self._mesh(geometry, bc, refine)
        sigma = np.random.default_rng(9).standard_normal((m.num_triangles, 3))
        phi = hh.decompose(S, X, sigma).phi
        want, drop = hessian_part_stiffness(S, sigma)
        assert np.all(phi[drop] == 0.0)
        assert np.linalg.norm(phi - want) <= 1e-10 * np.linalg.norm(want)

    def test_audit_and_decompose_share_one_hessian_factorisation(self, monkeypatch):
        m, S, X = _setup("lshape", "mixed", refine=2)
        hh.dimension_audit(m, S, X)
        gram = hh._hessian_gram(S)
        assert "_lu" in vars(gram)
        monkeypatch.setattr(spla, "splu", None)   # no further factorisation
        hh.decompose(S, X, np.ones((m.num_triangles, 3)))
        assert hh._hessian_gram(S) is gram

    def test_hessian_factor_no_larger_than_superlu_defaults(self):
        # the stiffness factor's setting (no relaxed supernodes) on the
        # saddle-point matrix K of the Hessian Gram matrix, against splu's
        # default relaxation with the same ordering and pivot threshold
        m, S, X = _setup("lshape", "mixed", refine=3)
        gram = hh._hessian_gram(S)
        n = gram.G.shape[0]
        K = sparse.bmat([[gram.G - gram.sigma * sparse.identity(n), gram.C.T],
                         [gram.C, None]], format="csc")
        default = spla.splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.01,
                            options=dict(SymmetricMode=True))
        assert gram._lu.nnz <= default.nnz
        assert hh.dimension_audit(m, S, X) == {
            "dim_identity_ok": True, "euler_ok": True, "x_constraints_independent": True,
            "dims": {"dim_x": 377, "dim_x_expected": 377, "ndof": 775, "num_edges": 608,
                     "num_interior_edges": 544, "num_triangles": 384, "num_vertices": 225,
                     "rank_hessian_map": 775, "rank_sym_curl_map": 377}}

    @pytest.mark.parametrize("geometry,bc,refine", MESHES)
    def test_audit_ranks_match_qr(self, geometry, bc, refine):
        m, S, X = self._mesh(geometry, bc, refine)
        dims = hh.dimension_audit(m, S, X)["dims"]
        assert dims["rank_hessian_map"] == qr_rank(hessian_map_loops(S))
        assert dims["rank_sym_curl_map"] == qr_rank(sym_curl_map_columns(X))

    def test_audit_ranks_match_qr_at_1536_triangles(self):
        m, S, X = _setup("lshape", "mixed", refine=4)
        assert m.num_triangles == 1536
        dims = hh.dimension_audit(m, S, X)["dims"]
        assert dims["rank_hessian_map"] == qr_rank(hessian_map_loops(S)) == S.ndof
        assert dims["rank_sym_curl_map"] == qr_rank(sym_curl_map_columns(X)) == X.dim

    @pytest.mark.parametrize("geometry,bc", ALL_CONFIGS)
    def test_audit_ranks_unchanged_on_refined_presets(self, geometry, bc):
        m, S, X = _setup(geometry, bc, refine=2)
        dims = hh.dimension_audit(m, S, X)["dims"]
        assert dims["rank_hessian_map"] == qr_rank(hessian_map_loops(S)) == S.ndof
        assert dims["rank_sym_curl_map"] == qr_rank(sym_curl_map_columns(X)) == X.dim


class TestStabilityMonitor:
    def test_constant_nonexploding_over_refinements(self):
        """Splitting-norm ratio stays within 10x of its level-0 value."""
        rng = np.random.default_rng(4)
        m = msh.preset_mesh("square", "clamped")
        ratios = []
        for _ in range(5):
            S = sp.build_space(m)
            X = hh.build_xspace(m)
            sigma = rng.standard_normal((m.num_triangles, 3))
            res = hh.decompose(S, X, sigma)
            norm = np.linalg.norm(hh.tensor_features(m, sigma))
            hess_l2 = np.linalg.norm(
                hh.tensor_features(m, sp.hessians(S.to_broken(res.phi))))
            ratios.append((hess_l2 + curl_l2_norm(m, res.psi_nodal)) / norm)
            m = msh.uniform_refine(m)
        assert max(ratios) <= 10.0 * ratios[0]

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plate_afem import estimator as est
from plate_afem import mesh as msh
from plate_afem import space as sp
from plate_afem.estimator import EstimatorField, MarkingError

from oracles import dorfler_min_cardinality, estimate_per_member, quadratic_on


class _Window:
    def __init__(self, lams, vecs, j_first=1):
        self.eigenvalues = np.atleast_1d(np.asarray(lams, dtype=float))
        self.vectors = np.atleast_2d(np.asarray(vecs, dtype=float))
        self.j_first = j_first


def _field(values):
    return EstimatorField(eta2=np.asarray(values, dtype=float))


class TestEstimate:
    def test_zero_vector(self):
        S = sp.build_space(msh.uniform_refine(msh.preset_mesh("square", "clamped")))
        f = est.estimate(S, _Window([1.0], np.zeros((S.ndof, 1))))
        assert f.total == 0.0

    def test_smooth_quadratic_has_no_jumps(self):
        # globally C2 input in a free configuration: only the volume term
        m = msh.uniform_refine(msh.preset_mesh("square", "free"))
        S = sp.build_space(m)
        q = sp.morley_interpolate(S, quadratic_on(m, [0, 0, 0, 1.0, -0.3, 0]))
        lam = 2.0
        f = est.estimate(S, _Window([lam], q[:, None]))
        from oracles import triangle_rule
        rule = triangle_rule(4)
        bf = S.to_broken(q)
        pts = np.einsum("qi,tid->tqd", rule.points, m.vertices[m.triangles])
        vol = np.empty(m.num_triangles)
        for t in range(m.num_triangles):
            vol[t] = m.areas[t] * np.dot(rule.weights, bf.value(t, pts[t]) ** 2)
        expect = m.areas ** 2 * lam ** 2 * vol
        assert np.abs(f.eta2 - expect).max() <= 1e-12 * max(1.0, expect.max())

    def test_hand_integrated_jump_value(self):
        """All-clamped two-triangle square, the single basis function with
        zero eigenvalue: interior tangential jump cancels by symmetry and the
        four clamped traces contribute h_T * h_F * 4 each."""
        m = msh.preset_mesh("square", "clamped")
        S = sp.build_space(m)
        f = est.estimate(S, _Window([0.0], np.ones((1, 1))))
        expect_per_tri = 2 * np.sqrt(0.5) * 1.0 * 4.0
        assert np.abs(f.eta2 - expect_per_tri).max() <= 1e-12 * expect_per_tri
        assert f.total == pytest.approx(8.0 * np.sqrt(2.0), rel=1e-13)

    def test_free_edges_contribute_nothing(self):
        # same coefficient pattern, free boundary: only the diagonal jump
        # could contribute, and it vanishes for this symmetric function
        m = msh.preset_mesh("square", "free")
        S = sp.build_space(m)
        u = np.zeros(S.ndof)
        diag = np.nonzero(m.interior_edge_mask)[0][0]
        u[S.edge_dof[diag]] = 1.0
        f = est.estimate(S, _Window([0.0], u[:, None]))
        assert f.total <= 1e-24

    def test_simply_supported_uses_tangential_component(self):
        rng = np.random.default_rng(0)
        m = msh.uniform_refine(msh.preset_mesh("square", "simply_supported"))
        S = sp.build_space(m)
        u = rng.standard_normal(S.ndof)
        f_ss = est.estimate(S, _Window([0.0], u[:, None]))
        bf = S.to_broken(u)
        H = sp.hessians(bf)
        expect = np.zeros(m.num_triangles)
        for fidx in np.nonzero(m.boundary_edge_mask)[0]:
            t = m.edge_tris[fidx, 0]
            tau = m.edge_tangents[fidx]
            Hm = np.array([[H[t, 0], H[t, 2]], [H[t, 2], H[t, 1]]])
            s = tau @ (Hm @ tau)
            expect[t] += m.h_t[t] * m.edge_lengths[fidx] * s ** 2
        # subtract interior contributions, compare boundary-only part
        m_free = msh.uniform_refine(msh.preset_mesh("square", "free"))
        S_free = sp.build_space(m_free)
        # embed: same mesh geometry; interior jumps identical, free adds 0
        u_free = np.zeros(S_free.ndof)
        for f2 in range(m_free.num_edges):
            if S_free.edge_dof[f2] >= 0 and S.edge_dof[f2] >= 0:
                u_free[S_free.edge_dof[f2]] = u[S.edge_dof[f2]]
        for z in range(m_free.num_vertices):
            if S_free.vertex_dof[z] >= 0 and S.vertex_dof[z] >= 0:
                u_free[S_free.vertex_dof[z]] = u[S.vertex_dof[z]]
        f_interior_only = est.estimate(S_free, _Window([0.0], u_free[:, None]))
        assert np.abs(f_ss.eta2 - f_interior_only.eta2 - expect).max() <= \
            1e-11 * max(1.0, f_ss.eta2.max())

    def test_scaling_by_power_of_two_exact(self):
        rng = np.random.default_rng(1)
        m = msh.uniform_refine(msh.preset_mesh("lshape", "mixed"))
        S = sp.build_space(m)
        u = rng.standard_normal((S.ndof, 2))
        w = _Window([3.0, 5.0], u)
        f1 = est.estimate(S, w)
        f4 = est.estimate(S, _Window([3.0, 5.0], 4.0 * u))
        assert np.array_equal(f4.eta2, 16.0 * f1.eta2)
        m1 = est.dorfler_mark(f1, 0.5)
        m4 = est.dorfler_mark(f4, 0.5)
        assert np.array_equal(m1, m4)

    def test_total_is_sum(self):
        rng = np.random.default_rng(2)
        m = msh.uniform_refine(msh.preset_mesh("square", "clamped"))
        S = sp.build_space(m)
        u = rng.standard_normal(S.ndof)
        f = est.estimate(S, _Window([7.0], u[:, None]))
        assert f.total == pytest.approx(f.eta2.sum(), rel=1e-12)
        assert np.all(f.eta2 >= 0)

    def test_mesh_mismatch_rejected(self):
        S = sp.build_space(msh.preset_mesh("square", "clamped"))
        with pytest.raises(MarkingError):
            est.estimate(S, _Window([1.0], np.zeros((S.ndof + 3, 1))))


class TestOneScatter:
    """The window-wide ``estimate`` adds each triangle's terms in the order of
    a loop over the members, so it equals that loop bit for bit."""

    @pytest.mark.parametrize("members", [1, 2, 3])
    @pytest.mark.parametrize("geometry,bc", [
        ("square", "clamped"), ("square", "simply_supported"), ("square", "free"),
        ("lshape", "mixed"), ("triangle", ["clamped", "simply_supported", "free"])])
    def test_equals_the_per_member_loop(self, geometry, bc, members):
        rng = np.random.default_rng(members)
        m = msh.uniform_refine(msh.preset_mesh(geometry, bc))
        m = msh.refine_nvb(m, rng.choice(m.num_triangles, m.num_triangles // 3,
                                         replace=False))
        S = sp.build_space(m)
        # magnitudes spread over six decades; 1294.022 squares one bit apart
        # through a float64 scalar's pow and through an array's ** 2
        window = _Window([1294.022, *rng.uniform(0.0, 1e4, members - 1)],
                         rng.standard_normal((S.ndof, members))
                         * 10.0 ** rng.uniform(-3, 3, members))
        want = estimate_per_member(S, window).eta2
        assert est.estimate(S, window).eta2.tobytes() == want.tobytes()
        fortran = _Window(window.eigenvalues, np.asfortranarray(window.vectors))
        assert est.estimate(S, fortran).eta2.tobytes() == want.tobytes()


class TestDorflerMark:
    def test_theta_one_marks_support(self):
        f = _field([0.0, 1.0, 0.0, 2.0])
        mk = est.dorfler_mark(f, 1.0)
        assert mk.tolist() == [1, 3]

    def test_worked_example(self):
        mk = est.dorfler_mark(_field([4.0, 3.0, 2.0, 1.0]), 0.5)
        assert mk.tolist() == [0, 1]

    def test_tie_breaking(self):
        mk = est.dorfler_mark(_field([2.0, 2.0, 2.0]), 0.4)
        assert mk.tolist() == [0, 1]

    def test_zero_total_converged(self):
        mk = est.dorfler_mark(_field([0.0, 0.0]), 0.5)
        assert len(mk) == 0 and mk.dtype == np.int64

    def test_returns_sorted_int64_indices(self):
        vals = np.random.default_rng(3).random(40)
        mk = est.dorfler_mark(_field(vals), 0.7)
        assert isinstance(mk, np.ndarray) and mk.dtype == np.int64 and mk.ndim == 1
        assert len(mk) > 1 and np.all(np.diff(mk) > 0)
        # the largest contributions come first in the marking order, not in
        # the returned array
        assert mk.tolist() != np.argsort(-vals)[:len(mk)].tolist()

    def test_invalid_theta(self):
        for theta in (0.0, -0.1, 1.5):
            with pytest.raises(MarkingError):
                est.dorfler_mark(_field([1.0]), theta)

    def test_bulk_criterion_holds(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            vals = rng.random(12) ** 3
            theta = rng.uniform(0.05, 1.0)
            mk = est.dorfler_mark(_field(vals), theta)
            assert vals[mk].sum() >= theta * vals.sum() * (1 - 1e-12)

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1,
                    max_size=10),
           st.sampled_from([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]))
    @settings(max_examples=120, deadline=None)
    def test_minimal_cardinality_against_exhaustive_search(self, vals, theta):
        if theta * sum(vals) <= 0:  # guards denormal underflow of the target
            return
        mk = est.dorfler_mark(_field(vals), theta)
        assert len(mk) == dorfler_min_cardinality(vals, theta)

    def test_greedy_equals_exhaustive_on_meshes(self):
        # estimator on real meshes up to 12 triangles, all thetas
        rng = np.random.default_rng(5)
        m = msh.preset_mesh("square", "clamped")
        meshes = [m, msh.refine_nvb(m, [0]), msh.uniform_refine(m)]
        for mm in meshes:
            assert mm.num_triangles <= 12
            S = sp.build_space(mm)
            u = rng.standard_normal(S.ndof)
            f = est.estimate(S, _Window([1.0], u[:, None]))
            for theta in np.arange(0.1, 0.95, 0.1):
                mk = est.dorfler_mark(f, float(theta))
                assert len(mk) == dorfler_min_cardinality(f.eta2, float(theta))

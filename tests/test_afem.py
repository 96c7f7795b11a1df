import dataclasses
import gc
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plate_afem import afem, assembly as asm, eigen as eig, estimator
from plate_afem import mesh as msh, space as sp
from plate_afem.afem import AfemConfig, ConfigError
from plate_afem.eigen import ClusterSplitError, EigenError

from oracles import (angle_to_reference_prolonged, hessian_features_prolonged,
                     patched_dense_cutoff, stiffness_kernel_dimension)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "square_clamped_theta05.json")


class TestConfig:
    def test_defaults_applied(self):
        cfg = AfemConfig.from_dict({"geometry": "square", "bc": "clamped",
                                    "J": {"n": 0, "N": 1}})
        assert cfg.theta == 0.5
        assert cfg.buffer == 4

    def test_invalid_theta(self):
        with pytest.raises(ConfigError):
            AfemConfig(theta=1.5)
        with pytest.raises(ConfigError):
            AfemConfig(theta=0.0)

    def test_invalid_window(self):
        with pytest.raises(ConfigError):
            AfemConfig(n=-1)
        with pytest.raises(ConfigError):
            AfemConfig(cluster_size=0)

    def test_unknown_key_strict(self):
        with pytest.raises(ConfigError):
            AfemConfig.from_dict({"geometry": "square", "bogus": 1})

    @pytest.mark.parametrize("key,value", [("edge_weight", "h_F"),
                                           ("eta2_floor", 1e-12),
                                           ("lower_bound_constant", 1.0)])
    def test_removed_option_keys_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            AfemConfig.from_dict({"geometry": "square", key: value})

    def test_buffer_floor(self):
        with pytest.raises(ConfigError):
            AfemConfig(buffer=1)

    @pytest.mark.parametrize("via,fields", [
        # constructor keywords of the wrong type or out of range
        ("init", {"max_ndof": 1.5}), ("init", {"n": True}),
        ("init", {"theta": float("nan")}),
        ("init", {"deterministic": "no"}), ("init", {"theta": "abc"}),
        ("init", {"mesh_file": ""}), ("init", {"bc": ("clamped", 3)}),
        # JSON documents: the window has the one spelling J, and a mesh file
        # takes the place of the preset
        ("json", {"J": {"n": 1}, "cluster_size": 3}), ("json", {"J": {"N": 2}, "n": 4}),
        ("json", {"J": {"n": True}}),
        ("json", {"mesh_file": "mesh.json", "geometry": "square"}),
        ("json", {"mesh_file": "mesh.json", "bc": "clamped"})])
    def test_rejected(self, via, fields):
        with pytest.raises(ConfigError):
            AfemConfig(**fields) if via == "init" else AfemConfig.from_dict(fields)

    def test_dense_cutoff_is_no_option(self):
        # the eigen path depends on the pencil alone
        with pytest.raises(TypeError):
            AfemConfig(dense_cutoff=5)
        with pytest.raises(ConfigError, match="unknown config keys"):
            AfemConfig.from_dict({"dense_cutoff": 5})

    def test_lower_bound_constant_is_no_field(self):
        # the lower bound's constant is the theorem's, not a setting
        assert "lower_bound_constant" not in vars(AfemConfig())
        with pytest.raises(TypeError):
            AfemConfig(lower_bound_constant=1.0)

    def test_one_check_per_field(self):
        assert list(afem._FIELDS) == [f.name for f in dataclasses.fields(AfemConfig)]

    def test_numpy_numbers_accepted(self):
        cfg = AfemConfig(n=np.int64(1), cluster_size=np.int64(2), max_levels=np.int32(3),
                         max_ndof=np.int64(500), buffer=np.int64(4), theta=np.float64(0.5))
        assert cfg.window_indices().tolist() == [2, 3]

    def test_partial_J_and_null_mesh_file_accepted(self):
        assert AfemConfig.from_dict({"J": {"n": 1}}).window_indices().tolist() == [2]
        assert AfemConfig.from_dict({"J": {"N": 2}}).window_indices().tolist() == [1, 2]
        assert AfemConfig.from_dict({"mesh_file": None, "geometry": "lshape"}).geometry == "lshape"


class TestRunAfem:
    def test_max_levels_zero_single_record(self):
        cfg = AfemConfig(geometry="square", bc="clamped", max_levels=0)
        tr = afem.run_afem(cfg)
        assert len(tr.levels) == 1
        assert tr.levels[0].level == 0

    def test_levels_record_the_eigen_path_that_ran(self):
        with patched_dense_cutoff(20):
            tr = afem.run_afem(AfemConfig(geometry="lshape", bc="mixed", max_levels=4))
        paths = [r.solver["path"] for r in tr.levels]
        assert paths == ["dense" if r.ndof <= 20 else "shift-invert"
                         for r in tr.levels]
        assert {"dense", "shift-invert"} <= set(paths)
        for r, cluster in zip(tr.levels, tr.clusters):
            assert r.solver["lanczos_solves"] == cluster.lanczos_solves
            assert (r.solver["lanczos_solves"] > 0) == (r.solver["path"] == "shift-invert")
            assert r.solver["factor_nnz"] == cluster.factor_nnz
            assert (r.solver["factor_nnz"] >= r.ndof if r.solver["path"] == "shift-invert"
                    else r.solver["factor_nnz"] == 0)
            assert r.solver["max_residual"] >= cluster.residuals.max()
            assert r.solver["b_orthonormality_residual"] == \
                cluster.b_orthonormality_residual

    def test_uniform_trace_marks_everything_and_times_refinement(self):
        cfg = AfemConfig(geometry="square", bc="clamped", max_levels=2)
        tr = afem.uniform_trace(cfg)
        assert [r.marked for r in tr.levels] == [r.num_triangles for r in tr.levels]
        assert all(r.timings["refine"] > 0.0 for r in tr.levels[:-1])
        assert tr.levels[-1].timings["refine"] == 0.0
        assert not tr.converged

    @pytest.mark.parametrize("value,marked", [(0.0, 0), (1e-15, 1)])
    def test_vanishing_estimator_stops_as_converged(self, monkeypatch, value, marked):
        # a total at most 1e-12 stops the loop; an all-zero field marks nothing
        def flat(space, cluster):
            return estimator.EstimatorField(eta2=np.full(space.mesh.num_triangles, value))

        monkeypatch.setattr(estimator, "estimate", flat)
        tr = afem.run_afem(AfemConfig(geometry="square", bc="clamped", max_levels=5))
        assert tr.converged
        assert [r.marked for r in tr.levels] == [marked]
        assert tr.levels[0].eta2_total == 2 * value

    def test_wall_time_is_the_sum_of_the_phase_timings(self, tmp_path):
        cfg = AfemConfig(geometry="lshape", bc="mixed", max_levels=3)
        tr = afem.run_afem(cfg)
        for r in tr.levels:
            assert r.wall_time == sum(r.timings.values()) > 0.0
        # the refinement of a level counts toward that level
        assert tr.levels[0].timings["refine"] > 0.0
        path = tmp_path / "t.csv"
        tr.to_csv(path)
        assert list(afem.read_trace_csv(path)["wall_time_s"]) == \
            [r.wall_time for r in tr.levels]
        cfg.deterministic = True
        tr.to_csv(path)
        assert not afem.read_trace_csv(path)["wall_time_s"].any()

    def test_theta_one_marks_full_support(self):
        cfg = AfemConfig(geometry="square", bc="clamped", theta=1.0,
                         max_levels=3)
        tr = afem.run_afem(cfg)
        for r, mesh, cluster in zip(tr.levels[:-1], tr.meshes, tr.clusters):
            from plate_afem.estimator import estimate
            space = sp.build_space(mesh)
            fld = estimate(space, cluster)
            assert r.marked == int(np.sum(fld.eta2 > 0))

    def test_golden_trace_regression(self):
        with open(GOLDEN) as fh:
            gold = json.load(fh)
        cfg = AfemConfig(geometry="square", bc="clamped", theta=0.5,
                         max_levels=8, deterministic=True)
        tr = afem.run_afem(cfg)
        assert [int(v) for v in tr.ndofs] == gold["ndof"]
        lam = np.array([r.eigenvalues[0] for r in tr.levels])
        assert np.allclose(lam, gold["lambda_1"], rtol=1e-6)
        eta = tr.column("eta2_total")
        assert np.allclose(eta, gold["eta2_total"], rtol=1e-6)
        # strictly increasing ndof, eta2 monotone decreasing past level 2
        assert np.all(np.diff(tr.ndofs) > 0)
        assert np.all(np.diff(eta[3:]) < 0)

    def test_split_window_aborts(self, tmp_path):
        m = msh.preset_mesh("square", "clamped")
        for _ in range(2):
            m = msh.uniform_refine(m)
        path = tmp_path / "mesh.json"
        msh.save_mesh(m, path)
        cfg = AfemConfig(geometry="square", bc="clamped", n=1, cluster_size=1,
                         mesh_file=str(path), max_levels=3)
        with pytest.raises(ClusterSplitError):
            afem.run_afem(cfg)

    def test_window_larger_than_space_rejected(self):
        cfg = AfemConfig(geometry="square", bc="clamped", n=1, cluster_size=1)
        with pytest.raises(EigenError):
            afem.run_afem(cfg)  # level-0 space has a single DOF

    def test_separation_finite_on_benchmarks(self):
        for geometry, bc in (("square", "clamped"), ("lshape", "mixed")):
            cfg = AfemConfig(geometry=geometry, bc=bc, theta=0.5, max_levels=6)
            tr = afem.run_afem(cfg)
            mj = tr.column("m_j")[2:]  # coarsest levels may truncate
            assert np.all(np.isfinite(mj))

    def test_deterministic_traces_byte_identical(self, tmp_path):
        cfg = AfemConfig(geometry="lshape", bc="mixed", theta=0.5,
                         max_levels=5, deterministic=True)
        p1, p2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        afem.run_afem(cfg).to_csv(p1)
        afem.run_afem(cfg).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_trace_csv_header_stable(self, tmp_path):
        cfg = AfemConfig(geometry="square", bc="clamped", max_levels=1)
        tr = afem.run_afem(cfg)
        path = tmp_path / "t.csv"
        tr.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == ("level,ndof,num_triangles,h_max,eta2_total,marked,"
                          "m_j,wall_time_s,lambda_1,lower_bound_1")
        cols = afem.read_trace_csv(path)
        assert len(cols["ndof"]) == len(tr.levels)


RIGID_BCS = [
    ("square", ["simply_supported", "free", "free", "free"]),
    ("square", "free"),
    ("lshape", ["free", "simply_supported", "free", "free", "free", "free"]),
    ("lshape", "free"),
]


class TestRigidBodyGuard:
    @pytest.mark.parametrize("geometry, bc", RIGID_BCS)
    @pytest.mark.parametrize("cutoff", [10 ** 9, 1])
    def test_rigid_configs_rejected_on_both_paths(self, geometry, bc, cutoff):
        cfg = AfemConfig(geometry=geometry, bc=bc, max_levels=3)
        with pytest.raises(ConfigError, match="rigid-body"), patched_dense_cutoff(cutoff):
            afem.run_afem(cfg)

    def test_rigid_config_rejected_by_uniform_trace(self):
        cfg = AfemConfig(geometry="square", bc="free", max_levels=1)
        with pytest.raises(ConfigError):
            afem.uniform_trace(cfg)

    @pytest.mark.parametrize("geometry, bc", [
        (g, bc) for g in ("square", "lshape", "triangle")
        for bc in ("clamped", "simply_supported", "mixed")
        if not (g == "triangle" and bc == "mixed")
    ] + RIGID_BCS + [
        ("triangle", "free"),
        ("square", ["clamped", "free", "free", "free"]),
        ("square", ["free", "simply_supported", "free", "simply_supported"]),
        ("square", ["free", "simply_supported", "simply_supported", "free"]),
        ("lshape", ["simply_supported", "free", "free", "free", "free",
                    "simply_supported"]),
        ("lshape", ["free", "free", "simply_supported", "free", "free", "free"]),
        ("lshape", ["free", "clamped", "free", "free", "free", "free"]),
        ("triangle", ["simply_supported", "free", "free"]),
        ("triangle", ["free", "simply_supported", "simply_supported"]),
    ])
    def test_affine_kernel_matches_stiffness_kernel(self, geometry, bc):
        m = msh.uniform_refine(msh.preset_mesh(geometry, bc))
        assert sp.affine_kernel_dimension(m) == \
            stiffness_kernel_dimension(sp.build_space(m))

    @given(st.sampled_from([("square", 4), ("lshape", 6)]).flatmap(
               lambda g: st.tuples(st.just(g[0]), st.lists(
                   st.sampled_from(["clamped", "simply_supported", "free"]),
                   min_size=g[1], max_size=g[1]))),
           st.sampled_from([10 ** 9, 1]))
    @settings(max_examples=60, deadline=None)
    def test_bc_lists_fail_loudly_or_stay_positive(self, case, cutoff):
        # every per-segment list of both presets gives lambda_1 >= 0.25 on
        # these levels unless it leaves a rigid-body mode
        geometry, bc = case
        cfg = AfemConfig(geometry=geometry, bc=bc, max_levels=2, max_ndof=400)
        try:
            with patched_dense_cutoff(cutoff):
                trace = afem.run_afem(cfg)
        except ConfigError:
            assert sp.affine_kernel_dimension(msh.preset_mesh(geometry, bc)) > 0
            return
        except EigenError:
            return
        assert min(level.eigenvalues[0] for level in trace.levels) >= 0.1


class TestReferenceCycles:
    def test_adaptive_run_leaves_no_cyclic_garbage(self):
        cfg = AfemConfig(geometry="lshape", bc="mixed", max_levels=64,
                         max_ndof=3000)
        gc.collect()
        gc.disable()
        try:
            trace = afem.run_afem(cfg)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert trace.levels[-1].ndof >= 3000


class TestSpaceLifetime:
    def test_no_earlier_space_outlives_its_level(self, monkeypatch):
        # each level's space is built from the previous one, which must then
        # be released: before the level's eigensolve, and after the run
        import weakref

        refs, alive_at_solve = [], []
        build, solve = afem.build_space, eig.solve_gevp

        def tracked_build(*args, **kwargs):
            space = build(*args, **kwargs)
            refs.append(weakref.ref(space))
            return space

        def counted_solve(*args, **kwargs):
            alive_at_solve.append(sum(r() is not None for r in refs))
            return solve(*args, **kwargs)

        monkeypatch.setattr(afem, "build_space", tracked_build)
        monkeypatch.setattr(eig, "solve_gevp", counted_solve)
        trace = afem.run_afem(AfemConfig(geometry="lshape", bc="mixed",
                                         max_levels=64, max_ndof=2000))
        assert len(refs) == len(trace.levels) > 5
        assert alive_at_solve == [1] * len(refs)
        assert all(r() is None for r in refs)


class TestTraceMemory:
    def test_trace_keeps_only_the_window_vectors(self):
        # ndof x N floats per level, not the solve's ndof x (n + N + buffer) block
        cfg = AfemConfig(geometry="lshape", bc="mixed", max_levels=64, max_ndof=3000)
        trace = afem.run_afem(cfg)
        owned = [c.vectors if c.vectors.base is None else c.vectors.base
                 for c in trace.clusters]
        assert sum(v.nbytes for v in owned) == 8 * cfg.cluster_size * int(trace.ndofs.sum())


class TestRates:
    def test_synthetic_inverse_ndof(self):
        nd = np.array([10, 20, 40, 80, 160, 320])
        vals = 1.0 / nd
        slope = afem.fit_rate(nd, vals, ndof0=0)
        assert slope == pytest.approx(-1.0, abs=0.01)

    def test_synthetic_constant(self):
        nd = np.array([10, 20, 40, 80, 160])
        slope = afem.fit_rate(nd, np.full(5, 3.14), ndof0=0)
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_too_few_levels(self):
        with pytest.raises(ValueError):
            afem.fit_rate([1, 2, 3], [1.0, 0.5, 0.25])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            afem.fit_rate([1, 2, 3, 4], [1.0, 0.5, 0.0, -0.1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_rejected(self, bad):
        # NaN compares false with 0, so a positivity test alone lets it through
        with pytest.raises(ValueError, match="finite positive values"):
            afem.fit_rate([1, 2, 3, 4], [1.0, 0.5, 0.25, bad])

    @pytest.mark.parametrize("tail", [0, 1, 7, 100, -2, 2.5, True])
    def test_tail_outside_the_levels_rejected(self, tail):
        # a tail of 1 would fit a one-point "slope", one of 100 all 6 levels
        nd = np.array([10, 20, 40, 80, 160, 320])
        with pytest.raises(ValueError, match="tail must be an integer from 2 to 6"):
            afem.fit_rate(nd, 1.0 / nd, ndof0=0, tail=tail)

    @pytest.mark.parametrize("tail", [2, 6, np.int64(3)])
    def test_tail_inside_the_levels_fits(self, tail):
        nd = np.array([10, 20, 40, 80, 160, 320])
        # the fit is against log(ndof - ndof0 + 1), so 1 / (ndof + 1) has slope -1
        assert afem.fit_rate(nd, 1.0 / (nd + 1), ndof0=0, tail=tail) == pytest.approx(-1.0)

    def test_quantity_rate_of_a_trace(self):
        cfg = AfemConfig(geometry="square", bc="clamped", theta=0.5,
                         max_levels=6)
        tr = afem.run_afem(cfg)
        cols = (tr.ndofs, tr.column("eta2_total"), tr.eigenvalue_matrix())
        s_eta = afem.quantity_rate(*cols, "eta2")
        assert np.isfinite(s_eta)
        s_lam = afem.quantity_rate(*cols, "lambda_err", reference=1294.96)
        assert np.isfinite(s_lam)
        with pytest.raises(ValueError):
            afem.quantity_rate(*cols, "lambda_err")
        with pytest.raises(ValueError):
            afem.quantity_rate(*cols, "bogus")


class TestRichardson:
    def test_exact_algebraic_sequence(self):
        # v_k = limit - c * 4^-k reproduces the limit to 1e-10
        limit, c = 1294.9339, 815.0
        vals = [limit - c * 4.0 ** (-k) for k in range(6)]
        got, ratio, unc, ok = afem.richardson_extrapolate(vals)
        assert ok
        assert got == pytest.approx(limit, abs=1e-10)
        assert ratio == pytest.approx(4.0, rel=1e-6)

    def test_non_monotone_flagged(self):
        got, ratio, unc, ok = afem.richardson_extrapolate([1.0, 2.0, 1.5, 1.8])
        assert not ok
        assert np.isinf(unc)

    def test_needs_three_terms(self):
        with pytest.raises(ValueError):
            afem.richardson_extrapolate([1.0, 2.0])


class TestReference:
    @pytest.mark.parametrize("J", [[1, 3], [2, 2], [], [1.0]])
    def test_window_must_be_consecutive(self, J):
        with pytest.raises(ConfigError, match="consecutive"):
            afem.reference_eigenvalues("square", "clamped", J, 100)

    def test_reference_smoke_and_reliability(self):
        ref = afem.reference_eigenvalues("square", "clamped", [1], 1500)
        assert ref.reliable[0]
        assert 1200 < ref.limits[0] < 1400
        assert ref.uncertainties[0] < 100

    def test_simply_supported_square_matches_series_value(self):
        # the first simply supported eigenvalue on the unit square is
        # (2 pi^2)^2; the extrapolated value must agree within its own
        # uncertainty estimate (computed, then verified here)
        ref = afem.reference_eigenvalues("square", "simply_supported", [1],
                                         8000)
        exact = 4.0 * np.pi ** 4
        assert abs(ref.limits[0] - exact) <= max(3 * ref.uncertainties[0], 0.05)


def _stretched_clamped_square(path):
    # the clamped square refined twice and stretched to (8x, y/8), which
    # keeps every area: h_T = 1/8 everywhere, but the diagonals are 2.0002 long
    doc = msh.mesh_to_dict(msh.uniform_refine(msh.uniform_refine(
        msh.preset_mesh("square", "clamped"))))
    doc["vertices"] = (np.array(doc["vertices"]) * [8.0, 0.125]).tolist()
    path.write_text(json.dumps(doc))


class TestLowerBoundBacked:
    """The traced lower bounds stay below a reference for the exact value."""

    def test_stretched_clamped_mesh_file(self, tmp_path):
        path = tmp_path / "stretched.json"
        _stretched_clamped_square(path)
        cfg = AfemConfig(mesh_file=str(path), max_levels=3, max_ndof=10 ** 6)
        # level 0 of this mesh fails the dense path's diagonality gate
        with patched_dense_cutoff(0):
            tr = afem.uniform_trace(cfg)
        lam = tr.eigenvalue_matrix()[:, 0]
        lows = tr.column("lower_bounds")[:, 0]
        assert tr.meshes[0].max_diameter == pytest.approx(2.0002, abs=1e-4)
        assert lam[0] == pytest.approx(7.496, abs=1e-3)
        # with h_max = 1/8 in place of H the formula would claim 7.442
        assert lows[0] == pytest.approx(0.837, abs=1e-3)
        # λ_h still grows 16-fold per level here, so the extrapolation flags
        # itself unreliable and returns the finest value
        limit, _, _, reliable = afem.richardson_extrapolate(lam)
        assert not reliable
        assert np.all(lows <= limit)
        # a proved lower bound of the clamped λ₁: μ₁², with μ₁ = π²(8⁻² + 8²)
        # the first Dirichlet Laplace eigenvalue of the 8 x 1/8 rectangle
        assert np.all(lows <= (np.pi ** 2 * (8.0 ** -2 + 8.0 ** 2)) ** 2)

    def test_mixed_lshape(self):
        # the argument of eigen.lower_bound covers free and simply supported
        # parts too, so the bound is a number, not nan
        ref = afem.reference_eigenvalues("lshape", "mixed", [1], 12000)
        assert ref.reliable[0]
        tr = afem.run_afem(AfemConfig(geometry="lshape", bc="mixed", max_ndof=3000))
        lows = tr.column("lower_bounds")[:, 0]
        assert np.all(np.isfinite(lows)) and np.all(lows > 0)
        assert np.all(lows <= ref.limits[0])
        assert np.all(lows < tr.eigenvalue_matrix()[:, 0])


class TestAngles:
    def _solve(self, mesh, count):
        S = sp.build_space(mesh)
        with patched_dense_cutoff(5000):
            sol = eig.solve_gevp(asm.assemble_stiffness(S), asm.assemble_mass(S), count)
        return S, sol

    def test_identical_subspace_zero(self):
        m = msh.uniform_refine(msh.preset_mesh("square", "clamped"))
        S, sol = self._solve(m, 2)
        c = sol.window(0, 1)
        assert afem.angle_to_reference(S, c, S, c) <= 1e-10

    def test_distinct_eigenvectors_orthogonal(self):
        m = msh.preset_mesh("square", "clamped")
        for _ in range(2):
            m = msh.uniform_refine(m)
        S, sol = self._solve(m, 2)
        a = afem.angle_to_reference(S, sol.window(0, 1), S, sol.window(1, 1))
        assert a == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch_rejected(self):
        m = msh.uniform_refine(msh.preset_mesh("square", "clamped"))
        S, sol = self._solve(m, 3)
        with pytest.raises(EigenError):
            afem.angle_to_reference(S, sol.window(0, 1), S, sol.window(0, 2))

    @pytest.mark.parametrize("n,N", [(0, 1), (1, 2)])
    def test_equals_per_column_prolongation_bit_for_bit(self, n, N):
        # the reference mesh is three bisection steps toward the reentrant
        # corner from the once uniformly refined mixed L-shape
        coarse = msh.uniform_refine(msh.preset_mesh("lshape", "mixed"))
        fine = coarse
        for _ in range(3):
            fine = msh.refine_nvb(fine, np.nonzero(
                np.linalg.norm(fine.centroids, axis=1) < 0.4)[0])
        S, sol = self._solve(coarse, n + N + 1)
        Sf, solf = self._solve(fine, n + N + 1)
        c, cf = sol.window(n, N), solf.window(n, N)
        for space, cluster in ((S, c), (Sf, cf)):
            got = afem._hessian_feature_block(space, cluster.vectors, fine)
            want = hessian_features_prolonged(space, cluster.vectors, fine)
            assert got.shape == (3 * fine.num_triangles, N)
            assert got.tobytes() == want.tobytes()
        a = afem.angle_to_reference(S, c, Sf, cf)
        assert a == angle_to_reference_prolonged(S, c, Sf, cf)
        assert 0.0 < a < 1.0

    def test_reference_must_refine_the_level_mesh(self):
        S, sol = self._solve(msh.preset_mesh("square", "clamped"), 1)
        Sf, solf = self._solve(msh.uniform_refine(msh.preset_mesh("square", "clamped")), 1)
        with pytest.raises(msh.MeshError, match="not a refinement"):
            afem.angle_to_reference(S, sol.window(0, 1), Sf, solf.window(0, 1))

    def test_angles_decrease_towards_reference(self):
        meshes = [msh.preset_mesh("square", "clamped")]
        for _ in range(4):
            meshes.append(msh.uniform_refine(meshes[-1]))
        Sref, solref = self._solve(meshes[-1], 2)
        ref = (Sref, solref.window(0, 1))
        angles = []
        for m in meshes[1:-1]:
            S, sol = self._solve(m, 2)
            angles.append(afem.angle_to_reference(S, sol.window(0, 1), *ref))
        assert np.all(np.diff(angles) < 0)
        assert angles[-1] < 0.5


class TestClusterWindow:
    def test_two_member_window_on_double_eigenvalue(self, tmp_path):
        # the square's second and third eigenvalues coincide; treating them
        # as one window keeps the separation finite and the loop running
        m = msh.uniform_refine(msh.uniform_refine(msh.preset_mesh("square", "clamped")))
        path = tmp_path / "start.json"
        msh.save_mesh(m, path)
        cfg = AfemConfig(geometry="square", bc="clamped", n=1, cluster_size=2,
                         theta=0.5, max_levels=8, buffer=3,
                         mesh_file=str(path))
        tr = afem.run_afem(cfg)
        assert len(tr.levels) == 9
        for r in tr.levels:
            assert np.isfinite(r.m_j)
            assert r.eigenvalues[0] <= r.eigenvalues[1]
            assert len(r.lower_bounds) == 2
        # adaptive meshes break the square's symmetry slightly; the window
        # members stay nearly coincident and re-approach under refinement
        gap = [abs(r.eigenvalues[1] - r.eigenvalues[0]) / r.eigenvalues[1]
               for r in tr.levels]
        assert max(gap) < 0.05
        assert gap[-1] < max(gap) / 10

    def test_two_member_window_angle_to_reference(self):
        meshes = [msh.preset_mesh("square", "clamped")]
        for _ in range(3):
            meshes.append(msh.uniform_refine(meshes[-1]))
        def solve(mesh):
            S = sp.build_space(mesh)
            with patched_dense_cutoff(5000):
                sol = eig.solve_gevp(asm.assemble_stiffness(S), asm.assemble_mass(S), 4)
            return S, sol.window(1, 2)
        Sref, cref = solve(meshes[-1])
        angles = []
        for m in meshes[1:-1]:
            S, c = solve(m)
            angles.append(afem.angle_to_reference(S, c, Sref, cref))
        assert angles[-1] < angles[0]
        assert all(0.0 <= a <= 1.0 + 1e-12 for a in angles)

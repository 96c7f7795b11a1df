import json
import os
import subprocess
import sys

import pytest

from oracles import spectrum_csv_resolved
from plate_afem import cli
from plate_afem.afem import AfemConfig


def run_cli(args):
    return cli.main(args)


@pytest.fixture
def square_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "geometry": "square", "bc": "clamped", "J": {"n": 0, "N": 1},
        "theta": 0.5, "max_levels": 5,
    }))
    return str(path)


class TestRun:
    def test_run_writes_trace_and_manifest(self, square_config, tmp_path):
        out = str(tmp_path / "trace.csv")
        assert run_cli(["run", "--config", square_config, "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0].startswith("level,ndof,")
        assert len(lines) == 7  # header + 6 levels
        manifest = json.load(open(out + ".manifest.json"))
        assert manifest["levels"] == 6
        assert len(manifest["mesh_hashes"]) == 6
        for path in manifest["outputs"]:
            assert os.path.exists(path) and os.path.getsize(path) > 0

    def test_manifest_records_phase_timings_and_solver_diagnostics(
            self, square_config, tmp_path):
        out = str(tmp_path / "trace.csv")
        assert run_cli(["run", "--config", square_config, "--out", out]) == 0
        per_level = json.load(open(out + ".manifest.json"))["per_level"]
        assert [r["level"] for r in per_level] == list(range(6))
        for r in per_level:
            t = r["timings"]
            assert set(t) == {"build_space", "assemble", "solve", "estimate",
                              "mark", "refine"}
            assert all(v > 0.0 for k, v in t.items() if k != "refine")
            d = r["solver"]
            assert d["path"] == "dense"  # ndof stays below the cutoff
            assert d["lanczos_solves"] == 0
            assert d["factor_nnz"] == 0
            assert 0.0 <= d["max_residual"]
            assert d["b_orthonormality_residual"] <= 1e-10
            assert d["a_diagonality_residual"] <= 1e-8
            assert d["affine_kernel_dimension"] == 0
        # level 0 has one DOF, so nothing outside the window was computed
        assert per_level[0]["solver"]["truncated"] is True
        assert per_level[0]["solver"]["nearest_gap"] is None
        assert "NaN" not in open(out + ".manifest.json").read()
        for r in per_level[1:]:
            assert r["solver"]["nearest_gap"] > 0.0
            assert r["solver"]["truncated"] is False
        # every level but the last is refined
        assert all(r["timings"]["refine"] > 0.0 for r in per_level[:-1])
        assert per_level[-1]["timings"]["refine"] == 0.0

    def test_manifest_records_the_lower_bound(self, tmp_path):
        from plate_afem import afem, eigen

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"geometry": "lshape", "bc": "mixed", "max_levels": 4}))
        out = str(tmp_path / "trace.csv")
        assert run_cli(["run", "--config", str(path), "--out", out]) == 0
        record = json.load(open(out + ".manifest.json"))["lower_bound"]
        # every boundary part is covered, so the run's bounds are backed
        assert record["backed"] is True and record["kappa"] == eigen.KAPPA
        assert record["boundary_parts"] == ["clamped", "free", "simply_supported"]
        # the L-shape's coarse triangles have unit legs; each trace bound is
        # the bound of its level's eigenvalue and H
        assert record["H"][0] == 2 ** 0.5 and len(record["H"]) == 5
        cols = afem.read_trace_csv(out)
        assert [eigen.lower_bound(lam, H) for lam, H in zip(cols["lambda_1"], record["H"])] \
            == cols["lower_bound_1"].tolist()

    def test_deterministic_manifest_zeroes_timings(self, square_config, tmp_path):
        out = str(tmp_path / "trace.csv")
        assert run_cli(["run", "--config", square_config, "--out", out,
                        "--deterministic"]) == 0
        per_level = json.load(open(out + ".manifest.json"))["per_level"]
        assert len(per_level) == 6
        assert all(v == 0.0 for r in per_level for v in r["timings"].values())
        assert per_level[0]["solver"]["path"] == "dense"

    def test_config_deterministic_caps_threads(self, tmp_path, monkeypatch):
        for var in cli._THREAD_VARS + ("PLATE_AFEM_THREADS",):
            monkeypatch.delenv(var, raising=False)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"geometry": "square", "max_levels": 1,
                                    "deterministic": True}))
        out = str(tmp_path / "trace.csv")
        assert run_cli(["run", "--config", str(path), "--out", out]) == 0
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
        per_level = json.load(open(out + ".manifest.json"))["per_level"]
        assert all(v == 0.0 for r in per_level for v in r["timings"].values())

    def test_missing_config_exit_2(self, tmp_path):
        out = str(tmp_path / "t.csv")
        assert run_cli(["run", "--config", str(tmp_path / "nope.json"),
                        "--out", out]) == 2

    def test_malformed_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["run", "--config", str(bad),
                        "--out", str(tmp_path / "t.csv")]) == 2

    @pytest.mark.parametrize("doc", ["null", "[]", "3",
                                     '[["theta", 0.3], ["max_levels", 1]]'])
    def test_config_not_an_object_exit_2(self, doc, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(doc)
        out = tmp_path / "t.csv"
        assert run_cli(["run", "--config", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("malformed config: expected a JSON object")
        assert not out.exists()

    @pytest.mark.parametrize("doc", [
        '{"J": 3}', '{"theta": "abc"}', '{"max_levels": "x"}', '{"bc": 5}',
        '{"buffer": 2.5}', '{"mesh_file": 3}', '{"theta": NaN}',
        '{"n": true}', '{"max_ndof": 1.5}', '{"J": {"n": 0, "N": 1, "x": 2}}',
        '{"deterministic": "yes"}', '{"bc": ["clamped", 5]}',
        '{"max_ndof": Infinity}', '{"geometry": ["square"]}'])
    def test_wrongly_typed_value_exit_2(self, doc, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(doc)
        out = tmp_path / "t.csv"
        assert run_cli(["run", "--config", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("invalid config: ")
        assert not out.exists()

    def test_invalid_theta_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"geometry": "square", "theta": 1.5}))
        assert run_cli(["run", "--config", str(bad),
                        "--out", str(tmp_path / "t.csv")]) == 2

    def test_unknown_key_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"geometry": "square", "typo_key": 1}))
        assert run_cli(["run", "--config", str(bad),
                        "--out", str(tmp_path / "t.csv")]) == 2

    @pytest.mark.parametrize("key,value", [("edge_weight", "h_F"),
                                           ("eta2_floor", 0.0), ("dense_cutoff", 5),
                                           ("lower_bound_constant", 1.0)])
    def test_removed_option_key_exit_2(self, key, value, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"geometry": "square", key: value}))
        assert run_cli(["run", "--config", str(bad),
                        "--out", str(tmp_path / "t.csv")]) == 2
        assert key in capsys.readouterr().err

    def test_deterministic_byte_identical(self, square_config, tmp_path):
        out1 = str(tmp_path / "t1.csv")
        out2 = str(tmp_path / "t2.csv")
        assert run_cli(["run", "--config", square_config, "--out", out1,
                        "--deterministic"]) == 0
        assert run_cli(["run", "--config", square_config, "--out", out2,
                        "--deterministic"]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()
        m1 = open(out1 + ".manifest.json").read().replace("t1.csv", "X")
        m2 = open(out2 + ".manifest.json").read().replace("t2.csv", "X")
        assert m1 == m2

    def test_manifest_config_lists_only_the_keys_that_took_effect(
            self, square_config, tmp_path):
        out = str(tmp_path / "preset.csv")
        assert run_cli(["run", "--config", square_config, "--out", out]) == 0
        config = json.load(open(out + ".manifest.json"))["config"]
        assert config["geometry"] == "square" and config["bc"] == "clamped"
        assert "mesh_file" not in config

        mesh = tmp_path / "mesh.json"
        assert run_cli(["mesh-export", "--refine", "1", "--out", str(mesh)]) == 0
        cfg = tmp_path / "file.json"
        cfg.write_text(json.dumps({"mesh_file": str(mesh), "max_levels": 2}))
        manifests = []
        for name in ("f1.csv", "f2.csv"):
            out = str(tmp_path / name)
            assert run_cli(["run", "--config", str(cfg), "--out", out,
                            "--deterministic"]) == 0
            manifests.append(open(out + ".manifest.json").read().replace(name, "X"))
        config = json.loads(manifests[0])["config"]
        assert config["mesh_file"] == str(mesh)
        assert not {"geometry", "bc"} & set(config)
        assert set(config) == set(vars(AfemConfig())) - {"geometry", "bc"}
        assert manifests[0] == manifests[1]

    @pytest.mark.parametrize("flags", [[], ["--deterministic"]])
    def test_manifest_records_the_environment_before_the_thread_cap(
            self, square_config, tmp_path, monkeypatch, flags):
        import platform

        import numpy as np
        import scipy
        for var in cli._THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("PLATE_AFEM_THREADS", "3")
        out = str(tmp_path / "trace.csv")
        assert run_cli(["run", "--config", square_config, "--out", out] + flags) == 0
        assert os.environ["OMP_NUM_THREADS"] == ("1" if flags else "3")   # the cap ran
        env = json.load(open(out + ".manifest.json"))["environment"]
        assert env == {
            "thread_variables": {"OMP_NUM_THREADS": None, "OPENBLAS_NUM_THREADS": None,
                                 "MKL_NUM_THREADS": None, "NUMEXPR_NUM_THREADS": None,
                                 "PLATE_AFEM_THREADS": "3"},
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}

    def test_dump_mesh(self, square_config, tmp_path):
        out = str(tmp_path / "trace.csv")
        meshdir = str(tmp_path / "meshes")
        assert run_cli(["run", "--config", square_config, "--out", out,
                        "--dump-mesh", meshdir]) == 0
        files = sorted(os.listdir(meshdir))
        assert files[0] == "mesh_level_0.json"
        assert len(files) == 6


class TestRates:
    def test_rates_from_trace(self, square_config, tmp_path, capsys):
        out = str(tmp_path / "trace.csv")
        run_cli(["run", "--config", square_config, "--out", out])
        assert run_cli(["rates", out, "--quantity", "eta2"]) == 0
        captured = capsys.readouterr().out
        assert "eta2 rate vs ndof:" in captured

    def test_rates_missing_file(self, tmp_path):
        assert run_cli(["rates", str(tmp_path / "absent.csv")]) == 2

    def test_lambda_err_requires_reference(self, square_config, tmp_path):
        out = str(tmp_path / "trace.csv")
        run_cli(["run", "--config", square_config, "--out", out])
        assert run_cli(["rates", out, "--quantity", "lambda_err"]) == 2
        assert run_cli(["rates", out, "--quantity", "lambda_err",
                        "--reference", "1294.96"]) == 0


class TestReference:
    def test_reference_with_spectrum_dump(self, tmp_path, capsys):
        out = str(tmp_path / "spectrum.csv")
        assert run_cli(["reference", "--geometry", "square", "--bc", "clamped",
                        "--J", "1", "--ndof", "600", "--out", out]) == 0
        text = capsys.readouterr().out
        assert "lambda_1: extrapolated" in text
        lines = open(out).read().splitlines()
        assert lines[0] == "index,eigenvalue,residual,lower_bound"
        first = lines[1].split(",")
        assert float(first[3]) <= float(first[1])

    @pytest.mark.parametrize("geometry,bc,J,ndof", [
        ("lshape", "mixed", 1, 800), ("lshape", "mixed", 3, 800),
        ("lshape", "mixed", 5, 800), ("square", "clamped", 1, 200)])
    def test_spectrum_dump_equals_a_fresh_solve_of_the_finest_level(
            self, geometry, bc, J, ndof, tmp_path):
        # the finest level is shift-invert on the L-shape (ndof 3087) and
        # dense on the square (ndof 225)
        out, want = tmp_path / "spectrum.csv", tmp_path / "want.csv"
        assert run_cli(["reference", "--geometry", geometry, "--bc", bc,
                        "--J", str(J), "--ndof", str(ndof), "--out", str(out)]) == 0
        spectrum_csv_resolved(want, geometry, bc, J, ndof)
        assert out.read_bytes() == want.read_bytes()

    def test_one_eigensolve_per_level(self, tmp_path, monkeypatch):
        from plate_afem import afem, eigen

        solve, ndofs = eigen.solve_gevp, []

        def counting(A, M, count, **kwargs):
            ndofs.append(A.shape[0])
            return solve(A, M, count, **kwargs)

        monkeypatch.setattr(eigen, "solve_gevp", counting)
        assert run_cli(["reference", "--geometry", "lshape", "--bc", "mixed",
                        "--J", "2", "--ndof", "800",
                        "--out", str(tmp_path / "spectrum.csv")]) == 0
        monkeypatch.undo()
        ref = afem.reference_eigenvalues("lshape", "mixed", [1, 2], 800)
        assert ndofs == list(ref.ndofs)


class TestHelmholtzAudit:
    @pytest.mark.parametrize("geometry,bc", [
        ("square", "clamped"), ("lshape", "mixed"),
        ("lshape", "simply_supported"),
    ])
    def test_audit_passes(self, geometry, bc, tmp_path):
        out = str(tmp_path / "report.json")
        code = run_cli(["helmholtz-audit", "--geometry", geometry,
                        "--bc", bc, "--out", out])
        assert code == 0
        report = json.load(open(out))
        assert report["euler_ok"] and report["dim_identity_ok"]
        assert report["residuals"]["decomposition_relative"] <= 1e-9

    def test_audit_passes_with_rigid_body_modes(self, tmp_path):
        # all-free square: the three affine functions lie in the space
        out = str(tmp_path / "report.json")
        assert run_cli(["helmholtz-audit", "--geometry", "square", "--bc", "free",
                        "--refine", "1", "--out", out]) == 0
        report = json.load(open(out))
        assert report["residuals"]["decomposition_relative"] <= 1e-9

    def test_audit_passes_at_6144_triangles(self, tmp_path):
        # dims recorded from the dense-basis implementation of the audit
        out = str(tmp_path / "report.json")
        assert run_cli(["helmholtz-audit", "--geometry", "lshape", "--bc", "mixed",
                        "--refine", "5", "--out", out]) == 0
        report = json.load(open(out))
        assert report["residuals"]["decomposition_relative"] <= 1e-9
        assert report["dims"] == {
            "num_vertices": 3201, "num_triangles": 6144, "num_edges": 9344,
            "num_interior_edges": 9088, "ndof": 12319, "dim_x": 6113,
            "dim_x_expected": 6113, "rank_hessian_map": 12319,
            "rank_sym_curl_map": 6113}


class TestMeshExport:
    def test_export_and_reload(self, tmp_path):
        out = str(tmp_path / "mesh.json")
        assert run_cli(["mesh-export", "--geometry", "lshape",
                        "--bc", "clamped", "--refine", "1", "--out", out]) == 0
        from plate_afem.mesh import load_mesh
        m = load_mesh(out)
        assert m.num_triangles == 24


class TestOutOfRangeOptions:
    """Out-of-range options fail with exit code 2 before any mesh is built
    or any eigenvalue is solved, whether or not ``--out`` is given."""

    @pytest.mark.parametrize("args", [
        ["reference", "--J", "0"], ["reference", "--J", "-2"],
        ["helmholtz-audit", "--refine", "-1"], ["mesh-export", "--refine", "-1"],
        ["reference", "--ndof", "0"], ["reference", "--ndof", "-5"]])
    @pytest.mark.parametrize("with_out", [True, False])
    def test_rejected_up_front(self, args, with_out, tmp_path, capsys, monkeypatch):
        from plate_afem import afem, mesh

        def no_work(*_, **__):
            raise AssertionError("work started before the options were checked")

        monkeypatch.setattr(afem, "reference_eigenvalues", no_work)
        monkeypatch.setattr(mesh, "preset_mesh", no_work)
        out = tmp_path / "out"
        if with_out or args[0] == "mesh-export":
            args = args + ["--out", str(out)]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: --")
        assert not out.exists()

    def test_lower_bound_constant_is_no_option(self, capsys, monkeypatch):
        from plate_afem import afem

        def no_work(*_, **__):
            raise AssertionError("work started on an unknown option")

        monkeypatch.setattr(afem, "reference_eigenvalues", no_work)
        with pytest.raises(SystemExit) as exc:
            run_cli(["reference", "--lower-bound-constant", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --lower-bound-constant" in capsys.readouterr().err

    def test_ndof_named_by_its_option(self, capsys):
        assert run_cli(["reference", "--ndof", "0"]) == 2
        assert capsys.readouterr().err == "invalid input: --ndof must be an integer >= 1, got 0\n"

    @pytest.mark.parametrize("reference", ["nan", "inf", "-inf"])
    def test_rates_reference_must_be_finite(self, reference, tmp_path, capsys, monkeypatch):
        from plate_afem import afem

        def no_work(*_, **__):
            raise AssertionError("the trace was read before --reference was checked")

        monkeypatch.setattr(afem, "read_trace_csv", no_work)
        argv = ["rates", str(tmp_path / "trace.csv"), "--quantity", "lambda_err",
                f"--reference={reference}"]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == (
            f"invalid input: --reference must be a finite number, got {reference}\n")


class TestUnusablePathExit:
    """A path that cannot be read or written, or a malformed trace, exits 2
    with a message instead of a traceback, before any work starts."""

    TRACES = {"HEADER": "level,ndof,eta2_total,lambda_1\n", "EMPTY": "",
              "NO_ETA2": "level,ndof,lambda_1\n" + "".join(
                  f"{k},{10 * 4 ** k},1.0\n" for k in range(4))}

    @pytest.mark.parametrize("argv", [
        ["run", "--config", "DIR", "--out", "OUT"],
        ["run", "--config", "CONFIG", "--out", "MISSING"],
        ["run", "--config", "CONFIG", "--out", "OUT", "--dump-mesh", "FILE"],
        ["mesh-export", "--out", "MISSING"], ["helmholtz-audit", "--out", "MISSING"],
        ["reference", "--out", "MISSING"],
        ["rates", "DIR"], ["rates", "HEADER"], ["rates", "EMPTY"], ["rates", "NO_ETA2"]],
        ids=" ".join)
    def test_exit_2(self, argv, square_config, tmp_path, capsys, monkeypatch):
        from plate_afem import afem, mesh

        def no_work(*_, **__):
            raise AssertionError("work started before the paths were checked")

        for module, name in ((afem, "run_afem"), (afem, "reference_eigenvalues"),
                             (mesh, "preset_mesh")):
            monkeypatch.setattr(module, name, no_work)
        trace = tmp_path / "trace.csv"
        trace.write_text(self.TRACES.get(argv[-1], "level\n"))
        paths = {"DIR": tmp_path, "MISSING": tmp_path / "absent" / "x", "FILE": trace,
                 "OUT": tmp_path / "t.csv", "CONFIG": square_config, **dict.fromkeys(
                     self.TRACES, trace)}
        assert run_cli([str(paths.get(word, word)) for word in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ") and "Traceback" not in err
        assert not (tmp_path / "t.csv").exists()


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        # the installed script must work in a fresh interpreter
        result = subprocess.run(
            [sys.executable, "-m", "plate_afem.cli", "mesh-export",
             "--geometry", "square", "--bc", "free",
             "--out", str(tmp_path / "m.json")],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


class TestThreadCap:
    def test_cli_import_does_not_load_numpy(self):
        # the thread-pool caps only take effect if numpy starts after them
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, plate_afem.cli; print('numpy' in sys.modules)"],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_non_integer_thread_count_exit_2(self, tmp_path):
        out = tmp_path / "m.json"
        result = subprocess.run(
            [sys.executable, "-m", "plate_afem.cli", "mesh-export", "--out", str(out)],
            capture_output=True, text=True,
            env=dict(os.environ, PLATE_AFEM_THREADS="abc"))
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("invalid input: PLATE_AFEM_THREADS")
        assert "Traceback" not in result.stderr
        assert not out.exists()


class TestRigidBodyExit:
    def test_rigid_body_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "geometry": "square",
            "bc": ["simply_supported", "free", "free", "free"],
        }))
        assert run_cli(["run", "--config", str(cfg),
                        "--out", str(tmp_path / "t.csv")]) == 2
        assert "rigid-body" in capsys.readouterr().err


class TestMeshFileExit:
    """A mesh file that cannot be read, or a config that names it wrongly,
    exits 2 with a message instead of a traceback."""

    @pytest.mark.parametrize("mesh_text,prefix", [
        (None, "invalid input: cannot read mesh file"),
        ('{"not": "a mesh"}', "invalid input: malformed mesh"),
        ("{not json", "invalid input: cannot read mesh file")])
    def test_unreadable_mesh_file_exit_2(self, mesh_text, prefix, tmp_path, capsys):
        mesh = tmp_path / "mesh.json"
        if mesh_text is not None:
            mesh.write_text(mesh_text)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mesh_file": str(mesh)}))
        out = tmp_path / "t.csv"
        assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(prefix)
        assert not out.exists()

    @pytest.mark.parametrize("refedge", [-1, 3])
    def test_refedge_outside_0_to_2_exit_2(self, refedge, tmp_path, capsys):
        mesh = tmp_path / "mesh.json"
        assert run_cli(["mesh-export", "--refine", "2", "--out", str(mesh)]) == 0
        doc = json.loads(mesh.read_text())
        doc["triangles"] = [row[:3] + [refedge] for row in doc["triangles"]]
        mesh.write_text(json.dumps(doc))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mesh_file": str(mesh)}))
        out = tmp_path / "t.csv"
        capsys.readouterr()
        assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ") and "refedge" in err
        assert not out.exists()

    @pytest.mark.parametrize("doc", [
        {"mesh_file": ""}, {"mesh_file": "mesh.json", "geometry": "square"},
        {"mesh_file": "mesh.json", "bc": "clamped"}])
    def test_mesh_file_config_exit_2(self, doc, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "t.csv"
        assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("invalid config: ")
        assert not out.exists()


class TestNumericalFailureExit:
    def test_window_too_large_exit_3(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "geometry": "square", "bc": "clamped", "J": {"n": 1, "N": 1},
            "max_levels": 1,
        }))
        assert run_cli(["run", "--config", str(cfg),
                        "--out", str(tmp_path / "t.csv")]) == 3

    def test_degenerate_element_exit_3(self, tmp_path, capsys):
        # a sliver triangle whose local dual basis fails the duality check
        from plate_afem.mesh import build_mesh, save_mesh
        sliver = build_mesh([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 1e-9)],
                            [(0, 4, 3), (4, 1, 2), (4, 2, 3), (0, 1, 4)],
                            [(0, 1, "clamped"), (1, 2, "clamped"), (2, 3, "clamped"),
                             (3, 0, "clamped")])
        save_mesh(sliver, str(tmp_path / "mesh.json"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mesh_file": str(tmp_path / "mesh.json"),
                                   "max_ndof": 200}))
        out = tmp_path / "t.csv"
        assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: local basis duality residual")
        assert not out.exists()

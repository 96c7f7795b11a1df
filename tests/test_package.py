"""The package's public names are imported lazily from their submodules
(PEP 562), so a stale entry would only fail when someone reads it: every
name in ``plate_afem.__all__`` is read here, and so is every entry of each
submodule's own ``__all__``, re-exported or not.  Importing the package and
its solve-free work (meshes, spaces, interpolation, mesh JSON, configs, the
``mesh-export`` and ``rates`` commands) load no scipy; a solve does."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import plate_afem

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(plate_afem.__path__))
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.mark.parametrize("name", plate_afem.__all__)
def test_public_name_resolves_through_lazy_getattr(name):
    module = importlib.import_module(f"plate_afem.{plate_afem._MODULE_OF[name]}")
    assert plate_afem.__getattr__(name) is getattr(module, name)
    assert name in module.__all__


@pytest.mark.parametrize("module_name", SUBMODULES)
def test_every_submodule_all_entry_resolves(module_name):
    module = importlib.import_module(f"plate_afem.{module_name}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


# Imports every submodule and builds every solve-free object, printing the
# scipy modules loaded by then; one small run_afem must then load scipy.
_SOLVE_FREE = """
import importlib, json, os, pkgutil, sys
import numpy as np
import plate_afem, plate_afem.cli
from plate_afem import afem, mesh, space
for info in pkgutil.iter_modules(plate_afem.__path__):
    importlib.import_module("plate_afem." + info.name)
for geometry in ("square", "lshape", "triangle"):
    for bc in ("clamped", "simply_supported", "free", "mixed"):
        if (geometry, bc) == ("triangle", "mixed"):
            continue
        coarse = mesh.uniform_refine(mesh.preset_mesh(geometry, bc))
        fine = mesh.refine_nvb(coarse, np.arange(0, coarse.num_triangles, 2))
        S = space.build_space(coarse)
        F = space.build_space(fine, S)
        space.morley_interpolate(S, F.to_broken(np.linspace(0.0, 1.0, F.ndof)))
        path = os.path.join(sys.argv[1], geometry + "-" + bc + ".json")
        mesh.save_mesh(fine, path)
        assert mesh.mesh_hash(mesh.load_mesh(path)) == mesh.mesh_hash(fine)
        afem.AfemConfig.from_dict({"geometry": geometry, "bc": bc, "max_levels": 3})
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
afem.run_afem(afem.AfemConfig(max_levels=2))
print(json.dumps([loaded, "scipy" in sys.modules]))
"""


def _imported_packages(stderr):
    # top-level package of every module that a -X importtime report lists
    return {line.rsplit("|", 1)[-1].strip().split(".")[0]
            for line in stderr.splitlines() if line.startswith("import time:")}


def test_solve_free_work_loads_no_scipy(tmp_path):
    done = subprocess.run([sys.executable, "-c", _SOLVE_FREE, str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    loaded, after_run = json.loads(done.stdout)
    assert loaded == []
    assert after_run


def test_mesh_export_and_rates_load_no_scipy(tmp_path):
    from plate_afem import afem
    trace = str(tmp_path / "trace.csv")
    afem.run_afem(afem.AfemConfig(max_levels=4)).to_csv(trace)
    for argv in (["mesh-export", "--refine", "2", "--out", str(tmp_path / "m.json")],
                 ["rates", trace]):
        done = subprocess.run([sys.executable, "-X", "importtime", "-m", "plate_afem.cli", *argv],
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        packages = _imported_packages(done.stderr)
        assert "numpy" in packages and "scipy" not in packages, argv


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'principal_angle'"):
        plate_afem.__getattr__("principal_angle")


def test_prolongation_is_no_library_name():
    from plate_afem import space
    assert not {"prolong_to_fine", "poly_shift"} & set(space.__all__)
    with pytest.raises(AttributeError):
        plate_afem.prolong_to_fine


def test_named_preset_builders_are_no_library_names():
    names = ("square_mesh", "lshape_mesh", "triangle_mesh")
    with pytest.raises(AttributeError):
        plate_afem.square_mesh
    for module_name in SUBMODULES:
        module = importlib.import_module(f"plate_afem.{module_name}")
        assert not set(names) & set(module.__all__), module_name
    assert not set(names) & set(plate_afem.__all__)


def test_names_the_benchmark_reaches_resolve():
    # the benchmark wraps the layer functions of tracing.TARGETS and reads
    # these attributes in workloads.py; dropping one from the library would
    # otherwise pass this suite and fail only in the benchmark
    if PERFBENCH not in sys.path:
        sys.path.insert(0, PERFBENCH)
    import tracing      # standard library only

    from plate_afem import afem, estimator, helmholtz, mesh, space

    for module_name, attr, _, _ in tracing.TARGETS:
        module = importlib.import_module(f"plate_afem.{module_name}")
        assert callable(getattr(module, attr, None)), (module_name, attr)

    m = mesh.uniform_refine(mesh.preset_mesh("square", "mixed"))
    S = space.build_space(m)
    assert helmholtz.build_xspace(m).basis.ndim == 2
    assert S.basis.shape == (m.num_triangles, 6, 6)
    assert S.basis_hessians.shape == (m.num_triangles, 6, 3)
    assert isinstance(S.to_broken(np.zeros(S.ndof)), space.BrokenFunction)
    assert estimator.EstimatorField(eta2=np.ones(2)).eta2.shape == (2,)
    assert afem.AfemTrace(config=afem.AfemConfig()).ndofs.shape == (0,)

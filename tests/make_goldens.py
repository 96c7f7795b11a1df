"""Regenerate the golden regression records under tests/golden/.

Run from the repository root:

    python3 tests/make_goldens.py                       # write every record
    python3 tests/make_goldens.py --write NAME [NAME ...] # write the named records only
    python3 tests/make_goldens.py NAME [NAME ...]         # print records as JSON, write nothing

``square_clamped_theta05`` is the J={1} trace of the clamped square with
the estimator efficiency ratio of every level against an extrapolated
reference.  ``square_clamped_J23_path`` is the adaptive path of the window
J={2,3} started from the twice uniformly refined clamped square: the mesh
hash, ndof and marked count of every level.  ``lshape_mixed_J1_path`` is
the same record for the benchmark's reference run (``lshape_adaptive``:
the mixed L-shape, J={1}, theta 0.5, ``max_ndof`` 20000).  The two runs
are ``square_clamped_J23`` to ``max_ndof`` 5000 and ``lshape_mixed_J1`` to
20000, as ``tests/level_digest.py`` configures them.  A marking tie flip
that keeps every count shows there as a changed hash.
``level_digests`` holds what ``tests/level_digest.py --max-ndof 1500``
prints for each of its names, which covers dense and shift-invert
levels and the Morley interpolants from uniform and newest-vertex
bisection refinements: a change that moves any level's arrays or any
interpolant by one bit moves a digest.
``preset_meshes`` maps ``"geometry|bc"`` to the ``mesh_hash`` of
``preset_mesh(geometry, bc)`` for every geometry with each single label,
``mixed`` where a geometry has it, and one mixed per-segment list per
geometry (joined by ``,`` in the key).

BLAS runs on one thread, set before numpy loads, as in the benchmark
(``perfbench/run.configure_threads``): adaptive paths depend on the thread
count.  Regenerate a record only in a change that moves it on purpose and
lists each moved level in CHANGES.md, and regenerate only the records that
change moves (``--write NAME``): rewriting one to make its test pass hides
the regression the record exists to catch.
"""

import json
import os
import subprocess
import sys
import tempfile

import level_digest  # pins BLAS to one thread and finds the sources before numpy loads
import run  # put on the path by level_digest

from plate_afem import afem, mesh

ROOT = level_digest.ROOT
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")


def square_clamped_theta05():
    cfg = afem.AfemConfig(geometry="square", bc="clamped", n=0, cluster_size=1,
                          theta=0.5, max_levels=8, deterministic=True)
    trace = afem.run_afem(cfg)
    ref = afem.reference_eigenvalues("square", "clamped", [1], 20000)
    lam_ref = float(ref.limits[0])
    ratios = [float(r.eta2_total / abs(lam_ref - r.eigenvalues[0]))
              for r in trace.levels]
    return {
        "config": {"geometry": "square", "bc": "clamped", "theta": 0.5,
                   "max_levels": 8, "J": [1]},
        "lambda_ref": lam_ref,
        "lambda_ref_uncertainty": float(ref.uncertainties[0]),
        "ndof": [int(v) for v in trace.ndofs],
        "lambda_1": [float(r.eigenvalues[0]) for r in trace.levels],
        "eta2_total": [float(r.eta2_total) for r in trace.levels],
        "efficiency_ratio": ratios,
    }


def _path(trace):
    return {"ndof": [int(r.ndof) for r in trace.levels],
            "marked": [int(r.marked) for r in trace.levels],
            "mesh_hash": [mesh.mesh_hash(m) for m in trace.meshes]}


def _run(name, max_ndof):
    # the run that level_digest names ``name``, to ``max_ndof``
    with tempfile.TemporaryDirectory() as workdir:
        return afem.run_afem(level_digest._config(name, workdir, max_ndof))


def square_clamped_J23_path():
    trace = _run("square_clamped_J23", 5000)
    return {
        "config": {"start": "square clamped, 2 uniform refinements", "J": [2, 3],
                   "theta": 0.5, "max_ndof": 5000, "blas_threads": run.BLAS_THREADS},
        **_path(trace),
    }


def lshape_mixed_J1_path():
    trace = _run("lshape_mixed_J1", 20000)
    return {
        "config": {"start": "lshape mixed preset", "J": [1], "theta": 0.5,
                   "max_ndof": 20000, "blas_threads": run.BLAS_THREADS},
        **_path(trace),
    }


DIGEST_MAX_NDOF = 1500
DIGEST_NAMES = ("lshape_mixed_J1", "square_clamped_J1", "square_clamped_J23",
                "lshape_mixed_J123", "morley_interpolation")


def level_digests():
    argv = [sys.executable, os.path.join(ROOT, "tests", "level_digest.py"),
            "--max-ndof", str(DIGEST_MAX_NDOF), *DIGEST_NAMES]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    return {
        "config": {"max_ndof": DIGEST_MAX_NDOF, "blas_threads": run.BLAS_THREADS},
        "digests": dict(line.split() for line in out.splitlines()),
    }


PRESET_BCS = {
    "square": ["clamped", "simply_supported", "free", "mixed",
               ["free", "clamped", "simply_supported", "clamped"]],
    "lshape": ["clamped", "simply_supported", "free", "mixed",
               ["free", "clamped", "clamped", "simply_supported", "free", "clamped"]],
    "triangle": ["clamped", "simply_supported", "free",
                 ["clamped", "free", "simply_supported"]],
}


def preset_meshes():
    return {f"{geometry}|{bc if isinstance(bc, str) else ','.join(bc)}":
            mesh.mesh_hash(mesh.preset_mesh(geometry, bc))
            for geometry, bcs in PRESET_BCS.items() for bc in bcs}


RECORDS = {"square_clamped_theta05": square_clamped_theta05,
           "square_clamped_J23_path": square_clamped_J23_path,
           "lshape_mixed_J1_path": lshape_mixed_J1_path,
           "level_digests": level_digests,
           "preset_meshes": preset_meshes}


def main(argv):
    write = argv[:1] == ["--write"]
    names = argv[1:] if write else argv
    unknown = [name for name in names if name not in RECORDS]
    if unknown or (write and not names):
        raise SystemExit("usage: make_goldens.py [--write] [NAME ...]; "
                         f"records: {', '.join(RECORDS)}")
    if names and not write:
        for name in names:
            print(json.dumps(RECORDS[name]()))
        return
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in names or RECORDS:
        path = os.path.join(GOLDEN_DIR, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(RECORDS[name](), fh, indent=2)
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])

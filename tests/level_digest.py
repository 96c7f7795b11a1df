"""Print one sha256 per name: an adaptive run over the arrays of every
level, or the Morley interpolants of a fixed set of refinements.

Run from the repository root:

    python3 tests/level_digest.py NAME [NAME ...]
    python3 tests/level_digest.py --max-ndof 600 NAME [NAME ...]

Names: ``lshape_mixed_J1`` (the benchmark's ``lshape_adaptive`` config: the
mixed L-shape, J={1}, theta 0.5), ``square_clamped_J1`` (the clamped
square, J={1}), ``square_clamped_J23`` (the window J={2,3} started from
the twice uniformly refined clamped square, through a mesh file) and
``lshape_mixed_J123`` (the mixed L-shape with the three-member window
J={1,2,3}).  Each
runs to ``max_ndof`` 20000 unless ``--max-ndof`` says otherwise.
``morley_interpolation`` is no adaptive run, and ``--max-ndof`` does not
apply to it: see ``interpolation_digest``.

At every level the digest covers the mesh hash; the ``data``, ``indices``
and ``indptr`` of the stiffness and the mass matrix, assembled on a space
built from scratch on the level's mesh (bitwise the space that the loop
built from the coarse one); the window eigenvalues; the per-triangle
estimator eta^2; and the window vectors.  Two trees that print the same
digests compute every level bit for bit.  BLAS runs on one thread, set
before numpy loads, as in the benchmark: adaptive paths depend on the
thread count.
"""

import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402  (standard library only, so numpy is still unloaded)

run.configure_threads()
run.add_source_path()

import numpy as np  # noqa: E402

from plate_afem import afem, assembly, estimator, mesh  # noqa: E402
from plate_afem.space import BrokenFunction, build_space, morley_interpolate  # noqa: E402


def _config(name, workdir, max_ndof):
    common = {"theta": 0.5, "max_levels": 64, "max_ndof": max_ndof}
    if name == "lshape_mixed_J1":
        return afem.AfemConfig(geometry="lshape", bc="mixed", **common)
    if name == "lshape_mixed_J123":
        return afem.AfemConfig(geometry="lshape", bc="mixed", n=0, cluster_size=3, **common)
    if name == "square_clamped_J1":
        return afem.AfemConfig(geometry="square", bc="clamped", **common)
    start = mesh.uniform_refine(mesh.uniform_refine(mesh.preset_mesh("square", "clamped")))
    path = os.path.join(workdir, "square_uniform2_clamped.json")
    mesh.save_mesh(start, path)
    return afem.AfemConfig(mesh_file=path, n=1, cluster_size=2, **common)


NAMES = ("lshape_mixed_J1", "square_clamped_J1", "square_clamped_J23",
         "lshape_mixed_J123", "morley_interpolation")

_INTERPOLATION_CASES = [(geometry, bc) for geometry in ("square", "lshape", "triangle")
                        for bc in ("clamped", "simply_supported", "free", "mixed")]


def _toward_origin(m, steps):
    # newest-vertex bisection of the triangles at the origin, a vertex of
    # every preset
    for _ in range(steps):
        m = mesh.refine_nvb(m, np.nonzero((m.vertices[m.triangles] == 0.0)
                                          .all(axis=2).any(axis=1))[0])
    return m


def interpolation_digest():
    """Hex sha256 over Morley interpolants from two refinements.

    On each preset with each boundary condition (the triangle's mixed one
    is ``clamped,simply_supported,free``), the coarse space lives on the
    once uniformly refined preset.  A seeded random broken quadratic on its
    uniform refinement, and one on three newest-vertex bisection steps
    toward the origin, are interpolated into it; the digest covers each
    fine mesh hash and each interpolant.
    """
    h = hashlib.sha256()
    for k, (geometry, bc) in enumerate(_INTERPOLATION_CASES):
        if geometry == "triangle" and bc == "mixed":
            bc = ["clamped", "simply_supported", "free"]
        coarse = mesh.uniform_refine(mesh.preset_mesh(geometry, bc))
        space = build_space(coarse)
        rng = np.random.default_rng(k)
        for fine in (mesh.uniform_refine(coarse), _toward_origin(coarse, 3)):
            v = BrokenFunction(fine, rng.standard_normal((fine.num_triangles, 6)))
            h.update(mesh.mesh_hash(fine).encode())
            h.update(morley_interpolate(space, v).tobytes())
    return h.hexdigest()


def digest(name, max_ndof=20000):
    """Hex sha256 over every level of the named run."""
    with tempfile.TemporaryDirectory() as workdir:
        trace = afem.run_afem(_config(name, workdir, max_ndof))
    h = hashlib.sha256()
    for m, cluster in zip(trace.meshes, trace.clusters):
        space = build_space(m)
        h.update(mesh.mesh_hash(m).encode())
        for matrix in (assembly.assemble_stiffness(space), assembly.assemble_mass(space)):
            for arr in (matrix.data, matrix.indices, matrix.indptr):
                h.update(arr.tobytes())
        h.update(cluster.eigenvalues.tobytes())
        h.update(estimator.estimate(space, cluster).eta2.tobytes())
        h.update(cluster.vectors.tobytes())
    return h.hexdigest()


def main(argv):
    max_ndof = 20000
    if argv[:1] == ["--max-ndof"]:
        max_ndof, argv = int(argv[1]), argv[2:]
    unknown = [name for name in argv if name not in NAMES]
    if unknown or not argv:
        raise SystemExit("usage: level_digest.py [--max-ndof N] NAME [NAME ...]; "
                         f"names: {', '.join(NAMES)}")
    for name in argv:
        value = (interpolation_digest() if name == "morley_interpolation"
                 else digest(name, max_ndof))
        print(f"{name} {value}")


if __name__ == "__main__":
    main(sys.argv[1:])

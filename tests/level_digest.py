"""Print one sha256 per named adaptive run, over the arrays of every level.

Run from the repository root:

    python3 tests/level_digest.py NAME [NAME ...]
    python3 tests/level_digest.py --max-ndof 600 NAME [NAME ...]

Names: ``lshape_mixed_J1`` (the benchmark's ``lshape_adaptive`` config: the
mixed L-shape, J={1}, theta 0.5), ``square_clamped_J1`` (the clamped
square, J={1}) and ``square_clamped_J23`` (the window J={2,3} started from
the twice uniformly refined clamped square, through a mesh file).  Each
runs to ``max_ndof`` 20000 unless ``--max-ndof`` says otherwise.

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

from plate_afem import afem, assembly, estimator, mesh  # noqa: E402
from plate_afem.space import build_space  # noqa: E402


def _config(name, workdir, max_ndof):
    common = {"theta": 0.5, "max_levels": 64, "max_ndof": max_ndof}
    if name == "lshape_mixed_J1":
        return afem.AfemConfig(geometry="lshape", bc="mixed", **common)
    if name == "square_clamped_J1":
        return afem.AfemConfig(geometry="square", bc="clamped", **common)
    start = mesh.uniform_refine(mesh.uniform_refine(mesh.preset_mesh("square", "clamped")))
    path = os.path.join(workdir, "square_uniform2_clamped.json")
    mesh.save_mesh(start, path)
    return afem.AfemConfig(mesh_file=path, n=1, cluster_size=2, **common)


NAMES = ("lshape_mixed_J1", "square_clamped_J1", "square_clamped_J23")


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
        print(f"{name} {digest(name, max_ndof)}")


if __name__ == "__main__":
    main(sys.argv[1:])

"""Adaptive paths, level by level, against their records in ``tests/golden/``:
the J={2,3} window on the clamped square and the benchmark's reference run
(J={1} on the mixed L-shape to ``max_ndof`` 20000).

The ndof path and the last eigenvalues, which the benchmark's pins
compare, do not see a marking tie flip that keeps every count; the mesh
hash of every level does.  Each record is made by ``tests/make_goldens.py``
in a subprocess, with its one-thread BLAS setting, because the path
depends on the thread count.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def test_window_path_matches_golden_level_by_level():
    _check_path("square_clamped_J23_path")


def test_reference_run_path_matches_golden_level_by_level():
    _check_path("lshape_mixed_J1_path")


def _check_path(name):
    done = subprocess.run([sys.executable, os.path.join(HERE, "make_goldens.py"), name],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    with open(os.path.join(HERE, "golden", f"{name}.json")) as fh:
        gold = json.load(fh)
    assert got["config"] == gold["config"]
    for key in ("ndof", "marked", "mesh_hash"):
        moved = [level for level, (a, b) in enumerate(zip(got[key], gold[key])) if a != b]
        assert not moved, f"{key} differs from the golden record at levels {moved}"
        assert len(got[key]) == len(gold[key]), key

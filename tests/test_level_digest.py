"""``tests/level_digest.py`` is deterministic: two fresh processes print the
same digests for every named run (here cut at a small ``max_ndof``)."""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def test_two_processes_print_the_same_digests():
    argv = [sys.executable, os.path.join(HERE, "level_digest.py"), "--max-ndof", "400",
            "lshape_mixed_J1", "square_clamped_J1", "square_clamped_J23"]
    outputs = []
    for _ in range(2):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    lines = outputs[0].splitlines()
    assert [line.split()[0] for line in lines] == [
        "lshape_mixed_J1", "square_clamped_J1", "square_clamped_J23"]
    assert all(len(line.split()[1]) == 64 for line in lines)
    assert outputs[0] == outputs[1]

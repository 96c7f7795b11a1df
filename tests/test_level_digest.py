"""``tests/level_digest.py`` is deterministic and bit for bit unchanged: two
fresh processes print the same digests for every named run (cut at
``max_ndof`` 1500, which covers dense and shift-invert levels), and those
digests are the ones recorded in ``tests/golden/level_digests.json``."""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.fixture(scope="module")
def golden():
    with open(os.path.join(HERE, "golden", "level_digests.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def outputs(golden):
    argv = [sys.executable, os.path.join(HERE, "level_digest.py"),
            "--max-ndof", str(golden["config"]["max_ndof"]), *golden["digests"]]
    runs = []
    for _ in range(2):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        runs.append(done.stdout)
    return runs


def test_two_processes_print_the_same_digests(outputs, golden):
    lines = outputs[0].splitlines()
    assert [line.split()[0] for line in lines] == list(golden["digests"])
    assert all(len(line.split()[1]) == 64 for line in lines)
    assert outputs[0] == outputs[1]


def test_digests_match_the_golden(outputs, golden):
    printed = dict(line.split() for line in outputs[0].splitlines())
    assert printed == golden["digests"]

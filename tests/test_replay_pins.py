"""A fixed sample of the benchmark's pinned outcomes replays on this tree.

``tests/replay_pins.py`` replays every pin; this runs it in a subprocess,
with its one-thread BLAS setting, on a sample of 13 pinned runs and on two
of the side-tools pins.  The benchmark's reference run is among them: it
is the only pin whose late levels take the shift-invert path at ndof above
10000.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "replay_pins.py")
PIN_DIR = os.path.join(os.path.dirname(HERE), "perfbench", "pins")

_C, _S, _F = "clamped", "simply_supported", "free"


def _key(geometry, bcs, window="J1", start="preset"):
    return f"{geometry}|{start}|{','.join(bcs)}|{window}"


RAISING = [_key("lshape", bcs) for bcs in (
    [_F, _F, _C, _S, _F, _F], [_F, _C, _S, _F, _F, _F],
    [_F, _C, _F, _F, _F, _F], [_C, _C, _S, _F, _F, _F])]
SOLVED = [_key("lshape", bcs) for bcs in (
    [_C, _C, _C, _S, _F, _C], [_F, _C, _C, _F, _F, _F],
    [_S, _C, _C, _C, _C, _F], [_C, _F, _S, _C, _S, _C])]
SQUARE = [_key("square", bcs) for bcs in ([_S, _S, _F, _C], [_S, _F, _C, _C])]
CLUSTERS = [_key("square", [bc], "J2-3", "uniform2") for bc in (_C, _S)]
REFERENCE = _key("lshape", ["mixed"])
SAMPLE = RAISING + SOLVED + SQUARE + CLUSTERS + [REFERENCE]


def _replay(keys):
    return subprocess.run([sys.executable, SCRIPT, *keys], capture_output=True,
                          text=True, timeout=120)


def _pins(workload):
    with open(os.path.join(PIN_DIR, f"{workload}.json")) as fh:
        return json.load(fh)


def test_sample_covers_pinned_raises():
    pins = _pins("bc_sweep")
    assert all(key in pins for key in SAMPLE if key != REFERENCE)
    assert max(_pins("lshape_adaptive")[REFERENCE]["ndofs"]) > 20000
    assert [("raises" in pins[key]) for key in RAISING + SOLVED] == [True] * 4 + [False] * 4


def test_pinned_sample_replays():
    done = _replay(SAMPLE)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == f"0 mismatches over {len(SAMPLE)} pinned runs"


def test_side_tools_pins_replay():
    # three operations per case and seed, through the benchmark's own checks
    keys = ["lshape|mixed", "square|clamped"]
    done = _replay(keys)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == (
        f"0 mismatches over {3 * len(keys) * 3} side-tools operations (3 seeds)")


def test_unknown_key_fails():
    done = _replay(["square|preset|nowhere|J1"])
    assert done.returncode == 1
    assert "unknown key" in done.stdout

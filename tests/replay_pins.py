"""Replay the benchmark's pinned ``run_afem`` outcomes against this tree.

Run from the repository root:

    python3 tests/replay_pins.py              # all pinned runs (minutes)
    python3 tests/replay_pins.py KEY [KEY ...]

The pins in ``perfbench/pins/`` (``lshape_adaptive`` and ``bc_sweep``) are
only read.  Each case runs with one BLAS thread, as in the benchmark, and
is compared with ``workloads.afem_matches``: the same exception with its
numbers masked, or the same ndof path and eigenvalues to 1e-9 relative.
Every mismatch is printed on its own line, then the count; the exit status
is 1 when any case mismatches or a key is unknown.
"""

import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402  (standard library only, so numpy is still unloaded)

run.configure_threads()
run.add_source_path()

import workloads as wl  # noqa: E402

WORKLOADS = ("lshape_adaptive", "bc_sweep")


def pinned_cases(workdir):
    """{key: (pin, case)} over every pinned run_afem outcome."""
    built = {"lshape_adaptive": wl.make_inputs("lshape_adaptive", 0, workdir),
             "bc_sweep": wl.cluster_cases(workdir)
             + [wl.sweep_case(g, bc) for g in sorted(wl.SEGMENTS) for bc in wl.bc_lists(g)]}
    out = {}
    for name in WORKLOADS:
        cases = {case.key: case for case in built[name]}
        for key, pin in wl.load_pins(name).items():
            out[key] = (pin, cases.get(key))
    return out


def outcome(case):
    try:
        return case.outcome()
    except Exception as exc:  # a raise is an outcome too
        return wl.raised_outcome(exc)


def main(keys):
    with tempfile.TemporaryDirectory() as workdir:
        pinned = pinned_cases(workdir)
        unknown = [key for key in keys if key not in pinned]
        for key in unknown:
            print(f"unknown key {key!r}")
        mismatches = 0
        for key in keys or sorted(pinned):
            if key not in pinned:
                continue
            pin, case = pinned[key]
            got = {"raises": "no case", "message": ""} if case is None else outcome(case)
            if not wl.afem_matches(got, pin):
                mismatches += 1
                print(f"MISMATCH {key}: pinned {json.dumps(pin)[:160]} "
                      f"got {json.dumps(got)[:160]}")
        replayed = len(keys) - len(unknown) if keys else len(pinned)
    print(f"{mismatches} mismatches over {replayed} pinned runs")
    return 1 if mismatches or unknown else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

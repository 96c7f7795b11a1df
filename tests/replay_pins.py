"""Replay the benchmark's pinned outcomes against this tree.

Run from the repository root:

    python3 tests/replay_pins.py              # every pin (minutes)
    python3 tests/replay_pins.py KEY [KEY ...]

The pins in ``perfbench/pins/`` are only read, and every case runs with
one BLAS thread, as in the benchmark.  A ``run_afem`` pin
(``lshape_adaptive`` and ``bc_sweep``) is compared with
``workloads.afem_matches``: the same exception with its numbers masked, or
the same ndof path and eigenvalues to 1e-9 relative.  A ``side_tools`` pin
(key ``geometry|bc``) is replayed on the inputs of each of the seeds
``SIDE_SEEDS`` through the benchmark's own checks (``workloads.run_pass``):
the audit report exactly equal to the pin, the decomposition's relative
residual and its share outside the Curl space each at most 1e-9
(``workloads.decomposition_errors``), and the interpolant within 1e-12
relative of the pinned interpolation matrix applied to the input.
Every mismatch is printed on its own line, then the counts; the exit
status is 1 when any case mismatches or a key is unknown.
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
SIDE_SEEDS = (0, 1, 2)


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


def side_results(keys, workdir):
    """The benchmark's OpResults of the side-tools cases ``keys``, one
    pass per seed of ``SIDE_SEEDS``, as (seed, result) pairs."""
    pins = wl.load_pins("side_tools")
    out = []
    for seed in SIDE_SEEDS:
        cases = [case for case in wl.make_inputs("side_tools", seed, workdir)
                 if case.key in keys]
        expected = wl.expected_values(cases, pins)
        out += [(seed, res) for res in wl.run_pass(cases, pins, expected)]
    return out


def main(keys):
    with tempfile.TemporaryDirectory() as workdir:
        pinned = pinned_cases(workdir)
        side_keys = set(wl.load_pins("side_tools"))
        unknown = [key for key in keys if key not in pinned and key not in side_keys]
        for key in unknown:
            print(f"unknown key {key!r}")
        mismatches = 0
        afem_keys = [key for key in keys or sorted(pinned) if key in pinned]
        for key in afem_keys:
            pin, case = pinned[key]
            got = {"raises": "no case", "message": ""} if case is None else outcome(case)
            if not wl.afem_matches(got, pin):
                mismatches += 1
                print(f"MISMATCH {key}: pinned {json.dumps(pin)[:160]} "
                      f"got {json.dumps(got)[:160]}")
        side_sel = [key for key in keys or sorted(side_keys) if key in side_keys]
        side = side_results(side_sel, workdir) if side_sel else []
        for seed, res in side:
            if not res.ok:
                mismatches += 1
                print(f"MISMATCH {res.key} {res.kind} seed {seed}: "
                      f"{res.raised} {res.detail}"[:400])
    counts = [f"{len(afem_keys)} pinned runs"] if afem_keys or not side else []
    if side:
        counts.append(f"{len(side)} side-tools operations ({len(SIDE_SEEDS)} seeds)")
    print(f"{mismatches} mismatches over {' and '.join(counts)}")
    return 1 if mismatches or unknown else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

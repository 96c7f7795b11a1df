"""Regenerate the pinned outcomes in ``pins/`` from the current source tree.

The benchmark checks every pass against these pins.  They were made from
the seed commit with the benchmark's own thread settings.  Regenerating
them from a changed program would hide that program's changes, so only do
it in a change that edits the benchmark and nothing else.

    python3 perfbench/pin.py lshape_adaptive bc_sweep side_tools

``bc_sweep`` pins every BC list the seed can draw (65 square and 665
L-shape lists plus the two cluster windows), so any seed is covered;
``side_tools`` pins the audit report and the interpolation matrix from the
fine Morley space to the coarse one, so any seeded field is covered.
"""

import json
import os
import sys
import tempfile

import run

run.configure_threads()
run.add_source_path()

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from plate_afem import helmholtz, mesh as mesh_mod, space as space_mod  # noqa: E402


def _afem_pin(case):
    try:
        return case.outcome()
    except Exception as exc:  # a raise is the pinned outcome
        return wl.raised_outcome(exc)


def pin_lshape_adaptive(workdir):
    return {case.key: _afem_pin(case)
            for case in wl.make_inputs("lshape_adaptive", 0, workdir)}


def pin_bc_sweep(workdir):
    cases = wl.cluster_cases(workdir)
    cases += [wl.sweep_case(g, bc) for g in sorted(wl.SEGMENTS) for bc in wl.bc_lists(g)]
    pins = {}
    for k, case in enumerate(cases):
        pins[case.key] = _afem_pin(case)
        print(f"{k + 1}/{len(cases)} {case.key} {'raises' in pins[case.key]}",
              file=sys.stderr)
    return pins


def pin_side_tools(workdir):
    pins = {}
    for case in wl.make_inputs("side_tools", 0, workdir):
        space = space_mod.build_space(case.mesh)
        xspace = helmholtz.build_xspace(case.mesh)
        report = helmholtz.dimension_audit(case.mesh, space, xspace)
        coarse = space_mod.build_space(case.coarse)
        fine = space_mod.build_space(mesh_mod.uniform_refine(case.coarse))
        rows, cols, vals = [], [], []
        for j in range(fine.ndof):
            e = np.zeros(fine.ndof)
            e[j] = 1.0
            column = space_mod.morley_interpolate(coarse, fine.to_broken(e))
            nz = np.nonzero(column)[0]
            rows += nz.tolist()
            cols += [j] * len(nz)
            vals += column[nz].tolist()
        pins[case.key] = {
            "audit": json.loads(json.dumps(report, default=int)),
            "interp": {"shape": [coarse.ndof, fine.ndof], "rows": rows,
                       "cols": cols, "vals": vals},
        }
        print(f"{case.key}: {len(vals)} interpolation entries", file=sys.stderr)
    return pins


PINNERS = {"lshape_adaptive": pin_lshape_adaptive, "bc_sweep": pin_bc_sweep,
           "side_tools": pin_side_tools}


def main(names):
    for name in names or run.WORKLOADS:
        with tempfile.TemporaryDirectory(prefix=".work-", dir=run.HERE) as workdir:
            pins = PINNERS[name](workdir)
        path = os.path.join(wl.PINS_DIR, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(pins, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {path} ({len(pins)} entries)", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])

"""Self-test of the benchmark: smoke runs of every workload and the pin checks.

    python3 -m pytest perfbench/tests -q

A smoke run (``--smoke``) keeps the first few cases of a workload, one pass
and one set-up probe, and checks every operation against the pins like a
full run.  The corruption tests run one smoke pass in this process, with a
corrupted pin or a perturbed ``decompose`` result, and expect a mismatch.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402  (standard library only at import)

run.configure_threads()  # the pinned outcomes depend on the thread count
run.add_source_path()

import workloads as wl  # noqa: E402
from plate_afem import helmholtz  # noqa: E402


def smoke(workload):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload):
    lines, result = smoke(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, unit in run.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(line.startswith(f"{name} = ") and f" {unit}" in line for line in lines)
    assert any(line.startswith("failed_frac = ") and " ratio " in line for line in lines)


def _corrupt_lshape(pins):
    pin = next(iter(pins.values()))
    pin["eigenvalues"][0] *= 1.0 + 1e-8


def _corrupt_sweep(pins):
    pins["square|uniform2|clamped|J2-3"]["ndofs"][-1] += 1


def _corrupt_side(pins):
    pins["square|clamped"]["interp"]["vals"][0] += 1e-6


CORRUPTIONS = {"lshape_adaptive": _corrupt_lshape, "bc_sweep": _corrupt_sweep,
               "side_tools": _corrupt_side}


def smoke_pass(workload, pins, tmp_path):
    """One in-process pass over the smoke cases, checked against ``pins``."""
    cases = wl.make_inputs(workload, 0, str(tmp_path), smoke=True)
    return wl.run_pass(cases, pins, wl.expected_values(cases, pins))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corrupted_pin_turns_into_a_failed_operation(workload, tmp_path):
    pins = wl.load_pins(workload)
    CORRUPTIONS[workload](pins)
    results = smoke_pass(workload, pins, tmp_path)
    assert any(not r.ok and not r.raised for r in results)


PERTURBATIONS = {
    "phi": lambda res: dataclasses.replace(res, phi=res.phi * (1.0 + 1e-6)),
    "psi": lambda res: dataclasses.replace(res, psi_nodal=res.psi_nodal * (1.0 + 1e-6)),
    "psi_outside": lambda res: dataclasses.replace(res, psi_nodal=res.psi_nodal + 1e-6),
}


@pytest.mark.parametrize("part", PERTURBATIONS)
def test_perturbed_decomposition_is_a_mismatch(part, tmp_path, monkeypatch):
    decompose = helmholtz.decompose
    monkeypatch.setattr(helmholtz, "decompose",
                        lambda *a: PERTURBATIONS[part](decompose(*a)))
    results = smoke_pass("side_tools", wl.load_pins("side_tools"), tmp_path)
    for r in results:
        assert r.ok == (r.kind != "decompose"), r


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert tuple(w["name"] for w in doc["workloads"]) == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


def test_afem_outcome_checks():
    ok = {"ndofs": [12, 16], "eigenvalues": [34.0]}
    raises = {"raises": "EigenError",
              "message": "stiffness diagonality residual 1.3e-08 exceeds 1e-8"}
    assert wl.afem_matches(ok, ok)
    assert wl.afem_matches({"ndofs": [12, 16], "eigenvalues": [34.0 * (1 + 1e-10)]}, ok)
    assert not wl.afem_matches({"ndofs": [12, 16], "eigenvalues": [34.0 * (1 + 1e-8)]}, ok)
    assert not wl.afem_matches({"ndofs": [12, 17], "eigenvalues": [34.0]}, ok)
    assert not wl.afem_matches({"ndofs": [12], "eigenvalues": [34.0]}, ok)
    # a pinned raise matches the same error with other numbers, nothing else
    assert wl.afem_matches(dict(raises, message=raises["message"].replace("1.3", "2.0")),
                           raises)
    assert not wl.afem_matches(ok, raises)
    assert not wl.afem_matches(raises, ok)
    assert not wl.afem_matches(dict(raises, raises="ClusterSplitError"), raises)

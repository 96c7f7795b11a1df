"""Workload definitions shared by the benchmark runner and the pin generator.

``make_inputs`` turns a workload name and a seed into a list of cases; the
library only ever sees the generated meshes, configs and fields.  A pass
runs every case once and returns one ``OpResult`` per operation, each
checked against the outcome pinned from the seed commit (``pins/``).

Every call into the library goes through a module attribute
(``afem.run_afem``, ``helmholtz.decompose``, ...) so that the tracer's
wrappers, installed on those attributes, see the call.
"""

import itertools
import json
import os
import random
import re
from dataclasses import dataclass

import numpy as np

from plate_afem import afem, helmholtz, mesh as mesh_mod, space as space_mod

PINS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins")

LABELS = ("clamped", "simply_supported", "free")
SEGMENTS = {"square": 4, "lshape": 6}
SWEEP_RUNS = 20
SWEEP_MAX_NDOF = 2000
CLUSTER_BCS = ("clamped", "simply_supported")
SIDE_CONFIGS = [(g, bc) for g in ("square", "lshape")
                for bc in ("clamped", "simply_supported", "mixed")]
AUDIT_MIN_TRIANGLES = 300
INTERP_MIN_TRIANGLES = 96
SMOKE_CASES = 3

EIG_RTOL = 1e-9
DECOMPOSE_RTOL = 1e-9
INTERP_RTOL = 1e-12


@dataclass
class OpResult:
    """One operation of a pass: whether its outcome matched the pin."""

    kind: str
    key: str
    ok: bool
    raised: str = ""
    detail: str = ""


# -- inputs ------------------------------------------------------------------


def bc_lists(geometry):
    """Every per-segment BC list of a preset with at least one clamped part."""
    return [list(bc) for bc in itertools.product(LABELS, repeat=SEGMENTS[geometry])
            if "clamped" in bc]


def afem_key(geometry, bc, window="J1", start="preset"):
    bc = bc if isinstance(bc, str) else ",".join(bc)
    return f"{geometry}|{start}|{bc}|{window}"


def refine_to(mesh, min_triangles):
    while mesh.num_triangles < min_triangles:
        mesh = mesh_mod.uniform_refine(mesh)
    return mesh


@dataclass
class AfemCase:
    key: str
    config: afem.AfemConfig

    def outcome(self):
        trace = afem.run_afem(self.config)
        return {"ndofs": [int(n) for n in trace.ndofs],
                "eigenvalues": [float(v) for v in trace.levels[-1].eigenvalues]}


@dataclass
class SideCase:
    key: str
    mesh: object          # audit / decomposition mesh
    sigma: np.ndarray     # (T, 3) piecewise constant tensor field
    sigma_norm: float     # its L2 norm
    coarse: object        # interpolation target mesh
    fine_u: np.ndarray    # Morley coefficients on uniform_refine(coarse)
    fine_bf: object       # the same function as a broken quadratic


def _lshape_cases():
    config = afem.AfemConfig(geometry="lshape", bc="mixed", theta=0.5,
                             max_levels=64, max_ndof=20000)
    return [AfemCase(afem_key("lshape", "mixed"), config)]


def cluster_cases(workdir):
    """Windows J={2,3} on the twice uniformly refined square, from a mesh file."""
    cases = []
    for bc in CLUSTER_BCS:
        path = os.path.join(workdir, f"square_uniform2_{bc}.json")
        start = mesh_mod.uniform_refine(mesh_mod.uniform_refine(
            mesh_mod.preset_mesh("square", bc)))
        mesh_mod.save_mesh(start, path)
        config = afem.AfemConfig(mesh_file=path, n=1, cluster_size=2, theta=0.5,
                                 max_levels=64, max_ndof=SWEEP_MAX_NDOF)
        cases.append(AfemCase(afem_key("square", bc, "J2-3", "uniform2"), config))
    return cases


def sweep_case(geometry, bc):
    config = afem.AfemConfig(geometry=geometry, bc=bc, theta=0.5,
                             max_levels=64, max_ndof=SWEEP_MAX_NDOF)
    return AfemCase(afem_key(geometry, bc), config)


def _sweep_cases(seed, workdir):
    # geometry first, then a BC list of that geometry; never filtered by outcome
    rng = random.Random(seed)
    pools = {g: bc_lists(g) for g in SEGMENTS}
    cases = cluster_cases(workdir)
    seen = set()
    while len(seen) < SWEEP_RUNS:
        geometry = rng.choice(sorted(pools))
        case = sweep_case(geometry, rng.choice(pools[geometry]))
        if case.key not in seen:
            seen.add(case.key)
            cases.append(case)
    return cases


def tensor_norm(mesh, sigma):
    """L2 norm of a piecewise constant symmetric tensor field (s11, s22, s12)."""
    sq = sigma[:, 0] ** 2 + sigma[:, 1] ** 2 + 2.0 * sigma[:, 2] ** 2
    return float(np.sqrt(np.sum(mesh.areas * sq)))


def _side_cases(seed):
    rng = np.random.default_rng(seed)
    cases = []
    for geometry, bc in SIDE_CONFIGS:
        base = mesh_mod.preset_mesh(geometry, bc)
        mesh = refine_to(base, AUDIT_MIN_TRIANGLES)
        sigma = rng.standard_normal((mesh.num_triangles, 3))
        coarse = refine_to(base, INTERP_MIN_TRIANGLES)
        fine_space = space_mod.build_space(mesh_mod.uniform_refine(coarse))
        u = rng.standard_normal(fine_space.ndof)
        cases.append(SideCase(f"{geometry}|{bc}", mesh, sigma,
                              tensor_norm(mesh, sigma), coarse, u,
                              fine_space.to_broken(u)))
    return cases


def make_inputs(name, seed, workdir, smoke=False):
    """Cases of workload ``name`` for ``seed``; files go under ``workdir``."""
    if name == "lshape_adaptive":
        cases = _lshape_cases()
    elif name == "bc_sweep":
        cases = _sweep_cases(seed, workdir)
    elif name == "side_tools":
        cases = _side_cases(seed)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return cases[:SMOKE_CASES] if smoke else cases


# -- pins and checks -----------------------------------------------------------


def load_pins(name):
    with open(os.path.join(PINS_DIR, f"{name}.json")) as fh:
        return json.load(fh)


def raised_outcome(exc):
    return {"raises": type(exc).__name__, "message": str(exc)}


def _mask_numbers(text):
    return re.sub(r"[-+]?\d+(\.\d*)?([eE][-+]?\d+)?", "#", text)


def afem_matches(outcome, pin):
    """Same exception (numbers masked), or same ndof path and eigenvalues."""
    if "raises" in pin or "raises" in outcome:
        return (outcome.get("raises") == pin.get("raises")
                and _mask_numbers(outcome["message"]) == _mask_numbers(pin["message"]))
    got = np.asarray(outcome["eigenvalues"])
    want = np.asarray(pin["eigenvalues"])
    return (outcome["ndofs"] == pin["ndofs"] and got.shape == want.shape
            and bool(np.all(np.abs(got - want) <= EIG_RTOL * np.abs(want))))


def interpolation_matrix(pin):
    from scipy import sparse
    p = pin["interp"]
    return sparse.csr_matrix((p["vals"], (p["rows"], p["cols"])), shape=p["shape"])


@dataclass
class SideExpected:
    """What a side-tools case is checked against, built before timing."""

    interp: np.ndarray        # the interpolant, from the pinned matrix
    ndof: int                 # of the Morley space on the case's mesh
    hessians: np.ndarray      # (T, 6, 3) broken Hessians of the Morley basis
    cell_dofs: np.ndarray     # (T, 6) their global dofs, -1 where constrained
    grads: np.ndarray         # (T, 3, 2) gradients of the P1 nodal functions
    xspace_q: np.ndarray      # (2N, dim) orthonormal basis of the Curl space


def p1_gradients(mesh):
    p = mesh.vertices[mesh.triangles]
    A = np.concatenate([np.ones((mesh.num_triangles, 3, 1)), p], axis=2)
    return np.linalg.inv(A)[:, 1:, :].transpose(0, 2, 1)


def side_expected(case, pin):
    space = space_mod.build_space(case.mesh)
    basis = helmholtz.build_xspace(case.mesh).basis
    return SideExpected(interp=interpolation_matrix(pin) @ case.fine_u,
                        ndof=space.ndof, hessians=space.basis_hessians,
                        cell_dofs=space.cell_dofs, grads=p1_gradients(case.mesh),
                        xspace_q=np.linalg.qr(basis)[0])


def expected_values(cases, pins):
    """Per-case reference data derived from the pins, computed before timing."""
    out = {}
    for case in cases:
        pin = pins.get(case.key)
        if pin is None:
            raise KeyError(f"no pinned outcome for case {case.key!r}")
        if isinstance(case, SideCase):
            out[case.key] = side_expected(case, pin)
    return out


def decomposition_errors(case, want, res):
    """Relative errors of a decomposition, from its own phi and psi.

    The first is the L2 norm of sigma - D^2 phi - sym Curl psi over the
    norm of sigma; the second the share of psi that lies outside the
    constrained space.  Neither uses what ``decompose`` reports about itself.
    """
    phi = np.asarray(res.phi, dtype=float)
    beta = np.asarray(res.psi_nodal, dtype=float)
    if phi.shape != (want.ndof,) or beta.shape != (case.mesh.num_vertices, 2):
        return np.inf, np.inf
    hess = np.einsum("ti,tic->tc", np.append(phi, 0.0)[want.cell_dofs], want.hessians)
    D = np.einsum("tld,tli->tid", want.grads, beta[case.mesh.triangles])  # d beta_i/dx_d
    curl = np.stack([-D[:, 0, 1], D[:, 1, 0], 0.5 * (D[:, 0, 0] - D[:, 1, 1])], axis=1)
    residual = tensor_norm(case.mesh, case.sigma - hess - curl) / case.sigma_norm
    flat = beta.ravel()
    outside = flat - want.xspace_q @ (want.xspace_q.T @ flat)
    return residual, float(np.linalg.norm(outside)) / max(float(np.linalg.norm(flat)), 1e-300)


def _attempt(kind, key, call, check):
    """Run one operation; any exception is recorded, never propagated."""
    try:
        value = call()
    except Exception as exc:  # the op boundary: record and carry on
        return OpResult(kind, key, False, type(exc).__name__, str(exc))
    ok, detail = check(value)
    return OpResult(kind, key, ok, "", detail)


def _run_afem_case(case, pin):
    try:
        outcome = case.outcome()
        raised = ""
    except Exception as exc:  # pinned raises are outcomes too
        outcome = raised_outcome(exc)
        raised = type(exc).__name__
    ok = afem_matches(outcome, pin)
    detail = outcome.get("message", "") if ok else f"got {json.dumps(outcome)[:200]}"
    return OpResult("run_afem", case.key, ok, raised, detail)


def _run_side_case(case, pin, want):
    key = case.key
    try:
        space = space_mod.build_space(case.mesh)
        xspace = helmholtz.build_xspace(case.mesh)
    except Exception as exc:
        return [OpResult(kind, key, False, type(exc).__name__, f"set-up: {exc}")
                for kind in ("dimension_audit", "decompose", "morley_interpolate")]

    def audit_ok(report):
        got = json.loads(json.dumps(report, default=int))
        return got == pin["audit"], "" if got == pin["audit"] else f"got {got}"

    def decompose_ok(res):
        residual, outside = decomposition_errors(case, want, res)
        return (residual <= DECOMPOSE_RTOL and outside <= DECOMPOSE_RTOL,
                f"relative residual {residual:.3e}, outside the Curl space {outside:.3e}")

    def interp_ok(values):
        err = float(np.linalg.norm(values - want.interp))
        rel = err / float(np.linalg.norm(want.interp))
        return rel <= INTERP_RTOL, f"relative deviation {rel:.3e}"

    return [
        _attempt("dimension_audit", key,
                 lambda: helmholtz.dimension_audit(case.mesh, space, xspace), audit_ok),
        _attempt("decompose", key,
                 lambda: helmholtz.decompose(space, xspace, case.sigma), decompose_ok),
        _attempt("morley_interpolate", key,
                 lambda: space_mod.morley_interpolate(space_mod.build_space(case.coarse),
                                                      case.fine_bf),
                 interp_ok),
    ]


def run_pass(cases, pins, expected):
    """Run every case once; one OpResult per operation."""
    results = []
    for case in cases:
        if isinstance(case, AfemCase):
            results.append(_run_afem_case(case, pins[case.key]))
        else:
            results.extend(_run_side_case(case, pins[case.key], expected[case.key]))
    return results


def warm_up(name):
    """Exercise the code paths of a workload on tiny inputs, unchecked."""
    if name == "side_tools":
        mesh = refine_to(mesh_mod.preset_mesh("square", "mixed"), 32)
        space = space_mod.build_space(mesh)
        xspace = helmholtz.build_xspace(mesh)
        helmholtz.dimension_audit(mesh, space, xspace)
        helmholtz.decompose(space, xspace, np.ones((mesh.num_triangles, 3)))
        fine = space_mod.build_space(mesh_mod.uniform_refine(mesh))
        space_mod.morley_interpolate(space, fine.to_broken(np.ones(fine.ndof)))
    else:
        # crosses the dense cutoff, so both eigensolver paths are loaded
        afem.run_afem(afem.AfemConfig(geometry="square", max_levels=64,
                                      max_ndof=1200))

"""Command-line driver: adaptive runs, rate fits, references, audits.

Exit codes: 0 success, 2 usage or missing input, 3 numerical failure,
4 theorem-audit failure.  All numeric output is shortest round-trip
decimal.  ``PLATE_AFEM_THREADS`` caps the linear-algebra thread pools;
deterministic mode (the ``--deterministic`` flag, or ``"deterministic": true``
in a ``run`` config) forces a single thread and zeroes recorded wall times
so repeated runs are byte identical.
"""

import argparse
import json
import os
import sys
import time

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_NUMERICAL = 3
_EXIT_AUDIT = 4

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")


def _cap_threads(n):
    for var in _THREAD_VARS:
        os.environ[var] = str(n)


def _configure_threads(deterministic):
    # must happen before numpy is imported by the work modules
    if deterministic:
        _cap_threads(1)
    elif "PLATE_AFEM_THREADS" in os.environ:
        _cap_threads(max(1, int(os.environ["PLATE_AFEM_THREADS"])))


def _build_parser():
    p = argparse.ArgumentParser(prog="plate-afem",
                                description="Adaptive Morley eigenvalue solver "
                                            "for plate vibration problems")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the adaptive loop from a JSON config")
    run.add_argument("--config", required=True)
    run.add_argument("--out", required=True, help="trace CSV path")
    run.add_argument("--dump-mesh", default=None, metavar="DIR",
                     help="write per-level mesh JSON files")
    run.add_argument("--deterministic", action="store_true")

    rates = sub.add_parser("rates", help="fit a convergence rate from a trace")
    rates.add_argument("trace")
    rates.add_argument("--quantity", choices=["eta2", "lambda_err"],
                       default="eta2")
    rates.add_argument("--reference", type=float, default=None,
                       help="reference eigenvalue for lambda_err")

    ref = sub.add_parser("reference",
                         help="uniform-refinement reference eigenvalues")
    ref.add_argument("--geometry", default="square")
    ref.add_argument("--bc", default="clamped")
    ref.add_argument("--J", type=int, default=1,
                     help="largest 1-based window index (window is 1..J)")
    ref.add_argument("--ndof", type=int, default=20000)
    ref.add_argument("--lower-bound-constant", type=float, default=1.0)
    ref.add_argument("--out", default=None, help="spectrum CSV path")

    audit = sub.add_parser("helmholtz-audit",
                           help="audit the tensor-splitting dimension identities")
    audit.add_argument("--geometry", default="square")
    audit.add_argument("--bc", default="clamped")
    audit.add_argument("--refine", type=int, default=0,
                       help="uniform refinements before the audit")
    audit.add_argument("--out", default=None, help="report JSON path")

    exp = sub.add_parser("mesh-export", help="write a preset mesh as JSON")
    exp.add_argument("--geometry", default="square")
    exp.add_argument("--bc", default="clamped")
    exp.add_argument("--refine", type=int, default=0)
    exp.add_argument("--out", required=True)
    return p


def _read_config(args):
    # read before the thread pools are set up, so that a config's
    # "deterministic" caps the threads just as the flag does
    with open(args.config) as fh:
        args.doc = json.load(fh)
    if not isinstance(args.doc, dict):
        raise ValueError(f"expected a JSON object, got {type(args.doc).__name__}")
    if args.doc.get("deterministic"):
        args.deterministic = True


def _cmd_run(args):
    import numpy as np
    import scipy

    from . import afem
    from .mesh import mesh_hash, save_mesh

    config = afem.AfemConfig.from_dict(args.doc)
    if args.deterministic:
        config.deterministic = True

    t0 = time.perf_counter()
    trace = afem.run_afem(config)
    elapsed = time.perf_counter() - t0
    trace.to_csv(args.out)

    outputs = [args.out]
    if args.dump_mesh:
        os.makedirs(args.dump_mesh, exist_ok=True)
        for k, mesh in enumerate(trace.meshes):
            path = os.path.join(args.dump_mesh, f"mesh_level_{k}.json")
            save_mesh(mesh, path)
            outputs.append(path)

    # only the keys that took effect: a mesh file replaces geometry and bc
    unused = {"geometry", "bc"} if config.mesh_file is not None else {"mesh_file"}
    manifest = {
        "config": {k: (v if not isinstance(v, (list, tuple)) else list(v))
                   for k, v in vars(config).items() if k not in unused},
        "code_version": _version(),
        "mesh_hashes": [mesh_hash(m) for m in trace.meshes],
        "outputs": outputs,
        "levels": len(trace.levels),
        "per_level": [{"level": r.level, "solver": r.solver,
                       "timings": {k: 0.0 if config.deterministic else v
                                   for k, v in r.timings.items()}}
                      for r in trace.levels],
        "converged": trace.converged,
        "environment": {"thread_variables": args.thread_variables, "numpy": np.__version__,
                        "python": sys.version.split()[0], "scipy": scipy.__version__},
        "wall_time_s": 0.0 if config.deterministic else elapsed,
    }
    manifest_path = args.out + ".manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    for path in outputs + [manifest_path]:
        if not os.path.exists(path) or os.path.getsize(path) == 0:
            print(f"output {path} missing or empty", file=sys.stderr)
            return _EXIT_NUMERICAL
    print(f"wrote {args.out} ({len(trace.levels)} levels)")
    return _EXIT_OK


def _cmd_rates(args):
    import numpy as np

    from . import afem

    if not os.path.exists(args.trace):
        print(f"trace file not found: {args.trace}", file=sys.stderr)
        return _EXIT_USAGE
    cols = afem.read_trace_csv(args.trace)
    lam = np.stack([v for k, v in cols.items() if k.startswith("lambda_")], axis=1)
    slope = afem.quantity_rate(cols["ndof"], cols["eta2_total"], lam,
                               args.quantity, args.reference)
    print(f"{args.quantity} rate vs ndof: {slope!r}")
    return _EXIT_OK


def _cmd_reference(args):
    import numpy as np

    from . import afem, eigen

    if args.J < 1:
        raise ValueError(f"--J must be at least 1, got {args.J}")
    if not args.lower_bound_constant >= 0:
        raise ValueError("--lower-bound-constant must be >= 0, "
                         f"got {args.lower_bound_constant}")
    J = list(range(1, args.J + 1))
    ref = afem.reference_eigenvalues(args.geometry, args.bc, J, args.ndof)
    for k, j in enumerate(ref.indices):
        print(f"lambda_{j}: extrapolated {float(ref.limits[k])!r} "
              f"(uncertainty {float(ref.uncertainties[k])!r}, "
              f"observed ratio {float(ref.ratios[k])!r}, "
              f"reliable {bool(ref.reliable[k])})")
    if not np.all(ref.reliable):
        print("warning: non-monotone sequence, extrapolation unreliable",
              file=sys.stderr)
    if args.out:
        # every pair of the finest solve, with residuals and lower bounds
        fin = ref.finest
        with open(args.out, "w") as fh:
            fh.write("index,eigenvalue,residual,lower_bound\n")
            for k, (lam, res) in enumerate(zip(fin.computed_spectrum,
                                               fin.computed_residuals)):
                lb = eigen.lower_bound(float(lam), ref.h_max, args.lower_bound_constant)
                fh.write(f"{k + 1},{float(lam)!r},{float(res)!r},{lb!r}\n")
        print(f"wrote {args.out}")
    return _EXIT_OK


def _cmd_helmholtz_audit(args):
    import numpy as np

    from . import helmholtz
    from .space import build_space

    mesh = _refined_preset(args)
    space = build_space(mesh)
    xspace = helmholtz.build_xspace(mesh)
    report = helmholtz.dimension_audit(mesh, space, xspace)

    # attach decomposition residuals on a reproducible random field
    rng = np.random.default_rng(0)
    sigma = rng.standard_normal((mesh.num_triangles, 3))
    try:
        res = helmholtz.decompose(space, xspace, sigma)
        norm = float(np.linalg.norm(helmholtz.tensor_features(mesh, sigma)))
        report["residuals"] = {
            "decomposition_relative": res.residual / norm,
            "orthogonality": res.orthogonality,
        }
    except helmholtz.HelmholtzError as exc:
        report["residuals"] = {"error": str(exc)}

    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    ok = (report["euler_ok"] and report["dim_identity_ok"]
          and "error" not in report["residuals"]
          and report["residuals"]["decomposition_relative"] <= 1e-9)
    return _EXIT_OK if ok else _EXIT_AUDIT


def _cmd_mesh_export(args):
    from .mesh import save_mesh

    save_mesh(_refined_preset(args), args.out)
    print(f"wrote {args.out}")
    return _EXIT_OK


def _refined_preset(args):
    from .mesh import preset_mesh, uniform_refine

    if args.refine < 0:
        raise ValueError(f"--refine must be >= 0, got {args.refine}")
    mesh = preset_mesh(args.geometry, args.bc)
    for _ in range(args.refine):
        mesh = uniform_refine(mesh)
    return mesh


def _version():
    from . import __version__
    return __version__


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        try:
            _read_config(args)
        except FileNotFoundError:
            print(f"config file not found: {args.config}", file=sys.stderr)
            return _EXIT_USAGE
        except ValueError as exc:  # JSONDecodeError or not an object
            print(f"malformed config: {exc}", file=sys.stderr)
            return _EXIT_USAGE
    # the thread settings as this process received them, before any cap
    args.thread_variables = {v: os.environ.get(v) for v in (*_THREAD_VARS, "PLATE_AFEM_THREADS")}
    try:
        _configure_threads(getattr(args, "deterministic", False))
    except ValueError as exc:  # only a non-integer PLATE_AFEM_THREADS
        print(f"invalid input: PLATE_AFEM_THREADS: {exc}", file=sys.stderr)
        return _EXIT_USAGE

    from .afem import ConfigError
    from .eigen import EigenError
    from .helmholtz import HelmholtzError
    from .mesh import MeshError
    from .space import SpaceError

    handlers = {
        "run": _cmd_run,
        "rates": _cmd_rates,
        "reference": _cmd_reference,
        "helmholtz-audit": _cmd_helmholtz_audit,
        "mesh-export": _cmd_mesh_export,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except (MeshError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except (EigenError, HelmholtzError, SpaceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

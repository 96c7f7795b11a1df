"""Command-line driver: adaptive runs, rate fits, references, audits.

Exit codes: 0 success, 2 usage, invalid input or a path that cannot be
read or written, 3 numerical failure, 4 theorem-audit failure; one table,
``_failures``, maps each exception class to its code.  All numeric output
is shortest round-trip decimal.  ``PLATE_AFEM_THREADS`` caps the
linear-algebra thread pools; deterministic mode (the ``--deterministic``
flag, or ``"deterministic": true`` in a ``run`` config) forces a single
thread and zeroes recorded wall times so repeated runs are byte identical.
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


def _configure_threads(deterministic):
    # must happen before numpy is imported by the work modules
    if deterministic or "PLATE_AFEM_THREADS" in os.environ:
        try:
            n = 1 if deterministic else max(1, int(os.environ["PLATE_AFEM_THREADS"]))
        except ValueError as exc:
            raise ValueError(f"PLATE_AFEM_THREADS: {exc}") from None
        for var in _THREAD_VARS:
            os.environ[var] = str(n)


def _build_parser():
    p = argparse.ArgumentParser(prog="plate-afem",
                                description="Adaptive Morley eigenvalue solver "
                                            "for plate vibration problems")
    sub = p.add_subparsers(dest="command", required=True)
    preset = argparse.ArgumentParser(add_help=False)
    preset.add_argument("--geometry", default="square")
    preset.add_argument("--bc", default="clamped")

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

    ref = sub.add_parser("reference", parents=[preset],
                         help="uniform-refinement reference eigenvalues")
    ref.add_argument("--J", type=int, default=1,
                     help="largest 1-based window index (window is 1..J)")
    ref.add_argument("--ndof", type=int, default=20000)
    ref.add_argument("--lower-bound-constant", type=float, default=1.0)
    ref.add_argument("--out", default=None, help="spectrum CSV path")

    audit = sub.add_parser("helmholtz-audit", parents=[preset],
                           help="audit the tensor-splitting dimension identities")
    audit.add_argument("--refine", type=int, default=0,
                       help="uniform refinements before the audit")
    audit.add_argument("--out", default=None, help="report JSON path")

    exp = sub.add_parser("mesh-export", parents=[preset], help="write a preset mesh as JSON")
    exp.add_argument("--refine", type=int, default=0)
    exp.add_argument("--out", required=True)
    return p


class _MalformedConfig(Exception):
    """A run config that is no JSON object."""


def _read_config(args):
    # read before the thread pools are set up, so that a config's
    # "deterministic" caps the threads just as the flag does
    with open(args.config) as fh:
        try:
            args.doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise _MalformedConfig(exc) from exc
    if not isinstance(args.doc, dict):
        raise _MalformedConfig(f"expected a JSON object, got {type(args.doc).__name__}")
    if args.doc.get("deterministic"):
        args.deterministic = True


def _check_output(path):
    # an output that cannot be written fails before the work, not after it
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(f"output directory not found: {os.path.dirname(path)}")
    if os.path.isdir(path):
        raise IsADirectoryError(f"output path is a directory: {path}")


def _cmd_run(args):
    import numpy as np
    import scipy

    from . import __version__, afem
    from .mesh import mesh_hash, save_mesh

    config = afem.AfemConfig.from_dict(args.doc)
    if args.deterministic:
        config.deterministic = True
    if args.dump_mesh:
        os.makedirs(args.dump_mesh, exist_ok=True)

    t0 = time.perf_counter()
    trace = afem.run_afem(config)
    elapsed = time.perf_counter() - t0
    trace.to_csv(args.out)

    outputs = [args.out]
    if args.dump_mesh:
        for k, mesh in enumerate(trace.meshes):
            path = os.path.join(args.dump_mesh, f"mesh_level_{k}.json")
            save_mesh(mesh, path)
            outputs.append(path)

    # only the keys that took effect: a mesh file replaces geometry and bc
    unused = {"geometry", "bc"} if config.mesh_file is not None else {"mesh_file"}
    manifest = {
        "config": {k: (v if not isinstance(v, (list, tuple)) else list(v))
                   for k, v in vars(config).items() if k not in unused},
        "code_version": __version__,
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

    if args.reference is not None and not np.isfinite(args.reference):
        raise ValueError(f"--reference must be a finite number, got {args.reference}")
    cols = afem.read_trace_csv(args.trace)
    lam = [v for k, v in cols.items() if k.startswith("lambda_")]
    if not lam or {"ndof", "eta2_total"} - set(cols):
        raise ValueError(f"malformed trace {args.trace}: needs ndof, eta2_total, lambda_")
    slope = afem.quantity_rate(cols["ndof"], cols["eta2_total"], np.stack(lam, axis=1),
                               args.quantity, args.reference)
    print(f"{args.quantity} rate vs ndof: {slope!r}")
    return _EXIT_OK


def _cmd_reference(args):
    import numpy as np

    from . import afem, eigen

    # each option by the rule of the config field it fills
    for option, field in (("J", "cluster_size"), ("ndof", "max_ndof"),
                          ("lower_bound_constant", "lower_bound_constant")):
        what, valid = afem._FIELDS[field]
        value = getattr(args, option)
        if not valid(value):
            raise ValueError(f"--{option.replace('_', '-')} must be {what}, got {value}")
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


_HANDLERS = {"run": _cmd_run, "rates": _cmd_rates, "reference": _cmd_reference,
             "helmholtz-audit": _cmd_helmholtz_audit, "mesh-export": _cmd_mesh_export}


def _failures():
    # (exception classes, message prefix, exit code), the first match decides
    from .afem import ConfigError
    from .eigen import EigenError
    from .helmholtz import HelmholtzError
    from .mesh import MeshError
    from .space import SpaceError

    return ((_MalformedConfig, "malformed config", _EXIT_USAGE),
            (ConfigError, "invalid config", _EXIT_USAGE),
            ((MeshError, ValueError, OSError), "invalid input", _EXIT_USAGE),
            ((EigenError, HelmholtzError, SpaceError), "numerical failure", _EXIT_NUMERICAL))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # the thread settings as this process received them, before any cap
    args.thread_variables = {v: os.environ.get(v) for v in (*_THREAD_VARS, "PLATE_AFEM_THREADS")}
    try:
        if args.command == "run":
            _read_config(args)
        _configure_threads(getattr(args, "deterministic", False))
        if getattr(args, "out", None) is not None:
            _check_output(args.out)
        return _HANDLERS[args.command](args)
    except Exception as exc:
        for classes, prefix, code in _failures():
            if isinstance(exc, classes):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())

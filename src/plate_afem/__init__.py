"""Adaptive Morley finite elements for clustered plate-vibration eigenvalues.

The package computes eigenvalue windows of the fourth-order plate operator
on polygonal domains with clamped, simply supported and free boundary
parts, runs a residual-driven adaptive bisection loop, and verifies the
structural identities behind the method: the Hessian mean-projection
property of the nonconforming interpolation and the discrete splitting of
piecewise constant symmetric tensor fields.  It reports lower eigenvalue
bounds, guaranteed only under a configured constant, and principal
subspace angles; upper bounds are not computed.

The public names below are imported from their submodules on first use
(PEP 562), so importing the package or its CLI does not load numpy; the
CLI caps the linear-algebra thread pools before numpy starts them.  Mesh,
space, config and interpolation work uses numpy alone; scipy is loaded by
the first assembly, eigensolve or Helmholtz call.
"""

import importlib

_EXPORTS = {
    "afem": ("AfemConfig", "AfemTrace",
             "reference_eigenvalues", "run_afem", "uniform_trace"),
    "assembly": ("assemble_mass", "assemble_stiffness"),
    "eigen": ("ClusterSolution", "SeparationReport", "lower_bound",
              "separation", "solve_gevp"),
    "estimator": ("EstimatorField", "dorfler_mark", "estimate"),
    "helmholtz": ("XSpace", "build_xspace", "decompose", "dimension_audit"),
    "mesh": ("BoundaryPart", "Triangulation", "build_mesh", "load_mesh",
             "preset_mesh", "refine_nvb", "save_mesh", "uniform_refine"),
    "space": ("BrokenFunction", "MorleySpace", "build_space", "morley_interpolate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:        # submodule, as the eager imports used to bind
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

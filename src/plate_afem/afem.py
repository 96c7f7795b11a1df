"""Adaptive solve-estimate-mark-refine loop, rate measurement and
reference eigenvalues by extrapolation.

Each level solves the discrete eigenproblem for the configured window plus
a buffer, evaluates the residual estimator over the window, marks a minimal
bulk set and bisects.  The trace records one row per level, plus the time
of each phase and the solver diagnostics; in deterministic mode wall times
are written as zero so that two runs produce byte-identical files.
"""

import itertools
import numbers
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import assembly, eigen, estimator
from .mesh import Triangulation, ancestor_map, load_mesh, preset_mesh, refine_nvb, uniform_refine
from .space import (MorleySpace, _hessian_components, affine_kernel_dimension, build_space,
                    l2s_coordinates)

__all__ = [
    "AfemConfig",
    "AfemLevel",
    "AfemTrace",
    "ConfigError",
    "run_afem",
    "uniform_trace",
    "quantity_rate",
    "fit_rate",
    "richardson_extrapolate",
    "ReferenceResult",
    "reference_eigenvalues",
    "angle_to_reference",
]

_ETA2_FLOOR = 1e-12         # an estimator total at or below it counts as converged


class ConfigError(Exception):
    """Invalid adaptive-loop configuration."""


def _is(kind):
    # numpy's integers and floats pass; a boolean is not a number here
    return lambda v: isinstance(v, kind) and not isinstance(v, bool)


_INT, _REAL = _is(numbers.Integral), _is(numbers.Real)

# what each AfemConfig field must be, and the one check of its type and range
_FIELDS = {
    "geometry": ("a string", lambda v: isinstance(v, str)),
    "bc": ("a string or a list of strings", lambda v: isinstance(v, str) or (
        isinstance(v, (list, tuple)) and all(isinstance(s, str) for s in v))),
    "n": ("an integer >= 0", lambda v: _INT(v) and v >= 0),
    "cluster_size": ("an integer >= 1", lambda v: _INT(v) and v >= 1),
    "theta": ("a number in (0, 1]", lambda v: _REAL(v) and 0 < v <= 1),
    "max_levels": ("an integer >= 0", lambda v: _INT(v) and v >= 0),
    "max_ndof": ("an integer >= 1", lambda v: _INT(v) and v >= 1),
    "buffer": ("an integer >= 2", lambda v: _INT(v) and v >= 2),
    "deterministic": ("true or false", lambda v: isinstance(v, bool)),
    "mesh_file": ("a non-empty path or null", lambda v: v is None or isinstance(v, str) and v),
}


@dataclass
class AfemConfig:
    """Configuration of the adaptive loop.

    ``n`` and ``cluster_size`` fix the eigenvalue window ``n+1 .. n+N``;
    ``buffer`` extra eigenvalues are computed for separation diagnostics.
    A field that fails its check in ``_FIELDS`` raises ConfigError.
    """

    geometry: str = "square"
    bc: object = "clamped"
    n: int = 0
    cluster_size: int = 1
    theta: float = 0.5
    max_levels: int = 12
    max_ndof: int = 20000
    buffer: int = 4
    deterministic: bool = False
    mesh_file: object = None

    def __post_init__(self):
        for name, (what, valid) in _FIELDS.items():
            value = getattr(self, name)
            if not valid(value):
                raise ConfigError(f"{name} must be {what}, got {value!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "AfemConfig":
        """Build a config from a JSON document, applying defaults.

        The window is given only as ``{"J": {"n": .., "N": ..}}``, and a
        ``mesh_file`` takes the place of ``geometry`` and ``bc``; any other
        key, or a key of the other spelling, raises ConfigError.
        """
        doc = dict(doc)
        unknown = set(doc) - (set(_FIELDS) - {"n", "cluster_size"} | {"J"})
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if doc.get("mesh_file") is not None and {"geometry", "bc"} & set(doc):
            raise ConfigError("mesh_file replaces geometry and bc: give one or the other")
        j = doc.pop("J", {})
        if not isinstance(j, dict) or set(j) - {"n", "N"}:
            raise ConfigError(f'J must be an object with keys "n" and "N" only, got {j!r}')
        return cls(**doc, **{"cluster_size" if k == "N" else k: v for k, v in j.items()})

    def window_indices(self):
        return np.arange(self.n + 1, self.n + self.cluster_size + 1)

    def initial_mesh(self) -> Triangulation:
        if self.mesh_file is not None:
            return load_mesh(self.mesh_file)
        return preset_mesh(self.geometry, self.bc)


@dataclass
class AfemLevel:
    """One row of the adaptive trace; ``wall_time`` is the sum of its phase
    timings."""

    level: int
    ndof: int
    num_triangles: int
    h_max: float
    eigenvalues: np.ndarray
    lower_bounds: np.ndarray
    eta2_total: float
    marked: int
    m_j: float
    timings: dict = field(default_factory=dict)     # seconds per phase
    solver: dict = field(default_factory=dict)      # eigensolver diagnostics

    @property
    def wall_time(self) -> float:
        return sum(self.timings.values())


@dataclass
class AfemTrace:
    """Per-level records plus the meshes and window solutions of the run;
    each window solution owns its ndof x N vectors (``ClusterSolution.window``)."""

    config: AfemConfig
    levels: list = field(default_factory=list)
    meshes: list = field(default_factory=list)
    clusters: list = field(default_factory=list)
    converged: bool = False

    @property
    def ndofs(self):
        return np.array([r.ndof for r in self.levels])

    def column(self, name):
        return np.array([getattr(r, name) for r in self.levels])

    def eigenvalue_matrix(self):
        return np.array([r.eigenvalues for r in self.levels])

    def csv_header(self):
        js = self.config.window_indices()
        cols = ["level", "ndof", "num_triangles", "h_max", "eta2_total",
                "marked", "m_j", "wall_time_s"]
        cols += [f"lambda_{j}" for j in js]
        cols += [f"lower_bound_{j}" for j in js]
        return ",".join(cols)

    def to_csv(self, path):
        det = self.config.deterministic
        with open(path, "w") as fh:
            fh.write(self.csv_header() + "\n")
            for r in self.levels:
                wall = 0.0 if det else r.wall_time
                row = [str(r.level), str(r.ndof), str(r.num_triangles),
                       repr(r.h_max), repr(r.eta2_total), str(r.marked),
                       repr(r.m_j), repr(wall)]
                row += [repr(float(v)) for v in r.eigenvalues]
                row += [repr(float(v)) for v in r.lower_bounds]
                fh.write(",".join(row) + "\n")


def read_trace_csv(path):
    """Columns of a trace CSV as a dict of float arrays; ValueError if malformed."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if not rows or any(len(row) != len(header) for row in rows):
        raise ValueError(f"malformed trace {path}: no rows, or a row of another length")
    data = np.array([[float(v) for v in row] for row in rows])
    return {name: data[:, k] for k, name in enumerate(header)}


@contextmanager
def _phase(timings, name):
    t0 = time.perf_counter()
    yield
    timings[name] = time.perf_counter() - t0


def _solve_level(level, space, config, timings):
    # the level's record (with nothing marked yet), window and estimate
    with _phase(timings, "assemble"):
        A = assembly.assemble_stiffness(space)
        M = assembly.assemble_mass(space)
    count = min(config.n + config.cluster_size + config.buffer, space.ndof)
    if count < config.n + config.cluster_size:
        raise eigen.EigenError(
            f"space too small: ndof={space.ndof} cannot host the window")
    with _phase(timings, "solve"):
        sol = eigen.solve_gevp(A, M, count)
        if sol.eigenvalues[0] <= 0:
            raise eigen.EigenError(
                "nonpositive plate eigenvalue: check the boundary conditions")
        cluster = sol.window(config.n, config.cluster_size)
        rep = eigen.separation(sol.computed_spectrum, config.window_indices())
    with _phase(timings, "estimate"):
        fld = estimator.estimate(space, cluster)
    H = space.mesh.max_diameter
    lows = np.array([eigen.lower_bound(v, H) for v in cluster.eigenvalues])
    solver = {"path": sol.path, "lanczos_solves": sol.lanczos_solves,
              "factor_nnz": sol.factor_nnz,
              "max_residual": float(sol.residuals.max()),
              "b_orthonormality_residual": sol.b_orthonormality_residual,
              "a_diagonality_residual": sol.a_diagonality_residual, "truncated": rep.truncated,
              "nearest_gap": None if np.isnan(rep.nearest_gap) else rep.nearest_gap}
    record = AfemLevel(
        level=level, ndof=space.ndof, num_triangles=space.mesh.num_triangles,
        h_max=float(space.mesh.h_t.max()), eigenvalues=cluster.eigenvalues.copy(),
        lower_bounds=lows, eta2_total=fld.total, marked=0, m_j=rep.m_j, timings=timings,
        solver=solver)
    return record, cluster, fld


def run_afem(config: AfemConfig) -> AfemTrace:
    """Run the adaptive loop until a stopping criterion fires.

    Raises ClusterSplitError when the configured window cuts a numerically
    multiple eigenvalue.
    """
    return _loop(config, uniform=False)


def uniform_trace(config: AfemConfig) -> AfemTrace:
    """Uniform-refinement counterpart of ``run_afem`` with the same records;
    every triangle counts as marked, and only the level and ndof limits stop;
    a level whose space cannot hold the window is refined without a record."""
    return _loop(config, uniform=True)


def _loop(config, uniform):
    # decided from the boundary alone, so the dense and the sparse eigen
    # paths reject the same configs; refinement keeps the boundary parts
    mesh = config.initial_mesh()
    rigid = affine_kernel_dimension(mesh)
    if rigid > 0:
        raise ConfigError(
            f"the boundary conditions leave {rigid} rigid-body mode(s) "
            "(affine functions) in the space, so the plate has a zero "
            "eigenvalue: clamp or support more of the boundary")
    trace = AfemTrace(config=config)
    space = None
    for level in itertools.count():
        timings = dict.fromkeys(("build_space", "assemble", "solve", "estimate",
                                 "mark", "refine"), 0.0)
        with _phase(timings, "build_space"):
            # rebinding drops the previous level's space before the solve
            space = build_space(mesh, space)
        if uniform and space.ndof < config.n + config.cluster_size and level < config.max_levels:
            mesh = uniform_refine(mesh)         # too small for the window: no record
            continue
        record, cluster, fld = _solve_level(level, space, config, timings)
        record.solver["affine_kernel_dimension"] = rigid
        with _phase(timings, "mark"):
            marked = None if uniform else estimator.dorfler_mark(fld, config.theta)
        record.marked = space.mesh.num_triangles if uniform else len(marked)
        trace.levels.append(record)
        trace.meshes.append(mesh)
        trace.clusters.append(cluster)
        if level >= config.max_levels or space.ndof >= config.max_ndof:
            break
        if not uniform and fld.total <= _ETA2_FLOOR:
            trace.converged = True
            break
        with _phase(timings, "refine"):
            mesh = uniform_refine(mesh) if uniform else refine_nvb(mesh, marked)
    return trace


# -- rates and references --------------------------------------------------


def fit_rate(ndofs, values, tail=None):
    """Least-squares slope of log(values) against log(ndof - ndofs[0] + 1).

    Uses the last ``tail`` levels, from 2 to all; by default the last half.
    """
    ndofs = np.asarray(ndofs, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(ndofs) < 4 or np.any(np.diff(ndofs) <= 0):
        raise ValueError("need at least 4 levels of increasing ndof to fit a rate")
    if not np.all(np.isfinite(values) & (values > 0)):
        raise ValueError("rate fit requires finite positive values")
    if tail is not None and not (_INT(tail) and 2 <= tail <= len(ndofs)):
        raise ValueError(f"tail must be an integer from 2 to {len(ndofs)}, got {tail!r}")
    k = len(ndofs) - (tail if tail is not None else len(ndofs) // 2)
    x = np.log(ndofs[k:] - ndofs[0] + 1.0)
    y = np.log(values[k:])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def quantity_rate(ndofs, eta2, lam, quantity, reference=None):
    """Empirical rate of ``"eta2"`` or ``"lambda_err"`` against ndof.

    ``eta2`` holds the estimator total per level and ``lam`` the window
    eigenvalues, one row per level.  ``"lambda_err"`` is the largest
    deviation of a row from ``reference``, an eigenvalue array (or a scalar
    for every window member).
    """
    if quantity == "eta2":
        vals = eta2
    elif quantity == "lambda_err":
        if reference is None:
            raise ValueError("lambda_err needs a reference eigenvalue")
        lam = np.asarray(lam, dtype=float)
        ref = np.broadcast_to(np.asarray(reference, dtype=float), lam.shape[1:])
        vals = np.abs(lam - ref).max(axis=1)
    else:
        raise ValueError(f"unknown quantity {quantity!r}")
    return fit_rate(ndofs, vals)


def richardson_extrapolate(values):
    """Limit estimate from the last three terms of an algebraically
    convergent sequence, with observed ratio and uncertainty.

    Returns (limit, observed_ratio, uncertainty, reliable).  The sequence of
    differences must be monotone in sign and decreasing, otherwise the
    extrapolation is flagged unreliable.
    """
    v = np.asarray(values, dtype=float)
    if len(v) < 3:
        raise ValueError("need at least three terms")
    d1 = v[-2] - v[-3]
    d2 = v[-1] - v[-2]
    reliable = d1 * d2 > 0 and abs(d2) < abs(d1)
    if not reliable:
        return float(v[-1]), float("nan"), float("inf"), False
    r = d1 / d2
    limit = v[-1] + d2 / (r - 1.0)
    unc = abs(limit - v[-1])
    if len(v) >= 4:
        d0 = v[-3] - v[-4]
        if d0 * d1 > 0 and abs(d1) < abs(d0):
            # the previous extrapolation, from the three terms before
            unc = abs(limit - (v[-2] + d1 / (d0 / d1 - 1.0)))
    return float(limit), float(r), float(unc), True


@dataclass
class ReferenceResult:
    """Uniform-refinement eigenvalue sequences with extrapolated limits, and
    the window of the finest solve with that mesh's largest triangle diameter."""

    indices: np.ndarray
    ndofs: np.ndarray
    values: np.ndarray          # (levels, window)
    limits: np.ndarray
    ratios: np.ndarray
    uncertainties: np.ndarray
    reliable: np.ndarray
    finest: eigen.ClusterSolution
    max_diameter: float


def reference_eigenvalues(geometry, bc, J, target_ndof) -> ReferenceResult:
    """Uniform-refinement reference values for the window ``J``.

    Refines until ``target_ndof`` is reached, then extrapolates each window
    member.  ``J`` is an iterable of distinct, consecutive 1-based indices;
    any other raises ConfigError.  Every level computes at least 8
    eigenpairs, all kept in ``finest``.
    """
    J = np.asarray(sorted(J))
    if len(J) == 0 or J.dtype.kind not in "iu" or np.any(np.diff(J) != 1):
        raise ConfigError(f"J must list consecutive window indices, got {J.tolist()}")
    n, N = int(J[0] - 1), len(J)
    config = AfemConfig(geometry=geometry, bc=bc, n=n, cluster_size=N,
                        buffer=max(4, 8 - N), max_levels=64,
                        max_ndof=int(target_ndof))
    trace = uniform_trace(config)
    lam = trace.eigenvalue_matrix()
    limits, ratios, uncs, ok = map(np.array, zip(*map(richardson_extrapolate, lam.T)))
    return ReferenceResult(indices=J, ndofs=trace.ndofs, values=lam, limits=limits,
                           ratios=ratios, uncertainties=uncs, reliable=ok,
                           finest=trace.clusters[-1],
                           max_diameter=trace.meshes[-1].max_diameter)


def angle_to_reference(space: MorleySpace, cluster,
                       ref_space: MorleySpace, ref_cluster) -> float:
    """Largest-angle sine between a level's window span and a reference span.

    Both blocks are compared in the broken-Hessian product on the reference
    mesh, which must refine the level mesh: a level triangle's Hessian is
    read on each of its descendants, as prolongation would copy it.
    """
    if cluster.vectors.shape[1] != ref_cluster.vectors.shape[1]:
        raise eigen.EigenError("window dimensions differ")
    fine = ref_space.mesh
    FX = _hessian_feature_block(space, cluster.vectors, fine)
    FY = _hessian_feature_block(ref_space, ref_cluster.vectors, fine)
    return eigen.sin_max_angle(FX, FY)


def _hessian_feature_block(space, vectors, fine_mesh):
    amap = ancestor_map(fine_mesh, space.mesh)
    H = _hessian_components(space.window_coefficients(vectors))[:, amap]  # (N, T, 3)
    feats = l2s_coordinates(np.moveaxis(H, 0, 1), fine_mesh.areas)      # (T, N, 3)
    return feats.transpose(0, 2, 1).reshape(-1, vectors.shape[1])

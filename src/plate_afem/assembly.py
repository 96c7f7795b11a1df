"""Assembly of the broken-Hessian stiffness form, mass form, loads and
elementwise polynomial projections.

Stiffness entries are exact (piecewise quadratics have constant Hessians);
mass entries use a rule of degree four which is exact for products of
quadratics.  Element loops are vectorised and reduce in a fixed order, so
repeated assembly is bit identical.  The element matrices are element data
of the space: computed once per space, and only on the triangles that are
new on its mesh when the space was built from the parent mesh's space.  The
stiffness and the mass matrix scatter through one set of lower-triangle
triplet indices per space and are returned as ``scipy.sparse.csr_matrix``
holding both triangles: the lower triangle is summed once and mirrored, so
symmetry is exact.
"""

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .quadrature import physical_points, triangle_rule
from .space import MorleySpace, l2s_coordinates

__all__ = [
    "SingularSystemError",
    "assemble_stiffness",
    "assemble_mass",
    "load_vector",
    "solve_linear",
    "solve_with_load",
    "project_pk",
    "osc_k",
]


class SingularSystemError(Exception):
    """The reduced linear system is singular.

    For the plate forms this signals that the boundary conditions admit a
    nonzero affine function, i.e. the space intersects the affine functions
    nontrivially.
    """


def _lower_triplets(space):
    # global row and column of every free lower-triangle entry of the
    # (T, 6, 6) element matrices, and the mask that picks those entries
    dofs = space.cell_dofs                      # (T, 6), -1 = constrained
    rows = np.repeat(dofs[:, :, None], 6, axis=2).ravel()
    cols = np.repeat(dofs[:, None, :], 6, axis=1).ravel()
    keep = (rows >= 0) & (cols >= 0) & (rows >= cols)
    return rows[keep].astype(np.int32), cols[keep].astype(np.int32), keep


def _scatter_symmetric(space, local):
    """Symmetric CSR matrix of the (T, 6, 6) element matrices: the lower
    triangle is summed once and mirrored, so symmetry is exact."""
    rows, cols, keep = space.derived("lower_triplets", _lower_triplets)
    n = space.ndof
    lower = sparse.coo_matrix((local.ravel()[keep], (rows, cols)), shape=(n, n)).tocsr()
    lower.sum_duplicates()
    return (lower + sparse.tril(lower, k=-1).T).tocsr()


def _local_stiffness(space, rows):
    feat = l2s_coordinates(space.basis_hessians[rows], space.mesh.areas[rows])
    return (np.einsum("tia,tja->tij", feat, feat),)


def _local_mass(space, rows):
    rule = triangle_rule(4)
    vals = _basis_at_rule(space, rule, rows)
    local = np.einsum("q,tqi,tqj->tij", rule.weights, vals, vals)
    local *= space.mesh.areas[rows, None, None]
    return (local,)


def assemble_stiffness(space: MorleySpace) -> sparse.csr_matrix:
    """Broken-Hessian stiffness matrix; entries are exact."""
    return _scatter_symmetric(space, space.element_data("stiffness", _local_stiffness)[0])


def assemble_mass(space: MorleySpace) -> sparse.csr_matrix:
    """L2 mass matrix via a degree-4 rule (exact for quadratic pairs)."""
    return _scatter_symmetric(space, space.element_data("mass", _local_mass)[0])


def _basis_at_rule(space, rule, rows=slice(None)):
    mesh = space.mesh
    pts = physical_points(rule, mesh.vertices[mesh.triangles[rows]])
    d = pts - mesh.centroids[rows, None, :]
    mono = np.stack([np.ones_like(d[..., 0]), d[..., 0], d[..., 1],
                     d[..., 0] ** 2, d[..., 0] * d[..., 1], d[..., 1] ** 2],
                    axis=-1)                    # (T, nq, 6)
    return np.einsum("tqm,tim->tqi", mono, space.basis[rows])


def load_vector(space: MorleySpace, f, quad_degree=4) -> np.ndarray:
    """Right-hand side with entries ``int f * basis_j`` by quadrature."""
    rule = triangle_rule(quad_degree)
    mesh = space.mesh
    fvals = _sample(f, physical_points(rule, mesh.vertices[mesh.triangles]))
    basis = _basis_at_rule(space, rule)
    local = np.einsum("q,tq,tqi->ti", rule.weights, fvals, basis)
    local *= mesh.areas[:, None]
    out = np.zeros(space.ndof)
    dofs = space.cell_dofs.ravel()
    keep = dofs >= 0
    np.add.at(out, dofs[keep], local.ravel()[keep])
    return out


def _sample(f, pts):
    # f is vectorised: f(x, y) on coordinate arrays
    flat = pts.reshape(-1, 2)
    return np.asarray(f(flat[:, 0], flat[:, 1]), dtype=float).reshape(pts.shape[:-1])


def solve_with_load(space: MorleySpace, F, rtol=1e-10) -> np.ndarray:
    """Solve the stiffness system for a given load vector by a sparse LU."""
    A = assemble_stiffness(space)
    F = np.asarray(F, dtype=float)
    if space.ndof == 0:
        return np.zeros(0)
    with np.errstate(all="ignore"):
        u = spla.spsolve(A.tocsc(), F)
    norm_f = np.linalg.norm(F)
    resid = np.linalg.norm(A @ u - F)
    if not np.all(np.isfinite(u)) or resid > rtol * max(norm_f, 1e-300):
        raise SingularSystemError(
            "singular stiffness system: the boundary conditions leave a "
            "nonzero affine function in the space")
    return u


def solve_linear(space: MorleySpace, f, quad_degree=4) -> np.ndarray:
    """Morley solution of the linear plate problem with a vectorised source
    ``f(x, y)``."""
    return solve_with_load(space, load_vector(space, f, quad_degree))


_PK_EXPONENTS = {0: [(0, 0)], 1: [(0, 0), (1, 0), (0, 1)],
                 2: [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]}


def project_pk(mesh, f, k, quad_degree=8):
    """Elementwise L2 projection onto polynomials of degree <= k.

    Returns coefficients (T, n_k) in scaled centroid monomials and the
    projected values at the quadrature points used.
    """
    if k not in _PK_EXPONENTS:
        raise ValueError("k must be 0, 1 or 2")
    rule = triangle_rule(quad_degree)
    pts = physical_points(rule, mesh.vertices[mesh.triangles])
    d = (pts - mesh.centroids[:, None, :]) / mesh.h_t[:, None, None]
    basis = np.stack([d[..., 0] ** a * d[..., 1] ** b
                      for a, b in _PK_EXPONENTS[k]], axis=-1)   # (T, nq, nb)
    w = rule.weights
    G = np.einsum("q,tqa,tqb->tab", w, basis, basis)
    fvals = _sample(f, pts)
    rhs = np.einsum("q,tq,tqa->ta", w, fvals, basis)
    coeffs = np.linalg.solve(G, rhs[..., None])[..., 0]
    proj_at_pts = np.einsum("ta,tqa->tq", coeffs, basis)
    return coeffs, proj_at_pts, fvals, rule


def osc_k(mesh, f, k, quad_degree=8) -> float:
    """Data oscillation ``|| h^2 (1 - Pi_k) f ||_L2``."""
    _, proj, fvals, rule = project_pk(mesh, f, k, quad_degree)
    res2 = np.einsum("q,tq->t", rule.weights, (fvals - proj) ** 2) * mesh.areas
    return float(np.sqrt(np.sum(mesh.areas ** 2 * res2)))


"""Assembly of the broken-Hessian stiffness form and the mass form.

Stiffness entries are exact (piecewise quadratics have constant Hessians);
mass entries use the 7-point rule, which is exact for products of
quadratics.  Element loops are vectorised and reduce in a fixed order, so
repeated assembly is bit identical.  The element matrices are element data
of the space: computed once per space, and only on the triangles that are
new on its mesh when the space was built from the parent mesh's space.  The
stiffness and the mass matrix each build the lower-triangle triplet
indices they scatter through and drop them after the scatter, so a space
keeps no scatter indices.  Both are returned as ``scipy.sparse.csr_matrix``
holding both triangles: the lower triangle is summed once and mirrored, so
symmetry is exact.
"""

import numpy as np

from .space import _RULE_WEIGHTS, MorleySpace, _hessian_components, _rule_offsets, l2s_coordinates

__all__ = [
    "assemble_stiffness",
    "assemble_mass",
]


def _lower_triplets(space):
    # global row and column of every free lower-triangle entry of the
    # (T, 6, 6) element matrices, and the (T, 6, 6) mask that picks them;
    # a constrained DOF (-1) compares below every row and above every column
    dofs = space.cell_dofs.astype(np.int32)     # (T, 6), -1 = constrained
    as_col = np.where(dofs >= 0, dofs, np.iinfo(np.int32).max)
    keep = dofs[:, :, None] >= as_col[:, None, :]
    return (np.repeat(dofs[:, :, None], 6, axis=2)[keep],
            np.repeat(dofs[:, None, :], 6, axis=1)[keep], keep)


def _scatter_symmetric(space, local):
    """Symmetric CSR matrix of the (T, 6, 6) element matrices: the lower
    triangle is summed once and mirrored, so symmetry is exact."""
    import scipy.sparse as sparse
    rows, cols, keep = _lower_triplets(space)
    n = space.ndof
    lower = sparse.coo_matrix((local[keep], (rows, cols)), shape=(n, n)).tocsr()
    lower.sum_duplicates()
    return (lower + sparse.tril(lower, k=-1).T).tocsr()


def _local_stiffness(space, rows):
    # the Hessians of these rows only, not the space's (T, 6, 3) array
    hess = _hessian_components(space.basis[rows])
    feat = l2s_coordinates(hess, space.mesh.areas[rows])
    return (np.einsum("tia,tja->tij", feat, feat),)


def _local_mass(space, rows):
    vals = _basis_at_rule(space, rows)
    local = np.einsum("q,tqi,tqj->tij", _RULE_WEIGHTS, vals, vals)
    local *= space.mesh.areas[rows, None, None]
    return (local,)


def assemble_stiffness(space: MorleySpace) -> "scipy.sparse.csr_matrix":
    """Broken-Hessian stiffness matrix; entries are exact."""
    return _scatter_symmetric(space, space.element_data("stiffness", _local_stiffness)[0])


def assemble_mass(space: MorleySpace) -> "scipy.sparse.csr_matrix":
    """L2 mass matrix via the 7-point rule (exact for quadratic pairs)."""
    return _scatter_symmetric(space, space.element_data("mass", _local_mass)[0])


def _basis_at_rule(space, rows):
    d = _rule_offsets(space.mesh, rows)
    mono = np.stack([np.ones_like(d[..., 0]), d[..., 0], d[..., 1],
                     d[..., 0] ** 2, d[..., 0] * d[..., 1], d[..., 1] ** 2],
                    axis=-1)                    # (T, nq, 6)
    return np.einsum("tqm,tim->tqi", mono, space.basis[rows])

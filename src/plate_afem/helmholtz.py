"""Constructive check of the discrete Helmholtz splitting of piecewise
constant symmetric tensor fields on simply-connected meshes.

Every such field decomposes L2-orthogonally into the broken Hessian of a
Morley function plus the symmetrised Curl of a continuous piecewise-affine
vector field from a constrained space: zero mean, zero mean divergence,
no normal increment along simply supported and free boundary edges, and
matching scaled tangential increments across vertices interior to the free
boundary.  The constrained space is kept as its sparse constraint rows C,
and the Curl side works with the sparse symmetric-Curl operator S of all
nodal fields restricted to ker C, through one factorisation of the
saddle-point matrix [[S^T S - sigma I, C^T], [C, 0]].  The dimension
identity behind the splitting is audited through integer ranks, each
counted from the lowest eigenvalues of a Gram matrix with a checked
spectral gap: for the Curl map, constrained shift-invert Lanczos on S^T S
with the band relative to |S^T S|_1.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .eigen import _norm1, _symmetric_splu
from .mesh import BoundaryPart, Triangulation
from .space import (MorleySpace, _numerical_rank, _p1_gradients, affine_kernel_coefficients,
                    l2s_coordinates)

__all__ = [
    "XSpace",
    "DecompositionResult",
    "HelmholtzError",
    "build_xspace",
    "decompose",
    "dimension_audit",
    "tensor_features",
]

_KERNEL_RTOL, _RANGE_RTOL, _SHIFT_RTOL = 1e-13, 1e-9, 1e-11
_REFINE_RTOL, _REFINE_STEPS = 1e-14, 8


class HelmholtzError(Exception):
    """Decomposition failure or audited identity violation."""


@dataclass
class XSpace:
    """Constrained continuous piecewise-affine vector fields.

    A nodal field stores the two components of vertex ``z`` at entries
    ``2z`` and ``2z + 1``.  The space is the null space of ``constraints``,
    the sparse (constraint_rank, 2N) matrix of its independent constraint
    rows; no basis is needed to audit it or to decompose into it.
    """

    mesh: Triangulation
    constraints: "scipy.sparse.csr_matrix"
    dim: int
    expected_dim: int
    n_constraints: int
    constraint_rank: int

    @property
    def rank_deficient(self) -> bool:
        return self.constraint_rank < self.n_constraints

    @cached_property
    def basis(self) -> np.ndarray:
        """Dense (2N, dim) orthonormal basis, formed on first use."""
        return _null_basis(self.constraints)

    @cached_property
    def _curl_gram(self) -> "_Gram":
        # the one factorisation that dimension_audit and decompose share
        return _Gram(_sym_curl_operator(self.mesh), self.constraints)


def build_xspace(mesh: Triangulation) -> XSpace:
    """Assemble the sparse constraint rows and keep an independent subset.

    The rank and the independent rows come from a pivoted orthogonal
    factorisation of the transposed rows with relative threshold 1e-10;
    the expected dimension is ``2#N - 3 - #F(S u F) - #corner-vertices(F)``
    when the constraints are independent, which is reported rather than
    assumed.
    """
    import scipy.linalg as dla
    import scipy.sparse as sparse
    n = mesh.num_vertices
    tris = mesh.triangles
    grads = _p1_gradients(mesh)
    sf = mesh.edges_with_tag(BoundaryPart.SIMPLY_SUPPORTED, BoundaryPart.FREE)
    free = mesh.edges_with_tag(BoundaryPart.FREE)
    corners = mesh.free_corner_vertices()
    n_constraints = 3 + len(sf) + len(corners)
    blocks = []   # (rows (k,), vertices (k, m), values (k, m, 2)): k rows on m vertices each

    # zero mean, both components: int phi_z = sum of adjacent areas / 3
    wz = np.bincount(tris.ravel(), np.repeat(mesh.areas / 3.0, 3), minlength=n)
    blocks.append((np.arange(2), np.arange(n)[None, :].repeat(2, axis=0),
                   wz[None, :, None] * np.eye(2)[:, None, :]))

    # zero mean divergence
    blocks.append((np.array([2]), tris.reshape(1, -1),
                   (mesh.areas[:, None, None] * grads).reshape(1, -1, 2)))

    # no normal increment along simply supported / free edges
    nu = mesh.edge_normals[sf]
    blocks.append((3 + np.arange(len(sf)), mesh.edges[sf], np.stack([-nu, nu], axis=1)))

    # matching scaled tangential increments at vertices interior to the
    # free boundary (exactly the vertices shared by two free edges)
    incoming, outgoing = np.full(n, -1), np.full(n, -1)
    incoming[mesh.edges[free, 1]] = free
    outgoing[mesh.edges[free, 0]] = free
    fm, fp = incoming[corners], outgoing[corners]
    tm = mesh.edge_tangents[fm] / mesh.edge_lengths[fm, None]
    tp = mesh.edge_tangents[fp] / mesh.edge_lengths[fp, None]
    blocks.append((3 + len(sf) + np.arange(len(corners)),
                   np.stack([corners, mesh.edges[fm, 0], mesh.edges[fp, 1]], axis=1),
                   np.stack([tm + tp, -tm, -tp], axis=1)))

    rows = np.concatenate([np.repeat(r, 2 * v.shape[1]) for r, v, _ in blocks])
    cols = np.concatenate([(2 * v[:, :, None] + np.arange(2)).ravel() for _, v, _ in blocks])
    vals = np.concatenate([x.ravel() for _, _, x in blocks])
    C = sparse.csr_matrix((vals, (rows, cols)), shape=(n_constraints, 2 * n))
    C.eliminate_zeros()
    R, piv = dla.qr(C.T.toarray(), pivoting=True, mode="r")
    rank = _numerical_rank(np.abs(np.diag(R)))
    expected = 2 * n - 3 - len(sf) - len(corners)
    return XSpace(mesh=mesh, constraints=C[np.sort(piv[:rank])], dim=2 * n - rank,
                  expected_dim=expected, n_constraints=n_constraints,
                  constraint_rank=rank)


def _null_basis(C):
    """Orthonormal basis of the null space of independent sparse rows C."""
    import scipy.linalg as dla
    return dla.qr(C.T.toarray(), mode="full")[0][:, C.shape[0]:]


def tensor_features(mesh, comps) -> np.ndarray:
    """Flatten (T, 3) tensor components into L2(S)-isometric vectors."""
    return l2s_coordinates(comps, mesh.areas).ravel()


def _hessian_operator(space: MorleySpace) -> "scipy.sparse.csr_matrix":
    """Sparse (3#T, ndof) matrix of weighted broken Hessians of the basis."""
    import scipy.sparse as sparse
    mesh = space.mesh
    feats = l2s_coordinates(space.basis_hessians, mesh.areas)  # (T, 6, 3)
    t, i = np.nonzero(space.cell_dofs >= 0)
    rows = 3 * t[:, None] + np.arange(3)
    cols = np.broadcast_to(space.cell_dofs[t, i][:, None], rows.shape)
    # a triangle's six DOFs are distinct, so every (row, column) is set once
    return sparse.csr_matrix(
        (feats[t, i].ravel(), (rows.ravel(), cols.ravel())),
        shape=(3 * mesh.num_triangles, space.ndof))


def _sym_curl_operator(mesh) -> "scipy.sparse.csr_matrix":
    """Sparse (3#T, 2#N) matrix of weighted symmetric Curls of nodal fields.

    With D[i, d] = d beta_i / dx_d on a triangle, the components are
    s11 = -D[0, 1], s22 = D[1, 0] and s12 = (D[0, 0] - D[1, 1]) / 2.
    """
    import scipy.sparse as sparse
    g = _p1_gradients(mesh)                              # (T, 3, 2)
    comps = np.zeros((mesh.num_triangles, 3, 2, 3))      # (T, vertex, beta_i, s)
    comps[:, :, 0, 0], comps[:, :, 1, 1] = -g[:, :, 1], g[:, :, 0]
    comps[:, :, 0, 2], comps[:, :, 1, 2] = 0.5 * g[:, :, 0], -0.5 * g[:, :, 1]
    vals = l2s_coordinates(comps, mesh.areas)[:, :, [0, 1, 0, 1], [0, 1, 2, 2]]
    vals = vals.transpose(0, 2, 1)                       # (T, 4, 3)
    rows = 3 * np.arange(mesh.num_triangles)[:, None, None] + np.array([0, 1, 2, 2])[:, None]
    cols = 2 * mesh.triangles[:, None, :] + np.array([0, 1, 0, 1])[:, None]
    return sparse.csr_matrix(
        (vals.ravel(), (np.broadcast_to(rows, vals.shape).ravel(), cols.ravel())),
        shape=(3 * mesh.num_triangles, 2 * mesh.num_vertices))


@dataclass
class DecompositionResult:
    phi: np.ndarray            # Morley coefficients
    psi_nodal: np.ndarray      # (N, 2)
    residual: float            # L2 norm of sigma - D^2 phi - sym Curl psi
    orthogonality: float       # (D^2 phi, sym Curl psi)_L2


def decompose(space: MorleySpace, xspace: XSpace, sigma) -> DecompositionResult:
    """Split a piecewise constant symmetric tensor field into the two parts.

    ``sigma`` has shape (T, 3) with components (s11, s22, s12).  The ranges
    of the Hessian map B_H and of the symmetric-Curl map B_C are orthogonal
    in L2(S) coordinates t, so the splitting is two independent projections.
    The Hessian part is the phi that minimises |B_H phi - t|, with its
    component along the kernel, the k affine functions of the space,
    removed so that k chosen DOFs are zero.  The Curl part is the nodal
    field psi with C psi = 0 that minimises |S psi - (t - B_H phi)| for the
    sparse symmetric-Curl operator S of all nodal fields.  Both are shifted
    solves with the Gram factorisations that ``dimension_audit`` uses (kept
    with the space and the XSpace), refined against the unshifted problem.
    When the audited ranks are ndof - k and dim, the stacked map has rank
    (ndof - k) + dim; a count other than 3#T, or a failed factorisation,
    raises HelmholtzError.
    """
    mesh = space.mesh
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (mesh.num_triangles, 3):
        raise HelmholtzError("sigma must have shape (#T, 3)")
    expected = 3 * mesh.num_triangles
    Z = affine_kernel_coefficients(space)
    free_rank = space.ndof - Z.shape[1]
    rank = free_rank + xspace.dim
    if rank != expected:
        raise _rank_deficient(expected, rank)
    target = tensor_features(mesh, sigma)

    try:
        drop = _kernel_dofs(Z)
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        raise _rank_deficient(expected, f"less than {rank} ({exc})") from exc
    hessian = _hessian_gram(space)
    if hessian.rank < free_rank:
        raise _rank_deficient(expected, rank - free_rank + hessian.rank)
    phi = hessian.lstsq(target)
    if drop.size:
        phi -= Z @ np.linalg.solve(Z[drop], phi[drop])
        phi[drop] = 0.0
    gram = xspace._curl_gram
    if gram.rank < xspace.dim:
        raise _rank_deficient(expected, rank - xspace.dim + gram.rank)
    part_h = hessian.B @ phi
    psi = gram.lstsq(target - part_h)
    part_c = gram.B @ psi
    resid = float(np.linalg.norm(target - part_h - part_c))
    ortho = float(part_h @ part_c)
    return DecompositionResult(phi=phi, psi_nodal=psi.reshape(-1, 2), residual=resid,
                               orthogonality=ortho)


def _rank_deficient(expected, got):
    return HelmholtzError(
        f"decomposition map is rank deficient: expected rank {expected}, "
        f"got {got}; the dimension identity fails on this mesh")


def _kernel_dofs(Z):
    """One DOF per column of the kernel basis ``Z``, with Z restricted to
    them invertible: the first pivots of a pivoted QR of Z^T."""
    import scipy.linalg as dla
    k = Z.shape[1]
    if k == 0:
        return np.zeros(0, dtype=np.int64)
    R, piv = dla.qr(Z.T, pivoting=True, mode="r")
    if _numerical_rank(np.abs(np.diag(R))) < k:
        raise RuntimeError("affine kernel basis is rank deficient")
    return piv[:k]


def _hessian_gram(space: MorleySpace) -> "_Gram":
    # the one factorisation that dimension_audit and decompose share
    return space.derived("hessian_gram", lambda s: _Gram(_hessian_operator(s)))


def dimension_audit(mesh: Triangulation, space: MorleySpace,
                    xspace: XSpace) -> dict:
    """Integer identity audit behind the decomposition, as a JSON-able dict.

    Checks the two counting identities on vertices, triangles and edges and
    the splitting identity ``3#T = rank(hessian map) + rank(sym-curl map)``.
    The rank of a map B on a space counts the eigenvalues mu of the Gram
    matrix G = B^T B restricted to that space above 1e-9 |G|_1; mu at most
    1e-13 |G|_1 is kernel, and a mu in between raises HelmholtzError
    because the rank is then undecided.  For the Hessian map G is the
    sparse Gram matrix of the Morley basis; for the sym-curl map it is
    S^T S on the constrained fields, with S the sparse operator of all
    nodal fields and |S^T S|_1 as the scale.
    """
    e1, e2 = mesh.euler_identities()
    rank_h = _hessian_gram(space).rank
    rank_c = xspace._curl_gram.rank
    dims = {
        "num_vertices": mesh.num_vertices,
        "num_triangles": mesh.num_triangles,
        "num_edges": mesh.num_edges,
        "num_interior_edges": int(mesh.interior_edge_mask.sum()),
        "ndof": space.ndof,
        "dim_x": xspace.dim,
        "dim_x_expected": xspace.expected_dim,
        "rank_hessian_map": rank_h,
        "rank_sym_curl_map": rank_c,
    }
    report = {
        "euler_ok": bool(e1 == 0 and e2 == 0),
        "dim_identity_ok": bool(3 * mesh.num_triangles == rank_h + rank_c),
        "x_constraints_independent": bool(not xspace.rank_deficient),
        "dims": dims,
    }
    return report


class _Gram:
    """The Gram matrix G = B^T B of a sparse map B on the null space of
    independent sparse rows C (no rows: the whole space), through one
    SuperLU factorisation of the saddle-point matrix

        K = [[G - sigma I, C^T], [C, 0]],   sigma = -1e-11 |G|_1.

    For any orthonormal basis Q of ker C, the first block of
    K^{-1} [x; 0] is Q (Q^T G Q - sigma I)^{-1} Q^T x: the shift-invert
    operator of the restricted Gram matrix Q^T G Q, whose eigenvalues it
    returns exactly, without forming Q.
    """

    def __init__(self, B, C=None):
        import scipy.sparse as sparse
        self.B = sparse.csr_matrix(B)
        n = self.B.shape[1]
        self.C = sparse.csr_matrix((0, n)) if C is None else sparse.csr_matrix(C)
        self.G = (self.B.T @ self.B).tocsr()
        self.G.sum_duplicates()     # canonical: the factor and the products sum in this order
        self.norm = _norm1(self.G) if n else 0.0
        self.sigma = -_SHIFT_RTOL * self.norm
        self.dim = n - self.C.shape[0]

    @cached_property
    def _lu(self):
        import scipy.sparse as sparse
        n = self.G.shape[0]
        K = sparse.bmat([[self.G - self.sigma * sparse.identity(n), self.C.T],
                         [self.C, None]], format="csc")
        try:
            # the stiffness factor's setting; diagonal pivots unless one is
            # below 1e-2 of its column, as the zero block makes some; a
            # larger threshold multiplies the fill of the unconstrained
            # Hessian Gram matrix
            return _symmetric_splu(K, 0.01)
        except RuntimeError as exc:
            raise HelmholtzError(f"rank computation failed: {exc}") from exc

    def solve(self, x) -> np.ndarray:
        """First block of K^{-1} [x; 0]: a shifted solve on ker C."""
        rhs = np.concatenate([x, np.zeros(self.C.shape[0])])
        return self._lu.solve(rhs)[: self.G.shape[0]]

    @cached_property
    def rank(self) -> int:
        """Rank of B on ker C from the lowest eigenvalues mu of Q^T G Q.

        Shift-invert Lanczos through ``solve``, started in ker C, finds the
        lowest 4, 8, ... mu while all of them are kernel; ``eigvalsh`` of
        the dense restricted Gram matrix takes over once the Lanczos basis
        (2 count + 1 vectors, at least 20) would not fit in ker C.  A mu
        below -1e-13 |G|_1 cannot come from a Gram matrix and fails.
        """
        import scipy.sparse.linalg as spla
        n, dim, norm = self.G.shape[0], self.dim, self.norm
        if norm == 0.0 or dim == 0:
            return 0
        count = 4
        try:
            OPinv = spla.LinearOperator((n, n), dtype=float, matvec=self.solve)
            v0 = self.solve(np.full(n, n ** -0.5))
            while True:
                dense = max(2 * count + 1, 20) > dim
                if dense:
                    Q = _null_basis(self.C)
                    mu = np.linalg.eigvalsh(Q.T @ (self.G @ Q))
                else:
                    mu = spla.eigsh(self.G, k=count, sigma=self.sigma, v0=v0,
                                    OPinv=OPinv, return_eigenvectors=False)
                if (mu < -_KERNEL_RTOL * norm).any():
                    raise HelmholtzError(
                        f"rank computation failed: negative Gram eigenvalue {mu.min() / norm}"
                        " of |G|_1")
                kernel = mu <= _KERNEL_RTOL * norm
                undecided = ~kernel & (mu <= _RANGE_RTOL * norm)
                if undecided.any():
                    raise HelmholtzError(
                        "rank undecided: no spectral gap, Gram eigenvalues "
                        f"{mu[undecided] / norm} of |G|_1 lie between 1e-13 and 1e-9")
                if not kernel.all() or dense:
                    return dim - int(kernel.sum())
                count *= 2
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            raise HelmholtzError(f"rank computation failed: {exc}") from exc

    def lstsq(self, b) -> np.ndarray:
        """The x with C x = 0 that minimises |B x - b|, for B of full rank
        on ker C; a kernel of B on ker C is left to the caller, as only
        rounding reaches it.

        Each refinement step solves the shifted system for the residual of
        the unshifted one, which contracts the error by -sigma / (mu - sigma)
        in the direction of each eigenvalue mu; mu > 1e-9 |G|_1 makes that
        at most 1e-2, so a few steps reach rounding level.
        """
        x = np.zeros(self.G.shape[0])
        tol = _REFINE_RTOL * np.linalg.norm(b)
        for _ in range(_REFINE_STEPS):
            dx = self.solve(self.B.T @ (b - self.B @ x))
            x += dx
            if np.linalg.norm(self.B @ dx) <= tol:
                break
        return x

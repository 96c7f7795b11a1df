"""Constructive check of the discrete Helmholtz splitting of piecewise
constant symmetric tensor fields on simply-connected meshes.

Every such field decomposes L2-orthogonally into the broken Hessian of a
Morley function plus the symmetrised Curl of a continuous piecewise-affine
vector field from a constrained space: zero mean, zero mean divergence,
no normal increment along simply supported and free boundary edges, and
matching scaled tangential increments across vertices interior to the free
boundary.  The dimension identity behind the splitting is audited through
integer ranks, each counted from the lowest eigenvalues of the Gram matrix
of a map with a checked spectral gap.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg as dla
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from . import assembly
from .eigen import _norm1, _spd_splu
from .mesh import BoundaryPart, Triangulation
from .space import MorleySpace, _p1_gradients, affine_kernel_coefficients

__all__ = [
    "XSpace",
    "DecompositionResult",
    "HelmholtzError",
    "build_xspace",
    "sym_curl",
    "full_curl",
    "hessian_map",
    "sym_curl_map",
    "decompose",
    "dimension_audit",
]

_RANK_RTOL = 1e-10
_KERNEL_RTOL, _RANGE_RTOL, _SHIFT_RTOL = 1e-13, 1e-9, 1e-11


class HelmholtzError(Exception):
    """Decomposition failure or audited identity violation."""


@dataclass
class XSpace:
    """Constrained continuous piecewise-affine vector fields.

    ``basis`` has shape (2N, dim): each column is a nodal field with the two
    components of vertex ``z`` stored at rows ``2z`` and ``2z + 1``.
    """

    mesh: Triangulation
    basis: np.ndarray
    dim: int
    expected_dim: int
    n_constraints: int
    constraint_rank: int

    @property
    def rank_deficient(self) -> bool:
        return self.constraint_rank < self.n_constraints

    def nodal(self, coeffs) -> np.ndarray:
        """Nodal (N, 2) representation of a coefficient vector."""
        return (self.basis @ np.asarray(coeffs, dtype=float)).reshape(-1, 2)


def build_xspace(mesh: Triangulation) -> XSpace:
    """Assemble the constraint matrix and compute its null-space basis.

    The null space is extracted from a pivoted orthogonal factorisation with
    relative threshold 1e-10; the expected dimension is
    ``2#N - 3 - #F(S u F) - #corner-vertices(F)`` when the constraints are
    independent, which is reported rather than assumed.
    """
    n = mesh.num_vertices
    grads = _p1_gradients(mesh)
    rows = []

    # zero mean, both components: int phi_z = sum of adjacent areas / 3
    wz = np.zeros(n)
    np.add.at(wz, mesh.triangles.ravel(), np.repeat(mesh.areas / 3.0, 3))
    for comp in (0, 1):
        r = np.zeros(2 * n)
        r[comp::2] = wz
        rows.append(r)

    # zero mean divergence
    r = np.zeros(2 * n)
    for i in range(3):
        np.add.at(r, 2 * mesh.triangles[:, i], mesh.areas * grads[:, i, 0])
        np.add.at(r, 2 * mesh.triangles[:, i] + 1, mesh.areas * grads[:, i, 1])
    rows.append(r)

    # no normal increment along simply supported / free edges
    for f in mesh.edges_with_tag(BoundaryPart.SIMPLY_SUPPORTED, BoundaryPart.FREE):
        z1, z2 = mesh.edges[f]
        nu = mesh.edge_normals[f]
        r = np.zeros(2 * n)
        r[2 * z2: 2 * z2 + 2] += nu
        r[2 * z1: 2 * z1 + 2] -= nu
        rows.append(r)

    # matching scaled tangential increments at vertices interior to the
    # free boundary (exactly the vertices shared by two free edges)
    free_edges = mesh.edges_with_tag(BoundaryPart.FREE)
    incoming = {int(mesh.edges[f, 1]): int(f) for f in free_edges}
    outgoing = {int(mesh.edges[f, 0]): int(f) for f in free_edges}
    for z in mesh.free_corner_vertices():
        fm, fp = incoming[int(z)], outgoing[int(z)]
        zm = mesh.edges[fm, 0]
        zp = mesh.edges[fp, 1]
        tm = mesh.edge_tangents[fm] / mesh.edge_lengths[fm]
        tp = mesh.edge_tangents[fp] / mesh.edge_lengths[fp]
        r = np.zeros(2 * n)
        r[2 * z: 2 * z + 2] += tm + tp
        r[2 * zm: 2 * zm + 2] -= tm
        r[2 * zp: 2 * zp + 2] -= tp
        rows.append(r)

    C = np.asarray(rows)
    # null space of C from a pivoted QR factorisation of its transpose
    Q, R, _ = dla.qr(C.T, pivoting=True, mode="full")
    rank = _pivoted_qr_rank(R)
    basis = Q[:, rank:]
    n_sf = len(mesh.edges_with_tag(BoundaryPart.SIMPLY_SUPPORTED, BoundaryPart.FREE))
    n_fc = len(mesh.free_corner_vertices())
    expected = 2 * n - 3 - n_sf - n_fc
    return XSpace(mesh=mesh, basis=basis, dim=basis.shape[1],
                  expected_dim=expected, n_constraints=C.shape[0],
                  constraint_rank=rank)


def _pivoted_qr_rank(R):
    """Numerical rank read off the diagonal of a pivoted QR factor."""
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] == 0.0:
        return 0
    return int(np.sum(diag > _RANK_RTOL * diag[0]))


def full_curl(mesh: Triangulation, nodal) -> np.ndarray:
    """Rowwise Curl of a continuous piecewise-affine field, per triangle.

    Returns (T, 2, 2) with row i equal to (-d beta_i / dy, d beta_i / dx).
    """
    nodal = np.asarray(nodal, dtype=float).reshape(-1, 2)
    grads = _p1_gradients(mesh)
    D = np.einsum("tld,tli->tid", grads, nodal[mesh.triangles])  # dbeta_i/dx_d
    curl = np.empty((mesh.num_triangles, 2, 2))
    curl[:, :, 0] = -D[:, :, 1]
    curl[:, :, 1] = D[:, :, 0]
    return curl


def sym_curl(mesh: Triangulation, nodal) -> np.ndarray:
    """Symmetric part of the Curl as (T, 3) components (s11, s22, s12)."""
    c = full_curl(mesh, nodal)
    return np.stack([c[:, 0, 0], c[:, 1, 1],
                     0.5 * (c[:, 0, 1] + c[:, 1, 0])], axis=1)


def _tensor_weights(mesh):
    # feature scaling that turns component vectors into L2(S) coordinates
    w = np.sqrt(mesh.areas)
    return np.stack([w, w, np.sqrt(2.0) * w], axis=1)    # (T, 3)


def tensor_features(mesh, comps) -> np.ndarray:
    """Flatten (T, 3) tensor components into L2(S)-isometric vectors."""
    return (np.asarray(comps, dtype=float) * _tensor_weights(mesh)).ravel()


def _hessian_operator(space: MorleySpace) -> sparse.csr_matrix:
    """Sparse (3#T, ndof) matrix of weighted broken Hessians of the basis."""
    mesh = space.mesh
    feats = space.basis_hessians * _tensor_weights(mesh)[:, None, :]  # (T, 6, 3)
    t, i = np.nonzero(space.cell_dofs >= 0)
    rows = 3 * t[:, None] + np.arange(3)
    cols = np.broadcast_to(space.cell_dofs[t, i][:, None], rows.shape)
    # a triangle's six DOFs are distinct, so every (row, column) is set once
    return sparse.csr_matrix(
        (feats[t, i].ravel(), (rows.ravel(), cols.ravel())),
        shape=(3 * mesh.num_triangles, space.ndof))


def hessian_map(space: MorleySpace) -> np.ndarray:
    """Dense (3#T, ndof) matrix of weighted broken Hessians of the basis."""
    return _hessian_operator(space).toarray()


def sym_curl_map(xspace: XSpace) -> np.ndarray:
    """Dense (3#T, dim) matrix of weighted symmetric Curls of the basis.

    The basis is mapped by one sparse (3#T, 2#N) operator: with
    D[i, d] = d beta_i / dx_d on a triangle, the components are
    s11 = -D[0, 1], s22 = D[1, 0] and s12 = (D[0, 0] - D[1, 1]) / 2.
    """
    mesh = xspace.mesh
    g = _p1_gradients(mesh)                              # (T, 3, 2)
    w = _tensor_weights(mesh)[:, :, None]                # (T, 3, 1)
    vals = np.stack([-w[:, 0] * g[:, :, 1], w[:, 1] * g[:, :, 0],
                     0.5 * w[:, 2] * g[:, :, 0], -0.5 * w[:, 2] * g[:, :, 1]],
                    axis=1)                              # (T, 4, 3)
    rows = 3 * np.arange(mesh.num_triangles)[:, None, None] + np.array([0, 1, 2, 2])[:, None]
    cols = 2 * mesh.triangles[:, None, :] + np.array([0, 1, 0, 1])[:, None]
    S = sparse.csr_matrix(
        (vals.ravel(), (np.broadcast_to(rows, vals.shape).ravel(), cols.ravel())),
        shape=(3 * mesh.num_triangles, 2 * mesh.num_vertices))
    return S @ xspace.basis


@dataclass
class DecompositionResult:
    phi: np.ndarray            # Morley coefficients
    psi: np.ndarray            # XSpace coefficients
    psi_nodal: np.ndarray      # (N, 2)
    residual: float            # L2 norm of sigma - D^2 phi - sym Curl psi
    orthogonality: float       # (D^2 phi, sym Curl psi)_L2
    hessian_norm: float
    curl_norm: float           # L2 norm of the full Curl of psi


def decompose(space: MorleySpace, xspace: XSpace, sigma) -> DecompositionResult:
    """Split a piecewise constant symmetric tensor field into the two parts.

    ``sigma`` has shape (T, 3) with components (s11, s22, s12).  The ranges
    of the Hessian map B_H and of the symmetric-Curl map B_C are orthogonal
    in L2(S) coordinates t, so the splitting is two independent projections.
    The Hessian part solves A phi = B_H^T t with the sparse stiffness matrix
    A = B_H^T B_H; its kernel, the k affine functions of the space, is
    removed by fixing k DOFs at zero.  The Curl part solves
    G psi = B_C^T (t - B_H phi) with the dense Gram matrix G = B_C^T B_C.
    When both factorisations succeed the stacked map has rank
    (ndof - k) + dim; a count other than 3#T, or a failed factorisation,
    raises HelmholtzError.
    """
    mesh = space.mesh
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (mesh.num_triangles, 3):
        raise HelmholtzError("sigma must have shape (#T, 3)")
    expected = 3 * mesh.num_triangles
    Z = affine_kernel_coefficients(space)
    rank = space.ndof - Z.shape[1] + xspace.dim
    if rank != expected:
        raise _rank_deficient(expected, rank)
    target = tensor_features(mesh, sigma)

    BH = _hessian_operator(space)
    BC = sym_curl_map(xspace)
    phi = np.zeros(space.ndof)
    try:
        keep = _kernel_free_dofs(Z)
        if keep.size:
            A = assembly.assemble_stiffness(space).full()[keep][:, keep]
            lu = _spd_splu(A)
            if not np.all(lu.U.diagonal() > 0.0):
                raise RuntimeError("stiffness matrix is not positive definite")
            phi[keep] = lu.solve((BH.T @ target)[keep])
        gram = dla.cho_factor(BC.T @ BC)
    except (RuntimeError, dla.LinAlgError) as exc:
        raise _rank_deficient(expected, f"less than {rank} ({exc})") from exc
    part_h = BH @ phi
    psi = dla.cho_solve(gram, BC.T @ (target - part_h))
    part_c = BC @ psi
    resid = float(np.linalg.norm(target - part_h - part_c))
    ortho = float(part_h @ part_c)
    psi_nodal = xspace.nodal(psi)
    curl = full_curl(mesh, psi_nodal)
    curl_norm = float(np.sqrt(np.einsum("t,tab->", mesh.areas, curl ** 2)))
    return DecompositionResult(
        phi=phi, psi=psi, psi_nodal=psi_nodal, residual=resid,
        orthogonality=ortho, hessian_norm=float(np.linalg.norm(part_h)),
        curl_norm=curl_norm)


def _rank_deficient(expected, got):
    return HelmholtzError(
        f"decomposition map is rank deficient: expected rank {expected}, "
        f"got {got}; the dimension identity fails on this mesh")


def _kernel_free_dofs(Z):
    """DOFs left after dropping one per column of the kernel basis ``Z``.

    The dropped DOFs are the first pivots of a pivoted QR of Z^T, so Z
    restricted to them is invertible and the stiffness matrix restricted to
    the rest is positive definite.
    """
    ndof, k = Z.shape
    if k == 0:
        return np.arange(ndof)
    R, piv = dla.qr(Z.T, pivoting=True, mode="r")
    if _pivoted_qr_rank(R) < k:
        raise RuntimeError("affine kernel basis is rank deficient")
    return np.sort(piv[k:])


def dimension_audit(mesh: Triangulation, space: MorleySpace,
                    xspace: XSpace) -> dict:
    """Integer identity audit behind the decomposition, as a JSON-able dict.

    Checks the two counting identities on vertices, triangles and edges and
    the splitting identity ``3#T = rank(hessian map) + rank(sym-curl map)``.
    The rank of a map B counts the eigenvalues mu of G = B^T B (sparse for
    the Hessian map, dense for the sym-curl map) above 1e-9 |G|_1; mu at
    most 1e-13 |G|_1 is kernel, and a mu in between raises HelmholtzError
    because the rank is then undecided.
    """
    e1, e2 = mesh.euler_identities()
    BH, BC = _hessian_operator(space), sym_curl_map(xspace)
    rank_h, rank_c = _gram_rank(BH.T @ BH), _gram_rank(BC.T @ BC)
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


def _gram_rank(G):
    """Rank of B from the lowest eigenvalues mu of its Gram matrix G = B^T B.

    Shift-invert Lanczos at sigma = -1e-11 |G|_1, through one symmetric-mode
    SuperLU (sparse G) or Cholesky (dense G) factorisation of G - sigma I,
    finds the lowest 4, 8, ... mu while all of them are kernel; ``eigvalsh``
    takes over when nearly all are wanted.
    """
    n = G.shape[0]
    norm = _norm1(G) if n else 0.0
    if norm == 0.0:
        return 0
    sigma, count = -_SHIFT_RTOL * norm, 4
    try:
        OPinv = spla.LinearOperator((n, n), dtype=float, matvec=(
            _spd_splu(G - sigma * sparse.identity(n)).solve if sparse.issparse(G)
            else partial(dla.cho_solve, dla.cho_factor(G - sigma * np.eye(n)))))
        while True:
            if count >= n - 1:
                mu = np.linalg.eigvalsh(G.toarray() if sparse.issparse(G) else G)
            else:
                mu = spla.eigsh(G, k=count, sigma=sigma, v0=np.full(n, n ** -0.5),
                                OPinv=OPinv, return_eigenvectors=False)
            kernel = mu <= _KERNEL_RTOL * norm
            undecided = ~kernel & (mu <= _RANGE_RTOL * norm)
            if undecided.any():
                raise HelmholtzError(
                    "rank undecided: no spectral gap, Gram eigenvalues "
                    f"{mu[undecided] / norm} of |G|_1 lie between 1e-13 and 1e-9")
            if not kernel.all() or count >= n - 1:
                return n - int(kernel.sum())
            count *= 2
    except (RuntimeError, dla.LinAlgError) as exc:
        raise HelmholtzError(f"rank computation failed: {exc}") from exc

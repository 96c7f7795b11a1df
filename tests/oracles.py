"""Independent oracles used by the test suite.

Each oracle takes a different computational route from the implementation
it checks: cyclic Jacobi rotations for the eigensolver, shift-invert
Lanczos run to machine precision for the stopping rule of its sparse path
(on the same stiffness factor, so that only the stopping rule differs; a
COLAMD-ordered factor alone moves λ by about 2e-12), exhaustive subset
search for bulk marking, a loop over the window members with in-order
``np.add.at`` scatters for the residual estimator, a collapsed Gauss rule
for the load vector of a manufactured solution, symbolic element
integration for the plate forms, per-column and per-cell loops for the Helmholtz maps (with the
per-field Curl ``full_curl`` and its symmetric part ``sym_curl``),
per-column prolongation for subspace angles (``prolong_to_fine``, which
re-centres each coarse quadratic on its fine descendants), one dense least-squares
solve with the stacked maps for the tensor splitting, a pivoted QR for
the ranks of the audited maps, a dense null-space basis with a
Cholesky-factored Gram matrix for the constrained Curl space, a sparse
factorisation of the stiffness matrix with the kernel DOFs removed for
the Hessian side of the splitting,
all dense eigenvalues for the stiffness kernel, a geometric search for
the fine sub-edges of every coarse edge in Morley interpolation and in
the edge ancestry of a refinement, a
row-wise unique with a per-slot orientation search for the edge table,
and per-triangle recursion with dict lookups for newest-vertex
bisection.  The symmetric assembled matrices are the exception: their
reference repeats the scatter through a stored lower triangle from its
own triplet indices, from element stiffness matrices with the L2(S)
weighting written out by hand, since the assembled CSR arrays must equal
it byte for byte.  The spectrum dump of the ``reference`` command is
checked against refining a preset from scratch and solving the finest
level once more, with the largest triangle diameter of its lower bounds
taken triangle by triangle over vertex pairs (``max_triangle_diameter``).

Quadratics enter Morley interpolation as broken functions whose
centroid-frame coefficients are written out by hand.  The mesh shape
diagnostics (minimum angle, similarity classes, the matching-neighbour
condition) and the edge-normal flip behind the sign-convention checks
live here because only tests use them, as do the quadrature rules of
other degrees than the library's 7-point rule (``triangle_rule``) and the
barycentric monomial self-test that checks every rule, the library's
included, against the exact means (``_selftest``).  The
affine-kernel dimension is checked against numpy's ``matrix_rank``
tolerance, in place of the relative 1e-10 rule read off the library's SVD.
``patched_dense_cutoff`` is no oracle: it forces the eigensolver's path
for the tests that run on both.
"""

import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np


@contextmanager
def patched_dense_cutoff(value):
    """Within the block ``solve_gevp`` takes the dense path for every pencil
    of dimension at most ``value`` (and, as always, when ``count >= n - 1``):
    ``10**9`` forces the dense path, 0 the shift-invert one."""
    from plate_afem import eigen

    saved, eigen.DENSE_CUTOFF = eigen.DENSE_CUTOFF, value
    try:
        yield
    finally:
        eigen.DENSE_CUTOFF = saved


def jacobi_gevp(A, M, sweeps=100, tol=1e-14):
    """Generalized symmetric eigenvalues by Cholesky reduction followed by
    classical cyclic Jacobi rotations.  Dense, brute force, independent of
    LAPACK's tridiagonal path."""
    A = np.asarray(A, dtype=float)
    M = np.asarray(M, dtype=float)
    L = np.linalg.cholesky(M)
    Linv = np.linalg.inv(L)
    C = Linv @ A @ Linv.T
    C = 0.5 * (C + C.T)
    n = C.shape[0]
    V = np.eye(n)
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(C, -1) ** 2))
        if off < tol * np.linalg.norm(C):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if C[p, q] == 0.0:
                    continue
                theta = 0.5 * np.arctan2(2 * C[p, q], C[q, q] - C[p, p])
                c, s = np.cos(theta), np.sin(theta)
                J = np.eye(n)
                J[p, p] = J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                C = J.T @ C @ J
                V = V @ J
    w = np.diag(C).copy()
    order = np.argsort(w)
    vecs = np.linalg.solve(L.T, V[:, order])
    return w[order], vecs


def lanczos_machine_precision(A, M, count):
    """Lowest ``count`` eigenpairs of the sparse pencil by ARPACK shift-invert
    at ``tol=0`` (machine precision) on the eigensolver's stiffness factor,
    vectors made M-orthonormal by a Cholesky polish."""
    from plate_afem.eigen import _symmetric_splu

    return shift_invert_lanczos(A, M, count, _symmetric_splu(A.tocsc(), 0.0), tol=0)


def shift_invert_lanczos(A, M, count, lu, tol):
    """Lowest ``count`` eigenpairs of the sparse pencil by ARPACK shift-invert
    on the stiffness factor ``lu`` at relative tolerance ``tol``, started
    from the constant unit vector, vectors made M-orthonormal by a Cholesky
    polish."""
    import scipy.linalg as dla
    import scipy.sparse.linalg as spla

    n = A.shape[0]
    OPinv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
    w, v = spla.eigsh(A, k=count, M=M, sigma=0.0, which="LM", OPinv=OPinv,
                      v0=np.full(n, 1.0 / np.sqrt(n)), tol=tol)
    order = np.argsort(w)
    w, v = w[order], v[:, order]
    L = dla.cholesky(v.T @ (M @ v), lower=True)
    return w, dla.solve_triangular(L, v.T, lower=True).T


def dorfler_min_cardinality(eta2, theta):
    """Smallest subset cardinality with sum >= theta * total, by exhaustive
    search over all subsets."""
    eta2 = list(map(float, eta2))
    total = sum(eta2)
    target = theta * total
    n = len(eta2)
    for k in range(n + 1):
        for combo in itertools.combinations(range(n), k):
            if sum(eta2[i] for i in combo) >= target:
                return k
    return n


def estimate_per_member(space, cluster):
    """The residual estimator as a loop over the window members: per member
    a broken function, its volume term added to eta^2, and its plus- and
    minus-side edge terms scattered by two in-order ``np.add.at`` calls."""
    from plate_afem.estimator import EstimatorField
    from plate_afem.mesh import BoundaryPart
    from plate_afem.space import hessians

    mesh = space.mesh
    vectors = np.atleast_2d(np.asarray(cluster.vectors, dtype=float))
    lams = np.asarray(cluster.eigenvalues, dtype=float)

    rule = triangle_rule(5)
    pts = np.einsum("qi,tid->tqd", rule.points, mesh.vertices[mesh.triangles]).reshape(-1, 2)
    tri_of_point = np.repeat(np.arange(mesh.num_triangles), len(rule.weights))
    eta2 = np.zeros(mesh.num_triangles)
    interior_or_clamped = ((mesh.edge_tags == BoundaryPart.INTERIOR)
                           | (mesh.edge_tags == BoundaryPart.CLAMPED))
    simply = mesh.edge_tags == BoundaryPart.SIMPLY_SUPPORTED
    tau = mesh.edge_tangents

    for lam, u in zip(lams, vectors.T):
        bf = space.to_broken(u)
        # volume residual: h_T^4 * int_T (lambda u)^2, exact for quadratics
        vals = bf.value(tri_of_point, pts).reshape(mesh.num_triangles, -1)
        int_u2 = np.einsum("q,tq->t", rule.weights, vals ** 2) * mesh.areas
        eta2 += mesh.areas ** 2 * lam ** 2 * int_u2

        # tangential Hessian jumps, constant per edge
        H = hessians(bf)                        # (T, 3): h11, h22, h12
        Hmat = np.empty((mesh.num_triangles, 2, 2))
        Hmat[:, 0, 0] = H[:, 0]
        Hmat[:, 1, 1] = H[:, 1]
        Hmat[:, 0, 1] = Hmat[:, 1, 0] = H[:, 2]
        plus, minus = mesh.edge_tris[:, 0], mesh.edge_tris[:, 1]
        jump = Hmat[plus].copy()
        has_minus = minus >= 0
        jump[has_minus] -= Hmat[minus[has_minus]]
        jt = np.einsum("fab,fb->fa", jump, tau)  # (F, 2)
        full_sq = np.einsum("fa,fa->f", jt, jt)
        tang_sq = np.einsum("fa,fa->f", jt, tau) ** 2
        edge_sq = np.where(interior_or_clamped, full_sq,
                           np.where(simply, tang_sq, 0.0))
        edge_int = mesh.edge_lengths * edge_sq   # int_F |jump|^2
        for f_ids, t_ids in ((np.arange(mesh.num_edges), plus),
                             (np.nonzero(has_minus)[0], minus[has_minus])):
            np.add.at(eta2, t_ids, mesh.h_t[t_ids] * edge_int[f_ids])

    return EstimatorField(eta2=eta2)


def duffy_rule(n):
    """Collapsed tensor rule on the reference triangle, measure-1 weights."""
    x, w = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    U, V = np.meshgrid(u, u, indexing="ij")
    WU, WV = np.meshgrid(wu, wu, indexing="ij")
    lam1 = U.ravel()
    lam2 = (V * (1 - U)).ravel()
    pts = np.stack([lam1, lam2, 1 - lam1 - lam2], axis=1)
    wts = (WU * WV * (1 - U)).ravel() * 2.0
    return pts, wts


def _monomial_mean(a, b, c):
    # mean over a triangle of lam1^a lam2^b lam3^c
    return 2.0 * factorial(a) * factorial(b) * factorial(c) / factorial(a + b + c + 2)


def _selftest(points, weights, degree, tol=5e-13):
    """Raise AssertionError unless the barycentric rule gives the exact mean
    of every barycentric monomial up to ``degree``."""
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            for c in range(degree - a - b + 1):
                val = np.sum(weights * points[:, 0] ** a * points[:, 1] ** b * points[:, 2] ** c)
                ref = _monomial_mean(a, b, c)
                if abs(val - ref) > tol * max(1.0, abs(ref)):
                    raise AssertionError(
                        f"quadrature self-test failed for monomial ({a},{b},{c}): "
                        f"{val} vs {ref}"
                    )


@dataclass(frozen=True)
class QuadratureRule:
    """Barycentric points, weights (summing to 1) and verified exactness degree."""

    points: np.ndarray   # (nq, 3)
    weights: np.ndarray  # (nq,)
    degree: int


@lru_cache(maxsize=None)
def triangle_rule(degree: int) -> QuadratureRule:
    """A rule exact for polynomials up to ``degree``: the edge midpoints up to
    degree 2, the library's 7-point rule up to 5 and a collapsed Gauss rule
    beyond, each passing the barycentric monomial self-test."""
    from plate_afem.space import _RULE_POINTS, _RULE_WEIGHTS

    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree <= 2:
        pts = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
        w = np.full(3, 1.0 / 3.0)
        actual = 2
    elif degree <= 5:
        pts, w, actual = _RULE_POINTS, _RULE_WEIGHTS, 5
    else:
        # the Jacobian raises the required 1d exactness by one
        pts, w = duffy_rule((degree + 3) // 2)
        actual = degree
    _selftest(pts, w, actual)
    pts.setflags(write=False)
    w.setflags(write=False)
    return QuadratureRule(points=pts, weights=w, degree=actual)


def load_vector_duffy(space, f, n_gauss=8):
    """Load vector ``int f * basis_j`` on a collapsed Gauss rule: the basis
    polynomials evaluated from their centroid-frame coefficients at the
    mapped points of every triangle, scattered with ``np.add.at``."""
    mesh = space.mesh
    pts_b, wts = duffy_rule(n_gauss)
    pts = np.einsum("qi,tid->tqd", pts_b, mesh.vertices[mesh.triangles])
    d = pts - mesh.centroids[:, None, :]
    mono = np.stack([np.ones_like(d[..., 0]), d[..., 0], d[..., 1], d[..., 0] ** 2,
                     d[..., 0] * d[..., 1], d[..., 1] ** 2], axis=-1)
    vals = np.einsum("tqm,tim->tqi", mono, space.basis)
    fvals = f(pts[..., 0], pts[..., 1])
    local = mesh.areas[:, None] * np.einsum("q,tq,tqi->ti", wts, fvals, vals)
    out = np.zeros(space.ndof)
    keep = space.cell_dofs >= 0
    np.add.at(out, space.cell_dofs[keep], local[keep])
    return out


def quadratic_on(mesh, c):
    """BrokenFunction of ``c0 + c1 x + c2 y + c3 x^2 + c4 xy + c5 y^2`` on
    every triangle: its Taylor coefficients at each centroid."""
    from plate_afem.space import BrokenFunction

    c = np.asarray(c, dtype=float)
    x, y = mesh.centroids[:, 0], mesh.centroids[:, 1]
    coeffs = np.empty((mesh.num_triangles, 6))
    coeffs[:, 0] = c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y
    coeffs[:, 1] = c[1] + 2 * c[3] * x + c[4] * y
    coeffs[:, 2] = c[2] + c[4] * x + 2 * c[5] * y
    coeffs[:, 3:] = c[3:]
    return BrokenFunction(mesh, coeffs)


def morley_basis_symbolic(tri_coords, normals, lengths):
    """Symbolic Morley basis on one triangle via sympy.

    ``normals`` are the global unit normals of the edges opposite each
    vertex.  Returns six sympy polynomials dual to (vertex values, mean
    normal derivatives), plus the coordinates symbols.
    """
    import sympy as sym

    x, y = sym.symbols("x y")
    coeffs = sym.symbols("c0:6")
    p = (coeffs[0] + coeffs[1] * x + coeffs[2] * y + coeffs[3] * x ** 2
         + coeffs[4] * x * y + coeffs[5] * y ** 2)
    gx, gy = sym.diff(p, x), sym.diff(p, y)
    conditions = []
    for vx, vy in tri_coords:
        conditions.append(p.subs({x: vx, y: vy}))
    for i in range(3):
        a = sym.Matrix(tri_coords[(i + 1) % 3])
        b = sym.Matrix(tri_coords[(i + 2) % 3])
        nu = sym.Matrix(normals[i])
        s = sym.symbols("s")
        pt = a + s * (b - a)
        dn = (gx.subs({x: pt[0], y: pt[1]}) * nu[0]
              + gy.subs({x: pt[0], y: pt[1]}) * nu[1])
        conditions.append(sym.integrate(dn, (s, 0, 1)))
    basis = []
    for j in range(6):
        rhs = [sym.Integer(1 if i == j else 0) for i in range(6)]
        sol = sym.solve([c - r for c, r in zip(conditions, rhs)], coeffs, dict=True)
        assert len(sol) == 1
        basis.append(p.subs(sol[0]))
    return basis, (x, y)


def energy_product_symbolic(p1, p2, tri_coords, xy):
    """Exact integral over a triangle of the Hessian contraction of two
    symbolic quadratics (constant Hessians; uses the exact area)."""
    import sympy as sym

    x, y = xy
    h1 = [sym.diff(p1, x, 2), sym.diff(p1, y, 2), sym.diff(p1, x, y)]
    h2 = [sym.diff(p2, x, 2), sym.diff(p2, y, 2), sym.diff(p2, x, y)]
    a = sym.Matrix(tri_coords[1]) - sym.Matrix(tri_coords[0])
    b = sym.Matrix(tri_coords[2]) - sym.Matrix(tri_coords[0])
    area = sym.Rational(1, 2) * sym.Abs(a[0] * b[1] - a[1] * b[0])
    dot = h1[0] * h2[0] + h1[1] * h2[1] + 2 * h1[2] * h2[2]
    return sym.simplify(area * dot)


def richardson_limit_synthetic(limit, c, ratio, n):
    """Synthetic sequence v_k = limit - c * ratio^-k."""
    return [limit - c * ratio ** (-k) for k in range(n)]


def weighted_basis_hessians(space):
    """(T, 6, 3) basis Hessians (h11, h22, h12) in L2(S) coordinates,
    written out: ``H * [1, 1, sqrt(2)] * sqrt(|T|)``."""
    H = space.basis_hessians
    return H * np.array([1.0, 1.0, np.sqrt(2.0)]) * np.sqrt(space.mesh.areas)[:, None, None]


def local_stiffness(space):
    """(T, 6, 6) element stiffness matrices: the Euclidean products of the
    weighted basis Hessians of each triangle."""
    feat = weighted_basis_hessians(space)
    return np.einsum("tia,tja->tij", feat, feat)


def hessian_map_loops(space):
    """Weighted broken Hessians of the Morley basis, one cell DOF at a time."""
    mesh = space.mesh
    out = np.zeros((3 * mesh.num_triangles, space.ndof))
    feats = weighted_basis_hessians(space)
    for t in range(mesh.num_triangles):
        for i in range(6):
            dof = space.cell_dofs[t, i]
            if dof >= 0:
                out[3 * t: 3 * t + 3, dof] += feats[t, i]
    return out


def full_curl(mesh, nodal):
    """Rowwise Curl of a continuous piecewise-affine field, per triangle.

    Returns (T, 2, 2) with row i equal to (-d beta_i / dy, d beta_i / dx).
    """
    from plate_afem.space import _p1_gradients

    nodal = np.asarray(nodal, dtype=float).reshape(-1, 2)
    grads = _p1_gradients(mesh)
    D = np.einsum("tld,tli->tid", grads, nodal[mesh.triangles])  # dbeta_i/dx_d
    curl = np.empty((mesh.num_triangles, 2, 2))
    curl[:, :, 0] = -D[:, :, 1]
    curl[:, :, 1] = D[:, :, 0]
    return curl


def sym_curl(mesh, nodal):
    """Symmetric part of the Curl as (T, 3) components (s11, s22, s12)."""
    c = full_curl(mesh, nodal)
    return np.stack([c[:, 0, 0], c[:, 1, 1],
                     0.5 * (c[:, 0, 1] + c[:, 1, 0])], axis=1)


def curl_l2_norm(mesh, nodal):
    """L2 norm of the full Curl of a nodal field."""
    curl = full_curl(mesh, nodal)
    return float(np.sqrt(np.einsum("t,tab->", mesh.areas, curl ** 2)))


def sym_curl_map_columns(xspace):
    """Weighted symmetric Curls of the constrained basis, column by column."""
    from plate_afem.helmholtz import tensor_features

    mesh = xspace.mesh
    cols = [tensor_features(mesh, sym_curl(mesh, xspace.basis[:, k]))
            for k in range(xspace.dim)]
    return np.stack(cols, axis=1)


def qr_rank(B):
    """Numerical rank of a dense matrix from the diagonal of a pivoted QR
    factor, with relative threshold 1e-10."""
    import scipy.linalg as dla

    B = np.asarray(B, dtype=float)
    if B.size == 0:
        return 0
    R, _ = dla.qr(B, pivoting=True, mode="r")
    diag = np.abs(np.diag(R))
    return 0 if diag[0] == 0.0 else int(np.sum(diag > 1e-10 * diag[0]))


def affine_kernel_dimension_matrix_rank(mesh):
    """3 minus ``np.linalg.matrix_rank`` (its default, SVD-based tolerance) of
    the eliminated DOFs of ``[1, x, y]``: the value at each constrained
    vertex, in coordinates centred at the vertex mean and divided by the
    largest extent, and the normal derivative on each clamped edge."""
    from plate_afem.mesh import BoundaryPart

    constrained_v = mesh.vertices_on(BoundaryPart.CLAMPED, BoundaryPart.SIMPLY_SUPPORTED)
    clamped = mesh.edge_tags == BoundaryPart.CLAMPED
    xy = (mesh.vertices[constrained_v] - mesh.vertices.mean(axis=0)) / np.ptp(
        mesh.vertices, axis=0).max()
    rows = np.vstack([np.column_stack([np.ones(len(xy)), xy]),
                      np.column_stack([np.zeros(int(clamped.sum())),
                                       mesh.edge_normals[clamped]])])
    return 3 - (int(np.linalg.matrix_rank(rows)) if len(rows) else 0)


def stiffness_kernel_dimension(space, tol=1e-8):
    """Kernel dimension of the stiffness form on the reduced space, from
    all eigenvalues of the dense stiffness matrix."""
    from plate_afem.assembly import assemble_stiffness

    A = assemble_stiffness(space).toarray()
    if A.size == 0:
        return 0
    evals = np.linalg.eigvalsh(A)
    return int(np.sum(evals < tol * max(evals.max(), 1.0)))


def decompose_lstsq(space, xspace, sigma):
    """Tensor splitting by one dense least-squares solve with the stacked
    (3#T, ndof + dim) map, its rank taken from the singular values."""
    from plate_afem.helmholtz import DecompositionResult, HelmholtzError, tensor_features

    mesh = space.mesh
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (mesh.num_triangles, 3):
        raise HelmholtzError("sigma must have shape (#T, 3)")
    B = np.hstack([hessian_map_loops(space), sym_curl_map_columns(xspace)])
    target = tensor_features(mesh, sigma)
    sol, _, rank, _ = np.linalg.lstsq(B, target, rcond=None)
    if rank < 3 * mesh.num_triangles:
        raise HelmholtzError(
            "decomposition map is rank deficient: expected rank "
            f"{3 * mesh.num_triangles}, got {rank}; the dimension identity "
            "fails on this mesh")
    phi = sol[: space.ndof]
    psi = sol[space.ndof:]
    part_h = B[:, : space.ndof] @ phi
    part_c = B[:, space.ndof:] @ psi
    resid = float(np.linalg.norm(target - part_h - part_c))
    ortho = float(part_h @ part_c)
    return DecompositionResult(
        phi=phi, psi_nodal=(xspace.basis @ psi).reshape(-1, 2), residual=resid,
        orthogonality=ortho)


def xspace_full_qr(mesh):
    """Dense (2N, dim) null-space basis of the Curl constraints and their
    rank, from one dense row per constraint and a full pivoted QR of the
    transposed rows with relative threshold 1e-10."""
    import scipy.linalg as dla

    from plate_afem.mesh import BoundaryPart
    from plate_afem.space import _p1_gradients

    n = mesh.num_vertices
    grads = _p1_gradients(mesh)
    rows = []
    wz = np.zeros(n)
    np.add.at(wz, mesh.triangles.ravel(), np.repeat(mesh.areas / 3.0, 3))
    for comp in (0, 1):
        r = np.zeros(2 * n)
        r[comp::2] = wz
        rows.append(r)
    r = np.zeros(2 * n)
    for i in range(3):
        np.add.at(r, 2 * mesh.triangles[:, i], mesh.areas * grads[:, i, 0])
        np.add.at(r, 2 * mesh.triangles[:, i] + 1, mesh.areas * grads[:, i, 1])
    rows.append(r)
    for f in mesh.edges_with_tag(BoundaryPart.SIMPLY_SUPPORTED, BoundaryPart.FREE):
        z1, z2 = mesh.edges[f]
        r = np.zeros(2 * n)
        r[2 * z2: 2 * z2 + 2] += mesh.edge_normals[f]
        r[2 * z1: 2 * z1 + 2] -= mesh.edge_normals[f]
        rows.append(r)
    free_edges = mesh.edges_with_tag(BoundaryPart.FREE)
    incoming = {int(mesh.edges[f, 1]): int(f) for f in free_edges}
    outgoing = {int(mesh.edges[f, 0]): int(f) for f in free_edges}
    for z in mesh.free_corner_vertices():
        fm, fp = incoming[int(z)], outgoing[int(z)]
        zm, zp = mesh.edges[fm, 0], mesh.edges[fp, 1]
        tm = mesh.edge_tangents[fm] / mesh.edge_lengths[fm]
        tp = mesh.edge_tangents[fp] / mesh.edge_lengths[fp]
        r = np.zeros(2 * n)
        r[2 * z: 2 * z + 2] += tm + tp
        r[2 * zm: 2 * zm + 2] -= tm
        r[2 * zp: 2 * zp + 2] -= tp
        rows.append(r)
    Q, R, _ = dla.qr(np.asarray(rows).T, pivoting=True, mode="full")
    diag = np.abs(np.diag(R))
    rank = int(np.sum(diag > 1e-10 * diag[0]))
    return Q[:, rank:], rank


def gram_rank_cholesky(G):
    """Rank of B from the lowest eigenvalues mu of a dense G = B^T B, by
    shift-invert Lanczos through a Cholesky factorisation of G - sigma I,
    sigma = -1e-11 |G|_1, with the band (1e-13, 1e-9] |G|_1 undecided."""
    from functools import partial

    import scipy.linalg as dla
    import scipy.sparse.linalg as spla

    n = G.shape[0]
    norm = float(np.abs(G).sum(axis=0).max()) if n else 0.0
    if norm == 0.0:
        return 0
    sigma, count = -1e-11 * norm, 4
    OPinv = spla.LinearOperator((n, n), dtype=float, matvec=partial(
        dla.cho_solve, dla.cho_factor(G - sigma * np.eye(n))))
    while True:
        if count >= n - 1:
            mu = np.linalg.eigvalsh(G)
        else:
            mu = spla.eigsh(G, k=count, sigma=sigma, v0=np.full(n, n ** -0.5),
                            OPinv=OPinv, return_eigenvectors=False)
        kernel = mu <= 1e-13 * norm
        if np.any(~kernel & (mu <= 1e-9 * norm)):
            raise ValueError("rank undecided")
        if not kernel.all() or count >= n - 1:
            return n - int(kernel.sum())
        count *= 2


def curl_part_dense(mesh, sigma):
    """The Curl side of the tensor splitting through a dense basis of the
    constrained space: its dimension, the constraint rank, the rank of the
    symmetric-Curl map from its dense Gram matrix, and the nodal field
    psi whose weighted symmetric Curl is the L2 projection of ``sigma`` on
    that map's range, solved with a Cholesky factor of the Gram matrix."""
    import scipy.linalg as dla

    from plate_afem.helmholtz import _sym_curl_operator, tensor_features

    basis, constraint_rank = xspace_full_qr(mesh)
    BC = _sym_curl_operator(mesh) @ basis
    gram = BC.T @ BC
    psi = dla.cho_solve(dla.cho_factor(gram), BC.T @ tensor_features(mesh, sigma))
    return (basis.shape[1], constraint_rank, gram_rank_cholesky(gram),
            (basis @ psi).reshape(-1, 2))


def hessian_part_stiffness(space, sigma):
    """The Hessian side phi of the tensor splitting from the stiffness
    matrix: A phi = B_H^T t on the DOFs left after dropping the first k
    pivots of a pivoted QR of the affine kernel basis Z^T, which stay zero."""
    import scipy.linalg as dla
    import scipy.sparse.linalg as spla

    from plate_afem.assembly import assemble_stiffness
    from plate_afem.helmholtz import tensor_features
    from plate_afem.space import affine_kernel_coefficients

    Z = affine_kernel_coefficients(space)
    k = Z.shape[1]
    drop = dla.qr(Z.T, pivoting=True, mode="r")[1][:k] if k else np.zeros(0, int)
    keep = np.setdiff1d(np.arange(space.ndof), drop)
    A = assemble_stiffness(space)[keep][:, keep]
    rhs = hessian_map_loops(space).T @ tensor_features(space.mesh, sigma)
    phi = np.zeros(space.ndof)
    phi[keep] = spla.splu(A.tocsc()).solve(rhs[keep])
    return phi, drop


def symmetric_from_lower_triangle(space, local):
    """Symmetric CSR matrix of the (T, 6, 6) element matrices ``local``,
    built as a stored lower triangle: the free lower-triangle entries are
    scattered by COO and summed into CSR, and the full matrix is that
    triangle plus its transposed strict lower part."""
    import scipy.sparse as sparse

    dofs = space.cell_dofs
    rows = np.repeat(dofs[:, :, None], 6, axis=2).ravel()
    cols = np.repeat(dofs[:, None, :], 6, axis=1).ravel()
    keep = (rows >= 0) & (cols >= 0) & (rows >= cols)
    n = space.ndof
    lower = sparse.coo_matrix((local.ravel()[keep], (rows[keep].astype(np.int32),
                                                     cols[keep].astype(np.int32))),
                              shape=(n, n)).tocsr()
    lower.sum_duplicates()
    strict = sparse.tril(lower, k=-1)
    return (lower + strict.T).tocsr()


def max_triangle_diameter(mesh):
    """Largest distance between two vertices of one triangle."""
    p = mesh.vertices[mesh.triangles]                       # (T, 3, 2)
    return float(max(np.linalg.norm(p[:, i] - p[:, (i + 1) % 3], axis=1).max()
                     for i in range(3)))


def spectrum_csv_resolved(path, geometry, bc, J, target_ndof):
    """Spectrum CSV of the finest uniform level of a preset, made by building
    every level's space from scratch and solving the finest one again for
    ``min(max(J + 4, 8), ndof)`` pairs, with residuals and lower bounds."""
    from plate_afem import assembly, eigen
    from plate_afem.mesh import preset_mesh, uniform_refine
    from plate_afem.space import build_space

    mesh = preset_mesh(geometry, bc)
    while True:
        space = build_space(mesh)
        if space.ndof >= target_ndof:
            break
        mesh = uniform_refine(mesh)
    A = assembly.assemble_stiffness(space)
    M = assembly.assemble_mass(space)
    count = min(max(J + 4, 8), space.ndof)
    sol = eigen.solve_gevp(A, M, count)
    with open(path, "w") as fh:
        fh.write("index,eigenvalue,residual,lower_bound\n")
        for k in range(count):
            lb = eigen.lower_bound(float(sol.eigenvalues[k]), max_triangle_diameter(mesh))
            fh.write(f"{k + 1},{float(sol.eigenvalues[k])!r},"
                     f"{float(sol.residuals[k])!r},{lb!r}\n")


def _subedges_on(fine, a, b, tol):
    # fine edges whose endpoints both lie on the segment [a, b]
    d = b - a
    L2 = d @ d
    rel = fine.vertices - a
    cross = np.abs(d[0] * rel[:, 1] - d[1] * rel[:, 0]) / np.sqrt(L2)
    s = rel @ d / L2
    on = (cross <= tol) & (s >= -tol) & (s <= 1.0 + tol)
    return [f for f, (i, j) in enumerate(fine.edges) if on[i] and on[j]]


def edge_ancestor_map_geometric(fine, coarse):
    """Coarse edge that each fine edge lies on (-1: none), by scanning every
    fine edge for each coarse edge with a 1e-12 relative tolerance."""
    scale = max(np.max(np.abs(coarse.vertices)), 1.0)
    out = np.full(fine.num_edges, -1, dtype=np.int64)
    for e, (i, j) in enumerate(coarse.edges):
        for f in _subedges_on(fine, coarse.vertices[i], coarse.vertices[j], 1e-12 * scale):
            assert out[f] < 0, "fine edge on two coarse edges"
            out[f] = e
    return out


def morley_interpolate_geometric(space, bf):
    """Morley DOFs of a broken quadratic on a refinement, one DOF at a time.

    Vertex values average the traces of every fine triangle that contains
    the vertex; each coarse edge collects its fine sub-edges by a geometric
    scan of all fine vertices and edges.
    """
    coarse, fine = space.mesh, bf.mesh
    out = np.zeros(space.ndof)
    for z in np.nonzero(space.vertex_dof >= 0)[0]:
        tris = np.nonzero((fine.triangles == z).any(axis=1))[0]
        out[space.vertex_dof[z]] = np.mean(
            [bf.value(t, fine.vertices[z])[0] for t in tris])
    scale = max(np.max(np.abs(coarse.vertices)), 1.0)
    for e in np.nonzero(space.edge_dof >= 0)[0]:
        a, b = coarse.vertices[coarse.edges[e]]
        nu = coarse.edge_normals[e]
        total = 0.0
        for f in _subedges_on(fine, a, b, 1e-12 * scale):
            mid = fine.edge_midpoints[f]
            dn = np.mean([bf.gradient(t, mid)[0] @ nu for t in fine.edge_tris[f] if t >= 0])
            total += fine.edge_lengths[f] * dn
        out[space.edge_dof[e]] = total / coarse.edge_lengths[e]
    return out


def edge_table_unique_rows(triangles):
    """Edges (oriented by the lower adjacent triangle), tri_edges and
    edge_tris from a row-wise ``np.unique`` of the sorted endpoint pairs and
    a per-slot orientation search."""
    tris = np.asarray(triangles)
    ntri = len(tris)
    raw = np.stack([tris[:, [1, 2]], tris[:, [2, 0]], tris[:, [0, 1]]], axis=1)
    uniq, inverse = np.unique(np.sort(raw.reshape(-1, 2), axis=1), axis=0,
                              return_inverse=True)
    inverse = inverse.ravel()
    edge_tris = np.full((len(uniq), 2), -1, dtype=np.int64)
    for flat, f in enumerate(inverse):
        slot = 0 if edge_tris[f, 0] < 0 else 1
        edge_tris[f, slot] = flat // 3
    edges = uniq.copy()
    for f, t in enumerate(edge_tris[:, 0]):
        for k in range(3):
            a, b = tris[t, k], tris[t, (k + 1) % 3]
            if (min(a, b), max(a, b)) == tuple(uniq[f]):
                edges[f] = (a, b)
    return edges, inverse.reshape(ntri, 3), edge_tris


def apply_split_recursive(mesh, split_edge):
    """Newest-vertex bisection of a closed split-edge set, one triangle at a
    time by recursion, with boundary tags inherited through a dict from
    undirected endpoint pairs to coarse edges."""
    from plate_afem.mesh import BoundaryPart, MeshError, Triangulation

    table = {(int(min(i, j)), int(max(i, j))): f
             for f, (i, j) in enumerate(mesh.edges)}
    split_ids = np.nonzero(split_edge)[0]
    nold = mesh.num_vertices
    midpoint_index = np.full(mesh.num_edges, -1, dtype=np.int64)
    midpoint_index[split_ids] = nold + np.arange(len(split_ids))
    new_vertices = np.vstack([mesh.vertices, mesh.edge_midpoints[split_ids]])

    def midpoint_of(p, q):
        m = midpoint_index[table[(min(p, q), max(p, q))]]
        assert m >= 0
        return int(m)

    def edge_is_split(p, q):
        f = table.get((min(p, q), max(p, q)))
        return f is not None and split_edge[f]

    tris, refs, parents = [], [], []

    def emit(tri, ref, parent):
        tris.append(tri)
        refs.append(ref)
        parents.append(parent)

    def bisect(tri, k, parent, depth):
        # split conv{p, q} at m; children refine their inherited old edges next
        a, p, q = tri[k], tri[(k + 1) % 3], tri[(k + 2) % 3]
        m = midpoint_of(p, q)
        for child in ((m, a, p), (m, q, a)):
            if depth == 0 and edge_is_split(child[1], child[2]):
                bisect(child, 0, parent, depth + 1)
            else:
                emit(child, 0, parent)

    for t in range(mesh.num_triangles):
        k = int(mesh.refedge[t])
        if split_edge[mesh.tri_edges[t, k]]:
            bisect(tuple(mesh.triangles[t]), k, t, 0)
        else:
            emit(tuple(mesh.triangles[t]), k, t)

    refined = Triangulation(new_vertices, np.array(tris), np.array(refs),
                            parent=np.array(parents), coarse=mesh)

    # a boundary edge of the refined mesh is either a surviving coarse edge or
    # one half of a split coarse boundary edge
    inv_mid = {int(midpoint_index[f]): f for f in split_ids}
    tags = np.full(refined.num_edges, int(BoundaryPart.INTERIOR), dtype=np.int64)
    for f in refined.boundary_edges():
        a, b = int(refined.edges[f, 0]), int(refined.edges[f, 1])
        if a >= nold or b >= nold:
            m, other = (a, b) if a >= nold else (b, a)
            parent_edge = inv_mid[m]
            if other not in (int(mesh.edges[parent_edge, 0]),
                             int(mesh.edges[parent_edge, 1])):
                raise MeshError("refined boundary edge has no parent edge")
        else:
            parent_edge = table.get((min(a, b), max(a, b)))
            if parent_edge is None:
                raise MeshError("refined boundary edge has no parent edge")
        tags[f] = mesh.edge_tags[parent_edge]
    return Triangulation(new_vertices, refined.triangles, refined.refedge,
                         edge_tags=tags, parent=refined.parent, coarse=mesh)


def refine_nvb_recursive(mesh, marked=None):
    """``refine_nvb`` through ``apply_split_recursive``; ``marked=None``
    splits every edge, as ``uniform_refine`` does."""
    from plate_afem.mesh import _as_index_array, _closure

    if marked is None:
        return apply_split_recursive(mesh, np.ones(mesh.num_edges, dtype=bool))
    marked = _as_index_array(marked, mesh.num_triangles)
    if marked.size == 0:
        return mesh
    split_edge = np.zeros(mesh.num_edges, dtype=bool)
    split_edge[mesh.tri_edges[marked, mesh.refedge[marked]]] = True
    _closure(mesh, split_edge)
    return apply_split_recursive(mesh, split_edge)


def poly_shift(coeffs, delta):
    """Re-centre quadratic coefficients: frames moved by ``delta`` (new - old)."""
    from plate_afem.space import _quadratic  # the library's evaluation order

    c = np.asarray(coeffs, dtype=float)
    dx, dy = np.moveaxis(np.asarray(delta, dtype=float), -1, 0)
    out = c.copy()
    out[..., 0] = _quadratic(np.moveaxis(c, -1, 0), dx, dy)
    out[..., 1] = c[..., 1] + 2.0 * c[..., 3] * dx + c[..., 4] * dy
    out[..., 2] = c[..., 2] + c[..., 4] * dx + 2.0 * c[..., 5] * dy
    return out


def prolong_to_fine(v, fine_mesh):
    """Restrict a coarse broken quadratic to every triangle of a refinement.

    Hessian coefficients are inherited bitwise, so the broken Hessian norm
    is preserved exactly.
    """
    from plate_afem.mesh import ancestor_map
    from plate_afem.space import BrokenFunction, SpaceError

    if not isinstance(v, BrokenFunction):
        raise SpaceError("expected a BrokenFunction")
    coarse = v.mesh
    amap = ancestor_map(fine_mesh, coarse)
    delta = fine_mesh.centroids - coarse.centroids[amap]
    return BrokenFunction(fine_mesh, poly_shift(v.coeffs[amap], delta))


def hessian_features_prolonged(space, vectors, fine_mesh):
    """(3#T_fine, N) L2(S) features of the broken Hessians of the columns of
    ``vectors``, each column prolonged to ``fine_mesh`` on its own."""
    from plate_afem.helmholtz import tensor_features
    from plate_afem.space import hessians

    return np.stack([tensor_features(fine_mesh, hessians(
        prolong_to_fine(space.to_broken(vectors[:, k]), fine_mesh)))
        for k in range(vectors.shape[1])], axis=1)


def angle_to_reference_prolonged(space, cluster, ref_space, ref_cluster):
    """Largest-angle sine between a level's window span and a reference
    span, both prolonged column by column to the reference mesh."""
    from plate_afem.eigen import sin_max_angle

    fine = ref_space.mesh
    return sin_max_angle(hessian_features_prolonged(space, cluster.vectors, fine),
                         hessian_features_prolonged(ref_space, ref_cluster.vectors, fine))


def min_angle(mesh):
    """Smallest interior angle of the mesh, from the law of cosines."""
    p = mesh.vertices[mesh.triangles]
    angles = []
    for k in range(3):
        a = p[:, (k + 1) % 3] - p[:, k]
        b = p[:, (k + 2) % 3] - p[:, k]
        cosang = np.einsum("td,td->t", a, b) / (
            np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
        angles.append(np.arccos(np.clip(cosang, -1.0, 1.0)))
    return float(np.min(angles))


def similarity_classes(mesh, decimals=12):
    """Set of triangle shapes as normalised, sorted side-length triples."""
    p = mesh.vertices[mesh.triangles]
    sides = np.linalg.norm(p[:, [1, 2, 0]] - p[:, [2, 0, 1]], axis=2)
    sides.sort(axis=1)
    sides /= sides[:, 2:3]
    return {tuple(row) for row in np.round(sides, decimals)}


def matching_neighbor_violations(mesh):
    """Interior edges that are the refinement edge of exactly one neighbour;
    none is the usual compatibility condition of newest-vertex bisection."""
    ref_global = mesh.tri_edges[np.arange(mesh.num_triangles), mesh.refedge]
    is_ref = np.bincount(ref_global, minlength=mesh.num_edges)
    return np.nonzero(mesh.interior_edge_mask & (is_ref == 1))[0]


def flip_edge_orientation(mesh, edge_id):
    """Copy of ``mesh`` with the tangent of one interior edge reversed, and
    its endpoints and adjacent triangles swapped to match.  The normal,
    which the mesh computes from the tangent on read, follows."""
    import copy

    assert mesh.interior_edge_mask[edge_id], "can only flip interior edge normals"
    out = copy.copy(mesh)
    for name in ("edges", "edge_tris"):
        arr = getattr(mesh, name).copy()
        arr[edge_id] = arr[edge_id, ::-1]
        setattr(out, name, arr)
    out.edge_tangents = mesh.edge_tangents.copy()
    out.edge_tangents[edge_id] *= -1.0
    return out

"""Generalized symmetric eigenpairs, cluster diagnostics and subspace angles.

Both matrices may be dense or scipy-sparse; each is converted to canonical
CSR once (sorted indices, no duplicates; a non-canonical input is summed
into a copy and left as it was).  The assembled matrices of ``assembly``
are already symmetric canonical CSR, so that conversion is free for them,
and the stiffness factorisation reads the CSR's own arrays through its
CSC view ``A.T`` instead of a copy.

Up to ``DENSE_CUTOFF`` unknowns the pencil is reduced through a Cholesky
factor of the mass matrix and solved by the standard dense symmetric path
(tridiagonalisation plus implicit-shift iteration, via LAPACK).  Beyond it
a shift-invert Lanczos path factors the stiffness matrix once with SuperLU
in symmetric mode (diagonal pivots, MMD_AT_PLUS_A minimum-degree ordering)
and hands the solve to ARPACK as the shift-invert operator.  The factor is
built without relaxed supernodes (``relax=1``, panel size 10): SuperLU's
default relaxation (Demmel, Eisenstat, Gilbert, Li & Liu, SIAM J. Matrix
Anal. Appl. 20, 1999) pads the factor with explicit zeros that this
stiffness pattern does not repay.  ARPACK stops once every wanted Ritz
value of the shift-inverted operator is converged to the relative
tolerance 1e-10 (its stopping rule, Lehoucq, Sorensen & Yang, *ARPACK
Users' Guide*, 1998, §4.6), not to machine precision: the residual,
orthonormality and diagonality gates that follow decide whether a pair is
accepted.  Eigenvectors are returned mass-orthonormal with a deterministic
sign convention; a window of a solution holds copies of its columns.  The
Helmholtz Gram factorisations share the stiffness factor's SuperLU setting
(``_symmetric_splu``).
"""

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "ClusterSolution",
    "SeparationReport",
    "EigenError",
    "ClusterSplitError",
    "solve_gevp",
    "separation",
    "sin_max_angle",
    "lower_bound",
]

DENSE_CUTOFF = 900          # largest dimension solved by the dense path
_RESID_FACTOR = 1e-8
_LANCZOS_TOL = 1e-10        # ARPACK relative Ritz tolerance of the shift-invert path
_GRAM_CONDITION_LIMIT = 1e12


class EigenError(Exception):
    """Eigensolver failure or invalid pencil."""


class ClusterSplitError(EigenError):
    """The requested index window cuts through a numerically multiple eigenvalue."""


@dataclass
class ClusterSolution:
    """Eigenvalue window with mass-orthonormal eigenvectors.

    ``j_first`` is the 1-based index of the first eigenvalue of the window
    within the full spectrum; ``computed_spectrum`` and
    ``computed_residuals`` keep every eigenvalue computed by the solve and
    its residual, for separation diagnostics and spectrum dumps; ``path``
    names the solver that ran, ``"dense"`` or ``"shift-invert"``,
    ``lanczos_solves`` counts the applications of the shift-invert operator
    (stiffness solves with its factor; 0 on the dense path) and
    ``factor_nnz`` is the number of L+U entries that factor stores (0 on
    the dense path).
    """

    j_first: int
    eigenvalues: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    b_orthonormality_residual: float
    a_diagonality_residual: float
    computed_spectrum: np.ndarray = field(repr=False)
    computed_residuals: np.ndarray = field(repr=False)
    path: str
    lanczos_solves: int
    factor_nnz: int

    def window(self, n: int, N: int) -> "ClusterSolution":
        """Sub-window covering eigenvalue indices n+1 .. n+N (1-based).

        Its eigenvalues, vectors and residuals are copies, so a kept window
        holds ndof x N floats, not the solve's whole block.
        """
        lo = n + 1 - self.j_first
        hi = lo + N
        if lo < 0 or hi > len(self.eigenvalues):
            raise EigenError("window exceeds the computed spectrum")
        return replace(self, j_first=n + 1,
                       eigenvalues=self.eigenvalues[lo:hi].copy(),
                       vectors=self.vectors[:, lo:hi].copy(),
                       residuals=self.residuals[lo:hi].copy())


@dataclass
class SeparationReport:
    """Computable part of the cluster separation bound."""

    m_j: float
    nearest_gap: float
    truncated: bool


def _as_csr(op):
    # canonical CSR that leaves the input as it was: a canonical CSR input
    # is returned itself, and SuperLU, which sums duplicates in place, reads
    # the stiffness matrix through its view A.T
    import scipy.sparse as sparse
    if not sparse.issparse(op):
        return sparse.csr_matrix(np.atleast_2d(np.asarray(op, dtype=float)))
    csr = op.tocsr()
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
    return csr


def solve_gevp(A, M, count) -> ClusterSolution:
    """Lowest ``count`` eigenpairs of ``A x = lambda M x``.

    ``A`` must be symmetric and ``M`` symmetric positive definite; both may
    be dense arrays or scipy sparse matrices of any format, and are read as
    CSR.  The path depends on the dimension ``n`` and ``count`` alone:
    dense when ``n <= DENSE_CUTOFF`` (read at the call) or ``count >= n - 1``.
    The shift-invert path starts Lanczos from the constant unit vector, so
    repeated solves are identical, and stops at ARPACK's relative Ritz
    tolerance 1e-10 rather than at machine precision, which saves an
    implicit restart.  The returned pairs pass the same gates on both
    paths: residual 1e-8 of ``‖A‖₁ + |λ|‖M‖₁``, mass orthonormality 1e-10
    and stiffness diagonality 1e-8.  Multiple eigenvalues return an
    M-orthonormal basis of the invariant subspace.
    """
    import scipy.linalg as dla
    import scipy.sparse.linalg as spla
    A = _as_csr(A)
    M = _as_csr(M)
    n = A.shape[0]
    if count < 1 or count > n:
        raise EigenError(f"count={count} out of range for dimension {n}")
    for name, op in (("stiffness", A), ("mass", M)):
        if not np.isfinite(op.data).all():
            raise EigenError(f"{name} matrix is not finite")

    path = "dense" if n <= DENSE_CUTOFF or count >= n - 1 else "shift-invert"
    lanczos_solves = factor_nnz = 0
    if path == "dense":
        try:
            # fresh Fortran-ordered copies that LAPACK may overwrite in place
            w, v = dla.eigh(A.toarray(order="F"), M.toarray(order="F"),
                            subset_by_index=[0, count - 1], check_finite=False,
                            overwrite_a=True, overwrite_b=True)
        except dla.LinAlgError as exc:
            if "of B is not positive definite" in str(exc):
                raise EigenError("mass matrix is not positive definite") from exc
            raise EigenError(f"dense eigensolver failed: {exc}") from exc
    else:
        try:
            lu = _symmetric_splu(A.T, 0.0)
            factor_nnz = lu.nnz

            def shift_invert(x):
                nonlocal lanczos_solves
                lanczos_solves += 1
                return lu.solve(x)

            OPinv = spla.LinearOperator((n, n), matvec=shift_invert, dtype=float)
            w, v = spla.eigsh(A, k=count, M=M, sigma=0.0, which="LM",
                              v0=np.full(n, 1.0 / np.sqrt(n)), OPinv=OPinv,
                              tol=_LANCZOS_TOL)
        except Exception as exc:  # factorization or ARPACK failure
            raise EigenError(f"sparse eigensolver failed: {exc}") from exc

    order = np.argsort(w, kind="stable")
    w = np.ascontiguousarray(w[order])
    v = np.ascontiguousarray(v[:, order])

    # polish mass-orthonormality (upper-triangular transform keeps ordering)
    G = v.T @ (M @ v)
    try:
        L = dla.cholesky(G, lower=True)
    except dla.LinAlgError as exc:
        raise EigenError("eigenvector block is mass-degenerate") from exc
    v = dla.solve_triangular(L, v.T, lower=True).T

    # deterministic sign: largest-magnitude entry positive
    lead = np.argmax(np.abs(v), axis=0)
    signs = np.sign(v[lead, np.arange(v.shape[1])])
    signs[signs == 0] = 1.0
    v *= signs

    Av, Mv = A @ v, M @ v
    resid = np.linalg.norm(Av - Mv * w, axis=0)
    scale = _norm1(A) + np.abs(w) * _norm1(M)
    bound = _RESID_FACTOR * scale * np.linalg.norm(v, axis=0)
    if np.any(resid > np.maximum(bound, 1e-300)):
        raise EigenError(
            f"eigenpair residual {resid.max():.3e} exceeds tolerance")

    G = v.T @ Mv
    b_res = float(np.abs(G - np.eye(count)).max())
    D = v.T @ Av
    a_res = float((np.abs(D - np.diag(w)).max()) / max(np.abs(w).max(), 1e-300))
    if b_res > 1e-10:
        raise EigenError(f"mass orthonormality residual {b_res:.3e} exceeds 1e-10")
    if a_res > 1e-8:
        raise EigenError(f"stiffness diagonality residual {a_res:.3e} exceeds 1e-8")
    return ClusterSolution(
        j_first=1, eigenvalues=w, vectors=v, residuals=resid,
        b_orthonormality_residual=b_res, a_diagonality_residual=a_res,
        computed_spectrum=w.copy(), computed_residuals=resid.copy(), path=path,
        lanczos_solves=lanczos_solves, factor_nnz=factor_nnz,
    )


def _symmetric_splu(A, diag_pivot_thresh):
    # for symmetric A in CSC: symmetric mode with a symmetric minimum-degree
    # ordering fills L+U far less than splu's COLAMD default.  relax=1
    # turns off relaxed supernodes, whose explicit zeros only pad this
    # factor; panel size 10 was the fastest measured for the factor plus
    # the Lanczos solves.  The stiffness matrix is SPD and
    # takes diagonal pivots only (threshold 0); the Helmholtz saddle-point
    # matrices pass 0.01 for their zero block.
    import scipy.sparse.linalg as spla
    return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=diag_pivot_thresh,
                     relax=1, panel_size=10, options=dict(SymmetricMode=True))


def _norm1(op):
    # max column sum of |op| for canonical CSR, added entry by entry as abs(op).sum(axis=0) adds
    return float(np.bincount(op.indices, np.abs(op.data), minlength=op.shape[1]).max())


def separation(evals, J) -> SeparationReport:
    """Separation estimate for the window ``J`` within computed eigenvalues.

    ``J`` is an iterable of 1-based indices.  The estimate maximises
    ``lambda_k / |lambda_j - lambda_k|`` over window members k and computed
    exterior eigenvalues j.  A gap of at most 1e-12 max|lambda| means the
    window splits a multiple eigenvalue and raises ClusterSplitError; if no
    eigenvalues above the window were computed the report is truncated.
    """
    evals = np.asarray(evals, dtype=float)
    J = np.asarray(sorted(J), dtype=int)
    L = len(evals)
    if J[0] < 1 or J[-1] > L:
        raise EigenError("window indices exceed the computed spectrum")
    inside = np.zeros(L, dtype=bool)
    inside[J - 1] = True
    lam_in = evals[inside]
    lam_out = evals[~inside]
    truncated = J[-1] >= L
    if lam_out.size == 0:
        return SeparationReport(m_j=float("nan"), nearest_gap=float("nan"),
                                truncated=True)
    gaps = np.abs(lam_out[:, None] - lam_in[None, :])
    scale = max(np.abs(evals).max(), 1e-300)
    if gaps.min() <= 1e-12 * scale:
        bad = float(lam_out[np.unravel_index(gaps.argmin(), gaps.shape)[0]])
        raise ClusterSplitError(
            "cluster splits a multiple eigenvalue: exterior eigenvalue "
            f"{bad!r} coincides with a window member")
    m_j = float((lam_in[None, :] / gaps).max())
    return SeparationReport(m_j=m_j, nearest_gap=float(gaps.min()),
                            truncated=bool(truncated))


def _orthonormal_columns(F, what):
    import scipy.linalg as dla
    U, s, _ = dla.svd(F, full_matrices=False)
    if s[0] <= 0 or (s[-1] / s[0]) ** 2 < 1.0 / _GRAM_CONDITION_LIMIT:
        raise EigenError(f"rank-deficient {what} basis (Gram condition > 1e12)")
    return U[:, : F.shape[1]]


def sin_max_angle(FX, FY) -> float:
    """Sine of the largest principal angle between column spans.

    ``FX`` and ``FY`` are feature matrices whose Euclidean inner product
    realises the desired scalar product.  Computed as the operator norm of
    the projection residual, which stays accurate for tiny angles.
    """
    import scipy.linalg as dla
    FX = np.atleast_2d(np.asarray(FX, dtype=float))
    FY = np.atleast_2d(np.asarray(FY, dtype=float))
    if FX.shape[1] == 0 or FY.shape[1] == 0:
        raise EigenError("subspaces must have dimension >= 1")
    QX = _orthonormal_columns(FX, "first")
    QY = _orthonormal_columns(FY, "second")
    R = QX - QY @ (QY.T @ QX)
    s = dla.svd(R, compute_uv=False)
    return float(s[0]) if s.size else 0.0


def lower_bound(lam_disc: float, h_max: float, C: float = 1.0) -> float:
    """Guaranteed-under-the-configured-constant lower eigenvalue bound.

    Returns ``lam / (1 + C * h_max^4 * lam)``: increasing in ``lam``,
    decreasing in ``h_max``.  The bound is guaranteed only under the
    configured constant ``C``; see the documented literature pointer in the
    README for explicit values.
    """
    if lam_disc <= 0 or h_max < 0 or C < 0:
        raise ValueError("lower_bound expects lam > 0, h_max >= 0, C >= 0")
    return lam_disc / (1.0 + C * h_max ** 4 * lam_disc)

"""Residual error estimator for an eigenvalue window and bulk marking.

Per triangle the estimator sums, over the window members, a volume residual
``h_T^4 ||lambda u||^2`` and squared tangential jumps of the piecewise
Hessian over the triangle's interior and clamped edges (the full jump
vector) and its simply supported edges (the tangential-tangential
component).  Free edges contribute nothing.  Interior edges are counted
once per adjacent triangle, each time weighted with that triangle's
mesh size.

All members are evaluated at once, and eta^2 is summed by one scatter
whose input lists, member after member, the volume terms by triangle, the
plus-side edge terms by edge and the minus-side terms of the interior
edges by edge.  ``np.bincount`` adds its weights in input order, so every
triangle receives its terms in the sequence of a loop over the members
with in-order scatters, and eta^2 is bit for bit that loop's.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import BoundaryPart
from .space import _RULE_WEIGHTS, MorleySpace, _hessian_components, _quadratic, _rule_offsets

__all__ = ["EstimatorField", "MarkingError", "estimate", "dorfler_mark"]


class MarkingError(Exception):
    """Invalid marking parameters."""


@dataclass
class EstimatorField:
    """Per-triangle squared estimator contributions for one window."""

    eta2: np.ndarray          # (T,)

    @property
    def total(self) -> float:
        return float(self.eta2.sum())


def estimate(space: MorleySpace, cluster) -> EstimatorField:
    """Evaluate the estimator for the eigenpairs of ``cluster`` on ``space``:
    its ``eigenvalues`` and the columns of its coefficient ``vectors``."""
    mesh = space.mesh
    vectors = np.atleast_2d(np.asarray(cluster.vectors, dtype=float))
    if vectors.shape[0] != space.ndof:
        raise MarkingError("cluster vectors do not live on this space")
    lams = np.asarray(cluster.eigenvalues, dtype=float)
    coeffs = space.window_coefficients(vectors)              # (N, T, 6)

    # volume residual: h_T^4 * int_T (lambda u)^2, exact for quadratics;
    # lambda^2 through pow, as a float64 scalar squares (an array's ** 2
    # multiplies, which differs in the last bit for some lambda)
    d = _rule_offsets(mesh)
    vals = _quadratic(np.moveaxis(coeffs, -1, 0)[..., None], d[..., 0], d[..., 1])
    int_u2 = np.einsum("q,ntq->nt", _RULE_WEIGHTS, vals ** 2) * mesh.areas
    volume = mesh.areas ** 2 * np.float_power(lams, 2)[:, None] * int_u2

    # tangential Hessian jumps, constant per edge
    H = _hessian_components(coeffs)                          # (N, T, 3): h11, h22, h12
    Hmat = np.stack([H[..., [0, 2]], H[..., [2, 1]]], axis=-2)
    plus, minus = mesh.edge_tris[:, 0], mesh.edge_tris[:, 1]
    inner = np.nonzero(minus >= 0)[0]
    jump = Hmat[:, plus]
    jump[:, inner] -= Hmat[:, minus[inner]]
    tau = mesh.edge_tangents
    jt = np.einsum("nfab,fb->nfa", jump, tau)
    full_sq = np.einsum("nfa,nfa->nf", jt, jt)
    tang_sq = np.einsum("nfa,fa->nf", jt, tau) ** 2
    tags = mesh.edge_tags
    edge_sq = np.where((tags == BoundaryPart.INTERIOR) | (tags == BoundaryPart.CLAMPED),
                       full_sq, np.where(tags == BoundaryPart.SIMPLY_SUPPORTED, tang_sq, 0.0))
    edge_int = mesh.edge_lengths * edge_sq                   # int_F |jump|^2

    # member after member: volume, plus-side and minus-side terms, in the loop's order
    terms = np.concatenate([volume, mesh.h_t[plus] * edge_int,
                            mesh.h_t[minus[inner]] * edge_int[:, inner]], axis=1)
    cells = np.concatenate([np.arange(mesh.num_triangles), plus, minus[inner]])
    eta2 = np.bincount(np.tile(cells, len(terms)), weights=terms.ravel(),
                       minlength=mesh.num_triangles)
    return EstimatorField(eta2=eta2)


def dorfler_mark(field: EstimatorField, theta: float) -> np.ndarray:
    """Sorted int64 indices of a minimal bulk-marking set capturing the
    fraction ``theta`` of the total.

    Sorting by decreasing contribution (ties by triangle index) and taking
    the shortest prefix reaching ``theta * total`` yields a minimum
    cardinality set.  A zero estimator marks nothing.
    """
    if not 0.0 < theta <= 1.0:
        raise MarkingError("theta must lie in (0, 1]")
    eta2 = np.asarray(field.eta2, dtype=float)
    if np.any(eta2 < 0):
        raise MarkingError("estimator contributions must be nonnegative")
    order = np.argsort(-eta2, kind="stable")
    csum = np.cumsum(eta2[order])
    total = csum[-1] if len(csum) else 0.0
    if total <= 0.0:
        return np.array([], dtype=np.int64)
    k = min(int(np.searchsorted(csum, theta * total, side="left")), len(csum) - 1)
    return np.sort(order[: k + 1])

"""Residual error estimator for an eigenvalue window and bulk marking.

Per triangle the estimator sums, over the window members, a volume residual
``h_T^4 ||lambda u||^2`` and squared tangential jumps of the piecewise
Hessian over the triangle's interior and clamped edges (the full jump
vector) and its simply supported edges (the tangential-tangential
component).  Free edges contribute nothing.  Interior edges are counted
once per adjacent triangle, each time weighted with that triangle's
mesh size.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import BoundaryPart
from .quadrature import SEVEN_POINT, physical_points
from .space import MorleySpace, hessians

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
    """Evaluate the estimator for the eigenpairs of ``cluster`` on ``space``.

    ``cluster`` provides ``eigenvalues`` and coefficient ``vectors`` living
    on this space.
    """
    mesh = space.mesh
    vectors = np.atleast_2d(np.asarray(cluster.vectors, dtype=float))
    if vectors.shape[0] != space.ndof:
        raise MarkingError("cluster vectors do not live on this space")
    lams = np.asarray(cluster.eigenvalues, dtype=float)

    pts = physical_points(SEVEN_POINT, mesh.vertices[mesh.triangles]).reshape(-1, 2)
    tri_of_point = np.repeat(np.arange(mesh.num_triangles), len(SEVEN_POINT.weights))
    eta2 = np.zeros(mesh.num_triangles)
    interior_or_clamped = ((mesh.edge_tags == BoundaryPart.INTERIOR)
                           | (mesh.edge_tags == BoundaryPart.CLAMPED))
    simply = mesh.edge_tags == BoundaryPart.SIMPLY_SUPPORTED
    tau = mesh.edge_tangents

    for lam, u in zip(lams, vectors.T):
        bf = space.to_broken(u)
        # volume residual: h_T^4 * int_T (lambda u)^2, exact for quadratics
        vals = bf.value(tri_of_point, pts).reshape(mesh.num_triangles, -1)
        int_u2 = np.einsum("q,tq->t", SEVEN_POINT.weights, vals ** 2) * mesh.areas
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
    target = theta * total
    k = int(np.searchsorted(csum, target, side="left"))
    k = min(k, len(csum) - 1)
    return np.sort(order[: k + 1])

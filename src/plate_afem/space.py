"""Morley finite element space: DOF tables, local bases, the 7-point rule, interpolation.

Degrees of freedom are point values at the vertices and mean normal
derivatives over the edges, signed by each edge's fixed global normal.
Vertex DOFs are eliminated on the closure of the clamped and simply
supported boundary parts, edge DOFs on clamped edges.

Element polynomials are stored on a per-triangle monomial frame centred at
the centroid, ``[1, dx, dy, dx^2, dx*dy, dy^2]``, so the (constant) Hessian
can be read off the coefficients and survives restriction to children
bitwise.

Element data (the local basis, its duality residual and the element
matrices of ``assembly``) are computed per triangle from its vertices and
edge normals alone.  Built with the space on the parent mesh, a space
copies the rows of the triangles that newest-vertex bisection kept as they
were and computes only the new ones; the result is bitwise the same as a
space built from scratch.
"""

from functools import cached_property

import numpy as np

from .mesh import BoundaryPart, Triangulation, edge_ancestor_map

__all__ = [
    "MorleySpace",
    "BrokenFunction",
    "SpaceError",
    "build_space",
    "affine_kernel_dimension",
    "affine_kernel_coefficients",
    "morley_interpolate",
    "hessians",
    "l2s_coordinates",
]

_DUALITY_TOL = 1e-12
_RANK_RTOL = 1e-10


class SpaceError(Exception):
    """DOF construction or evaluation failure."""


class BrokenFunction:
    """Piecewise quadratic on a triangulation, centroid-frame coefficients.

    ``value`` and ``gradient`` take one triangle, or one triangle per point."""

    def __init__(self, mesh: Triangulation, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (mesh.num_triangles, 6):
            raise SpaceError("coefficient array must have shape (#T, 6)")
        self.mesh = mesh
        self.coeffs = coeffs

    def value(self, t, points):
        d = np.atleast_2d(points) - self.mesh.centroids[t]
        return _quadratic(self.coeffs[t].T, d[:, 0], d[:, 1])

    def gradient(self, t, points):
        d = np.atleast_2d(points) - self.mesh.centroids[t]
        c = self.coeffs[t].T
        gx = c[1] + 2.0 * c[3] * d[:, 0] + c[4] * d[:, 1]
        gy = c[2] + c[4] * d[:, 0] + 2.0 * c[5] * d[:, 1]
        return np.stack([gx, gy], axis=-1)


def hessians(bf: BrokenFunction) -> np.ndarray:
    """Per-triangle Hessian components (h11, h22, h12) of a broken quadratic."""
    return _hessian_components(bf.coeffs)


def _hessian_components(c):
    # (h11, h22, h12) of centroid-frame quadratic coefficients on the last axis
    return np.stack([2.0 * c[..., 3], 2.0 * c[..., 5], c[..., 4]], axis=-1)


_L2S_SCALE = np.array([1.0, 1.0, np.sqrt(2.0)])


def l2s_coordinates(comps, areas) -> np.ndarray:
    """Symmetric-tensor components (s11, s22, s12) on the last axis, one
    leading row per triangle, scaled so that the Euclidean product is the
    L2(S) product of the piecewise constant fields:
    ``comps * [1, 1, sqrt(2)] * sqrt(|T|)``."""
    comps = np.asarray(comps, dtype=float)
    return comps * _L2S_SCALE * np.sqrt(areas).reshape((-1,) + (1,) * (comps.ndim - 1))


def _quadratic(c, dx, dy):
    # the one evaluation order, so values and re-centred frames agree bitwise
    return (c[0] + c[1] * dx + c[2] * dy + c[3] * dx ** 2 + c[4] * dx * dy
            + c[5] * dy ** 2)


def _seven_point_rule():
    # barycentric points, and weights summing to one, exact to degree 5 (the
    # products of two quadratics): the centroid with weight 9/40, then the
    # orbits of a = (6 -+ sqrt 15)/21 with weights (155 -+ sqrt 15)/1200
    r = np.sqrt(15.0)
    pts, wts = [[1.0 / 3.0] * 3], [9.0 / 40.0]
    for a, w in (((6.0 - r) / 21.0, (155.0 - r) / 1200.0),
                 ((6.0 + r) / 21.0, (155.0 + r) / 1200.0)):
        b = 1.0 - 2.0 * a
        pts += [[b, a, a], [a, b, a], [a, a, b]]
        wts += [w] * 3
    pts, wts = np.array(pts), np.array(wts)
    pts.setflags(write=False)
    wts.setflags(write=False)
    return pts, wts


_RULE_POINTS, _RULE_WEIGHTS = _seven_point_rule()


def _rule_offsets(mesh, rows=slice(None)):
    """(T, 7, 2) offsets of the rule points from the centroids of the
    triangles ``rows``: the frame that ``_quadratic`` evaluates in."""
    return (np.einsum("qi,...id->...qd", _RULE_POINTS, mesh.vertices[mesh.triangles[rows]])
            - mesh.centroids[rows, None])


def _p1_gradients(mesh, rows=slice(None)):
    """(T, 3, 2) gradients of the barycentric coordinates of the triangles ``rows``."""
    p = mesh.vertices[mesh.triangles[rows]]
    A = np.concatenate([np.ones((len(p), 3, 1)), p], axis=2)  # rows (1, x, y)
    return np.linalg.inv(A)[:, 1:, :].transpose(0, 2, 1)  # columns: nodal functions


_LAMBDA_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0))


class MorleySpace:
    """Morley space on a triangulation with boundary conditions eliminated.

    Attributes
    ----------
    vertex_dof, edge_dof : global DOF index per vertex/edge, -1 if constrained
    ndof : number of unconstrained DOFs
    cell_dofs : (T, 6) global DOF of the local DOFs (v0, v1, v2, e0, e1, e2),
        where e_i is the edge opposite vertex i
    basis : (T, 6, 6) local basis functions in the centroid monomial frame
    basis_hessians : (T, 6, 3) constant Hessian components (h11, h22, h12)
        of the basis, formed from ``basis`` on first read and kept from
        then on; the adaptive loop never reads it
    duality_residual : max deviation of the local DOF/basis duality from
        the identity over all triangles, checked against 1e-12

    Besides these, a space keeps its element data (the basis with its
    duality residual and, once assembled, the element stiffness and mass
    matrices) and what ``derived`` made: the Hessian Gram factor of the
    Helmholtz audit, never scatter indices of the assembly.
    """

    def __init__(self, mesh: Triangulation, coarse=None):
        self.mesh = mesh
        self._number_dofs()
        self._fresh, self._inherited = _inherited_rows(mesh, coarse)
        self._elements = {}
        self._derived = {}
        self.basis, resid = self.element_data("basis", _dual_basis)
        self.duality_residual = float(resid.max())

    @cached_property
    def basis_hessians(self) -> np.ndarray:
        return _hessian_components(self.basis)

    def _number_dofs(self):
        mesh = self.mesh
        constrained_v, constrained_e = _constrained_dofs(mesh)

        self.vertex_dof = np.full(mesh.num_vertices, -1, dtype=np.int64)
        free_v = np.nonzero(~constrained_v)[0]
        self.vertex_dof[free_v] = np.arange(len(free_v))
        self.edge_dof = np.full(mesh.num_edges, -1, dtype=np.int64)
        free_e = np.nonzero(~constrained_e)[0]
        self.edge_dof[free_e] = len(free_v) + np.arange(len(free_e))
        self.ndof = len(free_v) + len(free_e)

        self.cell_dofs = np.hstack([
            self.vertex_dof[mesh.triangles],
            self.edge_dof[mesh.tri_edges],
        ])

    def element_data(self, name, kernel):
        """Tuple of per-triangle arrays ``kernel(space, rows)`` on every row.

        ``kernel`` must compute each row from that triangle alone.  It runs
        once per space, on the rows that are new on this mesh when the
        coarse space had computed ``name``, and on all rows otherwise.
        """
        data = self._elements.get(name)
        if data is None:
            data = self._inherited.pop(name, None)
            if data is None:
                data = kernel(self, slice(None))
            else:
                for full, part in zip(data, kernel(self, self._fresh)):
                    full[self._fresh] = part
            self._elements[name] = data
        return data

    def derived(self, name, make):
        """``make(space)``, computed on first use and kept with the space."""
        if name not in self._derived:
            self._derived[name] = make(self)
        return self._derived[name]

    # -- coefficient handling ---------------------------------------------

    def window_coefficients(self, vectors) -> np.ndarray:
        """(N, T, 6) centroid-frame coefficients of the N columns of an
        (ndof, N) block of Morley coefficient vectors."""
        padded = np.vstack([vectors, np.zeros(np.shape(vectors)[1])])  # 0 where constrained
        return np.einsum("nti,tim->ntm", padded.T[:, self.cell_dofs], self.basis)

    def to_broken(self, u) -> BrokenFunction:
        """Represent a Morley coefficient vector as a broken quadratic."""
        if np.shape(u) != (self.ndof,):
            raise SpaceError(f"expected coefficient vector of length {self.ndof}")
        return BrokenFunction(self.mesh, self.window_coefficients(np.reshape(u, (-1, 1)))[0])


def build_space(mesh: Triangulation, coarse=None) -> MorleySpace:
    """Build the Morley space with eliminated boundary constraints.

    ``coarse`` is the space on ``mesh.coarse``; its element data are reused
    on the triangles that refinement left untouched.  Any other value, or
    none, computes every triangle; the result is the same bit for bit.
    """
    return MorleySpace(mesh, coarse)


def _inherited_rows(mesh, coarse):
    """Rows whose element data must be computed, and the coarse data by row.

    Refinement keeps an unsplit triangle with its vertices in the same
    order, and children follow their parents' order, so the plus side and
    the orientation of each of its edges stay the same as well.
    """
    if not isinstance(coarse, MorleySpace) or coarse.mesh is not mesh.coarse:
        return slice(None), {}
    src = mesh.parent
    kept = (mesh.triangles == coarse.mesh.triangles[src]).all(axis=1)
    if not kept.any():
        return slice(None), {}
    inherited = {name: tuple(a[src] for a in data)
                 for name, data in coarse._elements.items()}
    return np.nonzero(~kept)[0], inherited


def _dual_basis(space, rows):
    """Local basis in the centroid frame and the duality residual, per triangle."""
    mesh = space.mesh
    grads = _p1_gradients(mesh, rows)            # (T, 3, 2) gradients of lambda_i
    ntri = len(grads)

    # DOF matrix of the barycentric monomials lam_a * lam_b
    D = np.zeros((ntri, 6, 6))
    for l, (a, b) in enumerate(_LAMBDA_PAIRS):
        for j in range(3):
            D[:, j, l] = (1.0 if a == b == j else 0.0)
    normals = mesh.edge_normals[mesh.tri_edges[rows]]  # (T, 3, 2)
    lam_mid = np.full(3, 0.5)
    for i in range(3):                           # edge opposite vertex i
        lam = lam_mid.copy()
        lam[i] = 0.0
        for l, (a, b) in enumerate(_LAMBDA_PAIRS):
            grad = lam[a] * grads[:, b, :] + lam[b] * grads[:, a, :]
            D[:, 3 + i, l] = np.einsum("td,td->t", normals[:, i, :], grad)

    try:
        C = np.linalg.inv(D)
    except np.linalg.LinAlgError as exc:
        raise SpaceError("singular local dual system (degenerate triangle)") from exc
    resid = np.abs(np.einsum("tkl,tli->tki", D, C)
                   - np.eye(6)[None, :, :]).max(axis=(1, 2))
    if resid.max() > _DUALITY_TOL:
        raise SpaceError(f"local basis duality residual {resid.max():.3e} exceeds 1e-12")

    # centroid-frame coefficients of the lambda monomials:
    # lam_a = 1/3 + g_a . d  =>  lam_a lam_b expands to a quadratic in d
    g = grads
    mono = np.zeros((ntri, 6, 6))
    for l, (a, b) in enumerate(_LAMBDA_PAIRS):
        mono[:, l, 0] = 1.0 / 9.0
        mono[:, l, 1] = (g[:, a, 0] + g[:, b, 0]) / 3.0
        mono[:, l, 2] = (g[:, a, 1] + g[:, b, 1]) / 3.0
        mono[:, l, 3] = g[:, a, 0] * g[:, b, 0]
        mono[:, l, 4] = g[:, a, 0] * g[:, b, 1] + g[:, a, 1] * g[:, b, 0]
        mono[:, l, 5] = g[:, a, 1] * g[:, b, 1]
    return np.einsum("tli,tlm->tim", C, mono), resid


def _constrained_dofs(mesh):
    """Masks of the vertices and edges whose DOFs the boundary eliminates."""
    constrained_v = mesh.vertices_on(BoundaryPart.CLAMPED,
                                     BoundaryPart.SIMPLY_SUPPORTED)
    constrained_e = mesh.edge_tags == BoundaryPart.CLAMPED
    return constrained_v, constrained_e


def _affine_kernel(mesh):
    """Centre, scale and a (3, k) basis of the affine functions in the space.

    An affine ``a + b x + c y`` (in coordinates centred at ``centre`` and
    divided by ``scale``) lies in the space when every eliminated DOF of it
    vanishes: ``[1, x, y]`` at each constrained vertex and the normal
    derivative ``[0, n_x, n_y]`` on each clamped edge.  Its coefficient
    vectors are the null space of those rows, computed from the boundary
    alone.
    """
    constrained_v, constrained_e = _constrained_dofs(mesh)
    centre = mesh.vertices.mean(axis=0)
    scale = np.ptp(mesh.vertices, axis=0).max()
    xy = (mesh.vertices[constrained_v] - centre) / scale
    rows = np.vstack([
        np.column_stack([np.ones(len(xy)), xy]),
        np.column_stack([np.zeros(int(constrained_e.sum())),
                         mesh.edge_normals[constrained_e]]),
    ])
    if len(rows) == 0:
        return centre, scale, np.eye(3)
    _, sigma, vt = np.linalg.svd(rows, full_matrices=len(rows) < 3)
    return centre, scale, vt[_numerical_rank(sigma):].T


def _numerical_rank(sizes):
    """Numerical rank from descending magnitudes, the singular values or the
    absolute diagonal of a pivoted QR factor: those above 1e-10 times the first."""
    if sizes.size == 0 or sizes[0] == 0.0:
        return 0
    return int(np.sum(sizes > _RANK_RTOL * sizes[0]))


def affine_kernel_dimension(mesh: Triangulation) -> int:
    """Dimension of the affine functions left in the Morley space on ``mesh``.

    These are the rigid-body modes, the kernel of the stiffness form: 3
    minus the rank of the eliminated DOFs of ``[1, x, y]``.
    """
    return _affine_kernel(mesh)[2].shape[1]


def affine_kernel_coefficients(space: MorleySpace) -> np.ndarray:
    """Morley coefficients (ndof, k) of a basis of the affine functions in
    the space, ``k = affine_kernel_dimension(space.mesh)``.

    Each column holds an affine function's value at every free vertex and
    its normal derivative on every free edge.
    """
    mesh = space.mesh
    centre, scale, null = _affine_kernel(mesh)
    dofs = np.zeros((space.ndof, 3))
    free_v = np.nonzero(space.vertex_dof >= 0)[0]
    dofs[space.vertex_dof[free_v], 0] = 1.0
    dofs[space.vertex_dof[free_v], 1:] = (mesh.vertices[free_v] - centre) / scale
    free_e = np.nonzero(space.edge_dof >= 0)[0]
    dofs[space.edge_dof[free_e], 1:] = mesh.edge_normals[free_e] / scale
    return dofs @ null


# -- DOF functionals -----------------------------------------------------------


def morley_interpolate(space: MorleySpace, v) -> np.ndarray:
    """Interpolate ``v`` into the space by matching all DOF functionals.

    ``v`` is a BrokenFunction living on the space's mesh or a refinement of
    it.  The result reproduces quadratics and its piecewise Hessian equals
    the elementwise mean of the broken Hessian of ``v``.

    A vertex DOF is the mean of the traces of all adjacent fine triangles
    (refinement keeps the coarse vertex numbers).  An edge DOF is
    sum |f| * (mean one-sided normal derivative at the midpoint of f) / |e|
    over the fine sub-edges f of the coarse edge e; the normal derivative is
    affine per side, so the midpoint value is its mean along f.  The
    refinement numbering gives the sub-edges (``edge_ancestor_map``).
    """
    if not isinstance(v, BrokenFunction):
        raise SpaceError("expected a BrokenFunction")
    coarse, fine = space.mesh, v.mesh
    emap = edge_ancestor_map(fine, coarse)  # raises unless a refinement
    out = np.zeros(space.ndof)

    verts = fine.triangles.ravel()
    traces = v.value(np.repeat(np.arange(fine.num_triangles), 3), fine.vertices[verts])
    mean = np.bincount(verts, weights=traces) / np.bincount(verts)
    free_v = np.nonzero(space.vertex_dof >= 0)[0]
    out[space.vertex_dof[free_v]] = mean[free_v]

    f = np.nonzero(emap >= 0)[0]
    parent = emap[f]
    mid = fine.edge_midpoints[f]
    nu = coarse.edge_normals[parent]
    plus, minus = fine.edge_tris[f, 0], fine.edge_tris[f, 1]
    dn = np.einsum("fd,fd->f", v.gradient(plus, mid), nu)
    two = minus >= 0
    dn[two] = (dn[two] + np.einsum("fd,fd->f", v.gradient(minus[two], mid[two]),
                                   nu[two])) / 2.0
    total = np.bincount(parent, weights=fine.edge_lengths[f] * dn,
                        minlength=coarse.num_edges)
    free_e = np.nonzero(space.edge_dof >= 0)[0]
    if np.any(np.bincount(parent, minlength=coarse.num_edges)[free_e] == 0):
        raise SpaceError("edge is not resolved by the fine mesh")
    out[space.edge_dof[free_e]] = total[free_e] / coarse.edge_lengths[free_e]
    return out


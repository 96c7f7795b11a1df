"""Triangulations with boundary-part labels and newest-vertex bisection.

Conventions
-----------
* Triangles are stored counterclockwise; ``refedge[t]`` is the local index
  ``k`` of the vertex opposite the refinement edge, i.e. the refinement edge
  is ``conv{v[(k+1)%3], v[(k+2)%3]}``.
* Edge ``i`` of a triangle is the edge opposite its local vertex ``i``.
* Every edge carries a fixed unit normal.  Boundary normals point outward;
  interior normals point out of the adjacent triangle with the lower index.
  Edge endpoints are ordered so that the tangent ``rot90(normal)`` runs from
  ``edges[f, 0]`` to ``edges[f, 1]``.  Along the boundary this is the
  counterclockwise direction.
* Jumps of piecewise quantities across an interior edge are
  ``value_on_plus - value_on_minus`` with ``plus`` the lower-indexed triangle;
  on boundary edges the jump is the trace.

A triangulation is an immutable snapshot; refinement returns a new snapshot
that keeps a reference to its parent mesh and a triangle parent map.
"""

import hashlib
import itertools
import json
from enum import IntEnum

import numpy as np

__all__ = [
    "BoundaryPart",
    "Triangulation",
    "MeshError",
    "build_mesh",
    "refine_nvb",
    "uniform_refine",
    "preset_mesh",
    "mesh_to_dict",
    "mesh_from_dict",
    "save_mesh",
    "load_mesh",
    "mesh_hash",
    "ancestor_map",
    "edge_ancestor_map",
]


class MeshError(Exception):
    """Invalid mesh input or construction failure."""


class BoundaryPart(IntEnum):
    INTERIOR = 0
    CLAMPED = 1
    SIMPLY_SUPPORTED = 2
    FREE = 3

    @property
    def label(self):
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "BoundaryPart":
        for part in cls:
            if label == part.label:
                return part
        raise MeshError(f"unknown boundary tag {label!r}")


class Triangulation:
    """Immutable triangulation with derived incidence tables.

    Attributes
    ----------
    vertices : (N, 2) float array
    triangles : (T, 3) int array, counterclockwise
    refedge : (T,) int array, local index 0-2 of the vertex opposite the
        refinement edge (any other shape or value raises MeshError); default
        is the longest edge, ties broken by the smallest global edge index
    edges : (F, 2) int array of endpoint indices, tangent-ordered
    edge_tags : (F,) int array of BoundaryPart values
    tri_edges : (T, 3) int array, global edge index opposite local vertex i
    edge_tris : (F, 2) int array, adjacent triangles (t_plus, t_minus);
        t_minus is -1 on the boundary
    areas, centroids : per triangle |T| and the centroid
    edge_lengths, edge_tangents : per edge

    Computed on every read from the stored arrays and kept by no mesh:
    ``h_t`` (|T|^(1/2)), ``max_diameter`` (the longest edge),
    ``edge_normals`` (the tangent turned clockwise), ``edge_midpoints``
    (from ``edges`` and ``vertices``), and ``boundary_edge_mask`` and
    ``interior_edge_mask`` (from ``edge_tris``).  They are read-only.

    A refined mesh also keeps its parent map and its coarse mesh; the coarse
    edge under each fine edge follows from the numbering
    (``edge_ancestor_map``).  Orientation and vertex use are checked on
    temporaries that the mesh does not keep.
    """

    def __init__(self, vertices, triangles, refedge=None, edge_tags=None,
                 parent=None, coarse=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (N, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be a (T, 3) array")
        if len(self.triangles) == 0:
            raise MeshError("mesh must contain at least one triangle")
        if self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices):
            raise MeshError("triangle vertex index out of range")

        self._build_geometry()
        self._build_edges()
        self.refedge = np.ascontiguousarray(
            _longest_edge_assignment(self) if refedge is None else refedge,
            dtype=np.int64)
        if (self.refedge.shape != (len(self.triangles),)
                or self.refedge.min() < 0 or self.refedge.max() > 2):
            raise MeshError("refedge must hold one local vertex index 0-2 per triangle")

        self.parent = None if parent is None else np.asarray(parent, dtype=np.int64)
        self.coarse = coarse

        if edge_tags is None:
            edge_tags = np.where(self.boundary_edge_mask,
                                 int(BoundaryPart.FREE), int(BoundaryPart.INTERIOR))
        self._set_tags(edge_tags)

    # -- construction helpers -------------------------------------------------

    def _build_geometry(self):
        p = self.vertices[self.triangles]           # (T, 3, 2)
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        if np.any(areas <= 0.0):
            bad = int(np.argmin(areas))
            raise MeshError(f"triangle {bad} is degenerate or not counterclockwise")
        self.areas = areas
        self.centroids = p.mean(axis=1)

    def _build_edges(self):
        tris = self.triangles
        ntri = len(tris)
        # edge opposite local vertex i connects local vertices i+1, i+2
        raw = np.stack([tris[:, [1, 2]], tris[:, [2, 0]], tris[:, [0, 1]]], axis=1)
        raw = raw.reshape(-1, 2)                     # (3T, 2), directed ccw
        uniq, inverse, counts = np.unique(_edge_keys(raw, len(self.vertices)),
                                          return_inverse=True, return_counts=True)
        if counts.max() > 2:
            raise MeshError("non-conforming mesh: an edge is shared by >2 triangles")
        self.tri_edges = inverse.reshape(ntri, 3)
        nedges = len(uniq)

        # adjacency, slot 0 holding the lower triangle index
        flat_tri = np.repeat(np.arange(ntri), 3)
        order = np.argsort(inverse, kind="stable")
        starts = np.cumsum(counts) - counts
        edge_tris = np.full((nedges, 2), -1, dtype=np.int64)
        edge_tris[:, 0] = flat_tri[order[starts]]
        two = counts == 2
        edge_tris[two, 1] = flat_tri[order[starts[two] + 1]]
        self.edge_tris = edge_tris

        # orient endpoints as traversed by the plus triangle (ccw), so the
        # normal rot-90(tangent) points out of it
        endpoints = raw[order[starts]]
        self.edges = endpoints

        vec = self.vertices[endpoints[:, 1]] - self.vertices[endpoints[:, 0]]
        self.edge_lengths = np.linalg.norm(vec, axis=1)
        if np.any(self.edge_lengths <= 0.0):
            raise MeshError("zero-length edge")
        self.edge_tangents = vec / self.edge_lengths[:, None]

        used = np.zeros(len(self.vertices), dtype=bool)
        used[tris.ravel()] = True
        if not used.all():
            raise MeshError("mesh contains a vertex not used by any triangle")

    def _set_tags(self, edge_tags):
        self.edge_tags = np.ascontiguousarray(edge_tags, dtype=np.int64)
        self._check_tags()

    def _check_tags(self):
        if len(self.edge_tags) != len(self.edges):
            raise MeshError("edge_tags length mismatch")
        interior_bad = self.interior_edge_mask & (self.edge_tags != BoundaryPart.INTERIOR)
        boundary_bad = self.boundary_edge_mask & (self.edge_tags == BoundaryPart.INTERIOR)
        if np.any(interior_bad):
            raise MeshError("interior edge carries a boundary tag")
        if np.any(boundary_bad):
            raise MeshError("boundary edge is missing a part label")

    # -- data computed on read ------------------------------------------------

    @property
    def h_t(self):
        return np.sqrt(self.areas)

    @property
    def edge_normals(self):
        tangent = self.edge_tangents
        return np.stack([tangent[:, 1], -tangent[:, 0]], axis=1)

    @property
    def edge_midpoints(self):
        return 0.5 * (self.vertices[self.edges[:, 0]] + self.vertices[self.edges[:, 1]])

    @property
    def boundary_edge_mask(self):
        return self.edge_tris[:, 1] == -1

    @property
    def interior_edge_mask(self):
        return ~self.boundary_edge_mask

    # -- incidence / query API ------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def max_diameter(self) -> float:
        return float(self.edge_lengths.max())

    def edges_with_tag(self, *parts) -> np.ndarray:
        """Indices of edges whose tag is one of ``parts``."""
        mask = np.isin(self.edge_tags, [int(p) for p in parts])
        return np.nonzero(mask)[0]

    def boundary_edges(self):
        return np.nonzero(self.boundary_edge_mask)[0]

    def vertices_on(self, *parts) -> np.ndarray:
        """Boolean mask of vertices lying on edges tagged with any of ``parts``."""
        mask = np.zeros(self.num_vertices, dtype=bool)
        sel = self.edges_with_tag(*parts)
        mask[self.edges[sel].ravel()] = True
        return mask

    def free_corner_vertices(self) -> np.ndarray:
        """Vertices shared by exactly two free boundary edges."""
        free = self.edges_with_tag(BoundaryPart.FREE)
        counts = np.zeros(self.num_vertices, dtype=np.int64)
        np.add.at(counts, self.edges[free].ravel(), 1)
        return np.nonzero(counts == 2)[0]

    def euler_identities(self):
        """(#N + #T - 1 - #F, 2#T + 1 - #N - #F_interior); zero on disk-like meshes."""
        n, t, f = self.num_vertices, self.num_triangles, self.num_edges
        fi = int(self.interior_edge_mask.sum())
        return n + t - 1 - f, 2 * t + 1 - n - fi


def _edge_keys(pairs, num_vertices):
    # one int64 per undirected edge; ascending keys are the lexicographic
    # order of the (min, max) endpoint pairs, which is the edge numbering
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    return lo * num_vertices + hi


# -- building ------------------------------------------------------------------


def build_mesh(vertices, triangles, boundary, refedge=None) -> Triangulation:
    """Build a labelled triangulation from raw arrays.

    Parameters
    ----------
    vertices : (N, 2) array of points
    triangles : (T, 3) array of counterclockwise vertex triples
    boundary : sequence of ``(i, j, tag)`` straight boundary segments given by
        endpoint vertex indices; every boundary edge of the mesh must lie in
        exactly one segment and inherits its tag.  Tags are BoundaryPart
        members or their string labels.
    refedge : optional (T,) array of refinement-edge assignments.  Default is
        the longest edge, ties broken by the smallest global edge index.

    Raises MeshError for non-conforming input, degenerate triangles, a
    refedge entry outside 0-2 or boundary edges not covered by exactly one
    labelled segment.
    """
    vertices = np.asarray(vertices, dtype=float)
    mesh = Triangulation(vertices, triangles, refedge)

    part_ids = np.array([tag if isinstance(tag, BoundaryPart)
                         else BoundaryPart.from_label(tag) for _, _, tag in boundary],
                        dtype=np.int64)
    if np.any(part_ids == BoundaryPart.INTERIOR):
        raise MeshError("boundary segments cannot be tagged interior")
    ends = np.array([(int(i), int(j)) for i, j, _ in boundary],
                    dtype=np.int64).reshape(-1, 2)

    # an edge lies in a segment when both endpoints are collinear with it
    # and project into it, up to 1e-12 times the coordinate scale
    tol = 1e-12 * (np.max(np.abs(vertices)) or 1.0)
    bnd = mesh.boundary_edges()
    zs, slot = np.unique(mesh.edges[bnd], return_inverse=True)
    p = vertices[ends[:, 0]]
    ab = vertices[ends[:, 1]] - p
    L2 = np.einsum("sd,sd->s", ab, ab)
    dx = vertices[zs, 0, None] - p[:, 0]                     # (Z, S)
    dy = vertices[zs, 1, None] - p[:, 1]
    s = (dx * ab[:, 0] + dy * ab[:, 1]) / L2
    on = ((np.abs(ab[:, 0] * dy - ab[:, 1] * dx) <= tol * np.sqrt(L2))
          & (s >= -tol) & (s <= 1.0 + tol))
    hits = on[slot.reshape(-1, 2)].all(axis=1)              # (E, S)
    none = len(BoundaryPart)                  # above every part id
    lo = np.where(hits, part_ids, none).min(axis=1, initial=none)
    hi = np.where(hits, part_ids, -1).max(axis=1, initial=-1)
    bad = np.nonzero(lo != hi)[0]
    if bad.size:
        f = bnd[bad[0]]
        if hi[bad[0]] < 0:
            raise MeshError(f"boundary edge {f} not covered by any labelled segment")
        raise MeshError(f"boundary edge {f} straddles two part labels")
    tags = np.full(mesh.num_edges, int(BoundaryPart.INTERIOR), dtype=np.int64)
    tags[bnd] = lo
    mesh._set_tags(tags)
    return mesh


def _longest_edge_assignment(mesh):
    # longest edge per triangle; ties by smallest global edge index
    lengths = mesh.edge_lengths[mesh.tri_edges]      # (T, 3)
    longest = lengths == lengths.max(axis=1, keepdims=True)
    return np.argmin(np.where(longest, mesh.tri_edges, mesh.num_edges), axis=1)


# -- refinement ----------------------------------------------------------------


def refine_nvb(mesh: Triangulation, marked) -> Triangulation:
    """Newest-vertex bisection of the marked triangles with conformity closure.

    Every marked triangle is bisected at least once; marked edges propagate
    through refinement edges until the split set is closed, which keeps the
    result conforming.

    Children come in the order of their parents.  A triangle ``(a, p, q)``
    with refinement edge ``conv{p, q}`` split at ``m`` gives ``(m, a, p)``,
    or its halves ``(m1, m, a)`` and ``(m1, p, m)`` when ``conv{a, p}`` is
    split at ``m1``, then ``(m, q, a)``, or its halves ``(m2, m, q)`` and
    ``(m2, a, m)`` when ``conv{q, a}`` is split at ``m2``.  Every child
    refines the edge opposite its local vertex 0 next; an unsplit triangle
    is kept as it is.  New
    vertices are the midpoints of the split edges in edge order.

    Returns the input object unchanged when nothing is marked.
    """
    marked = _as_index_array(marked, mesh.num_triangles)
    if marked.size == 0:
        return mesh

    split_edge = np.zeros(mesh.num_edges, dtype=bool)
    split_edge[mesh.tri_edges[marked, mesh.refedge[marked]]] = True
    _closure(mesh, split_edge)
    return _apply_split(mesh, split_edge)


def uniform_refine(mesh: Triangulation) -> Triangulation:
    """Bisect every edge of the mesh (each triangle becomes four children)."""
    split_edge = np.ones(mesh.num_edges, dtype=bool)
    return _apply_split(mesh, split_edge)


def _as_index_array(marked, ntri):
    arr = np.unique(np.asarray(marked, dtype=np.int64).ravel())
    if arr.size and (arr[0] < 0 or arr[-1] >= ntri):
        raise MeshError("marked triangle index out of range")
    return arr


def _closure(mesh, split_edge):
    # a triangle with any split edge must also split its refinement edge
    ref_global = mesh.tri_edges[np.arange(mesh.num_triangles), mesh.refedge]
    while True:
        touched = split_edge[mesh.tri_edges].any(axis=1)
        need = touched & ~split_edge[ref_global]
        if not need.any():
            return
        split_edge[ref_global[need]] = True


def _apply_split(mesh, split_edge):
    split_ids = np.nonzero(split_edge)[0]
    nold = mesh.num_vertices
    midpoint_index = np.full(mesh.num_edges, -1, dtype=np.int64)
    midpoint_index[split_ids] = nold + np.arange(len(split_ids))
    new_vertices = np.vstack([mesh.vertices, mesh.edge_midpoints[split_ids]])

    # local vertices a, p, q with the refinement edge conv{p, q} opposite a;
    # m, m2, m1 are the midpoints of the edges opposite a, p, q (-1: unsplit)
    rows = np.arange(mesh.num_triangles)[:, None]
    local = (mesh.refedge[:, None] + np.arange(3)) % 3
    a, p, q = mesh.triangles[rows, local].T
    m, m2, m1 = midpoint_index[mesh.tri_edges[rows, local]].T
    # closure guarantees that an unsplit refinement edge leaves t unsplit
    split = m >= 0
    split1 = split & (m1 >= 0)
    split2 = split & (m2 >= 0)

    def tri(*cols):
        return np.stack(cols, axis=1)

    slots = np.stack([
        np.where(split[:, None],
                 np.where(split1[:, None], tri(m1, m, a), tri(m, a, p)),
                 mesh.triangles),
        tri(m1, p, m),
        np.where(split2[:, None], tri(m2, m, q), tri(m, q, a)),
        tri(m2, a, m),
    ], axis=1)                                       # (T, 4, 3)
    refs = np.zeros((mesh.num_triangles, 4), dtype=np.int64)
    refs[:, 0] = np.where(split, 0, mesh.refedge)
    present = np.stack([np.ones_like(split), split1, split, split2], axis=1)
    parent, slot = np.nonzero(present)               # row-major: child order

    refined = Triangulation(new_vertices, slots[parent, slot], refs[parent, slot],
                            parent=parent, coarse=mesh)
    refined._set_tags(_inherited_tags(mesh, refined, split_ids))
    return refined


def _parent_edges(coarse, refined, split_ids, edges):
    # coarse edge under each of the refined ``edges``, -1 inside a triangle.
    # A half of split_ids[k] joins new vertex nold + k to an end of it; an old
    # edge survives, found by key (keys ascend with the coarse edge index).
    nold = coarse.num_vertices
    ends = refined.edges[edges]
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    parent_edge = np.full(len(ends), -1, dtype=np.int64)

    half = hi >= nold
    split = split_ids[hi[half] - nold]
    on_split = (coarse.edges[split] == lo[half, None]).any(axis=1)
    parent_edge[half] = np.where(on_split, split, -1)

    keys = _edge_keys(coarse.edges, nold)
    want = _edge_keys(ends[~half], nold)
    pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    parent_edge[~half] = np.where(keys[pos] == want, pos, -1)
    return parent_edge


def _inherited_tags(coarse, refined, split_ids):
    bnd = refined.boundary_edges()
    parent_edge = _parent_edges(coarse, refined, split_ids, bnd)
    if np.any(parent_edge < 0):
        raise MeshError("refined boundary edge has no parent edge")
    tags = np.full(refined.num_edges, int(BoundaryPart.INTERIOR), dtype=np.int64)
    tags[bnd] = coarse.edge_tags[parent_edge]
    return tags


def _refinement_chain(fine, coarse):
    # the meshes from ``fine`` up to, not including, ``coarse``
    while fine is not coarse:
        if fine.parent is None or fine.coarse is None:
            raise MeshError("mesh is not a refinement of the given coarse mesh")
        yield fine
        fine = fine.coarse


def ancestor_map(fine: Triangulation, coarse: Triangulation) -> np.ndarray:
    """Index of the ancestor in ``coarse`` for every triangle of ``fine``.

    Raises MeshError unless ``coarse`` appears in the refinement chain of
    ``fine`` (object identity).
    """
    amap = np.arange(fine.num_triangles)
    for m in _refinement_chain(fine, coarse):
        amap = m.parent[amap]
    return amap


def edge_ancestor_map(fine: Triangulation, coarse: Triangulation) -> np.ndarray:
    """Index of the edge of ``coarse`` that each edge of ``fine`` lies on,
    -1 for an edge inside a coarse triangle.

    Read from each step's numbering: a coarse edge is split exactly when it
    is not a fine edge, and new vertices are split-edge midpoints in edge
    order.  Raises MeshError as ``ancestor_map`` does.
    """
    emap = np.arange(fine.num_edges)
    for m in _refinement_chain(fine, coarse):
        nold = m.coarse.num_vertices
        old = m.edges.max(axis=1) < nold
        kept = np.isin(_edge_keys(m.coarse.edges, nold), _edge_keys(m.edges[old], nold))
        on = emap >= 0
        emap[on] = _parent_edges(m.coarse, m, np.nonzero(~kept)[0], emap[on])
    return emap


# -- presets -------------------------------------------------------------------


# geometry: (vertices, triangles, outline segments in the order a per-segment
# ``bc`` list labels them, ``mixed`` labels or None)
_PRESETS = {
    # unit square split along the main diagonal; bottom, right, top, left
    "square": ([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
               [(0, 1, 2), (0, 2, 3)],
               [(0, 1), (1, 2), (2, 3), (3, 0)],
               ["clamped", "simply_supported", "free", "simply_supported"]),
    # (-1,1)^2 minus [0,1]x[-1,0]; counterclockwise from the bottom edge:
    # bottom, reentrant-vertical, reentrant-horizontal, right, top, left
    "lshape": ([(-1.0, -1.0), (0.0, -1.0), (-1.0, 0.0), (0.0, 0.0),
                (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (-1.0, 1.0)],
               [(0, 1, 3), (0, 3, 2), (3, 4, 5), (3, 5, 6), (2, 3, 6), (2, 6, 7)],
               [(0, 1), (1, 3), (3, 4), (4, 5), (5, 7), (7, 0)],
               ["clamped", "simply_supported", "free",
                "clamped", "simply_supported", "free"]),
    # reference triangle (0,0), (1,0), (0,1); segments (0,1), (1,2), (2,0)
    "triangle": ([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
                 [(0, 1, 2)],
                 [(0, 1), (1, 2), (2, 0)],
                 None),
}


def preset_mesh(geometry: str, bc) -> Triangulation:
    """Named geometry presets: ``square``, ``lshape`` or ``triangle``.

    ``bc`` is a tag label, a list of labels for the outline segments in the
    order ``_PRESETS`` lists them, or ``"mixed"`` for a canonical
    clamped/simply-supported/free combination.
    """
    if geometry not in _PRESETS:
        raise MeshError(f"unknown geometry preset {geometry!r}")
    v, t, segs, mixed = _PRESETS[geometry]
    if bc == "mixed":
        if mixed is None:
            raise MeshError(f"no mixed preset for geometry {geometry!r}")
        bc = mixed
    if isinstance(bc, (str, BoundaryPart)):
        bc = [bc] * len(segs)
    if len(bc) != len(segs):
        raise MeshError(f"expected {len(segs)} boundary labels, got {len(bc)}")
    return build_mesh(v, t, [(i, j, tag) for (i, j), tag in zip(segs, bc)])


# -- serialization ---------------------------------------------------------------


def mesh_to_dict(mesh: Triangulation) -> dict:
    f = mesh.boundary_edges()
    boundary = [{"segment": segment, "tag": BoundaryPart(tag).label}
                for segment, tag in zip(mesh.edges[f].tolist(), mesh.edge_tags[f].tolist())]
    return {
        "vertices": mesh.vertices.tolist(),
        "triangles": np.hstack([mesh.triangles, mesh.refedge[:, None]]).tolist(),
        "boundary": boundary,
    }


def mesh_from_dict(doc: dict) -> Triangulation:
    """Mesh from its ``mesh_to_dict`` form; a missing key, a malformed row or
    a triangle entry that an int64 cast would change (true, 1.5) raises MeshError."""
    try:
        tri = np.asarray(doc["triangles"], dtype=np.int64)
        if tri.ndim != 2 or tri.shape[1] != 4:
            raise MeshError("a triangle row must be 3 vertex indices and a refinement edge")
        if (set(map(type, itertools.chain.from_iterable(doc["triangles"]))) & {bool, np.bool_}
                or not np.array_equal(np.asarray(doc["triangles"], dtype=float), tri)):
            raise MeshError("a triangle entry must be an integer")
        boundary = [(*seg["segment"], seg["tag"]) for seg in doc["boundary"]]
        return build_mesh(doc["vertices"], tri[:, :3], boundary, refedge=tri[:, 3])
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise MeshError(f"malformed mesh: {type(exc).__name__}: {exc}") from exc


def save_mesh(mesh, path):
    with open(path, "w") as fh:
        json.dump(mesh_to_dict(mesh), fh)


def load_mesh(path) -> Triangulation:
    """Mesh from a ``save_mesh`` file; an unreadable file raises MeshError."""
    try:
        with open(path) as fh:
            return mesh_from_dict(json.load(fh))
    except (OSError, ValueError) as exc:
        raise MeshError(f"cannot read mesh file {path}: {exc}") from exc


def mesh_hash(mesh) -> str:
    payload = json.dumps(mesh_to_dict(mesh), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()

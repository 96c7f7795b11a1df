import json
import os
import time

import numpy as np
import pytest

from oracles import (apply_split_recursive, edge_ancestor_map_geometric,
                     edge_table_unique_rows, matching_neighbor_violations, min_angle,
                     refine_nvb_recursive, similarity_classes)
from plate_afem import mesh as msh
from plate_afem.mesh import BoundaryPart, MeshError

HERE = os.path.dirname(os.path.abspath(__file__))


class TestBuild:
    def test_square_counts_and_euler(self):
        m = msh.preset_mesh("square", "clamped")
        assert (m.num_vertices, m.num_triangles, m.num_edges) == (4, 2, 5)
        assert m.euler_identities() == (0, 0)
        assert np.all(m.edge_tags[m.boundary_edges()] == BoundaryPart.CLAMPED)

    def test_reference_triangle(self):
        m = msh.preset_mesh("triangle", "free")
        assert m.num_triangles == 1
        assert m.num_edges == 3
        assert m.h_t[0] == pytest.approx(np.sqrt(0.5), abs=1e-15)

    def test_lshape_boundary(self):
        m = msh.preset_mesh("lshape", "clamped")
        assert m.num_triangles == 6
        assert len(m.boundary_edges()) == 8
        assert m.euler_identities() == (0, 0)

    def test_degenerate_triangle_rejected(self):
        v = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        with pytest.raises(MeshError):
            msh.build_mesh(v, [(0, 1, 2)], [(0, 1, "free"), (1, 2, "free"), (2, 0, "free")])

    def test_clockwise_triangle_rejected(self):
        v = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        with pytest.raises(MeshError):
            msh.build_mesh(v, [(0, 2, 1)], [(0, 1, "free"), (1, 2, "free"), (2, 0, "free")])

    def test_unused_vertex_rejected_with_message(self):
        v = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        with pytest.raises(MeshError, match="^mesh contains a vertex not used by any triangle$"):
            msh.Triangulation(v, [(0, 1, 2)])

    @pytest.mark.parametrize("fourth,second", [((1.0, 1.0), (1, 2, 3)),    # clockwise
                                               ((0.5, 0.5), (1, 3, 2))])   # zero area
    def test_bad_orientation_names_the_triangle(self, fourth, second):
        v = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), fourth]
        with pytest.raises(MeshError,
                           match="^triangle 1 is degenerate or not counterclockwise$"):
            msh.Triangulation(v, [(0, 1, 2), second])

    def test_nonconforming_rejected(self):
        # three triangles sharing one edge
        v = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, -1.0), (1.0, 1.0)]
        t = [(0, 1, 2), (0, 3, 1), (0, 1, 4)]
        with pytest.raises(MeshError):
            msh.build_mesh(v, t, [])

    def test_unlabelled_boundary_edge_rejected(self):
        v = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        with pytest.raises(MeshError, match="edge 1 not covered"):
            msh.build_mesh(v, [(0, 1, 2)], [(0, 1, "free")])

    def test_straddling_segment_rejected(self):
        # one labelled segment spanning two parts over the same edge
        v = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        segs = [(0, 1, "free"), (0, 1, "clamped"), (1, 2, "free"), (2, 0, "free")]
        with pytest.raises(MeshError, match="edge 0 straddles"):
            msh.build_mesh(v, [(0, 1, 2)], segs)

    def test_segments_spanning_several_edges_tag_them(self):
        # two segments over the square's four boundary edges plus one
        # through the interior diagonal, which no boundary edge lies in
        v = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.0), (1.0, 0.5)]
        t = [(0, 4, 3), (4, 1, 5), (4, 5, 3), (5, 2, 3)]
        segs = [(0, 2, "clamped"), (0, 1, "free"), (1, 2, "free"),
                (2, 3, "simply_supported"), (3, 0, "simply_supported")]
        m = msh.build_mesh(v, t, segs)
        tags = {tuple(m.edges[f]): BoundaryPart(m.edge_tags[f]).label
                for f in m.boundary_edges()}
        assert sorted(tags.values()) == ["free"] * 4 + ["simply_supported"] * 2
        with pytest.raises(MeshError, match="not covered"):
            msh.build_mesh(v, t, segs[:1] + segs[2:])

    def test_empty_mesh_rejected(self):
        with pytest.raises(MeshError):
            msh.build_mesh(np.zeros((0, 2)), np.zeros((0, 3), dtype=int), [])

    @pytest.mark.parametrize("bad", [lambda T: np.full(T, -1), lambda T: np.full(T, 3),
                                     lambda T: np.zeros(T + 1, dtype=int),
                                     lambda T: np.zeros((T, 1), dtype=int)])
    def test_refedge_outside_0_to_2_or_misshapen_rejected(self, bad):
        # -1 would otherwise be read as local edge 2 by negative indexing
        m = msh.uniform_refine(msh.uniform_refine(msh.preset_mesh("square", "clamped")))
        boundary = [(*m.edges[f], BoundaryPart(m.edge_tags[f]).label)
                    for f in m.boundary_edges()]
        with pytest.raises(MeshError, match="refedge"):
            msh.build_mesh(m.vertices, m.triangles, boundary,
                           refedge=bad(m.num_triangles))
        with pytest.raises(MeshError, match="refedge"):
            msh.Triangulation(m.vertices, m.triangles, bad(m.num_triangles))
        kept = msh.build_mesh(m.vertices, m.triangles, boundary, refedge=m.refedge)
        assert msh.mesh_hash(kept) == msh.mesh_hash(m)

    def test_boundary_labels_are_the_lower_case_names(self):
        assert [p.label for p in BoundaryPart] == [
            "interior", "clamped", "simply_supported", "free"]
        for p in BoundaryPart:
            assert BoundaryPart.from_label(p.label) is p
        for label in ("Clamped", "FREE", "simply supported", "", 1, None, ["free"]):
            with pytest.raises(MeshError, match="unknown boundary tag"):
                BoundaryPart.from_label(label)

    def test_longest_edge_ties_go_to_smallest_global_edge(self):
        # equilateral up to rounding: the height is sqrt(3)/2 rounded up, so
        # all three computed side lengths are exactly 1.0; edge (0, 1) has
        # global index 0
        v = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.8660254037844387)]
        segs = [(0, 1, "free"), (1, 2, "free"), (2, 0, "free")]
        for tri, local in (((0, 1, 2), 2), ((1, 2, 0), 1), ((2, 0, 1), 0)):
            m = msh.build_mesh(v, [tri], segs)
            assert np.all(m.edge_lengths == 1.0)
            assert m.tri_edges[0, m.refedge[0]] == 0
            assert m.refedge[0] == local

    def test_preset_refedge_and_hash_pinned(self):
        pins = {("square", "clamped"): ([1, 2], "abdbbd32659dae30"),
                ("lshape", "mixed"): ([1, 2, 1, 2, 1, 2], "7db82c45527bc5d1"),
                ("triangle", "free"): ([0], "c3d0aee5c96dff5f")}
        for (geom, bc), (refedge, digest) in pins.items():
            m = msh.preset_mesh(geom, bc)
            assert m.refedge.tolist() == refedge
            assert msh.mesh_hash(m).startswith(digest)

    def test_mixed_presets(self):
        for geom in ("square", "lshape"):
            m = msh.preset_mesh(geom, "mixed")
            tags = set(int(t) for t in m.edge_tags[m.boundary_edges()])
            assert {int(BoundaryPart.CLAMPED), int(BoundaryPart.SIMPLY_SUPPORTED),
                    int(BoundaryPart.FREE)} == tags

    def test_every_preset_matches_golden_record(self):
        # keys are "geometry|bc", a per-segment bc list joined by ","
        with open(os.path.join(HERE, "golden", "preset_meshes.json")) as fh:
            gold = json.load(fh)
        assert len(gold) == 14
        for key, digest in gold.items():
            geom, bc = key.split("|")
            labels = bc.split(",")
            m = msh.preset_mesh(geom, labels if len(labels) > 1 else bc)
            assert msh.mesh_hash(m) == digest, key

    @pytest.mark.parametrize("geom,bc,message", [
        ("disk", "clamped", "^unknown geometry preset 'disk'$"),
        ("triangle", "mixed", "^no mixed preset for geometry 'triangle'$"),
        ("square", ["free"] * 3, "^expected 4 boundary labels, got 3$"),
        ("lshape", ["free"] * 4, "^expected 6 boundary labels, got 4$")])
    def test_preset_errors_name_the_input(self, geom, bc, message):
        with pytest.raises(MeshError, match=message):
            msh.preset_mesh(geom, bc)


class TestNormalsAndIncidence:
    def test_boundary_normals_point_outward(self):
        for m in (msh.preset_mesh("square", "free"), msh.preset_mesh("lshape", "free")):
            for f in m.boundary_edges():
                t = m.edge_tris[f, 0]
                out = m.edge_midpoints[f] - m.centroids[t]
                assert m.edge_normals[f] @ out > 0

    def test_interior_normal_from_lower_triangle(self):
        m = msh.preset_mesh("square", "clamped")
        f = np.nonzero(m.interior_edge_mask)[0][0]
        t_plus = m.edge_tris[f, 0]
        assert t_plus == min(m.edge_tris[f])
        out = m.edge_midpoints[f] - m.centroids[t_plus]
        assert m.edge_normals[f] @ out > 0

    def test_tangent_is_rotated_normal(self):
        m = msh.preset_mesh("lshape", "mixed")
        nu, tau = m.edge_normals, m.edge_tangents
        rot = np.stack([-nu[:, 1], nu[:, 0]], axis=1)
        assert np.allclose(tau, rot, atol=1e-15)

    def test_incidence_queries(self):
        m = msh.preset_mesh("square", "clamped")
        assert m.interior_edge_mask.sum() == 1
        assert len(m.edges_with_tag(BoundaryPart.CLAMPED)) == 4
        diag = np.nonzero(m.interior_edge_mask)[0][0]
        assert sorted(m.edge_tris[diag]) == [0, 1]
        assert set(m.tri_edges[0]).union(m.tri_edges[1]) == set(range(5))

    def test_free_corner_vertices(self):
        m = msh.preset_mesh("square", "free")
        # every vertex joins two free edges on the all-free square
        assert len(m.free_corner_vertices()) == 4
        m = msh.preset_mesh("square", "mixed")
        # single free segment: no vertex joins two free edges
        assert len(m.free_corner_vertices()) == 0


def _meshes_of_each_kind():
    presets = [msh.preset_mesh(g, bc) for g, bc in
               (("square", "clamped"), ("lshape", "mixed"), ("triangle", "free"))]
    uniform = msh.uniform_refine(msh.uniform_refine(presets[1]))
    nvb = presets[1]
    for _ in range(4):
        nvb = msh.refine_nvb(nvb, np.arange(0, nvb.num_triangles, 3))
    return presets + [uniform, nvb]


class TestEdgeDataOnRead:
    """h_T, normals, midpoints and the boundary/interior masks are computed
    from the stored areas, tangents, endpoints and adjacency on every read,
    bit for bit the expressions below, and no mesh keeps them."""

    NAMES = ("h_t", "edge_normals", "edge_midpoints", "boundary_edge_mask",
             "interior_edge_mask")

    @pytest.mark.parametrize("m", _meshes_of_each_kind(),
                             ids=["square", "lshape", "triangle", "uniform2", "nvb4"])
    def test_not_stored_and_bitwise_their_formula(self, m):
        assert not set(self.NAMES) & set(vars(m))
        tau, v, e = m.edge_tangents, m.vertices, m.edges
        want = {"h_t": np.sqrt(m.areas),
                "edge_normals": np.stack([tau[:, 1], -tau[:, 0]], axis=1),
                "edge_midpoints": 0.5 * (v[e[:, 0]] + v[e[:, 1]]),
                "boundary_edge_mask": m.edge_tris[:, 1] == -1,
                "interior_edge_mask": m.edge_tris[:, 1] >= 0}
        for name, w in want.items():
            got = getattr(m, name)
            assert got.dtype == w.dtype and got.shape == w.shape, name
            assert got.tobytes() == w.tobytes(), name

    def test_read_only(self):
        m = msh.preset_mesh("square", "clamped")
        for name in self.NAMES:
            with pytest.raises(AttributeError):
                setattr(m, name, getattr(m, name))


class TestRefine:
    def test_empty_marking_returns_same_object(self):
        m = msh.preset_mesh("square", "clamped")
        assert msh.refine_nvb(m, []) is m

    def test_single_triangle_bisection(self):
        m = msh.preset_mesh("triangle", "free")
        r = msh.refine_nvb(m, [0])
        assert r.num_triangles == 2
        assert r.num_vertices == 4
        mid = r.vertices[3]
        # children share the new vertex at the refinement-edge midpoint
        ref = m.tri_edges[0, m.refedge[0]]
        assert np.allclose(mid, m.edge_midpoints[ref])
        assert np.all((r.triangles == 3).sum(axis=1) == 1)

    def test_closure_bisects_neighbor(self):
        m = msh.preset_mesh("square", "clamped")
        r = msh.refine_nvb(m, [0])
        assert r.num_triangles == 4
        assert r.euler_identities() == (0, 0)

    def test_uniform_square_eight_children(self):
        m = msh.preset_mesh("square", "clamped")
        u = msh.uniform_refine(m)
        assert u.num_triangles == 8
        counts = np.bincount(u.parent)
        assert np.all(counts >= 2)

    def test_parent_area_sum(self):
        m = msh.preset_mesh("lshape", "mixed")
        u = msh.uniform_refine(msh.uniform_refine(m))
        mid = u.coarse
        sums = np.bincount(u.parent, weights=u.areas, minlength=mid.num_triangles)
        assert np.all(np.abs(sums - mid.areas) <= 1e-14 * mid.areas)

    def test_conformity_after_random_markings(self):
        rng = np.random.default_rng(3)
        m = msh.preset_mesh("lshape", "mixed")
        for _ in range(6):
            marked = rng.choice(m.num_triangles,
                                size=max(1, m.num_triangles // 3), replace=False)
            m = msh.refine_nvb(m, marked)
            assert m.euler_identities() == (0, 0)
            two = m.edge_tris[:, 1] >= 0
            assert np.all(two == ~m.boundary_edge_mask)

    def test_marked_triangles_are_bisected(self):
        rng = np.random.default_rng(5)
        m = msh.preset_mesh("square", "clamped")
        for _ in range(4):
            marked = rng.choice(m.num_triangles,
                                size=max(1, m.num_triangles // 4), replace=False)
            r = msh.refine_nvb(m, marked)
            counts = np.bincount(r.parent, minlength=m.num_triangles)
            assert np.all(counts[marked] >= 2)
            m = r

    def test_closure_splits_both_parents(self):
        m = msh.preset_mesh("square", "clamped")
        r = msh.refine_nvb(m, [0])
        assert set(np.nonzero(np.bincount(r.parent) > 1)[0]) == {0, 1}

    def test_boundary_tags_inherited(self):
        m = msh.preset_mesh("square", "mixed")
        u = msh.uniform_refine(m)
        for f in u.boundary_edges():
            midpoint = u.edge_midpoints[f]
            # bottom y=0 clamped, right x=1 simply supported, top free, left ss
            if np.isclose(midpoint[1], 0):
                assert u.edge_tags[f] == BoundaryPart.CLAMPED
            elif np.isclose(midpoint[0], 1):
                assert u.edge_tags[f] == BoundaryPart.SIMPLY_SUPPORTED
            elif np.isclose(midpoint[1], 1):
                assert u.edge_tags[f] == BoundaryPart.FREE
            else:
                assert u.edge_tags[f] == BoundaryPart.SIMPLY_SUPPORTED


class TestShapeRegularity:
    def test_min_angle_stable_over_uniform_refinement(self):
        m0 = msh.preset_mesh("square", "clamped")
        m = m0
        base = min_angle(m0)
        for _ in range(5):
            m = msh.uniform_refine(m)
            assert min_angle(m) >= base - 1e-12

    def test_similarity_classes_bounded(self):
        rng = np.random.default_rng(11)
        m = msh.preset_mesh("square", "clamped")
        classes_round2 = None
        for k in range(10):
            marked = rng.choice(m.num_triangles,
                                size=max(1, m.num_triangles // 3), replace=False)
            m = msh.refine_nvb(m, marked)
            if k == 1:
                classes_round2 = len(similarity_classes(m))
        assert len(similarity_classes(m)) <= 4 * classes_round2

    def test_matching_condition_on_presets(self):
        for preset in (msh.preset_mesh("square", "clamped"), msh.preset_mesh("lshape", "mixed")):
            assert len(matching_neighbor_violations(preset)) == 0
            u = msh.uniform_refine(preset)
            assert len(matching_neighbor_violations(u)) == 0


class TestAncestry:
    def test_ancestor_map_composition(self):
        m = msh.preset_mesh("square", "clamped")
        u1 = msh.uniform_refine(m)
        u2 = msh.refine_nvb(u1, [0, 3])
        amap = msh.ancestor_map(u2, m)
        # centroids of descendants must lie inside their ancestor
        for t in range(u2.num_triangles):
            anc = amap[t]
            c = u2.centroids[t]
            P = m.vertices[m.triangles[anc]]
            A = np.vstack([np.ones(3), P.T])
            lam = np.linalg.solve(A, np.array([1.0, c[0], c[1]]))
            assert lam.min() > -1e-12

    def test_ancestor_map_rejects_unrelated(self):
        m1 = msh.preset_mesh("square", "clamped")
        m2 = msh.preset_mesh("lshape", "clamped")
        with pytest.raises(MeshError):
            msh.ancestor_map(m2, m1)


def _chains(geom):
    # (fine, coarse) pairs along a uniform and a random bisection chain,
    # one step and several steps apart
    bc = ["clamped", "simply_supported", "free"] if geom == "triangle" else "mixed"
    root = msh.preset_mesh(geom, bc)
    rng = np.random.default_rng(["square", "lshape", "triangle"].index(geom))
    uniform = [root]
    for _ in range(3):
        uniform.append(msh.uniform_refine(uniform[-1]))
    nvb = [msh.uniform_refine(root)]
    for _ in range(4):
        m = nvb[-1]
        size = max(1, int(m.num_triangles * rng.uniform(0.1, 0.4)))
        nvb.append(msh.refine_nvb(m, rng.choice(m.num_triangles, size=size,
                                                 replace=False)))
    pairs = []
    for chain in (uniform, nvb):
        pairs += [(chain[k + 1], chain[k]) for k in range(len(chain) - 1)]
        pairs += [(chain[-1], chain[0]), (chain[-1], chain[-1])]
    return pairs + [(nvb[-1], root)]


class TestEdgeAncestorMap:
    @pytest.mark.parametrize("geom", ["square", "lshape", "triangle"])
    def test_matches_geometric_search(self, geom):
        for fine, coarse in _chains(geom):
            got = msh.edge_ancestor_map(fine, coarse)
            want = edge_ancestor_map_geometric(fine, coarse)
            assert got.dtype == np.int64
            assert np.array_equal(got, want)

    def test_rejects_a_mesh_that_is_not_a_refinement(self):
        square = msh.preset_mesh("square", "mixed")
        fine = msh.uniform_refine(square)
        for f, c in ((msh.preset_mesh("lshape", "clamped"), square),
                     # same geometry, outside the refinement chain
                     (fine, msh.preset_mesh("square", "mixed")),
                     (square, fine)):
            with pytest.raises(MeshError, match="not a refinement"):
                msh.edge_ancestor_map(f, c)


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        m = msh.uniform_refine(msh.preset_mesh("lshape", "mixed"))
        path = tmp_path / "mesh.json"
        msh.save_mesh(m, path)
        m2 = msh.load_mesh(path)
        assert np.array_equal(m2.vertices, m.vertices)
        assert np.array_equal(m2.triangles, m.triangles)
        assert np.array_equal(m2.refedge, m.refedge)
        assert np.array_equal(m2.edge_tags, m.edge_tags)
        assert msh.mesh_hash(m2) == msh.mesh_hash(m)
        assert msh.mesh_hash(m).startswith("4fc328215a47a9ec")

    def test_json_schema(self, tmp_path):
        m = msh.preset_mesh("square", "clamped")
        path = tmp_path / "mesh.json"
        msh.save_mesh(m, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"vertices", "triangles", "boundary"}
        assert all(len(row) == 4 for row in doc["triangles"])
        assert all(set(seg) == {"segment", "tag"} for seg in doc["boundary"])

    def test_round_trip_of_1024_boundary_edges_loads_fast(self, tmp_path):
        # boundary matching is one array pass, not a loop over every
        # boundary edge and every labelled segment: building the labelled
        # mesh costs a small multiple of building the bare triangulation
        # from the same decoded arrays: about 2x, and 40x or more with a
        # Python loop over edges and segments
        m = msh.preset_mesh("lshape", "mixed")
        for _ in range(7):
            m = msh.uniform_refine(m)
        assert len(m.boundary_edges()) == 1024
        path = tmp_path / "mesh.json"
        msh.save_mesh(m, path)
        assert msh.mesh_hash(msh.load_mesh(path)) == msh.mesh_hash(m)
        doc = json.loads(path.read_text())
        tri = np.asarray(doc["triangles"], dtype=np.int64)
        vertices = np.asarray(doc["vertices"], dtype=float)

        def best_of_3(build):
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                build()
                times.append(time.perf_counter() - t0)
            return min(times)

        labelled = best_of_3(lambda: msh.mesh_from_dict(doc))
        bare = best_of_3(lambda: msh.Triangulation(vertices, tri[:, :3], tri[:, 3]))
        assert labelled <= 8.0 * bare

    @pytest.mark.parametrize("text", [
        None, "{not json", "[]", '{"a": 1}',
        '{"vertices": [[0, 0], [1, 0], [0, 1]], "triangles": [[0, 1, 2]], "boundary": []}',
        '{"vertices": [[0, 0], [1, 0], [0, 1]], "triangles": [[0, 1, 2, 5]], "boundary": '
        '[{"segment": [0, 1], "tag": "clamped"}, {"segment": [1, 2], "tag": "clamped"}, '
        '{"segment": [2, 0], "tag": "clamped"}]}',
        '{"vertices": [[0, 0], [1, 0], [0, 1]], "triangles": [[0, 1, 2, 0]], '
        '"boundary": [{"segment": [0], "tag": "clamped"}]}'])
    def test_unreadable_mesh_file_raises_mesh_error(self, text, tmp_path):
        # a missing file, not JSON, not a mesh, rows without a refinement
        # edge or with one out of range, a segment with one end
        path = tmp_path / "mesh.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(MeshError):
            msh.load_mesh(path)

    @pytest.mark.parametrize("slot,value", [(1, 1.9), (3, 1.5), (3, True), (0, False)])
    def test_non_integral_or_boolean_triangle_entry_raises(self, slot, value):
        # an int64 cast would load [0, 1.9, 2, 1] as [0, 1, 2, 1] and a
        # refinement edge of 1.5 as 1
        doc = msh.mesh_to_dict(msh.uniform_refine(msh.preset_mesh("square", "clamped")))
        doc["triangles"][2][slot] = value
        with pytest.raises(MeshError, match="must be an integer"):
            msh.mesh_from_dict(doc)

    def test_integral_triangle_entries_load_as_before(self):
        m = msh.uniform_refine(msh.preset_mesh("square", "clamped"))
        doc = msh.mesh_to_dict(m)
        doc["triangles"] = [[float(v) for v in row] for row in doc["triangles"]]
        assert msh.mesh_hash(msh.mesh_from_dict(doc)) == msh.mesh_hash(m)

    def test_hash_stable_and_sensitive(self):
        m = msh.preset_mesh("square", "clamped")
        assert msh.mesh_hash(m) == msh.mesh_hash(msh.preset_mesh("square", "clamped"))
        assert msh.mesh_hash(m) != msh.mesh_hash(msh.preset_mesh("square", "free"))


class TestBisectionAccounting:
    def test_triangle_vertex_accounting(self):
        # each split edge contributes one new vertex and one extra triangle
        # per adjacent triangle
        rng = np.random.default_rng(17)
        m = msh.preset_mesh("lshape", "mixed")
        for _ in range(5):
            marked = rng.choice(m.num_triangles,
                                size=max(1, m.num_triangles // 3), replace=False)
            r = msh.refine_nvb(m, marked)
            new_vertices = r.num_vertices - m.num_vertices
            emap = msh.edge_ancestor_map(r, m)
            # a split edge is the coarse edge with two fine sub-edges
            split_edge_ids = np.nonzero(
                np.bincount(emap[emap >= 0], minlength=m.num_edges) == 2)[0]
            assert len(split_edge_ids) == new_vertices
            boundary_splits = int(np.sum(m.boundary_edge_mask[split_edge_ids]))
            assert r.num_triangles == (m.num_triangles + 2 * new_vertices
                                       - boundary_splits)
            m = r


_ORACLE_FIELDS = ("vertices", "triangles", "refedge", "parent",
                  "edges", "edge_tags", "tri_edges", "edge_tris")
_ORACLE_CASES = [(geom, bc) for geom in ("square", "lshape", "triangle")
                 for bc in ("clamped", "free", "mixed")]


def _preset(geom, bc):
    if geom == "triangle" and bc == "mixed":
        bc = ["clamped", "simply_supported", "free"]
    return msh.preset_mesh(geom, bc)


def _assert_same_mesh(got, want):
    for name in _ORACLE_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name
    assert got.coarse is want.coarse
    assert msh.mesh_hash(got) == msh.mesh_hash(want)


class TestRefinementOracle:
    @pytest.mark.parametrize("geom,bc", _ORACLE_CASES)
    def test_random_markings_match_recursion(self, geom, bc):
        rng = np.random.default_rng(_ORACLE_CASES.index((geom, bc)))
        m = _preset(geom, bc)
        for _ in range(7):
            size = max(1, int(m.num_triangles * rng.uniform(0.05, 0.5)))
            marked = rng.choice(m.num_triangles, size=size, replace=False)
            r = msh.refine_nvb(m, marked)
            _assert_same_mesh(r, refine_nvb_recursive(m, marked))
            m = r

    @pytest.mark.parametrize("geom,bc", _ORACLE_CASES)
    def test_uniform_refinement_matches_recursion(self, geom, bc):
        m = msh.refine_nvb(_preset(geom, bc), [0])
        for _ in range(3):
            u = msh.uniform_refine(m)
            _assert_same_mesh(u, refine_nvb_recursive(m))
            m = u

    def test_edge_table_matches_row_unique(self):
        m = msh.preset_mesh("lshape", "mixed")
        rng = np.random.default_rng(23)
        for _ in range(5):
            m = msh.refine_nvb(m, rng.choice(m.num_triangles, size=m.num_triangles // 3,
                                             replace=False))
            edges, tri_edges, edge_tris = edge_table_unique_rows(m.triangles)
            assert np.array_equal(m.edges, edges)
            assert np.array_equal(m.tri_edges, tri_edges)
            assert np.array_equal(m.edge_tris, edge_tris)

    def test_out_of_range_mark_rejected_by_both(self):
        m = msh.preset_mesh("square", "clamped")
        for refine in (msh.refine_nvb, refine_nvb_recursive):
            with pytest.raises(MeshError, match="out of range"):
                refine(m, [2])

    def test_unclosed_split_set_rejected_by_both(self):
        m = msh.refine_nvb(msh.preset_mesh("lshape", "mixed"), [0])
        ref = m.tri_edges[np.arange(m.num_triangles), m.refedge]
        # an interior edge that is the refinement edge of one neighbour only
        # leaves a hanging node; a boundary edge that is nobody's refinement
        # edge leaves an unused midpoint
        lone = [f for f in np.nonzero(m.interior_edge_mask)[0] if np.sum(ref == f) == 1]
        unused = [f for f in m.boundary_edges() if f not in ref]
        assert lone and unused
        for f in (lone[0], unused[0]):
            split = np.zeros(m.num_edges, dtype=bool)
            split[f] = True
            for apply in (msh._apply_split, apply_split_recursive):
                with pytest.raises(MeshError):
                    apply(m, split.copy())

    def test_boundary_edge_without_parent_rejected(self):
        square = msh.preset_mesh("square", "clamped")
        v = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.0)]
        segs = [(0, 1, "clamped"), (1, 2, "clamped"), (2, 3, "clamped"),
                (3, 0, "clamped")]
        # halves of split edges point at the edges of the other diagonal
        other_diagonal = msh.build_mesh(v[:4], [(0, 1, 3), (1, 2, 3)], segs)
        # the surviving side (0, 1) is split at vertex 4 in the other mesh
        split_side = msh.build_mesh(v, [(0, 4, 3), (4, 1, 2), (4, 2, 3)], segs)
        # the split ids that _apply_split holds for each refinement of square
        diagonal = square.tri_edges[0, square.refedge[0]]
        for coarse, fine, split_ids in (
                (other_diagonal, msh.uniform_refine(square), np.arange(square.num_edges)),
                (split_side, msh.refine_nvb(square, [0]), np.array([diagonal]))):
            with pytest.raises(MeshError, match="no parent edge"):
                msh._inherited_tags(coarse, fine, split_ids)

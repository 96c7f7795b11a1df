import numpy as np
import pytest

from plate_afem.space import _RULE_POINTS, _RULE_WEIGHTS, _rule_offsets

from oracles import _selftest, triangle_rule


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 5, 6, 8, 10, 12])
def test_monomial_exactness(degree):
    """Rules pass the barycentric monomial self-test at build time."""
    rule = triangle_rule(degree)
    assert rule.degree >= degree
    assert abs(rule.weights.sum() - 1.0) < 5e-13


def test_library_rule_is_the_seven_point_rule():
    # rebuilt from its constants: the centroid with weight 9/40, then the
    # orbits of a = (6 -+ sqrt 15)/21 with weights (155 -+ sqrt 15)/1200
    r = np.sqrt(15.0)
    pts, wts = [[1.0 / 3.0] * 3], [9.0 / 40.0]
    for a, w in (((6.0 - r) / 21.0, (155.0 - r) / 1200.0),
                 ((6.0 + r) / 21.0, (155.0 + r) / 1200.0)):
        b = 1.0 - 2.0 * a
        pts += [[b, a, a], [a, b, a], [a, a, b]]
        wts += [w] * 3
    assert _RULE_POINTS.tobytes() == np.array(pts).tobytes()
    assert _RULE_WEIGHTS.tobytes() == np.array(wts).tobytes()
    assert _RULE_POINTS.shape == (7, 3) and _RULE_WEIGHTS.shape == (7,)
    assert not (_RULE_POINTS.flags.writeable or _RULE_WEIGHTS.flags.writeable)
    # exact to degree 5, the products of two quadratics, and to no higher degree
    _selftest(_RULE_POINTS, _RULE_WEIGHTS, 5)
    with pytest.raises(AssertionError, match="self-test failed"):
        _selftest(_RULE_POINTS, _RULE_WEIGHTS, 6)


def test_weights_positive_smallest_rules():
    for degree in (2, 5):
        assert np.all(triangle_rule(degree).weights > 0)


def test_integrates_polynomial_on_physical_triangle():
    # int over conv{(0,0),(2,0),(0,1)} of x*y = 1/6 (area = 1)
    rule = triangle_rule(4)
    coords = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    pts = np.einsum("qi,id->qd", rule.points, coords)
    vals = pts[:, 0] * pts[:, 1]
    area = 1.0
    assert abs(area * np.dot(rule.weights, vals) - 1.0 / 6.0) < 1e-14


def test_degree_request_validation():
    with pytest.raises(ValueError):
        triangle_rule(-1)


@pytest.mark.parametrize("degree", [4, 8])
def test_physical_points_match_the_inline_map(degree):
    # assembly and the estimator take the library rule's points from
    # _rule_offsets, on all triangles or on a subset of rows; the oracles map
    # the rule of each degree per triangle. Both give the same bytes.
    from plate_afem import mesh as msh

    m = msh.refine_nvb(msh.uniform_refine(msh.preset_mesh("lshape", "mixed")), [0, 5])
    rule = triangle_rule(degree)
    coords = m.vertices[m.triangles]
    want = np.einsum("qi,tid->tqd", rule.points, coords) - m.centroids[:, None, :]
    batched = np.einsum("qi,...id->...qd", rule.points, coords) - m.centroids[:, None]
    assert batched.tobytes() == want.tobytes()
    if rule.points is _RULE_POINTS:
        assert _rule_offsets(m).tobytes() == want.tobytes()
        rows = np.array([3, 4, 9])
        assert _rule_offsets(m, rows).tobytes() == want[rows].tobytes()
        assert _rule_offsets(m, slice(3, 5)).tobytes() == want[3:5].tobytes()

import numpy as np
import pytest

from plate_afem.quadrature import SEVEN_POINT, physical_points

from oracles import triangle_rule


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
    assert SEVEN_POINT.points.tobytes() == np.array(pts).tobytes()
    assert SEVEN_POINT.weights.tobytes() == np.array(wts).tobytes()
    assert SEVEN_POINT.points.shape == (7, 3) and SEVEN_POINT.weights.shape == (7,)


def test_weights_positive_smallest_rules():
    for degree in (2, 5):
        assert np.all(triangle_rule(degree).weights > 0)


def test_integrates_polynomial_on_physical_triangle():
    # int over conv{(0,0),(2,0),(0,1)} of x*y = 1/6 (area = 1)
    rule = triangle_rule(4)
    coords = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    pts = physical_points(rule, coords[None])
    vals = pts[0, :, 0] * pts[0, :, 1]
    area = 1.0
    assert abs(area * np.dot(rule.weights, vals) - 1.0 / 6.0) < 1e-14


def test_degree_request_validation():
    with pytest.raises(ValueError):
        triangle_rule(-1)


@pytest.mark.parametrize("degree", [4, 8])
def test_physical_points_match_the_inline_map(degree):
    # assembly and the estimator map their rule points through this helper;
    # it must give the bytes of the map they used to write out inline
    from plate_afem import mesh as msh

    m = msh.refine_nvb(msh.uniform_refine(msh.preset_mesh("lshape", "mixed")), [0, 5])
    rule = triangle_rule(degree)
    coords = m.vertices[m.triangles]
    want = np.einsum("qi,tid->tqd", rule.points, coords)
    assert physical_points(rule, coords).tobytes() == want.tobytes()
    assert physical_points(rule, coords[3:5]).tobytes() == want[3:5].tobytes()

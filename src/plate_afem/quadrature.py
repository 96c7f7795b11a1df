"""The symmetric 7-point quadrature rule on triangles, exact to degree 5.

The rule is stored in barycentric coordinates with weights normalised to sum
to one, so that ``meas(T) * sum(w_q * f(x_q))`` approximates ``int_T f``.
Degree 5 covers the products of two quadratics that the mass matrix and the
estimator's volume residual integrate.  The rule is checked against the
exact means of the barycentric monomials when the module loads.
"""

from math import factorial, sqrt
from types import SimpleNamespace

import numpy as np

__all__ = ["SEVEN_POINT", "physical_points"]


def _monomial_mean(a, b, c):
    # mean over a triangle of lam1^a lam2^b lam3^c
    return 2.0 * factorial(a) * factorial(b) * factorial(c) / factorial(a + b + c + 2)


def _selftest(points, weights, degree, tol=5e-13):
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            c_exp_max = degree - a - b
            for c in range(c_exp_max + 1):
                val = np.sum(weights * points[:, 0] ** a * points[:, 1] ** b * points[:, 2] ** c)
                ref = _monomial_mean(a, b, c)
                if abs(val - ref) > tol * max(1.0, abs(ref)):
                    raise AssertionError(
                        f"quadrature self-test failed for monomial ({a},{b},{c}): "
                        f"{val} vs {ref}"
                    )


def _seven_point_rule():
    a1 = (6.0 - sqrt(15.0)) / 21.0
    a2 = (6.0 + sqrt(15.0)) / 21.0
    w1 = (155.0 - sqrt(15.0)) / 1200.0
    w2 = (155.0 + sqrt(15.0)) / 1200.0
    pts = [[1.0 / 3.0] * 3]
    wts = [9.0 / 40.0]
    for a, w in ((a1, w1), (a2, w2)):
        for perm in ((1 - 2 * a, a, a), (a, 1 - 2 * a, a), (a, a, 1 - 2 * a)):
            pts.append(list(perm))
            wts.append(w)
    pts, wts = np.array(pts), np.array(wts)
    _selftest(pts, wts, 5)
    pts.setflags(write=False)
    wts.setflags(write=False)
    return SimpleNamespace(points=pts, weights=wts)


SEVEN_POINT = _seven_point_rule()


def physical_points(rule, tri_coords: np.ndarray) -> np.ndarray:
    """Map the barycentric ``rule.points`` to triangles given as (..., 3, 2) arrays."""
    return np.einsum("qi,...id->...qd", rule.points, tri_coords)

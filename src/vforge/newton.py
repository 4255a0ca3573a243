"""Lower Newton polygons with exact rational data.

The polygon of f at p is the lower convex hull of the points
(j, v_p(c_j)) over the nonzero coefficients of f.  Negated face slopes,
counted with horizontal length, give the p-adic valuations of the nonzero
roots of f; the order of vanishing at 0 is dropped before building the
hull so the slope lengths always sum to deg f minus that order.

``padic_root_values`` reads the root values of a polynomial over Q off the
points (j, v_p(num_j)) of its int numerators: the common denominator shifts
every point alike and moves no slope.  ``root_values`` does the same from
per-coefficient values over a valued number field, such as the values
v(f^[j](a)) of the divided derivatives at a center.  Both list the roots at 0 first, as infinity,
then the polygon's values.  ``largest_root_value`` gives only the largest
of the values ``padic_root_values`` lists, read off the first face.

The same hull is reused by the chain machinery for polygons of key
expansions, so the constructor also accepts an arbitrary point cloud.
"""

from __future__ import annotations

from fractions import Fraction

from .polynomials import Poly, _p_order
from .values import INFINITY, Value


def lower_hull(points):
    """Lower convex hull of (x, y) points with strictly increasing x."""
    hull = []
    for x, y in points:
        while len(hull) >= 2:
            x1, y1 = hull[-2]
            x2, y2 = hull[-1]
            if (y2 - y1) * (x - x1) >= (y - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x, y))
    return hull


class NewtonPolygon:
    """Lower hull vertices plus the multiset of (slope, length) faces.

    Points are (int, int or Fraction) pairs with distinct x.
    """

    def __init__(self, points):
        pts = sorted(points)
        if not pts:
            raise ValueError("polygon needs at least one point")
        self.vertices = lower_hull(pts)

    def slopes(self):
        """Faces as (slope, length), slopes weakly increasing along the hull."""
        out = []
        for (x1, y1), (x2, y2) in zip(self.vertices, self.vertices[1:]):
            out.append((Fraction(y2 - y1, x2 - x1), x2 - x1))
        return out

    def root_valuations(self) -> list[Fraction]:
        """Valuations of the nonzero roots, one entry per root with multiplicity."""
        vals = []
        for slope, length in self.slopes():
            vals.extend([-slope] * length)
        vals.sort()
        return vals

    def __repr__(self):
        return f"NewtonPolygon(vertices={self.vertices})"


def _root_values(pts) -> list[Value]:
    """INFINITY once per root at 0 (per x below the first point's), then
    the values of the nonzero roots from the polygon of pts, ascending."""
    vals = NewtonPolygon(pts).root_valuations()
    return [INFINITY] * pts[0][0] + [Value._exact(v) for v in vals]


def _padic_points(f: Poly, p: int) -> list:
    """The points (j, v_p(num_j)) over the nonzero int numerators of f."""
    return [(j, _p_order(n, p)) for j, n in enumerate(f.num) if n]


def padic_root_values(f: Poly, p: int) -> list[Value]:
    """Values v_p of the roots of the nonzero f over Q, one per root with
    multiplicity: INFINITY once per root at 0, then ascending."""
    return _root_values(_padic_points(f, p))


def largest_root_value(f: Poly, p: int) -> Value:
    """The largest v_p over the roots of f over Q, deg f >= 1: INFINITY when
    0 is a root, else max_j (v_0 - v_j) / j over the nonzero int numerators.

    That is minus the slope of the polygon's first face, from (0, v_0):
    slopes grow along the hull, so its first face carries the largest root
    value, and no hull or per-root list is built.
    """
    num = f.num
    if not num[0]:
        return INFINITY
    v0 = _p_order(num[0], p)
    n, d = None, 1
    for j in range(1, len(num)):
        if num[j]:
            v = v0 - _p_order(num[j], p)
            if n is None or v * d > n * j:
                n, d = v, j
    return Value._exact(Fraction(n, d))


def root_values(values) -> list[Value]:
    """Values of the roots of a polynomial, one per root with multiplicity,
    from the values of its coefficients (index = exponent, infinity for a
    zero coefficient; not all infinite).

    INFINITY once per root at 0 (the leading run of infinite values), then
    the values of the nonzero roots from the lower polygon, ascending.
    """
    return _root_values([(j, v.r) for j, v in enumerate(values) if not v.infinite])

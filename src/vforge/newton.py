"""Lower Newton polygons with exact rational data.

The polygon of f at p is the lower convex hull of the points
(j, v_p(c_j)) over the nonzero coefficients of f.  Negated face slopes,
counted with horizontal length, give the p-adic valuations of the nonzero
roots of f; the order of vanishing at 0 is dropped before building the
hull so the slope lengths always sum to deg f minus that order.

``root_values`` is the one place that turns per-coefficient values, of a
polynomial over Q or over a valued number field such as the Taylor
coefficients of f(a + T), into the root values with multiplicity: the
roots at 0 first, as infinity, then the polygon's values.

The same hull is reused by the chain machinery for polygons of key
expansions, so the constructor also accepts an arbitrary point cloud.
"""

from __future__ import annotations

from fractions import Fraction

from .polynomials import Poly, padic_valuation
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
    """Lower hull vertices plus the multiset of (slope, length) faces."""

    def __init__(self, points):
        pts = sorted((int(x), Fraction(y)) for x, y in points)
        if not pts:
            raise ValueError("polygon needs at least one point")
        self.vertices = lower_hull(pts)

    @classmethod
    def of_poly(cls, f: Poly, p: int) -> "NewtonPolygon":
        f = Poly.of(f)
        if f.is_zero():
            raise ValueError("polygon of the zero polynomial is not defined")
        pts = []
        for j, c in enumerate(f.coeffs):
            if c != 0:
                pts.append((j, padic_valuation(c, p).r))
        return cls(pts)

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


def root_valuations(f: Poly, p: int) -> list[Fraction]:
    """Multiset of v_p over the nonzero roots of f, via the Newton polygon."""
    return NewtonPolygon.of_poly(f, p).root_valuations()


def root_values(values) -> list[Value]:
    """Values of the roots of a polynomial, one per root with multiplicity,
    from the values of its coefficients (index = exponent, infinity for a
    zero coefficient; not all infinite).

    INFINITY once per root at 0 (the leading run of infinite values), then
    the values of the nonzero roots from the lower polygon, ascending.
    """
    order = 0
    while values[order].infinite:
        order += 1
    pts = [(j, v.r) for j, v in enumerate(values) if not v.infinite]
    return [INFINITY] * order + [Value._exact(v) for v in NewtonPolygon(pts).root_valuations()]

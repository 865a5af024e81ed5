"""Reference intersections: every pair of cells is tested on exact rows.

This is how ``finetrop.tropgeo`` found meeting cells before its walker
looked vertices up by their argmin set on integer levels: every cell of
the first curve is tried against every cell of the second, with cell
membership tested on the ``Fraction`` rows ``eqs`` (= 0) and ``ineqs``
(> 0) and transversal edges solved by the row solver of
``curve_oracle``.  ``pair_scan_hits`` yields what ``tropgeo._cell_hits``
yields, in the same order, so it can stand in for the walker.

``oracle_intersect_series`` is the series side of the Fundamental
theorem for two lines: the exact Cramer solution, mapped through the
fine valuation.
"""

from __future__ import annotations

from fractions import Fraction

from finetrop.poly import FPoly
from finetrop.series import hom_fval
from finetrop.solve import solve_linear_2x2
from finetrop.tropgeo import (
    FinePoint,
    Interval,
    _intersect_intervals,
)

from curve_oracle import _row_at, _solve_rows


def contains_by_rows(cell, g) -> bool:
    """Cell membership on the rows: every eq = 0 and every ineq > 0."""
    return (all(_row_at(r, g) == 0 for r in cell.eqs)
            and all(_row_at(r, g) > 0 for r in cell.ineqs))


def _param_of(cell, g) -> Fraction:
    vx, vy = cell.line_v
    if vx != 0:
        return (g[0] - cell.line_p0[0]) / vx
    return (g[1] - cell.line_p0[1]) / vy


def _geom_intersections(c1, c2):
    """Geometric intersections of two cells: points and shared segments."""
    if c1.dim == 0 and c2.dim == 0:
        if c1.point == c2.point:
            yield ("point", c1.point)
        return
    if c1.dim == 0:
        if contains_by_rows(c2, c1.point):
            yield ("point", c1.point)
        return
    if c2.dim == 0:
        if contains_by_rows(c1, c2.point):
            yield ("point", c2.point)
        return
    v1, v2 = c1.line_v, c2.line_v
    det = v1[0] * v2[1] - v1[1] * v2[0]
    if det != 0:
        sol = _solve_rows(list(c1.eqs) + list(c2.eqs))
        if sol[0] == "point":
            g = sol[1]
            if contains_by_rows(c1, g) and contains_by_rows(c2, g):
                yield ("point", g)
        return
    # Parallel: same line or disjoint.
    if not all(_row_at(r, c2.line_p0) == 0 for r in c1.eqs):
        return
    # Map c2's interval into c1's parameterization: c2's parameter s is
    # c1's t = t0 + s * scale.
    t0 = _param_of(c1, c2.line_p0)
    if v1[0] != 0:
        scale = Fraction(v2[0], v1[0])
    else:
        scale = Fraction(v2[1], v1[1])
    iv2 = c2.interval
    if scale > 0:
        lo = None if iv2.lo is None else t0 + iv2.lo * scale
        hi = None if iv2.hi is None else t0 + iv2.hi * scale
        mapped = Interval(lo, iv2.lo_strict, hi, iv2.hi_strict)
    else:
        lo = None if iv2.hi is None else t0 + iv2.hi * scale
        hi = None if iv2.lo is None else t0 + iv2.lo * scale
        mapped = Interval(lo, iv2.hi_strict, hi, iv2.lo_strict)
    overlap = _intersect_intervals(c1.interval, mapped)
    if overlap.is_empty():
        return
    yield ("segment", c1, overlap)


def pair_scan_hits(C1, C2):
    for c1 in C1.cells:
        for c2 in C2.cells:
            for hit in _geom_intersections(c1, c2):
                yield c1, c2, hit


def oracle_intersect_series(P: FPoly, Q: FPoly, prec=8):
    """Exact Cramer solution over the series field, mapped through the
    fine valuation.  Returns (series solution pair, FinePoint list)."""
    x, y = solve_linear_2x2(P, Q, prec)
    f = hom_fval(P.domain.field)
    fp = FinePoint((f(x), f(y)))
    return (x, y), [fp]

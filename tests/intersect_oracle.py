"""Reference intersections: every pair of cells is tested on exact rows.

This is how ``finetrop.tropgeo`` found meeting cells before its walker
looked vertices up by their argmin set on integer levels: every cell of
the first curve is tried against every cell of the second, with cell
membership tested on the ``Fraction`` rows ``eqs`` (= 0) and ``ineqs``
(> 0) that ``curve_oracle.tie_rows`` reads off each curve's source, and
transversal edges solved by the row solver of ``curve_oracle``.  So the
scan shares no tie rule with the package's integer walk.
``pair_scan_hits`` yields what ``tropgeo._cell_hits`` yields, in the same
order, so it can stand in for the walker: a point hit carries the point
both as Fractions and as the integers (x, y, den) of ``integer_point``,
derived from the point the scan solved from its own rows.

``argmin_pair_hits`` is the second, integer reference: the walker as it
was before crossings were tested against the edges' integer spans and
before the cells kept their integers.  It looks vertices up by their
argmin set at the ``integer_point`` of their Fraction point, keeps an
edge-edge crossing only when the argmin set of each curve's whole support
at the crossing is that edge's J (two argmins per pair of edges), and
finds edges on one line by their shared ``line_p0``.

``stable_by_translation`` is the stable intersection by its definition,
the fan displacement rule: the limit, as eps -> 0, of the first curve
meeting the second moved by eps * v, with the hits of ``pair_scan_hits``.

``oracle_intersect_series`` is the series side of the Fundamental
theorem for two lines: the exact Cramer solution, mapped through the
fine valuation.
"""

from __future__ import annotations

import math
from fractions import Fraction

from finetrop.extension import ExtElem
from finetrop.ordgroup import gelem
from finetrop.poly import FPoly, HPoly
from finetrop.series import hom_fval
from finetrop.solve import solve_linear_2x2
from finetrop.tropgeo import (
    FinePoint,
    Interval,
    _intersect_intervals,
    fine_hypersurface,
)

from curve_oracle import _row_at, _solve_rows, tie_rows


def integer_point(g) -> tuple[int, int, int]:
    """The Fraction point g as (x, y, den) with g = (x, y) / den, den > 0 the
    lcm of its denominators."""
    gx, gy = g
    den = math.lcm(gx.denominator, gy.denominator)
    return (gx.numerator * (den // gx.denominator),
            gy.numerator * (den // gy.denominator), den)


def contains_by_rows(rows, g) -> bool:
    """Cell membership on its ``tie_rows``: every eq = 0, every ineq > 0."""
    eqs, ineqs = rows
    return (all(_row_at(r, g) == 0 for r in eqs)
            and all(_row_at(r, g) > 0 for r in ineqs))


def _param_of(cell, g) -> Fraction:
    vx, vy = cell.line_v
    if vx != 0:
        return (g[0] - cell.line_p0[0]) / vx
    return (g[1] - cell.line_p0[1]) / vy


def _geom_intersections(c1, rows1, g1, c2, rows2, g2):
    """Geometric intersections of two cells, given their ``tie_rows`` and,
    for a vertex, its point g solved from them: points and shared
    segments."""
    if c1.dim == 0 and c2.dim == 0:
        if g1 == g2:
            yield ("point", g1, integer_point(g1))
        return
    if c1.dim == 0:
        if contains_by_rows(rows2, g1):
            yield ("point", g1, integer_point(g1))
        return
    if c2.dim == 0:
        if contains_by_rows(rows1, g2):
            yield ("point", g2, integer_point(g2))
        return
    v1, v2 = c1.line_v, c2.line_v
    det = v1[0] * v2[1] - v1[1] * v2[0]
    if det != 0:
        sol = _solve_rows(list(rows1[0]) + list(rows2[0]))
        if sol[0] == "point":
            g = sol[1]
            if contains_by_rows(rows1, g) and contains_by_rows(rows2, g):
                yield ("point", g, integer_point(g))
        return
    # Parallel: same line or disjoint.
    if not all(_row_at(r, c2.line_p0) == 0 for r in rows1[0]):
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


def _with_rows(C):
    """Each cell of C with its ``tie_rows`` and, for a vertex, the point
    solved from its own equation rows (None for an edge)."""
    out = []
    for c in C.cells:
        rows = tie_rows(C.source, c.J)
        out.append((c, rows, _solve_rows(rows[0])[1] if c.dim == 0 else None))
    return out


def pair_scan_hits(C1, C2):
    cells2 = _with_rows(C2)
    for c1, rows1, g1 in _with_rows(C1):
        for c2, rows2, g2 in cells2:
            for hit in _geom_intersections(c1, rows1, g1, c2, rows2, g2):
                yield c1, c2, hit


def argmin_pair_hits(C1, C2):
    if not C1.cells or not C2.cells:
        return
    lift1, lift2 = C1.cells[0].lift, C2.cells[0].lift
    index1 = {c.J: k for k, c in enumerate(C1.cells)}
    index2 = {c.J: k for k, c in enumerate(C2.cells)}
    on_edge1 = {k: [] for k, c in enumerate(C1.cells) if c.dim == 1}
    for k2, c2 in enumerate(C2.cells):
        if c2.dim == 0:
            g = integer_point(c2.point)
            k1 = index1.get(lift1.argmin(*g))
            if k1 in on_edge1:  # vertex on vertex is found from C1's side
                on_edge1[k1].append((k2, ("point", c2.point, g)))
    s1, s2 = lift1.scale, lift2.scale
    edges2 = [(k2, c2, lift2.tie(*c2.J[:2]))
              for k2, c2 in enumerate(C2.cells) if c2.dim == 1]
    for k1, c1 in enumerate(C1.cells):
        if c1.dim == 0:
            g = integer_point(c1.point)
            k2 = index2.get(lift2.argmin(*g))
            if k2 is not None:
                yield c1, C2.cells[k2], ("point", c1.point, g)
            continue
        hits = on_edge1[k1]
        a1, b1, n1 = lift1.tie(*c1.J[:2])
        for k2, c2, (a2, b2, n2) in edges2:
            det = a1 * b2 - a2 * b1
            if det:
                den = s1 * s2 * det
                x = b1 * n2 * s1 - b2 * n1 * s2
                y = a2 * n1 * s2 - a1 * n2 * s1
                if den < 0:
                    den, x, y = -den, -x, -y
                if (lift1.argmin(x, y, den) == c1.J
                        and lift2.argmin(x, y, den) == c2.J):
                    hits.append((k2, ("point", (Fraction(x, den),
                                                Fraction(y, den)),
                                      (x, y, den))))
            elif c1.line_p0 == c2.line_p0:
                overlap = _intersect_intervals(c1.interval, c2.interval)
                if not overlap.is_empty():
                    hits.append((k2, ("segment", c1, overlap)))
        hits.sort(key=lambda h: h[0])
        for k2, hit in hits:
            yield c1, C2.cells[k2], hit


# The direction in which ``stable_by_translation`` moves the second curve:
# an edge parallel to it needs exponents 19 apart.
TRANSLATION = (Fraction(1), Fraction(7, 19))


def translated(C, eps: Fraction):
    """The fine curve of C's source moved by eps * ``TRANSLATION``: each
    level_d becomes level_d - eps * (d . v)."""
    p, (v0, v1) = C.source, TRANSLATION
    return fine_hypersurface(HPoly(p.hyperfield, 2, {
        d: ExtElem(c.coef, gelem(c.level.coords[0]
                                 - eps * (d[0] * v0 + d[1] * v1)))
        for d, c in p.coeffs.items()}))


def stable_by_translation(C1, C2):
    """The stable intersection of C1 and C2 as the limit of C1 meeting C2
    moved by eps * v, sorted.

    The hits at eps and eps/2, from eps = 1/1024, come from
    ``pair_scan_hits``; eps is halved until both are point hits only and
    meet the same cell pairs (J1, J2).  Within one pair each hit is affine
    in eps, so 2 * p(eps/2) - p(eps) is its exact limit.  ValueError when
    40 halvings do not get there.
    """
    def points(e):
        """{(J1, J2): point} at e, or None when a hit is a segment."""
        out = {}
        for c1, c2, hit in pair_scan_hits(C1, translated(C2, e)):
            if hit[0] != "point":
                return None
            out[c1.J, c2.J] = hit[1]
        return out

    eps = Fraction(1, 1024)
    far = points(eps)
    for _ in range(40):
        eps /= 2
        near = points(eps)
        if far is not None and near is not None and far.keys() == near.keys():
            return sorted({(2 * g[0] - far[k][0], 2 * g[1] - far[k][1])
                           for k, g in near.items()})
        far = near
    raise ValueError(f"no limit of {C1.source} meeting {C2.source} moved "
                     f"by eps * {TRANSLATION} down to eps = {eps}")


def oracle_intersect_series(P: FPoly, Q: FPoly, prec=8):
    """Exact Cramer solution over the series field, mapped through the
    fine valuation.  Returns (series solution pair, FinePoint list)."""
    x, y = solve_linear_2x2(P, Q, prec)
    f = hom_fval(P.domain.field)
    fp = FinePoint((f(x), f(y)))
    return (x, y), [fp]

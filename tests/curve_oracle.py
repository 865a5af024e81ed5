"""Reference fine curves: every subset of the support is tried as a cell.

This is how ``finetrop.tropgeo.fine_hypersurface`` found cells before it
read them off the regular subdivision of the Newton polygon on integer
levels: each subset J with |J| >= 2, in ``itertools.combinations`` order,
is solved for its tie equations as exact ``Fraction`` rows and tested
against the strict inequalities of the other support points.  It is kept
only as a slow oracle for the tests (2^n subsets for n monomials).  The
rows of a cell, ``tie_rows``, and the row helpers serve the pair-scan
oracle in ``intersect_oracle`` too: the package's cells keep no rows.

``vertices_every_triple`` is how the vertices were found before
``fine_hypersurface`` walked the lower faces of the lifted support: it
takes the full argmin set of every non-collinear triple, C(n, 3) of them.
It is the oracle for the walk's vertex cells.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from finetrop.poly import HPoly, hpoly
from finetrop.tropgeo import (
    Interval,
    Vec2,
    Lift,
    _ext_of,
    _intersect_intervals,
    _primitive,
)

Row = tuple[Fraction, Fraction, Fraction]  # a*gX + b*gY + c (rel) 0


def tie_rows(p: HPoly, J) -> tuple[tuple[Row, ...], tuple[Row, ...]]:
    """(eqs, ineqs): the ties level_d + d.g - level_j0 - j0.g of j0 = J[0]
    with the other points of J (= 0 on the cell) and with the support
    points outside J (> 0 on the cell), as rows read off p's levels."""
    j0 = J[0]

    def row(d):
        return (Fraction(d[0] - j0[0]), Fraction(d[1] - j0[1]),
                p.coeffs[d].level.coords[0] - p.coeffs[j0].level.coords[0])

    return (tuple(row(d) for d in J[1:]),
            tuple(row(d) for d in sorted(p.coeffs) if d not in J))


def _row_at(row: Row, g: Vec2) -> Fraction:
    a, b, c = row
    return a * g[0] + b * g[1] + c


def _solve_rows(rows: Sequence[Row]):
    """Solution set of linear equations in (gX, gY) over Q."""
    rows = [r for r in rows if not (r[0] == 0 and r[1] == 0 and r[2] == 0)]
    for r in rows:
        if r[0] == 0 and r[1] == 0:
            return ("empty",)
    if not rows:
        return ("plane",)
    a, b, c = rows[0]
    for a2, b2, c2 in rows[1:]:
        det = a * b2 - a2 * b
        if det != 0:
            gx = (b * c2 - b2 * c) / det
            gy = (a2 * c - a * c2) / det
            g = (gx, gy)
            if all(_row_at(r, g) == 0 for r in rows):
                return ("point", g)
            return ("empty",)
    # All rows proportional to the first; check the constants.
    for a2, b2, c2 in rows[1:]:
        k = (a2 / a) if a != 0 else (b2 / b)
        if c2 != k * c:
            return ("empty",)
    p0 = (Fraction(0), -c / b) if b != 0 else (-c / a, Fraction(0))
    v = _primitive(int(-b), int(a))
    return ("line", p0, v)


def _line_interval(p0: Vec2, v: tuple[int, int], ineqs: Sequence[Row]) -> Interval:
    iv = Interval(None, False, None, False)
    for row in ineqs:
        a, b, c = row
        s = a * v[0] + b * v[1]
        w = _row_at(row, p0)
        if s == 0:
            if w <= 0:
                return Interval(Fraction(0), True, Fraction(0), True)  # empty
            continue
        bound = Fraction(-w, s)
        if s > 0:
            iv = _intersect_intervals(iv, Interval(bound, True, None, False))
        else:
            iv = _intersect_intervals(iv, Interval(None, False, bound, True))
    return iv


@dataclass(frozen=True)
class SubsetCell:
    """A cell with its polyhedron stored as the rows that define it."""

    J: tuple
    dim: int
    eqs: tuple
    ineqs: tuple
    point: Optional[Vec2]
    line_p0: Optional[Vec2]
    line_v: Optional[tuple[int, int]]
    interval: Optional[Interval]
    base_cond: HPoly


def fine_hypersurface_by_subsets(p: HPoly) -> tuple[SubsetCell, ...]:
    E = _ext_of(p)
    if p.nvars != 2:
        raise ValueError("plane curves only")
    support = sorted(p.coeffs)
    cells = []
    for r in range(2, len(support) + 1):
        for J in itertools.combinations(support, r):
            eqs, ineqs = tie_rows(p, J)
            sol = _solve_rows(eqs)
            if sol[0] == "empty":
                continue
            base_cond = hpoly(E.base, 2, {d: p.coeffs[d].coef for d in J})
            if sol[0] == "point":
                g = sol[1]
                if all(_row_at(row, g) > 0 for row in ineqs):
                    cells.append(SubsetCell(J, 0, eqs, ineqs, g, None, None,
                                            None, base_cond))
                continue
            _, p0, v = sol
            iv = _line_interval(p0, v, ineqs)
            if not iv.is_empty():
                cells.append(SubsetCell(J, 1, eqs, ineqs, None, p0, v, iv,
                                        base_cond))
    return tuple(cells)


def vertices_every_triple(lift: Lift) -> dict:
    """Vertex cells as J -> (x, y, den), from the argmin set of every
    non-collinear triple: J is a vertex when it holds the triple."""
    lev, s = lift.lev, lift.scale
    vertices = {}
    for a, b, c in itertools.combinations(lift.support, 3):
        bx, by, cx, cy = b[0] - a[0], b[1] - a[1], c[0] - a[0], c[1] - a[1]
        det = bx * cy - by * cx
        if det == 0:
            continue
        rb, rc = lev[a] - lev[b], lev[a] - lev[c]
        nx, ny = rb * cy - rc * by, bx * rc - cx * rb
        if det < 0:
            det, nx, ny = -det, -nx, -ny
        J = lift.argmin(nx, ny, s * det)
        if a in J:
            vertices.setdefault(J, (nx, ny, s * det))
    return vertices

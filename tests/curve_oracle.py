"""Reference fine curves: every subset of the support is tried as a cell.

This is how ``finetrop.tropgeo.fine_hypersurface`` found cells before it
derived its candidates from the regular subdivision of the Newton polygon:
each subset J with |J| >= 2, in ``itertools.combinations`` order, is solved
for its tie equations and tested against the strict inequalities of the
other support points.  It is kept only as a slow oracle for the tests
(2^n subsets for n monomials), and shares with the fast path the row
solver, the line-interval helper and the cell types.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from finetrop.poly import HPoly, hpoly
from finetrop.tropgeo import (
    Cell,
    FineCurve,
    _ext_of,
    _line_interval,
    _row_at,
    _solve_rows,
)


def fine_hypersurface_by_subsets(p: HPoly) -> FineCurve:
    E = _ext_of(p)
    if p.nvars != 2:
        raise ValueError("plane curves only")
    support = sorted(p.coeffs)
    levels = {d: p.coeffs[d].level.coords[0] for d in support}
    cells = []
    for r in range(2, len(support) + 1):
        for J in itertools.combinations(support, r):
            j0 = J[0]
            eqs = tuple(
                (Fraction(d[0] - j0[0]), Fraction(d[1] - j0[1]),
                 levels[d] - levels[j0])
                for d in J[1:]
            )
            ineqs = tuple(
                (Fraction(d[0] - j0[0]), Fraction(d[1] - j0[1]),
                 levels[d] - levels[j0])
                for d in support if d not in J
            )
            sol = _solve_rows(eqs)
            if sol[0] == "empty":
                continue
            base_cond = hpoly(E.base, 2, {d: p.coeffs[d].coef for d in J})
            if sol[0] == "point":
                g = sol[1]
                if all(_row_at(row, g) > 0 for row in ineqs):
                    cells.append(Cell(J, 0, eqs, ineqs, g, None, None, None,
                                      base_cond))
                continue
            _, p0, v = sol
            iv = _line_interval(p0, v, ineqs)
            if not iv.is_empty():
                cells.append(Cell(J, 1, eqs, ineqs, None, p0, v, iv,
                                  base_cond))
    return FineCurve(p, tuple(cells))

"""Reference Newton cells by the pair search.

This is how ``finetrop.solve.newton_cells`` found the cells before it read
them off the lower convex hull in one pass: every pair of indices i < j
gives the level h at which their terms tie, and h is a cell when the
minimum of level(c_i) + i*h is attained at least twice.  It is O(n^3) and
kept only as a slow, independent oracle for the tests.
"""

from __future__ import annotations

import itertools

from finetrop.ordgroup import GroupElem, group_add, group_neg, scalar_mul


def group_sub(a: GroupElem, b: GroupElem) -> GroupElem:
    return group_add(a, group_neg(b))


def group_div(a: GroupElem, n: int) -> GroupElem:
    """Exact division by a nonzero integer (Q^k is divisible)."""
    if n == 0:
        raise ZeroDivisionError("cannot divide group element by 0")
    return GroupElem(tuple(x / n for x in a.coords))


def oracle_newton_cells(p) -> list[tuple]:
    """All (h, J) of ``p``, sorted by h, with J in increasing index order."""
    levels = {d[0]: c.level for d, c in sorted(p.coeffs.items())}
    candidates = set()
    for i, j in itertools.combinations(levels, 2):
        # level(c_i) + i*h = level(c_j) + j*h  =>  h = (g_i - g_j)/(j - i)
        candidates.add(group_div(group_sub(levels[i], levels[j]), j - i))
    cells = []
    for h in candidates:
        vals = {i: group_add(g, scalar_mul(i, h)) for i, g in levels.items()}
        m = min(vals.values())
        J = tuple(i for i in vals if vals[i] == m)
        if len(J) >= 2:
            cells.append((h, J))
    cells.sort(key=lambda c: c[0].coords)
    return cells


def tropical_mult_oracle(p, h) -> int:
    """Horizontal lattice length of the Newton-polygon edge of slope -h."""
    for level, J in oracle_newton_cells(p):
        if level == h:
            return max(J) - min(J)
    return 0

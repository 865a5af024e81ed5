"""Check of fine intersections against both references.

Curve pairs pushed along val, sval and fval in turn are met by
``tropgeo._cell_hits`` and compared, hit for hit and in order, with
``intersect_oracle.argmin_pair_hits`` (two whole-support argmins per pair
of edges, on integers) and ``intersect_oracle.pair_scan_hits`` (every pair
of cells, on ``Fraction`` rows that the oracle reads off each source's
levels itself).  Each round k takes four pairs:

- random: supports in the triangle of degree 1 + k % 4, levels with small
  denominators, sometimes all equal, and sometimes the curve with itself;
- vertex on edge: a vertex of the second curve moved, by shifting that
  curve, onto an interior point of an edge of the first (both orders);
- collinear: a curve with collinear support, whose edges are whole lines,
  against a random curve or another collinear one;
- dense: every monomial of degree <= 2 + k % 4 with levels i^2 + ij + j^2
  plus noise, the second curve shifted by (1/3, -2/7).

Every curve of every pair also has its cells' integer geometry checked
against their Fractions (``check_cells``): a vertex's (x, y, den), an
edge's tie and its span.

The same pairs also check the base solving of ``tropgeo.fine_intersect``
hit by hit (``check_base``):

- over K and S, ``solve_base_pair``'s unit-pair scan against every unit
  pair tested by ``eval_oracle.is_root_every_term`` on both conditions;
- at every point hit, ``tropgeo._is_fine_root``, the fine-point check on
  levels scaled once, at the hit's integer point, against
  ``eval_oracle.is_root_every_term`` on both sources at the hit's Fraction
  point: at every unit pair over K and S, and over Q at each solution
  (u, v) and at (-u, v) and (u, 2v).

The scan and the check decide their base sums with ``poly``'s own power
table and base-sum test, so the reference evaluates every term with its
own powers instead.

The same pairs also check the stable intersection (``check_stable``):
``tropgeo.stable_intersect`` against ``intersect_oracle.stable_by_translation``,
the limit of the first curve meeting the second moved by eps * v, and the
tropical Bernstein identity: the mixed areas of the point hits,
``tropgeo._mixed_area`` of their cells, sum to the mixed area of the two
supports, and every segment hit has mixed area 0.

Run as ``PYTHONPATH=src python tests/intersect_sweep.py ROUNDS``: it prints
the number of pairs and hits checked, the number of cells whose integers
were checked, the number of scans and fine-point
checks compared, the number of hits skipped because their base
conditions raise BaseSolveError (so that a growing share of unsolved hits
shows), and the numbers of stable intersections and Bernstein sums
checked, or the first mismatch and exits 1.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from typing import Iterator

from finetrop import tropgeo
from finetrop.extension import ExtElem
from finetrop.fields import BaseSolveError, QQ
from finetrop.ordgroup import gelem
from finetrop.poly import fpoly, pushforward
from finetrop.series import SeriesDomain, hom_fval, hom_sval, hom_val, series

from eval_oracle import is_root_every_term
from intersect_oracle import (
    argmin_pair_hits,
    pair_scan_hits,
    stable_by_translation,
)

DOM = SeriesDomain(QQ)
HOMS = (hom_val(), hom_sval(), hom_fval())
SHIFT = (Fraction(1, 3), Fraction(-2, 7))


def triangle(deg: int) -> list:
    return [(i, j) for i in range(deg + 1) for j in range(deg + 1 - i)]


def curve_poly(rng, levels: dict):
    """Monomial-series coefficients c t^level with random nonzero c."""
    return fpoly(DOM, 2, {d: series(QQ, [(e, Fraction(
        rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)))])
        for d, e in levels.items()})


def random_levels(rng, support, equal: bool, max_den: int) -> dict:
    e0 = Fraction(rng.randint(-4, 8), rng.randint(1, max_den))
    return {d: e0 if equal else Fraction(rng.randint(-4, 8),
                                         rng.randint(1, max_den))
            for d in support}


def random_support(rng, deg: int) -> list:
    tri = triangle(deg)
    return tri if rng.random() < 0.5 else rng.sample(
        tri, rng.randint(2, len(tri)))


def shifted(levels: dict, s) -> dict:
    """The levels whose curve is the curve of ``levels`` moved by s."""
    return {d: e - d[0] * s[0] - d[1] * s[1] for d, e in levels.items()}


def dense_levels(rng, deg: int) -> dict:
    return {(i, j): i * i + i * j + j * j + Fraction(rng.randint(-9, 9), 50)
            for i, j in triangle(deg)}


def collinear_levels(rng) -> dict:
    u = rng.choice([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 3)])
    a = (rng.randint(0, 2), rng.randint(2, 4))
    steps = sorted(rng.sample(range(5), rng.randint(2, 4)))
    return random_levels(rng, [(a[0] + k * u[0], a[1] + k * u[1])
                               for k in steps], False, 3)


def interior_point(cell):
    """A point of the relatively open edge cell."""
    iv = cell.interval
    if iv.lo is not None and iv.hi is not None:
        t = (iv.lo + iv.hi) / 2
    elif iv.lo is not None:
        t = iv.lo + 1
    elif iv.hi is not None:
        t = iv.hi - 1
    else:
        t = Fraction(0)
    return cell.param_at(t)


def curve(hom, levels: dict, rng):
    return tropgeo.fine_hypersurface(pushforward(hom, curve_poly(rng, levels)))


def pairs(rounds: int, seed: int = 0) -> Iterator:
    """(case, C1, C2) for every pair of the sweep, in order."""
    rng = random.Random(seed)
    for k in range(rounds):
        hom, deg = HOMS[k % 3], 1 + k % 4
        L1 = random_levels(rng, random_support(rng, deg), k % 7 == 0,
                           1 + k % 3)
        C1 = curve(hom, L1, rng)
        C2 = C1 if k % 5 == 0 else curve(hom, random_levels(
            rng, random_support(rng, deg), k % 7 == 0, 1 + k % 3), rng)
        yield "random", C1, C2
        # Vertex on edge: move a vertex w of the second curve onto an edge.
        L2 = random_levels(rng, triangle(1 + (k + 1) % 3), False, 2)
        C2 = curve(hom, L2, rng)
        edges = [c for c in C1.cells if c.dim == 1]
        vertices = [c for c in C2.cells if c.dim == 0]
        if edges and vertices:
            g, w = interior_point(rng.choice(edges)), rng.choice(vertices).point
            C2 = curve(hom, shifted(L2, (g[0] - w[0], g[1] - w[1])), rng)
            yield "vertex on edge", *((C1, C2) if k % 2 else (C2, C1))
        C0 = curve(hom, collinear_levels(rng), rng)
        other = curve(hom, collinear_levels(rng), rng) if k % 3 == 0 else C1
        yield "collinear", *((C0, other) if k % 2 else (other, C0))
        deg = 2 + k % 4
        yield "dense", curve(hom, dense_levels(rng, deg), rng), curve(
            hom, shifted(dense_levels(rng, deg), SHIFT), rng)


def hit_key(c1, c2, hit):
    """The hit as compared between the walker and the references.  A point
    hit's key holds its Fraction point and whether its integers (x, y, den)
    name that point with den > 0."""
    if hit[0] == "point":
        _, g, (x, y, den) = hit
        named = den > 0 and (Fraction(x, den), Fraction(y, den)) == g
        return (c1.J, c2.J, "point", g, named)
    _, host, overlap = hit
    return (c1.J, c2.J, "segment", host.J, overlap)


def check_cells(C) -> int:
    """Check that each cell of the fine curve C keeps integers naming its
    Fractions; returns the number of cells and raises ``AssertionError`` at
    the first that does not.

    A vertex's ``ipoint`` (x, y, den) is its point with den > 0.  An edge's
    ``tie`` is ``lift.tie`` of J[0] and J[1], ``line_p0`` lies on the tie
    line, and each end (z, den) of its ``span`` (i, lo, hi), divided by
    line_v[i], is the interval's end, strict, with None for no end.
    """
    for c in C.cells:
        if c.dim == 0:
            x, y, den = c.ipoint
            ok = (den > 0 and (Fraction(x, den), Fraction(y, den)) == c.point
                  and c.tie is None and c.span is None)
        else:
            a, b, n = c.tie
            i, lo, hi = c.span
            iv, v = c.interval, c.line_v
            ok = (c.ipoint is None and c.tie == c.lift.tie(*c.J[:2])
                  and a * c.line_p0[0] + b * c.line_p0[1]
                  + Fraction(n, c.lift.scale) == 0
                  and i == (0 if v[0] else 1))
            for end, t, strict in ((lo, iv.lo, iv.lo_strict),
                                   (hi, iv.hi, iv.hi_strict)):
                if end is None:
                    ok = ok and t is None and not strict
                else:
                    ok = (ok and end[1] > 0 and strict
                          and Fraction(end[0], end[1] * v[i]) == t)
        if not ok:
            raise AssertionError(f"{C.source}: cell {c.J} keeps integers "
                                 f"{c.ipoint, c.tie, c.span} that do not "
                                 f"name {c.point, c.line_p0, c.interval}")
    return len(C.cells)


def check(C1, C2) -> int:
    """Compare ``_cell_hits`` with both references on one pair; returns
    the number of hits and raises ``AssertionError`` on a mismatch."""
    got = [hit_key(*h) for h in tropgeo._cell_hits(C1, C2)]
    for name, ref in (("argmin_pair_hits", argmin_pair_hits),
                      ("pair_scan_hits", pair_scan_hits)):
        want = [hit_key(*h) for h in ref(C1, C2)]
        if got != want:
            raise AssertionError(
                f"{C1.source} meets {C2.source}: _cell_hits {got}, "
                f"{name} {want}")
    return len(got)


def check_base(C1, C2) -> tuple[int, int, int]:
    """Compare the unit-pair scans and the fine-point checks of one pair
    with ``is_root_every_term``; returns the numbers of scans, checks and
    hits skipped because their base conditions raise BaseSolveError, and
    raises ``AssertionError`` on a mismatch."""
    H = C1.source.hyperfield.base
    units = H.units()
    checks = [(C.source, tropgeo._lift(C.source)) for C in (C1, C2)]
    scans = n = skipped = 0
    for c1, c2, hit in tropgeo._cell_hits(C1, C2):
        conds = (c1.base_cond, c2.base_cond)
        try:
            kind, sols = tropgeo.solve_base_pair(H, *conds)
        except BaseSolveError:
            skipped += 1
            continue
        if units is not None:
            want = [(u, v) for u in units for v in units
                    if all(is_root_every_term(c, (u, v)) for c in conds)]
            if sols != want:
                raise AssertionError(f"{conds}: scan {sols}, "
                                     f"every-term oracle {want}")
            scans += 1
        if hit[0] != "point" or kind != "points":
            continue
        _, g, xyd = hit
        if units is not None:
            tried = [(u, v) for u in units for v in units]
        else:
            tried = [(w * u, x * v) for u, v in sols
                     for w, x in ((1, 1), (-1, 1), (1, 2))]
        for u, v in tried:
            pt = (ExtElem(u, gelem(g[0])), ExtElem(v, gelem(g[1])))
            for p, lift in checks:
                got = tropgeo._is_fine_root(H, p, lift, xyd, u, v)
                if got != is_root_every_term(p, pt):
                    raise AssertionError(f"{p} at {pt}: fine-point check "
                                         f"{got}, every-term oracle {not got}")
                n += 1
    return scans, n, skipped


def base_sweep(rounds: int) -> tuple[int, int, int]:
    """``check_base`` on every pair of ``rounds`` rounds; returns (scans,
    checks, skipped) and raises ``AssertionError`` at the first mismatch."""
    total = (0, 0, 0)
    for k, (case, C1, C2) in enumerate(pairs(rounds)):
        try:
            counts = check_base(C1, C2)
        except AssertionError as err:
            raise AssertionError(f"{case} pair {k}: {err}") from None
        total = tuple(map(sum, zip(total, counts)))
    return total


def check_stable(C1, C2) -> None:
    """Compare ``stable_intersect`` with ``stable_by_translation`` and check
    the Bernstein identity on one pair; raises ``AssertionError`` on a
    mismatch."""
    got, want = tropgeo.stable_intersect(C1, C2), stable_by_translation(C1, C2)
    if got != want:
        raise AssertionError(f"{C1.source} meets {C2.source}: stable_intersect "
                             f"{got}, stable_by_translation {want}")
    areas = {"point": 0, "segment": 0}
    for c1, c2, hit in tropgeo._cell_hits(C1, C2):
        areas[hit[0]] += tropgeo._mixed_area(c1.J, c2.J)
    mv = tropgeo._mixed_area(sorted(C1.source.coeffs), sorted(C2.source.coeffs))
    if (areas["point"], areas["segment"]) != (mv, 0):
        raise AssertionError(f"{C1.source} meets {C2.source}: mixed areas "
                             f"{areas}, mixed volume {mv}")


def stable_sweep(rounds: int) -> int:
    """``check_stable`` on every pair of ``rounds`` rounds; returns the
    number of pairs and raises ``AssertionError`` at the first mismatch."""
    n = 0
    for case, C1, C2 in pairs(rounds):
        try:
            check_stable(C1, C2)
        except AssertionError as err:
            raise AssertionError(f"{case} pair {n}: {err}") from None
        n += 1
    return n


def sweep(rounds: int) -> tuple[int, int, int]:
    """Check every pair of ``rounds`` rounds; returns (pairs, hits, cells)
    and raises ``AssertionError`` at the first mismatch."""
    n = hits = cells = 0
    for case, C1, C2 in pairs(rounds):
        try:
            cells += check_cells(C1) + check_cells(C2)
            hits += check(C1, C2)
        except AssertionError as err:
            raise AssertionError(f"{case} pair {n}: {err}") from None
        n += 1
    return n, hits, cells


if __name__ == "__main__":
    try:
        n, hits, cells = sweep(int(sys.argv[1]))
        scans, checks, skipped = base_sweep(int(sys.argv[1]))
        stable = stable_sweep(int(sys.argv[1]))
    except AssertionError as err:
        print(f"mismatch: {err}")
        sys.exit(1)
    print(f"{n} curve pairs, {hits} hits match both references")
    print(f"{cells} cells keep integers that name their Fractions")
    print(f"{scans} unit-pair scans and {checks} fine-point checks match "
          f"the every-term oracle")
    print(f"{skipped} hits skipped: their base conditions raise "
          f"BaseSolveError")
    print(f"{stable} stable intersections match the translation oracle and "
          f"{stable} Bernstein sums hold")

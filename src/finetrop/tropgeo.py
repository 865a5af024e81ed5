"""Fine tropical plane curves and their intersections.

A fine curve is the cell decomposition of the corner locus of the level
polynomial, each cell carrying the initial-form condition on the base
units.  Cells are indexed by the subset J of the support on which the
minimum of level(c_d) + d.g is attained exactly; their polyhedra live in
Q^2 with exact rational constraints.

The cells are dual to the regular subdivision of the Newton polygon
induced by the lifted points (d, level(c_d)): vertices to its polygons,
edges to its edges.  So J is never searched over all subsets of the
support: a vertex's J is the argmin set at the point where a
non-collinear triple of exponents ties, and an edge's J is the set of
support points whose lifted points are collinear with a pair inside a
vertex's J (or any pair, when the support is collinear and there is no
vertex).  Each candidate is then solved and checked exactly.

Intersections conjoin cell polyhedra and base conditions; stable
intersections perturb only the base units of the second curve.  Start
systems for polyhedral homotopy reuse the same cell pairing.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional, Sequence

from .extension import ExtElem, TropicalExtension
from .fields import BaseField, QQ, QQi
from .hyperfields import FieldHyperfield, Hyperfield
from .ordgroup import gelem
from .poly import FPoly, HPoly, hpoly, is_root, pushforward
from .series import hom_fval
from .solve import (
    BaseSolveError,
    SolverInvariantError,
    _gauss_unit_roots,
    _rational_unit_roots,
    solve_linear_2x2,
)


Vec2 = tuple[Fraction, Fraction]
Row = tuple[Fraction, Fraction, Fraction]  # a*gX + b*gY + c (rel) 0


def _row_at(row: Row, g: Vec2) -> Fraction:
    a, b, c = row
    return a * g[0] + b * g[1] + c


def _primitive(v: Vec2) -> tuple[int, int]:
    den = v[0].denominator * v[1].denominator
    p, q = int(v[0] * den), int(v[1] * den)
    g = math.gcd(abs(p), abs(q))
    if g:
        p, q = p // g, q // g
    if p < 0 or (p == 0 and q < 0):
        p, q = -p, -q
    return p, q


@dataclass(frozen=True)
class Interval:
    """Open/closed parameter interval; None bounds are unbounded."""

    lo: Optional[Fraction]
    lo_strict: bool
    hi: Optional[Fraction]
    hi_strict: bool

    def is_empty(self) -> bool:
        if self.lo is None or self.hi is None:
            return False
        if self.lo < self.hi:
            return False
        if self.lo == self.hi:
            return self.lo_strict or self.hi_strict
        return True

    def contains(self, t: Fraction) -> bool:
        if self.lo is not None:
            if t < self.lo or (t == self.lo and self.lo_strict):
                return False
        if self.hi is not None:
            if t > self.hi or (t == self.hi and self.hi_strict):
                return False
        return True


FULL_LINE = Interval(None, False, None, False)


def _intersect_intervals(a: Interval, b: Interval) -> Interval:
    if a.lo is None:
        lo, los = b.lo, b.lo_strict
    elif b.lo is None or a.lo > b.lo:
        lo, los = a.lo, a.lo_strict
    elif b.lo > a.lo:
        lo, los = b.lo, b.lo_strict
    else:
        lo, los = a.lo, a.lo_strict or b.lo_strict
    if a.hi is None:
        hi, his = b.hi, b.hi_strict
    elif b.hi is None or a.hi < b.hi:
        hi, his = a.hi, a.hi_strict
    elif b.hi < a.hi:
        hi, his = b.hi, b.hi_strict
    else:
        hi, his = a.hi, a.hi_strict or b.hi_strict
    return Interval(lo, los, hi, his)


@dataclass(frozen=True)
class Cell:
    """One cell of a fine curve: polyhedron plus initial-form condition."""

    J: tuple[tuple[int, int], ...]
    dim: int
    eqs: tuple[Row, ...]
    ineqs: tuple[Row, ...]  # strict: value > 0
    point: Optional[Vec2]  # dim 0
    line_p0: Optional[Vec2]  # dim 1: g(t) = p0 + t*v
    line_v: Optional[tuple[int, int]]
    interval: Optional[Interval]
    base_cond: HPoly  # over the base hyperfield, variables = the two units

    def contains(self, g: Vec2) -> bool:
        return (all(_row_at(r, g) == 0 for r in self.eqs)
                and all(_row_at(r, g) > 0 for r in self.ineqs))

    def param_at(self, t: Fraction) -> Vec2:
        return (self.line_p0[0] + t * self.line_v[0],
                self.line_p0[1] + t * self.line_v[1])

    def param_of(self, g: Vec2) -> Fraction:
        vx, vy = self.line_v
        if vx != 0:
            return (g[0] - self.line_p0[0]) / vx
        return (g[1] - self.line_p0[1]) / vy


@dataclass(frozen=True)
class FineCurve:
    source: HPoly
    cells: tuple[Cell, ...]


@dataclass(frozen=True)
class FinePoint:
    coords: tuple  # pair of ExtElem


@dataclass(frozen=True)
class ComponentDescription:
    """A positive-dimensional piece of a fine intersection."""

    line_p0: Optional[Vec2]
    line_v: Optional[tuple[int, int]]
    interval: Optional[Interval]
    unit_constraints: tuple  # conjoined base conditions (HPoly pair)
    fixed_units: Any  # dict var-index -> unit, for solved coordinates
    note: str = ""


# ---------------------------------------------------------------------------
# Curve construction


def _ext_of(p: HPoly) -> TropicalExtension:
    H = p.hyperfield
    if not isinstance(H, TropicalExtension) or H.rank != 1:
        raise ValueError("fine curves need a rank-one tropical extension")
    return H


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
    v = _primitive((-b, a))
    return ("line", p0, v)


def _line_interval(p0: Vec2, v: tuple[int, int], ineqs: Sequence[Row]) -> Interval:
    iv = FULL_LINE
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


def _candidate_sets(support: Sequence[tuple[int, int]],
                    levels: dict) -> list[tuple[tuple[int, int], ...]]:
    """The index sets J that can be cells, sorted by (len(J), J).

    A vertex's J holds a non-collinear triple and is the argmin set where
    that triple ties.  An edge's J holds every d whose lifted point is
    collinear with those of a pair in J (a tied d left out would make the
    cell empty), and lies inside the J of a vertex at one of its ends
    unless the support is collinear and has no vertex.  The sort gives
    the order of ``itertools.combinations`` over the sorted support.
    """
    scale = math.lcm(*(levels[d].denominator for d in support))
    lev = {d: levels[d].numerator * (scale // levels[d].denominator)
           for d in support}
    vertices = set()
    for a, b, c in itertools.combinations(support, 3):
        bx, by, cx, cy = b[0] - a[0], b[1] - a[1], c[0] - a[0], c[1] - a[1]
        det = bx * cy - by * cx
        if det == 0:
            continue
        # The tie point is g = (nx, ny) / det, from (d - a).g = lev_a - lev_d
        # for d = b, c; compare det * (lev_d + d.g) with det > 0.
        rb, rc = lev[a] - lev[b], lev[a] - lev[c]
        nx, ny = rb * cy - rc * by, bx * rc - cx * rb
        if det < 0:
            det, nx, ny = -det, -nx, -ny
        val = {d: det * lev[d] + d[0] * nx + d[1] * ny for d in support}
        m = min(val.values())
        if val[a] == m:
            vertices.add(tuple(d for d in support if val[d] == m))
    cands = set(vertices)
    for A in vertices or [tuple(support)]:
        for a, b in itertools.combinations(A, 2):
            ux, uy, ul = b[0] - a[0], b[1] - a[1], lev[b] - lev[a]
            cands.add(tuple(
                d for d in A
                if (d[0] - a[0]) * uy == (d[1] - a[1]) * ux
                and (d[0] - a[0]) * ul == ux * (lev[d] - lev[a])
                and (d[1] - a[1]) * ul == uy * (lev[d] - lev[a])))
    return sorted(cands, key=lambda J: (len(J), J))


def fine_hypersurface(p: HPoly) -> FineCurve:
    """Cells of the corner locus with their initial-form conditions.

    Only the candidates ``_candidate_sets`` reads off the regular
    subdivision of the Newton polygon are solved and checked, not every
    subset of the support.
    """
    E = _ext_of(p)
    if p.nvars != 2:
        raise ValueError("plane curves only")
    support = sorted(p.coeffs)
    levels = {d: p.coeffs[d].level.coords[0] for d in support}
    cells = []
    for J in _candidate_sets(support, levels):
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
            cells.append(Cell(J, 1, eqs, ineqs, None, p0, v, iv, base_cond))
    return FineCurve(p, tuple(cells))


def trop_project(C: FineCurve) -> list[dict]:
    """The underlying tropical curve: cells without base conditions."""
    out = []
    for c in C.cells:
        if c.dim == 0:
            out.append({"dim": 0, "point": c.point})
        else:
            out.append({"dim": 1, "p0": c.line_p0, "v": c.line_v,
                        "interval": c.interval})
    return out


# ---------------------------------------------------------------------------
# Base-condition solving over the base hyperfield


def _nth_roots(field: BaseField, w, n: int) -> list:
    """All solutions of x^n = w in the field; n may be negative."""
    if n < 0:
        w = field.inv(w)
        n = -n
    if n == 0:
        raise ValueError("zeroth root")
    if n == 1:
        return [w]
    if n % 2 == 0:
        roots = []
        for r in _sqrt_all(field, w):
            roots.extend(_nth_roots(field, r, n // 2))
        out = []
        for r in roots:
            if r not in out and _pow(field, r, n) == w:
                out.append(r)
        return out
    # Odd n: only a real rational radicand can have a root in our fields.
    return _odd_root(field, w, n)


def _pow(field: BaseField, x, n: int):
    r = field.one()
    for _ in range(n):
        r = field.mul(r, x)
    return r


def _sqrt_all(field: BaseField, w) -> list:
    r = field.sqrt(w)
    if r is None:
        return []
    out = [r]
    nr = field.neg(r)
    if nr != r:
        out.append(nr)
    return out


def _odd_root(field: BaseField, w, n: int) -> list:
    from .fields import GaussRat

    if isinstance(w, Fraction):
        num, den = w.numerator, w.denominator
        rn = _iroot(abs(num), n)
        rd = _iroot(den, n)
        if rn is None or rd is None:
            return []
        x = Fraction(rn if num >= 0 else -rn, rd)
        return [x]
    if isinstance(w, GaussRat) and w.im == 0:
        inner = _odd_root(QQ, w.re, n)
        return [GaussRat(x, Fraction(0)) for x in inner]
    return []


def _iroot(m: int, n: int) -> Optional[int]:
    """The integer n-th root of m >= 0, or None when m is not an n-th power."""
    if m < 2:
        return m
    # Newton's method on integers, from a start at or above the root,
    # decreases to the floor of the root.
    r = 1 << -(-m.bit_length() // n)
    while True:
        s = ((n - 1) * r + m // r ** (n - 1)) // n
        if s >= r:
            return r if r ** n == m else None
        r = s


def _classify_cond(F: BaseField, cond: HPoly):
    coeffs = dict(cond.coeffs)
    exps = set(coeffs)
    if len(exps) == 1:
        return ("monomial",)
    if exps <= {(0, 0), (1, 0), (0, 1)}:
        return ("affine", (
            coeffs.get((1, 0), F.zero()),
            coeffs.get((0, 1), F.zero()),
            coeffs.get((0, 0), F.zero()),
        ))
    if len(exps) == 2:
        (e1, e2) = sorted(exps)
        c1, c2 = coeffs[e1], coeffs[e2]
        delta = (e2[0] - e1[0], e2[1] - e1[1])
        w = F.neg(F.div(c1, c2))  # u^delta = w
        return ("binomial", delta, w)
    raise BaseSolveError(f"base condition outside supported shapes: {cond}")


def _units_ok(F: BaseField, u, v) -> bool:
    return not F.is_zero(u) and not F.is_zero(v)


def _check_pair(conds: Sequence[HPoly], u, v) -> bool:
    return all(is_root(c, (u, v)) for c in conds)


def solve_base_pair(H: Hyperfield, condA: HPoly, condB: HPoly):
    """Unit solutions of two initial-form conditions.

    Returns ("points", [(u, v), ...]) or ("family", note) when the
    solutions form a positive-dimensional family.
    """
    units = H.units()
    if units is not None:
        sols = [(u, v) for u in units for v in units
                if _check_pair((condA, condB), u, v)]
        return ("points", sols)
    if not isinstance(H, FieldHyperfield):
        raise BaseSolveError(f"base solving unsupported over {H.name}")
    F = H.field
    kA = _classify_cond(F, condA)
    kB = _classify_cond(F, condB)
    if kA[0] == "monomial" or kB[0] == "monomial":
        return ("points", [])
    if kA[0] == "affine" and kB[0] == "affine":
        (a1, b1, c1), (a2, b2, c2) = kA[1], kB[1]
        det = F.sub(F.mul(a1, b2), F.mul(a2, b1))
        if not F.is_zero(det):
            u = F.div(F.sub(F.mul(b1, c2), F.mul(b2, c1)), det)
            v = F.div(F.sub(F.mul(a2, c1), F.mul(a1, c2)), det)
            if _units_ok(F, u, v):
                return ("points", [(u, v)])
            return ("points", [])
        # Dependent or inconsistent affine pair.
        sols = _affine_rank1(F, kA[1], kB[1])
        return sols
    if kA[0] == "binomial" and kB[0] == "binomial":
        return _binomial_pair(F, kA, kB, (condA, condB))
    # Mixed affine and binomial.
    if kA[0] == "binomial":
        kA, kB = kB, kA
        condA, condB = condB, condA
    return _affine_binomial(F, kA, kB, (condA, condB))


def _affine_rank1(F: BaseField, r1, r2):
    a1, b1, c1 = r1
    a2, b2, c2 = r2

    def proportional():
        # r2 = k r1 for the scalar k matched on a nonzero coordinate.
        for x1, x2 in ((a1, a2), (b1, b2)):
            if not F.is_zero(x1):
                k = F.div(x2, x1)
                return (a2 == F.mul(k, a1) and b2 == F.mul(k, b1)
                        and c2 == F.mul(k, c1))
        return False

    if proportional():
        return ("family", "one affine condition, one free unit")
    # det = 0 and the rows are not proportional: no solution at all.
    return ("points", [])


def _binomial_pair(F: BaseField, kA, kB, conds):
    (_, (p, q), w1) = kA
    (_, (r, s), w2) = kB
    det = p * s - q * r
    if det == 0:
        # Parallel exponent vectors: consistent means a family.
        g = math.gcd(abs(p), abs(q))
        if g == 0:
            raise BaseSolveError("degenerate binomial condition")
        k = (r // (p // g) if p else s // (q // g))  # integer ratio when it exists
        if (p * k, q * k) == (r, s):
            lhs = _pow(F, w1, abs(k)) if k >= 0 else _pow(F, F.inv(w1), -k)
            if lhs == w2:
                return ("family", "dependent binomial conditions")
            return ("points", [])
        raise BaseSolveError("binomial conditions with incompatible exponents")
    u_rhs = F.mul(_pow_signed(F, w1, s), _pow_signed(F, w2, -q))
    v_rhs = F.mul(_pow_signed(F, w2, p), _pow_signed(F, w1, -r))
    out = []
    for u in _nth_roots(F, u_rhs, det):
        for v in _nth_roots(F, v_rhs, det):
            if _units_ok(F, u, v) and _check_pair(conds, u, v):
                if (u, v) not in out:
                    out.append((u, v))
    return ("points", out)


def _pow_signed(F: BaseField, w, n: int):
    if n >= 0:
        return _pow(F, w, n)
    return _pow(F, F.inv(w), -n)


def _affine_binomial(F: BaseField, kA, kB, conds):
    (_, (alpha, beta, gamma)) = kA
    (_, (du, dv), w) = kB
    # Solve the binomial for one variable when an exponent is +-1, then
    # substitute into the affine condition.
    if du in (1, -1):
        # u = (w * v^{-dv})^{1/du}
        def u_of(vval):
            base = F.mul(w, _pow_signed(F, vval, -dv))
            return base if du == 1 else F.inv(base)

        # alpha*u + beta*v + gamma = 0 becomes a Laurent polynomial in v.
        sols = []
        for v in _subst_roots(F, alpha, beta, gamma, w, du, dv, var="u"):
            if F.is_zero(v):
                continue
            u = u_of(v)
            if _units_ok(F, u, v) and _check_pair(conds, u, v):
                if (u, v) not in sols:
                    sols.append((u, v))
        return ("points", sols)
    if dv in (1, -1):
        def v_of(uval):
            base = F.mul(w, _pow_signed(F, uval, -du))
            return base if dv == 1 else F.inv(base)

        sols = []
        for u in _subst_roots(F, beta, alpha, gamma, w, dv, du, var="v"):
            if F.is_zero(u):
                continue
            v = v_of(u)
            if _units_ok(F, u, v) and _check_pair(conds, u, v):
                if (u, v) not in sols:
                    sols.append((u, v))
        return ("points", sols)
    raise BaseSolveError(
        "affine/binomial pair needs a unit exponent in the binomial")


def _subst_roots(F: BaseField, alpha, beta, gamma, w, dmain: int, dother: int,
                 var: str) -> list:
    """Nonzero roots in the free variable after eliminating the other.

    Substituting u = (w x^{-dother})^{1/dmain} into alpha u + beta x + gamma
    and clearing denominators yields a sparse polynomial in x.
    """
    # alpha * w^{1/dmain} x^{-dother/dmain} + beta x + gamma = 0; with
    # dmain = +-1 the exponent -dother*dmain is an integer.
    e = -dother * dmain
    wfac = w if dmain == 1 else F.inv(w)
    coeffs: dict[int, Any] = {}

    def bump(i, c):
        if i in coeffs:
            coeffs[i] = F.add(coeffs[i], c)
        else:
            coeffs[i] = c
        if F.is_zero(coeffs[i]):
            del coeffs[i]

    bump(e, F.mul(alpha, wfac))
    bump(1, beta)
    bump(0, gamma)
    if not coeffs:
        return []
    lo = min(coeffs)
    shifted = {i - lo: c for i, c in coeffs.items()}
    if F is QQ:
        return _rational_unit_roots({i: c for i, c in shifted.items()})
    if F is QQi:
        return _gauss_unit_roots(shifted)
    raise BaseSolveError(f"substitution solving unsupported over {F.name}")


# ---------------------------------------------------------------------------
# Intersection


def _geom_intersections(c1: Cell, c2: Cell):
    """Geometric intersections of two cells: points and shared segments."""
    if c1.dim == 0 and c2.dim == 0:
        if c1.point == c2.point:
            yield ("point", c1.point)
        return
    if c1.dim == 0:
        if c2.contains(c1.point):
            yield ("point", c1.point)
        return
    if c2.dim == 0:
        if c1.contains(c2.point):
            yield ("point", c2.point)
        return
    v1, v2 = c1.line_v, c2.line_v
    det = v1[0] * v2[1] - v1[1] * v2[0]
    if det != 0:
        sol = _solve_rows(list(c1.eqs) + list(c2.eqs))
        if sol[0] == "point":
            g = sol[1]
            if c1.contains(g) and c2.contains(g):
                yield ("point", g)
        return
    # Parallel: same line or disjoint.
    if not all(_row_at(r, c2.line_p0) == 0 for r in c1.eqs):
        return
    # Map c2's interval into c1's parameterization.
    t0 = c1.param_of(c2.line_p0)
    # c2 param s maps to t = t0 + s * (v2 expressed in v1 units).
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


def fine_intersect(C1: FineCurve, C2: FineCurve):
    """Intersect two fine curves: (isolated FinePoints, components)."""
    E = _ext_of(C1.source)
    H = E.base
    points: list[FinePoint] = []
    comps: list[ComponentDescription] = []
    seen_pts = set()
    for c1 in C1.cells:
        for c2 in C2.cells:
            for hit in _geom_intersections(c1, c2):
                kind, sols = solve_base_pair(H, c1.base_cond, c2.base_cond)
                if hit[0] == "point":
                    g = hit[1]
                    if kind == "family":
                        comps.append(ComponentDescription(
                            None, None, None, (c1.base_cond, c2.base_cond),
                            sols, note=f"unit family at {g}"))
                        continue
                    for (u, v) in sols:
                        pt = FinePoint((
                            ExtElem(u, gelem(g[0])), ExtElem(v, gelem(g[1]))))
                        key = (H.fmt(u), H.fmt(v), g)
                        if key in seen_pts:
                            continue
                        seen_pts.add(key)
                        for C in (C1, C2):
                            if not is_root(C.source, pt.coords):
                                raise SolverInvariantError(
                                    f"fine point {pt.coords} is not a root of {C.source}")
                        points.append(pt)
                else:
                    _, host, overlap = hit
                    if kind == "family" or sols:
                        comps.append(ComponentDescription(
                            host.line_p0, host.line_v, overlap,
                            (c1.base_cond, c2.base_cond),
                            sols if kind == "points" else None,
                            note="1-dimensional tropical overlap"))
    return points, comps


# ---------------------------------------------------------------------------
# Stable intersection


def _perturb_source(p: HPoly, rng) -> HPoly:
    """Multiply each base unit by a generic rational close to one.

    Levels are untouched: only the base units move.
    """
    E = _ext_of(p)
    H = E.base
    if not isinstance(H, FieldHyperfield):
        raise ValueError("base-unit perturbation needs a field base")
    F = H.field
    coeffs = {}
    for d, c in p.coeffs.items():
        num = rng.randint(10**6, 10**7)
        den = rng.randint(10**6, 10**7)
        fac = F.add(F.one(), F.div(F.from_int(num), F.from_int(den * 1000)))
        coeffs[d] = ExtElem(F.mul(c.coef, fac), c.level)
    return hpoly(E, 2, coeffs)


def stable_intersect(C1: FineCurve, C2: FineCurve, seed: int = 0,
                     max_attempts: int = 25) -> list[Vec2]:
    """Projected stable intersection points in Q^2.

    If the fine intersection is already a finite point set, project it;
    otherwise perturb C2's base units generically and retry.
    """
    pts, comps = fine_intersect(C1, C2)
    if not comps:
        return sorted({_project(pt) for pt in pts})
    rng = random.Random(seed)
    for _ in range(max_attempts):
        try:
            perturbed = fine_hypersurface(_perturb_source(C2.source, rng))
            pts, comps = fine_intersect(C1, perturbed)
        except BaseSolveError:
            continue
        if comps:
            continue
        return sorted({_project(pt) for pt in pts})
    raise RuntimeError("no generic perturbation found")


def _project(pt: FinePoint) -> Vec2:
    a, b = pt.coords
    return (a.level.coords[0], b.level.coords[0])


# ---------------------------------------------------------------------------
# Series-side oracle and homotopy start systems


def oracle_intersect_series(P: FPoly, Q: FPoly, prec=8):
    """Exact Cramer solution over the series field, mapped through the
    fine valuation.  Returns (series solution pair, FinePoint list)."""
    x, y = solve_linear_2x2(P, Q, prec)
    f = hom_fval(P.domain.field)
    fp = FinePoint((f(x), f(y)))
    return (x, y), [fp]


@dataclass(frozen=True)
class MixedCell:
    point: Vec2
    J1: tuple
    J2: tuple
    volume: int
    solutions: tuple


def _edge_vector(J: Sequence[tuple[int, int]]) -> tuple[int, int]:
    lo = min(J)
    hi = max(J)
    return (hi[0] - lo[0], hi[1] - lo[1])


def homotopy_start(P: FPoly, Q: FPoly):
    """Start solutions of a 2x2 polyhedral homotopy from the fine curves.

    Mixed cells are the transversal cell pairs of the two tropical curves;
    edge-edge pairs carry their lattice mixed volume, vertex cells carry
    one solution per base solution.  A one-dimensional overlap with a
    consistent base system means the lift is not generic.
    """
    f = hom_fval(P.domain.field)
    C1 = fine_hypersurface(pushforward(f, P))
    C2 = fine_hypersurface(pushforward(f, Q))
    H = f.target.base
    cells: list[MixedCell] = []
    for c1 in C1.cells:
        for c2 in C2.cells:
            for hit in _geom_intersections(c1, c2):
                kind, sols = solve_base_pair(H, c1.base_cond, c2.base_cond)
                if hit[0] == "segment":
                    if kind == "family" or sols:
                        raise ValueError("lift not generic, reseed")
                    continue
                g = hit[1]
                if kind == "family":
                    raise ValueError("lift not generic, reseed")
                if not sols:
                    continue
                if c1.dim == 1 and c2.dim == 1:
                    e1, e2 = _edge_vector(c1.J), _edge_vector(c2.J)
                    vol = abs(e1[0] * e2[1] - e1[1] * e2[0])
                else:
                    vol = len(sols)
                pts = tuple(
                    FinePoint((ExtElem(u, gelem(g[0])), ExtElem(v, gelem(g[1]))))
                    for (u, v) in sols
                )
                cells.append(MixedCell(g, c1.J, c2.J, vol, pts))
    solutions = [p for cell in cells for p in cell.solutions]
    report = {
        "cells": len(cells),
        "mixed_volume": sum(c.volume for c in cells),
        "start_solutions": len(solutions),
    }
    return solutions, cells, report

"""Fine tropical plane curves and their intersections.

A fine curve is the cell decomposition of the corner locus of the level
polynomial, each cell carrying the initial-form condition on the base
units.  Cells are indexed by the subset J of the support on which the
minimum of level(c_d) + d.g is attained exactly; their polyhedra are
exact rational points, and open segments, rays or lines, in Q^2.

The cells are dual to the regular subdivision of the Newton polygon
induced by the lifted points (d, level(c_d)): vertices to its lower
faces, edges to their sides (Maclagan-Sturmfels, Introduction to
Tropical Geometry, Prop. 3.1.6).  So J is never searched over subsets
of the support, and no cell is solved from rows: with the levels scaled
to integers by their common denominator, one walk over the lower faces
meets each cell once.  It enters on a ray, the lower edge leaving a
corner of Newt(p).  Each side of a vertex's conv(J) gives an edge, whose J
is the points of J on that side, and whose far end is the first tie met
along its tie line (found by integer Cramer's rule); with no tie it is a
ray.  The tie scan that finds that end also gives its vertex's J: the
edge's points and the support points tying at the least ratio, so the
walk takes no argmin.  A collinear support has no vertex, and its edges
are whole lines.  Since cells are relatively open, a point lies in the
cell J exactly when J is its argmin set, an integer test.  Each cell
keeps the walk's integer geometry next to its Fractions: a vertex its
point as (x, y, den), an edge its tie (a, b, n) and the integer ends of
its span.

Intersections pair the cells of two curves with one walker, whose pairs
are the cells of the mixed subdivision of Newt(P) + Newt(Q), and which
reads only the cells' integers: a vertex of either curve is looked up on
the other by its argmin set at its integer point, two crossing edges
meet at the integer Cramer point of their ties when it lies strictly
inside both edges' integer spans (an edge cell is the open segment of
its tie line between its end vertices, so no argmin is taken per pair of
edges), and edges on one line, whose ties are proportional across the
two lift scales, meet where their intervals overlap.  Each pair's base
conditions are then solved together: over a base with finitely many
units by ``poly._unit_scan`` over every unit pair, and over a field by
one elimination.  A condition of two terms is a binomial, a condition on
one character z of the torus; a unimodular change of coordinates makes
the other condition a Laurent polynomial in one unit s, whose roots come
from the field's own ``nth_roots`` and ``unit_roots``.  Two conditions
of three terms, each affine up to a monomial, meet by Cramer's rule.
Every fine point is checked to be a root of both sources, independently
of the cells: by the hyperfield Kapranov theorem it is one exactly when
0 lies in the base sum of the source's terms of minimal level at the
point, found at the hit's integer point on the source's levels, which
the check scales to integers itself once per call.  Both the scan and
the check decide a base sum with ``poly._zero_in_base_sum``, on powers
from ``poly._power_table``, each by square-and-multiply (in closed form
over K, S and W).  It asks the base's ``sum_contains_zero``: over K and S
a count or a sign test of the terms, and over W, a field or GF(p)/U the
fold of ``nary_sum``.  The point hits are the
transversal meetings, the mixed cells of positive mixed area, so
they are the stable intersection, found without base solving; as start
systems for polyhedral homotopy their mixed areas sum to the mixed volume
of the Newton polygons (tropical Bernstein theorem).

The records (``Interval``, ``Lift``, ``Cell``, ``FineCurve``,
``FinePoint``, ``ComponentDescription``, ``MixedCell``), like the cells'
base conditions (``poly.HPoly``), are named tuples: they are built, hashed
and compared as the tuples of their fields, and assigning a field raises
AttributeError.  The curve and intersection loops build them by
``tuple.__new__``, without the Python-level constructor.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, NamedTuple, Optional

from .extension import ExtElem, TropicalExtension
from .fields import BaseField, BaseSolveError, SolverInvariantError
from .hyperfields import FieldHyperfield, Hyperfield
from .ordgroup import GroupElem, gelem
from .poly import (
    FPoly,
    HPoly,
    _power_table,
    _unit_scan,
    _zero_in_base_sum,
    pushforward,
)
from .series import hom_fval


Vec2 = tuple[Fraction, Fraction]
Expt = tuple[int, int]
_ZERO = Fraction(0)


def _primitive(x: int, y: int) -> tuple[int, int]:
    g = math.gcd(x, y)
    x, y = x // g, y // g
    if x < 0 or (x == 0 and y < 0):
        x, y = -x, -y
    return x, y


class Interval(NamedTuple):
    """Open/closed parameter interval; None bounds are unbounded."""

    lo: Optional[Fraction]
    lo_strict: bool
    hi: Optional[Fraction]
    hi_strict: bool

    def is_empty(self) -> bool:
        if self.lo is None or self.hi is None or self.lo < self.hi:
            return False
        return self.lo > self.hi or self.lo_strict or self.hi_strict


def _tighter(x, x_strict, y, y_strict, sign: int):
    """The tighter of the bounds x and y (None is no bound) with its
    strictness: the larger for sign 1, the smaller for sign -1."""
    if x is None or (y is not None and (y - x) * sign > 0):
        return y, y_strict
    return x, x_strict or (x == y and y_strict)


def _intersect_intervals(a: Interval, b: Interval) -> Interval:
    return Interval(*_tighter(a.lo, a.lo_strict, b.lo, b.lo_strict, 1),
                    *_tighter(a.hi, a.hi_strict, b.hi, b.hi_strict, -1))


class Lift(NamedTuple):
    """The support of a curve with its levels scaled to integers.

    ``lev[d] / scale`` is the level of the coefficient of X^d, so the lifted
    points (d, level_d) of the regular subdivision become integer points
    up to one common factor, and argmin sets are found without fractions.
    ``rows`` holds (d[0], d[1], lev[d]) for each d of the support, in order,
    for the loops over the whole support.
    """

    support: tuple[Expt, ...]  # sorted
    lev: Any  # dict exponent -> int
    scale: int
    rows: tuple[tuple[int, int, int], ...]

    def argmin(self, x: int, y: int, den: int) -> tuple[Expt, ...]:
        """The d minimising level_d + d.g at g = (x, y) / den, den > 0."""
        s = self.scale
        vals = [den * n + s * (d0 * x + d1 * y) for d0, d1, n in self.rows]
        m = min(vals)
        return tuple([d for d, v in zip(self.support, vals) if v == m])

    def tie(self, j0: Expt, d: Expt) -> tuple[int, int, int]:
        """The tie of d with j0 as integers (a, b, n):
        level_d + d.g - level_j0 - j0.g = a*gX + b*gY + n/scale."""
        return d[0] - j0[0], d[1] - j0[1], self.lev[d] - self.lev[j0]


def _lift(p: HPoly) -> Lift:
    """p's support with its rank-one levels scaled to integers by one lcm."""
    support = tuple(sorted(p.coeffs))
    levels = [p.coeffs[d].level.coords[0] for d in support]
    scale = math.lcm(*[x.denominator for x in levels])
    lev = [x.numerator * (scale // x.denominator) for x in levels]
    return Lift(support, dict(zip(support, lev)), scale,
                tuple([(d[0], d[1], n) for d, n in zip(support, lev)]))


class Cell(NamedTuple):
    """One cell of a fine curve: polyhedron plus initial-form condition.

    The polyhedron is relatively open: the points g where the argmin set
    of level_d + d.g is exactly J.  A vertex is its ``point``, an edge the
    open ``interval`` of ``line_p0 + t * line_v``.  The cell also keeps the
    walk's integer geometry, which the walker reads instead of the
    Fractions: a vertex its point as ``ipoint`` (x, y, den), (x, y) / den
    with den > 0; an edge the tie (a, b, n) of J[0] and J[1] on ``lift``
    (``Lift.tie``) and its ``span`` (i, lo, hi).  i is the first nonzero
    coordinate of line_v, and an end (z, den) is the end vertex's
    coordinate i as z / den, so that interval end = z / (den * line_v[i]);
    None is no end.
    """

    J: tuple[Expt, ...]
    dim: int
    point: Optional[Vec2]  # dim 0
    line_p0: Optional[Vec2]  # dim 1: g(t) = p0 + t*v
    line_v: Optional[tuple[int, int]]
    interval: Optional[Interval]
    base_cond: HPoly  # over the base hyperfield, variables = the two units
    lift: Lift  # shared by every cell of the curve
    ipoint: Optional[tuple[int, int, int]]  # dim 0
    tie: Optional[tuple[int, int, int]]  # dim 1
    span: Optional[tuple]  # dim 1

    def param_at(self, t: Fraction) -> Vec2:
        return (self.line_p0[0] + t * self.line_v[0],
                self.line_p0[1] + t * self.line_v[1])


class FineCurve(NamedTuple):
    source: HPoly
    cells: tuple[Cell, ...]


class FinePoint(NamedTuple):
    coords: tuple  # pair of ExtElem


class ComponentDescription(NamedTuple):
    """A positive-dimensional piece of a fine intersection."""

    line_p0: Optional[Vec2]
    line_v: Optional[tuple[int, int]]
    interval: Optional[Interval]
    unit_constraints: tuple  # conjoined base conditions (HPoly pair)
    fixed_units: Any  # the unit pairs (u, v) solved on an overlap, or None
    note: str = ""


# ---------------------------------------------------------------------------
# Curve construction


def _ext_of(p: HPoly) -> TropicalExtension:
    H = p.hyperfield
    if not isinstance(H, TropicalExtension) or H.rank != 1:
        raise ValueError("fine curves need a rank-one tropical extension")
    return H


def _first_tie(lift: Lift, p: Expt, q: Expt, w: tuple[int, int]):
    """The vertex met first walking along the tie line of p and q in the
    direction w, perpendicular to q - p, as ((x, y, den), ties); None on a
    ray.  ``ties`` are the support points, in support order, that tie
    with p and q there.

    It is the tie of p and q with the d, among the support points with
    (d - p).w < 0 (those falling towards p and q along w), whose tie has
    the least w.g, a positive multiple of k/m below: the ties are compared
    by cross-multiplication and only the first is solved, by Cramer's rule.
    Every d at that least ratio ties there.  No other point joins the
    argmin: a point with a larger ratio ties further on, and along the
    edge one with (d - p).w >= 0 that is not on the edge stays above it.
    """
    (p0, p1), (wx, wy), lp = p, w, lift.lev[p]
    ux, uy, rq = q[0] - p0, q[1] - p1, lift.lev[q] - lp
    norm, c, ties = ux * ux + uy * uy, None, []
    for d, (d0, d1, n) in zip(lift.support, lift.rows):
        ex, ey = d0 - p0, d1 - p1
        m = ex * wx + ey * wy
        if m < 0:
            k = (ex * ux + ey * uy) * rq - norm * (n - lp)
            if c is None or k * cm < ck * m:
                c, ck, cm, ties = (ex, ey, n), k, m, [d]
            elif k * cm == ck * m:
                ties.append(d)
    if c is None:
        return None
    # (d - p).g = level_p - level_d for d = q, c: g = (x, y) / (scale * det).
    cx, cy, n = c
    rc = lp - n
    det = ux * cy - uy * cx
    x, y = -rq * cy - rc * uy, ux * rc + cx * rq
    if det < 0:
        x, y, det = -x, -y, -det
    return (x, y, lift.scale * det), ties


def _lower_edge(lift: Lift, a: Expt, u: tuple[int, int]) -> tuple:
    """a and the support points ahead of it on the line a + Q*u with the
    least lifted slope from a: the lower edge that leaves a along u, for u
    with a before every point ahead ((a,) when no point lies ahead)."""
    (a0, a1), la, J, best = a, lift.lev[a], [a], None
    for d, (d0, d1, n) in zip(lift.support, lift.rows):
        ex, ey = d0 - a0, d1 - a1
        k = ex * u[0] + ey * u[1]
        if k > 0 and ex * u[1] == ey * u[0]:
            r = n - la  # the slope is r / k
            if best is None or r * best[1] < best[0] * k:
                J, best = [a, d], (r, k)
            elif r * best[1] == best[0] * k:
                J.append(d)
    return tuple(J)


def _corners(J: tuple) -> list:
    """Corners of conv(J) counter-clockwise from J[0], for sorted J (the
    two ends of a collinear J), by the monotone chain."""
    corners = []
    for chain in (J, J[::-1]):  # lower hull, then upper hull
        part: list = []
        for d in chain:
            while len(part) > 1 and ((part[-1][0] - part[-2][0]) * (d[1] - part[-2][1])
                                     <= (part[-1][1] - part[-2][1]) * (d[0] - part[-2][0])):
                part.pop()
            part.append(d)
        corners += part[:-1]
    return corners


def _walk(lift: Lift):
    """The lower faces of the lifted support, each met once.

    Returns the vertex cells as J -> (x, y, den), the point (x, y) / den
    with den > 0, and the edge cells as J -> their ends [((x, y, den), w)],
    w the direction in which the edge leaves that vertex.  The walk enters
    on the lower edge that leaves the least exponent a along a side of
    Newt(p), a ray, at its first tie walking inward; with no tie the support
    is collinear, and its edges are the chain of lower edges.  Every other
    vertex is the far end of an edge E.  A vertex's J is the points of the
    edge that reaches it with the ties of ``_first_tie``, sorted.
    """
    support, vertices, edges = lift.support, {}, {}
    if len(support) < 2:
        return vertices, edges
    a, b = _corners(support)[:2]
    u = (b[0] - a[0], b[1] - a[1])  # no exponent lies right of a -> b
    J = _lower_edge(lift, a, u)
    first = _first_tie(lift, a, J[1], (u[1], -u[0]))
    if first is None:
        while len(J) > 1:
            edges[J] = []
            J = _lower_edge(lift, J[-1], u)
        return vertices, edges
    # The ray's argmin: the lower edge's points and the first tie's.
    todo = [tuple(sorted(J + tuple(first[1])))]
    vertices[todo[0]] = first[0]
    while todo:
        J = todo.pop()
        corners = _corners(J)
        for p, q in zip(corners, corners[1:] + corners[:1]):
            ux, uy = q[0] - p[0], q[1] - p[1]
            E = tuple(d for d in J if (d[0] - p[0]) * uy == (d[1] - p[1]) * ux)
            new, w = E not in edges, (-uy, ux)
            edges.setdefault(E, []).append((vertices[J], w))
            nxt = new and _first_tie(lift, p, q, w)
            if nxt:
                # The far vertex's argmin: the edge's points and its ties.
                xyd, ties = nxt
                K = tuple(sorted(E + tuple(ties)))
                if K not in vertices:
                    vertices[K] = xyd
                    todo.append(K)
    return vertices, edges


def _edge_line(lift: Lift, J: tuple, ends: list):
    """(p0, v, interval, tie, span) of the edge cell J.

    p0 and v come from the tie of J[0] and J[1]: p0 is where that line
    meets the axis gX = 0 (gY = 0 when it is vertical).  The interval
    starts at an end whose edge leaves along v and stops at one whose edge
    leaves against v; with no end (a collinear support) it is the line.
    The span keeps those ends as integers (``Cell``), and each Fraction is
    built once from them.
    """
    a, b, n = tie = lift.tie(J[0], J[1])
    if b:
        p0 = (_ZERO, Fraction(-n, lift.scale * b))
    else:
        p0 = (Fraction(-n, lift.scale * a), _ZERO)
    v = _primitive(-b, a)
    i = 0 if v[0] else 1
    lo = hi = None
    for xyd, w in ends:
        if w[0] * v[0] + w[1] * v[1] > 0:  # the end is the low one
            lo = (xyd[i], xyd[2])
        else:
            hi = (xyd[i], xyd[2])
    u = v[i]
    interval = tuple.__new__(Interval, (
        None if lo is None else Fraction(lo[0], lo[1] * u), lo is not None,
        None if hi is None else Fraction(hi[0], hi[1] * u), hi is not None))
    return p0, v, interval, tie, (i, lo, hi)


def fine_hypersurface(p: HPoly) -> FineCurve:
    """Cells of the corner locus with their initial-form conditions.

    Cells are read off the regular subdivision of the Newton polygon on
    the integer-scaled levels by one walk over its lower faces, with edge
    intervals ending at their vertices; each cell keeps the walk's
    integers next to its Fractions.  Cells are sorted by (len(J), J).
    """
    E = _ext_of(p)
    if p.nvars != 2:
        raise ValueError("plane curves only")
    if not p.coeffs:
        raise ValueError("zero polynomial")
    lift = _lift(p)
    vertices, edges = _walk(lift)
    B, coeffs, cells = E.base, p.coeffs, []
    for J in sorted([*vertices, *edges], key=lambda J: (len(J), J)):
        # The coefficients of p are units, so no zero check is needed, and
        # the dict is the condition's own.
        base_cond = tuple.__new__(HPoly, (B, 2, {d: coeffs[d].coef for d in J}))
        if J in vertices:
            x, y, den = xyd = vertices[J]
            cells.append(tuple.__new__(Cell, (
                J, 0, (Fraction(x, den), Fraction(y, den)), None, None, None,
                base_cond, lift, xyd, None, None)))
        else:
            p0, v, interval, tie, span = _edge_line(lift, J, edges[J])
            cells.append(tuple.__new__(Cell, (
                J, 1, None, p0, v, interval, base_cond, lift, None, tie, span)))
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


def solve_base_pair(H: Hyperfield, condA: HPoly, condB: HPoly):
    """Unit solutions of two initial-form conditions.

    Returns ("points", [(u, v), ...]) or ("family", note) when the
    solutions form a positive-dimensional family.  A base with finitely
    many units is scanned over every unit pair (``poly._unit_scan``).  Over
    a field a condition with one term has no unit solution, and one with
    two terms is a binomial u^delta = w, a condition on one character of
    the torus: with delta = g*(a, b) and x*a + y*b = 1, the unimodular
    change z = u^a v^b, s = u^-y v^x (u = z^x s^-b, v = z^y s^a) makes it
    z^g = w, and at each such z the other condition is a Laurent
    polynomial in s alone (Eisenbud-Sturmfels, Binomial ideals, 1996).  Its
    unit roots, by ``nth_roots`` for two terms and ``unit_roots`` for
    more, give the points; where it vanishes the pair is a family, and a
    family at one z with points at another raises BaseSolveError.  Two
    conditions of three or more terms must each be affine, a*u + b*v + c,
    once divided by its least monomial; they meet by Cramer's rule, or are
    one condition when proportional.  Any other shape raises
    BaseSolveError.
    """
    units = H.units()
    if units is not None:
        return ("points", _unit_scan(H, units, (condA.coeffs, condB.coeffs)))
    if not isinstance(H, FieldHyperfield):
        raise BaseSolveError(f"base solving unsupported over {H.name}")
    F, A, B = H.field, condA.coeffs, condB.coeffs
    if len(A) == 1 or len(B) == 1:
        return ("points", [])
    if len(A) > 2:
        A, B = B, A
    if len(A) == 2:
        return _eliminate(F, A, B)
    (a1, b1, c1), (a2, b2, c2) = _affine(condA), _affine(condB)
    det = F.sub(F.mul(a1, b2), F.mul(a2, b1))
    if F.is_zero(det):
        # Every coefficient is a unit, so the rows are proportional, one
        # condition, exactly when their constants are in the same ratio.
        if F.is_zero(F.sub(F.mul(a1, c2), F.mul(a2, c1))):
            return ("family", "one affine condition, one free unit")
        return ("points", [])
    u = F.div(F.sub(F.mul(b1, c2), F.mul(b2, c1)), det)
    v = F.div(F.sub(F.mul(a2, c1), F.mul(a1, c2)), det)
    return ("points", [] if F.is_zero(u) or F.is_zero(v) else [(u, v)])


def _affine(cond: HPoly) -> tuple:
    """(a, b, c) with cond = m * (a*u + b*v + c), m its least monomial."""
    m = min(cond.coeffs)
    row = {(d[0] - m[0], d[1] - m[1]): c for d, c in cond.coeffs.items()}
    if set(row) != {(0, 0), (1, 0), (0, 1)}:
        raise BaseSolveError(f"base condition outside supported shapes: {cond}")
    return row[(1, 0)], row[(0, 1)], row[(0, 0)]


# The largest power that ``_eliminate`` forms of a unit other than a root
# of unity: beyond it the power's numerator and denominator run to
# megabytes and the product for minutes.
MAX_SUBSTITUTED_EXPONENT = 10 ** 5


def _eliminate(F: BaseField, binomial: dict, other: dict):
    """The unit solutions of the binomial and the other condition, by the
    unimodular change of ``solve_base_pair``.

    BaseSolveError when a power beyond ``MAX_SUBSTITUTED_EXPONENT`` is
    needed, or when the other condition vanishes at some z and has unit
    roots at another: a family and isolated points are not one result.
    """
    (e1, c1), (e2, c2) = sorted(binomial.items())
    g, x, y = _bezout(e2[0] - e1[0], e2[1] - e1[1])
    a, b = (e2[0] - e1[0]) // g, (e2[1] - e1[1]) // g
    out, family = [], False
    for z in F.nth_roots(F.neg(F.div(c1, c2)), g):
        # u^d = z^(x*d0 + y*d1) * s^(a*d1 - b*d0).
        coeffs: dict[int, Any] = {}
        for d, c in other.items():
            k = a * d[1] - b * d[0]
            t = F.mul(c, _power(F, z, x * d[0] + y * d[1]))
            coeffs[k] = F.add(coeffs[k], t) if k in coeffs else t
        coeffs = {k: c for k, c in coeffs.items() if not F.is_zero(c)}
        if not coeffs:
            family = True
            continue
        if len(coeffs) == 1:
            continue
        if len(coeffs) == 2:
            (k1, s1), (k2, s2) = sorted(coeffs.items())
            roots = F.nth_roots(F.neg(F.div(s1, s2)), k2 - k1)
        else:
            roots = F.unit_roots(coeffs)
        # Distinct (z, s) give distinct (u, v): the change is invertible.
        out += [(F.mul(_power(F, z, x), _power(F, s, -b)),
                 F.mul(_power(F, z, y), _power(F, s, a))) for s in roots]
    if family and out:
        raise BaseSolveError(f"a family and isolated points ({len(out)}) "
                             f"on the binomial")
    if family:
        return ("family", "the other condition vanishes on the binomial")
    return ("points", out)


def _power(F: BaseField, z, e: int):
    """z^e; BaseSolveError when |e| exceeds ``MAX_SUBSTITUTED_EXPONENT``
    and z is not a root of unity (in Q(i), z^4 = 1)."""
    if abs(e) > MAX_SUBSTITUTED_EXPONENT and F.power(z, 4) != F.one():
        raise BaseSolveError(f"power {e} of {F.fmt(z)} exceeds "
                             f"{MAX_SUBSTITUTED_EXPONENT}")
    return F.power(z, e)


def _bezout(m: int, n: int) -> tuple[int, int, int]:
    """(g, x, y) with x*m + y*n = g = gcd(m, n) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while n:
        q, m, n = m // n, n, m % n
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (m, x0, y0) if m >= 0 else (-m, -x0, -y0)


# ---------------------------------------------------------------------------
# Intersection


def _in_span(span, x: int, y: int, den: int) -> bool:
    """Whether (x, y) / den, den > 0, on an edge's tie line lies strictly
    inside the edge's ``span``: ends are strict, since a crossing at an
    end is the vertex's, found by the vertex lookup."""
    i, lo, hi = span
    z = y if i else x
    return ((lo is None or lo[0] * den < z * lo[1])
            and (hi is None or z * hi[1] < hi[0] * den))


def _cell_hits(C1: FineCurve, C2: FineCurve):
    """Meeting cells of two fine curves, in the order of C1.cells x C2.cells.

    Yields (c1, c2, hit) with hit ("point", g, (x, y, den)), the point g
    also as the integers g = (x, y) / den with den > 0, or ("segment", c1,
    overlap).  The walker reads the cells' integer geometry only.  Cells
    are relatively open and disjoint, so a vertex of either curve meets at
    most the one cell of the other whose J is the argmin set at the
    vertex's ``ipoint``: one argmin per vertex.  Two edges with crossing
    ties meet at the integer Cramer point of their ties when it lies
    strictly inside both edges' spans, two cross-multiplications per edge
    (``_in_span``); edges whose ties are proportional across the two lift
    scales lie on one line, and meet where their intervals overlap.  These
    pairs are the cells of the mixed subdivision of Newt(P) + Newt(Q).
    """
    if not C1.cells or not C2.cells:
        return
    lift1, lift2 = C1.cells[0].lift, C2.cells[0].lift  # shared by all cells
    index1 = {c.J: k for k, c in enumerate(C1.cells)}
    index2 = {c.J: k for k, c in enumerate(C2.cells)}
    on_edge1 = {k: [] for k, c in enumerate(C1.cells) if c.dim == 1}
    for k2, c2 in enumerate(C2.cells):
        if c2.dim == 0:
            k1 = index1.get(lift1.argmin(*c2.ipoint))
            if k1 in on_edge1:  # vertex on vertex is found from C1's side
                on_edge1[k1].append((k2, ("point", c2.point, c2.ipoint)))
    # A tie (a, b, n) on a lift of scale s is the line a*gX + b*gY + n/s = 0:
    # with both constants brought to the scale s1 * s2, n1 * s2 and n2 * s1.
    s1, s2 = lift1.scale, lift2.scale
    edges2 = []
    for k2, c2 in enumerate(C2.cells):
        if c2.dim == 1:
            a2, b2, n2 = c2.tie
            edges2.append((k2, c2, a2, b2, n2 * s1, c2.span))
    for k1, c1 in enumerate(C1.cells):
        if c1.dim == 0:
            k2 = index2.get(lift2.argmin(*c1.ipoint))
            if k2 is not None:
                yield c1, C2.cells[k2], ("point", c1.point, c1.ipoint)
            continue
        hits = on_edge1[k1]
        a1, b1, n1 = c1.tie
        m1, span1, scale = n1 * s2, c1.span, s1 * s2
        for k2, c2, a2, b2, m2, span2 in edges2:
            # Cramer's rule: (x, y) / den with den = scale * det.
            det = a1 * b2 - a2 * b1
            x, y = b1 * m2 - b2 * m1, a2 * m1 - a1 * m2
            if det:
                den = scale * det
                if den < 0:
                    den, x, y = -den, -x, -y
                if _in_span(span1, x, y, den) and _in_span(span2, x, y, den):
                    hits.append((k2, ("point", (Fraction(x, den),
                                                Fraction(y, den)),
                                      (x, y, den))))
            elif not x and not y:
                # Parallel ties are one line exactly when they are
                # proportional, constants included.
                overlap = _intersect_intervals(c1.interval, c2.interval)
                if not overlap.is_empty():
                    hits.append((k2, ("segment", c1, overlap)))
        hits.sort(key=lambda h: h[0])
        for k2, hit in hits:
            yield c1, C2.cells[k2], hit


def _is_fine_root(B: Hyperfield, p: HPoly, lift: Lift, g, u, v) -> bool:
    """Whether the fine point (u, v) at the levels g = (x, y) / den, den > 0,
    is a root of p, whose levels ``lift`` holds scaled: by the hyperfield
    Kapranov theorem, whether 0 lies in the base sum over the argmin at g.
    The caller's ``lift`` is its own scaling of p, not a cell's."""
    J = lift.argmin(*g)
    return _zero_in_base_sum(B, [(d, p.coeffs[d].coef) for d in J],
                             (_power_table(B, u, {d[0] for d in J}),
                              _power_table(B, v, {d[1] for d in J})))


def fine_intersect(C1: FineCurve, C2: FineCurve):
    """Intersect two fine curves: (isolated FinePoints, components).

    The meeting cell pairs come from ``_cell_hits``: vertex lookups on
    the integer-scaled levels and crossings tested against the edges'
    integer spans, instead of a scan of every pair; each pair's base
    conditions are then solved together.  Every fine point is checked to
    be a root of both sources (``_is_fine_root``, the hyperfield Kapranov
    theorem) and a point that is not raises SolverInvariantError.  The
    check stays independent of the cells: each source's levels are scaled
    to integers once per call from the source itself, and at each fine
    point the check takes the argmin of those levels at the hit's integer
    point and sums the base terms over it, so no extension element is
    built or added.
    """
    E = _ext_of(C1.source)
    H = E.base
    checks = [(C.source, _lift(C.source)) for C in (C1, C2)]
    points: list[FinePoint] = []
    comps: list[ComponentDescription] = []
    seen_pts = set()
    for c1, c2, hit in _cell_hits(C1, C2):
        kind, sols = solve_base_pair(H, c1.base_cond, c2.base_cond)
        if hit[0] == "point":
            _, g, xyd = hit
            if kind == "family":
                comps.append(ComponentDescription(
                    None, None, None, (c1.base_cond, c2.base_cond), None,
                    note=f"unit family at ({g[0]}, {g[1]}): {sols}"))
                continue
            gx = tuple.__new__(GroupElem, ((g[0],),))
            gy = tuple.__new__(GroupElem, ((g[1],),))
            for (u, v) in sols:
                key = (u, v, g)
                if key in seen_pts:
                    continue
                seen_pts.add(key)
                pt = tuple.__new__(FinePoint, ((tuple.__new__(ExtElem, (u, gx)),
                                                tuple.__new__(ExtElem, (v, gy))),))
                for p, lift in checks:
                    if not _is_fine_root(H, p, lift, xyd, u, v):
                        raise SolverInvariantError(
                            f"fine point {pt.coords} is not a root of {p}")
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
# Stable intersections and homotopy start systems


def stable_intersect(C1: FineCurve, C2: FineCurve) -> list[Vec2]:
    """The stable intersection of the two tropical curves, sorted.

    It is the set of points where a cell of one curve meets a cell of the
    other transversally, the mixed cells of positive mixed area
    (Maclagan-Sturmfels, Introduction to Tropical Geometry, Sec. 3.6;
    Jensen-Yu, Stable intersections of tropical varieties, 2016): the
    point hits of ``_cell_hits``.  Edges on one line have mixed area 0.
    No base condition is solved.
    """
    return sorted({hit[1] for _, _, hit in _cell_hits(C1, C2)
                   if hit[0] == "point"})


class MixedCell(NamedTuple):
    """A point hit of two curves as a cell of the mixed subdivision.

    ``volume`` is the mixed area MV(conv J1, conv J2) (``_mixed_area``);
    ``solutions`` holds the fine points of the pair's base system, and is
    empty when the base field holds no solution.
    """

    point: Vec2
    J1: tuple
    J2: tuple
    volume: int
    solutions: tuple


def _mixed_area(J1, J2) -> int:
    """MV(conv J1, conv J2) = area(J1 + J2) - area(J1) - area(J2), each
    area by the shoelace formula on the corners (Huber-Sturmfels, A
    polyhedral method for solving sparse polynomial systems, 1995)."""
    def area2(J) -> int:  # twice the area of conv(J)
        c = _corners(sorted(J))
        return sum(p[0] * q[1] - p[1] * q[0] for p, q in zip(c, c[1:] + c[:1]))

    total = {(a[0] + b[0], a[1] + b[1]) for a in J1 for b in J2}
    return (area2(total) - area2(J1) - area2(J2)) // 2


def homotopy_start(P: FPoly, Q: FPoly):
    """Start solutions of a 2x2 polyhedral homotopy from the fine curves.

    Every point hit of ``_cell_hits`` is a mixed cell, whose volume is the
    mixed area of its two cells: by the tropical Bernstein theorem the
    volumes sum to the mixed volume of the two Newton polygons.  A cell's
    start solutions are the unit solutions of its base system in the base
    field, so ``start_solutions`` counts those found and may fall short of
    ``mixed_volume``.  A family of unit solutions, or a consistent base
    system on a one-dimensional overlap, is no start cell: ValueError
    names the pair, its hit kind and the family note or the solutions.
    """
    f = hom_fval(P.domain.field)
    C1 = fine_hypersurface(pushforward(f, P))
    C2 = fine_hypersurface(pushforward(f, Q))
    H = f.target.base
    cells: list[MixedCell] = []
    for c1, c2, hit in _cell_hits(C1, C2):
        kind, sols = solve_base_pair(H, c1.base_cond, c2.base_cond)
        if kind == "family" or (hit[0] == "segment" and sols):
            found = (f"a unit family ({sols})" if kind == "family" else
                     "unit solutions on the overlap: " + ", ".join(
                         f"({H.fmt(u)}, {H.fmt(v)})" for u, v in sols))
            raise ValueError(f"cells J1={c1.J} and J2={c2.J} meet in a "
                             f"{hit[0]} hit with {found}: not a start cell")
        if hit[0] == "segment":
            continue
        g = hit[1]
        pts = tuple(
            FinePoint((ExtElem(u, gelem(g[0])), ExtElem(v, gelem(g[1]))))
            for (u, v) in sols
        )
        cells.append(MixedCell(g, c1.J, c2.J, _mixed_area(c1.J, c2.J), pts))
    solutions = [p for cell in cells for p in cell.solutions]
    report = {
        "cells": len(cells),
        "mixed_volume": sum(c.volume for c in cells),
        "start_solutions": len(solutions),
    }
    return solutions, cells, report

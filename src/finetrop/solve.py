"""Univariate root solving over tropical extensions.

The strategy is the structural one: a root (x, h) exists exactly when the
levels g_i + i*h of the monomials attain their minimum at least twice on
an index set J and x solves the restricted sum over the base hyperfield.
The cells (h, J) are the edges of the lower convex hull of the points
(i, level of c_i): h is minus the slope of an edge and J every point on
it, found in one monotone-chain pass.  Base solving is exact: a field
without finitely many units asks its field for the unit roots
(``BaseField.unit_roots``), any other base with finitely many units is
scanned over them, and a phase base raises ``BaseSolveError``.

Baker-Lorscheid multiplicities reduce to the base: a root (c, h) on the
Newton cell (h, J) has the multiplicity of c in the initial form
sum_{j in J} c_j x^j over the base hyperfield.  Base multiplicities come
from the quotients of division by x - a alone, one memoised recursion that
over a field is plain synthetic division: by Lemma A of Baker-Lorscheid
(2021) a unit a is a root of p exactly when p has such a quotient, so no
level of the recursion evaluates p.

Also: multiplicity-bound checks, instance-level relative-algebraic-closedness
checks, and the Kapranov / fundamental-theorem verification harnesses.
``solve_linear_2x2`` is the full series solve of a 2x2 linear system; the
fundamental harness shares its Cramer step but, since an enriched valuation
reads only a leading term, divides out one term of each coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Optional

from .extension import ExtElem, TropicalExtension
from .fields import BaseField, BaseSolveError, QQ
from .hyperfields import (
    FieldHyperfield,
    Hom,
    Hyperfield,
    PhaseHyperfield,
)
from .ordgroup import GroupElem, group_div, group_sub, scalar_mul
from .poly import (
    FPoly,
    HPoly,
    ZeroPowerError,
    fpoly,
    hpoly1,
    initial_support,
    is_root,
    prevariety_member,
    product_of_linear_factors,
    pushforward,
)
from .series import (
    SeriesDomain,
    SeriesTrunc,
    hom_val,
    series,
    series_div,
    series_div_lead,
    series_mul,
    series_sub,
)


DEFAULT_DEGREE_BOUND = 8


@dataclass(frozen=True)
class NewtonCell:
    """Candidate root level h with the index set J attaining the minimum."""

    level: GroupElem
    J: tuple[int, ...]


@dataclass(frozen=True)
class RootRecord:
    root: Any  # ExtElem or None for the zero root
    multiplicity: int
    provenance: str


def _univariate_coeffs(p: HPoly) -> dict[int, Any]:
    if p.nvars != 1:
        raise ValueError("univariate polynomial expected")
    return {d[0]: c for d, c in p.coeffs.items()}


def newton_cells(p: HPoly) -> list[NewtonCell]:
    """All (h, J) with min_i(level(c_i) + i*h) attained at least twice.

    They are the edges of the lower convex hull of the points
    (i, level(c_i)): h is minus the slope of an edge and J is every point
    on it.  The cells come out in increasing level.
    """
    H = p.hyperfield
    if not isinstance(H, TropicalExtension):
        raise ValueError("newton_cells needs a tropical extension")
    coeffs = _univariate_coeffs(p)
    hull: list[tuple[int, GroupElem]] = []
    for i in sorted(coeffs):
        g = coeffs[i].level
        # Pop the last hull point b while it lies strictly above the chord
        # from the point a before it to (i, g).  Points on the chord stay,
        # so an edge keeps all its collinear points.
        while len(hull) >= 2:
            (a, ga), (b, gb) = hull[-2], hull[-1]
            rise_b = scalar_mul(i - a, group_sub(gb, ga))
            if rise_b <= scalar_mul(b - a, group_sub(g, ga)):
                break
            hull.pop()
        hull.append((i, g))
    cells: list[NewtonCell] = []
    for (a, ga), (b, gb) in zip(hull, hull[1:]):
        h = group_div(group_sub(ga, gb), b - a)
        if cells and cells[-1].level == h:
            cells[-1] = NewtonCell(h, cells[-1].J + (b,))
        else:
            cells.append(NewtonCell(h, (a, b)))
    cells.reverse()  # the slopes rise along the hull, so the levels fall
    return cells


# ---------------------------------------------------------------------------
# Base solving


class SolverInvariantError(RuntimeError):
    """The solver's own result failed its check: a bug, not a bad input."""


def base_roots(H: Hyperfield, coeffs: dict[int, Any]) -> list:
    """Solve 0 in sum of c_j x^j over the base hyperfield, x a unit.

    A base with finitely many units is scanned over them and a field asks
    its ``unit_roots``; any other base, such as a phase hyperfield, raises
    BaseSolveError.
    """
    coeffs = {j: c for j, c in coeffs.items() if not H.is_zero(c)}
    if not coeffs:
        raise ValueError("no nonzero coefficients")
    units = H.units()
    if units is not None:
        # The sum is evaluated here rather than through is_root, which
        # stays the independent check that roots_univariate applies.  It
        # is shifted by x^-lo, a unit, so one running power serves.
        lo = min(0, *coeffs)
        top = max(coeffs) - lo
        out = []
        for x in units:
            pw = [H.one(), *H.powers(x, top)]
            terms = [H.mul(c, pw[j - lo]) for j, c in coeffs.items()]
            if H.set_contains_zero(H.nary_sum(terms)):
                out.append(x)
        return out
    if isinstance(H, FieldHyperfield):
        return H.field.unit_roots(coeffs)
    raise BaseSolveError(f"base solve incomplete over {H.name}")


# ---------------------------------------------------------------------------
# Multiplicities


def multiplicity(p: HPoly, a) -> int:
    """Root multiplicity of a (0 when a is not a root).

    At zero it is the least exponent of p.  Over a tropical extension a
    nonzero a = (c, h) makes the levels attain their minimum on an index
    set J, and its multiplicity is the base multiplicity of c in the
    initial form sum_{j in J} c_j x^j over the base hyperfield.

    The coefficients are then shifted by their least exponent, which
    multiplies by a unit, and the degree bound applies to the result.  By
    Lemma A of Baker-Lorscheid ("Descartes' rule of signs, Newton polygons,
    and polynomials over hyperfields", 2021) a unit a is a root exactly
    when p has a quotient by x - a, so the multiplicity is 0 without a
    quotient and otherwise 1 + the maximum over the quotients: no
    evaluation is needed.  Over a field every sum is a singleton, so this
    is plain synthetic division.  Phase bases raise BaseSolveError.
    """
    H = p.hyperfield
    coeffs = _univariate_coeffs(p)
    if not coeffs:
        return 0
    if H.is_zero(a):
        lo = min(coeffs)
        if lo < 0:
            raise ZeroPowerError("0^k undefined for negative k")
        return lo
    if isinstance(H, TropicalExtension):
        J = [d[0] for d in initial_support(p, (a,), p.support)]
        H, a = H.base, a.coef
        coeffs = {j: coeffs[j].coef for j in J}
    lo = min(coeffs)
    n = max(coeffs) - lo
    if n > DEFAULT_DEGREE_BOUND:
        raise ValueError(f"degree {n} exceeds the bound {DEFAULT_DEGREE_BOUND}")
    if isinstance(H, PhaseHyperfield):
        raise BaseSolveError(f"multiplicity over {H.name} is not supported")
    memo: dict[tuple, int] = {}

    def m(c: tuple) -> int:
        if c not in memo:
            memo[c] = max((1 + m(q) for q in _quotients(H, c, a)), default=0)
        return memo[c]

    return m(tuple(coeffs.get(lo + i, H.zero()) for i in range(n + 1)))


def _quotients(H: Hyperfield, c: tuple, a) -> set[tuple]:
    """All quotients (q_0, ..., q_{n-1}) of c_0 + ... + c_n x^n by x - a.

    q_{n-1} = c_n, q_{i-1} ranges over c_i + a q_i, and a quotient is kept
    when c_0 = -a q_0.  Zero is an ordinary coefficient here: a zero in
    c_i + a q_i is a choice of q_{i-1} like any other.  A constant has no
    quotients.
    """
    n = len(c) - 1
    neg_a = H.neg(a)
    out: set[tuple] = set()

    def rec(q: tuple):
        # q = (q_i, ..., q_{n-1}); choose q_{i-1} in c_i + a q_i.
        i = n - len(q)
        if i == 0:
            if H.mul(neg_a, q[0]) == c[0]:
                out.add(q)
            return
        for x in H.set_elements(H.add(c[i], H.mul(a, q[0]))):
            rec((x,) + q)

    if n > 0:
        rec((c[n],))
    return out


def roots_univariate(p: HPoly) -> list[RootRecord]:
    """All roots over a tropical extension, with multiplicities."""
    H = p.hyperfield
    if not isinstance(H, TropicalExtension):
        raise ValueError("roots_univariate needs a tropical extension")
    coeffs = _univariate_coeffs(p)
    if not coeffs:
        raise ValueError("zero polynomial")
    out: list[RootRecord] = []
    i0 = min(coeffs)
    if i0 > 0:
        out.append(RootRecord(None, i0, "zero root: no constant term"))
    # Newton cells have distinct levels and base_roots returns distinct
    # units, so every root below is new.
    for cell in newton_cells(p):
        # The root (x, h) has the multiplicity of x in the cell's initial form.
        sub = {j - cell.J[0]: coeffs[j].coef for j in cell.J}
        form = hpoly1(H.base, sub)
        for x in base_roots(H.base, sub):
            r = ExtElem(x, cell.level)
            if not is_root(p, (r,)):
                raise SolverInvariantError(f"solver produced a non-root {r} of {p}")
            out.append(RootRecord(r, multiplicity(form, x),
                                  f"cell h={cell.level} J={cell.J}"))
    return out


# ---------------------------------------------------------------------------
# Multiplicity bound


def random_hpoly(H: Hyperfield, rng, deg: int) -> HPoly:
    coeffs = {}
    for i in range(deg + 1):
        if rng.random() < 0.35 and i != deg:
            continue
        coeffs[i] = _random_unit(H, rng)
    if not coeffs:
        coeffs[deg] = _random_unit(H, rng)
    return hpoly1(H, coeffs)


def _random_unit(H: Hyperfield, rng):
    while True:
        x = H.random_element(rng)
        if not H.is_zero(x):
            return x


def mult_bound_check(H: Hyperfield, rng, trials: int = 100, deg: int = 6) -> list[str]:
    """Sampled check of: sum of root multiplicities <= degree.

    Roots over a tropical extension come from ``roots_univariate``; any
    other hyperfield sums the multiplicities at all its elements, so one
    with infinitely many units raises BaseSolveError.
    """
    extension = isinstance(H, TropicalExtension)
    if not extension and H.units() is None:
        raise BaseSolveError(
            f"multiplicity bound check needs a tropical extension or finitely "
            f"many units; {H.name} has infinitely many")
    failures = []
    for _ in range(trials):
        d = rng.randint(1, deg)
        p = random_hpoly(H, rng, d)
        if extension:
            total = sum(r.multiplicity for r in roots_univariate(p))
        else:
            total = sum(multiplicity(p, x) for x in H.elements())
        if total > p.degree():
            failures.append(f"bound violated: {p} has mult sum {total}")
    return failures


# ---------------------------------------------------------------------------
# Relative algebraic closedness, instance level


@dataclass
class RacResult:
    status: str  # "lift" | "counterexample" | "not_found"
    witness: Any
    detail: str = ""


def rac_check_instance(f: Hom, p: HPoly, beta, corpus: Optional[list] = None) -> RacResult:
    """Search the fiber of beta for a root of p; exhaustive when possible."""
    H = f.target
    src = f.source
    # Finite hyperfield source: exhaustive, definitive either way.
    if isinstance(src, Hyperfield) and src.elements() is not None:
        for alpha in src.elements():
            if f(alpha) == beta and is_root(p, (alpha,)):
                return RacResult("lift", alpha)
        return RacResult("counterexample", None, "fiber exhausted")
    # Extension of a finite-based hyperfield along a coefficientwise map.
    if isinstance(src, TropicalExtension) and src.base.elements() is not None:
        if beta is None:
            if is_root(p, (None,)):
                return RacResult("lift", None)
            return RacResult("counterexample", None, "zero is not a root")
        for c in src.base.units():
            alpha = ExtElem(c, beta.level)
            if f(alpha) == beta and is_root(p, (alpha,)):
                return RacResult("lift", alpha)
        return RacResult("counterexample", None, "fiber exhausted at this level")
    # Rational source: rational-root search, definitive up to degree two.
    if isinstance(src, FieldHyperfield) and src.field is QQ or src is QQ:
        field_poly = {i: c for (i,), c in p.coeffs.items()}
        roots = [Fraction(0)] if 0 not in field_poly else []
        roots += QQ.unit_roots(field_poly) if field_poly else []
        for alpha in roots:
            if f(alpha) == beta:
                return RacResult("lift", alpha)
        deg = max(field_poly)
        if deg <= 2:
            if deg == 2:
                a2 = field_poly.get(2, Fraction(0))
                a1 = field_poly.get(1, Fraction(0))
                a0 = field_poly.get(0, Fraction(0))
                disc = a1 * a1 - 4 * a2 * a0
                if disc < 0:
                    return RacResult(
                        "counterexample", None,
                        f"discriminant {disc} < 0: no real root at all")
            return RacResult("counterexample", None, "no rational root in the fiber")
        return RacResult("not_found", None, "rational search exhausted (degree > 2)")
    # Series source: search a supplied corpus of candidate series.
    if isinstance(src, SeriesDomain):
        for alpha in corpus or []:
            img = f(alpha)
            same = (img is None and beta is None) or (
                img is not None and beta is not None and img == beta)
            if same and is_root(p, (alpha,)):
                return RacResult("lift", alpha)
        return RacResult("not_found", None, "not found in corpus")
    raise ValueError(f"unsupported fiber search for source {src!r}")


# ---------------------------------------------------------------------------
# Harnesses


def random_series_root(field: BaseField, rng, denom: int = 4, prec=None) -> SeriesTrunc:
    n = rng.randint(0, 2)
    terms = []
    for _ in range(n + (0 if rng.random() < 0.15 else 1)):
        e = Fraction(rng.randint(-2, 6), rng.randint(1, denom))
        while True:
            c = field.random(rng)
            if not field.is_zero(c):
                break
        terms.append((e, c))
    return series(field, terms, prec)


def kapranov_harness(f: Hom, rng, trials: int = 200, max_factors: int = 5,
                     denom: int = 4) -> list[str]:
    """Push-forward roots of products of linear factors match the images.

    For each trial, p = prod (X - a_i) over the series field is expanded
    exactly; the solver's root multiset of the push-forward must equal the
    multiset of images f(a_i).  A target whose base has infinitely many
    units and is not a field, such as a phase base, cannot be solved over,
    so it raises BaseSolveError up front.
    """
    base = f.target.base
    if base.units() is None and not isinstance(base, FieldHyperfield):
        raise BaseSolveError(f"base solve incomplete over {base.name}")
    failures = []
    dom: SeriesDomain = f.source
    for trial in range(trials):
        k = rng.randint(1, max_factors)
        roots = [random_series_root(dom.field, rng, denom) for _ in range(k)]
        p = product_of_linear_factors(dom, roots)
        hp = pushforward(f, fpoly(dom, 1, p.coeffs))
        try:
            recs = roots_univariate(hp)
        except BaseSolveError as e:
            failures.append(f"trial {trial}: solver error {e}")
            continue
        got: dict = {}
        for r in recs:
            got[_root_key(f.target, r.root)] = got.get(_root_key(f.target, r.root), 0) + r.multiplicity
        want: dict = {}
        for a in roots:
            img = f(a)
            want[_root_key(f.target, img)] = want.get(_root_key(f.target, img), 0) + 1
        if got != want:
            failures.append(
                f"trial {trial}: roots {sorted(map(str, roots))} -> got {got}, want {want}")
    return failures


def _root_key(H: Hyperfield, r):
    return "0" if r is None else H.fmt(r)


def random_linear_system(dom: SeriesDomain, rng, denom: int = 4):
    """A random tropically 0-dimensional 2x2 linear system.

    Coefficients are unit series; pairs whose tropical lines share a ray
    are resampled, since those are not 0-dimensional systems.
    """
    from .tropgeo import fine_hypersurface, fine_intersect

    def unit():
        terms = []
        for _ in range(rng.randint(1, 3)):
            e = Fraction(rng.randint(-2, 6), rng.randint(1, denom))
            while True:
                c = dom.field.random(rng)
                if not dom.field.is_zero(c):
                    break
            terms.append((e, c))
        return series(dom.field, terms)

    def lin():
        return fpoly(dom, 2, {(1, 0): unit(), (0, 1): unit(), (0, 0): unit()})

    v = hom_val(dom.field)
    while True:
        P, Q = lin(), lin()
        _, comps = fine_intersect(fine_hypersurface(pushforward(v, P)),
                                  fine_hypersurface(pushforward(v, Q)))
        if not comps:
            return P, Q


def _cramer(P: FPoly, Q: FPoly) -> tuple[SeriesTrunc, SeriesTrunc, SeriesTrunc]:
    """Cramer numerators and determinant (nx, ny, det) of
    a X + b Y + c = 0, d X + e Y + g = 0 over series; raises ValueError when
    the determinant vanishes."""
    dom = P.domain

    def coef(p: FPoly, d):
        return p.coeffs.get(d, dom.zero())

    a, b, c = coef(P, (1, 0)), coef(P, (0, 1)), coef(P, (0, 0))
    d_, e, g = coef(Q, (1, 0)), coef(Q, (0, 1)), coef(Q, (0, 0))
    det = series_sub(series_mul(a, e), series_mul(b, d_))
    if det.is_zero():
        raise ValueError("no isolated solution: determinant vanishes")
    nx = series_sub(series_mul(b, g), series_mul(c, e))
    ny = series_sub(series_mul(c, d_), series_mul(a, g))
    return nx, ny, det


def solve_linear_2x2(P: FPoly, Q: FPoly, prec=8) -> tuple[SeriesTrunc, SeriesTrunc]:
    """Cramer solution of a X + b Y + c = 0, d X + e Y + g = 0 over series.

    Each coordinate is its numerator divided by the determinant to
    O(t^prec), one ``series_div`` recurrence over the terms it keeps; the
    determinant is never inverted on its own.  This is the full solve;
    ``fundamental_harness`` reads only the first term of each quotient.
    """
    nx, ny, det = _cramer(P, Q)
    return series_div(nx, det, prec), series_div(ny, det, prec)


def _solution_image(f: Hom, P: FPoly, Q: FPoly, prec=8) -> tuple:
    """f of both coordinates of the solution of (P, Q) to O(t^prec).

    An enriched valuation reads only a leading term, so each coordinate is
    its quotient cut to its first term (``series_div_lead``): the image
    of ``solve_linear_2x2`` without expanding the quotients.  Raises
    ValueError, PrecisionError included, where that solve and f would.
    """
    nx, ny, det = _cramer(P, Q)
    return f(series_div_lead(nx, det, prec)), f(series_div_lead(ny, det, prec))


def fundamental_harness(f: Hom, systems: Iterable[tuple[FPoly, FPoly]],
                        prec=8) -> list[str]:
    """Both sides of the push-forward variety equality, on 2x2 linear systems.

    The series side solves by Cramer elimination and applies f, reading
    one term of each coordinate (``_solution_image``); the hyperfield side
    intersects the two fine curves of the pushed generators.  The two
    point sets must agree exactly.  A system whose determinant vanishes or
    whose solution is not known to a leading term below O(t^prec) is
    reported as that system's failure.
    """
    from .tropgeo import fine_hypersurface, fine_intersect

    failures = []
    for idx, (P, Q) in enumerate(systems):
        try:
            img = _solution_image(f, P, Q, prec)
        except ValueError as e:
            failures.append(f"system {idx}: {e}")
            continue
        hp = pushforward(f, P)
        hq = pushforward(f, Q)
        pts, comps = fine_intersect(fine_hypersurface(hp), fine_hypersurface(hq))
        if not prevariety_member((hp, hq), img):
            failures.append(f"system {idx}: image point misses the prevariety")
            continue
        # Non-transversal pairs (shared tropical rays) carry genuine
        # 1-dimensional overlap; the solution image must still be exactly
        # the isolated part of the intersection.
        H = f.target
        keyed = {(_root_key(H, a), _root_key(H, b)) for a, b in
                 [tuple(pt.coords) for pt in pts]}
        want = {(_root_key(H, img[0]), _root_key(H, img[1]))}
        if keyed != want:
            failures.append(f"system {idx}: got {sorted(keyed)}, want {sorted(want)}")
    return failures

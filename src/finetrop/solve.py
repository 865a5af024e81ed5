"""Univariate root solving over tropical extensions.

The strategy is the structural one: a root (x, h) exists exactly when the
levels g_i + i*h of the monomials attain their minimum at least twice on
an index set J and x solves the restricted sum over the base hyperfield.
The cells (h, J) are the edges of the lower convex hull of the points
(i, level of c_i): h is minus the slope of an edge and J every point on
it, found in one monotone-chain pass on integer-scaled levels.  Base
solving is exact: a field without finitely many units asks its field for
the unit roots (``BaseField.unit_roots``), any other base with finitely
many units is scanned over them, and a phase base raises
``BaseSolveError``.

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
from math import lcm
from typing import Any, Iterable, Optional

from .extension import ExtElem, TropicalExtension
from .fields import BaseField, BaseSolveError, QQ, SolverInvariantError
from .hyperfields import (
    FieldHyperfield,
    Hom,
    Hyperfield,
    PhaseHyperfield,
)
from .ordgroup import GroupElem
from .poly import (
    FPoly,
    HPoly,
    ZeroPowerError,
    _unit_scan,
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
    _GRID_ZERO,
    _mul_add,
    _numerator_grids,
    _quotient,
    _random_series,
    hom_val,
)
from .tropgeo import fine_hypersurface, fine_intersect


DEFAULT_DEGREE_BOUND = 8


def _check_degree(n: int) -> None:
    """Raise ValueError for a base solve of degree above the bound."""
    if n > DEFAULT_DEGREE_BOUND:
        raise ValueError(f"degree {n} exceeds the bound {DEFAULT_DEGREE_BOUND}")


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
    on it.  The hull is found on integers: each coordinate of the value
    group is scaled by one lcm of its denominators (the rule of
    ``poly.initial_support``), which keeps the lexicographic order, and
    the monotone chain compares integer tuples.  Each cell level is one
    ``GroupElem`` built once per hull edge.  The cells come out in
    increasing level.
    """
    H = p.hyperfield
    if not isinstance(H, TropicalExtension):
        raise ValueError("newton_cells needs a tropical extension")
    coeffs = _univariate_coeffs(p)
    idx = sorted(coeffs)
    levels = [coeffs[i].level.coords for i in idx]
    dens = [lcm(*[g[k].denominator for g in levels]) for k in range(H.rank)]
    hull: list[tuple[int, list[int]]] = []
    for i, g in zip(idx, levels):
        g = [x.numerator * (den // x.denominator) for x, den in zip(g, dens)]
        # Pop the last hull point b while it lies strictly above the chord
        # from the point a before it to (i, g).  Points on the chord stay,
        # so an edge keeps all its collinear points.
        while len(hull) >= 2:
            (a, ga), (b, gb) = hull[-2], hull[-1]
            if ([(i - a) * (y - x) for x, y in zip(ga, gb)]
                    <= [(b - a) * (y - x) for x, y in zip(ga, g)]):
                break
            hull.pop()
        hull.append((i, g))
    cells: list[NewtonCell] = []
    for (a, ga), (b, gb) in zip(hull, hull[1:]):
        h = GroupElem(tuple([Fraction(x - y, (b - a) * den)
                             for x, y, den in zip(ga, gb, dens)]))
        if cells and cells[-1].level == h:
            cells[-1] = NewtonCell(h, cells[-1].J + (b,))
        else:
            cells.append(NewtonCell(h, (a, b)))
    cells.reverse()  # the slopes rise along the hull, so the levels fall
    return cells


# ---------------------------------------------------------------------------
# Base solving


def base_roots(H: Hyperfield, coeffs: dict[int, Any]) -> list:
    """Solve 0 in sum of c_j x^j over the base hyperfield, x a unit.

    A base with finitely many units is scanned over them by
    ``poly._unit_scan``, the scan ``tropgeo.solve_base_pair`` runs on unit
    pairs, and a field asks its ``unit_roots``; any other base, such as a
    phase hyperfield, raises BaseSolveError.
    """
    coeffs = {j: c for j, c in coeffs.items() if not H.is_zero(c)}
    if not coeffs:
        raise ValueError("no nonzero coefficients")
    units = H.units()
    if units is not None:
        return [x for (x,) in _unit_scan(
            H, units, [{(j,): c for j, c in coeffs.items()}])]
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
    _check_degree(n)
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
        # The root (x, h) has the multiplicity of x in the cell's initial
        # form, whose degree is bounded before any base solve.
        _check_degree(cell.J[-1] - cell.J[0])
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
        coeffs[i] = H.random_unit(rng)  # never skipped at i = deg
    return hpoly1(H, coeffs)


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be at least 1, not {trials}")


def mult_bound_check(H: Hyperfield, rng, trials: int = 100, deg: int = 6) -> list[str]:
    """Sampled check of: sum of root multiplicities <= degree.

    Roots over a tropical extension come from ``roots_univariate``; any
    other hyperfield sums the multiplicities at all its elements, so one
    with infinitely many units raises BaseSolveError.  A count of trials
    below 1 raises ValueError, so that a check of nothing cannot pass.
    """
    _check_trials(trials)
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
    # Rational source: the rational-root search is complete at every degree
    # (it raises BaseSolveError beyond its bounds), so it is definitive.
    if isinstance(src, FieldHyperfield) and src.field is QQ or src is QQ:
        field_poly = {i: c for (i,), c in p.coeffs.items()}
        roots = [Fraction(0)] if 0 not in field_poly else []
        roots += QQ.unit_roots(field_poly) if field_poly else []
        for alpha in roots:
            if f(alpha) == beta:
                return RacResult("lift", alpha)
        if max(field_poly) == 2:
            a2 = field_poly[2]
            a1 = field_poly.get(1, Fraction(0))
            a0 = field_poly.get(0, Fraction(0))
            disc = a1 * a1 - 4 * a2 * a0
            if disc < 0:
                return RacResult(
                    "counterexample", None,
                    f"discriminant {disc} < 0: no real root at all")
        return RacResult("counterexample", None, "no rational root in the fiber")
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
    return _random_series(field, rng, n + (0 if rng.random() < 0.15 else 1),
                          denom, (-2, 6), prec)


def kapranov_harness(f: Hom, rng, trials: int = 200) -> list[str]:
    """Push-forward roots of products of linear factors match the images.

    For each trial, p = prod (X - a_i) over the series field, of 1 to 5
    factors, is expanded exactly; the solver's root multiset of the
    push-forward must equal the multiset of images f(a_i).  A target whose
    base has infinitely many units and is not a field, such as a phase
    base, cannot be solved over, so it raises BaseSolveError up front, and
    a count of trials below 1 raises ValueError.
    """
    _check_trials(trials)
    base = f.target.base
    if base.units() is None and not isinstance(base, FieldHyperfield):
        raise BaseSolveError(f"base solve incomplete over {base.name}")
    failures = []
    dom: SeriesDomain = f.source
    for trial in range(trials):
        k = rng.randint(1, 5)
        roots = [random_series_root(dom.field, rng) for _ in range(k)]
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


def random_linear_system(dom: SeriesDomain, rng):
    """A random tropically 0-dimensional 2x2 linear system.

    Coefficients are unit series; pairs whose tropical lines share a ray
    are resampled, since those are not 0-dimensional systems.
    """
    def unit():
        return _random_series(dom.field, rng, rng.randint(1, 3), 4, (-2, 6))

    def lin():
        return fpoly(dom, 2, {(1, 0): unit(), (0, 1): unit(), (0, 0): unit()})

    v = hom_val(dom.field)
    while True:
        P, Q = lin(), lin()
        _, comps = fine_intersect(fine_hypersurface(pushforward(v, P)),
                                  fine_hypersurface(pushforward(v, Q)))
        if not comps:
            return P, Q


def _cramer(P: FPoly, Q: FPoly, prec, lead: bool = False) -> tuple:
    """The two Cramer quotients (x, y) of a X + b Y + c = 0,
    d X + e Y + g = 0 over series, to O(t^prec).

    The six coefficients are put once on one grid with numerators over one
    denominator L (``series._numerator_grids``); D also covers prec.
    det = a e - b d, nx = b g - c e and ny = c d - a g are each two grid
    steps ``series._mul_add`` in the numerator ring, so their numerators
    are over L^2, which both quotients cancel.  Each coordinate is then
    one ``series._quotient`` recurrence of its numerator by det: the
    determinant is never inverted on its own, and the numerators are
    reduced to field elements only in the quotient's terms.  With
    ``lead`` each quotient stops at its first term.  Raises ValueError
    when the determinant vanishes.
    """
    F = P.domain.field
    zero = P.domain.zero()
    coeffs = [p.coeffs.get(d, zero) for p in (P, Q)
              for d in ((1, 0), (0, 1), (0, 0))]
    R, _, D, (a, b, c, d_, e, g), q = _numerator_grids(F, coeffs, prec)

    def neg(x):
        terms, p = x
        return [(n, R.neg(v)) for n, v in terms], p

    det = _mul_add(R, _mul_add(R, _GRID_ZERO, a, e), b, neg(d_))
    if not det[0] and det[1] is None:
        raise ValueError("no isolated solution: determinant vanishes")
    nx = _mul_add(R, _mul_add(R, _GRID_ZERO, b, g), c, neg(e))
    ny = _mul_add(R, _mul_add(R, _GRID_ZERO, c, d_), a, neg(g))
    return (_quotient(F, D, nx, det, q, lead=lead),
            _quotient(F, D, ny, det, q, lead=lead))


def solve_linear_2x2(P: FPoly, Q: FPoly, prec=8) -> tuple[SeriesTrunc, SeriesTrunc]:
    """Cramer solution of a X + b Y + c = 0, d X + e Y + g = 0 over series,
    to O(t^prec): the full solve of ``_cramer``.  ``fundamental_harness``
    reads only the first term of each quotient."""
    return _cramer(P, Q, prec)


def _solution_image(f: Hom, P: FPoly, Q: FPoly, prec=8) -> tuple:
    """f of both coordinates of the solution of (P, Q) to O(t^prec).

    An enriched valuation reads only a leading term, so each coordinate is
    its quotient cut to its first term (``_cramer`` with ``lead``): the
    image of ``solve_linear_2x2`` without expanding the quotients.  Raises
    ValueError, PrecisionError included, where that solve and f would.
    """
    return tuple(f(x) for x in _cramer(P, Q, prec, lead=True))


def fundamental_harness(f: Hom, systems: Iterable[tuple[FPoly, FPoly]],
                        prec=8) -> list[str]:
    """Both sides of the push-forward variety equality, on 2x2 linear systems.

    The series side solves by Cramer elimination and applies f, reading
    one term of each coordinate (``_solution_image``); the hyperfield side
    intersects the two fine curves of the pushed generators.  The two
    point sets must agree exactly.  A system whose determinant vanishes,
    whose solution is not known to a leading term below O(t^prec), or
    whose solution has a zero coordinate (fine curves meet only on the
    torus) is reported as that system's failure.  No system at all raises
    ValueError, so that a check of nothing cannot pass.
    """
    systems = list(systems)
    if not systems:
        raise ValueError("fundamental harness needs at least one system")
    H = f.target
    failures = []
    for idx, (P, Q) in enumerate(systems):
        try:
            img = _solution_image(f, P, Q, prec)
        except ValueError as e:
            failures.append(f"system {idx}: {e}")
            continue
        if any(H.is_zero(a) for a in img):
            failures.append(f"system {idx}: solution has a zero coordinate "
                            "(off the torus)")
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
        keyed = {(_root_key(H, a), _root_key(H, b)) for a, b in
                 [tuple(pt.coords) for pt in pts]}
        want = {(_root_key(H, img[0]), _root_key(H, img[1]))}
        if keyed != want:
            failures.append(f"system {idx}: got {sorted(keyed)}, want {sorted(want)}")
    return failures

"""Univariate root solving over tropical extensions.

The strategy is the structural one: a root (x, h) exists exactly when the
levels g_i + i*h of the monomials attain their minimum at least twice on
an index set J and x solves the restricted sum over the base hyperfield.
Candidate levels h are the slopes of the lower Newton polygon of the
points (i, level of c_i); base solving is exact and per-hyperfield.

Baker-Lorscheid multiplicities reduce to the base: a root (c, h) on the
Newton cell (h, J) has the multiplicity of c in the initial form
sum_{j in J} c_j x^j over the base hyperfield.  Base multiplicities come
from branching synthetic division, which over a field is plain synthetic
division.

Also: multiplicity-bound checks, instance-level relative-algebraic-closedness
checks, and the Kapranov / fundamental-theorem verification harnesses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Optional

from .extension import ExtElem, TropicalExtension
from .fields import BaseField, GaussRat, QQ, QQi
from .hyperfields import (
    FieldHyperfield,
    Hom,
    Hyperfield,
    KrasnerHyperfield,
    PhaseHyperfield,
)
from .ordgroup import GroupElem, group_add, group_div, group_sub, scalar_mul
from .poly import (
    FPoly,
    HPoly,
    fpoly,
    hpoly1,
    is_root,
    prevariety_member,
    product_of_linear_factors,
    pushforward,
)
from .series import SeriesDomain, SeriesTrunc, series, series_div, series_mul, series_sub


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
    """All (h, J) with min_i(level(c_i) + i*h) attained at least twice."""
    H = p.hyperfield
    if not isinstance(H, TropicalExtension):
        raise ValueError("newton_cells needs a tropical extension")
    coeffs = _univariate_coeffs(p)
    levels = {i: coeffs[i].level for i in sorted(coeffs)}
    candidates: set[GroupElem] = set()
    for i, j in itertools.combinations(levels, 2):
        # level(c_i) + i*h = level(c_j) + j*h  =>  h = (g_i - g_j)/(j - i)
        candidates.add(group_div(group_sub(levels[i], levels[j]), j - i))
    cells = []
    for h in candidates:
        J = _argmin_indices(levels, h)
        if len(J) >= 2:
            cells.append(NewtonCell(h, J))
    cells.sort(key=lambda c: c.level.coords)
    return cells


def _argmin_indices(levels: dict[int, GroupElem], h: GroupElem) -> tuple[int, ...]:
    """The i attaining min_i(levels[i] + i*h), in the order of ``levels``."""
    vals = {i: group_add(g, scalar_mul(i, h)) for i, g in levels.items()}
    m = min(vals.values())
    return tuple(i for i in vals if vals[i] == m)


# ---------------------------------------------------------------------------
# Base solving


class BaseSolveError(ValueError):
    """Exact base solving is outside the supported shapes."""


class SolverInvariantError(RuntimeError):
    """The solver's own result failed its check: a bug, not a bad input."""


@dataclass
class ArcRootDescription:
    """Membership-only description of a phase root locus."""

    hyperfield: PhaseHyperfield
    coeffs: dict[int, Any]

    def contains(self, x) -> bool:
        H = self.hyperfield
        terms = [H.mul(c, H.power(x, j)) for j, c in self.coeffs.items()]
        return H.set_contains_zero(H.nary_sum(terms))


# Bounds on the rational-root search: the largest |a0|, |an| whose divisors
# are found by trial division, and the most candidate pairs p/q tried.
# Outside them the search would run for hours; BaseSolveError is raised.
MAX_ROOT_SEARCH_COEF = 10 ** 12
MAX_ROOT_SEARCH_PAIRS = 10 ** 5


def _rational_unit_roots(coeffs: dict[int, Fraction]) -> list[Fraction]:
    """All nonzero rational roots of a sparse rational polynomial.

    Rational-root search on the integer-cleared polynomial; complete for
    roots in Q.  Raises BaseSolveError when the cleared end coefficients
    exceed the search bounds.
    """
    lo = min(coeffs)
    shifted = {i - lo: c for i, c in coeffs.items()}
    deg = max(shifted)
    den = 1
    for c in shifted.values():
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = {i: int(c * den) for i, c in shifted.items()}
    a0 = abs(ints.get(0, 0))
    an = abs(ints[deg])
    if a0 == 0:
        # x = 0 is excluded; divide out and retry.
        return _rational_unit_roots({i: Fraction(c) for i, c in ints.items() if c})
    if max(a0, an) > MAX_ROOT_SEARCH_COEF:
        raise BaseSolveError(
            f"rational root search: coefficient {max(a0, an)} exceeds "
            f"{MAX_ROOT_SEARCH_COEF}")
    ps, qs = _divisors(a0), _divisors(an)
    if len(ps) * len(qs) > MAX_ROOT_SEARCH_PAIRS:
        raise BaseSolveError(
            f"rational root search: {len(ps) * len(qs)} candidate pairs "
            f"exceed {MAX_ROOT_SEARCH_PAIRS}")
    roots = []
    for p in ps:
        for q in qs:
            for sgn in (1, -1):
                x = Fraction(sgn * p, q)
                if sum(c * x ** i for i, c in ints.items()) == 0:
                    if x not in roots:
                        roots.append(x)
    return roots


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _gauss_unit_roots(coeffs: dict[int, GaussRat]) -> list[GaussRat]:
    """Nonzero Gaussian-rational roots; closed forms up to degree two."""
    lo = min(coeffs)
    shifted = {i - lo: c for i, c in coeffs.items()}
    deg = max(shifted)
    F = QQi
    if deg == 1:
        x = F.neg(F.div(shifted.get(0, F.zero()), shifted[1]))
        return [] if F.is_zero(x) else [x]
    if deg == 2:
        a, b, c = shifted[2], shifted.get(1, F.zero()), shifted.get(0, F.zero())
        disc = F.sub(F.mul(b, b), F.mul(F.from_int(4), F.mul(a, c)))
        r = F.sqrt(disc)
        if r is None:
            return []
        two_a = F.mul(F.from_int(2), a)
        roots = []
        for s in (r, F.neg(r)):
            x = F.div(F.add(F.neg(b), s), two_a)
            if not F.is_zero(x) and x not in roots:
                roots.append(x)
        return roots
    raise BaseSolveError(
        f"base solve incomplete: degree {deg} over Q(i), residual {shifted}")


def base_roots(H: Hyperfield, coeffs: dict[int, Any]):
    """Solve 0 in sum of c_j x^j over the base hyperfield, x a unit.

    Returns a list of units, or an ArcRootDescription for phase targets.
    """
    coeffs = {j: c for j, c in coeffs.items() if not H.is_zero(c)}
    if not coeffs:
        raise ValueError("no nonzero coefficients")
    if isinstance(H, PhaseHyperfield):
        return ArcRootDescription(H, coeffs)
    if isinstance(H, KrasnerHyperfield):
        return [1] if len(coeffs) >= 2 else []
    if isinstance(H, FieldHyperfield) and H.field.elements() is None:
        if H.field is QQ:
            return _rational_unit_roots(coeffs)
        if H.field is QQi:
            return _gauss_unit_roots(coeffs)
        raise BaseSolveError(f"base solve incomplete over {H.name}")
    units = H.units()
    if units is None:
        raise BaseSolveError(f"base solve incomplete over {H.name}")
    out = []
    for x in units:
        terms = [H.mul(c, H.power(x, j)) for j, c in coeffs.items()]
        if H.set_contains_zero(H.nary_sum(terms)):
            out.append(x)
    return out


# ---------------------------------------------------------------------------
# Multiplicities


def multiplicity(p: HPoly, a, bound: int = DEFAULT_DEGREE_BOUND,
                 _memo: Optional[dict] = None) -> int:
    """Root multiplicity of a (0 when a is not a root).

    Over a tropical extension a nonzero root (c, h) lies on the Newton cell
    (h, J), and its multiplicity is the base multiplicity of c in the
    initial form sum_{j in J} c_j x^(j - min J) over the base hyperfield.

    Over a base hyperfield the multiplicity is 1 + the maximum over the
    synthetic-division quotients: the quotient coefficients are forced
    into set values by c_i in q_{i-1} + (-a) q_i, every element of each set
    value is branched on, and the final constraint c_0 = (-a) q_0 prunes
    the search.  Over a field every set value is a singleton, so this is
    plain synthetic division.  Phase bases raise BaseSolveError.
    """
    H = p.hyperfield
    coeffs = _univariate_coeffs(p)
    if not coeffs:
        return 0
    n = max(coeffs)
    if n > bound:
        raise ValueError(f"degree {n} exceeds the bound {bound}")
    if not is_root(p, (a,)):
        return 0
    if isinstance(H, TropicalExtension) and a is not None:
        # Continue over the base with the initial form at the Newton cell
        # (h, J): the root (c, h) makes the levels attain their minimum on J
        # and c a root of sum_{j in J} c_j x^(j - min J).
        levels = {i: coeffs[i].level for i in sorted(coeffs)}
        J = _argmin_indices(levels, a.level)
        H, a = H.base, a.coef
        coeffs = {j - J[0]: coeffs[j].coef for j in J}
        n = max(coeffs)
    if _memo is None:
        _memo = {}
    key = (tuple(sorted(coeffs.items(), key=lambda kv: kv[0])), a)
    if key in _memo:
        return _memo[key]

    if H.is_zero(a):
        # Dividing by X shifts the coefficients down by one.
        q = hpoly1(H, {i - 1: c for i, c in coeffs.items() if i >= 1})
        m = 1 + multiplicity(q, a, bound, _memo)
        _memo[key] = m
        return m
    if isinstance(H, PhaseHyperfield):
        raise BaseSolveError(f"multiplicity over {H.name} is not supported")

    best = 0
    for qc in _quotients(H, coeffs, n, a):
        q = hpoly1(H, qc)
        m = multiplicity(q, a, bound, _memo)
        if m > best:
            best = m
    m = 1 + best
    _memo[key] = m
    return m


def _quotients(H: Hyperfield, coeffs: dict[int, Any], n: int, a):
    """All quotient coefficient assignments compatible with division."""
    neg_a = H.neg(a)
    results: list[dict[int, Any]] = []
    seen: set = set()

    def rec(i: int, q: dict[int, Any]):
        # q[i] decided for i..n-1; decide q[i-1] from c_i in q_{i-1} + (-a) q_i.
        if i == 0:
            c0 = coeffs.get(0)
            q0 = q.get(0)
            if q0 is None:
                ok = c0 is None
            else:
                ok = c0 is not None and H.equal(c0, H.mul(neg_a, q0))
            if ok:
                keyq = tuple(sorted((k, v) for k, v in q.items() if v is not None))
                if keyq not in seen:
                    seen.add(keyq)
                    results.append({k: v for k, v in q.items() if v is not None})
            return
        ci = coeffs.get(i)
        qi = q.get(i)
        shifted = H.zero() if qi is None else H.mul(a, qi)
        if ci is None and (qi is None or H.is_zero(shifted)):
            S = H.singleton(H.zero()) if qi is None else H.singleton(shifted)
        elif ci is None:
            S = H.singleton(shifted)
        elif qi is None:
            S = H.singleton(ci)
        else:
            S = H.add(ci, shifted)
        for choice in H.set_elements(S):
            q[i - 1] = None if H.is_zero(choice) else choice
            rec(i - 1, q)
        q.pop(i - 1, None)

    qn1 = coeffs[n]  # leading coefficient is forced
    rec(n - 1, {n - 1: qn1})
    return results


def roots_univariate(p: HPoly, bound: int = DEFAULT_DEGREE_BOUND) -> list[RootRecord]:
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
    found: set = set()
    for cell in newton_cells(p):
        sub = {j: coeffs[j].coef for j in cell.J}
        sols = base_roots(H.base, sub)
        if isinstance(sols, ArcRootDescription):
            raise BaseSolveError("phase base roots are membership-only")
        for x in sols:
            r = ExtElem(x, cell.level)
            if r in found:
                continue
            found.add(r)
            # multiplicity evaluates p at r and returns 0 exactly when r is
            # not a root, so this is the check that the solver found roots.
            m = multiplicity(p, r, bound)
            if m == 0:
                raise SolverInvariantError(f"solver produced a non-root {r} of {p}")
            out.append(RootRecord(r, m, f"cell h={cell.level} J={cell.J}"))
    return out


def tropical_mult_oracle(p: HPoly, h: GroupElem) -> int:
    """Horizontal lattice length of the Newton-polygon edge of slope -h."""
    for cell in newton_cells(p):
        if cell.level == h:
            return max(cell.J) - min(cell.J)
    return 0


# ---------------------------------------------------------------------------
# Multiplicity bound


def random_hpoly(H: Hyperfield, rng, deg: int, ext_levels: bool = True) -> HPoly:
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
    """Sampled check of: sum of root multiplicities <= degree."""
    failures = []
    for _ in range(trials):
        d = rng.randint(1, deg)
        p = random_hpoly(H, rng, d)
        if isinstance(H, TropicalExtension):
            recs = roots_univariate(p)
        else:
            if isinstance(H, PhaseHyperfield):
                failures.append("root set infinite (arc); bound not applicable")
                continue
            recs = []
            coeffs = _univariate_coeffs(p)
            if min(coeffs) > 0:
                recs.append(RootRecord(H.zero(), min(coeffs), "zero root"))
            for x in H.units():
                if is_root(p, (x,)):
                    recs.append(RootRecord(x, multiplicity(p, x), "unit scan"))
        total = sum(r.multiplicity for r in recs)
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
            if H.equal(f(alpha), beta) and is_root(p, (alpha,)):
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
            if H.equal(f(alpha), beta) and is_root(p, (alpha,)):
                return RacResult("lift", alpha)
        return RacResult("counterexample", None, "fiber exhausted at this level")
    # Rational source: rational-root search, definitive up to degree two.
    if isinstance(src, FieldHyperfield) and src.field is QQ or src is QQ:
        field_poly = {i: c for (i,), c in p.coeffs.items()}
        roots = [Fraction(0)] if 0 not in field_poly else []
        roots += _rational_unit_roots(field_poly) if field_poly else []
        for alpha in roots:
            if H.equal(f(alpha), beta):
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
                img is not None and beta is not None and H.equal(img, beta))
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
    multiset of images f(a_i).
    """
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
    from .series import hom_val
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


def solve_linear_2x2(P: FPoly, Q: FPoly, prec=8) -> tuple[SeriesTrunc, SeriesTrunc]:
    """Cramer solution of a X + b Y + c = 0, d X + e Y + g = 0 over series."""
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
    target = Fraction(prec)
    return series_div(nx, det, target), series_div(ny, det, target)


def fundamental_harness(f: Hom, systems: Iterable[tuple[FPoly, FPoly]],
                        prec=8) -> list[str]:
    """Both sides of the push-forward variety equality, on 2x2 linear systems.

    The series side solves exactly by Cramer elimination and applies f;
    the hyperfield side intersects the two fine curves of the pushed
    generators.  The two point sets must agree exactly.
    """
    from .tropgeo import fine_hypersurface, fine_intersect

    failures = []
    for idx, (P, Q) in enumerate(systems):
        try:
            x, y = solve_linear_2x2(P, Q, prec)
        except ValueError as e:
            failures.append(f"system {idx}: {e}")
            continue
        img = (f(x), f(y))
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

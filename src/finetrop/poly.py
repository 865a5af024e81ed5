"""Polynomials over hyperfields (set-valued evaluation) and over exact
coefficient domains (fields and series), plus push-forwards between them.

Hyperfield polynomials are plain data: no polynomial ring structure is
provided, since the polynomials over a hyperfield do not form one.  The
only product of hyperfield polynomials lives in the solve module.  An
HPoly is a named tuple (hyperfield, nvars, coeffs) holding its own copy of
the coefficient dict; assigning a field raises AttributeError.

Every root test ends in one question, by the hyperfield Kapranov theorem:
does 0 lie in the base sum of the minimal-level terms?  The terms'
products are handed to the base's ``sum_contains_zero``, a closed form over
K (not exactly one nonzero term) and S (not all nonzero terms of one sign),
and the fold of ``nary_sum`` over the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from .extension import TropicalExtension
from .hyperfields import Hom, Hyperfield
from .ordgroup import group_add, scalar_mul
from .series import (
    SeriesDomain,
    SeriesTrunc,
    _GRID_ZERO,
    _mul_add,
    _numerator_grids,
    _reduced,
)


Expt = tuple[int, ...]


class HPoly(NamedTuple("HPoly", [("hyperfield", Hyperfield), ("nvars", int),
                                  ("coeffs", Any)])):
    """Polynomial (or Laurent polynomial) over a hyperfield.

    ``coeffs`` maps exponent tuples to elements, zero coefficients omitted
    (``hpoly`` drops them); the constructor keeps its own copy of the
    mapping."""

    __slots__ = ()

    def __new__(cls, hyperfield: Hyperfield, nvars: int, coeffs):
        return tuple.__new__(cls, (hyperfield, nvars, dict(coeffs)))

    @property
    def support(self) -> list[Expt]:
        return sorted(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(sum(d) for d in self.coeffs)

    def __repr__(self):
        H = self.hyperfield
        if not self.coeffs:
            return "0"
        parts = []
        for d in sorted(self.coeffs, reverse=True):
            mono = fmt_monomial(d)
            c = H.fmt(self.coeffs[d])
            if c[0] != "(" and ("+" in c[1:] or "-" in c[1:]):
                # A signed compound coefficient needs parentheses to keep
                # the printed sum unambiguous.
                c = f"({c})"
            parts.append(c if not mono else (mono if c == "1" else f"{c}*{mono}"))
        return " + ".join(parts)


def fmt_monomial(d: Expt) -> str:
    """The monomial x^d as printed, e.g. X^2*Y; "" for the constant one."""
    names = (["X", "Y", "Z"] if len(d) <= 3
             else [f"X{i+1}" for i in range(len(d))])
    return "*".join(names[i] if e == 1 else f"{names[i]}^{e}"
                    for i, e in enumerate(d) if e != 0)


def hpoly(H: Hyperfield, nvars: int, coeffs: Mapping[Expt, Any]) -> HPoly:
    clean = {tuple(d): c for d, c in coeffs.items() if not H.is_zero(c)}
    return tuple.__new__(HPoly, (H, nvars, clean))  # clean is a fresh dict


def hpoly1(H: Hyperfield, coeffs_by_degree: Mapping[int, Any]) -> HPoly:
    return hpoly(H, 1, {(i,): c for i, c in coeffs_by_degree.items()})


class ZeroPowerError(ZeroDivisionError, ValueError):
    """0^k for k < 0: a Laurent monomial evaluated where its variable is 0.

    A ValueError too, so the CLI reports it as a bad input."""


def initial_support(p: HPoly, point: Sequence,
                    support: Sequence[Expt]) -> list[Expt]:
    """The monomials of ``support`` at the minimal level at ``point``.

    For p over a tropical extension the monomial c_d x^d has the level
    level(c_d) + d.level(x), and a sum depends only on its terms at the
    minimal level: this is the one place that rule picks them.  Every
    monomial of ``support`` must have exponent 0 at the zero coordinates
    of the point, which are skipped.  Each coordinate of the value group is
    scaled to integers by one lcm of its denominators, and the levels are
    compared lexicographically across coordinates.  The result keeps the
    order of ``support``.
    """
    coeffs = p.coeffs
    live = [(i, a.level.coords) for i, a in enumerate(point) if a is not None]
    cols = []
    for k in range(p.hyperfield.rank):
        cs = [coeffs[d].level.coords[k] for d in support]
        xs = [(i, g[k]) for i, g in live]
        den = math.lcm(*[c.denominator for c in cs],
                       *[x.denominator for _, x in xs])
        xs = [(i, x.numerator * (den // x.denominator)) for i, x in xs]
        cols.append([c.numerator * (den // c.denominator)
                     + sum(d[i] * x for i, x in xs)
                     for c, d in zip(cs, support)])
    vals = cols[0] if len(cols) == 1 else list(zip(*cols))
    m = min(vals)
    return [d for d, v in zip(support, vals) if v == m]


def _power_table(B: Hyperfield, a, exps) -> dict:
    """{e: a^e} for each distinct exponent e of ``exps``, each by one
    ``power``: square-and-multiply, O(log |e|) products, exact for any e."""
    return {e: B.power(a, e) for e in exps}


def _products(B: Hyperfield, terms, tables) -> list:
    """The values c * x_1^d_1 * ... * x_n^d_n in B of the terms (d, c), in
    their order, each x_i^e read from tables[i][e]; a zero exponent
    multiplies by nothing."""
    vals = []
    for d, c in terms:
        i = 0  # an index, not a zip: no iterator per term on this hot path
        for e in d:
            if e:
                c = B.mul(c, tables[i][e])
            i += 1
        vals.append(c)
    return vals


def _zero_in_base_sum(B: Hyperfield, terms, tables) -> bool:
    """Whether 0 lies in the sum over B of the ``_products`` of the terms:
    every root test ends here, since by the hyperfield Kapranov theorem a
    root over a tropical extension depends only on the base sum of its
    minimal-level terms.  B answers from the products alone
    (``Hyperfield.sum_contains_zero``): a closed form over K and S, and the
    fold of ``nary_sum`` elsewhere."""
    return B.sum_contains_zero(_products(B, terms, tables))


def _unit_scan(H: Hyperfield, units: list, conds: Sequence[Mapping]) -> list:
    """The tuples of n units, in the order of the n-fold product of
    ``units``, at which every condition {exponent n-tuple: coefficient}
    holds.  Each unit's powers are tabulated once, over only the exponents
    the conditions use."""
    exps = {e for cond in conds for d in cond for e in d}
    tables = [_power_table(H, u, exps) for u in units]
    n = len(next(iter(conds[0])))
    return [x for x, px in zip(product(units, repeat=n),
                               product(tables, repeat=n))
            if all(_zero_in_base_sum(H, cond.items(), px) for cond in conds)]


def _base_terms(p: HPoly, point: Sequence):
    """(B, terms, tables): the monomials (d, c) of p that count at
    ``point``, with c in B, and each coordinate's ``_power_table`` over
    their exponents; the sum of their ``_products`` decides the
    evaluation.

    The point must have one coordinate per variable.  A monomial with a
    nonzero exponent at a zero coordinate is zero, and a negative exponent
    at any zero coordinate raises ZeroPowerError; both are settled before
    any multiplication.  Over a tropical extension a sum depends only on
    its terms at the minimal level, so only the monomials that
    ``initial_support`` picks count, and B is the base hyperfield: each
    term is a base coefficient times the base parts of the powers.
    Otherwise B is p's hyperfield.  Terms follow the support in
    lexicographic order.
    """
    H = p.hyperfield
    if len(point) != p.nvars:
        raise ValueError(f"point has {len(point)} coordinates, "
                         f"polynomial has {p.nvars} variables")
    support = p.support
    zeros = [i for i, a in enumerate(point) if H.is_zero(a)]
    if zeros:
        if any(d[i] < 0 for d in support for i in zeros):
            raise ZeroPowerError("0^k undefined for negative k")
        support = [d for d in support if not any(d[i] for i in zeros)]
    B, coeffs = H, p.coeffs
    if isinstance(H, TropicalExtension) and support:
        support = initial_support(p, point, support)
        B, point = H.base, [a if a is None else a.coef for a in point]
        terms = [(d, coeffs[d].coef) for d in support]
    else:
        terms = [(d, coeffs[d]) for d in support]
    tables = [_power_table(B, a, {d[i] for d in support})
              for i, a in enumerate(point)]
    return B, terms, tables


def eval_poly(p: HPoly, point: Sequence):
    """Set-valued evaluation: the hypersum of the monomial values.

    The terms come from ``_base_terms``.  Over a tropical extension they
    share one level, so their sum is formed at that level: the base terms
    are summed in the base hyperfield, the level is taken once from one
    monomial, and ``TropicalExtension.level_sum`` puts the two together.
    The fold runs over the support in lexicographic order so results are
    reproducible; hyperaddition is associative so the order is immaterial.
    """
    H = p.hyperfield
    B, terms, tables = _base_terms(p, point)
    total = B.nary_sum(_products(B, terms, tables))
    if B is H:
        return total
    d = terms[0][0]
    level = p.coeffs[d].level
    for a, e in zip(point, d):
        if e:
            level = group_add(level, scalar_mul(e, a.level))
    return H.level_sum(level, total)


def is_root(p: HPoly, point: Sequence) -> bool:
    """0 in p(point).  Over a tropical extension this is 0 in the base sum
    of the minimal-level terms (the hyperfield Kapranov theorem: a root
    depends only on the initial form), so no level is computed."""
    return _zero_in_base_sum(*_base_terms(p, point))


def prevariety_member(polys: Iterable[HPoly], point: Sequence) -> bool:
    return all(is_root(p, point) for p in polys)


def pushforward(f: Hom, p) -> HPoly:
    """Coefficientwise image of a polynomial along a homomorphism.

    Accepts either an FPoly over f's source domain or an HPoly over a
    source hyperfield.
    """
    coeffs = {d: f(c) for d, c in p.coeffs.items()}
    return hpoly(f.target, p.nvars, coeffs)


# ---------------------------------------------------------------------------
# Polynomials over exact coefficient domains (fields, series)


@dataclass(frozen=True)
class FPoly:
    """Plain polynomial over a field or series domain, used as oracle data."""

    domain: Any
    nvars: int
    coeffs: Any  # Mapping[Expt, coeff]

    def __post_init__(self):
        object.__setattr__(
            self,
            "coeffs",
            {tuple(d): c for d, c in dict(self.coeffs).items()
             if not self.domain.is_zero(c)},
        )

    @property
    def support(self) -> list[Expt]:
        return sorted(self.coeffs)

    def degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(sum(d) for d in self.coeffs)


def fpoly(domain, nvars: int, coeffs: Mapping[Expt, Any]) -> FPoly:
    return FPoly(domain, nvars, coeffs)


def product_of_linear_factors(domain: SeriesDomain, roots: Sequence) -> FPoly:
    """prod (X - r) over the roots, one factor at a time by shift-and-scale.

    Multiplying c_0 + ... + c_n X^n by X - r gives c'_i = c_{i-1} + (-r) c_i.
    Every exponent and finite precision of the roots is put once on one
    grid 1/D, and every coefficient once over one denominator L
    (``series._numerator_grids``): the running coefficients have integer
    offsets and numerators in the field's numerator ring, and each c'_i is
    one grid step ``series._mul_add`` in that ring, which holds the
    precision rule of a sum plus a product.  Coefficient i of a product of
    n factors is homogeneous of degree n - i in the roots, so its
    numerators are over L^(n-i); each output term is reduced once, as
    ``F.div(E, L^(n-i))`` (``series._reduced``), and its exponent becomes
    a Fraction once, one per distinct offset.  Keys run from the highest degree down, the order
    the expanded product always had.
    """
    F = domain.field
    R, L, D, grids, _ = _numerator_grids(F, roots)
    cs = [([(0, R.one())], None)]
    for terms, p in grids:
        nr = [(n, R.neg(c)) for n, c in terms], p
        cs = ([_mul_add(R, _GRID_ZERO, cs[0], nr)]
              + [_mul_add(R, prev, c, nr) for prev, c in zip(cs, cs[1:])]
              + [cs[-1]])
    offsets = {n for terms, _ in cs for n, _ in terms}
    offsets.update(p for _, p in cs if p is not None)
    exps = {n: Fraction(n, D) for n in offsets}
    n = len(roots)
    out = {}
    for i in reversed(range(len(cs))):
        terms, p = cs[i]
        out[(i,)] = SeriesTrunc(
            F, tuple([(exps[m], c) for m, c in _reduced(F, R, L, n - i, terms)]),
            None if p is None else exps[p])
    return FPoly(domain, 1, out)

"""Truncated Puiseux/Hahn series with exact rational exponents.

A series is a finite list of (exponent, coefficient) terms plus a precision
order: exponents at or above it are unknown.  Precision None means the
series is exact.  Empty terms with finite precision is an indeterminate
O(t^p) with no known terms.

Products and quotients scale the exponents of their operands to integers
on a common grid 1/D (D the lcm of their denominators) and work on integer
offsets: a product is a convolution that stops each row at the result's
precision, a quotient a/b is the division recurrence q (1 + u) = a / c for
b = c t^g (1 + u), run only over the terms the result keeps (or, cut to
its lead, only its first term), and an inverse is the quotient 1/b.
Precision follows the known terms: a product is known up to the smaller
of lead(a) + prec(b) and lead(b) + prec(a), the inverse of c t^g + O(t^p)
up to O(t^(p - 2g)), and a quotient as far as a times that inverse.
Exponents are Fractions again only in the terms a result returns.

The grid form is private to the package and written once here:
``_numerator_grids`` puts a list of series on one grid with integer
offsets and integer precisions, and forms their coefficients' numerators
over one common denominator L with ``BaseField.numerators`` (over Q, Python
ints; over the other fields, the coefficients themselves).  The product
and its precision rule are the grid step ``_mul_add``: s + a*b in the
numerator ring.  The quotient, its precision rule and its errors are
``_quotient``, which runs on numerators as they are, since a/b does not
change when both are multiplied by L.  Numerators become field elements
in two places only: a quotient's terms are its ``F.dot``s, and a
product's terms, of degree k in the coefficients, are reduced by
``_reduced``, one ``F.div`` by L^k per term.

- ``series_mul`` puts both operands on one numerator grid and takes one
  step onto an exact zero.
- ``series_div`` (and ``series_inv``) put both operands on one numerator
  grid, then run ``_quotient``.
- ``solve.solve_linear_2x2`` puts the six coefficients of a 2x2 system on
  one numerator grid, forms the Cramer numerators and determinant with
  ``_mul_add`` in the numerator ring, and runs ``_quotient`` on them; the
  fundamental harness takes the quotients cut to their first terms.
- ``poly.product_of_linear_factors`` runs its shift-and-scale loop through
  ``_mul_add`` on one numerator grid of all its roots.

Each output coefficient of a product or quotient is one ``dot`` over its
factor pairs.  Over Q, on numerators, a product's is a sum of int
products, reduced once by ``_reduced``; a quotient's is one ``QQ.dot``,
which sums integer numerators and reduces once.  So a term costs one
Fraction instead of one per multiply and add.  A sum merges the two
sorted term tuples in one pass.

Also defines the enriched valuations val, sval, fval and phval into
tropical extensions, and checks of the homomorphism laws.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Any, Callable, Optional

from .extension import (
    ExtElem,
    TropicalExtension,
    trop,
    trop_complex,
    trop_signed,
)
from .fields import BaseField, QQ, QQi
from .hyperfields import (
    FieldHyperfield,
    Hom,
    dir_of_gauss,
)
from .ordgroup import GroupElem


class PrecisionError(ValueError):
    """Raised when a computation needs more known terms than available."""


@dataclass(frozen=True)
class SeriesTrunc:
    """Finitely supported series with a precision order.

    terms: ((exp, coeff), ...) with strictly increasing Fraction exponents
    and nonzero coefficients.  prec None marks an exact series.
    """

    field: BaseField
    terms: tuple[tuple[Fraction, Any], ...]
    prec: Optional[Fraction] = None

    def is_zero(self) -> bool:
        return not self.terms and self.prec is None

    def is_indeterminate(self) -> bool:
        return not self.terms and self.prec is not None

    def leading(self) -> tuple[Any, Fraction]:
        """(coefficient, exponent) of the minimal term."""
        if self.is_zero():
            raise ValueError("zero series has no leading term")
        if self.is_indeterminate():
            raise PrecisionError("insufficient precision: no known terms")
        g, c = self.terms[0]
        return c, g

    def __repr__(self):
        return fmt_series(self)


def series(field: BaseField, terms, prec=None) -> SeriesTrunc:
    """Build a series from {exp: coeff} or [(exp, coeff)] data."""
    if isinstance(terms, dict):
        items = list(terms.items())
    else:
        items = list(terms)
    p = None if prec is None else Fraction(prec)
    acc: dict[Fraction, Any] = {}
    for e, c in items:
        e = Fraction(e)
        if e in acc:
            c = field.add(acc[e], c)
        acc[e] = c
    out = []
    for e in sorted(acc):
        c = acc[e]
        if field.is_zero(c):
            continue
        if p is not None and e >= p:
            continue
        out.append((e, c))
    return SeriesTrunc(field, tuple(out), p)


def s_zero(field: BaseField) -> SeriesTrunc:
    return SeriesTrunc(field, ())


def s_const(field: BaseField, c) -> SeriesTrunc:
    if field.is_zero(c):
        return s_zero(field)
    return SeriesTrunc(field, ((Fraction(0), c),))


def _min_prec(a, b):
    """The lower of two precisions (Fractions, or offsets on one grid);
    None is exact."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def series_add(a: SeriesTrunc, b: SeriesTrunc) -> SeriesTrunc:
    """Linear merge of the sorted terms of a and b, below the lower precision."""
    if a.field is not b.field and a.field != b.field:
        raise ValueError("base fields differ")
    F = a.field
    p = _min_prec(a.prec, b.prec)
    xs, ys = a.terms, b.terms
    out = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        ex, ey = xs[i][0], ys[j][0]
        if ex < ey:
            out.append(xs[i])
            i += 1
        elif ey < ex:
            out.append(ys[j])
            j += 1
        else:
            c = F.add(xs[i][1], ys[j][1])
            if not F.is_zero(c):
                out.append((ex, c))
            i += 1
            j += 1
    out.extend(xs[i:])
    out.extend(ys[j:])
    if p is not None:
        out = [t for t in out if t[0] < p]
    return SeriesTrunc(F, tuple(out), p)


def series_neg(a: SeriesTrunc) -> SeriesTrunc:
    return SeriesTrunc(a.field, tuple([(e, a.field.neg(c)) for e, c in a.terms]), a.prec)


def series_mul(a: SeriesTrunc, b: SeriesTrunc) -> SeriesTrunc:
    """a*b as one grid step ``_mul_add`` onto an exact zero, on one
    numerator grid of both operands (``_numerator_grids``); each term of
    degree 2 in the coefficients is reduced once (``_reduced``)."""
    F = a.field
    R, L, D, (ga, gb), _ = _numerator_grids(F, (a, b))
    terms, p = _mul_add(R, _GRID_ZERO, ga, gb)
    return SeriesTrunc(F, tuple([(Fraction(n, D), c)
                                 for n, c in _reduced(F, R, L, 2, terms)]),
                       None if p is None else Fraction(p, D))


# A series on the grid 1/D is (terms, prec): terms (offset, coeff) with
# strictly increasing integer offsets n for the exponents n/D, prec an
# integer offset or None.

_GRID_ZERO = ((), None)


def _numerator_grids(F: BaseField, ss, prec=None):
    """(R, L, D, grids, q): the series ss on one grid 1/D, their
    coefficients as numerators over one L (``F.numerators``), and prec as
    an offset q on that grid (None stays None).

    D is the lcm of the denominators of every exponent and precision of ss
    and of prec.  Each grid is (terms, prec) as in ``_mul_add``, with the
    numerators, elements of the ring R, in place of the coefficients.
    """
    if prec is not None:
        prec = Fraction(prec)
    D = lcm(*[e.denominator for s in ss for e, _ in s.terms],
            *[s.prec.denominator for s in ss if s.prec is not None],
            *([] if prec is None else [prec.denominator]))
    R, L, nums = F.numerators([c for s in ss for _, c in s.terms])
    grids, i = [], 0
    for s in ss:
        j = i + len(s.terms)
        grids.append(([(e.numerator * (D // e.denominator), c)
                       for (e, _), c in zip(s.terms, nums[i:j])],
                      None if s.prec is None
                      else s.prec.numerator * (D // s.prec.denominator)))
        i = j
    q = None if prec is None else prec.numerator * (D // prec.denominator)
    return R, L, D, grids, q


def _reduced(F: BaseField, R, L, k: int, terms) -> list:
    """Grid terms whose numerators (of ``_numerator_grids``) have degree k
    in the coefficients, as field elements: each one ``F.div`` by L^k,
    unless the numerator ring R is the field itself."""
    if R is F:
        return terms
    Lk = L ** k
    return [(n, F.div(E, Lk)) for n, E in terms]


def _mul_add(F, s, a, b):
    """s + a*b for series s, a, b on one grid 1/D, with coefficients in F:
    a field, or the numerator ring of ``BaseField.numerators`` (only
    ``one``, ``is_zero`` and ``dot`` are used).

    This is the one place the precision rule of sums and products lives.
    An exact zero factor annihilates even unknown tails, so s comes back
    as it is.  Otherwise a*b is known below the smaller of lead(a) +
    prec(b) and lead(b) + prec(a), a precision standing in for the lead
    of a factor with no known term, and the sum below the smaller of that
    and prec(s).  The product is a convolution whose rows stop at that
    precision, so truncated terms are never formed; each output offset is
    one ``F.dot`` over its factor pairs and, when s has a term there, the
    pair (1, that term).  A term of s with no product term at its offset
    is passed through as it is.  Zero sums are dropped.
    """
    (xs, pa), (ys, pb) = a, b
    if (not xs and pa is None) or (not ys and pb is None):
        return s
    terms, p = s
    if pb is not None:
        p = _min_prec(p, (xs[0][0] if xs else pa) + pb)
    if pa is not None:
        p = _min_prec(p, (ys[0][0] if ys else pb) + pa)
    if p is None:  # all three exact, and both factors have terms
        stop = max(xs[-1][0] + ys[-1][0], terms[-1][0] if terms else 0) + 1
    else:
        stop = p
    acc: dict[int, tuple[list, list]] = {}
    for n1, c1 in xs:
        for n2, c2 in ys:
            n = n1 + n2
            if n >= stop:
                break
            if n in acc:
                l1, l2 = acc[n]
                l1.append(c1)
                l2.append(c2)
            else:
                acc[n] = ([c1], [c2])
    out = []
    one = F.one() if terms else None
    for n, c in terms:
        if n >= stop:
            break
        if n in acc:
            l1, l2 = acc[n]
            l1.append(one)
            l2.append(c)
        else:
            out.append((n, c))
    for n, pair in acc.items():
        c = F.dot(*pair)
        if not F.is_zero(c):
            out.append((n, c))
    out.sort()  # offsets are distinct, so no coefficient is compared
    return out, p


def series_inv(a: SeriesTrunc, prec=None) -> SeriesTrunc:
    """1/a as the quotient ``series_div(1, a, prec)``.

    The inverse of c t^g + O(t^p) is known up to O(t^(p - 2g)); an explicit
    prec lowers that, never raises it.
    """
    return series_div(s_const(a.field, a.field.one()), a, prec)


def series_div(a: SeriesTrunc, b: SeriesTrunc, prec=None) -> SeriesTrunc:
    """a/b: both operands put once on one grid with one denominator
    (``_numerator_grids``), then one ``_quotient``."""
    F = a.field
    _, _, D, (ga, gb), q = _numerator_grids(F, (a, b), prec)
    return _quotient(F, D, ga, gb, q)


def _quotient(F: BaseField, D: int, a, b, prec, lead: bool = False) -> SeriesTrunc:
    """a/b over F for a, b on the grid 1/D and prec an offset on it (or
    None); with ``lead``, cut to its first term.

    The coefficients of a and b may be numerators over one common L
    (``F.numerators``): the quotient does not change when both operands are
    multiplied by L, and a numerator is an element of F, so the recurrence
    runs on them as they are.  This is the one place the precision rule,
    the errors and the division recurrence of a quotient live.

    Write b = c t^g (1 + u) with u's offsets positive and a = t^l A with
    A's offsets non-negative.  On the coarsest grid 1/D' holding A's and
    u's offsets, A = sum_n A_n t^(n/D'), b = c t^g + sum_k b_k t^(g+k/D')
    and the quotient is t^(l-g) sum_n q_n t^(n/D') with

        q_n = c^(-1) A_n + sum_{k>=1} nu_k q_{n-k},    nu_k = -b_k c^(-1),

    each q_n one ``F.dot``.  Precision is that of a times the inverse of b:
    the inverse is known to target = min(prec(b) - 2g, prec), so the
    quotient to p = min(l + target, prec(a) - g, prec), with prec(a) in
    place of l for an indeterminate a.  When target + g <= 0 the inverse
    has no known term and p <= l - g, so no q_n is kept.  A single exact
    term divides exactly; any other exact b needs a prec.  A zero a gives
    exactly 0, with or without a prec: 0/b = 0 for every b != 0, as an
    exact zero annihilates in ``series_mul``.

    The lead cut computes only q_0, which is the first term whenever any
    term is kept, and is known below the lower of p and the next grid
    point, so it claims no term it did not compute.  An enriched valuation
    maps it as it maps the full quotient.  Exponents become Fractions only
    for the terms returned.
    """
    (at, pa), (bt, pb) = a, b
    if not bt:
        if pb is None:
            raise ZeroDivisionError("cannot invert the zero series")
        raise PrecisionError("insufficient precision: leading term unknown")
    g, c = bt[0]
    target = _min_prec(None if pb is None else pb - 2 * g, prec)
    if target is None and len(bt) > 1:
        raise PrecisionError("inverse of a multi-term exact series needs a precision")
    if not at and pa is None:
        return SeriesTrunc(F, ())
    p = None
    if target is not None:
        p = (at[0][0] if at else pa) + target
    if pa is not None:
        p = _min_prec(p, pa - g)
    p = _min_prec(p, prec)
    if not at:
        return SeriesTrunc(F, (), Fraction(p, D))
    lo = at[0][0]
    shift = lo - g
    step = gcd(D, *[n - lo for n, _ in at], *[n - g for n, _ in bt])
    size = (at[-1][0] - lo) // step + 1 if p is None else -((shift - p) // step)
    if lead and size > 0:
        size = 1
        p = _min_prec(p, shift + step)
    cinv = F.inv(c)
    # A_n by step index; -b_k c^(-1) at increasing indices k >= 1, which
    # q_0 alone does not need.
    alpha = {(n - lo) // step: ca for n, ca in at}
    nu = []
    if size > 1:
        nu = [((n - g) // step, F.neg(F.mul(cb, cinv))) for n, cb in bt[1:]]
    # None in q marks a zero q_n.
    q: list[Any] = [None] * max(0, size)
    terms = []
    for n in range(len(q)):
        xs, ys = [], []
        if n in alpha:
            xs.append(cinv)
            ys.append(alpha[n])
        for k, nuk in nu:
            if k > n:
                break
            prev = q[n - k]
            if prev is not None:
                xs.append(nuk)
                ys.append(prev)
        if xs:
            s = F.dot(xs, ys)
            if not F.is_zero(s):
                q[n] = s
                terms.append((Fraction(shift + n * step, D), s))
    return SeriesTrunc(F, tuple(terms), None if p is None else Fraction(p, D))


def fmt_coeff(field: BaseField, c) -> str:
    s = field.fmt(c)
    return f"({s})" if ("+" in s[1:] or "-" in s[1:]) else s


def fmt_series(a: SeriesTrunc) -> str:
    if a.is_zero():
        return "0"
    parts = []
    for e, c in a.terms:
        cs = fmt_coeff(a.field, c)
        if e == 0:
            parts.append(cs)
        else:
            es = f"t^({e})" if (e.denominator != 1 or e < 0) else (
                "t" if e == 1 else f"t^{e}")
            parts.append(es if cs == "1" else f"{cs}*{es}")
    if a.prec is not None:
        ps = f"({a.prec})" if (a.prec.denominator != 1 or a.prec < 0) else str(a.prec)
        parts.append(f"O(t^{ps})")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# Series domains (for sampling in homomorphism checks)


class SeriesDomain:
    """The exact-series ring over a base field, with random sampling."""

    def __init__(self, field: BaseField):
        self.field = field
        self.name = f"{field.name}((t))"

    def zero(self):
        return s_zero(self.field)

    def one(self):
        return s_const(self.field, self.field.one())

    def is_zero(self, a: SeriesTrunc) -> bool:
        return a.is_zero()

    def add(self, a, b):
        return series_add(a, b)

    def mul(self, a, b):
        return series_mul(a, b)

    def neg(self, a):
        return series_neg(a)

    def random(self, rng) -> SeriesTrunc:
        """Up to three terms, exponents n/d with -4 <= n <= 8, 1 <= d <= 4."""
        return _random_series(self.field, rng, rng.randint(0, 3), 4, (-4, 8))


def _random_series(field: BaseField, rng, k: int, denom: int, span,
                   prec=None) -> SeriesTrunc:
    """A series of k drawn terms c t^(n/d) to O(t^prec): n from the range
    ``span``, d from 1 to denom, then c from ``field.random_unit``, in that
    order; terms drawn at one exponent are added."""
    lo, hi = span
    return series(field, [(Fraction(rng.randint(lo, hi), rng.randint(1, denom)),
                           field.random_unit(rng)) for _ in range(k)], prec)


# ---------------------------------------------------------------------------
# Enriched valuations


def _enriched(name: str, field: BaseField, target: TropicalExtension,
              unit: Callable[[Any], Any]) -> Hom:
    """The map c t^g + ... -> (unit(c), g) into ``target``, a rank-one
    extension, 0 -> 0, from series over ``field``; an indeterminate series
    raises PrecisionError.  The leading term is read once; its exponent is
    a Fraction already, so the ExtElem and its GroupElem are built as
    plain tuples, and only the coefficient is checked to be a base unit."""
    is_zero = target.base.is_zero

    def f(a: SeriesTrunc):
        if not a.terms:
            if a.prec is None:
                return None
            raise PrecisionError("insufficient precision to take a valuation")
        g, c = a.terms[0]
        u = unit(c)
        if is_zero(u):
            raise ValueError("coefficient must be a base unit")
        return tuple.__new__(ExtElem, (u, tuple.__new__(GroupElem, ((g,),))))

    return Hom(name, SeriesDomain(field), target, f)


def hom_val(field: BaseField = QQ) -> Hom:
    """Valuation: a nonzero series maps to its leading exponent in K x| Q."""
    return _enriched(f"val:{field.name}((t))->T", field, trop(), lambda c: 1)


def hom_sval() -> Hom:
    """Signed valuation over rational series: (sign of lead, lead exponent)."""
    return _enriched("sval:Q((t))->TR", QQ, trop_signed(),
                     lambda c: 1 if c > 0 else -1)


def hom_fval(field: BaseField = QQ) -> Hom:
    """Fine valuation: (leading coefficient, leading exponent)."""
    return _enriched(f"fval:{field.name}((t))->{field.name}x|Q", field,
                     TropicalExtension(FieldHyperfield(field), 1), lambda c: c)


def hom_phval() -> Hom:
    """Phased valuation over Gaussian-rational series into Phi x| Q."""
    return _enriched("phval:Qi((t))->TC", QQi, trop_complex(), dir_of_gauss)


def hom_by_name(name: str, field: Optional[str] = None) -> Hom:
    """The enriched valuation ``name`` from series over the field named
    ``field``, or over its first field when None: val and fval take Q or
    Qi, sval only Q and phval only Qi."""
    table = {"val": (hom_val, QQ, QQi), "sval": (lambda F: hom_sval(), QQ),
             "fval": (hom_fval, QQ, QQi), "phval": (lambda F: hom_phval(), QQi)}
    if name not in table:
        raise ValueError(f"unknown homomorphism {name!r}")
    make, *fields = table[name]
    for F in fields:
        if field in (None, F.name):
            return make(F)
    raise ValueError(f"{name} takes series over "
                     f"{' or '.join(F.name for F in fields)}, not {field}")

"""Truncated Puiseux/Hahn series with exact rational exponents.

A series is a finite list of (exponent, coefficient) terms plus a precision
order: exponents at or above it are unknown.  Precision None means the
series is exact.  Empty terms with finite precision is an indeterminate
O(t^p) with no known terms.

Products and quotients scale the exponents of their operands to integers
on a common grid 1/D (D the lcm of their denominators) and work on integer
offsets: a product is a convolution that stops each row at the result's
precision, a quotient a/b is the division recurrence q (1 + u) = a / c for
b = c t^g (1 + u), run only over the terms the result keeps (or, in
``series_div_lead``, only its first term), and an inverse is the quotient
1/b.  Precision follows the known terms: a product
is known up to the smaller of lead(a) + prec(b) and lead(b) + prec(a), the
inverse of c t^g + O(t^p) up to O(t^(p - 2g)), and a quotient as far as a
times that inverse.  Exponents are Fractions again in every result.

The product and its precision rule are written once, as the private grid
step ``_mul_add``: s + a*b for three series already on one grid, with
integer offsets and integer precisions.  ``series_mul`` is that step onto
an exact zero, on the grid of its two operands' exponents and precisions;
``poly.product_of_linear_factors`` puts all its roots on one grid and runs
its whole shift-and-scale loop through the step, turning offsets back into
Fractions only once at the end.

Each output coefficient of a product or quotient is one ``F.dot`` over its
factor pairs; over Q that sums integer numerators and reduces once, so a
term costs one Fraction instead of one per multiply and add.  A sum merges
the two sorted term tuples in one pass.

Also defines the enriched valuations val, sval, fval and phval into
tropical extensions, and checks of the homomorphism laws.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, lcm
from typing import Any, Callable, Optional

from .extension import TropicalExtension, trop, trop_complex, trop_signed
from .fields import BaseField, QQ, QQi
from .hyperfields import (
    FieldHyperfield,
    Hom,
    dir_of_gauss,
)
from .ordgroup import gelem


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


def series_sub(a: SeriesTrunc, b: SeriesTrunc) -> SeriesTrunc:
    return series_add(a, series_neg(b))


def series_mul(a: SeriesTrunc, b: SeriesTrunc) -> SeriesTrunc:
    """a*b as one grid step ``_mul_add`` onto an exact zero, on the grid
    of the denominators of both operands' exponents and precisions."""
    # A list, not a generator: a tuple unpacked from a generator is sized
    # by a guess and shrunk, and CPython's tuple free lists then keep one
    # more block per call until the next full collection (peak RSS grew).
    D = lcm(*[e.denominator for e, _ in a.terms + b.terms])
    for q in (a.prec, b.prec):
        if q is not None:
            D = lcm(D, q.denominator)
    F = a.field
    terms, p = _mul_add(F, _GRID_ZERO, _to_grid(a, D), _to_grid(b, D))
    return SeriesTrunc(F, tuple([(Fraction(n, D), c) for n, c in terms]),
                       None if p is None else Fraction(p, D))


# A series on the grid 1/D is (terms, prec): terms (offset, coeff) with
# strictly increasing integer offsets n for the exponents n/D, prec an
# integer offset or None.

_GRID_ZERO = ((), None)


def _to_grid(a: SeriesTrunc, D: int):
    """a on the grid 1/D; D must be a multiple of every denominator of its
    exponents and of its precision."""
    p = a.prec
    return ([(e.numerator * (D // e.denominator), c) for e, c in a.terms],
            None if p is None else p.numerator * (D // p.denominator))


def _from_grid(F: BaseField, g, exps: dict[int, Fraction]) -> SeriesTrunc:
    """The series of ``g``, each offset n read as the exponent exps[n]."""
    terms, p = g
    return SeriesTrunc(F, tuple([(exps[n], c) for n, c in terms]),
                       None if p is None else exps[p])


def _mul_add(F: BaseField, s, a, b):
    """s + a*b for series s, a, b on one grid 1/D.

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
    """a/b by one division recurrence on an integer exponent grid.

    Write b = c t^g (1 + u) with u's exponents positive and a = t^l A with
    A's offsets non-negative.  With D the lcm of the denominators of A's
    and u's offsets, A = sum_n A_n t^(n/D), b = c t^g + sum_k b_k t^(g+k/D)
    and the quotient is t^(l-g) sum_n q_n t^(n/D) with

        q_n = c^(-1) A_n + sum_{k>=1} nu_k q_{n-k},    nu_k = -b_k c^(-1),

    each q_n one ``F.dot``.  Precision is that of a times the inverse of b:
    the inverse is known to target = min(prec(b) - 2g, prec), so the
    quotient to p = min(l + target, prec(a) - g, prec), with prec(a) in
    place of l for an indeterminate a.  When target + g <= 0 the inverse
    has no known term and p <= l - g, so no q_n is kept.  A single exact
    term divides exactly; any other exact b needs a prec.  A zero a gives
    exactly 0, with or without a prec: 0/b = 0 for every b != 0, as an
    exact zero annihilates in ``series_mul``.
    """
    p, _, terms = _quotient(a, b, prec)
    return SeriesTrunc(a.field, tuple(terms), p)


def series_div_lead(a: SeriesTrunc, b: SeriesTrunc, prec=None) -> SeriesTrunc:
    """``series_div(a, b, prec)`` cut to its first term.

    Only q_0 of the recurrence is computed; the cut is known below the
    lower of p and the next grid point, so it claims no term it did not
    compute.  It has the leading term of the full quotient, or none when
    the full quotient has none, with the same precision rule and errors,
    so an enriched valuation maps both alike.
    """
    p, D, terms = _quotient(a, b, prec)
    first = next(terms, None)
    if first is None:
        return SeriesTrunc(a.field, (), p)
    return SeriesTrunc(a.field, (first,), _min_prec(p, first[0] + Fraction(1, D)))


def _quotient(a: SeriesTrunc, b: SeriesTrunc, prec):
    """(p, D, the nonzero terms below p, lazily) of a/b on the grid 1/D;
    see series_div."""
    F = a.field
    if b.is_zero():
        raise ZeroDivisionError("cannot invert the zero series")
    if b.is_indeterminate():
        raise PrecisionError("insufficient precision: leading term unknown")
    g, c = b.terms[0]
    target: Optional[Fraction] = None
    if b.prec is not None:
        target = b.prec - 2 * g
    if prec is not None:
        prec = Fraction(prec)
        target = _min_prec(target, prec)
    if target is None and len(b.terms) > 1:
        raise PrecisionError("inverse of a multi-term exact series needs a precision")
    if a.is_zero():
        return None, None, iter(())
    p: Optional[Fraction] = None
    if target is not None:
        p = (a.terms[0][0] if a.terms else a.prec) + target
    if a.prec is not None:
        p = _min_prec(p, a.prec - g)
    p = _min_prec(p, prec)
    if not a.terms:
        return p, None, iter(())
    lead = a.terms[0][0]
    da = [e - lead for e, _ in a.terms]
    db = [e - g for e, _ in b.terms[1:]]
    D = lcm(*[e.denominator for e in da + db])  # a list, as in series_mul
    # A_n by integer offset; -b_k c^(-1) at increasing offsets k >= 1.
    cinv = F.inv(c)
    alpha = {e.numerator * (D // e.denominator): ca
             for e, (_, ca) in zip(da, a.terms)}
    nu = [(e.numerator * (D // e.denominator), F.neg(F.mul(cb, cinv)))
          for e, (_, cb) in zip(db, b.terms[1:])]
    shift = lead - g
    num, den = shift.numerator * D, shift.denominator * D
    size = max(alpha) + 1 if p is None else ceil((p - shift) * D)

    def terms():
        # None in q marks a zero q_n.
        q: list[Any] = [None] * max(0, size)
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
                    yield Fraction(num + n * shift.denominator, den), s

    return p, D, terms()


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

    def __init__(self, field: BaseField, max_terms: int = 3, denom: int = 4):
        self.field = field
        self.max_terms = max_terms
        self.denom = denom
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
        n = rng.randint(0, self.max_terms)
        terms = []
        for _ in range(n):
            e = Fraction(rng.randint(-4, 8), rng.randint(1, self.denom))
            while True:
                c = self.field.random(rng)
                if not self.field.is_zero(c):
                    break
            terms.append((e, c))
        return series(self.field, terms)


# ---------------------------------------------------------------------------
# Enriched valuations


def _enriched(name: str, field: BaseField, target: TropicalExtension,
              unit: Callable[[Any], Any]) -> Hom:
    """The map c t^g + ... -> (unit(c), g) into ``target``, 0 -> 0, from
    series over ``field``; an indeterminate series raises PrecisionError."""

    def f(a: SeriesTrunc):
        if a.is_zero():
            return None
        if a.is_indeterminate():
            raise PrecisionError("insufficient precision to take a valuation")
        c, g = a.leading()
        return target.elem(unit(c), gelem(g))

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


def hom_by_name(name: str) -> Hom:
    table = {
        "val": hom_val,
        "sval": hom_sval,
        "fval": hom_fval,
        "phval": hom_phval,
    }
    if name not in table:
        raise ValueError(f"unknown homomorphism {name!r}")
    return table[name]()

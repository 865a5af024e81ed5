"""Reference series arithmetic: rebuilt sums, quadratic product, geometric inverse.

This is how ``finetrop.series`` added, multiplied and inverted before it
merged sorted terms and moved to an integer exponent grid.  A sum and a
product list every term, or every pairwise product, and let ``series()``
merge, sort and truncate them, one field operation at a time; the inverse
sums the powers of ``-u`` one full product at a time.  It is kept only as
a slow, independent oracle for the tests, and shares nothing with the fast
path but the ``series()`` constructor and negation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from finetrop.series import (
    PrecisionError,
    SeriesTrunc,
    _min_prec,
    s_const,
    s_zero,
    series,
    series_neg,
)


def s_monomial(field, c, exp) -> SeriesTrunc:
    if field.is_zero(c):
        return s_zero(field)
    return SeriesTrunc(field, ((Fraction(exp), c),))


def series_truncate(a: SeriesTrunc, prec) -> SeriesTrunc:
    """a known only below prec; its terms are already sorted and nonzero."""
    p = _min_prec(a.prec, Fraction(prec))
    return SeriesTrunc(a.field, tuple(t for t in a.terms if t[0] < p), p)


def series_add(a: SeriesTrunc, b: SeriesTrunc) -> SeriesTrunc:
    if a.field is not b.field and a.field != b.field:
        raise ValueError("base fields differ")
    p = _min_prec(a.prec, b.prec)
    return series(a.field, list(a.terms) + list(b.terms), p)


def series_sub(a: SeriesTrunc, b: SeriesTrunc) -> SeriesTrunc:
    return series_add(a, series_neg(b))


def series_mul(a: SeriesTrunc, b: SeriesTrunc) -> SeriesTrunc:
    F = a.field
    if a.is_zero() or b.is_zero():
        return s_zero(F)
    p: Optional[Fraction] = None
    if b.prec is not None:
        if a.is_indeterminate():
            p = _min_prec(p, a.prec + b.prec)
        else:
            p = _min_prec(p, a.terms[0][0] + b.prec)
    if a.prec is not None:
        if b.is_indeterminate():
            p = _min_prec(p, a.prec + b.prec)
        else:
            p = _min_prec(p, b.terms[0][0] + a.prec)
    out = []
    for e1, c1 in a.terms:
        for e2, c2 in b.terms:
            out.append((e1 + e2, F.mul(c1, c2)))
    return series(F, out, p)


def series_scale(a: SeriesTrunc, c, exp=0) -> SeriesTrunc:
    return series_mul(a, s_monomial(a.field, c, exp))


def series_inv(a: SeriesTrunc, prec=None) -> SeriesTrunc:
    F = a.field
    if a.is_zero():
        raise ZeroDivisionError("cannot invert the zero series")
    if a.is_indeterminate():
        raise PrecisionError("insufficient precision: leading term unknown")
    c, g = a.leading()
    target: Optional[Fraction] = None
    if a.prec is not None:
        target = a.prec - 2 * g
    if prec is not None:
        target = _min_prec(target, Fraction(prec))
    u = series_scale(series_sub(a, s_monomial(F, c, g)), F.inv(c), -g)
    if u.is_zero():
        out = s_monomial(F, F.inv(c), -g)
        return out if target is None else series_truncate(out, target)
    if target is None:
        raise PrecisionError("inverse of a multi-term exact series needs a precision")
    if u.is_indeterminate():
        # The expansion read u.terms[0] here and raised IndexError.  With no
        # known term beyond the leading one, the inverse is the closed form
        # c^(-1) t^(-g) + O(t^target).
        return series_truncate(s_monomial(F, F.inv(c), -g), target)
    rel = target + g
    acc = s_const(F, F.one())
    term = s_const(F, F.one())
    nu = series_neg(u)
    ulead = u.terms[0][0]
    k = 1
    while k * ulead < rel:
        term = series_truncate(series_mul(term, nu), rel)
        acc = series_add(acc, term)
        k += 1
    acc = series_truncate(acc, rel)
    return series_scale(acc, F.inv(c), -g)


def series_div(a: SeriesTrunc, b: SeriesTrunc, prec=None) -> SeriesTrunc:
    """a times the inverse of b, cut at prec; an exact zero a stays exactly
    zero, as in the product."""
    out = series_mul(a, series_inv(b, prec))
    if prec is not None and not out.is_zero():
        out = series_truncate(out, prec)
    return out


def solve_linear_2x2(P, Q, prec=8) -> tuple[SeriesTrunc, SeriesTrunc]:
    """Cramer's rule on the reference arithmetic; numerators keep their prec."""
    dom = P.domain

    def coef(p, d):
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

"""Reference product of linear factors through the generic polynomial product.

This is how ``finetrop.poly.product_of_linear_factors`` expanded
prod (X - r) before it shifted and scaled the coefficient list: each factor
X - r is a two-term polynomial, and the running product multiplies every
pair of coefficients and adds each product to the sum already held for its
exponent (a zero to begin with).  The sums and products of the series
coefficients are those of ``series_oracle``, so the oracle shares neither
the grid nor the precision rule of ``series._mul_add``.  It is kept only
as a slow, independent oracle for the tests.
"""

from __future__ import annotations

from typing import Any, Sequence

from finetrop.poly import Expt, FPoly
from finetrop.series import SeriesDomain

import series_oracle


class ReferenceSeries(SeriesDomain):
    """A series domain whose sum and product are ``series_oracle``'s."""

    def add(self, a, b):
        return series_oracle.series_add(a, b)

    def mul(self, a, b):
        return series_oracle.series_mul(a, b)


def fpoly_mul(a: FPoly, b: FPoly) -> FPoly:
    D = a.domain
    out: dict[Expt, Any] = {}
    for d1, c1 in a.coeffs.items():
        for d2, c2 in b.coeffs.items():
            d = tuple(x + y for x, y in zip(d1, d2))
            prod = D.mul(c1, c2)
            out[d] = D.add(out.get(d, D.zero()), prod)
    return FPoly(D, a.nvars, out)


def linear_factor(domain, root) -> FPoly:
    """The univariate factor X - root."""
    return FPoly(domain, 1, {(1,): domain.one(), (0,): domain.neg(root)})


def product_of_linear_factors(domain, roots: Sequence) -> FPoly:
    ref = ReferenceSeries(domain.field)
    p = FPoly(ref, 1, {(0,): ref.one()})
    for r in roots:
        p = fpoly_mul(p, linear_factor(ref, r))
    return FPoly(domain, 1, p.coeffs)

"""Reference rational-root search: candidates tested by Fraction evaluation.

This is how ``RationalField.unit_roots`` tested each candidate p/q before
it moved to integer Horner on q^deg f(p/q).  It is kept only as a slow,
independent oracle for the tests; it shares the divisor list and the
search bounds with the fast path, but not the root test.
"""

from __future__ import annotations

import math
from fractions import Fraction

from finetrop.fields import (
    MAX_ROOT_SEARCH_COEF,
    MAX_ROOT_SEARCH_PAIRS,
    BaseSolveError,
    _divisors,
)


def rational_unit_roots(coeffs: dict) -> list:
    """All nonzero rational roots of sum_j coeffs[j] x^j, in search order."""
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
        return rational_unit_roots({i: Fraction(c) for i, c in ints.items() if c})
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

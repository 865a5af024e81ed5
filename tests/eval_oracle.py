"""Reference set-valued evaluation: every monomial on its own.

This is how ``finetrop.poly.eval_poly`` evaluated before it shared one
running power per coordinate and before tropical extensions summed only
their minimal-level terms: each monomial builds every x^e from scratch by
the generic ``Hyperfield.power`` (e multiplications), and the generic
``Hyperfield.nary_sum`` folds every term.  Both are called unbound so no
hyperfield's own closed forms stand in for them.  A monomial with a nonzero
exponent at a zero coordinate is zero, and a negative exponent at any zero
coordinate raises, whatever the order of the variables.  It is kept only as
a slow oracle for the tests.
"""

from __future__ import annotations

from typing import Sequence

from finetrop.hyperfields import Hyperfield
from finetrop.poly import HPoly


def eval_every_term(p: HPoly, point: Sequence):
    H = p.hyperfield
    terms = []
    for d in p.support:
        at_zero = [e for a, e in zip(point, d) if e and H.is_zero(a)]
        if any(e < 0 for e in at_zero):
            raise ZeroDivisionError("0^k undefined for negative k")
        if at_zero:
            continue
        val = p.coeffs[d]
        for a, e in zip(point, d):
            if e:
                val = H.mul(val, Hyperfield.power(H, a, e))
        terms.append(val)
    return Hyperfield.nary_sum(H, terms)


def is_root_every_term(p: HPoly, point: Sequence) -> bool:
    return p.hyperfield.set_contains_zero(eval_every_term(p, point))

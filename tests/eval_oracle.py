"""Reference set-valued evaluation: every monomial on its own.

This is how ``finetrop.poly.eval_poly`` evaluated before it shared one
running power per coordinate and before tropical extensions summed only
their minimal-level terms: each monomial builds every x^e from scratch by
the generic ``Hyperfield.power`` (e multiplications), and the generic
``Hyperfield.nary_sum`` folds every term.  Both are called unbound so no
hyperfield's own closed forms stand in for them.  It is kept only as a
slow oracle for the tests.
"""

from __future__ import annotations

from typing import Sequence

from finetrop.hyperfields import Hyperfield
from finetrop.poly import HPoly


def eval_every_term(p: HPoly, point: Sequence):
    H = p.hyperfield
    terms = []
    for d in p.support:
        val = p.coeffs[d]
        dead = False
        for a, e in zip(point, d):
            if e == 0:
                continue
            if H.is_zero(a):
                if e < 0:
                    raise ZeroDivisionError("0^k undefined for negative k")
                dead = True
                break
            val = H.mul(val, Hyperfield.power(H, a, e))
        if not dead:
            terms.append(val)
    return Hyperfield.nary_sum(H, terms)


def is_root_every_term(p: HPoly, point: Sequence) -> bool:
    return p.hyperfield.set_contains_zero(eval_every_term(p, point))

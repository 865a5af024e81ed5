"""Reference set-valued evaluation: every monomial on its own.

This is how ``finetrop.poly.eval_poly`` evaluated before it shared one
running power per coordinate and before tropical extensions summed only
their minimal-level terms: each monomial builds every x^e from scratch by
``power_by_products`` (e multiplications, the generic power as it was
before square-and-multiply), and ``fold_from_zero`` folds every term.  A
monomial with a nonzero exponent at a zero coordinate is zero, and a
negative exponent at any zero coordinate raises, whatever the order of the
variables.  It is kept only as a slow oracle for the tests.

``fold_from_zero`` is the n-ary sum as ``Hyperfield.nary_sum`` folded it
before it started at its first term, and ``extension_add_set_elem`` is
``TropicalExtension.add_set_elem`` as it was before ``level_sum`` owned the
equal-level rule, with ``self`` the extension.  It forms its own union of
base sets: ``|`` over the finite hyperfields and the oracle's
``phase_oracle.union_sets`` over P and Phi.
"""

from __future__ import annotations

from typing import Sequence

from finetrop.hyperfields import Hyperfield, PhaseHyperfield
from finetrop.poly import HPoly

import phase_oracle


def power_by_products(H: Hyperfield, a, n: int):
    """a^n by |n| - 1 products (none for n = 0 or 1); a^n = (1/a)^-n."""
    if n < 0:
        return power_by_products(H, H.inv(a), -n)
    if n == 0:
        return H.one()
    r = a
    for _ in range(n - 1):
        r = H.mul(r, a)
    return r


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
                val = H.mul(val, power_by_products(H, a, e))
        terms.append(val)
    return fold_from_zero(H, terms)


def is_root_every_term(p: HPoly, point: Sequence) -> bool:
    return p.hyperfield.set_contains_zero(eval_every_term(p, point))


def fold_from_zero(H: Hyperfield, terms: Sequence):
    acc = H.singleton(H.zero())
    for t in terms:
        acc = H.add_set_elem(acc, t)
    return acc


def extension_add_set_elem(self, S, y):
    if y is None:
        return S
    if S.level is None:
        if S.zero:
            return self.singleton(y)
        return S
    g, h = S.level, y.level
    if h < g:
        # The new element dominates everything in S.
        return self.singleton(y)
    if g < h:
        # S's elements sit at a lower level and dominate y.
        return S
    C = self.base.add_set_elem(S.base_sv, y.coef)
    tail = self.base.set_contains_zero(C)
    base_part = self.base.set_without_zero(C)
    if S.tail or S.zero:
        y_set = self.base.singleton(y.coef)
        if isinstance(self.base, PhaseHyperfield):
            base_part = phase_oracle.union_sets(base_part, y_set)
        else:
            base_part = base_part | y_set
    return self._mk(g, base_part, tail, tail)

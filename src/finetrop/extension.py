"""Tropical extensions H x| Gamma with Gamma = Q^k ordered lexicographically.

Elements are either zero or a pair (coefficient, level) with the coefficient
a unit of the base hyperfield.  Lower level dominates in sums; at equal
levels the base hyperfield decides, and a zero in the base sum brings zero
together with every unit at every strictly larger level (the tail).
``level_sum`` is the one place that rule is written: ``add_set_elem`` at
equal levels forms the base sum and hands it to ``level_sum``.  So a sum of
many terms depends only on its terms at the minimal level; for a
polynomial, ``finetrop.poly.initial_support`` picks those monomials, and
since they share one level their sum is formed at that level: the base
coefficients are multiplied and summed in the base hyperfield, and
``level_sum`` puts the base sum back at the level, so no extension element
is multiplied or added.

Nested extensions flatten: extending H x| Q^m by Q^k gives H x| Q^(k+m)
with the outer levels first in the lexicographic tuple.

ExtElem and ExtSV are named tuples: they are built, hashed and compared as
the tuples of their fields, they can be unpacked, and assigning a field
raises AttributeError.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, NamedTuple, Optional

from .hyperfields import Hyperfield, K, S, PHI
from .ordgroup import GroupElem, gelem, gzero, group_add, group_neg


class ExtElem(NamedTuple):
    """Nonzero element (coefficient, level) of a tropical extension."""

    coef: Any
    level: GroupElem

    def __repr__(self):
        return f"({self.coef}@{','.join(str(c) for c in self.level.coords)})"


class ExtSV(NamedTuple):
    """Set value over a tropical extension.

    Holds coefficients at a single level, an optional tail of every unit at
    every strictly larger level, and an optional zero.  level None means
    there is no levelled part (the empty set or just zero).
    """

    level: Optional[GroupElem]
    base_sv: Any
    tail: bool
    zero: bool


class TropicalExtension(Hyperfield):
    """The hyperfield H x| Q^k for a base hyperfield H.

    ``add`` and ``nary_sum`` are the generic ``Hyperfield`` ones over
    ``add_set_elem``; polynomial evaluation narrows a sum to the minimal
    level first (``finetrop.poly.initial_support``) and sums there in the
    base (``level_sum``).  The base is never itself an extension: nested
    extensions flatten.
    """

    def __init__(self, base: Hyperfield, rank: int = 1):
        if rank < 1:
            raise ValueError("extension rank must be >= 1")
        if isinstance(base, TropicalExtension):
            # Flatten, outer levels first.
            self.rank = rank + base.rank
            self.base = base.base
        else:
            self.rank = rank
            self.base = base
        self.name = f"{self.base.name}x|Q" + (f"^{self.rank}" if self.rank > 1 else "")

    # --- element helpers --------------------------------------------------

    def elem(self, coef, *level) -> ExtElem:
        if self.base.is_zero(coef):
            raise ValueError("coefficient must be a base unit")
        if len(level) == 1 and isinstance(level[0], GroupElem):
            g = level[0]
        else:
            g = gelem(*level)
        if g.rank != self.rank:
            raise ValueError(f"level rank {g.rank}, expected {self.rank}")
        return ExtElem(coef, g)

    def zero(self):
        return None

    def one(self):
        return ExtElem(self.base.one(), gzero(self.rank))

    def is_zero(self, a) -> bool:
        return a is None

    def neg(self, a):
        return ExtElem(self.base.neg(a.coef), a.level)

    def mul(self, a, b):
        return ExtElem(self.base.mul(a.coef, b.coef), group_add(a.level, b.level))

    def inv(self, a):
        return ExtElem(self.base.inv(a.coef), group_neg(a.level))

    # --- set values -------------------------------------------------------

    def _mk(self, level: GroupElem, base_sv, tail, zero) -> ExtSV:
        if self.base.set_is_empty(base_sv) and not tail:
            return ExtSV(None, self.base.empty_set(), False, zero)
        return ExtSV(level, base_sv, tail, zero)

    def singleton(self, a):
        if a is None:
            return ExtSV(None, self.base.empty_set(), False, True)
        return ExtSV(a.level, self.base.singleton(a.coef), False, False)

    def empty_set(self):
        return ExtSV(None, self.base.empty_set(), False, False)

    def set_is_empty(self, S) -> bool:
        return S.level is None and not S.zero

    def add_set_elem(self, S: ExtSV, y) -> ExtSV:
        """S + y: the lower level dominates; at equal levels the sum is
        ``level_sum`` of the base sum of S's coefficients and y's, with 0
        among S's coefficients when S holds zero (0 + y = y).  S's tail
        needs no case of its own: a set with a tail holds zero, and the
        tail plus y is y."""
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
        C = self.base.set_with_zero(S.base_sv) if S.zero else S.base_sv
        return self.level_sum(g, self.base.add_set_elem(C, y.coef))

    def level_sum(self, level: GroupElem, C) -> ExtSV:
        """The sum of terms all at ``level`` whose coefficients sum to C in
        the base; the only owner of the tail rule.  Zero and the tail are
        both "C holds 0"; the part at ``level`` is C without 0."""
        tail = self.base.set_contains_zero(C)
        return self._mk(level, self.base.set_without_zero(C), tail, tail)

    def set_contains(self, S: ExtSV, a) -> bool:
        if a is None:
            return S.zero
        if S.level is None:
            return False
        if a.level == S.level and self.base.set_contains(S.base_sv, a.coef):
            return True
        return S.tail and S.level < a.level

    def set_contains_zero(self, S: ExtSV) -> bool:
        return S.zero

    def scale_set(self, S: ExtSV, c) -> ExtSV:
        if c is None:
            if self.set_is_empty(S):
                return self.empty_set()
            return ExtSV(None, self.base.empty_set(), False, True)
        if S.level is None:
            return S
        return self._mk(
            group_add(S.level, c.level),
            self.base.scale_set(S.base_sv, c.coef),
            S.tail,
            S.zero,
        )

    def set_elements(self, S: ExtSV) -> list:
        if S.tail:
            raise ValueError("extension set with a tail is infinite")
        out: list = []
        if S.level is not None:
            out.extend(
                ExtElem(c, S.level) for c in self.base.set_elements(S.base_sv)
            )
        if S.zero:
            out.append(None)
        return out

    # --- misc -------------------------------------------------------------

    def random_element(self, rng):
        if rng.random() < 0.1:
            return None
        c = self.base.random_unit(rng)
        g = gelem(*[Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                    for _ in range(self.rank)])
        return ExtElem(c, g)

    def stringency_witness(self):
        w = self.base.stringency_witness()
        if w is None:
            return None
        a, b = w
        return (self.elem(a, *[0] * self.rank), self.elem(b, *[0] * self.rank))

    def fmt(self, a):
        if a is None:
            return "0"
        lev = ",".join(str(c) for c in a.level.coords)
        return f"({self.base.fmt(a.coef)}, {lev})"


def trop(rank: int = 1) -> TropicalExtension:
    """The tropical hyperfield of rank k, K x| Q^k."""
    return TropicalExtension(K, rank)


def trop_signed() -> TropicalExtension:
    """The signed tropical hyperfield, S x| Q."""
    return TropicalExtension(S, 1)


def trop_complex() -> TropicalExtension:
    """The tropical complex model used here, Phi x| Q."""
    return TropicalExtension(PHI, 1)

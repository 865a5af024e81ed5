"""Ordered abelian value groups: Q and lexicographically ordered Q^k.

All coordinates are exact rationals kept in canonical form by Fraction,
so structural equality coincides with group equality.  A GroupElem is a
named tuple holding the tuple of its coordinates: it is built, hashed and
tested for equality as that tuple, and assigning a field raises
AttributeError; its four order comparisons check the ranks first.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Union

LT, EQ, GT = -1, 0, 1

RationalLike = Union[int, str, Fraction]


def _frac(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class GroupElem(NamedTuple("GroupElem", [("coords", tuple)])):
    """Element of Q^k with the lexicographic order (k = 1 is plain Q)."""

    __slots__ = ()

    def __new__(cls, coords: tuple[Fraction, ...]):
        if len(coords) < 1:
            raise ValueError("group element needs rank >= 1")
        return tuple.__new__(cls, (coords,))

    @property
    def rank(self) -> int:
        return len(self.coords)

    def __repr__(self):
        return "G(" + ", ".join(str(c) for c in self.coords) + ")"

    # Comparisons delegate to the lexicographic tuple order on Fractions,
    # all four with a rank check: the tuple base would order elements of
    # different ranks silently.  ``>`` and ``>=`` are ``<`` and ``<=``
    # with the operands swapped, looked up on the class at each call.
    def __lt__(self, other: "GroupElem") -> bool:
        _check_rank(self, other)
        return self.coords < other.coords

    def __le__(self, other: "GroupElem") -> bool:
        _check_rank(self, other)
        return self.coords <= other.coords

    def __gt__(self, other: "GroupElem") -> bool:
        return GroupElem.__lt__(other, self)

    def __ge__(self, other: "GroupElem") -> bool:
        return GroupElem.__le__(other, self)


def gelem(*coords: RationalLike) -> GroupElem:
    return GroupElem(tuple(_frac(c) for c in coords))


def gzero(rank: int = 1) -> GroupElem:
    return GroupElem((Fraction(0),) * rank)


def _check_rank(a: GroupElem, b: GroupElem) -> None:
    if len(a.coords) != len(b.coords):
        raise ValueError(f"rank mismatch: {len(a.coords)} vs {len(b.coords)}")


def group_add(a: GroupElem, b: GroupElem) -> GroupElem:
    _check_rank(a, b)
    return GroupElem(tuple(x + y for x, y in zip(a.coords, b.coords)))


def group_neg(a: GroupElem) -> GroupElem:
    return GroupElem(tuple(-x for x in a.coords))


def lex_compare(a: GroupElem, b: GroupElem) -> int:
    """Total order on Q^k: returns LT, EQ or GT."""
    _check_rank(a, b)
    if a.coords < b.coords:
        return LT
    if a.coords > b.coords:
        return GT
    return EQ


def scalar_mul(n: int, a: GroupElem) -> GroupElem:
    return GroupElem(tuple(n * x for x in a.coords))

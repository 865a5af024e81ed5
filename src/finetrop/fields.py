"""Exact coefficient fields: Q, the Gaussian rationals Q(i), and GF(p).

These are the base fields under series and field-as-hyperfield arithmetic.
Elements are plain hashable values (Fraction, GaussRat, int mod p); the
field objects bundle the operations so callers stay field-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional


@dataclass(frozen=True)
class GaussRat:
    """Gaussian rational re + im*i with exact rational parts."""

    re: Fraction
    im: Fraction

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def gauss(re, im=0) -> GaussRat:
    return GaussRat(Fraction(re), Fraction(im))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class BaseField:
    """Common interface of the exact coefficient fields."""

    name: str

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def from_int(self, n: int):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        return a == self.zero()

    def elements(self) -> Optional[list]:
        """All elements for finite fields, None otherwise."""
        return None

    def random(self, rng):
        raise NotImplementedError

    def sqrt(self, a):
        """An exact square root in the field, or None if there is none."""
        raise NotImplementedError

    def fmt(self, a) -> str:
        return str(a)


class RationalField(BaseField):
    name = "Q"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("no inverse of zero")
        return Fraction(1, a)

    def from_int(self, n):
        return Fraction(n)

    def random(self, rng):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def sqrt(self, a):
        r = _frac_sqrt(a)
        return r

    def fmt(self, a):
        return str(a)


def _int_sqrt(n: int) -> Optional[int]:
    if n < 0:
        return None
    import math

    r = math.isqrt(n)
    return r if r * r == n else None


def _frac_sqrt(a: Fraction) -> Optional[Fraction]:
    if a < 0:
        return None
    p = _int_sqrt(a.numerator)
    q = _int_sqrt(a.denominator)
    if p is None or q is None:
        return None
    return Fraction(p, q)


class GaussianRationalField(BaseField):
    name = "Qi"

    def zero(self):
        return GaussRat(Fraction(0), Fraction(0))

    def one(self):
        return GaussRat(Fraction(1), Fraction(0))

    def i(self):
        return GaussRat(Fraction(0), Fraction(1))

    def add(self, a, b):
        return GaussRat(a.re + b.re, a.im + b.im)

    def neg(self, a):
        return GaussRat(-a.re, -a.im)

    def mul(self, a, b):
        return GaussRat(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)

    def inv(self, a):
        n = a.re * a.re + a.im * a.im
        if n == 0:
            raise ZeroDivisionError("no inverse of zero")
        return GaussRat(a.re / n, -a.im / n)

    def from_int(self, n):
        return GaussRat(Fraction(n), Fraction(0))

    def random(self, rng):
        return GaussRat(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )

    def sqrt(self, a):
        # Solve (x + yi)^2 = a exactly: x^2 - y^2 = re, 2xy = im.
        if a.im == 0:
            if a.re >= 0:
                r = _frac_sqrt(a.re)
                return None if r is None else GaussRat(r, Fraction(0))
            r = _frac_sqrt(-a.re)
            return None if r is None else GaussRat(Fraction(0), r)
        norm = _frac_sqrt(a.re * a.re + a.im * a.im)
        if norm is None:
            return None
        x2 = (a.re + norm) / 2
        x = _frac_sqrt(x2)
        if x is None or x == 0:
            return None
        y = a.im / (2 * x)
        return GaussRat(x, y)

    def fmt(self, a):
        return repr(a)


class PrimeField(BaseField):
    """GF(p) for a prime p, elements 0..p-1."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"GF({p}): only prime fields are supported")
        self.p = p
        self.name = f"GF{p}"

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("no inverse of zero")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n):
        return n % self.p

    def elements(self):
        return list(range(self.p))

    def random(self, rng):
        return rng.randrange(self.p)

    def sqrt(self, a):
        a %= self.p
        for x in range(self.p):
            if (x * x) % self.p == a:
                return x
        return None

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


QQ = RationalField()
QQi = GaussianRationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def field_by_name(name: str) -> BaseField:
    if name == "Q":
        return QQ
    if name == "Qi":
        return QQi
    if name.startswith("GF"):
        return GF(int(name[2:]))
    raise ValueError(f"unknown field {name!r}")

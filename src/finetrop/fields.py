"""Exact coefficient fields: Q, the Gaussian rationals Q(i), and GF(p).

These are the base fields under series and field-as-hyperfield arithmetic.
Elements are plain hashable values (Fraction, GaussRat, int mod p); the
field objects bundle the operations so callers stay field-agnostic.

The fields also own exact root finding, which base solving reduces to:
``sqrt``, ``nth_roots`` (x^n = w, through square roots and a per-field
``odd_roots``) and ``unit_roots`` (the nonzero roots of a sparse Laurent
polynomial: the rational-root search over Q, closed forms up to degree
two over Q(i)).  Over Q and Q(i) every square and odd root is one
rational root, ``_frac_root``: the integer roots of the numerator and
the denominator.  Shapes outside these raise BaseSolveError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
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


class BaseSolveError(ValueError):
    """Exact base solving is outside the supported shapes."""


class SolverInvariantError(RuntimeError):
    """The solver's own result failed its check: a bug, not a bad input."""


# Miller-Rabin on the first 13 primes is exact below this bound (Sorenson
# and Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Miller-Rabin on ``_MR_BASES``: n - 1 = d 2^s with d odd, and a base a
    proves n composite unless a^d = 1 or a^(d 2^r) = -1 mod n for an r < s.
    Raises ValueError from ``PRIMALITY_BOUND`` up."""
    if n >= PRIMALITY_BOUND:
        raise ValueError(f"GF({n}): primality is decided only below "
                         f"{PRIMALITY_BOUND}")
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    return not any(pow(a, d, n) != 1 and all(pow(a, d << r, n) != n - 1
                                             for r in range(s))
                   for a in _MR_BASES)


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

    def dot(self, xs, ys):
        """sum of x*y over nonempty sequences xs, ys of equal length."""
        s = self.mul(xs[0], ys[0])
        for x, y in zip(xs[1:], ys[1:]):
            s = self.add(s, self.mul(x, y))
        return s

    def from_int(self, n: int):
        raise NotImplementedError

    def numerators(self, cs) -> tuple:
        """(ring, L, numerators): the coefficients cs times one common L,
        as elements of a ring with ``one``, ``neg``, ``is_zero`` and ``dot``.

        Sums and products of numerators run in the ring.  An element of the
        ring is an element of the field, so a quotient of two values of
        equal degree needs no reduction; a value homogeneous of degree k
        in the numerators is L^k times its value in the coefficients, which
        the field's ``div`` by L^k reduces.  Here the ring is the field
        itself and L is 1, so nothing needs reducing.
        """
        return self, 1, list(cs)

    def is_zero(self, a) -> bool:
        return a == self.zero()

    def elements(self) -> Optional[list]:
        """All elements for finite fields, None otherwise."""
        return None

    def random(self, rng):
        raise NotImplementedError

    def random_unit(self, rng):
        """A random nonzero element: ``random`` drawn until nonzero."""
        while True:
            a = self.random(rng)
            if not self.is_zero(a):
                return a

    def sqrt(self, a):
        """An exact square root in the field, or None if there is none."""
        raise NotImplementedError

    def power(self, a, n: int):
        """a^n by square-and-multiply, O(log |n|) products; a negative n
        inverts a first.  It uses only ``one``, ``mul`` and ``inv``, so
        ``Hyperfield`` shares it."""
        if n < 0:
            a, n = self.inv(a), -n
        if n == 0:
            return self.one()
        while not n & 1:
            a, n = self.mul(a, a), n >> 1
        r = a
        while n > 1:
            a, n = self.mul(a, a), n >> 1
            if n & 1:
                r = self.mul(r, a)
        return r

    def nth_roots(self, w, n: int) -> list:
        """All x in the field with x^n = w; n may be negative.

        Even n recurses through the two square roots of w; odd n > 1 asks
        ``odd_roots``.
        """
        if n < 0:
            w, n = self.inv(w), -n
        if n == 0:
            raise ValueError("zeroth root")
        if n == 1:
            return [w]
        if n % 2:
            return self.odd_roots(w, n)
        r = self.sqrt(w)
        if r is None:
            return []
        out = []
        for s in (r, self.neg(r)):
            for x in self.nth_roots(s, n // 2):
                if x not in out and self.power(x, n) == w:
                    out.append(x)
        return out

    def odd_roots(self, w, n: int) -> list:
        """All x in the field with x^n = w, for odd n > 1."""
        raise BaseSolveError(f"odd roots over {self.name} are not supported")

    def unit_roots(self, coeffs: dict) -> list:
        """All nonzero roots of sum_j coeffs[j] x^j (Laurent exponents j)."""
        raise BaseSolveError(f"base solve incomplete over {self.name}")

    def fmt(self, a) -> str:
        return str(a)


# Bounds on the rational-root search: the largest |a0|, |an| whose divisors
# are found by trial division, the most candidate pairs p/q tried, and the
# largest degree of the dense row each candidate is evaluated on.  Outside
# them the search would run for hours; BaseSolveError is raised.
MAX_ROOT_SEARCH_COEF = 10 ** 12
MAX_ROOT_SEARCH_PAIRS = 10 ** 5
MAX_ROOT_SEARCH_DEGREE = 10 ** 5


class _Integers:
    """The integers as the numerator ring of Q (see BaseField.numerators)."""

    def one(self):
        return 1

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return a == 0

    def dot(self, xs, ys):
        return sum(map(mul, xs, ys))


_ZZ = _Integers()


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

    def div(self, a, b):
        """a/b as one Fraction, reduced once."""
        if b == 0:
            raise ZeroDivisionError("no inverse of zero")
        return Fraction(a, b)

    def numerators(self, cs):
        """Python ints over L, the lcm of the denominators of cs."""
        L = math.lcm(*[c.denominator for c in cs])
        return _ZZ, L, [c.numerator * (L // c.denominator) for c in cs]

    def dot(self, xs, ys):
        """sum of x*y as one Fraction, reduced once at the end.

        The sum runs on an integer numerator over the lcm of the product
        denominators; xs and ys may mix int and Fraction.
        """
        num, den = 0, 1
        for x, y in zip(xs, ys):
            d = x.denominator * y.denominator
            g = math.gcd(den, d)
            num = num * (d // g) + x.numerator * y.numerator * (den // g)
            den = den * (d // g)
        return Fraction(num, den)

    def is_zero(self, a):
        return a == 0

    def from_int(self, n):
        return Fraction(n)

    def random(self, rng):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def sqrt(self, a):
        return _frac_root(a, 2)

    def odd_roots(self, w, n):
        r = _frac_root(w, n)
        return [] if r is None else [r]

    def unit_roots(self, coeffs):
        """Rational-root search on the integer-cleared polynomial.

        Complete for roots in Q.  Raises BaseSolveError when the degree
        or the cleared end coefficients exceed the search bounds.
        """
        lo = min(coeffs)
        shifted = {i - lo: c for i, c in coeffs.items()}
        deg = max(shifted)
        if deg > MAX_ROOT_SEARCH_DEGREE:
            raise BaseSolveError(
                f"rational root search: degree {deg} exceeds "
                f"{MAX_ROOT_SEARCH_DEGREE}")
        den = 1
        for c in shifted.values():
            den = den * c.denominator // math.gcd(den, c.denominator)
        ints = {i: int(c * den) for i, c in shifted.items()}
        a0 = abs(ints.get(0, 0))
        an = abs(ints[deg])
        if a0 == 0:
            # x = 0 is excluded; divide out and retry.
            return self.unit_roots({i: Fraction(c) for i, c in ints.items() if c})
        if max(a0, an) > MAX_ROOT_SEARCH_COEF:
            raise BaseSolveError(
                f"rational root search: coefficient {max(a0, an)} exceeds "
                f"{MAX_ROOT_SEARCH_COEF}")
        ps, qs = _divisors(a0), _divisors(an)
        if len(ps) * len(qs) > MAX_ROOT_SEARCH_PAIRS:
            raise BaseSolveError(
                f"rational root search: {len(ps) * len(qs)} candidate pairs "
                f"exceed {MAX_ROOT_SEARCH_PAIRS}")
        # p/q is a root exactly when q^deg f(p/q) = sum_i c_i p^i q^(deg-i)
        # vanishes; Horner evaluates that sum on integers.
        cs = [ints.get(i, 0) for i in range(deg, -1, -1)]
        roots = []
        for p in ps:
            for q in qs:
                for sp in (p, -p):
                    h, qk = 0, 1
                    for c in cs:
                        h = h * sp + c * qk
                        qk *= q
                    if h == 0:
                        x = Fraction(sp, q)
                        if x not in roots:
                            roots.append(x)
        return roots

    def fmt(self, a):
        return str(a)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _iroot(m: int, n: int) -> Optional[int]:
    """The integer n-th root of m >= 0, or None when m is not an n-th power."""
    if m < 2:
        return m
    if m.bit_length() <= n:  # 1 < m < 2^n: the root lies strictly in (1, 2)
        return None
    # Newton's method on integers, from a start at or above the root,
    # decreases to the floor of the root (at once from isqrt for n = 2).
    r = math.isqrt(m) if n == 2 else 1 << -(-m.bit_length() // n)
    while (s := ((n - 1) * r + m // r ** (n - 1)) // n) < r:
        r = s
    return r if r ** n == m else None


def _frac_root(a: Fraction, n: int) -> Optional[Fraction]:
    """The rational n-th root of a, n >= 1, or None if there is none.  For
    even n it is the non-negative root, and a negative a has none."""
    num, den = a.numerator, a.denominator
    if num < 0 and n % 2 == 0:
        return None
    rn, rd = _iroot(abs(num), n), _iroot(den, n)
    if rn is None or rd is None:
        return None
    return Fraction(rn if num >= 0 else -rn, rd)


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
                r = _frac_root(a.re, 2)
                return None if r is None else GaussRat(r, Fraction(0))
            r = _frac_root(-a.re, 2)
            return None if r is None else GaussRat(Fraction(0), r)
        norm = _frac_root(a.re * a.re + a.im * a.im, 2)
        if norm is None:
            return None
        x2 = (a.re + norm) / 2
        x = _frac_root(x2, 2)
        if x is None or x == 0:
            return None
        y = a.im / (2 * x)
        return GaussRat(x, y)

    def odd_roots(self, w, n):
        # 1 is the only odd-order root of unity in Q(i), so the root is
        # unique when it exists.  Comparing x with its conjugate, x^n = q
        # (q rational) forces x real, and x^n = q*i forces x = t*i with
        # t^n = q*i^(1-n) = +-q.  Other radicands are not supported.
        if w.im == 0:
            r = _frac_root(w.re, n)
            return [] if r is None else [GaussRat(r, Fraction(0))]
        if w.re == 0:
            t = _frac_root(w.im if n % 4 == 1 else -w.im, n)
            return [] if t is None else [GaussRat(Fraction(0), t)]
        raise BaseSolveError(f"odd root of {w!r} over Q(i): the radicand "
                             f"is neither real nor imaginary")

    def unit_roots(self, coeffs):
        """Closed forms for degrees one and two; other degrees raise."""
        lo = min(coeffs)
        shifted = {i - lo: c for i, c in coeffs.items()}
        deg = max(shifted)
        if deg == 0:
            return []  # a single term has no unit root
        if deg == 1:
            x = self.neg(self.div(shifted.get(0, self.zero()), shifted[1]))
            return [] if self.is_zero(x) else [x]
        if deg == 2:
            a = shifted[2]
            b, c = shifted.get(1, self.zero()), shifted.get(0, self.zero())
            disc = self.sub(self.mul(b, b), self.mul(self.from_int(4), self.mul(a, c)))
            r = self.sqrt(disc)
            if r is None:
                return []
            two_a = self.mul(self.from_int(2), a)
            roots = []
            for s in (r, self.neg(r)):
                x = self.div(self.add(self.neg(b), s), two_a)
                if not self.is_zero(x) and x not in roots:
                    roots.append(x)
            return roots
        raise BaseSolveError(
            f"base solve incomplete: degree {deg} over Q(i), residual {shifted}")

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

    def random_unit(self, rng):
        return rng.randrange(1, self.p)  # one draw; no list of the units

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


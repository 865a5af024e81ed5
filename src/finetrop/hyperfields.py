"""Hyperfields with set-valued addition, including exact phase arithmetic.

Concrete instances: any exact field viewed as a hyperfield, the Krasner
hyperfield K, the sign hyperfields S and W, the phase hyperfield P, the
tropical phase hyperfield Phi, and factor hyperfields GF(p)/U.

A set value over a finite hyperfield (a field, K, S, W, GF(p)/U) is a plain
frozenset of its elements.  A sum of two elements is ``add``; a set plus
one element, ``add_set_elem``, is one ``add`` per member of the set for a
finite hyperfield, and a closed form in every other (``add`` is then the
singleton plus the element).  A sum of many elements folds
``add_set_elem`` from the first of them.

Every root test asks only whether 0 lies in a sum of elements
(``sum_contains_zero``), and K and S answer that without forming a set
value: K when the number of nonzero terms is not 1, S when the nonzero
terms do not all have one sign.  W keeps the fold, since 1 + 1 + 1 holds 0
in W and S's rule is not W's; so do fields, GF(p)/U, P and Phi.  K, S and
W take powers in closed form, every unit squaring to 1.

Phase elements are unit directions with rational slope, stored as primitive
integer pairs; no floating point angles appear anywhere.  A set value over P
or Phi is a canonical ArcSet.  Every phase sum is a set S plus one element
a, read off in closed form by one pass over S's arcs (``phase_add_sets``):
a + x is the short arc between a and x, closed over Phi and open over P, so
S + a is the hull of S and a on the circle cut at -a.  S + 0 = S; -a inside
an arc of S (over Phi, anywhere in S) gives the circle with zero; otherwise
the sum runs from S's clockwise-most end to its counterclockwise-most one,
one arc over Phi, and over P split at a unless a, 0 or -a lies in S, with
-a in S adding zero and -a itself.  However many components S has, the sum
is at most three arcs.

Dir, Arc and ArcSet are named tuples: they are built, hashed and compared
as the tuples of their fields, so a Dir equals the plain pair (p, q), they
can be unpacked, and assigning a field raises AttributeError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence

from .fields import GF, BaseField, GaussRat, PrimeField, QQ, QQi


# ---------------------------------------------------------------------------
# Directions on the unit circle


class Dir(NamedTuple("Dir", [("p", int), ("q", int)])):
    """Primitive integer pair (p, q) naming the direction of p + qi."""

    __slots__ = ()

    def __new__(cls, p: int, q: int):
        if p == 0 and q == 0:
            raise ValueError("zero is not a direction")
        if math.gcd(p, q) != 1:
            raise ValueError(f"direction ({p},{q}) is not primitive")
        return tuple.__new__(cls, (p, q))

    def __repr__(self):
        return f"dir({self.p},{self.q})"


def _primitive_dir(p: int, q: int) -> Dir:
    """The Dir of a pair that is primitive by construction, built without
    the gcd check of the public constructor."""
    return tuple.__new__(Dir, (p, q))


def make_dir(p: int, q: int) -> Dir:
    if p == 0 and q == 0:
        raise ValueError("zero is not a direction")
    g = math.gcd(p, q)
    return _primitive_dir(p // g, q // g)


def dir_of_gauss(z: GaussRat) -> Dir:
    """Direction of a nonzero Gaussian rational."""
    if z.re == 0 and z.im == 0:
        raise ValueError("zero has no direction")
    d = z.re.denominator * z.im.denominator
    return make_dir(int(z.re * d), int(z.im * d))


def dir_neg(a: Dir) -> Dir:
    return _primitive_dir(-a.p, -a.q)


def dir_mul(a: Dir, b: Dir) -> Dir:
    return make_dir(a.p * b.p - a.q * b.q, a.p * b.q + a.q * b.p)


def dir_inv(a: Dir) -> Dir:
    # a * conj(a) is a positive real, so the conjugate normalises to 1/a.
    return make_dir(a.p, -a.q)


def cross(a: Dir, b: Dir) -> int:
    return a.p * b.q - a.q * b.p


def _half(a: Dir) -> int:
    # 0 for angles in [0, pi), 1 for [pi, 2*pi).
    return 0 if (a.q > 0 or (a.q == 0 and a.p > 0)) else 1


def dir_cmp(a: Dir, b: Dir) -> int:
    """Total circular order starting at direction (1, 0)."""
    ha, hb = _half(a), _half(b)
    if ha != hb:
        return -1 if ha < hb else 1
    c = cross(a, b)
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


def dir_between(u: Dir, x: Dir, v: Dir) -> bool:
    """Is x strictly inside the counterclockwise open arc from u to v?

    Assumes u != v; handles arcs longer than pi and the antipodal case.
    """
    if x == u or x == v:
        return False
    c = cross(u, v)
    if c > 0:
        return cross(u, x) > 0 and cross(x, v) > 0
    if c < 0:
        # Complement of the short closed arc from v counterclockwise to u.
        return not (cross(v, x) > 0 and cross(x, u) > 0)
    # u and v antipodal: the ccw arc is the open half plane left of u.
    return cross(u, x) > 0


# ---------------------------------------------------------------------------
# Arcs and canonical arc sets


class Arc(NamedTuple):
    """Counterclockwise arc from start to end with closure flags.

    start == end with both ends closed is the single point; start == end
    with both ends open is the circle minus that point.
    """

    start: Dir
    end: Dir
    closed_start: bool
    closed_end: bool

    def is_point(self) -> bool:
        return self.start == self.end and self.closed_start and self.closed_end

    def contains(self, x: Dir) -> bool:
        if self.start == self.end:
            if self.closed_start and self.closed_end:
                return x == self.start
            if not self.closed_start and not self.closed_end:
                return x != self.start
            raise ValueError("degenerate arc with mixed closure")
        if x == self.start:
            return self.closed_start
        if x == self.end:
            return self.closed_end
        return dir_between(self.start, x, self.end)

    def __repr__(self):
        if self.is_point():
            return f"{{{self.start}}}"
        lb = "[" if self.closed_start else "("
        rb = "]" if self.closed_end else ")"
        return f"{lb}{self.start},{self.end}{rb}"


# Arcs and arc sets built on the hot paths skip the named tuple's
# Python-level ``__new__``: ``_tuple(Arc, (...))`` is one C call.
_tuple = tuple.__new__


def point_arc(a: Dir) -> Arc:
    return _tuple(Arc, (a, a, True, True))


class ArcSet(NamedTuple):
    """Canonical finite union of arcs, maybe with zero or the full circle."""

    arcs: tuple[Arc, ...]
    full: bool
    has_zero: bool

    def contains_dir(self, x: Dir) -> bool:
        if self.full:
            return True
        return any(a.contains(x) for a in self.arcs)

    def __repr__(self):
        parts = []
        if self.full:
            parts.append("circle")
        else:
            parts.extend(repr(a) for a in self.arcs)
        if self.has_zero:
            parts.append("0")
        return "{" + ", ".join(parts) + "}" if parts else "{}"


ARCSET_EMPTY = ArcSet((), False, False)
ARCSET_ZERO = ArcSet((), False, True)
ARCSET_FULL_ZERO = ArcSet((), True, True)


# ---------------------------------------------------------------------------
# Phase hyperaddition: a set plus one element, as one hull in closed form


def _from_least_start(arcs: list[Arc]) -> tuple[Arc, ...]:
    """Disjoint arcs in counterclockwise order, rotated to begin at the arc
    with the least start: the canonical order of an ArcSet."""
    k = 0
    for i in range(1, len(arcs)):
        if dir_cmp(arcs[i].start, arcs[k].start) < 0:
            k = i
    return tuple(arcs[k:] + arcs[:k])


def phase_add_sets(S: ArcSet, a: Optional[Dir], closed: bool) -> ArcSet:
    """S + a over P (closed=False) or Phi (closed=True): the union of x + a
    over x in the canonical arc set S, for one element a, which may be zero
    (None).

    a + x is the short arc between a and x: closed over Phi, open over P,
    {a} for x == a, and for x == -a the circle with zero (Phi) or {a, -a}
    with zero (P).  So S + a is the hull of S and a on the circle cut at
    -a.  S + 0 = S; a full circle gives the circle with zero; a set holding
    no arc gives {a} when it holds zero and nothing otherwise.  Otherwise
    each end of an arc of S is keyed by its side of a, read off the sign of
    cross(a, x): -1 clockwise, 1 counterclockwise, 0 at a, and -2 (a start)
    or 2 (an end) at -a, told from a by the dot product.
    - An arc running through -a gives the circle with zero; over Phi, so
      does -a anywhere in S.  The circle minus -a is its own sum.
    - Else the sum runs from the clockwise-most start L of S to the
      counterclockwise-most end R (a itself where S has none on that
      side).  Over Phi it is one arc holding a, each end closed where S's
      is, and an end at a closed.
    - Over P it holds a only when a, 0 or -a lies in S; without a it is
      the two arcs (L, a) and (a, R).  Ends are open except at a (closed
      when a is in the sum) and at -a (closed where S's end is).  -a in S
      (a closed end or a point) adds zero, and -a as a point adds itself.
    """
    if a is None:
        return S
    if S.full:
        return ARCSET_FULL_ZERO
    if not S.arcs:
        if S.has_zero:
            return _tuple(ArcSet, ((point_arc(a),), False, False))
        return ARCSET_EMPTY
    ap, aq = a.p, a.q
    lo = hi = a
    kl = kr = 0
    clo = chi = False
    has_a, anti, lone = S.has_zero, False, False
    for arc in S.arcs:
        s, e, cs, ce = arc.start, arc.end, arc.closed_start, arc.closed_end
        c = ap * s.q - aq * s.p
        ks = 1 if c > 0 else -1 if c < 0 else 0 if ap * s.p + aq * s.q > 0 else -2
        c = ap * e.q - aq * e.p
        ke = 1 if c > 0 else -1 if c < 0 else 0 if ap * e.p + aq * e.q > 0 else 2
        if s.p == e.p and s.q == e.q:
            if not cs:
                # The circle minus s: it runs through -a unless s == -a.
                return (_tuple(ArcSet, ((arc,), False, False)) if ks == -2
                        else ARCSET_FULL_ZERO)
            if ks == -2:
                anti = lone = True
                continue
        elif ks > ke or (ks == ke and s.p * e.q - s.q * e.p < 0):
            return ARCSET_FULL_ZERO
        if ks == -2:
            lo, kl, clo, anti = s, -2, cs, anti or cs
        elif ks == 0:
            has_a = has_a or cs
        elif ks == -1 and (kl == 0 or (kl == -1 and s.p * lo.q - s.q * lo.p > 0)):
            lo, kl, clo = s, -1, cs
        if ke == 2:
            hi, kr, chi, anti = e, 2, ce, anti or ce
        elif ke == 0:
            has_a = has_a or ce
        elif ke == 1 and (kr == 0 or (kr == 1 and hi.p * e.q - hi.q * e.p > 0)):
            hi, kr, chi = e, 1, ce
        if ks < 0 < ke:
            has_a = True
    if closed:
        if anti:
            return ARCSET_FULL_ZERO
        return _tuple(ArcSet, ((_tuple(Arc, (lo, hi, clo or not kl,
                                             chi or not kr)),), False, False))
    has_a = has_a or anti
    clo = has_a if kl == 0 else clo and kl == -2
    chi = has_a if kr == 0 else chi and kr == 2
    if has_a or not kl or not kr:
        arcs = [_tuple(Arc, (lo, hi, clo, chi))]
    else:
        arcs = [_tuple(Arc, (lo, a, clo, False)), _tuple(Arc, (a, hi, False, chi))]
    if lone:
        arcs.insert(0, point_arc(dir_neg(a)))
    return _tuple(ArcSet, (_from_least_start(arcs), False, anti))


# ---------------------------------------------------------------------------
# Hyperfield interface


class Hyperfield:
    """Multiplicative group with set-valued addition."""

    name: str

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        return a == self.zero()

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    # --- set values -------------------------------------------------------

    def singleton(self, a):
        raise NotImplementedError

    def empty_set(self):
        raise NotImplementedError

    def add(self, a, b):
        """Hypersum of two elements as a set value: {a} + b.  A finite
        hyperfield defines its own ``add`` and derives ``add_set_elem``
        from it."""
        return self.add_set_elem(self.singleton(a), b)

    def add_set_elem(self, S, a):
        """Union of x + a over x in S.  P, Phi and tropical extensions
        define it in closed form; a finite hyperfield derives it from
        ``add``."""
        raise NotImplementedError

    def set_contains(self, S, a) -> bool:
        raise NotImplementedError

    def set_contains_zero(self, S) -> bool:
        return self.set_contains(S, self.zero())

    def sum_contains_zero(self, terms: Sequence) -> bool:
        """Whether 0 lies in the sum of the elements ``terms``: the fold
        ``nary_sum`` read by ``set_contains_zero``.  K and S answer it in
        closed form without forming a set value."""
        return self.set_contains_zero(self.nary_sum(terms))

    def set_is_empty(self, S) -> bool:
        raise NotImplementedError

    def set_without_zero(self, S):
        raise NotImplementedError

    def set_with_zero(self, S):
        raise NotImplementedError

    def scale_set(self, S, c):
        """Multiply every element of S by c (c a unit or zero)."""
        raise NotImplementedError

    def set_elements(self, S) -> list:
        """Explicit elements of a finite set value."""
        raise NotImplementedError

    # --- enumeration / sampling ------------------------------------------

    def elements(self) -> Optional[list]:
        """All elements for finite hyperfields, None otherwise."""
        return None

    def units(self) -> Optional[Sequence]:
        els = self.elements()
        if els is None:
            return None
        return [a for a in els if not self.is_zero(a)]

    def random_element(self, rng):
        els = self.elements()
        if els is None:
            raise NotImplementedError
        return rng.choice(els)

    def random_unit(self, rng):
        """A random unit: a choice from ``units()`` when there are finitely
        many, else the first nonzero ``random_element``."""
        units = self.units()
        if units is not None:
            return rng.choice(units)
        while True:
            a = self.random_element(rng)
            if not self.is_zero(a):
                return a

    def is_stringent(self) -> bool:
        return self.stringency_witness() is None

    def stringency_witness(self):
        """A pair (a, b) with a != -b whose sum is multivalued, or None."""
        return None

    def fmt(self, a) -> str:
        return str(a)

    def nary_sum(self, terms: Sequence):
        """Left fold of ``add_set_elem`` over a list of elements, from the
        singleton of the first (0 + t = {t}); {0} for no terms."""
        if not terms:
            return self.singleton(self.zero())
        acc = self.singleton(terms[0])
        for t in terms[1:]:
            acc = self.add_set_elem(acc, t)
        return acc

    # a^n by square-and-multiply; a negative n inverts a first.
    power = BaseField.power


class FiniteHyperfield(Hyperfield):
    """Base for hyperfields whose set values are frozensets of elements.

    Each subclass defines ``add``; S + a is the union of x + a over x in S.
    """

    def singleton(self, a):
        return frozenset((a,))

    def empty_set(self):
        return frozenset()

    def add_set_elem(self, S, a):
        if len(S) == 1:
            (x,) = S
            return self.add(x, a)
        return frozenset().union(*(self.add(x, a) for x in S))

    def set_contains(self, S, a) -> bool:
        return a in S

    def set_is_empty(self, S) -> bool:
        return not S

    def set_without_zero(self, S):
        return S - {self.zero()}

    def set_with_zero(self, S):
        return S | {self.zero()}

    def scale_set(self, S, c):
        return frozenset(self.mul(c, x) for x in S)

    def set_elements(self, S) -> list:
        return list(S)


class FieldHyperfield(FiniteHyperfield):
    """A field viewed as a hyperfield with singleton sums."""

    def __init__(self, field: BaseField):
        self.field = field
        self.name = field.name

    def zero(self):
        return self.field.zero()

    def one(self):
        return self.field.one()

    def neg(self, a):
        return self.field.neg(a)

    def mul(self, a, b):
        return self.field.mul(a, b)

    def inv(self, a):
        return self.field.inv(a)

    def add(self, a, b):
        return self.singleton(self.field.add(a, b))

    def elements(self):
        return self.field.elements()

    def random_element(self, rng):
        return self.field.random(rng)

    def random_unit(self, rng):
        return self.field.random_unit(rng)

    def fmt(self, a):
        return self.field.fmt(a)


class _SmallHyperfield(FiniteHyperfield):
    """What K, S and W share: elements 0, 1 (and -1) multiplied as integers,
    and a sum with a zero operand that is the other operand.  Each subclass
    gives ``_add_units``, the sum of two units."""

    def zero(self):
        return 0

    def one(self):
        return 1

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("no inverse of zero")
        return a

    def add(self, a, b):
        if a == 0:
            return self.singleton(b)
        if b == 0:
            return self.singleton(a)
        return self._add_units(a, b)

    def power(self, a, n: int):
        """a^n in closed form: every unit squares to 1, so a^n is a for odd
        n and 1 for even n; 0^n is 0 for n > 0, 1 for n = 0, and raises
        ZeroDivisionError for n < 0, as ``BaseField.power``."""
        if n < 0 and a == 0:
            return self.inv(a)
        if n == 0:
            return 1
        return a if n & 1 else a * a

    def units(self):
        return self._units


_ZERO_ONE = frozenset((0, 1))
_SIGNS = frozenset((-1, 0, 1))
_UNIT_SIGNS = frozenset((-1, 1))


class KrasnerHyperfield(_SmallHyperfield):
    """K = {0, 1} with 1 + 1 = {0, 1}."""

    name = "K"
    _units = (1,)

    def neg(self, a):
        return a

    def _add_units(self, a, b):
        return _ZERO_ONE

    def sum_contains_zero(self, terms: Sequence) -> bool:
        # 1 + 1 = {0, 1}: only a single unit term keeps 0 out.
        return len(terms) - terms.count(0) != 1

    def elements(self):
        return [0, 1]


class SignHyperfield(_SmallHyperfield):
    """S = {-1, 0, 1} with 1 + (-1) = {-1, 0, 1}."""

    name = "S"
    _units = (-1, 1)

    def neg(self, a):
        return -a

    def _add_units(self, a, b):
        if a == b:
            return self.singleton(a)
        return _SIGNS

    def sum_contains_zero(self, terms: Sequence) -> bool:
        # Units of one sign sum to that sign, and both signs to all of S:
        # 0 is in the sum when both signs occur or neither does.
        return (1 in terms) == (-1 in terms)

    def elements(self):
        return [-1, 0, 1]


class WeakSignHyperfield(SignHyperfield):
    """W = {-1, 0, 1}: like S but a + a = {1, -1} for units a."""

    name = "W"

    def _add_units(self, a, b):
        return _UNIT_SIGNS if a == b else _SIGNS

    # Not S's rule: a + a = {1, -1}, so 1 + 1 + 1 holds 0.  W folds.
    sum_contains_zero = Hyperfield.sum_contains_zero

    def stringency_witness(self):
        return (1, 1)


class QuotientHyperfield(FiniteHyperfield):
    """Factor hyperfield GF(p)/U for a unit subgroup U, by table enumeration.

    Elements are canonical coset representatives: 0 and, for units, the
    least positive member of each coset.
    """

    def __init__(self, field: PrimeField, subgroup: Iterable[int]):
        self.field = field
        p = field.p
        U = frozenset(u % p for u in subgroup)
        if 0 in U or 1 not in U:
            raise ValueError("subgroup must consist of units and contain 1")
        for u in U:
            for v in U:
                if (u * v) % p not in U:
                    raise ValueError("not closed under multiplication")
        self.U = U
        # The first unit outside the cosets found so far is the least
        # member of its own coset, so the representatives come in order.
        self._rep = {0: 0}
        self._reps = [0]
        for a in range(1, p):
            if a not in self._rep:
                self._reps.append(a)
                for u in U:
                    self._rep[(a * u) % p] = a
        self.name = f"GF{p}/{{{','.join(map(str, sorted(U)))}}}"

    def rep(self, a: int) -> int:
        return self._rep[a % self.field.p]

    def zero(self):
        return 0

    def one(self):
        return self.rep(1)

    def neg(self, a):
        return self.rep(self.field.neg(a))

    def mul(self, a, b):
        return self.rep(self.field.mul(a, b))

    def inv(self, a):
        return self.rep(self.field.inv(a))

    def add(self, a, b):
        # a*u + b*v = u*(a + b*w) with w = v/u in U, so the cosets in the
        # sum of the cosets of a and b are those of a + b*w.
        p = self.field.p
        return frozenset(self._rep[(a + b * w) % p] for w in self.U)

    def elements(self):
        return list(self._reps)

    def random_element(self, rng):
        return rng.choice(self._reps)

    def random_unit(self, rng):
        # One draw, as rng.choice over the units _reps[1:] makes.
        return self._reps[rng.randrange(1, len(self._reps))]

    def stringency_witness(self):
        # a + b = a(1 + b/a), so a witness (a, b) gives the witness
        # (1, b/a); 1 is the least unit, so the first witness has a = 1.
        one = self.one()
        for b in self.units():
            if b != self.neg(one) and len(self.add(one, b)) > 1:
                return (one, b)
        return None


class PhaseHyperfield(Hyperfield):
    """The phase hyperfield P (open arcs) or tropical phase Phi (closed).

    Elements are Dir values; zero is None.  Set values are ArcSet.
    """

    def __init__(self, closed: bool):
        self.closed = closed
        self.name = "Phi" if closed else "P"

    def zero(self):
        return None

    def one(self):
        return Dir(1, 0)

    def is_zero(self, a):
        return a is None

    def neg(self, a):
        return None if a is None else dir_neg(a)

    def mul(self, a, b):
        return dir_mul(a, b)

    def inv(self, a):
        return dir_inv(a)

    def singleton(self, a):
        if a is None:
            return ARCSET_ZERO
        return _tuple(ArcSet, ((point_arc(a),), False, False))

    def empty_set(self):
        return ARCSET_EMPTY

    def add_set_elem(self, S, a):
        return phase_add_sets(S, a, self.closed)

    def set_contains(self, S, a) -> bool:
        if a is None:
            return S.has_zero
        return S.contains_dir(a)

    def set_contains_zero(self, S) -> bool:
        return S.has_zero

    def set_is_empty(self, S) -> bool:
        return not S.full and not S.arcs and not S.has_zero

    def set_without_zero(self, S):
        return ArcSet(S.arcs, S.full, False)

    def set_with_zero(self, S):
        return ArcSet(S.arcs, S.full, True)

    def scale_set(self, S, c):
        if c is None:
            if self.set_is_empty(S):
                return ARCSET_EMPTY
            return ARCSET_ZERO
        if S.full or not S.arcs:
            return S
        # A rotation keeps the arcs of a canonical set disjoint and in cyclic
        # order.
        arcs = []
        for a in S.arcs:
            start = dir_mul(c, a.start)
            end = start if a.end == a.start else dir_mul(c, a.end)
            arcs.append(_tuple(Arc, (start, end, a.closed_start, a.closed_end)))
        return _tuple(ArcSet, (_from_least_start(arcs), False, S.has_zero))

    def set_elements(self, S) -> list:
        if S.full or not all(a.is_point() for a in S.arcs):
            raise ValueError("cannot enumerate an infinite arc set")
        out: list = [a.start for a in S.arcs]
        if S.has_zero:
            out.append(None)
        return out

    def random_element(self, rng):
        if rng.random() < 0.1:
            return None
        while True:
            p, q = rng.randint(-5, 5), rng.randint(-5, 5)
            if p or q:
                return make_dir(p, q)

    def stringency_witness(self):
        return (Dir(1, 0), Dir(0, 1))

    def fmt(self, a):
        return "0" if a is None else f"dir({a.p},{a.q})"


K = KrasnerHyperfield()
S = SignHyperfield()
W = WeakSignHyperfield()
P = PhaseHyperfield(closed=False)
PHI = PhaseHyperfield(closed=True)


def field_hyperfield(field: BaseField) -> FieldHyperfield:
    return FieldHyperfield(field)


def quotient_build(p: int, subgroup: Iterable[int]) -> QuotientHyperfield:
    return QuotientHyperfield(GF(p), subgroup)


# ---------------------------------------------------------------------------
# Homomorphisms from fields into hyperfields


@dataclass
class Hom:
    """Multiplicative map source -> target with f(a+b) in f(a) + f(b)."""

    name: str
    source: Any
    target: Hyperfield
    apply: Callable[[Any], Any]

    def __call__(self, a):
        return self.apply(a)


def hom_trivial(field: BaseField) -> Hom:
    """Collapse a field onto the Krasner hyperfield."""

    def f(a):
        return 0 if field.is_zero(a) else 1

    return Hom(f"triv:{field.name}->K", field, K, f)


def hom_sign() -> Hom:
    """Sign map from the rationals onto S."""

    def f(a: Fraction):
        return 0 if a == 0 else (1 if a > 0 else -1)

    return Hom("sgn:Q->S", QQ, S, f)


def hom_sign_weak() -> Hom:
    """The same sign map viewed with target W."""
    return Hom("sgn:Q->W", QQ, W, hom_sign().apply)


def hom_phase() -> Hom:
    """Phase map from the Gaussian rationals onto P."""

    def f(z: GaussRat):
        if z.re == 0 and z.im == 0:
            return None
        return dir_of_gauss(z)

    return Hom("ph:Qi->P", QQi, P, f)


def hom_check(hom: Hom, rng, samples: int = 200) -> list[str]:
    """Sampled homomorphism test: multiplicativity and sum compatibility."""
    failures = []
    H = hom.target
    F = hom.source
    if hom(F.one()) != H.one():
        failures.append("one not preserved")
    if not H.is_zero(hom(F.zero())):
        failures.append("zero not preserved")
    for _ in range(samples):
        a = F.random(rng)
        b = F.random(rng)
        lhs = hom(F.mul(a, b))
        if lhs != _hmul(H, hom(a), hom(b)):
            failures.append(f"multiplicativity fails at {a}, {b}")
            continue
        s = hom(F.add(a, b))
        if not H.set_contains(H.add(hom(a), hom(b)), s):
            failures.append(f"sum compatibility fails at {a}, {b}")
    return failures


def _hmul(H: Hyperfield, a, b):
    if H.is_zero(a) or H.is_zero(b):
        return H.zero()
    return H.mul(a, b)


# ---------------------------------------------------------------------------
# Axiom checking


def _triples(H: Hyperfield, rng, samples: int):
    els = H.elements()
    if els is not None and len(els) ** 3 <= 20000:
        for a in els:
            for b in els:
                for c in els:
                    yield a, b, c
        return
    if samples < 1:
        raise ValueError(f"axioms over {H.name} are checked on sampled "
                         f"triples: samples must be at least 1, not {samples}")
    for _ in range(samples):
        yield (H.random_element(rng), H.random_element(rng), H.random_element(rng))


def check_axioms(H: Hyperfield, rng=None, samples: int = 1000) -> list[str]:
    """Verify the hyperfield axioms; returns a list of failure messages.

    Every axiom, the uniqueness of additive inverses included, is checked
    on all triples of a finite hyperfield with at most 20,000 of them, and
    otherwise on ``samples`` sampled triples (``ValueError`` if samples < 1,
    so that a check of no triple cannot pass).  Associativity is checked as
    equality of the set values (a + b) + c and a + (b + c), both computed
    by folding.
    """
    if rng is None:
        import random

        rng = random.Random(0)
    failures: list[str] = []
    zero, one = H.zero(), H.one()

    def fail(msg):
        if len(failures) < 20 and msg not in failures:
            failures.append(msg)

    for a, b, c in _triples(H, rng, samples):
        ab = H.add(a, b)
        if ab != H.add(b, a):
            fail(f"commutativity fails at {H.fmt(a)}, {H.fmt(b)}")
        bc = H.add(b, c)
        lhs = H.add_set_elem(ab, c)
        rhs = H.add_set_elem(bc, a)
        if lhs != rhs:
            fail(f"associativity fails at {H.fmt(a)}, {H.fmt(b)}, {H.fmt(c)}")
        if H.add(a, zero) != H.singleton(a):
            fail(f"identity fails at {H.fmt(a)}")
        na = H.neg(a) if not H.is_zero(a) else zero
        if not H.set_contains_zero(H.add(a, na)):
            fail(f"inverse fails at {H.fmt(a)}")
        # Unique additive inverses: 0 lies in a + b only for b = -a.
        if b != na and H.set_contains_zero(ab):
            fail(f"inverse of {H.fmt(a)} not unique: 0 in {H.fmt(a)} + {H.fmt(b)}")
        # Reversibility: a in b + c  iff  c in a + (-b).
        nb = H.neg(b) if not H.is_zero(b) else zero
        if H.set_contains(bc, a) != H.set_contains(H.add(a, nb), c):
            fail(f"reversibility fails at {H.fmt(a)}, {H.fmt(b)}, {H.fmt(c)}")
        # Distributivity of multiplication over hyperaddition.
        if not H.is_zero(c):
            scaled = H.scale_set(ab, c)
            direct = H.add(_hmul(H, c, a), _hmul(H, c, b))
            if scaled != direct:
                fail(f"distributivity fails at {H.fmt(a)}, {H.fmt(b)}, {H.fmt(c)}")
        # Multiplicative group axioms on units.
        if not H.is_zero(a) and not H.is_zero(b) and not H.is_zero(c):
            if H.mul(H.mul(a, b), c) != H.mul(a, H.mul(b, c)):
                fail(f"mul associativity fails at {H.fmt(a)}, {H.fmt(b)}, {H.fmt(c)}")
            if H.mul(a, H.inv(a)) != one:
                fail(f"mul inverse fails at {H.fmt(a)}")
            if H.mul(a, one) != a:
                fail(f"mul identity fails at {H.fmt(a)}")
    return failures

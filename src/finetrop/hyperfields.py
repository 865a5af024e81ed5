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

Phase elements are unit directions with rational slope, stored as primitive
integer pairs; no floating point angles appear anywhere.  A set value over P
or Phi is a canonical ArcSet.  Every phase sum is a set plus one element,
read off in closed form one component at a time: S + 0 = S; two points a, b
sum to {a}, to their antipodal pair with zero (P) or the circle with zero
(Phi), or to the arc between them the short way round, oriented by the sign
of cross(a, b); a point a and an arc B sum to the hull of a and B on the
circle cut at -a, or, when -a lies in B, to the circle with zero or (over P,
-a a closed end of B) one arc closed at -a with zero.  A set of several
components, or with zero beside its arcs, sums to the union of its
components' sums (plus {a} for its zero), canonicalised once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Optional, Sequence

from .fields import BaseField, GaussRat, PrimeField, QQ, QQi


# ---------------------------------------------------------------------------
# Directions on the unit circle


@dataclass(frozen=True)
class Dir:
    """Primitive integer pair (p, q) naming the direction of p + qi."""

    p: int
    q: int

    def __post_init__(self):
        if self.p == 0 and self.q == 0:
            raise ValueError("zero is not a direction")
        g = math.gcd(abs(self.p), abs(self.q))
        if g != 1:
            raise ValueError(f"direction ({self.p},{self.q}) is not primitive")

    def __repr__(self):
        return f"dir({self.p},{self.q})"


def _primitive_dir(p: int, q: int) -> Dir:
    """The Dir of a pair that is primitive by construction, built without
    the gcd check of the public constructor."""
    d = object.__new__(Dir)
    object.__setattr__(d, "p", p)
    object.__setattr__(d, "q", q)
    return d


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


def sort_dirs(dirs: Iterable[Dir]) -> list[Dir]:
    uniq = set(dirs)
    return sorted(uniq, key=functools.cmp_to_key(dir_cmp))


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


@dataclass(frozen=True)
class Arc:
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


def point_arc(a: Dir) -> Arc:
    return Arc(a, a, True, True)


@dataclass(frozen=True)
class ArcSet:
    """Canonical finite union of arcs, maybe with zero or the full circle."""

    arcs: tuple[Arc, ...]
    full: bool
    has_zero: bool

    def contains_dir(self, x: Dir) -> bool:
        if self.full:
            return True
        return any(a.contains(x) for a in self.arcs)

    def is_finite(self) -> bool:
        return not self.full and all(a.is_point() for a in self.arcs)

    def finite_dirs(self) -> list[Dir]:
        if not self.is_finite():
            raise ValueError("arc set is not finite")
        return [a.start for a in self.arcs]

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
# Arc sets on one refinement of the circle
#
# Sorted cuts c_0 ... c_{n-1} cut the circle into 2n atoms: atom 2i is the
# point c_i and atom 2i+1 the open gap (c_i, c_{i+1}).  A set that is a union
# of arcs with endpoints among the cuts is a set of atoms.


def _atoms(arcs: Iterable[Arc], index: dict[Dir, int], m: int) -> set[int]:
    """Atom indices of a union of arcs whose endpoints are cuts."""
    out: set[int] = set()
    for a in arcs:
        first = 2 * index[a.start] + (not a.closed_start)
        last = 2 * index[a.end] - (not a.closed_end)
        out.update((first + t) % m for t in range((last - first) % m + 1))
    return out


def _stitch(cuts: Sequence[Dir], marked: Sequence[bool], has_zero: bool) -> ArcSet:
    """The canonical ArcSet of the marked atoms: one arc per maximal run,
    sorted by start."""
    if not any(marked):
        return ArcSet((), False, has_zero)
    if all(marked):
        return ArcSet((), True, has_zero)
    m, n = len(marked), len(cuts)
    # Walk once round from an unmarked atom, so that no run wraps the walk.
    k = marked.index(False)
    runs = []
    first = None
    for j in range(k + 1, k + m + 1):
        x = j % m
        if marked[x]:
            if first is None:
                first = x
            last = x
        elif first is not None:
            runs.append((first, last))
            first = None
    return ArcSet(tuple(
        Arc(cuts[f // 2], cuts[(l + 1) // 2 % n], f % 2 == 0, l % 2 == 0)
        for f, l in sorted(runs)), False, has_zero)


def _canonical_arcs(raw: Sequence[Arc], full: bool, has_zero: bool) -> ArcSet:
    """Canonicalise a raw union of arcs on the refinement at its endpoints."""
    if full:
        return ArcSet((), True, has_zero)
    cuts = sort_dirs(d for a in raw for d in (a.start, a.end))
    marked = [False] * (2 * len(cuts))
    for x in _atoms(raw, {c: i for i, c in enumerate(cuts)}, len(marked)):
        marked[x] = True
    return _stitch(cuts, marked, has_zero)


# ---------------------------------------------------------------------------
# Phase hyperaddition: a set plus one element, in closed form per component


def phase_add_sets(S: ArcSet, a: Optional[Dir], closed: bool) -> ArcSet:
    """S + a over P (closed=False) or Phi (closed=True): the union of x + a
    over x in the arc set S, for one element a, which may be zero (None).

    S + 0 = S; a full circle plus a direction is the circle with zero; a
    set holding no arc gives {a} when it holds zero and nothing otherwise.
    One component without zero is summed by ``_point_plus_point`` or
    ``_point_plus_arc`` directly.  Otherwise the sum is the union of those
    per-component sums, plus {a} when S holds zero, canonicalised once; it
    is the circle with zero as soon as one component gives it.
    """
    if a is None:
        return S
    if S.full:
        return ARCSET_FULL_ZERO
    if not S.arcs:
        if S.has_zero:
            return ArcSet((point_arc(a),), False, False)
        return ARCSET_EMPTY
    if len(S.arcs) == 1 and not S.has_zero:
        return _component_plus_point(S.arcs[0], a, closed)
    raw = [point_arc(a)] if S.has_zero else []
    has_zero = False
    for arc in S.arcs:
        part = _component_plus_point(arc, a, closed)
        if part.full:
            return ARCSET_FULL_ZERO
        raw += part.arcs
        has_zero = has_zero or part.has_zero
    return _canonical_arcs(raw, False, has_zero)


def _component_plus_point(arc: Arc, a: Dir, closed: bool) -> ArcSet:
    """The sum of one component of a set (a point or an arc) and a."""
    if arc.is_point():
        return _point_plus_point(a, arc.start, closed)
    return _point_plus_arc(a, arc, closed)


def _point_plus_point(a: Dir, b: Dir, closed: bool) -> ArcSet:
    """{a} + {b}: {a} for a == b, the antipodal pair with zero (P) or the
    circle with zero (Phi) for b == -a, else the arc between them the short
    way round."""
    c = cross(a, b)
    if c:
        arc = Arc(a, b, closed, closed) if c > 0 else Arc(b, a, closed, closed)
        return ArcSet((arc,), False, False)
    if a == b:
        return ArcSet((point_arc(a),), False, False)
    if closed:
        return ARCSET_FULL_ZERO
    na = dir_neg(a)
    lo, hi = (a, na) if dir_cmp(a, na) < 0 else (na, a)
    return ArcSet((point_arc(lo), point_arc(hi)), False, True)


def _point_plus_arc(a: Dir, arc: Arc, closed: bool) -> ArcSet:
    """{a} + B for an arc B that is not a single point.

    a + x is the segment from a to x the short way round: closed over Phi,
    open over P, and {a} for x == a.
    - If -a is not in B, cut the circle at -a.  B is an interval there,
      with a in the middle, and the sum is the hull of a and B.  An end at
      a is closed over Phi, and over P only when a is in B.  An end of B
      is closed only over Phi, and only where B's is; so an end at -a,
      which B leaves out, is open.
    - If -a is in B, the sum holds zero and is the whole circle, except
      over P with -a a closed end of B.  Then it is one arc, closed at -a,
      that runs to a, or on to B's far end (open there) when a lies
      inside B.
    """
    na = dir_neg(a)
    s, e = arc.start, arc.end
    if arc.contains(na):
        if closed or (na != s and na != e):
            return ARCSET_FULL_ZERO
        if na == s:
            hull = (Arc(na, e, True, False) if dir_between(na, a, e)
                    else Arc(na, a, True, True))
        else:
            hull = (Arc(s, na, False, True) if dir_between(s, a, na)
                    else Arc(a, na, True, True))
        return ArcSet((hull,), False, True)
    if s == e:
        # The circle minus -a: every a + x lies in it, and covers it.
        return ArcSet((arc,), False, False)
    cs, ce = closed and arc.closed_start, closed and arc.closed_end
    if a == s or cross(a, s) > 0:
        # B starts at or after a.
        hull = Arc(a, e, closed or (a == s and arc.closed_start), ce)
    elif a == e or cross(a, e) < 0:
        # B ends at or before a.
        hull = Arc(s, a, cs, closed or (a == e and arc.closed_end))
    else:
        hull = Arc(s, e, cs, ce)
    return ArcSet((hull,), False, False)


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

    def union_sets(self, S, T):
        raise NotImplementedError

    def set_contains(self, S, a) -> bool:
        raise NotImplementedError

    def set_contains_zero(self, S) -> bool:
        return self.set_contains(S, self.zero())

    def set_is_empty(self, S) -> bool:
        raise NotImplementedError

    def set_without_zero(self, S):
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

    def units(self) -> Optional[list]:
        els = self.elements()
        if els is None:
            return None
        return [a for a in els if not self.is_zero(a)]

    def random_element(self, rng):
        els = self.elements()
        if els is None:
            raise NotImplementedError
        return rng.choice(els)

    def is_stringent(self) -> bool:
        raise NotImplementedError

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
        return frozenset().union(*(self.add(x, a) for x in S))

    def union_sets(self, S, T):
        return S | T

    def set_contains(self, S, a) -> bool:
        return a in S

    def set_is_empty(self, S) -> bool:
        return not S

    def set_without_zero(self, S):
        return S - {self.zero()}

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

    def is_stringent(self):
        return True

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

    def is_stringent(self):
        return True


_ZERO_ONE = frozenset((0, 1))
_SIGNS = frozenset((-1, 0, 1))
_UNIT_SIGNS = frozenset((-1, 1))


class KrasnerHyperfield(_SmallHyperfield):
    """K = {0, 1} with 1 + 1 = {0, 1}."""

    name = "K"

    def neg(self, a):
        return a

    def _add_units(self, a, b):
        return _ZERO_ONE

    def elements(self):
        return [0, 1]


class SignHyperfield(_SmallHyperfield):
    """S = {-1, 0, 1} with 1 + (-1) = {-1, 0, 1}."""

    name = "S"

    def neg(self, a):
        return -a

    def _add_units(self, a, b):
        if a == b:
            return self.singleton(a)
        return _SIGNS

    def elements(self):
        return [-1, 0, 1]


class WeakSignHyperfield(SignHyperfield):
    """W = {-1, 0, 1}: like S but a + a = {1, -1} for units a."""

    name = "W"

    def _add_units(self, a, b):
        return _UNIT_SIGNS if a == b else _SIGNS

    def is_stringent(self):
        return False

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

    def is_stringent(self):
        return self.stringency_witness() is None

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
        return ArcSet((point_arc(a),), False, False)

    def empty_set(self):
        return ARCSET_EMPTY

    def add_set_elem(self, S, a):
        return phase_add_sets(S, a, self.closed)

    def union_sets(self, S, T):
        return _canonical_arcs(
            list(S.arcs) + list(T.arcs),
            S.full or T.full,
            S.has_zero or T.has_zero,
        )

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

    def scale_set(self, S, c):
        if c is None:
            if self.set_is_empty(S):
                return ARCSET_EMPTY
            return ARCSET_ZERO
        if S.full or not S.arcs:
            return S
        # A rotation keeps the arcs of a canonical set disjoint and in cyclic
        # order, so the rotated tuple is canonical once it starts at the arc
        # with the least start.
        arcs = []
        for a in S.arcs:
            start = dir_mul(c, a.start)
            end = start if a.end == a.start else dir_mul(c, a.end)
            arcs.append(Arc(start, end, a.closed_start, a.closed_end))
        k = 0
        for i in range(1, len(arcs)):
            if dir_cmp(arcs[i].start, arcs[k].start) < 0:
                k = i
        return ArcSet(tuple(arcs[k:] + arcs[:k]), False, S.has_zero)

    def set_elements(self, S) -> list:
        if not S.is_finite():
            raise ValueError("cannot enumerate an infinite arc set")
        out: list = S.finite_dirs()
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

    def is_stringent(self):
        return False

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
    from .fields import GF

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

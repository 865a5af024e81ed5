"""Hyperfields with set-valued addition, including exact phase arithmetic.

Concrete instances: any exact field viewed as a hyperfield, the Krasner
hyperfield K, the sign hyperfields S and W, the phase hyperfield P, the
tropical phase hyperfield Phi, and factor hyperfields GF(p)/U.

Phase elements are unit directions with rational slope, stored as primitive
integer pairs.  All arc computations are closed form over these pairs; no
floating point angles appear anywhere.
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


def make_dir(p: int, q: int) -> Dir:
    if p == 0 and q == 0:
        raise ValueError("zero is not a direction")
    g = math.gcd(abs(p), abs(q))
    return Dir(p // g, q // g)


def dir_of_gauss(z: GaussRat) -> Dir:
    """Direction of a nonzero Gaussian rational."""
    if z.re == 0 and z.im == 0:
        raise ValueError("zero has no direction")
    d = z.re.denominator * z.im.denominator
    return make_dir(int(z.re * d), int(z.im * d))


def dir_neg(a: Dir) -> Dir:
    return Dir(-a.p, -a.q)


def dir_mul(a: Dir, b: Dir) -> Dir:
    return make_dir(a.p * b.p - a.q * b.q, a.p * b.q + a.q * b.p)


def dir_inv(a: Dir) -> Dir:
    # a * conj(a) is a positive real, so the conjugate normalises to 1/a.
    return make_dir(a.p, -a.q)


def cross(a: Dir, b: Dir) -> int:
    return a.p * b.q - a.q * b.p


def dot(a: Dir, b: Dir) -> int:
    return a.p * b.p + a.q * b.q


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


def _mediant(u: Dir, v: Dir) -> Dir:
    return make_dir(u.p + v.p, u.q + v.q)


def dir_perp(u: Dir) -> Dir:
    """u rotated a quarter turn counterclockwise."""
    return Dir(-u.q, u.p)


def arc_midpoint(u: Dir, v: Dir) -> Dir:
    """A direction strictly inside the counterclockwise open arc u -> v."""
    if u == v:
        return dir_neg(u)
    c = cross(u, v)
    if c > 0:
        return _mediant(u, v)
    if c < 0:
        return dir_neg(_mediant(u, v))
    return dir_perp(u)


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


def _canonical_arcs(raw: Sequence[Arc], full: bool, has_zero: bool) -> ArcSet:
    """Canonicalise a raw union of arcs by atom refinement and stitching."""
    if full:
        return ArcSet((), True, has_zero)
    raw = [a for a in raw]
    if not raw:
        return ArcSet((), False, has_zero)

    def member(x: Dir) -> bool:
        return any(a.contains(x) for a in raw)

    endpoints = sort_dirs(
        [a.start for a in raw] + [a.end for a in raw]
    )
    # Atoms alternate: point e0, gap (e0,e1), point e1, ..., gap (e_last,e0).
    atoms: list[tuple[str, Any]] = []
    n = len(endpoints)
    for i, e in enumerate(endpoints):
        atoms.append(("pt", e))
        nxt = endpoints[(i + 1) % n]
        atoms.append(("gap", (e, nxt)))

    included = []
    for kind, data in atoms:
        if kind == "pt":
            included.append(member(data))
        else:
            u, v = data
            included.append(member(arc_midpoint(u, v)))

    if all(included):
        return ArcSet((), True, has_zero)
    if not any(included):
        return ArcSet((), False, has_zero)

    # Rotate so the list starts at an excluded atom, then stitch runs.
    k = included.index(False)
    order = list(range(k, len(atoms))) + list(range(k))
    runs: list[list[int]] = []
    cur: list[int] = []
    for idx in order:
        if included[idx]:
            cur.append(idx)
        elif cur:
            runs.append(cur)
            cur = []
    if cur:
        runs.append(cur)

    out: list[Arc] = []
    for run in runs:
        first_kind, first_data = atoms[run[0]]
        last_kind, last_data = atoms[run[-1]]
        if len(run) == 1 and first_kind == "pt":
            out.append(point_arc(first_data))
            continue
        if first_kind == "pt":
            start, cs = first_data, True
        else:
            start, cs = first_data[0], False
        if last_kind == "pt":
            end, ce = last_data, True
        else:
            end, ce = last_data[1], False
        if start == end and not (cs and ce):
            # A run covering everything except one point.
            out.append(Arc(start, end, False, False))
        else:
            out.append(Arc(start, end, cs, ce))

    out.sort(key=functools.cmp_to_key(lambda a, b: dir_cmp(a.start, b.start)))
    return ArcSet(tuple(out), False, has_zero)


ARCSET_EMPTY = ArcSet((), False, False)
ARCSET_ZERO = ArcSet((), False, True)
ARCSET_FULL_ZERO = ArcSet((), True, True)


def _split_arc(arc: Arc, cuts: Iterable[Dir]) -> list[Arc]:
    """Refine an arc at the given directions lying strictly inside it."""
    if arc.is_point():
        return [arc]
    inner = [c for c in set(cuts) if arc.contains(c) and c != arc.start and c != arc.end]
    if not inner:
        return [arc]
    if arc.start == arc.end:
        # Circle minus a point: order cuts ccw starting just after the hole.
        base = arc.start
        inner_sorted = sorted(inner, key=functools.cmp_to_key(
            lambda c, d: _ccw_cmp_from(base, c, d)))
        pieces: list[Arc] = []
        prev = base
        for c in inner_sorted:
            pieces.append(Arc(prev, c, False, False))
            pieces.append(point_arc(c))
            prev = c
        pieces.append(Arc(prev, base, False, False))
        return pieces
    inner_sorted = sorted(inner, key=functools.cmp_to_key(
        lambda c, d: _ccw_cmp_from(arc.start, c, d)))
    pieces = []
    prev, pc = arc.start, arc.closed_start
    for c in inner_sorted:
        pieces.append(Arc(prev, c, pc, False))
        pieces.append(point_arc(c))
        prev, pc = c, False
    pieces.append(Arc(prev, arc.end, pc, arc.closed_end))
    return pieces


def _ccw_cmp_from(base: Dir, a: Dir, b: Dir) -> int:
    """Compare a, b by counterclockwise angle measured from base."""
    if a == b:
        return 0
    # a precedes b iff a lies in the open ccw arc (base, b).
    if b == base:
        return -1
    if a == base:
        return 1
    return -1 if dir_between(base, a, b) else 1


# ---------------------------------------------------------------------------
# Phase hyperaddition: closed-form sums of points and arcs

class _Contrib:
    """Accumulator for raw arc contributions before canonicalisation."""

    def __init__(self):
        self.arcs: list[Arc] = []
        self.full = False
        self.zero = False

    def add_point(self, d: Dir):
        self.arcs.append(point_arc(d))

    def add_arc(self, a: Arc):
        self.arcs.append(a)

    def add_set(self, s: ArcSet):
        if s.full:
            self.full = True
        self.arcs.extend(s.arcs)
        if s.has_zero:
            self.zero = True

    def done(self) -> ArcSet:
        return _canonical_arcs(self.arcs, self.full, self.zero)


def _phase_pp(a: Dir, b: Dir, closed: bool, out: _Contrib) -> None:
    """Point plus point in P (closed=False) or Phi (closed=True)."""
    if a == b:
        out.add_point(a)
        return
    if b == dir_neg(a):
        if closed:
            out.full = True
        else:
            out.add_point(a)
            out.add_point(b)
        out.zero = True
        return
    if cross(a, b) > 0:
        out.add_arc(Arc(a, b, closed, closed))
    else:
        out.add_arc(Arc(b, a, closed, closed))


def _open_pieces(pieces: Iterable[Arc]) -> list[Arc]:
    """Split off closed endpoints as point pieces, leaving open arcs."""
    out = []
    for p in pieces:
        if p.is_point():
            out.append(p)
            continue
        if p.closed_start:
            out.append(point_arc(p.start))
        if p.closed_end and p.end != p.start:
            out.append(point_arc(p.end))
        out.append(Arc(p.start, p.end, False, False))
    return out


def _phase_pa(a: Dir, arc: Arc, closed: bool, out: _Contrib) -> None:
    """Point plus arc, via refinement of the arc at a and -a."""
    na = dir_neg(a)
    for piece in _open_pieces(_split_arc(arc, [a, na])):
        if piece.is_point():
            _phase_pp(a, piece.start, closed, out)
            continue
        mid = arc_midpoint(piece.start, piece.end)
        if mid == a or mid == na:
            raise AssertionError("refinement failed")
        if cross(a, mid) > 0:
            # Piece lies counterclockwise of a; arcs run from a outward.
            out.add_arc(Arc(a, piece.end, closed, False))
        else:
            out.add_arc(Arc(piece.start, a, False, closed))


def _phase_aa(a1: Arc, a2: Arc, closed: bool, out: _Contrib) -> None:
    """Arc plus arc: refine both at all (negated) endpoints, sum pieces."""
    cuts = []
    for arc in (a1, a2):
        for e in (arc.start, arc.end):
            cuts.extend([e, dir_neg(e)])
    p1 = _open_pieces(_split_arc(a1, cuts))
    p2 = _open_pieces(_split_arc(a2, cuts))
    for x in p1:
        for y in p2:
            if x.is_point() and y.is_point():
                _phase_pp(x.start, y.start, closed, out)
            elif x.is_point():
                _phase_pa(x.start, y, closed, out)
            elif y.is_point():
                _phase_pa(y.start, x, closed, out)
            else:
                _phase_open_open(x, y, closed, out)


def _phase_open_open(x: Arc, y: Arc, closed: bool, out: _Contrib) -> None:
    """Sum of two open arc pieces whose (negated) interiors do not cross."""
    if x.start == x.end or y.start == y.end:
        # Circle-minus-point pieces only appear pre-refinement.
        raise AssertionError("unexpected unrefined piece")
    if (x.start, x.end) == (y.start, y.end):
        out.add_arc(Arc(x.start, x.end, False, False))
        return
    if (y.start, y.end) == (dir_neg(x.start), dir_neg(x.end)):
        out.full = True
        out.zero = True
        return
    mx = arc_midpoint(x.start, x.end)
    my = arc_midpoint(y.start, y.end)
    if cross(mx, my) > 0:
        out.add_arc(Arc(x.start, y.end, False, False))
    else:
        out.add_arc(Arc(y.start, x.end, False, False))


def phase_add_sets(A: ArcSet, B: ArcSet, closed: bool) -> ArcSet:
    """Elementwise hyperaddition of two arc sets over P or Phi."""
    out = _Contrib()
    if A.full or B.full:
        # A full circle dominates: summing it against any set of directions
        # yields every direction and zero; against {0} alone it is unchanged.
        other = B if A.full else A
        if other.full or other.arcs:
            return ARCSET_FULL_ZERO
        if other.has_zero:
            return ArcSet((), True, A.has_zero and B.has_zero)
        return ARCSET_EMPTY
    if A.has_zero:
        out.add_set(ArcSet(B.arcs, B.full, False))
    if B.has_zero:
        out.add_set(ArcSet(A.arcs, A.full, False))
    if A.has_zero and B.has_zero:
        out.zero = True
    for x in A.arcs:
        for y in B.arcs:
            if x.is_point() and y.is_point():
                _phase_pp(x.start, y.start, closed, out)
            elif x.is_point():
                _phase_pa(x.start, y, closed, out)
            elif y.is_point():
                _phase_pa(y.start, x, closed, out)
            else:
                _phase_aa(x, y, closed, out)
    return out.done()


# ---------------------------------------------------------------------------
# Set values


@dataclass(frozen=True)
class FiniteSV:
    """Finite set value over a hyperfield with hashable elements."""

    elems: frozenset

    def __repr__(self):
        return "{" + ", ".join(sorted(map(str, self.elems))) + "}"


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

    def equal(self, a, b) -> bool:
        return a == b

    # --- set values -------------------------------------------------------

    def singleton(self, a):
        raise NotImplementedError

    def empty_set(self):
        raise NotImplementedError

    def add(self, a, b):
        """Hypersum of two elements as a set value."""
        raise NotImplementedError

    def add_set_elem(self, S, a):
        """Union of x + a over x in S."""
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

    def sets_equal(self, S, T) -> bool:
        return S == T

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
        """Left fold of hyperaddition over a list of elements."""
        acc = self.singleton(self.zero())
        for t in terms:
            acc = self.add_set_elem(acc, t)
        return acc

    def power(self, a, n: int):
        if n < 0:
            return self.power(self.inv(a), -n)
        r = self.one()
        for _ in range(n):
            r = self.mul(r, a)
        return r


class FiniteHyperfield(Hyperfield):
    """Base for hyperfields whose set values are finite sets."""

    def singleton(self, a):
        return FiniteSV(frozenset([a]))

    def empty_set(self):
        return FiniteSV(frozenset())

    def add_set_elem(self, S, a):
        out = set()
        for x in S.elems:
            out |= self.add(x, a).elems
        return FiniteSV(frozenset(out))

    def union_sets(self, S, T):
        return FiniteSV(S.elems | T.elems)

    def set_contains(self, S, a) -> bool:
        return a in S.elems

    def set_is_empty(self, S) -> bool:
        return not S.elems

    def set_without_zero(self, S):
        return FiniteSV(S.elems - {self.zero()})

    def scale_set(self, S, c):
        return FiniteSV(frozenset(self.mul(c, x) for x in S.elems))

    def set_elements(self, S) -> list:
        return list(S.elems)


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
        els = self.field.elements()
        if els is not None:
            return rng.choice(els)
        return self.field.random(rng)

    def is_stringent(self):
        return True

    def fmt(self, a):
        return self.field.fmt(a)


class KrasnerHyperfield(FiniteHyperfield):
    """K = {0, 1} with 1 + 1 = {0, 1}."""

    name = "K"

    def zero(self):
        return 0

    def one(self):
        return 1

    def neg(self, a):
        return a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("no inverse of zero")
        return 1

    def add(self, a, b):
        if a == 0:
            return self.singleton(b)
        if b == 0:
            return self.singleton(a)
        return FiniteSV(frozenset([0, 1]))

    def elements(self):
        return [0, 1]

    def is_stringent(self):
        return True


class SignHyperfield(FiniteHyperfield):
    """S = {-1, 0, 1} with 1 + (-1) = {-1, 0, 1}."""

    name = "S"

    def zero(self):
        return 0

    def one(self):
        return 1

    def neg(self, a):
        return -a

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
        if a == b:
            return self.singleton(a)
        return FiniteSV(frozenset([-1, 0, 1]))

    def elements(self):
        return [-1, 0, 1]

    def is_stringent(self):
        return True


class WeakSignHyperfield(FiniteHyperfield):
    """W = {-1, 0, 1}: like S but a + a = {1, -1} for units a."""

    name = "W"

    def zero(self):
        return 0

    def one(self):
        return 1

    def neg(self, a):
        return -a

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
        if a == b:
            return FiniteSV(frozenset([1, -1]))
        return FiniteSV(frozenset([-1, 0, 1]))

    def elements(self):
        return [-1, 0, 1]

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
        reps = {}
        seen = set()
        for a in range(1, p):
            if a in seen:
                continue
            coset = frozenset((a * u) % p for u in U)
            r = min(coset)
            for x in coset:
                reps[x] = r
            seen |= coset
        reps[0] = 0
        self._rep = reps
        self._cosets = {r: frozenset(x for x, rr in reps.items() if rr == r)
                        for r in set(reps.values())}
        self.name = f"GF{p}/{{{','.join(map(str, sorted(U)))}}}"
        self._add_table: dict[tuple[int, int], FiniteSV] = {}

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
        key = (a, b) if a <= b else (b, a)
        cached = self._add_table.get(key)
        if cached is None:
            out = set()
            for x in self._cosets[a]:
                for y in self._cosets[b]:
                    out.add(self.rep((x + y) % self.field.p))
            cached = FiniteSV(frozenset(out))
            self._add_table[key] = cached
        return cached

    def elements(self):
        return sorted(self._cosets)

    def is_stringent(self):
        return self.stringency_witness() is None

    def stringency_witness(self):
        for a in self.units():
            for b in self.units():
                if len(self.add(a, b).elems) > 1 and b != self.neg(a):
                    return (a, b)
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
        return dir_neg(a)

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

    def add(self, a, b):
        return self.add_set_elem(self.singleton(a), b)

    def add_set_elem(self, S, a):
        return phase_add_sets(S, self.singleton(a), self.closed)

    def add_sets(self, S, T):
        return phase_add_sets(S, T, self.closed)

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
        if S.full:
            return S
        arcs = tuple(
            Arc(dir_mul(c, a.start), dir_mul(c, a.end), a.closed_start, a.closed_end)
            for a in S.arcs
        )
        return _canonical_arcs(list(arcs), False, S.has_zero)

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
HQ = FieldHyperfield(QQ)
HQi = FieldHyperfield(QQi)


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

    def f(a: Fraction):
        return 0 if a == 0 else (1 if a > 0 else -1)

    return Hom("sgn:Q->W", QQ, W, f)


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
    if not H.equal(hom(F.one()), H.one()):
        failures.append("one not preserved")
    if not H.is_zero(hom(F.zero())):
        failures.append("zero not preserved")
    for _ in range(samples):
        a = F.random(rng)
        b = F.random(rng)
        lhs = hom(F.mul(a, b))
        if not H.equal(lhs, _hmul(H, hom(a), hom(b))):
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
    for _ in range(samples):
        yield (H.random_element(rng), H.random_element(rng), H.random_element(rng))


def check_axioms(H: Hyperfield, rng=None, samples: int = 1000) -> list[str]:
    """Verify the hyperfield axioms; returns a list of failure messages.

    Finite hyperfields are checked exhaustively, infinite ones on sampled
    triples.  Associativity is checked as equality of the set values
    (a + b) + c and a + (b + c), both computed by folding.
    """
    if rng is None:
        import random

        rng = random.Random(0)
    failures: list[str] = []
    zero, one = H.zero(), H.one()

    def fail(msg):
        if len(failures) < 20:
            failures.append(msg)

    for a, b, c in _triples(H, rng, samples):
        ab = H.add(a, b)
        if not H.sets_equal(ab, H.add(b, a)):
            fail(f"commutativity fails at {H.fmt(a)}, {H.fmt(b)}")
        lhs = H.add_set_elem(ab, c)
        rhs = H.add_set_elem(H.add(b, c), a)
        if not H.sets_equal(lhs, rhs):
            fail(f"associativity fails at {H.fmt(a)}, {H.fmt(b)}, {H.fmt(c)}")
        if not H.sets_equal(H.add(a, zero), H.singleton(a)):
            fail(f"identity fails at {H.fmt(a)}")
        if not H.set_contains_zero(H.add(a, H.neg(a) if not H.is_zero(a) else zero)):
            fail(f"inverse fails at {H.fmt(a)}")
        # Reversibility: a in b + c  iff  c in a + (-b).
        nb = H.neg(b) if not H.is_zero(b) else zero
        if H.set_contains(H.add(b, c), a) != H.set_contains(H.add(a, nb), c):
            fail(f"reversibility fails at {H.fmt(a)}, {H.fmt(b)}, {H.fmt(c)}")
        # Distributivity of multiplication over hyperaddition.
        if not H.is_zero(c):
            scaled = H.scale_set(ab, c)
            direct = H.add(_hmul(H, c, a), _hmul(H, c, b))
            if not H.sets_equal(scaled, direct):
                fail(f"distributivity fails at {H.fmt(a)}, {H.fmt(b)}, {H.fmt(c)}")
        # Multiplicative group axioms on units.
        if not H.is_zero(a) and not H.is_zero(b) and not H.is_zero(c):
            if not H.equal(H.mul(H.mul(a, b), c), H.mul(a, H.mul(b, c))):
                fail(f"mul associativity fails at {H.fmt(a)}, {H.fmt(b)}, {H.fmt(c)}")
            if not H.equal(H.mul(a, H.inv(a)), one):
                fail(f"mul inverse fails at {H.fmt(a)}")
            if not H.equal(H.mul(a, one), a):
                fail(f"mul identity fails at {H.fmt(a)}")
    # Unique additive inverses, exhaustively when possible.
    els = H.elements()
    if els is not None:
        for a in els:
            invs = [y for y in els if H.set_contains_zero(H.add(a, y))]
            if len(invs) != 1:
                fail(f"inverse of {H.fmt(a)} not unique: {invs}")
    return failures

"""Reference phase arc algebra: piecewise sums and membership canonicalisation.

This is how ``finetrop.hyperfields`` added arc sets before it moved to one
refinement of the circle.  Each pair of arcs is split again at its own
endpoints and their negatives, point, point-arc and open-piece sums are
formed case by case, and the raw union is canonicalised by testing a
midpoint of every atom against every arc (``canonical_arcs``, which
``union_sets`` and ``scale_set`` use too).  It is kept only as a slow,
independent oracle for the tests.

``_refined_sum`` is the second reference: the sum of two arc sets on one
refinement of the circle, as the package computed it before its sums became
a set plus one element.  Its atom helpers ``_atoms`` and ``_stitch``, and
``sort_dirs``, live here: the package reads every sum off one hull and
refines nothing.  So the oracles share only the ``Dir``, ``Arc`` and
``ArcSet`` types and the direction primitives (``cross``, ``dir_cmp``,
``dir_between`` and the like) with the package.
"""

from __future__ import annotations

import functools
from typing import Any, Iterable, Sequence

from finetrop.hyperfields import (
    ARCSET_FULL_ZERO,
    Arc,
    ArcSet,
    Dir,
    cross,
    dir_between,
    dir_cmp,
    dir_mul,
    dir_neg,
    make_dir,
    point_arc,
)


def sort_dirs(dirs: Iterable[Dir]) -> list[Dir]:
    """The distinct directions in the circular order of ``dir_cmp``."""
    return sorted(set(dirs), key=functools.cmp_to_key(dir_cmp))


# Arc sets on one refinement of the circle.  Sorted cuts c_0 ... c_{n-1} cut
# the circle into 2n atoms: atom 2i is the point c_i and atom 2i+1 the open
# gap (c_i, c_{i+1}).  A set that is a union of arcs with endpoints among the
# cuts is a set of atoms.


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


def _mediant(u: Dir, v: Dir) -> Dir:
    return make_dir(u.p + v.p, u.q + v.q)


def arc_midpoint(u: Dir, v: Dir) -> Dir:
    """A direction strictly inside the counterclockwise open arc u -> v."""
    if u == v:
        return dir_neg(u)
    c = cross(u, v)
    if c > 0:
        return _mediant(u, v)
    if c < 0:
        return dir_neg(_mediant(u, v))
    return Dir(-u.q, u.p)


def canonical_arcs(raw: Sequence[Arc], full: bool, has_zero: bool) -> ArcSet:
    """Canonicalise a raw union of arcs by atom refinement and stitching."""
    if full:
        return ArcSet((), True, has_zero)
    raw = list(raw)
    if not raw:
        return ArcSet((), False, has_zero)

    def member(x: Dir) -> bool:
        return any(a.contains(x) for a in raw)

    endpoints = sort_dirs([a.start for a in raw] + [a.end for a in raw])
    # Atoms alternate: point e0, gap (e0,e1), point e1, ..., gap (e_last,e0).
    atoms: list[tuple[str, Any]] = []
    n = len(endpoints)
    for i, e in enumerate(endpoints):
        atoms.append(("pt", e))
        atoms.append(("gap", (e, endpoints[(i + 1) % n])))

    included = []
    for kind, data in atoms:
        if kind == "pt":
            included.append(member(data))
        else:
            included.append(member(arc_midpoint(*data)))

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


def _ccw_cmp_from(base: Dir, a: Dir, b: Dir) -> int:
    """Compare a, b by counterclockwise angle measured from base."""
    if a == b:
        return 0
    if b == base:
        return -1
    if a == base:
        return 1
    return -1 if dir_between(base, a, b) else 1


def _split_arc(arc: Arc, cuts: Iterable[Dir]) -> list[Arc]:
    """Refine an arc at the given directions lying strictly inside it."""
    if arc.is_point():
        return [arc]
    inner = [c for c in set(cuts)
             if arc.contains(c) and c != arc.start and c != arc.end]
    if not inner:
        return [arc]
    inner.sort(key=functools.cmp_to_key(
        lambda c, d: _ccw_cmp_from(arc.start, c, d)))
    pieces: list[Arc] = []
    if arc.start == arc.end:
        # Circle minus a point: pieces run from the hole back to it.
        prev, pc = arc.start, False
    else:
        prev, pc = arc.start, arc.closed_start
    for c in inner:
        pieces.append(Arc(prev, c, pc, False))
        pieces.append(point_arc(c))
        prev, pc = c, False
    pieces.append(Arc(prev, arc.end, pc, arc.closed_end))
    return pieces


class _Contrib:
    """Accumulator for raw arc contributions before canonicalisation."""

    def __init__(self):
        self.arcs: list[Arc] = []
        self.full = False
        self.zero = False

    def done(self) -> ArcSet:
        return canonical_arcs(self.arcs, self.full, self.zero)


def _phase_pp(a: Dir, b: Dir, closed: bool, out: _Contrib) -> None:
    """Point plus point in P (closed=False) or Phi (closed=True)."""
    if a == b:
        out.arcs.append(point_arc(a))
        return
    if b == dir_neg(a):
        if closed:
            out.full = True
        else:
            out.arcs += [point_arc(a), point_arc(b)]
        out.zero = True
        return
    if cross(a, b) > 0:
        out.arcs.append(Arc(a, b, closed, closed))
    else:
        out.arcs.append(Arc(b, a, closed, closed))


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
        if cross(a, mid) > 0:
            # Piece lies counterclockwise of a; arcs run from a outward.
            out.arcs.append(Arc(a, piece.end, closed, False))
        else:
            out.arcs.append(Arc(piece.start, a, False, closed))


def _phase_open_open(x: Arc, y: Arc, out: _Contrib) -> None:
    """Sum of two open arc pieces whose (negated) interiors do not cross."""
    if (x.start, x.end) == (y.start, y.end):
        out.arcs.append(x)
        return
    if (y.start, y.end) == (dir_neg(x.start), dir_neg(x.end)):
        out.full = True
        out.zero = True
        return
    mx = arc_midpoint(x.start, x.end)
    my = arc_midpoint(y.start, y.end)
    if cross(mx, my) > 0:
        out.arcs.append(Arc(x.start, y.end, False, False))
    else:
        out.arcs.append(Arc(y.start, x.end, False, False))


def _phase_aa(a1: Arc, a2: Arc, closed: bool, out: _Contrib) -> None:
    """Arc plus arc: refine both at all (negated) endpoints, sum pieces."""
    cuts = []
    for arc in (a1, a2):
        for e in (arc.start, arc.end):
            cuts += [e, dir_neg(e)]
    for x in _open_pieces(_split_arc(a1, cuts)):
        for y in _open_pieces(_split_arc(a2, cuts)):
            _phase_arcs(x, y, closed, out)


def _phase_arcs(x: Arc, y: Arc, closed: bool, out: _Contrib) -> None:
    if x.is_point() and y.is_point():
        _phase_pp(x.start, y.start, closed, out)
    elif x.is_point():
        _phase_pa(x.start, y, closed, out)
    elif y.is_point():
        _phase_pa(y.start, x, closed, out)
    else:
        _phase_open_open(x, y, out)


def phase_add_sets(A: ArcSet, B: ArcSet, closed: bool) -> ArcSet:
    """Elementwise hyperaddition of two arc sets over P or Phi."""
    if A.full or B.full:
        other = B if A.full else A
        if other.full or other.arcs:
            return ArcSet((), True, True)
        if other.has_zero:
            return ArcSet((), True, A.has_zero and B.has_zero)
        return ArcSet((), False, False)
    out = _Contrib()
    if A.has_zero:
        out.arcs += B.arcs
    if B.has_zero:
        out.arcs += A.arcs
    out.zero = A.has_zero and B.has_zero
    for x in A.arcs:
        for y in B.arcs:
            if x.is_point() or y.is_point():
                _phase_arcs(x, y, closed, out)
            else:
                _phase_aa(x, y, closed, out)
    return out.done()


def _refined_sum(A: ArcSet, B: ArcSet, closed: bool) -> ArcSet:
    """The sum of two arc sets, neither a full circle, on one refinement of
    the circle.

    This is how ``finetrop.hyperfields`` summed the shapes it had no closed
    form for before every sum became a set plus one element; the tests keep
    it as a second reference beside the piecewise ``phase_add_sets``.

    The cuts are every endpoint of both summands and its negative, so the
    antipode of atom k is atom k + n, and the sum of two atoms is a run of
    atoms in closed form: x + x = {x}; antipodal atoms sum to a set holding
    zero, which over P is the two points themselves when both are points
    and otherwise the full circle; any other pair sums to the atoms strictly
    between them the short way round, plus each end that is a gap, plus
    both ends over Phi.
    """
    cuts = sort_dirs(e for X in (A, B) for a in X.arcs
                     for d in (a.start, a.end) for e in (d, dir_neg(d)))
    n = len(cuts)
    m = 2 * n
    index = {c: i for i, c in enumerate(cuts)}
    xs = _atoms(A.arcs, index, m)
    ys = _atoms(B.arcs, index, m)
    marked = [False] * m
    has_zero = A.has_zero and B.has_zero
    if A.has_zero:
        for y in ys:
            marked[y] = True
    if B.has_zero:
        for x in xs:
            marked[x] = True
    for x in xs:
        for y in ys:
            d = (y - x) % m
            if d == 0:
                marked[x] = True
            elif d == n:
                if closed or x % 2:
                    return ARCSET_FULL_ZERO
                marked[x] = marked[y] = True
                has_zero = True
            else:
                lo, hi = (x, y) if d < n else (y, x)
                first = lo + (not (closed or lo % 2))
                last = hi - (not (closed or hi % 2))
                for t in range((last - first) % m + 1):
                    marked[(first + t) % m] = True
    return _stitch(cuts, marked, has_zero)


def union_sets(S: ArcSet, T: ArcSet) -> ArcSet:
    return canonical_arcs(list(S.arcs) + list(T.arcs),
                          S.full or T.full, S.has_zero or T.has_zero)


def scale_set(S: ArcSet, c) -> ArcSet:
    if c is None:
        if not S.full and not S.arcs and not S.has_zero:
            return ArcSet((), False, False)
        return ArcSet((), False, True)
    if S.full:
        return S
    arcs = [Arc(dir_mul(c, a.start), dir_mul(c, a.end),
                a.closed_start, a.closed_end) for a in S.arcs]
    return canonical_arcs(arcs, False, S.has_zero)

"""Exhaustive checks of phase sums, a set plus one element, over P and Phi.

``sweep(radius)``: every sum B + a of an arc B and a point a.  The point
runs over the directions (p, q) with |p|, |q| <= radius.  B runs over the
arcs between two distinct such directions, with every closure of their
ends, and over the circle minus each of them; so the arcs that start or end
at a or at -a, and the circle minus a or minus -a, are all among them.

``sweep_sets(stride, components)``: every canonical arc set of at most
``components`` components (two by default) with ends among the 8
directions of radius 1, with and without zero (and the empty set, {0} and
the full circle with and without zero), plus zero and each of the 16
directions of radius 2.  A stride above 1 checks only every stride-th set.

Each sum ``phase_add_sets`` gives is compared with the refinement
``phase_oracle._refined_sum`` and with the piecewise oracle
``phase_oracle.phase_add_sets`` (the refinement only where the set is not
a full circle, which it does not take).

Run as ``PYTHONPATH=src python tests/phase_sweep.py RADIUS`` or
``PYTHONPATH=src python tests/phase_sweep.py --sets [STRIDE [COMPONENTS]]``:
it prints the number of sums checked, or the first mismatch and exits 1.
"""

from __future__ import annotations

import sys
from typing import Iterator, Optional

from finetrop.hyperfields import (
    ARCSET_ZERO,
    Arc,
    ArcSet,
    Dir,
    make_dir,
    phase_add_sets,
    point_arc,
)

import phase_oracle
from phase_oracle import _refined_sum, _stitch, sort_dirs


def directions(radius: int) -> list[Dir]:
    return sort_dirs(make_dir(p, q) for p in range(-radius, radius + 1)
                     for q in range(-radius, radius + 1) if p or q)


def single_arcs(dirs: list[Dir]) -> Iterator[Arc]:
    """Every arc that is not a point with its ends among ``dirs``."""
    for u in dirs:
        yield Arc(u, u, False, False)
        for v in dirs:
            if v != u:
                for cs in (False, True):
                    for ce in (False, True):
                        yield Arc(u, v, cs, ce)


def component_sets(dirs: list[Dir], components: int = 2,
                   stride: int = 1) -> list[ArcSet]:
    """Every stride-th canonical arc set of at most ``components``
    components with ends among the sorted ``dirs``, with and without zero.
    These are the sets of the atoms of ``dirs`` (each direction and the
    open gap after it) that form at most that many cyclic runs, the empty
    set and the full circle included: the bit masks over the atoms that
    differ from their rotation by one atom in at most twice as many
    places."""
    m = 2 * len(dirs)
    every = (1 << m) - 1
    keys = [(bits, zero) for bits in range(1 << m)
            if bin(bits ^ ((bits << 1 | bits >> (m - 1)) & every)).count("1")
            <= 2 * components
            for zero in (False, True)]
    return [_stitch(dirs, [bool(bits >> x & 1) for x in range(m)], zero)
            for bits, zero in keys[::stride]]


def _check(name: str, S: ArcSet, a: Optional[Dir], closed: bool) -> None:
    got = phase_add_sets(S, a, closed)
    A = ARCSET_ZERO if a is None else ArcSet((point_arc(a),), False, False)
    oracle = phase_oracle.phase_add_sets(S, A, closed)
    if got != oracle:
        raise AssertionError(f"{name}: {S} + {a} = {got}, oracle {oracle}")
    if not S.full:
        want = _refined_sum(S, A, closed)
        if got != want:
            raise AssertionError(f"{name}: {S} + {a} = {got}, "
                                 f"refinement {want}")


def sweep(radius: int) -> int:
    """Check every (arc, point) sum up to ``radius``; returns the number of
    sums checked and raises ``AssertionError`` at the first mismatch."""
    dirs = directions(radius)
    arcs = [ArcSet((arc,), False, False) for arc in single_arcs(dirs)]
    count = 0
    for closed in (False, True):
        name = "Phi" if closed else "P"
        for a in dirs:
            for B in arcs:
                _check(name, B, a, closed)
                count += 1
    return count


def sweep_sets(stride: int = 1, components: int = 2) -> int:
    """Check every stride-th set of ``component_sets`` at radius 1 plus
    zero and every direction of radius 2; returns the number of sums
    checked and raises ``AssertionError`` at the first mismatch."""
    sets = component_sets(directions(1), components, stride)
    elems = [None] + directions(2)
    count = 0
    for closed in (False, True):
        name = "Phi" if closed else "P"
        for S in sets:
            for a in elems:
                _check(name, S, a, closed)
                count += 1
    return count


if __name__ == "__main__":
    try:
        if sys.argv[1] == "--sets":
            n = sweep_sets(*(int(x) for x in sys.argv[2:4]))
            what = "set-plus-element"
        else:
            n = sweep(int(sys.argv[1]))
            what = "arc-plus-point"
    except AssertionError as err:
        print(f"mismatch: {err}")
        sys.exit(1)
    print(f"{n} {what} sums match the refinement and the oracle")

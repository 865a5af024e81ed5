"""Exhaustive check of the phase sums of one point and one arc.

Every sum {a} + B over P and Phi is compared, in both operand orders, with
the refinement ``_refined_sum`` and with the piecewise oracle
``phase_oracle.phase_add_sets``.  The point a runs over the directions
(p, q) with |p|, |q| <= radius.  B runs over the arcs between two distinct
such directions, with every closure of their ends, and over the circle
minus each of them; so the arcs that start or end at a or at -a, and the
circle minus a or minus -a, are all among them.

Run as ``PYTHONPATH=src python tests/phase_sweep.py RADIUS``: it prints the
number of sums checked, or the first mismatch and exits 1.
"""

from __future__ import annotations

import sys
from typing import Iterator

from finetrop.hyperfields import (
    Arc,
    ArcSet,
    Dir,
    _refined_sum,
    make_dir,
    phase_add_sets,
    point_arc,
    sort_dirs,
)

import phase_oracle


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


def sweep(radius: int) -> int:
    """Check every (point, arc) sum up to ``radius``; returns the number of
    sums checked and raises ``AssertionError`` at the first mismatch."""
    dirs = directions(radius)
    arcs = [ArcSet((arc,), False, False) for arc in single_arcs(dirs)]
    count = 0
    for closed in (False, True):
        name = "Phi" if closed else "P"
        for a in dirs:
            A = ArcSet((point_arc(a),), False, False)
            for B in arcs:
                want = _refined_sum(A, B, closed)
                oracle = phase_oracle.phase_add_sets(A, B, closed)
                if oracle != want:
                    raise AssertionError(f"{name}: {A} + {B}: refinement "
                                         f"{want}, oracle {oracle}")
                for X, Y in ((A, B), (B, A)):
                    got = phase_add_sets(X, Y, closed)
                    if got != want:
                        raise AssertionError(f"{name}: {X} + {Y} = {got}, "
                                             f"refinement {want}")
                    count += 1
    return count


if __name__ == "__main__":
    try:
        n = sweep(int(sys.argv[1]))
    except AssertionError as err:
        print(f"mismatch: {err}")
        sys.exit(1)
    print(f"{n} point-plus-arc sums match the refinement and the oracle")

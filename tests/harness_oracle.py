"""The fundamental harness on the full solve: a reference for the tests.

This is ``solve.fundamental_harness`` before it read one term of each
coordinate: it solves each system with ``solve_linear_2x2``, which expands
both Cramer quotients to O(t^prec), and applies f to the two coordinates.
The per-system catch covers f as well, so a coordinate with no known term
is that system's failure.  ``tests/harness_sweep.py`` compares it with the
harness, image for image and failure list for failure list.
"""

from __future__ import annotations

from typing import Iterable

from finetrop.hyperfields import Hom
from finetrop.poly import FPoly, prevariety_member, pushforward
from finetrop.solve import _root_key, solve_linear_2x2
from finetrop.tropgeo import fine_hypersurface, fine_intersect


def solution_image(f: Hom, P: FPoly, Q: FPoly, prec=8) -> tuple:
    x, y = solve_linear_2x2(P, Q, prec)
    return f(x), f(y)


def fundamental_harness(f: Hom, systems: Iterable[tuple[FPoly, FPoly]],
                        prec=8) -> list[str]:
    failures = []
    for idx, (P, Q) in enumerate(systems):
        try:
            img = solution_image(f, P, Q, prec)
        except ValueError as e:
            failures.append(f"system {idx}: {e}")
            continue
        hp = pushforward(f, P)
        hq = pushforward(f, Q)
        pts, comps = fine_intersect(fine_hypersurface(hp), fine_hypersurface(hq))
        if not prevariety_member((hp, hq), img):
            failures.append(f"system {idx}: image point misses the prevariety")
            continue
        H = f.target
        keyed = {(_root_key(H, a), _root_key(H, b)) for a, b in
                 [tuple(pt.coords) for pt in pts]}
        want = {(_root_key(H, img[0]), _root_key(H, img[1]))}
        if keyed != want:
            failures.append(f"system {idx}: got {sorted(keyed)}, want {sorted(want)}")
    return failures

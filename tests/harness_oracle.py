"""The fundamental harness on the full reference solve: a test oracle.

This is ``solve.fundamental_harness`` before it read one term of each
coordinate: it solves each system with ``series_oracle.solve_linear_2x2``,
Cramer's rule on the reference arithmetic, which expands both quotients to
O(t^prec), and applies f to the two coordinates.  It shares neither the
numerator grid nor ``series._quotient`` with the harness.  The per-system
catch covers f as well, so a coordinate with no known term is that
system's failure.  ``tests/harness_sweep.py`` compares it with the
harness, image for image and failure list for failure list; it passes a
``solve`` that returns each system's reference solution, computed once
for all homomorphisms.
"""

from __future__ import annotations

from typing import Iterable

from finetrop.hyperfields import Hom
from finetrop.poly import FPoly, prevariety_member, pushforward
from finetrop.solve import _root_key
from finetrop.tropgeo import fine_hypersurface, fine_intersect

from series_oracle import solve_linear_2x2


def solution_image(f: Hom, P: FPoly, Q: FPoly, prec=8,
                   solve=solve_linear_2x2) -> tuple:
    x, y = solve(P, Q, prec)
    return f(x), f(y)


def fundamental_harness(f: Hom, systems: Iterable[tuple[FPoly, FPoly]],
                        prec=8, solve=solve_linear_2x2) -> list[str]:
    failures = []
    for idx, (P, Q) in enumerate(systems):
        try:
            img = solution_image(f, P, Q, prec, solve)
        except ValueError as e:
            failures.append(f"system {idx}: {e}")
            continue
        if any(f.target.is_zero(a) for a in img):
            failures.append(f"system {idx}: solution has a zero coordinate "
                            "(off the torus)")
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

"""Check of the fundamental harness against the full solve.

The harness maps each coordinate's Cramer quotient cut to its first term
(``solve._solution_image``).  For every case below, that image, or the
error raised in its place, must equal ``harness_oracle.solution_image``
(``solve_linear_2x2`` to O(t^prec), then f), and ``fundamental_harness``
must return the failure list of ``harness_oracle.fundamental_harness``.
Each case runs at prec 8, 2, 0, -1 and 1/3, under val, sval and fval:

- random: each round's system from ``random_linear_system`` over Q, with
  exact coefficients and again with each coefficient known only to a
  random precision above its lead;
- built: a zero numerator, a vanishing determinant, an indeterminate
  determinant, and coordinates whose lead is exactly at prec 8.

Each round also compares the phval image of a system over Q(i), exact and
cut, at every prec (the phase base has no fine intersection to compare).

Run as ``PYTHONPATH=src python tests/harness_sweep.py ROUNDS``: it prints
the number of cases checked by outcome, or the first mismatch and exits 1.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from fractions import Fraction

from finetrop.fields import QQ, QQi
from finetrop.poly import fpoly
from finetrop.series import (
    SeriesDomain,
    hom_fval,
    hom_phval,
    hom_sval,
    hom_val,
    series,
)
from finetrop.solve import _solution_image, fundamental_harness, random_linear_system

import harness_oracle

PRECS = (Fraction(8), Fraction(2), Fraction(0), Fraction(-1), Fraction(1, 3))
HOMS = (hom_val(), hom_sval(), hom_fval())
PHVAL = hom_phval()


def outcome(fn, *args):
    """The result of fn, or the type and message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as e:
        return (type(e).__name__, str(e))


def kind(img) -> str:
    return img[0] if isinstance(img[0], str) else "image"


def cut(P, rng):
    """P with each coefficient known only below its lead plus 1/4 .. 3."""
    F = P.domain.field
    return fpoly(P.domain, 2, {
        d: series(F, c.terms, c.terms[0][0] + Fraction(rng.randint(1, 12), 4))
        for d, c in P.coeffs.items()})


def built_systems() -> list:
    """(name, P, Q) for the built cases over Q."""
    dom = SeriesDomain(QQ)

    def s(*terms, prec=None):
        return series(QQ, [(Fraction(e), Fraction(c)) for e, c in terms], prec)

    def sys2(p, q):
        return fpoly(dom, 2, p), fpoly(dom, 2, q)

    X, Y, C = (1, 0), (0, 1), (0, 0)
    one = s((0, 1))
    fuzzy = s((0, 1), prec=1)
    return [
        # X + Y + 1 = 0, X + 2Y + 2 = 0: x = 0, y = -1.  The quotient
        # 0 / det to O(t^prec) has no known term.
        ("zero numerator", *sys2({X: one, Y: one, C: one},
                                 {X: one, Y: s((0, 2)), C: s((0, 2))})),
        ("vanishing determinant", *sys2({X: one, Y: one, C: one},
                                        {X: s((0, 2)), Y: s((0, 2)), C: s((0, 3))})),
        # Linear coefficients 1 + O(t): the determinant is O(t).
        ("indeterminate determinant", *sys2({X: fuzzy, Y: fuzzy, C: one},
                                            {X: fuzzy, Y: fuzzy, C: s((0, 2))})),
        # X - t^8 = 0, Y - 1 = 0: x = t^8, unknown at prec 8.
        ("lead at prec", *sys2({X: one, C: s((8, -1))}, {Y: one, C: s((0, -1))})),
        # System 1261 of ``verify fundamental --seed 0``: x = -63/32 t^8 + ...
        ("lead at prec, random system", *sys2(
            {X: s((-2, Fraction(-8, 9)), (Fraction(-2, 3), Fraction(1, 2)),
                  (2, Fraction(6, 7))),
             Y: s((1, Fraction(-8, 7)), (2, Fraction(9, 5)),
                  (Fraction(5, 2), Fraction(1, 6))),
             C: s((6, Fraction(-7, 4)))},
            {X: s((Fraction(-1, 3), Fraction(4, 5))),
             Y: s((Fraction(-1, 2), Fraction(-2, 7))),
             C: s((6, Fraction(2, 3)))})),
    ]


def check(homs, P, Q, harness: bool, label: str, counts: Counter) -> None:
    """Compare images (and, with ``harness``, failure lists) at every prec."""
    for hom in homs:
        for prec in PRECS:
            got = outcome(_solution_image, hom, P, Q, prec)
            want = outcome(harness_oracle.solution_image, hom, P, Q, prec)
            if got != want:
                raise AssertionError(f"{label}, {hom.name}, prec {prec}: image "
                                     f"{got}, full solve {want}")
            counts[kind(got)] += 1
            if harness:
                got = outcome(fundamental_harness, hom, [(P, Q)], prec)
                want = outcome(harness_oracle.fundamental_harness, hom,
                               [(P, Q)], prec)
                if got != want:
                    raise AssertionError(f"{label}, {hom.name}, prec {prec}: "
                                         f"harness {got}, reference {want}")


def sweep(rounds: int) -> Counter:
    """Check the built cases and ``rounds`` random rounds; returns the
    number of images checked by outcome and raises ``AssertionError`` at
    the first mismatch."""
    counts: Counter = Counter()
    for name, P, Q in built_systems():
        check(HOMS, P, Q, True, name, counts)
    rng = random.Random(2161)
    dom, domi = SeriesDomain(QQ), SeriesDomain(QQi)
    for r in range(rounds):
        P, Q = random_linear_system(dom, rng)
        check(HOMS, P, Q, True, f"round {r}", counts)
        check(HOMS, cut(P, rng), cut(Q, rng), True, f"round {r}, cut", counts)
        P, Q = random_linear_system(domi, rng)
        check((PHVAL,), P, Q, False, f"round {r}, Q(i)", counts)
        check((PHVAL,), cut(P, rng), cut(Q, rng), False,
              f"round {r}, Q(i), cut", counts)
    return counts


if __name__ == "__main__":
    try:
        counts = sweep(int(sys.argv[1]))
    except AssertionError as err:
        print(f"mismatch: {err}")
        sys.exit(1)
    print(f"{sum(counts.values())} images match the full solve "
          f"({dict(sorted(counts.items()))}); failure lists match")

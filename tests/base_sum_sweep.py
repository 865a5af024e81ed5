"""Root tests against the every-term oracle over the finite bases.

``poly.is_root`` decides 0 in the base sum of the minimal-level terms with
``Hyperfield.sum_contains_zero``: a closed form over K and S, the fold of
``nary_sum`` over W, a field and a factor hyperfield.  Here it is checked
against ``eval_oracle.is_root_every_term``, which evaluates every monomial
on its own and folds the terms with ``add_set_elem``.  The oracle runs
while every ``sum_contains_zero`` raises, so it cannot lean on the closed
forms it checks.

The bases are K, S, W, GF(5), GF(7), GF(7)/{1, 2, 4} and GF(13)/{1, 3, 9},
each also extended to x|Q.  Each round draws, for every base, a polynomial
in one to three variables with one to seven terms and exponents in
[-2, 3], and a point whose coordinates are zero one time in eight.  Over
an extension the levels lie in {-1, 0, 1} and the point's levels have
denominators 1 or 2, so that several terms often share the minimal level.

Run as ``PYTHONPATH=src python tests/base_sum_sweep.py N``: it prints the
number of (polynomial, point) pairs checked and how many are roots, or the
first mismatch and exits 1.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

from finetrop.extension import ExtElem, TropicalExtension
from finetrop.fields import GF
from finetrop.hyperfields import (
    Hyperfield,
    K,
    S,
    W,
    field_hyperfield,
    quotient_build,
)
from finetrop.ordgroup import gelem
from finetrop.poly import hpoly, is_root

from eval_oracle import is_root_every_term


def bases() -> list:
    small = [K, S, W, field_hyperfield(GF(5)), field_hyperfield(GF(7)),
             quotient_build(7, [1, 2, 4]), quotient_build(13, [1, 3, 9])]
    return small + [TropicalExtension(B) for B in small]


def _unit(H: Hyperfield, rng: random.Random):
    if isinstance(H, TropicalExtension):
        return ExtElem(rng.choice(H.base.units()), gelem(rng.randint(-1, 1)))
    return rng.choice(H.units())


def _coordinate(H: Hyperfield, rng: random.Random):
    if rng.randrange(8) == 0:
        return H.zero()
    if isinstance(H, TropicalExtension):
        return ExtElem(rng.choice(H.base.units()),
                       gelem(Fraction(rng.randint(-2, 2), rng.randint(1, 2))))
    return rng.choice(H.units())


def _outcome(f, *args):
    try:
        return f(*args)
    except ZeroDivisionError:
        return "0^k, k < 0"


def _forbidden(self, terms):
    raise AssertionError("the every-term oracle called sum_contains_zero")


def _oracle_outcomes(cases: list) -> list:
    """``is_root_every_term`` of each case, with every definition of
    ``sum_contains_zero`` replaced by one that raises."""
    owners = [cls for H in bases() for cls in type(H).__mro__
              if "sum_contains_zero" in vars(cls)]
    saved = {cls: vars(cls)["sum_contains_zero"] for cls in owners}
    for cls in saved:
        cls.sum_contains_zero = _forbidden
    try:
        return [_outcome(is_root_every_term, p, point) for p, point in cases]
    finally:
        for cls, method in saved.items():
            cls.sum_contains_zero = method


def sweep(n: int) -> tuple[int, int]:
    """Check ``n`` rounds; returns (pairs checked, roots among them) and
    raises ``AssertionError`` at the first mismatch."""
    rng = random.Random(34)
    cases = []
    for _ in range(n):
        for H in bases():
            nvars = rng.randint(1, 3)
            coeffs = {tuple(rng.randint(-2, 3) for _ in range(nvars)):
                      _unit(H, rng) for _ in range(rng.randint(1, 7))}
            point = tuple(_coordinate(H, rng) for _ in range(nvars))
            cases.append((hpoly(H, nvars, coeffs), point))
    roots = 0
    for (p, point), want in zip(cases, _oracle_outcomes(cases)):
        got = _outcome(is_root, p, point)
        if got != want:
            raise AssertionError(f"{p.hyperfield.name}: is_root({p}, {point}) "
                                 f"= {got}, every-term oracle {want}")
        roots += got is True
    return len(cases), roots


if __name__ == "__main__":
    try:
        checked, roots = sweep(int(sys.argv[1]))
    except AssertionError as err:
        print(f"mismatch: {err}")
        sys.exit(1)
    print(f"{checked} root tests match the every-term oracle ({roots} roots)")

"""Check of the two integer-grid steps of a Kapranov trial.

Every round draws products of linear factors over Q, Q(i) and GF(5), with
roots that are exact, known to a random precision, indeterminate (no
terms), exactly zero or repeated.  ``poly.product_of_linear_factors``
must give the coefficients and the key order of the generic product
``product_oracle.product_of_linear_factors``.  Each round then pushes
products of exact roots over Q forward along val, sval and fval, and
``solve.newton_cells`` must give the cells, levels and index sets alike,
of the pair search ``newton_oracle.oracle_newton_cells``.

Run as ``PYTHONPATH=src python tests/kapranov_sweep.py ROUNDS``: it prints
the number of products and push-forwards checked, or the first mismatch
and exits 1.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

from finetrop.fields import GF, QQ, QQi
from finetrop.poly import fpoly, product_of_linear_factors, pushforward
from finetrop.series import SeriesDomain, hom_fval, hom_sval, hom_val, series, s_zero
from finetrop.solve import newton_cells, random_series_root

import product_oracle
from newton_oracle import oracle_newton_cells

DOMAINS = tuple(SeriesDomain(F) for F in (QQ, QQi, GF(5)))
HOMS = (hom_val(), hom_sval(), hom_fval())


def random_root(dom: SeriesDomain, rng, roots: list):
    """An exact, cut, indeterminate, zero or repeated root."""
    roll = rng.random()
    if roll < 0.1:
        return s_zero(dom.field)
    if roll < 0.2:
        return series(dom.field, [], Fraction(rng.randint(-3, 6), rng.randint(1, 5)))
    if roll < 0.3 and roots:
        return rng.choice(roots)
    prec = None
    if roll < 0.65:
        prec = Fraction(rng.randint(-2, 8), rng.randint(1, 5))
    return random_series_root(dom.field, rng, rng.randint(1, 6), prec)


def product_round(rng) -> int:
    """Compare every domain's products of 0..5 factors; returns the count."""
    count = 0
    for dom in DOMAINS:
        for k in range(6):
            roots: list = []
            for _ in range(k):
                roots.append(random_root(dom, rng, roots))
            got = product_of_linear_factors(dom, roots)
            want = product_oracle.product_of_linear_factors(dom, roots)
            if got.coeffs != want.coeffs or list(got.coeffs) != list(want.coeffs):
                raise AssertionError(f"product of {roots}: got {got.coeffs}, "
                                     f"want {want.coeffs}")
            count += 1
    return count


def newton_round(rng) -> int:
    """Compare the Newton cells of push-forwards of 1..6 exact factors over
    Q along every homomorphism; returns the count."""
    count = 0
    dom = HOMS[0].source
    for f in HOMS:
        for k in range(1, 7):
            roots = [random_series_root(dom.field, rng, rng.randint(1, 6))
                     for _ in range(k)]
            p = product_of_linear_factors(dom, roots)
            hp = pushforward(f, fpoly(dom, 1, p.coeffs))
            got = [(c.level, c.J) for c in newton_cells(hp)]
            want = oracle_newton_cells(hp)
            if got != want:
                raise AssertionError(f"{f.name}: newton_cells({hp}) = {got}, "
                                     f"pair search {want}")
            count += 1
    return count


def sweep(rounds: int) -> tuple[int, int]:
    """(products, push-forwards) checked; raises ``AssertionError`` at the
    first mismatch."""
    products = pushed = 0
    for r in range(rounds):
        rng = random.Random(r)
        products += product_round(rng)
        pushed += newton_round(rng)
    return products, pushed


if __name__ == "__main__":
    try:
        products, pushed = sweep(int(sys.argv[1]))
    except AssertionError as err:
        print(f"mismatch: {err}")
        sys.exit(1)
    print(f"{products} products match the generic product, "
          f"Newton cells of {pushed} push-forwards match the pair search")

"""Exhaustive check of base multiplicities and of Lemma A.

Every polynomial of degree 1..d over K, S, W, GF(5)/{1, 4}, GF(7)/{1, 2, 4}
and GF(5) is taken at every element of its hyperfield.  ``multiplicity``
must equal the branching search ``mult_search.search_multiplicity``, and
at every unit a, ``solve._quotients`` must find a quotient by x - a exactly
when ``is_root`` holds: Lemma A of Baker-Lorscheid ("Descartes' rule of
signs, Newton polygons, and polynomials over hyperfields", 2021), on which
``multiplicity`` drops the evaluation.

Run as ``PYTHONPATH=src python tests/mult_sweep.py D``: it prints the
number of (polynomial, element) pairs checked, or the first mismatch and
exits 1.
"""

from __future__ import annotations

import itertools
import sys

from finetrop.fields import GF
from finetrop.hyperfields import K, S, W, field_hyperfield, quotient_build
from finetrop.poly import hpoly1, is_root
from finetrop.solve import _quotients, multiplicity

from mult_search import search_multiplicity


def bases() -> list:
    return [K, S, W, quotient_build(5, [1, 4]), quotient_build(7, [1, 2, 4]),
            field_hyperfield(GF(5))]


def sweep(d: int) -> int:
    """Check every polynomial of degree 1..``d`` at every element; returns
    the number of pairs checked and raises ``AssertionError`` at the first
    mismatch."""
    count = 0
    for H in bases():
        elements = H.elements()
        for n in range(1, d + 1):
            for low in itertools.product(elements, repeat=n):
                for lead in H.units():
                    c = low + (lead,)
                    p = hpoly1(H, dict(enumerate(c)))
                    for x in elements:
                        got = multiplicity(p, x)
                        want = search_multiplicity(p, x)
                        if got != want:
                            raise AssertionError(
                                f"{H.name}: multiplicity({p}, {x}) = {got}, "
                                f"search {want}")
                        if not H.is_zero(x):
                            root = is_root(p, (x,))
                            if bool(_quotients(H, c, x)) != root:
                                raise AssertionError(
                                    f"{H.name}: {p} at {x}: is_root {root}, "
                                    f"quotients {_quotients(H, c, x)}")
                        count += 1
    return count


if __name__ == "__main__":
    try:
        n = sweep(int(sys.argv[1]))
    except AssertionError as err:
        print(f"mismatch: {err}")
        sys.exit(1)
    print(f"{n} base multiplicities match the search and Lemma A")

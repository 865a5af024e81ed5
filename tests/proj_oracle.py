"""Homogenisation, projective roots and plain field evaluation, for tests.

Nothing in the package calls these: the solvers and the fine curves work
on affine and Laurent polynomials over hyperfields.  They stay here as
small references for the tests of ``tests/test_poly.py``:

- ``homogenize`` and ``affinize`` move a polynomial between affine and
  projective form, and ``is_laurent`` tells a Laurent polynomial, which
  has no homogenisation;
- ``proj_point`` and ``proj_is_root`` test a homogeneous polynomial at a
  point of P^n(H), through ``finetrop.poly.is_root``;
- ``fpoly_eval`` evaluates a polynomial over a field or series domain by
  repeated products, one term at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from finetrop.hyperfields import Hyperfield
from finetrop.poly import FPoly, HPoly, hpoly, is_root


def is_laurent(p: HPoly) -> bool:
    """Whether some monomial of p has a negative exponent."""
    return any(e < 0 for d in p.coeffs for e in d)


def homogenize(p: HPoly) -> HPoly:
    """Pad each monomial with a new first variable up to total degree."""
    if is_laurent(p):
        raise ValueError("homogenize a polynomial, not a Laurent polynomial")
    alpha = p.degree()
    coeffs = {}
    for d, c in p.coeffs.items():
        coeffs[(alpha - sum(d),) + tuple(d)] = c
    return hpoly(p.hyperfield, p.nvars + 1, coeffs)


def affinize(p: HPoly) -> HPoly:
    """Clear negative exponents by the minimal monomial shift."""
    if not p.coeffs:
        return p
    shifts = tuple(
        -min(min(d[i] for d in p.coeffs), 0) for i in range(p.nvars)
    )
    coeffs = {
        tuple(e + s for e, s in zip(d, shifts)): c for d, c in p.coeffs.items()
    }
    return hpoly(p.hyperfield, p.nvars, coeffs)


@dataclass(frozen=True)
class ProjPoint:
    """Point of P^n(H), stored with first nonzero coordinate scaled to one."""

    hyperfield: Hyperfield
    coords: tuple


def proj_point(H: Hyperfield, coords: Sequence) -> ProjPoint:
    coords = tuple(coords)
    pivot = None
    for c in coords:
        if not H.is_zero(c):
            pivot = c
            break
    if pivot is None:
        raise ValueError("projective point needs a nonzero coordinate")
    lam = H.inv(pivot)
    scaled = tuple(H.zero() if H.is_zero(c) else H.mul(lam, c) for c in coords)
    return ProjPoint(H, scaled)


def proj_is_root(p: HPoly, pt: ProjPoint) -> bool:
    degs = {sum(d) for d in p.coeffs}
    if len(degs) > 1:
        raise ValueError("projective root test needs a homogeneous polynomial")
    return is_root(p, pt.coords)


def fpoly_eval(p: FPoly, point: Sequence):
    D = p.domain
    total = D.zero()
    for d, c in p.coeffs.items():
        val = c
        for a, e in zip(point, d):
            for _ in range(e):
                val = D.mul(val, a)
        total = D.add(total, val)
    return total

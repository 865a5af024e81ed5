"""Reference base-pair solver: the shape classifier and its three solvers.

This is how ``tropgeo.solve_base_pair`` solved two initial-form conditions
over a field before it eliminated every binomial by one unimodular change
of coordinates.  ``_classify_cond`` sorts each condition into a monomial,
an affine condition (exponents within (0, 0), (1, 0), (0, 1)) or a
binomial; ``reference_pair`` dispatches on the two shapes to Cramer's rule
and ``_affine_rank1``, to ``_binomial_pair``, or to ``_affine_binomial``,
and raises BaseSolveError for any other shape.  The four functions and the
entry point are kept unchanged, with their own copy of ``_bezout``, as a
slow oracle for ``tests/pair_sweep.py``.  They share the base field's root
finders and ``poly.prevariety_member`` with the package, not its
elimination.
"""

from __future__ import annotations

import math
from typing import Any

from finetrop.fields import BaseField, BaseSolveError
from finetrop.hyperfields import FieldHyperfield, Hyperfield
from finetrop.poly import HPoly, prevariety_member


def _classify_cond(F: BaseField, cond: HPoly):
    coeffs = dict(cond.coeffs)
    exps = set(coeffs)
    if len(exps) == 1:
        return ("monomial",)
    if exps <= {(0, 0), (1, 0), (0, 1)}:
        return ("affine", (
            coeffs.get((1, 0), F.zero()),
            coeffs.get((0, 1), F.zero()),
            coeffs.get((0, 0), F.zero()),
        ))
    if len(exps) == 2:
        (e1, e2) = sorted(exps)
        c1, c2 = coeffs[e1], coeffs[e2]
        delta = (e2[0] - e1[0], e2[1] - e1[1])
        w = F.neg(F.div(c1, c2))  # u^delta = w
        return ("binomial", delta, w)
    raise BaseSolveError(f"base condition outside supported shapes: {cond}")


def reference_pair(H: Hyperfield, condA: HPoly, condB: HPoly):
    """Unit solutions of two initial-form conditions.

    Returns ("points", [(u, v), ...]) or ("family", note) when the
    solutions form a positive-dimensional family.  Over a field only: a
    base with finitely many units was, and is, scanned by ``_unit_scan``.
    """
    if not isinstance(H, FieldHyperfield):
        raise BaseSolveError(f"base solving unsupported over {H.name}")
    F = H.field
    kA, kB = _classify_cond(F, condA), _classify_cond(F, condB)
    if kA[0] == "monomial" or kB[0] == "monomial":
        return ("points", [])
    if kA[0] == "affine" and kB[0] == "affine":
        (a1, b1, c1), (a2, b2, c2) = kA[1], kB[1]
        det = F.sub(F.mul(a1, b2), F.mul(a2, b1))
        if not F.is_zero(det):
            u = F.div(F.sub(F.mul(b1, c2), F.mul(b2, c1)), det)
            v = F.div(F.sub(F.mul(a2, c1), F.mul(a1, c2)), det)
            if not F.is_zero(u) and not F.is_zero(v):
                return ("points", [(u, v)])
            return ("points", [])
        # Dependent or inconsistent affine pair.
        return _affine_rank1(F, kA[1], kB[1])
    if kA[0] == "binomial" and kB[0] == "binomial":
        return _binomial_pair(F, kA, kB, (condA, condB))
    # Mixed affine and binomial.
    if kA[0] == "binomial":
        kA, kB = kB, kA
        condA, condB = condB, condA
    return _affine_binomial(F, kA, kB, (condA, condB))


def _affine_rank1(F: BaseField, r1, r2):
    (a1, b1, c1), (a2, b2, c2) = r1, r2
    # r2 = k r1 for the scalar k matched on a nonzero coordinate.
    x1, x2 = (b1, b2) if F.is_zero(a1) else (a1, a2)
    if not F.is_zero(x1):
        k = F.div(x2, x1)
        if (a2, b2, c2) == (F.mul(k, a1), F.mul(k, b1), F.mul(k, c1)):
            return ("family", "one affine condition, one free unit")
    # det = 0 and the rows are not proportional: no solution at all.
    return ("points", [])


def _binomial_pair(F: BaseField, kA, kB, conds):
    (_, (p, q), w1) = kA
    (_, (r, s), w2) = kB
    det = p * s - q * r
    if det == 0:
        # Parallel exponent vectors m*e and n*e for a primitive e: with
        # z = u^e the conditions read z^m = w1 and z^n = w2, so every common
        # z solves z^gcd(m, n) = w1^x * w2^y (x*m + y*n = gcd(m, n)), and
        # the units u with u^e = z form a one-parameter family.
        m = math.gcd(p, q)
        e = (p // m, q // m)
        n = r // e[0] if e[0] else s // e[1]
        g, x, y = _bezout(m, n)
        rhs = F.mul(F.power(w1, x), F.power(w2, y))
        if any(F.power(z, m) == w1 and F.power(z, n) == w2
               for z in F.nth_roots(rhs, g)):
            return ("family", "dependent binomial conditions")
        return ("points", [])
    u_rhs = F.mul(F.power(w1, s), F.power(w2, -q))
    v_rhs = F.mul(F.power(w2, p), F.power(w1, -r))
    out = []
    for u in F.nth_roots(u_rhs, det):
        for v in F.nth_roots(v_rhs, det):
            if prevariety_member(conds, (u, v)) and (u, v) not in out:
                out.append((u, v))
    return ("points", out)


def _bezout(m: int, n: int) -> tuple[int, int, int]:
    """(g, x, y) with x*m + y*n = g = gcd(m, n) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while n:
        q, m, n = m // n, n, m % n
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (m, x0, y0) if m >= 0 else (-m, -x0, -y0)


def _affine_binomial(F: BaseField, kA, kB, conds):
    (_, (alpha, beta, gamma)) = kA
    (_, (du, dv), w) = kB
    # Solve the binomial u^du v^dv = w for a variable x whose exponent is
    # +-1, x = (w y^-dv)^du in the other variable y (u and v swap roles
    # when only dv is +-1).  The affine condition alpha x + beta y + gamma
    # then becomes the Laurent polynomial alpha w^du y^(-dv du) + beta y +
    # gamma in y.
    swap = du not in (1, -1)
    if swap:
        if dv not in (1, -1):
            raise BaseSolveError(
                "affine/binomial pair needs a unit exponent in the binomial")
        alpha, beta, du, dv = beta, alpha, dv, du
    coeffs: dict[int, Any] = {}
    for i, c in ((-dv * du, F.mul(alpha, w if du == 1 else F.inv(w))),
                 (1, beta), (0, gamma)):
        coeffs[i] = F.add(coeffs[i], c) if i in coeffs else c
    coeffs = {i: c for i, c in coeffs.items() if not F.is_zero(c)}
    if not coeffs:
        # Every unit y, with x from the binomial, solves the affine condition.
        return ("family", "affine condition vanishes on the binomial")
    sols = []
    for y in F.unit_roots(coeffs):
        base = F.mul(w, F.power(y, -dv))
        x = base if du == 1 else F.inv(base)
        pair = (y, x) if swap else (x, y)
        if prevariety_member(conds, pair) and pair not in sols:
            sols.append(pair)
    return ("points", sols)

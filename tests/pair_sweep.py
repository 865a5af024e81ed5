"""Check of ``tropgeo.solve_base_pair`` over Q and Q(i) against the shape
classifier it replaced (``pair_oracle.reference_pair``).

Each round draws one pair of initial-form conditions over Q and one over
Q(i).  A condition has two to four terms: either two or three corners of
the unit triangle, or a random subset of the 3 x 3 box, each offset by a
random monomial in [-2, 2]^2, so exponents may be negative.  Most
conditions are made to vanish at one random unit pair of the round, so
that pairs share points; some second conditions are a monomial multiple of
the first, so that pairs form families, and some pairs are a family on one
fiber of a binomial and points on another (``fibered``).  A pair fails when:

- the reference answers and the kind or the point set differs;
- a returned point is not a pair of units and a root of both conditions,
  evaluated term by term by ``eval_oracle.is_root_every_term``;
- the round's unit pair is a root of both and is neither returned nor on
  the curve of common roots of a family (``on_family``), which checks the
  pairs that the reference cannot solve too;
- ``solve_base_pair`` raises BaseSolveError where the reference answered.

Run as ``PYTHONPATH=src python tests/pair_sweep.py ROUNDS``: it prints the
count of each outcome, or the first pair that fails and exits 1.
"""

from __future__ import annotations

import math
import random
import sys
from collections import Counter
from fractions import Fraction

from finetrop import tropgeo
from finetrop.fields import BaseSolveError, QQ, QQi, gauss
from finetrop.hyperfields import field_hyperfield
from finetrop.poly import hpoly

from eval_oracle import is_root_every_term
from pair_oracle import reference_pair

BASES = (field_hyperfield(QQ), field_hyperfield(QQi))
RATIONALS = [Fraction(n, d) for n in (1, 2, 3) for d in (1, 2)]
GAUSSIANS = [gauss(0, 1), gauss(1, 1), gauss(2, -1), gauss(1, 2)]
TRIANGLE = [(0, 0), (1, 0), (0, 1)]
BOX = [(i, j) for i in range(3) for j in range(3)]


def unit(rng, F):
    x = rng.choice(RATIONALS) * rng.choice([-1, 1])
    if F is QQ:
        return x
    return rng.choice(GAUSSIANS) if rng.random() < 0.4 else gauss(x)


def condition(rng, H, point):
    F = H.field
    offsets = (rng.sample(TRIANGLE, rng.randint(2, 3)) if rng.random() < 0.4
               else rng.sample(BOX, rng.randint(2, 4)))
    m = (rng.randint(-2, 2), rng.randint(-2, 2))
    coeffs = {(m[0] + i, m[1] + j): unit(rng, F) for i, j in offsets}
    if rng.random() < 0.7:
        # Make point a root: the last coefficient cancels the others there.
        *rest, last = coeffs
        c = F.neg(F.div(F.dot([coeffs[d] for d in rest],
                              [monomial(F, point, d) for d in rest]),
                        monomial(F, point, last)))
        if not F.is_zero(c):
            coeffs[last] = c
    return hpoly(H, 2, coeffs)


def monomial(F, point, d):
    return F.mul(F.power(point[0], d[0]), F.power(point[1], d[1]))


def multiple(rng, H, cond):
    """cond times a random monomial and unit."""
    F, k = H.field, unit(rng, H.field)
    m = (rng.randint(-1, 1), rng.randint(-1, 1))
    return hpoly(H, 2, {(d[0] + m[0], d[1] + m[1]): F.mul(k, c)
                        for d, c in cond.coeffs.items()})


def fibered(rng, H, point):
    """The binomial z^2 = z0^2, z = u^a v^b and z0 its value at point, with
    (z + z0) * C for a random condition C: the second vanishes on the fiber
    z = -z0 and, when C does not, meets the fiber z = z0 in isolated
    points, so the pair is a family and points at once."""
    F = H.field
    a, b = rng.choice([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)])
    z0 = monomial(F, point, (a, b))
    B: dict = {}
    for d, c in condition(rng, H, point).coeffs.items():
        for e, f in (((a, b), F.one()), ((0, 0), z0)):
            k, t = (d[0] + e[0], d[1] + e[1]), F.mul(c, f)
            B[k] = F.add(B[k], t) if k in B else t
    return (hpoly(H, 2, {(2 * a, 2 * b): F.one(),
                         (0, 0): F.neg(F.mul(z0, z0))}),
            hpoly(H, 2, {k: c for k, c in B.items() if not F.is_zero(c)}))


def pairs(rounds: int, seed: int = 0):
    """(H, condA, condB, point) for every pair of the sweep, in order."""
    rng = random.Random(seed)
    for _ in range(rounds):
        for H in BASES:
            point = (unit(rng, H.field), unit(rng, H.field))
            A = condition(rng, H, point)
            r = rng.random()
            if r < 0.1:
                B = multiple(rng, H, A)
            elif r < 0.15:
                A, B = fibered(rng, H, point)
            else:
                B = condition(rng, H, point)
            yield H, A, B, point


def _solve(solver, H, A, B):
    try:
        return solver(H, A, B)
    except BaseSolveError:
        return None


def outcome(H, A, B, point) -> str:
    """The outcome of one pair; raises AssertionError when it fails."""
    want = _solve(reference_pair, H, A, B)
    got = _solve(tropgeo.solve_base_pair, H, A, B)
    if got is not None and got[0] == "points":
        for pt in got[1]:
            if any(map(H.is_zero, pt)) or not all(
                    is_root_every_term(c, pt) for c in (A, B)):
                raise AssertionError(f"{A}; {B}: {pt} is not a unit root of both")
    if got is not None and all(is_root_every_term(c, point) for c in (A, B)):
        found = (point in got[1] if got[0] == "points"
                 else on_family(H, A, B, point))
        if not found:
            raise AssertionError(f"{A}; {B}: {got} misses the root {point}")
    if want is None:
        return "raise in both" if got is None else "answered, reference raises"
    if got is None:
        raise AssertionError(f"{A}; {B}: raises, reference gives {want}")
    if got == want:
        return "identical"
    if got[0] != want[0] or (got[0] == "points" and (
            len(got[1]) != len(want[1]) or set(got[1]) != set(want[1]))):
        raise AssertionError(f"{A}; {B}: {got}, reference {want}")
    return "same set, other order" if got[0] == "points" else "other note"


def on_family(H, A, B, point) -> bool:
    """Whether the common root point lies on a curve of common roots.

    With a two-term condition c1 m^e1 + c2 m^e2, e2 - e1 = g*(a, b), the
    curve is point's orbit under (t^-b, t^a), which fixes the character
    u^a v^b; two points of it, at t = 2 and 3, must be roots of both.
    Without one, the two conditions must be one: B a unit and monomial
    multiple of A.
    """
    F = H.field
    two = [c for c in (A, B) if len(c.coeffs) == 2]
    if not two:
        (dA, cA), (dB, cB) = min(A.coeffs.items()), min(B.coeffs.items())
        k = F.div(cB, cA)
        return ({(d[0] - dA[0], d[1] - dA[1]): F.mul(k, c)
                 for d, c in A.coeffs.items()}
                == {(d[0] - dB[0], d[1] - dB[1]): c
                    for d, c in B.coeffs.items()})
    e1, e2 = sorted(two[0].coeffs)
    g = math.gcd(e2[0] - e1[0], e2[1] - e1[1])
    a, b = (e2[0] - e1[0]) // g, (e2[1] - e1[1]) // g
    return all(is_root_every_term(c, (F.mul(point[0], F.power(t, -b)),
                                      F.mul(point[1], F.power(t, a))))
               for t in (F.from_int(2), F.from_int(3)) for c in (A, B))


def sweep(rounds: int) -> Counter:
    """The outcome counts of ``rounds`` rounds; raises AssertionError at
    the first pair that fails."""
    counts: Counter = Counter()
    for n, (H, *pair) in enumerate(pairs(rounds)):
        try:
            counts[outcome(H, *pair)] += 1
        except AssertionError as err:
            raise AssertionError(f"pair {n} over {H.name}: {err}") from None
    return counts


if __name__ == "__main__":
    try:
        counts = sweep(int(sys.argv[1]))
    except AssertionError as err:
        print(f"mismatch: {err}")
        sys.exit(1)
    print(f"{sum(counts.values())} pairs: " + ", ".join(
        f"{n} {name}" for name, n in sorted(counts.items())))

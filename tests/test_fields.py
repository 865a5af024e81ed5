import itertools
import math
import random
from fractions import Fraction

import pytest

from finetrop.fields import (
    GF, PRIMALITY_BOUND, QQ, QQi, BaseSolveError, _frac_root, _is_prime, gauss)

import root_oracle


def test_rational_field_basics():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(-2, 7)) == Fraction(-7, 2)
    assert QQ.is_zero(QQ.zero())
    assert QQ.sub(QQ.one(), QQ.one()) == QQ.zero()


def test_rational_inverse_of_an_int_is_exact():
    from finetrop.series import series, series_inv

    assert QQ.inv(3) == Fraction(1, 3) and isinstance(QQ.inv(3), Fraction)
    inv = series_inv(series(QQ, [(0, 3), (1, 1)]), prec=2)
    assert inv.terms == ((0, Fraction(1, 3)), (1, Fraction(-1, 9)))
    assert all(isinstance(c, Fraction) for _, c in inv.terms)


def test_rational_dot_is_one_exact_fraction():
    rng = random.Random(41)

    def draw():
        n = rng.randint(-9, 9)
        return n if rng.random() < 0.4 else Fraction(n, rng.randint(1, 12))

    for size in range(1, 8):
        for _ in range(50):
            xs = [draw() for _ in range(size)]
            ys = [draw() for _ in range(size)]
            got = QQ.dot(xs, ys)
            assert isinstance(got, Fraction)
            assert got == sum(Fraction(x) * y for x, y in zip(xs, ys)), (xs, ys)
    assert QQ.dot([2, 3], [5, -1]) == 7 and isinstance(QQ.dot([2], [5]), Fraction)


def test_generic_dot_matches_the_sum():
    rng = random.Random(43)
    for size in range(1, 7):
        for _ in range(30):
            xs = [QQi.random(rng) for _ in range(size)]
            ys = [QQi.random(rng) for _ in range(size)]
            re = sum(x.re * y.re - x.im * y.im for x, y in zip(xs, ys))
            im = sum(x.re * y.im + x.im * y.re for x, y in zip(xs, ys))
            assert QQi.dot(xs, ys) == gauss(re, im)
            us = [rng.randrange(5) for _ in range(size)]
            vs = [rng.randrange(5) for _ in range(size)]
            assert GF(5).dot(us, vs) == sum(u * v for u, v in zip(us, vs)) % 5


def _random_laurent(rng):
    """A small rational Laurent polynomial, often with rational roots.

    Up to two factors q x - p (p = 0 included) times a random cofactor,
    scaled by +-1/d, sometimes with one coefficient divided further, and
    shifted to Laurent exponents.  Coefficients stay small so that the
    Fraction search of the oracle stays quick.
    """
    coeffs = [rng.randint(-2, 2) or 1 for _ in range(rng.randint(1, 2))]
    for _ in range(rng.randint(0, 2)):
        p, q = rng.randint(-2, 2), rng.randint(1, 2)
        out = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            out[i] -= p * c
            out[i + 1] += q * c
        coeffs = out
    scale = Fraction(rng.choice([-1, 1]), rng.randint(1, 6))
    fs = [c * scale for c in coeffs]
    if rng.random() < 0.1:
        fs[rng.randrange(len(fs))] /= rng.randint(2, 3)
    lo = rng.randint(-2, 2)
    return {i + lo: c for i, c in enumerate(fs) if c}


def test_unit_roots_match_the_fraction_search():
    # Same roots in the same order as the old Fraction evaluation of
    # every candidate p/q.
    rng = random.Random(909)
    with_roots = 0
    for _ in range(20000):
        coeffs = _random_laurent(rng)
        got = QQ.unit_roots(coeffs)
        assert got == root_oracle.rational_unit_roots(coeffs), coeffs
        with_roots += bool(got)
    assert with_roots >= 5000


def test_rational_sqrt():
    assert QQ.sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert QQ.sqrt(Fraction(2)) is None
    assert QQ.sqrt(Fraction(-1)) is None


def test_rational_root_matches_the_search():
    # Every rational x = s/t with |s|, t <= 40 against the radicands u/w
    # with |u|, w <= 40 and the n-th powers of s/t with |s|, t <= 5, for
    # n = 1..6.  A root s/t of u/w in lowest terms has |s|^n = |u| and
    # t^n = w, so the search holds every root: the answer is the one root
    # for odd n, the non-negative one for even n, and None without a root,
    # negative radicands of even n included.
    xs = {Fraction(s, t) for s in range(-40, 41) for t in range(1, 41)}
    small = [x for x in xs if abs(x.numerator) <= 5 and x.denominator <= 5]
    for n in range(1, 7):
        roots: dict = {}
        for x in xs:
            roots.setdefault(x ** n, []).append(x)
        radicands = {Fraction(u, w) for u in range(-40, 41)
                     for w in range(1, 41)}
        radicands |= {x ** n for x in small}
        found = 0
        for a in radicands:
            want = max(roots[a]) if a in roots else None
            assert _frac_root(a, n) == want, (a, n)
            found += want is not None
        assert found >= 20, (n, found)
        # Large radicands, where Newton's method takes many steps.
        r = Fraction(7 ** 30, 11 ** 20)
        assert _frac_root(r ** n, n) == r
        assert _frac_root(-(r ** n), n) == (None if n % 2 == 0 else -r)
        if n > 1:
            assert _frac_root(r ** n + 1, n) is None


def test_rational_root_of_a_huge_index_answers_at_once():
    # 1 < m < 2^n has no integer n-th root; Newton's method from 2 once
    # formed 2^(n - 1) first and never returned for n = 10^10 - 1.
    n = 10 ** 10 - 1
    assert _frac_root(Fraction(2), n) is None
    assert _frac_root(Fraction(-1, 2 ** 40), n) is None
    assert _frac_root(Fraction(-1), n) == -1
    assert _frac_root(Fraction(2 ** 64, 3 ** 64), 64) == Fraction(2, 3)


def test_gauss_arithmetic():
    z = QQi.mul(gauss(1, 2), gauss(3, -1))
    assert z == gauss(5, 5)
    assert QQi.mul(gauss(0, 1), gauss(0, 1)) == gauss(-1)
    w = gauss(Fraction(2, 3), Fraction(-1, 5))
    assert QQi.mul(w, QQi.inv(w)) == QQi.one()


def test_gauss_sqrt():
    # Both square roots of a perfect square must square back.
    for w in (gauss(-1), gauss(0, 2), gauss(3, 4), gauss(-5, 12)):
        r = QQi.sqrt(w)
        assert r is not None
        assert QQi.mul(r, r) == w
    assert QQi.sqrt(gauss(2)) is None
    assert QQi.sqrt(gauss(1, 1)) is None


def test_gauss_odd_roots_of_imaginary_radicands():
    i = QQi.i()
    assert QQi.nth_roots(i, 3) == [gauss(0, -1)]
    assert set(QQi.nth_roots(gauss(-1), 6)) == {i, gauss(0, -1)}
    with pytest.raises(BaseSolveError):
        QQi.nth_roots(QQi.power(gauss(1, 2), 3), 3)


def test_gauss_nth_roots_of_powers():
    # w = r^n for small Gaussian rationals r: every returned x solves
    # x^n = w and r is among them, unless the call raises.  It may raise
    # only at its odd root step, whose radicand is r^m times a unit
    # (m the odd part of |n|), when that is neither real nor imaginary.
    parts = [Fraction(k, d) for k in range(-3, 4) for d in (1, 2)]
    rs = {gauss(a, b) for a, b in itertools.product(parts, parts)} - {QQi.zero()}
    for r, n in itertools.product(sorted(rs, key=repr), [1, 2, 3, 4, 5, 6]):
        for n in (n, -n):
            w = QQi.power(r, n)
            try:
                roots = QQi.nth_roots(w, n)
            except BaseSolveError:
                m = abs(n)
                while m % 2 == 0:
                    m //= 2
                odd = QQi.power(r, m)
                assert m > 1 and odd.re != 0 and odd.im != 0, (r, n)
                continue
            assert r in roots, (r, n)
            assert all(QQi.power(x, n) == w for x in roots), (r, n)


def test_single_term_has_no_unit_roots():
    assert QQ.unit_roots({3: Fraction(1, 2)}) == []
    assert QQi.unit_roots({0: gauss(1, 1)}) == []
    assert QQi.unit_roots({2: gauss(0, 3)}) == []


def test_prime_field():
    F = GF(7)
    assert F.mul(3, F.inv(3)) == 1
    assert F.add(5, 4) == 2
    assert sorted(F.elements()) == list(range(7))
    assert F.sqrt(2) in (3, 4)


def test_nonprime_rejected():
    with pytest.raises(ValueError, match="only prime"):
        GF(6)


def test_primality_matches_trial_division():
    def by_trial(n):
        return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert [n for n in range(10 ** 5) if _is_prime(n) != by_trial(n)] == []


def test_primality_on_the_thirteenth_base_and_the_bound():
    # A strong pseudoprime to the twelve prime bases 2 to 37 (Sorenson and
    # Webster 2017): only base 41 shows it composite.
    for n in (318665857834031151167461, 3 * (2 ** 61 - 1)):
        with pytest.raises(ValueError, match="only prime"):
            GF(n)
    assert GF(2 ** 61 - 1).p == 2 ** 61 - 1
    # From the bound up, the bases no longer decide primality.
    with pytest.raises(ValueError, match=f"only below {PRIMALITY_BOUND}"):
        GF(PRIMALITY_BOUND)
    assert _is_prime(PRIMALITY_BOUND - 2) is False  # 3 divides it


def test_numerators_round_trip():
    # Negative values, integral coefficients and a repeated denominator;
    # over Q the numerators are ints over the lcm of the denominators, and
    # a degree-k value of them reduces by L^k to the value of the
    # coefficients.  The other fields are their own numerator ring.
    cases = {
        QQ: [Fraction(-3, 4), Fraction(5), Fraction(2, 3), Fraction(-7),
             Fraction(1, 6), 3, -2],
        QQi: [gauss(Fraction(-3, 4), 2), gauss(5), gauss(0, Fraction(-1, 6)),
              gauss(-7, Fraction(2, 3))],
        GF(5): [4, 1, 3, 2, 1],
    }
    for F, cs in cases.items():
        R, L, nums = F.numerators(cs)
        assert len(nums) == len(cs)
        if F is QQ:
            assert L == 12 and all(type(n) is int for n in nums)
            assert [F.div(n, L) for n in nums] == cs
            assert all(type(F.div(n, L)) is Fraction for n in nums)
        else:
            assert R is F and L == 1 and nums == cs
        reduce = (lambda v, k: v) if R is F else (lambda v, k: F.div(v, L ** k))
        assert reduce(R.one(), 0) == F.one()
        assert [reduce(R.neg(n), 1) for n in nums] == [F.neg(c) for c in cs]
        assert reduce(R.dot(nums, nums[::-1]), 2) == F.dot(cs, cs[::-1])
        assert R.is_zero(R.dot([nums[0], R.neg(nums[0])], [R.one(), R.one()]))
        assert not any(R.is_zero(n) for n in nums)
    assert QQ.numerators([])[1:] == (1, [])

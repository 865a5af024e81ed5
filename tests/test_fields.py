from fractions import Fraction

import pytest

from finetrop.fields import GF, QQ, QQi, field_by_name, gauss


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


def test_rational_sqrt():
    assert QQ.sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert QQ.sqrt(Fraction(2)) is None
    assert QQ.sqrt(Fraction(-1)) is None


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


def test_prime_field():
    F = GF(7)
    assert F.mul(3, F.inv(3)) == 1
    assert F.add(5, 4) == 2
    assert sorted(F.elements()) == list(range(7))
    assert F.sqrt(2) in (3, 4)


def test_nonprime_rejected():
    with pytest.raises(ValueError, match="only prime"):
        GF(6)


def test_field_by_name():
    assert field_by_name("Q") is QQ
    assert field_by_name("Qi") is QQi
    assert field_by_name("GF5").p == 5
    with pytest.raises(ValueError):
        field_by_name("R")

"""Parsing and printing round trips for elements, series, and polynomials."""

import random
from fractions import Fraction

import pytest

from finetrop.fields import GF, QQ, QQi, gauss
from finetrop.hyperfields import make_dir
from finetrop.parsing import (
    ParseError,
    hyperfield_by_name,
    parse_elem,
    parse_fpoly,
    parse_poly,
    parse_series,
)
from finetrop.series import SeriesDomain, fmt_series, series

KEYS = ["K", "S", "W", "P", "Phi", "Q", "Qi", "GF5", "GF5/{1,4}",
        "GF7/{1,2,4}", "T", "TR", "TC", "T^2", "Qx|Q", "Qix|Q"]


def test_scalar_literals():
    assert parse_elem("Q", "-7/3") == Fraction(-7, 3)
    assert parse_elem("Qi", "2-3/4i") == gauss(2, Fraction(-3, 4))
    assert parse_elem("Qi", "i") == gauss(0, 1)
    assert parse_elem("Qi", "-i") == gauss(0, -1)
    with pytest.raises(ParseError):
        parse_elem("Q", "1/")


def test_elem_round_trips_sampled():
    rng = random.Random(0)
    for key in KEYS:
        H = hyperfield_by_name(key)
        for _ in range(200):
            a = H.random_element(rng)
            text = H.fmt(a)
            back = parse_elem(key, text)
            assert back == a, (key, text)


def test_unicode_aliases():
    assert parse_poly("T", "X \u229e (1, 2)").coeffs == \
        parse_poly("T", "X + (1, 2)").coeffs
    assert parse_elem("Q", "\u22123/2") == Fraction(-3, 2)


def test_dir_literals():
    assert parse_elem("P", "dir(3, -4)") == make_dir(3, -4)
    assert parse_elem("P", "-1") == make_dir(-1, 0)
    with pytest.raises(ParseError):
        parse_elem("P", "dir(0, 0)")


def test_extension_zero():
    assert parse_elem("T", "inf") is None
    assert parse_elem("T", "0") is None


def test_series_round_trip():
    a = parse_series("-9/4 + (-6/7+1/6i)*t + O(t^2)", field=QQi)
    assert fmt_series(a) == "-9/4 + (-6/7+1/6i)*t + O(t^2)"
    b = parse_series("t^(1/2) + 2*t^3", field=QQ)
    assert b.prec is None
    assert dict(b.terms) == {Fraction(1, 2): Fraction(1),
                             Fraction(3): Fraction(2)}
    # Over GF(p) a series reads its scalars as an element of GF(p) is read:
    # integers mod p.
    c = parse_series("3 + 7*t - t^2", field=GF(5))
    assert c.terms == ((0, 3), (1, 2), (2, 4))
    assert all(type(v) is int for _, v in c.terms)
    with pytest.raises(ParseError):
        parse_series("1/2", field=GF(5))


def test_poly_round_trips():
    rng = random.Random(1)
    from finetrop.solve import random_hpoly

    for key in ("S", "Qi", "T", "TR", "Qx|Q", "P"):
        H = hyperfield_by_name(key)
        for _ in range(60):
            p = random_hpoly(H, rng, deg=rng.randint(1, 5))
            back = parse_poly(key, repr(p))
            assert back.coeffs.keys() == p.coeffs.keys()
            for d in p.coeffs:
                assert back.coeffs[d] == p.coeffs[d], (key, repr(p))


def test_fpoly_parse():
    dom = SeriesDomain(QQ)
    q = parse_fpoly(dom, "t*X + (1 + t^2)*Y + 1")
    assert fmt_series(q.coeffs[(1, 0)]) == "t"
    assert fmt_series(q.coeffs[(0, 1)]) == "1 + t^2"
    assert fmt_series(q.coeffs[(0, 0)]) == "1"


def test_hyperfield_by_name_errors():
    with pytest.raises(ValueError):
        hyperfield_by_name("GF6")
    with pytest.raises(ValueError):
        hyperfield_by_name("Zorp")


def test_repeated_monomial_rejected():
    with pytest.raises(ParseError, match="repeated monomial X "):
        parse_poly("S", "X + X")
    # Over series the reason is the repetition itself, not set-valued sums.
    with pytest.raises(ParseError, match=r"^repeated monomial X \(at position 4\)$"):
        parse_fpoly(SeriesDomain(QQ), "X + X")
    with pytest.raises(ParseError, match="repeated monomial X\\^2\\*Y "):
        parse_fpoly(SeriesDomain(QQ), "X^2*Y - t*Y*X^2")
    with pytest.raises(ParseError, match="repeated monomial 1 "):
        parse_poly("T", "(1, 2) + X + (1, 3)")


def test_empty_parenthesized_series_is_zero():
    dom = SeriesDomain(QQ)
    assert parse_fpoly(dom, "()*X + 1").coeffs == {(0,): dom.one()}
    assert parse_fpoly(dom, "(O(t^2))*X + ( )").coeffs == {
        (1,): parse_series("O(t^2)")}
    with pytest.raises(ParseError):
        parse_series("()")
    with pytest.raises(ParseError):
        parse_fpoly(dom, "(1 + t*X")


@pytest.mark.parametrize("key", ["P", "Phi", "K", "S"])
def test_written_zero_coefficient_is_dropped(key):
    # The zero of P and Phi is None, which must not read as "no coefficient
    # written" (and so as one).
    one = hyperfield_by_name(key).one()
    assert parse_poly(key, "0*X + 1").coeffs == {(0,): one}
    assert parse_poly(key, "X + 0").coeffs == {(1,): one}
    assert parse_poly(key, "1 - 0*X").coeffs == {(0,): one}
    assert parse_poly(key, "0*X").coeffs == {}


def test_fpoly_round_trips_printed_series_systems():
    rng = random.Random(3)
    for field in (QQ, QQi):
        dom = SeriesDomain(field)
        for _ in range(100):
            cs = []
            for _ in range(3):
                c = dom.random(rng)
                if rng.random() < 0.4:
                    c = series(field, c.terms,
                               Fraction(rng.randint(-2, 9), rng.randint(1, 3)))
                cs.append(c)
            text = " + ".join(f"({fmt_series(c)}){m}"
                              for c, m in zip(cs, ("*X", "*Y", "")))
            q = parse_fpoly(dom, text, nvars=2)
            for c, d in zip(cs, [(1, 0), (0, 1), (0, 0)]):
                assert q.coeffs.get(d, dom.zero()) == c, text


def test_multivariate_guess():
    p = parse_poly("S", "X1 + X2 + X3")
    assert p.nvars == 3
    q = parse_poly("S", "Z^2 + 1")
    assert q.nvars == 3

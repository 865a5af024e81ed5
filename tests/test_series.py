"""Truncated series arithmetic and the valuation homomorphisms."""

import importlib
import random
from fractions import Fraction

import pytest

from finetrop.fields import GF, QQ, QQi, gauss
from finetrop.hyperfields import hom_check
from finetrop.series import (
    PrecisionError,
    SeriesDomain,
    SeriesTrunc,
    fmt_series,
    hom_fval,
    hom_phval,
    hom_sval,
    hom_val,
    s_const,
    series,
    series_add,
    series_div,
    series_div_lead,
    series_inv,
    series_mul,
    series_neg,
    series_sub,
)
from finetrop.poly import fpoly
import finetrop.solve
from finetrop.solve import random_linear_system, solve_linear_2x2

import series_oracle
from series_oracle import series_truncate


def test_series_basics():
    a = series(QQ, [(0, Fraction(1)), (1, Fraction(2))], prec=5)
    b = series(QQ, [(Fraction(1, 2), Fraction(3))], prec=4)
    s = series_add(a, b)
    assert s.prec == 4
    assert dict(s.terms)[Fraction(1, 2)] == 3
    p = series_mul(a, b)
    assert dict(p.terms)[Fraction(1, 2)] == 3
    assert dict(p.terms)[Fraction(3, 2)] == 6


def test_inversion_geometric():
    # 1/(1 - t) = 1 + t + t^2 + ... up to the requested precision.
    a = series(QQ, [(0, Fraction(1)), (1, Fraction(-1))])
    inv = series_inv(a, prec=5)
    got = dict(inv.terms)
    assert all(got[Fraction(k)] == 1 for k in range(5))
    assert series_mul(a, inv).terms[0] == (Fraction(0), Fraction(1))


def test_inversion_shifts_precision():
    # Leading exponent g and data to O(t^p) can only be inverted to O(t^(p-2g)).
    a = series(QQ, [(1, Fraction(2)), (2, Fraction(1))], prec=4)
    inv = series_inv(a)
    assert inv.prec == 2
    assert inv.leading() == (Fraction(1, 2), Fraction(-1))


def test_inversion_with_only_the_leading_term_known():
    # a = c t^g + O(t^p) inverts to c^-1 t^-g + O(t^(p - 2g)).
    a = series(QQ, [(1, Fraction(2))], prec=3)
    assert series_inv(a) == series(QQ, [(-1, Fraction(1, 2))], prec=1)
    b = series(QQ, [(0, Fraction(1))], prec=1)
    assert series_inv(b) == series(QQ, [(0, Fraction(1))], prec=1)
    assert series_inv(b, prec=0) == series(QQ, [], prec=0)


def test_division():
    num = series(QQ, [(0, Fraction(1))])
    den = series(QQ, [(0, Fraction(1)), (1, Fraction(1))])
    q = series_div(num, den, prec=3)
    assert dict(q.terms) == {
        Fraction(0): Fraction(1),
        Fraction(1): Fraction(-1),
        Fraction(2): Fraction(1),
    }


def test_indeterminate_leading_raises():
    a = series(QQ, [(3, Fraction(1))], prec=2)
    assert a.is_indeterminate()
    with pytest.raises(PrecisionError):
        a.leading()


def test_truncate_and_fmt():
    a = series(QQ, [(0, Fraction(2)), (1, Fraction(2)), (2, Fraction(1))])
    assert fmt_series(series_truncate(a, 3)) == "2 + 2*t + t^2 + O(t^3)"
    assert fmt_series(s_const(QQ, Fraction(0))) == "0"


def test_valuation_homs():
    rng = random.Random(7)
    for hom in (hom_val(), hom_sval(), hom_fval(), hom_phval(),
                hom_val(QQi), hom_fval(QQi)):
        assert hom_check(hom, rng, samples=300) == []


def test_fval_records_leading_data():
    f = hom_fval()
    a = series(QQ, [(Fraction(1, 2), Fraction(-3)), (1, Fraction(5))])
    img = f(a)
    assert img.coef == Fraction(-3)
    assert img.level.coords == (Fraction(1, 2),)
    assert f(s_const(QQ, Fraction(0))) is None


def test_phval_uses_gauss_direction():
    from finetrop.hyperfields import make_dir

    f = hom_phval()
    a = series(QQi, [(0, gauss(3, 4))])
    assert f(a).coef == make_dir(3, 4)


def sign_sum_condition_witness(target):
    """Check, for the sign map Q -> target in {S, W}, that every gamma in
    alpha + beta is realised as sgn(a + b) with sgn a = alpha, sgn b = beta.

    Rationals of fixed signs have knowable sums: same sign forces that
    sign, opposite signs realise all three.  Returns a witness triple
    (alpha, beta, gamma) that cannot be realised, or None.
    """
    def reachable(alpha: int, beta: int) -> set[int]:
        if alpha == 0:
            return {beta}
        if beta == 0:
            return {alpha}
        if alpha == beta:
            return {alpha}
        return {-1, 0, 1}

    for alpha in (-1, 0, 1):
        for beta in (-1, 0, 1):
            hsum = target.add(alpha, beta)
            for gamma in target.set_elements(hsum):
                if gamma not in reachable(alpha, beta):
                    return (alpha, beta, gamma)
    return None


def test_sign_sum_condition():
    from finetrop.hyperfields import S, W

    assert sign_sum_condition_witness(S) is None
    w = sign_sum_condition_witness(W)
    assert w is not None and len(w) == 3


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as e:
        return type(e)


def _random_series(F, rng, exact):
    terms = []
    for _ in range(rng.randint(1, 4)):
        e = Fraction(rng.randint(-3, 6), rng.randint(1, 4))
        c = F.random(rng)
        terms.append((e, c if not F.is_zero(c) else F.one()))
    prec = None if exact else Fraction(rng.randint(-1, 8), rng.randint(1, 3))
    return series(F, terms, prec)


def test_grid_arithmetic_matches_reference_expansion():
    rng = random.Random(20231)
    for F in (QQ, QQi, GF(5)):
        for _ in range(60):
            a = _random_series(F, rng, rng.random() < 0.5)
            b = _random_series(F, rng, rng.random() < 0.5)
            prec = rng.choice([None, Fraction(rng.randint(-2, 6), rng.randint(1, 2))])
            for new, old, args in (
                (series_inv, series_oracle.series_inv, (a, prec)),
                (series_mul, series_oracle.series_mul, (a, b)),
                (series_div, series_oracle.series_div, (a, b, prec)),
            ):
                assert _outcome(new, *args) == _outcome(old, *args), (new.__name__, args)
        dom = SeriesDomain(F)
        for k in range(4):
            P, Q = random_linear_system(dom, rng)
            if k % 2:
                P = fpoly(dom, 2, {d: series(F, c.terms, rng.randint(1, 6))
                                   for d, c in P.coeffs.items()})
            assert solve_linear_2x2(P, Q) == series_oracle.solve_linear_2x2(P, Q)


def test_merged_sums_match_rebuilt_sums():
    # b repeats negatives of some of a's terms (all of them, or all of a
    # scaled, now and then), so many sums cancel term by term or to zero.
    rng = random.Random(5150)
    cancelled = zeros = 0
    for F in (QQ, QQi, GF(5)):
        for _ in range(300):
            a = _random_series(F, rng, rng.random() < 0.5)
            b = _random_series(F, rng, rng.random() < 0.5)
            roll = rng.random()
            if roll < 0.1:
                b = series_neg(a)
            elif roll < 0.6:
                negs = [(e, F.neg(c)) for e, c in a.terms if rng.random() < 0.6]
                b = series(F, list(b.terms) + negs, b.prec)
            for new, old in ((series_add, series_oracle.series_add),
                             (series_sub, series_oracle.series_sub)):
                got = new(a, b)
                assert got == old(a, b), (new.__name__, a, b)
            s = series_add(a, b)
            if s.is_zero():
                zeros += 1
            common = {e for e, _ in a.terms} & {e for e, _ in b.terms}
            if s.prec is not None:
                common = {e for e in common if e < s.prec}
            if common - {e for e, _ in s.terms}:
                cancelled += 1
    assert cancelled >= 100 and zeros >= 20, (cancelled, zeros)


def test_rational_products_and_inverses_return_fractions():
    # Coefficients given as ints through the API; results hold Fractions.
    rng = random.Random(77)
    for _ in range(150):
        a, b = (series(QQ, [(Fraction(rng.randint(-3, 6), rng.randint(1, 3)),
                             rng.randint(-5, 5) or 1)
                            for _ in range(rng.randint(1, 4))],
                       rng.choice([None, rng.randint(1, 8)]))
                for _ in range(2))
        prec = rng.choice([None, rng.randint(-1, 6)])
        for new, old, args in ((series_mul, series_oracle.series_mul, (a, b)),
                               (series_inv, series_oracle.series_inv, (a, prec))):
            got = _outcome(new, *args)
            assert got == _outcome(old, *args), (new.__name__, args)
            if isinstance(got, SeriesTrunc):
                assert all(type(c) is Fraction for _, c in got.terms), got


def test_division_lead_is_the_quotient_cut_to_its_first_term():
    rng = random.Random(4242)
    kinds = set()
    for F in (QQ, QQi, GF(5)):
        for _ in range(200):
            a = _random_series(F, rng, rng.random() < 0.5)
            b = _random_series(F, rng, rng.random() < 0.5)
            prec = rng.choice([None, Fraction(rng.randint(-2, 8), rng.randint(1, 3))])
            full = _outcome(series_div, a, b, prec)
            lead = _outcome(series_div_lead, a, b, prec)
            if isinstance(full, type) or not full.terms:
                assert lead == full, (a, b, prec)
                kinds.add(full if isinstance(full, type) else "no term")
                continue
            # Known below its precision, the cut agrees with the quotient.
            assert lead.terms == full.terms[:1], (a, b, prec)
            assert full.prec is None or lead.prec <= full.prec
            assert series_truncate(full, lead.prec) == lead, (a, b, prec)
            kinds.add("term")
    assert kinds == {ZeroDivisionError, PrecisionError, "no term", "term"}


def test_solve_divides_without_inverting(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return series_inv(*args, **kwargs)

    monkeypatch.setattr(importlib.import_module("finetrop.series"), "series_inv", counted)
    monkeypatch.setattr(finetrop.solve, "series_inv", counted, raising=False)
    rng = random.Random(15)
    dom = SeriesDomain(QQ)
    for _ in range(8):
        P, Q = random_linear_system(dom, rng)
        calls.clear()
        got = solve_linear_2x2(P, Q)
        assert calls == []
        assert got == series_oracle.solve_linear_2x2(P, Q)


def test_division_special_cases_match_reference():
    F = QQ
    one = s_const(F, Fraction(1))
    two_term = series(F, [(1, 2), (Fraction(3, 2), -1)])
    cases = {
        "zero divisor": (one, series(F, []), 3, ZeroDivisionError),
        "zero divisor, zero numerator": (series(F, []), series(F, []), None,
                                         ZeroDivisionError),
        "indeterminate divisor": (one, series(F, [], 2), 3, PrecisionError),
        "multi-term exact divisor": (one, two_term, None, PrecisionError),
        "zero numerator": (series(F, []), two_term, 4, "indeterminate"),
        "zero numerator, no prec": (series(F, []), series(F, [(1, 3)], 5), None,
                                    "zero"),
        "indeterminate numerator": (series(F, [], 2), two_term, 4, "indeterminate"),
        "inverse with no known term": (one, series(F, [(1, 3), (2, 1)], 3), -1,
                                       "indeterminate"),
        "target + g = 0": (series(F, [(0, 1), (1, 1)]), two_term, -1, "indeterminate"),
        "single exact term": (series(F, [(-2, 3), (Fraction(1, 3), 1)]),
                              series(F, [(Fraction(1, 2), -4)]), None, "exact"),
        "single exact term, numerator prec": (
            series(F, [(-2, 3), (Fraction(1, 3), 1)], 3),
            series(F, [(Fraction(1, 2), -4)]), None, "known"),
        "positive numerator lead, capped at prec": (
            series(F, [(2, 1), (3, 1)]), series(F, [(0, 1), (1, 1)]), 3, "known"),
        "negative numerator lead": (series(F, [(Fraction(-5, 3), 2), (0, 1)], 4),
                                    two_term, 2, "known"),
        "negative lead, finite divisor": (
            series(F, [(Fraction(-7, 2), -1), (Fraction(-1, 4), 3)]),
            series(F, [(Fraction(-1, 2), 1), (1, 5)], 3), None, "known"),
    }
    for name, (a, b, prec, kind) in cases.items():
        got = _outcome(series_div, a, b, prec)
        assert got == _outcome(series_oracle.series_div, a, b, prec), name
        if isinstance(kind, type):
            assert got is kind, name
        elif kind == "zero":
            assert got.is_zero(), name
        elif kind == "indeterminate":
            assert got.is_indeterminate(), name
        elif kind == "exact":
            assert got.prec is None and got.terms, name
        else:
            assert got.prec is not None and got.terms, name


def test_inversion_matches_sympy_over_q():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(3)
    for _ in range(6):
        a = _random_series(QQ, rng, exact=True)
        a = series(QQ, [(e.numerator, c) for e, c in a.terms])
        if a.is_zero():
            continue
        n = 5
        expr = sum(sympy.Rational(c.numerator, c.denominator) * t**e for e, c in a.terms)
        ref = sympy.series(1 / expr, t, 0, n).removeO()
        want = {}
        for term in sympy.Add.make_args(sympy.expand(ref)):
            c, e = term.as_coeff_exponent(t)
            want[Fraction(int(e))] = Fraction(int(c.p), int(c.q))
        got = series_inv(a, prec=n)
        assert got.prec == n
        assert dict(got.terms) == want, (a, ref)

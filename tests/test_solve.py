"""Univariate root solving over extensions: Newton cells, multiplicities,
and the randomized harnesses at small scale."""

import random
from fractions import Fraction

import pytest

from finetrop import poly, solve
from finetrop.extension import ExtElem, TropicalExtension, trop, trop_complex, trop_signed
from finetrop.fields import GF, QQ, QQi, gauss
from finetrop.hyperfields import K, S, W, field_hyperfield, hom_sign, quotient_build
from finetrop.ordgroup import gelem, group_add, scalar_mul
from finetrop.parsing import parse_poly
from finetrop.poly import (
    ZeroPowerError,
    fpoly,
    hpoly1,
    is_root,
    product_of_linear_factors,
    pushforward,
)
from finetrop.series import SeriesDomain, hom_fval, hom_sval, hom_val, series
from finetrop.solve import (
    BaseSolveError,
    SolverInvariantError,
    base_roots,
    fundamental_harness,
    kapranov_harness,
    mult_bound_check,
    multiplicity,
    newton_cells,
    rac_check_instance,
    random_hpoly,
    random_linear_system,
    random_series_root,
    roots_univariate,
)

import harness_sweep
import mult_sweep
from eval_oracle import is_root_every_term
from mult_search import search_multiplicity
from newton_oracle import oracle_newton_cells, tropical_mult_oracle

T = trop()
TR = trop_signed()


def test_newton_cells():
    p = parse_poly("Qx|Q", "X^2 + (-1, 0)*X + (1, 1)")
    cells = newton_cells(p)
    got = {(c.level.coords[0], c.J) for c in cells}
    assert got == {(Fraction(0), (1, 2)), (Fraction(1), (0, 1))}


def _near_line_hpoly(H, rng, deg):
    """Levels on one line, some raised off it, so that ties are common."""
    def vec():
        return gelem(*[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                       for _ in range(H.rank)])

    g0, slope = vec(), vec()
    coeffs = {}
    for i in range(deg + 1):
        if i not in (0, deg) and rng.random() < 0.25:
            continue
        level = group_add(g0, scalar_mul(i, slope))
        if rng.random() < 0.4:
            level = group_add(level, gelem(*[abs(c) for c in vec().coords]))
        coeffs[i] = ExtElem(solve._random_unit(H.base, rng), level)
    return hpoly1(H, coeffs)


def test_newton_cells_match_pair_search():
    rng = random.Random(8)
    bases = (K, S, quotient_build(5, [1, 4]), field_hyperfield(GF(5)),
             field_hyperfield(QQ))
    for rank in (1, 2, 3):
        long_ties = 0
        for base in bases:
            H = TropicalExtension(base, rank)
            for _ in range(20):
                for p in (random_hpoly(H, rng, rng.randint(1, 8)),
                          _near_line_hpoly(H, rng, rng.randint(2, 8))):
                    got = [(c.level, c.J) for c in newton_cells(p)]
                    assert got == oracle_newton_cells(p), p
                    long_ties += sum(len(J) >= 3 for _, J in got)
        assert long_ties >= 10, (rank, long_ties)


def test_roots_with_base_data():
    p = parse_poly("Qx|Q", "X^2 + (-1, 0)*X + (1, 1)")
    recs = roots_univariate(p)
    got = {(r.root.coef, r.root.level.coords[0], r.multiplicity) for r in recs}
    assert got == {(Fraction(1), Fraction(0), 1), (Fraction(1), Fraction(1), 1)}


def test_double_root_over_trop():
    p = parse_poly("T", "X^2 + (1, 3)")
    recs = roots_univariate(p)
    assert len(recs) == 1
    r = recs[0]
    assert r.root.level.coords[0] == Fraction(3, 2)
    assert r.multiplicity == 2
    assert tropical_mult_oracle(p, r.root.level) == 2


def test_zero_root():
    p = parse_poly("T", "X^2 + (1, 0)*X")
    recs = roots_univariate(p)
    by_key = {("0" if r.root is None else "unit"): r.multiplicity for r in recs}
    assert by_key == {"0": 1, "unit": 1}


def test_sign_multiplicity():
    p = hpoly1(S, {2: 1, 1: -1, 0: 1})
    assert is_root(p, (1,))
    assert multiplicity(p, 1) == 2


def test_base_roots_variants():
    # Rational roots, exhaustively over the rational-root theorem.
    assert set(base_roots(field_hyperfield(QQ), {2: Fraction(1), 0: Fraction(-4)})) \
        == {Fraction(-2), Fraction(2)}
    # Gaussian roots via the quadratic formula.
    got = set(base_roots(field_hyperfield(QQi), {2: gauss(1), 0: gauss(1)}))
    assert got == {gauss(0, 1), gauss(0, -1)}
    with pytest.raises(BaseSolveError):
        base_roots(field_hyperfield(QQi),
                   {3: gauss(1), 1: gauss(3), 0: gauss(1, 1)})


def test_base_roots_scan_matches_every_term_oracle():
    # Bases with finitely many units scan them with one running power;
    # Laurent exponents are shifted by a unit, which keeps 0 in the sum.
    rng = random.Random(3)
    found = 0
    for k in range(300):
        H = (K, S, W, field_hyperfield(GF(5)), field_hyperfield(GF(7)))[k % 5]
        units = H.units()
        coeffs = {rng.randint(-3, 5): rng.choice(units)
                  for _ in range(rng.randint(1, 5))}
        p = hpoly1(H, coeffs)
        want = [x for x in units if is_root_every_term(p, (x,))]
        assert base_roots(H, coeffs) == want, (H.name, coeffs)
        found += bool(want)
    assert found >= 100


def test_phase_roots_are_arcs():
    # A phase root locus is a union of arcs, not a list of units: the base
    # solve refuses it, and membership is a question for is_root.
    from finetrop.hyperfields import P, make_dir

    with pytest.raises(BaseSolveError, match="base solve incomplete over P"):
        base_roots(P, {2: P.one(), 1: P.one(), 0: P.one()})
    p = hpoly1(P, {2: P.one(), 1: P.one(), 0: P.one()})
    assert is_root(p, (make_dir(-1, 1),))
    assert not is_root(p, (make_dir(1, 0),))
    with pytest.raises(BaseSolveError, match="base solve incomplete over Phi"):
        roots_univariate(parse_poly("TC", "X^2 + X + (dir(1,0), 0)"))


def test_rac_sign_counterexample():
    p = hpoly1(field_hyperfield(QQ),
               {2: Fraction(1), 1: Fraction(-1), 0: Fraction(1)})
    res = rac_check_instance(hom_sign(), p, 1)
    assert res.status == "counterexample"
    assert "discriminant -3" in res.detail


def test_rac_lift():
    # X^2 - 4 has the rational root 2 in the fiber of +1.
    p = hpoly1(field_hyperfield(QQ), {2: Fraction(1), 0: Fraction(-4)})
    res = rac_check_instance(hom_sign(), p, 1)
    assert res.status == "lift"
    assert res.witness in (Fraction(2), Fraction(-2))


def test_mult_bound_small():
    rng = random.Random(0)
    stringent_quotients = (quotient_build(5, [1, 2, 3, 4]),
                           quotient_build(5, [1]))
    for H in (T, TR) + stringent_quotients:
        assert mult_bound_check(H, rng, trials=25, deg=5) == []


def test_mult_bound_fails_for_nonstringent_quotient():
    # Non-stringent hyperfields can exceed the bound: over GF(5)/{1,4} the
    # polynomial X^4 + X^3 + X^2 + 1 has two roots of multiplicity 4 each
    # (confirmed by exhaustive branch enumeration).
    H = quotient_build(5, [1, 4])
    assert not H.is_stringent()
    p = hpoly1(H, {4: 1, 3: 1, 2: 1, 0: 1})
    assert multiplicity(p, 1) == 4
    assert multiplicity(p, 2) == 4


def test_mult_matches_tropical_oracle():
    rng = random.Random(1)
    for _ in range(25):
        p = random_hpoly(T, rng, deg=rng.randint(2, 6))
        for r in roots_univariate(p):
            if r.root is not None:
                assert r.multiplicity == tropical_mult_oracle(p, r.root.level)


def test_kapranov_small():
    rng = random.Random(2)
    for hom in (hom_val(), hom_sval(), hom_fval()):
        assert kapranov_harness(hom, rng, trials=20) == []


def _assert_mult_matches_search(p):
    for r in roots_univariate(p):
        if r.root is not None:
            assert r.multiplicity == search_multiplicity(p, r.root), (p, r)


def test_initial_form_mult_matches_branching_search():
    # The initial-form reduction against the branching search over the
    # extension itself, on random polynomials ...
    rng = random.Random(5)
    for base in (K, S, W, quotient_build(5, [1, 4]),
                 quotient_build(7, [1, 2, 4]), field_hyperfield(QQ)):
        for H in (TropicalExtension(base, 1), TropicalExtension(base, 2),
                  TropicalExtension(base, 3)):
            for _ in range(30):
                _assert_mult_matches_search(
                    random_hpoly(H, rng, rng.randint(1, 5)))
    # ... and on push-forwards of products of linear factors.
    for hom in (hom_val(), hom_sval(), hom_fval()):
        dom = hom.source
        for _ in range(16):
            roots = [random_series_root(dom.field, rng)
                     for _ in range(rng.randint(1, 4))]
            p = product_of_linear_factors(dom, roots)
            _assert_mult_matches_search(pushforward(hom, fpoly(dom, 1, p.coeffs)))
    for _ in range(20):
        p = random_hpoly(T, rng, rng.randint(1, 5))
        for r in roots_univariate(p):
            if r.root is not None:
                assert r.multiplicity == tropical_mult_oracle(p, r.root.level)
    # The base multiplicities themselves, at every element, zero included
    # ...
    for base in (K, S, W, quotient_build(5, [1, 4]), quotient_build(7, [1, 2, 4]),
                 field_hyperfield(GF(5))):
        for _ in range(30):
            p = random_hpoly(base, rng, rng.randint(1, 5))
            for x in base.elements():
                assert multiplicity(p, x) == search_multiplicity(p, x), (p, x)
    # ... and over Q on products of linear factors, at their roots, at zero
    # and at a non-root.
    QF = field_hyperfield(QQ)
    for _ in range(30):
        roots = [Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                 for _ in range(rng.randint(1, 5))]
        c = [Fraction(1)]
        for r in roots:  # multiply by X - r
            c = [a - r * b for a, b in zip([Fraction(0)] + c, c + [Fraction(0)])]
        p = hpoly1(QF, dict(enumerate(c)))
        for x in set(roots) | {Fraction(0), Fraction(3)}:
            assert multiplicity(p, x) == search_multiplicity(p, x), (p, x)


def test_base_multiplicities_match_search_and_lemma_a():
    # Every polynomial of degree 1..4 over six finite bases, at every
    # element; tests/mult_sweep.py runs the same check at any degree.
    assert mult_sweep.sweep(4) == 18_540


def test_laurent_multiplicity_shifts_by_least_exponent():
    # x^-1 + x = x^-1 (1 + x^2), and 1 is a double root of 1 + x^2 over K.
    assert multiplicity(hpoly1(K, {-1: 1, 1: 1}), 1) == 2
    # -x^-1 + 1 = x^-1 (x - 1) over Q.
    QF = field_hyperfield(QQ)
    p = hpoly1(QF, {-1: Fraction(-1), 0: Fraction(1)})
    assert multiplicity(p, Fraction(1)) == 1
    assert multiplicity(p, Fraction(2)) == 0
    with pytest.raises(ZeroPowerError):
        multiplicity(p, Fraction(0))
    # At zero the multiplicity is the least exponent, at any degree.
    assert multiplicity(hpoly1(K, {3: 1, 12: 1}), 0) == 3


def test_degree_bound_counts_from_the_least_exponent():
    # test_cli.py checks the bound on initial forms over an extension.
    assert multiplicity(hpoly1(K, {4: 1, 12: 1}), 1) == 8
    with pytest.raises(ValueError, match="degree 9 exceeds the bound 8"):
        multiplicity(hpoly1(K, {-1: 1, 8: 1}), 1)


def test_phase_extension_multiplicity_raises():
    TC = trop_complex()
    p = parse_poly("TC", "X + (dir(-1,0), 0)")
    root = TC.one()
    assert is_root(p, (root,))
    with pytest.raises(BaseSolveError):
        multiplicity(p, root)


@pytest.mark.parametrize("a0", [10 ** 30 + 7, 735134400])
def test_rational_root_search_is_bounded(a0):
    # 10^30 + 7 is past the coefficient bound; 735134400 has 1344 divisors,
    # so 1344^2 candidate pairs are past the pair bound.
    with pytest.raises(BaseSolveError, match="rational root search"):
        QQ.unit_roots({1: Fraction(a0), 0: Fraction(a0)})


def test_roots_check_raises_without_assert(monkeypatch):
    p = parse_poly("T", "X^2 + (1, 3)")
    monkeypatch.setattr(solve, "is_root", lambda p, point: False)
    with pytest.raises(SolverInvariantError):
        roots_univariate(p)


def test_roots_evaluates_each_root_once(monkeypatch):
    p = parse_poly("Qx|Q", "(1, 0)*X^3 + (-5, 1)*X^2 + (6, 2)*X")
    calls = []

    def counting(q, point):
        if q is p:
            calls.append(point)
        return is_root(q, point)

    monkeypatch.setattr(solve, "is_root", counting)
    roots = [rec.root for rec in roots_univariate(p)]
    # The zero root is one by construction: p has no constant term.
    assert roots[0] is None and len(roots) == 3
    assert sorted(map(repr, calls)) == sorted(repr((r,)) for r in roots[1:])


def test_roots_reach_initial_support_once_per_root(monkeypatch):
    # The root's own is_root check is the one minimal-level pick: its
    # multiplicity is read from the Newton cell's initial form.
    calls = []

    def counting(p, point, support):
        calls.append(point)
        return real(p, point, support)

    real = poly.initial_support
    monkeypatch.setattr(poly, "initial_support", counting)
    monkeypatch.setattr(solve, "initial_support", counting)
    # (x - 1)^2 (x - 2) at level 1 and 1 - 2x at level 7.
    p = parse_poly("Qx|Q", "(1, 0)*X^4 + (-4, 1)*X^3 + (5, 2)*X^2"
                           " + (-2, 3)*X + (1, 10)")
    recs = roots_univariate(p)
    assert sorted(rec.multiplicity for rec in recs) == [1, 1, 2]
    roots = [rec.root for rec in recs]
    assert sorted(map(repr, calls)) == sorted(repr((r,)) for r in roots)


def test_linear_2x2_keeps_numerator_precision():
    dom = SeriesDomain(QQ)

    def s(c, prec=None):
        return series(QQ, [(0, Fraction(c))], prec)

    # X + Y + (1 + O(t)) = 0, X - Y + 2 = 0: x = -3/2 is known to O(t) only.
    P = fpoly(dom, 2, {(1, 0): s(1), (0, 1): s(1), (0, 0): s(1, 1)})
    Q = fpoly(dom, 2, {(1, 0): s(1), (0, 1): s(-1), (0, 0): s(2)})
    x, y = solve.solve_linear_2x2(P, Q)
    assert x == series(QQ, [(0, Fraction(-3, 2))], 1)
    assert y == series(QQ, [(0, Fraction(1, 2))], 1)
    # (1 + O(t)) X + 1 = 0, Y + 1 = 0: the determinant 1 + O(t) has a
    # single known term.
    P = fpoly(dom, 2, {(1, 0): s(1, 1), (0, 0): s(1)})
    Q = fpoly(dom, 2, {(0, 1): s(1), (0, 0): s(1)})
    x, y = solve.solve_linear_2x2(P, Q)
    assert x.prec <= 1 and x.leading() == (Fraction(-1), 0)
    assert y.prec <= 1 and y.leading() == (Fraction(-1), 0)


def test_harness_reports_an_unknown_coordinate_as_that_systems_failure():
    # System 1261 of ``verify fundamental --seed 0`` has x = -63/32 t^8 + ...,
    # so x = O(t^8) at prec 8.  Its PrecisionError used to end the whole
    # harness; now it is one failure and the systems around it still run.
    dom = SeriesDomain(QQ)
    _, P, Q = harness_sweep.built_systems()[-1]
    rng = random.Random(3)
    good = random_linear_system(dom, rng)
    for hom in (hom_fval(), hom_val()):
        assert fundamental_harness(hom, [good, (P, Q), good]) == [
            "system 1: insufficient precision to take a valuation"]
        assert fundamental_harness(hom, [good, (P, Q), good], prec=20) == []


def test_harness_divides_out_one_term_per_coordinate(monkeypatch):
    def full_solve(*args, **kwargs):
        raise AssertionError("the harness expanded a quotient")

    monkeypatch.setattr(solve, "solve_linear_2x2", full_solve)
    monkeypatch.setattr(solve, "series_div", full_solve)
    rng = random.Random(21)
    systems = [random_linear_system(SeriesDomain(QQ), rng) for _ in range(6)]
    for hom in (hom_fval(), hom_val(), hom_sval()):
        assert fundamental_harness(hom, systems) == []


def test_harness_images_match_the_full_solve():
    # Built cases and 6 rounds of tests/harness_sweep.py, which runs any
    # number of rounds: every image and failure list equals the full solve's.
    assert harness_sweep.sweep(6) == {"image": 96, "PrecisionError": 204,
                                      "ValueError": 15}

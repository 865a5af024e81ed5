"""Set-valued polynomial evaluation, push-forwards, and projective roots."""

import random
from fractions import Fraction

import pytest

from finetrop.extension import (
    ExtElem,
    TropicalExtension,
    trop,
    trop_complex,
    trop_signed,
)
from finetrop.hyperfields import K, P, PHI, S, W, hom_sign, make_dir, quotient_build
from finetrop.ordgroup import gelem, group_add, scalar_mul
from finetrop.poly import (
    HPoly,
    _power_table,
    eval_poly,
    hpoly,
    hpoly1,
    initial_support,
    is_root,
    prevariety_member,
    product_of_linear_factors,
    pushforward,
)
from finetrop.series import SeriesDomain, fmt_series, s_const, s_zero, series
from finetrop.fields import GF, QQ, QQi
from finetrop.hyperfields import field_hyperfield

import base_sum_sweep
from eval_oracle import eval_every_term, is_root_every_term, power_by_products
from newton_oracle import group_sub
import product_oracle
from proj_oracle import affinize, fpoly_eval, homogenize, proj_is_root, proj_point


def test_eval_over_sign():
    p = hpoly1(S, {2: 1, 1: -1, 0: 1})
    sv = eval_poly(p, (1,))
    # 1 - 1 + 1 over S: the cancelling pair spreads to everything.
    assert set(S.set_elements(sv)) == {-1, 0, 1}
    assert is_root(p, (1,))
    assert not is_root(p, (-1,))


def _unit(H, rng):
    while True:
        a = _elem(H, rng)
        if not H.is_zero(a):
            return a


def _elem(H, rng):
    """A random element, zero about one time in six.  Extension levels
    are small integers, so terms often tie at the minimal level."""
    if isinstance(H, TropicalExtension):
        if rng.random() < 0.15:
            return None
        return ExtElem(_unit(H.base, rng),
                       gelem(*[rng.randint(-1, 1) for _ in range(H.rank)]))
    if H in (P, PHI) or rng.random() >= 0.15:
        return H.random_element(rng)
    return H.zero()


def _outcome(fn):
    try:
        return fn()
    except ZeroDivisionError:
        return "0^k, k < 0"


def _ties_at_minimal_level(p, point):
    H = p.hyperfield
    levels = []
    for d, c in p.coeffs.items():
        if any(a is None and e for a, e in zip(point, d)):
            continue
        levels.append(tuple(
            c.level.coords[k] + sum(e * a.level.coords[k]
                                    for a, e in zip(point, d) if e)
            for k in range(H.rank)))
    return len(levels) > 1 and levels.count(min(levels)) > 1


def test_eval_matches_every_term_oracle():
    rng = random.Random(10)
    hyperfields = (K, S, P, PHI, field_hyperfield(QQ), trop(), trop_signed(),
                   trop_complex(), TropicalExtension(S, 2), TropicalExtension(K, 3),
                   TropicalExtension(W), TropicalExtension(quotient_build(5, [1, 4]), 2),
                   TropicalExtension(quotient_build(7, [1, 2, 4])),
                   TropicalExtension(field_hyperfield(GF(5)), 2),
                   TropicalExtension(field_hyperfield(QQ)))
    seen = {"zero coordinate": 0, "laurent": 0, "0^k, k < 0": 0,
            "tie at the minimal level": 0, "all dead": 0}
    for k in range(90 * len(hyperfields)):
        H = hyperfields[k % len(hyperfields)]
        nvars = rng.randint(1, 3)
        coeffs = {tuple(rng.randint(-2, 3) for _ in range(nvars)): _unit(H, rng)
                  for _ in range(rng.randint(1, 6))}
        p = hpoly(H, nvars, coeffs)
        point = tuple(_elem(H, rng) for _ in range(nvars))
        got = _outcome(lambda: eval_poly(p, point))
        assert got == _outcome(lambda: eval_every_term(p, point)), (p, point)
        root = _outcome(lambda: is_root(p, point))
        assert root == _outcome(lambda: is_root_every_term(p, point))
        # is_root stops at the base sum that eval_poly puts at its level.
        assert root == _outcome(lambda: H.set_contains_zero(eval_poly(p, point)))
        zeros = [i for i, a in enumerate(point) if H.is_zero(a)]
        seen["zero coordinate"] += bool(zeros)
        seen["laurent"] += any(e < 0 for d in p.coeffs for e in d)
        seen["0^k, k < 0"] += got == "0^k, k < 0"
        if got != "0^k, k < 0":
            seen["all dead"] += all(any(d[i] for i in zeros) for d in p.coeffs)
            if isinstance(H, TropicalExtension):
                seen["tie at the minimal level"] += _ties_at_minimal_level(
                    p, point)
    assert min(seen.values()) >= 10, seen


def test_power_table_matches_repeated_products():
    # Sparse and dense exponents on both sides of 0, and for each
    # hyperfield with a finite unit group also multiples of its order m.
    rng = random.Random(14)
    hyperfields = (K, S, W, field_hyperfield(GF(5)), quotient_build(5, [1, 4]),
                   quotient_build(7, [1, 2, 4]), field_hyperfield(QQ),
                   field_hyperfield(QQi), P, PHI, trop())
    for H in hyperfields:
        units = H.units()
        for _ in range(40):
            a = _unit(H, rng)
            exps = {rng.randint(-30, 30) for _ in range(rng.randint(1, 8))}
            exps |= {rng.randint(-3, 3) for _ in range(rng.randint(0, 4))}
            if units is not None:
                exps |= {len(units) * rng.randint(-4, 4) for _ in range(3)}
            want = {e: power_by_products(H, a, e) for e in exps}
            assert _power_table(H, a, exps) == want, (H.name, a, exps)


def test_initial_support_matches_group_arithmetic():
    # The integer-scaled, lexicographic comparison against levels summed
    # as GroupElems, with fractional levels at ranks 1 to 3 and zero
    # coordinates skipped.  Some coefficients are placed on the minimal
    # level of the point, so ties are common.
    rng = random.Random(12)
    for rank in (1, 2, 3):
        H = TropicalExtension(K, rank)

        def level():
            return gelem(*[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                           for _ in range(rank)])

        ties = 0
        for _ in range(150):
            nvars = rng.randint(1, 3)
            point = tuple(None if rng.random() < 0.2 else ExtElem(1, level())
                          for _ in range(nvars))
            base = level()

            def at(d):
                return [scalar_mul(e, a.level)
                        for a, e in zip(point, d) if a is not None]

            coeffs = {}
            for _ in range(rng.randint(1, 6)):
                d = tuple(rng.randint(-2, 3) for _ in range(nvars))
                g = base if rng.random() < 0.4 else group_add(base, level())
                for x in at(d):
                    g = group_sub(g, x)
                coeffs[d] = ExtElem(1, g)
            p = hpoly(H, nvars, coeffs)
            support = [d for d in p.support
                       if not any(e for a, e in zip(point, d) if a is None)]
            if not support:
                continue
            levels = []
            for d in support:
                g = p.coeffs[d].level
                for x in at(d):
                    g = group_add(g, x)
                levels.append(g)
            want = [d for d, g in zip(support, levels) if g == min(levels)]
            assert initial_support(p, point, support) == want, (p, point)
            ties += len(want) > 1
        assert ties >= 10, (rank, ties)


def test_eval_needs_one_coordinate_per_variable():
    p = hpoly(S, 2, {(1, 1): 1, (0, 0): -1})
    with pytest.raises(ValueError, match="1 coordinates"):
        eval_poly(p, (1,))
    with pytest.raises(ValueError):
        is_root(p, (1, 1, 1))
    with pytest.raises(ValueError, match="3 coordinates"):
        proj_is_root(hpoly(S, 2, {(1, 1): 1, (2, 0): -1}),
                     proj_point(S, (1, 1, 1)))


def test_root_over_phase():
    p = hpoly1(P, {2: P.one(), 1: P.one(), 0: P.one()})
    assert is_root(p, (make_dir(-1, 1),))
    assert not is_root(p, (make_dir(1, 1),))


def test_pushforward_sign():
    F = field_hyperfield(QQ)
    p = hpoly1(F, {2: Fraction(3), 1: Fraction(-1, 2), 0: Fraction(0)})
    sp = pushforward(hom_sign(), p)
    assert sp.coeffs == {(2,): 1, (1,): -1}


def test_prevariety_member():
    p = hpoly1(S, {1: 1, 0: -1})
    q = hpoly1(S, {1: 1, 0: 1})
    assert prevariety_member([p], (1,))
    assert not prevariety_member([p, q], (1,))


def test_homogenize_affinize():
    p = hpoly(S, 2, {(2, 0): 1, (0, 1): -1, (0, 0): 1})
    h = homogenize(p)
    assert h.nvars == 3
    assert h.coeffs == {(0, 2, 0): 1, (1, 0, 1): -1, (2, 0, 0): 1}
    lau = hpoly(S, 1, {(-1,): 1, (1,): 1})
    assert affinize(lau).coeffs == {(0,): 1, (2,): 1}
    with pytest.raises(ValueError):
        homogenize(lau)


def test_projective_roots():
    # x^2 - yz over S vanishes at [1 : 1 : 1] scaled arbitrarily.
    p = hpoly(S, 3, {(2, 0, 0): 1, (0, 1, 1): -1})
    pt = proj_point(S, (-1, -1, -1))
    assert proj_is_root(p, pt)
    assert not proj_is_root(p, proj_point(S, (1, 1, -1)))
    with pytest.raises(ValueError):
        proj_point(S, (0, 0, 0))


def test_fpoly_product_of_linear_factors():
    dom = SeriesDomain(QQ)
    r1 = s_const(QQ, Fraction(2))
    r2 = series(QQ, [(1, Fraction(1))])
    p = product_of_linear_factors(dom, [r1, r2])
    # (X - 2)(X - t) = X^2 - (2 + t) X + 2t.
    assert fmt_series(p.coeffs[(2,)]) == "1"
    assert fmt_series(p.coeffs[(0,)]) == "2*t"
    for r in (r1, r2):
        assert fpoly_eval(p, (r,)).is_zero()


def test_shift_and_scale_product_matches_generic_product():
    # Roots mix zero series, repeats, exact series and finite precisions.
    rng = random.Random(1207)
    seen = {"zero": 0, "repeat": 0, "prec": 0}
    for F in (QQ, QQi, GF(5)):
        dom = SeriesDomain(F)
        for k in range(7):
            for _ in range(12):
                roots = []
                for _ in range(k):
                    roll = rng.random()
                    if roll < 0.15:
                        r = s_zero(F)
                        seen["zero"] += 1
                    elif roll < 0.3 and roots:
                        r = rng.choice(roots)
                        seen["repeat"] += 1
                    else:
                        prec = None
                        if rng.random() < 0.4:
                            prec = Fraction(rng.randint(-1, 8), rng.randint(1, 3))
                            seen["prec"] += 1
                        r = series(F, [(Fraction(rng.randint(-3, 6), rng.randint(1, 4)),
                                        F.random(rng))
                                       for _ in range(rng.randint(1, 3))], prec)
                    roots.append(r)
                got = product_of_linear_factors(dom, roots)
                want = product_oracle.product_of_linear_factors(dom, roots)
                assert got.coeffs == want.coeffs, roots
                assert list(got.coeffs) == list(want.coeffs), roots
    assert min(seen.values()) >= 30, seen
    for F in (QQ, QQi, GF(5)):
        dom = SeriesDomain(F)

        def s_(terms, prec=None):
            return series(F, [(Fraction(e), F.from_int(c)) for e, c in terms], prec)

        quarter = s_([("-1/4", 2), ("1/4", 3), ("3/4", 1)], Fraction(1, 3))
        cases = [
            # An indeterminate root: no terms, finite precision.
            [s_([], Fraction(2, 3))],
            [s_([("1/2", 1)]), s_([], Fraction(-1, 5)), s_([(0, 3)], 2)],
            # A precision whose denominator is in no exponent.
            [quarter],
            [quarter, s_([("1/4", 1), (1, 2)]), s_([("-3/4", 4)], Fraction(5, 3))],
            # Repeated and exact-zero roots.
            [quarter, s_zero(F), quarter, s_zero(F), quarter],
            [s_zero(F), s_zero(F)],
            # Laurent exponents.
            [s_([(-3, 1), ("-1/2", 2)]), s_([("-5/3", 1), (2, 4)], Fraction(7, 2)),
             s_([(-2, 3)], -1)],
        ]
        for roots in cases:
            got = product_of_linear_factors(dom, roots)
            want = product_oracle.product_of_linear_factors(dom, roots)
            assert got.coeffs == want.coeffs, roots
            assert list(got.coeffs) == list(want.coeffs), roots
            for c in got.coeffs.values():
                assert all(type(e) is Fraction for e, _ in c.terms), c
                assert c.prec is None or type(c.prec) is Fraction, c


def test_repr_parenthesizes_compound_coeffs():
    from finetrop.fields import QQi, gauss
    from finetrop.parsing import parse_poly

    p = hpoly1(field_hyperfield(QQi), {1: gauss(1, 2), 0: gauss(Fraction(-1))})
    text = repr(p)
    assert "(" in text
    assert parse_poly("Qi", text).coeffs == p.coeffs


def test_hpoly_record_prints_as_before():
    # HPoly is a named tuple; its repr is the printed polynomial it always
    # was, for extension, compound, empty, phase and three-variable ones.
    from finetrop.fields import gauss

    TR, QI = trop_signed(), field_hyperfield(QQi)
    cases = [
        (hpoly(TR, 2, {(2, 1): TR.elem(-1, Fraction(3, 2)), (0, 0): TR.elem(1, 0),
                       (1, 0): TR.elem(1, -2)}),
         "(-1, 3/2)*X^2*Y + (1, -2)*X + (1, 0)"),
        (hpoly(QI, 1, {(2,): gauss(1, 2), (1,): gauss(0, -1), (0,): gauss(1)}),
         "(1+2i)*X^2 + -1i*X + 1"),
        (hpoly(S, 2, {}), "0"),
        (hpoly(P, 1, {(1,): make_dir(1, 1), (0,): None}), "dir(1,1)*X"),
        (hpoly(field_hyperfield(QQ), 3, {(0, 0, 0): Fraction(-3, 4),
                                         (1, 2, 0): Fraction(1),
                                         (0, 0, 1): Fraction(0)}),
         "X*Y^2 + -3/4"),
    ]
    for p, text in cases:
        assert repr(p) == str(p) == text


def test_hpoly_record_is_frozen_and_owns_its_coefficients():
    coeffs = {(1,): 1, (0,): -1}
    p = HPoly(S, 1, coeffs)
    for field in ("hyperfield", "nvars", "coeffs"):
        with pytest.raises(AttributeError):
            setattr(p, field, None)
    coeffs[(2,)] = 1
    del coeffs[(0,)]
    assert p.coeffs == {(1,): 1, (0,): -1}
    assert p == HPoly(S, 1, {(0,): -1, (1,): 1})
    # hpoly drops zero coefficients, and keeps its own copy too.
    raw = {(3,): 0, (1,): 1}
    q = hpoly(S, 1, raw)
    raw[(0,)] = -1
    assert q.coeffs == {(1,): 1} and q.support == [(1,)] and q.degree() == 1
    assert hpoly(S, 1, {(0,): 0}).is_zero()


def test_base_sum_sweep_matches_the_every_term_oracle(monkeypatch):
    # 40 rounds of tests/base_sum_sweep.py, which runs any number: is_root
    # over the closed-form bases and their extensions against the every-term
    # oracle.  The oracle runs with every sum_contains_zero disabled, and a
    # root test that asks it is caught.
    assert base_sum_sweep.sweep(40) == (560, 151)
    monkeypatch.setattr(base_sum_sweep, "is_root_every_term", is_root)
    with pytest.raises(AssertionError, match="called sum_contains_zero"):
        base_sum_sweep.sweep(1)

"""Axioms and arithmetic of the base hyperfields, including the exact
phase arc algebra."""

import itertools
import random
from fractions import Fraction

import pytest

from finetrop import hyperfields
from finetrop.extension import (
    ExtElem,
    TropicalExtension,
    trop,
    trop_complex,
    trop_signed,
)
from finetrop.fields import BaseField, GF, QQ, gauss
from finetrop.hyperfields import (
    ARCSET_EMPTY,
    ARCSET_FULL_ZERO,
    ARCSET_ZERO,
    Arc,
    ArcSet,
    Dir,
    Hyperfield,
    K,
    P,
    PHI,
    S,
    SignHyperfield,
    W,
    check_axioms,
    dir_neg,
    dir_of_gauss,
    field_hyperfield,
    hom_check,
    hom_phase,
    hom_sign,
    hom_sign_weak,
    hom_trivial,
    make_dir,
    phase_add_sets,
    point_arc,
    quotient_build,
)
from finetrop.ordgroup import gelem

import phase_oracle
import phase_sweep
from eval_oracle import fold_from_zero
from phase_oracle import _refined_sum, sort_dirs


def els(H, sv):
    return set(H.set_elements(sv))


# ---------------------------------------------------------------------------
# Krasner, sign, weak sign


def test_krasner_addition():
    assert els(K, K.add(1, 1)) == {0, 1}
    assert els(K, K.add(1, 0)) == {1}
    assert K.neg(1) == 1


def test_sign_addition():
    assert els(S, S.add(1, -1)) == {-1, 0, 1}
    assert els(S, S.add(1, 1)) == {1}
    assert els(S, S.add(-1, 0)) == {-1}


def test_weak_sign_is_not_stringent():
    assert els(W, W.add(1, 1)) == {1, -1}
    assert els(W, W.add(1, -1)) == {-1, 0, 1}
    assert not W.is_stringent()
    a, b = W.stringency_witness()
    assert b != W.neg(a)
    assert S.is_stringent() and K.is_stringent()


def test_exhaustive_axioms_small():
    for H in (K, S, W):
        assert check_axioms(H) == []


# ---------------------------------------------------------------------------
# Quotient hyperfields


def test_quotient_gf5():
    H = quotient_build(5, [1, 4])
    assert sorted(H.elements()) == [0, 1, 2]
    assert check_axioms(H) == []
    # -1 lies in the subgroup, so 1 is self-negating, yet 1 + 2 is still
    # multivalued: the quotient is not stringent.
    assert H.neg(1) == 1
    assert els(H, H.add(1, 2)) == {1, 2}
    assert not H.is_stringent()


def test_quotient_by_full_unit_group_is_krasner_like():
    H = quotient_build(5, [1, 2, 3, 4])
    assert sorted(H.elements()) == [0, 1]
    assert H.is_stringent()
    assert els(H, H.add(1, 1)) == {0, 1}


def test_quotient_gf7():
    H = quotient_build(7, [1, 2, 4])
    assert sorted(H.elements()) == [0, 1, 3]
    assert check_axioms(H) == []
    # 1 + 1 covers two cosets, but 1 is not its own inverse: non-stringent.
    assert els(H, H.add(1, 1)) == {1, 3}
    assert H.neg(1) == 3
    assert not H.is_stringent()


def test_axioms_report_a_second_additive_inverse():
    class DoubledSigns(SignHyperfield):
        # a + a = {0, a}: 0 lies in 1 + 1 although -1 != 1.
        name = "S'"

        def add(self, a, b):
            if a == b != 0:
                return frozenset([0, a])
            return super().add(a, b)

    fails = check_axioms(DoubledSigns())
    assert "inverse of 1 not unique: 0 in 1 + 1" in fails
    assert "inverse of -1 not unique: 0 in -1 + -1" in fails
    assert len(fails) == len(set(fails))


def _pair_search_witness(H):
    for a in H.units():
        for b in H.units():
            if len(H.add(a, b)) > 1 and b != H.neg(a):
                return (a, b)
    return None


def test_quotient_witness_matches_the_pair_search():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for d in range(1, p):
            if (p - 1) % d:
                continue
            H = quotient_build(p, [x for x in range(1, p) if pow(x, d, p) == 1])
            assert H.elements() == sorted(set(H.rep(x) for x in range(p)))
            assert H.stringency_witness() == _pair_search_witness(H), H.name


def test_stringency_witness_leaves_the_add_table_alone():
    # The scan sums 1 + b for every unit b; neither it nor a sum changes
    # the hyperfield's state.
    H = quotient_build(101, [1])
    before = dict(vars(H))
    H.add(1, 1)
    assert H.stringency_witness() is None
    assert vars(H) == before


def test_field_draws_match_a_choice_from_the_elements():
    F = GF(101)
    a, b = random.Random(4), random.Random(4)
    assert [field_hyperfield(F).random_element(a) for _ in range(50)] == \
        [b.choice(F.elements()) for _ in range(50)]


def test_seeded_draws_match_a_choice_from_the_listed_units():
    # A draw builds no list of elements or units, and makes the one
    # _randbelow call of rng.choice over the listed elements (units, for an
    # extension's coefficient), so seeded streams stay the same.
    for B in (field_hyperfield(GF(5)), quotient_build(7, [1, 2, 4])):
        els = list(B.elements())
        units = [x for x in els if not B.is_zero(x)]
        a, b = random.Random(3), random.Random(3)
        assert [B.random_element(a) for _ in range(60)] == \
            [b.choice(els) for _ in range(60)]

        def draw(rng):
            if rng.random() < 0.1:
                return None
            c = rng.choice(units)
            return ExtElem(c, gelem(Fraction(rng.randint(-6, 6), rng.randint(1, 3))))

        E = TropicalExtension(B, 1)
        a, b = random.Random(5), random.Random(5)
        assert [E.random_element(a) for _ in range(60)] == [draw(b) for _ in range(60)]


def test_quotient_bad_subgroup():
    with pytest.raises(ValueError):
        quotient_build(7, [1, 2])


# ---------------------------------------------------------------------------
# Phase hyperfields


def test_dir_constructor_checks_primitivity():
    # make_dir and dir_neg skip the check; the public constructor keeps it.
    for p, q in ((2, 4), (0, 0), (-3, 0), (0, 2)):
        with pytest.raises(ValueError):
            Dir(p, q)
    with pytest.raises(ValueError):
        make_dir(0, 0)
    assert make_dir(-6, 4) == Dir(-3, 2)
    assert make_dir(0, -5) == Dir(0, -1)
    assert dir_neg(make_dir(4, -2)) == Dir(-2, 1)


_ARC = Arc(Dir(1, 0), Dir(0, 1), True, False)


@pytest.mark.parametrize("text, build, build_twin, field", [
    ("dir(1,2)", lambda: Dir(1, 2), lambda: make_dir(2, 4), "p"),
    ("[dir(1,0),dir(0,1))", lambda: _ARC,
     lambda: Arc(make_dir(3, 0), dir_neg(Dir(0, -1)), True, False), "start"),
    ("{dir(1,2)}", lambda: point_arc(Dir(1, 2)),
     lambda: P.singleton(make_dir(2, 4)).arcs[0], "closed_end"),
    ("{[dir(1,0),dir(0,1)), 0}", lambda: ArcSet((_ARC,), False, True),
     lambda: P.set_with_zero(ArcSet((_ARC,), False, False)), "has_zero"),
    ("{}", lambda: ARCSET_EMPTY, lambda: P.empty_set(), "arcs"),
    ("{circle, 0}", lambda: ARCSET_FULL_ZERO,
     lambda: PHI.add(Dir(1, 0), Dir(-1, 0)), "full"),
])
def test_phase_values_are_frozen_tuples(text, build, build_twin, field):
    value, twin = build(), build_twin()
    assert repr(value) == text
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    # Hashed as the tuple of the fields, as the frozen dataclasses were.
    assert value == twin and hash(value) == hash(twin) == hash(tuple(value))


def test_a_direction_equals_its_plain_pair():
    assert Dir(1, 0) == (1, 0) and Dir(-3, 2) != (3, -2)
    p, q = make_dir(-6, 4)
    assert (p, q) == (-3, 2)


def test_phase_point_sums():
    d = make_dir(1, 0)
    assert els(P, P.add(d, d)) == {d}
    anti = P.add(d, make_dir(-1, 0))
    assert P.set_contains_zero(anti)
    assert els(P, P.set_without_zero(anti)) == {d, make_dir(-1, 0)}
    # Tropical phase: antipodal sum is the whole circle.
    full = PHI.add(d, make_dir(-1, 0))
    assert PHI.set_contains(full, make_dir(-3, 7))
    assert PHI.set_contains_zero(full)


def test_phase_short_arc():
    a, b = make_dir(1, 0), make_dir(0, 1)
    sv = P.add(a, b)
    assert sv.contains_dir(make_dir(1, 1))
    assert not sv.contains_dir(make_dir(-1, -1))
    assert not sv.contains_dir(a)  # open arc over P
    closed = PHI.add(a, b)
    assert closed.contains_dir(a)  # closed arc over Phi


def test_phase_point_sums_match_refinement():
    # Every set of at most one point, with or without zero, and the full
    # circles beside them, plus zero or a point: each sum equals the
    # oracle's, and each one without a full circle equals the refinement's
    # too.
    dirs = sort_dirs(make_dir(p, q) for p in range(-4, 5)
                     for q in range(-4, 5) if p or q)
    ops = [ARCSET_EMPTY, ARCSET_ZERO, ArcSet((), True, False), ARCSET_FULL_ZERO]
    for d in dirs:
        ops += [ArcSet((point_arc(d),), False, zero) for zero in (False, True)]
    for H in (P, PHI):
        for A in ops:
            for c in [None] + dirs:
                B = H.singleton(c)
                got = phase_add_sets(A, c, H.closed)
                assert got == phase_oracle.phase_add_sets(A, B, H.closed), (A, c)
                if not A.full:
                    assert got == _refined_sum(A, B, H.closed), (A, c)


def test_phase_point_arc_sums_match_refinement():
    # 16 directions, 976 arcs, over P and Phi.
    assert phase_sweep.sweep(2) == 31_232


def test_phase_set_sums_match_refinement():
    # Every 37th set of at most two components with ends among the radius-1
    # directions, plus zero and the 16 radius-2 directions, over P and Phi;
    # then every 1009th set of at most four components, nine in ten of
    # them with three or four.
    assert phase_sweep.sweep_sets(37) == 7_140
    assert phase_sweep.sweep_sets(1009, 4) == 3_094


def test_phase_axioms_sampled():
    for H in (P, PHI):
        assert check_axioms(H, random.Random(0), samples=1000) == []


def _random_arcset(rng):
    """A canonical arc set built by the oracle from a few random raw arcs."""
    k = rng.random()
    if k < 0.04:
        return ArcSet((), True, rng.random() < 0.5)
    if k < 0.08:
        return ArcSet((), False, rng.random() < 0.5)
    r = rng.choice([1, 2, 3, 6])
    raw = []
    for _ in range(rng.randint(1, 4)):
        a = P.random_element(rng) or make_dir(1, r)
        t = rng.random()
        if t < 0.35:
            raw.append(point_arc(a))
        elif t < 0.45:
            raw.append(Arc(a, a, False, False))  # circle minus a point
        elif t < 0.55:
            raw += [point_arc(a), point_arc(P.neg(a))]  # antipodal pair
        else:
            b = make_dir(rng.randint(-r, r), rng.choice([-r, r]))
            if b == a:
                raw.append(point_arc(a))
            else:
                raw.append(Arc(a, b, rng.random() < 0.5, rng.random() < 0.5))
    return phase_oracle.canonical_arcs(raw, False, rng.random() < 0.3)


def test_phase_arc_algebra_matches_oracle():
    rng = random.Random(11)
    seen = {"zero": 0, "full": 0, "punctured": 0, "antipodal": 0}
    for _ in range(600):
        A, B = _random_arcset(rng), _random_arcset(rng)
        c = P.random_element(rng)
        ends = {d for a in A.arcs for d in (a.start, a.end)}
        elems = {None, c} | ends | {P.neg(d) for d in ends}
        for H in (P, PHI):
            if not (A.full or B.full):
                assert _refined_sum(A, B, H.closed) == phase_oracle.phase_add_sets(
                    A, B, H.closed), (A, B, H.name)
            for e in elems:
                want = phase_oracle.phase_add_sets(A, H.singleton(e), H.closed)
                assert H.add_set_elem(A, e) == want, (A, e, H.name)
                if not A.full:
                    assert _refined_sum(A, H.singleton(e), H.closed) == want
            assert H.scale_set(A, c) == phase_oracle.scale_set(A, c), (A, c)
        seen["zero"] += A.has_zero
        seen["full"] += A.full
        seen["punctured"] += any(a.start == a.end and not a.closed_start
                                 for a in A.arcs)
        dirs = {a.start for a in A.arcs if a.is_point()}
        seen["antipodal"] += any(P.neg(d) in dirs for d in dirs)
    assert min(seen.values()) >= 20, seen


# ---------------------------------------------------------------------------
# n-ary sums


def _unit(H, rng):
    while True:
        a = H.random_element(rng)
        if not H.is_zero(a):
            return a


def _draw(H, rng):
    """Zero one time in five, else a unit; over an extension the levels
    lie in {-1, 0, 1}, so terms often tie."""
    if rng.random() < 0.2:
        return H.zero()
    if isinstance(H, TropicalExtension):
        return H.elem(_unit(H.base, rng),
                      *[rng.randint(-1, 1) for _ in range(H.rank)])
    return _unit(H, rng)


def test_sum_fold_matches_the_fold_from_zero(monkeypatch):
    GF5_14 = quotient_build(5, [1, 4])
    hs = [K, S, W, GF5_14, quotient_build(7, [1, 2, 4]),
          field_hyperfield(GF(5)), P, PHI, trop(), trop_signed(),
          trop_complex(), trop(2), TropicalExtension(field_hyperfield(QQ)),
          TropicalExtension(W), TropicalExtension(GF5_14)]
    rng = random.Random(20)
    zero_first = 0
    for H in hs:
        assert H.nary_sum([]) == fold_from_zero(H, []) == H.singleton(H.zero())
        for _ in range(200):
            terms = [_draw(H, rng) for _ in range(rng.randint(1, 5))]
            zero_first += H.is_zero(terms[0])
            assert H.nary_sum(terms) == fold_from_zero(H, terms), (H.name, terms)
    assert zero_first >= 300
    # A one-term sum is the singleton: no phase sum is formed.
    calls = []
    monkeypatch.setattr(hyperfields, "phase_add_sets",
                        lambda *args: calls.append(args))
    assert P.nary_sum([make_dir(1, 2)]) == P.singleton(make_dir(1, 2))
    assert calls == []


# ---------------------------------------------------------------------------
# Closed-form base sums and powers


def test_small_base_sums_match_the_fold():
    # Every tuple of up to 7 elements of K, S and W, zeros included: 0 in
    # the sum in closed form against the fold of nary_sum.
    for H in (K, S, W):
        for n in range(8):
            for terms in itertools.product(H.elements(), repeat=n):
                terms = list(terms)
                assert H.sum_contains_zero(terms) == \
                    H.set_contains_zero(H.nary_sum(terms)), (H.name, terms)
    # In W, 1 + 1 + 1 holds 0 although the terms share one sign.
    assert W.sum_contains_zero([1, 1, 1]) and not S.sum_contains_zero([1, 1, 1])


def test_small_powers_match_square_and_multiply():
    # The closed form a^n of K, S and W against BaseField.power, which the
    # other hyperfields share; 0^n for n < 0 raises in both.
    for H in (K, S, W):
        for a in H.elements():
            for n in range(-6, 7):
                if a == 0 and n < 0:
                    with pytest.raises(ZeroDivisionError):
                        H.power(a, n)
                    with pytest.raises(ZeroDivisionError):
                        BaseField.power(H, a, n)
                else:
                    assert H.power(a, n) == BaseField.power(H, a, n), (H.name, a, n)


def test_units_of_the_small_bases_are_constant():
    for H in (K, S, W):
        assert list(H.units()) == [a for a in H.elements() if a != 0]
        assert H.units() is H.units()


def test_other_bases_keep_the_fold():
    # W, fields, GF(p)/U, P and Phi have no closed form: 0 in the sum is
    # read off the fold nary_sum.
    for H in (W, field_hyperfield(QQ), field_hyperfield(GF(7)),
              quotient_build(7, [1, 2, 4]), P, PHI):
        assert type(H).sum_contains_zero is Hyperfield.sum_contains_zero
    G = quotient_build(7, [1, 2, 4])
    assert G.sum_contains_zero([1, 3]) == G.set_contains_zero(G.add(1, 3))


# ---------------------------------------------------------------------------
# Homomorphisms


def test_hom_checks():
    rng = random.Random(3)
    for hom in (hom_trivial(QQ), hom_sign(), hom_phase()):
        assert hom_check(hom, rng, samples=300) == []


def test_weak_sign_map_is_still_a_homomorphism():
    # The failure of W is condition (2.2), not the homomorphism law.
    assert hom_check(hom_sign_weak(), random.Random(1), samples=300) == []


def test_phase_of_gauss():
    assert dir_of_gauss(gauss(3, 4)) == make_dir(3, 4)
    assert dir_of_gauss(gauss(-2, 0)) == make_dir(-1, 0)


def test_field_hyperfield_sums_are_singletons():
    H = field_hyperfield(QQ)
    assert els(H, H.add(QQ.one(), QQ.one())) == {QQ.from_int(2)}
    assert check_axioms(H, random.Random(5), samples=500) == []

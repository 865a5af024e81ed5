"""Tropical extensions: dominance, equal-level sums with tails, flattening."""

import random

import pytest

from finetrop.extension import (
    ExtElem,
    ExtSV,
    TropicalExtension,
    trop,
    trop_complex,
    trop_signed,
)
from finetrop.fields import QQ
from finetrop.hyperfields import (
    K,
    PHI,
    Arc,
    ArcSet,
    Dir,
    S,
    W,
    FieldHyperfield,
    check_axioms,
    make_dir,
    point_arc,
    quotient_build,
)
from finetrop.ordgroup import gelem
from finetrop.poly import _power_table

from eval_oracle import extension_add_set_elem, power_by_products

T = trop()
TR = trop_signed()
FQ = TropicalExtension(FieldHyperfield(QQ), 1)


def test_dominance():
    a = T.elem(1, gelem(0))
    b = T.elem(1, gelem(3))
    assert T.set_elements(T.add(a, b)) == [a]
    assert T.set_elements(T.add(b, a)) == [a]


def test_zero_is_identity():
    a = TR.elem(-1, gelem(2))
    assert TR.set_elements(TR.add(a, None)) == [a]
    assert TR.set_elements(TR.add(None, None)) == [None]


def test_equal_level_cancellation_gives_tail():
    a = T.elem(1, gelem(0))
    sv = T.add(a, a)
    # 1@0 + 1@0 = {1@0} u {everything above level 0} u {0}.
    assert T.set_contains(sv, a)
    assert T.set_contains(sv, T.elem(1, gelem(5)))
    assert T.set_contains_zero(sv)
    assert not T.set_contains(sv, T.elem(1, gelem(-1)))


def test_signed_tail_keeps_both_signs():
    x = TR.elem(1, gelem(0))
    y = TR.elem(-1, gelem(0))
    sv = TR.nary_sum([x, y, x])
    assert TR.set_contains(sv, x)
    assert TR.set_contains(sv, y)
    assert TR.set_contains(sv, TR.elem(-1, gelem(7)))
    assert TR.set_contains_zero(sv)


def test_multiplication_adds_levels():
    a = TR.elem(-1, gelem(1))
    b = TR.elem(-1, gelem(2))
    assert TR.mul(a, b) == TR.elem(1, gelem(3))
    assert TR.inv(a) == TR.elem(-1, gelem(-1))


def test_flattening_outer_first():
    E = TropicalExtension(trop(1), 1)
    assert E.rank == 2
    assert E.base.name == "K"
    a = E.elem(1, gelem(2, 5))
    assert a.level.coords[0] == 2


def test_stringency_inherited():
    assert T.is_stringent() and TR.is_stringent()
    assert not trop_complex().is_stringent()


def test_axioms_sampled():
    for H in (T, TR, FQ, trop(2), trop_complex()):
        assert check_axioms(H, random.Random(0), samples=400) == []


def _term(E, rng):
    """A seeded term; levels are small integers, so terms often tie."""
    a = E.random_element(rng)
    if a is None:
        return None
    return ExtElem(a.coef, gelem(*[rng.randint(-1, 1) for _ in range(E.rank)]))


def test_minimal_level_sum_and_running_powers_equal_the_generic_ones():
    rng = random.Random(11)
    for E in (T, TR, FQ, trop(2), trop_complex(), TropicalExtension(TR, 1)):
        for _ in range(150):
            ts = [_term(E, rng) for _ in range(rng.randint(0, 6))]
            a = next((t for t in ts if t is not None), None)
            if a is None:
                continue
            exps = range(-4, 7)
            assert _power_table(E, a, exps) == {
                n: power_by_products(E, a, n) for n in exps}
            assert _power_table(E.base, a.coef, exps) == {
                n: power_by_products(E.base, a.coef, n) for n in exps}


def test_extension_sums_match_the_reference():
    # Sets drawn as sums of up to four terms at levels -1, 0 and 1, plus
    # one more such term, over bases with and without cancellation.
    rng = random.Random(20)
    tails = 0
    for base in (K, S, W, quotient_build(5, [1, 4]), quotient_build(7, [1, 2, 4]),
                 FieldHyperfield(QQ), PHI):
        E = TropicalExtension(base, 1)
        for _ in range(300):
            A = E.nary_sum([_term(E, rng) for _ in range(rng.randint(0, 4))])
            y = _term(E, rng)
            tails += A.tail
            assert E.add_set_elem(A, y) == extension_add_set_elem(E, A, y), (
                E.name, A, y)
    assert tails >= 100


def test_extension_values_are_frozen_tuples():
    TC2 = TropicalExtension(PHI, 2)
    e = ExtElem(Dir(1, 2), gelem(1, "1/2"))
    point = ExtSV(e.level, ArcSet((point_arc(e.coef),), False, False), False,
                  False)
    arc = ArcSet((Arc(Dir(1, 0), Dir(0, 1), True, False),), False, True)
    assert repr(e) == "(dir(1,2)@1,1/2)"
    assert repr(ExtSV(e.level, arc, True, False)) == (
        "ExtSV(level=G(1, 1/2), base_sv={[dir(1,0),dir(0,1)), 0}, tail=True, "
        "zero=False)")
    for value, field in ((e, "level"), (point, "zero")):
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    # Hashed as the tuple of the fields, as the frozen dataclasses were.
    for value, twin in ((e, TC2.elem(make_dir(2, 4), 1, "1/2")),
                        (point, TC2.singleton(e))):
        assert value == twin and hash(value) == hash(twin) == hash(tuple(value))

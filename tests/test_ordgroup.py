import operator
from fractions import Fraction

import pytest

from finetrop.ordgroup import (
    GroupElem,
    gelem,
    group_add,
    group_neg,
    gzero,
    lex_compare,
    scalar_mul,
)


def test_lex_order():
    assert gelem(0, 1) < gelem(1, -5)
    assert gelem(1, -5) < gelem(1, 0)
    assert not gelem(1, 0) < gelem(1, 0)
    assert gelem(Fraction(1, 3)) < gelem(Fraction(1, 2))
    assert gelem(1, -5) > gelem(0, 1) and gelem(1, 0) >= gelem(1, 0)
    assert not gelem(0, 1) > gelem(0, 1) and not gelem(0, 1) >= gelem(1, -5)


def test_arithmetic():
    a, b = gelem(1, 2), gelem(3, -1)
    assert group_add(a, b) == gelem(4, 1)
    assert group_neg(a) == gelem(-1, -2)
    assert group_add(a, gzero(2)) == a
    assert scalar_mul(3, a) == gelem(3, 6)


def test_lex_compare():
    assert lex_compare(gelem(0), gelem(1)) == -1
    assert lex_compare(gelem(1), gelem(1)) == 0
    assert lex_compare(gelem(2), gelem(1)) == 1


def test_rank_mismatch():
    with pytest.raises(ValueError):
        group_add(gelem(1), gelem(1, 2))


@pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt,
                                operator.ge])
def test_orders_refuse_a_rank_mismatch(op):
    # The tuple base would order (1,) against (1, 2) silently.
    for a, b in ((gelem(1), gelem(1, 2)), (gelem(1, 2), gelem(1))):
        with pytest.raises(ValueError, match="rank mismatch"):
            op(a, b)


def test_group_elements_are_frozen_tuples():
    a = gelem(1, "1/2")
    assert repr(a) == "G(1, 1/2)"
    with pytest.raises(AttributeError):
        a.coords = (Fraction(0),)
    with pytest.raises(ValueError):
        GroupElem(())
    twin = group_add(gelem(0, 1), gelem(1, "-1/2"))
    assert a == twin and hash(a) == hash(twin) == hash((a.coords,))

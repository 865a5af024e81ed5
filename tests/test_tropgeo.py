"""Fine tropical curves in the plane: cell structure, intersections,
stable limits, and homotopy start systems."""

import random
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from finetrop import tropgeo
from finetrop.extension import ExtElem, TropicalExtension, trop
from finetrop.fields import GF, QQ, QQi, gauss
from finetrop.hyperfields import K, S, W, field_hyperfield, quotient_build
from finetrop.ordgroup import gelem
from finetrop.parsing import parse_fpoly, parse_poly
from finetrop.poly import fpoly, hpoly, is_root, pushforward
from finetrop.series import SeriesDomain, fmt_series, hom_fval, hom_sval, hom_val, series
from finetrop.solve import BaseSolveError, SolverInvariantError
from finetrop.svg import render_fine_curve
from finetrop.tropgeo import (
    Interval,
    fine_hypersurface,
    fine_intersect,
    homotopy_start,
    stable_intersect,
    trop_project,
)

from curve_oracle import (
    fine_hypersurface_by_subsets,
    tie_rows,
    vertices_every_triple,
)
from eval_oracle import is_root_every_term
import intersect_sweep
import pair_sweep
from intersect_oracle import (
    contains_by_rows,
    integer_point,
    oracle_intersect_series,
    pair_scan_hits,
)

DOM = SeriesDomain(QQ)
FVAL = hom_fval()


def line_curve():
    return fine_hypersurface(pushforward(FVAL, parse_fpoly(DOM, "X + Y - 1")))


def second_curve():
    q = parse_fpoly(DOM, "t*X + (1 + t^2)*Y + 1")
    return fine_hypersurface(pushforward(FVAL, q))


def test_fine_line_cells():
    C = line_curve()
    by_J = {c.J: c for c in C.cells}
    assert len(C.cells) == 4
    ray_x = by_J[((0, 0), (0, 1))]
    assert ray_x.dim == 1 and ray_x.line_v == (1, 0)
    assert ray_x.interval == Interval(Fraction(0), True, None, False)
    assert repr(ray_x.base_cond) == "Y + -1"
    ray_y = by_J[((0, 0), (1, 0))]
    assert ray_y.line_v == (0, 1)
    assert repr(ray_y.base_cond) == "X + -1"
    diag = by_J[((0, 1), (1, 0))]
    assert diag.line_v == (1, 1)
    assert diag.interval == Interval(None, False, Fraction(0), True)
    assert repr(diag.base_cond) == "X + Y"
    vertex = by_J[((0, 0), (0, 1), (1, 0))]
    assert vertex.dim == 0
    assert vertex.point == (Fraction(0), Fraction(0))
    assert repr(vertex.base_cond) == "X + Y + -1"


def _cell_key(c, rows):
    iv = c.interval
    return (c.J, c.dim, *rows, c.point, c.line_p0, c.line_v,
            None if iv is None else (iv.lo, iv.lo_strict, iv.hi, iv.hi_strict),
            c.base_cond.hyperfield.name, tuple(c.base_cond.coeffs.items()))


def _random_fpoly(rng, support, equal_levels, max_den):
    """Monomial-series coefficients on the given support."""
    e0 = Fraction(rng.randint(-4, 8), rng.randint(1, max_den))

    def coef():
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        e = e0 if equal_levels else Fraction(rng.randint(-4, 8),
                                             rng.randint(1, max_den))
        return series(QQ, [(e, c)])

    return fpoly(DOM, 2, {d: coef() for d in support})


def _triangle(deg):
    return [(i, j) for i in range(deg + 1) for j in range(deg + 1 - i)]


def _oracle_curves():
    """Collinear (also off the axes and with gaps), Laurent, degenerate and
    dense supports, with equal and generic levels, pushed along val, sval
    and fval."""
    rng = random.Random(5)
    homs = (hom_val(), hom_sval(), hom_fval())
    curves = [pushforward(h, parse_fpoly(DOM, text, nvars=2))
              for h in homs for text in (
                  "X + X^2 + X^3", "t*X + X^2 + t^2*X^3", "1 + X*Y + t*X^2*Y^2",
                  "1 + t*X^2*Y + X^4*Y^2", "X^3 + t*X^2*Y^2 + X*Y^4",
                  "X^-1*Y + t + t^2*X*Y^-1 + X^2",
                  "X^-2 + t*X^-1*Y^3 + Y + t^3*X")]
    for k in range(36):
        deg = 1 + k % 4
        tri = _triangle(deg)
        if deg < 4 and k % 2:
            support = tri
        else:
            support = rng.sample(tri, rng.randint(2, min(9, len(tri))))
        curves.append(pushforward(homs[k % 3], _random_fpoly(
            rng, support, equal_levels=k % 5 == 0, max_den=1 + k % 3)))
    return curves


def test_vertices_match_every_triple_oracle():
    # The walk over the lower faces meets the same vertices as the argmin
    # sets of every non-collinear triple.
    for hp in _oracle_curves():
        C = fine_hypersurface(hp)
        want = vertices_every_triple(C.cells[0].lift)
        assert {c.J: c.point for c in C.cells if c.dim == 0} == {
            J: (Fraction(x, den), Fraction(y, den))
            for J, (x, y, den) in want.items()}, hp


def test_vertex_J_is_the_argmin_at_its_point():
    # A vertex reached along an edge takes its J from the edge's tie scan
    # (the edge's points and those tying at the least ratio); it must be
    # the argmin set at the vertex.  The hand-built support has a unit
    # square of equal levels (a 4-point tie) and a 5-point tie on another
    # plane, both reached by the scan, not as the walk's first vertex.
    T = trop()
    levels = {(0, 0): 5, (1, 0): 3, (2, 0): 2, (0, 1): 3, (0, 2): 3,
              (1, 3): 3, (2, 3): 3, (1, 1): 0, (2, 1): 0, (1, 2): 0,
              (2, 2): 0, (3, 0): 1, (3, 1): 1, (3, 2): 1}
    square = ((1, 1), (1, 2), (2, 1), (2, 2))
    five = ((2, 1), (2, 2), (3, 0), (3, 1), (3, 2))
    hand = hpoly(T, 2, {d: T.elem(1, gelem(x)) for d, x in levels.items()})
    first = next(iter(tropgeo._walk(tropgeo._lift(hand))[0]))
    assert first not in (square, five)
    seen = set()
    for hp in [*_oracle_curves(), hand]:
        for c in fine_hypersurface(hp).cells:
            if c.dim == 0:
                assert c.J == c.lift.argmin(*c.ipoint), (hp, c.J)
                seen.add(c.J)
    assert square in seen and five in seen


def test_fine_point_check_sums_only_minimal_level_terms(monkeypatch):
    # A dense cubic over T at a vertex g of its curve: only the monomials
    # in the vertex's J attain the minimal level, and any unit pair over
    # K is a root there.  Their sum is decided at that level: the base
    # hyperfield's sum_contains_zero gets exactly the len(J) products, and
    # the extension sums nothing.
    T = trop()
    levels = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]
    p = hpoly(T, 2, {d: T.elem(1, gelem(x))
                     for d, x in zip(_triangle(3), levels)})
    ext_calls, base_calls = [], []
    for name in ("add_set_elem", "nary_sum", "sum_contains_zero"):
        def counted(self, *args, method=getattr(TropicalExtension, name)):
            ext_calls.append(args)
            return method(self, *args)

        monkeypatch.setattr(TropicalExtension, name, counted)

    def base_sum(self, terms, method=type(T.base).sum_contains_zero):
        base_calls.append(list(terms))
        return method(self, terms)

    monkeypatch.setattr(type(T.base), "sum_contains_zero", base_sum)
    vertices = [c for c in fine_hypersurface(p).cells if c.dim == 0]
    assert vertices
    for c in vertices:
        ext_calls.clear()
        base_calls.clear()
        pt = (T.elem(1, gelem(c.point[0])), T.elem(1, gelem(c.point[1])))
        assert is_root(p, pt)
        assert [len(terms) for terms in base_calls] == [len(c.J)]
        assert len(c.J) < len(p.coeffs)
        assert ext_calls == []


def test_unit_scan_matches_every_term_oracle():
    # The unit-pair scan against every unit pair evaluated term by term
    # (is_root_every_term), on random conditions of one to four terms with
    # exponents in [-5, 5].
    rng = random.Random(41)
    bases = (K, S, W, field_hyperfield(GF(5)), quotient_build(7, [1, 2, 4]),
             quotient_build(13, [1, 3, 9]))
    solved = 0
    for k in range(150 * len(bases)):
        H = bases[k % len(bases)]
        units = H.units()

        def cond():
            return hpoly(H, 2, {(rng.randint(-5, 5), rng.randint(-5, 5)):
                                rng.choice(units)
                                for _ in range(rng.randint(1, 4))})

        conds = (cond(), cond())
        want = [(u, v) for u in units for v in units
                if all(is_root_every_term(c, (u, v)) for c in conds)]
        assert tropgeo.solve_base_pair(H, *conds) == ("points", want), conds
        solved += bool(want) and len(want) < len(units) ** 2
    assert solved >= 100, solved


def test_base_pairs_match_the_shape_classifier():
    # 200 rounds of tests/pair_sweep.py (which runs any number): over Q and
    # Q(i), every pair the reference solves gets the same kind and point
    # set, every point is a unit root of both conditions, a planted common
    # root is found or lies on the family's curve, and no pair raises that
    # the reference solved.
    assert pair_sweep.sweep(200) == {
        "identical": 37, "same set, other order": 2, "other note": 26,
        "answered, reference raises": 183, "raise in both": 152}


def test_binomial_elimination_over_the_rationals():
    Q = field_hyperfield(QQ)

    def cond(coeffs):
        return hpoly(Q, 2, {d: Fraction(c) for d, c in coeffs.items()})

    # u^2 = 4 with v = 2u: one point for each of z = 2 and z = -2.
    assert tropgeo.solve_base_pair(
        Q, cond({(2, 0): 1, (0, 0): -4}), cond({(0, 1): 1, (1, 0): -2})
    ) == ("points", [(Fraction(2), Fraction(4)), (Fraction(-2), Fraction(-4))])
    # u v = 1 with u^2 v^2 = 1: the second vanishes on the binomial.
    assert tropgeo.solve_base_pair(
        Q, cond({(1, 1): 1, (0, 0): -1}), cond({(2, 2): 1, (0, 0): -1})
    ) == ("family", "the other condition vanishes on the binomial")
    # u^3 v = 2 and u^2 = 3: z = u^3 v = 2, and s = 1/u has s^2 = 1/3.
    assert tropgeo.solve_base_pair(
        Q, cond({(3, 1): 1, (0, 0): -2}), cond({(2, 0): 1, (0, 0): -3})
    ) == ("points", [])
    # u^2 = 1 with (u - 1)(v - 2): a family at z = u = 1 and the point
    # (-1, 2) at z = -1, which no one result holds.
    with pytest.raises(BaseSolveError, match="a family and isolated points"):
        tropgeo.solve_base_pair(Q, cond({(2, 0): 1, (0, 0): -1}), cond(
            {(1, 1): 1, (1, 0): -2, (0, 1): -1, (0, 0): 2}))


def _on_cell_units(B, p, J, rng):
    """A unit pair solving the condition of the edge J = (d, e) of p by
    v^(d1 - e1) = -c_e u^(e0 - d0) / c_d, when d1 - e1 is +-1."""
    d, e = J
    if abs(d[1] - e[1]) != 1:
        return None
    u = Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 5))
    w = B.neg(B.mul(B.mul(p.coeffs[e].coef, B.power(u, e[0] - d[0])),
                    B.inv(p.coeffs[d].coef)))
    return u, w if d[1] - e[1] == 1 else B.inv(w)


def test_fine_point_check_matches_every_term_oracle():
    # The check on levels scaled once against is_root_every_term, which
    # sums every term of the source, at unit points on each curve (a point
    # of every cell: every unit pair over K and S, over Q random units and,
    # on edges, units solving the edge's condition) and mostly off it
    # (random levels).
    rng = random.Random(43)
    seen = {}
    for hp in _oracle_curves():
        B = hp.hyperfield.base
        units = B.units()
        lift = tropgeo._lift(hp)
        tries = []
        for c in fine_hypersurface(hp).cells:
            g = c.point if c.dim == 0 else intersect_sweep.interior_point(c)
            tries.append(g)
        for _ in range(3):
            tries.append((Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                          Fraction(rng.randint(-9, 9), rng.randint(1, 4))))
        for g in tries:
            xyd = integer_point(g)
            J = lift.argmin(*xyd)
            if units is not None:
                pairs = [(u, v) for u in units for v in units]
            else:
                pairs = [(Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 5)),
                          Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 5)))
                         for _ in range(2)]
                if len(J) == 2 and (uv := _on_cell_units(B, hp, J, rng)):
                    pairs.append(uv)
            for u, v in pairs:
                got = tropgeo._is_fine_root(B, hp, lift, xyd, u, v)
                pt = (ExtElem(u, gelem(g[0])), ExtElem(v, gelem(g[1])))
                assert got == is_root_every_term(hp, pt), (hp, pt)
                seen[B.name, got] = seen.get((B.name, got), 0) + 1
    assert len(seen) == 6 and min(seen.values()) >= 20, seen
    # The base solving of 6 rounds of tests/intersect_sweep.py (which runs
    # any number): unit-pair scans and fine-point checks at every hit.
    assert intersect_sweep.base_sweep(6) == (73, 460, 0)


def test_fine_curve_matches_subset_oracle():
    curves = _oracle_curves()
    wide_vertices = long_edges = 0
    for hp in curves:
        # The walk's cells keep no rows: theirs are the oracle's tie_rows
        # of their J, against the rows each subset cell was solved from.
        got = [_cell_key(c, tie_rows(hp, c.J))
               for c in fine_hypersurface(hp).cells]
        assert got == [_cell_key(c, (c.eqs, c.ineqs))
                       for c in fine_hypersurface_by_subsets(hp)], hp
        wide_vertices += sum(1 for c in got if c[1] == 0 and len(c[0]) > 3)
        long_edges += sum(1 for c in got if c[1] == 1 and len(c[0]) > 2)
    # Vertices tied by more than a triple and edges holding more than a
    # pair are the cells a shortcut through triples or pairs would lose.
    assert wide_vertices >= 5 and long_edges >= 10


def _outcome(fn):
    try:
        return fn()
    except (BaseSolveError, ValueError) as e:
        return f"{type(e).__name__}: {e}"


def _meet(C1, C2):
    pts, comps = fine_intersect(C1, C2)
    return ([[(e.coef, e.level.coords) for e in pt.coords] for pt in pts],
            [(c.line_p0, c.line_v, c.interval, repr(c.unit_constraints),
              repr(c.fixed_units), c.note) for c in comps])


def _start(P, Q):
    sols, cells, report = homotopy_start(P, Q)
    return ([[(e.coef, e.level.coords) for e in s.coords] for s in sols],
            [(c.point, c.J1, c.J2, c.volume) for c in cells], report)


def test_fine_intersect_matches_pair_scan_oracle(monkeypatch):
    rng = random.Random(23)
    homs = (hom_val(), hom_sval(), FVAL)
    readme = (parse_fpoly(DOM, "X + Y - 1"),
              parse_fpoly(DOM, "t*X + (1 + t^2)*Y + 1"))
    pairs = [(FVAL, *readme), (FVAL, readme[0], readme[0])]
    for k in range(90):
        tri = _triangle(1 + (k // 3) % 3)

        def support():
            return tri if rng.random() < 0.5 else rng.sample(
                tri, rng.randint(2, len(tri)))

        equal, max_den = k % 7 == 0, 1 + k % 3
        P = _random_fpoly(rng, support(), equal, max_den)
        Q = P if k % 5 == 0 else _random_fpoly(rng, support(), equal, max_den)
        pairs.append((homs[k % 3], P, Q))
    for _ in range(5):  # a line meets itself in a unit family at its vertex
        L = _random_fpoly(rng, _triangle(1), False, 2)
        pairs.append((FVAL, L, L))
    seen = dict.fromkeys(("overlap", "unit family", "vertex on edge",
                          "vertex on vertex"), 0)
    for hom, P, Q in pairs:
        C1, C2 = (fine_hypersurface(pushforward(hom, F)) for F in (P, Q))
        scan = list(pair_scan_hits(C1, C2))
        assert ([intersect_sweep.hit_key(*h) for h in tropgeo._cell_hits(C1, C2)]
                == [intersect_sweep.hit_key(*h) for h in scan]), (P, Q)
        got = (_outcome(lambda: _meet(C1, C2)), _outcome(lambda: _start(P, Q)))
        with monkeypatch.context() as m:
            m.setattr(tropgeo, "_cell_hits", pair_scan_hits)
            want = (_outcome(lambda: _meet(C1, C2)),
                    _outcome(lambda: _start(P, Q)))
        assert got == want, (P, Q)
        for c1, c2, hit in scan:
            if hit[0] == "segment":
                seen["overlap"] += 1
                continue
            dims = c1.dim + c2.dim
            if dims < 2:
                seen["vertex on vertex" if dims == 0 else "vertex on edge"] += 1
            for C in (C1, C2):
                for c in C.cells:
                    assert ((c.lift.argmin(*hit[2]) == c.J)
                            == contains_by_rows(tie_rows(C.source, c.J),
                                                hit[1]))
        if not isinstance(got[0], str):
            seen["unit family"] += sum(c[-1].startswith("unit family")
                                       for c in got[0][1])
    assert min(seen.values()) >= 5, seen


def test_cell_hits_match_both_references():
    # The span test against two argmins per edge pair and against the
    # Fraction rows of every cell pair: dense pairs of degree 5 and 8 (one
    # curve shifted), then 12 rounds of tests/intersect_sweep.py (which runs
    # any number): random pairs, vertices of one curve moved onto edges of
    # the other, collinear curves, whose edges are whole lines, and dense
    # pairs of degree 2 to 5.
    rng = random.Random(31)
    dense = [(intersect_sweep.curve(hom, intersect_sweep.dense_levels(rng, d),
                                    rng),
              intersect_sweep.curve(hom, intersect_sweep.shifted(
                  intersect_sweep.dense_levels(rng, d), intersect_sweep.SHIFT),
                  rng))
             for d, hom in ((5, hom_val()), (8, hom_sval()))]
    assert [intersect_sweep.check(*pair) for pair in dense] == [25, 64]
    assert intersect_sweep.sweep(12) == (48, 262, 1350)
    seen = dict.fromkeys(("vertex on edge", "vertex on vertex",
                          "whole line crossed", "overlap"), 0)
    for _, C1, C2 in intersect_sweep.pairs(12):
        for c1, c2, hit in tropgeo._cell_hits(C1, C2):
            dims = c1.dim + c2.dim
            if dims < 2:
                seen["vertex on vertex" if dims == 0 else "vertex on edge"] += 1
            elif hit[0] == "segment":
                seen["overlap"] += 1
            elif any(c.interval.lo is None and c.interval.hi is None
                     for c in (c1, c2)):
                seen["whole line crossed"] += 1
    assert min(seen.values()) >= 5 and seen["vertex on edge"] >= 10, seen


def test_cell_hits_argmin_once_per_vertex(monkeypatch):
    # Edge pairs are settled by the span test; Lift.argmin runs only to
    # look each vertex of either curve up on the other.
    rng = random.Random(37)
    C1, C2 = (intersect_sweep.curve(hom_val(), intersect_sweep.shifted(
        intersect_sweep.dense_levels(rng, 5), s), rng)
        for s in ((0, 0), intersect_sweep.SHIFT))
    calls = []
    argmin = tropgeo.Lift.argmin

    def counted(self, x, y, den):
        calls.append((x, y, den))
        return argmin(self, x, y, den)

    monkeypatch.setattr(tropgeo.Lift, "argmin", counted)
    assert len(list(tropgeo._cell_hits(C1, C2))) == 25
    assert len(calls) == sum(c.dim == 0 for c in C1.cells + C2.cells) == 50


def test_cells_keep_integers_that_name_their_fractions():
    # Each vertex's (x, y, den) is its point with den > 0; each edge's tie
    # is Lift.tie of J[0] and J[1], its line_p0 lies on the tie line, and
    # its span ends over line_v[i] are its interval's ends, strict, with
    # None for no end (intersect_sweep.check_cells).
    ends = dict.fromkeys(("vertex", "segment", "ray", "line"), 0)
    for hp in _oracle_curves():
        C = fine_hypersurface(hp)
        assert intersect_sweep.check_cells(C) == len(C.cells)
        for c in C.cells:
            if c.dim == 0:
                ends["vertex"] += 1
            else:
                n = (c.span[1] is not None) + (c.span[2] is not None)
                ends[("line", "ray", "segment")[n]] += 1
    assert min(ends.values()) >= 10, ends


def _whole_line(text):
    return fine_hypersurface(parse_poly("Qx|Q", text, nvars=2))


def test_lines_are_found_by_their_ties_across_lift_scales():
    # Whole lines (collinear supports) on lifts of other scales: gX = 1/2
    # on scale 2 (tie (1, 0, -1)) is gX = 1/2 on scale 6 (tie (1, 0, -3))
    # and on scale 3 (tie (2, 0, -3)), but not gX = 1/6 (tie (2, 0, -1));
    # gX - gY = 1/2 on scale 2 (tie (1, -1, -1)) is that line on scale 3
    # (tie (2, -2, -3)), but not gX = gY (tie (2, -2, 0)).
    whole = Interval(None, False, None, False)
    for text, others in (
            ("(1, 1/2) + (1, 0)*X", {"(1, 5/6) + (1, 1/3)*X": True,
                                     "(1, 4/3) + (1, 1/3)*X^2": True,
                                     "(1, 1/3) + (1, 0)*X^2": False}),
            ("(1, 0)*X + (1, 1/2)*Y", {"(1, 1/3)*X^2 + (1, 4/3)*Y^2": True,
                                       "(1, 1/3)*X^2 + (1, 1/3)*Y^2": False})):
        C1 = _whole_line(text)
        for other, shared in others.items():
            C2 = _whole_line(other)
            assert C1.cells[0].lift.scale != C2.cells[0].lift.scale, other
            assert [(h[0], h[2]) for _, _, h in tropgeo._cell_hits(C1, C2)] == (
                [("segment", whole)] if shared else []), other


def test_records_print_and_stay_frozen():
    # The curves digest of perfbench hashes these reprs.
    assert repr(Interval(Fraction(1, 2), True, None, False)) == (
        "Interval(lo=Fraction(1, 2), lo_strict=True, hi=None, "
        "hi_strict=False)")
    C = line_curve()
    by_J = {c.J: c for c in C.cells}
    fields = [repr((c.J, c.dim, c.point, c.line_p0, c.line_v, c.interval,
                    c.base_cond))
              for c in (by_J[((0, 1), (1, 0))], by_J[((0, 0), (0, 1), (1, 0))])]
    assert fields == [
        "(((0, 1), (1, 0)), 1, None, (Fraction(0, 1), Fraction(0, 1)), "
        "(1, 1), Interval(lo=None, lo_strict=False, hi=Fraction(0, 1), "
        "hi_strict=True), X + Y)",
        "(((0, 0), (0, 1), (1, 0)), 0, (Fraction(0, 1), Fraction(0, 1)), "
        "None, None, None, X + Y + -1)"]
    cd = tropgeo.ComponentDescription(None, None, None, (), None)
    assert cd.note == "" and repr(cd) == (
        "ComponentDescription(line_p0=None, line_v=None, interval=None, "
        "unit_constraints=(), fixed_units=None, note='')")
    _, comps = fine_intersect(C, C)
    (pt,), _ = fine_intersect(C, second_curve())
    cell = C.cells[0]
    for record, name in ((cell.interval, "lo"), (cell, "dim"),
                         (cell.lift, "scale"), (C, "cells"), (pt, "coords"),
                         (comps[0], "note"), (cd, "note")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def _relative_interior_point(cell):
    if cell.dim == 0:
        return cell.point
    return intersect_sweep.interior_point(cell)


def _argmin(hp, g):
    vals = {d: c.level.coords[0] + d[0] * g[0] + d[1] * g[1]
            for d, c in hp.coeffs.items()}
    m = min(vals.values())
    return tuple(sorted(d for d, v in vals.items() if v == m))


def test_dense_quintic_cells():
    # 21 monomials: the subset search would try about 2 * 10^6 sets.
    # Strictly convex levels, perturbed by less than their second
    # differences, lift every monomial onto the lower hull: the subdivision
    # is a unimodular triangulation with 25 triangles and 45 edges (64 and
    # 108 in degree 8, with 45 monomials, crossed by fewer lines since each
    # costs a Fraction argmin for every pair of monomials).
    rng = random.Random(11)
    for deg, counts, lines in ((5, (25, 45), 12), (8, (64, 108), 3)):
        _check_dense_cells(rng, deg, counts, lines)


def _check_dense_cells(rng, deg, counts, lines):
    hp = pushforward(hom_val(), fpoly(DOM, 2, {
        (i, j): series(QQ, [(i * i + i * j + j * j
                             + Fraction(rng.randint(-9, 9), 50),
                             Fraction(rng.randint(1, 9)))])
        for i, j in _triangle(deg)}))
    C = fine_hypersurface(hp)
    assert (sum(c.dim == 0 for c in C.cells),
            sum(c.dim == 1 for c in C.cells)) == counts
    for cell in C.cells:
        assert _argmin(hp, _relative_interior_point(cell)) == cell.J
    # Every point of the curve lies in a cell: cross random lines and take
    # the argmin wherever two of its monomials tie at the minimum.
    Js = {c.J for c in C.cells}
    support = sorted(hp.coeffs)
    for _ in range(lines):
        p = (Fraction(rng.randint(-20, 20), 7), Fraction(rng.randint(-20, 20), 7))
        w = (Fraction(rng.randint(1, 9)), Fraction(rng.randint(-9, -1)))
        for a in support:
            for b in support:
                s = (a[0] - b[0]) * w[0] + (a[1] - b[1]) * w[1]
                if a >= b or s == 0:
                    continue
                la, lb = (hp.coeffs[d].level.coords[0] + d[0] * p[0] + d[1] * p[1]
                          for d in (a, b))
                t = (lb - la) / s
                J = _argmin(hp, (p[0] + t * w[0], p[1] + t * w[1]))
                if a in J:
                    assert J in Js


def test_zero_polynomial_has_no_fine_curve():
    # The corner locus of 0 is the whole plane, not an empty cell list.
    with pytest.raises(ValueError, match="zero polynomial"):
        fine_hypersurface(pushforward(FVAL, fpoly(DOM, 2, {})))
    with pytest.raises(ValueError, match="zero polynomial"):
        fine_hypersurface(hpoly(trop(), 2, {}))


def test_trop_project():
    cells = trop_project(line_curve())
    dims = sorted(c["dim"] for c in cells)
    assert dims == [0, 1, 1, 1]
    vs = {c["v"] for c in cells if c["dim"] == 1}
    assert vs == {(1, 0), (0, 1), (1, 1)}


def test_transversal_intersection_point():
    pts, comps = fine_intersect(line_curve(), second_curve())
    assert comps == []
    assert len(pts) == 1
    (x, y) = pts[0].coords
    assert (x.coef, tuple(x.level.coords)) == (Fraction(2), (Fraction(0),))
    assert (y.coef, tuple(y.level.coords)) == (Fraction(-1), (Fraction(0),))


def test_odd_roots_of_large_integers_are_exact():
    # X^3 = N, XY = 1 over Qx|Q: the point (N^(1/3), N^(-1/3)) at level
    # (0, 0) exists exactly when N is a cube, however large N is.
    q = fine_hypersurface(parse_poly("Qx|Q", "(-1, 0) + (1, 0)*X*Y", nvars=2))

    def meet(N):
        p = parse_poly("Qx|Q", f"(-{N}, 0) + (1, 0)*X^3", nvars=2)
        pts, comps = fine_intersect(fine_hypersurface(p), q)
        assert comps == []
        return [tuple((e.coef, e.level.coords) for e in pt.coords) for pt in pts]

    zero = (Fraction(0),)
    assert meet(10**60) == [((10**20, zero), (Fraction(1, 10**20), zero))]
    assert meet(10**399) == [((10**133, zero), (Fraction(1, 10**133), zero))]
    assert meet(10**400) == []


@pytest.mark.parametrize("m, n, w2, family", [
    (2, 4, 1, True), (4, 2, 1, True), (2, 3, 1, True), (3, 2, 1, True),
    (2, 4, -1, False), (4, 2, -1, False)])
def test_parallel_binomials(m, n, w2, family):
    # X^m = 1 and X^n = w2 on the one line gX = 0: u = 1 (and u = -1 when
    # m and n are even) solves both for every v when w2 = 1.  Over Q,
    # u^m = 1 forces u = +-1, so no u solves u^n = -1 for even n.
    C1, C2 = (fine_hypersurface(parse_poly("Qx|Q", f"({-w}, 0) + (1, 0)*X^{e}",
                                           nvars=2))
              for e, w in ((m, 1), (n, w2)))
    pts, comps = fine_intersect(C1, C2)
    assert pts == []
    assert [(c.line_v, c.interval, c.fixed_units) for c in comps] == (
        [((0, 1), Interval(None, False, None, False), None)] if family else [])


def test_fine_intersect_check_raises_without_assert(monkeypatch):
    # The fine-point check failing on a point raises, also under -O.
    monkeypatch.setattr(tropgeo, "_is_fine_root", lambda *args: False)
    with pytest.raises(SolverInvariantError):
        fine_intersect(line_curve(), second_curve())


def test_series_oracle_agrees():
    P = parse_fpoly(DOM, "X + Y - 1")
    Q = parse_fpoly(DOM, "t*X + (1 + t^2)*Y + 1")
    (x, y), pts = oracle_intersect_series(P, Q, prec=3)
    assert fmt_series(x) == "2 + 2*t + t^2 + O(t^3)"
    assert fmt_series(y) == "-1 + -2*t + -1*t^2 + O(t^3)"
    assert len(pts) == 1
    assert pts[0].coords[0].coef == Fraction(2)


def test_overlapping_curves_have_component():
    C2 = fine_hypersurface(pushforward(FVAL, parse_fpoly(DOM, "X + Y + 1")))
    pts, comps = fine_intersect(C2, second_curve())
    assert pts == []
    assert len(comps) == 1
    cd = comps[0]
    # The shared ray: x-level free and positive, y pinned to (-1, 0).
    assert cd.line_v == (1, 0)
    assert cd.interval == Interval(Fraction(0), True, None, False)
    assert all(repr(c) == "Y + 1" for c in cd.unit_constraints)


def test_stable_intersection_of_overlap():
    C2 = fine_hypersurface(pushforward(FVAL, parse_fpoly(DOM, "X + Y + 1")))
    CQ = second_curve()
    results = {tuple(stable_intersect(C2, CQ))}
    assert results == {((Fraction(0), Fraction(0)),)}


def test_stable_self_intersection():
    C = line_curve()
    pts, comps = fine_intersect(C, C)
    assert len(comps) >= 1
    assert stable_intersect(C, C) == [(Fraction(0), Fraction(0))]


def test_stable_intersect_matches_translation_oracle_and_bernstein():
    # On the sweep's first 12 rounds the stable intersection is the limit
    # of the first curve meeting the second moved apart, and the mixed
    # areas of the point hits sum to the mixed volume of the supports.
    assert intersect_sweep.stable_sweep(12) == 48


def test_mixed_area_pinned_values():
    tri = ((0, 0), (0, 1), (1, 0))
    assert tropgeo._mixed_area(tri, tri) == 1
    assert tropgeo._mixed_area(tri, ((1, 1), (1, 2), (2, 1))) == 1
    assert tropgeo._mixed_area(((0, 0), (2, 0)), ((0, 0), (0, 3))) == 6
    assert tropgeo._mixed_area(((0, 1), (0, 2)),
                               ((0, 0), (0, 1), (3, 0))) == 3
    # Parallel segments and a point have mixed area 0.
    assert tropgeo._mixed_area(((0, 0), (2, 1)), ((1, 0), (3, 1))) == 0
    assert tropgeo._mixed_area(tri, ((4, 5),)) == 0


def test_homotopy_start_vertex_on_edge():
    P = parse_fpoly(DOM, "X + Y - 1")
    Q = parse_fpoly(DOM, "t*X + (1 + t^2)*Y + 1")
    sols, cells, report = homotopy_start(P, Q)
    assert report == {"cells": 1, "mixed_volume": 1, "start_solutions": 1}
    assert [(e.coef, e.level.coords) for e in sols[0].coords] == [
        (Fraction(2), (Fraction(0),)),
        (Fraction(-1), (Fraction(0),)),
    ]


def test_homotopy_start_bkk_two():
    dom = SeriesDomain(QQi)
    P = parse_fpoly(dom, "X^2 - Y", nvars=2)
    Q = parse_fpoly(dom, "Y + 1", nvars=2)
    sols, cells, report = homotopy_start(P, Q)
    assert report["mixed_volume"] == 2
    got = {tuple(e.coef for e in s.coords) for s in sols}
    assert got == {(gauss(0, 1), gauss(-1)), (gauss(0, -1), gauss(-1))}
    # Each start solution satisfies both initial systems.
    from finetrop.poly import is_root

    hp, hq = pushforward(hom_fval(QQi), P), pushforward(hom_fval(QQi), Q)
    for s in sols:
        assert is_root(hp, s.coords) and is_root(hq, s.coords)


def test_homotopy_start_no_transversal_cells():
    P = parse_fpoly(DOM, "X + Y", nvars=2)
    Q = parse_fpoly(DOM, "X + 2*Y", nvars=2)
    sols, cells, report = homotopy_start(P, Q)
    assert report["mixed_volume"] == 0
    assert sols == []


def test_homotopy_rejects_degenerate_lift():
    # Nothing in homotopy_start is random, so the message names the pair
    # that is no start cell instead of asking for another seed.
    P = parse_fpoly(DOM, "X + Y - 1")
    with pytest.raises(ValueError, match=(
            r"^cells J1=\(\(0, 0\), \(0, 1\)\) and J2=\(\(0, 0\), \(0, 1\)\) "
            r"meet in a segment hit with a unit family \(the other condition "
            r"vanishes on the binomial\): not a start cell$")):
        homotopy_start(P, P)


def test_svg_renders_parse():
    C = line_curve()
    root = ET.fromstring(render_fine_curve(C))
    assert root.tag.endswith("svg")
    assert len(list(root.iter())) > 3

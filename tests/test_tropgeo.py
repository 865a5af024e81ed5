"""Fine tropical curves in the plane: cell structure, intersections,
stable limits, and homotopy start systems."""

import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from finetrop import tropgeo
from finetrop.fields import QQ, QQi, gauss
from finetrop.parsing import parse_fpoly, parse_poly
from finetrop.poly import pushforward
from finetrop.series import SeriesDomain, fmt_series, hom_fval
from finetrop.solve import SolverInvariantError
from finetrop.svg import render_fine_curve, render_trop
from finetrop.tropgeo import (
    Interval,
    fine_hypersurface,
    fine_intersect,
    homotopy_start,
    oracle_intersect_series,
    stable_intersect,
    trop_project,
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


def test_fine_intersect_check_raises_without_assert(monkeypatch):
    monkeypatch.setattr(tropgeo, "is_root", lambda p, point: False)
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
    results = {tuple(stable_intersect(C2, CQ, seed=s)) for s in range(10)}
    assert results == {((Fraction(0), Fraction(0)),)}


def test_stable_self_intersection():
    C = line_curve()
    pts, comps = fine_intersect(C, C)
    assert len(comps) >= 1
    assert stable_intersect(C, C) == [(Fraction(0), Fraction(0))]


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
    P = parse_fpoly(DOM, "X + Y - 1")
    with pytest.raises(ValueError, match="reseed"):
        homotopy_start(P, P)


def test_svg_renders_parse():
    C = line_curve()
    for text in (render_fine_curve(C), render_trop(trop_project(C))):
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        assert len(list(root.iter())) > 3

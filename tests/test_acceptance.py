"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line on the live terminal so the
run log shows one line per criterion; the assertions carry the details.
"""

import random
import time
from fractions import Fraction

from finetrop.fields import QQ, QQi, gauss
from finetrop.hyperfields import (
    K,
    P,
    PHI,
    S,
    W,
    check_axioms,
    field_hyperfield,
    hom_sign,
    make_dir,
    quotient_build,
)
from finetrop.extension import TropicalExtension, trop, trop_signed
from finetrop.parsing import parse_fpoly
from finetrop.poly import hpoly1, is_root, pushforward
from finetrop.series import SeriesDomain, fmt_series, hom_fval, hom_sval, hom_val
from finetrop.solve import (
    fundamental_harness,
    kapranov_harness,
    mult_bound_check,
    rac_check_instance,
    random_hpoly,
    random_linear_system,
    roots_univariate,
)
from finetrop.tropgeo import (
    Interval,
    fine_hypersurface,
    fine_intersect,
    homotopy_start,
    stable_intersect,
)

from intersect_oracle import oracle_intersect_series
from newton_oracle import tropical_mult_oracle

DOM = SeriesDomain(QQ)
FVAL = hom_fval()


def example_system():
    P_ = parse_fpoly(DOM, "X + Y - 1")
    Q_ = parse_fpoly(DOM, "t*X + (1 + t^2)*Y + 1")
    return P_, Q_


def report(capsys, num: int, label: str, failures: list, elapsed=None, bound=None):
    verdict = "PASS" if not failures else "FAIL"
    timing = ""
    if elapsed is not None:
        timing = f" {elapsed:.1f}s" + (f"/{bound:.0f}s" if bound is not None else "")
    with capsys.disabled():
        print(f"criterion {num} [{verdict}] {label}{timing}")
    assert not failures, failures


def test_criterion_1_line_intersection_end_to_end(capsys):
    failures = []
    t0 = time.perf_counter()
    P_, Q_ = example_system()
    C1 = fine_hypersurface(pushforward(FVAL, P_))
    C2 = fine_hypersurface(pushforward(FVAL, Q_))
    pts, comps = fine_intersect(C1, C2)
    got = [[(e.coef, tuple(e.level.coords)) for e in p.coords] for p in pts]
    if got != [[(Fraction(2), (Fraction(0),)),
                (Fraction(-1), (Fraction(0),))]] or comps:
        failures.append(f"fine intersection: {got}, {comps}")
    if stable_intersect(C1, C2) != [(Fraction(0), Fraction(0))]:
        failures.append("stable projection differs")
    (x, y), opts = oracle_intersect_series(P_, Q_, prec=3)
    if fmt_series(x) != "2 + 2*t + t^2 + O(t^3)":
        failures.append(f"oracle x: {fmt_series(x)}")
    if fmt_series(y) != "-1 + -2*t + -1*t^2 + O(t^3)":
        failures.append(f"oracle y: {fmt_series(y)}")
    if len(opts) != 1 or opts[0].coords[0].coef != Fraction(2):
        failures.append("oracle fine point differs")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    report(capsys, 1, "line intersection end to end", failures)


def test_criterion_2_fine_line_golden_cells(capsys):
    failures = []
    C = fine_hypersurface(pushforward(FVAL, parse_fpoly(DOM, "X + Y - 1")))
    ray_pos = Interval(Fraction(0), True, None, False)
    ray_neg = Interval(None, False, Fraction(0), True)
    golden = {
        ((0, 0), (0, 1)): (1, (1, 0), ray_pos, "Y + -1"),
        ((0, 0), (1, 0)): (1, (0, 1), ray_pos, "X + -1"),
        ((0, 1), (1, 0)): (1, (1, 1), ray_neg, "X + Y"),
        ((0, 0), (0, 1), (1, 0)): (0, None, None, "X + Y + -1"),
    }
    by_J = {c.J: c for c in C.cells}
    if set(by_J) != set(golden):
        failures.append(f"cell index sets: {sorted(by_J)}")
    for J, (dim, v, iv, cond) in golden.items():
        c = by_J.get(J)
        if c is None:
            continue
        if (c.dim, c.line_v, c.interval, repr(c.base_cond)) != (dim, v, iv, cond):
            failures.append(f"cell {J}: {c.dim}, {c.line_v}, {c.interval}, "
                            f"{c.base_cond!r}")
    vertex = by_J.get(((0, 0), (0, 1), (1, 0)))
    if vertex and vertex.point != (Fraction(0), Fraction(0)):
        failures.append(f"vertex at {vertex.point}")
    report(capsys, 2, "fine tropical line golden cells", failures)


def test_criterion_3_overlap_component_and_stable_limit(capsys):
    failures = []
    _, Q_ = example_system()
    C1 = fine_hypersurface(pushforward(FVAL, parse_fpoly(DOM, "X + Y + 1")))
    C2 = fine_hypersurface(pushforward(FVAL, Q_))
    pts, comps = fine_intersect(C1, C2)
    if pts:
        failures.append(f"unexpected isolated points {pts}")
    if len(comps) != 1:
        failures.append(f"{len(comps)} components")
    else:
        cd = comps[0]
        # The ray {((c_X, g_X), (-1, 0)) : g_X > 0}: x-level free and
        # positive, y pinned to unit -1 at level 0 by the constraint Y + 1.
        if cd.line_v != (1, 0) or cd.interval != Interval(Fraction(0), True,
                                                          None, False):
            failures.append(f"component geometry {cd.line_v}, {cd.interval}")
        if not all(repr(c) == "Y + 1" for c in cd.unit_constraints):
            failures.append(f"component constraints {cd.unit_constraints}")
    stables = {tuple(stable_intersect(C1, C2))}
    if stables != {((Fraction(0), Fraction(0)),)}:
        failures.append(f"stable results {stables}")
    report(capsys, 3, "one-dimensional overlap and stable limit", failures)


def test_criterion_4_kapranov_harness(capsys):
    failures = []
    t0 = time.perf_counter()
    for hom in (hom_val(), hom_sval(), hom_fval()):
        fails = kapranov_harness(hom, random.Random(4), trials=200)
        if fails:
            failures.append(f"{hom.name}: {fails[:3]}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    report(capsys, 4, "push-forward root harness (val, sval, fval)", failures,
           elapsed, 30.0)


def test_criterion_5_fundamental_harness(capsys):
    failures = []
    t0 = time.perf_counter()
    rng = random.Random(11)
    systems = [random_linear_system(DOM, rng) for _ in range(50)]
    systems.append(example_system())
    for hom in (hom_fval(), hom_val()):
        fails = fundamental_harness(hom, systems)
        if fails:
            failures.append(f"{hom.name}: {fails[:3]}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    report(capsys, 5, "linear system intersection harness (fval, val)",
           failures, elapsed, 10.0)


def test_criterion_6_axioms_and_sign_witness(capsys):
    failures = []
    for H in (K, S, W, quotient_build(5, [1, 4]), quotient_build(7, [1, 2, 4])):
        fails = check_axioms(H)
        if fails:
            failures.append(f"{H.name}: {fails[:3]}")
    rng = random.Random(6)
    sampled = (P, PHI, trop(), trop_signed(),
               TropicalExtension(field_hyperfield(QQ), 1))
    for H in sampled:
        fails = check_axioms(H, rng, samples=1000)
        if fails:
            failures.append(f"{H.name}: {fails[:3]}")
    if W.is_stringent():
        failures.append("W reported stringent")
    sp = hpoly1(S, {2: 1, 1: -1, 0: 1})
    if not is_root(sp, (1,)):
        failures.append("+1 is not a root of the pushed quadratic over S")
    qp = hpoly1(field_hyperfield(QQ),
                {2: Fraction(1), 1: Fraction(-1), 0: Fraction(1)})
    res = rac_check_instance(hom_sign(), qp, 1)
    if res.status != "counterexample":
        failures.append(f"lift check returned {res.status}")
    report(capsys, 6, "axiom suite and non-liftable sign root", failures)


def test_criterion_7_multiplicity(capsys):
    failures = []
    t0 = time.perf_counter()
    T = trop()
    rng = random.Random(7)
    for trial in range(100):
        p = random_hpoly(T, rng, deg=rng.randint(2, 6))
        for r in roots_univariate(p):
            if r.root is None:
                continue
            want = tropical_mult_oracle(p, r.root.level)
            if r.multiplicity != want:
                failures.append(
                    f"trial {trial}: {p} at {r.root}: {r.multiplicity} != {want}")
    hyperfields = (K, S, trop(), trop_signed(),
                   quotient_build(5, [1, 2, 3, 4]), quotient_build(5, [1]))
    for H in hyperfields:
        fails = mult_bound_check(H, random.Random(7), trials=50, deg=6)
        if fails:
            failures.append(f"{H.name}: {fails[:3]}")
    report(capsys, 7, "multiplicity oracle and degree bound", failures,
           time.perf_counter() - t0)


def test_criterion_8_phase_root_arc(capsys):
    failures = []
    p = hpoly1(P, {2: P.one(), 1: P.one(), 0: P.one()})
    inside = [make_dir(-1, k) for k in range(-10, 10)]
    outside = [make_dir(1, k) for k in range(-10, 10)]
    assert len(inside) == 20 and len(outside) == 20
    for d in inside:
        if not is_root(p, (d,)):
            failures.append(f"{d} should be a root")
    for d in outside:
        if is_root(p, (d,)):
            failures.append(f"{d} should not be a root")
    report(capsys, 8, "phase quadratic root arc", failures)


def test_criterion_9_homotopy_start_systems(capsys):
    failures = []
    P_, Q_ = example_system()
    sols, cells, rep = homotopy_start(P_, Q_)
    if rep != {"cells": 1, "mixed_volume": 1, "start_solutions": 1}:
        failures.append(f"line system report {rep}")
    dom = SeriesDomain(QQi)
    P2 = parse_fpoly(dom, "X^2 - Y", nvars=2)
    Q2 = parse_fpoly(dom, "Y + 1", nvars=2)
    sols2, cells2, rep2 = homotopy_start(P2, Q2)
    if rep2["mixed_volume"] != 2 or len(sols2) != 2:
        failures.append(f"quadratic system report {rep2}")
    hp = pushforward(hom_fval(QQi), P2)
    hq = pushforward(hom_fval(QQi), Q2)
    for s in sols2:
        if not (is_root(hp, s.coords) and is_root(hq, s.coords)):
            failures.append(f"start solution {s} misses an initial system")
    got = {tuple(e.coef for e in s.coords) for s in sols2}
    if got != {(gauss(0, 1), gauss(-1)), (gauss(0, -1), gauss(-1))}:
        failures.append(f"start solutions {got}")
    report(capsys, 9, "homotopy start systems and mixed volume", failures)

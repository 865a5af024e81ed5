"""The benchmark's workloads: seeded inputs, one item at a time, checks.

Each workload is built from a seed and a namespace ``ft`` of finetrop's
modules (``ft.modules`` lists them all).  Construction generates the
inputs (this is part of the measured set-up); ``run(k)`` performs item
``k`` and returns its output;
``check(k, out)`` returns a list of problems found by checks of the
benchmark's own; ``canon(out)`` renders the output as canonical text for
the digest.  Item ``k`` depends only on the seed and ``k``.

Calls into finetrop always go through module attributes (``ft.solve.x``,
never a saved reference), so that spans installed by the tracer see them.
"""

from __future__ import annotations

import random
from fractions import Fraction

from tracing import Tap


def item_rng(name: str, seed: int, k: int) -> random.Random:
    # String seeds are hashed with SHA-512, so the stream is the same on
    # every platform and under every PYTHONHASHSEED.
    return random.Random(f"{name}:{seed}:{k}")


def _rng_for(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}:inputs")


class Workload:
    name: str
    digest_items: int  # items of the default seed hashed before timing
    trace_items: int   # items in each pass of a traced run
    period: int        # items in one round of the workload's rotation
    tap = None

    def close(self) -> None:
        """Remove the workload's tap, if it installed one."""
        if self.tap is not None:
            self.tap.remove()


class Kapranov(Workload):
    """One item is one trial of the Kapranov push-forward harness.

    The trial is the body of ``kapranov_harness``, run through the same
    public functions: random series roots, their product, its push-forward
    and ``roots_univariate``, whose root multiset must equal the images of
    the roots.  Homomorphisms rotate over val, sval and fval, and the
    number of factors follows the schedule 1..5 for each of them instead
    of being drawn: the cost grows steeply with the degree under fval, and
    a drawn degree made the work in a run swing with the seed.
    """

    name = "kapranov"
    digest_items = 30
    trace_items = 30
    period = 15  # every (homomorphism, number of factors) once
    max_factors = 5
    denom = 4

    def __init__(self, ft, seed: int):
        self.ft = ft
        self.seed = seed
        self.homs = (ft.series.hom_val(), ft.series.hom_sval(),
                     ft.series.hom_fval())

    def run(self, k: int):
        ft = self.ft
        hom = self.homs[k % 3]
        dom = hom.source
        rng = item_rng(self.name, self.seed, k)
        n = 1 + (k // 3) % self.max_factors
        roots = [ft.solve.random_series_root(dom.field, rng, self.denom)
                 for _ in range(n)]
        p = ft.poly.product_of_linear_factors(dom, roots)
        hp = ft.poly.pushforward(hom, ft.poly.fpoly(dom, 1, p.coeffs))
        return hom, roots, hp, ft.solve.roots_univariate(hp)

    def check(self, k: int, out) -> list[str]:
        hom, roots, hp, recs = out
        H = hom.target
        problems = []
        got: dict[str, int] = {}
        for r in recs:
            got[H.fmt(r.root)] = got.get(H.fmt(r.root), 0) + r.multiplicity
            if not self.ft.poly.is_root(hp, (r.root,)):
                problems.append(f"{H.fmt(r.root)} is not a root of {hp}")
        want: dict[str, int] = {}
        for a in roots:
            want[H.fmt(hom(a))] = want.get(H.fmt(hom(a)), 0) + 1
        if got != want:
            problems.append(f"roots of {hp}: got {got}, want {want}")
        return problems

    def canon(self, out) -> str:
        hom, _, hp, recs = out
        roots = sorted((hom.target.fmt(r.root), r.multiplicity) for r in recs)
        return f"{hom.name}|{hp}|{roots}"


class Fundamental(Workload):
    """One item is one 2x2 linear system through ``fundamental_harness``.

    Items alternate fval and val, two consecutive items sharing a system.
    The systems come from ``random_linear_system``, rejection loop
    included.  Their exponents, which set the cost of ``series_inv``, are
    drawn once from a fixed stream; the seed draws every coefficient.  A
    system's cost spans three orders of magnitude with its exponents, so
    exponents drawn per seed made the work in a run swing by half; and a
    run always covers whole passes over the systems, or a slower host
    would see a different share of the expensive ones.  The
    isolated points of the harness's fine intersection are read through a
    tap, checked again here and digested.
    """

    name = "fundamental"
    digest_items = 16
    trace_items = 16
    pool = 64
    period = 2 * pool  # runs end on a whole pass over the fixed exponents
    prec = 8

    def __init__(self, ft, seed: int):
        self.ft = ft
        QQ = ft.fields.QQ
        dom = ft.series.SeriesDomain(QQ)
        shapes = random.Random(f"{self.name}:exponents")
        rng = _rng_for(self.name, seed)

        def recoefficient(p):
            coeffs = {}
            for d, s in p.coeffs.items():
                terms = []
                for e, _ in s.terms:
                    c = Fraction(0)
                    while c == 0:
                        c = QQ.random(rng)
                    terms.append((e, c))
                coeffs[d] = ft.series.series(QQ, terms)
            return ft.poly.fpoly(dom, 2, coeffs)

        self.systems = []
        for _ in range(self.pool):
            P, Q = ft.solve.random_linear_system(dom, shapes)
            self.systems.append((recoefficient(P), recoefficient(Q)))
        self.homs = (ft.series.hom_fval(), ft.series.hom_val())
        self.tap = Tap(ft.modules, ft.tropgeo.fine_intersect)

    def run(self, k: int):
        hom = self.homs[k % 2]
        system = self.systems[(k // 2) % len(self.systems)]
        fails = self.ft.solve.fundamental_harness(hom, [system], prec=self.prec)
        (C1, C2), (pts, comps) = self.tap.take()
        return hom, fails, C1.source, C2.source, pts, comps

    def check(self, k: int, out) -> list[str]:
        hom, fails, hp, hq, pts, _ = out
        problems = list(fails)
        if len(pts) != 1:
            problems.append(f"{len(pts)} isolated points, want 1")
        is_root = self.ft.poly.is_root
        for pt in pts:
            if not (is_root(hp, pt.coords) and is_root(hq, pt.coords)):
                problems.append(f"point {pt} misses a pushed line")
        return problems

    def canon(self, out) -> str:
        hom, _, hp, hq, pts, comps = out
        H = hom.target
        points = sorted(tuple(H.fmt(c) for c in pt.coords) for pt in pts)
        return f"{hom.name}|{hp}|{hq}|{points}|{len(comps)}"


def _cell_point(cell) -> tuple[Fraction, Fraction]:
    """A point of the relative interior of a fine cell."""
    if cell.dim == 0:
        return cell.point
    iv = cell.interval
    if iv.lo is not None and iv.hi is not None:
        t = (iv.lo + iv.hi) / 2
    elif iv.lo is not None:
        t = iv.lo + 1
    elif iv.hi is not None:
        t = iv.hi - 1
    else:
        t = Fraction(0)
    return cell.param_at(t)


def _argmin_support(p, g) -> tuple:
    """Exponents d minimising level(c_d) + d.g, found by direct evaluation."""
    vals = {d: c.level.coords[0] + d[0] * g[0] + d[1] * g[1]
            for d, c in p.coeffs.items()}
    m = min(vals.values())
    return tuple(sorted(d for d, v in vals.items() if v == m))


class Curves(Workload):
    """One item is a pair of dense cubics: two fine curves and their meet.

    Every coefficient of the ten monomials of degree at most 3 is a random
    monomial series.  Items alternate val and sval, two consecutive items
    sharing a pair; both bases have finitely many units, so every pair
    solves.
    """

    name = "curves"
    digest_items = 6
    trace_items = 6
    period = 2
    pool = 64
    degree = 3

    def __init__(self, ft, seed: int):
        self.ft = ft
        QQ = ft.fields.QQ
        dom = ft.series.SeriesDomain(QQ)
        rng = _rng_for(self.name, seed)
        support = [(i, j) for i in range(self.degree + 1)
                   for j in range(self.degree + 1 - i)]

        def monomial_series():
            c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
            e = Fraction(rng.randint(-4, 8), rng.randint(1, 3))
            return ft.series.series(QQ, [(e, c)])

        def cubic():
            return ft.poly.fpoly(dom, 2, {d: monomial_series() for d in support})

        self.pairs = [(cubic(), cubic()) for _ in range(self.pool)]
        self.homs = (ft.series.hom_val(), ft.series.hom_sval())

    def run(self, k: int):
        ft = self.ft
        hom = self.homs[k % 2]
        P, Q = self.pairs[(k // 2) % len(self.pairs)]
        hp = ft.poly.pushforward(hom, P)
        hq = ft.poly.pushforward(hom, Q)
        C1 = ft.tropgeo.fine_hypersurface(hp)
        C2 = ft.tropgeo.fine_hypersurface(hq)
        pts, comps = ft.tropgeo.fine_intersect(C1, C2)
        return hom, C1, C2, pts, comps

    def check(self, k: int, out) -> list[str]:
        _, C1, C2, pts, _ = out
        problems = []
        is_root = self.ft.poly.is_root
        for pt in pts:
            for C in (C1, C2):
                if not is_root(C.source, pt.coords):
                    problems.append(f"point {pt} is not on {C.source}")
        for C in (C1, C2):
            for cell in C.cells:
                J = _argmin_support(C.source, _cell_point(cell))
                if J != cell.J:
                    problems.append(f"cell {cell.J}: argmin at its point is {J}")
        return problems

    def canon(self, out) -> str:
        hom, C1, C2, pts, comps = out
        H = hom.target
        curves = []
        for C in (C1, C2):
            curves.append(sorted(
                (c.J, c.dim, c.point, c.line_p0, c.line_v, c.interval,
                 repr(c.base_cond)) for c in C.cells))
        points = sorted(tuple(H.fmt(c) for c in pt.coords) for pt in pts)
        comp_text = sorted((c.line_p0, c.line_v, c.interval, c.note)
                           for c in comps)
        return f"{hom.name}|{curves}|{points}|{comp_text}"


class Phases(Workload):
    """Phase arithmetic: evaluation items interleaved with axiom samples.

    Items rotate over P, Phi and TC = Phi x| Q.  Every fourth round of
    three is a sampled ``check_axioms`` on each hyperfield; the other
    items evaluate a pre-generated univariate polynomial at several
    points with ``eval_poly`` and ``is_root``.  Each value is checked
    against a Gaussian-rational lift: the phase of the lifted value must
    lie in the set the program returns.
    """

    name = "phases"
    digest_items = 48
    trace_items = 48
    period = 12  # nine evaluations, then an axiom sample on each field
    pool = 960
    points = 6
    axiom_samples = 24

    def __init__(self, ft, seed: int):
        self.ft = ft
        self.seed = seed
        hf = ft.hyperfields
        self.fields = (hf.P, hf.PHI, ft.extension.trop_complex())
        rng = _rng_for(self.name, seed)
        self.inputs = [self._make_input(rng, self.fields[i % 3])
                       for i in range(self.pool)]

    @staticmethod
    def _unit(H, rng):
        while True:
            x = H.random_element(rng)
            if not H.is_zero(x):
                return x

    def _make_input(self, rng, H):
        deg = rng.randint(2, 5)
        coeffs = {i: self._unit(H, rng) for i in range(deg + 1)
                  if i in (0, deg) or rng.random() < 0.7}
        p = self.ft.poly.hpoly1(H, coeffs)
        xs = [H.random_element(rng) for _ in range(self.points)]
        return p, xs

    def run(self, k: int):
        ft = self.ft
        rounds, i = divmod(k, self.period)
        if i >= 9:
            H = self.fields[i % 3]
            rng = item_rng(self.name, self.seed, k)
            return ("axioms", H, ft.hyperfields.check_axioms(
                H, rng, samples=self.axiom_samples))
        p, xs = self.inputs[(9 * rounds + i) % len(self.inputs)]
        values = [(ft.poly.eval_poly(p, (x,)), ft.poly.is_root(p, (x,)))
                  for x in xs]
        return ("eval", p, xs, values)

    def check(self, k: int, out) -> list[str]:
        if out[0] == "axioms":
            return list(out[2])
        _, p, xs, values = out
        H = p.hyperfield
        rng = item_rng(self.name + ":lift", self.seed, k)
        problems = []
        for x, (S, root) in zip(xs, values):
            if root != H.set_contains_zero(S):
                problems.append(f"is_root and eval_poly disagree at {x}")
            for _ in range(2):
                img = self._lifted_value(p, x, rng)
                if not H.set_contains(S, img):
                    problems.append(f"lifted value {img} of {p} at {x} not in {S}")
        return problems

    def _lifted_value(self, p, x, rng):
        """Image of a random Gaussian-integer lift of p evaluated at x.

        A phase dir(a, b) lifts to s*(a + b i) with s a random positive
        integer; over TC an element (dir, g) lifts to that times t^g and
        only the lowest exponent with a nonzero coefficient survives.
        """
        ext = isinstance(p.hyperfield, self.ft.extension.TropicalExtension)

        def lift(e):
            d, g = (e.coef, e.level.coords[0]) if ext else (e, Fraction(0))
            s = rng.randint(1, 5)
            return (s * d.p, s * d.q), g

        def mul(z, w):
            return (z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0])

        by_exp: dict[Fraction, tuple[int, int]] = {}
        if p.hyperfield.is_zero(x):
            monomials = [(d[0], c) for d, c in p.coeffs.items() if d[0] == 0]
            xl = None
        else:
            monomials = [(d[0], c) for d, c in p.coeffs.items()]
            xl = lift(x)
        for i, c in monomials:
            z, g = lift(c)
            for _ in range(i):
                z = mul(z, xl[0])
            g = g + i * xl[1] if i else g
            acc = by_exp.get(g, (0, 0))
            by_exp[g] = (acc[0] + z[0], acc[1] + z[1])
        hf = self.ft.hyperfields
        for g in sorted(by_exp):
            a, b = by_exp[g]
            if a or b:
                d = hf.make_dir(a, b)
                if ext:
                    return self.ft.extension.ExtElem(d, self.ft.ordgroup.gelem(g))
                return d
        return None

    def canon(self, out) -> str:
        if out[0] == "axioms":
            return f"axioms|{out[1].name}|{out[2]}"
        _, p, xs, values = out
        H = p.hyperfield
        return f"eval|{p}|{[H.fmt(x) for x in xs]}|{values}"


WORKLOADS = {w.name: w for w in (Kapranov, Fundamental, Curves, Phases)}

"""Reference multiplicities by branching synthetic division, extensions included.

This is the search ``finetrop.solve.multiplicity`` ran over tropical
extensions before it reduced to the initial form at the Newton cell.  It is
kept only as a slow, independent oracle for the tests.

Over an extension the quotient coefficients are set-valued with infinite
tails, so the search branches on a finite candidate list: the boundary
elements of each set value, zero, and units at the finitely many levels
``level(c_i) + m * level(a)``.  Over finite bases every unit appears at
those levels; over field bases a pool of products of the polynomial's
coefficients with powers of ``a`` stands in for the units.
"""

from __future__ import annotations

from finetrop.extension import ExtElem, TropicalExtension
from finetrop.ordgroup import group_add, scalar_mul
from finetrop.poly import hpoly1, is_root
from finetrop.solve import DEFAULT_DEGREE_BOUND


def search_multiplicity(p, a, bound: int = DEFAULT_DEGREE_BOUND, _memo=None) -> int:
    """Root multiplicity via 1 + max over synthetic-division quotients."""
    H = p.hyperfield
    coeffs = {d[0]: c for d, c in p.coeffs.items()}
    if not coeffs:
        return 0
    n = max(coeffs)
    if n > bound:
        raise ValueError(f"degree {n} exceeds the bound {bound}")
    if not is_root(p, (a,)):
        return 0
    if _memo is None:
        _memo = {}
    key = (tuple(sorted(coeffs.items(), key=lambda kv: kv[0])), a)
    if key in _memo:
        return _memo[key]
    if _is_zero(H, a):
        # Dividing by X shifts the coefficients down by one.
        q = hpoly1(H, {i - 1: c for i, c in coeffs.items() if i >= 1})
        m = 1 + search_multiplicity(q, a, bound, _memo)
    else:
        m = 1 + max((search_multiplicity(hpoly1(H, qc), a, bound, _memo)
                     for qc in _quotients(H, coeffs, n, a)), default=0)
    _memo[key] = m
    return m


def _is_zero(H, x) -> bool:
    return x is None or H.is_zero(x)


def _candidates(H, S, a, coeffs, level_pool):
    """Finite candidate list from a set value, restricting infinite tails."""
    if not isinstance(H, TropicalExtension):
        return H.set_elements(S)
    if not S.tail:
        return H.set_elements(S)
    out: list = [None]
    if S.level is not None:
        for c in H.base.set_elements(S.base_sv):
            out.append(ExtElem(c, S.level))
        units = H.base.units()
        if units is None:
            units = _field_unit_pool(H, a, coeffs)
        for lev in level_pool:
            if S.level < lev:
                out.extend(ExtElem(u, lev) for u in units)
    return out


def _field_unit_pool(E: TropicalExtension, a: ExtElem, coeffs) -> list:
    # Finite stand-in for field-base units: products of known coefficients.
    base = E.base
    pool = {base.one(), base.neg(base.one())}
    for c in (c.coef for c in coeffs.values()):
        for m in (-2, -1, 0, 1, 2):
            v = base.mul(c, base.power(a.coef, m))
            pool.add(v)
            pool.add(base.neg(v))
    return [x for x in pool if not base.is_zero(x)]


def _level_pool(coeffs, a: ExtElem) -> set:
    n = max(coeffs)
    return {group_add(c.level, scalar_mul(m, a.level))
            for c in coeffs.values() for m in range(-(n + 1), n + 2)}


def _quotients(H, coeffs, n: int, a):
    """All quotient coefficient assignments compatible with division."""
    neg_a = H.neg(a)
    pool = _level_pool(coeffs, a) if isinstance(H, TropicalExtension) else set()
    results: list[dict] = []
    seen: set = set()

    def rec(i: int, q: dict):
        # q[i] decided for i..n-1; decide q[i-1] from c_i in q_{i-1} + (-a) q_i.
        if i == 0:
            c0 = coeffs.get(0)
            q0 = q.get(0)
            if q0 is None:
                ok = c0 is None
            else:
                ok = c0 is not None and c0 == H.mul(neg_a, q0)
            if ok:
                keyq = tuple(sorted((k, v) for k, v in q.items() if v is not None))
                if keyq not in seen:
                    seen.add(keyq)
                    results.append({k: v for k, v in q.items() if v is not None})
            return
        ci = coeffs.get(i)
        qi = q.get(i)
        shifted = H.zero() if qi is None else H.mul(a, qi)
        if ci is None and (qi is None or H.is_zero(shifted)):
            S = H.singleton(H.zero()) if qi is None else H.singleton(shifted)
        elif ci is None:
            S = H.singleton(shifted)
        elif qi is None:
            S = H.singleton(ci)
        else:
            S = H.add(ci, shifted)
        for choice in _candidates(H, S, a, coeffs, pool):
            q[i - 1] = None if _is_zero(H, choice) else choice
            rec(i - 1, q)
        q.pop(i - 1, None)

    rec(n - 1, {n - 1: coeffs[n]})  # the leading coefficient is forced
    return results

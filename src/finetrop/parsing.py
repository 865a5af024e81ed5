"""Expression parsing for hyperfield elements, series, and polynomials.

A small recursive-descent parser over a shared tokenizer.  The grammar
mirrors the pretty-printers, so parse(pretty(x)) round-trips: rationals
`p/q`, Gaussian rationals `a+bi`, phases `dir(p,q)`, extension pairs
`(c, g)` with `inf`/`0` for the absorbing element, series
`c*t^(p/q) + ... + O(t^p)`, and polynomials in `X, Y, Z` or `X1..Xn`.
Unicode operator aliases from the notation of the subject area are
normalized before tokenizing.  Gaussian sums, series and polynomials are
all sums of signed terms, read by one loop; a parenthesized series
coefficient is read in place by the series grammar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

from .extension import TropicalExtension, trop, trop_complex, trop_signed
from .fields import GF, GaussRat, QQ, QQi
from .hyperfields import (
    FieldHyperfield,
    Hyperfield,
    K,
    P,
    PHI,
    PhaseHyperfield,
    QuotientHyperfield,
    S,
    W,
    make_dir,
    quotient_build,
)
from .ordgroup import gelem
from .poly import FPoly, HPoly, fmt_monomial, fpoly, hpoly
from .series import SeriesDomain, SeriesTrunc, series


class ParseError(ValueError):
    """Syntax or domain error, with the offending position."""

    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


_ALIASES = {
    "−": "-",   # minus sign
    "⊞": "+",   # boxed plus
    "⊙": "*",   # circled dot
    "⋊": "x|",  # right semidirect product
}

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(.))")


def _normalize(text: str) -> str:
    for k, v in _ALIASES.items():
        text = text.replace(k, v)
    return text


@dataclass
class _Tok:
    kind: str  # "int" | "name" | "sym" | "end"
    text: str
    pos: int


class _Lexer:
    def __init__(self, text: str):
        self.text = _normalize(text)
        self.pos = 0
        self.toks: list[_Tok] = []
        self._scan()
        self.i = 0

    def _scan(self):
        pos = 0
        while pos < len(self.text):
            m = _TOKEN_RE.match(self.text, pos)
            if not m or m.end() == pos:
                break
            if m.group(1) is not None:
                self.toks.append(_Tok("int", m.group(1), m.start(1)))
            elif m.group(2) is not None:
                self.toks.append(_Tok("name", m.group(2), m.start(2)))
            else:
                ch = m.group(3)
                if not ch.isspace():
                    self.toks.append(_Tok("sym", ch, m.start(3)))
            pos = m.end()
        self.toks.append(_Tok("end", "", len(self.text)))

    def peek(self, ahead: int = 0) -> _Tok:
        j = min(self.i + ahead, len(self.toks) - 1)
        return self.toks[j]

    def next(self) -> _Tok:
        t = self.peek()
        if t.kind != "end":
            self.i += 1
        return t

    def expect(self, kind: str, text: Optional[str] = None) -> _Tok:
        t = self.next()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {t.text!r}", t.pos)
        return t

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[_Tok]:
        t = self.peek()
        if t.kind == kind and (text is None or t.text == text):
            return self.next()
        return None

    def at_end(self) -> bool:
        return self.peek().kind == "end"


# ---------------------------------------------------------------------------
# Numeric literals


def _parse_uint(lx: _Lexer) -> int:
    return int(lx.expect("int").text)


def _parse_int(lx: _Lexer) -> int:
    sign = -1 if lx.accept("sym", "-") else 1
    return sign * _parse_uint(lx)


def _parse_rational(lx: _Lexer) -> Fraction:
    num = _parse_int(lx)
    if lx.accept("sym", "/"):
        den = _parse_uint(lx)
        if den == 0:
            raise ParseError("zero denominator", lx.peek().pos)
        return Fraction(num, den)
    return Fraction(num)


def _signed_terms(lx: _Lexer, term, sign: int) -> list:
    """Terms joined by `+` and `-`: the first is term(sign), each later one
    term(1) after a `+` or term(-1) after a `-`.  Stops at the first token
    that joins no further term; the caller checks what follows."""
    out = [term(sign)]
    while True:
        if lx.accept("sym", "+"):
            out.append(term(1))
        elif lx.accept("sym", "-"):
            out.append(term(-1))
        else:
            return out


def _parse_gauss(lx: _Lexer, greedy: bool) -> GaussRat:
    # Sum of terms from {a, b*i, i, a/b i}, each after an optional minus.
    # In polynomial or series context only a single term is read
    # (multi-term Gaussians must be parenthesized there), so the sum's own
    # +/- is not swallowed.
    def term(sign: int) -> GaussRat:
        if lx.accept("sym", "-"):
            sign = -sign
        if lx.accept("name", "i"):
            return GaussRat(Fraction(0), Fraction(sign))
        mag = _parse_rational(lx) * sign
        if lx.accept("name", "i"):
            return GaussRat(Fraction(0), mag)
        if lx.peek().text == "*" and lx.peek(1).text == "i":
            lx.next()
            lx.next()
            return GaussRat(Fraction(0), mag)
        return GaussRat(mag, Fraction(0))

    if not greedy:
        return term(1)
    terms = _signed_terms(lx, term, 1)
    return GaussRat(sum(z.re for z in terms), sum(z.im for z in terms))


def _field_scalar(field, lx: _Lexer, greedy: bool):
    """An element of Q, Q(i) or GF(p): a rational, a Gaussian rational (a
    sum of terms when ``greedy``, else one term), or an integer mod p."""
    if field is QQ:
        return _parse_rational(lx)
    if field is QQi:
        return _parse_gauss(lx, greedy)
    return field.from_int(_parse_int(lx))


def _parse_dir(lx: _Lexer):
    lx.expect("name", "dir")
    lx.expect("sym", "(")
    p = _parse_int(lx)
    lx.expect("sym", ",")
    q = _parse_int(lx)
    lx.expect("sym", ")")
    if p == 0 and q == 0:
        raise ParseError("dir(0,0) is not a direction", lx.peek().pos)
    return make_dir(p, q)


def _require_end(lx: _Lexer):
    t = lx.peek()
    if t.kind != "end":
        raise ParseError(f"unexpected trailing {t.text!r}", t.pos)


# ---------------------------------------------------------------------------
# Hyperfield keys


def hyperfield_by_name(key: str) -> Hyperfield:
    """Resolve a hyperfield key: K, S, W, P, Phi, Q, Qi, GF<p>,
    GF<p>/{u1,...}, T, TR, TC, T^k, or <base>x|Q[^k]."""
    key = _normalize(key).replace(" ", "")
    if key == "T" or key == "K":
        return trop() if key == "T" else K
    fixed = {
        "S": S, "W": W, "P": P, "Phi": PHI,
        "Q": FieldHyperfield(QQ), "Qi": FieldHyperfield(QQi),
        "TR": trop_signed(), "TC": trop_complex(),
    }
    if key in fixed:
        return fixed[key]
    m = re.fullmatch(r"T\^(\d+)", key)
    if m:
        return trop(int(m.group(1)))
    m = re.fullmatch(r"GF(\d+)", key)
    if m:
        return FieldHyperfield(GF(int(m.group(1))))
    m = re.fullmatch(r"GF(\d+)/\{(\d+(?:,\d+)*)\}", key)
    if m:
        return quotient_build(int(m.group(1)),
                              [int(u) for u in m.group(2).split(",")])
    m = re.fullmatch(r"(.+?)x\|?Q(?:\^(\d+))?", key)
    if m:
        base = hyperfield_by_name(m.group(1))
        rank = int(m.group(2)) if m.group(2) else 1
        return TropicalExtension(base, rank)
    raise ValueError(f"unknown hyperfield key {key!r}")


# ---------------------------------------------------------------------------
# Elements


def _parse_base_elem(H: Hyperfield, lx: _Lexer, greedy: bool = True):
    if isinstance(H, PhaseHyperfield):
        if lx.accept("sym", "-"):
            if lx.peek().kind == "name":
                return H.neg(_parse_dir(lx))
            t = lx.expect("int")
            if t.text == "1":
                return H.neg(H.one())
            raise ParseError("phase elements are dir(p,q), 1, -1 or 0", t.pos)
        if lx.peek().kind == "name" and lx.peek().text == "dir":
            return _parse_dir(lx)
        t = lx.expect("int")
        if t.text == "0":
            return None
        if t.text == "1":
            return H.one()
        raise ParseError("phase elements are dir(p,q), 1, -1 or 0", t.pos)
    if isinstance(H, FieldHyperfield):
        return _field_scalar(H.field, lx, greedy)
    # K, S, W, quotients: small integer representatives; a quotient's are
    # the fixed points of its ``rep``.
    n = _parse_int(lx)
    if not (H.rep(n) == n if isinstance(H, QuotientHyperfield)
            else n in H.elements()):
        raise ParseError(f"{n} is not an element of {H.name}", lx.peek().pos)
    return n


def _parse_ext_pair(E: TropicalExtension, lx: _Lexer):
    """`(c, g_1, ..., g_k)` for an extension of rank k: (c, level)."""
    lx.expect("sym", "(")
    coef = _parse_base_elem(E.base, lx)
    levels = []
    for _ in range(E.rank):
        lx.expect("sym", ",")
        levels.append(_parse_rational(lx))
    lx.expect("sym", ")")
    return coef, gelem(*levels)


def _parse_ext_elem(E: TropicalExtension, lx: _Lexer):
    if lx.accept("name", "inf"):
        return None
    if lx.peek().kind == "int" and lx.peek().text == "0" \
            and lx.peek(1).kind == "end":
        lx.next()
        return None
    pos = lx.peek().pos
    coef, level = _parse_ext_pair(E, lx)
    if coef is None or E.base.is_zero(coef):
        raise ParseError("extension coefficient must be a base unit", pos)
    return E.elem(coef, level)


def parse_elem(key, text: str):
    """Parse one element of the named (or given) hyperfield."""
    H = hyperfield_by_name(key) if isinstance(key, str) else key
    lx = _Lexer(text)
    if isinstance(H, TropicalExtension):
        x = _parse_ext_elem(H, lx)
    else:
        x = _parse_base_elem(H, lx)
    _require_end(lx)
    return x


# ---------------------------------------------------------------------------
# Series


def _parse_exponent(lx: _Lexer) -> Fraction:
    if lx.accept("sym", "("):
        e = _parse_rational(lx)
        lx.expect("sym", ")")
        return e
    return Fraction(_parse_int(lx))


def _t_power(lx: _Lexer) -> Fraction:
    """The exponent of `t` or `t^e`, read after the `t`."""
    return _parse_exponent(lx) if lx.accept("sym", "^") else Fraction(1)


def _parse_series(lx: _Lexer, field) -> SeriesTrunc:
    """`c*t^e + ... + O(t^p)` up to the end of input or an unmatched `)`;
    bare `t` means exponent one, and no terms at all the zero series."""
    terms: list[tuple[Fraction, Any]] = []
    prec = None

    def term(sign: int):
        nonlocal prec
        if prec is not None:
            raise ParseError("O(t^p) must be the last term", lx.peek().pos)
        if lx.accept("name", "O"):
            lx.expect("sym", "(")
            lx.expect("name", "t")
            lx.expect("sym", "^")
            prec = _parse_exponent(lx)
            lx.expect("sym", ")")
            return
        if lx.accept("name", "t"):
            terms.append((_t_power(lx), field.from_int(sign)))
            return
        if lx.accept("sym", "("):
            c = _field_scalar(field, lx, True)
            lx.expect("sym", ")")
        else:
            c = _field_scalar(field, lx, False)
        e = Fraction(0)
        if lx.accept("sym", "*"):
            lx.expect("name", "t")
            e = _t_power(lx)
        terms.append((e, field.mul(c, field.from_int(sign))))

    if not lx.at_end() and lx.peek().text != ")":
        _signed_terms(lx, term, -1 if lx.accept("sym", "-") else 1)
    return series(field, terms, prec)


def parse_series(text: str, field=QQ) -> SeriesTrunc:
    """Parse `c*t^e + ... + O(t^p)`; bare `t` means exponent one."""
    lx = _Lexer(text)
    a = _parse_series(lx, field)
    _require_end(lx)
    return a


# ---------------------------------------------------------------------------
# Polynomials


_VARSETS = {1: ["X"], 2: ["X", "Y"], 3: ["X", "Y", "Z"]}


def _var_index(name: str, nvars: int) -> Optional[int]:
    if nvars <= 3 and name in _VARSETS[min(nvars, 3)]:
        return _VARSETS[min(nvars, 3)].index(name)
    m = re.fullmatch(r"X(\d+)", name)
    if m and 1 <= int(m.group(1)) <= nvars:
        return int(m.group(1)) - 1
    return None


_UNWRITTEN = object()  # a term without a coefficient; None is 0 over P, Phi


def _parse_poly(lx: _Lexer, nvars: int, ring, coeff_literal) -> dict:
    """Polynomials as sums of terms; each term multiplies one optional
    coefficient, read by coeff_literal(), with variable powers.  ring
    supplies one() for a missing coefficient and neg() for a `-`."""
    if lx.at_end():
        raise ParseError("empty polynomial", 0)
    acc: dict[tuple, Any] = {}

    def term(sign: int):
        pos = lx.peek().pos
        expt = [0] * nvars
        coeff = _UNWRITTEN
        while True:
            t = lx.peek()
            if t.kind == "name" and _var_index(t.text, nvars) is not None:
                lx.next()
                k = _var_index(t.text, nvars)
                e = _parse_int(lx) if lx.accept("sym", "^") else 1
                expt[k] += e
            elif coeff is _UNWRITTEN and (t.kind == "int" or t.text in
                                          ("(", "dir", "i", "t", "-")):
                coeff = coeff_literal()
            else:
                break
            if not lx.accept("sym", "*"):
                break
        if coeff is _UNWRITTEN:
            if expt == [0] * nvars:
                raise ParseError("expected a term", lx.peek().pos)
            coeff = ring.one()
        if sign < 0:
            coeff = ring.neg(coeff)
        key = tuple(expt)
        if key in acc:
            raise ParseError(
                f"repeated monomial {fmt_monomial(key) or '1'}", pos)
        acc[key] = coeff

    _signed_terms(lx, term, -1 if lx.accept("sym", "-") else 1)
    _require_end(lx)
    return acc


def parse_poly(key, text: str, nvars: Optional[int] = None) -> HPoly:
    """Parse a polynomial over the named hyperfield."""
    H = hyperfield_by_name(key) if isinstance(key, str) else key
    n = nvars if nvars is not None else _guess_nvars(text)
    lx = _Lexer(text)

    def coeff_literal():
        if isinstance(H, TropicalExtension):
            if lx.peek().text != "(":
                raise ParseError("extension coefficients are written (c, g)",
                                 lx.peek().pos)
            return H.elem(*_parse_ext_pair(H, lx))
        if lx.accept("sym", "("):
            x = _parse_base_elem(H, lx)
            lx.expect("sym", ")")
            return x
        return _parse_base_elem(H, lx, greedy=False)

    return hpoly(H, n, _parse_poly(lx, n, H, coeff_literal))


def parse_fpoly(dom: SeriesDomain, text: str,
                nvars: Optional[int] = None) -> FPoly:
    """Parse a polynomial with truncated-series coefficients."""
    n = nvars if nvars is not None else _guess_nvars(text)
    lx = _Lexer(text)
    F = dom.field

    def coeff_literal():
        if lx.accept("sym", "("):
            # A full series literal in parentheses.
            c = _parse_series(lx, F)
            lx.expect("sym", ")")
            return c
        if lx.accept("name", "t"):
            return series(F, {_t_power(lx): F.one()})
        return series(F, {Fraction(0): _field_scalar(F, lx, False)})

    return fpoly(dom, n, _parse_poly(lx, n, dom, coeff_literal))


def _guess_nvars(text: str) -> int:
    text = _normalize(text)
    names = set(re.findall(r"[A-Za-z_][A-Za-z_0-9]*", text))
    nums = [int(m.group(1)) for n in names
            if (m := re.fullmatch(r"X(\d+)", n))]
    if nums:
        return max(nums)
    if "Z" in names:
        return 3
    if "Y" in names:
        return 2
    return 1

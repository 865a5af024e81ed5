"""Command-line front end.

Every subcommand emits a JSON object on standard output (rationals are
serialized as strings so nothing is rounded); SVG output goes to --out.
Runs are deterministic given inputs and --seed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Any, Optional

from .extension import TropicalExtension
from .hyperfields import Hyperfield, check_axioms
from .parsing import (
    ParseError,
    hyperfield_by_name,
    parse_elem,
    parse_fpoly,
    parse_poly,
)
from .poly import HPoly, eval_poly, pushforward
from .series import hom_by_name
from .solve import (
    BaseSolveError,
    fundamental_harness,
    kapranov_harness,
    mult_bound_check,
    random_linear_system,
    roots_univariate,
)
from .svg import render_fine_curve
from .tropgeo import (
    fine_hypersurface,
    fine_intersect,
    homotopy_start,
    stable_intersect,
)


def _elem_json(H, a) -> Any:
    if isinstance(H, TropicalExtension):
        if a is None:
            return "inf"
        return [H.base.fmt(a.coef)] + [str(c) for c in a.level.coords]
    return H.fmt(a)


def _point_json(H, coords) -> list:
    return [_elem_json(H, c) for c in coords]


def _interval_json(iv) -> Optional[dict]:
    if iv is None:
        return None
    return {
        "lo": None if iv.lo is None else str(iv.lo),
        "lo_strict": iv.lo_strict,
        "hi": None if iv.hi is None else str(iv.hi),
        "hi_strict": iv.hi_strict,
    }


def _cell_json(c) -> dict:
    out = {
        "J": [list(d) for d in c.J],
        "dim": c.dim,
        "base_condition": str(c.base_cond),
    }
    if c.dim == 0:
        out["point"] = list(map(str, c.point))
    else:
        out["p0"] = list(map(str, c.line_p0))
        out["v"] = list(c.line_v)
        out["interval"] = _interval_json(c.interval)
    return out


def _emit(obj: dict, args) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _fmt_set(H: Hyperfield, S) -> str:
    if isinstance(H, TropicalExtension):
        parts = []
        if S.level is not None:
            lev = ",".join(str(c) for c in S.level.coords)
            base = H.base
            try:
                els = sorted(base.fmt(x) for x in base.set_elements(S.base_sv))
                parts.append("{" + ", ".join(f"({e}, {lev})" for e in els) + "}")
            except (ValueError, NotImplementedError):
                parts.append(f"{{(c, {lev}) : {S.base_sv}}}")
            if S.tail:
                parts.append(f"{{(c, g) : g > {lev}}}")
        if S.zero:
            parts.append("{inf}")
        return " u ".join(parts) if parts else "{}"
    try:
        return "{" + ", ".join(sorted(H.fmt(x) for x in H.set_elements(S))) + "}"
    except (ValueError, NotImplementedError):
        return str(S)


# ---------------------------------------------------------------------------
# Subcommands


def _load_poly_arg(arg: str, args, nvars: Optional[int] = None) -> HPoly:
    if arg.endswith(".json"):
        with open(arg) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{arg}: expected a JSON object, found "
                             f"{type(data).__name__}")
        for key in ("hyperfield", "poly"):
            if not isinstance(data.get(key), str):
                raise ValueError(f"{arg}: no string field {key!r}")
        return parse_poly(data["hyperfield"], data["poly"], nvars=nvars)
    if not args.hyperfield:
        raise ValueError("--hyperfield is required for inline expressions")
    return parse_poly(args.hyperfield, arg, nvars=nvars)


def cmd_eval(args) -> int:
    H = hyperfield_by_name(args.hyperfield)
    p = parse_poly(H, args.poly)
    point = tuple(parse_elem(H, t) for t in args.point)
    val = eval_poly(p, point)
    _emit({
        "poly": str(p),
        "point": [H.fmt(x) for x in point],
        "value": _fmt_set(H, val),
        "contains_zero": H.set_contains_zero(val),
    }, args)
    return 0


def cmd_roots(args) -> int:
    H = hyperfield_by_name(args.hyperfield)
    p = parse_poly(H, args.poly, nvars=1)
    recs = roots_univariate(p)
    _emit({
        "poly": str(p),
        "roots": [
            {"root": _elem_json(H, r.root), "multiplicity": r.multiplicity,
             "provenance": r.provenance}
            for r in recs
        ],
    }, args)
    return 0


def cmd_pushforward(args) -> int:
    f = hom_by_name(args.hom, args.field)
    p = parse_fpoly(f.source, args.poly)
    hp = pushforward(f, p)
    _emit({
        "hom": f.name,
        "poly": args.poly,
        "pushforward": str(hp),
        "hyperfield": hp.hyperfield.name,
    }, args)
    return 0


def cmd_fine_curve(args) -> int:
    p = _load_poly_arg(args.poly, args, nvars=2)
    C = fine_hypersurface(p)
    if args.format == "svg":
        svg = render_fine_curve(C)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(svg + "\n")
        else:
            print(svg)
        return 0
    _emit({
        "source": str(p),
        "cells": [_cell_json(c) for c in C.cells],
    }, args)
    return 0


def cmd_intersect(args) -> int:
    if args.hom:
        f = hom_by_name(args.hom, args.field)
        hp, hq = (pushforward(f, parse_fpoly(f.source, a, nvars=2))
                  for a in (args.P, args.Q))
    else:
        hp = _load_poly_arg(args.P, args, nvars=2)
        hq = _load_poly_arg(args.Q, args, nvars=2)
    H = hp.hyperfield
    C1, C2 = fine_hypersurface(hp), fine_hypersurface(hq)
    pts, comps = fine_intersect(C1, C2)
    out: dict[str, Any] = {
        "points": [_point_json(H, pt.coords) for pt in pts],
        "components": [
            {
                "p0": None if c.line_p0 is None else list(map(str, c.line_p0)),
                "v": None if c.line_v is None else list(c.line_v),
                "interval": _interval_json(c.interval),
                "note": c.note,
            }
            for c in comps
        ],
    }
    if args.stable:
        proj = stable_intersect(C1, C2)
        out["stable"] = [list(map(str, g)) for g in proj]
    _emit(out, args)
    return 0


def cmd_homotopy_start(args) -> int:
    f = hom_by_name("fval", args.field)
    sols, cells, report = homotopy_start(
        *[parse_fpoly(f.source, a, nvars=2) for a in (args.P, args.Q)])
    out = {
        "report": report,
        "cells": [
            {
                "point": list(map(str, c.point)),
                "J1": [list(d) for d in c.J1],
                "J2": [list(d) for d in c.J2],
                "volume": c.volume,
            }
            for c in cells
        ],
        "solutions": [_point_json(f.target, s.coords) for s in sols],
    }
    _emit(out, args)
    return 0


def _verdict(args, instance: str, expected: str, fails: list, **extra) -> int:
    """Emit a check's verdict, with the first ten failures; exit 1 on any."""
    _emit({"instance": instance, "expected": expected, "got": fails[:10],
           "status": "fail" if fails else "pass", **extra}, args)
    return 1 if fails else 0


def cmd_verify(args) -> int:
    rng = random.Random(args.seed)
    if args.target == "multbound":
        H = hyperfield_by_name(args.hyperfield or "T")
        fails = mult_bound_check(H, rng, trials=args.trials)
        return _verdict(args, f"multbound:{H.name}", "0 failures", fails)
    f = hom_by_name(args.hom or "fval")
    if args.target == "kapranov":
        fails = kapranov_harness(f, rng, trials=args.trials)
    else:
        fails = fundamental_harness(f, [random_linear_system(f.source, rng)
                                        for _ in range(args.trials)])
    return _verdict(args, f"{args.target}:{f.name}", "0 failures", fails)


def cmd_axioms(args) -> int:
    H = hyperfield_by_name(args.hyperfield)
    fails = check_axioms(H, random.Random(args.seed), samples=args.samples)
    return _verdict(args, f"axioms:{H.name}", "0 violations", fails,
                    stringent=H.is_stringent())


# ---------------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="finetrop",
        description="Exact hyperfield and fine tropical geometry computations.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("eval", help="evaluate a polynomial at a point")
    p.add_argument("--hyperfield", required=True)
    p.add_argument("poly")
    p.add_argument("point", nargs="+")
    p.set_defaults(fn=cmd_eval)

    p = add_parser("roots", help="univariate roots with multiplicities")
    p.add_argument("--hyperfield", required=True)
    p.add_argument("poly")
    p.set_defaults(fn=cmd_roots)

    for name, hom in (("pushforward", "fval"), ("tropicalize", "val")):
        p = add_parser(name, help=f"{name} of a series polynomial")
        p.add_argument("--hom", default=hom)
        p.add_argument("--field", choices=["Q", "Qi"])
        p.add_argument("poly")
        p.set_defaults(fn=cmd_pushforward)

    p = add_parser("fine-curve", help="cells of a fine tropical curve")
    p.add_argument("--hyperfield")
    p.add_argument("--format", choices=["json", "svg"], default="json")
    p.add_argument("poly")
    p.set_defaults(fn=cmd_fine_curve)

    p = add_parser("intersect", help="fine intersection of two curves")
    p.add_argument("--hyperfield")
    p.add_argument("--hom")
    p.add_argument("--field", choices=["Q", "Qi"])
    p.add_argument("--stable", action="store_true")
    p.add_argument("P")
    p.add_argument("Q")
    p.set_defaults(fn=cmd_intersect)

    p = add_parser("homotopy-start", help="polyhedral homotopy start system")
    p.add_argument("--field", choices=["Q", "Qi"])
    p.add_argument("P")
    p.add_argument("Q")
    p.set_defaults(fn=cmd_homotopy_start)

    p = add_parser("verify", help="run a verification harness")
    p.add_argument("target", choices=["kapranov", "fundamental", "multbound"])
    p.add_argument("--hom")
    p.add_argument("--hyperfield")
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(fn=cmd_verify)

    p = add_parser("axioms", help="check the hyperfield axioms")
    p.add_argument("--hyperfield", required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.set_defaults(fn=cmd_axioms)

    return ap


def main(argv=None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    # Exact answers can have more digits than Python's int <-> str limit
    # (4300 by default).  Lift it for this call only: callers that run main
    # in-process keep their own limit.
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        return args.fn(args)
    except (ParseError, BaseSolveError, ValueError, OSError) as e:
        json.dump({"error": type(e).__name__, "message": str(e)},
                  sys.stdout, indent=2, sort_keys=True)
        print()
        return 2
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())

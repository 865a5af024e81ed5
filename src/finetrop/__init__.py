"""Exact computations with hyperfields, tropical extensions, enriched
valuations, and fine tropical plane curves."""

from .extension import ExtElem, TropicalExtension, trop, trop_complex, trop_signed
from .fields import GF, GaussRat, QQ, QQi, gauss
from .hyperfields import (
    Hom,
    Hyperfield,
    K,
    P,
    PHI,
    S,
    W,
    check_axioms,
    field_hyperfield,
    hom_check,
    hom_phase,
    hom_sign,
    hom_sign_weak,
    hom_trivial,
    make_dir,
    quotient_build,
)
from .ordgroup import GroupElem, gelem, gzero
from .parsing import hyperfield_by_name, parse_elem, parse_poly, parse_series
from .poly import HPoly, eval_poly, hpoly, hpoly1, is_root, pushforward
from .series import (
    SeriesDomain,
    SeriesTrunc,
    hom_fval,
    hom_phval,
    hom_sval,
    hom_val,
    series,
)
from .solve import multiplicity, newton_cells, roots_univariate
from .tropgeo import (
    FineCurve,
    FinePoint,
    fine_hypersurface,
    fine_intersect,
    homotopy_start,
    stable_intersect,
    trop_project,
)

__version__ = "0.1.0"

# Written out, by module: the README's API sketch and the hyperfields,
# polynomials, valuations and curves the CLI works with.
__all__ = [
    "ExtElem", "TropicalExtension", "trop", "trop_complex", "trop_signed",
    "GF", "GaussRat", "QQ", "QQi", "gauss",
    "Hom", "Hyperfield", "K", "P", "PHI", "S", "W", "check_axioms",
    "field_hyperfield", "hom_check", "hom_phase", "hom_sign", "hom_sign_weak",
    "hom_trivial", "make_dir", "quotient_build",
    "GroupElem", "gelem", "gzero",
    "hyperfield_by_name", "parse_elem", "parse_poly", "parse_series",
    "HPoly", "eval_poly", "hpoly", "hpoly1", "is_root", "pushforward",
    "SeriesDomain", "SeriesTrunc", "hom_fval", "hom_phval", "hom_sval",
    "hom_val", "series",
    "multiplicity", "newton_cells", "roots_univariate",
    "FineCurve", "FinePoint", "fine_hypersurface", "fine_intersect",
    "homotopy_start", "stable_intersect", "trop_project",
]

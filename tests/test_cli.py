"""Command line interface: JSON shapes, exit codes, and determinism."""

import json
import sys

import pytest

from finetrop.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_roots_json(capsys):
    code, out = run(capsys, "roots", "--hyperfield", "T",
                    "X^2 + (1, 3)")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["roots"]) == 1
    rec = doc["roots"][0]
    assert rec["root"] == ["1", "3/2"]
    assert rec["multiplicity"] == 2


def test_roots_degree_bound_is_on_the_initial_form(capsys):
    # Each cell's initial form 1 + x^5 is within the bound of 8, though the
    # polynomial has degree 10; 1 + x^9 is its own initial form.
    code, out = run(capsys, "roots", "--hyperfield", "T",
                    "(1,0)*X^10 + (1,0)*X^5 + (1,20)")
    assert code == 0
    got = [(rec["root"], rec["multiplicity"]) for rec in json.loads(out)["roots"]]
    assert got == [(["1", "0"], 5), (["1", "4"], 5)]
    code, out = run(capsys, "roots", "--hyperfield", "T", "(1,0)*X^9 + (1,0)")
    assert code == 2
    assert json.loads(out)["message"] == "degree 9 exceeds the bound 8"


def test_eval_phase(capsys):
    code, out = run(capsys, "eval", "--hyperfield", "P",
                    "X^2 + X + 1", "dir(-1, 1)")
    doc = json.loads(out)
    assert code == 0
    assert doc["contains_zero"] is True
    code, out = run(capsys, "eval", "--hyperfield", "P",
                    "X^2 + X + 1", "dir(1, 1)")
    assert json.loads(out)["contains_zero"] is False


def test_eval_drops_a_written_zero_coefficient_over_phases(capsys):
    for key in ("P", "Phi"):
        code, out = run(capsys, "eval", "--hyperfield", key,
                        "0*X + 1", "dir(-1,0)")
        doc = json.loads(out)
        assert code == 0
        assert doc["poly"] == "dir(1,0)" and doc["value"] == "{dir(1,0)}"
        assert doc["contains_zero"] is False


def test_axioms_reports_stringency(capsys):
    code, out = run(capsys, "axioms", "--hyperfield", "W")
    doc = json.loads(out)
    assert code == 0 and doc["status"] == "pass"
    assert doc["stringent"] is False
    code, out = run(capsys, "axioms", "--hyperfield", "S")
    assert json.loads(out)["stringent"] is True


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_axioms_refuse_to_sample_no_triple(capsys, samples):
    # P is infinite, so its triples are sampled: checking none must not pass.
    code, out = run(capsys, "axioms", "--hyperfield", "P", "--samples", samples)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "ValueError" and "samples" in doc["message"]


def test_axioms_of_a_small_finite_hyperfield_ignore_samples(capsys):
    # 3^3 triples are checked exhaustively, whatever --samples says.
    code, out = run(capsys, "axioms", "--hyperfield", "S", "--samples", "0")
    assert code == 0 and json.loads(out)["status"] == "pass"


def test_pushforward_and_tropicalize(capsys):
    code, out = run(capsys, "pushforward", "X + Y - 1")
    doc = json.loads(out)
    assert code == 0
    assert doc["hyperfield"] == "Qx|Q"
    code, out = run(capsys, "tropicalize", "X + Y - 1")
    assert json.loads(out)["hyperfield"] == "Kx|Q"


def test_intersect_stable(capsys):
    code, out = run(capsys, "intersect", "--hom", "fval", "--stable",
                    "X + Y - 1", "t*X + (1 + t^2)*Y + 1")
    doc = json.loads(out)
    assert code == 0
    assert doc["points"] == [[["2", "0"], ["-1", "0"]]]
    assert doc["components"] == []
    assert doc["stable"] == [["0", "0"]]


def test_homotopy_start_cli(capsys):
    code, out = run(capsys, "homotopy-start", "--field", "Qi",
                    "X^2 - Y", "Y + 1")
    doc = json.loads(out)
    assert code == 0
    assert doc["report"] == {"cells": 1, "mixed_volume": 2,
                             "start_solutions": 2}
    assert sorted(s[0][0] for s in doc["solutions"]) == ["-1i", "1i"]


def test_fine_curve_svg(capsys, tmp_path):
    out_file = tmp_path / "curve.svg"
    code, _ = run(capsys, "fine-curve", "--hyperfield", "T",
                  "--format", "svg", "--out", str(out_file),
                  "X + Y + (1, 0)")
    assert code == 0
    assert out_file.read_text().startswith("<svg")


def test_svg_labels_escape_like_saxutils():
    # The svg module escapes by hand so that importing it does not load
    # urllib.request (and http, email, ssl) through xml.sax.saxutils.
    import os
    import subprocess
    from pathlib import Path
    from xml.sax.saxutils import escape

    import finetrop
    from finetrop.svg import _escape

    for text in ("a<b>&c", "&amp;", "<<>>&&", "", "K{1} & S<W>"):
        assert _escape(text) == escape(text)
    probe = ("import sys, finetrop.cli; "
             "print(sorted(m for m in ('urllib.request', 'http.client', 'ssl', "
             "'email') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(Path(finetrop.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[]"


def test_verify_multbound(capsys):
    code, out = run(capsys, "verify", "multbound", "--hyperfield", "TR",
                    "--trials", "10")
    doc = json.loads(out)
    assert code == 0 and doc["status"] == "pass"


@pytest.mark.parametrize("name", ["Q", "P"])
def test_verify_multbound_needs_finitely_many_units(capsys, name):
    # Q has no unit list to scan and P's root sets are arcs: both are
    # refused up front with a JSON error, not a traceback or failed trials.
    code, out = run(capsys, "verify", "multbound", "--hyperfield", name,
                    "--trials", "3")
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "BaseSolveError" and "units" in doc["message"]


def test_parse_error_exit_code(capsys):
    code, out = run(capsys, "roots", "--hyperfield", "T", "X^2 +")
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "ParseError"


def test_determinism(capsys):
    args = ("intersect", "--hom", "fval", "--stable", "--seed", "3",
            "X + Y + 1", "t*X + (1 + t^2)*Y + 1")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_plane_curve_commands_read_two_variables(capsys):
    # Neither curve needs to mention Y to be a plane curve.
    code, out = run(capsys, "intersect", "--hyperfield", "Qx|Q",
                    "(-8, 0) + (1, 0)*X^3", "(-1, 0) + (1, 0)*X*Y")
    assert code == 0
    assert json.loads(out)["points"] == [[["2", "0"], ["1/2", "0"]]]
    code, out = run(capsys, "fine-curve", "--hyperfield", "Qx|Q",
                    "(1, 0)*X + (1, 2)")
    assert code == 0
    (cell,) = json.loads(out)["cells"]
    assert (cell["J"], cell["p0"], cell["v"]) == ([[0, 0], [1, 0]], ["2", "0"], [0, 1])


def test_intersect_finds_odd_roots_of_imaginary_units(capsys):
    # X^3 = i and XY = 1 over Q(i): (-i)^3 = i, so the point is (-i, i).
    code, out = run(capsys, "intersect", "--hyperfield", "Qix|Q",
                    "(-i, 0) + (1, 0)*X^3", "(-1, 0) + (1, 0)*X*Y")
    assert code == 0
    assert json.loads(out)["points"] == [[["-1i", "0"], ["1i", "0"]]]


def test_intersect_common_factor_is_a_component(capsys):
    # X + Y divides Y^2 + X*Y: on the binomial u = -v the affine condition
    # u + v vanishes, so the shared line is a family, not an empty meet.
    for hf in ("Qx|Q", "Qix|Q"):
        code, out = run(capsys, "intersect", "--hyperfield", hf,
                        "(1, 0)*X + (1, 0)*Y", "(1, 0)*Y^2 + (1, 0)*X*Y")
        assert code == 0
        doc = json.loads(out)
        assert doc["points"] == []
        assert [(c["p0"], c["v"]) for c in doc["components"]] == [(["0", "0"], [1, 1])]


def test_intersect_single_term_residual_has_no_points(capsys):
    # On u = -v/2 the affine condition u + v leaves the single term v/2,
    # which has no unit root over Q(i), as over Q.
    for hf in ("Qx|Q", "Qix|Q"):
        code, out = run(capsys, "intersect", "--hyperfield", hf,
                        "(1, 0)*X + (1, 0)*Y", "(1, 0)*Y^2 + (2, 0)*X*Y")
        assert code == 0
        assert json.loads(out) == {"components": [], "points": []}


def test_format_is_a_fine_curve_option(capsys, tmp_path):
    out_file = tmp_path / "r.svg"
    with pytest.raises(SystemExit) as exc:
        main(["roots", "--hyperfield", "T", "--format", "svg",
              "--out", str(out_file), "X^2 + (1, 3)"])
    assert exc.value.code == 2
    assert not out_file.exists()


def test_inline_poly_without_hyperfield_is_a_json_error(capsys):
    code, out = run(capsys, "fine-curve", "X + Y")
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "ValueError" and "--hyperfield" in doc["message"]
    # verify targets are checked by argparse, also with exit code 2.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "curves"])
    assert exc.value.code == 2


def test_eval_point_of_the_wrong_arity_is_a_json_error(capsys):
    code, out = run(capsys, "eval", "--hyperfield", "T",
                    "X*Y + (1,0)", "(1,0)")
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "ValueError" and "2 variables" in doc["message"]


def test_eval_laurent_monomial_at_zero_is_a_json_error(capsys):
    # A negative exponent at a zero coordinate raises in either variable
    # order, even when another zero coordinate would kill the monomial.
    for args in (("X^-1 + (1,0)", "inf"),
                 ("X*Y^-1 + (1,0)", "inf", "inf"),
                 ("X^-1*Y + (1,0)", "inf", "inf")):
        code, out = run(capsys, "eval", "--hyperfield", "T", *args)
        assert code == 2, args
        doc = json.loads(out)
        assert doc["error"] == "ZeroPowerError" and "negative" in doc["message"]


def test_intersect_with_the_zero_polynomial_is_a_json_error(capsys):
    # Every point of the line lies on the zero curve, so an empty answer
    # would be wrong; the zero polynomial is refused instead.
    for pair in (("0", "X - Y"), ("X - Y", "0")):
        code, out = run(capsys, "intersect", "--hom", "fval", "--stable", *pair)
        assert code == 2, pair
        doc = json.loads(out)
        assert doc == {"error": "ValueError", "message": "zero polynomial"}


def test_verify_kapranov_over_a_phase_base_is_one_error(capsys):
    # phval lands in Phi x| Q, whose base cannot be solved over: one
    # BaseSolveError up front, not a failed report with an error per trial.
    code, out = run(capsys, "verify", "kapranov", "--hom", "phval",
                    "--trials", "3")
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "BaseSolveError" and "Phi" in doc["message"]


def test_eval_prints_values_beyond_the_int_str_limit(capsys):
    # 2^20000 has 6,021 digits, more than Python's default limit of 4300
    # for int <-> str; main lifts it for its own call only.
    limit = sys.get_int_max_str_digits()
    code, out = run(capsys, "eval", "--hyperfield", "Q", "X^20000", "2")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    digits = json.loads(out)["value"][1:-1]
    assert len(digits) == 6021 and digits.isdigit()
    assert int(digits[-40:]) == pow(2, 20000, 10**40)

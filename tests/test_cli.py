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


BIG = "100000000"
TOO_BIG = f"degree {BIG} exceeds the bound 8"


@pytest.mark.parametrize("argv, code, key, want", [
    pytest.param(["roots", "--hyperfield", "T", f"(1,0)*X^{BIG} + (1,0)"],
                 2, "message", TOO_BIG, id="roots-T"),
    pytest.param(["roots", "--hyperfield", "Qx|Q", f"(1,0)*X^{BIG} + (-1,0)"],
                 2, "message", TOO_BIG, id="roots-Q"),
    pytest.param(["roots", "--hyperfield", "GF7/{1,2,4}x|Q",
                  f"(1,0)*X^{BIG} + (1,0)"],
                 2, "message", TOO_BIG, id="roots-GF7-quotient"),
    pytest.param(["eval", "--hyperfield", "T", f"X^{BIG}", "(1, 2)"],
                 0, "value", "{(1, 200000000)}", id="eval-T"),
    pytest.param(["eval", "--hyperfield", "K", f"X^{BIG}", "1"],
                 0, "value", "{1}", id="eval-K"),
    pytest.param(["eval", "--hyperfield", "GF7/{1,2,4}", f"X^{BIG}", "3"],
                 0, "value", "{1}", id="eval-GF7-quotient"),
    pytest.param(["eval", "--hyperfield", "P", f"X^{BIG}", "dir(0,1)"],
                 0, "value", "{dir(1,0)}", id="eval-P-i"),
    pytest.param(["eval", "--hyperfield", "P", "X^100000", "dir(3,4)"],
                 0, "contains_zero", False, id="eval-P-growing"),
    pytest.param(["intersect", "--hyperfield", "Qx|Q",
                  "(1,0)*X^100000001 + (-2,0)*Y", "(1,0)*Y + (-1,0)"],
                 0, "points", [], id="intersect-Q-binomial"),
    pytest.param(["intersect", "--hyperfield", "Qx|Q",
                  "(1,0)*X^10000000000*Y + (-4,0)", "(1,0)*X*Y + (-2,0)"],
                 0, "points", [], id="intersect-Q-binomial-pair"),
    pytest.param(["intersect", "--hyperfield", "Qx|Q", "(1,0)*X*Y^2 + (-2,0)",
                  "(1,0)*X^10000000000 + (1,0)*Y + (1,0)"],
                 2, "message", "power 10000000000 of 2 exceeds 100000",
                 id="intersect-Q-power-bound"),
    pytest.param(["intersect", "--hyperfield", "Qx|Q", "(1,0)*X*Y + (-1,0)",
                  "(1,0)*X^100000000 + (1,0)*Y + (1,0)"],
                 2, "message",
                 "rational root search: degree 100000001 exceeds 100000",
                 id="intersect-Q-degree-bound"),
    pytest.param(["intersect", "--hyperfield", "Qx|Q",
                  "(1,0)*X*Y^10000000000 + (-1,0)", "(1,0)*Y^2 + (-4,0)"],
                 2, "message", "power -10000000000 of 2 exceeds 100000",
                 id="intersect-Q-back-substitution-bound"),
])
def test_large_exponents_answer_in_time(argv, code, key, want):
    # Work grows with the number of terms and the size of the answer, not
    # with a written exponent: each of these once ran for minutes.
    _answers_in_time(argv, code, key, want)


@pytest.mark.parametrize("argv", [
    pytest.param(["axioms", "--hyperfield", "GF100003x|Q", "--samples", "3000"],
                 id="GF100003-extension"),
    pytest.param(["axioms", "--hyperfield", "GF100003/{1}x|Q", "--samples", "300"],
                 id="GF100003-quotient-extension"),
])
def test_large_prime_draws_answer_in_time(argv):
    # A random draw builds no list of the p elements: each draw once copied
    # (and filtered) them, and these ran for 10 s to over a minute.
    _answers_in_time(argv, 0, "status", "pass")


@pytest.mark.parametrize("argv, code, key, want", [
    pytest.param(["eval", "--hyperfield", "GF2305843009213693951", "X + 1", "3"],
                 0, "value", "{4}", id="GF-2^61-1"),
    pytest.param(["eval", "--hyperfield", "GF3317044064679887385961981",
                  "X + 1", "3"],
                 2, "error", "ValueError", id="GF-at-the-primality-bound"),
])
def test_large_prime_keys_answer_in_time(argv, code, key, want):
    # Primality is Miller-Rabin on 13 bases, exact below the bound; trial
    # division up to the square root of 2^61 - 1 ran for minutes.
    _answers_in_time(argv, code, key, want)


@pytest.mark.parametrize("P, Q, want", [
    pytest.param("(1,0)*X^2 + (1,0)*X*Y + (1,0)*X", "(1,0)*Y + (-2,0)*X",
                 [[["-1/3", "0"], ["-2/3", "0"]]], id="translated-affine"),
    pytest.param("(1,0)*X^2*Y^3 + (-4,0)", "(1,0)*X + (1,0)*Y + (-3,0)",
                 [[["2", "0"], ["1", "0"]]], id="binomial-without-unit-exponent"),
])
def test_field_base_pairs_of_any_binomial_answer(P, Q, want):
    # X (X + Y + 1) with Y = 2X, and X^2 Y^3 = 4 with X + Y = 3: each once
    # exited 2 as a shape outside the solvers of affine and binomial pairs.
    _answers_in_time(["intersect", "--hyperfield", "Qx|Q", P, Q], 0,
                     "points", want)


def _answers_in_time(argv, code, key, want):
    """Run the CLI in a subprocess that must exit within 10 s."""
    import os
    import subprocess
    from pathlib import Path

    import finetrop

    env = {**os.environ, "PYTHONPATH": str(Path(finetrop.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "finetrop.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == code, proc.stderr
    assert json.loads(proc.stdout)[key] == want


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


@pytest.mark.parametrize("argv, code, key, want", [
    pytest.param(["pushforward", "--hom", "phval", "X + 1"],
                 0, "pushforward", "(dir(1,0), 0)*X + (dir(1,0), 0)",
                 id="pushforward-phval"),
    pytest.param(["pushforward", "--hom", "fval", "--field", "Qi",
                  "(1+2i)*X + 1"],
                 0, "hom", "fval:Qi((t))->Qix|Q", id="pushforward-fval-Qi"),
    pytest.param(["intersect", "--hom", "phval", "X + Y - 1",
                  "t*X + (1 + t^2)*Y + 1"],
                 2, "error", "BaseSolveError", id="intersect-phval"),
    pytest.param(["intersect", "--hom", "fval", "--field", "Qi", "X + Y - 1",
                  "t*X + (1 + t^2)*Y + 1"],
                 0, "points", [[["2", "0"], ["-1", "0"]]],
                 id="intersect-fval-Qi"),
    pytest.param(["tropicalize", "--hom", "sval", "--field", "Qi", "X + 1"],
                 2, "message", "sval takes series over Q, not Qi",
                 id="tropicalize-sval-Qi"),
])
def test_series_are_read_over_the_source_of_the_hom(capsys, argv, code, key,
                                                    want):
    # --field picks the field of val and fval; sval is over Q and phval
    # over Qi only.  The polynomial is parsed over the hom's own source, so
    # the two cannot disagree: these ran into tracebacks or printed Gaussian
    # coefficients under a hom from Q((t)).
    got, out = run(capsys, *argv)
    assert (got, json.loads(out)[key]) == (code, want)


def test_intersect_stable(capsys):
    code, out = run(capsys, "intersect", "--hom", "fval", "--stable",
                    "X + Y - 1", "t*X + (1 + t^2)*Y + 1")
    doc = json.loads(out)
    assert code == 0
    assert doc["points"] == [[["2", "0"], ["-1", "0"]]]
    assert doc["components"] == []
    assert doc["stable"] == [["0", "0"]]


@pytest.mark.parametrize("argv, key, want", [
    pytest.param(["intersect", "--hom", "fval", "--stable", "X + Y - 1",
                  "t*X + (1 + t^2)*Y + 1"],
                 "stable", [["0", "0"]], id="readme"),
    pytest.param(["intersect", "--hyperfield", "T", "--stable",
                  "(1,0)*X + (1,0)*Y + (1,0)", "(1,1)*X + (1,0)*Y + (1,0)"],
                 "stable", [["0", "0"]], id="overlap-over-K"),
    pytest.param(["intersect", "--hyperfield", "Qx|Q", "--stable",
                  "(1,0)*X^2 + (-2,0)", "(1,0)*Y + (-1,0)"],
                 "stable", [["0", "0"]], id="no-rational-point"),
    pytest.param(["homotopy-start", "Y - Y^2", "-9 + Y + X^3"], "report",
                 {"cells": 1, "mixed_volume": 3, "start_solutions": 1},
                 id="one-rational-cube-root"),
    pytest.param(["homotopy-start", "Y - Y^2", "1 + Y + X^3"], "report",
                 {"cells": 1, "mixed_volume": 3, "start_solutions": 0},
                 id="no-rational-cube-root"),
])
def test_stable_points_and_volumes_need_no_base_solution(capsys, argv, key,
                                                         want):
    # The stable intersection is where cells meet transversally, and a
    # mixed cell's volume is its mixed area, whether or not the base field
    # holds a solution: an overlap over K, X^2 = 2 and X^3 = -2 over Q.
    # X^3 = 8 on Y = 1 has one rational root of the Bernstein count 3.
    code, out = run(capsys, *argv)
    assert (code, json.loads(out)[key]) == (0, want)


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


@pytest.mark.parametrize("argv, word", [
    (["kapranov", "--trials", "-3"], "trials must be at least 1, not -3"),
    (["fundamental", "--trials", "0"], "at least one system"),
    (["multbound", "--hyperfield", "T", "--trials", "0"],
     "trials must be at least 1, not 0"),
])
def test_verify_refuses_to_run_no_trial(capsys, argv, word):
    # A check of nothing must not pass: one ValueError naming what is
    # missing.
    code, out = run(capsys, "verify", *argv)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "ValueError" and word in doc["message"]


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


@pytest.mark.parametrize("content, error, words", [
    pytest.param(None, "FileNotFoundError", "No such file", id="missing"),
    pytest.param({"poly": "X + Y"}, "ValueError", "'hyperfield'",
                 id="no-hyperfield"),
    pytest.param({"hyperfield": "T", "poly": 3}, "ValueError", "'poly'",
                 id="poly-not-a-string"),
    pytest.param(["T", "X + Y"], "ValueError", "JSON object", id="list"),
])
def test_poly_file_errors_are_json_errors(capsys, tmp_path, content, error,
                                          words):
    path = tmp_path / "curve.json"
    if content is not None:
        path.write_text(json.dumps(content))
    code, out = run(capsys, "fine-curve", str(path))
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == error and words in doc["message"], doc


def test_unwritable_out_is_a_json_error(capsys, tmp_path):
    code, out = run(capsys, "eval", "--out", str(tmp_path / "no" / "x.json"),
                    "--hyperfield", "T", "X", "(1,2)")
    assert code == 2
    assert json.loads(out)["error"] == "FileNotFoundError"


def test_unit_family_note_prints_rationals(capsys):
    # Proportional lines meet in a family of units at their common vertex.
    code, out = run(capsys, "intersect", "--hyperfield", "Qx|Q",
                    "(1,0)*X + (1,0)*Y + (1,0)", "(2,0)*X + (2,0)*Y + (2,0)")
    assert code == 0
    notes = [c["note"] for c in json.loads(out)["components"]]
    assert notes == ["1-dimensional tropical overlap"] * 3 + [
        "unit family at (0, 0): one affine condition, one free unit"]


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

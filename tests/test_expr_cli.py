"""Expression grammar, report evaluation, and the hfi command line."""

import json
from fractions import Fraction

import pytest

from hfi import complexes
from hfi.cli import main
from hfi.cterms import MAX_CLASS_WEIGHT, realization_family
from hfi.expr import (ExpressionAST, FileAtom, IAtom, MAtom, ParseError,
                      SigmaAtom, YAtom, parse)
from hfi.localclass import I, Y
from hfi.monotone import M, to_profile
from hfi.report import MAX_ORACLE_TRUNCATION, evaluate_text
from hfi.roots import profile_from_text, profile_to_text


# ---------------------------------------------------------------- grammar


def test_parse_single_atoms():
    assert parse("Y(2)").terms == ((1, YAtom(2)),)
    assert parse("Sigma(2,3,7)").terms == ((1, SigmaAtom(2, 3, 7)),)
    assert parse("I[-2]").terms == ((1, IAtom(Fraction(-2))),)
    assert parse("I[1/2]").terms == ((1, IAtom(Fraction(1, 2))),)
    assert parse("@some/file.txt").terms == ((1, FileAtom("some/file.txt")),)


def test_parse_m_atom_pairs():
    ast = parse("M(4,0; 2,2)")
    assert ast.terms == ((1, MAtom(((Fraction(4), Fraction(0)),
                                    (Fraction(2), Fraction(2))))),)


def test_parse_signs_and_multiplicity():
    ast = parse("- Y(1) + 3*Y(2) - 2 * Sigma(2,3,5)")
    assert ast.terms == ((-1, YAtom(1)), (3, YAtom(2)),
                         (-2, SigmaAtom(2, 3, 5)))


def test_parse_leading_plus():
    assert parse("+Y(1)").terms == ((1, YAtom(1)),)


def test_parse_whitespace_insensitive():
    assert parse(" Y( 2 ) -  Y( 1 ) ") == parse("Y(2)-Y(1)")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse("Y(2) & Y(1)")
    assert e.value.position == 5
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("Y(2) +")
    with pytest.raises(ParseError):
        parse("0*Y(1)")
    with pytest.raises(ParseError):
        parse("Q(3)")


def test_ast_round_trips_through_str():
    for text in ("Y(2) - Y(1)", "2*Y(3) + I[-2]", "Sigma(2,3,7) - M(4,0; 2,2)"):
        ast = parse(text)
        assert parse(str(ast)) == ast


# ---------------------------------------------------------------- reports


def test_evaluate_basic_expression():
    r = evaluate_text("Y(2) - Y(1) + I[-2]")
    assert r.total == Y(2) - Y(1) + I(-2)
    assert (r.d, r.d_bar, r.d_under) == (4, 4, 2)
    assert r.mu_bar == -1
    assert r.rokhlin == 1
    assert r.order_verdict == "infinite order"
    assert r.oracle is None


def test_evaluate_with_oracle():
    r = evaluate_text("Y(2) - Y(1)", oracle=True)
    assert r.oracle == "agrees"


def test_evaluate_zero_class():
    r = evaluate_text("Sigma(2,3,7) - Sigma(2,3,7)")
    assert r.total.is_zero
    assert "trivial" in r.order_verdict


def test_evaluate_term_reordering_invariance():
    a = evaluate_text("Y(2) - Y(1) + Sigma(2,3,7)")
    b = evaluate_text("Sigma(2,3,7) - Y(1) + Y(2)")
    assert a.total == b.total
    assert (a.d, a.d_bar, a.d_under) == (b.d, b.d_bar, b.d_under)


def test_report_json_shape():
    r = evaluate_text("Y(1)")
    obj = json.loads(json.dumps(r.to_json()))
    assert obj["d"] == "2"
    assert obj["total"]["coeffs"] == {"1": 1}
    assert obj["rokhlin"] == 0


def test_rational_shift_has_undefined_rokhlin():
    r = evaluate_text("I[1/2]")
    assert r.rokhlin is None


# ---------------------------------------------------------------- CLI


def test_cli_eval_text(capsys):
    assert main(["eval", "Sigma(5,8,13)"]) == 0
    out = capsys.readouterr().out
    assert "d:          4" in out
    assert "d_bar:      4" in out
    assert "d_under:    2" in out
    assert "mu_bar:     -1" in out


def test_cli_eval_json(capsys):
    assert main(["eval", "Y(2) - Y(1)", "--format", "json", "--oracle"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["oracle"] == "agrees"
    assert obj["d"] == "2"


def test_cli_eval_parse_error(capsys):
    assert main(["eval", "Y(2) +"]) == 2
    assert "parse error" in capsys.readouterr().err


def test_cli_eval_oracle_size_guard(capsys):
    # 3^12 generators is over the limit: refused, not attempted
    assert main(["eval", "12*Y(1)", "--oracle"]) == 1
    assert "generators" in capsys.readouterr().err


def test_cli_eval_oracle_truncation_guard(capsys, monkeypatch):
    # N = 100006 (from the gradings) and N = 100000 (given) are over the
    # limit: refused before any expanded model is built
    def no_model(*args):
        raise AssertionError("an expanded model was built")

    monkeypatch.setattr(complexes.Expanded, "__init__", no_model)
    for argv, N in ((["Y(100000)"], 100006),
                    (["Y(1)", "--truncation", "100000"], 100000)):
        assert main(["eval", *argv, "--oracle"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"N = {N}" in err and str(MAX_ORACLE_TRUNCATION) in err


def test_cli_root_output_and_decompose(tmp_path, capsys):
    assert main(["root", "sigma", "2", "7", "15"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "coset: 0"
    assert "leaves: -8 -4 -2 -2 -4 -8" in out
    assert "angles: -10 -6 -6 -6 -10" in out

    path = tmp_path / "root.txt"
    assert main(["root", "sigma", "5", "8", "13", "-o", str(path)]) == 0
    capsys.readouterr()
    assert main(["decompose", str(path)]) == 0
    out = capsys.readouterr().out
    assert "M(4,0; 2,2)" in out
    assert "+1*Y[2]" in out and "-1*Y[1]" in out


def test_cli_decompose_class_over_weight_budget(tmp_path, capsys):
    # M(4K, 0; 4K - 2, 2; ...) decomposes to K terms +Y and K - 1 terms -Y
    K = MAX_CLASS_WEIGHT // 2 + 1
    root = M(*[(4 * K - 2 * i, 2 * i) for i in range(K)])
    path = tmp_path / "heavy.txt"
    path.write_text(profile_to_text(to_profile(root)))
    assert main(["decompose", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert str(2 * K - 1) in captured.err and str(MAX_CLASS_WEIGHT) in captured.err


def test_cli_decompose_missing_file(capsys):
    assert main(["decompose", "/nonexistent/file.txt"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "/nonexistent/file.txt" in err


def test_cli_plumbing_checks(tmp_path, capsys):
    graph = tmp_path / "e8.txt"
    lines = [f"vertex {i} -2" for i in range(1, 9)]
    lines += [f"edge {i} {i + 1}" for i in range(1, 7)] + ["edge 5 8"]
    graph.write_text("\n".join(lines) + "\n")
    assert main(["plumbing", str(graph), "--check", "negdef"]) == 0
    assert "True" in capsys.readouterr().out
    assert main(["plumbing", str(graph), "--check", "rational"]) == 0
    assert "True" in capsys.readouterr().out
    assert main(["plumbing", str(graph)]) == 0
    assert "almost rational" in capsys.readouterr().out


def test_cli_family(capsys):
    assert main(["family", "--M", "1", "--N", "1", "--d", "-2", "--mu", "0"]) == 0
    out = capsys.readouterr().out
    assert "d:       -2" in out
    assert "d_bar:   0" in out
    assert "d_under: -4" in out
    assert "mu_bar:  0" in out


def test_cli_eval_file_atom(tmp_path, capsys):
    path = tmp_path / "root.txt"
    assert main(["root", "sigma", "5", "8", "13", "-o", str(path)]) == 0
    capsys.readouterr()
    assert main(["eval", f"@{path} - Sigma(5,8,13)"]) == 0
    out = capsys.readouterr().out
    assert "total:      (0)[Δ=0]" in out


@pytest.mark.parametrize("argv", [
    ["eval", "Sigma(2,4,5)"],
    ["eval", "Y(0)"],
    ["eval", "M(0,2)"],
    ["eval", "@missing.txt"],
    ["eval", "Sigma(1009,1013,1019)"],  # alpha above MAX_SIGMA_ALPHA
    ["family", "--M", "1", "--N", "1", "--d", "1", "--mu", "0"],
    ["plumbing", "/nonexistent/graph.txt"],
    ["root", "sigma", "2", "3", "5", "-o", "/nonexistent/d/out"],
    ["eval", "99999999999*Y(1)"],  # weight sum |c_i| above MAX_CLASS_WEIGHT
    ["eval", "1000000*Y(1) - 1000000*Y(2)"],
    ["eval", "I[1/0]"],  # zero denominators
    ["eval", "M(1/0,0)"],
    ["family", "--M", "1", "--N", "1", "--d", "1/0", "--mu", "0"],
])
def test_cli_invalid_input_exits_2_with_message(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["decompose", "{profile}"], ["eval", "@{profile}"]],
                         ids=["decompose", "eval-file-atom"])
def test_cli_zero_denominator_in_a_profile_file_exits_2(argv, tmp_path, capsys):
    profile = tmp_path / "root.txt"
    profile.write_text("coset: 0\nleaves: 1/0\nangles:\n")
    assert main([a.format(profile=profile) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "1/0" in err and "Traceback" not in err


def test_zero_denominator_errors_name_the_token():
    text = "Y(1) + I[ 3/0]"
    with pytest.raises(ParseError) as e:
        parse(text)
    assert e.value.position == text.index("3/0") and "3/0" in str(e.value)
    with pytest.raises(ValueError, match="'-1/0'"):
        profile_from_text("leaves: 0 -1/0 0\nangles: -2 -2\n")
    with pytest.raises(ValueError, match="'5/0'"):
        realization_family(1, 1, "5/0", 0)

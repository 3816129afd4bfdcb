"""Expression grammar, report evaluation, and the hfi command line."""

import ast
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import hfi
from hfi import cli, complexes, localclass, report
from hfi.brieskorn import BrieskornParams, SigmaSizeError, brieskorn_root
from hfi.cli import main
from hfi.cterms import MAX_CLASS_WEIGHT, ClassWeightError, realization_family
from hfi.expr import (ExpressionAST, FileAtom, IAtom, MAtom, ParseError,
                      SigmaAtom, YAtom, parse)
from hfi.localclass import I, LocalClass, Y
from hfi.monotone import M, to_profile
from hfi.report import (OracleMismatchError, OracleSizeError, class_complex,
                        evaluate_text)
from hfi.roots import profile_from_text, profile_to_text
from test_plumbing import NOT_ALMOST_RATIONAL


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
    # each atom's position, which takes no part in equality
    assert ast.positions == (2, 11, 22)
    assert ast == ExpressionAST(ast.terms) == parse("-Y(1)+3*Y(2)-2*Sigma(2,3,5)")


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
    for text, position, message in (
            ("Sigma(2 3 5)", 8, "expected ','"),
            ("Sigma(a,3,5)", 6, "expected an unsigned integer"),
            ("M(x,0)", 2, "expected a rational (p or p/q)"),
            ("Y(1) + @", 8, "expected a file path after '@'")):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert e.value.position == position
        assert str(e.value) == f"parse error at position {position}: {message}"


def test_a_long_expression_parses_with_every_position():
    text = " + ".join(f"{k % 3 + 1}*Y({k})" for k in range(1, 20001))
    ast = parse(text)
    assert len(ast.terms) == 20000
    assert ast.terms[-1] == (3, YAtom(20000))
    assert ast.positions[-1] == text.rindex("Y(20000)")


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


def test_a_sum_of_atoms_at_the_weight_cap_evaluates():
    # the total must be built once: a running sum, re-sorting the class per
    # atom, takes about 30 s here and stands out under --durations
    text = " + ".join(f"Y({i})" for i in range(1, MAX_CLASS_WEIGHT + 1))
    r = evaluate_text(text)
    assert r.d == 144_012_000 and len(r.terms) == MAX_CLASS_WEIGHT
    assert r.total.coeffs[-1] == (MAX_CLASS_WEIGHT, 1)
    with pytest.raises(ClassWeightError):
        evaluate_text(f"{text} + Y({MAX_CLASS_WEIGHT + 1})")


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


def test_cli_eval_expression_starting_with_minus(capsys):
    # argparse reads "-Sigma(2,3,5)" as an option unless eval claims it
    assert main(["eval", "-Sigma(2,3,5)"]) == 0
    out = capsys.readouterr().out
    assert f"total:      {I(2)}" in out
    assert "d:          -2" in out
    assert main(["eval", "-Sigma(2,3,5)", "--oracle", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["total"] == I(2).to_json()
    assert obj["d"] == "-2" and obj["oracle"] == "agrees"


def test_cli_eval_parse_error(capsys):
    assert main(["eval", "Y(2) +"]) == 2
    assert "parse error" in capsys.readouterr().err


def test_cli_eval_oracle_size_guard(capsys):
    # 3^12 generators is over the limit: refused, not attempted
    assert main(["eval", "12*Y(1)", "--oracle"]) == 1
    assert "generators" in capsys.readouterr().err
    # at the engine's weight cap the count 3^12000 has 5,726 digits: the
    # message names the weight, not the count
    assert main(["eval", "12000*Y(1)", "--oracle"]) == 1
    err = capsys.readouterr().err
    assert "weight 12000" in err and "3^12000 generators" in err
    assert len(err) < 200, err


def test_oracle_size_guard_computes_no_power_of_three():
    # 3^(10^7) would take seconds to compute; the guard compares weights
    t0 = time.perf_counter()
    with pytest.raises(OracleSizeError, match=r"weight 10000000 .* 3\^10000000 "):
        class_complex(LocalClass([(1, 10**7)], 0))
    assert time.perf_counter() - t0 < 1


def test_oracle_size_cap_is_read_at_call_time(monkeypatch):
    monkeypatch.setattr(report, "MAX_ORACLE_GENERATORS", 27)
    assert class_complex(3 * Y(1)).n == 27
    with pytest.raises(OracleSizeError, match=r"limit of 27 \(weight 3 at most\)"):
        class_complex(4 * Y(1))
    monkeypatch.setattr(report, "MAX_ORACLE_GENERATORS", 26)
    with pytest.raises(OracleSizeError, match=r"3\^3 generators"):
        class_complex(3 * Y(1))


def test_cli_eval_oracle_builds_no_truncated_model(capsys, monkeypatch):
    # the gradings span about 2 * 10^5, so a truncated model would need an
    # N of about 10^5; the oracle's exact pass builds none
    def no_model(*args):
        raise AssertionError("an expanded model was built")

    monkeypatch.setattr(complexes.Expanded, "__init__", no_model)
    assert main(["eval", "Y(100000)", "--oracle"]) == 0
    captured = capsys.readouterr()
    assert "oracle:     agrees" in captured.out and captured.err == ""


def test_cli_eval_oracle_mismatch_exits_3(capsys, monkeypatch):
    # the oracle's terms disagree with the engine
    def off_by_two(c):
        d, d_bar, d_under = terms(c)
        return d + 2, d_bar, d_under

    terms = complexes.correction_terms
    monkeypatch.setattr("hfi.complexes.correction_terms", off_by_two)
    assert main(["eval", "Y(2) - Y(1)", "--oracle"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: oracle disagrees") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("error, code", [
    (OracleMismatchError, 3),
    (OracleSizeError, 1),  # also a ValueError: the first match wins
    (ValueError, 2),
    (OSError, 2),
])
def test_cli_exit_code_table(error, code, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(cli, "evaluate", fail)
    assert main(["eval", "Y(1)"]) == code
    assert capsys.readouterr().err == "error: boom\n"


def test_cli_leaves_unlisted_errors_uncaught(monkeypatch):
    # an error outside the table is a bug and keeps its traceback
    def fail(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "evaluate", fail)
    with pytest.raises(RuntimeError, match="boom"):
        main(["eval", "Y(1)"])


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


@pytest.mark.parametrize("a", [(2, 3, 7), (2, 7, 15), (5, 8, 13)])
def test_library_and_cli_profile_files_agree(a, tmp_path, monkeypatch, capsys):
    # hfi.profile_to_text writes the bytes of ``hfi root -o`` (HF-minus
    # gradings), ``hfi eval @file`` reads them as the sphere, and
    # hfi.profile_from_text reads the CLI's file back to the sphere's root
    monkeypatch.chdir(tmp_path)
    root = brieskorn_root(BrieskornParams(*a))
    assert main(["root", "sigma", *map(str, a), "-o", "cli.txt"]) == 0
    written = Path("cli.txt").read_text()
    assert hfi.profile_to_text(root) == written
    assert hfi.profile_from_text(written) == root
    Path("lib.txt").write_text(hfi.profile_to_text(root))
    capsys.readouterr()
    reports = []
    for expr in ("@lib.txt", "Sigma({},{},{})".format(*a)):
        assert main(["eval", expr, "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        reports.append((out["total"], out["d"], out["mu_bar"]))
    assert reports[0] == reports[1]


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
    assert capsys.readouterr().out == \
        "almost rational: yes (vertex 1 at weight -2 is rational)\n"


def test_cli_plumbing_not_almost_rational(tmp_path, capsys):
    graph = tmp_path / "two_node.txt"
    graph.write_text(NOT_ALMOST_RATIONAL)
    assert main(["plumbing", str(graph)]) == 0
    assert capsys.readouterr().out == "almost rational: no\n"


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
    ["eval", "Y(1) + Sigma(2,4,5)"],  # atom errors name the atom
    ["eval", "Y(1) + @nope.txt"],
])
def test_cli_invalid_input_exits_2_with_message(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("text, error, message", [
    ("Y(1) + Sigma(2,4,5)", ValueError,
     "Sigma(2,4,5) at position 7: fiber multiplicities must be pairwise coprime"),
    ("Y(1) + @nope.txt", FileNotFoundError,
     "@nope.txt at position 7: [Errno 2] No such file or directory: 'nope.txt'"),
    ("Y(1) - 3 * Sigma(1009,1013,1019)", SigmaSizeError,
     "Sigma(1009,1013,1019) at position 11: Sigma(1009,1013,1019) has alpha"),
    ("Y(0)", ValueError, "Y(0) at position 0: basis index"),
    # a UnicodeDecodeError cannot be rebuilt from one message, so a ValueError
    # names the atom instead
    ("@bad.txt", ValueError,
     "@bad.txt at position 0: 'utf-8' codec can't decode"),
])
def test_atom_errors_name_the_atom_and_keep_their_class(text, error, message,
                                                        tmp_path, monkeypatch,
                                                        capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.txt").write_bytes(b"\xff")
    with pytest.raises(error) as e:
        evaluate_text(text)
    assert type(e.value) is error and str(e.value).startswith(message)
    cause = UnicodeDecodeError if text == "@bad.txt" else error
    assert type(e.value.__cause__) is cause
    assert main(["eval", text]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("argv, text, fragment", [
    (["decompose", "{profile}"], "coset: 0\nleaves: 1/0\nangles:\n", "1/0"),
    (["eval", "@{profile}"], "coset: 0\nleaves: 1/0\nangles:\n", "1/0"),
    # the other malformed profiles
    (["decompose", "{profile}"], "leaves: 0\nroots: 1\n", "'roots: 1'"),
    (["decompose", "{profile}"], "coset: 0\nangles:\n", "no leaves line"),
    (["decompose", "{profile}"], "coset: 1\nleaves: 0\nangles:\n",
     "coset 1 inconsistent"),
    # a key read twice, or a coset line without exactly one grading
    (["eval", "@{profile}"], "leaves: 0\nleaves: 2 0 2\nangles: 0 0\ncoset: 0 1\n",
     "repeated leaves line: 'leaves: 2 0 2'"),
    (["decompose", "{profile}"], "leaves: 0\nangles:\ncoset: 0 1\n",
     "one grading: 'coset: 0 1'"),
    (["decompose", "{profile}"], "coset:\nleaves: 0\nangles:\n", "one grading: 'coset:'"),
    # profiles that the SymmetricRootProfile constructor refuses: an angle
    # above a leaf, mixed cosets, and angles above both their leaves
    (["eval", "@{profile}", "--oracle"], "leaves: 0 -4 0\nangles: -2 -2\n",
     "angles below adjacent leaves: angle 1 at -2"),
    (["decompose", "{profile}"], "leaves: 0 1 0\nangles: -2 -2\n",
     "single coset of 2Z: grading 1 not in 0 + 2Z"),
    (["decompose", "{profile}"], "leaves: 2 0 2\nangles: 4 4\n",
     "angles below adjacent leaves: angle 1 at 4"),
], ids=["decompose", "eval-file-atom", "decompose-unrecognised-line",
        "decompose-no-leaves", "decompose-coset-mismatch",
        "eval-file-atom-second-leaves-line", "decompose-two-gradings-on-coset",
        "decompose-empty-coset",
        "eval-file-atom-angle-above-leaf", "decompose-mixed-cosets",
        "decompose-angles-above-leaves"])
def test_cli_zero_denominator_in_a_profile_file_exits_2(argv, text, fragment,
                                                        tmp_path, capsys):
    profile = tmp_path / "root.txt"
    profile.write_text(text)
    assert main([a.format(profile=profile) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err and "Traceback" not in err


@pytest.mark.parametrize("check, code, out", [
    ("ar", 1, ""),
    ("rational", 1, ""),
    ("negdef", 0, "negative definite: False\n"),
])
def test_cli_plumbing_on_a_graph_that_is_not_negative_definite(check, code, out,
                                                               tmp_path, capsys):
    graph = tmp_path / "indefinite.txt"
    graph.write_text("vertex a -1\nvertex b -1\nedge a b\n")
    assert main(["plumbing", str(graph), "--check", check]) == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err == ("" if code == 0 else
                            "error: plumbing graph is not negative definite\n")


FUZZ_MALFORMED = ("Sigma(2,3", "Y()", "Q(1)", "", "@missing.txt", "3*", "Y(1) +",
                  "I[", "M(", "*Y(1)", "Sigma(2,3,5,7)", "Y(-1)", "2**Y(1)", "Y(1.5)",
                  "I[1/0]", "99999999999*Y(1)", "Sigma(1009,1013,1019)", "Y(1))")


FUZZ_SPHERES = [t for t in itertools.combinations(range(2, 30), 3)
                if math.gcd(t[0], t[1]) == math.gcd(t[0], t[2]) == math.gcd(t[1], t[2]) == 1]


def _fuzz_triple(rng) -> list[int]:
    """A Brieskorn sphere with a_i < 30 two times in three, else three of -1..29."""
    if rng.randrange(3):
        return rng.choice(FUZZ_SPHERES)
    return [rng.randrange(-1, 30) for _ in range(3)]


def _fuzz_atom(rng) -> str:
    kind = rng.randrange(6)
    if kind in (0, 1):
        return "Sigma({},{},{})".format(*_fuzz_triple(rng))
    if kind == 2:
        return f"Y({rng.randrange(5)})"
    if kind == 3:
        return f"M({','.join(str(rng.randrange(-1, 5)) for _ in range(rng.randrange(5)))})"
    if kind == 4:
        return f"I[{rng.choice(('-2', '0', '2', '-4', '1/2', '1/0', 'x'))}]"
    return rng.choice(FUZZ_MALFORMED)


def _fuzz_argv(rng) -> list[str]:
    kind = rng.randrange(6)
    if kind == 4:
        return ["family", "--M", str(rng.randrange(-1, 4)), "--N", str(rng.randrange(-1, 4)),
                "--d", rng.choice(("-2", "0", "2", "4", "1", "1/2", "1/0", "x")),
                "--mu", rng.choice(("0", "1", "-1", "2", "1/2", "y")),
                "--k", str(rng.randrange(-1, 4))]
    if kind == 5:
        return ["root", "sigma", *map(str, _fuzz_triple(rng))]
    terms = [rng.choice(("", "-", "2*", "-3*", "8*", "+")) + _fuzz_atom(rng)
             for _ in range(rng.randrange(1, 4))]
    expr = terms[0] + "".join(f" {rng.choice('+-')} {t}" for t in terms[1:])
    return ["eval", expr] + (["--oracle"] if rng.randrange(3) == 0 else [])


def test_cli_fuzz_exits_0_1_or_2_and_prints_an_error_exactly_on_failure(
        tmp_path, monkeypatch, capsys):
    # seeded random eval expressions (valid and malformed atoms, a third of
    # them with --oracle, Sigma triples with a_i < 30) and family and root
    # arguments: no exception escapes main, no oracle mismatch (exit 3), and
    # stderr holds "error: ..." exactly when the exit code is nonzero
    monkeypatch.chdir(tmp_path)
    rng = random.Random(20170636)
    for _ in range(200):
        argv = _fuzz_argv(rng)
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        assert (err.startswith("error: ") if code else err == ""), (argv, err)


@pytest.mark.parametrize("argv, message", [
    (["eval"], "the following arguments are required: expr"),
    (["eval", "Y(1)", "extra"], "unrecognized arguments: extra"),
])
def test_cli_eval_argument_errors_exit_2_with_usage(argv, message, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: hfi") and message in captured.err


def test_zero_denominator_errors_name_the_token():
    text = "Y(1) + I[ 3/0]"
    with pytest.raises(ParseError) as e:
        parse(text)
    assert e.value.position == text.index("3/0") and "3/0" in str(e.value)
    with pytest.raises(ValueError, match="'-1/0'"):
        profile_from_text("leaves: 0 -1/0 0\nangles: -2 -2\n")
    with pytest.raises(ValueError, match="'5/0'"):
        realization_family(1, 1, "5/0", 0)


# ---------------------------------------------------------------- import footprint

SRC = Path(__file__).resolve().parents[1] / "src"
# the names ``hfi`` serves from ``hfi.complexes``, and their names there
COMPLEXES_EXPORTS = {name: name for name in (
    "MAX_LOCAL_MAP_UNKNOWNS", "IotaComplex", "SearchSizeError",
    "dual", "find_local_map", "homology_ranks", "iota_complex",
    "locally_equivalent", "tensor", "trivial_complex",
    "validate")} | {"complex_correction_terms": "correction_terms"}


def test_every_name_a_module_imports_is_read_in_it():
    # no linter runs in CI; ``__init__`` imports names to serve them
    unread = []
    for path in sorted((SRC / "hfi").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).partition(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [f"{path.name}: {name}" for name in sorted(imported - read)]
    assert unread == []


def test_import_hfi_loads_only_the_standard_library():
    # every module importing hfi loads, other than hfi itself, is in the
    # standard library (sys.stdlib_module_names, Python 3.10+)
    script = """
import sys

before = set(sys.modules)
import hfi

loaded = {m.partition(".")[0] for m in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names) - {"hfi"}))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_sigma_evaluation_never_imports_the_oracle():
    script = """
import sys

import hfi
from hfi.cli import main

hfi.evaluate_text("Sigma(2,3,7)")
hfi.evaluate_text("Sigma(5,8,13) - Sigma(2,7,15)")
assert main(["eval", "Sigma(2,3,7)"]) == 0
print(sorted({"hfi.complexes", "hfi.gf2"} & set(sys.modules)))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_package_serves_the_complexes_names():
    for name, there in COMPLEXES_EXPORTS.items():
        assert getattr(hfi, name) is getattr(complexes, there), name
        assert name in dir(hfi) and name in hfi.__all__, name
    namespace = {}
    exec("from hfi import *", namespace)
    assert all(namespace[name] is getattr(hfi, name) for name in hfi.__all__)
    assert complexes.Grading is localclass.Grading
    with pytest.raises(AttributeError, match="no_such_name"):
        hfi.no_such_name

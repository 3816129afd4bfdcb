"""Command-line interface.

Subcommands:
  eval       evaluate a class expression and print an invariant report
  root       compute the graded-root profile of a Brieskorn sphere
  decompose  reduce a root-profile file to its Y-basis class
  plumbing   exact definiteness, rationality or almost-rationality of a graph
  family     realize prescribed (d, d-bar, d-under, mu-bar) invariants

Exit codes: 0 on success; otherwise the first match in the table in
``main``, printed as ``error: <message>`` on stderr, never a traceback:
3 OracleMismatchError (the oracle disagrees with the engine); 1
OracleSizeError (an oracle complex over ``report.MAX_ORACLE_GENERATORS``
generators), and for ``plumbing`` a graph that is not negative definite;
2 any other ValueError or OSError, such as a parse error, a non-coprime
Sigma triple, alpha = a1 a2 a3 over ``brieskorn.MAX_SIGMA_ALPHA``, a class
weight sum |c_i| over ``cterms.MAX_CLASS_WEIGHT``, Y(0), a non-monotone
M(...), a missing @file or impossible ``family`` invariants.
Root-profile files are written and read in HF-minus gradings, two below
the internal normalization; ``hfi.roots`` applies the shift.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import plumbing
from .brieskorn import BrieskornParams, brieskorn_root
from .cterms import correction_terms, realization_family
from .expr import parse
from .localclass import mu_bar
from .monotone import decompose, monotone_subroot
from .report import OracleMismatchError, OracleSizeError, class_complex, evaluate
from .roots import profile_from_text, profile_to_text


def _error(message, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _cmd_eval(args) -> int:
    report = evaluate(parse(args.expr), input_text=args.expr,
                      oracle=args.oracle)
    dumped = None
    if args.dump_complex:
        from .complexes import complex_to_json

        dumped = complex_to_json(class_complex(report.total))
    if args.format == "json":
        out = report.to_json()
        if dumped is not None:
            out["complex"] = dumped
        print(json.dumps(out, indent=2))
    else:
        print(report.to_text())
        if dumped is not None:
            print(json.dumps(dumped, indent=2))
    return 0


def _cmd_root(args) -> int:
    text = profile_to_text(brieskorn_root(BrieskornParams(args.a1, args.a2, args.a3)))
    if args.output:
        Path(args.output).write_text(text)
    else:
        print(text, end="")
    return 0


def _cmd_decompose(args) -> int:
    path = args.file[1:] if args.file.startswith("@") else args.file
    root = monotone_subroot(profile_from_text(Path(path).read_text()))
    cls = decompose(root)
    d, d_bar, d_under = correction_terms(cls)
    print(f"monotone subroot: {root}")
    print(f"class:            {cls}")
    print(f"d, d_bar, d_under: {d}, {d_bar}, {d_under}")
    print(f"mu_bar:           {mu_bar(cls)}")
    return 0


def _cmd_plumbing(args) -> int:
    g = plumbing.graph_from_text(Path(args.file).read_text())
    if args.check == "negdef":
        print("negative definite:", plumbing.is_negative_definite(g))
        return 0
    if not plumbing.is_negative_definite(g):
        return _error("plumbing graph is not negative definite", 1)
    if args.check == "rational":
        print("rational:", plumbing.is_rational(g))
    else:
        print("almost rational:", plumbing.is_almost_rational(g))
    return 0


def _cmd_family(args) -> int:
    cls = realization_family(args.M, args.N, args.d, args.mu, args.k)
    d, d_bar, d_under = correction_terms(cls)
    print(f"class:   {cls}")
    print(f"d:       {d}")
    print(f"d_bar:   {d_bar}")
    print(f"d_under: {d_under}")
    print(f"mu_bar:  {mu_bar(cls)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hfi",
        description="Local-equivalence invariants of plumbed homology spheres")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate a class expression")
    pe.add_argument("expr", nargs="?",
                    help="class expression; it may start with '-'")
    pe.add_argument("--oracle", action="store_true",
                    help="cross-check invariants on an explicit complex")
    pe.add_argument("--format", choices=("json", "text"), default="text")
    pe.add_argument("--dump-complex", action="store_true",
                    help="also emit the oracle complex as JSON")
    pe.set_defaults(func=_cmd_eval)

    pr = sub.add_parser("root", help="graded root of a Brieskorn sphere")
    pr.add_argument("kind", choices=("sigma",))
    pr.add_argument("a1", type=int)
    pr.add_argument("a2", type=int)
    pr.add_argument("a3", type=int)
    pr.add_argument("-o", "--output", default=None)
    pr.set_defaults(func=_cmd_root)

    pd = sub.add_parser("decompose",
                        help="Y-basis class of a root-profile file")
    pd.add_argument("file", help="profile file (HF-minus gradings)")
    pd.set_defaults(func=_cmd_decompose)

    pp = sub.add_parser("plumbing", help="checks on a plumbing-graph file")
    pp.add_argument("file")
    pp.add_argument("--check", choices=("ar", "rational", "negdef"),
                    default="ar")
    pp.set_defaults(func=_cmd_plumbing)

    pf = sub.add_parser("family",
                        help="class with prescribed correction terms")
    pf.add_argument("--M", type=int, required=True, help="(d_bar - d)/2")
    pf.add_argument("--N", type=int, required=True, help="(d - d_under)/2")
    pf.add_argument("--d", required=True, help="d-invariant (even integer)")
    pf.add_argument("--mu", required=True, help="mu-bar (integer)")
    pf.add_argument("--k", type=int, default=0,
                    help="family parameter; distinct k give distinct classes")
    pf.set_defaults(func=_cmd_family)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    # argparse reads an argument that starts with '-', such as
    # "-Sigma(2,3,5)", as an unknown option: for eval, it is the expression
    if args.command == "eval" and args.expr is None:
        if len(unknown) != 1 or unknown[0].startswith("--"):
            parser.error("the following arguments are required: expr")
        args.expr = unknown.pop()
    if unknown:
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    # first match wins: OracleSizeError and ParseError are ValueErrors
    exit_codes = {OracleMismatchError: 3, OracleSizeError: 1,
                  ValueError: 2, OSError: 2}
    try:
        return args.func(args)
    except tuple(exit_codes) as e:
        return _error(e, next(code for error, code in exit_codes.items()
                              if isinstance(e, error)))


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands:
  eval       evaluate a class expression and print an invariant report
  root       compute the graded-root profile of a Brieskorn sphere
  decompose  reduce a root-profile file to its Y-basis class
  plumbing   combinatorial checks on a plumbing-graph file
  family     realize prescribed (d, d-bar, d-under, mu-bar) invariants

Exit codes: 0 on success; 1 when an oracle complex is over its generator
limit or its truncation N is over ``report.MAX_ORACLE_TRUNCATION`` (or, for
``plumbing``, the graph is not negative definite); 2 on a
parse error or invalid input -- any ValueError or OSError, such as a
non-coprime Sigma triple, a Sigma triple whose alpha = a1 a2 a3 exceeds
``brieskorn.MAX_SIGMA_ALPHA``, a class whose weight sum |c_i| exceeds
``cterms.MAX_CLASS_WEIGHT``, Y(0), a non-monotone M(...), a missing @file
or impossible ``family`` invariants -- reported as ``error: <message>`` on
stderr, never as a traceback; 3 on an oracle mismatch.
Root-profile files are written and read in HF-minus gradings; the internal
normalization (3-sphere tower topped at grading 0) is two higher.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import complexes, plumbing
from .brieskorn import BrieskornParams, brieskorn_root
from .cterms import correction_terms, realization_family
from .expr import parse
from .localclass import d_invariant, mu_bar
from .monotone import decompose, monotone_subroot
from .report import (OracleMismatchError, OracleSizeError, class_complex,
                     evaluate, profile_from_hf_minus_file)
from .roots import SymmetricRootProfile, profile_to_text


def _error(message, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _cmd_eval(args) -> int:
    try:
        report = evaluate(parse(args.expr), input_text=args.expr,
                          oracle=args.oracle, truncation=args.truncation)
        dumped = (complexes.complex_to_json(class_complex(report.total))
                  if args.dump_complex else None)
    except OracleMismatchError as e:
        return _error(e, 3)
    except OracleSizeError as e:
        return _error(e, 1)
    except (ValueError, OSError) as e:  # ParseError is a ValueError
        return _error(e, 2)
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
    if args.kind != "sigma":
        return _error(f"unknown root kind {args.kind!r}", 2)
    try:
        profile = brieskorn_root(BrieskornParams(args.a1, args.a2, args.a3))
        hf_minus = SymmetricRootProfile(tuple(g - 2 for g in profile.leaves),
                                        tuple(g - 2 for g in profile.angles))
        text = profile_to_text(hf_minus)
        if args.output:
            Path(args.output).write_text(text)
        else:
            print(text, end="")
    # a bad triple, alpha above MAX_SIGMA_ALPHA, or an unwritable output file
    except (ValueError, OSError) as e:
        return _error(e, 2)
    return 0


def _cmd_decompose(args) -> int:
    path = args.file[1:] if args.file.startswith("@") else args.file
    try:
        root = monotone_subroot(profile_from_hf_minus_file(path))
        cls = decompose(root)
        d, d_bar, d_under = correction_terms(cls)
    except (ValueError, OSError) as e:
        return _error(e, 2)
    print(f"monotone subroot: {root}")
    print(f"class:            {cls}")
    print(f"d, d_bar, d_under: {d}, {d_bar}, {d_under}")
    print(f"mu_bar:           {mu_bar(cls)}")
    return 0


def _cmd_plumbing(args) -> int:
    try:
        g = plumbing.graph_from_text(Path(args.file).read_text())
    except (ValueError, OSError) as e:
        return _error(e, 2)
    if args.check == "negdef":
        print("negative definite:", plumbing.is_negative_definite(g))
        return 0
    if not plumbing.is_negative_definite(g):
        return _error("plumbing graph is not negative definite", 1)
    if args.check == "rational":
        print("rational:", plumbing.is_rational(g))
    else:
        print("almost rational:", plumbing.is_almost_rational(g, args.bound))
    return 0


def _cmd_family(args) -> int:
    try:
        cls = realization_family(args.M, args.N, args.d, args.mu, args.k)
        d, d_bar, d_under = correction_terms(cls)
    except ValueError as e:
        return _error(e, 2)
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
    pe.add_argument("expr")
    pe.add_argument("--oracle", action="store_true",
                    help="cross-check invariants on an explicit complex")
    pe.add_argument("--truncation", type=int, default=None,
                    help="U-power truncation for the oracle complex")
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
    pp.add_argument("--bound", type=int, default=64,
                    help="weight decrements per vertex in the AR search")
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
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

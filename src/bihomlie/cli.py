"""Command-line front end.

Exit codes: 0 success (all checks pass / verdict computed), 1 a check or
hypothesis failed (with the diagnostic on standard error), 2 I/O or parse
errors. Reports go to standard output; --json output is byte-stable for a
given input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import catalog
from .algebra import BiHomAlgebra, check_all, is_abelian
from .analysis import Decomposition, _simplicity, type_candidates
from .classify3 import bihom_isomorphic3, classify3
from .errors import BiHomError, DimensionMismatch, ParseError, ZeroParameter
from .fileio import (
    format_rational,
    load,
    load_matrix,
    matrix_strings,
    parse_rational,
    save,
)
from .twist import TwistInput, induce_lie, require_axioms, yau_twist

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_IO = 2


def _vector_strings(v):
    return [format_rational(x) for x in v]


def _witness_dict(witness):
    if witness is None:
        return None
    return {
        "indices": [i + 1 for i in witness.indices],
        "lhs": _vector_strings(witness.lhs),
        "rhs": _vector_strings(witness.rhs),
        "detail": witness.detail,
    }


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2))


def _cmd_check(args) -> int:
    algebra = load(args.file)
    report = check_all(algebra)
    if args.json:
        doc = {}
        for name in report.NAMES:
            result = getattr(report, name)
            doc[name] = {"ok": result.ok, "witness": _witness_dict(result.witness)}
        doc["all_pass"] = report.all_pass
        _print_json(doc)
    else:
        for name in report.NAMES:
            result = getattr(report, name)
            line = f"{name}: {'pass' if result.ok else 'FAIL'}"
            if result.witness is not None:
                w = result.witness
                line += (f"  [indices {tuple(i + 1 for i in w.indices)}: "
                         f"{w.detail}; lhs={_vector_strings(w.lhs)} "
                         f"rhs={_vector_strings(w.rhs)}]")
            print(line)
    return EXIT_OK if report.all_pass else EXIT_FAIL


def _cmd_induce(args) -> int:
    algebra = load(args.file)
    induced, alpha, beta = induce_lie(algebra)
    out = BiHomAlgebra(dim=algebra.dim, tensor=induced, alpha=alpha, beta=beta,
                       basis_names=algebra.basis_names)
    save(out, args.output)
    return EXIT_OK


def _cmd_twist(args) -> int:
    lie_file = load(args.file)
    alpha = load_matrix(args.alpha)
    beta = load_matrix(args.beta)
    twisted = yau_twist(TwistInput(lie=lie_file.tensor, alpha=alpha, beta=beta))
    save(twisted, args.output)
    return EXIT_OK


def _analyze_doc(algebra: BiHomAlgebra) -> dict:
    killing_det, outcome, env = _simplicity(algebra)
    abelian = is_abelian(algebra.tensor)
    induced_doc = None
    if killing_det is not None:
        induced_doc = {"killing_det": format_rational(killing_det),
                       "semisimple": killing_det != 0, "decomposition": None}
        if isinstance(outcome, Decomposition):
            induced_doc["decomposition"] = {
                "m": outcome.m,
                "ideal_dims": [s.dim for s in outcome.ideals],
                "ideal_bases": [matrix_strings(s) for s in outcome.ideals],
                "sigma_alpha": list(outcome.sigma_alpha),
                "sigma_beta": list(outcome.sigma_beta),
                "m_warning": outcome.m_warning,
            }
        elif outcome is not None:
            induced_doc["decomposition"] = {"error": str(outcome)}
    return {
        "dim": algebra.dim,
        "regular": killing_det is not None,
        "abelian": abelian,
        "enveloping_dim": env,
        "simple": (not abelian) and env == algebra.dim * algebra.dim,
        "induced": induced_doc,
        "type_candidates": [
            {"series": t.series, "rank": t.rank, "m": t.m}
            for t in type_candidates(algebra.dim)
        ],
    }


def _cmd_analyze(args) -> int:
    algebra = load(args.file)
    require_axioms(algebra)
    doc = _analyze_doc(algebra)
    if args.json:
        _print_json(doc)
        return EXIT_OK
    print(f"dimension: {doc['dim']}")
    print(f"regular: {doc['regular']}")
    print(f"abelian: {doc['abelian']}")
    print(f"simple: {doc['simple']} (enveloping dimension {doc['enveloping_dim']} "
          f"of {doc['dim'] ** 2})")
    if doc["induced"] is not None:
        ind = doc["induced"]
        print(f"induced Killing determinant: {ind['killing_det']}")
        print(f"induced semisimple: {ind['semisimple']}")
        dec = ind["decomposition"]
        if dec is not None:
            if "error" in dec:
                print(f"decomposition: unavailable ({dec['error']})")
            else:
                print(f"decomposition: m = {dec['m']}, ideal dims {dec['ideal_dims']}")
                print(f"sigma_alpha: {dec['sigma_alpha']}")
                print(f"sigma_beta: {dec['sigma_beta']}")
                if dec["m_warning"]:
                    print("warning: m = 2 lies outside the expected range of the "
                          "decomposition theory; reported as computed")
    else:
        print("induced Lie algebra: unavailable (alpha or beta is singular)")
    candidates = ", ".join(
        f"({c['series']}{c['rank'] if c['rank'] else ''}, m={c['m']})"
        for c in doc["type_candidates"]) or "none"
    print(f"type candidates: {candidates}")
    return EXIT_OK


def _cmd_classify3(args) -> int:
    algebra = load(args.file)
    label = classify3(algebra)
    if args.json:
        _print_json({
            "family": label.family,
            "params": [format_rational(p) for p in label.params],
            "change_of_basis": matrix_strings(label.change_of_basis),
        })
    else:
        params = ", ".join(format_rational(p) for p in label.params)
        print(f"family: {label.family}" + (f" with parameters ({params})" if params else ""))
        print("change of basis (columns are the catalog basis in input coordinates):")
        for row in matrix_strings(label.change_of_basis):
            print("  " + " ".join(row))
    return EXIT_OK


def _cmd_iso3(args) -> int:
    a1 = load(args.file1)
    a2 = load(args.file2)
    f = bihom_isomorphic3(a1, a2)
    if args.json:
        _print_json({
            "isomorphic": f is not None,
            "matrix": matrix_strings(f) if f is not None else None,
        })
    elif f is None:
        print("not isomorphic")
    else:
        print("isomorphic; intertwining matrix:")
        for row in matrix_strings(f):
            print("  " + " ".join(row))
    return EXIT_OK


# name -> (constructor, its rational parameters in the order they are parsed)
_CATALOG = {"sl2": (catalog.sl2_bihom, ()), "L1": (catalog.make_L1, ("a", "b")),
            "L2": (catalog.make_L2, ()), "L3": (catalog.make_L3, ("a",))}


def _cmd_catalog(args) -> int:
    build, params = _CATALOG[args.name]
    if any(getattr(args, p) is None for p in params):
        print(f"catalog {args.name} requires " + " and ".join(f"--{p}" for p in params),
              file=sys.stderr)
        return EXIT_IO
    save(build(*(parse_rational(getattr(args, p), f"--{p}") for p in params)), args.output)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="bihomlie",
        description="Exact toolkit for finite-dimensional BiHom-Lie algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify the defining axioms of an algebra file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("induce", help="write the induced Lie algebra of a regular algebra")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_induce)

    p = sub.add_parser("twist", help="twist a Lie algebra by a commuting automorphism pair")
    p.add_argument("file", help="algebra file whose bracket is the Lie algebra")
    p.add_argument("--alpha", required=True, help="matrix file (JSON grid of rationals)")
    p.add_argument("--beta", required=True, help="matrix file (JSON grid of rationals)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_twist)

    p = sub.add_parser("analyze", help="regularity, simplicity, decomposition, type candidates")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("classify3", help="classify a 3-dimensional simple algebra")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify3)

    p = sub.add_parser("iso3", help="explicit isomorphism between two 3-dimensional algebras")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_iso3)

    p = sub.add_parser("catalog", help="write a built-in algebra instance")
    p.add_argument("name", choices=list(_CATALOG))
    p.add_argument("--a", help="rational parameter p/q")
    p.add_argument("--b", help="rational parameter p/q")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_catalog)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, DimensionMismatch, ZeroParameter, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BiHomError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())

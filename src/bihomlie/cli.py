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
from .algebra import BiHomAlgebra, check_all, is_abelian, is_regular
from .analysis import (
    burnside_generators,
    decompose_bihom,
    enveloping_dim,
    killing_form,
    type_candidates,
)
from .classify3 import bihom_isomorphic3, classify3
from .errors import (
    BiHomError,
    DimensionMismatch,
    IrrationalSplit,
    NotSemisimple,
    ParseError,
    ZeroParameter,
)
from .exactlin import det
from .fileio import (
    format_rational,
    load,
    load_matrix,
    parse_rational,
    save,
)
from .twist import TwistInput, induce_lie, yau_twist

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_IO = 2


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return EXIT_FAIL


def _vector_strings(v):
    return [format_rational(x) for x in v]


def _matrix_strings(m):
    return [[format_rational(x) for x in row] for row in m.entries]


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
    regular = is_regular(algebra)
    abelian = is_abelian(algebra.tensor)
    env = enveloping_dim(burnside_generators(algebra))
    simple = (not abelian) and env == algebra.dim * algebra.dim
    doc = {
        "dim": algebra.dim,
        "regular": regular,
        "abelian": abelian,
        "enveloping_dim": env,
        "simple": simple,
        "induced": None,
        "type_candidates": [
            {"series": t.series, "rank": t.rank, "m": t.m}
            for t in type_candidates(algebra.dim)
        ],
    }
    if regular:
        induced = induce_lie(algebra)
        killing = killing_form(induced[0])
        killing_det = det(killing)
        semisimple = killing_det != 0
        induced_doc = {
            "killing_det": format_rational(killing_det),
            "semisimple": semisimple,
            "decomposition": None,
        }
        if semisimple:
            try:
                decomposition = decompose_bihom(algebra, induced, killing)
                induced_doc["decomposition"] = {
                    "m": decomposition.m,
                    "ideal_dims": [s.dim for s in decomposition.ideals],
                    "ideal_bases": [
                        [_vector_strings(v) for v in s.basis_vectors()]
                        for s in decomposition.ideals
                    ],
                    "sigma_alpha": list(decomposition.sigma_alpha),
                    "sigma_beta": list(decomposition.sigma_beta),
                    "m_warning": decomposition.m_warning,
                }
            except (IrrationalSplit, NotSemisimple) as exc:
                induced_doc["decomposition"] = {"error": str(exc)}
        doc["induced"] = induced_doc
    return doc


def _cmd_analyze(args) -> int:
    algebra = load(args.file)
    report = check_all(algebra)
    if not report.all_pass:
        return _fail("analyze: the algebra fails axiom checks: "
                     + ", ".join(report.failures()))
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
            "change_of_basis": _matrix_strings(label.change_of_basis),
        })
    else:
        params = ", ".join(format_rational(p) for p in label.params)
        print(f"family: {label.family}" + (f" with parameters ({params})" if params else ""))
        print("change of basis (columns are the catalog basis in input coordinates):")
        for row in _matrix_strings(label.change_of_basis):
            print("  " + " ".join(row))
    return EXIT_OK


def _cmd_iso3(args) -> int:
    a1 = load(args.file1)
    a2 = load(args.file2)
    f = bihom_isomorphic3(a1, a2)
    if args.json:
        _print_json({
            "isomorphic": f is not None,
            "matrix": _matrix_strings(f) if f is not None else None,
        })
    elif f is None:
        print("not isomorphic")
    else:
        print("isomorphic; intertwining matrix:")
        for row in _matrix_strings(f):
            print("  " + " ".join(row))
    return EXIT_OK


def _cmd_catalog(args) -> int:
    name = args.name
    if name == "sl2":
        algebra = catalog.sl2_bihom()
    elif name == "L1":
        if args.a is None or args.b is None:
            print("catalog L1 requires --a and --b", file=sys.stderr)
            return EXIT_IO
        algebra = catalog.make_L1(parse_rational(args.a, "--a"),
                                  parse_rational(args.b, "--b"))
    elif name == "L2":
        algebra = catalog.make_L2()
    else:  # L3
        if args.a is None:
            print("catalog L3 requires --a", file=sys.stderr)
            return EXIT_IO
        algebra = catalog.make_L3(parse_rational(args.a, "--a"))
    save(algebra, args.output)
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
    p.add_argument("name", choices=["sl2", "L1", "L2", "L3"])
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

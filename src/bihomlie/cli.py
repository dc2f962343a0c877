"""Command-line front end.

    bihomlie <command> [positionals and options in any order] [-- positionals]

One table, _COMMANDS, gives each command its handler, help, positionals,
options and flags, and main reads argv against it in one pass. An option
is --opt value or --opt=value (-o value for --output), its value taken
verbatim, so --a -2/3 is a negative parameter; "--" ends the options; -h
or --help prints usage to standard output. A malformed command line (an
unknown command or option, a missing value, a missing or extra positional,
a missing required option, an unknown catalog name, a catalog parameter
missing or not taken by its family) prints the synopsis and the error to
standard error, and main returns 2.

Exit codes: 0 success (all checks pass / verdict computed), 1 a check or
hypothesis failed (with the diagnostic on standard error), 2 I/O, parse or
usage errors. Reports go to standard output; --json output is byte-stable
for a given input. When standard output has no reader (a closed pipe), the
call exits 2 and prints nothing: run() in __main__.py, the process entry
of both python -m bihomlie and the bihomlie script, then points standard
output at os.devnull, so that the flush at exit cannot print either.
"""

from __future__ import annotations

import json
import sys
from typing import Callable, NamedTuple

from . import catalog
from .algebra import BiHomAlgebra, check_all
from .analysis import Decomposition, TypeLabel, _simplicity, type_candidates
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


class _Usage(Exception):
    """A malformed command line: (the command it names, or None, and what is wrong)."""


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
    report = check_all(load(args["file"]))
    doc = {}
    for name in report.NAMES:
        result = getattr(report, name)
        doc[name] = {"ok": result.ok, "witness": _witness_dict(result.witness)}
    doc["all_pass"] = report.all_pass
    if args["json"]:
        _print_json(doc)
    else:
        for name in report.NAMES:
            w = doc[name]["witness"]
            line = f"{name}: {'pass' if doc[name]['ok'] else 'FAIL'}"
            if w is not None:
                line += (f"  [indices {tuple(w['indices'])}: {w['detail']}; "
                         f"lhs={w['lhs']} rhs={w['rhs']}]")
            print(line)
    return EXIT_OK if report.all_pass else EXIT_FAIL


def _cmd_induce(args) -> int:
    algebra = load(args["file"])
    induced, alpha, beta = induce_lie(algebra)
    out = BiHomAlgebra(dim=algebra.dim, tensor=induced, alpha=alpha, beta=beta,
                       basis_names=algebra.basis_names)
    save(out, args["output"])
    return EXIT_OK


def _cmd_twist(args) -> int:
    lie_file = load(args["file"])
    alpha = load_matrix(args["alpha"])
    beta = load_matrix(args["beta"])
    twisted = yau_twist(TwistInput(lie=lie_file.tensor, alpha=alpha, beta=beta))
    save(twisted, args["output"])
    return EXIT_OK


def _analyze_doc(algebra: BiHomAlgebra) -> dict:
    killing_det, outcome, env = _simplicity(algebra, require_axioms(algebra))
    abelian = algebra.tensor.is_zero()
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
        "type_candidates": [t._asdict() for t in type_candidates(algebra.dim)],
    }


def _cmd_analyze(args) -> int:
    doc = _analyze_doc(load(args["file"]))
    if args["json"]:
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
    candidates = ", ".join(str(TypeLabel(**c)) for c in doc["type_candidates"]) or "none"
    print(f"type candidates: {candidates}")
    return EXIT_OK


def _cmd_classify3(args) -> int:
    algebra = load(args["file"])
    label = classify3(algebra)
    if args["json"]:
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
    a1 = load(args["file1"])
    a2 = load(args["file2"])
    f = bihom_isomorphic3(a1, a2)
    if args["json"]:
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
    name = args["name"]
    if name not in _CATALOG:
        raise _Usage("catalog", f"argument name: invalid choice: {name!r} "
                                f"(choose from {', '.join(_CATALOG)})")
    build, params = _CATALOG[name]
    missing = [f"--{p}" for p in params if args[p] is None]
    if missing:
        raise _Usage("catalog", f"catalog {name} requires {' and '.join(missing)}")
    extra = [f"--{p}" for p in ("a", "b") if p not in params and args[p] is not None]
    if extra:
        raise _Usage("catalog", f"catalog {name} takes no {' and '.join(extra)}")
    save(build(*(parse_rational(args[p], f"--{p}") for p in params)), args["output"])
    return EXIT_OK


class _Command(NamedTuple):
    """One command: its handler, its one-line help, its positionals, its
    options that take a value and its flags (spelling -> argument name),
    and the names of the options it requires."""
    run: Callable[[dict], int]
    help: str
    positionals: tuple
    options: dict = {}
    flags: dict = {}
    required: tuple = ()


_JSON = {"--json": "json"}
_OUTPUT = {"-o": "output", "--output": "output"}
_COMMANDS = {
    "check": _Command(_cmd_check, "verify the defining axioms of an algebra file",
                      ("file",), flags=_JSON),
    "induce": _Command(_cmd_induce, "write the induced Lie algebra of a regular algebra",
                       ("file",), _OUTPUT, required=("output",)),
    "twist": _Command(_cmd_twist, "twist a Lie algebra by a commuting automorphism pair",
                      ("file",), {"--alpha": "alpha", "--beta": "beta", **_OUTPUT},
                      required=("alpha", "beta", "output")),
    "analyze": _Command(_cmd_analyze, "regularity, simplicity, decomposition, type candidates",
                        ("file",), flags=_JSON),
    "classify3": _Command(_cmd_classify3, "classify a 3-dimensional simple algebra",
                          ("file",), flags=_JSON),
    "iso3": _Command(_cmd_iso3, "explicit isomorphism between two 3-dimensional algebras",
                     ("file1", "file2"), flags=_JSON),
    "catalog": _Command(_cmd_catalog, "write a built-in algebra instance",
                        ("name",), {"--a": "a", "--b": "b", **_OUTPUT}, required=("output",)),
}
_HELP = ("-h", "--help")


def _spellings(command: _Command, name: str) -> list[str]:
    return [word for word, dest in command.options.items() if dest == name]


def _usage(name) -> str:
    """The synopsis of a command, or of the program when name is None."""
    if name is None:
        return "usage: bihomlie [-h] <command> ..."
    command = _COMMANDS[name]
    words = ["usage: bihomlie", name, "[-h]", *(f"[{flag}]" for flag in command.flags)]
    for dest in dict.fromkeys(command.options.values()):
        word = f"{_spellings(command, dest)[0]} {dest.upper()}"
        words.append(word if dest in command.required else f"[{word}]")
    return " ".join(words + list(command.positionals))


def _help(name) -> str:
    if name is not None:
        return f"{_usage(name)}\n\n{_COMMANDS[name].help}"
    return "\n".join([_usage(None), "", "Exact toolkit for finite-dimensional BiHom-Lie "
                      "algebras", "", "commands:"]
                     + [f"  {n:<10} {c.help}" for n, c in _COMMANDS.items()]
                     + ["", "bihomlie <command> -h shows the arguments of a command"])


def _parse(argv) -> tuple:
    """(command name, its arguments by name) in one pass over argv, by the
    grammar of the module docstring, or (name, None) when argv asks for
    help, name None at the top level."""
    if not argv:
        raise _Usage(None, "the following arguments are required: command")
    if argv[0] in _HELP:
        return None, None
    name, words = argv[0], iter(argv[1:])
    command = _COMMANDS.get(name)
    if command is None:
        raise _Usage(None, f"argument command: invalid choice: {name!r} "
                           f"(choose from {', '.join(_COMMANDS)})")
    args = dict.fromkeys(command.flags.values(), False) | dict.fromkeys(command.options.values())
    given = []
    for word in words:
        if word == "--":
            given.extend(words)   # the rest, which ends the loop
        elif word in _HELP:
            return name, None
        elif word.startswith("-") and word != "-":
            key, eq, value = word.partition("=") if word.startswith("--") else (word, "", "")
            if key in command.options:
                if not eq:
                    value = next(words, None)
                    if value is None:
                        raise _Usage(name, f"argument {key}: expected one argument")
                args[command.options[key]] = value
            elif key in command.flags and not eq:
                args[command.flags[key]] = True
            else:
                raise _Usage(name, f"unrecognized arguments: {word}")
        else:
            given.append(word)
    missing = list(command.positionals[len(given):]) + [
        "/".join(_spellings(command, r)) for r in command.required if args[r] is None]
    if missing:
        raise _Usage(name, f"the following arguments are required: {', '.join(missing)}")
    extra = given[len(command.positionals):]
    if extra:
        raise _Usage(name, f"unrecognized arguments: {' '.join(extra)}")
    args.update(zip(command.positionals, given))
    return name, args


def main(argv=None) -> int:
    """Run one command line (sys.argv[1:] when argv is None); return its exit code."""
    try:
        name, args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            print(_help(name))
            return EXIT_OK
        return _COMMANDS[name].run(args)
    except _Usage as exc:
        name, message = exc.args
        print(_usage(name), file=sys.stderr)
        print(f"bihomlie{'' if name is None else ' ' + name}: error: {message}", file=sys.stderr)
        return EXIT_IO
    except BrokenPipeError:   # standard output has no reader: nothing more can be said
        return EXIT_IO
    except (ParseError, DimensionMismatch, ZeroParameter, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BiHomError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAIL


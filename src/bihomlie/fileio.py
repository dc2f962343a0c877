"""Algebra file format: a JSON document carrying the full 4-tuple.

    {
      "dim": 3,
      "basis": ["e1", "e2", "e3"],
      "bracket": [[["0", ...], ...], ...],   # bracket[i][j][k] = e_k coeff of [e_i, e_j]
      "alpha": [["1", ...], ...],            # column convention: alpha(e_j) = sum_i alpha[i][j] e_i
      "beta": [...]
    }

Rationals are strings matching -?[0-9]+(/[1-9][0-9]*)? as a whole, never floats,
and a key repeated in one object is a ParseError.
Ordinary Lie algebras are the alpha = beta = identity special case, so one
format serves both. A grid is read in integers, cleared by one lcm into the
scaled view that MatrixQ and StructureTensor store, and save() prints each
entry x/d of the view reduced: no Fraction is built either way. save()
emits a canonical layout (reduced rationals, fixed key order, one grid row
per line) and save o load is the identity on canonical files.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from itertools import repeat

from .algebra import BiHomAlgebra, StructureTensor
from .errors import DimensionMismatch, ParseError
from .exactlin import MatrixQ, reshape

RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")
ROW_RE = re.compile(rf"{RATIONAL_RE.pattern}(?:,{RATIONAL_RE.pattern})*")


def _rationals(texts, name) -> tuple[int, list[int]]:
    """(d, [d*x for x in texts]), d the lcm of the denominators, for a list of
    rational strings matched as one comma-joined string. An entry k that
    fails alone is reported as name(k)."""
    try:
        text = ",".join(texts)
        if ROW_RE.fullmatch(text) and text.count(",") == len(texts) - 1:
            if "/" not in text:
                return 1, list(map(int, texts))
            pairs = [(int(p), int(q or 1)) for p, q in RATIONAL_RE.findall(text)]
            d = math.lcm(*(q for _, q in pairs))
            return d, [p * (d // q) for p, q in pairs]
    except (TypeError, ValueError):   # a non-string entry, or the digit limit
        pass
    for k, x in enumerate(texts):
        match = RATIONAL_RE.fullmatch(x) if isinstance(x, str) else None
        if match is None:
            raise ParseError(f"{name(k)}: {x!r} is not a rational of the form p or p/q")
        try:
            int(match[1]), int(match[2] or 1)
        except ValueError as exc:   # beyond the interpreter's integer-string digit limit
            raise ParseError(f"{name(k)}: {len(x)}-character rational exceeds the "
                             f"{sys.get_int_max_str_digits()}-digit integer limit") from exc
    return 1, []   # no entry fails alone: the list is empty


def _strings(d: int, ints) -> list[str]:
    """The rationals x/d of integers x over d > 0, reduced, as p or p/q."""
    if d == 1:
        return list(map(str, ints))
    return [str(x // g) if g == d else f"{x // g}/{d // g}"
            for x, g in zip(ints, map(math.gcd, ints, repeat(d)))]


def parse_rational(text, where: str) -> Fraction:
    """One rational at the edge, such as a command-line parameter."""
    d, (x,) = _rationals([text], lambda k: where)
    return Fraction(x, d)


def format_rational(q: Fraction) -> str:
    return _strings(q.denominator, [q.numerator])[0]


def _require_list(value, length, where: str):
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list")
    if length is not None and len(value) != length:
        raise DimensionMismatch(f"{where}: expected {length} entries, found {len(value)}")
    return value


def _parse_row(row, length, where: str) -> tuple[int, list[int]]:
    """A list of `length` rationals (any number when None) as (d, integers)."""
    return _rationals(_require_list(row, length, where), lambda k: f"{where}[{k}]")


def _view(rows) -> tuple[int, list[list[int]]]:
    """One view (d, integer rows) of parsed rows, d the lcm of theirs."""
    d = math.lcm(*(dr for dr, _ in rows))
    return d, [row if dr == d else [x * (d // dr) for x in row] for dr, row in rows]


def _parse_grid(value, dim: int, where: str) -> tuple[int, list[list[int]]]:
    return _view([_parse_row(row, dim, f"{where}[{i}]")
                  for i, row in enumerate(_require_list(value, dim, where))])


def algebra_from_dict(doc) -> BiHomAlgebra:
    if not isinstance(doc, dict):
        raise ParseError("top level: expected a JSON object")
    expected_keys = {"dim", "basis", "bracket", "alpha", "beta"}
    missing = expected_keys - doc.keys()
    extra = doc.keys() - expected_keys
    if missing:
        raise ParseError(f"missing fields: {', '.join(sorted(missing))}")
    if extra:
        raise ParseError(f"unexpected fields: {', '.join(sorted(extra))}")
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError("dim: expected a positive integer")
    basis = _require_list(doc["basis"], dim, "basis")
    for i, name in enumerate(basis):
        if not isinstance(name, str):
            raise ParseError(f"basis[{i}]: expected a string label")
    d, rows = _view([_parse_row(row, dim, f"bracket[{i}][{j}]")
                     for i, plane in enumerate(_require_list(doc["bracket"], dim, "bracket"))
                     for j, row in enumerate(_require_list(plane, dim, f"bracket[{i}]"))])
    return BiHomAlgebra(
        dim=dim,
        tensor=StructureTensor.from_scaled(d, reshape(rows, dim, dim)),
        alpha=MatrixQ.from_scaled(*_parse_grid(doc["alpha"], dim, "alpha")),
        beta=MatrixQ.from_scaled(*_parse_grid(doc["beta"], dim, "beta")),
        basis_names=tuple(basis),
    )


def matrix_strings(m) -> list[list[str]]:
    """The rows of a MatrixQ, or of a Subspace's RREF basis, as strings."""
    d, rows = m.scaled()
    return [_strings(d, row) for row in rows]


def algebra_to_dict(a: BiHomAlgebra) -> dict:
    d, planes = a.tensor.scaled()
    return {
        "dim": a.dim,
        "basis": list(a.basis_names),
        "bracket": [[_strings(d, row) for row in plane] for plane in planes],
        "alpha": matrix_strings(a.alpha),
        "beta": matrix_strings(a.beta),
    }


def dumps_algebra(a: BiHomAlgebra) -> str:
    """Canonical text form: fixed key order, one grid row per line."""
    doc = algebra_to_dict(a)

    def grid(rows, indent: str) -> str:
        # every entry is p or p/q in digits, which JSON quotes without escapes
        return ",\n".join(indent + '["' + '", "'.join(row) + '"]' for row in rows)

    planes = ",\n".join(f"    [\n{grid(plane, ' ' * 6)}\n    ]" for plane in doc["bracket"])
    return (f'{{\n  "dim": {doc["dim"]},\n  "basis": {json.dumps(doc["basis"])},\n'
            f'  "bracket": [\n{planes}\n  ],\n'
            f'  "alpha": [\n{grid(doc["alpha"], " " * 4)}\n  ],\n'
            f'  "beta": [\n{grid(doc["beta"], " " * 4)}\n  ]\n}}\n')


def _unique_keys(pairs) -> dict:
    """A JSON object whose keys are distinct; json.loads would keep the last
    value of a repeated key without a word."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ParseError(f"repeated key {key!r} in a JSON object")
        doc[key] = value
    return doc


def _parse_json(text: str, where: str):
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{where}: JSON nested too deeply") from exc
    except ValueError as exc:   # an integer literal beyond the digit limit
        raise ParseError(f"{where}: JSON number exceeds the "
                         f"{sys.get_int_max_str_digits()}-digit integer limit") from exc


def _read_json(path):
    """The JSON document in a UTF-8 file; every failure is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    return _parse_json(text, str(path))


def loads_algebra(text: str) -> BiHomAlgebra:
    return algebra_from_dict(_parse_json(text, "top level"))


def load(path) -> BiHomAlgebra:
    return algebra_from_dict(_read_json(path))


def save(a: BiHomAlgebra, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_algebra(a))


def load_matrix(path) -> MatrixQ:
    """A bare matrix file: a JSON grid of rational strings."""
    rows = _require_list(_read_json(path), None, "matrix")
    if not rows:
        raise ParseError("matrix: expected at least one row")
    width = None
    parsed = []
    for i, row in enumerate(rows):
        parsed.append(_parse_row(row, width, f"matrix[{i}]"))
        width = len(row)
    return MatrixQ.from_scaled(*_view(parsed))

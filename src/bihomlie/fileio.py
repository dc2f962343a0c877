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
format serves both. A grid is read by one json.loads of its joined entries,
each / read as a comma and the slash positions placing its few q; JSON's
integers are a subset of -?[0-9]+. Anything else (a fault, or 007, which
JSON does not spell) is read entry by entry in document order, so the first
fault raises with the message of that entry alone; only this path builds
Fractions. save() emits a canonical layout (reduced rationals, fixed key
order, one grid row per line): save o load is the identity on canonical files.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from itertools import accumulate, chain, compress, repeat
from operator import mul

from .algebra import BiHomAlgebra, StructureTensor
from .errors import DimensionMismatch, ParseError
from .exactlin import MatrixQ, cleared, reshape

RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")
_JOINED_RE = re.compile(r"[-0-9/,]+")   # the only characters of joined rationals
_BAD_SLASH_RE = re.compile(r"/[^,]*/|/(?![1-9])")   # two in one entry, or no q in [1-9][0-9]*


def _read_joined(items) -> tuple[int, list[int]] | None:
    """(d, [d*x for x in items]) by one json.loads of the comma-joined items,
    each / read as a comma, or None for anything else. JSON's integers are a
    subset of -?[0-9]+, so what this takes it reads as RATIONAL_RE does."""
    try:
        text = ",".join(items)
        if (not _JOINED_RE.fullmatch(text) or text.count(",") != len(items) - 1
                or _BAD_SLASH_RE.search(text)):
            return None
        values = json.loads(f"[{text.replace('/', ',')}]")
    except (TypeError, ValueError):   # a non-string entry, 007 (not JSON), the digit limit
        return None
    # the q after the j-th slash is value j + 1 + the number of commas before it
    dens = list(accumulate(part.count(",") + 1 for part in text.split("/")[:-1]))
    d, keep = math.lcm(*(values[i] for i in dens)), [True] * len(values)
    if d > 1:
        values = list(map(mul, values, repeat(d)))
    for i in dens:
        values[i - 1] //= values[i] // d   # p*d/q
        keep[i] = False
    return d, list(compress(values, keep))


def _walk(value, shape, where: str) -> list[Fraction]:
    """The entries in reading order, lists and entries checked in document order."""
    _require_list(value, shape[0], where)
    if len(shape) == 1:
        return [parse_rational(x, f"{where}[{k}]") for k, x in enumerate(value)]
    return [x for i, v in enumerate(value) for x in _walk(v, shape[1:], f"{where}[{i}]")]


def _grid(value, shape, where: str) -> tuple[int, list[int]]:
    """(d, integers) of a grid of rational strings of this shape, flat in reading order."""
    items = [value]
    for n in shape:
        if not all(isinstance(r, list) and len(r) == n for r in items):
            return cleared(_walk(value, shape, where))
        items = list(chain.from_iterable(items))
    return _read_joined(items) or cleared(_walk(value, shape, where))


def _strings(d: int, ints) -> list[str]:
    """The rationals x/d of integers x over d > 0, reduced, as p or p/q."""
    if d == 1:
        return list(map(str, ints))
    return [str(x // g) if g == d else f"{x // g}/{d // g}"
            for x, g in zip(ints, map(math.gcd, ints, repeat(d)))]


def parse_rational(text, where: str) -> Fraction:
    """One rational string, or the ParseError that names it at `where`."""
    match = RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ParseError(f"{where}: {text!r} is not a rational of the form p or p/q")
    try:
        return Fraction(int(match[1]), int(match[2] or 1))
    except ValueError as exc:   # beyond the interpreter's integer-string digit limit
        raise ParseError(f"{where}: {len(text)}-character rational exceeds the "
                         f"{sys.get_int_max_str_digits()}-digit integer limit") from exc


def format_rational(q: Fraction) -> str:
    return _strings(q.denominator, [q.numerator])[0]


def _require_list(value, length, where: str):
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list")
    if length is not None and len(value) != length:
        raise DimensionMismatch(f"{where}: expected {length} entries, found {len(value)}")
    return value


def _matrix(value, rows: int, cols, where: str) -> MatrixQ:
    d, flat = _grid(value, (rows, cols), where)
    return MatrixQ.from_scaled(d, reshape(flat, rows, cols))


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
    return BiHomAlgebra(
        dim=dim,
        tensor=StructureTensor.from_flat(*_grid(doc["bracket"], (dim,) * 3, "bracket"), dim),
        alpha=_matrix(doc["alpha"], dim, dim, "alpha"),
        beta=_matrix(doc["beta"], dim, dim, "beta"),
        basis_names=tuple(basis),
    )


def matrix_strings(m) -> list[list[str]]:
    """The rows of a MatrixQ, or of a Subspace's RREF basis, as strings."""
    d, rows = m.scaled()
    return [_strings(d, row) for row in rows]


def algebra_to_dict(a: BiHomAlgebra) -> dict:
    (d, planes), n = a.tensor.scaled(), a.dim
    flat = _strings(d, list(chain.from_iterable(chain.from_iterable(planes))))
    return {
        "dim": n,
        "basis": list(a.basis_names),
        "bracket": [[flat[k:k + n] for k in range(i, i + n * n, n)]
                    for i in range(0, n ** 3, n * n)],
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
    """A bare matrix file: a JSON grid of rational strings, as wide as its first row."""
    rows = _require_list(_read_json(path), None, "matrix")
    if not rows:
        raise ParseError("matrix: expected at least one row")
    return _matrix(rows, len(rows), len(rows[0]) if isinstance(rows[0], list) else None,
                   "matrix")

"""The grid reader and the entry writer of fileio against oracles.

The reader takes a grid in one json.loads when it can and otherwise walks it
entry by entry; either way it must give the values, or the first error, of a
reader that matches each entry alone with RATIONAL_RE and builds a Fraction.
The writer must print x/d as str(Fraction(x, d)) does. Inputs are seeded
with stdlib random, as in conftest.py."""

import json
import random
import sys
from fractions import Fraction

from bihomlie.catalog import direct_sum, make_L1, make_L3
from bihomlie.errors import DimensionMismatch, ParseError
from bihomlie.fileio import RATIONAL_RE, _grid, _strings, dumps_algebra, load, load_matrix

BIG = "1" * 4301   # one digit past the interpreter's default integer-string limit

# spellings the format allows but JSON does not, faults of every kind, and
# entries that are not strings
SPECIAL = ["007", "-007/5", "-0", "-0/3", "00/1", "0", "10/4", BIG, "-" + BIG, "1/" + BIG,
           BIG + "/7", "1/2/3", "1/-2", "1/05", "1/0", "-0/0", "+1", " 1", "1 ", "١",
           "1\n", "", "-", "/", "1/", "/2", "1,2", "1//2", "--1", "1-2", "1.5", "1e3",
           None, 1, 0.5, True, [], ["1"], {}]


def oracle_entry(x, where):
    match = RATIONAL_RE.fullmatch(x) if isinstance(x, str) else None
    if match is None:
        raise ParseError(f"{where}: {x!r} is not a rational of the form p or p/q")
    try:
        return Fraction(int(match[1]), int(match[2] or 1))
    except ValueError:
        raise ParseError(f"{where}: {len(x)}-character rational exceeds the "
                         f"{sys.get_int_max_str_digits()}-digit integer limit") from None


def oracle_grid(value, shape, where):
    """The Fractions of a grid in reading order, lists and entries checked
    one at a time in document order."""
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list")
    if shape[0] is not None and len(value) != shape[0]:
        raise DimensionMismatch(f"{where}: expected {shape[0]} entries, found {len(value)}")
    if len(shape) == 1:
        return [oracle_entry(x, f"{where}[{k}]") for k, x in enumerate(value)]
    return [x for i, v in enumerate(value) for x in oracle_grid(v, shape[1:], f"{where}[{i}]")]


def oracle_algebra(doc):
    n = doc["dim"]
    return (oracle_grid(doc["bracket"], (n, n, n), "bracket"),
            oracle_grid(doc["alpha"], (n, n), "alpha"), oracle_grid(doc["beta"], (n, n), "beta"))


def oracle_matrix(rows):
    if not isinstance(rows, list):
        raise ParseError("matrix: expected a list")
    if not rows:
        raise ParseError("matrix: expected at least one row")
    width = len(rows[0]) if isinstance(rows[0], list) else None
    return oracle_grid(rows, (len(rows), width), "matrix")


def outcome(read):
    """("ok", the values read) or (error type, message)."""
    try:
        return "ok", read()
    except (ParseError, DimensionMismatch) as exc:
        return type(exc).__name__, str(exc)


def flat(rows):
    return [x for row in rows for x in row]


def read_entries(entries):
    d, ints = _grid(entries, (len(entries),), "x")
    return [Fraction(x, d) for x in ints]


def read_algebra(path):
    a = load(path)
    return flat(flat(a.tensor.c)), flat(a.alpha.entries), flat(a.beta.entries)


def random_entry(rng):
    if rng.random() < 0.3:
        return rng.choice(SPECIAL)
    p = rng.randint(-10 ** rng.randint(0, 30), 10 ** rng.randint(0, 30))
    text = ("-" if p < 0 else "") + "0" * (rng.random() < 0.1) + str(abs(p))
    if rng.random() < 0.5:
        text += f"/{rng.randint(1, 10 ** rng.randint(1, 25))}"
    return text


def corrupt(rng, value, depth):
    """value with one entry, row or plane replaced at random: by another
    entry, by a list one too long or too short, or by a string."""
    if depth == 0 or not isinstance(value, list) or not value:
        return random_entry(rng)
    value = list(value)
    k = rng.randrange(len(value))
    roll = rng.random()
    if roll < 0.75:
        value[k] = corrupt(rng, value[k], depth - 1)
    elif roll < 0.85:
        value.append(value[k])
    elif roll < 0.95:
        del value[k]
    else:
        value[k] = "row"
    return value


def test_grid_reader_matches_entry_oracle_on_lists():
    rng = random.Random(2026)
    lists = [[x] for x in SPECIAL] + [[x, "1/2", "3"] for x in SPECIAL] + [
        ["5", "-1/3", x] for x in SPECIAL] + [[]]
    lists += [[random_entry(rng) for _ in range(rng.randint(1, 8))] for _ in range(4000)]
    kinds = set()
    for entries in lists:
        expected = outcome(lambda: [oracle_entry(x, f"x[{k}]") for k, x in enumerate(entries)])
        assert outcome(lambda: read_entries(entries)) == expected, entries
        kinds.add(expected[0])
    assert kinds == {"ok", "ParseError"}
    assert read_entries(["007", "-007/5", "-0", "10/4"]) == [7, Fraction(-7, 5), 0, Fraction(5, 2)]


def test_load_matches_entry_oracle_on_corrupted_documents(tmp_path):
    rng = random.Random(2027)
    bases = [json.loads(dumps_algebra(a)) for a in (
        make_L1(Fraction(2, 3), -5), make_L3(Fraction(-7, 5)),
        direct_sum([make_L1(Fraction(1, 2), 3), make_L3(2)]))]
    path, kinds = tmp_path / "algebra.json", set()
    for _ in range(500):
        doc = dict(rng.choice(bases))
        for _ in range(rng.randint(1, 3)):
            key = rng.choice(("bracket", "alpha", "beta"))
            doc[key] = corrupt(rng, doc[key], 3 if key == "bracket" else 2)
        path.write_text(json.dumps(doc))
        expected = outcome(lambda: oracle_algebra(doc))
        assert outcome(lambda: read_algebra(path)) == expected, doc
        kinds.add(expected[0])
    assert kinds == {"ok", "ParseError", "DimensionMismatch"}


def test_load_matrix_matches_entry_oracle(tmp_path):
    rng = random.Random(2028)
    path, kinds = tmp_path / "matrix.json", set()
    grids = [[], "I", [[]], [[], []], [["1"], []], [BIG], [["1/2", "1"], "row"]]
    for _ in range(500):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        grid = [[str(Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(cols)]
                for _ in range(rows)]
        grids.append(corrupt(rng, grid, 2) if rng.random() < 0.8 else grid)
    for grid in grids:
        path.write_text(json.dumps(grid))
        expected = outcome(lambda: oracle_matrix(grid))
        assert outcome(lambda: flat(load_matrix(path).entries)) == expected, grid
        kinds.add(expected[0])
    assert kinds == {"ok", "ParseError", "DimensionMismatch"}


def test_strings_match_fraction_oracle():
    rng = random.Random(2029)
    for d in (1, 2, 12, 97, 2 ** 64, 10 ** 40 + 7):
        ints = [0, 1, -1, d, -d, 3 * d + 1, -2 * d - 1] + [
            rng.randint(-5 * d, 5 * d) for _ in range(300)]
        assert _strings(d, ints) == [str(Fraction(x, d)) for x in ints], d

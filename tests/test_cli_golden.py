"""Golden outputs of the command line: exit code, stdout and stderr of
`analyze`, `classify3`, `iso3`, `check`, `induce`, `twist` and `catalog` on
fixed inputs, pinned byte for byte, and the SHA-256 of each file that
`induce -o`, `twist -o` and `catalog -o` write.

The inputs are built from the catalog under seeded bases and saved to a
temporary directory; a call takes one input, two for `iso3`, or none for
`catalog`. `twist` reads the alpha and beta of its input from matrix files
written beside it, and one input is spelled with non-canonical rationals
("2/4", "-0", "007", "0/9"). The SHA-256 of each saved file is pinned
beside its outputs, so a drift in the inputs is told apart from a drift in
the outputs. Re-record with `PYTHONPATH=src python tests/test_cli_golden.py`
from the root of a checkout; it rewrites tests/data/cli_golden.json."""

import contextlib
import hashlib
import io
import itertools
import json
import random
import tempfile
from fractions import Fraction as Q
from pathlib import Path

from bihomlie import cli
from bihomlie.algebra import BiHomAlgebra, StructureTensor, conjugate_algebra
from bihomlie.catalog import direct_sum, make_L1, make_L2, make_L3, make_sl2, sl2_bihom
from bihomlie.exactlin import MatrixQ
from bihomlie.fileio import dumps_algebra, matrix_strings
from bihomlie.twist import TwistInput, induce_lie, yau_twist
from conftest import random_invertible
from test_analysis import abelian_bihom, block_diagonal, block_permutation, sqrt2_double_sl2
from test_classify3 import CONIC_BASIS, ROTATION, SO3

DATA = Path(__file__).parent / "data" / "cli_golden.json"
PARTS = (lambda: make_L1(2, 3), lambda: make_L3(5), make_L2)


def dense(a):
    return conjugate_algebra(a, random_invertible(a.dim, random.Random(0)))


def cycle(k):
    return yau_twist(TwistInput(direct_sum([sl2_bihom()] * k).tensor,
                                block_permutation(3 * k, 3, 1), MatrixQ.identity(3 * k)))


def corrupted(a):
    """a with the e_1 coefficient of [e_2, e_3] moved by 1/7."""
    c = [[list(row) for row in plane] for plane in a.tensor.c]
    c[1][2][0] += Q(1, 7)
    return BiHomAlgebra(dim=a.dim, tensor=StructureTensor(c), alpha=a.alpha, beta=a.beta)


def inputs():
    """{name: algebra}, every one fixed by its construction and seed."""
    rng = random.Random(1400)
    identity6 = MatrixQ.identity(6)
    sqrt2 = BiHomAlgebra(dim=6, tensor=sqrt2_double_sl2(), alpha=identity6, beta=identity6)
    sl2_plus_line = StructureTensor.from_brackets(4, {
        (i, j): tuple(make_sl2().bracket_basis(i, j)) + (0,) for i in range(3) for j in range(3)})
    return {
        "DS_2 dense": dense(direct_sum([p() for p in PARTS[:2]])),
        "cycle_2 dense": dense(cycle(2)),
        "DS_3 block": conjugate_algebra(direct_sum([p() for p in PARTS]), block_diagonal(
            [random_invertible(3, rng) for _ in range(3)])),
        "sqrt2_double_sl2": sqrt2,
        "sqrt2_double_sl2 dense": dense(sqrt2),
        "non-regular": conjugate_algebra(BiHomAlgebra(
            dim=4, tensor=sl2_plus_line, alpha=MatrixQ.diagonal([1, 1, 1, 0]),
            beta=MatrixQ.identity(4)), random_invertible(4, rng)),
        "degenerate Killing": conjugate_algebra(direct_sum([make_L1(2, 3), abelian_bihom(1)]),
                                                random_invertible(4, rng)),
        "L2 conjugate": conjugate_algebra(make_L2(), random_invertible(3, rng)),
        "L3(-2/3) conjugate": conjugate_algebra(make_L3(Q(-2, 3)), random_invertible(3, rng)),
        "corrupted DS_2 dense": corrupted(dense(direct_sum([p() for p in PARTS[:2]]))),
        "cycle_3 block": conjugate_algebra(cycle(3), block_diagonal(
            [random_invertible(3, random.Random(1700 + k)) for k in range(3)])),
        **classify3_inputs(random.Random(1500)),
        **roundtrip_inputs(random.Random(1600)),
        **failing_inputs(random.Random(1800)),
        "sl2, alpha = 0": conjugate_algebra(BiHomAlgebra(
            dim=3, tensor=make_sl2(), alpha=MatrixQ.diagonal([0, 0, 0]),
            beta=MatrixQ.identity(3)), random_invertible(3, random.Random(1900))),
    }


def induced(a):
    tensor, alpha, beta = induce_lie(a)
    return BiHomAlgebra(dim=a.dim, tensor=tensor, alpha=alpha, beta=beta)


def roundtrip_inputs(rng):
    """Inputs of `induce -o` and `twist -o`: a dense dim-6 and a block dim-12
    direct sum and their induced Lie algebras."""
    ds_2 = dense(direct_sum([p() for p in PARTS[:2]]))
    ds_4 = conjugate_algebra(direct_sum([p() for p in PARTS] + [make_L1(Q(1, 2), -3)]),
                             block_diagonal([random_invertible(3, rng) for _ in range(4)]))
    return {"DS_2 dense induced": induced(ds_2), "DS_4 block": ds_4,
            "DS_4 block induced": induced(ds_4)}


def respell(text):
    """The same algebra with every rational spelled another way, in turn:
    zeros as "-0", "0/9", "000" or "-000", other values with both parts
    doubled ("1/2" as "2/4"), zero-padded ("7" as "007", "-7" as "-007") or
    with both parts tripled."""
    zeros = itertools.cycle(("-0", "0/9", "000", "-000"))
    others = itertools.cycle((2, 0, 3))

    def spell(x):
        if x == "0":
            return next(zeros)
        num, _, den = x.partition("/")
        k = next(others)
        return (f"{int(num) * k}/{int(den or 1) * k}" if k
                else ("-" if num[0] == "-" else "") + "00" + x.lstrip("-"))

    def walk(v):
        return [walk(x) for x in v] if isinstance(v, list) else spell(v)

    doc = json.loads(text)
    for key in ("bracket", "alpha", "beta"):
        doc[key] = walk(doc[key])
    return json.dumps(doc)


def classify3_inputs(rng):
    """Seeded conjugates on the classify3 and iso3 paths, and inputs that
    classify3 rejects: beta swapping the e- and f-lines, an involution whose
    fixed line is not split, and a definite Killing form."""
    identity3, negpair = MatrixQ.identity(3), MatrixQ.diagonal([1, -1, -1])
    swap = MatrixQ([[-1, 0, 0], [0, 0, Q(1, 2)], [0, 2, 0]])
    nonsplit = MatrixQ.from_columns([(-1, 0, 0), (0, 0, -1), (0, -1, 0)])
    conjugates = {f"L1({a},{b}) conjugate": make_L1(Q(a), Q(b)) for a, b in (
        ("2", "3"), ("1/2", "1/3"), ("2", "5"), ("1", "1"), ("-1", "2"), ("1", "3"))}
    out = {name: conjugate_algebra(a, random_invertible(3, rng))
           for name, a in conjugates.items()}
    out["L1(1,1) conic"] = conjugate_algebra(make_L1(1, 1), CONIC_BASIS)
    out["e/f swap"] = yau_twist(TwistInput(make_sl2(), negpair, swap))
    out["non-split fixed line"] = yau_twist(TwistInput(make_sl2(), nonsplit, identity3))
    out["definite"] = BiHomAlgebra(dim=3, tensor=SO3, alpha=identity3, beta=identity3)
    return out


def failing_inputs(rng):
    """Inputs that classify3 or twist rejects: the sl2 twist by ROTATION
    (irrational eigenvalues), the Heisenberg algebra (not simple), and a
    Lie bracket file with its twist maps (alpha and beta) for each check of
    yau_twist: a bracket that is not skew, maps that do not commute, a
    singular map and a map that does not preserve the bracket."""
    identity3, sl2 = MatrixQ.identity(3), make_sl2()
    heisenberg = StructureTensor.from_brackets(3, {(0, 1): (0, 0, 1), (1, 0): (0, 0, -1)})
    flip = MatrixQ([[-1, 0, 0], [0, 0, 1], [0, 1, 0]])

    def with_maps(tensor, alpha, beta=identity3):
        return BiHomAlgebra(dim=3, tensor=tensor, alpha=alpha, beta=beta)

    return {
        "rotation twist": conjugate_algebra(
            yau_twist(TwistInput(sl2, ROTATION, identity3)), random_invertible(3, rng)),
        "non-simple": conjugate_algebra(with_maps(heisenberg, identity3),
                                        random_invertible(3, rng)),
        "twist: non-Lie bracket": with_maps(
            StructureTensor.from_brackets(3, {(0, 1): (0, 0, 1)}), identity3),
        "twist: non-commuting maps": with_maps(sl2, MatrixQ.diagonal([1, 2, Q(1, 2)]), flip),
        "twist: singular map": with_maps(sl2, MatrixQ.diagonal([1, 1, 0])),
        "twist: non-automorphism": with_maps(sl2, MatrixQ.diagonal([1, 2, 3])),
    }


ERRORS = ("e/f swap", "non-split fixed line", "definite")
CALLS = ([((name,), argv) for name in ("DS_2 dense", "cycle_2 dense", "DS_3 block",
                                       "sqrt2_double_sl2", "sqrt2_double_sl2 dense",
                                       "non-regular", "degenerate Killing", "cycle_3 block")
          for argv in (["analyze", "--json"], ["analyze"])]
         + [((name,), ["classify3", "--json"])
            for name in ("L2 conjugate", "L3(-2/3) conjugate", "L1(1,1) conjugate",
                         "L1(1,1) conic", "L1(-1,2) conjugate", "L1(1,3) conjugate")]
         + [(("corrupted DS_2 dense",), ["check", "--json"])]
         + [(("L1(2,3) conjugate", other), argv)
            for other in ("L1(1/2,1/3) conjugate", "L1(2,5) conjugate")
            for argv in (["iso3", "--json"], ["iso3"])]
         + [((name,), argv) for name in ERRORS
            for argv in (["classify3", "--json"], ["classify3"])]
         + [((name, name), ["iso3"]) for name in ERRORS])
OUT, ALPHA, BETA = "<output>", "<alpha>", "<beta>"
RESPELLED = "DS_3 block respelled"
WRITES = ([((name,), ["induce", "-o", OUT])
           for name in ("DS_2 dense", "DS_4 block", "DS_3 block", RESPELLED)]
          + [((name,), ["twist", "--alpha", ALPHA, "--beta", BETA, "-o", OUT])
             for name in ("DS_2 dense induced", "DS_4 block induced")]
          + [((RESPELLED,), ["check", "--json"])]
          # one value joined by "=": the record of "--a=-2/3" predates the parser that also
          # reads "--a -2/3"; test_cli.py checks that the two spellings write the same file
          + [((), ["catalog", *params, "-o", OUT]) for params in (
              ["sl2"], ["L1", "--a", "2/3", "--b", "-5"], ["L1", "--a", "-1", "--b", "7/2"],
              ["L2"], ["L3", "--a=-2/3"], ["L3", "--a", "0"])])


# error paths, recorded after every call above so that their records stay in place
FAILS = ([((name,), ["classify3", "--json"]) for name in ("rotation twist", "non-simple")]
         + [((name,), ["twist", "--alpha", ALPHA, "--beta", BETA, "-o", OUT])
            for name in ("twist: non-Lie bracket", "twist: non-commuting maps",
                         "twist: singular map", "twist: non-automorphism")]
         + [((name,), ["induce", "-o", OUT]) for name in ("non-regular", "corrupted DS_2 dense")]
         + [((), ["catalog", "L1", "--a", "0", "--b", "1", "-o", OUT])])
# a simple algebra that is not regular, its full span (dimension 9) reached by the
# Burnside generators, recorded after the error paths so that their records stay in place
NOT_REGULAR = [(("sl2, alpha = 0",), argv)
               for argv in (["analyze", "--json"], ["classify3", "--json"], ["classify3"])]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run(directory):
    """One record per call: the inputs' digests, exit code, stdout, stderr,
    and for a call that writes a file, the digest of that file."""
    files, algebras = {}, inputs()
    texts = {name: dumps_algebra(a) for name, a in algebras.items()}
    texts[RESPELLED] = respell(texts["DS_3 block"])
    for i, (name, text) in enumerate(texts.items()):
        files[name] = (directory / f"input{i}.json", text)
        files[name][0].write_text(text)
    records = []
    for call, (names, argv) in enumerate(CALLS + WRITES + FAILS + NOT_REGULAR):
        stem = files[names[0]][0].with_suffix("") if names else directory / f"call{call}"
        paths = {OUT: stem.with_suffix(".out.json"), ALPHA: stem.with_suffix(".alpha.json"),
                 BETA: stem.with_suffix(".beta.json")}
        for key, m in ((ALPHA, "alpha"), (BETA, "beta")):
            if key in argv:
                paths[key].write_text(json.dumps(matrix_strings(getattr(algebras[names[0]], m))))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(paths.get(x, x)) for x in argv]
                            + [str(files[name][0]) for name in names])
        record = {"inputs": list(names), "argv": argv,
                  "input_sha256": [sha256(files[name][1]) for name in names],
                  "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
        if OUT in argv:
            written = paths[OUT]
            record["output_sha256"] = sha256(written.read_text()) if written.exists() else None
        records.append(record)
    return records


def test_cli_outputs_match_golden(tmp_path):
    expected = json.loads(DATA.read_text())
    got = run(tmp_path)
    assert [(r["inputs"], r["argv"]) for r in got] == [(r["inputs"], r["argv"]) for r in expected]
    for g, e in zip(got, expected):
        assert g["input_sha256"] == e["input_sha256"], (e["inputs"], "input drifted")
        assert g == e, (e["inputs"], e["argv"])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        DATA.parent.mkdir(exist_ok=True)
        DATA.write_text(json.dumps(run(Path(tmp)), indent=1) + "\n")

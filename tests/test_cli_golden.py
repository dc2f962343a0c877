"""Golden outputs of the command line: exit code, stdout and stderr of
`analyze`, `classify3`, `iso3` and `check` on fixed inputs, pinned byte
for byte.

The inputs are built from the catalog under seeded bases and saved to a
temporary directory; a call takes one input, or two for `iso3`. The
SHA-256 of each saved file is pinned beside its outputs, so a drift in the
inputs is told apart from a drift in the outputs. Re-record with `PYTHONPATH=src python tests/test_cli_golden.py`
from the root of a checkout; it rewrites tests/data/cli_golden.json."""

import contextlib
import hashlib
import io
import json
import random
import tempfile
from fractions import Fraction as Q
from pathlib import Path

from bihomlie import cli
from bihomlie.algebra import BiHomAlgebra, StructureTensor, conjugate_algebra
from bihomlie.catalog import direct_sum, make_L1, make_L2, make_L3, make_sl2, sl2_bihom
from bihomlie.exactlin import MatrixQ
from bihomlie.fileio import dumps_algebra
from bihomlie.twist import TwistInput, yau_twist
from conftest import random_invertible
from test_analysis import abelian_bihom, block_diagonal, block_permutation, sqrt2_double_sl2
from test_classify3 import CONIC_BASIS, SO3

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
        **classify3_inputs(random.Random(1500)),
    }


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


ERRORS = ("e/f swap", "non-split fixed line", "definite")
CALLS = ([((name,), argv) for name in ("DS_2 dense", "cycle_2 dense", "DS_3 block",
                                       "sqrt2_double_sl2", "sqrt2_double_sl2 dense",
                                       "non-regular", "degenerate Killing")
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


def run(directory):
    """One record per call: the input's digest, exit code, stdout, stderr."""
    files = {}
    for i, (name, algebra) in enumerate(inputs().items()):
        text = dumps_algebra(algebra)
        files[name] = (directory / f"input{i}.json", text)
        files[name][0].write_text(text)
    records = []
    for names, argv in CALLS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + [str(files[name][0]) for name in names])
        records.append({"inputs": list(names), "argv": argv,
                        "input_sha256": [hashlib.sha256(files[name][1].encode()).hexdigest()
                                         for name in names],
                        "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
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

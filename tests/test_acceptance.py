"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line once its assertions hold (visible with
pytest -s or in the captured output of a failing run).
"""

import json
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction as Q

import bihomlie.classify3 as classify3_module
from bihomlie.algebra import (
    BiHomAlgebra,
    StructureTensor,
    ad_matrix,
    check_all,
    conjugate_algebra,
    conjugate_tensor,
)
from bihomlie.analysis import (
    decompose_bihom,
    enveloping_dim,
    is_semisimple_lie,
    is_simple,
    killing_form,
    type_candidates,
)
from bihomlie.catalog import (
    direct_sum,
    make_L1,
    make_L2,
    make_L3,
    make_sl2,
    sl2_bihom,
)
from bihomlie.classify3 import bihom_isomorphic3, classify3, find_sl2_triple
from bihomlie.exactlin import MatrixQ, basis_vector, det
from bihomlie.fileio import dumps_algebra, save
from bihomlie.twist import TwistInput, induce_lie, roundtrip_check, yau_twist
from conftest import random_fraction, random_invertible
from test_classify3 import CONIC_BASIS, grid_oracle

L1_PARAMS = [(Q(2), Q(3)), (Q(-3), Q(1, 2)), (Q(5, 7), Q(-7, 5)), (Q(1), Q(1))]


def diag_pair(a, b):
    return MatrixQ.diagonal([1, a, 1 / a]), MatrixQ.diagonal([1, b, 1 / b])


def unipotent_auto(s):
    s = Q(s)
    return MatrixQ([[1, 0, s], [-2 * s, 1, -s * s], [0, 0, 1]])


def corpus():
    """Base catalog instances plus 10 seeded random conjugates."""
    base = [make_L1(2, 3), make_L1(-3, Q(1, 2)), make_L1(Q(5, 7), Q(-7, 5)),
            make_L1(1, 1), make_L2(), make_L3(2), make_L3(3)]
    rng = random.Random(2024)
    conjugates = []
    for algebra, count in ((make_L1(2, 3), 3), (make_L1(-3, Q(1, 2)), 3),
                           (make_L2(), 2), (make_L3(3), 2)):
        for _ in range(count):
            conjugates.append(conjugate_algebra(algebra, random_invertible(3, rng)))
    return base + conjugates


def block_swap(total, block):
    cols = [tuple(Q(1) if i == (j + block) % total else Q(0) for i in range(total))
            for j in range(total)]
    return MatrixQ.from_columns(cols)


def test_criterion_1_axiom_suite():
    from bihomlie.algebra import (
        check_bihom_jacobi,
        check_bihom_skew,
        check_commuting,
        check_multiplicative_alpha,
        check_multiplicative_beta,
    )
    checks = (check_commuting, check_multiplicative_alpha,
              check_multiplicative_beta, check_bihom_skew, check_bihom_jacobi)
    for a, b in L1_PARAMS:
        algebra = make_L1(a, b)
        for check in checks:
            start = time.perf_counter()
            result = check(algebra)
            elapsed = time.perf_counter() - start
            assert result.ok, (a, b, check.__name__)
            assert elapsed < 0.05, (check.__name__, elapsed)
    print("ACCEPTANCE 1: PASS - L1 axioms exact for all parameter sets, "
          "every check under 50 ms")


def test_criterion_2_twist_oracle_equality():
    for a, b in L1_PARAMS:
        alpha, beta = diag_pair(a, b)
        oracle = yau_twist(TwistInput(make_sl2(), alpha, beta))
        catalog = make_L1(a, b)
        for i in range(3):
            for j in range(3):
                assert catalog.tensor.bracket_basis(i, j) == \
                    oracle.tensor.bracket_basis(i, j), (a, b, i, j)
    # spot values certified: [e1,e2] = 2b e2 and [e2,e3] = (a/b) e1
    assert make_L1(2, 3).tensor.bracket_basis(0, 1) == (Q(0), Q(6), Q(0))
    assert make_L1(2, 3).tensor.bracket_basis(1, 2) == (Q(2, 3), Q(0), Q(0))
    print("ACCEPTANCE 2: PASS - catalog L1 equals the twist oracle in all 27 "
          "entries for every parameter set")


def test_criterion_3_roundtrips():
    rng = random.Random(99)
    count = 0
    for k in range(25):
        if k % 2 == 0:
            alpha, beta = diag_pair(random_fraction(rng, 10, nonzero=True),
                                    random_fraction(rng, 10, nonzero=True))
        else:
            alpha = unipotent_auto(random_fraction(rng, 10))
            beta = unipotent_auto(random_fraction(rng, 10))
        tw = TwistInput(make_sl2(), alpha, beta)
        assert roundtrip_check(tw)
        # the other direction: induce then twist restores the BiHom tensor
        twisted = yau_twist(tw)
        induced, al, be = induce_lie(twisted)
        assert yau_twist(TwistInput(induced, al, be)).tensor == twisted.tensor
        count += 1
    assert count == 25
    print("ACCEPTANCE 3: PASS - twist/induce roundtrips exact on 25 randomized "
          "commuting automorphism pairs")


def test_criterion_4_semisimple_induced_and_killing_normalization():
    for algebra in corpus():
        assert is_simple(algebra)
        induced, _, _ = induce_lie(algebra)
        assert is_semisimple_lie(induced)
        # normalize through the classifier, then through an sl2 triple
        label = classify3(algebra)
        canonical = conjugate_algebra(algebra, label.change_of_basis)
        canonical_induced, _, _ = induce_lie(canonical)
        triple = find_sl2_triple(canonical_induced)
        normalized = conjugate_tensor(canonical_induced, triple.basis_matrix())
        assert normalized == make_sl2()
        assert det(killing_form(normalized)) == -128
    print("ACCEPTANCE 4: PASS - induced algebras semisimple across the corpus; "
          "Killing determinant -128 after basis normalization")


def test_criterion_5_burnside_enveloping_dimensions():
    for algebra in corpus():
        gens = [ad_matrix(algebra.tensor, basis_vector(3, k)) for k in range(3)]
        gens += [algebra.alpha, algebra.beta, MatrixQ.identity(3)]
        assert enveloping_dim(gens) == 9
    double = direct_sum([sl2_bihom(), sl2_bihom()])
    gens = [ad_matrix(double.tensor, basis_vector(6, k)) for k in range(6)]
    gens += [double.alpha, double.beta, MatrixQ.identity(6)]
    assert enveloping_dim(gens) == 18
    assert not is_simple(double)
    print("ACCEPTANCE 5: PASS - enveloping dimension 9 across the corpus, "
          "18 and non-simple for the double fixture")


def test_criterion_6_decomposition_permutations():
    double = direct_sum([sl2_bihom(), sl2_bihom()])
    swapped = yau_twist(TwistInput(double.tensor, block_swap(6, 3),
                                   MatrixQ.identity(6)))
    decomposition = decompose_bihom(swapped)
    assert decomposition.m == 2
    assert len(decomposition.ideals) == 2
    assert decomposition.sigma_alpha == (1, 0)
    assert decomposition.sigma_beta == (0, 1)
    assert decomposition.m_warning

    triple = direct_sum([sl2_bihom()] * 3)
    cycled = yau_twist(TwistInput(triple.tensor, block_swap(9, 3),
                                  MatrixQ.identity(9)))
    decomposition3 = decompose_bihom(cycled)
    assert decomposition3.m == 3
    sigma = decomposition3.sigma_alpha
    assert {0, sigma[0], sigma[sigma[0]]} == {0, 1, 2}  # transitive 3-cycle
    print("ACCEPTANCE 6: PASS - block-swap gives 2 ideals with transposition "
          "and m=2 warning; block cycle gives a transitive 3-cycle")


def test_criterion_7_type_enumeration():
    three = [(t.series, t.rank, t.m) for t in type_candidates(3)]
    assert three == [("A", 1, 1)]
    fourteen = [(t.series, t.m) for t in type_candidates(14)]
    assert fourteen == [("G2", 1)]
    six = [(t.series, t.rank, t.m) for t in type_candidates(6)]
    assert ("A", 1, 2) in six
    assert all(series == "A" for series, _, _ in six)
    print("ACCEPTANCE 7: PASS - type enumeration matches at dimensions 3, 6 and 14")


def _classifier_path_conjugates(rng):
    """(path, input, family, params) for seeded dense conjugates on every
    path of classify3: L1 generic given by its normalized parameters and by
    their inverses, L1(1,b), L1(-1,b) with b on both sides of the flip,
    L1(1,1) through the grid of find_sl2_triple and through the conic, L2
    and L3."""
    cases = [("L1 generic", make_L1(2, 3), "L1", (2, 3)),
             ("L1 generic, inverse parameters", make_L1(Q(1, 2), Q(1, 3)), "L1", (2, 3)),
             ("L1 generic, inverse parameters", make_L1(Q(-1, 3), Q(5, 7)), "L1", (-3, Q(7, 5))),
             ("L1(1,b)", make_L1(1, Q(2, 5)), "L1", (1, Q(5, 2))),
             ("L1(-1,b)", make_L1(-1, 3), "L1", (-1, 3)),
             ("L1(-1,b)", make_L1(-1, Q(1, 3)), "L1", (-1, 3)),
             ("L1(-1,b)", make_L1(-1, Q(-2, 5)), "L1", (-1, Q(-5, 2))),
             ("L1(1,1) grid", make_L1(1, 1), "L1", (1, 1)),
             ("L2", make_L2(), "L2", ()),
             ("L3", make_L3(Q(-2, 3)), "L3", (Q(-2, 3),))]
    out = [(path, conjugate_algebra(a, random_invertible(3, rng)), family, params)
           for _ in range(3) for path, a, family, params in cases]
    return out + [("L1(1,1) conic", conjugate_algebra(make_L1(1, 1), CONIC_BASIS), "L1", (1, 1))]


def test_criterion_8_classifier_soundness(monkeypatch):
    expectations = [
        (make_L1(2, 3), "L1", (Q(2), Q(3))),
        (make_L1(-3, Q(1, 2)), "L1", (Q(-3), Q(1, 2))),
        (make_L2(), "L2", ()),
        (make_L3(3), "L3", (Q(3),)),
    ]
    catalogs = {"L1": lambda p: make_L1(*p), "L2": lambda p: make_L2(),
                "L3": lambda p: make_L3(*p)}
    rng = random.Random(77)
    cases = []
    for algebra, family, params in expectations:
        cases.append(("catalog", algebra, family, params))
        cases += [("conjugate", conjugate_algebra(algebra, random_invertible(3, rng)),
                   family, params) for _ in range(10)]
    cases += _classifier_path_conjugates(random.Random(78))
    # the oracle: conjugating the whole 4-tuple into the label's basis gives
    # the catalog algebra of the label exactly
    flips = []
    normalize = classify3_module.normalize_l1_params

    def recorded(a, b):
        out = normalize(a, b)
        flips.append(out[2])
        return out
    monkeypatch.setattr(classify3_module, "normalize_l1_params", recorded)
    for path, algebra, family, params in cases:
        if path.startswith("L1(1,1)"):
            grid_hit = grid_oracle(induce_lie(algebra)[0]) is not None
            assert grid_hit == path.endswith("grid"), path
        label = classify3(algebra)
        assert (label.family, label.params) == (family, params), path
        reference = catalogs[family](params)
        back = conjugate_algebra(algebra, label.change_of_basis)
        assert (back.tensor, back.alpha, back.beta) == \
            (reference.tensor, reference.alpha, reference.beta), path
    assert True in flips and False in flips   # both sides of the flip ran
    print("ACCEPTANCE 8: PASS - classifier self-certifies on catalog instances, "
          "10 random conjugations each and dense conjugates of every classifier path")


def test_criterion_9_isomorphism_criterion():
    rng = random.Random(88)
    a = make_L1(2, 3)
    moved = conjugate_algebra(a, random_invertible(3, rng))
    f = bihom_isomorphic3(a, moved)
    assert f is not None
    assert f * a.alpha == moved.alpha * f
    assert f * a.beta == moved.beta * f
    for i in range(3):
        for j in range(3):
            assert f.apply(a.tensor.bracket_basis(i, j)) == \
                moved.tensor.bracket(f.column(i), f.column(j))
    assert bihom_isomorphic3(make_L1(2, 3), make_L2()) is None
    assert bihom_isomorphic3(make_L2(), make_L3(3)) is None
    assert bihom_isomorphic3(make_L1(2, 3), make_L3(3)) is None
    print("ACCEPTANCE 9: PASS - returned isomorphisms intertwine exactly; the "
          "three cross-family pairs are non-isomorphic")


def test_criterion_10_errata_discipline():
    # the shipped catalog passes all axiom checks
    shipped = [make_L1(a, b) for a, b in L1_PARAMS]
    shipped += [make_L2()] + [make_L3(a) for a in (Q(0), Q(1), Q(2), Q(3), Q(-1))]
    for algebra in shipped:
        assert check_all(algebra).all_pass
    # the transcribed L3 grid fails, and ERRATA.md records the discrepancy
    from bihomlie.catalog import printed_L3_tensor, unipotent_beta, unipotent_full
    transcribed = BiHomAlgebra(dim=3, tensor=printed_L3_tensor(2),
                               alpha=unipotent_full(), beta=unipotent_beta(2))
    report = check_all(transcribed)
    assert not report.all_pass
    witness = report.multiplicative_alpha.witness
    assert witness.indices == (2, 2)
    errata = pathlib.Path(__file__).resolve().parent.parent / "ERRATA.md"
    text = errata.read_text()
    assert "[e3, e3]" in text and "[e2, e3]" in text
    assert "(-6, -5, -2)" in text and "(-7, -5, -2)" in text
    print("ACCEPTANCE 10: PASS - shipped catalog passes all checks; the "
          "transcribed-grid discrepancy is recorded in ERRATA.md with its witness")


def test_criterion_11_cli_end_to_end(tmp_path):
    def run(*args):
        return subprocess.run([sys.executable, "-W", "error", "-m", "bihomlie", *args],
                              capture_output=True, text=True)

    l1 = tmp_path / "l1.json"
    assert run("catalog", "L1", "--a", "2", "--b", "3", "-o", str(l1)).returncode == 0
    assert run("check", str(l1)).returncode == 0

    l2 = tmp_path / "l2.json"
    assert run("catalog", "L2", "-o", str(l2)).returncode == 0
    result = run("classify3", str(l2))
    assert result.returncode == 0 and "L2" in result.stdout

    double = tmp_path / "double.json"
    save(direct_sum([sl2_bihom(), sl2_bihom()]), double)
    result = run("analyze", str(double), "--json")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["induced"]["decomposition"]["m"] == 2
    assert {"series": "A", "rank": 1, "m": 2} in doc["type_candidates"]

    bad = tmp_path / "bad.json"
    bad.write_text(dumps_algebra(sl2_bihom()).replace('"1"', '"2/0"', 1))
    assert run("check", str(bad)).returncode == 2

    broken = tmp_path / "broken.json"
    doc = json.loads(dumps_algebra(sl2_bihom()))
    doc["alpha"][0][1] = "1"
    broken.write_text(json.dumps(doc))
    assert run("check", str(broken)).returncode == 1

    singular = tmp_path / "singular.json"
    save(BiHomAlgebra(dim=3, tensor=make_sl2(),
                      alpha=MatrixQ([[1, 0, 0], [0, 1, 0], [0, 0, 0]]),
                      beta=MatrixQ.identity(3)), singular)
    assert run("induce", str(singular), "-o", str(tmp_path / "o.json")).returncode == 1

    abelian = tmp_path / "abelian.json"
    save(BiHomAlgebra(dim=3, tensor=StructureTensor.zero(3),
                      alpha=MatrixQ.identity(3), beta=MatrixQ.identity(3)), abelian)
    assert run("classify3", str(abelian)).returncode == 1

    for args in (("check", str(l1), "--json"), ("analyze", str(l1), "--json"),
                 ("classify3", str(l1), "--json")):
        assert run(*args).stdout == run(*args).stdout
    print("ACCEPTANCE 11: PASS - CLI exit codes honored and --json output "
          "byte-stable across runs")

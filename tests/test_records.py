"""The record types of the library: fields, defaults, equality by field,
hash, immutability, and the shape checks and caches of BiHomAlgebra."""

import pytest

from bihomlie.algebra import (
    AxiomReport,
    BiHomAlgebra,
    CheckResult,
    StructureTensor,
    Witness,
    check_all,
    is_lie_algebra,
)
from bihomlie.analysis import (
    Decomposition,
    IdealReport,
    TypeLabel,
    decompose_bihom,
    killing_form,
)
from bihomlie.catalog import direct_sum, make_L1, make_sl2, sl2_bihom
from bihomlie.classify3 import ClassLabel, Sl2Triple
from bihomlie.errors import DimensionMismatch
from bihomlie.exactlin import Frozen, MatrixQ, Q, Subspace, basis_vector
from bihomlie.twist import TwistInput, induce_lie

E = [basis_vector(3, i) for i in range(3)]
PASS, FAIL = CheckResult(True), CheckResult(False, Witness((0, 1), E[0], E[1], "skew"))


def records():
    """Per record type, two instances with equal fields and one that differs
    from them in a single field."""
    full, line = Subspace.full(3), Subspace(3, [E[0]])
    identity = MatrixQ.identity(3)
    return [
        (Witness((0, 1), E[0], E[1]), Witness((0, 1), E[0], E[1], ""),
         Witness((0, 1), E[0], E[1], "other")),
        (CheckResult(False, Witness((2,), E[2], E[0])),
         CheckResult(False, Witness((2,), E[2], E[0])), CheckResult(False)),
        (AxiomReport(PASS, PASS, PASS, FAIL, PASS), AxiomReport(PASS, PASS, PASS, FAIL, PASS),
         AxiomReport(PASS, PASS, PASS, PASS, PASS)),
        (IdealReport(line, True, False, (0, E[1])), IdealReport(line, True, False, (0, E[1])),
         IdealReport(line, True, False)),
        (Decomposition((full,), (0,), (0,), 1), Decomposition((full,), (0,), (0,), m=1),
         Decomposition((full,), (0,), (0,), 2)),
        (TypeLabel("A", 1, 1), TypeLabel("A", 1, 1), TypeLabel("A", 1, 2)),
        (Sl2Triple(*E), Sl2Triple(E[0], E[1], E[2]), Sl2Triple(E[0], E[2], E[1])),
        (ClassLabel("L1", (Q(2), Q(3)), identity), ClassLabel("L1", (Q(2), Q(3)), identity),
         ClassLabel("L1", (Q(3), Q(2)), identity)),
        (TwistInput(sl2_bihom().tensor, identity, identity),
         TwistInput(sl2_bihom().tensor, identity, MatrixQ.identity(3)),
         TwistInput(sl2_bihom().tensor, identity, MatrixQ.diagonal([1, 2, 1]))),
    ]


def test_records_compare_and_hash_by_field():
    for first, same, other in records():
        assert first == same and not first != same, first
        assert hash(first) == hash(same), first
        assert first != other and not first == other, first
        assert len({first, same, other}) == 2, first


def test_records_refuse_assignment():
    """Neither a field, a property nor a new attribute can be set."""
    for first, _same, _other in records():
        names = [n for n in dir(first)
                 if not n.startswith("_") and not callable(getattr(first, n))]
        assert len(names) >= 2, first
        for name in names + ["extra"]:
            with pytest.raises(AttributeError):
                setattr(first, name, None)


def test_record_defaults():
    assert Witness((0,), E[0], E[1]).detail == ""
    assert CheckResult(True).witness is None
    assert IdealReport(Subspace.full(3), True, True).failing_witness is None


def test_check_result_truth_is_ok():
    assert bool(PASS) is True and bool(FAIL) is False
    assert bool(CheckResult(False)) is False
    assert (FAIL or PASS) is PASS and (PASS and FAIL) is FAIL


def test_axiom_report_failures_and_all_pass():
    assert AxiomReport.NAMES == ("commuting", "multiplicative_alpha", "multiplicative_beta",
                                 "skew", "jacobi")
    assert AxiomReport(PASS, PASS, PASS, PASS, PASS).failures() == []
    assert AxiomReport(PASS, PASS, PASS, PASS, PASS).all_pass
    report = AxiomReport(FAIL, PASS, FAIL, PASS, FAIL)
    assert report.failures() == ["commuting", "multiplicative_beta", "jacobi"]
    assert not report.all_pass
    assert report.skew is PASS and report.jacobi is FAIL


def test_decomposition_and_type_label_read_off_fields():
    dec = decompose_bihom(direct_sum([sl2_bihom()] * 2))
    assert (dec.m, dec.sigma_alpha, dec.sigma_beta) == (2, (0, 1), (0, 1))
    assert dec.m_warning and dec.enveloping_dim == 18
    assert str(TypeLabel("A", 1, 2)) == "(A1, m=2)"
    assert str(TypeLabel("G2", 0, 1)) == "(G2, m=1)"
    assert Sl2Triple(*E).basis_matrix() == MatrixQ.identity(3)


def test_bihom_algebra_fills_basis_names():
    a = make_L1(2, 3)
    assert a.basis_names == ("e1", "e2", "e3")
    named = BiHomAlgebra(3, a.tensor, a.alpha, a.beta, ("x", "y", "z"))
    assert named.basis_names == ("x", "y", "z")
    assert BiHomAlgebra(dim=3, tensor=a.tensor, alpha=a.alpha, beta=a.beta,
                        basis_names=()).basis_names == ("e1", "e2", "e3")


def test_bihom_algebra_shape_errors():
    a, thin = make_L1(2, 3), MatrixQ([[1, 0], [0, 1], [0, 0]])
    cases = [
        ((4, a.tensor, MatrixQ.identity(4), MatrixQ.identity(4)),
         "tensor dimension differs from algebra dimension"),
        ((3, a.tensor, thin, a.beta), "alpha must be 3x3"),
        ((3, a.tensor, a.alpha, MatrixQ.identity(2)), "beta must be 3x3"),
        ((3, a.tensor, a.alpha, a.beta, ("x", "y")), "one basis name per dimension required"),
    ]
    for args, message in cases:
        with pytest.raises(DimensionMismatch) as info:
            BiHomAlgebra(*args)
        assert str(info.value) == message


def test_bihom_algebra_equality_hash_and_immutability():
    a = make_L1(2, 3)
    twin = BiHomAlgebra(3, StructureTensor(a.tensor.c), MatrixQ(a.alpha.entries),
                        MatrixQ(a.beta.entries))
    assert a == twin and hash(a) == hash(twin)
    variants = [BiHomAlgebra(3, StructureTensor.zero(3), a.alpha, a.beta),
                BiHomAlgebra(3, a.tensor, a.beta, a.beta),
                BiHomAlgebra(3, a.tensor, a.alpha, a.alpha),
                BiHomAlgebra(3, a.tensor, a.alpha, a.beta, ("x", "y", "z"))]
    for variant in variants:
        assert variant != a and not variant == a
    assert a != a.tensor
    assert len({a, twin, *variants}) == 5
    for name in ("dim", "tensor", "alpha", "beta", "basis_names", "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    assert a.dim == 3 and a.tensor == twin.tensor


def frozen_twins():
    """Per exact value type, a value built through its Fraction constructor
    and its twin built from integers (from_scaled or spanned)."""
    a = make_L1(2, 3)
    alpha, beta = (MatrixQ.from_scaled(*m.scaled()) for m in (a.alpha, a.beta))
    return [
        (MatrixQ([[Q(1, 2), 0], [3, Q(-1, 4)]]), MatrixQ.from_scaled(-8, [[-4, 0], [-24, 2]])),
        (StructureTensor(a.tensor.c), StructureTensor.from_scaled(*a.tensor.scaled())),
        (Subspace(3, [(Q(1, 2), 1, 0), (0, 0, Q(2, 3))]),
         Subspace.spanned(3, [[2, 4, 0], [0, 0, 5]])),
        (BiHomAlgebra(3, StructureTensor(a.tensor.c), MatrixQ(a.alpha.entries),
                      MatrixQ(a.beta.entries)),
         BiHomAlgebra(3, StructureTensor.from_scaled(*a.tensor.scaled()), alpha, beta)),
    ]


def test_exact_values_share_one_frozen_base():
    """MatrixQ, StructureTensor, Subspace and BiHomAlgebra refuse
    every assignment with one message, compare and hash by type and key, and
    show the repr that pytest prints for a failed assertion."""
    for value, twin in frozen_twins():
        kind = type(value)
        assert isinstance(value, Frozen) and type(twin) is kind
        assert value == twin and not value != twin and hash(value) == hash(twin), kind
        for name in [*kind.__slots__, "extra"]:
            with pytest.raises(AttributeError, match=f"^{kind.__name__} is immutable$"):
                setattr(value, name, None)
    identity, full = MatrixQ.identity(3), Subspace.full(3)
    assert identity.scaled() == full.scaled() and identity != full and full != identity
    one, tensor = MatrixQ.identity(1), StructureTensor.from_scaled(1, [[[1]]])
    assert one != tensor and tensor != one and one != Subspace.full(1)
    assert len({identity, full, StructureTensor.zero(3)}) == 3
    for value, text in ((MatrixQ([[Q(1, 2), 0], [3, Q(-1, 4)]]), "MatrixQ[1/2 0; 3 -1/4]"),
                        (Subspace(3, [E[0]]), "Subspace(dim 1 of Q^3)"),
                        (make_sl2(), "StructureTensor(dim=3)"),
                        (make_L1(2, 3), "BiHomAlgebra(dim=3, basis_names=('e1', 'e2', 'e3'))")):
        assert repr(value) == text


def test_kept_facts_change_neither_equality_nor_hash():
    """Filling _height, _entries, _lie and _killing leaves a value equal to,
    and hashed as, its twin that has none of them."""
    m, twin = MatrixQ.from_scaled(4, [[2, 0], [12, -1]]), MatrixQ([[Q(1, 2), 0], [3, Q(-1, 4)]])
    before = hash(m)
    assert m.height() == 12 and m.entries == twin.entries and m._height == 12
    assert m == twin and hash(m) == before == hash(twin)
    t = StructureTensor(make_sl2().c)
    fresh, before = StructureTensor.from_scaled(*t.scaled()), hash(t)
    assert not any(hasattr(t, slot) for slot in ("_height", "_lie", "_killing"))
    assert t.height() and is_lie_algebra(t).ok and killing_form(t) is t._killing
    assert t._lie is is_lie_algebra(t) and t.height() is t._height
    assert t == fresh and fresh == t and hash(t) == before == hash(fresh)


def test_bihom_algebra_keeps_its_report_and_induced_tensor():
    """check_all and induce_lie work once per object; equal objects do not
    share the result, and keeping it changes neither equality nor hash."""
    a = make_L1(2, 3)
    twin = BiHomAlgebra(3, a.tensor, a.alpha, a.beta)
    before = hash(a)
    report, induced = check_all(a), induce_lie(a)
    assert check_all(a) is report and induce_lie(a) is induced
    assert check_all(twin) is not report and induce_lie(twin) is not induced
    assert check_all(twin) == report and induce_lie(twin) == induced
    assert a == twin and hash(a) == before == hash(twin)

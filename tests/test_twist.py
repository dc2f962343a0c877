import random
from fractions import Fraction as Q

import pytest

from bihomlie.algebra import BiHomAlgebra, StructureTensor, conjugate_tensor, is_lie_algebra
from bihomlie.catalog import (
    make_L1,
    make_L2,
    make_L3,
    make_sl2,
    unipotent_beta,
    unipotent_full,
)
from bihomlie.errors import (
    DimensionMismatch,
    NotAutomorphism,
    NotCommuting,
    NotLie,
    NotRegular,
    SingularMatrix,
)
from bihomlie.exactlin import MatrixQ
from bihomlie.twist import TwistInput, induce_lie, roundtrip_check, yau_twist
from conftest import random_fraction


def diag_pair(a, b):
    return MatrixQ.diagonal([1, a, Q(1) / a]), MatrixQ.diagonal([1, b, Q(1) / b])


def unipotent_auto(s):
    """One-parameter unipotent automorphism family of the standard sl2."""
    s = Q(s)
    return MatrixQ([[1, 0, s], [-2 * s, 1, -s * s], [0, 0, 1]])


def test_twist_reproduces_l1_table():
    for a, b in [(Q(2), Q(3)), (Q(-3), Q(1, 2)), (Q(5, 7), Q(-7, 5))]:
        alpha, beta = diag_pair(a, b)
        twisted = yau_twist(TwistInput(make_sl2(), alpha, beta))
        assert twisted.tensor == make_L1(a, b).tensor
        assert twisted.alpha == alpha and twisted.beta == beta


def test_identity_twist_is_identity():
    for tensor in (make_sl2(),):
        twisted = yau_twist(TwistInput(tensor, MatrixQ.identity(3), MatrixQ.identity(3)))
        assert twisted.tensor == tensor


def test_twist_in_adapted_basis_reproduces_l2():
    # sl2 rewritten in the basis u1 = e, u2 = -h, u3 = -(1/4)e + (1/2)h - 2f
    # turns the unipotent map into an automorphism and the twist into L2
    cols = [(0, 1, 0), (-1, 0, 0), (Q(1, 2), Q(-1, 4), -2)]
    basis = MatrixQ.from_columns(cols)
    adapted = conjugate_tensor(make_sl2(), basis)
    twisted = yau_twist(TwistInput(adapted, MatrixQ.identity(3), unipotent_full()))
    assert twisted.tensor == make_L2().tensor
    assert twisted.tensor.bracket_basis(1, 1) == (Q(-2), Q(0), Q(0))


def test_induce_l1_recovers_sl2():
    induced, alpha, beta = induce_lie(make_L1(2, 3))
    assert induced == make_sl2()
    assert alpha == MatrixQ.diagonal([1, 2, Q(1, 2)])
    assert is_lie_algebra(induced).ok


def test_induce_roundtrip_catalog():
    for algebra in (make_L1(2, 3), make_L2(), make_L3(3)):
        induced, alpha, beta = induce_lie(algebra)
        again = yau_twist(TwistInput(induced, alpha, beta))
        assert again.tensor == algebra.tensor


def test_induce_not_regular():
    singular = BiHomAlgebra(dim=3, tensor=make_sl2(),
                            alpha=MatrixQ([[1, 0, 0], [0, 1, 0], [0, 0, 0]]),
                            beta=MatrixQ.identity(3))
    with pytest.raises(NotRegular):
        induce_lie(singular)


def test_roundtrip_check_examples():
    assert roundtrip_check(TwistInput(make_sl2(), *diag_pair(Q(2), Q(3))))
    assert roundtrip_check(TwistInput(make_sl2(), MatrixQ.identity(3), MatrixQ.identity(3)))
    # the unipotent pair in its adapted sl2 basis
    induced, _, _ = induce_lie(make_L3(2))
    assert roundtrip_check(TwistInput(induced, unipotent_full(), unipotent_beta(2)))


def test_roundtrip_random_pairs():
    rng = random.Random(31)
    for _ in range(10):
        if rng.random() < 0.5:
            a = random_fraction(rng, 10, nonzero=True)
            b = random_fraction(rng, 10, nonzero=True)
            alpha, beta = diag_pair(a, b)
        else:
            alpha = unipotent_auto(random_fraction(rng, 10))
            beta = unipotent_auto(random_fraction(rng, 10))
        tw = TwistInput(make_sl2(), alpha, beta)
        twisted = yau_twist(tw)
        from bihomlie.algebra import check_all
        assert check_all(twisted).all_pass
        assert roundtrip_check(tw)


def test_induced_maps_are_automorphisms():
    induced, alpha, beta = induce_lie(make_L3(2))
    for m in (alpha, beta):
        cols = [m.column(j) for j in range(3)]
        for i in range(3):
            for j in range(3):
                assert m.apply(induced.bracket_basis(i, j)) == \
                    induced.bracket(cols[i], cols[j])


def test_twist_rejects_non_lie():
    with pytest.raises(NotLie):
        yau_twist(TwistInput(make_L2().tensor, MatrixQ.identity(3), MatrixQ.identity(3)))


def test_twist_rejects_non_commuting():
    with pytest.raises(NotCommuting):
        yau_twist(TwistInput(StructureTensor.zero(2),
                             MatrixQ([[1, 1], [0, 1]]),
                             MatrixQ([[1, 0], [1, 1]])))


def test_twist_rejects_singular():
    with pytest.raises(SingularMatrix):
        yau_twist(TwistInput(make_sl2(), MatrixQ.diagonal([0, 1, 1]),
                             MatrixQ.identity(3)))


def test_twist_rejects_wrong_sized_maps_naming_the_map():
    # the shape is checked before the rank test, which would call a 2x2 map singular
    for alpha, beta, name in ((MatrixQ.identity(2), MatrixQ.identity(2), "alpha"),
                              (MatrixQ.identity(3), MatrixQ.identity(2), "beta"),
                              (MatrixQ.identity(4), MatrixQ.identity(3), "alpha"),
                              (MatrixQ.identity(3), MatrixQ([[1, 0, 0], [0, 1, 0]]), "beta")):
        with pytest.raises(DimensionMismatch, match=f"^{name} must be 3x3$"):
            yau_twist(TwistInput(make_sl2(), alpha, beta))


def test_twist_rejects_non_automorphism_naming_the_map():
    with pytest.raises(NotAutomorphism) as excinfo:
        yau_twist(TwistInput(make_sl2(), MatrixQ.identity(3), unipotent_full()))
    assert "beta" in str(excinfo.value)
    with pytest.raises(NotAutomorphism) as excinfo:
        yau_twist(TwistInput(make_sl2(), unipotent_full(), MatrixQ.identity(3)))
    assert "alpha" in str(excinfo.value)

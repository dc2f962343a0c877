import random
from fractions import Fraction as Q

import pytest

from bihomlie.algebra import (
    BiHomAlgebra,
    StructureTensor,
    check_all,
    conjugate_algebra,
    check_multiplicative_alpha,
    is_lie_algebra,
)
from bihomlie.analysis import (
    decompose_semisimple,
    is_semisimple_lie,
    is_simple,
    killing_form,
)
from bihomlie.catalog import (
    direct_sum,
    make_L1,
    make_L2,
    make_L3,
    make_sl2,
    printed_L3_tensor,
    sl2_bihom,
    unipotent_base_tensor,
    unipotent_beta,
    unipotent_full,
)
from bihomlie.errors import DimensionMismatch, NotAutomorphism, ZeroParameter
from bihomlie.exactlin import MatrixQ, det, zero_vector
from conftest import random_invertible

L1_SAMPLES = [(Q(2), Q(3)), (Q(-3), Q(1, 2)), (Q(5, 7), Q(-7, 5)), (Q(1), Q(1)),
              (Q(-1), Q(2))]
L3_SAMPLES = [Q(1), Q(2), Q(3), Q(-1), Q(5, 7), Q(0)]
# parameters of height above 10^30, which widen the packing of transform_tensor
TALL = [Q(10 ** 31 + 7, 3 ** 70), Q(-(2 ** 107 + 1), 10 ** 30 + 57), Q(-(10 ** 33 + 9), 7 ** 39)]
SPECIAL = [Q(0), Q(1), Q(-1), Q(3)]


# The paper's bracket tables, copied by hand: the reference that the derived
# catalog must equal. paper_l3 carries the two corrected entries of ERRATA.md.
def paper_l1(a, b):
    return StructureTensor.from_brackets(3, {
        (0, 1): (0, 2 * b, 0),
        (1, 0): (0, -2 * a, 0),
        (0, 2): (0, 0, Q(-2) / b),
        (2, 0): (0, 0, Q(2) / a),
        (1, 2): (a / b, 0, 0),
        (2, 1): (-b / a, 0, 0),
    })


PAPER_L2 = StructureTensor.from_brackets(3, {
    (0, 1): (2, 0, 0),
    (0, 2): (1, 2, 0),
    (1, 0): (-2, 0, 0),
    (1, 1): (-2, 0, 0),
    (1, 2): (1, 1, 2),
    (2, 0): (1, -2, 0),
    (2, 1): (0, -3, -2),
    (2, 2): (-1, -1, -2),
})


def paper_l3(a):
    return StructureTensor.from_brackets(3, {
        (0, 1): (2, 0, 0),
        (0, 2): (2 * a - 1, 2, 0),
        (1, 0): (-2, 0, 0),
        (1, 1): (2 * (1 - a), 0, 0),
        (1, 2): (3 * a - a * a, 3, 2),
        (2, 0): (-1, -2, 0),
        (2, 1): (-(a + 1), -(1 + 2 * a), -2),
        (2, 2): ((1 - a) * (a + 2) / 2, 1 - a * a, 2 * (1 - a)),
    })


# sl2 in the basis u1 = e, u2 = -h, u3 = -(1/4)e + (1/2)h - 2f
PAPER_UNIPOTENT_BASE = StructureTensor.from_brackets(3, {
    (0, 1): (2, 0, 0),
    (1, 0): (-2, 0, 0),
    (0, 2): (-1, 2, 0),
    (2, 0): (1, -2, 0),
    (1, 2): (1, 1, 2),
    (2, 1): (-1, -1, -2),
})


def assert_table(algebra, table, alpha, beta):
    """algebra is the table with the maps, entry for entry, and passes every axiom."""
    assert algebra == BiHomAlgebra(dim=3, tensor=table, alpha=alpha, beta=beta)
    assert algebra.tensor.c == table.c
    assert check_all(algebra).all_pass


def test_sl2_basics():
    t = make_sl2()
    assert is_lie_algebra(t).ok
    assert det(killing_form(t)) == -128
    assert is_semisimple_lie(t)


def test_l1_table_entry():
    assert make_L1(2, 3).tensor.bracket_basis(1, 2) == (Q(2, 3), Q(0), Q(0))


def test_l1_identity_parameters_give_sl2():
    a = make_L1(1, 1)
    assert a.tensor == make_sl2()
    assert a.alpha == MatrixQ.identity(3)
    assert a.beta == MatrixQ.identity(3)
    assert is_lie_algebra(a.tensor).ok


def test_l1_equals_paper_table():
    params = L1_SAMPLES + list(zip(TALL, TALL[1:] + TALL[:1]))
    params += [(a, b) for a in SPECIAL[1:] for b in (SPECIAL[3], TALL[0])]
    for a, b in params:
        assert_table(make_L1(a, b), paper_l1(a, b),
                     MatrixQ.diagonal([1, a, 1 / a]), MatrixQ.diagonal([1, b, 1 / b]))


def test_l1_zero_parameter():
    with pytest.raises(ZeroParameter):
        make_L1(0, 1)
    with pytest.raises(ZeroParameter):
        make_L1(2, 0)


def test_families_come_out_of_the_checked_twist(monkeypatch):
    """make_L1, make_L2 and make_L3 return what yau_twist makes of
    family_maps, so a map that broke the base's bracket would raise."""
    import bihomlie.catalog as catalog
    made, twist = [], catalog.yau_twist

    def recorded(tw):
        made.append(twist(tw))
        return made[-1]
    monkeypatch.setattr(catalog, "yau_twist", recorded)
    for build, family, params in ((make_L1, "L1", (Q(2), Q(3))), (make_L2, "L2", ()),
                                  (make_L3, "L3", (Q(-2, 3),))):
        a = build(*params)
        assert a is made[-1]
        assert (a.alpha, a.beta) == catalog.family_maps(family, *params)[1:]
    assert len(made) == 3
    monkeypatch.setattr(catalog, "family_maps", lambda family, *params: (
        make_sl2(), MatrixQ.diagonal([1, 2, 3]), MatrixQ.identity(3)))
    with pytest.raises(NotAutomorphism, match="alpha does not preserve the bracket"):
        make_L1(2, 3)
    with pytest.raises(ZeroParameter):   # checked before the maps are built
        make_L1(0, 3)


def test_l2_table_entry_and_axioms():
    a = make_L2()
    assert a.tensor.bracket_basis(1, 1) == (Q(-2), Q(0), Q(0))
    assert check_all(a).all_pass


def test_l2_and_base_equal_paper_tables():
    assert_table(make_L2(), PAPER_L2, MatrixQ.identity(3), unipotent_full())
    assert unipotent_base_tensor() == PAPER_UNIPOTENT_BASE
    assert unipotent_base_tensor().c == PAPER_UNIPOTENT_BASE.c


def test_sl2_and_base_are_built_once():
    assert make_sl2() is make_sl2()
    assert unipotent_base_tensor() is unipotent_base_tensor()


def test_l3_special_values():
    assert make_L3(1).tensor.bracket_basis(2, 2) == (Q(0), Q(0), Q(0))
    assert make_L3(3).tensor.bracket_basis(1, 2) == (Q(0), Q(3), Q(2))


def test_l3_axioms_sampled():
    for a in L3_SAMPLES:
        assert check_all(make_L3(a)).all_pass, a


def test_l3_equals_paper_table():
    for a in L3_SAMPLES + TALL + SPECIAL:
        assert_table(make_L3(a), paper_l3(a), unipotent_full(), unipotent_beta(a))


def test_errata_transcribed_l3_fails_axioms():
    # the transcribed grid disagrees with the twist in [e2,e3] and [e3,e3]
    # and fails multiplicativity; ERRATA.md records this witness
    transcribed = BiHomAlgebra(dim=3, tensor=printed_L3_tensor(2),
                               alpha=unipotent_full(), beta=unipotent_beta(2))
    result = check_multiplicative_alpha(transcribed)
    assert not result.ok
    assert result.witness.indices == (2, 2)
    assert result.witness.lhs == (Q(-6), Q(-5), Q(-2))
    assert result.witness.rhs == (Q(-7), Q(-5), Q(-2))
    # shipped entries differ exactly where the erratum says
    shipped = make_L3(2).tensor
    transcribed_t = printed_L3_tensor(2)
    diffs = [(i, j) for i in range(3) for j in range(3)
             if shipped.bracket_basis(i, j) != transcribed_t.bracket_basis(i, j)]
    assert diffs == [(1, 2), (2, 2)]


def test_catalog_entries_simple():
    entries = [make_L1(a, b) for a, b in L1_SAMPLES]
    entries += [make_L2()] + [make_L3(a) for a in L3_SAMPLES]
    for algebra in entries:
        assert is_simple(algebra)


def test_direct_sum_properties():
    double = direct_sum([sl2_bihom(), sl2_bihom()])
    assert double.dim == 6
    assert det(killing_form(double.tensor)) == (-128) ** 2
    assert len(decompose_semisimple(double.tensor)) == 2
    # the summand tensors embed block-diagonally
    assert double.tensor.bracket_basis(0, 1) == \
        (Q(0), Q(2), Q(0), Q(0), Q(0), Q(0))
    assert double.tensor.bracket_basis(3, 4) == \
        (Q(0), Q(0), Q(0), Q(0), Q(2), Q(0))
    assert double.tensor.bracket_basis(0, 4) == (Q(0),) * 6


def fraction_direct_sum(entries):
    """direct_sum as it was built before the views: Fraction block grids
    filled from bracket_basis and .entries."""
    total = sum(e.dim for e in entries)
    grid = [[list(zero_vector(total)) for _ in range(total)] for _ in range(total)]
    alpha = [[Q(0)] * total for _ in range(total)]
    beta = [[Q(0)] * total for _ in range(total)]
    offset = 0
    for e in entries:
        for i in range(e.dim):
            for j in range(e.dim):
                ck = e.tensor.bracket_basis(i, j)
                for k in range(e.dim):
                    grid[offset + i][offset + j][offset + k] = ck[k]
                alpha[offset + i][offset + j] = e.alpha.entries[i][j]
                beta[offset + i][offset + j] = e.beta.entries[i][j]
        offset += e.dim
    return BiHomAlgebra(dim=total, tensor=StructureTensor(grid), alpha=MatrixQ(alpha),
                        beta=MatrixQ(beta))


def test_direct_sum_matches_fraction_reference():
    """The view-built direct_sum equals the Fraction block grids on blocks
    with different denominators, on one block and on five blocks."""
    dense_sl2 = conjugate_algebra(sl2_bihom(), random_invertible(3, random.Random(2202), 3))
    mixed = [make_L1(Q(2, 3), Q(5, 7)), make_L3(Q(7, 5)), dense_sl2]
    assert len({e.tensor.scaled()[0] for e in mixed}) == 3
    five = [make_L1(2, 3), make_L3(5), make_L2(), make_L1(-3, Q(7, 2)), make_L3(-1)]
    for entries in (mixed, [dense_sl2], [make_L3(Q(7, 5))], five):
        built, expected = direct_sum(entries), fraction_direct_sum(entries)
        assert (built.dim, built.tensor, built.alpha, built.beta, built.basis_names) == (
            expected.dim, expected.tensor, expected.alpha, expected.beta, expected.basis_names)
        assert built.tensor.c == expected.tensor.c
        assert built.alpha.entries == expected.alpha.entries
        assert built.beta.entries == expected.beta.entries
    with pytest.raises(DimensionMismatch):
        direct_sum([])

import random
from fractions import Fraction as Q

import pytest

from bihomlie.algebra import (
    BiHomAlgebra,
    StructureTensor,
    check_all,
    conjugate_algebra,
    conjugate_tensor,
    is_lie_algebra,
    transform_tensor,
)
from bihomlie.catalog import (
    direct_sum,
    make_L1,
    make_L2,
    make_L3,
    make_sl2,
    unipotent_beta,
    unipotent_full,
)
from bihomlie.errors import (
    AxiomViolation,
    DimensionMismatch,
    NotAutomorphism,
    NotCommuting,
    NotLie,
    NotRegular,
    SingularMatrix,
)
from bihomlie.exactlin import MatrixQ, rank
from bihomlie.twist import TwistInput, induce_lie, require_axioms, roundtrip_check, yau_twist
from conftest import fraction_bracket, random_fraction, random_invertible
from test_algebra import random_basis, random_part


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
                    fraction_bracket(induced, cols[i], cols[j])


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


def corrupted(a, rng, part):
    """A copy of a with one fault. "bracket", "alpha", "beta": one entry
    moved by a nonzero rational, the maps kept invertible. "pair": both maps
    times invertible matrices that make them not commute. "twisted": one map
    plus a multiple of the identity, so the maps still commute, and the
    bracket twisted from a's induced Lie algebra by the new pair: only
    axiom (2) can fail, because the induced algebra is unchanged."""
    n = a.dim
    grid = [[list(row) for row in plane] for plane in a.tensor.c]
    maps = {"alpha": a.alpha, "beta": a.beta}
    if part == "bracket":
        grid[rng.randrange(n)][rng.randrange(n)][rng.randrange(n)] += random_fraction(rng, 3, True)
    while part == "pair" and maps["alpha"] * maps["beta"] == maps["beta"] * maps["alpha"]:
        maps = {name: m * random_invertible(n, rng) for name, m in maps.items()}
    while part in ("alpha", "beta") and (maps[part] is getattr(a, part) or rank(maps[part]) < n):
        rows = [list(row) for row in getattr(a, part).entries]
        rows[rng.randrange(n)][rng.randrange(n)] += random_fraction(rng, 3, True)
        maps[part] = MatrixQ(rows)
    if part == "twisted":
        name = rng.choice(("alpha", "beta"))
        while maps[name] is getattr(a, name) or rank(maps[name]) < n:
            maps[name] = getattr(a, name) + MatrixQ.diagonal([random_fraction(rng, 3, True)] * n)
        return BiHomAlgebra(dim=n, tensor=transform_tensor(induce_lie(a)[0], *maps.values()),
                            **maps)
    return BiHomAlgebra(dim=n, tensor=StructureTensor(grid), **maps)


def non_commuting_sl2(rng):
    """sl2 twisted by two of its automorphisms that do not commute: the
    induced algebra is sl2 and both maps are its automorphisms, so of the
    gate's tests only the commuting one fails."""
    alpha, beta = unipotent_auto(rng.randint(1, 3)), MatrixQ.diagonal([1, 2, Q(1, 2)])
    return BiHomAlgebra(dim=3, tensor=transform_tensor(make_sl2(), alpha, beta),
                        alpha=alpha, beta=beta)


def gate_outcome(a):
    try:
        require_axioms(a)
    except AxiomViolation as exc:
        return str(exc)
    return None


def test_gate_matches_check_all():
    """require_axioms passes exactly when the twisted check_all does, and
    each AxiomViolation names check_all's failing checks: on catalog sums of
    dims 3 to 9 in block and dense bases, on five corruptions of each, and
    on sums with a part whose maps are automorphisms that do not commute;
    the corrupted bracket with identity maps is the ordinary Lie check."""
    rng = random.Random(2101)
    dims, failures = set(), {}
    for trial in range(24):
        parts = [random_part(rng) for _ in range(rng.randint(1, 3))]
        basis = random_basis(3 * len(parts), rng) if trial % 2 else random_invertible(
            3 * len(parts), rng)
        a = conjugate_algebra(direct_sum(parts), basis)
        dims.add(a.dim)
        variants = {part: corrupted(a, rng, part)
                    for part in ("bracket", "alpha", "beta", "pair", "twisted")}
        variants["valid"] = a
        identity = MatrixQ.identity(a.dim)
        variants["identity maps"] = BiHomAlgebra(dim=a.dim, tensor=variants["bracket"].tensor,
                                                 alpha=identity, beta=identity)
        variants["automorphisms"] = conjugate_algebra(
            direct_sum([non_commuting_sl2(rng)] + parts[1:]), basis)
        for part, variant in variants.items():
            outcome = gate_outcome(variant)
            names = check_all(variant).failures()
            expected = ("input is not a verified BiHom-Lie algebra; failing checks: "
                        + ", ".join(names)) if names else None
            assert outcome == expected, (trial, part)
            failures.setdefault(part, set()).add(tuple(names))
    assert dims == {3, 6, 9}
    assert failures["valid"] == {()} and all(() not in f for f in failures.values() if f != {()})
    # each of these fails one test of the gate: "identity maps" the Lie test,
    # "twisted" the automorphism test of one map, "automorphisms" the commuting test
    assert failures["identity maps"] <= {("skew", "jacobi"), ("skew",), ("jacobi",)}
    assert failures["twisted"] == {("multiplicative_alpha",), ("multiplicative_beta",)}
    assert all("commuting" in names for names in failures["automorphisms"])

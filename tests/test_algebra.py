import random
from fractions import Fraction as Q

import pytest

from bihomlie.algebra import (
    AxiomReport,
    BiHomAlgebra,
    CheckResult,
    StructureTensor,
    Witness,
    bracket,
    check_all,
    check_bihom_jacobi,
    check_bihom_skew,
    check_commuting,
    check_multiplicative,
    check_multiplicative_alpha,
    conjugate_algebra,
    conjugate_tensor,
    is_abelian,
    is_lie_algebra,
    is_regular,
    transform_tensor,
)
from bihomlie.catalog import direct_sum, make_L1, make_L2, make_L3, make_sl2, sl2_bihom
from bihomlie.errors import (
    BiHomError,
    DimensionMismatch,
    NotAutomorphism,
    NotCommuting,
    NotLie,
    SingularMatrix,
)
from bihomlie.exactlin import (
    MatrixQ,
    Subspace,
    basis_vector,
    invert,
    lift_coordinates,
    rank,
    vec_add,
    vec_is_zero,
    vec_scale,
    zero_vector,
)
from bihomlie.twist import TwistInput, induce_lie, yau_twist
from conftest import random_fraction, random_invertible
from test_exactlin import fraction_invert, fraction_matmul, random_shaped


def test_bracket_l1_table_value():
    # [e1, e2] = 2b e2 at (a, b) = (2, 3)
    a = make_L1(2, 3)
    assert bracket(a, basis_vector(3, 0), basis_vector(3, 1)) == (Q(0), Q(6), Q(0))


def test_bracket_bilinear_zero():
    a = make_L1(2, 3)
    assert bracket(a, zero_vector(3), basis_vector(3, 1)) == zero_vector(3)


def test_bracket_sl2_e_f():
    assert make_sl2().bracket(basis_vector(3, 1), basis_vector(3, 2)) == basis_vector(3, 0)


def test_bracket_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        bracket(sl2_bihom(), (1, 0), (0, 1, 0))


def test_check_commuting_equal_maps():
    assert check_commuting(sl2_bihom()).ok


def test_check_commuting_diagonals():
    a = make_L1(2, 3)
    assert check_commuting(a).ok


def test_check_commuting_failure_witness():
    dummy = BiHomAlgebra(
        dim=2,
        tensor=StructureTensor.zero(2),
        alpha=MatrixQ([[0, 1], [0, 0]]),
        beta=MatrixQ([[1, 0], [1, 1]]),
    )
    result = check_commuting(dummy)
    assert not result.ok
    ab = dummy.alpha * dummy.beta
    ba = dummy.beta * dummy.alpha
    j = result.witness.indices[0]
    assert result.witness.lhs == ab.column(j) != ba.column(j) == result.witness.rhs


def test_check_multiplicative_l1():
    assert check_multiplicative(make_L1(2, 3)).ok


def test_check_multiplicative_identity_half():
    a = BiHomAlgebra(dim=3, tensor=make_sl2(), alpha=MatrixQ.identity(3),
                     beta=MatrixQ.diagonal([1, 2, 3]))
    assert check_multiplicative_alpha(a).ok


def test_check_multiplicative_failure():
    a = BiHomAlgebra(dim=3, tensor=make_sl2(), alpha=MatrixQ.diagonal([1, 2, 3]),
                     beta=MatrixQ.identity(3))
    result = check_multiplicative(a)
    assert not result.ok
    # the witness re-evaluates to a genuine inequality
    i, j = result.witness.indices
    lhs = a.alpha.apply(a.tensor.bracket_basis(i, j))
    rhs = a.tensor.bracket(a.alpha.column(i), a.alpha.column(j))
    assert lhs == result.witness.lhs
    assert rhs == result.witness.rhs
    assert lhs != rhs


def test_skew_ordinary_case():
    assert check_bihom_skew(sl2_bihom()).ok


def test_skew_l2_self_bracket():
    # BiHom skew-symmetry does not force [x, x] = 0
    a = make_L2()
    assert a.tensor.bracket_basis(1, 1) == (Q(-2), Q(0), Q(0))
    assert check_bihom_skew(a).ok


def test_skew_l1():
    assert check_bihom_skew(make_L1(2, 3)).ok


def test_jacobi_classical_case():
    assert check_bihom_jacobi(sl2_bihom()).ok


def test_jacobi_l1():
    assert check_bihom_jacobi(make_L1(2, 3)).ok


def test_jacobi_deliberate_violation():
    # flip the sign of [h, e] while leaving [e, h] alone
    broken = {
        (0, 1): (0, -2, 0),
        (1, 0): (0, -2, 0),
        (0, 2): (0, 0, -2),
        (2, 0): (0, 0, 2),
        (1, 2): (1, 0, 0),
        (2, 1): (-1, 0, 0),
    }
    a = BiHomAlgebra(dim=3, tensor=StructureTensor.from_brackets(3, broken),
                     alpha=MatrixQ.identity(3), beta=MatrixQ.identity(3))
    result = check_bihom_jacobi(a)
    assert not result.ok
    assert len(result.witness.indices) == 3


def test_check_all_l3():
    assert check_all(make_L3(3)).all_pass


def test_is_lie_algebra():
    assert is_lie_algebra(make_sl2()).ok
    assert is_lie_algebra(StructureTensor.zero(3)).ok
    result = is_lie_algebra(make_L2().tensor)
    assert not result.ok


def test_is_abelian():
    assert is_abelian(StructureTensor.zero(4))
    assert not is_abelian(make_sl2())
    assert not is_abelian(make_L1(2, 3).tensor)


def test_is_regular():
    assert is_regular(make_L1(2, 3))
    assert is_regular(sl2_bihom())
    singular = BiHomAlgebra(dim=3, tensor=make_sl2(),
                            alpha=MatrixQ([[1, 0, 0], [0, 1, 0], [0, 0, 0]]),
                            beta=MatrixQ.identity(3))
    assert not is_regular(singular)


def test_skew_on_random_vectors():
    # basis-level verdict extends to arbitrary rational combinations
    a = make_L1(2, 3)
    rng = random.Random(21)
    for _ in range(5):
        x = tuple(random_fraction(rng, 5) for _ in range(3))
        y = tuple(random_fraction(rng, 5) for _ in range(3))
        lhs = a.tensor.bracket(a.beta.apply(x), a.alpha.apply(y))
        rhs = vec_scale(-1, a.tensor.bracket(a.beta.apply(y), a.alpha.apply(x)))
        assert lhs == rhs


def test_identity_maps_reduce_to_lie():
    # with alpha = beta = identity, skew + jacobi hold iff the tensor is Lie
    solvable = StructureTensor.from_brackets(2, {(0, 1): (0, 1), (1, 0): (0, -1)})
    for tensor in (make_sl2(), StructureTensor.zero(3), make_L2().tensor, solvable):
        a = BiHomAlgebra(dim=tensor.dim, tensor=tensor,
                         alpha=MatrixQ.identity(tensor.dim),
                         beta=MatrixQ.identity(tensor.dim))
        both = check_bihom_skew(a).ok and check_bihom_jacobi(a).ok
        assert both == is_lie_algebra(tensor).ok


# --- Fraction oracle --------------------------------------------------------
# The axiom checkers as they were written before the integer gate: every
# identity evaluated with Fraction brackets in the loop order the gate keeps.

def fraction_check_commuting(a):
    ab = a.alpha * a.beta
    ba = a.beta * a.alpha
    if ab == ba:
        return CheckResult(True)
    ij = next((i, j) for i in range(a.dim) for j in range(a.dim)
              if ab.entries[i][j] != ba.entries[i][j])
    return CheckResult(False, Witness(
        indices=(ij[1],), lhs=ab.column(ij[1]), rhs=ba.column(ij[1]),
        detail="alpha(beta(e_j)) != beta(alpha(e_j))"))


def fraction_check_bracket_preserving(t, m, name):
    cols = [m.column(j) for j in range(t.dim)]
    for i in range(t.dim):
        for j in range(t.dim):
            lhs = m.apply(t.bracket_basis(i, j))
            rhs = t.bracket(cols[i], cols[j])
            if lhs != rhs:
                return CheckResult(False, Witness(
                    indices=(i, j), lhs=lhs, rhs=rhs,
                    detail=f"{name}([e_i,e_j]) != [{name}(e_i),{name}(e_j)]"))
    return CheckResult(True)


def fraction_check_bihom_skew(a):
    acols = [a.alpha.column(j) for j in range(a.dim)]
    bcols = [a.beta.column(j) for j in range(a.dim)]
    for i in range(a.dim):
        for j in range(i, a.dim):
            lhs = a.tensor.bracket(bcols[i], acols[j])
            rhs = vec_scale(-1, a.tensor.bracket(bcols[j], acols[i]))
            if lhs != rhs:
                return CheckResult(False, Witness(
                    indices=(i, j), lhs=lhs, rhs=rhs,
                    detail="[beta(e_i),alpha(e_j)] != -[beta(e_j),alpha(e_i)]"))
    return CheckResult(True)


def fraction_check_bihom_jacobi(a):
    n = a.dim
    acols = [a.alpha.column(j) for j in range(n)]
    bcols = [a.beta.column(j) for j in range(n)]
    beta2 = a.beta * a.beta
    b2cols = [beta2.column(j) for j in range(n)]

    def term(i, j, k):
        inner = a.tensor.bracket(bcols[j], acols[k])
        return a.tensor.bracket(b2cols[i], inner)

    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                total = vec_add(vec_add(term(i, j, k), term(j, k, i)), term(k, i, j))
                if not vec_is_zero(total):
                    return CheckResult(False, Witness(
                        indices=(i, j, k), lhs=total, rhs=zero_vector(n),
                        detail="cyclic BiHom-Jacobi sum is nonzero"))
    return CheckResult(True)


def fraction_check_all(a):
    return AxiomReport(
        commuting=fraction_check_commuting(a),
        multiplicative_alpha=fraction_check_bracket_preserving(a.tensor, a.alpha, "alpha"),
        multiplicative_beta=fraction_check_bracket_preserving(a.tensor, a.beta, "beta"),
        skew=fraction_check_bihom_skew(a),
        jacobi=fraction_check_bihom_jacobi(a),
    )


def fraction_is_lie_algebra(t):
    n = t.dim
    for i in range(n):
        for j in range(i, n):
            lhs = t.bracket_basis(i, j)
            rhs = vec_scale(-1, t.bracket_basis(j, i))
            if lhs != rhs:
                return CheckResult(False, Witness(
                    indices=(i, j), lhs=lhs, rhs=rhs,
                    detail="[e_i,e_j] != -[e_j,e_i]"))
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                total = vec_add(
                    vec_add(t.bracket(basis_vector(n, i), t.bracket_basis(j, k)),
                            t.bracket(basis_vector(n, j), t.bracket_basis(k, i))),
                    t.bracket(basis_vector(n, k), t.bracket_basis(i, j)))
                if not vec_is_zero(total):
                    return CheckResult(False, Witness(
                        indices=(i, j, k), lhs=total, rhs=zero_vector(n),
                        detail="classical Jacobi sum is nonzero"))
    return CheckResult(True)


def fraction_validate_twist(tw):
    lie_check = fraction_is_lie_algebra(tw.lie)
    if not lie_check.ok:
        raise NotLie(f"input bracket is not a Lie algebra: {lie_check.witness.detail} "
                     f"at indices {lie_check.witness.indices}")
    if tw.alpha * tw.beta != tw.beta * tw.alpha:
        raise NotCommuting("alpha and beta do not commute")
    for name, m in (("alpha", tw.alpha), ("beta", tw.beta)):
        if rank(m) != tw.lie.dim:
            raise SingularMatrix(f"{name} is not invertible")
    for name, m in (("alpha", tw.alpha), ("beta", tw.beta)):
        cols = [m.column(j) for j in range(tw.lie.dim)]
        for i in range(tw.lie.dim):
            for j in range(tw.lie.dim):
                if m.apply(tw.lie.bracket_basis(i, j)) != tw.lie.bracket(cols[i], cols[j]):
                    raise NotAutomorphism(
                        f"{name} does not preserve the bracket at basis pair ({i + 1}, {j + 1})")


# --- the integer gate against the oracle -------------------------------------

def random_part(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return make_L1(random_fraction(rng, 5, nonzero=True),
                       random_fraction(rng, 5, nonzero=True))
    if kind == 1:
        return make_L2()
    if kind == 2:
        return make_L3(random_fraction(rng, 5))
    return sl2_bihom()


def random_basis(n, rng):
    """random_invertible at dim 3, 3x3 random_invertible blocks above: the
    Fraction oracle takes about 0.13 s per check on a dense dim-6 basis."""
    if n == 3:
        return random_invertible(n, rng)
    blocks = [random_invertible(3, rng) for _ in range(n // 3)]
    return MatrixQ([[blocks[i // 3].entries[i % 3][j % 3] if i // 3 == j // 3 else 0
                     for j in range(n)] for i in range(n)])


def power(m, k):
    out = MatrixQ.identity(m.rows)
    for _ in range(k):
        out = out * m
    return out


def random_valid(rng):
    """A verified algebra of dim 3, 6 or 9 (dim 9 least often: the oracle is
    slowest there): a direct sum of catalog algebras, or its induced Lie
    algebra twisted again by alpha^p beta^q and alpha^r beta^s, in a random
    basis."""
    algebra = direct_sum([random_part(rng) for _ in range(rng.choice((1, 1, 1, 2, 2, 2, 2, 3)))])
    if rng.random() < 0.5:
        lie, alpha, beta = induce_lie(algebra)
        p, q, r, s = (rng.randint(0, 1) for _ in range(4))
        algebra = yau_twist(TwistInput(lie, power(alpha, p) * power(beta, q),
                                       power(alpha, r) * power(beta, s)))
    return conjugate_algebra(algebra, random_basis(algebra.dim, rng))


def perturbed(a, rng, part):
    """A copy with one bracket, alpha or beta entry moved by a nonzero rational."""
    n, delta = a.dim, random_fraction(rng, 3, nonzero=True)
    grid = [[list(row) for row in plane] for plane in a.tensor.c]
    maps = {"alpha": [list(row) for row in a.alpha.entries],
            "beta": [list(row) for row in a.beta.entries]}
    if part == "bracket":
        grid[rng.randrange(n)][rng.randrange(n)][rng.randrange(n)] += delta
    else:
        maps[part][rng.randrange(n)][rng.randrange(n)] += delta
    return BiHomAlgebra(dim=n, tensor=StructureTensor(grid),
                        alpha=MatrixQ(maps["alpha"]), beta=MatrixQ(maps["beta"]))


def assert_fraction_witnesses(results):
    for result in results:
        if result.witness is not None:
            assert all(isinstance(x, Q) for x in result.witness.lhs + result.witness.rhs)


NAMES = ("commuting", "multiplicative_alpha", "multiplicative_beta", "skew", "jacobi")


def test_integer_gate_matches_fraction_oracle():
    rng = random.Random(404)
    failed = dict.fromkeys(NAMES, 0)
    dims = set()
    cases = 0
    for _ in range(52):
        a = random_valid(rng)
        dims.add(a.dim)
        for variant in (a, perturbed(a, rng, "bracket"), perturbed(a, rng, "alpha"),
                        perturbed(a, rng, "beta")):
            report = check_all(variant)
            expected = fraction_check_all(variant)
            assert report == expected, (cases, report.failures(), expected.failures())
            assert_fraction_witnesses(getattr(report, name) for name in NAMES)
            for name in report.failures():
                failed[name] += 1
            cases += 1
        assert check_all(a).all_pass
    assert cases >= 200 and dims == {3, 6, 9}
    # every axiom failed somewhere, so every witness path was compared
    assert all(failed.values()), failed


def test_lie_gate_matches_fraction_oracle():
    rng = random.Random(405)
    cases = 0
    for _ in range(25):
        lie = induce_lie(random_valid(rng))[0]
        n = rng.randint(2, 4)
        noise = [[[random_fraction(rng, 3) for _ in range(n)] for _ in range(n)]
                 for _ in range(n)]
        skew = [[[noise[i][j][k] if i < j else -noise[j][i][k] if i > j else 0
                  for k in range(n)] for j in range(n)] for i in range(n)]
        grid = [[list(row) for row in plane] for plane in lie.c]
        i, j, k = (rng.randrange(lie.dim) for _ in range(3))
        delta = random_fraction(rng, 3, nonzero=True)
        grid[i][j][k] += delta
        one_entry = StructureTensor(grid)
        if i != j:
            grid[j][i][k] -= delta     # keeps skew-symmetry, breaks Jacobi
        pair = StructureTensor(grid)
        for t in (lie, StructureTensor(noise), StructureTensor(skew), one_entry, pair):
            result = is_lie_algebra(t)
            assert result == fraction_is_lie_algebra(t), cases
            assert_fraction_witnesses([result])
            cases += 1
        assert is_lie_algebra(lie).ok
    assert cases >= 100


def twist_outcome(validate, tw):
    try:
        validate(tw)
    except BiHomError as exc:
        return type(exc), str(exc)
    return None


def test_twist_validation_matches_fraction_oracle():
    rng = random.Random(406)
    kinds = set()
    for _ in range(8):
        lie, alpha, beta = induce_lie(random_valid(rng))
        n = lie.dim
        shift = MatrixQ.identity(n).scale(random_fraction(rng, 3, nonzero=True))
        for pair in ((alpha, beta), (alpha + shift, beta), (alpha, beta + shift),
                     (alpha, random_invertible(n, rng)), (alpha * beta, beta * beta)):
            tw = TwistInput(lie, *pair)
            expected = twist_outcome(fraction_validate_twist, tw)
            assert twist_outcome(yau_twist, tw) == expected
            kinds.add(expected and expected[0])
    assert {None, NotAutomorphism, NotCommuting} <= kinds


# --- transform_tensor against the Fraction bracket grids ----------------------
# yau_twist, induce_lie and conjugate_tensor as they built their tensors before
# transform_tensor: n^2 Fraction brackets of basis images.

def fraction_twist_grid(lie, alpha, beta):
    n = lie.dim
    acols = [alpha.column(j) for j in range(n)]
    bcols = [beta.column(j) for j in range(n)]
    return StructureTensor([[lie.bracket(acols[i], bcols[j]) for j in range(n)]
                            for i in range(n)])


def fraction_induce_grid(a):
    return fraction_twist_grid(a.tensor, fraction_invert(a.alpha), fraction_invert(a.beta))


def fraction_conjugate_grid(t, basis):
    inv = fraction_invert(basis)
    cols = [basis.column(j) for j in range(t.dim)]
    return StructureTensor([[inv.apply(t.bracket(cols[i], cols[j])) for j in range(t.dim)]
                            for i in range(t.dim)])


def fraction_transform_grid(t, left, right, out):
    """out [left e_i, right e_j] for n x d maps left, right and d x n out."""
    lcols = [left.column(i) for i in range(left.cols)]
    rcols = [right.column(j) for j in range(right.cols)]
    return StructureTensor([[out.apply(t.bracket(x, y)) for y in rcols] for x in lcols])


def assert_lowest_terms(t):
    """The view a transformed tensor keeps is the one its entries give afresh."""
    assert t.scaled() == StructureTensor(t.c).scaled()


def test_transform_tensor_matches_fraction_grids():
    rng, shapes = random.Random(409), random.Random(410)
    cases = {}
    for dim in (3, 3, 6, 6, 6, 9, 9, 9):
        for dense in (True, False):
            algebra = direct_sum([random_part(rng) for _ in range(dim // 3)])
            basis = random_invertible(dim, rng) if dense else random_basis(dim, rng)
            conj = conjugate_algebra(algebra, basis)
            assert conj.tensor == fraction_conjugate_grid(algebra.tensor, basis)
            assert conjugate_tensor(algebra.tensor, basis) == conj.tensor
            assert conj.alpha == fraction_matmul(fraction_matmul(
                fraction_invert(basis), algebra.alpha), basis)
            lie = induce_lie(conj)[0]
            assert lie == fraction_induce_grid(conj)
            p, q = rng.randint(0, 2), rng.randint(0, 2)
            alpha = fraction_matmul(power(conj.alpha, p), power(conj.beta, q))
            twisted = yau_twist(TwistInput(lie, alpha, conj.beta))
            assert twisted.tensor == fraction_twist_grid(lie, alpha, conj.beta)
            # arbitrary maps, singular ones included, through all three slots
            left, right, out = (random_shaped(rng, dim, dim, rng.randint(0, dim), 9)
                                for _ in range(3))
            general = fraction_twist_grid(conj.tensor, left, right)
            assert transform_tensor(conj.tensor, left, right) == general
            assert transform_tensor(conj.tensor, left, right, out) == StructureTensor(
                [[out.apply(v) for v in plane] for plane in general.c])
            # rectangular maps: n x d left and right, d x n out
            d = shapes.randint(1, dim)
            left, right = (random_shaped(shapes, dim, d, shapes.randint(0, d), 9)
                           for _ in range(2))
            out = random_shaped(shapes, d, dim, shapes.randint(0, d), 9)
            assert transform_tensor(conj.tensor, left, right, out) == \
                fraction_transform_grid(conj.tensor, left, right, out)
            # restriction to the first ideal of the induced algebra, in the
            # coordinates of its RREF basis: columns B, pivot selector P
            inv = invert(basis)
            ideal = Subspace(dim, [inv.column(k) for k in range(3)])
            b = MatrixQ(list(zip(*ideal.basis_rows)))
            p = MatrixQ([basis_vector(dim, next(j for j, x in enumerate(row) if x))
                         for row in ideal.basis_rows])
            restricted = transform_tensor(lie, b, b, p)
            assert restricted == fraction_transform_grid(lie, b, b, p)
            assert is_lie_algebra(restricted).ok
            assert all(lift_coordinates(ideal, restricted.c[i][j])
                       == lie.bracket(b.column(i), b.column(j))
                       for i in range(3) for j in range(3))
            for t in (conj.tensor, lie, twisted.tensor, restricted):
                assert_lowest_terms(t)
            cases[dim, dense] = cases.get((dim, dense), 0) + 1
    assert len(cases) == 6
    sl2, identity = make_sl2(), MatrixQ.identity(3)
    thin = MatrixQ([[1, 0], [0, 1], [0, 0]])
    for maps in ((identity, MatrixQ.identity(2)), (thin, identity), (thin, thin),
                 (thin, thin, identity), (thin, thin, thin), (identity, identity, thin)):
        with pytest.raises(DimensionMismatch):
            transform_tensor(sl2, *maps)
    with pytest.raises(DimensionMismatch):
        conjugate_tensor(make_sl2(), MatrixQ.identity(2))

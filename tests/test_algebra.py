import itertools
import random
from fractions import Fraction as Q

import pytest

from bihomlie import algebra as algebra_module
from bihomlie import analysis as analysis_module
from bihomlie.algebra import (
    AxiomReport,
    BiHomAlgebra,
    CheckResult,
    StructureTensor,
    Witness,
    check_all,
    check_bihom_jacobi,
    check_bihom_skew,
    check_commuting,
    check_multiplicative_alpha,
    conjugate_algebra,
    conjugate_tensor,
    homomorphism_failure,
    is_lie_algebra,
    transform_tensor,
)
from bihomlie.catalog import direct_sum, make_L1, make_L2, make_L3, make_sl2, sl2_bihom
from bihomlie.errors import (
    BiHomError,
    DimensionMismatch,
    NotAutomorphism,
    NotCommuting,
    NotLie,
    NotRegular,
    SingularMatrix,
)
from bihomlie.exactlin import (
    MatrixQ,
    Subspace,
    basis_vector,
    invert,
    pack,
    pack_width,
    rank,
    unpack,
    vec_add,
    vec_scale,
    zero_vector,
)
from bihomlie.fileio import algebra_to_dict, dumps_algebra
from bihomlie.twist import TwistInput, induce_lie, yau_twist
from conftest import fraction_bracket, lift_coordinates, random_fraction, random_invertible
from test_exactlin import (
    assert_canonical,
    fraction_invert,
    fraction_matmul,
    random_entry,
    random_shaped,
    scaled_twin,
)


def test_bracket_l1_table_value():
    # [e1, e2] = 2b e2 at (a, b) = (2, 3)
    a = make_L1(2, 3)
    assert a.tensor.bracket(basis_vector(3, 0), basis_vector(3, 1)) == (Q(0), Q(6), Q(0))


def test_bracket_bilinear_zero():
    a = make_L1(2, 3)
    assert a.tensor.bracket(zero_vector(3), basis_vector(3, 1)) == zero_vector(3)


def test_bracket_sl2_e_f():
    assert make_sl2().bracket(basis_vector(3, 1), basis_vector(3, 2)) == basis_vector(3, 0)


def test_bracket_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        sl2_bihom().tensor.bracket((1, 0), (0, 1, 0))


def test_bracket_matches_fraction_reference():
    """StructureTensor.bracket, ad(x) y on the integer view, equals the
    Fraction triple loop of conftest on seeded dense tensors with entries
    above 10^30 and on zero vectors, builds no Fraction grid, and raises the
    same DimensionMismatch message for a vector of the wrong length."""
    rng = random.Random(2201)

    def dense(dim):
        return [Q(rng.randint(-10 ** 31, 10 ** 31), rng.randint(1, 10 ** 31))
                for _ in range(dim)]

    for dim in (1, 2, 3, 4, 6):
        grid = StructureTensor([[dense(dim) for _ in range(dim)] for _ in range(dim)])
        t = StructureTensor.from_scaled(*grid.scaled())
        assert t.height() > 10 ** 30
        x, y, zero = dense(dim), dense(dim), zero_vector(dim)
        for u, v in ((x, y), (y, x), (x, x), (zero, y), (x, zero), (zero, zero)):
            assert t.bracket(u, v) == fraction_bracket(grid, u, v)
        assert not hasattr(t, "_c")
        for u, v in ((x[1:], y), (x, y + [Q(1)]), (x + [Q(1)], y[1:])):
            with pytest.raises(DimensionMismatch) as got:
                t.bracket(u, v)
            with pytest.raises(DimensionMismatch) as expected:
                fraction_bracket(grid, u, v)
            assert str(got.value) == str(expected.value)


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
    report = check_all(make_L1(2, 3))
    assert report.multiplicative_alpha.ok
    assert report.multiplicative_beta.ok


def test_check_multiplicative_identity_half():
    a = BiHomAlgebra(dim=3, tensor=make_sl2(), alpha=MatrixQ.identity(3),
                     beta=MatrixQ.diagonal([1, 2, 3]))
    assert check_multiplicative_alpha(a).ok


def test_check_multiplicative_failure():
    a = BiHomAlgebra(dim=3, tensor=make_sl2(), alpha=MatrixQ.diagonal([1, 2, 3]),
                     beta=MatrixQ.identity(3))
    report = check_all(a)
    assert report.multiplicative_beta.ok
    result = report.multiplicative_alpha
    assert not result.ok
    # the witness re-evaluates to a genuine inequality
    i, j = result.witness.indices
    lhs = a.alpha.apply(a.tensor.bracket_basis(i, j))
    rhs = fraction_bracket(a.tensor, a.alpha.column(i), a.alpha.column(j))
    assert lhs == result.witness.lhs
    assert rhs == result.witness.rhs
    assert lhs != rhs


def test_homomorphism_failure_dimension_mismatch():
    sl2 = make_sl2()
    with pytest.raises(DimensionMismatch,
                       match="^map of shape 3x2 between tensors of dimension 3 and 3$"):
        homomorphism_failure(MatrixQ([[1, 0], [0, 1], [0, 0]]), sl2)
    with pytest.raises(DimensionMismatch,
                       match="^map of shape 3x3 between tensors of dimension 3 and 6$"):
        homomorphism_failure(MatrixQ.identity(3), sl2, direct_sum([sl2_bihom()] * 2).tensor)


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
    assert StructureTensor.zero(4).is_zero()
    assert not make_sl2().is_zero()
    assert not make_L1(2, 3).tensor.is_zero()


def test_is_regular():
    # regular means induce_lie inverts both maps instead of raising NotRegular
    assert induce_lie(make_L1(2, 3))[0].dim == 3
    assert induce_lie(sl2_bihom())[0] == make_sl2()
    singular = BiHomAlgebra(dim=3, tensor=make_sl2(),
                            alpha=MatrixQ([[1, 0, 0], [0, 1, 0], [0, 0, 0]]),
                            beta=MatrixQ.identity(3))
    with pytest.raises(NotRegular):
        induce_lie(singular)


def test_skew_on_random_vectors():
    # basis-level verdict extends to arbitrary rational combinations
    a = make_L1(2, 3)
    rng = random.Random(21)
    for _ in range(5):
        x = tuple(random_fraction(rng, 5) for _ in range(3))
        y = tuple(random_fraction(rng, 5) for _ in range(3))
        lhs = fraction_bracket(a.tensor, a.beta.apply(x), a.alpha.apply(y))
        rhs = vec_scale(-1, fraction_bracket(a.tensor, a.beta.apply(y), a.alpha.apply(x)))
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
            rhs = fraction_bracket(t, cols[i], cols[j])
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
            lhs = fraction_bracket(a.tensor, bcols[i], acols[j])
            rhs = vec_scale(-1, fraction_bracket(a.tensor, bcols[j], acols[i]))
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
        inner = fraction_bracket(a.tensor, bcols[j], acols[k])
        return fraction_bracket(a.tensor, b2cols[i], inner)

    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                total = vec_add(vec_add(term(i, j, k), term(j, k, i)), term(k, i, j))
                if any(total):
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
                    vec_add(fraction_bracket(t, basis_vector(n, i), t.bracket_basis(j, k)),
                            fraction_bracket(t, basis_vector(n, j), t.bracket_basis(k, i))),
                    fraction_bracket(t, basis_vector(n, k), t.bracket_basis(i, j)))
                if any(total):
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
                rhs = fraction_bracket(tw.lie, cols[i], cols[j])
                if m.apply(tw.lie.bracket_basis(i, j)) != rhs:
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


def test_induced_tensor_of_verified_algebra_is_lie():
    """The axioms imply that the induced tensor is Lie: every twist,
    re-twist and conjugate that the Fraction axiom oracle accepts induces a
    tensor that the Fraction Lie oracle accepts."""
    rng = random.Random(1402)
    dims = set()
    for _ in range(16):
        a = random_valid(rng)
        assert fraction_check_all(a).all_pass
        assert fraction_is_lie_algebra(induce_lie(a)[0]).ok
        dims.add(a.dim)
    assert dims == {3, 6, 9}


def test_skew_jacobi_witnesses_match_fraction_loop():
    """_skew_jacobi runs Jacobi over distinct triples once skew holds and
    over sorted ones while it fails; either way its results and witnesses
    are those of a Fraction loop over all i <= j <= k, on inputs where skew
    holds and Jacobi fails and on inputs where both fail, with the twisting
    maps and with identity maps (passed as None)."""
    rng = random.Random(2102)
    details = ("[beta(e_i),alpha(e_j)] != -[beta(e_j),alpha(e_i)]",
               "cyclic BiHom-Jacobi sum is nonzero")
    kinds = set()
    for _ in range(10):
        lie, alpha, beta = induce_lie(random_valid(rng))
        n, identity = lie.dim, MatrixQ.identity(lie.dim)
        grid = [[list(row) for row in plane] for plane in lie.c]
        (i, j), k, delta = rng.sample(range(n), 2), rng.randrange(n), random_fraction(rng, 3, True)
        grid[i][j][k] += delta
        grid[j][i][k] -= delta
        skew_kept = StructureTensor(grid)
        grid[i][j][k] += delta
        for t in (skew_kept, StructureTensor(grid)):
            for a in (BiHomAlgebra(dim=n, tensor=t, alpha=identity, beta=identity),
                      BiHomAlgebra(dim=n, tensor=transform_tensor(t, alpha, beta),
                                   alpha=alpha, beta=beta)):
                maps = (None, None) if a.alpha is identity else (a.alpha, a.beta)
                got = algebra_module._skew_jacobi(a.tensor, *maps, details)
                assert got == [fraction_check_bihom_skew(a), fraction_check_bihom_jacobi(a)]
                kinds.add((got[0].ok, got[1].ok, maps[0] is None))
    assert kinds >= {(skew, False, plain) for skew in (True, False) for plain in (True, False)}


# --- the packed comparisons at large heights and at the edge slots -----------

def huge_valid(rng, dim):
    """A verified direct sum of dim // 3 catalog parts in a basis that scales
    each vector by a signed rational of height up to 10^30."""
    scale = MatrixQ.diagonal([Q(rng.choice((1, -1)) * rng.randint(1, 10 ** 30),
                                rng.randint(1, 10 ** 30)) for _ in range(dim)])
    return conjugate_algebra(direct_sum([random_part(rng) for _ in range(dim // 3)]),
                             random_basis(dim, rng) * scale)


def edge_delta(rng):
    return rng.choice((random_fraction(rng, 3, nonzero=True),
                       Q(rng.randint(1, 10 ** 30), rng.randint(1, 10 ** 30))))


def slot_perturbed(a, rng, part, slots):
    """A copy with output coordinates `slots` of one bracket value or of one
    map column moved: one slot by delta, or two adjacent slots by +delta and
    -delta."""
    n, delta, i, j = a.dim, edge_delta(rng), rng.randrange(a.dim), rng.randrange(a.dim)
    grid = [[list(row) for row in plane] for plane in a.tensor.c]
    maps = {"alpha": [list(row) for row in a.alpha.entries],
            "beta": [list(row) for row in a.beta.entries]}
    for r, sign in zip(slots, (1, -1)):
        if part == "bracket":
            grid[i][j][r] += sign * delta
        else:
            maps[part][r][j] += sign * delta
    return BiHomAlgebra(dim=n, tensor=StructureTensor(grid),
                        alpha=MatrixQ(maps["alpha"]), beta=MatrixQ(maps["beta"]))


def edge_slots(n, rng):
    r = rng.randrange(n - 1)
    return ((0,), (n - 1,), (0, 1), (n - 2, n - 1), (r, r + 1))


def test_gates_match_fraction_oracle_at_edge_slots():
    """Heights up to 10^30 and more at dims 3, 6 and 9; perturbations that
    move only the lowest or only the highest packed slot, or two adjacent
    slots by opposite deltas."""
    rng = random.Random(411)
    failed, lie_failed = dict.fromkeys(NAMES, 0), 0
    for dim in (3, 6, 9, 3, 6):
        a = huge_valid(rng, dim)
        assert check_all(a).all_pass
        variants = [slot_perturbed(a, rng, part, slots) for part in ("bracket", "alpha", "beta")
                    for slots in edge_slots(dim, rng)[:4 if dim == 9 else 5]]
        for variant in variants:
            report = check_all(variant)
            assert report == fraction_check_all(variant), (dim, report.failures())
            assert_fraction_witnesses(getattr(report, name) for name in NAMES)
            for name in report.failures():
                failed[name] += 1
        lie = induce_lie(a)[0]
        assert is_lie_algebra(lie).ok
        for slots in edge_slots(dim, rng):
            grid, delta = [[list(row) for row in plane] for plane in lie.c], edge_delta(rng)
            i, j = rng.sample(range(dim), 2)
            for r, sign in zip(slots, (1, -1)):
                grid[i][j][r] += sign * delta
                grid[j][i][r] -= sign * delta    # keeps skew-symmetry
            t = StructureTensor(grid)
            result = is_lie_algebra(t)
            assert result == fraction_is_lie_algebra(t)
            assert_fraction_witnesses([result])
            lie_failed += not result.ok
    assert all(failed.values()) and lie_failed, (failed, lie_failed)


def fraction_homomorphism_failure(m, src, dst):
    cols = [m.column(j) for j in range(src.dim)]
    return next(((i, j) for i in range(src.dim) for j in range(src.dim)
                 if m.apply(src.bracket_basis(i, j))
                 != fraction_bracket(dst, cols[i], cols[j])), None)


def test_homomorphism_failure_matches_fraction_oracle():
    """src != dst with different denominators, as iso3 and _triple_at call
    it: m = P^-1 carries src onto its conjugate by P. A change of src at the
    last basis pair fails only there."""
    rng = random.Random(412)
    outcomes = set()
    for dim in (3, 6, 9, 3, 6, 9):
        src = huge_valid(rng, dim).tensor
        basis = random_basis(dim, rng) * MatrixQ.diagonal(
            [Q(rng.randint(1, 10 ** 30), rng.randint(1, 10 ** 6)) for _ in range(dim)])
        dst, m = conjugate_tensor(src, basis), invert(basis)
        assert src.scaled()[0] != dst.scaled()[0]
        cases = [(m, src, dst)]
        for slots in edge_slots(dim, rng):
            for target in ("src", "dst", "map"):
                delta = edge_delta(rng)
                grid = [[list(row) for row in plane]
                        for plane in (dst if target == "dst" else src).c]
                rows = [list(row) for row in m.entries]
                i, j = divmod(dim * dim - 1 if target == "src" else rng.randrange(dim * dim), dim)
                for r, sign in zip(slots, (1, -1)):
                    if target == "map":
                        rows[r][j] += sign * delta
                    else:
                        grid[i][j][r] += sign * delta
                changed = StructureTensor(grid)
                cases.append((MatrixQ(rows), changed if target == "src" else src,
                              changed if target == "dst" else dst))
                if target == "src":
                    assert homomorphism_failure(*cases[-1]) == (dim - 1, dim - 1)
        for case in cases:
            found = homomorphism_failure(*case)
            assert found == fraction_homomorphism_failure(*case)
            outcomes.add(found and found[0] * dim + found[1] < dim * dim - 1)
    assert outcomes == {None, False, True}


def test_pack_zero_only_at_zero():
    """Exhaustive for widths w <= 4 and lengths n <= 3: pack(v, w) is zero only
    for v = 0, and distinct, over every v with all |v_r| < 2^(w-1), and unpack
    recovers v; past that bound a carry can cancel. pack is linear, and
    pack_width(b) is the least w with 2^(w-1) > b."""
    for w in range(1, 5):
        half = 1 << (w - 1)
        for n in range(1, 4):
            vectors = list(itertools.product(range(1 - half, half), repeat=n))
            packed = [pack(v, w) for v in vectors]
            assert all((p == 0) == (not any(v)) for p, v in zip(packed, vectors)), (w, n)
            assert len(set(packed)) == len(vectors)
            assert all(unpack(p, w, n) == list(v) for p, v in zip(packed, vectors)), (w, n)
        assert pack((1 << w, -1), w) == 0
    rng = random.Random(413)
    for _ in range(50):
        u, v = ([rng.randint(-99, 99) for _ in range(4)] for _ in range(2))
        x, y, w = rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(1, 12)
        assert x * pack(u, w) + y * pack(v, w) == pack([x * a + y * b for a, b in zip(u, v)], w)
    for bound in range(300):
        w = pack_width(bound)
        assert 2 ** (w - 1) > bound >= 2 ** (w - 2) or (bound == 0 and w == 1)


def scaled_residue_heights(widths, kernel, residues):
    """Run kernel with pack_width recorded; return (the largest |entry| over
    the true integer residues, 2^(w-1) for the width of the kernel's last
    packing, the one that holds them)."""
    widths.clear()
    kernel()
    return max(abs(x) for v in residues for x in v), 2 ** (widths[-1] - 1)


def scaled_transform_entries(t, left, right, out):
    """The integer planes the contraction of transform_tensor unpacks: the
    Fraction grid out [left e_i, right e_j] times the four view scales."""
    scale = t.scaled()[0] * left.scaled()[0] * right.scaled()[0] * out.scaled()[0]
    return [[scale * x for x in v] for plane in fraction_transform_grid(t, left, right, out).c
            for v in plane]


def test_pack_width_bounds_true_residues(monkeypatch):
    """The width each kernel computes keeps every true residue it packs below
    2^(w-1), on valid and perturbed inputs alike: the integer Jacobi sums,
    the S = [beta e_j, alpha e_k] planes contracted before them and the
    bracket-preservation differences of the scaled views; the planes of a
    conjugation and of a restriction; the entries of the Killing form."""
    widths = []
    for module in (algebra_module, analysis_module):
        monkeypatch.setattr(module, "pack_width",
                            lambda bound: widths.append(pack_width(bound)) or widths[-1])
    rng = random.Random(414)
    nonzero = 0
    for dim in (3, 6, 9, 3, 6):
        a = huge_valid(rng, dim)
        basis, d = random_basis(dim, rng), rng.randint(2, dim - 1)
        thin = MatrixQ([row[:d] for row in basis.entries])       # n x d, then d x n
        for args in ((basis, basis, fraction_invert(basis)),
                     (thin, thin, random_shaped(rng, d, dim, d, 10 ** 30))):
            top, limit = scaled_residue_heights(
                widths, lambda: transform_tensor(a.tensor, *args),
                scaled_transform_entries(a.tensor, *args))
            assert 0 < top < limit
        for variant in [a] + [slot_perturbed(a, rng, part, slots)
                              for part in ("bracket", "alpha", "beta")
                              for slots in edge_slots(dim, rng)[:2]]:
            t, n = variant.tensor, dim
            dc, (da, db) = t.scaled()[0], (variant.alpha.scaled()[0], variant.beta.scaled()[0])
            b2 = variant.beta * variant.beta
            acols = [variant.alpha.column(j) for j in range(n)]
            bcols = [variant.beta.column(j) for j in range(n)]

            def term(x, y, z):
                return fraction_bracket(t, b2.column(x), fraction_bracket(t, bcols[y], acols[z]))

            sums = [vec_add(vec_add(term(i, j, k), term(j, k, i)), term(k, i, j))
                    for i in range(n) for j in range(i, n) for k in range(j, n)]
            scale = da * db ** 3 * dc ** 2
            top, limit = scaled_residue_heights(widths, lambda: algebra_module._skew_jacobi(
                t, variant.alpha, variant.beta, ("", "")), [[scale * x for x in v] for v in sums])
            assert top < limit
            nonzero += top > 0
            # packed by the first call
            s_planes = [da * db * dc * x for j in range(n) for k in range(n)
                        for x in fraction_bracket(t, bcols[j], acols[k])]
            assert 0 < max(map(abs, s_planes)) < 2 ** (widths[0] - 1)
            for m in (variant.alpha, variant.beta):
                dm, cols = m.scaled()[0], [m.column(j) for j in range(n)]
                scale = dm * dm * dc     # dm^2 d_src d_dst / gcd(d_src, d_dst)
                diffs = [[scale * (x - y) for x, y in zip(m.apply(t.bracket_basis(i, j)),
                                                          fraction_bracket(t, cols[i], cols[j]))]
                         for i in range(n) for j in range(n)]
                top, limit = scaled_residue_heights(
                    widths, lambda: homomorphism_failure(m, t), diffs)
                assert top < limit
                nonzero += top > 0
        lie = StructureTensor(induce_lie(a)[0].c)     # not yet verified
        d = lie.scaled()[0]
        def ad(i, j, k):
            return fraction_bracket(lie, basis_vector(n, i), lie.bracket_basis(j, k))

        sums = [vec_add(vec_add(ad(i, j, k), ad(j, k, i)), ad(k, i, j))
                for i in range(n) for j in range(i, n) for k in range(j, n)]
        top, limit = scaled_residue_heights(
            widths, lambda: is_lie_algebra(lie), [[d * d * x for x in v] for v in sums])
        assert top < limit
        c = lie.c
        top, limit = scaled_residue_heights(widths, lambda: analysis_module.killing_form(lie), [
            [d * d * sum(c[i][l][k] * c[j][k][l] for k in range(n) for l in range(n))
             for j in range(n)] for i in range(n)])
        assert 0 < top < limit
    assert nonzero > 20


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
    return StructureTensor([[fraction_bracket(lie, acols[i], bcols[j]) for j in range(n)]
                            for i in range(n)])


def fraction_induce_grid(a):
    return fraction_twist_grid(a.tensor, fraction_invert(a.alpha), fraction_invert(a.beta))


def fraction_conjugate_grid(t, basis):
    inv = fraction_invert(basis)
    cols = [basis.column(j) for j in range(t.dim)]
    return StructureTensor([[inv.apply(fraction_bracket(t, cols[i], cols[j]))
                             for j in range(t.dim)] for i in range(t.dim)])


def fraction_transform_grid(t, left, right, out):
    """out [left e_i, right e_j] for n x d maps left, right and d x n out."""
    lcols = [left.column(i) for i in range(left.cols)]
    rcols = [right.column(j) for j in range(right.cols)]
    return StructureTensor([[out.apply(fraction_bracket(t, x, y)) for y in rcols] for x in lcols])


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
                       == fraction_bracket(lie, b.column(i), b.column(j))
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


def extreme_case(rng, n, d, sign, with_out):
    """Integer tensor and maps at height H > 10^30 whose contraction reaches
    the width bound exactly: sign * bound in slot 0 and -sign * bound in
    the last slot of every plane, other slots anywhere in between."""
    h = 10 ** 30 + rng.randint(1, 10 ** 6)
    full = [[h] * d for _ in range(n)]
    if with_out:
        c = [[[h] * n for _ in range(n)] for _ in range(n)]
        out = [[sign * h] * n] + [[rng.randint(-h, h) for _ in range(n)] for _ in range(d - 2)] \
            + [[-sign * h] * n]
        return StructureTensor(c), MatrixQ(full), MatrixQ(full), MatrixQ(out), n ** 3 * h ** 4
    c = [[[sign * h] + [rng.randint(-h, h) for _ in range(n - 2)] + [-sign * h] for _ in range(n)]
         for _ in range(n)]
    return StructureTensor(c), MatrixQ(full), MatrixQ(full), None, n ** 2 * h ** 3


def test_packed_contraction_matches_fraction_reference():
    """transform_tensor with out absent, square and d x n with d < n (the
    restriction shape) against the Fraction grid: on entries of height above
    10^30, on inputs whose output reaches the width bound with each sign in
    slot 0 and in the last slot, and on the zero tensor."""
    rng = random.Random(415)
    for n in (2, 3, 5):
        for d in (n, max(n - 2, 1)):
            t = StructureTensor([[[random_entry(rng, 10 ** 31) for _ in range(n)]
                                  for _ in range(n)] for _ in range(n)])
            left, right = (random_shaped(rng, n, d, d, 10 ** 31) for _ in range(2))
            out = random_shaped(rng, d, n, d, 10 ** 31)
            assert transform_tensor(t, left, right, out) == \
                fraction_transform_grid(t, left, right, out)
            if d == n:
                assert transform_tensor(t, left, right) == fraction_twist_grid(t, left, right)
            zero = transform_tensor(StructureTensor.zero(n), left, right, out)
            assert zero == StructureTensor.zero(d)
        for d, sign, with_out in itertools.product((n, 2), (1, -1), (False, True)):
            if d != n and not with_out:
                continue
            t, left, right, out, bound = extreme_case(rng, n, d, sign, with_out)
            moved = transform_tensor(t, left, right, out)
            if out is None:
                assert moved == fraction_twist_grid(t, left, right)
            else:
                assert moved == fraction_transform_grid(t, left, right, out)
            assert all(v[0] == sign * bound and v[-1] == -sign * bound
                       for plane in moved.scaled()[1] for v in plane)


def test_tensor_view_is_canonical_from_fractions_and_from_scaled():
    """A StructureTensor built from Fractions and the same tensor through
    from_scaled (non-reduced, zero planes and rows, negative d) agree on c,
    scaled(), ==, hash, is_zero and the saved bytes of an algebra holding
    them, and both views are canonical; transform_tensor keeps such a view."""
    rng = random.Random(1618)
    for _ in range(120):
        n = rng.randint(1, 4)
        height = rng.choice((1, 9, 10 ** 15))
        c = [[[random_entry(rng, height) for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for i, j in rng.sample([(i, j) for i in range(n) for j in range(n)], rng.randint(0, n)):
            c[i][j] = [Q(0)] * n
        if rng.random() < 0.2:
            c[rng.randrange(n)] = [[Q(0)] * n for _ in range(n)]
        values = [x for plane in c for row in plane for x in row]
        t = StructureTensor(c)
        u = scaled_twin(rng, values, lambda d, flat: StructureTensor.from_scaled(
            d, [[flat[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)] for i in range(n)]))
        d, planes = u.scaled()
        assert_canonical((d, [row for plane in planes for row in plane]), values)
        assert t.scaled() == u.scaled() and u.dim == t.dim == n
        assert t == u and hash(t) == hash(u)
        assert u.c == t.c == tuple(tuple(tuple(row) for row in plane) for plane in c)
        assert u.is_zero() == t.is_zero() == all(x == 0 for x in values)
        m = random_shaped(rng, n, n, n, 5)
        flat_m = [x for row in m.entries for x in row]
        maps = [scaled_twin(rng, flat_m, lambda d, flat: MatrixQ.from_scaled(
            d, [flat[i * n:(i + 1) * n] for i in range(n)])) for _ in range(2)]
        saved = {dumps_algebra(BiHomAlgebra(dim=n, tensor=x, alpha=maps[0], beta=maps[1]))
                 for x in (t, u)}
        assert len(saved) == 1
        assert algebra_to_dict(BiHomAlgebra(dim=n, tensor=u, alpha=m, beta=m))["bracket"] \
            == [[[str(x) for x in row] for row in plane] for plane in c]
        moved = transform_tensor(u, m, m)
        d, planes = moved.scaled()
        assert_canonical((d, [row for plane in planes for row in plane]),
                         [x for plane in moved.c for row in plane for x in row])
        assert moved == StructureTensor(moved.c)

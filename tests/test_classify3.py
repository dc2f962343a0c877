import contextlib
import itertools
import math
import random
import sys
import time
from fractions import Fraction as Q
from itertools import combinations, product

import pytest

import bihomlie.algebra as algebra_module
import bihomlie.classify3 as classify3_module
from bihomlie import exactlin
from bihomlie.algebra import (
    BiHomAlgebra,
    StructureTensor,
    ad_matrix,
    check_all,
    conjugate_algebra,
    conjugate_tensor,
    homomorphism_failure,
    transform_tensor,
)
from bihomlie.analysis import is_simple, killing_form
from bihomlie.catalog import (
    family_maps,
    make_L1,
    make_L2,
    make_L3,
    make_sl2,
    unipotent_base_tensor,
    unipotent_beta,
    unipotent_full,
)
from bihomlie.classify3 import (
    _GRID,
    Sl2Triple,
    _complete_triple,
    _isotropic_vector,
    alpha_profile,
    bihom_isomorphic3,
    classify3,
    find_sl2_triple,
    normalize_l1_params,
)
from bihomlie.errors import (
    AxiomViolation,
    BiHomError,
    DimensionMismatch,
    IrrationalEigenvalues,
    NotSemisimple,
    NotSimple,
    NotSplit,
    SplitUndecided,
    Unmatched,
)
from bihomlie.exactlin import (
    MatrixQ,
    Subspace,
    basis_vector,
    char_poly,
    det,
    invert,
    is_prime,
    kernel,
    rank,
    sqrt_fraction,
    vec_add,
    vec_scale,
)
from bihomlie.fileio import format_rational
from bihomlie.twist import TwistInput, induce_lie, yau_twist
from conftest import (
    deadline,
    divisor_rational_roots,
    fraction_bracket,
    random_fraction,
    random_invertible,
)

SO3 = StructureTensor.from_brackets(3, {
    (0, 1): (0, 0, 1), (1, 0): (0, 0, -1),
    (1, 2): (1, 0, 0), (2, 1): (-1, 0, 0),
    (2, 0): (0, 1, 0), (0, 2): (0, -1, 0),
})

# Ad of [[1,1],[-1,1]] on sl2: a bracket automorphism with eigenvalues 1, i, -i
ROTATION = MatrixQ.from_columns([(0, -1, -1),
                                 (Q(1, 2), Q(1, 2), Q(-1, 2)),
                                 (Q(1, 2), Q(-1, 2), Q(1, 2))])


def assert_triple(t, triple):
    assert fraction_bracket(t, triple.h, triple.e) == vec_scale(2, triple.e)
    assert fraction_bracket(t, triple.h, triple.f) == vec_scale(-2, triple.f)
    assert fraction_bracket(t, triple.e, triple.f) == triple.h


def test_find_triple_standard():
    triple = find_sl2_triple(make_sl2())
    assert_triple(make_sl2(), triple)
    assert triple.h == (Q(1), Q(0), Q(0))


def test_find_triple_induced_l1():
    induced, _, _ = induce_lie(make_L1(2, 3))
    triple = find_sl2_triple(induced)
    assert_triple(induced, triple)
    assert triple.h == (Q(1), Q(0), Q(0))


def test_find_triple_induced_l2():
    induced, _, _ = induce_lie(make_L2())
    triple = find_sl2_triple(induced)
    assert_triple(induced, triple)
    # the triple basis turns the induced bracket into the standard constants
    assert conjugate_tensor(induced, triple.basis_matrix()) == make_sl2()


def test_find_triple_not_split():
    with pytest.raises(NotSplit, match="definite"):
        find_sl2_triple(SO3)
    # z^2 = -x^2 - y^2, which the b == -1 guard ends: descent would recurse forever
    with pytest.raises(NotSplit) as info:
        classify3_module._conic_point(-1, (), -1, ())
    assert str(info.value) == classify3_module._DEFINITE


def test_find_triple_not_semisimple():
    with pytest.raises(NotSemisimple):
        find_sl2_triple(StructureTensor.zero(3))


# the two Jordan shapes at a double eigenvalue +-1 that no automorphism of sl2 has
UNIPOTENT_PARTIAL = MatrixQ([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
NEG_JORDAN = MatrixQ([[1, 0, 0], [0, -1, 1], [0, 0, -1]])


def test_alpha_profile_kinds():
    assert alpha_profile(MatrixQ.diagonal([1, 2, Q(1, 2)])) == 2
    assert alpha_profile(MatrixQ.identity(3)) == 1
    assert alpha_profile(unipotent_full()) == 1
    assert alpha_profile(MatrixQ.diagonal([1, -1, -1])) == -1


def test_alpha_profile_prefers_larger_eigenvalue():
    assert alpha_profile(MatrixQ.diagonal([Q(1, 3), 1, 3])) == 3
    assert alpha_profile(MatrixQ.diagonal([1, -3, Q(-1, 3)])) == -3


def test_alpha_profile_irrational():
    with pytest.raises(IrrationalEigenvalues):
        alpha_profile(ROTATION)


def test_dimension_checks_of_the_classifier():
    """find_sl2_triple takes a 3-dimensional tensor."""
    with pytest.raises(DimensionMismatch, match="^sl2 triples live in dimension 3$"):
        find_sl2_triple(StructureTensor.zero(6))


def test_profiled_automorphisms_have_unit_determinant():
    from bihomlie.exactlin import det
    for m in (MatrixQ.diagonal([1, 2, Q(1, 2)]), MatrixQ.identity(3),
              unipotent_full(), unipotent_beta(5), MatrixQ.diagonal([1, -1, -1])):
        alpha_profile(m)  # accepted shape
        assert det(m) == 1


def test_classify_catalog_self():
    cases = [
        (make_L1(2, 3), "L1", (Q(2), Q(3))),
        (make_L1(-3, Q(1, 2)), "L1", (Q(-3), Q(1, 2))),
        (make_L1(1, 1), "L1", (Q(1), Q(1))),
        (make_L2(), "L2", ()),
        (make_L3(3), "L3", (Q(3),)),
        (make_L3(2), "L3", (Q(2),)),
    ]
    for algebra, family, params in cases:
        label = classify3(algebra)
        assert label.family == family
        assert label.params == params
        assert label.change_of_basis == MatrixQ.identity(3)


def test_classify_normalizes_parameters():
    label = classify3(make_L1(Q(1, 2), 3))
    assert label.family == "L1"
    assert label.params == (Q(2), Q(1, 3))
    conj = conjugate_algebra(make_L1(Q(1, 2), 3), label.change_of_basis)
    expected = make_L1(2, Q(1, 3))
    assert conj.tensor == expected.tensor
    assert conj.alpha == expected.alpha and conj.beta == expected.beta


def test_normalize_l1_params_rule():
    assert normalize_l1_params(2, 3) == (Q(2), Q(3), False)
    assert normalize_l1_params(Q(1, 2), 3) == (Q(2), Q(1, 3), True)
    assert normalize_l1_params(-3, Q(1, 2)) == (Q(-3), Q(1, 2), False)
    assert normalize_l1_params(Q(-1, 3), 5) == (Q(-3), Q(1, 5), True)
    assert normalize_l1_params(1, Q(1, 4)) == (Q(1), Q(4), True)
    assert normalize_l1_params(-1, Q(1, 2)) == (Q(-1), Q(2), True)
    assert normalize_l1_params(1, 1) == (Q(1), Q(1), False)


def test_classify_negpair_alpha():
    label = classify3(make_L1(-1, 2))
    assert label.family == "L1"
    assert label.params == (Q(-1), Q(2))


def test_classify_identity_with_negpair_beta():
    twisted = yau_twist(TwistInput(make_sl2(), MatrixQ.identity(3),
                                   MatrixQ.diagonal([1, -1, -1])))
    label = classify3(twisted)
    assert label.family == "L1"
    assert label.params == (Q(1), Q(-1))


def test_classify_conjugation_invariance():
    rng = random.Random(51)
    instances = [make_L1(2, 3), make_L1(-3, Q(1, 2)), make_L2(), make_L3(3)]
    for algebra in instances:
        base = classify3(algebra)
        for _ in range(3):
            p = random_invertible(3, rng)
            conj = conjugate_algebra(algebra, p)
            label = classify3(conj)
            assert label.family == base.family
            assert label.params == base.params
            # self-certifying: conjugation by the label reproduces the catalog
            back = conjugate_algebra(conj, label.change_of_basis)
            ref = conjugate_algebra(algebra, base.change_of_basis)
            assert back.tensor == ref.tensor
            assert back.alpha == ref.alpha and back.beta == ref.beta


def test_classify_rejects_non_simple():
    abelian = BiHomAlgebra(dim=3, tensor=StructureTensor.zero(3),
                           alpha=MatrixQ.identity(3), beta=MatrixQ.identity(3))
    with pytest.raises(NotSimple):
        classify3(abelian)


# diag(1,-1,-1) with the off-diagonal involution: a valid simple algebra
# landing outside the three families; never coerced into a fourth
SWAP_PAIR = yau_twist(TwistInput(make_sl2(), MatrixQ.diagonal([1, -1, -1]),
                                 MatrixQ([[-1, 0, 0], [0, 0, Q(1, 2)], [0, 2, 0]])))


def test_classify_unmatched_swap_pair():
    with pytest.raises(Unmatched, match=r"beta is not diag\(1, b, 1/b\)"):
        classify3(SWAP_PAIR)


def test_errata_swap_pair_is_outside_the_three_families():
    """ERRATA.md: SWAP_PAIR is regular, multiplicative and simple, yet none of
    L1, L2, L3. Every L1(a, b) has e1 fixed by both maps and SWAP_PAIR has no
    common fixed vector; L2 and L3 have a unipotent map other than I and both
    of SWAP_PAIR's maps are involutions. An isomorphism conjugates each map,
    so it keeps both facts, over Q and over C alike."""
    identity = MatrixQ.identity(3)
    alpha, beta = SWAP_PAIR.alpha, SWAP_PAIR.beta
    assert check_all(SWAP_PAIR).all_pass
    assert rank(alpha) == rank(beta) == 3
    assert kernel(MatrixQ((alpha - identity).entries + (beta - identity).entries)).dim == 0
    assert alpha * alpha == beta * beta == identity
    assert alpha != identity and beta != identity
    rng, e1 = random.Random(2901), basis_vector(3, 0)
    for _ in range(10):
        a = make_L1(random_fraction(rng, nonzero=True), random_fraction(rng, nonzero=True))
        assert a.alpha.apply(e1) == e1 == a.beta.apply(e1)
    for m in (make_L2().beta, make_L3(random_fraction(rng)).alpha):
        nilpotent = m - identity
        assert not nilpotent.is_zero() and (nilpotent * nilpotent * nilpotent).is_zero()
    assert is_simple(SWAP_PAIR)
    with pytest.raises(Unmatched, match=r"^alpha is diagonalizable in an adapted sl2 basis but "
                       r"beta is not diag\(1, b, 1/b\) there; no canonical family "
                       r"corresponds to this pair$"):
        classify3(SWAP_PAIR)


# --- the unipotent path has one gate ------------------------------------------
# In the Jordan basis of the unipotent map, classify3 reads x = [u1,u2]_1 and
# y = [u2,u3]_1 of the induced bracket and the L3 parameter off beta, then
# certifies. The checks below are exact and show that no shape check in front
# of the certificate could fail on a simple input.

def skew_tensor(z):
    """The skew bracket whose [u1,u2], [u1,u3], [u2,u3] are the thirds of z."""
    brackets = {}
    for k, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        brackets[i, j] = z[3 * k:3 * k + 3]
        brackets[j, i] = tuple(-x for x in z[3 * k:3 * k + 3])
    return StructureTensor.from_brackets(3, brackets)


def invariant_point(a, b, c):
    """[u1,u2] = a u1, [u1,u3] = b u1 + a u2, [u2,u3] = c u1 + (a+b) u2 + a u3."""
    return (a, 0, 0, b, a, 0, c, a + b, a)


def invariance_defect(t, m):
    """m[e_i, e_j] - [m e_i, m e_j] over all basis pairs, concatenated."""
    return tuple(x - y for i in range(3) for j in range(3)
                 for x, y in zip(m.apply(t.bracket_basis(i, j)),
                                 fraction_bracket(t, m.column(i), m.column(j))))


def test_unipotent_invariant_skew_brackets():
    # the defect is linear in the bracket, so its kernel is the invariant space
    columns = [invariance_defect(skew_tensor(basis_vector(9, k)), unipotent_full())
               for k in range(9)]
    assert kernel(MatrixQ.from_columns(columns)) == Subspace(
        9, [invariant_point(1, 0, 0), invariant_point(0, 1, 0), invariant_point(0, 0, 1)])
    # the Jacobi sum of (u1, u2, u3) has degree <= 2 in each of a, b, c, so
    # agreeing with a(a + 2b) u1 on a 3x3x3 grid makes it that polynomial
    u1, u2, u3 = (basis_vector(3, i) for i in range(3))
    grid = (Q(-1), Q(0), Q(2))
    for a, b, c in product(grid, repeat=3):
        t = skew_tensor(invariant_point(a, b, c))
        jacobi = vec_add(vec_add(fraction_bracket(t, u1, fraction_bracket(t, u2, u3)),
                                 fraction_bracket(t, u2, fraction_bracket(t, u3, u1))),
                         fraction_bracket(t, u3, fraction_bracket(t, u1, u2)))
        assert jacobi == (a * (a + 2 * b), 0, 0)
        if a == 0:   # every bracket lies in span(u1, u2), where [u1,u2] = 0: solvable
            assert all(t.bracket_basis(i, j)[2] == 0 for i in range(3) for j in range(3))
            assert t.bracket_basis(0, 1) == (0, 0, 0)
    # so a simple input has a = x != 0 and b = -x/2; the catalog has x = 2, y = 1
    assert unipotent_base_tensor() == skew_tensor(invariant_point(2, -1, 1))


def test_unipotent_commutant_automorphisms():
    # beta commutes with the full block, so it is p I + q N + r N^2 there
    rng = random.Random(1016)
    base, n = unipotent_base_tensor(), unipotent_full() - MatrixQ.identity(3)
    seen = set()
    for _ in range(30):
        q = random_fraction(rng, 6)
        companion = (q * q - q) / 2
        for p in (Q(1), Q(-1), Q(2), random_fraction(rng, 6, nonzero=True)):
            for r in (companion, companion + 1, random_fraction(rng, 6)):
                m = MatrixQ.identity(3).scale(p) + n.scale(q) + (n * n).scale(r)
                preserved = not any(invariance_defect(base, m))
                assert preserved == (p == 1 and r == companion)
                if preserved:
                    assert m == unipotent_beta(q)
                seen.add(preserved)
    assert seen == {True, False}


def test_classify_irrational_eigenvalues():
    twisted = yau_twist(TwistInput(make_sl2(), ROTATION, MatrixQ.identity(3)))
    with pytest.raises(IrrationalEigenvalues):
        classify3(twisted)


def _adjoint(g):
    """Ad(g) on sl2 in the basis (h, e, f) for an invertible 2x2 matrix g."""
    g = MatrixQ(g)
    columns = []
    for x in ([[1, 0], [0, -1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]):
        y = g * MatrixQ(x) * invert(g)
        columns.append((y[0, 0], y[0, 1], y[1, 0]))
    return MatrixQ.from_columns(columns)


def test_classify_irrational_eigenvalues_at_large_height():
    # char_poly(Ad g) = (x - 1)(q x^2 + (2q - 9) x + q)/q for g = [[0, 1], [-q, 3]]:
    # no rational root besides 1, and a 20-digit prime at both ends
    q = next(n for n in itertools.count(10**19 + 1) if is_prime(n))
    alpha = _adjoint([[0, 1], [-q, 3]])
    twisted = yau_twist(TwistInput(make_sl2(), alpha, MatrixQ.identity(3)))
    with deadline(10), pytest.raises(IrrationalEigenvalues,
                                     match="residual factor of degree 2"):
        classify3(twisted)


def test_classify_and_iso3_at_large_height():
    # eigenvalues 1, a, 1/a with a 30-digit numerator
    a = make_L1(Q(10**30 + 57, 7), 3)
    conj = conjugate_algebra(a, random_invertible(3, random.Random(0)))
    with deadline(10):
        label = classify3(conj)
        f = bihom_isomorphic3(a, conj)
    assert label.family == "L1"
    assert label.params == (Q(10**30 + 57, 7), Q(3))
    back = conjugate_algebra(conj, label.change_of_basis)
    assert back.alpha == MatrixQ.diagonal([1, Q(10**30 + 57, 7), Q(7, 10**30 + 57)])
    assert f is not None
    _assert_intertwines(f, a, conj)


def test_classify_not_split_input():
    # compact form: simple as a BiHom algebra but with no rational triple
    compact = BiHomAlgebra(dim=3, tensor=SO3, alpha=MatrixQ.identity(3),
                           beta=MatrixQ.identity(3))
    with pytest.raises(NotSplit):
        classify3(compact)


def _assert_intertwines(f, a1, a2):
    assert f * a1.alpha == a2.alpha * f
    assert f * a1.beta == a2.beta * f
    for i in range(3):
        for j in range(3):
            assert f.apply(a1.tensor.bracket_basis(i, j)) == \
                fraction_bracket(a2.tensor, f.column(i), f.column(j))


def test_iso3_reflexive():
    a = make_L1(2, 3)
    f = bihom_isomorphic3(a, a)
    assert f == MatrixQ.identity(3)


def test_iso3_conjugate():
    rng = random.Random(52)
    a = make_L1(2, 3)
    conj = conjugate_algebra(a, random_invertible(3, rng))
    f = bihom_isomorphic3(a, conj)
    assert f is not None
    _assert_intertwines(f, a, conj)
    backwards = bihom_isomorphic3(conj, a)
    assert backwards is not None
    _assert_intertwines(backwards, conj, a)


def test_iso3_distinguishes_families():
    assert bihom_isomorphic3(make_L1(2, 3), make_L2()) is None
    assert bihom_isomorphic3(make_L2(), make_L3(3)) is None
    assert bihom_isomorphic3(make_L1(2, 3), make_L3(3)) is None


def test_iso3_distinguishes_parameters():
    assert bihom_isomorphic3(make_L1(2, 3), make_L1(2, 5)) is None
    # the flip identification is the one forced symmetry
    f = bihom_isomorphic3(make_L1(2, 3), make_L1(Q(1, 2), Q(1, 3)))
    assert f is not None
    _assert_intertwines(f, make_L1(2, 3), make_L1(Q(1, 2), Q(1, 3)))


def test_negpair_with_nonsplit_fixed_line_is_unmatched():
    # alpha: h -> -h, e -> -f, f -> -e fixes e - f, which is not ad-split
    alpha = MatrixQ.from_columns([(-1, 0, 0), (0, 0, -1), (0, -1, 0)])
    twisted = yau_twist(TwistInput(make_sl2(), alpha, MatrixQ.identity(3)))
    induced, _, _ = induce_lie(twisted)
    triple = find_sl2_triple(induced)
    assert (triple.h, triple.e, triple.f) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(Unmatched, match="not split over Q"):
        classify3(twisted)


# --- split detection ---------------------------------------------------------

_ORACLE_GRID = (Q(1), Q(-1), Q(2), Q(-2), Q(1, 2), Q(-1, 2))


def grid_oracle(t):
    """The former search of find_sl2_triple: one char_poly per grid point,
    accepting ad v with characteristic polynomial x^3 - c^2 x; None when the
    grid is exhausted."""
    identity = MatrixQ.identity(3)
    for size in (1, 2, 3):
        for support in combinations(range(3), size):
            for coeffs in product(_ORACLE_GRID, repeat=size):
                v = [Q(0)] * 3
                for idx, c in zip(support, coeffs):
                    v[idx] = c
                cp = char_poly(ad_matrix(t, v))
                if cp[0] != 0 or cp[2] != 0 or -cp[1] <= 0:
                    continue
                c = sqrt_fraction(-cp[1])
                if c is None:
                    continue
                h = vec_scale(Q(2) / c, v)
                ad_h = ad_matrix(t, h)
                plus = kernel(ad_h - identity.scale(2))
                minus = kernel(ad_h + identity.scale(2))
                if plus.dim != 1 or minus.dim != 1:
                    continue
                triple = oracle_completion(t, h, plus.basis_rows[0],
                                           minus.basis_rows[0])
                if triple is not None:
                    return triple
    return None


def oracle_completion(t, h, e0, f0):
    """(h, e0/mu, f0) with [e0, f0] = mu h != 0, the relations checked with
    the Fraction bracket; None when they fail."""
    w = fraction_bracket(t, e0, f0)
    pivot = next(i for i, x in enumerate(h) if x != 0)
    mu = w[pivot] / h[pivot]
    if mu == 0 or w != vec_scale(mu, h):
        return None
    e = vec_scale(1 / mu, e0)
    if (fraction_bracket(t, h, e) != vec_scale(2, e)
            or fraction_bracket(t, h, f0) != vec_scale(-2, f0)):
        return None
    return Sl2Triple(h=h, e=e, f=f0)


def quaternion_lie(a, b):
    """Trace-zero quaternions of (a, b) under the commutator, on i, j, k = ij:
    split exactly when z^2 = a x^2 + b y^2 has a nonzero rational solution."""
    return StructureTensor.from_brackets(3, {
        (0, 1): (0, 0, 2), (1, 0): (0, 0, -2),
        (1, 2): (-2 * b, 0, 0), (2, 1): (2 * b, 0, 0),
        (2, 0): (0, -2 * a, 0), (0, 2): (0, 2 * a, 0),
    })


def holzer_solvable(a, b):
    """Whether z^2 = a x^2 + b y^2 (a, b squarefree) has a nonzero integer
    solution, by exhausting Holzer's box: with g = gcd(a, b) and z = g w the
    form a' x^2 + b' y^2 - g w^2 has pairwise coprime squarefree coefficients,
    and a solution exists iff one has |x| <= sqrt|b'g|, |y| <= sqrt|a'g|,
    |w| <= sqrt|a'b'|."""
    g = math.gcd(a, b)
    a1, b1 = a // g, b // g
    bx, by, bw = math.isqrt(abs(b1 * g)), math.isqrt(abs(a1 * g)), math.isqrt(abs(a1 * b1))
    return any(a1 * x * x + b1 * y * y == g * w * w
               for x in range(-bx, bx + 1) for y in range(-by, by + 1)
               for w in range(-bw, bw + 1) if (x, y, w) != (0, 0, 0))


def wide_sl2_bases(count, seed):
    """Bases with entries in -10..10 times a random rational diagonal."""
    rng = random.Random(seed)
    return [random_invertible(3, rng, spread=10)
            * MatrixQ.diagonal([random_fraction(rng, nonzero=True) for _ in range(3)])
            for _ in range(count)]


def test_split_detection_wide_sl2_conjugates():
    target = make_L1(1, 1)
    conjugates = [conjugate_algebra(target, p) for p in wide_sl2_bases(200, 61)]
    for algebra in conjugates:
        label = classify3(algebra)
        assert (label.family, label.params) == ("L1", (Q(1), Q(1)))
        back = conjugate_algebra(algebra, label.change_of_basis)
        assert (back.tensor, back.alpha, back.beta) == (target.tensor, target.alpha, target.beta)
    for a1, a2 in zip(conjugates[:50:2], conjugates[1:50:2]):
        f = bihom_isomorphic3(a1, a2)
        assert f is not None
        _assert_intertwines(f, a1, a2)


SQUAREFREE = [s * v for v in range(1, 16) if v % 4 and v % 9 for s in (1, -1)]


def test_split_detection_quaternion_forms():
    assert len(SQUAREFREE) == 22
    for a in SQUAREFREE:
        for b in SQUAREFREE:
            t = quaternion_lie(a, b)
            if holzer_solvable(a, b):
                assert_triple(t, find_sl2_triple(t))
                continue
            with pytest.raises(NotSplit) as info:
                find_sl2_triple(t)
            message = str(info.value)
            if a < 0 and b < 0:
                assert "definite" in message
            else:
                assert "modulo the prime" in message


def test_split_detection_matches_grid_oracle():
    inputs = [make_sl2(), induce_lie(make_L1(2, 3))[0], induce_lie(make_L2())[0]]
    inputs += [conjugate_tensor(make_sl2(), p) for p in wide_sl2_bases(12, 62)]
    inputs += [quaternion_lie(a, b) for a, b in ((1, 7), (2, 7), (-1, 2), (3, -2), (5, 5))]
    hits = 0
    for t in inputs:
        expected = grid_oracle(t)
        triple = find_sl2_triple(t)
        assert_triple(t, triple)
        if expected is not None:
            hits += 1
            assert triple == expected
    assert 3 < hits < len(inputs)   # both stages are exercised


# two primes of about 20 digits each: a and b cannot be factored within the bound
SEMIPRIME_A = 10000000000000000051 * 20000000000000000011
SEMIPRIME_B = 30000000000000000041 * 50000000000000000059


def test_split_undecided_on_unfactorable_forms():
    start = time.perf_counter()
    with pytest.raises(SplitUndecided, match="cannot factor"):
        find_sl2_triple(quaternion_lie(SEMIPRIME_A, SEMIPRIME_B))
    assert time.perf_counter() - start < 1.0


def test_classify3_spans_nothing_and_induces_once(monkeypatch):
    """A certified label needs no gate: on the certified classify3 and iso3
    inputs is_simple runs 0 times, and each input tensor is induced once.
    An input without a certificate runs the gate once, which reads the
    induced tensor of the label attempt and spans nothing: the zero tensor
    (NotSimple) and a conjugate of SWAP_PAIR (Unmatched)."""
    import bihomlie.analysis as analysis
    import bihomlie.twist as twist
    spans, induced, gates = [], [], []
    transform = twist.transform_tensor
    monkeypatch.setattr(analysis, "enveloping_dim", lambda gens: spans.append(gens))

    def counting(t, *maps):
        induced.append(t)
        return transform(t, *maps)
    monkeypatch.setattr(twist, "transform_tensor", counting)
    monkeypatch.setattr(classify3_module, "is_simple",
                        lambda a: gates.append(a) or is_simple(a))
    rng = random.Random(1013)
    inputs = [conjugate_algebra(a, random_invertible(3, rng))
              for a in (make_L1(2, 3), make_L1(-1, 5), make_L1(1, 1), make_L2(), make_L3(4))]
    for a in inputs:
        classify3(a)
        assert sum(t is a.tensor for t in induced) == 1
    a1, a2 = (conjugate_algebra(make_L3(Q(-2, 3)), random_invertible(3, rng)) for _ in range(2))
    assert bihom_isomorphic3(a1, a2) is not None
    assert [sum(t is a.tensor for t in induced) for a in (a1, a2)] == [1, 1]
    assert gates == []
    abelian = BiHomAlgebra(dim=3, tensor=StructureTensor.zero(3),
                           alpha=MatrixQ.identity(3), beta=MatrixQ.identity(3))
    swap = conjugate_algebra(SWAP_PAIR, random_invertible(3, rng))
    for a, error in ((abelian, NotSimple), (swap, Unmatched)):
        gates.clear()
        with pytest.raises(error):
            classify3(a)
        assert gates == [a]
        assert sum(t is a.tensor for t in induced) == 1
    assert spans == []


# --- the certificate comes first ------------------------------------------------
# classify3 tries the label before its gate, on inputs that nothing has
# verified, and runs is_simple only when the attempt raises. The certificate
# rests on the catalog maps being commuting automorphisms of the base; the
# property test below checks that the gate still names every error.

def test_family_maps_are_commuting_automorphisms_of_the_base():
    """yau_twist validates that the base is Lie and that alpha and beta are
    commuting invertible automorphisms of it; it accepts family_maps at
    seeded nonzero (a, b) for L1 and for L2. For L3 each entry of
    beta[x, y] - [beta x, beta y] and of alpha beta - beta alpha is a
    polynomial in a of degree at most 4 (beta = unipotent_beta(a) has
    entries of degree at most 2 and the bracket is bilinear), and beta is
    unipotent, so invertible for every a: vanishing at 5 distinct values of
    a proves the premise for every a."""
    rng = random.Random(3301)
    for _ in range(12):
        yau_twist(TwistInput(*family_maps("L1", random_fraction(rng, 9, nonzero=True),
                                          random_fraction(rng, 9, nonzero=True))))
    yau_twist(TwistInput(*family_maps("L2")))
    for a in (Q(0), Q(1), Q(-2), Q(3, 5), Q(-7, 4)):
        yau_twist(TwistInput(*family_maps("L3", a)))


_HEIS3 = StructureTensor.from_brackets(3, {(0, 1): (0, 0, 1), (1, 0): (0, 0, -1)})
_SOLVABLE = StructureTensor.from_brackets(3, {(0, 1): (0, 1, 0), (1, 0): (0, -1, 0),
                                              (0, 2): (0, 0, 1), (2, 0): (0, 0, -1)})


def _gate_case(rng):
    """One seeded 3-dimensional input for the gate property test."""
    def entry():
        return random_fraction(rng, 4, nonzero=True)

    def matrix():
        return MatrixQ([[random_fraction(rng, 3) for _ in range(3)] for _ in range(3)])
    basis, kind = random_invertible(3, rng), rng.randrange(4)
    if kind == 0:   # a catalog family with one tensor or map entry perturbed
        a = conjugate_algebra(rng.choice((
            make_L1(entry(), entry()), make_L1(-1, entry()), make_L1(1, 1), make_L2(),
            make_L3(random_fraction(rng, 5)))), basis)
        t = [[list(row) for row in plane] for plane in a.tensor.c]
        maps = [[list(row) for row in m.entries] for m in (a.alpha, a.beta)]
        grid = rng.choice((t[rng.randrange(3)], *maps))
        grid[rng.randrange(3)][rng.randrange(3)] += entry()
        return BiHomAlgebra(3, StructureTensor(t), *map(MatrixQ, maps))
    if kind == 1:   # heis3, a solvable algebra and the abelian algebra
        t = rng.choice((_HEIS3, _SOLVABLE, StructureTensor.zero(3)))
        maps = rng.choice(((MatrixQ.identity(3),) * 2,
                           (MatrixQ.diagonal([2, 1, 2]), MatrixQ.identity(3)),
                           (matrix(), matrix())))
        return conjugate_algebra(BiHomAlgebra(3, transform_tensor(t, *maps), *maps), basis)
    if kind == 2:   # sl2 with a singular map
        s = matrix()
        s = MatrixQ([*s.entries[:2], vec_add(s.entries[0], s.entries[1])])
        s = rng.choice((s, MatrixQ.diagonal([1, 0, 0]), MatrixQ.diagonal([0, 0, 0])))
        maps = rng.choice(((s, MatrixQ.identity(3)), (MatrixQ.identity(3), s), (s, s)))
        return conjugate_algebra(BiHomAlgebra(3, transform_tensor(make_sl2(), *maps), *maps),
                                 basis)
    t = StructureTensor([[[random_fraction(rng, 3) for _ in range(3)] for _ in range(3)]
                         for _ in range(3)])   # a random tensor
    maps = rng.choice(((matrix(), matrix()), (MatrixQ.identity(3),) * 2))
    return BiHomAlgebra(3, t, *maps)


def _raised(call, *args):
    try:
        call(*args)
    except Exception as exc:
        return exc
    return None


def _no_automorphism_cases(rng):
    """16 inputs on the sl2 bracket, twisted by the pair and plain, whose
    profiled map (alpha, or beta when alpha is the identity) has a shape that
    no automorphism of sl2 has: the gate, not classify3's dispatch, rejects
    them."""
    identity, out = MatrixQ.identity(3), []
    for m in (UNIPOTENT_PARTIAL, NEG_JORDAN, MatrixQ.diagonal([1, 2, 3]),
              MatrixQ.diagonal([2, 3, Q(1, 6)])):
        for maps in ((m, identity), (identity, m)):
            for t in (transform_tensor(make_sl2(), *maps), make_sl2()):
                out.append(conjugate_algebra(BiHomAlgebra(3, t, *maps), random_invertible(3, rng)))
    return out


def test_classify3_raises_the_gates_error(monkeypatch):
    """Of 1,000 seeded inputs and 16 whose profiled map is no automorphism,
    on each that the gate rejects (is_simple raises or returns False, or
    check_all fails) classify3 raises the gate's error type and text; the
    gate rejects all 16 with AxiomViolation. With the gate forced to pass,
    classify3 raises the label attempt's own error, and on some input that
    is no BiHomError: the fallback catches every exception."""
    rng, gates, attempts = random.Random(3302), [], []
    cases = [_gate_case(rng) for _ in range(1000)]
    cases += _no_automorphism_cases(rng)
    with deadline(30):
        for a in cases:
            out = _raised(classify3, a)   # first, on the fresh object
            try:
                gate = None if is_simple(a) else NotSimple("the algebra is not simple")
            except BiHomError as exc:
                gate = exc
            if not check_all(a).all_pass:
                assert isinstance(gate, AxiomViolation)
            if gate is not None:
                assert (type(out), str(out)) == (type(gate), str(gate))
            gates.append(gate)
        monkeypatch.setattr(classify3_module, "is_simple", lambda a: True)
        for a in cases:
            attempts.append(_raised(classify3, a))
    assert sum(gate is not None for gate in gates) > 900
    assert all(isinstance(gate, AxiomViolation) for gate in gates[1000:])
    assert any(exc is not None and not isinstance(exc, BiHomError) for exc in attempts)


def _property_case(rng, path):
    """(input algebra, family, params, catalog algebra of that label) of one
    seeded case on a profile path."""
    def generic():   # a nonzero rational other than 1 and -1
        while abs(x := random_fraction(rng, 6, nonzero=True)) == 1:
            pass
        return x
    if path == "L2":
        return make_L2(), "L2", (), make_L2()
    if path == "L3":
        a = random_fraction(rng, 9)
        return make_L3(a), "L3", (a,), make_L3(a)
    a = Q(-1) if path == "L1(-1,b)" else generic()
    b = Q(1) if path == "L1(a,1)" else generic()
    params = normalize_l1_params(a, b)[:2]
    return make_L1(a, b), "L1", params, make_L1(*params)


def test_classifier_paths_under_random_bases():
    """Seeded random-basis cases through classify3 and iso3 on every profile
    path; each label is certified by conjugating back to the catalog algebra."""
    rng = random.Random(1014)
    paths = ("L1 generic", "L1(a,1)", "L1(-1,b)", "L2", "L3")
    for path in paths * 6:
        algebra, family, params, expected = _property_case(rng, path)
        conj = conjugate_algebra(algebra, random_invertible(3, rng, 3))
        label = classify3(conj)
        assert (label.family, label.params) == (family, params)
        back = conjugate_algebra(conj, label.change_of_basis)
        assert (back.tensor, back.alpha, back.beta) == \
            (expected.tensor, expected.alpha, expected.beta)
        other = conjugate_algebra(algebra, random_invertible(3, rng))
        f = bihom_isomorphic3(conj, other)
        assert f is not None
        _assert_intertwines(f, conj, other)
        different = make_L3(7) if family != "L3" else make_L2()
        assert bihom_isomorphic3(conj, different) is None


# change_of_basis of classify3 on one seeded conjugate per diagonal path, as
# the --json output prints it: (path, catalog L1 params, which are also the
# alpha_profile values of alpha and beta, change_of_basis)
PINNED_BASES = [
    ("alpha r = 2", (2, 3),
     [["-1", "1", "1"], ["2", "-1", "0"], ["-2", "1", "-1"]]),
    ("alpha r = -1", (-1, 2),
     [["10", "4", "1"], ["-5", "-4", "-1/2"], ["-2", "0", "-1/4"]]),
    ("beta r = 3", (1, 3),
     [["7", "-2", "1"], ["-10", "3", "-2"], ["4", "-1", "1"]]),
    ("beta r = -1", (1, -1),
     [["3", "4", "1"], ["1", "4", "1/2"], ["1", "2", "1/2"]]),
    ("identity pair, grid", (1, 1),
     [["0", "-7/4", "1"], ["1/2", "-15/8", "-1/2"], ["0", "1/4", "1"]]),
]
# a wide basis on which the grid of find_sl2_triple has no hit (stage 2)
CONIC_BASIS = MatrixQ([[Q(3, 10), Q(-3, 4), 18], [Q(-21, 10), Q(41, 8), -144],
                       [Q(-3, 10), Q(1, 8), -99]])
CONIC_CHANGE = [["1705901/2556", "10565656224599/26132544", "1"],
                ["238196/1065", "371734105481/2722140", "13947312/41515055"],
                ["-47/27", "-290605385/276048", "-65036/24909033"]]


def test_classify3_change_of_basis_is_pinned():
    """The exact change of basis on every diagonal path, which fixes the
    choice of sign of the adapted sl2 triple."""
    rng = random.Random(1015)
    cases = [(path, conjugate_algebra(make_L1(*params), random_invertible(3, rng)),
              params, change) for path, params, change in PINNED_BASES]
    cases.append(("identity pair, conic", conjugate_algebra(make_L1(1, 1), CONIC_BASIS),
                  (1, 1), CONIC_CHANGE))
    for path, algebra, values, change in cases:
        assert (alpha_profile(algebra.alpha), alpha_profile(algebra.beta)) == values, path
        if path.startswith("identity pair"):
            grid_hit = grid_oracle(induce_lie(algebra)[0]) is not None
            assert grid_hit == path.endswith("grid"), path
        label = classify3(algebra)
        assert label.family == "L1", path
        assert [[format_rational(x) for x in row]
                for row in label.change_of_basis.entries] == change, path


def test_killing_determinant_taken_once(monkeypatch):
    """An identity-pair input passes the is_simple gate, decompose_semisimple
    and find_sl2_triple on one induced tensor: its Killing determinant is
    computed once, through every module that binds exactlin.det."""
    calls, det = [], exactlin.det

    def counted(m):
        calls.append(m)
        return det(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("bihomlie") and getattr(module, "det", None) is det:
            monkeypatch.setattr(module, "det", counted)
    sl2 = BiHomAlgebra(dim=3, tensor=make_sl2(), alpha=MatrixQ.identity(3),
                       beta=MatrixQ.identity(3))
    label = classify3(conjugate_algebra(sl2, random_invertible(3, random.Random(7))))
    assert (label.family, label.params) == ("L1", (1, 1))
    assert len(calls) == 1 and calls[0].rows == 3


# --- the checks that no input can fail ----------------------------------------
# find_sl2_triple calls _complete_triple only with K(v,v)/2 = c^2 > 0 on a
# 3-dimensional semisimple Lie algebra, _adapted_triple is called only with
# a map whose alpha_profile value r is not 1, and bihom_isomorphic3 only with two
# labels certified against the same catalog algebra. The tests below check,
# on seeded inputs of every path, the facts that make one certificate per
# verdict enough.

def _path_conjugates(rng, count):
    """Seeded conjugates of every family on every profile path, L1(1,1)
    among them."""
    paths = ("L1 generic", "L1(a,1)", "L1(-1,b)", "L2", "L3")
    out = [conjugate_algebra(_property_case(rng, path)[0], random_invertible(3, rng))
           for path in paths * count]
    return out + [conjugate_algebra(make_L1(1, 1), random_invertible(3, rng))
                  for _ in range(count)]


def _triple_premises(t):
    """(v, c) with K(v,v)/2 = c^2 > 0 for every grid candidate of stage 1,
    and the vector of stage 2 with c = 1."""
    killing = killing_form(t)

    def half_norm(v):
        return sum(v[i] * killing[i, j] * v[j] for i in range(3) for j in range(3)) / 2
    out = []
    for w in _GRID:
        v = tuple(Q(x, 2) for x in w)
        c = sqrt_fraction(half_norm(v))   # None when negative or not a square
        if c:
            out.append((v, c))
    e = _isotropic_vector(killing)
    ke = killing.apply(e)
    i = next(i for i, x in enumerate(ke) if x != 0)
    v = vec_add(basis_vector(3, i), vec_scale((2 - killing[i, i]) / (2 * ke[i]), e))
    assert half_norm(v) == 1
    return out + [(v, Q(1))]


def test_triple_at_premise_fixes_the_triple():
    """For h = 2v/c: char_poly(ad h) = x^3 - 4x, the eigenspaces of 2 and -2
    are lines, ker ad h = Q h holds the nonzero [e, f], and the completed
    triple passes homomorphism_failure."""
    rng = random.Random(1501)
    tensors = [induce_lie(a)[0] for a in _path_conjugates(rng, 1)]
    tensors += [conjugate_tensor(make_sl2(), p) for p in wide_sl2_bases(4, 1502)]
    tensors.append(induce_lie(conjugate_algebra(make_L1(1, 1), CONIC_BASIS))[0])
    identity, sl2, candidates = MatrixQ.identity(3), make_sl2(), 0
    for t in tensors:
        for v, c in _triple_premises(t):
            h = vec_scale(2 / c, v)
            ad_h = ad_matrix(t, h)
            assert char_poly(ad_h) == (0, -4, 0, 1)
            plus, minus = kernel(ad_h - identity.scale(2)), kernel(ad_h + identity.scale(2))
            assert plus.dim == minus.dim == 1
            assert kernel(ad_h) == Subspace(3, [h])
            e, f = plus.basis_rows[0], minus.basis_rows[0]
            ef = fraction_bracket(t, e, f)
            pivot = next(i for i, x in enumerate(h) if x != 0)
            mu = ef[pivot] / h[pivot]
            assert mu != 0 and ef == vec_scale(mu, h)
            triple = _complete_triple(t, v, c)
            assert triple == Sl2Triple(h=h, e=vec_scale(1 / mu, e), f=f)
            assert homomorphism_failure(triple.basis_matrix(), sl2, t) is None
            candidates += 1
    assert candidates > 10 * len(tensors)


def test_fixed_space_of_diagonal_profiles_is_a_line():
    """The eigenvalue 1 of a map with alpha_profile value r != 1 is simple,
    so its fixed space is the line that _adapted_triple reads h0 from, and
    K(h0,h0)/2 = c^2 for the c it reads off that line."""
    rng = random.Random(1503)
    maps = []
    for algebra in _path_conjugates(rng, 2):
        maps += [(induce_lie(algebra)[0], m) for m in (algebra.alpha, algebra.beta)]
    for _ in range(10):
        a = _property_case(rng, "L1 generic")[0].alpha[1, 1]
        p = random_invertible(3, rng, 3)
        maps += [(None, invert(p) * MatrixQ.diagonal(d) * p)
                 for d in ([1, a, 1 / a], [1, -1, -1])]
    seen = set()
    for t, m in maps:
        r = alpha_profile(m)
        if r == 1:
            continue
        seen.add("r = -1" if r == -1 else "r != +-1")
        fixed = kernel(m - MatrixQ.identity(3))
        assert fixed.dim == 1
        if t is None:
            continue
        h0 = fixed.basis_rows[0]
        ad_h0 = ad_matrix(t, h0)
        half_norm = (ad_h0 * ad_h0).trace() / 2
        c = sqrt_fraction(half_norm) if r == -1 else (ad_h0 * m).trace() / (r - 1 / r)
        assert c and c * c == half_norm
    assert seen == {"r = -1", "r != +-1"}


def test_iso3_isomorphism_holds_by_construction():
    """On seeded isomorphic pairs of every path, L1(a,b) against
    L1(1/a,1/b) and identity pairs through the grid and the conic, the f of
    iso3 intertwines both maps and preserves the bracket."""
    rng = random.Random(1504)
    pairs = [(a, conjugate_algebra(a, random_invertible(3, rng)))
             for a in _path_conjugates(rng, 1)]
    for _ in range(3):
        a, b = (_property_case(rng, "L1 generic")[0].alpha[1, 1] for _ in range(2))
        pairs.append(tuple(conjugate_algebra(make_L1(*params), random_invertible(3, rng))
                           for params in ((a, b), (1 / a, 1 / b))))
    conic = conjugate_algebra(make_L1(1, 1), CONIC_BASIS)
    grid = conjugate_algebra(make_L1(1, 1), random_invertible(3, rng))
    assert grid_oracle(induce_lie(grid)[0]) is not None
    assert grid_oracle(induce_lie(conic)[0]) is None
    pairs += [(grid, conic), (conic, grid), (conic, conic)]
    for a1, a2 in pairs:
        f = bihom_isomorphic3(a1, a2)
        assert f is not None
        assert f * a1.alpha == a2.alpha * f and f * a1.beta == a2.beta * f
        assert homomorphism_failure(f, a1.tensor, a2.tensor) is None


def test_each_label_inverts_no_matrix_twice(monkeypatch):
    """_certify reads the parameters off its one conjugation, which inverts
    the candidate basis, and a flipped L1 label conjugates that result by
    _FLIP once more: counting exactlin.invert in every module that binds it,
    no matrix is inverted twice for a label. An L2 or L3 label inverts three
    matrices, alpha and beta for the induced bracket and the candidate basis
    for _certify: _unipotent_basis reads its two parameters off brackets in
    the input basis and no longer inverts the Jordan chain as a fourth."""
    calls, flips, families = [], [], []
    original, normalize = exactlin.invert, classify3_module.normalize_l1_params

    def counted(m):
        calls.append(m)
        return original(m)

    def recorded(a, b):
        out = normalize(a, b)
        flips.append(out[2])
        return out

    rng = random.Random(1619)
    inputs = [conjugate_algebra(a, random_invertible(3, rng)) for a in (
        make_L1(2, 3), make_L3(5), make_L1(Q(1, 2), Q(-1, 3)), make_L3(Q(-2, 7)),
        make_L2(), make_L2(), *[make_L1(-1, b) for b in (3, Q(1, 3), Q(-2, 5), Q(5, 2))])]
    for name, module in list(sys.modules.items()):
        if name.startswith("bihomlie") and getattr(module, "invert", None) is original:
            monkeypatch.setattr(module, "invert", counted)
    monkeypatch.setattr(classify3_module, "normalize_l1_params", recorded)
    for a in inputs:
        calls.clear()
        label = classify3(a)
        assert len(calls) == len(set(calls)), (label.family, label.params)
        families.append(label.family)
        if label.family != "L1":
            assert len(calls) == 3, (label.family, label.params)
    assert True in flips and False in flips   # both sides of the flip ran
    assert {"L1", "L2", "L3"} <= set(families)


# --- the three checks of the certificate ---------------------------------------
# _certify proves a label by B^-1 alpha B = alpha_cat, B^-1 beta B = beta_cat
# and B being a bracket homomorphism from the family's base onto the induced
# algebra. A basis scaled by 2 keeps both conjugated maps and breaks the
# bracket, so only the third check can reject it.

def _scaled_triple(find):
    def scaled(*args):
        return Sl2Triple(*(vec_scale(2, v) for v in find(*args)))
    return scaled


def test_certificate_rejects_a_scaled_basis(monkeypatch):
    unipotent_basis, rng = classify3_module._unipotent_basis, random.Random(2701)
    stubs = {
        "_adapted_triple": (_scaled_triple(classify3_module._adapted_triple),
                            [make_L1(2, 3), make_L1(-1, 3), make_L1(1, Q(2, 5))]),
        "_unipotent_basis": (lambda *args: unipotent_basis(*args).scale(2),
                             [make_L2(), make_L3(Q(-2, 3))]),
        "find_sl2_triple": (_scaled_triple(classify3_module.find_sl2_triple),
                            [make_L1(1, 1)]),
    }
    for name, (stub, algebras) in stubs.items():
        inputs = [conjugate_algebra(a, random_invertible(3, rng)) for a in algebras]
        if name == "find_sl2_triple":
            inputs.append(conjugate_algebra(make_L1(1, 1), CONIC_BASIS))
        for a in inputs:   # unpatched, each input is certified
            classify3(a)
        with monkeypatch.context() as patch:
            patch.setattr(classify3_module, name, stub)
            for a in inputs:
                with pytest.raises(Unmatched, match="exact conjugation against the "
                                   "catalog algebra failed"):
                    classify3(a)


def test_flip_is_an_involutive_automorphism_of_sl2():
    flip = classify3_module._FLIP
    assert homomorphism_failure(flip, make_sl2()) is None
    assert flip * flip == MatrixQ.identity(3)


def test_certify_conjugates_no_tensor(monkeypatch):
    """One classify3 call runs transform_tensor once, for the induced tensor
    and outside _certify, and homomorphism_failure once on the label's basis
    (twice on the identity path, whose triple find_sl2_triple has already
    checked), in every module that binds them."""
    transform, certify = algebra_module.transform_tensor, classify3_module._certify
    failure = classify3_module.homomorphism_failure
    tensors, checks, inside = [], [], []

    def counted_transform(t, *maps):
        tensors.append(t)
        return transform(t, *maps)

    def counted_failure(m, *tensors_):
        checks.append(m)
        return failure(m, *tensors_)

    def watched(*args):
        before = len(tensors)
        out = certify(*args)
        inside.append(len(tensors) - before)
        return out

    rng = random.Random(2702)
    unipotent_base_tensor()
    cases = [(path, conjugate_algebra(algebra, random_invertible(3, rng)))
             for path, algebra in [("adapted", make_L1(2, 3)), ("adapted", make_L1(-1, Q(1, 3))),
                                   ("adapted", make_L1(-1, 3)), ("adapted", make_L1(1, Q(2, 5))),
                                   ("identity", make_L1(1, 1)), ("L2", make_L2()),
                                   ("L3", make_L3(Q(-2, 3)))]]
    cases.append(("identity", conjugate_algebra(make_L1(1, 1), CONIC_BASIS)))
    for name, module in list(sys.modules.items()):
        if name.startswith("bihomlie") and getattr(module, "transform_tensor", None) is transform:
            monkeypatch.setattr(module, "transform_tensor", counted_transform)
    monkeypatch.setattr(classify3_module, "homomorphism_failure", counted_failure)
    monkeypatch.setattr(classify3_module, "_certify", watched)
    for path, a in cases:
        tensors.clear()
        checks.clear()
        inside.clear()
        label = classify3(a)
        assert len(tensors) == 1 and tensors[0] is a.tensor, path
        assert inside == [0], path
        assert all(m == label.change_of_basis for m in checks), path
        assert len(checks) == 1 or (path == "identity" and len(checks) == 2), path


# --- one profile per label ------------------------------------------------------
# classify3 profiles m, beta when alpha is the identity and alpha otherwise.
# The maps of a simple input are commuting automorphisms of the induced sl2,
# so m forces the shape of the other map, and the profile that classify3
# does not compute could not change a verdict.

def _one_map_cases(rng):
    """(path, dense conjugate, catalog algebra of its label or None) on every
    path of classify3."""
    cases = [(path, *_property_case(rng, path)[::3])
             for path in ("L1 generic", "L1(a,1)", "L1(-1,b)", "L2", "L3")]
    b = _property_case(rng, "L1 generic")[0].alpha[1, 1]
    cases += [("identity alpha, diagonal beta", make_L1(1, b),
               make_L1(*normalize_l1_params(1, b)[:2])),
              ("identity pair, grid", make_L1(1, 1), make_L1(1, 1)),
              ("L3(0)", make_L3(0), make_L3(0)),
              ("r = -1, swapping beta", SWAP_PAIR, None)]
    out = [(path, conjugate_algebra(a, random_invertible(3, rng)), expected)
           for path, a, expected in cases]
    return out + [("identity pair, conic", conjugate_algebra(make_L1(1, 1), CONIC_BASIS),
                   make_L1(1, 1))]


def test_classify3_profiles_one_map(monkeypatch):
    calls = []

    def counted(m):
        calls.append(m)
        return alpha_profile(m)
    monkeypatch.setattr(classify3_module, "alpha_profile", counted)
    for path, a, _ in _one_map_cases(random.Random(1901)):
        calls.clear()
        with contextlib.suppress(Unmatched):   # the swapping beta
            classify3(a)
        assert calls == [a.beta if a.alpha == MatrixQ.identity(3) else a.alpha], path


def test_dropped_profile_is_forced():
    """On every path the profile of the map that classify3 does not profile
    is computed without error and is that of the same map of the catalog
    algebra (for the swapping beta, an involution moving h to -h), while the
    label is certified as before."""
    seen = set()
    for path, a, expected in _one_map_cases(random.Random(1902)):
        name = "alpha" if a.alpha == MatrixQ.identity(3) else "beta"
        dropped = alpha_profile(getattr(a, name))
        if expected is None:
            assert dropped == -1, path
            with pytest.raises(Unmatched, match=r"beta is not diag\(1, b, 1/b\)"):
                classify3(a)
            continue
        assert dropped == alpha_profile(getattr(expected, name)), path
        if path.startswith("identity pair"):
            assert (grid_oracle(induce_lie(a)[0]) is not None) == path.endswith("grid")
        label = classify3(a)
        back = conjugate_algebra(a, label.change_of_basis)
        assert (back.tensor, back.alpha, back.beta) == \
            (expected.tensor, expected.alpha, expected.beta), path
        seen.add("identity" if getattr(a, name) == MatrixQ.identity(3)
                 else "r = 1" if dropped == 1 else "r != 1")
    assert seen == {"identity", "r = 1", "r != 1"}


# --- the trace rule against the root-based profile ------------------------------
# alpha_profile reads the eigenvalue r of an automorphism off its trace. The
# root-based profile it replaced, which found the rational roots of the
# characteristic polynomial and named the Jordan shape, is kept here as the
# reference oracle; no code in src/ uses it.

def root_profile(m):
    """(kind, eigenvalue) of an automorphism m of sl2 from the rational roots
    of char_poly(m), here by the divisor search with multiplicities by
    synthetic division, then the Jordan shape at a repeated eigenvalue. A
    shape that no automorphism has fails an assertion."""
    roots, residual = divisor_rational_roots(char_poly(m))
    if len(residual) > 1:
        raise IrrationalEigenvalues(
            f"eigenvalues are irrational (residual factor of degree {len(residual) - 1})")
    eigen = sorted(value for value, mult in roots for _ in range(mult))
    identity = MatrixQ.identity(3)
    if eigen == [1, 1, 1]:
        if m == identity:
            return "Identity", None
        n = m - identity
        assert not (n * n).is_zero(), "a partial unipotent block is no automorphism"
        return "UnipotentFull", None
    if eigen == [-1, -1, 1]:
        assert kernel(m + identity).dim == 2, "a Jordan block at -1 is no automorphism"
        return "DiagNegPair", Q(-1)
    pair = list(eigen)
    pair.remove(Q(1))
    assert pair[0] * pair[1] == 1, f"eigenvalue multiset {eigen} is not {{1, a, 1/a}}"
    return "DiagonalDistinct", max(pair, key=lambda r: (abs(r), r))


def _outcome(profile, m):
    """What the profile returns, or (IrrationalEigenvalues, the error's
    text)."""
    try:
        return profile(m)
    except IrrationalEigenvalues as exc:
        return IrrationalEigenvalues, str(exc)


def _seeded_adjoints(rng):
    """(shape of g, basis P, Ad(g) in the basis P) for seeded invertible 2x2
    g: diagonal, unipotent, with an irrational eigenvalue ratio, with
    ratio -1 (trace 0), with small random entries, and at a 20-digit-prime
    height. Ad(g) in the basis P is an automorphism of sl2 in that basis."""
    q = next(n for n in itertools.count(10**19 + 1) if is_prime(n))

    def small():
        return rng.choice([x for x in range(-9, 10) if x])

    def irrational(height):
        while True:
            d, s = rng.choice((1, -1)) * height, small()
            if sqrt_fraction(Q(s * s - 4 * d)) is None:
                return [[0, 1], [-d, s]]

    def zero_trace():
        while True:
            x, y, z = small(), small(), rng.randint(-9, 9)
            if x * x + y * z:
                return [[x, y], [z, -x]]

    def general():
        while True:
            g = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)]
            if g[0][0] * g[1][1] != g[0][1] * g[1][0]:
                return g

    shapes = ([("diagonal", lambda: [[small(), 0], [0, small()]])] * 60
              + [("unipotent", lambda: [[1, small()], [0, 1]])] * 30
              + [("irrational", lambda: irrational(small()))] * 30
              + [("ratio -1", zero_trace)] * 30
              + [("general", general)] * 30
              + [("prime height", lambda: [[q * rng.choice((1, -1)), 0], [0, small()]])] * 10
              + [("prime height", lambda: irrational(q))] * 10
              + [("prime height", lambda: [[small(), q], [0, small()]])] * 10)
    out = []
    for shape, make in shapes:
        basis = random_invertible(3, rng)
        out.append((shape, basis, invert(basis) * _adjoint(make()) * basis))
    return out


def test_trace_rule_matches_root_profile_on_automorphisms():
    """On seeded automorphisms Ad(g) under random bases the trace rule gives
    the value of the root-based profile (1 for Identity and UnipotentFull,
    else its eigenvalue: -1 for DiagNegPair), or the same error:
    IrrationalEigenvalues with the same text."""
    cases = _seeded_adjoints(random.Random(2801))
    assert len(cases) >= 200
    values = {"Identity": 1, "UnipotentFull": 1}
    kinds = set()
    for shape, basis, m in cases:
        assert homomorphism_failure(m, conjugate_tensor(make_sl2(), basis)) is None, shape
        kind, param = _outcome(root_profile, m)
        expected = (kind, param) if kind is IrrationalEigenvalues else values.get(kind, param)
        assert _outcome(alpha_profile, m) == expected, (shape, m)
        kinds.add(kind)
    assert kinds == {"Identity", "DiagonalDistinct", "UnipotentFull", "DiagNegPair",
                     IrrationalEigenvalues}


def test_classify3_and_iso3_find_no_roots(monkeypatch):
    """No classify3 or iso3 call runs exactlin.rational_roots, in any module
    that binds it, on every path: the identity pair by the grid and by the
    conic, r != +-1, r = -1, L2, L3 and the rotation."""
    calls, roots = [], exactlin.rational_roots
    rng = random.Random(2803)

    def conj(a):
        return conjugate_algebra(a, random_invertible(3, rng))

    def counted(p):
        calls.append(p)
        return roots(p)

    grid, conic = conj(make_L1(1, 1)), conjugate_algebra(make_L1(1, 1), CONIC_BASIS)
    assert grid_oracle(induce_lie(grid)[0]) is not None
    assert grid_oracle(induce_lie(conic)[0]) is None
    cases = [(1, grid, make_L1(1, 1)), (1, conic, make_L1(1, 1)),
             (2, conj(make_L1(2, 3)), make_L1(Q(1, 2), Q(1, 3))),
             (-1, conj(make_L1(-1, 3)), make_L1(-1, 3)),
             (1, conj(make_L2()), make_L2()),
             (1, conj(make_L3(Q(-2, 3))), make_L3(Q(-2, 3)))]
    rotation = conj(yau_twist(TwistInput(make_sl2(), ROTATION, MatrixQ.identity(3))))
    for name, module in list(sys.modules.items()):
        if name.startswith("bihomlie") and getattr(module, "rational_roots", None) is roots:
            monkeypatch.setattr(module, "rational_roots", counted)
    for r, a, other in cases:
        m = a.beta if a.alpha == MatrixQ.identity(3) else a.alpha
        assert alpha_profile(m) == r
        classify3(a)
        assert bihom_isomorphic3(a, conj(other)) is not None, r
    for call in (lambda: classify3(rotation), lambda: bihom_isomorphic3(rotation, grid)):
        with pytest.raises(IrrationalEigenvalues):
            call()
    assert calls == []


def test_package_attribute_classify3_is_the_module():
    import bihomlie
    import bihomlie.classify3 as module
    assert module is sys.modules["bihomlie.classify3"] is bihomlie.classify3
    assert module.classify3 is classify3


# --- the 2x2 oracle (ROADMAP open item 14) --------------------------------------
# sl2 twisted by Ad(A) and Ad(B) for a commuting pair (A, B) in PGL2(Q): its
# class comes from 2x2 arithmetic on (A, B) alone, never from classify3. A
# refusal names the ROADMAP open item that lifts it.

_NON_SQUARES = (-7, -3, -2, -1, 2, 3, 5, 6)


def _is_scalar(m):
    return m[0, 1] == m[1, 0] == 0 and m[0, 0] == m[1, 1]


def _oracle(a, b):
    """("L1", (r, s)), ("L2", ()) or ("L3", (r,)) for the twist of sl2 by
    alpha = Ad(a) and beta = Ad(b), or the name of today's refusal.
    Anticommuting: a Klein pair of involutions. Otherwise the pair lies in
    the centralizer of a non-scalar m among them: a torus, split when the
    discriminant of m is a nonzero square (L1 of the eigenvalue ratios on a
    common eigenvector, under the height rule of normalize_l1_params), not
    split otherwise (classify3 profiles alpha, or beta when alpha is
    scalar: an involution is Unmatched, another map IrrationalEigenvalues);
    or for discriminant 0 the group c(I + N), N^2 = 0, where
    Ad(I + rN) = Ad(I + N)^r gives L3(r), or L2 when alpha is scalar."""
    if a * b == -(b * a):
        return "Unmatched"
    m = next((x for x in (a, b) if not _is_scalar(x)), None)
    if m is None:
        return "L1", (Q(1), Q(1))
    disc = m.trace() ** 2 - 4 * det(m)
    if disc == 0:
        nil_a, nil_b = (x.scale(2 / x.trace()) - MatrixQ.identity(2) for x in (a, b))
        if nil_a.is_zero():
            return "L2", ()
        i, j = next((i, j) for i in range(2) for j in range(2) if nil_a[i, j])
        return "L3", (nil_b[i, j] / nil_a[i, j],)
    root = sqrt_fraction(disc)
    if root is None:
        return "Unmatched" if m.trace() == 0 else "IrrationalEigenvalues"
    lam = (m.trace() + root) / 2
    p, q = m[0, 0] - lam, m[0, 1]
    v = (-q, p) if (p, q) != (0, 0) else (m[1, 1] - lam, -m[1, 0])
    k = 0 if v[0] else 1
    ratios = []
    for x in (a, b):
        first = x.apply(v)[k] / v[k]
        ratios.append(first * first / det(x))
    return "L1", max((ratios[0], ratios[1]), (1 / ratios[0], 1 / ratios[1]),
                     key=lambda r: (abs(r[0]), r[0], abs(r[1]), r[1]))


def _gl2_pair(rng, kind):
    """A seeded commuting (or, for Klein, anticommuting) pair of the kind,
    each map times a random scalar, conjugated by a random 2x2 basis."""
    identity = MatrixQ.identity(2)

    def q(nonzero=True):
        return random_fraction(rng, 5, nonzero=nonzero)

    def unipotent(s):
        return MatrixQ([[1, s], [0, 1]])

    def torus_element(j):   # x + yJ with y != 0, and x = 0 (J itself) at times
        return identity.scale(rng.choice((0, q()))) + j.scale(q())

    if kind == "split torus":
        lam = q()
        a = MatrixQ.diagonal([lam, rng.choice((lam, -lam, q()))])
        b = MatrixQ.diagonal([q(), q()])
    elif kind == "unipotent":
        a, b = unipotent(rng.choice((0, q()))), unipotent(q(nonzero=False))
    else:
        d = rng.choice(_NON_SQUARES)
        j = MatrixQ([[0, d], [1, 0]])
        if kind == "non-split torus":
            a, b = torus_element(j), torus_element(j)
        elif kind == "involution":
            a, b = rng.choice(((j, identity), (j, j)))
        else:   # Klein: ab = -ba
            c, u, v = q(), q(nonzero=False), q()
            if u * u == c * v * v:   # det b = c v^2 - u^2
                u = 0
            a, b = MatrixQ([[0, c], [1, 0]]), MatrixQ([[u, c * v], [-v, -u]])
    if rng.random() < 0.5:
        a, b = b, a
    basis = random_invertible(2, rng)
    return tuple(basis * x.scale(q()) * invert(basis) for x in (a, b))


def _twisted_sl2(pair, rng):
    a, b = (_adjoint(x.entries) for x in pair)
    return conjugate_algebra(yau_twist(TwistInput(make_sl2(), a, b)),
                             random_invertible(3, rng))


def _verdict(a):
    """(family, params) of classify3's label, or the name of its refusal."""
    try:
        label = classify3(a)
    except (IrrationalEigenvalues, Unmatched) as exc:
        return type(exc).__name__
    return label.family, label.params


_KINDS = ("split torus", "unipotent", "non-split torus", "involution", "Klein")


def test_classify3_matches_the_2x2_oracle():
    """40 seeded inputs of each kind: classify3 gives the oracle's label on
    the split torus and unipotent kinds, and today's refusals elsewhere:
    IrrationalEigenvalues or Unmatched on a non-split torus and Unmatched
    on an involution with a non-split fixed line (item 13), Unmatched on a
    Klein pair (item 12)."""
    rng, seen = random.Random(14), {kind: set() for kind in _KINDS}
    with deadline(30):
        for kind in _KINDS * 40:
            pair = _gl2_pair(rng, kind)
            expected = _oracle(*pair)
            assert _verdict(_twisted_sl2(pair, rng)) == expected, (kind, pair)
            seen[kind].add(expected if isinstance(expected, str) else expected[0])
    assert seen == {"split torus": {"L1"}, "unipotent": {"L1", "L2", "L3"},
                    # refusals that ROADMAP open item 13 lifts
                    "non-split torus": {"IrrationalEigenvalues", "Unmatched"},
                    "involution": {"Unmatched"},
                    # a refusal that ROADMAP open item 12 lifts
                    "Klein": {"Unmatched"}}


def test_iso3_matches_the_2x2_oracle():
    """iso3 on a seeded input and a second twist of the same pair, conjugated
    in GL2 and in the 3-dimensional basis: an isomorphism that intertwines
    the two when the oracle gives a label, and the refusal otherwise. On
    every two inputs of the labelled kinds, iso3 finds an isomorphism
    exactly when the oracle's labels agree."""
    rng, labelled, outcomes = random.Random(1414), [], set()
    with deadline(30):
        for kind in _KINDS * 12:
            pair = _gl2_pair(rng, kind)
            basis = random_invertible(2, rng, 3)
            twin = tuple(basis * x * invert(basis) for x in pair)
            a1, a2 = _twisted_sl2(pair, rng), _twisted_sl2(twin, rng)
            expected = _oracle(*pair)
            assert _oracle(*twin) == expected
            if isinstance(expected, str):
                with pytest.raises((IrrationalEigenvalues, Unmatched)) as refusal:
                    bihom_isomorphic3(a1, a2)
                assert type(refusal.value).__name__ == expected
                continue
            _assert_intertwines(bihom_isomorphic3(a1, a2), a1, a2)
            labelled.append((expected, a1))
        for (label1, a1), (label2, a2) in combinations(labelled, 2):
            f = bihom_isomorphic3(a1, a2)
            assert (f is not None) == (label1 == label2)
            outcomes.add(label1 == label2)
    assert outcomes == {True, False}

import contextlib
import itertools
import math
import random
import sys
import time
from fractions import Fraction as Q
from itertools import combinations, product

import pytest

from bihomlie import exactlin
from bihomlie.algebra import (
    BiHomAlgebra,
    StructureTensor,
    ad_matrix,
    conjugate_algebra,
    conjugate_tensor,
    homomorphism_failure,
)
from bihomlie.analysis import killing_form
from bihomlie.catalog import (
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
    Profile,
    Sl2Triple,
    _isotropic_vector,
    _triple_at,
    alpha_profile,
    bihom_isomorphic3,
    classify3,
    find_sl2_triple,
    normalize_l1_params,
)
from bihomlie.errors import (
    IrrationalEigenvalues,
    NotAutomorphismShape,
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
    invert,
    is_prime,
    kernel,
    sqrt_fraction,
    vec_add,
    vec_scale,
)
from bihomlie.fileio import format_rational
from bihomlie.twist import TwistInput, induce_lie, yau_twist
from conftest import deadline, fraction_bracket, random_fraction, random_invertible

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


def test_find_triple_not_semisimple():
    with pytest.raises(NotSemisimple):
        find_sl2_triple(StructureTensor.zero(3))


def test_alpha_profile_kinds():
    assert alpha_profile(MatrixQ.diagonal([1, 2, Q(1, 2)])).kind == "DiagonalDistinct"
    assert alpha_profile(MatrixQ.diagonal([1, 2, Q(1, 2)])).param == 2
    assert alpha_profile(MatrixQ.identity(3)).kind == "Identity"
    assert alpha_profile(unipotent_full()).kind == "UnipotentFull"
    assert alpha_profile(MatrixQ([[1, 0, 0], [0, 1, 1], [0, 0, 1]])).kind == "UnipotentPartial"
    assert alpha_profile(MatrixQ.diagonal([1, -1, -1])).kind == "DiagNegPair"
    assert alpha_profile(MatrixQ([[1, 0, 0], [0, -1, 1], [0, 0, -1]])).kind == "NegJordan"


def test_alpha_profile_prefers_larger_eigenvalue():
    assert alpha_profile(MatrixQ.diagonal([Q(1, 3), 1, 3])).param == 3
    assert alpha_profile(MatrixQ.diagonal([1, -3, Q(-1, 3)])).param == -3


def test_alpha_profile_irrational():
    with pytest.raises(IrrationalEigenvalues):
        alpha_profile(ROTATION)


def test_alpha_profile_bad_shape():
    with pytest.raises(NotAutomorphismShape):
        alpha_profile(MatrixQ.diagonal([1, 2, 3]))
    with pytest.raises(NotAutomorphismShape):
        alpha_profile(MatrixQ.diagonal([2, 3, Q(1, 6)]))


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
                if cp.coeffs[0] != 0 or cp.coeffs[2] != 0 or -cp.coeffs[1] <= 0:
                    continue
                c = sqrt_fraction(-cp.coeffs[1])
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
    import bihomlie
    assert bihomlie.SplitUndecided is SplitUndecided
    start = time.perf_counter()
    with pytest.raises(SplitUndecided, match="cannot factor"):
        find_sl2_triple(quaternion_lie(SEMIPRIME_A, SEMIPRIME_B))
    assert time.perf_counter() - start < 1.0


def test_classify3_spans_nothing_and_induces_once(monkeypatch):
    """On regular inputs the simplicity gate reads the decomposition, and
    classify3 reuses the induced tensor that the gate computed."""
    import bihomlie.analysis as analysis
    import bihomlie.twist as twist
    spans, induced = [], []
    transform = twist.transform_tensor
    monkeypatch.setattr(analysis, "enveloping_dim", lambda gens: spans.append(gens))

    def counting(t, *maps):
        induced.append(t)
        return transform(t, *maps)
    monkeypatch.setattr(twist, "transform_tensor", counting)
    rng = random.Random(1013)
    inputs = [conjugate_algebra(a, random_invertible(3, rng))
              for a in (make_L1(2, 3), make_L1(-1, 5), make_L1(1, 1), make_L2(), make_L3(4))]
    for a in inputs:
        classify3(a)
        assert sum(t is a.tensor for t in induced) == 1
    a1, a2 = (conjugate_algebra(make_L3(Q(-2, 3)), random_invertible(3, rng)) for _ in range(2))
    assert bihom_isomorphic3(a1, a2) is not None
    assert [sum(t is a.tensor for t in induced) for a in (a1, a2)] == [1, 1]
    assert spans == []


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
# the --json output prints it: (path, catalog L1 params, profile kinds of
# alpha and beta, change_of_basis)
PINNED_BASES = [
    ("alpha DiagonalDistinct", (2, 3), ("DiagonalDistinct", "DiagonalDistinct"),
     [["-1", "1", "1"], ["2", "-1", "0"], ["-2", "1", "-1"]]),
    ("alpha DiagNegPair", (-1, 2), ("DiagNegPair", "DiagonalDistinct"),
     [["10", "4", "1"], ["-5", "-4", "-1/2"], ["-2", "0", "-1/4"]]),
    ("beta DiagonalDistinct", (1, 3), ("Identity", "DiagonalDistinct"),
     [["7", "-2", "1"], ["-10", "3", "-2"], ["4", "-1", "1"]]),
    ("beta DiagNegPair", (1, -1), ("Identity", "DiagNegPair"),
     [["3", "4", "1"], ["1", "4", "1/2"], ["1", "2", "1/2"]]),
    ("identity pair, grid", (1, 1), ("Identity", "Identity"),
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
              kinds, change) for path, params, kinds, change in PINNED_BASES]
    cases.append(("identity pair, conic", conjugate_algebra(make_L1(1, 1), CONIC_BASIS),
                  ("Identity", "Identity"), CONIC_CHANGE))
    for path, algebra, kinds, change in cases:
        assert (alpha_profile(algebra.alpha).kind, alpha_profile(algebra.beta).kind) == kinds
        if kinds == ("Identity", "Identity"):
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
# _triple_at is called only with K(v,v)/2 = c^2 > 0 on a 3-dimensional
# semisimple Lie algebra, _adapted_triple only with a DiagonalDistinct or
# DiagNegPair map, and bihom_isomorphic3 only with two labels certified
# against the same catalog algebra. The tests below check, on seeded inputs
# of every path, the facts that make one certificate per verdict enough.

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
            assert char_poly(ad_h).coeffs == (0, -4, 0, 1)
            plus, minus = kernel(ad_h - identity.scale(2)), kernel(ad_h + identity.scale(2))
            assert plus.dim == minus.dim == 1
            assert kernel(ad_h) == Subspace(3, [h])
            e, f = plus.basis_rows[0], minus.basis_rows[0]
            ef = fraction_bracket(t, e, f)
            pivot = next(i for i, x in enumerate(h) if x != 0)
            mu = ef[pivot] / h[pivot]
            assert mu != 0 and ef == vec_scale(mu, h)
            triple = _triple_at(t, v, c)
            assert triple == Sl2Triple(h=h, e=vec_scale(1 / mu, e), f=f)
            assert homomorphism_failure(triple.basis_matrix(), sl2, t) is None
            candidates += 1
    assert candidates > 10 * len(tensors)


def test_triple_certificate_failure_is_split_undecided():
    # a non-skew tensor with ad h = diag(0, 2, -2) and [e, f] = h, but
    # [e, h] = 0: the eigenlines close, the certificate does not
    brackets = {(0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 0, 0),
                (2, 1): (-1, 0, 0)}
    t = StructureTensor.from_brackets(3, brackets)
    with pytest.raises(SplitUndecided, match="do not close"):
        _triple_at(t, (Q(1), Q(0), Q(0)), Q(2))


def test_fixed_space_of_diagonal_profiles_is_a_line():
    """The eigenvalue 1 of a DiagonalDistinct or DiagNegPair map is simple,
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
        profile = alpha_profile(m)
        if profile.kind not in ("DiagonalDistinct", "DiagNegPair"):
            continue
        seen.add(profile.kind)
        fixed = kernel(m - MatrixQ.identity(3))
        assert fixed.dim == 1
        if t is None:
            continue
        h0, r = fixed.basis_rows[0], profile.param
        ad_h0 = ad_matrix(t, h0)
        half_norm = (ad_h0 * ad_h0).trace() / 2
        c = sqrt_fraction(half_norm) if r == -1 else (ad_h0 * m).trace() / (r - 1 / r)
        assert c and c * c == half_norm
    assert seen == {"DiagonalDistinct", "DiagNegPair"}


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
    classify3_module = sys.modules["bihomlie.classify3"]
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
    classify3_module = sys.modules["bihomlie.classify3"]
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
            assert dropped == ("DiagNegPair", -1), path
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
        seen.add(dropped.kind)
    assert seen == {"Identity", "DiagonalDistinct", "UnipotentFull"}


def test_unrealized_profile_is_unmatched(monkeypatch):
    """A profile that no family realizes names the map it was read from;
    automorphisms of sl2 never have one, so the profile is stubbed."""
    monkeypatch.setattr(sys.modules["bihomlie.classify3"], "alpha_profile",
                        lambda m: Profile("NegJordan"))
    with pytest.raises(Unmatched, match="^alpha profile NegJordan is not realized"):
        classify3(make_L3(2))
    with pytest.raises(Unmatched, match="^identity alpha with beta profile NegJordan"):
        classify3(make_L2())

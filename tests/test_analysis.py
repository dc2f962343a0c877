import json
import random
from fractions import Fraction as Q

import pytest

from bihomlie import analysis
from bihomlie.algebra import (
    BiHomAlgebra,
    StructureTensor,
    ad_matrix,
    conjugate_algebra,
    conjugate_tensor,
)
from bihomlie.analysis import (
    IdealReport,
    TypeLabel,
    _simplicity,
    automorphism_permutation,
    burnside_generators,
    decompose_bihom,
    decompose_semisimple,
    enveloping_dim,
    is_ideal,
    is_semisimple_lie,
    is_simple,
    killing_form,
    type_candidates,
)
from bihomlie.catalog import direct_sum, make_L1, make_L2, make_L3, make_sl2, sl2_bihom
from bihomlie.errors import (
    DimensionMismatch,
    IrrationalSplit,
    NotLie,
    NotPermuted,
    NotSemisimple,
)
from bihomlie.exactlin import (
    MatrixQ,
    SpanBuilder,
    Subspace,
    basis_vector,
    char_poly,
    cleared,
    det,
    invert,
    kernel,
    rational_roots,
    vec_add,
    vector,
)
from bihomlie.twist import TwistInput, induce_lie, require_axioms, yau_twist
from conftest import (
    deadline,
    fraction_bracket,
    lift_coordinates,
    random_fraction,
    random_invertible,
)

SOLVABLE = StructureTensor.from_brackets(2, {(0, 1): (0, 1), (1, 0): (0, -1)})


def abelian_bihom(n):
    return BiHomAlgebra(dim=n, tensor=StructureTensor.zero(n),
                        alpha=MatrixQ.identity(n), beta=MatrixQ.identity(n))


def block_permutation(total, block, shift):
    """Permutation matrix cycling blocks of the given size."""
    cols = []
    for j in range(total):
        target = (j + block * shift) % total
        cols.append(tuple(Q(1) if i == target else Q(0) for i in range(total)))
    return MatrixQ.from_columns(cols)


def ideal_closure(a, v):
    """Smallest subspace containing v that is stable under both structure
    maps and under bracketing with the whole algebra on either side: the
    library's integer closure of v under the Burnside generators."""
    require_axioms(a)
    span = analysis._closure([g.scaled()[1] for g in burnside_generators(a)],
                             [cleared(vector(v))[1]])
    return Subspace(a.dim, span.rows.values())


def derived_series(t):
    """L^(0) = L, L^(k+1) = [L^(k), L^(k)], until stabilization, bracketed in
    Fraction arithmetic."""
    n = t.dim
    current = Subspace.full(n)
    series = [current]
    while True:
        gens = current.basis_rows
        nxt = Subspace(n, [fraction_bracket(t, x, y) for x in gens for y in gens])
        if nxt == current:
            break
        series.append(nxt)
        current = nxt
    return series


def sqrt2_double_sl2():
    """The standard 3-dimensional simple algebra over Q(sqrt 2), viewed as a
    6-dimensional rational Lie algebra: no rational ideals, but two complex
    ones that only split over the extension field."""
    sl2 = make_sl2()
    n = 6
    grid = [[[Q(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(3):
        for j in range(3):
            ck = sl2.bracket_basis(i, j)
            for pi, pj, factor, shift in ((0, 0, Q(1), 0), (0, 3, Q(1), 3),
                                          (3, 0, Q(1), 3), (3, 3, Q(2), 0)):
                for k in range(3):
                    grid[i + pi][j + pj][k + shift] += factor * ck[k]
    return StructureTensor(grid)


def test_ideal_closure_spins_to_full():
    assert ideal_closure(make_L1(2, 3), basis_vector(3, 1)) == Subspace.full(3)


def test_ideal_closure_abelian():
    closure = ideal_closure(abelian_bihom(3), basis_vector(3, 0))
    assert closure == Subspace(3, [basis_vector(3, 0)])


def test_ideal_closure_block():
    double = direct_sum([sl2_bihom(), sl2_bihom()])
    closure = ideal_closure(double, basis_vector(6, 1))
    assert closure == Subspace(6, [basis_vector(6, i) for i in range(3)])


def test_is_ideal_trivial_cases():
    a = make_L1(2, 3)
    assert is_ideal(a, Subspace.full(3)).is_ideal
    assert is_ideal(a, Subspace(3)).is_ideal


def test_is_ideal_witness():
    # [e2, e3] = (a/b) e1 escapes span{e2}
    report = is_ideal(make_L1(2, 3), Subspace(3, [basis_vector(3, 1)]))
    assert not report.is_ideal
    gen_index, image = report.failing_witness
    assert gen_index == 0
    assert image == (Q(2, 3), Q(0), Q(0))


def test_is_ideal_structure_map_witness():
    # the first block of two sl2 copies twisted by the block swap brackets to
    # 0 with itself ([x, y] = [swap x, y]), but alpha moves it to the second
    double = direct_sum([sl2_bihom()] * 2)
    twisted = yau_twist(TwistInput(double.tensor, block_permutation(6, 3, 1),
                                   MatrixQ.identity(6)))
    s = Subspace(6, [basis_vector(6, i) for i in range(3)])
    assert all(not any(twisted.tensor.bracket(x, y)) for x in s.basis_rows for y in s.basis_rows)
    first = s.basis_rows[0]
    assert is_ideal(twisted, s) == IdealReport(s, False, False, (0, twisted.alpha.apply(first)))


def test_ideal_closure_output_is_ideal():
    for algebra, v in ((make_L1(2, 3), basis_vector(3, 2)),
                       (abelian_bihom(3), basis_vector(3, 1)),
                       (direct_sum([sl2_bihom(), sl2_bihom()]), basis_vector(6, 4))):
        closure = ideal_closure(algebra, v)
        assert is_ideal(algebra, closure).is_ideal


def test_ideal_closure_edges():
    """A vector of the wrong length raises SpanBuilder's DimensionMismatch;
    the zero vector closes to the zero subspace."""
    for v in ((), (1, 0), (1, 0, 0, 0)):
        with pytest.raises(DimensionMismatch) as info:
            ideal_closure(make_L1(2, 3), v)
        assert str(info.value) == "vector length does not match ambient dimension"
    assert ideal_closure(make_L1(2, 3), (0, 0, 0)) == Subspace(3)
    assert ideal_closure(direct_sum([sl2_bihom()] * 2), (Q(0),) * 6) == Subspace(6)


def test_enveloping_dim_identity_only():
    assert enveloping_dim([MatrixQ.identity(4)]) == 1


def test_enveloping_dim_sl2_ads():
    gens = [ad_matrix(make_sl2(), basis_vector(3, i)) for i in range(3)]
    gens.append(MatrixQ.identity(3))
    assert enveloping_dim(gens) == 9


def test_enveloping_dim_commuting_diagonals():
    assert enveloping_dim([MatrixQ.diagonal([1, 2]), MatrixQ.diagonal([3, 5])]) == 2


def test_enveloping_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        enveloping_dim([MatrixQ.identity(2), MatrixQ.identity(3)])


class FractionSpanBuilder:
    """SpanBuilder as it was before the integer rows: an RREF basis kept in
    Fraction arithmetic, reduced and normalised on every add."""

    def __init__(self, ambient_dim):
        self.ambient_dim = ambient_dim
        self.rows, self.pivots = [], []

    def add(self, v):
        v = list(v)
        for row, p in zip(self.rows, self.pivots):
            if v[p] != 0:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        pivot = next((j for j, x in enumerate(v) if x != 0), None)
        if pivot is None:
            return False
        v = [x / v[pivot] for x in v]
        for k, row in enumerate(self.rows):
            if row[pivot] != 0:
                self.rows[k] = [a - row[pivot] * b for a, b in zip(row, v)]
        at = next((k for k, p in enumerate(self.pivots) if p > pivot), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, pivot)
        return True


def fraction_span_dim(gens):
    """Reference for enveloping_dim: the breadth-first walk over words with
    every product and every reduction done in Fraction arithmetic."""
    n = gens[0].rows
    builder = FractionSpanBuilder(n * n)
    work = [[[Q(int(i == j)) for j in range(n)] for i in range(n)]]
    builder.add([x for row in work[0] for x in row])
    while work:
        w = work.pop(0)
        for g in gens:
            p = [[sum(a * b for a, b in zip(row, col)) for col in zip(*w)] for row in g.entries]
            if builder.add([x for row in p for x in row]):
                work.append(p)
    return len(builder.rows)


def random_matrix(rng, n, height=10):
    return MatrixQ([[random_fraction(rng, height) for _ in range(n)] for _ in range(n)])


def random_generator_set(rng, kind):
    """Small generator sets of one kind: general rational, repeated and
    dependent, scalar, nilpotent, commuting, or sparse integer."""
    n = rng.randint(1, 4)
    count = rng.randint(1, 3)
    if kind == 0:
        return [random_matrix(rng, n) for _ in range(count)]
    if kind == 1:
        g, h = random_matrix(rng, n), random_matrix(rng, n, 3)
        combo = g.scale(random_fraction(rng, 5)) + h.scale(random_fraction(rng, 5))
        return [g, h, g, combo, h.scale(Q(-7, 3))]
    if kind == 2:
        scalars = [MatrixQ.identity(n).scale(random_fraction(rng, 9)) for _ in range(count)]
        return scalars + [random_matrix(rng, n)] * rng.randint(0, 1)
    basis = random_invertible(n, rng)
    inv = invert(basis)
    if kind == 3:
        upper = [MatrixQ([[random_fraction(rng, 6) if j > i else Q(0) for j in range(n)]
                          for i in range(n)]) for _ in range(count)]
        return [inv * u * basis for u in upper]
    if kind == 4 and count == 1:
        g = random_matrix(rng, n, 4)
        return [g, g * g - g.scale(3), g * g * g]
    if kind == 4:
        return [inv * MatrixQ.diagonal([random_fraction(rng, 5) for _ in range(n)]) * basis
                for _ in range(count)]
    return [MatrixQ([[rng.choice((0, 0, 0, 1, -1)) for _ in range(n)] for _ in range(n)])
            for _ in range(count + 1)]


def test_enveloping_dim_matches_fraction_oracle():
    rng = random.Random(2024)
    for case in range(240):
        gens = random_generator_set(rng, case % 6)
        expected = fraction_span_dim(gens)
        assert enveloping_dim(gens) == expected, (case, gens)
        identity = MatrixQ.identity(gens[0].rows)
        assert enveloping_dim(gens + [identity]) == expected


def block_diagonal(blocks):
    n = sum(b.rows for b in blocks)
    rows, offset = [], 0
    for b in blocks:
        for row in b.entries:
            rows.append([Q(0)] * offset + list(row) + [Q(0)] * (n - offset - b.rows))
        offset += b.rows
    return MatrixQ(rows)


def test_enveloping_dim_matches_fraction_oracle_on_sums():
    rng = random.Random(77)
    parts = [make_L1(2, 3), make_L3(5), make_L2(), make_L1(-3, Q(7, 2)), sl2_bihom()]
    swap = yau_twist(TwistInput(direct_sum([sl2_bihom(), sl2_bihom()]).tensor,
                                block_permutation(6, 3, 1), MatrixQ.identity(6)))
    cases = [conjugate_algebra(direct_sum(rng.sample(parts, 2)), random_invertible(6, rng, 1)),
             conjugate_algebra(swap, random_invertible(6, rng, 1)),
             conjugate_algebra(direct_sum(rng.sample(parts, 3)),
                               block_diagonal([random_invertible(3, rng) for _ in range(3)]))]
    for algebra in cases:
        gens = burnside_generators(algebra)
        assert enveloping_dim(gens) == fraction_span_dim(gens)
    assert [enveloping_dim(burnside_generators(a)) for a in cases] == [18, 36, 27]


def test_burnside_generators_match_fraction_brackets():
    """For each k, the matrix whose column j is the Fraction bracket
    [e_j, e_k], then ad(e_k), then alpha and beta, on seeded dense
    conjugates. With alpha = 0 the bracket of L1(2, 3) is kept and is not
    skew, so [w, e_k] != -[e_k, w] and the two readings differ."""
    rng = random.Random(2900)
    l1 = make_L1(2, 3)
    zero_alpha = BiHomAlgebra(dim=3, tensor=l1.tensor, alpha=MatrixQ.diagonal([0, 0, 0]),
                              beta=l1.beta)
    for base in (l1, make_L3(5), make_L2(), direct_sum([make_L1(2, 3), make_L3(-1)]),
                 zero_alpha):
        a = conjugate_algebra(base, random_invertible(base.dim, rng))
        e = [basis_vector(a.dim, k) for k in range(a.dim)]
        right = [MatrixQ.from_columns([fraction_bracket(a.tensor, ej, ek) for ej in e])
                 for ek in e]
        left = [ad_matrix(a.tensor, ek) for ek in e]
        expected = [m for pair in zip(right, left) for m in pair] + [a.alpha, a.beta]
        assert burnside_generators(a) == expected
        if base is zero_alpha:
            assert a.alpha.is_zero()
            assert any(r != -ad for r, ad in zip(right, left))


def test_is_simple_l1():
    assert is_simple(make_L1(2, 3))


def test_is_simple_abelian():
    assert not is_simple(abelian_bihom(1))


def test_is_simple_direct_sum():
    double = direct_sum([sl2_bihom(), sl2_bihom()])
    assert not is_simple(double)
    assert enveloping_dim(burnside_generators(double)) == 18


def test_simple_implies_every_closure_is_full():
    # necessary-condition cross-check on 20 random nonzero vectors
    from conftest import random_fraction
    algebra = make_L1(2, 3)
    assert is_simple(algebra)
    rng = random.Random(43)
    count = 0
    while count < 20:
        v = tuple(random_fraction(rng, 6) for _ in range(3))
        if all(x == 0 for x in v):
            continue
        assert ideal_closure(algebra, v) == Subspace.full(3)
        count += 1


def test_is_simple_matches_span_on_every_route():
    """is_simple against the Burnside span on inputs that take each route of
    the rule: the orbits of a decomposition, and the span for a non-regular
    input, a degenerate Killing form and an irrational split."""
    rng = random.Random(1012)

    def sl2_twist(k, alpha, beta):
        return yau_twist(TwistInput(direct_sum([sl2_bihom()] * k).tensor, alpha, beta))

    sl2_plus_line = StructureTensor.from_brackets(4, {
        (i, j): tuple(make_sl2().bracket_basis(i, j)) + (0,) for i in range(3) for j in range(3)})
    cases = [conjugate_algebra(a, random_invertible(3, rng, 3))
             for a in (make_L1(2, 3), make_L2(), make_L3(5), sl2_bihom())]
    cases += [
        conjugate_algebra(direct_sum([make_L1(-3, Q(7, 2)), make_L3(-1)]),
                          block_diagonal([random_invertible(3, rng) for _ in range(2)])),
        conjugate_algebra(sl2_twist(3, block_permutation(9, 3, 1), MatrixQ.identity(9)),
                          block_diagonal([random_invertible(3, rng) for _ in range(3)])),
        sl2_twist(4, block_permutation_matrix([1, 0, 3, 2]),
                  block_permutation_matrix([2, 3, 0, 1])),
        conjugate_algebra(direct_sum([make_L1(2, 3), abelian_bihom(1)]),
                          random_invertible(4, rng)),
        conjugate_algebra(BiHomAlgebra(dim=4, tensor=sl2_plus_line,
                                       alpha=MatrixQ.diagonal([1, 1, 1, 0]),
                                       beta=MatrixQ.identity(4)), random_invertible(4, rng)),
        BiHomAlgebra(dim=6, tensor=sqrt2_double_sl2(),
                     alpha=MatrixQ.identity(6), beta=MatrixQ.identity(6)),
    ]
    routes, verdicts = [], []
    for a in cases:
        span = enveloping_dim(burnside_generators(a))
        verdicts.append(is_simple(a))
        assert verdicts[-1] == (not a.tensor.is_zero() and span == a.dim ** 2)
        killing_det, outcome, env = _simplicity(a)
        assert env == span
        routes.append("not regular" if killing_det is None else
                      "degenerate" if killing_det == 0 else type(outcome).__name__)
    assert routes == ["Decomposition"] * 7 + ["degenerate", "not regular", "IrrationalSplit"]
    assert verdicts == [True] * 4 + [False, True, True] + [False] * 3


def test_killing_form_sl2():
    assert killing_form(make_sl2()) == MatrixQ([[8, 0, 0], [0, 0, 4], [0, 4, 0]])
    assert det(killing_form(make_sl2())) == -128


def test_killing_form_abelian_and_blocks():
    assert killing_form(StructureTensor.zero(3)).is_zero()
    double = direct_sum([sl2_bihom(), sl2_bihom()]).tensor
    k = killing_form(double)
    for i in range(3):
        for j in range(3):
            assert k.entries[i][j + 3] == 0
            assert k.entries[i + 3][j] == 0


def test_killing_det_multiplicative_on_sums():
    double = direct_sum([sl2_bihom(), sl2_bihom()]).tensor
    assert det(killing_form(double)) == (-128) ** 2
    triple = direct_sum([sl2_bihom()] * 3).tensor
    assert det(killing_form(triple)) == (-128) ** 3


def test_killing_symmetric():
    k = killing_form(direct_sum([sl2_bihom(), sl2_bihom()]).tensor)
    assert k.entries == tuple(zip(*k.entries))


def test_killing_form_matches_trace_of_ad_products():
    rng = random.Random(91)
    parts = [sl2_bihom(), make_L1(2, 3), make_L1(-1, Q(5, 2)), make_L2(), make_L3(Q(-4, 3))]
    for count in (1, 1, 2, 2, 3):
        induced, _, _ = induce_lie(direct_sum(rng.sample(parts, count)))
        lie = conjugate_tensor(induced, random_invertible(induced.dim, rng))
        ads = [ad_matrix(lie, basis_vector(lie.dim, i)) for i in range(lie.dim)]
        expected = MatrixQ([[(ads[i] * ads[j]).trace() for j in range(lie.dim)]
                            for i in range(lie.dim)])
        assert killing_form(lie) == expected


def fraction_killing(t):
    """trace(ad e_i ad e_j) in Fraction arithmetic, ad e_i holding c[i][l][k] at (k, l)."""
    n, c = t.dim, t.c
    ads = [[[c[i][l][k] for l in range(n)] for k in range(n)] for i in range(n)]
    return [[sum(x[k][l] * y[l][k] for k in range(n) for l in range(n)) for y in ads]
            for x in ads]


def test_killing_form_matches_fraction_trace_at_extreme_entries():
    """The packed Killing form against the Fraction trace on sums of sl2 and
    so3 (a negative definite form) in signed, permuted bases scaled past
    10^30, so that slot 0 and slot n-1 of the packed rows hold entries of
    each sign above 10^57, and on the zero tensor."""
    so3 = StructureTensor.from_brackets(3, {(0, 1): (0, 0, 1), (1, 0): (0, 0, -1),
                                            (1, 2): (1, 0, 0), (2, 1): (-1, 0, 0),
                                            (2, 0): (0, 1, 0), (0, 2): (0, -1, 0)})
    rng, signs = random.Random(92), set()
    for parts in ((make_sl2(),), (so3,), (make_sl2(), so3), (so3, make_sl2(), so3),
                  (make_sl2(), make_sl2(), so3), (so3, so3, make_sl2())):
        sum_ = direct_sum([BiHomAlgebra(3, t, MatrixQ.identity(3), MatrixQ.identity(3))
                           for t in parts]).tensor
        n = sum_.dim
        for _ in range(3):
            order = rng.sample(range(n), n)
            basis = MatrixQ([[Q(rng.choice((1, -1)) * rng.randint(10 ** 30, 10 ** 31),
                                rng.randint(1, 10)) if order[j] == i else 0
                              for j in range(n)] for i in range(n)])
            lie = conjugate_tensor(sum_, basis)
            expected = fraction_killing(lie)
            assert killing_form(lie).entries == tuple(map(tuple, expected))
            signs |= {(slot, x > 0) for row in expected for slot, x in ((0, row[0]), (-1, row[-1]))
                      if abs(x) > 10 ** 57}
    assert signs == {(0, True), (0, False), (-1, True), (-1, False)}
    for n in (1, 3, 6):
        assert killing_form(StructureTensor.zero(n)).is_zero()


def test_killing_form_rejects_non_lie():
    with pytest.raises(NotLie):
        killing_form(make_L1(2, 3).tensor)
    skewless = StructureTensor.from_brackets(2, {(0, 1): (0, 1)})
    with pytest.raises(NotLie):
        killing_form(skewless)


def test_is_semisimple():
    assert is_semisimple_lie(make_sl2())
    assert not is_semisimple_lie(StructureTensor.zero(2))
    assert not is_semisimple_lie(SOLVABLE)


def test_derived_series():
    assert [s.dim for s in derived_series(make_sl2())] == [3]
    assert [s.dim for s in derived_series(StructureTensor.zero(2))] == [2, 0]
    series = derived_series(SOLVABLE)
    assert [s.dim for s in series] == [2, 1, 0]
    assert series[1] == Subspace(2, [basis_vector(2, 1)])


def test_decompose_simple():
    assert decompose_semisimple(make_sl2()) == [Subspace.full(3)]


def test_decompose_two_blocks():
    parts = decompose_semisimple(direct_sum([sl2_bihom(), sl2_bihom()]).tensor)
    expected = [Subspace(6, [basis_vector(6, i) for i in range(3)]),
                Subspace(6, [basis_vector(6, i) for i in range(3, 6)])]
    assert parts == expected


def test_decompose_three_blocks():
    parts = decompose_semisimple(direct_sum([sl2_bihom()] * 3).tensor)
    assert [s.dim for s in parts] == [3, 3, 3]


def test_decompose_mixed_basis_uses_commutant():
    # generic change of basis hides the blocks from plain spinning
    rng = random.Random(41)
    double = direct_sum([sl2_bihom(), sl2_bihom()]).tensor
    p = random_invertible(6, rng)
    mixed = conjugate_tensor(double, p)
    parts = decompose_semisimple(mixed)
    assert [s.dim for s in parts] == [3, 3]
    mapped = sorted(Subspace(6, [p.apply(v) for v in s.basis_rows]).basis_rows
                    for s in parts)
    assert mapped == sorted(s.basis_rows for s in decompose_semisimple(double))


def test_decompose_bihom_dense_sum():
    # in this basis the commutant's char_poly has 68-bit cleared coefficients
    a = direct_sum([make_L1(2, 3), make_L3(5)])
    p = random_invertible(6, random.Random(0), spread=4)
    with deadline(10):
        decomposition = decompose_bihom(conjugate_algebra(a, p))
    assert decomposition.m == 2
    assert decomposition.sigma_alpha == decomposition.sigma_beta == (0, 1)
    mapped = sorted(Subspace(6, [p.apply(v) for v in s.basis_rows]).basis_rows
                    for s in decomposition.ideals)
    blocks = [Subspace(6, [basis_vector(6, i) for i in block]).basis_rows
              for block in (range(3), range(3, 6))]
    assert mapped == sorted(blocks)


def intersect(left, right):
    """Zassenhaus-style intersection: null combinations of the stacked bases."""
    if left.ambient_dim != right.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    if not left.basis_rows or not right.basis_rows:
        return Subspace(left.ambient_dim)
    r1, r2 = len(left.basis_rows), len(right.basis_rows)
    # columns are basis vectors of left and negated basis vectors of right
    stacked = MatrixQ([[left.basis_rows[i][k] for i in range(r1)]
                       + [-right.basis_rows[j][k] for j in range(r2)]
                       for k in range(left.ambient_dim)])
    return Subspace(left.ambient_dim, [lift_coordinates(left, combo)   # first r1 entries
                                       for combo in kernel(stacked).basis_rows])


def test_subspace_intersect():
    left = Subspace(3, [basis_vector(3, 0), basis_vector(3, 1)])
    right = Subspace(3, [basis_vector(3, 1), basis_vector(3, 2)])
    assert intersect(left, right) == Subspace(3, [basis_vector(3, 1)])
    with pytest.raises(DimensionMismatch):
        intersect(Subspace(3, [basis_vector(3, 0)]), Subspace(2, [basis_vector(2, 0)]))


def test_decompose_properties():
    double = direct_sum([sl2_bihom(), sl2_bihom()])
    parts = decompose_semisimple(double.tensor)
    assert intersect(parts[0], parts[1]).dim == 0
    assert Subspace(6, list(parts[0].basis_rows) + list(parts[1].basis_rows)) == Subspace.full(6)
    for part in parts:
        assert is_ideal(double, part).is_ideal
        # minimality: every basis vector of the piece spins back to all of it
        for v in part.basis_rows:
            assert ideal_closure(double, v) == part


def sl3_bihom():
    """sl3 with identity maps, in the basis of the six matrix units E_ij
    (i != j) and E_11 - E_22, E_22 - E_33, bracketed as commutators."""
    off = [(i, j) for i in range(3) for j in range(3) if i != j]
    basis = [[[int((r, c) == ij) for c in range(3)] for r in range(3)] for ij in off]
    basis += [[[1, 0, 0], [0, -1, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, -1]]]

    def product(x, y):
        return [[sum(x[r][k] * y[k][c] for k in range(3)) for c in range(3)] for r in range(3)]

    def coordinates(x):   # x traceless: its diagonal is x11 H1 + (x11 + x22) H2
        return tuple(x[i][j] for i, j in off) + (x[0][0], x[0][0] + x[1][1])

    brackets = {(p, q): coordinates([[u - v for u, v in zip(r1, r2)] for r1, r2
                                     in zip(product(x, y), product(y, x))])
                for p, x in enumerate(basis) for q, y in enumerate(basis)}
    return BiHomAlgebra(dim=8, tensor=StructureTensor.from_brackets(8, brackets),
                        alpha=MatrixQ.identity(8), beta=MatrixQ.identity(8))


def test_simple_part_of_dimension_eight():
    """sl3 is the first simple part large enough for _minimal_ideals to look
    for a split: no basis vector spins to a proper ideal and the commutant
    is the scalars, so _proper_ideal finds none; next to sl2 it is one of
    the two parts."""
    a = sl3_bihom()
    ads = [tuple(zip(*plane)) for plane in a.tensor.scaled()[1]]
    assert analysis._proper_ideal(ads) is None
    assert decompose_semisimple(a.tensor) == [Subspace.full(8)]
    assert is_simple(a)
    assert decompose_bihom(a).enveloping_dim == 64
    assert enveloping_dim(burnside_generators(a)) == 64
    parts = decompose_semisimple(direct_sum([sl2_bihom(), a]).tensor)
    assert parts == [Subspace(11, [basis_vector(11, i) for i in block])
                     for block in (range(3), range(3, 11))]


def test_decompose_rejects_non_semisimple():
    with pytest.raises(NotSemisimple):
        decompose_semisimple(SOLVABLE)


def test_decompose_irrational_split():
    t = sqrt2_double_sl2()
    assert is_semisimple_lie(t)
    with pytest.raises(IrrationalSplit):
        decompose_semisimple(t)
    assert not is_simple(BiHomAlgebra(dim=6, tensor=t, alpha=MatrixQ.identity(6),
                                      beta=MatrixQ.identity(6)))


# --- the ambient recursion as it was, kept as the oracle of decompose_semisimple
# Every candidate ideal stays a subspace of the whole algebra: it is spun with
# the full tensor, its complement is intersected with it, and all n ambient
# ad matrices are restricted to it in Fraction arithmetic.

def ambient_spin(tensor, maps, seeds):
    """Close the span of the seeds under left/right bracketing with every
    basis vector and under the given maps (deterministic worklist order)."""
    n = tensor.dim
    builder = SpanBuilder(n)
    work = []
    for s in seeds:
        if builder.add(cleared(s)[1]):
            work.append(s)
    basis = [basis_vector(n, k) for k in range(n)]
    while work:
        v = work.pop(0)
        images = [w for b in basis
                  for w in (fraction_bracket(tensor, v, b), fraction_bracket(tensor, b, v))]
        for w in images + [m.apply(v) for m in maps]:
            if builder.add(cleared(w)[1]):
                work.append(w)
    return Subspace(n, builder.rows.values())


def killing_complement_within(t, killing, inner, outer):
    """Killing-orthogonal complement of `inner` inside `outer`."""
    rows = [killing.apply(b) for b in inner.basis_rows]
    orth = kernel(MatrixQ(rows))
    return intersect(orth, outer)


def fraction_commutant(ops, d):
    """Basis of {z : z op = op z for all ops}, as d x d matrices."""
    rows = []
    for op in ops:
        for i in range(d):
            for j in range(d):
                # entry (i, j) of op*z - z*op as a linear form in z (row-major)
                row = [Q(0)] * (d * d)
                for k in range(d):
                    row[k * d + j] += op.entries[i][k]
                    row[i * d + k] -= op.entries[k][j]
                rows.append(row)
    basis = kernel(MatrixQ(rows)).basis_rows
    return [MatrixQ([v[i * d:(i + 1) * d] for i in range(d)]) for v in basis]


def restrict_operator(op, space):
    """Matrix of an operator that maps `space` into itself, in the
    coordinates of the RREF basis of `space`."""
    images = [op.apply(b) for b in space.basis_rows]
    assert all(space.contains(v) for v in images), "operator does not preserve the subspace"
    return MatrixQ.from_columns([[v[j] for j in space.pivots()] for v in images])


def ambient_minimal_ideals(t, killing=None):
    """decompose_semisimple with both split sites inside one closure over
    subspaces of the whole algebra."""
    if killing is None:
        killing = killing_form(t)
    if det(killing) == 0:
        raise NotSemisimple("Killing form is degenerate")
    n = t.dim
    ads = [ad_matrix(t, basis_vector(n, k)) for k in range(n)]

    def minimal_ideals(space):
        # spinning pass
        for b in space.basis_rows:
            sub = ambient_spin(t, [], [b])
            if 0 < sub.dim < space.dim:
                rest = killing_complement_within(t, killing, sub, space)
                if sub.dim + rest.dim != space.dim:
                    raise NotSemisimple("Killing complement does not split the ideal")
                return minimal_ideals(sub) + minimal_ideals(rest)
        # commutant pass
        restricted = [restrict_operator(ad, space) for ad in ads]
        comm = fraction_commutant(restricted, space.dim)
        if len(comm) <= 1:
            return [space]
        identity = MatrixQ.identity(space.dim)
        for z in comm:
            if z.entries[0][0] != 0 and z == identity.scale(z.entries[0][0]):
                continue
            roots, residual = rational_roots(char_poly(z))
            for lam, _mult in roots:
                shifted = z - identity.scale(lam)
                ker = kernel(shifted)
                if 0 < ker.dim < space.dim:
                    piece = Subspace(n, [lift_coordinates(space, c)
                                         for c in ker.basis_rows])
                    rest = killing_complement_within(t, killing, piece, space)
                    if piece.dim + rest.dim != space.dim:
                        raise NotSemisimple("Killing complement does not split the ideal")
                    return minimal_ideals(piece) + minimal_ideals(rest)
            if not residual.is_constant():
                raise IrrationalSplit(
                    "commutant element splits the ideal only over an extension "
                    f"field (residual factor of degree {residual.degree})")
        raise IrrationalSplit("commutant is non-scalar but yields no rational split")

    def pivot_key(s):
        pivots = tuple(next(j for j, x in enumerate(row) if x != 0)
                       for row in s.basis_rows)
        return (pivots, s.basis_rows)

    ideals = minimal_ideals(Subspace.full(n))
    ideals.sort(key=pivot_key)
    return ideals


def decomposition_outcome(decompose, t, killing):
    """The ideal list, or the type and message of the exception raised."""
    try:
        return decompose(t, killing)
    except (IrrationalSplit, NotSemisimple) as exc:
        return type(exc), str(exc)


def ambient_oracle_cases():
    """Dense and block sums of two and three catalog algebras, block-cycle
    twists, and forms that split only over Q(sqrt 2), seeded."""
    rng = random.Random(808)
    parts = [make_L1(2, 3), make_L3(5), make_L2(), make_L1(-3, Q(7, 2)), sl2_bihom()]
    identity6 = MatrixQ.identity(6)
    sqrt2 = BiHomAlgebra(dim=6, tensor=sqrt2_double_sl2(), alpha=identity6, beta=identity6)
    cycles = [yau_twist(TwistInput(direct_sum([sl2_bihom()] * k).tensor,
                                   block_permutation(3 * k, 3, 1), MatrixQ.identity(3 * k)))
              for k in (2, 3)]

    def blocks(n):
        return block_diagonal([random_invertible(3, rng) for _ in range(n // 3)])

    def sheared_blocks(n):
        """Blocks whose later basis vectors also pick up the first block: the
        complement of the first ideal is then no coordinate subspace, so the
        restricted Killing form of a part decides the split below it."""
        shear = MatrixQ([[int(i == j) or (rng.randint(-1, 1) if i < 3 <= j else 0)
                          for j in range(n)] for i in range(n)])
        return shear * blocks(n)

    def dense(n):
        return random_invertible(n, rng, 1)

    cases = ([conjugate_algebra(direct_sum(rng.sample(parts, 2)), dense(6)) for _ in range(3)]
             + [conjugate_algebra(direct_sum(rng.sample(parts, 3)), basis(9))
                for basis in (blocks, sheared_blocks, sheared_blocks)]
             + [conjugate_algebra(cycles[0], dense(6)), conjugate_algebra(cycles[1], blocks(9))]
             + [sqrt2, conjugate_algebra(sqrt2, dense(6)),
                direct_sum([sqrt2, sl2_bihom()]), direct_sum([make_L1(2, 3), sqrt2])])
    return cases


def test_decompose_matches_ambient_oracle():
    outcomes = []
    for algebra in ambient_oracle_cases():
        lie = induce_lie(algebra)[0]
        killing = killing_form(lie)
        expected = decomposition_outcome(ambient_minimal_ideals, lie, killing)
        assert decomposition_outcome(lambda t, _k: decompose_semisimple(t), lie, killing) == expected
        outcomes.append(expected[0] if isinstance(expected, tuple) else len(expected))
    assert outcomes == [2] * 3 + [3] * 3 + [2, 3] + [IrrationalSplit] * 4


def test_ideal_closure_matches_fraction_spin_on_dense_bases():
    """ideal_closure against ambient_spin, which brackets in Fraction
    arithmetic, on densely conjugated sums: seeds inside one summand, inside
    two, and random seeds."""
    rng = random.Random(1403)
    parts = [make_L1(2, 3), make_L3(5), make_L2(), make_L1(-3, Q(7, 2)), sl2_bihom()]
    dims = []
    for count in (2, 2, 3):
        p = random_invertible(3 * count, rng)
        a, inv = conjugate_algebra(direct_sum(rng.sample(parts, count)), p), invert(p)
        n = a.dim
        seeds = [inv.apply(basis_vector(n, rng.randrange(3))),
                 vec_add(inv.apply(basis_vector(n, 0)), inv.apply(basis_vector(n, 4))),
                 tuple(random_fraction(rng, 4) for _ in range(n))]
        for v in seeds:
            closure = ideal_closure(a, v)
            assert closure == ambient_spin(a.tensor, [a.alpha, a.beta], [v])
            dims.append(closure.dim)
    assert dims == [3, 6, 6, 3, 6, 6, 3, 6, 9]


def test_decomposition_levels_always_split(monkeypatch):
    """Why _minimal_ideals checks no dimensions: on the oracle's inputs the
    Gram matrix B^T K B of every level is nondegenerate, and each proper
    ideal and its Killing complement meet in 0 with dimensions adding up to
    the level's. (I meets its complement in an ideal on which K vanishes,
    hence solvable, hence 0.) Only a part of dimension 6 or more is
    restricted and entered as a level of its own: a smaller one is minimal,
    so a level of dimension 3 would return it unsplit. That leaves 18 levels
    here; entering every part gave 39, with the same 14 splits."""
    levels, minimal, proper = [], analysis._minimal_ideals, analysis._proper_ideal

    def level(t, killing):
        levels.append({"dim": t.dim, "killing": killing})
        return minimal(t, killing)

    def split(ads):
        levels[-1]["ideal"] = proper(ads)     # before any recursion below it
        return levels[-1]["ideal"]

    monkeypatch.setattr(analysis, "_minimal_ideals", level)
    monkeypatch.setattr(analysis, "_proper_ideal", split)
    for algebra in ambient_oracle_cases():
        lie = induce_lie(algebra)[0]
        decomposition_outcome(lambda t, _k: decompose_semisimple(t), lie, None)
    splits = 0
    for lv in levels:
        assert det(lv["killing"]) != 0
        ideal = lv.get("ideal")
        if ideal is not None:
            rest = kernel(MatrixQ(ideal.basis_rows) * lv["killing"])
            assert ideal.dim + rest.dim == lv["dim"]
            assert intersect(ideal, rest).dim == 0
            splits += 1
    assert (len(levels), splits) == (18, 14)


def test_scalar_commutant_element_gives_no_split():
    """Why _proper_ideal passes over a scalar element of the commutant: z = cI
    has the one root c, whose eigenspace is everything, and a constant
    residual, so it yields neither a split nor an IrrationalSplit. The
    commutant of sqrt2_double_sl2 starts with the identity; the next element
    raises."""
    for n, c in ((1, 3), (3, Q(-2, 5)), (6, 1), (9, Q(7, 3))):
        identity, z = MatrixQ.identity(n), MatrixQ.identity(n).scale(c)
        roots, residual = rational_roots(char_poly(z))
        assert roots == [(c, n)] and residual.is_constant()
        assert kernel(z - identity.scale(roots[0][0])).dim == n
    ads = [tuple(zip(*plane)) for plane in sqrt2_double_sl2().scaled()[1]]
    assert analysis._commutant(ads, 6)[0] == MatrixQ.identity(6)
    with pytest.raises(IrrationalSplit, match=r"residual factor of degree 6\)$"):
        analysis._proper_ideal(ads)


def commutant_inputs():
    """(name, ad multiples) of Lie algebras of dimension 6 in which no basis
    vector spins to a proper ideal, so _proper_ideal reaches the commutant:
    the induced algebras of dense conjugates of a block sum and of a block
    cycle, sqrt2_double_sl2 and its dense conjugate, and the mixed basis of
    test_decompose_mixed_basis_uses_commutant. (The dense basis of seed 0
    leaves a basis vector of either induced algebra spinning to an ideal.)"""
    def dense(a):
        return conjugate_algebra(a, random_invertible(6, random.Random(1)))

    cycle = yau_twist(TwistInput(direct_sum([sl2_bihom()] * 2).tensor,
                                 block_permutation(6, 3, 1), MatrixQ.identity(6)))
    tensors = {
        "DS_2 dense": induce_lie(dense(direct_sum([make_L1(2, 3), make_L3(5)])))[0],
        "cycle_2 dense": induce_lie(dense(cycle))[0],
        "sqrt2_double_sl2": sqrt2_double_sl2(),
        "sqrt2_double_sl2 dense": conjugate_tensor(sqrt2_double_sl2(),
                                                   random_invertible(6, random.Random(0))),
        "mixed basis": conjugate_tensor(direct_sum([sl2_bihom(), sl2_bihom()]).tensor,
                                        random_invertible(6, random.Random(41))),
    }
    return [(name, [tuple(zip(*plane)) for plane in t.scaled()[1]])
            for name, t in tensors.items()]


def test_proper_ideal_splits_by_the_first_non_scalar_commutant_element(monkeypatch):
    """On every input that reaches the commutant, _proper_ideal returns the
    eigenspace of the least rational eigenvalue of the first non-scalar
    element z, or raises IrrationalSplit with the degree of char_poly(z)
    when z has no rational eigenvalue."""
    reached = []
    commutant = analysis._commutant
    monkeypatch.setattr(analysis, "_commutant",
                        lambda ops, d: reached.append(d) or commutant(ops, d))
    outcomes, identity = {}, MatrixQ.identity(6)
    for name, ads in commutant_inputs():
        z = next(z for z in commutant(ads, 6) if z != identity.scale(z[0, 0]))
        roots, residual = rational_roots(char_poly(z))
        if roots:
            assert analysis._proper_ideal(ads) == kernel(z - identity.scale(roots[0][0])), name
            outcomes[name] = "split"
        else:
            assert residual.degree == char_poly(z).degree == 6
            with pytest.raises(IrrationalSplit, match=r"residual factor of degree 6\)$"):
                analysis._proper_ideal(ads)
            outcomes[name] = "irrational"
    assert reached == [6] * 5
    assert outcomes == {"DS_2 dense": "split", "cycle_2 dense": "split",
                        "sqrt2_double_sl2": "irrational",
                        "sqrt2_double_sl2 dense": "irrational", "mixed basis": "split"}


def test_proper_ideal_runs_rational_roots_once_per_commutant_split(monkeypatch):
    """One rational_roots call decides a commutant split, also where the
    commutant's basis starts with the identity, as that of sqrt2_double_sl2
    does."""
    calls = []
    roots = analysis.rational_roots
    monkeypatch.setattr(analysis, "rational_roots", lambda p: calls.append(p) or roots(p))
    for name, ads in commutant_inputs():
        calls.clear()
        try:
            analysis._proper_ideal(ads)
        except IrrationalSplit:
            pass
        assert len(calls) == 1, name


def test_automorphism_permutation_identity():
    parts = decompose_semisimple(direct_sum([sl2_bihom(), sl2_bihom()]).tensor)
    assert automorphism_permutation(parts, MatrixQ.identity(6)) == (0, 1)


def test_automorphism_permutation_swap_and_cycle():
    double = direct_sum([sl2_bihom(), sl2_bihom()]).tensor
    parts = decompose_semisimple(double)
    swap = block_permutation(6, 3, 1)
    assert automorphism_permutation(parts, swap) == (1, 0)
    triple = direct_sum([sl2_bihom()] * 3).tensor
    parts3 = decompose_semisimple(triple)
    cycle = block_permutation(9, 3, 1)
    sigma = automorphism_permutation(parts3, cycle)
    assert sorted(sigma) == [0, 1, 2] and all(sigma[i] != i for i in range(3))


def test_automorphism_permutation_zero_ideal_dense_basis_and_singular_map():
    # a zero subspace in the list maps onto itself, rational maps and ideal
    # bases go through the integer product, and a singular map is rejected
    double = direct_sum([sl2_bihom(), sl2_bihom()]).tensor
    swap = block_permutation(6, 3, 1)
    parts = [Subspace(6)] + decompose_semisimple(double)
    assert automorphism_permutation(parts, swap.scale(Q(2, 3))) == (0, 2, 1)
    p = random_invertible(6, random.Random(1505))
    dense = [Subspace(6)] + decompose_semisimple(conjugate_tensor(double, p))
    assert any(x.denominator != 1 for s in dense for row in s.basis_rows for x in row)
    assert automorphism_permutation(dense, invert(p) * swap.scale(Q(-1, 7)) * p) == (0, 2, 1)
    assert automorphism_permutation(dense, MatrixQ.identity(6)) == (0, 1, 2)
    with pytest.raises(NotPermuted, match="map is not invertible"):
        automorphism_permutation(parts, MatrixQ.diagonal([1, 1, 1, 1, 1, 0]))


def test_analysis_argument_errors():
    """The typed error of each argument check in analysis: a subspace of
    another ambient dimension, no generators, dimension 0, no ideals, a map
    of the wrong size, and a list that holds one ideal twice."""
    parts = decompose_semisimple(direct_sum([sl2_bihom(), sl2_bihom()]).tensor)
    identity6 = MatrixQ.identity(6)
    for call, kind, message in (
            (lambda: is_ideal(make_L1(2, 3), Subspace.full(4)), DimensionMismatch,
             "subspace ambient dimension differs from algebra"),
            (lambda: enveloping_dim([]), DimensionMismatch, "at least one generator required"),
            (lambda: type_candidates(0), DimensionMismatch, "dimension must be at least 1"),
            (lambda: automorphism_permutation([], identity6), NotPermuted, "empty ideal list"),
            (lambda: automorphism_permutation(parts, MatrixQ.identity(3)), DimensionMismatch,
             "map size does not match ambient dimension"),
            (lambda: automorphism_permutation([parts[0], parts[0]], identity6), NotPermuted,
             "images of the ideals do not permute the list")):
        with pytest.raises(kind) as exc:
            call()
        assert str(exc.value) == message


def test_decomposition_reads_no_fraction_rows(monkeypatch):
    """decompose_semisimple and automorphism_permutation work on the integer
    views of the subspaces alone: with Subspace.basis_rows patched to raise,
    they run through block and dense sums of sl2 and of the dim-3 catalog
    algebras (dense at dim 6 only: a dense sum of three sl2 takes seconds),
    and give the ideals and permutations of an unpatched run."""
    rng = random.Random(1818)
    cases = []
    for parts, dense in (([sl2_bihom()] * 3, False), ([sl2_bihom()] * 2, True),
                         ([make_L1(2, 3), make_L3(5)], True)):
        k = len(parts)
        tensor, cycle = induce_lie(direct_sum(parts))[0], block_permutation(3 * k, 3, 1)
        bases = [block_diagonal([random_invertible(3, rng) for _ in range(k)])]
        bases += [random_invertible(3 * k, rng)] if dense else []
        cases += [(tensor, cycle)] + [(conjugate_tensor(tensor, p), invert(p) * cycle * p)
                                      for p in bases]
    expected = []
    for tensor, cycle in cases:
        ideals = decompose_semisimple(tensor)
        expected.append((ideals, automorphism_permutation(ideals, cycle)))
    assert any(x.denominator != 1 for ideals, _ in expected
               for s in ideals for row in s.basis_rows for x in row)

    def trip(self):
        raise AssertionError("Subspace.basis_rows read")

    monkeypatch.setattr(Subspace, "basis_rows", property(trip))
    for (tensor, cycle), (ideals, sigma) in zip(cases, expected):
        tensor = StructureTensor.from_scaled(*tensor.scaled())   # no kept Killing form
        got = decompose_semisimple(tensor)
        assert got == ideals
        assert automorphism_permutation(got, cycle) == sigma
        assert sorted(sigma) == list(range(len(got))) and sigma != tuple(range(len(got)))


def test_automorphism_permutation_rejects_mixing():
    parts = decompose_semisimple(direct_sum([sl2_bihom(), sl2_bihom()]).tensor)
    rng = random.Random(42)
    shear = random_invertible(6, rng)
    with pytest.raises(NotPermuted):
        automorphism_permutation(parts, shear)


def test_decompose_bihom_block_swap():
    double = direct_sum([sl2_bihom(), sl2_bihom()])
    swap = block_permutation(6, 3, 1)
    twisted = yau_twist(TwistInput(double.tensor, swap, MatrixQ.identity(6)))
    decomposition = decompose_bihom(twisted)
    assert decomposition.m == 2
    assert decomposition.sigma_alpha == (1, 0)
    assert decomposition.sigma_beta == (0, 1)
    assert decomposition.m_warning
    assert is_simple(twisted)


def test_decompose_bihom_block_cycle():
    triple = direct_sum([sl2_bihom()] * 3)
    cycle = block_permutation(9, 3, 1)
    twisted = yau_twist(TwistInput(triple.tensor, cycle, MatrixQ.identity(9)))
    decomposition = decompose_bihom(twisted)
    assert decomposition.m == 3
    sigma = decomposition.sigma_alpha
    # transitive 3-cycle
    orbit = {0, sigma[0], sigma[sigma[0]]}
    assert orbit == {0, 1, 2}
    assert decomposition.sigma_beta == (0, 1, 2)
    assert not decomposition.m_warning


def block_permutation_matrix(perm, block=3):
    """Permutation matrix sending block j to block perm[j]."""
    n = block * len(perm)
    return MatrixQ.from_columns([basis_vector(n, block * perm[j // block] + j % block)
                                 for j in range(n)])


def test_decomposition_enveloping_dim_matches_span(tmp_path, capsys):
    """The orbit formula sum (dim of an orbit sum)^2 against the Burnside span."""
    from bihomlie import cli
    from bihomlie.fileio import save
    rng = random.Random(909)
    parts = [make_L1(2, 3), make_L3(5), make_L2(), make_L1(-3, Q(7, 2))]

    def sl2_twist(k, alpha, beta):
        return yau_twist(TwistInput(direct_sum([sl2_bihom()] * k).tensor, alpha, beta))

    def blocks(n):
        return block_diagonal([random_invertible(3, rng) for _ in range(n // 3)])

    klein = sl2_twist(4, block_permutation_matrix([1, 0, 3, 2]),
                      block_permutation_matrix([2, 3, 0, 1]))
    cases = [
        (conjugate_algebra(direct_sum(rng.sample(parts, 2)), random_invertible(6, rng, 1)), 18),
        (conjugate_algebra(direct_sum(rng.sample(parts, 3)), blocks(9)), 27),
        (conjugate_algebra(sl2_twist(3, block_permutation(9, 3, 1), MatrixQ.identity(9)),
                           blocks(9)), 81),
        (direct_sum([sl2_twist(2, block_permutation(6, 3, 1), MatrixQ.identity(6)),
                     make_L2()]), 45),
        (conjugate_algebra(sl2_twist(3, block_permutation_matrix([1, 0, 2]),
                                     MatrixQ.identity(9)), blocks(9)), 45),
        (klein, 144),
        (sl2_twist(4, block_permutation_matrix([1, 0, 3, 2]), MatrixQ.identity(12)), 72),
    ]
    for algebra, expected in cases:
        assert decompose_bihom(algebra).enveloping_dim == expected
        assert enveloping_dim(burnside_generators(algebra)) == expected
    # only the two maps together are transitive, so analyze reports it simple
    path = tmp_path / "klein.json"
    save(klein, path)
    assert cli.main(["analyze", "--json", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["enveloping_dim"], doc["simple"]) == (144, True)


def test_type_candidates_dim3():
    assert type_candidates(3) == [TypeLabel("A", 1, 1)]


def test_type_candidates_dim6():
    assert type_candidates(6) == [TypeLabel("A", 1, 2)]


def test_type_candidates_dim14():
    assert type_candidates(14) == [TypeLabel("G2", 0, 1)]


def test_type_candidates_dim30():
    assert type_candidates(30) == [TypeLabel("A", 3, 2), TypeLabel("B", 2, 3),
                                   TypeLabel("A", 1, 10)]


def test_type_candidates_exhaustive_small():
    # brute-force oracle over the dimension formulas
    def formulas(q):
        out = []
        for l in range(1, q + 1):
            if l * (l + 2) == q:
                out.append(("A", l))
            if l >= 2 and l * (2 * l + 1) == q:
                out.append(("B", l))
            if l >= 3 and l * (2 * l + 1) == q:
                out.append(("C", l))
            if l >= 4 and l * (2 * l - 1) == q:
                out.append(("D", l))
        for name, d in (("G2", 14), ("F4", 52), ("E6", 78), ("E7", 133), ("E8", 248)):
            if q == d:
                out.append((name, 0))
        return out

    for dim in range(1, 60):
        expected = set()
        for m in range(1, dim + 1):
            if dim % m == 0:
                for series, l in formulas(dim // m):
                    expected.add((series, l, m))
        got = {(t.series, t.rank, t.m) for t in type_candidates(dim)}
        assert got == expected, dim

import math
import random
from fractions import Fraction as Q

import pytest

from bihomlie.algebra import ad_matrix
from bihomlie.analysis import _closure
from bihomlie.catalog import make_L1, make_sl2
from bihomlie.errors import DimensionMismatch, SingularMatrix
from bihomlie import exactlin
from bihomlie.exactlin import (
    PRIME_PROOF_BOUND,
    MatrixQ,
    PolyQ,
    SpanBuilder,
    Subspace,
    basis_vector,
    char_poly,
    cleared,
    det,
    factor,
    invert,
    is_prime,
    kept,
    kernel,
    rank,
    rational_roots,
    sqrt_fraction,
    sqrt_mod_prime,
)
from bihomlie.fileio import matrix_strings
from conftest import random_fraction, random_invertible

UNIPOTENT = MatrixQ([[1, 1, 0], [0, 1, 1], [0, 0, 1]])


def poly_mul(p, q):
    """The product of two PolyQ."""
    out = [Q(0)] * (len(p.coeffs) + len(q.coeffs) - 1) if p.coeffs and q.coeffs else []
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return PolyQ(out)


def poly_eval(p, x):
    """p(x) by Horner's rule in Fraction arithmetic."""
    acc = Q(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def divide_linear(p, root):
    """Synthetic division of p by (x - root); root must be a root of p."""
    out, acc = [], Q(0)
    for c in reversed(p.coeffs):
        acc = acc * root + c
        out.append(acc)
    assert out.pop() == 0, f"{root} is not a root"
    return PolyQ(out[::-1])


def poly_from_roots(roots):
    """Monic polynomial with the given roots (with multiplicity)."""
    p = PolyQ([1])
    for r in roots:
        p = poly_mul(p, PolyQ([-Q(r), 1]))
    return p


def eval_at_matrix(p, m):
    """p(m) by Horner's rule."""
    acc = MatrixQ([[0] * m.rows] * m.rows)
    for c in reversed(p.coeffs):
        acc = acc * m + MatrixQ.identity(m.rows).scale(c)
    return acc


def generalized_eigenspace(m, lam):
    """Kernel chain of (m - lam*I)^k until stabilization; the dimension
    profile reveals the Jordan block structure at lam."""
    shifted = m - MatrixQ.identity(m.rows).scale(Q(lam))
    chain = []
    power = shifted
    while True:
        ker = kernel(power)
        if chain and ker.dim == chain[-1].dim:
            return chain
        chain.append(ker)
        if ker.dim == m.rows:
            return chain
        power = power * shifted


def test_rref_identity():
    identity = MatrixQ.identity(3)
    assert Subspace(3, identity.entries).basis_rows == identity.entries
    assert rank(identity) == 3


def test_rref_proportional_rows():
    m = MatrixQ([[1, 2], [2, 4]])
    assert Subspace(2, m.entries).basis_rows == MatrixQ([[1, 2]]).entries
    assert rank(m) == 1


def test_rref_sl2_ad_h():
    # ad(h) built from the structure constants is diag(0, 2, -2), rank 2
    ad_h = ad_matrix(make_sl2(), basis_vector(3, 0))
    assert ad_h == MatrixQ.diagonal([0, 2, -2])
    assert rank(ad_h) == 2


def test_rref_idempotent():
    rng = random.Random(11)
    for _ in range(10):
        m = MatrixQ([[random_fraction(rng, 5) for _ in range(4)] for _ in range(3)])
        once = Subspace(4, m.entries)
        twice = Subspace(4, once.basis_rows)
        assert once.basis_rows == twice.basis_rows
        assert once.dim == rank(m)


def test_kernel_identity_and_zero():
    assert kernel(MatrixQ.identity(3)).dim == 0
    full = kernel(MatrixQ([[0] * 4] * 4))
    assert full == Subspace.full(4)


def test_kernel_hand_example():
    ker = kernel(MatrixQ([[1, 1], [1, 1]]))
    assert ker.basis_rows == ((Q(1), Q(-1)),)


def test_rank_nullity():
    rng = random.Random(12)
    for _ in range(10):
        m = MatrixQ([[random_fraction(rng, 4) for _ in range(5)] for _ in range(3)])
        assert kernel(m).dim + rank(m) == m.cols


def test_invert_diagonal():
    m = MatrixQ.diagonal([1, 2, Q(1, 2)])
    assert invert(m) == MatrixQ.diagonal([1, Q(1, 2), 2])


def test_invert_unipotent_back_substitution():
    assert invert(UNIPOTENT) == MatrixQ([[1, -1, 1], [0, 1, -1], [0, 0, 1]])


def test_invert_singular():
    with pytest.raises(SingularMatrix):
        invert(MatrixQ([[0] * 2] * 2))


def test_invert_roundtrip():
    rng = random.Random(13)
    for _ in range(8):
        m = random_invertible(4, rng)
        assert m * invert(m) == MatrixQ.identity(4)
        assert invert(m) * m == MatrixQ.identity(4)


def test_char_poly_identity():
    assert char_poly(MatrixQ.identity(3)) == poly_from_roots([1, 1, 1])


def test_char_poly_diagonal():
    assert char_poly(MatrixQ.diagonal([1, 2, Q(1, 2)])) == poly_from_roots([1, 2, Q(1, 2)])
    assert char_poly(MatrixQ.diagonal([1, -1, -1])) == poly_from_roots([1, -1, -1])


def test_cayley_hamilton():
    rng = random.Random(14)
    for n in (2, 3, 4):
        m = MatrixQ([[random_fraction(rng, 3) for _ in range(n)] for _ in range(n)])
        assert eval_at_matrix(char_poly(m), m).is_zero()


def test_rational_roots_cubed():
    roots, residual = rational_roots(poly_from_roots([1, 1, 1]))
    assert roots == [(Q(1), 3)]
    assert residual.is_constant()


def test_rational_roots_pair():
    roots, residual = rational_roots(PolyQ([1, Q(-5, 2), 1]))
    assert roots == [(Q(1, 2), 1), (Q(2), 1)]
    assert residual.is_constant()


def test_rational_roots_none():
    p = PolyQ([1, 0, 1])
    roots, residual = rational_roots(p)
    assert roots == []
    assert residual == p


def test_rational_roots_and_factor_of_zero_and_constants():
    """rational_roots has no answer for the zero polynomial and none to find
    in a constant; factor has none for 0, and the square of a prime above the
    trial division bound is split by the perfect-square test."""
    with pytest.raises(ValueError, match="^rational_roots of the zero polynomial$"):
        rational_roots(PolyQ([0]))
    assert rational_roots(PolyQ([Q(5, 3)])) == ([], PolyQ([Q(5, 3)]))
    with pytest.raises(ValueError, match="^factor of zero$"):
        factor(0)
    assert factor(1009 ** 2) == ({1009: 2}, 1)
    assert factor(-1009 ** 2 * 1013) == ({1009: 2, 1013: 1}, 1)


def test_rational_roots_multiplicity_bound():
    rng = random.Random(15)
    for _ in range(10):
        p = PolyQ([random_fraction(rng, 4) for _ in range(5)])
        if p.is_zero():
            continue
        roots, residual = rational_roots(p)
        total = sum(m for _, m in roots)
        assert total <= p.degree
        assert (total == p.degree) == residual.is_constant()


def _divisors(n):
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def divisor_rational_roots(p):
    """Reference: the classical candidate search over the divisors of the
    cleared constant and leading coefficients (after the zero roots), with
    multiplicities by synthetic division. Its cost grows like the square
    root of those coefficients, so it serves only small heights."""
    roots = []
    work = p
    zero_mult = 0
    while not work.is_constant() and work.coeffs[0] == 0:
        work = PolyQ(work.coeffs[1:])
        zero_mult += 1
    if zero_mult:
        roots.append((Q(0), zero_mult))
    if work.is_constant():
        return roots, work
    scale = math.lcm(*(c.denominator for c in work.coeffs))
    ints = [int(c * scale) for c in work.coeffs]
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    candidates = sorted({Q(sign * num, den) for num in _divisors(ints[0])
                         for den in _divisors(ints[-1]) for sign in (1, -1)})
    for cand in candidates:
        mult = 0
        while not work.is_constant() and poly_eval(work, cand) == 0:
            work = divide_linear(work, cand)
            mult += 1
        if mult:
            roots.append((cand, mult))
    roots.sort(key=lambda rm: rm[0])
    return roots, work


def _random_factor(rng):
    """A random linear factor, irreducible quadratic or cubic, or binomial
    b*x^k + c; binomials leave degree gaps in the Sturm sequence."""
    kind = rng.random()
    if kind < 0.5:
        return PolyQ([Q(rng.randint(-12, 12)), rng.randint(1, 6)])
    if kind < 0.6:
        k = rng.randint(2, 6)
        return PolyQ([rng.randint(-12, 12) or 1] + [0] * (k - 1) + [rng.randint(-6, 6) or 1])
    if kind < 0.8:
        while True:
            b, c = rng.randint(-6, 6), rng.randint(-12, 12)
            disc = b * b - 4 * c
            if disc < 0 or math.isqrt(disc) ** 2 != disc:
                return PolyQ([c, b, 1])
    while True:   # monic integer cubic: a rational root would divide c
        a, c = rng.randint(-6, 6), rng.randint(1, 12) * rng.choice((1, -1))
        if all(r ** 3 + a * r + c != 0 for r in range(-abs(c), abs(c) + 1)):
            return PolyQ([c, a, 0, 1])


def test_rational_roots_matches_divisor_oracle():
    rng = random.Random(16)
    seen_zero = seen_repeated = seen_residual = 0
    for _ in range(300):
        degree = rng.randint(1, 8)
        p = PolyQ([random_fraction(rng, 6, nonzero=True)])
        if rng.random() < 0.2:
            p = poly_mul(p, PolyQ([0, 1]))
        while p.degree < degree:
            piece = _random_factor(rng)
            if p.degree + piece.degree > degree:
                continue
            p = poly_mul(p, piece)
            if piece.degree == 1 and rng.random() < 0.25 and p.degree < degree:
                p = poly_mul(p, piece)
        roots, residual = rational_roots(p)
        assert (roots, residual) == divisor_rational_roots(p)
        rebuilt = residual
        for root, mult in roots:
            rebuilt = poly_mul(rebuilt, poly_from_roots([root] * mult))
        assert rebuilt == p
        seen_zero += any(r == 0 for r, _ in roots)
        seen_repeated += any(m > 1 for _, m in roots)
        seen_residual += residual.degree >= 2
    assert min(seen_zero, seen_repeated, seen_residual) >= 20


def test_generalized_eigenspace_unipotent():
    chain = generalized_eigenspace(UNIPOTENT, 1)
    assert [s.dim for s in chain] == [1, 2, 3]


def test_generalized_eigenspace_identity():
    chain = generalized_eigenspace(MatrixQ.identity(3), 1)
    assert [s.dim for s in chain] == [3]


def test_generalized_eigenspace_neg_pair():
    chain = generalized_eigenspace(MatrixQ.diagonal([1, -1, -1]), -1)
    assert [s.dim for s in chain] == [2]


def test_subspace_sum():
    left = Subspace(3, [basis_vector(3, 0)])
    right = Subspace(3, [basis_vector(3, 1)])
    total = Subspace(3, list(left.basis_rows) + list(right.basis_rows))
    assert total == Subspace(3, [basis_vector(3, 0), basis_vector(3, 1)])


def test_subspace_contains_full():
    rng = random.Random(16)
    full = Subspace.full(4)
    for _ in range(5):
        v = tuple(random_fraction(rng, 6) for _ in range(4))
        assert full.contains(v)


def test_kept_fills_a_slot_once():
    """kept computes on the first read only, and the filled slot is the one
    the value's own memo reads."""
    m, calls = MatrixQ.from_scaled(2, [[1, -3]]), []

    def compute():
        calls.append(1)
        return 7

    assert kept(m, "_height", compute) == 7 and kept(m, "_height", compute) == 7
    assert calls == [1] and m.height() == 7
    with pytest.raises(AttributeError, match="^MatrixQ is immutable$"):
        m._height = 3


def test_subspace_full_is_the_eliminated_identity():
    """Subspace.full builds the identity rows directly; they are the RREF
    basis that elimination of any spanning set gives, Fraction for Fraction."""
    rng = random.Random(18)
    for n in range(6):
        full = Subspace.full(n)
        spanned = Subspace(n, [basis_vector(n, i) for i in range(n)])
        assert full == spanned and hash(full) == hash(spanned)
        assert full.basis_rows == spanned.basis_rows and full.dim == n
        assert all(type(x) is Q for row in full.basis_rows for x in row)
        if n:
            assert Subspace(n, random_invertible(n, rng).entries) == full
    with pytest.raises(AttributeError):
        Subspace.full(2).basis_rows = ()


def test_subspace_dimension_mismatch():
    left, right = Subspace(3, [basis_vector(3, 0)]), Subspace(2, [basis_vector(2, 0)])
    with pytest.raises(DimensionMismatch):
        Subspace(3, list(left.basis_rows) + list(right.basis_rows))


def test_det_matches_char_poly_constant():
    rng = random.Random(17)
    for _ in range(6):
        m = MatrixQ([[random_fraction(rng, 3) for _ in range(3)] for _ in range(3)])
        # det(xI - m) at x = 0 is (-1)^n det(m)
        assert poly_eval(char_poly(m), 0) == -det(m)


def test_sqrt_fraction():
    assert sqrt_fraction(Q(4, 9)) == Q(2, 3)
    assert sqrt_fraction(Q(2)) is None
    assert sqrt_fraction(Q(-4)) is None


def _sieve(n):
    flags = [True] * n
    flags[0] = flags[1] = False
    for p in range(2, int(n ** 0.5) + 1):
        if flags[p]:
            flags[p * p::p] = [False] * len(flags[p * p::p])
    return flags


def test_is_prime_matches_sieve_and_rejects_pseudoprimes():
    flags = _sieve(20000)
    assert [n for n in range(20000) if is_prime(n)] == [n for n in range(20000) if flags[n]]
    # Carmichael numbers and strong pseudoprimes to the bases 2..23
    for n in (561, 41041, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(2 ** 61 - 1) and is_prime(10 ** 19 + 51)


def test_factor_reconstructs_and_keeps_hard_cofactors():
    rng = random.Random(71)
    for _ in range(200):
        n = rng.randrange(1, 10 ** 15) * rng.choice((1, -1))
        primes, cofactor = factor(n)
        assert cofactor == 1
        assert all(is_prime(p) for p in primes)
        value = 1
        for p, e in primes.items():
            value *= p ** e
        assert value == abs(n)
    assert factor(2 ** 4 * (10 ** 9 + 7) ** 2 * (10 ** 12 + 39)) == (
        {2: 4, 10 ** 9 + 7: 2, 10 ** 12 + 39: 1}, 1)
    # a probable prime above the proof bound is never reported as prime
    big = 2 ** 89 - 1
    assert big > PRIME_PROOF_BOUND
    assert factor(6 * big) == ({2: 1, 3: 1}, big)
    # two 20-digit primes: beyond the Pollard-Brent cap
    semiprime = 10000000000000000051 * 20000000000000000011
    assert factor(semiprime) == ({}, semiprime)


def test_sqrt_mod_prime():
    # 17, 41, 97 and 257 are 1 mod 8: the Tonelli-Shanks loop proper
    for p in (2, 3, 5, 7, 13, 17, 41, 97, 257):
        squares = {x * x % p for x in range(p)}
        for a in range(-5, p):
            r = sqrt_mod_prime(a, p)
            assert (r is None) == (a % p not in squares)
            assert r is None or r * r % p == a % p
    p = 2 ** 64 - 59     # 5 mod 8
    for a in range(2, 40):
        r = sqrt_mod_prime(a, p)
        assert (r is None) == (pow(a, (p - 1) // 2, p) == p - 1)
        assert r is None or r * r % p == a


# --- Fraction oracles ---------------------------------------------------------
# The elimination and product routines as they were written before the integer
# kernels: every step in Fraction arithmetic, the same pivot order.

def fraction_matmul(a, b):
    cols = list(zip(*b.entries))
    return MatrixQ([[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a.entries])


def fraction_rref(m):
    work = [list(row) for row in m.entries]
    nrows, ncols = m.rows, m.cols
    pivot_row = 0
    for col in range(ncols):
        src = next((r for r in range(pivot_row, nrows) if work[r][col] != 0), None)
        if src is None:
            continue
        work[pivot_row], work[src] = work[src], work[pivot_row]
        inv = 1 / work[pivot_row][col]
        work[pivot_row] = [x * inv for x in work[pivot_row]]
        for r in range(nrows):
            if r != pivot_row and work[r][col] != 0:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[pivot_row])]
        pivot_row += 1
        if pivot_row == nrows:
            break
    return MatrixQ(work), pivot_row


def fraction_kernel_rows(m):
    """RREF basis rows of the null space, from the Fraction RREF."""
    reduced, rk = fraction_rref(m)
    pivots = [next(j for j, x in enumerate(reduced.entries[r]) if x != 0) for r in range(rk)]
    vectors = []
    for j in range(m.cols):
        if j not in pivots:
            v = [Q(0)] * m.cols
            v[j] = Q(1)
            for r, p in enumerate(pivots):
                v[p] = -reduced.entries[r][j]
            vectors.append(v)
    return fraction_span_rows(m.cols, vectors)


def fraction_span_rows(n, vectors):
    """The nonzero RREF rows of the stacked vectors."""
    if not vectors:
        return ()
    reduced, rk = fraction_rref(MatrixQ(vectors))
    return reduced.entries[:rk]


def fraction_invert(m):
    n = m.rows
    work = [list(m.entries[i]) + [Q(1) if j == i else Q(0) for j in range(n)]
            for i in range(n)]
    for col in range(n):
        src = next((r for r in range(col, n) if work[r][col] != 0), None)
        if src is None:
            raise SingularMatrix(f"matrix is singular (rank deficient at column {col})")
        work[col], work[src] = work[src], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return MatrixQ([row[n:] for row in work])


def fraction_det(m):
    n = m.rows
    work = [list(row) for row in m.entries]
    result = Q(1)
    for col in range(n):
        src = next((r for r in range(col, n) if work[r][col] != 0), None)
        if src is None:
            return Q(0)
        if src != col:
            work[col], work[src] = work[src], work[col]
            result = -result
        result *= work[col][col]
        inv = 1 / work[col][col]
        for r in range(col + 1, n):
            if work[r][col] != 0:
                f = work[r][col] * inv
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return result


# --- the integer kernels against the oracles ----------------------------------

def random_entry(rng, height):
    """A rational of the given height, zero a quarter of the time."""
    if rng.random() < 0.25:
        return Q(0)
    return Q(rng.randint(-height, height), rng.randint(1, height))


def random_shaped(rng, rows, cols, rank_cap, height):
    """A rows x cols matrix of rank at most rank_cap (a product through a thin
    middle when rank_cap is smaller than both sides), with a zero row or a
    zero column now and then, and its rows shuffled."""
    if rank_cap == 0:
        grid = [[Q(0)] * cols for _ in range(rows)]
    elif rank_cap < min(rows, cols):
        left = MatrixQ([[random_entry(rng, height) for _ in range(rank_cap)] for _ in range(rows)])
        right = MatrixQ([[random_entry(rng, height) for _ in range(cols)] for _ in range(rank_cap)])
        grid = [list(row) for row in fraction_matmul(left, right).entries]
    else:
        grid = [[random_entry(rng, height) for _ in range(cols)] for _ in range(rows)]
    if rng.random() < 0.3:
        grid[rng.randrange(rows)] = [Q(0)] * cols
    if rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in grid:
            row[j] = Q(0)
    rng.shuffle(grid)
    return MatrixQ(grid)


def elimination_cases(rng):
    cases = [MatrixQ([[Q(-7, 3)]]), MatrixQ([[0]]), MatrixQ([[-1, 2], [3, -4]]),
             MatrixQ([[0, -2, 1], [-3, 0, 0], [0, 0, -5]]), MatrixQ([[0] * 3] * 2),
             MatrixQ([[0, 0], [0, 1]]), MatrixQ([[1, 2, 3], [2, 4, 6], [1, 1, 1]])]
    for _ in range(150):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        if rng.random() < 0.4:
            cols = rows
        height = rng.choice((1, 3, 9, 10 ** 12, 10 ** 30))
        cases.append(random_shaped(rng, rows, cols, rng.randint(0, min(rows, cols)), height))
    for n in (3, 6, 9):        # conjugates of negative and large diagonals
        basis = random_invertible(n, rng, spread=4)
        diag = MatrixQ.diagonal([Q(-rng.randint(1, 10 ** 15), rng.randint(1, 99))
                                 for _ in range(n)])
        cases.append(fraction_matmul(fraction_matmul(basis, diag), fraction_invert(basis)))
    return cases


def test_elimination_matches_fraction_oracle():
    rng = random.Random(707)
    seen = {"singular": 0, "wide": 0, "tall": 0, "deficient": 0}
    for m in elimination_cases(rng):
        expected, rk = fraction_rref(m)
        assert rank(m) == rk
        assert kernel(m).basis_rows == fraction_kernel_rows(m)
        assert Subspace(m.cols, m.entries).basis_rows == expected.entries[:rk]
        builder = SpanBuilder(m.cols)
        grew = [builder.add(cleared(row)[1]) for row in m.entries]
        assert sum(grew) == builder.dim == rk
        assert Subspace(m.cols, builder.rows.values()).basis_rows == expected.entries[:rk]
        seen["wide"] += m.rows < m.cols
        seen["tall"] += m.rows > m.cols
        seen["deficient"] += rk < min(m.rows, m.cols)
        if m.is_square:
            assert det(m) == fraction_det(m)
            try:
                inverse = fraction_invert(m)
            except SingularMatrix as exc:
                seen["singular"] += 1
                with pytest.raises(SingularMatrix) as got:
                    invert(m)
                assert str(got.value) == str(exc)
            else:
                assert invert(m) == inverse
    assert min(seen.values()) >= 15, seen


def test_product_matches_fraction_oracle_and_keeps_lowest_terms():
    rng = random.Random(708)
    for _ in range(120):
        rows, inner, cols = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        height = rng.choice((1, 5, 10 ** 18))
        a = random_shaped(rng, rows, inner, inner, height)
        b = random_shaped(rng, inner, cols, cols, height)
        product = a * b
        assert product == fraction_matmul(a, b)
        # the view a product keeps is the one its entries give afresh
        assert product.scaled() == MatrixQ(product.entries).scaled()
        d, ints = product.scaled()
        assert d == math.lcm(*(x.denominator for row in product.entries for x in row))
        assert all(Q(x, d) == y for row, erow in zip(ints, product.entries)
                   for x, y in zip(row, erow))
    with pytest.raises(DimensionMismatch):
        MatrixQ.identity(2) * MatrixQ.identity(3)


def fraction_char_poly(m):
    """Reference: the Faddeev-LeVerrier recursion in Fraction arithmetic, as
    char_poly ran before it moved to the scaled view."""
    n = m.rows
    coeffs_high_first = [Q(1)]
    mk = MatrixQ([[0] * n] * n)
    c = Q(1)
    for k in range(1, n + 1):
        shifted = MatrixQ([[x + c if i == j else x for j, x in enumerate(row)]
                           for i, row in enumerate(mk.entries)])
        mk = fraction_matmul(m, shifted)
        c = -sum(mk.entries[i][i] for i in range(n)) / k
        coeffs_high_first.append(c)
    return PolyQ(list(reversed(coeffs_high_first)))


def test_char_poly_matches_fraction_oracle():
    rng = random.Random(1010)
    cases = [MatrixQ([[Q(-7, 3)]]), MatrixQ([[0]]), MatrixQ([[0] * 4] * 4),
             MatrixQ([[0, Q(1, 2), 3], [0, 0, Q(-5, 7)], [0, 0, 0]]),   # nilpotent
             MatrixQ.identity(5).scale(Q(10 ** 30, 3))]
    for _ in range(60):
        # 8x8 at height 10^30 with 64 distinct denominators takes seconds either way
        n = rng.randint(1, 8)
        height = rng.choice((1, 3, 9) + ((10 ** 12, 10 ** 30) if n <= 5 else ()))
        cases.append(random_shaped(rng, n, n, rng.randint(0, n), height))
    for n in (7, 8):   # integral at height 10^30, and one denominator
        ints = [[rng.randint(-10 ** 30, 10 ** 30) for _ in range(n)] for _ in range(n)]
        cases += [MatrixQ(ints), MatrixQ(ints).scale(Q(1, 10 ** 30 + 57))]
    for n in (3, 6):   # nilpotent in a dense basis
        basis = random_invertible(n, rng, spread=4)
        shift = MatrixQ([[Q(rng.randint(1, 9), rng.randint(1, 9)) if j == i + 1 else 0
                          for j in range(n)] for i in range(n)])
        cases.append(fraction_matmul(fraction_matmul(basis, shift), fraction_invert(basis)))
    for m in cases:
        assert char_poly(m) == fraction_char_poly(m)
    assert char_poly(cases[-1]) == PolyQ([0] * 6 + [1])
    with pytest.raises(DimensionMismatch, match="square matrix required"):
        char_poly(MatrixQ([[1, 2]]))


def test_rational_roots_repeated_roots_under_non_monic_leads():
    """Repeated roots a/b with b > 1 under a leading coefficient that is not
    1: the residual must come back over the leading coefficient of p."""
    rng = random.Random(1011)
    for _ in range(150):
        p = PolyQ([random_fraction(rng, 9, nonzero=True)])
        for _ in range(rng.randint(1, 2)):
            root = PolyQ([rng.randint(-9, 9), rng.randint(2, 5)])
            for _ in range(rng.randint(1, 3)):
                p = poly_mul(p, root)
        if rng.random() < 0.5:
            p = poly_mul(p, PolyQ([rng.randint(1, 5), 0, rng.randint(1, 5)]))
        roots, residual = rational_roots(p)
        assert (roots, residual) == divisor_rational_roots(p)
        assert residual.coeffs[-1] == p.coeffs[-1]


def scaled_twin(rng, values, make):
    """The same rationals through make(d, ints): d the lcm of the
    denominators times a random factor, negative now and then, so that
    ints/d is not in lowest terms and d may be negative."""
    flat = list(values)
    k = rng.choice((1, 1, -1)) * rng.choice((1, 2, 6, 35, 10 ** 20))
    d = k * math.lcm(*(x.denominator for x in flat))
    return make(d, [int(x * d) for x in flat])


def assert_canonical(view, values):
    """(d, rows) is d > 0, the lcm of the reduced denominators, rows of d*x,
    and gcd(d, entries) = 1."""
    d, rows = view
    flat = [x for row in rows for x in row]
    assert d == math.lcm(*(x.denominator for x in values)) > 0
    assert math.gcd(d, *flat) == 1
    assert flat == [int(x * d) for x in values]


def test_matrix_view_is_canonical_from_fractions_and_from_scaled():
    """A MatrixQ built from Fractions and the same matrix through from_scaled
    (non-reduced, zero rows, negative d) agree on entries, scaled(), ==, hash
    and the strings save() writes, and both views are canonical; sums,
    differences, negation and scaling on the view match Fraction arithmetic."""
    rng = random.Random(1616)
    for _ in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        height = rng.choice((1, 9, 10 ** 15))
        grid = [[random_entry(rng, height) for _ in range(cols)] for _ in range(rows)]
        for i in rng.sample(range(rows), rng.randint(0, rows)):
            grid[i] = [Q(0)] * cols
        a = MatrixQ(grid)
        b = scaled_twin(rng, [x for row in grid for x in row],
                        lambda d, flat: MatrixQ.from_scaled(d, [flat[i * cols:(i + 1) * cols]
                                                                 for i in range(rows)]))
        assert_canonical(b.scaled(), [x for row in grid for x in row])
        assert a.scaled() == b.scaled()
        assert a == b and hash(a) == hash(b)
        assert b.entries == a.entries == tuple(tuple(row) for row in grid)
        assert matrix_strings(b) == matrix_strings(a) == [[str(x) for x in row] for row in grid]
        assert (a.rows, a.cols) == (b.rows, b.cols)
        assert b.is_zero() == all(x == 0 for row in grid for x in row)
        assert -b == MatrixQ([[-x for x in row] for row in grid])
        c, other = random_entry(rng, 20), random_shaped(rng, rows, cols, cols, height)
        assert b.scale(c) == MatrixQ([[c * x for x in row] for row in grid])
        assert b + other == MatrixQ([[x + y for x, y in zip(r1, r2)]
                                     for r1, r2 in zip(grid, other.entries)])
        assert (b - other).entries == tuple(tuple(x - y for x, y in zip(r1, r2))
                                            for r1, r2 in zip(grid, other.entries))
        if rows == cols:
            assert b.trace() == sum(grid[i][i] for i in range(rows))
    assert MatrixQ([[1, 2]]) != MatrixQ([[1], [2]])


def test_product_chain_builds_no_fraction(monkeypatch):
    """Products and scaled() work on the views alone: a chain of 15 x 15
    products built from views calls fractions_over (the one place a view
    becomes Fractions) not once; reading the entries afterwards agrees with
    the Fraction oracle."""
    rng = random.Random(1617)
    mats = [MatrixQ.from_scaled(rng.choice((1, 3, -4, 10 ** 6)),
                                [[rng.randint(-9, 9) for _ in range(15)] for _ in range(15)])
            for _ in range(5)]
    calls = []
    original = exactlin.fractions_over
    monkeypatch.setattr(exactlin, "fractions_over",
                        lambda d, ints: calls.append(d) or original(d, ints))
    product = mats[0]
    for m in mats[1:]:
        product = product * m
    d, rows = product.scaled()
    assert product == MatrixQ.from_scaled(d, rows) and not product.is_zero()
    assert calls == []
    expected = mats[0]
    for m in mats[1:]:
        expected = fraction_matmul(expected, m)
    assert product.entries == expected.entries
    assert len(calls) == 15 * 6   # the rows of the five factors and of the product, once each


# --- Subspace: the canonical view ---------------------------------------------

def test_subspace_view_divides_by_a_negative_last_pivot():
    """Bareiss can end on a negative pivot: the spins of L1(2,3) from e1 and
    from e3 eliminate to -I over -1. The view divides by the gcd with the
    sign of the pivot, so every spin is Subspace.full(3) in view, == and
    hash, and so is the kernel of the zero matrix; a kernel whose last pivot
    is -1 keeps a positive scale too."""
    identity = (1, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    ads = [tuple(zip(*plane)) for plane in make_L1(2, 3).tensor.scaled()[1]]
    spins = [list(_closure(ads, [[int(i == k) for i in range(3)]]).rows.values())
             for k in range(3)]
    assert [exactlin._echelon(rows, 3)[2] for rows in spins] == [-1, 1, -1]
    for space in [Subspace(3, rows) for rows in spins] + [kernel(MatrixQ([[0] * 3] * 3))]:
        assert space.scaled() == Subspace.full(3).scaled() == identity
        assert space == Subspace.full(3) and hash(space) == hash(Subspace.full(3))
    line = kernel(MatrixQ([[-1, 2]]))
    assert line.scaled() == (2, ((2, 1),)) and line.basis_rows == ((Q(1), Q(1, 2)),)
    assert line == Subspace(2, [(4, 2)]) and hash(line) == hash(Subspace(2, [(-6, -3)]))
    assert Subspace(4).scaled() == (1, ()) and Subspace(4) != Subspace(3)


def test_subspace_view_matches_fraction_rref():
    """Seeded spanning sets of every rank against the Fraction RREF: the
    basis rows are its nonzero rows and the view is (lcm of their
    denominators, the rows times it). Another spanning set of the same space
    (the rows recombined by an invertible matrix, scaled, with a zero row)
    gives the same view, == and hash, in Fractions and in integers."""
    rng = random.Random(1818)
    for _ in range(200):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        height = rng.choice((1, 9, 10 ** 15))
        m = random_shaped(rng, rows, cols, rng.randint(0, min(rows, cols)), height)
        expected = fraction_span_rows(cols, m.entries)
        space = Subspace(cols, m.entries)
        assert space.basis_rows == expected and space.dim == len(expected)
        assert_canonical(space.scaled(), [x for row in expected for x in row])
        assert len(space.scaled()[1]) == len(expected)
        if expected:
            mixed = random_invertible(len(expected), rng) * MatrixQ(expected)
            others = [row for row in mixed.scale(random_fraction(rng, 9, True)).entries]
        else:
            others = []
        others.insert(rng.randint(0, len(others)), (Q(0),) * cols)
        twin = Subspace(cols, others)
        assert twin.scaled() == space.scaled()
        assert twin == space and hash(twin) == hash(space)
        ints = Subspace.spanned(cols, [[int(x * 7 * math.lcm(*(y.denominator for y in row)))
                                        for x in row] for row in others])
        assert ints.scaled() == space.scaled() and ints == space
        v = tuple(random_entry(rng, height) for _ in range(cols))
        inside = (MatrixQ([[random_fraction(rng, 9) for _ in expected]]) * MatrixQ(expected)
                  ).entries[0] if expected else (Q(0),) * cols
        for w in (v, inside):
            assert space.contains(w) == (len(fraction_span_rows(cols, expected + (w,)))
                                         == len(expected))
        assert space.contains(inside)


def test_matrix_shape_errors():
    """Each shape check of MatrixQ raises DimensionMismatch with its message;
    a product with a non-matrix is a TypeError."""
    two, three = MatrixQ.identity(2), MatrixQ.identity(3)
    for build, message in (
            (lambda: MatrixQ([]), "matrix needs at least one row"),
            (lambda: MatrixQ([[1, 2], [3]]), "ragged matrix rows"),
            (lambda: MatrixQ.from_columns([(1, 2), (3,)]), "columns of unequal length"),
            (lambda: two + three, "matrix shapes differ"),
            (lambda: two.apply((1, 2, 3)), "vector of length 3 for 2x2")):
        with pytest.raises(DimensionMismatch) as exc:
            build()
        assert str(exc.value) == message
    with pytest.raises(TypeError, match=r"for \*: 'MatrixQ' and 'int'"):
        two * 2

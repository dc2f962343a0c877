"""Exact linear algebra over arbitrary-precision rationals.

Values are immutable and pivoting is deterministic (first nonzero by index),
so outputs are reproducible byte for byte. The exact value types (MatrixQ
and Subspace here, StructureTensor and BiHomAlgebra in algebra) derive
from Frozen, which refuses assignment and compares and hashes by type and
_key(); a fact computed from a value is kept in one of its slots by
kept(obj, slot, compute), filled on first read. A polynomial is the tuple
of its coefficients, lowest degree first. A MatrixQ is stored as
its scaled view (d, rows): d > 0 the lcm of its denominators, rows the
integer rows of d*M and gcd(d, entries) = 1, so equal matrices have equal
views; its ``fractions.Fraction`` entries are built only when read.
Products multiply two views, and elimination (kernel, rank, invert, det,
Subspace) is fraction-free Gauss-Jordan after Bareiss (Math. Comp. 22,
1968) on integer rows, which keeps the RREF; a Subspace keeps the view of
its RREF basis. SpanBuilder keeps primitive integer rows.

The few integer routines that exact split detection needs live here too:
is_prime, factor (with a documented bound past which a cofactor is left
unfactored) and sqrt_mod_prime.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .errors import DimensionMismatch, SingularMatrix

Q = Fraction
ZERO = Q(0)

Vector = tuple[Fraction, ...]


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def vector(values) -> Vector:
    return tuple(as_fraction(v) for v in values)


def zero_vector(n: int) -> Vector:
    return (Q(0),) * n


def basis_vector(n: int, i: int) -> Vector:
    return tuple(Q(1) if j == i else Q(0) for j in range(n))


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c, v: Vector) -> Vector:
    c = as_fraction(c)
    return tuple(c * a for a in v)


def cleared(values) -> tuple[int, list[int]]:
    """(d, [d*x for x in values]) in integers, d the lcm of the denominators
    of the rationals (or integers) in values."""
    d = math.lcm(*(x.denominator for x in values))
    return d, [x.numerator * (d // x.denominator) for x in values]


def lowest(d: int, flat: list[int]) -> tuple[int, list[int]]:
    """flat/d over g = gcd(d, entries) with the sign of d: d > 0 and gcd 1."""
    g = math.gcd(d, *flat) * (-1 if d < 0 else 1)
    return d // g, flat if g == 1 else [x // g for x in flat]


def int_product(x, y) -> list[list[int]]:
    """Product of two integer matrices given as rows."""
    cols = tuple(zip(*y))
    return [[sum(map(mul, row, col)) for col in cols] for row in x]


def pack_width(bound: int) -> int:
    """The least slot width w with 2^(w-1) > bound."""
    return bound.bit_length() + 1


def pack(values, width: int) -> int:
    """Kronecker substitution: sum_r v_r 2^(r*width). Linear over the
    integers, and zero only for v = 0 when every |v_r| < 2^(width-1)."""
    out = 0
    for x in reversed(values):
        out = (out << width) + x
    return out


def unpack(packed: int, width: int, n: int) -> list[int]:
    """The v of length n with pack(v, width) = packed, each |v_r| < 2^(width-1)."""
    half, mask, out = 1 << (width - 1), (1 << width) - 1, []
    for _ in range(n):
        out.append(((packed + half) & mask) - half)
        packed = (packed - out[-1]) >> width
    return out


def fractions_over(d: int, ints) -> tuple[Fraction, ...]:
    """The rationals x/d, one division each; zero entries share one object."""
    return tuple(Fraction(x, d) if x else ZERO for x in ints)


def reshape(flat: list, count: int, width: int) -> tuple[tuple, ...]:
    return tuple(tuple(flat[i * width:(i + 1) * width]) for i in range(count))


class Frozen:
    """Base of the immutable exact values: no attribute can be assigned, and
    a value equals another exactly when both have the same type and equal
    _key(), which is also hashed. The default key is the scaled view."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _key(self):
        return self._scaled

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def kept(obj, slot: str, compute):
    """The value in obj's slot, filled with compute() on first read. A fact
    is kept on the object it was computed from, never keyed by content."""
    if not hasattr(obj, slot):
        object.__setattr__(obj, slot, compute())
    return getattr(obj, slot)


class MatrixQ(Frozen):
    """Dense rational matrix. Acts on coordinate columns: the j-th column
    holds the image of the j-th basis vector. It is kept as its view (slot
    _scaled), the Fraction rows (slot _entries) once given or read."""

    __slots__ = ("rows", "cols", "_entries", "_scaled", "_height")

    def __init__(self, entries):
        rows = tuple(tuple(as_fraction(x) for x in row) for row in entries)
        if not rows:
            raise DimensionMismatch("matrix needs at least one row")
        if any(len(r) != len(rows[0]) for r in rows):
            raise DimensionMismatch("ragged matrix rows")
        object.__setattr__(self, "_entries", rows)
        self._keep(*cleared([x for row in rows for x in row]), len(rows), len(rows[0]))

    @classmethod
    def from_scaled(cls, d: int, ints) -> "MatrixQ":
        """The matrix ints/d of integer rows; no Fraction is built."""
        obj = object.__new__(cls)
        obj._keep(d, [x for row in ints for x in row], len(ints), len(ints[0]))
        return obj

    def _keep(self, d: int, flat: list[int], rows: int, cols: int):
        """Keep the view of flat/d in lowest terms."""
        d, flat = lowest(d, flat)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_scaled", (d, reshape(flat, rows, cols)))

    def scaled(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(d, rows): d > 0 the lcm of the denominators and rows the integer
        rows of d * self, so gcd(d, entries) = 1."""
        return self._scaled

    def height(self) -> int:
        """The largest |entry| of the view, kept (slot _height) once read."""
        return kept(self, "_height", lambda: max(abs(x) for r in self._scaled[1] for x in r))

    @property
    def entries(self) -> tuple[Vector, ...]:
        """The rows of Fraction entries, built from the view on first read."""
        return kept(self, "_entries", lambda: tuple(
            fractions_over(self._scaled[0], row) for row in self._scaled[1]))

    @classmethod
    def identity(cls, n: int) -> "MatrixQ":
        return cls.from_scaled(1, [[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, values) -> "MatrixQ":
        vals = [as_fraction(v) for v in values]
        n = len(vals)
        return cls([[vals[i] if i == j else Q(0) for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns) -> "MatrixQ":
        cols = [vector(c) for c in columns]
        n = len(cols[0])
        if any(len(c) != n for c in cols):
            raise DimensionMismatch("columns of unequal length")
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(n)])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def column(self, j: int) -> Vector:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"MatrixQ[{body}]"

    def __add__(self, other: "MatrixQ") -> "MatrixQ":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix shapes differ")
        (d1, x), (d2, y) = self.scaled(), other.scaled()
        return MatrixQ.from_scaled(d1 * d2, [[a * d2 + b * d1 for a, b in zip(r1, r2)]
                                             for r1, r2 in zip(x, y)])

    def __sub__(self, other: "MatrixQ") -> "MatrixQ":
        return self + -other

    def __neg__(self) -> "MatrixQ":
        d, rows = self.scaled()
        return MatrixQ.from_scaled(-d, rows)

    def __mul__(self, other: "MatrixQ") -> "MatrixQ":
        if not isinstance(other, MatrixQ):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        (d1, x), (d2, y) = self.scaled(), other.scaled()
        return MatrixQ.from_scaled(d1 * d2, int_product(x, y))

    def scale(self, c) -> "MatrixQ":
        c, (d, rows) = as_fraction(c), self.scaled()
        return MatrixQ.from_scaled(d * c.denominator, [[c.numerator * x for x in row]
                                                       for row in rows])

    def apply(self, v: Vector) -> Vector:
        """Matrix times coordinate column."""
        if len(v) != self.cols:
            raise DimensionMismatch(f"vector of length {len(v)} for {self.rows}x{self.cols}")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def trace(self) -> Fraction:
        self._require_square()
        d, rows = self.scaled()
        return Fraction(sum(rows[i][i] for i in range(self.rows)), d)

    def is_zero(self) -> bool:
        return not any(map(any, self.scaled()[1]))

    def _require_square(self):
        if not self.is_square:
            raise DimensionMismatch("square matrix required")


def _gauss_jordan(work: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan on integer rows, in place (Bareiss 1968):
    with p the pivot found first in the column and q the previous one (1 at
    first), every other row becomes (p*row - row[col]*pivot_row)/q, an exact
    division; rows that vanish are dropped. All pivot rows end with the last
    pivot at their pivot, so the first r rows over it are the RREF. Pivots
    are sought in the first ncols columns. Returns (pivot columns, last pivot,
    sign of the row swaps); a full-rank square input has determinant
    sign * last pivot."""
    pivots, prev, sign = [], 1, 1
    for col in range(ncols):
        r = len(pivots)
        src = next((i for i in range(r, len(work)) if work[i][col]), None)
        if src is None:
            continue
        if src != r:
            work[r], work[src] = work[src], work[r]
            sign = -sign
        prow = work[r]
        p = prow[col]
        kept = []
        for i, row in enumerate(work):
            f = row[col]
            if i != r and (f or p != prev):
                row = [(p * x - f * y) // prev for x, y in zip(row, prow)]
            if i <= r or any(row):
                kept.append(row)
        work[:] = kept
        pivots.append(col)
        prev = p
        if len(pivots) == len(work):
            break
    return pivots, prev, sign


def _echelon(rows, ncols: int) -> tuple[list[int], list[list[int]], int]:
    """(pivot columns, integer RREF rows, last pivot) of integer rows, each
    made primitive first."""
    work = [primitive(list(row)) for row in rows]
    pivots, p, _ = _gauss_jordan(work, ncols)
    return pivots, work[:len(pivots)], p


def rank(m: MatrixQ) -> int:
    return len(_echelon(m.scaled()[1], m.cols)[0])


def primitive(v: list[int]) -> list[int]:
    g = math.gcd(*v)
    return v if g <= 1 else [x // g for x in v]


class SpanBuilder:
    """Incrementally maintained basis of a subspace of Q^n over the integers:
    {pivot: primitive row that is zero before its pivot}. The row r at the
    leading entry p of a vector v turns v into r[p]*v - v[p]*r (both over
    their gcd), made primitive again."""

    def __init__(self, ambient_dim: int):
        self.ambient_dim = ambient_dim
        self.rows: dict[int, list[int]] = {}

    def add(self, v) -> bool:
        """Add an integer vector; True if the dimension grew."""
        n = self.ambient_dim
        if len(v) != n:
            raise DimensionMismatch("vector length does not match ambient dimension")
        v = primitive(v)
        lead = next((j for j, x in enumerate(v) if x), None)
        while lead in self.rows:
            r = self.rows[lead]
            g = math.gcd(v[lead], r[lead])
            x, y = v[lead] // g, r[lead] // g
            v = primitive([y * a - x * b for a, b in zip(v, r)])
            lead = next((j for j in range(lead + 1, n) if v[j]), None)
        if lead is None:
            return False
        self.rows[lead] = v
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)


class Subspace(Frozen):
    """A subspace of Q^n held by its unique RREF basis, one vector per row,
    kept as its view (p, rows): p > 0 and rows the integer rows of p times
    the RREF, gcd(p, entries) = 1. The Fraction rows are built when read."""

    __slots__ = ("ambient_dim", "_scaled")

    def __new__(cls, ambient_dim: int, vectors=()):
        return cls.spanned(ambient_dim, [cleared(vector(v))[1] for v in vectors])

    @classmethod
    def spanned(cls, ambient_dim: int, ints) -> "Subspace":
        """The span of integer rows of length ambient_dim; no Fraction is built."""
        if any(len(v) != ambient_dim for v in ints):
            raise DimensionMismatch("vector length does not match ambient dimension")
        _, rows, p = _echelon(ints, ambient_dim)   # the RREF over the last pivot, maybe < 0
        return cls._view(ambient_dim, MatrixQ.from_scaled(p, rows).scaled() if rows else (1, ()))

    @classmethod
    def full(cls, n: int) -> "Subspace":
        """Q^n, whose RREF basis is the identity rows: no elimination."""
        return cls._view(n, (1, tuple(tuple(int(i == j) for j in range(n)) for i in range(n))))

    @classmethod
    def _view(cls, n: int, view) -> "Subspace":
        obj = object.__new__(cls)
        object.__setattr__(obj, "ambient_dim", n)
        object.__setattr__(obj, "_scaled", view)
        return obj

    def scaled(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        return self._scaled

    @property
    def basis_rows(self) -> tuple[Vector, ...]:
        """The RREF rows of Fraction entries, built from the view when read."""
        p, rows = self._scaled
        return tuple(fractions_over(p, row) for row in rows)

    @property
    def dim(self) -> int:
        return len(self._scaled[1])

    def pivots(self) -> tuple[int, ...]:
        return tuple(next(j for j, x in enumerate(row) if x) for row in self._scaled[1])

    def contains(self, v: Vector) -> bool:
        rows = self._scaled[1] + (cleared(vector(v))[1],)
        return Subspace.spanned(self.ambient_dim, rows).dim == self.dim

    def _key(self):
        return self.ambient_dim, self._scaled

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def kernel(m: MatrixQ) -> Subspace:
    """RREF basis of the null space of m: for each free column j, the vector
    p*e_j - sum over pivot rows of row[j]*e_pivot, p the last pivot."""
    n, (pivots, rows, p) = m.cols, _echelon(m.scaled()[1], m.cols)
    at = dict(zip(pivots, rows))
    return Subspace.spanned(n, [[-at[k][j] if k in at else p * (k == j) for k in range(n)]
                                for j in range(n) if j not in at])


def invert(m: MatrixQ) -> MatrixQ:
    """Exact inverse: fraction-free Gauss-Jordan on [d*m | I] gives
    [p*I | p*(d*m)^-1]; SingularMatrix when rank < n."""
    m._require_square()
    n = m.rows
    d, rows = m.scaled()
    work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    pivots, p, _ = _gauss_jordan(work, n)
    if len(pivots) < n:
        col = next(j for j, c in enumerate(pivots + [n]) if c != j)
        raise SingularMatrix(f"matrix is singular (rank deficient at column {col})")
    return MatrixQ.from_scaled(p, [[d * x for x in row[n:]] for row in work])


def det(m: MatrixQ) -> Fraction:
    """det(d*m) / d^n, with det(d*m) the signed last Bareiss pivot."""
    m._require_square()
    d, rows = m.scaled()
    pivots, p, sign = _gauss_jordan([list(row) for row in rows], m.cols)
    return Fraction(sign * p, d ** m.rows) if len(pivots) == m.rows else Q(0)


def char_poly(m: MatrixQ) -> tuple[Fraction, ...]:
    """The coefficients, lowest degree first, of the monic characteristic
    polynomial det(xI - m), by the Faddeev-LeVerrier recursion on the scaled
    view (d, A = d*m): N_k = A (N_(k-1) + c_(k-1) I) and c_k = -tr(N_k)/k,
    a division that is exact for integral A. c_k is the coefficient of
    x^(n-k) in det(xI - A), so that of m is c_k / d^k."""
    m._require_square()
    n = m.rows
    d, a = m.scaled()
    coeffs_high_first, mk, c = [Q(1)], [[0] * n for _ in range(n)], 1
    for k in range(1, n + 1):
        for i in range(n):
            mk[i][i] += c
        mk = int_product(a, mk)
        c = -sum(mk[i][i] for i in range(n)) // k
        coeffs_high_first.append(Fraction(c, d ** k))
    return tuple(coeffs_high_first[::-1])


def _sturm_chain(f: list[int]) -> list[list[int]]:
    """Sturm sequence f, f', -rem, ... (lowest degree first) as primitive
    positive multiples, down to the last nonzero remainder, a gcd of f, f'."""
    df = [k * c for k, c in enumerate(f)][1:]
    chain = [f, [c // math.gcd(*df) for c in df]]
    while len(chain[-1]) > 1:
        a, b = list(chain[-2]), chain[-1]
        lead, flip = b[-1], False
        while len(a) >= len(b):   # a <- lead*a - q*x^s*b cancels a's top term
            q, shift = a[-1], len(a) - len(b)
            a = [lead * x for x in a]
            for k, y in enumerate(b):
                a[shift + k] -= q * y
            a.pop()
            flip ^= lead < 0
            while a and a[-1] == 0:
                a.pop()
        if not a:
            break
        g = math.gcd(*a) * (1 if flip else -1)   # a = lead^steps * rem(a, b)
        chain.append([x // g for x in a])
    return chain


def _exact_quotient(f: list[int], d: list[int]) -> list[int]:
    """f / d for an integer divisor d with leading coefficient +-1."""
    f, out = list(f), []
    while len(f) >= len(d):
        q, shift = f[-1] * d[-1], len(f) - len(d)
        for k, y in enumerate(d):
            f[shift + k] -= q * y
        f.pop()
        out.append(q)
    return out[::-1]


def _horner(p: list[int], x: int) -> int:
    """p(x) for integer coefficients p, lowest degree first."""
    v = 0
    for c in reversed(p):
        v = v * x + c
    return v


def _sign_changes(chain: list[list[int]], x: int) -> int:
    count, last = 0, 0
    for v in (_horner(p, x) for p in chain):
        if v:
            if last and (v > 0) != (last > 0):
                count += 1
            last = v
    return count


def rational_roots(coeffs) -> list[Fraction]:
    """The distinct rational roots, in increasing order, of the polynomial
    with rational coefficients coeffs, lowest degree first.

    With it cleared to a primitive integer f = sum a_k x^k of degree d, the
    integer roots of the monic g(y) = a_d^(d-1) f(y / a_d) are a_d times the
    rational roots of f, inside Cauchy's bound (-B, B), B = |a_d| + max |a_k|.
    Bisection with a Sturm sequence of g's squarefree part narrows each real
    root to a unit interval, whose integer end is tested by evaluating g
    there (after Collins & Akritas 1976): at most d * (log2 B + 2) Sturm
    evaluations, so the time is polynomial in d and the coefficient bit
    length, and nothing is factored."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("rational_roots of the zero polynomial")
    if len(cs) == 1:
        return []
    ints = primitive(cleared(cs)[1])
    d, lead = len(ints) - 1, ints[-1]
    monic = [c * lead ** (d - 1 - k) for k, c in enumerate(ints[:-1])] + [1]
    chain = _sturm_chain(monic)
    if len(chain[-1]) > 1:   # g has repeated factors: use g / gcd(g, g')
        chain = _sturm_chain(_exact_quotient(monic, chain[-1]))
    bound = abs(lead) + max(abs(c) for c in ints[:-1])
    roots = []
    stack = [(-bound, bound, _sign_changes(chain, -bound), _sign_changes(chain, bound))]
    while stack:   # (lo, hi] holds v_lo - v_hi distinct real roots
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if hi - lo > 1:
            mid = (lo + hi) // 2
            v_mid = _sign_changes(chain, mid)
            stack += [(lo, mid, v_lo, v_mid), (mid, hi, v_mid, v_hi)]
        elif _horner(monic, hi) == 0:   # hi is the only integer in (lo, hi]
            roots.append(Fraction(hi, lead))
    return sorted(roots)


def sqrt_fraction(q: Fraction):
    """Exact rational square root, or None when q is not a perfect square."""
    q = as_fraction(q)
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)


# Strong pseudoprime tests to the primes up to 41 are exact below this bound
# (Sorenson & Webster 2015); above it a passed test only says "probable".
PRIME_PROOF_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Pollard-Brent steps spent on one composite before it is left unfactored
RHO_ITERATIONS = 1 << 16


def is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases up to 41: exact for n below
    PRIME_PROOF_BOUND, a probable-prime test above it."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int, budget: int):
    """A proper factor of the odd composite n, or None once `budget` steps
    of the map y -> y^2 + c have been spent (c = 1, 2, ... in turn)."""
    block = 128
    c = 1
    while budget > 0:
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1 and budget > 0:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(block, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += block
            budget -= 2 * r
            r *= 2
        if g == n:      # the block overshot: step through it again
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
        c += 1
    return None


def factor(n: int) -> tuple[dict[int, int], int]:
    """(primes, cofactor) with |n| = cofactor * prod(p^e). Every key of
    primes is proved prime; cofactor is 1 unless some part of |n| is a
    probable prime at or above PRIME_PROOF_BOUND or a composite that
    RHO_ITERATIONS Pollard-Brent steps did not split."""
    n = abs(n)
    if n == 0:
        raise ValueError("factor of zero")
    primes: dict[int, int] = {}
    # trial division below 1000; an odd composite never divides what is left
    for p in (2, *range(3, 1000, 2)):
        while n % p == 0:
            primes[p] = primes.get(p, 0) + 1
            n //= p
    cofactor = 1
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        root = math.isqrt(m)
        if root * root == m:
            pending += [root, root]
        elif is_prime(m):
            if m < PRIME_PROOF_BOUND:
                primes[m] = primes.get(m, 0) + 1
            else:
                cofactor *= m
        else:
            d = _pollard_brent(m, RHO_ITERATIONS)
            if d is None:
                cofactor *= m
            else:
                pending += [d, m // d]
    return dict(sorted(primes.items())), cofactor


def sqrt_mod_prime(a: int, p: int):
    """r with r^2 = a (mod p) for a prime p, by Tonelli-Shanks, or None
    when a is not a square modulo p."""
    a %= p
    if a == 0 or p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r

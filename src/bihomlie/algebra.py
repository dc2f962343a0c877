"""Structure-constant representation of BiHom-Lie algebras and exact
verification of their defining axioms.

A BiHom-Lie algebra is a 4-tuple (L, [.,.], alpha, beta) of a vector space,
a bilinear bracket, and two commuting linear maps satisfying

  (1) alpha o beta = beta o alpha
  (2) alpha([x,y]) = [alpha(x), alpha(y)]  and the same for beta
  (3) [beta(x), alpha(y)] = -[beta(y), alpha(x)]
  (4) [beta^2(x), [beta(y), alpha(z)]] + [beta^2(y), [beta(z), alpha(x)]]
        + [beta^2(z), [beta(x), alpha(y)]] = 0

All checks run on basis tuples; multilinearity makes that complete.
Matrices act on coordinate columns: the map sends the j-th basis vector to
the j-th matrix column. Construction never validates the axioms, so invalid
data can be loaded on purpose to exercise the checkers.

The checks run over the integers: c and each map M are multiplied by the lcm
of their denominators, d_c and d_M. Each identity is homogeneous in c and in
each map, so scaling keeps it once the degrees balance: (1), (3) and (4)
compare as they are; (2) has degree (1,1) in (M, c) on the left and (2,1) on
the right, so d_M M c[i][j] is compared with [M e_i, M e_j]. An n-vector v is
compared with zero as one integer, pack(v, w) = sum_r v_r 2^(r*w), which is
linear and is zero only for v = 0 while every |v_r| < 2^(w-1); w comes from
a bound on the entries of the compared vectors. With P[p][q] = pack(c[p][q]),
(4) at (i, j, k) is three dot products of po = (beta^2)^T P with the vectors
S[j][k] = [beta e_j, alpha e_k], and (2) at (i, j) compares c[i][j] . pack(M
columns) with entry (i, j) of M^T P M. A failure is located in the plain loop
order; a skew or Jacobi witness is the failing integer vector (unpacked) over
its scale, a multiplicativity witness (M c[i][j] and [M e_i, M e_j]) is read
off the views, and a commuting witness is recomputed in Fraction arithmetic.
Verification is kept per object (the report, or the verified induced tensor
of twist.require_axioms, on the BiHomAlgebra, the Lie verdict on the
StructureTensor), never keyed by content, and so are the scaled views and
their heights. Twisting, inducing and changing basis are one kernel,
transform_tensor, on those views: each c[p][q] (o c[p][q] with an output map
o) is packed into one integer, and the n x n packed matrix is contracted over
p and over q by two integer products, then unpacked. Brackets of vectors
have one evaluator, _bracket_matrix on the view: ad_matrix,
right_bracket_matrix and StructureTensor.bracket, ad(x) y. So no code path
builds the Fraction grid c; only bracket_basis and catalog.printed_L3_tensor
read it.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import mul
from typing import NamedTuple

from .errors import AxiomViolation, DimensionMismatch
from .exactlin import (
    MatrixQ,
    Vector,
    cleared,
    fractions_over,
    int_product,
    invert,
    pack,
    pack_width,
    reshape,
    unpack,
    vector,
    zero_vector,
)


class StructureTensor:
    """Bracket data c[i][j][k] with [e_i, e_j] = sum_k c[i][j][k] e_k.

    No symmetry is imposed: BiHom skew-symmetry is a twisted relation, not
    c[i][j][k] = -c[j][i][k]. It is kept as its view (slot _scaled), the
    Fraction grid (slot _c) once given or read. Slot _lie keeps the
    is_lie_algebra verdict, slots _killing and _killing_det the
    analysis.killing_form result and its determinant.
    """

    __slots__ = ("dim", "_c", "_lie", "_killing", "_killing_det", "_scaled", "_height")

    def __init__(self, c):
        grid = tuple(tuple(vector(row) for row in plane) for plane in c)
        n = len(grid)
        if any(len(plane) != n for plane in grid) or any(
                len(row) != n for plane in grid for row in plane):
            raise DimensionMismatch("structure tensor must be dim x dim x dim")
        object.__setattr__(self, "_c", grid)
        d, flat = cleared([x for plane in grid for row in plane for x in row])
        self._keep(d, reshape(flat, n * n, n))

    def __setattr__(self, name, value):
        raise AttributeError("StructureTensor is immutable")

    @classmethod
    def from_scaled(cls, d: int, planes) -> "StructureTensor":
        """The tensor planes/d of integer planes; no Fraction is built."""
        obj = object.__new__(cls)
        obj._keep(*MatrixQ.from_scaled(d, [row for plane in planes for row in plane]).scaled())
        return obj

    def _keep(self, d: int, rows):
        """Keep the view of the n^2 x n rows over d, which are in lowest terms."""
        n = len(rows[0]) if rows else 0
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "_scaled", (d, reshape(rows, n, n)))

    def scaled(self) -> tuple[int, tuple]:
        """(d, planes): d > 0 the lcm of the denominators and planes[i][j][k]
        the integers d * c[i][j][k], with gcd(d, entries) = 1 as for MatrixQ."""
        return self._scaled

    def height(self) -> int:
        """The largest |entry| of the view, kept (slot _height) once read."""
        if not hasattr(self, "_height"):
            object.__setattr__(self, "_height", _height(chain.from_iterable(self._scaled[1])))
        return self._height

    @property
    def c(self) -> tuple[tuple[Vector, ...], ...]:
        """The Fraction grid, built from the view on first read."""
        if not hasattr(self, "_c"):
            d, planes = self._scaled
            object.__setattr__(self, "_c", tuple(tuple(fractions_over(d, row) for row in plane)
                                                 for plane in planes))
        return self._c

    @classmethod
    def zero(cls, dim: int) -> "StructureTensor":
        z = zero_vector(dim)
        return cls([[z] * dim for _ in range(dim)])

    @classmethod
    def from_brackets(cls, dim: int, brackets: dict) -> "StructureTensor":
        """Build from a sparse {(i, j): coefficient list} table."""
        grid = [[list(zero_vector(dim)) for _ in range(dim)] for _ in range(dim)]
        for (i, j), coeffs in brackets.items():
            grid[i][j] = vector(coeffs)
        return cls(grid)

    def bracket_basis(self, i: int, j: int) -> Vector:
        return self.c[i][j]

    def bracket(self, x: Vector, y: Vector) -> Vector:
        """[x, y] = ad(x) y of coordinate vectors, on the integer views."""
        if len(y) != self.dim:
            raise DimensionMismatch("vector length does not match algebra dimension")
        (d, rows), (dy, ys) = ad_matrix(self, x).scaled(), cleared(y)
        return fractions_over(d * dy, [sum(map(mul, row, ys)) for row in rows])

    def is_zero(self) -> bool:
        return not any(map(any, chain.from_iterable(self.scaled()[1])))

    def __eq__(self, other):
        return isinstance(other, StructureTensor) and self.scaled() == other.scaled()

    def __hash__(self):
        return hash(self.scaled())

    def __repr__(self):
        return f"StructureTensor(dim={self.dim})"


class BiHomAlgebra:
    """The 4-tuple (L, [.,.], alpha, beta) in a fixed basis, equal to another
    exactly when the five fields are. Slots _induced and _axiom_report keep
    the twist.induce_lie result (or its NotRegular) and the check_all report."""

    __slots__ = ("dim", "tensor", "alpha", "beta", "basis_names", "_induced", "_axiom_report")

    def __init__(self, dim: int, tensor: StructureTensor, alpha: MatrixQ, beta: MatrixQ,
                 basis_names: tuple[str, ...] = ()):
        if tensor.dim != dim:
            raise DimensionMismatch("tensor dimension differs from algebra dimension")
        for name, m in (("alpha", alpha), ("beta", beta)):
            if not (m.is_square and m.rows == dim):
                raise DimensionMismatch(f"{name} must be {dim}x{dim}")
        if not basis_names:
            basis_names = tuple(f"e{i + 1}" for i in range(dim))
        elif len(basis_names) != dim:
            raise DimensionMismatch("one basis name per dimension required")
        for name, value in zip(self.__slots__, (dim, tensor, alpha, beta, basis_names)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("BiHomAlgebra is immutable")

    def _key(self) -> tuple:
        return self.dim, self.tensor, self.alpha, self.beta, self.basis_names

    def __eq__(self, other):
        return isinstance(other, BiHomAlgebra) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"BiHomAlgebra(dim={self.dim}, basis_names={self.basis_names})"


class Witness(NamedTuple):
    """Where an identity failed: basis indices plus both sides' coordinates."""

    indices: tuple[int, ...]
    lhs: Vector
    rhs: Vector
    detail: str = ""


class CheckResult(NamedTuple):
    ok: bool
    witness: Witness | None = None

    def __bool__(self):
        return self.ok


class AxiomReport(NamedTuple):
    commuting: CheckResult
    multiplicative_alpha: CheckResult
    multiplicative_beta: CheckResult
    skew: CheckResult
    jacobi: CheckResult

    NAMES = ("commuting", "multiplicative_alpha", "multiplicative_beta", "skew", "jacobi")

    @property
    def all_pass(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        return [n for n in self.NAMES if not getattr(self, n).ok]

    def require(self) -> None:
        """Raise AxiomViolation naming the failing checks, if any."""
        if self.failures():
            raise AxiomViolation("input is not a verified BiHom-Lie algebra; "
                                 "failing checks: " + ", ".join(self.failures()))


def _fail(indices, lhs, rhs, detail) -> CheckResult:
    return CheckResult(False, Witness(indices=indices, lhs=lhs, rhs=rhs, detail=detail))


def _height(rows) -> int:
    """The largest |x| over integer rows."""
    return max(map(abs, chain.from_iterable(rows)))


def homomorphism_failure(m: MatrixQ, src: StructureTensor,
                         dst: StructureTensor | None = None) -> tuple[int, int] | None:
    """The first basis pair (i, j), in row-major order, with
    m([e_i, e_j]_src) != [m(e_i), m(e_j)]_dst, or None when m is a bracket
    homomorphism from src to dst (dst defaults to src)."""
    dst = dst or src
    if not (m.is_square and m.rows == src.dim == dst.dim):
        raise DimensionMismatch(f"map of shape {m.rows}x{m.cols} between tensors of "
                                f"dimension {src.dim} and {dst.dim}")
    (d_src, c_src), (d_dst, c_dst) = src.scaled(), dst.scaled()
    dm, rows = m.scaled()
    g, n, h = math.gcd(d_src, d_dst), len(rows), m.height()
    lhs_k, rhs_k, cols = dm * d_dst // g, d_src // g, tuple(zip(*rows))
    w = pack_width(lhs_k * n * h * src.height() + rhs_k * n * n * h * h * dst.height())
    images = [lhs_k * pack(col, w) for col in cols]         # the packed lhs_k m(e_s)
    packed = [[pack(v, w) for v in plane] for plane in c_dst]
    brackets = int_product(int_product(cols, packed), rows)   # pack([m e_i, m e_j]_dst)
    return next(((i, j) for i, (plane, row) in enumerate(zip(c_src, brackets))
                 for j, (v, b) in enumerate(zip(plane, row))
                 if sum(map(mul, v, images)) != rhs_k * b), None)


def _contract(t, left, right, out=None) -> list[list[list[int]]]:
    """Integer planes sum l[p][i] r[q][j] (o[s][k]) c[p][q][k] of the views
    c, l, r (and o) of t, left, right (and out), packed as in the module note
    at the width of n^2 |l| |r| |c| (times n |o|), which bounds every entry."""
    c, n, m = t.scaled()[1], t.dim, t.dim if out is None else out.rows
    w = pack_width(n * n * left.height() * right.height() * t.height()
                   * (1 if out is None else n * out.height()))
    if out is None:
        packed = [[pack(v, w) for v in plane] for plane in c]
    else:
        o = [pack(col, w) for col in zip(*out.scaled()[1])]
        packed = [[sum(map(mul, v, o)) for v in plane] for plane in c]
    return [[unpack(x, w, m) for x in row] for row in int_product(
        int_product(tuple(zip(*left.scaled()[1])), packed), right.scaled()[1])]


def _skew_jacobi(t: StructureTensor, alpha, beta, details) -> list[CheckResult]:
    """Axiom (3) on pairs i <= j and (4) on triples i < j < k, i <= j <= k while
    (3) fails, with S and po of the module note; None maps are identities.
    Given (3), the cyclic sum is invariant under cyclic permutations and
    changes sign under transpositions, so it is zero when two indices agree.
    A witness is read off S (over ds) or the unpacked sum (over ds * dp)."""
    dc, c = t.scaled()
    n, hc = len(c), t.height()
    if alpha is None:
        s, b2, hl, ds, dp = c, None, hc, dc, dc
    else:
        da, (db, b) = alpha.scaled()[0], beta.scaled()
        s, b2 = _contract(t, beta, alpha), int_product(b, b)
        hl, ds, dp = n * _height(b2) * hc, dc * da * db, dc * db * db
    skew = next(((i, j) for i in range(n) for j in range(i, n)
                 if any(x + y for x, y in zip(s[i][j], s[j][i]))), None)
    w = pack_width(3 * n * hl * (hc if b2 is None else _height(chain.from_iterable(s))))
    po = [[pack(v, w) for v in plane] for plane in c]
    if b2 is not None:
        po = int_product(tuple(zip(*b2)), po)

    def cyclic(i, j, k):   # pack of the cyclic sum at (i, j, k), over ds * dp
        return (sum(map(mul, po[i], s[j][k])) + sum(map(mul, po[j], s[k][i]))
                + sum(map(mul, po[k], s[i][j])))

    jacobi = next(((i, j, k) for i in range(n) for j in range(i + (skew is None), n)
                   for k in range(j + (skew is None), n) if cyclic(i, j, k)), None)
    i, j = skew or (0, 0)
    return [_fail(skew, fractions_over(ds, s[i][j]), fractions_over(ds, [-x for x in s[j][i]]),
                  details[0]) if skew else CheckResult(True),
            _fail(jacobi, fractions_over(ds * dp, unpack(cyclic(*jacobi), w, n)),
                  zero_vector(n), details[1]) if jacobi else CheckResult(True)]


def _multiplicative(t: StructureTensor, m: MatrixQ, name: str) -> CheckResult:
    ij = homomorphism_failure(m, t)
    if ij is None:
        return CheckResult(True)
    (dc, c), (dm, rows), (i, j) = t.scaled(), m.scaled(), ij
    lhs = m * MatrixQ.from_scaled(dc, [[x] for x in c[i][j]])   # M c[i][j] and [M e_i, M e_j]
    rhs = ad_matrix(t, m.column(i)) * MatrixQ.from_scaled(dm, [[row[j]] for row in rows])
    return _fail(ij, lhs.column(0), rhs.column(0),
                 f"{name}([e_i,e_j]) != [{name}(e_i),{name}(e_j)]")


def _commuting(a: BiHomAlgebra) -> CheckResult:
    x, y = a.alpha.scaled()[1], a.beta.scaled()[1]
    if int_product(x, y) == int_product(y, x):
        return CheckResult(True)
    ab, ba = a.alpha * a.beta, a.beta * a.alpha
    j = next(j for r1, r2 in zip(ab.entries, ba.entries) for j in range(a.dim) if r1[j] != r2[j])
    return _fail((j,), ab.column(j), ba.column(j), "alpha(beta(e_j)) != beta(alpha(e_j))")


def _axiom_kernel(a: BiHomAlgebra) -> AxiomReport:
    return AxiomReport(_commuting(a), _multiplicative(a.tensor, a.alpha, "alpha"),
                       _multiplicative(a.tensor, a.beta, "beta"), *_skew_jacobi(
                           a.tensor, a.alpha, a.beta,
                           ("[beta(e_i),alpha(e_j)] != -[beta(e_j),alpha(e_i)]",
                            "cyclic BiHom-Jacobi sum is nonzero")))


def _lie_kernel(t: StructureTensor) -> CheckResult:
    skew, jacobi = _skew_jacobi(t, None, None, (
        "[e_i,e_j] != -[e_j,e_i]", "classical Jacobi sum is nonzero"))
    return jacobi if skew.ok else skew


def check_all(a: BiHomAlgebra) -> AxiomReport:
    """The four axiom checks, run once per algebra object and kept on it."""
    if not hasattr(a, "_axiom_report"):
        object.__setattr__(a, "_axiom_report", _axiom_kernel(a))
    return a._axiom_report


def is_lie_algebra(t: StructureTensor) -> CheckResult:
    """Ordinary skew-symmetry, then the classical Jacobi identity; run once
    per tensor object and kept on it."""
    if not hasattr(t, "_lie"):
        object.__setattr__(t, "_lie", _lie_kernel(t))
    return t._lie


def _report_field(name: str, doc: str):
    def check(a: BiHomAlgebra) -> CheckResult:   # check_[bihom_]<report field>
        return getattr(check_all(a), name.removeprefix("check_").removeprefix("bihom_"))
    check.__name__, check.__qualname__, check.__doc__ = name, name, doc
    return check


check_commuting = _report_field("check_commuting", "Axiom (1): alpha and beta commute.")
check_multiplicative_alpha = _report_field("check_multiplicative_alpha", "Axiom (2), alpha half.")
check_multiplicative_beta = _report_field("check_multiplicative_beta", "Axiom (2), beta half.")
check_bihom_skew = _report_field("check_bihom_skew", "Axiom (3) on basis pairs i <= j.")
check_bihom_jacobi = _report_field("check_bihom_jacobi", "Axiom (4) on triples i <= j <= k.")


def check_multiplicative(a: BiHomAlgebra) -> CheckResult:
    """Axiom (2) for both maps; the witness names the failing map."""
    return check_multiplicative_alpha(a) and check_multiplicative_beta(a)


def is_abelian(t: StructureTensor) -> bool:
    return t.is_zero()


def _bracket_matrix(t: StructureTensor, x, right: bool) -> MatrixQ:
    """The matrix whose column j is sum_i x_i planes[i][j], planes the
    tensor's scaled view (transposed in its first two indices when right),
    over the lcm of both denominators."""
    x = vector(x)
    if len(x) != t.dim:
        raise DimensionMismatch("vector length does not match algebra dimension")
    (dc, c), (dx, xs) = t.scaled(), cleared(x)
    planes = tuple(zip(*c)) if right else c
    terms = [(xi, planes[i]) for i, xi in enumerate(xs) if xi]
    return MatrixQ.from_scaled(dc * dx, [[sum(xi * plane[j][k] for xi, plane in terms)
                                          for j in range(t.dim)] for k in range(t.dim)])


def ad_matrix(t: StructureTensor, x) -> MatrixQ:
    """Matrix of w -> [x, w]: column j is sum_i x_i c[i][j]."""
    return _bracket_matrix(t, x, False)


def right_bracket_matrix(t: StructureTensor, x) -> MatrixQ:
    """Matrix of w -> [w, x]: column j is sum_i x_i c[j][i]."""
    return _bracket_matrix(t, x, True)


def transform_tensor(t: StructureTensor, left: MatrixQ, right: MatrixQ,
                     out: MatrixQ | None = None) -> StructureTensor:
    """The tensor c'[i][j] = out [left e_i, right e_j]: left and right are
    n x d, out is d x n and defaults to the identity (n = t.dim). With B the
    basis columns of a subalgebra and P its pivot selector, (t, B, B, P) is
    the restriction. The views are contracted by _contract, packed over the
    output index, and the result is kept as a view."""
    n, d = t.dim, left.cols
    if [(left.rows, left.cols), (right.rows, right.cols),
            (d, d) if out is None else (out.rows, out.cols)] != [(n, d), (n, d), (d, n)]:
        raise DimensionMismatch(f"maps must be {n}x{d}, {n}x{d} and {d}x{n} "
                                f"for a tensor of dimension {n}")
    do = 1 if out is None else out.scaled()[0]
    return StructureTensor.from_scaled(t.scaled()[0] * left.scaled()[0] * right.scaled()[0] * do,
                                       _contract(t, left, right, out))


def conjugate_tensor(t: StructureTensor, basis: MatrixQ) -> StructureTensor:
    """The tensor in the new basis whose vectors are the columns of `basis`
    (coordinates in the old basis): transform_tensor(t, P, P, P^-1)."""
    if not (basis.is_square and basis.rows == t.dim):
        raise DimensionMismatch("change of basis must be square of matching size")
    return transform_tensor(t, basis, basis, invert(basis))


def conjugate_algebra(a: BiHomAlgebra, basis: MatrixQ) -> BiHomAlgebra:
    """Rewrite the whole 4-tuple in the basis given by the columns of `basis`,
    inverting it once."""
    inv = invert(basis)
    return BiHomAlgebra(dim=a.dim, tensor=transform_tensor(a.tensor, basis, basis, inv),
                        alpha=inv * a.alpha * basis, beta=inv * a.beta * basis,
                        basis_names=a.basis_names)

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
each map, so scaling keeps it once the degrees balance: (1), (3) and (4) have
degrees (1,1) in (alpha, beta), (1,1,1) and (1,3,2) in (alpha, beta, c) in
every term and compare as they are; (2) has degree (1,1) in (M, c) on the left
and (2,1) on the right, so d_M M c[i][j] is compared with [M e_i, M e_j]. The
products use operators built once: the rows of L(v)[r][q] = sum_p v_p c[p][q][r]
for the columns of alpha, beta and beta^2, and S[j][k] = [beta e_j, alpha e_k].
A failure is located in the plain loop order and its witness recomputed in
Fraction arithmetic. Verification is kept per object (the report on the
BiHomAlgebra, the Lie verdict on the StructureTensor), never keyed by content,
and so are the scaled views (d, d*c) and (d, d*M). Twisting, inducing and
changing basis are one kernel, transform_tensor, on those views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

from .errors import DimensionMismatch
from .exactlin import (
    MatrixQ,
    Q,
    Vector,
    fractions_over,
    int_product,
    invert,
    rank,
    reshape,
    vec_add,
    vec_is_zero,
    vec_scale,
    vector,
    zero_vector,
)


class StructureTensor:
    """Bracket data c[i][j][k] with [e_i, e_j] = sum_k c[i][j][k] e_k.

    No symmetry is imposed: BiHom skew-symmetry is a twisted relation, not
    c[i][j][k] = -c[j][i][k]. Slot _lie keeps the is_lie_algebra verdict and
    slot _scaled the view that scaled() returns.
    """

    __slots__ = ("dim", "c", "_lie", "_scaled")

    def __init__(self, c):
        grid = tuple(tuple(vector(row) for row in plane) for plane in c)
        n = len(grid)
        if any(len(plane) != n for plane in grid) or any(
                len(row) != n for plane in grid for row in plane):
            raise DimensionMismatch("structure tensor must be dim x dim x dim")
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "c", grid)

    def __setattr__(self, name, value):
        raise AttributeError("StructureTensor is immutable")

    def scaled(self) -> tuple[int, tuple]:
        """(d, planes): d the lcm of the denominators and planes[i][j][k] the
        integers d * c[i][j][k]. Computed once per tensor."""
        if not hasattr(self, "_scaled"):
            d, rows = MatrixQ([row for plane in self.c for row in plane]).scaled()
            object.__setattr__(self, "_scaled", (d, reshape(rows, self.dim, self.dim)))
        return self._scaled

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
        """Bilinear extension of the tensor to coordinate vectors."""
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("vector length does not match algebra dimension")
        out = list(zero_vector(self.dim))
        for xi, row in zip(x, self.c):
            if xi != 0:
                for yj, ck in zip(y, row):
                    if yj != 0:
                        coeff = xi * yj
                        for k, v in enumerate(ck):
                            if v != 0:
                                out[k] += coeff * v
        return tuple(out)

    def is_zero(self) -> bool:
        return all(vec_is_zero(row) for plane in self.c for row in plane)

    def __eq__(self, other):
        return isinstance(other, StructureTensor) and self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __repr__(self):
        return f"StructureTensor(dim={self.dim})"


def default_basis_names(dim: int) -> tuple[str, ...]:
    return tuple(f"e{i + 1}" for i in range(dim))


@dataclass(frozen=True)
class BiHomAlgebra:
    """The 4-tuple (L, [.,.], alpha, beta) in a fixed basis."""

    dim: int
    tensor: StructureTensor
    alpha: MatrixQ
    beta: MatrixQ
    basis_names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.tensor.dim != self.dim:
            raise DimensionMismatch("tensor dimension differs from algebra dimension")
        for name, m in (("alpha", self.alpha), ("beta", self.beta)):
            if not (m.is_square and m.rows == self.dim):
                raise DimensionMismatch(f"{name} must be {self.dim}x{self.dim}")
        if not self.basis_names:
            object.__setattr__(self, "basis_names", default_basis_names(self.dim))
        elif len(self.basis_names) != self.dim:
            raise DimensionMismatch("one basis name per dimension required")

    def bracket(self, x: Vector, y: Vector) -> Vector:
        return self.tensor.bracket(x, y)


def bracket(a: BiHomAlgebra, x, y) -> Vector:
    """Bracket of two coordinate vectors in the algebra's basis."""
    return a.tensor.bracket(vector(x), vector(y))


@dataclass(frozen=True)
class Witness:
    """Where an identity failed: basis indices plus both sides' coordinates."""

    indices: tuple[int, ...]
    lhs: Vector
    rhs: Vector
    detail: str = ""


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    witness: Witness | None = None

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class AxiomReport:
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


def _fail(indices, lhs, rhs, detail) -> CheckResult:
    return CheckResult(False, Witness(indices=indices, lhs=lhs, rhs=rhs, detail=detail))


def _ad_rows(left, v) -> list[list[int]]:
    """Rows of L(v) = sum_p v_p ad(e_p)."""
    out = [[0] * len(v) for _ in v]
    for p, x in enumerate(v):
        if x:
            out = [[a + x * b for a, b in zip(orow, prow)] for orow, prow in zip(out, left[p])]
    return out


def homomorphism_failure(m: MatrixQ, src: StructureTensor,
                         dst: StructureTensor | None = None) -> tuple[int, int] | None:
    """The first basis pair (i, j), in row-major order, with
    m([e_i, e_j]_src) != [m(e_i), m(e_j)]_dst, or None when m is a bracket
    homomorphism from src to dst (dst defaults to src)."""
    if not (m.is_square and m.rows == src.dim) or (dst is not None and dst.dim != src.dim):
        raise DimensionMismatch(f"vector of length {src.dim} for {m.rows}x{m.cols}")
    (d_src, c_src), (d_dst, c_dst) = src.scaled(), (dst or src).scaled()
    left = [list(zip(*plane)) for plane in c_dst]     # left[p][r][q] = c[p][q][r]
    dm, rows = m.scaled()
    g = math.gcd(d_src, d_dst)
    lhs_k, rhs_k, cols = dm * d_dst // g, d_src // g, list(zip(*rows))
    for i, col in enumerate(cols):
        ad = _ad_rows(left, col)
        for j, v in enumerate(cols):
            if any(lhs_k * sum(map(mul, row, c_src[i][j])) != rhs_k * sum(map(mul, arow, v))
                   for row, arow in zip(rows, ad)):
                return i, j
    return None


def _skew_jacobi(t: StructureTensor, alpha, beta, details) -> list[CheckResult]:
    """Axiom (3) on pairs i <= j and (4) on triples i <= j <= k, from
    S[i][j] = L(beta e_i) alpha e_j and L(beta^2 e_i) S[j][k]; None maps are
    identities. Sorted triples suffice given (3): the cyclic sum is invariant
    under cyclic permutations and then changes sign under transpositions."""
    c = t.scaled()[1]
    left, n = [list(zip(*plane)) for plane in c], len(c)
    if alpha is None:
        s, outer = c, left
        alpha = beta = MatrixQ.identity(n)
    else:
        acols, b = list(zip(*alpha.scaled()[1])), beta.scaled()[1]
        s = [[[sum(map(mul, row, v)) for row in ad] for v in acols]
             for ad in (_ad_rows(left, v) for v in zip(*b))]
        outer = [_ad_rows(left, v) for v in zip(*int_product(b, b))]
    skew = next(((i, j) for i in range(n) for j in range(i, n)
                 if any(x + y for x, y in zip(s[i][j], s[j][i]))), None)
    jacobi = next(((i, j, k) for i in range(n) for j in range(i, n) for k in range(j, n)
                   if any(sum(map(mul, x, s[j][k])) + sum(map(mul, y, s[k][i]))
                          + sum(map(mul, z, s[i][j]))
                          for x, y, z in zip(outer[i], outer[j], outer[k]))), None)

    def br(i, j):
        return t.bracket(beta.column(i), alpha.column(j))

    def term(i, j, k):
        return t.bracket((beta * beta).column(i), br(j, k))

    i, j, k = jacobi or (0, 0, 0)
    return [_fail(skew, br(*skew), vec_scale(-1, br(*skew[::-1])), details[0])
            if skew else CheckResult(True),
            _fail(jacobi, vec_add(vec_add(term(i, j, k), term(j, k, i)), term(k, i, j)),
                  zero_vector(n), details[1]) if jacobi else CheckResult(True)]


def _multiplicative(t: StructureTensor, m: MatrixQ, name: str) -> CheckResult:
    ij = homomorphism_failure(m, t)
    return CheckResult(True) if ij is None else _fail(
        ij, m.apply(t.bracket_basis(*ij)), t.bracket(m.column(ij[0]), m.column(ij[1])),
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
    if "_axiom_report" not in a.__dict__:
        object.__setattr__(a, "_axiom_report", _axiom_kernel(a))
    return a.__dict__["_axiom_report"]


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


def is_regular(a: BiHomAlgebra) -> bool:
    """True iff both structure maps are invertible."""
    return rank(a.alpha) == a.dim and rank(a.beta) == a.dim


def _bracket_matrix(t: StructureTensor, x, planes) -> MatrixQ:
    """The matrix whose column j is sum_i x_i planes[i][j]."""
    x = vector(x)
    if len(x) != t.dim:
        raise DimensionMismatch("vector length does not match algebra dimension")
    terms = [(xi, planes[i]) for i, xi in enumerate(x) if xi]
    return MatrixQ([[sum((xi * plane[j][k] for xi, plane in terms), Q(0))
                     for j in range(t.dim)] for k in range(t.dim)])


def ad_matrix(t: StructureTensor, x) -> MatrixQ:
    """Matrix of w -> [x, w]: column j is sum_i x_i c[i][j]."""
    return _bracket_matrix(t, x, t.c)


def right_bracket_matrix(t: StructureTensor, x) -> MatrixQ:
    """Matrix of w -> [w, x]: column j is sum_i x_i c[j][i]."""
    return _bracket_matrix(t, x, tuple(zip(*t.c)))


def transform_tensor(t: StructureTensor, left: MatrixQ, right: MatrixQ,
                     out: MatrixQ | None = None) -> StructureTensor:
    """The tensor c'[i][j] = out [left e_i, right e_j]: left and right are
    n x d, out is d x n and defaults to the identity (n = t.dim). With B the
    basis columns of a subalgebra and P its pivot selector, (t, B, B, P) is
    the restriction. The views are contracted over p, then q, then k in
    sum l[p][i] r[q][j] o[s][k] c[p][q][k], one division per entry."""
    n, d = t.dim, left.cols
    if [(left.rows, left.cols), (right.rows, right.cols),
            (d, d) if out is None else (out.rows, out.cols)] != [(n, d), (n, d), (d, n)]:
        raise DimensionMismatch(f"maps must be {n}x{d}, {n}x{d} and {d}x{n} "
                                f"for a tensor of dimension {n}")
    (dc, c), (dl, l), (dr, r) = t.scaled(), left.scaled(), right.scaled()
    do, ot = (1, None) if out is None else (out.scaled()[0], tuple(zip(*out.scaled()[1])))
    # u[i][q*n + k] = sum_p l[p][i] c[p][q][k]
    u = int_product(tuple(zip(*l)), [[x for row in plane for x in row] for plane in c])
    rt, den, planes = tuple(zip(*r)), dc * dl * dr * do, []
    for ui in u:
        v = int_product(rt, reshape(ui, n, n))      # v[j][k] = sum_q r[q][j] u[i][q][k]
        v = v if ot is None else int_product(v, ot)  # v[j][s] = sum_k v[j][k] o[s][k]
        planes.append([fractions_over(den, row) for row in v])
    return StructureTensor(planes)


def conjugate_tensor(t: StructureTensor, basis: MatrixQ,
                     inverse: MatrixQ | None = None) -> StructureTensor:
    """The tensor in the new basis whose vectors are the columns of `basis`
    (coordinates in the old basis): transform_tensor(t, P, P, P^-1).
    `inverse` may carry invert(basis)."""
    if not (basis.is_square and basis.rows == t.dim):
        raise DimensionMismatch("change of basis must be square of matching size")
    return transform_tensor(t, basis, basis, invert(basis) if inverse is None else inverse)


def conjugate_algebra(a: BiHomAlgebra, basis: MatrixQ) -> BiHomAlgebra:
    """Rewrite the whole 4-tuple in the basis given by the columns of `basis`."""
    inv = invert(basis)
    return BiHomAlgebra(dim=a.dim, tensor=conjugate_tensor(a.tensor, basis, inv),
                        alpha=inv * a.alpha * basis, beta=inv * a.beta * basis,
                        basis_names=a.basis_names)

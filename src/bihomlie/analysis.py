"""Structural analysis: ideals, simplicity, semisimplicity of the induced
Lie algebra, simple-ideal decomposition, structure-map permutations, and
type-candidate enumeration.

Simplicity is decided by the Burnside criterion. A subspace is an ideal
exactly when it is invariant under bracketing against every basis vector
and under both structure maps; over an algebraically closed ground field
there is no proper common invariant subspace iff the unital matrix algebra
generated by those operators is the full endomorphism algebra, and the
rational dimension of that span equals its complex dimension because all
generators are rational. The span is computed over the integers: scaling a
generator by the lcm of its denominators multiplies every product it enters
by a nonzero scalar, which changes no span. The Killing form is contracted
from the tensor's scaled view. A semisimple algebra is decomposed one split
at a time (de Graaf, Lie Algebras: Theory and Algorithms, 2000, ch. 1): a
proper ideal and its Killing complement, each restricted to the coordinates
of its RREF basis and decomposed as a Lie algebra of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .algebra import (
    BiHomAlgebra,
    StructureTensor,
    ad_matrix,
    check_all,
    is_abelian,
    is_lie_algebra,
    right_bracket_matrix,
    transform_tensor,
)
from .errors import (
    AxiomViolation,
    DimensionMismatch,
    IrrationalSplit,
    NotLie,
    NotPermuted,
    NotSemisimple,
)
from .exactlin import (
    MatrixQ,
    SpanBuilder,
    Subspace,
    Vector,
    basis_vector,
    char_poly,
    cleared,
    det,
    kernel,
    lift_coordinates,
    primitive,
    rank,
    rational_roots,
    vector,
)


@dataclass(frozen=True)
class IdealReport:
    subspace: Subspace
    is_subalgebra: bool
    is_ideal: bool
    failing_witness: tuple[int, Vector] | None = None


@dataclass(frozen=True)
class Decomposition:
    """Minimal ideals of the induced Lie algebra plus the permutations the
    structure maps induce on them."""

    ideals: tuple[Subspace, ...]
    sigma_alpha: tuple[int, ...]
    sigma_beta: tuple[int, ...]
    m: int

    @property
    def m_warning(self) -> bool:
        # m = 2 is structurally consistent in examples even though the
        # decomposition theory singles it out; flagged, never rejected.
        return self.m == 2


_SERIES_ORDER = ("A", "B", "C", "D", "G2", "F4", "E6", "E7", "E8")


@dataclass(frozen=True)
class TypeLabel:
    """Candidate (series, rank, m): m simple ideals of the given type."""

    series: str
    rank: int
    m: int

    def __str__(self):
        if self.series in ("G2", "F4", "E6", "E7", "E8"):
            return f"({self.series}, m={self.m})"
        return f"({self.series}{self.rank}, m={self.m})"


def _spin(ops: list[MatrixQ], seeds: list[Vector]) -> Subspace:
    """Close the span of the seeds under the operators, applied through
    their integer scaled views (a nonzero scalar changes no span)."""
    builder = SpanBuilder(ops[0].cols)
    mats = [op.scaled()[1] for op in ops]
    work = [cleared(s)[1] for s in seeds if builder.add(s)]
    while work:
        v = work.pop()
        for m in mats:
            w = primitive([sum(map(mul, row, v)) for row in m])
            if builder.add(w):
                work.append(w)
    return Subspace(builder.ambient_dim, builder.rows.values())


def ideal_closure(a: BiHomAlgebra, v) -> Subspace:
    """Smallest subspace containing v that is stable under both structure
    maps and under bracketing with the whole algebra on either side."""
    report = check_all(a)
    if not report.all_pass:
        raise AxiomViolation("ideal_closure requires a verified algebra; failing: "
                             + ", ".join(report.failures()))
    return _spin(burnside_generators(a), [vector(v)])


def is_ideal(a: BiHomAlgebra, s: Subspace) -> IdealReport:
    """Check map-stability and bracket-stability of s on basis generators."""
    if s.ambient_dim != a.dim:
        raise DimensionMismatch("subspace ambient dimension differs from algebra")
    gens = s.basis_vectors()
    for gi, g in enumerate(gens):
        for m in (a.alpha, a.beta):
            img = m.apply(g)
            if not s.contains(img):
                return IdealReport(s, False, False, (gi, img))
    # subalgebra: brackets of generators stay inside; ideal: brackets against
    # all basis vectors stay inside
    basis = [basis_vector(a.dim, k) for k in range(a.dim)]
    for others, is_sub in ((gens, False), (basis, True)):
        witness = next(((gi, img) for gi, g in enumerate(gens) for h in others
                        for img in (a.tensor.bracket(g, h), a.tensor.bracket(h, g))
                        if not s.contains(img)), None)
        if witness is not None:
            return IdealReport(s, is_sub, False, witness)
    return IdealReport(s, True, True, None)


def enveloping_dim(gens: list[MatrixQ]) -> int:
    """Dimension of the span of all finite products of the generators
    together with the identity (closure under left multiplication).

    Computed over the integers: each generator is replaced by its scaled
    view d*g, which gives every word a nonzero scalar, so the span is
    unchanged. Words are walked breadth first, made primitive, and reduced
    into an integer SpanBuilder; the walk stops once the span is full."""
    if not gens:
        raise DimensionMismatch("at least one generator required")
    n = gens[0].rows
    for g in gens:
        if not (g.is_square and g.rows == n):
            raise DimensionMismatch("generators must be square of one size")
    int_gens = [g.scaled()[1] for g in gens]
    identity = [int(i == j) for i in range(n) for j in range(n)]
    span = SpanBuilder(n * n)
    span.add(identity)
    work = [identity]
    while work and span.dim < n * n:
        w = work.pop(0)
        wcols = [w[j::n] for j in range(n)]
        for g in int_gens:
            p = primitive([sum(map(mul, row, col)) for row in g for col in wcols])
            if span.add(p):
                if span.dim == n * n:
                    break
                work.append(p)
    return span.dim


def burnside_generators(a: BiHomAlgebra) -> list[MatrixQ]:
    """Operators whose common invariant subspaces are exactly the ideals:
    bracketing against every basis vector (both sides, since the BiHom
    bracket is not symmetric) plus the two structure maps. The identity is
    not among them: enveloping_dim starts its span at the identity."""
    return [f(a.tensor, basis_vector(a.dim, k)) for k in range(a.dim)
            for f in (right_bracket_matrix, ad_matrix)] + [a.alpha, a.beta]


def is_simple(a: BiHomAlgebra) -> bool:
    """No proper ideals and not abelian, decided by Burnside: the bracketing
    operators together with alpha and beta must generate the full matrix
    algebra as a unital algebra."""
    report = check_all(a)
    if not report.all_pass:
        raise AxiomViolation("is_simple requires a verified algebra; failing: "
                             + ", ".join(report.failures()))
    if is_abelian(a.tensor):
        return False
    return enveloping_dim(burnside_generators(a)) == a.dim * a.dim


def killing_form(t: StructureTensor) -> MatrixQ:
    """K[i][j] = trace(ad(e_i) ad(e_j)) of an ordinary Lie algebra; ad(e_i)
    holds c[i][l][k] at (k, l), so K[i][j] = sum_{k,l} c[i][l][k] c[j][k][l]."""
    lie = is_lie_algebra(t)
    if not lie.ok:
        raise NotLie(f"killing_form needs a Lie algebra: {lie.witness.detail}")
    n, (d, c) = t.dim, t.scaled()
    ads = [[c[i][l][k] for k in range(n) for l in range(n)] for i in range(n)]
    flat = [[x for row in c[j] for x in row] for j in range(n)]
    return MatrixQ.from_scaled(d * d, [[sum(map(mul, a, f)) for f in flat] for a in ads])


def is_semisimple_lie(t: StructureTensor) -> bool:
    """Cartan criterion: nondegenerate Killing form."""
    return det(killing_form(t)) != 0


def derived_series(t: StructureTensor) -> list[Subspace]:
    """L^(0) = L, L^(k+1) = [L^(k), L^(k)], until stabilization."""
    n = t.dim
    current = Subspace.full(n)
    series = [current]
    while True:
        gens = current.basis_vectors()
        nxt = Subspace(n, [t.bracket(x, y) for x in gens for y in gens])
        if nxt == current:
            break
        series.append(nxt)
        current = nxt
    return series


def _commutant(ops: list[MatrixQ], d: int) -> list[MatrixQ]:
    """Basis of {z : z op = op z for all ops}, as d x d matrices. Each op
    enters through its scaled view, which scales its equations only."""
    rows = []
    for x in (op.scaled()[1] for op in ops):
        for i in range(d):
            for j in range(d):
                # entry (i, j) of op*z - z*op as a linear form in z (row-major)
                row = [0] * (d * d)
                for k in range(d):
                    row[k * d + j] += x[i][k]
                    row[i * d + k] -= x[k][j]
                rows.append(row)
    basis = kernel(MatrixQ(rows)).basis_vectors()
    return [MatrixQ([v[i * d:(i + 1) * d] for i in range(d)]) for v in basis]


def _proper_ideal(ads: list[MatrixQ]) -> Subspace | None:
    """A proper ideal of the Lie algebra with adjoint operators ads, or None
    when it is minimal: the ideal some basis vector spins to, else a rational
    eigenspace of a non-scalar commutant element. A split that exists only
    over an extension field raises IrrationalSplit instead of guessing."""
    n = len(ads)
    for k in range(n):
        sub = _spin(ads, [basis_vector(n, k)])
        if sub.dim < n:
            return sub
    comm = _commutant(ads, n)
    if len(comm) <= 1:
        return None
    identity = MatrixQ.identity(n)
    for z in comm:
        if z.entries[0][0] != 0 and z == identity.scale(z.entries[0][0]):
            continue
        roots, residual = rational_roots(char_poly(z))
        for lam, _mult in roots:
            ker = kernel(z - identity.scale(lam))
            if 0 < ker.dim < n:
                return ker
        if not residual.is_constant():
            raise IrrationalSplit(
                "commutant element splits the ideal only over an extension "
                f"field (residual factor of degree {residual.degree})")
    raise IrrationalSplit("commutant is non-scalar but yields no rational split")


def _pivots(s: Subspace) -> tuple[int, ...]:
    return tuple(next(j for j, x in enumerate(row) if x) for row in s.basis_rows)


def _minimal_ideals(t: StructureTensor, killing: MatrixQ) -> list[Subspace]:
    """Split off a proper ideal and its Killing complement, then recurse into
    each part as a Lie algebra of its own: with B its RREF basis as columns
    and P its pivot selector, the tensor P [B e_i, B e_j] and the form B^T K B."""
    n = t.dim
    ideal = _proper_ideal([ad_matrix(t, basis_vector(n, k)) for k in range(n)])
    if ideal is None:
        return [Subspace.full(n)]
    rest = kernel(MatrixQ(ideal.basis_rows) * killing)
    if ideal.dim + rest.dim != n:
        raise NotSemisimple("Killing complement does not split the ideal")
    out = []
    for part in (ideal, rest):
        rows, basis = MatrixQ(part.basis_rows), MatrixQ.from_columns(part.basis_rows)
        pivots = MatrixQ([basis_vector(n, j) for j in _pivots(part)])
        out += [Subspace(n, [lift_coordinates(part, c) for c in sub.basis_rows])
                for sub in _minimal_ideals(transform_tensor(t, basis, basis, pivots),
                                           rows * killing * basis)]
    return out


def decompose_semisimple(t: StructureTensor, killing: MatrixQ | None = None) -> list[Subspace]:
    """Minimal ideals of a semisimple Lie algebra, sorted by pivots. A proper
    ideal I is found by spinning, else in the commutant of the adjoint action;
    ad(e_k) restricted to I spans ad_I(I), since the complement acts on I as
    zero, so decomposing I alone finds what the whole algebra would. `killing`
    may carry the Killing form of t."""
    if killing is None:
        killing = killing_form(t)
    if det(killing) == 0:
        raise NotSemisimple("Killing form is degenerate")
    return sorted(_minimal_ideals(t, killing), key=lambda s: (_pivots(s), s.basis_rows))


def automorphism_permutation(ideals: list[Subspace], m: MatrixQ) -> tuple[int, ...]:
    """sigma with m(ideals[i]) = ideals[sigma(i)] as subspace equality."""
    if not ideals:
        raise NotPermuted("empty ideal list")
    n = ideals[0].ambient_dim
    if not (m.is_square and m.rows == n):
        raise DimensionMismatch("map size does not match ambient dimension")
    if rank(m) != n:
        raise NotPermuted("map is not invertible")
    sigma = []
    for i, ideal in enumerate(ideals):
        image = Subspace(n, [m.apply(b) for b in ideal.basis_vectors()])
        target = next((j for j, other in enumerate(ideals) if other == image), None)
        if target is None:
            raise NotPermuted(f"image of ideal {i + 1} is not in the ideal list")
        sigma.append(target)
    if sorted(sigma) != list(range(len(ideals))):
        raise NotPermuted("images of the ideals do not permute the list")
    return tuple(sigma)


def decompose_bihom(a: BiHomAlgebra, induced=None,
                    killing: MatrixQ | None = None) -> Decomposition:
    """Decompose the induced Lie algebra into minimal ideals and read off the
    permutations the structure maps induce on them; `induced` and `killing`
    may carry induce_lie(a) and the Killing form of its tensor."""
    from .twist import induce_lie
    induced, alpha, beta = induce_lie(a) if induced is None else induced
    ideals = decompose_semisimple(induced, killing)
    return Decomposition(
        ideals=tuple(ideals),
        sigma_alpha=automorphism_permutation(ideals, alpha),
        sigma_beta=automorphism_permutation(ideals, beta),
        m=len(ideals),
    )


def _series_rank_for(series: str, quotient: int) -> int | None:
    """Smallest-rank solution l of dim_formula(series, l) = quotient, or None."""
    if series == "A":
        # l(l+2) = q
        l = 1
        while l * (l + 2) < quotient:
            l += 1
        return l if l * (l + 2) == quotient else None
    if series in ("B", "C"):
        l = 2 if series == "B" else 3
        while l * (2 * l + 1) < quotient:
            l += 1
        return l if l * (2 * l + 1) == quotient else None
    if series == "D":
        # classical convention l >= 4 avoids the A/B/C overlaps
        l = 4
        while l * (2 * l - 1) < quotient:
            l += 1
        return l if l * (2 * l - 1) == quotient else None
    return None


_EXCEPTIONAL_DIMS = {"G2": 14, "F4": 52, "E6": 78, "E7": 133, "E8": 248}


def type_candidates(dim: int) -> list[TypeLabel]:
    """All (series, rank, m) whose dimension formula matches, ordered by
    increasing m and then by series."""
    if dim < 1:
        raise DimensionMismatch("dimension must be at least 1")
    out = []
    for m in range(1, dim + 1):
        if dim % m != 0:
            continue
        quotient = dim // m
        for series in _SERIES_ORDER:
            if series in _EXCEPTIONAL_DIMS:
                if quotient == _EXCEPTIONAL_DIMS[series]:
                    out.append(TypeLabel(series, 0, m))
            else:
                l = _series_rank_for(series, quotient)
                if l is not None:
                    out.append(TypeLabel(series, l, m))
    return out

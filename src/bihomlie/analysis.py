"""Structural analysis: ideals, simplicity, semisimplicity of the induced
Lie algebra, simple-ideal decomposition, structure-map permutations, and
type-candidate enumeration.

Simplicity follows one rule, _simplicity, behind both is_simple and
analyze: when the algebra is regular and its induced Lie algebra splits,
it comes from the orbits of the structure maps on the minimal ideals
(Decomposition.enveloping_dim); the Burnside criterion decides the rest.
A subspace is an ideal exactly when it is invariant under bracketing
against every basis vector and under both structure maps; over an
algebraically closed ground field there is no proper common invariant
subspace iff the unital matrix algebra generated by those operators is the
full endomorphism algebra, and the rational dimension of that span equals
its complex dimension because all generators are rational. One closure,
_closure, walks every span over the integers: scaling a generator by the
lcm of its denominators multiplies every product it enters by a nonzero
scalar, which changes no span. The adjoint operators and the Killing form
come from the tensor's scaled view. A semisimple algebra is decomposed one
split at a time (de Graaf, Lie Algebras: Theory and Algorithms, 2000, ch.
1): a proper ideal and its Killing complement, each restricted to the
coordinates of its RREF basis and decomposed as a Lie algebra of its own.
A part of dimension below 6 is minimal as it stands and is not restricted:
a split needs two semisimple parts of dimension 3 or more, and one of
dimension 3 is a form of sl2, absolutely simple: enveloping_dim is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import NamedTuple

from .algebra import (
    BiHomAlgebra,
    StructureTensor,
    is_lie_algebra,
    transform_tensor,
)
from .errors import (
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
    det,
    int_product,
    kernel,
    kept,
    pack,
    pack_width,
    primitive,
    rank,
    rational_roots,
    reshape,
    unpack,
)
from .twist import induce_lie, require_axioms


class IdealReport(NamedTuple):
    subspace: Subspace
    is_subalgebra: bool
    is_ideal: bool
    failing_witness: tuple[int, Vector] | None = None


class Decomposition(NamedTuple):
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

    @property
    def enveloping_dim(self) -> int:
        """Dimension of the unital algebra generated by the Burnside
        generators, read off the orbits of the ideals under sigma_alpha and
        sigma_beta: the sum of (dim of an orbit sum)^2 over the orbits.

        Exact because decompose_bihom returns only when every ideal's
        commutant is scalar, so every ideal is absolutely simple. Since
        alpha and beta are invertible and [x, y] = [alpha x, beta y]' in the
        induced Lie algebra L, the generators and ad(L), alpha, beta generate
        one algebra; its invariant subspaces are the sums of orbit sums, so
        each orbit sum is a simple module, absolutely so, and no two are
        isomorphic (the ideals of one orbit act on it and annihilate the
        others). By the density theorem (de Graaf 2000, ch. 1) the algebra
        is the product of the full endomorphism algebras of the orbit sums."""
        root = list(range(self.m))

        def find(i):
            while root[i] != i:
                i = root[i]
            return i

        for sigma in (self.sigma_alpha, self.sigma_beta):
            for i, j in enumerate(sigma):
                root[find(i)] = find(j)
        orbit_sums = [0] * self.m
        for i, ideal in enumerate(self.ideals):
            orbit_sums[find(i)] += ideal.dim
        return sum(d * d for d in orbit_sums)


_SERIES_ORDER = ("A", "B", "C", "D", "G2", "F4", "E6", "E7", "E8")


class TypeLabel(NamedTuple):
    """Candidate (series, rank, m): m simple ideals of the given type."""

    series: str
    rank: int
    m: int

    def __str__(self):
        if self.series in ("G2", "F4", "E6", "E7", "E8"):
            return f"({self.series}, m={self.m})"
        return f"({self.series}{self.rank}, m={self.m})"


def _closure(mats, seed) -> SpanBuilder:
    """Span of the integer n x k matrix with columns seed and its products
    with the integer n x n mats, over row-major entries: walked breadth
    first, each product made primitive, until the span is full."""
    k = len(seed)
    span = SpanBuilder(len(mats[0]) * k)
    flat = [x for row in zip(*seed) for x in row]
    work = [flat] if span.add(flat) else []
    for w in work:
        cols = [w[j::k] for j in range(k)]
        for m in mats:
            if span.dim == span.ambient_dim:
                return span
            p = primitive([sum(map(mul, row, col)) for row in m for col in cols])
            if span.add(p):
                work.append(p)
    return span


def is_ideal(a: BiHomAlgebra, s: Subspace) -> IdealReport:
    """Check map-stability and bracket-stability of s on basis generators."""
    if s.ambient_dim != a.dim:
        raise DimensionMismatch("subspace ambient dimension differs from algebra")
    gens = s.basis_rows
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
    unchanged; _closure walks the words from the identity."""
    if not gens:
        raise DimensionMismatch("at least one generator required")
    n = gens[0].rows
    for g in gens:
        if not (g.is_square and g.rows == n):
            raise DimensionMismatch("generators must be square of one size")
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    return _closure([g.scaled()[1] for g in gens], identity).dim


def burnside_generators(a: BiHomAlgebra) -> list[MatrixQ]:
    """Operators whose common invariant subspaces are exactly the ideals:
    bracketing against every basis vector (both sides, since the BiHom
    bracket is not symmetric) plus the two structure maps. For each k, the
    matrix of w -> [w, e_k] is plane k of the scaled view with its first two
    indices swapped, transposed, and that of ad(e_k) is plane k transposed.
    The identity is not among them: enveloping_dim starts its span at the
    identity."""
    d, c = a.tensor.scaled()
    swapped = tuple(zip(*c))   # swapped[k][j] = c[j][k], the coordinates of [e_j, e_k]
    return [MatrixQ.from_scaled(d, tuple(zip(*planes[k]))) for k in range(a.dim)
            for planes in (swapped, c)] + [a.alpha, a.beta]


def is_simple(a: BiHomAlgebra) -> bool:
    """No proper ideals and not abelian: the bracketing operators together
    with alpha and beta generate the full matrix algebra as a unital algebra,
    an enveloping dimension of dim^2 found by the rule of _simplicity."""
    induced = require_axioms(a)
    if a.tensor.is_zero():
        return False
    return _simplicity(a, induced)[2] == a.dim * a.dim


def _simplicity(a: BiHomAlgebra, induced: StructureTensor | None
                ) -> tuple[Fraction | None, object, int]:
    """The simplicity rule behind is_simple and analyze, given what
    require_axioms returned on a (its induced tensor, None when a is not
    regular): (det of the induced Killing form, None when a is not regular;
    the Decomposition, else the IrrationalSplit that stopped it, else None;
    the enveloping dimension, read off the decomposition when there is one
    and spanned otherwise)."""
    if induced is None:
        return None, None, enveloping_dim(burnside_generators(a))
    killing_det, outcome = killing_determinant(induced), None
    if killing_det != 0:
        try:
            outcome = decompose_bihom(a)
        except IrrationalSplit as exc:
            outcome = exc
    env = (outcome.enveloping_dim if isinstance(outcome, Decomposition)
           else enveloping_dim(burnside_generators(a)))
    return killing_det, outcome, env


def killing_form(t: StructureTensor) -> MatrixQ:
    """K[i][j] = trace(ad(e_i) ad(e_j)) of an ordinary Lie algebra; ad(e_i)
    holds c[i][l][k] at (k, l), so K[i][j] = sum_{k,l} c[i][l][k] c[j][k][l].
    Entry (k, l) of the planes is packed over j, so row i is one dot product
    of c[i] flattened over (l, k) with those n^2 integers, unpacked. Computed
    once per tensor object and kept on it."""
    def compute():
        lie = is_lie_algebra(t)
        if not lie.ok:
            raise NotLie(f"killing_form needs a Lie algebra: {lie.witness.detail}")
        n, (d, c) = t.dim, t.scaled()
        w = pack_width(n * n * t.height() ** 2)
        cols = [pack(col, w) for col in zip(*(chain.from_iterable(zip(*plane)) for plane in c))]
        return MatrixQ.from_scaled(d * d, [
            unpack(sum(map(mul, chain.from_iterable(plane), cols)), w, n) for plane in c])
    return kept(t, "_killing", compute)


def killing_determinant(t: StructureTensor) -> Fraction:
    """det(killing_form(t)), computed once per tensor object and kept on it."""
    return kept(t, "_killing_det", lambda: det(killing_form(t)))


def is_semisimple_lie(t: StructureTensor) -> bool:
    """Cartan criterion: nondegenerate Killing form."""
    return killing_determinant(t) != 0


def _commutant(ops, d: int) -> list[MatrixQ]:
    """Basis of {z : z op = op z for all ops}, as d x d matrices, from
    integer d x d ops."""
    rows = []
    for x in ops:
        for i in range(d):
            for j in range(d):
                # entry (i, j) of op*z - z*op as a linear form in z (row-major)
                row = [0] * (d * d)
                for k in range(d):
                    row[k * d + j] += x[i][k]
                    row[i * d + k] -= x[k][j]
                rows.append(row)
    p, basis = kernel(MatrixQ.from_scaled(1, rows)).scaled()
    return [MatrixQ.from_scaled(p, reshape(v, d, d)) for v in basis]


def _proper_ideal(ads) -> Subspace | None:
    """A proper ideal of the Lie algebra with integer ad(e_k) multiples ads,
    or None when it is minimal: the ideal some basis vector spins to, else
    the eigenspace of the least rational eigenvalue of the first non-scalar
    element of the commutant, whose basis holds at most one scalar. A split
    that exists only over an extension field raises IrrationalSplit."""
    n = len(ads)
    for k in range(n):
        span = _closure(ads, [[int(i == k) for i in range(n)]])
        if span.dim < n:
            return Subspace.spanned(n, span.rows.values())
    comm = _commutant(ads, n)
    if len(comm) <= 1:
        return None
    identity = MatrixQ.identity(n)
    z = next(z for z in comm if z != identity.scale(z[0, 0]))
    roots = rational_roots(char_poly(z))
    if not roots:
        raise IrrationalSplit("commutant element splits the ideal only over an extension "
                              f"field (residual factor of degree {n})")
    return kernel(z - identity.scale(roots[0]))


def _minimal_ideals(t: StructureTensor, killing: MatrixQ) -> list[Subspace]:
    """Split off a proper ideal and its Killing complement, then recurse into
    each part of dimension 6 or more as a Lie algebra of its own: with B its
    RREF basis as columns and P its pivot selector, the tensor P [B e_i, B e_j]
    and the form B^T K B. A smaller part is minimal as it stands. ad(e_k) is
    plane k of the scaled view, transposed. The complement always splits I
    off: their intersection is an ideal on which K vanishes, so 0."""
    n = t.dim
    ideal = None if n < 6 else _proper_ideal([tuple(zip(*plane)) for plane in t.scaled()[1]])
    if ideal is None:
        return [Subspace.full(n)]
    out = []
    for part in (ideal, kernel(MatrixQ.from_scaled(*ideal.scaled()) * killing)):
        if part.dim < 6:
            out.append(part)
            continue
        p, ints = part.scaled()
        rows, basis = MatrixQ.from_scaled(p, ints), MatrixQ.from_scaled(p, tuple(zip(*ints)))
        pivots = MatrixQ.from_scaled(1, [[int(j == c) for j in range(n)] for c in part.pivots()])
        out += [Subspace.spanned(n, int_product(sub.scaled()[1], ints))
                for sub in _minimal_ideals(transform_tensor(t, basis, basis, pivots),
                                           rows * killing * basis)]
    return out


def decompose_semisimple(t: StructureTensor) -> list[Subspace]:
    """Minimal ideals of a semisimple Lie algebra, sorted by pivots and then
    by the RREF rows as rationals, compared over one common scale. A proper
    ideal I is found by spinning, else in the commutant of the adjoint action;
    ad(e_k) restricted to I spans ad_I(I), since the complement acts on I as
    zero, so decomposing I alone finds what the whole algebra would. A
    degenerate Killing form raises NotSemisimple."""
    if killing_determinant(t) == 0:
        raise NotSemisimple("Killing form is degenerate")
    ideals = _minimal_ideals(t, killing_form(t))
    common = math.lcm(*(s.scaled()[0] for s in ideals))
    return sorted(ideals, key=lambda s: (s.pivots(), [[x * (common // s.scaled()[0]) for x in row]
                                                       for row in s.scaled()[1]]))


def automorphism_permutation(ideals: list[Subspace], m: MatrixQ) -> tuple[int, ...]:
    """sigma with m(ideals[i]) = ideals[sigma(i)] as subspace equality; an
    image is spanned by the rows of B M^T, B the ideal's view rows, M = d m."""
    if not ideals:
        raise NotPermuted("empty ideal list")
    n = ideals[0].ambient_dim
    if not (m.is_square and m.rows == n):
        raise DimensionMismatch("map size does not match ambient dimension")
    if rank(m) != n:
        raise NotPermuted("map is not invertible")
    mt = tuple(zip(*m.scaled()[1]))
    sigma = []
    for i, ideal in enumerate(ideals):
        image = Subspace.spanned(n, int_product(ideal.scaled()[1], mt))
        target = next((j for j, other in enumerate(ideals) if other == image), None)
        if target is None:
            raise NotPermuted(f"image of ideal {i + 1} is not in the ideal list")
        sigma.append(target)
    if sorted(sigma) != list(range(len(ideals))):
        raise NotPermuted("images of the ideals do not permute the list")
    return tuple(sigma)


def decompose_bihom(a: BiHomAlgebra) -> Decomposition:
    """Decompose the induced Lie algebra into minimal ideals and read off the
    permutations the structure maps induce on them. One ideal is fixed by
    both maps, which induce_lie has already inverted."""
    induced, alpha, beta = induce_lie(a)
    ideals = decompose_semisimple(induced)
    sigmas = ([(0,)] * 2 if len(ideals) == 1
              else [automorphism_permutation(ideals, m) for m in (alpha, beta)])
    return Decomposition(tuple(ideals), *sigmas, m=len(ideals))


# The classical series: dimension in terms of the rank l, and the least rank
# (the classical convention l >= 4 for D avoids the A/B/C overlaps)
_CLASSICAL = {"A": (lambda l: l * (l + 2), 1), "B": (lambda l: l * (2 * l + 1), 2),
              "C": (lambda l: l * (2 * l + 1), 3), "D": (lambda l: l * (2 * l - 1), 4)}
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
                dim_of, l = _CLASSICAL[series]
                while dim_of(l) < quotient:
                    l += 1
                if dim_of(l) == quotient:
                    out.append(TypeLabel(series, l, m))
    return out

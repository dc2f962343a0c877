"""Classification of 3-dimensional multiplicative simple BiHom-Lie algebras
into the three canonical families L1(a,b), L2, L3(a), with a self-certifying
change of basis.

Every returned label carries a change-of-basis matrix B whose columns are
the coordinates (in the input basis) of a basis in which the whole 4-tuple
equals the catalog algebra exactly. Three exact checks prove it:
B^-1 alpha B = alpha_cat, B^-1 beta B = beta_cat, and B is a bracket
homomorphism from the family's base onto the induced Lie algebra g. They
are complete, since the input is the twist of g by alpha and beta
(induce_lie verifies g) and the catalog algebra the twist of the base by
alpha_cat and beta_cat, and B intertwines both maps and both brackets.

Strategy: the induced Lie algebra of a simple input is a split form of sl2,
and both structure maps are commuting automorphisms of it. An automorphism
is either diagonalizable with eigenvalues (1, a, 1/a) or a single full
unipotent Jordan block, so alpha_profile reads its shape off its trace, and
once one map is not the identity it forces the shape of the other. So only
m, beta when alpha is the identity and alpha otherwise, is profiled, and
the classifier builds an sl2 basis adapted to m: when m is diagonalizable
its fixed line gives h up to the scalar c of its adjoint eigenvalues, and
_complete_triple completes (h, e, f), as it does for find_sl2_triple; a
unipotent m takes a Jordan chain scaled in closed form by two entries of
the induced bracket.

With both maps the identity nothing singles out a basis: find_sl2_triple
decides exactly from the Killing form whether the induced algebra is split
(a verified triple, NotSplit with its proof, or SplitUndecided).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product
from typing import NamedTuple

from .algebra import BiHomAlgebra, StructureTensor, ad_matrix, homomorphism_failure
from .analysis import is_simple, killing_determinant, killing_form
from .catalog import family_maps, make_sl2
from .errors import (
    DimensionMismatch,
    IrrationalEigenvalues,
    NotAutomorphismShape,
    NotSemisimple,
    NotSimple,
    NotSplit,
    SplitUndecided,
    Unmatched,
)
from .exactlin import (
    PRIME_PROOF_BOUND,
    RHO_ITERATIONS,
    MatrixQ,
    PolyQ,
    Q,
    Vector,
    as_fraction,
    basis_vector,
    char_poly,
    factor,
    invert,
    kernel,
    sqrt_fraction,
    sqrt_mod_prime,
    vec_add,
    vec_scale,
)
from .twist import induce_lie


class Sl2Triple(NamedTuple):
    """Coordinate vectors with [h,e]' = 2e, [h,f]' = -2f, [e,f]' = h."""

    h: Vector
    e: Vector
    f: Vector

    def basis_matrix(self) -> MatrixQ:
        return MatrixQ.from_columns([self.h, self.e, self.f])


class Profile(NamedTuple):
    """Canonical shape of an sl2-automorphism.

    kind is one of DiagonalDistinct, Identity, UnipotentFull, DiagNegPair;
    param carries the eigenvalue a for the diagonalizable kinds.
    """

    kind: str
    param: Fraction | None = None


class ClassLabel(NamedTuple):
    family: str  # "L1", "L2" or "L3"
    params: tuple[Fraction, ...]
    change_of_basis: MatrixQ


# The h-candidates of stage 1, doubled to integer vectors: every support by
# size, then the coefficients 1, -1, 2, -2, 1/2, -1/2 on it.
_GRID = tuple(
    tuple(coeffs[support.index(i)] if i in support else 0 for i in range(3))
    for size in (1, 2, 3)
    for support in combinations(range(3), size)
    for coeffs in product((2, -2, 4, -4, 1, -1), repeat=size))

_DEFINITE = "Killing form is definite: no isotropic vector over the reals"


def _complete_triple(t: StructureTensor, v: Vector, c: Fraction) -> Sl2Triple:
    """Triple with h = 2v/c for a v with K(v,v)/2 = c^2 > 0 on a
    3-dimensional semisimple Lie algebra: char_poly(ad h) = x^3 - 4x, so e
    and f span the simple eigenlines of 2 and -2, and [e, f] is a nonzero
    element of ker ad h = Q h (else [L, L] != L), so e is scaled by the mu
    with [e, f] = mu h. The bracket is not checked."""
    h = vec_scale(Q(2) / c, v)
    ad_h, identity = ad_matrix(t, h), MatrixQ.identity(3)
    e, f = (kernel(ad_h - identity.scale(s)).basis_rows[0] for s in (2, -2))
    k = next(i for i, x in enumerate(h) if x != 0)
    mu = t.bracket(e, f)[k] / h[k]
    return Sl2Triple(h=h, e=vec_scale(1 / mu, e), f=f)


def _triple_at(t: StructureTensor, v: Vector, c: Fraction) -> Sl2Triple:
    """_complete_triple certified by homomorphism_failure, or SplitUndecided."""
    triple = _complete_triple(t, v, c)
    if homomorphism_failure(triple.basis_matrix(), make_sl2(), t) is not None:
        raise SplitUndecided("the eigenvectors of ad h do not close into an sl2 triple")
    return triple


def _squarefree(q: Fraction) -> tuple[int, tuple[int, ...], Fraction]:
    """(s, primes, r) with q = s*r^2, s a squarefree integer and primes the
    prime divisors of s. Raises SplitUndecided when q cannot be factored."""
    exponents: dict[int, int] = {}
    for part in (q.numerator, q.denominator):
        primes, cofactor = factor(part)
        if cofactor != 1:
            raise SplitUndecided(
                f"cannot factor {cofactor}: it is a probable prime of at least "
                f"{PRIME_PROOF_BOUND} or a composite that {RHO_ITERATIONS} "
                "Pollard-Brent steps did not split")
        for p, e in primes.items():
            exponents[p] = exponents.get(p, 0) + e
    odd = tuple(p for p in sorted(exponents) if exponents[p] % 2)
    root = math.prod(p ** (e // 2) for p, e in exponents.items())
    # q * den^2 = num * den = |s| * root^2 up to sign
    return math.prod(odd) * (1 if q > 0 else -1), odd, Fraction(root, q.denominator)


def _conic_point(a: int, pa, b: int, pb) -> tuple[int, int, int]:
    """Integers (x, y, z), not all zero, with z^2 = a*x^2 + b*y^2 for
    squarefree a and b with prime divisors pa and pb, by Lagrange descent.
    Raises NotSplit with the obstruction when there are none."""
    if abs(a) > abs(b):
        y, x, z = _conic_point(b, pb, a, pa)
        return x, y, z
    if a == 1:
        return 1, 0, 1
    if b == 1:
        return 0, 1, 1
    if b == -1:  # and a == -1
        raise NotSplit(_DEFINITE)
    # t^2 = a (mod |b|), prime by prime, joined by the Chinese remainder theorem
    t, mod = 0, 1
    for p in pb:
        root = sqrt_mod_prime(a, p)
        if root is None:
            raise NotSplit(f"Killing form has no isotropic vector: {a} is not a "
                           f"square modulo the prime {p}, which divides {b} in "
                           f"z^2 = {a}x^2 + {b}y^2")
        t += mod * ((root - t) * pow(mod, -1, p) % p)
        mod *= p
    if t > mod // 2:
        t -= mod
    # t^2 - a = b*b0*d^2 with |b0| < |b|; a point of (a, b0) gives one of (a, b)
    b0, p0, d = _squarefree(Fraction((t * t - a) // b))
    x0, y0, z0 = _conic_point(a, pa, b0, p0)
    x, y, z = t * x0 - z0, b0 * d.numerator * y0, t * z0 - a * x0
    g = math.gcd(x, y, z)
    return x // g, y // g, z // g


def _isotropic_vector(killing: MatrixQ) -> Vector:
    """A nonzero v with K(v,v) = 0 for a nondegenerate symmetric 3x3 K, or
    NotSplit when there is none. Gram-Schmidt on e1, e2, e3 diagonalises K
    (an isotropic vector met on the way is returned); the diagonal form
    d1 x1^2 + d2 x2^2 + d3 x3^2 is the conic (d3 x3)^2 = a X^2 + b Y^2 with
    -d1 d3 = a ra^2, -d2 d3 = b rb^2, X = ra x1 and Y = rb x2."""
    def form(u, v):
        return sum(u[i] * killing.entries[i][j] * v[j]
                   for i in range(3) for j in range(3))

    basis, norms = [], []
    for i in range(3):
        u = basis_vector(3, i)
        for b, d in zip(basis, norms):
            u = vec_add(u, vec_scale(-form(u, b) / d, b))
        d = form(u, u)
        if d == 0:
            return u
        basis.append(u)
        norms.append(d)
    d1, d2, d3 = norms
    if (d1 > 0) == (d2 > 0) == (d3 > 0):
        raise NotSplit(_DEFINITE)
    a, pa, ra = _squarefree(-d1 * d3)
    b, pb, rb = _squarefree(-d2 * d3)
    x, y, z = _conic_point(a, pa, b, pb)
    coords = (x / ra, y / rb, z / d3)
    return tuple(sum(c * v[k] for c, v in zip(coords, basis)) for k in range(3))


def find_sl2_triple(t: StructureTensor) -> Sl2Triple:
    """sl2 triple of a 3-dimensional semisimple Lie algebra over Q, found
    from its Killing form K in two stages.

    On such an algebra char_poly(ad v) = x^3 - (K(v,v)/2) x, so v yields a
    triple exactly when K(v,v)/2 is a positive rational square c^2; then
    h = 2v/c and e, f are the (+2)- and (-2)-eigenvectors of ad h.

    Stage 1 runs v over a fixed grid (basis vectors and combinations with
    coefficients 1, -1, 2, -2, 1/2, -1/2, by support size) in integer
    arithmetic and returns the first triple. Stage 2, when the grid has no
    hit, decides K(v,v) = 0 exactly: Gram-Schmidt diagonalises K, the
    diagonal form becomes z^2 = a x^2 + b y^2 with squarefree integers a and
    b, and Lagrange descent solves it (square roots modulo the primes of b
    by Tonelli-Shanks, joined by CRT). An isotropic e and a basis vector u
    with K(e,u) != 0 give v = u + s e with K(v,v)/2 = 1.

    Outcomes: a triple, from the first grid hit or from stage 2, certified
    by one homomorphism_failure check in _triple_at; NotSplit with its
    proof (the Killing form is definite, or a is not a square modulo a
    prime p dividing b); or SplitUndecided when a number to be factored
    keeps a cofactor beyond the factoring bound of `exactlin.factor`, or
    when the certificate fails, which no semisimple input reaches.
    SplitUndecided is never a verdict of "not split". Also raises
    NotSemisimple when det K = 0.
    """
    if t.dim != 3:
        raise DimensionMismatch("sl2 triples live in dimension 3")
    if killing_determinant(t) == 0:
        raise NotSemisimple("not a semisimple Lie algebra")
    killing = killing_form(t)
    # K(v,v)/2 = k(w,w)/(8*den) for the integer form k = den*K and w = 2v
    den, k = killing.scaled()
    k00, k11, k22 = k[0][0], k[1][1], k[2][2]
    k01, k02, k12 = 2 * k[0][1], 2 * k[0][2], 2 * k[1][2]
    scale = 8 * den
    for w0, w1, w2 in _GRID:
        n = (k00 * w0 * w0 + k11 * w1 * w1 + k22 * w2 * w2
             + k01 * w0 * w1 + k02 * w0 * w2 + k12 * w1 * w2)
        if n <= 0:
            continue
        root = math.isqrt(n * scale)
        if root * root != n * scale:
            continue
        return _triple_at(t, (Q(w0, 2), Q(w1, 2), Q(w2, 2)), Q(root, scale))
    e = _isotropic_vector(killing)
    ke = killing.apply(e)
    i = next(i for i, x in enumerate(ke) if x != 0)
    s = (2 - killing[i, i]) / (2 * ke[i])   # K(u + s e, u + s e) = 2
    return _triple_at(t, vec_add(basis_vector(3, i), vec_scale(s, e)), Q(1))


def alpha_profile(m: MatrixQ) -> Profile:
    """Canonical-shape profile of a 3x3 map expected to be an automorphism
    of sl2, read off its trace. Such a map has eigenvalues (1, a, 1/a), so
    its characteristic polynomial is (x - 1)(x^2 - t x + 1) with
    t = tr m - 1 = a + 1/a; it is diagonalizable, or for t = 2 one full
    unipotent block, and a = (t +- sqrt(t^2 - 4))/2."""
    if not (m.is_square and m.rows == 3):
        raise DimensionMismatch("profile is defined for 3x3 matrices")
    trace = m.trace()
    if char_poly(m) != PolyQ((-1, trace, -trace, 1)):
        raise NotAutomorphismShape("characteristic polynomial is not (x - 1)(x^2 - t x + 1) "
                                   "for t = tr m - 1: the eigenvalues are not {1, a, 1/a}")
    t, identity = trace - 1, MatrixQ.identity(3)
    if m == identity:
        return Profile("Identity")
    if t == 2 and not ((m - identity) * (m - identity)).is_zero():
        return Profile("UnipotentFull")
    if t == -2 and ((m + identity) * (m - identity)).is_zero():
        return Profile("DiagNegPair", Q(-1))
    if t in (2, -2):
        raise NotAutomorphismShape(f"the double eigenvalue {t / 2} has a Jordan block "
                                   "that no automorphism of sl2 has")
    root = sqrt_fraction(t * t - 4)
    if root is None:
        raise IrrationalEigenvalues("eigenvalues are irrational (residual factor of degree 2)")
    return Profile("DiagonalDistinct", max((t + root) / 2, (t - root) / 2,
                                           key=lambda r: (abs(r), r)))


def _adapted_triple(t: StructureTensor, m: MatrixQ, r: Fraction) -> Sl2Triple:
    """sl2 triple in which an automorphism with eigenvalues (1, r, 1/r), r != 1,
    becomes diag(1, r, 1/r), unchecked (_certify checks its bracket). With h0
    spanning the fixed line (a line: the eigenvalue 1 is simple, as
    r + 1/r != 2), ad h0 is diag(0, c, -c) in such a basis, so
    c = tr(ad h0 m)/(r - 1/r), which puts e in the r-eigenspace; for r = -1,
    c = +sqrt(K(h0,h0)/2)."""
    h0 = kernel(m - MatrixQ.identity(3)).basis_rows[0]
    ad_h0 = ad_matrix(t, h0)
    c = (sqrt_fraction((ad_h0 * ad_h0).trace() / 2) if r == -1
         else (ad_h0 * m).trace() / (r - 1 / r))
    if not c:
        raise Unmatched("the fixed line of the involution is not split over Q "
                        "(its adjoint eigenvalues are irrational), so no "
                        "canonical family matches")
    return _complete_triple(t, h0, c)


def _unipotent_basis(t: StructureTensor, m: MatrixQ) -> MatrixQ:
    """Corrected Jordan basis of a full unipotent block m on the induced
    bracket t. In the chain basis (u1, u2, v) = (N^2 v, N v, v), N = m - I,
    the columns of N^2 and N at the first basis vector v with N^2 v != 0,
    the bracket reads [u1,u2] = x u1, [u1,v] = -(x/2) u1 + x u2,
    [u2,v] = y u1 + (x/2) u2 + x v with x != 0: a Lie bracket that the full
    block preserves and that has [u1,u2] != 0 takes this shape, and one with
    [u1,u2] = 0 is solvable. x and y are read off [u1,u2] and [u2,v] at a
    nonzero coordinate of u1. The commutant correction (2/x) I + s N^2,
    s = (2y/x - 1)/(2x), moves (x, y) to the (2, 1) of unipotent_base_tensor:
    the basis is ((2/x) u1, (2/x) u2, (2/x) v + s u1)."""
    nil = m - MatrixQ.identity(3)
    square = nil * nil
    j = next(j for j in range(3) if any(square.column(j)))
    u1, u2, v = square.column(j), nil.column(j), basis_vector(3, j)
    r = next(r for r, x in enumerate(u1) if x)
    x = t.bracket(u1, u2)[r] / u1[r]
    y = (t.bracket(u2, v)[r] - x / 2 * u2[r] - x * v[r]) / u1[r]
    k, s = 2 / x, (2 * y / x - 1) / (2 * x)
    return MatrixQ.from_columns([vec_scale(k, u1), vec_scale(k, u2),
                                 vec_add(vec_scale(k, v), vec_scale(s, u1))])


# (h, e, f) -> (-h, f, e): an automorphism of sl2 and its own inverse
_FLIP = MatrixQ([[-1, 0, 0], [0, 0, 1], [0, 1, 0]])


def normalize_l1_params(a, b) -> tuple[Fraction, Fraction, bool]:
    """Canonical representative of {(a, b), (1/a, 1/b)} under the basis flip
    (h, e, f) -> (-h, f, e). Deterministic height rule: prefer the pair with
    larger |a|, then larger a, then larger |b|, then larger b. Returns
    (a, b, flipped)."""
    a, b = as_fraction(a), as_fraction(b)
    if (abs(1 / a), 1 / a, abs(1 / b), 1 / b) > (abs(a), a, abs(b), b):
        return 1 / a, 1 / b, True
    return a, b, False


def _certify(a: BiHomAlgebra, basis: MatrixQ, family: str) -> ClassLabel:
    """The label of a in the candidate basis B. The parameters are read off
    B^-1 alpha B and B^-1 beta B (entry (1, 1) of both for L1, normalized by
    the flip, and entry (0, 1) of beta for L3); three exact checks prove the
    label: B^-1 alpha B = alpha_cat, B^-1 beta B = beta_cat, and B is a
    bracket homomorphism from the family's base onto the induced Lie algebra
    g. As a is the twist of g by alpha and beta (induce_lie has verified g)
    and the catalog algebra the twist of the base by alpha_cat and beta_cat,
    B carries the one onto the other."""
    inv, params, (g, _, _) = invert(basis), (), induce_lie(a)
    alpha, beta = inv * a.alpha * basis, inv * a.beta * basis
    if family == "L1":
        if beta[1, 1] == 0:   # beta swaps the e- and f-lines
            raise Unmatched(
                "alpha is diagonalizable in an adapted sl2 basis but beta is not "
                "diag(1, b, 1/b) there; no canonical family corresponds to this pair")
        a_n, b_n, flipped = normalize_l1_params(alpha[1, 1], beta[1, 1])
        if flipped:
            basis, alpha, beta = basis * _FLIP, _FLIP * alpha * _FLIP, _FLIP * beta * _FLIP
        params = (a_n, b_n)
    elif family == "L3":
        params = (beta[0, 1],)
    base, alpha_cat, beta_cat = family_maps(family, *params)
    if alpha != alpha_cat or beta != beta_cat \
            or homomorphism_failure(basis, base, g) is not None:
        raise Unmatched(
            f"profiles matched family {family} but exact conjugation against "
            "the catalog algebra failed; the input is not isomorphic to "
            f"{family}{tuple(str(p) for p in params)}")
    return ClassLabel(family=family, params=params, change_of_basis=basis)


def classify3(a: BiHomAlgebra) -> ClassLabel:
    """Decide which canonical family a 3-dimensional multiplicative simple
    BiHom-Lie algebra belongs to and produce the witnessing change of basis.

    An identity m (beta when alpha is the identity, alpha otherwise) leads
    to find_sl2_triple and a diagonalizable one to the adapted triple, both
    certified as L1(a,b); a full unipotent block leads to its corrected
    Jordan basis, certified as L2 when alpha is the identity and as L3(a)
    otherwise. Every profile kind has its family; an input that the adapted
    triple or the certificate does not match is reported Unmatched, and a
    fourth family is never invented.
    """
    if a.dim != 3:
        raise DimensionMismatch("classification is implemented for dimension 3")
    if not is_simple(a):
        raise NotSimple("the algebra is not simple")
    induced, _, _ = induce_lie(a)
    identity_alpha = a.alpha == MatrixQ.identity(3)
    m = a.beta if identity_alpha else a.alpha
    profile = alpha_profile(m)
    if profile.kind == "Identity":
        return _certify(a, find_sl2_triple(induced).basis_matrix(), "L1")
    if profile.kind in ("DiagonalDistinct", "DiagNegPair"):
        return _certify(a, _adapted_triple(induced, m, profile.param).basis_matrix(), "L1")
    return _certify(a, _unipotent_basis(induced, m), "L2" if identity_alpha else "L3")


def bihom_isomorphic3(a1: BiHomAlgebra, a2: BiHomAlgebra) -> MatrixQ | None:
    """Explicit isomorphism between two 3-dimensional simple algebras, or
    None when their labels differ. A returned f = B2 B1^-1 satisfies
    f o alpha1 = alpha2 o f, f o beta1 = beta2 o f and
    f([x,y]_1) = [f(x), f(y)]_2 by construction: the three checks of
    _certify (B_i conjugates both maps of a_i to the catalog maps and carries
    the base's bracket onto the induced one, whose twist a_i is) prove that
    a_i in the basis B_i is the same catalog algebra."""
    label1 = classify3(a1)
    label2 = classify3(a2)
    if label1.family != label2.family or label1.params != label2.params:
        return None
    return label2.change_of_basis * invert(label1.change_of_basis)

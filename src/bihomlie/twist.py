"""Conversion between ordinary Lie algebras and regular BiHom-Lie algebras.

The forward direction twists a Lie bracket [.,.]' by a commuting pair of
bracket-preserving automorphisms: [x,y] = [alpha(x), beta(y)]'. The inverse
recovers the induced Lie algebra of a regular BiHom-Lie algebra through
[x,y]' = [alpha^-1(x), beta^-1(y)]. The two constructions are exact inverses
of each other, tensor entry for tensor entry.

Note on hypotheses: yau_twist demands that BOTH maps preserve the input
bracket. Multiplicativity of the output forces the condition on alpha as
well as beta, so requiring only one of them would admit inputs whose twist
fails the axioms; the validator reports which map is at fault.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import (
    BiHomAlgebra,
    StructureTensor,
    check_all,
    homomorphism_failure,
    is_lie_algebra,
    transform_tensor,
)
from .errors import NotAutomorphism, NotCommuting, NotLie, NotRegular, SingularMatrix
from .exactlin import MatrixQ, invert, kept, rank


class TwistInput(NamedTuple):
    """An ordinary Lie bracket together with a commuting automorphism pair."""

    lie: StructureTensor
    alpha: MatrixQ
    beta: MatrixQ


def _validate_twist_input(tw: TwistInput):
    lie_check = is_lie_algebra(tw.lie)
    if not lie_check.ok:
        raise NotLie(f"input bracket is not a Lie algebra: {lie_check.witness.detail} "
                     f"at indices {lie_check.witness.indices}")
    # BiHomAlgebra's shape check names a map that is not dim x dim
    BiHomAlgebra(dim=tw.lie.dim, tensor=tw.lie, alpha=tw.alpha, beta=tw.beta)
    if tw.alpha * tw.beta != tw.beta * tw.alpha:
        raise NotCommuting("alpha and beta do not commute")
    for name, m in (("alpha", tw.alpha), ("beta", tw.beta)):
        if rank(m) != tw.lie.dim:
            raise SingularMatrix(f"{name} is not invertible")
    for name, m in (("alpha", tw.alpha), ("beta", tw.beta)):
        ij = homomorphism_failure(m, tw.lie)
        if ij is not None:
            raise NotAutomorphism(f"{name} does not preserve the bracket at basis "
                                  f"pair ({ij[0] + 1}, {ij[1] + 1})")


def yau_twist(tw: TwistInput) -> BiHomAlgebra:
    """Twist a Lie algebra by a commuting automorphism pair into a regular
    BiHom-Lie algebra: new [e_i, e_j] = [alpha(e_i), beta(e_j)]'."""
    _validate_twist_input(tw)
    return BiHomAlgebra(dim=tw.lie.dim, tensor=transform_tensor(tw.lie, tw.alpha, tw.beta),
                        alpha=tw.alpha, beta=tw.beta)


def induce_lie(a: BiHomAlgebra) -> tuple[StructureTensor, MatrixQ, MatrixQ]:
    """The induced Lie algebra [e_i, e_j]' = [alpha^-1(e_i), beta^-1(e_j)] of
    a regular BiHom-Lie algebra, with the maps, its automorphisms; computed
    once per algebra object and kept on it. For invertible maps the axioms
    hold iff (1) does, [.,.]' is Lie and alpha, beta are its automorphisms
    (Graziani-Makhlouf-Menini-Panaite, SIGMA 11 (2015) 086): by (1), (2) reads
    alpha[u,v]' = [alpha u, alpha v]' at u = alpha x, v = beta y; (3) reads
    [gx, gy]' = -[gy, gx]' and (4), given (2), the classical Jacobi identity
    at (dx, dy, dz), for g = alpha beta and d = alpha beta^2. A singular map
    is kept as the NotRegular it raises, caused by the SingularMatrix, so no
    object is inverted twice."""
    def compute():
        try:
            alpha_inv, beta_inv = invert(a.alpha), invert(a.beta)
        except SingularMatrix as exc:
            error = NotRegular(f"algebra is not regular: {exc}")
            error.__cause__ = exc
            return error
        induced = transform_tensor(a.tensor, alpha_inv, beta_inv)
        if not (a.alpha * a.beta == a.beta * a.alpha and is_lie_algebra(induced).ok and all(
                homomorphism_failure(m, induced) is None for m in (a.alpha, a.beta))):
            check_all(a).require()
        return induced, a.alpha, a.beta
    induced = kept(a, "_induced", compute)
    if isinstance(induced, NotRegular):
        raise induced.with_traceback(None)
    return induced


def require_axioms(a: BiHomAlgebra) -> None:
    """The gate of every entry point that needs a verified algebra: induce_lie,
    or check_all for singular maps; AxiomViolation names check_all's failures."""
    try:
        induce_lie(a)
    except NotRegular:
        check_all(a).require()


def roundtrip_check(tw: TwistInput) -> bool:
    """Twist then induce returns the input tensor exactly, entry for entry."""
    twisted = yau_twist(tw)
    induced, _, _ = induce_lie(twisted)
    return induced == tw.lie

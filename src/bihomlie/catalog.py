"""Exact constructors for the built-in algebras: the split 3-dimensional
simple Lie algebra sl2 and the three canonical families L1(a,b), L2, L3(a)
of 3-dimensional multiplicative simple BiHom-Lie algebras, plus block
direct sums used as test fixtures.

Every family is certified against the twist construction: the bracket
tables shipped here equal [alpha(e_i), beta(e_j)]' over the corresponding
induced Lie algebra, entry for entry. For L3 two entries of the commonly
transcribed table fail the multiplicativity axiom and were replaced by the
twist-derived values; see ERRATA.md.
"""

from __future__ import annotations

from .algebra import BiHomAlgebra, StructureTensor
from .errors import ZeroParameter
from .exactlin import MatrixQ, Q, as_fraction, zero_vector


def make_sl2() -> StructureTensor:
    """Standard sl2 constants in the basis (h, e, f):
    [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return StructureTensor.from_brackets(3, {
        (0, 1): (0, 2, 0),
        (1, 0): (0, -2, 0),
        (0, 2): (0, 0, -2),
        (2, 0): (0, 0, 2),
        (1, 2): (1, 0, 0),
        (2, 1): (-1, 0, 0),
    })


def unipotent_base_tensor() -> StructureTensor:
    """sl2 written in the basis adapted to the unipotent families L2 and L3.

    This is the standard algebra conjugated by u1 = e, u2 = -h,
    u3 = -(1/4)e + (1/2)h - 2f; the full-Jordan-block unipotent map is an
    automorphism of these constants.
    """
    return StructureTensor.from_brackets(3, {
        (0, 1): (2, 0, 0),
        (1, 0): (-2, 0, 0),
        (0, 2): (-1, 2, 0),
        (2, 0): (1, -2, 0),
        (1, 2): (1, 1, 2),
        (2, 1): (-1, -1, -2),
    })


def unipotent_full() -> MatrixQ:
    """The full-Jordan-block unipotent structure map."""
    return MatrixQ([[1, 1, 0], [0, 1, 1], [0, 0, 1]])


def unipotent_beta(a) -> MatrixQ:
    """The unipotent beta of the L3 family: I + a*N + ((a^2-a)/2)*N^2."""
    a = as_fraction(a)
    return MatrixQ([[1, a, (a * a - a) / 2], [0, 1, a], [0, 0, 1]])


def make_L1(a, b) -> BiHomAlgebra:
    """Diagonal family: alpha = diag(1, a, 1/a), beta = diag(1, b, 1/b) with
    the bracket twisted from sl2 in the basis (e1, e2, e3) = (h, e, f).

    Any nonzero rational parameters are accepted; a in {-1, 1} simply lands
    in the degenerate diagonal cases.
    """
    a = as_fraction(a)
    b = as_fraction(b)
    if a == 0 or b == 0:
        raise ZeroParameter("the L1 parameters must be nonzero")
    tensor = StructureTensor.from_brackets(3, {
        (0, 1): (0, 2 * b, 0),
        (1, 0): (0, -2 * a, 0),
        (0, 2): (0, 0, Q(-2) / b),
        (2, 0): (0, 0, Q(2) / a),
        (1, 2): (a / b, 0, 0),
        (2, 1): (-b / a, 0, 0),
    })
    return BiHomAlgebra(
        dim=3,
        tensor=tensor,
        alpha=MatrixQ.diagonal([1, a, 1 / a]),
        beta=MatrixQ.diagonal([1, b, 1 / b]),
    )


def make_L2() -> BiHomAlgebra:
    """Unipotent family with identity alpha and full-Jordan-block beta."""
    tensor = StructureTensor.from_brackets(3, {
        (0, 1): (2, 0, 0),
        (0, 2): (1, 2, 0),
        (1, 0): (-2, 0, 0),
        (1, 1): (-2, 0, 0),
        (1, 2): (1, 1, 2),
        (2, 0): (1, -2, 0),
        (2, 1): (0, -3, -2),
        (2, 2): (-1, -1, -2),
    })
    return BiHomAlgebra(
        dim=3,
        tensor=tensor,
        alpha=MatrixQ.identity(3),
        beta=unipotent_full(),
    )


def make_L3(a) -> BiHomAlgebra:
    """Unipotent family with alpha the full Jordan block and beta its
    a-parametrized companion.

    The [e2,e3] and [e3,e3] entries are the twist-derived corrections; the
    commonly transcribed grid fails the multiplicativity axiom for generic
    a (ERRATA.md records both versions with a failing witness).
    """
    a = as_fraction(a)
    tensor = StructureTensor.from_brackets(3, {
        (0, 1): (2, 0, 0),
        (0, 2): (2 * a - 1, 2, 0),
        (1, 0): (-2, 0, 0),
        (1, 1): (2 * (1 - a), 0, 0),
        (1, 2): (3 * a - a * a, 3, 2),
        (2, 0): (-1, -2, 0),
        (2, 1): (-(a + 1), -(1 + 2 * a), -2),
        (2, 2): ((1 - a) * (a + 2) / 2, 1 - a * a, 2 * (1 - a)),
    })
    return BiHomAlgebra(
        dim=3,
        tensor=tensor,
        alpha=unipotent_full(),
        beta=unipotent_beta(a),
    )


def printed_L3_tensor(a) -> StructureTensor:
    """The commonly transcribed L3 bracket grid, kept for the errata tests.
    It differs from make_L3 in the e1-coefficients of [e2,e3] and [e3,e3]
    and fails the multiplicativity axiom unless a is 0 or 3: it is make_L3's
    grid with those two transcribed coefficients put back."""
    a = as_fraction(a)
    c = [[list(row) for row in plane] for plane in make_L3(a).tensor.c]
    c[1][2][0] = (3 * a - a * a) / 2
    c[2][2][0] = (1 - a) * (a + 4) / 2
    return StructureTensor(c)


def direct_sum(entries: list[BiHomAlgebra]) -> BiHomAlgebra:
    """Block-diagonal tensor and maps; a test-fixture builder."""
    total = sum(e.dim for e in entries)
    grid = [[list(zero_vector(total)) for _ in range(total)] for _ in range(total)]
    alpha = [[Q(0)] * total for _ in range(total)]
    beta = [[Q(0)] * total for _ in range(total)]
    offset = 0
    for e in entries:
        for i in range(e.dim):
            for j in range(e.dim):
                ck = e.tensor.bracket_basis(i, j)
                for k in range(e.dim):
                    grid[offset + i][offset + j][offset + k] = ck[k]
                alpha[offset + i][offset + j] = e.alpha.entries[i][j]
                beta[offset + i][offset + j] = e.beta.entries[i][j]
        offset += e.dim
    return BiHomAlgebra(
        dim=total,
        tensor=StructureTensor(grid),
        alpha=MatrixQ(alpha),
        beta=MatrixQ(beta),
    )


def sl2_bihom() -> BiHomAlgebra:
    """sl2 as a BiHom-Lie algebra with identity structure maps."""
    return BiHomAlgebra(dim=3, tensor=make_sl2(),
                        alpha=MatrixQ.identity(3), beta=MatrixQ.identity(3))

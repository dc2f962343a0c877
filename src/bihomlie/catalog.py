"""Exact constructors for the built-in algebras: the split 3-dimensional
simple Lie algebra sl2 and the three canonical families L1(a,b), L2, L3(a)
of 3-dimensional multiplicative simple BiHom-Lie algebras, plus block
direct sums used as test fixtures.

A regular algebra is the twist [x, y] = [alpha x, beta y]' of its induced
Lie algebra, and each family is built that way: yau_twist, which checks
that the maps commute and preserve the bracket, applied to sl2, or to sl2
in the basis adapted to the unipotent maps, with the family's pair of
commuting automorphisms (family_maps, which classify3's certificate reads
too). make_sl2's table is the only bracket table here.
The paper's tables, with the two L3 entries that the commonly transcribed
grid gets wrong (ERRATA.md), are the oracle of tests/test_catalog.py.
"""

from __future__ import annotations

import functools
import math

from .algebra import BiHomAlgebra, StructureTensor, conjugate_tensor
from .errors import DimensionMismatch, ZeroParameter
from .exactlin import MatrixQ, Q, as_fraction
from .twist import TwistInput, yau_twist


@functools.cache
def make_sl2() -> StructureTensor:
    """Standard sl2 constants in the basis (h, e, f):
    [h,e] = 2e, [h,f] = -2f, [e,f] = h. Built once per process; the tensor
    is immutable, and what it keeps (its Lie verdict, Killing form and
    height) are facts about the same values, so every caller shares it."""
    return StructureTensor.from_brackets(3, {
        (0, 1): (0, 2, 0),
        (1, 0): (0, -2, 0),
        (0, 2): (0, 0, -2),
        (2, 0): (0, 0, 2),
        (1, 2): (1, 0, 0),
        (2, 1): (-1, 0, 0),
    })


@functools.cache
def unipotent_base_tensor() -> StructureTensor:
    """sl2 written in the basis adapted to the unipotent families L2 and L3,
    built once per process as make_sl2 is.

    This is the standard algebra conjugated by u1 = e, u2 = -h,
    u3 = -(1/4)e + (1/2)h - 2f; the full-Jordan-block unipotent map is an
    automorphism of these constants.
    """
    return conjugate_tensor(make_sl2(), MatrixQ.from_columns(
        [(0, 1, 0), (-1, 0, 0), (Q(1, 2), Q(-1, 4), -2)]))


def unipotent_full() -> MatrixQ:
    """The full-Jordan-block unipotent structure map."""
    return MatrixQ([[1, 1, 0], [0, 1, 1], [0, 0, 1]])


def unipotent_beta(a) -> MatrixQ:
    """The unipotent beta of the L3 family: I + a*N + ((a^2-a)/2)*N^2."""
    a = as_fraction(a)
    return MatrixQ([[1, a, (a * a - a) / 2], [0, 1, a], [0, 0, 1]])


def family_maps(family: str, *params) -> tuple[StructureTensor, MatrixQ, MatrixQ]:
    """(base, alpha, beta) of a canonical family, whose algebra is the twist
    [x, y] = [alpha x, beta y]_base by commuting automorphisms of the base."""
    if family == "L1":   # (a, b)
        return (make_sl2(), *(MatrixQ.diagonal([1, p, 1 / p]) for p in params))
    if family == "L2":
        return unipotent_base_tensor(), MatrixQ.identity(3), unipotent_full()
    return unipotent_base_tensor(), unipotent_full(), unipotent_beta(*params)


def make_L1(a, b) -> BiHomAlgebra:
    """Diagonal family: sl2 in the basis (e1, e2, e3) = (h, e, f) twisted by
    alpha = diag(1, a, 1/a) and beta = diag(1, b, 1/b).

    Any nonzero rational parameters are accepted; a in {-1, 1} simply lands
    in the degenerate diagonal cases.
    """
    a, b = as_fraction(a), as_fraction(b)
    if a == 0 or b == 0:
        raise ZeroParameter("the L1 parameters must be nonzero")
    return yau_twist(TwistInput(*family_maps("L1", a, b)))


def make_L2() -> BiHomAlgebra:
    """Unipotent family: the unipotent base twisted by the identity alpha and
    the full-Jordan-block beta."""
    return yau_twist(TwistInput(*family_maps("L2")))


def make_L3(a) -> BiHomAlgebra:
    """Unipotent family: the unipotent base twisted by alpha the full Jordan
    block and beta its a-parametrized companion.

    The commonly transcribed grid differs from this twist in [e2,e3] and
    [e3,e3] and fails the multiplicativity axiom for generic a (ERRATA.md
    records both versions with a failing witness).
    """
    return yau_twist(TwistInput(*family_maps("L3", a)))


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


def _place(grid, rows, scale: int, offset: int) -> None:
    """Write scale * rows into grid as the diagonal block at offset."""
    for j, row in enumerate(rows):
        grid[offset + j][offset:offset + len(row)] = [scale * x for x in row]


def direct_sum(entries: list[BiHomAlgebra]) -> BiHomAlgebra:
    """Block-diagonal tensor and maps, placed from the blocks' scaled views
    over the lcm of their denominators; a test-fixture builder."""
    if not entries:
        raise DimensionMismatch("a direct sum needs at least one block")
    total = sum(e.dim for e in entries)
    views = [(e.tensor.scaled(), e.alpha.scaled(), e.beta.scaled()) for e in entries]
    dt, da, db = (math.lcm(*(view[part][0] for view in views)) for part in range(3))
    planes = [[[0] * total for _ in range(total)] for _ in range(total)]
    alpha, beta = ([[0] * total for _ in range(total)] for _ in range(2))
    offset = 0
    for (dc, c), (dm, m), (dn, n) in views:
        for i, plane in enumerate(c):
            _place(planes[offset + i], plane, dt // dc, offset)
        _place(alpha, m, da // dm, offset)
        _place(beta, n, db // dn, offset)
        offset += len(c)
    return BiHomAlgebra(dim=total, tensor=StructureTensor.from_scaled(dt, planes),
                        alpha=MatrixQ.from_scaled(da, alpha), beta=MatrixQ.from_scaled(db, beta))


def sl2_bihom() -> BiHomAlgebra:
    """sl2 as a BiHom-Lie algebra with identity structure maps."""
    return BiHomAlgebra(dim=3, tensor=make_sl2(),
                        alpha=MatrixQ.identity(3), beta=MatrixQ.identity(3))

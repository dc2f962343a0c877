"""The benchmark's own exact arithmetic on algebras given by structure
constants. It builds the inputs and checks the outputs without calling the
program under test, so a fault in the program cannot vouch for itself.

An algebra is held as (c, alpha, beta): c[i][j] is the coordinate list of
[e_i, e_j], and a matrix is a list of rows acting on coordinate columns, as
in the program's file format.
"""

from __future__ import annotations

import json
from fractions import Fraction as Q


def identity(n):
    return [[Q(int(i == j)) for j in range(n)] for i in range(n)]


def diagonal(values):
    n = len(values)
    return [[Q(values[i]) if i == j else Q(0) for j in range(n)] for i in range(n)]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Q(0)) for col in cols] for row in a]


def apply(m, v):
    return [sum((x * y for x, y in zip(row, v)), Q(0)) for row in m]


def column(m, j):
    return [row[j] for row in m]


def inverse(m):
    """Gauss-Jordan inverse; raises ZeroDivisionError on a singular matrix."""
    n = len(m)
    work = [list(m[i]) + [Q(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        src = next(r for r in range(col, n) if work[r][col] != 0)
        work[col], work[src] = work[src], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def det(m):
    n = len(m)
    work = [list(r) for r in m]
    out = Q(1)
    for col in range(n):
        src = next((r for r in range(col, n) if work[r][col] != 0), None)
        if src is None:
            return Q(0)
        if src != col:
            work[col], work[src] = work[src], work[col]
            out = -out
        out *= work[col][col]
        for r in range(col + 1, n):
            f = work[r][col] / work[col][col]
            if f:
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return out


def rank(rows):
    work = [list(r) for r in rows]
    r = 0
    for col in range(len(work[0]) if work else 0):
        src = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if src is None:
            continue
        work[r], work[src] = work[src], work[r]
        for i in range(r + 1, len(work)):
            f = work[i][col] / work[r][col]
            if f:
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    return r


def same_span(u, v):
    """True when the row lists u and v span the same subspace."""
    return rank(u) == rank(v) == rank(list(u) + list(v))


def bracket(c, x, y):
    n = len(c)
    out = [Q(0)] * n
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj:
                    f = xi * yj
                    for k, ck in enumerate(c[i][j]):
                        if ck:
                            out[k] += f * ck
    return out


class Algebra:
    """A 4-tuple (c, alpha, beta) in a fixed basis."""

    def __init__(self, c, alpha, beta):
        self.n = len(c)
        self.c = [[list(map(Q, row)) for row in plane] for plane in c]
        self.alpha = [list(map(Q, row)) for row in alpha]
        self.beta = [list(map(Q, row)) for row in beta]

    def dumps(self):
        """The program's canonical file layout: reduced rationals, fixed key
        order, one grid row per line."""
        def row(r):
            return json.dumps([str(x) for x in r])

        n = self.n
        lines = ["{", f'  "dim": {n},',
                 f'  "basis": {json.dumps([f"e{i + 1}" for i in range(n)])},',
                 '  "bracket": [']
        for i in range(n):
            lines.append("    [")
            for j in range(n):
                lines.append("      " + row(self.c[i][j]) + ("," if j + 1 < n else ""))
            lines.append("    ]" + ("," if i + 1 < n else ""))
        lines.append("  ],")
        for key, m in (("alpha", self.alpha), ("beta", self.beta)):
            lines.append(f'  "{key}": [')
            for i in range(n):
                lines.append("    " + row(m[i]) + ("," if i + 1 < n else ""))
            lines.append("  ]" + ("," if key == "alpha" else ""))
        lines.append("}")
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text):
        doc = json.loads(text)
        return cls([[[Q(x) for x in row] for row in plane] for plane in doc["bracket"]],
                   [[Q(x) for x in row] for row in doc["alpha"]],
                   [[Q(x) for x in row] for row in doc["beta"]])


def matrix_dumps(m):
    return json.dumps([[str(x) for x in row] for row in m]) + "\n"


def from_brackets(n, table):
    c = [[[Q(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j), coeffs in table.items():
        c[i][j] = [Q(x) for x in coeffs]
    return c


def twist(lie_c, alpha, beta):
    """Yau twist [x, y] = [alpha(x), beta(y)]' of a Lie bracket."""
    n = len(lie_c)
    acols = [column(alpha, j) for j in range(n)]
    bcols = [column(beta, j) for j in range(n)]
    return Algebra([[bracket(lie_c, acols[i], bcols[j]) for j in range(n)]
                    for i in range(n)], alpha, beta)


def conjugate(a, b, b_inv=None):
    """The algebra in the basis given by the columns of b."""
    b_inv = inverse(b) if b_inv is None else b_inv
    cols = [column(b, j) for j in range(a.n)]
    c = [[apply(b_inv, bracket(a.c, cols[i], cols[j])) for j in range(a.n)]
         for i in range(a.n)]
    return Algebra(c, matmul(matmul(b_inv, a.alpha), b),
                   matmul(matmul(b_inv, a.beta), b))


def direct_sum(parts):
    n = sum(p.n for p in parts)
    c = [[[Q(0)] * n for _ in range(n)] for _ in range(n)]
    alpha = [[Q(0)] * n for _ in range(n)]
    beta = [[Q(0)] * n for _ in range(n)]
    off = 0
    for p in parts:
        for i in range(p.n):
            for j in range(p.n):
                for k in range(p.n):
                    c[off + i][off + j][off + k] = p.c[i][j][k]
                alpha[off + i][off + j] = p.alpha[i][j]
                beta[off + i][off + j] = p.beta[i][j]
        off += p.n
    return Algebra(c, alpha, beta)


def block_diagonal(blocks):
    n = sum(len(b) for b in blocks)
    out = [[Q(0)] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(row)] = row
        off += len(b)
    return out


# --- the catalog of 3-dimensional simple BiHom-Lie algebras ---------------

SL2 = from_brackets(3, {(0, 1): (0, 2, 0), (1, 0): (0, -2, 0), (0, 2): (0, 0, -2),
                        (2, 0): (0, 0, 2), (1, 2): (1, 0, 0), (2, 1): (-1, 0, 0)})
JORDAN = [[Q(1), Q(1), Q(0)], [Q(0), Q(1), Q(1)], [Q(0), Q(0), Q(1)]]


def make_l1(a, b):
    a, b = Q(a), Q(b)
    return twist(SL2, diagonal([1, a, 1 / a]), diagonal([1, b, 1 / b]))


def make_l2():
    c = from_brackets(3, {(0, 1): (2, 0, 0), (0, 2): (1, 2, 0), (1, 0): (-2, 0, 0),
                          (1, 1): (-2, 0, 0), (1, 2): (1, 1, 2), (2, 0): (1, -2, 0),
                          (2, 1): (0, -3, -2), (2, 2): (-1, -1, -2)})
    return Algebra(c, identity(3), JORDAN)


def make_l3(a):
    a = Q(a)
    c = from_brackets(3, {
        (0, 1): (2, 0, 0), (0, 2): (2 * a - 1, 2, 0), (1, 0): (-2, 0, 0),
        (1, 1): (2 * (1 - a), 0, 0), (1, 2): (3 * a - a * a, 3, 2),
        (2, 0): (-1, -2, 0), (2, 1): (-(a + 1), -(1 + 2 * a), -2),
        (2, 2): ((1 - a) * (a + 2) / 2, 1 - a * a, 2 * (1 - a))})
    beta = [[Q(1), a, (a * a - a) / 2], [Q(0), Q(1), a], [Q(0), Q(0), Q(1)]]
    return Algebra(c, JORDAN, beta)


def catalog(family, params):
    if family == "L1":
        return make_l1(*params)
    if family == "L2":
        return make_l2()
    return make_l3(*params)


def normalize_l1(a, b):
    """The documented L1 height rule: of (a, b) and (1/a, 1/b), report the
    pair with larger |a|, then larger a, then larger |b|, then larger b."""
    a, b = Q(a), Q(b)
    key = lambda p: (abs(p[0]), p[0], abs(p[1]), p[1])
    return max((a, b), (1 / a, 1 / b), key=key)


# --- the four axioms, evaluated at one basis index tuple ------------------

def axiom_sides(a, name, indices):
    """(lhs, rhs) of one axiom at one basis tuple, as the program's check
    witnesses define them."""
    n, col = a.n, column
    if name == "commuting":
        (j,) = indices
        return (apply(a.alpha, col(a.beta, j)), apply(a.beta, col(a.alpha, j)))
    if name in ("multiplicative_alpha", "multiplicative_beta"):
        m = a.alpha if name == "multiplicative_alpha" else a.beta
        i, j = indices
        return apply(m, a.c[i][j]), bracket(a.c, col(m, i), col(m, j))
    if name == "skew":
        i, j = indices
        return (bracket(a.c, col(a.beta, i), col(a.alpha, j)),
                [-x for x in bracket(a.c, col(a.beta, j), col(a.alpha, i))])
    if name == "jacobi":
        beta2 = matmul(a.beta, a.beta)

        def term(i, j, k):
            return bracket(a.c, col(beta2, i),
                           bracket(a.c, col(a.beta, j), col(a.alpha, k)))
        i, j, k = indices
        total = [x + y + z for x, y, z in zip(term(i, j, k), term(j, k, i), term(k, i, j))]
        return total, [Q(0)] * n
    raise ValueError(f"unknown axiom {name}")


def first_failure(a):
    """First failing (axiom, indices) among commuting and multiplicativity,
    or None. Cheap enough to run on every corrupted input at set-up."""
    n = a.n
    for j in range(n):
        lhs, rhs = axiom_sides(a, "commuting", (j,))
        if lhs != rhs:
            return "commuting", (j,)
    for name in ("multiplicative_alpha", "multiplicative_beta"):
        for i in range(n):
            for j in range(n):
                lhs, rhs = axiom_sides(a, name, (i, j))
                if lhs != rhs:
                    return name, (i, j)
    return None

"""The three workloads: seeded inputs, the CLI calls made on them, and the
facts each output must match, all known from how the input was built.

An operation is (argv, spec). argv is passed to bihomlie.cli.main with paths
relative to the checkout root; spec tells checks.py what a correct output is.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction as Q

import exact as E

# The non-simple ladder rungs DS_k take the first k of these; the round-trip
# inputs draw from them. Every entry is 3-dimensional and simple.
PARTS = (E.make_l1(2, 3), E.make_l3(5), E.make_l2(), E.make_l1(-3, Q(7, 2)), E.make_l3(-1))

LADDER_K = (2, 3)              # dims 6 and 9; see README for the trimmed rungs
BIG_HEIGHT = 10 ** 10          # L1 numerators near this height; 10**16 does not finish
NOT_SPLIT_SEED = 2             # fixed: these inputs do not depend on --seed
MIXING_SEED = 3                # fixed: the dense factor of every mixing()


def lu(n, rng, spread):
    """Unit lower times unit upper triangular: invertible, det 1."""
    lower = [[Q(1) if i == j else Q(rng.randint(-spread, spread)) if i > j else Q(0)
              for j in range(n)] for i in range(n)]
    upper = [[Q(1) if i == j else Q(rng.randint(-spread, spread)) if i < j else Q(0)
              for j in range(n)] for i in range(n)]
    return E.matmul(lower, upper)


def mixing(n, rng):
    """A fixed dense unimodular matrix times a seeded signed permutation.
    The result differs by seed, but every seed gives entries of the same
    heights, so the cost of an input does not vary with the seed."""
    perm = list(range(n))
    rng.shuffle(perm)
    signed = [[Q(rng.choice((-1, 1))) if perm[i] == j else Q(0) for j in range(n)]
              for i in range(n)]
    return E.matmul(lu(n, random.Random(MIXING_SEED), 2), signed)


def small_q(rng, exclude=(0,), height=5):
    while True:
        q = Q(rng.randint(-height, height), rng.randint(1, height))
        if q not in exclude:
            return q


def is_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


class Builder:
    """Writes input files into one work directory and collects operations."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.ops = []
        self._count = 0
        os.makedirs(os.path.join(workdir, "out"), exist_ok=True)

    def write(self, algebra, stem=None):
        self._count += 1
        path = os.path.join(self.workdir, f"{stem or 'in'}{self._count:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(algebra.dumps())
        return path

    def op(self, argv, **spec):
        self.ops.append((argv, spec))


# --- analyze-ladder ---------------------------------------------------------

def block_cycle(k, a, b):
    """Twist of k copies of sl2 by alpha = (cyclic block shift) * diag(1,a,1/a)
    per block and beta = diag(1,b,1/b) per block. alpha permutes the k simple
    ideals in one cycle, so the BiHom-Lie algebra is simple."""
    n = 3 * k
    lie = E.direct_sum([E.Algebra(E.SL2, E.identity(3), E.identity(3))] * k).c
    shift = [[Q(0)] * n for _ in range(n)]
    for blk in range(k):
        for t in range(3):
            shift[3 * ((blk + 1) % k) + t][3 * blk + t] = Q(1)
    da = E.block_diagonal([E.diagonal([1, a, 1 / a])] * k)
    db = E.block_diagonal([E.diagonal([1, b, 1 / b])] * k)
    return E.twist(lie, E.matmul(shift, da), db)


def analyze_ladder(seed, workdir):
    rng = random.Random(seed)
    b = Builder(workdir)
    for k in LADDER_K:
        blocks = [mixing(3, rng) for _ in range(k)]
        change = E.block_diagonal(blocks)
        inverse = E.block_diagonal([E.inverse(m) for m in blocks])
        for simple in (False, True):
            base = block_cycle(k, Q(2), Q(3)) if simple else E.direct_sum(PARTS[:k])
            path = b.write(E.conjugate(base, change, inverse))
            b.op(["analyze", "--json", path], kind="analyze", k=k, simple=simple,
                 inverse=inverse)
    return b.ops


# --- classify-batch ---------------------------------------------------------

def random_family(rng, path):
    """(algebra, family, normalised params) for one classifier path."""
    if path == "L1":
        a, bb = small_q(rng, exclude=(0, 1, -1)), small_q(rng)
    elif path == "L1(1,b)":
        a, bb = Q(1), small_q(rng, exclude=(0, 1))
    elif path == "L1(-1,b)":
        a, bb = Q(-1), small_q(rng)
    elif path == "sl2":
        a, bb = Q(1), Q(1)
    elif path == "L2":
        return E.make_l2(), "L2", ()
    elif path == "L3":
        a = small_q(rng, exclude=())
        return E.make_l3(a), "L3", (a,)
    else:
        raise ValueError(path)
    return E.make_l1(a, bb), "L1", E.normalize_l1(a, bb)


PATH_COUNTS = (("L1", 20), ("L1(1,b)", 10), ("L1(-1,b)", 10), ("sl2", 10),
               ("L2", 10), ("L3", 20))


def next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def classify_batch(seed, workdir):
    rng = random.Random(seed)
    b = Builder(workdir)

    def conj(alg):
        return E.conjugate(alg, lu(3, rng, 2))

    for path, count in PATH_COUNTS:
        for _ in range(count):
            alg, family, params = random_family(rng, path)
            f = b.write(conj(alg))
            b.op(["classify3", "--json", f], kind="classify3", file=f,
                 family=family, params=params)
    # Large heights: a = p/7 with p prime, so trial division in rational_roots
    # runs to sqrt(7p) while the candidate list stays short.
    for _ in range(4):
        p = next_prime(BIG_HEIGHT + rng.randrange(10 ** 6))
        a, bb = Q(rng.choice((1, -1)) * p, 7), small_q(rng)
        f = b.write(conj(E.make_l1(a, bb)))
        b.op(["classify3", "--json", f], kind="classify3", file=f,
             family="L1", params=E.normalize_l1(a, bb))
    # sl2 with identity maps under a wide-spread basis change. The search grid
    # of find_sl2_triple misses the split element on some of these and raises
    # NotSplit; such an operation counts as failed.
    fixed = random.Random(NOT_SPLIT_SEED)
    for _ in range(10):
        diag = E.diagonal([Q(fixed.randint(-10, 10) or 1, fixed.randint(1, 10))
                           for _ in range(3)])
        alg = E.conjugate(E.make_l1(1, 1), E.matmul(lu(3, fixed, 10), diag))
        f = b.write(alg, stem="wide")
        b.op(["classify3", "--json", f], kind="classify3", file=f,
             family="L1", params=(Q(1), Q(1)), may_fail="NotSplit")
    paths = [p for p, _ in PATH_COUNTS]
    for _ in range(8):
        alg, _, _ = random_family(rng, rng.choice(paths))
        f1, f2 = b.write(conj(alg)), b.write(conj(alg))
        b.op(["iso3", "--json", f1, f2], kind="iso3", files=(f1, f2), iso=True)
    for _ in range(4):
        a, bb = small_q(rng, exclude=(0, 1, -1)), small_q(rng)
        f1 = b.write(conj(E.make_l1(a, bb)))
        f2 = b.write(conj(E.make_l1(1 / a, 1 / bb)))
        b.op(["iso3", "--json", f1, f2], kind="iso3", files=(f1, f2), iso=True)
    for _ in range(12):
        while True:
            x = random_family(rng, rng.choice(paths))
            y = random_family(rng, rng.choice(paths))
            if (x[1], x[2]) != (y[1], y[2]):
                break
        f1, f2 = b.write(conj(x[0])), b.write(conj(y[0]))
        b.op(["iso3", "--json", f1, f2], kind="iso3", files=(f1, f2), iso=False)
    return b.ops


# --- check-roundtrip --------------------------------------------------------

def corrupt(alg, rng):
    """A copy with one bracket entry changed so that an axiom fails."""
    n = alg.n
    while True:
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        bad = E.Algebra(alg.c, alg.alpha, alg.beta)
        bad.c[i][j][k] += rng.choice((1, -1, Q(1, 2)))
        failure = E.first_failure(bad)
        if failure is not None:
            return bad, failure[0]


def check_roundtrip(seed, workdir):
    rng = random.Random(seed)
    b = Builder(workdir)

    def block_conjugated(k):
        return E.direct_sum([E.conjugate(p, mixing(3, rng)) for p in PARTS[:k]])

    def fully_conjugated(parts):
        return E.conjugate(E.direct_sum(parts), mixing(6, rng))

    valid = [block_conjugated(k) for k in (3, 4, 5)]
    valid += [fully_conjugated(PARTS[:2]), fully_conjugated(PARTS[2:4])]
    for alg in valid:
        f = b.write(alg)
        maps = {}
        for key, m in (("alpha", alg.alpha), ("beta", alg.beta)):
            maps[key] = f[:-5] + f".{key}.json"
            with open(maps[key], "w", encoding="utf-8") as fh:
                fh.write(E.matrix_dumps(m))
        out = os.path.join(b.workdir, "out", os.path.basename(f)[:-5])
        b.op(["check", "--json", f], kind="check", file=f, fails=None)
        b.op(["induce", f, "-o", out + ".lie.json"], kind="silent")
        b.op(["twist", out + ".lie.json", "--alpha", maps["alpha"],
              "--beta", maps["beta"], "-o", out + ".back.json"],
             kind="twist", out=out + ".back.json", orig=f)
    for alg in (block_conjugated(4), fully_conjugated(PARTS[3:5])):
        bad, axiom = corrupt(alg, rng)
        f = b.write(bad, stem="bad")
        b.op(["check", "--json", f], kind="check", file=f, fails=axiom)
    return b.ops


WORKLOADS = {
    "analyze-ladder": analyze_ladder,
    "classify-batch": classify_batch,
    "check-roundtrip": check_roundtrip,
}

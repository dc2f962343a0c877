"""Shared test helpers: seeded random rationals and invertible matrices, a
wall-clock deadline for inputs that must finish in bounded time, and the
Fraction reference bracket that the tests use as their oracle."""

import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest

from bihomlie.errors import DimensionMismatch
from bihomlie.exactlin import MatrixQ, Q


def random_fraction(rng, max_height=10, nonzero=False):
    while True:
        num = rng.randint(-max_height, max_height)
        den = rng.randint(1, max_height)
        q = Fraction(num, den)
        if not nonzero or q != 0:
            return q


def random_invertible(n, rng, spread=2):
    """Unit lower times unit upper triangular: always invertible, small entries."""
    lower = [[Q(1) if i == j else (Q(rng.randint(-spread, spread)) if i > j else Q(0))
              for j in range(n)] for i in range(n)]
    upper = [[Q(1) if i == j else (Q(rng.randint(-spread, spread)) if i < j else Q(0))
              for j in range(n)] for i in range(n)]
    return MatrixQ(lower) * MatrixQ(upper)


@contextmanager
def deadline(seconds):
    """Fail the test if the block runs longer than `seconds` of wall time.

    A SIGALRM timer (setitimer, ITIMER_REAL) interrupts the block between
    bytecodes, so a run-away pure-Python loop fails with a clear message
    instead of hanging the suite. Main thread only, not re-entrant."""
    def expire(signum, frame):
        pytest.fail(f"did not finish within {seconds} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def lift_coordinates(space, coords):
    """The vector of Q^n with the given coordinates in the RREF basis of
    `space`, in Fraction arithmetic."""
    out = [Q(0)] * space.ambient_dim
    for c, row in zip(coords, space.basis_rows):
        out = [a + c * b for a, b in zip(out, row)]
    return tuple(out)


def fraction_bracket(t, x, y):
    """[x, y] of coordinate vectors in the tensor t, by the Fraction triple
    loop over the grid t.c that StructureTensor.bracket ran before it moved
    onto the integer view: the reference the tests compare against."""
    if len(x) != t.dim or len(y) != t.dim:
        raise DimensionMismatch("vector length does not match algebra dimension")
    out = [Q(0)] * t.dim
    for xi, row in zip(x, t.c):
        if xi != 0:
            for yj, ck in zip(y, row):
                if yj != 0:
                    coeff = xi * yj
                    for k, v in enumerate(ck):
                        if v != 0:
                            out[k] += coeff * v
    return tuple(out)

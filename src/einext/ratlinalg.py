"""Exact linear algebra over the rationals.

Small dense routines used by the eigenvalue-type enumeration: square
solves and an incremental span tracker.  The tracker stores its basis
fraction-free, as primitive integer rows of the (unique) reduced echelon
form, so membership tests cost only integer arithmetic and
:meth:`SpanTracker.signature` is a canonical hashable label of the
subspace.  No floating point enters here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

Row = list[Fraction]


def solve_square(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Row:
    """Solve an exactly determined square system; raises on a singular matrix."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("square system expected")
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for c in range(n):
        pivot_row = next((k for k in range(c, n) if aug[k][c] != 0), None)
        if pivot_row is None:
            raise ValueError("singular matrix")
        aug[c], aug[pivot_row] = aug[pivot_row], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for k in range(n):
            if k != c and aug[k][c] != 0:
                f = aug[k][c]
                aug[k] = [a - f * b for a, b in zip(aug[k], aug[c])]
    return [aug[i][n] for i in range(n)]


def _to_int_row(vector: Sequence) -> list[int]:
    """Clear denominators, returning an integer multiple of the vector."""
    if all(type(x) is int for x in vector):
        return list(vector)
    fracs = [Fraction(x) for x in vector]
    scale = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
    return [int(f * scale) for f in fracs]


def int_det(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [[int(x) for x in row] for row in matrix]
    sign = 1
    prev = 1
    for c in range(n - 1):
        if m[c][c] == 0:
            swap = next((k for k in range(c + 1, n) if m[k][c] != 0), None)
            if swap is None:
                return 0
            m[c], m[swap] = m[swap], m[c]
            sign = -sign
        for r in range(c + 1, n):
            for j in range(c + 1, n):
                m[r][j] = (m[r][j] * m[c][c] - m[r][c] * m[c][j]) // prev
            m[r][c] = 0
        prev = m[c][c]
    return sign * m[n - 1][n - 1]


def solve_int_system(matrix: Sequence[Sequence[int]], rhs: Sequence[int]) -> list[Fraction]:
    """Exact solution of a square integer system via Cramer with Bareiss minors."""
    n = len(matrix)
    det = int_det(matrix)
    if det == 0:
        raise ValueError("singular matrix")
    out = []
    for c in range(n):
        replaced = [
            [rhs[r] if j == c else matrix[r][j] for j in range(n)] for r in range(n)
        ]
        out.append(Fraction(int_det(replaced), det))
    return out


def _primitive(row: list[int]) -> list[int]:
    g = math.gcd(*(abs(x) for x in row))
    return row if g in (0, 1) else [x // g for x in row]


class SpanTracker:
    """Incremental membership test for the span of a growing set of vectors.

    The basis rows are the reduced echelon form scaled to primitive integer
    vectors with positive pivots, a canonical representation of the spanned
    subspace.  Vectors are reduced by fraction-free cross-multiplication.
    """

    __slots__ = ("ncols", "_rows", "_pivots")

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: list[list[int]] = []
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, vector: Sequence) -> list[int]:
        vec = _to_int_row(vector)
        for row, p in zip(self._rows, self._pivots):
            v = vec[p]
            if v:
                a = row[p]
                vec = [a * x - v * y for x, y in zip(vec, row)]
                vec = _primitive(vec)
        return vec

    def contains(self, vector: Sequence) -> bool:
        return not any(self._reduce(vector))

    def add(self, vector: Sequence) -> bool:
        """Add a vector; returns False (and changes nothing) if dependent."""
        vec = self._reduce(vector)
        pivot = next((c for c, x in enumerate(vec) if x), None)
        if pivot is None:
            return False
        if vec[pivot] < 0:
            vec = [-x for x in vec]
        for k, row in enumerate(self._rows):
            r = row[pivot]
            if r:
                a = vec[pivot]
                self._rows[k] = _primitive([a * x - r * y for x, y in zip(row, vec)])
        pos = next((k for k, p in enumerate(self._pivots) if p > pivot), len(self._pivots))
        self._rows.insert(pos, vec)
        self._pivots.insert(pos, pivot)
        return True

    def copy(self) -> "SpanTracker":
        clone = SpanTracker(self.ncols)
        clone._rows = [row[:] for row in self._rows]
        clone._pivots = self._pivots[:]
        return clone

    def reduce_matrix(self, mat: np.ndarray) -> np.ndarray:
        """Reduce every row of an integer matrix against the basis at once.

        A row reduces to zero exactly when it lies in the span.  Arithmetic
        is exact int64; the growth bound is checked so an overflow raises
        instead of wrapping (pivots stay small for the vectors used here).
        """
        out = np.array(mat, dtype=np.int64, copy=True)
        for row, p in zip(self._rows, self._pivots):
            a = int(row[p])
            r = np.asarray(row, dtype=np.int64)
            bound = (
                a * int(np.abs(out).max(initial=0))
                + int(np.abs(out[:, p]).max(initial=0)) * int(np.abs(r).max(initial=0))
            )
            if bound > 2**62:
                raise OverflowError("integer growth too large for batch reduction")
            out = a * out - out[:, p : p + 1] * r[None, :]
        return out

    def signature(self) -> tuple:
        """Canonical hashable label of the tracked subspace."""
        return tuple(tuple(row) for row in self._rows)

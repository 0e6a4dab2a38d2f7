"""Shared samplers for the randomized suites, and the exact projector onto
the complement of a span that the projector tests build on."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from einext.algebra import StructureTensor
from einext.ratlinalg import _exact, extend, images


def random_sparse_tensor(rng, max_dim: int = 5):
    """Random sparse frame data: entries in [-1, 1], eigenvalues int in [-3, 3]."""
    n = int(rng.integers(2, max_dim + 1))
    entries = {}
    for _ in range(int(rng.integers(1, n + 2))):
        i, j = sorted(rng.choice(np.arange(1, n + 1), size=2, replace=False).tolist())
        k = int(rng.integers(1, n + 1))
        entries[(int(i), int(j), int(k))] = float(rng.uniform(-1, 1))
    p = [int(x) for x in rng.integers(-3, 4, size=n)]
    return StructureTensor(n, entries), p


def random_lie_tensor(rng, max_dim: int = 4):
    """Random structure constants satisfying the Jacobi identity exactly.

    Draws from three families that are Lie algebras by construction for any
    values: abelian, two-step nilpotent (all brackets land in a central
    slice), and a single generator acting linearly on an abelian ideal.
    """
    n = int(rng.integers(2, max_dim + 1))
    family = int(rng.integers(0, 3))
    entries = {}
    if family == 1 and n >= 3:
        center = int(rng.integers(1, n - 1))
        for _ in range(int(rng.integers(1, n + 1))):
            i, j = sorted(
                rng.choice(np.arange(1, n - center + 1), size=2, replace=False).tolist()
            ) if n - center >= 2 else (0, 0)
            if i == 0:
                continue
            k = int(rng.integers(n - center + 1, n + 1))
            entries[(int(i), int(j), int(k))] = float(rng.uniform(-1, 1))
    elif family == 2:
        for i in range(1, n):
            for j in range(1, n):
                if i != j and rng.uniform() < 0.4:
                    entries[(n, i, j)] = float(rng.uniform(-1, 1))
                elif i == j and rng.uniform() < 0.4:
                    entries[(n, i, i)] = float(rng.uniform(-1, 1))
    return StructureTensor(n, entries, lie=True), [int(x) for x in rng.integers(-3, 4, size=n)]


def _int_rows(vectors: Sequence[Sequence], dim: int) -> np.ndarray:
    """Each vector scaled by the lcm of its denominators, as integer rows."""
    rows = []
    for vec in vectors:
        fracs = [Fraction(x) for x in vec]
        scale = math.lcm(*(f.denominator for f in fracs))
        rows.append([int(f * scale) for f in fracs])
    return _exact(np.array(rows, dtype=object).reshape(len(rows), dim))


def complement_projector(
    vectors: Sequence[Sequence], dim: int
) -> tuple[np.ndarray, int, list[bool]]:
    """The projector Q / d onto the complement of the span of ``vectors``.

    Vectors are added in order; the flags say which of them were independent
    of the ones before.  Entries may be integers or rationals.
    """
    Q, d = np.eye(dim, dtype=np.int64), 1
    independent = []
    for row in _int_rows(vectors, dim):
        u = images(row[None, :], Q)
        independent.append(bool(u.any()))
        if independent[-1]:
            numer, denom = extend(Q, d, u)
            Q, d = _exact(numer[0]), int(denom[0])
    return Q, d, independent

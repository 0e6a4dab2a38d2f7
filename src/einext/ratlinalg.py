"""Exact linear algebra over the rationals.

The orthogonal projector onto the complement of a span, used by the
eigenvalue-type enumeration.  The projector P = Q / d is kept
fraction-free, as a symmetric integer matrix Q over a positive denominator
d in lowest terms; that pair is unique to the subspace, so
:func:`projector_key` is a canonical hashable label of it.  Integer
arithmetic is int64 while a growth bound allows it and exact Python
integers past it.  No floating point enters here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

# An int64 array here holds entries below _ENTRY_CAP, so sums along its
# rows stay exact; products are checked against _PRODUCT_CAP before they
# are formed.  Past either bound the arithmetic runs on Python integers.
_ENTRY_CAP = 2**40
_PRODUCT_CAP = 2**62


def _top(a: np.ndarray) -> int:
    return int(np.abs(a).max(initial=0))


def _exact(a: np.ndarray) -> np.ndarray:
    """int64 when every entry is below the cap, Python integers otherwise.

    The choice depends on the values alone, which keeps
    :func:`projector_key` canonical whichever path computed the matrix.
    """
    if _top(a) < _ENTRY_CAP:
        return a if a.dtype == np.int64 else a.astype(np.int64)
    return a if a.dtype == object else a.astype(object)


def _int_rows(vectors: Sequence[Sequence], dim: int) -> np.ndarray:
    """Each vector scaled by the lcm of its denominators, as integer rows."""
    rows = []
    for vec in vectors:
        fracs = [Fraction(x) for x in vec]
        scale = math.lcm(*(f.denominator for f in fracs))
        rows.append([int(f * scale) for f in fracs])
    return _exact(np.array(rows, dtype=object).reshape(len(rows), dim))


def images(vectors: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The integer rows ``vectors @ Q``: row r maps to d P r (Q is symmetric).

    A zero row is a vector that lies in the subspace.
    """
    bound = vectors.shape[1] * _top(vectors) * _top(Q)
    if bound < _PRODUCT_CAP and vectors.dtype != object and Q.dtype != object:
        return _exact(vectors @ Q)
    return _exact(vectors.astype(object) @ Q.astype(object))


def _lines(U: np.ndarray) -> np.ndarray:
    """The distinct lines spanned by the nonzero rows of U, one primitive row each."""
    U = U[U.any(axis=1)]
    U = U // np.gcd.reduce(U, axis=1)[:, None]
    lead = U[np.arange(len(U)), (U != 0).argmax(axis=1)]
    U = np.where(lead < 0, -1, 1)[:, None] * U
    distinct = {tuple(row): k for k, row in enumerate(U.tolist())}
    return U[list(distinct.values())]


def extend(Q: np.ndarray, d: int, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projectors onto the complements of W + span(r), one per distinct child.

    ``Q / d`` projects onto the complement of W, and the rows of U are the
    images ``images(R, Q)`` of vectors r.  Rows that vanish (r in W) are
    skipped, parallel rows give the same child and are built once.  With
    u = Q r the child is ``(<u,u> Q - d u u^t) / (d <u,u>)`` in lowest terms,
    built for all children at once; the growth bound is checked first and
    the batch runs on Python integers when int64 could overflow.  Returns
    the stacked numerators and the denominators.
    """
    U = _lines(U)
    n = Q.shape[0]
    top_u = _top(U)
    norm_bound = n * top_u * top_u
    if (
        max(norm_bound * _top(Q) + d * top_u * top_u, d * norm_bound) >= _PRODUCT_CAP
        or U.dtype == object
        or Q.dtype == object
    ):
        U, Q = U.astype(object), Q.astype(object)
    norms = (U * U).sum(axis=1)
    numer = norms[:, None, None] * Q[None] - d * (U[:, :, None] * U[:, None, :])
    denom = d * norms
    g = np.gcd(np.gcd.reduce(numer.reshape(len(U), n * n), axis=1), denom)
    return _exact(numer // g[:, None, None]), denom // g


def projector_key(Q: np.ndarray, d: int) -> tuple:
    """Canonical hashable label of the subspace whose complement Q / d projects onto."""
    if Q.dtype == object:
        Q = _exact(Q)
    return (int(d), Q.tobytes() if Q.dtype != object else tuple(Q.ravel().tolist()))


def projector_from_key(key: tuple, dim: int) -> tuple[np.ndarray, int]:
    """The projector ``(Q, d)`` that :func:`projector_key` labelled ``key``."""
    d, data = key
    if isinstance(data, bytes):
        return np.frombuffer(data, dtype=np.int64).reshape(dim, dim), d
    return np.array(data, dtype=object).reshape(dim, dim), d


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

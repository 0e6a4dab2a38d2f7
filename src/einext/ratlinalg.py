"""Exact linear algebra over the rationals, batched over projectors.

The projector P = Q / d onto the complement of a span is kept fraction-free,
Q symmetric over a positive d in lowest terms: unique to the subspace, so
the key row ``[d, upper triangle of Q]`` is a canonical, compact label of
it.  Every function takes a batch (one projector is a batch of one) and
runs on int64 while a growth bound allows, on Python integers past it.
"""

from __future__ import annotations

import functools

import numpy as np

# An int64 array here holds entries below _ENTRY_CAP, so sums along its
# rows stay exact; products are checked against _PRODUCT_CAP before they
# are formed.  Past either bound the arithmetic runs on Python integers.
_ENTRY_CAP = 2**40
_PRODUCT_CAP = 2**62


def _top(a: np.ndarray) -> int:
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def _exact(a: np.ndarray) -> np.ndarray:
    """int64 when every entry is below the cap, Python integers otherwise: the values alone choose."""
    if _top(a) < _ENTRY_CAP:
        return a if a.dtype == np.int64 else a.astype(np.int64)
    return a if a.dtype == object else a.astype(object)


def _widen(bound: int, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays on Python integers if a product may reach ``bound`` or one already is."""
    if bound < _PRODUCT_CAP and all(a.dtype != object for a in arrays):
        return arrays
    return tuple(a.astype(object) for a in arrays)


def narrowest(rows: np.ndarray) -> np.ndarray:
    """The rows as int16 or int32 when their values fit, for storage."""
    top = _top(rows)
    return rows.astype(np.int16 if top < 2**15 else np.int32) if top < 2**31 else rows


def distinct(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of an integer array: sorted by a hash of their values, with
    equal hashes compared, or by value on a collision or for Python integers."""
    if len(rows) < 2:
        return rows
    if rows.dtype != object:
        # sum_c row[c] K^(C-1-c) mod 2^64, on blocks of rows widened to 64 bits
        powers = np.cumprod(np.full(rows.shape[1], 0x9E3779B97F4A7C15, np.uint64))
        powers = np.r_[powers[-2::-1], 1].astype(np.uint64)
        blocks = np.array_split(rows, len(rows) // 2**16 + 1)
        hashes = np.concatenate([block.astype(np.uint64) @ powers for block in blocks])
        order = np.argsort(hashes)
        repeat = np.flatnonzero(hashes[order[1:]] == hashes[order[:-1]])
        if (rows[order[repeat]] == rows[order[repeat + 1]]).all():
            return rows[np.sort(np.delete(order, repeat + 1))]
    rows = rows[np.lexsort(rows.T[::-1])]
    return rows[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]]


@functools.cache
def _triangle(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row and column of each upper-triangle slot of an n x n matrix, and the slot of each entry."""
    i, j = np.triu_indices(n)
    slot = np.zeros((n, n), dtype=np.intp)
    slot[i, j] = slot[j, i] = np.arange(len(i))
    return i, j, slot


def projector_keys(Q: np.ndarray, d) -> np.ndarray:
    """The key rows ``[d, upper triangle of Q]`` of the projectors Q / d."""
    i, j, _ = _triangle(Q.shape[-1])
    return _exact(np.column_stack([np.asarray(d, dtype=Q.dtype), Q[:, i, j]]))


def projectors(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The stacked ``(Q, d)`` that :func:`projector_keys` labelled ``keys``."""
    return keys[:, 1:][:, _triangle(n)[2]], keys[:, 0]


def images(vectors: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The rows ``vectors @ Q[k]``, shape (N, R, n): d P r for each r, zero for r in W."""
    vectors, Q = _widen(vectors.shape[1] * _top(vectors) * _top(Q), vectors, Q)
    return _exact(vectors @ Q)


def reject(s: np.ndarray, U: np.ndarray) -> np.ndarray:
    """``<u,u> s[k] - <u,s[k]> u`` for each row u of U[k]: <u,u> times the part
    of s[k] orthogonal to u, one Gram-Schmidt step on integers."""
    top_u = _top(U)
    U, s = _widen(2 * U.shape[2] * top_u * top_u * _top(s), U, s)
    s = s[:, None, :]
    out = (U * U).sum(axis=2)[..., None] * s
    out -= (U * s).sum(axis=2)[..., None] * U
    return _exact(out)


def extend(keys: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Key rows of the complements of W + span(r), one per parent and line.

    Key row k labels Q / d, the projector onto the complement of W; U[k] are
    its images ``images(R, Q)[k]``.  Zero rows (r in W) are skipped, and the
    rows, made primitive and sign-normalised, are deduped with their parent's
    index: parallel rows give one child.  With u = Q r the child is
    ``(<u,u> Q - d u u^t) / (d <u,u>)`` in lowest terms, built in one broadcast.
    """
    n = U.shape[2]
    g = np.gcd.reduce(U, axis=2)
    parent, r = np.nonzero(g)
    rows = np.empty((len(parent), n + 1), U.dtype)
    rows[:, 0], lines = parent, rows[:, 1:]
    np.floor_divide(U[parent, r], g[parent, r, None], out=lines)
    lines *= np.where(lines[np.arange(len(lines)), (lines != 0).argmax(axis=1)] < 0, -1, 1)[:, None]
    rows = distinct(rows)
    keys, lines = keys[rows[:, 0].astype(np.intp)], rows[:, 1:]
    top_u, top_d = _top(lines), _top(keys[:, 0])
    norm_bound = n * top_u * top_u
    bound = max(norm_bound * _top(keys[:, 1:]) + top_d * top_u * top_u, top_d * norm_bound)
    keys, lines = _widen(bound, keys, lines)
    i, j, _ = _triangle(n)
    outer = lines[:, i] * lines[:, j]
    outer *= keys[:, :1]
    keys *= (lines * lines).sum(axis=1)[:, None]
    keys[:, 1:] -= outer
    keys //= np.gcd.reduce(keys, axis=1)[:, None]
    return _exact(keys)

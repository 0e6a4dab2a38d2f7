from fractions import Fraction

import numpy as np
from oracles import gram_schmidt
from util import complement_projector

from einext.ratlinalg import distinct, extend, images, narrowest, projector_keys, projectors, reject


def fraction_projector(vectors, dim):
    """I - V (V^t V)^{-1} V^t over the independent vectors, in Fractions."""
    basis = gram_schmidt(vectors)
    return [
        [
            Fraction(int(r == c)) - sum(b[r] * b[c] / sum(y * y for y in b) for b in basis)
            for c in range(dim)
        ]
        for r in range(dim)
    ]


def as_fractions(Q, d):
    return [[Fraction(int(x), d) for x in row] for row in Q]


def key_of(Q, d):
    """The key row of one projector, as a tuple of ints."""
    return tuple(projector_keys(Q[None], [d])[0].tolist())


def test_projector_basic():
    Q, d, independent = complement_projector([[1, 0, 0], [1, 1, 0], [3, 2, 0]], 3)
    assert independent == [True, True, False]
    assert not images(np.array([[5, -7, 0]]), Q).any()
    assert images(np.array([[0, 0, 1]]), Q).any()
    assert (Q.tolist(), d) == ([[0, 0, 0], [0, 0, 0], [0, 0, 1]], 1)
    assert 3 - int(np.trace(Q)) // d == 2  # rank of the span


def test_projector_accepts_rationals():
    Q, _, independent = complement_projector([[Fraction(1, 2), Fraction(1, 3)]], 2)
    assert independent == [True]
    assert not images(np.array([[3, 2]]), Q).any()


def test_projector_matches_fraction_gram_schmidt():
    rng = np.random.default_rng(7)
    for _ in range(40):
        dim = int(rng.integers(2, 7))
        vectors = rng.integers(-3, 4, size=(int(rng.integers(0, dim + 2)), dim)).tolist()
        Q, d, independent = complement_projector(vectors, dim)
        assert as_fractions(Q, d) == fraction_projector(vectors, dim)
        assert (Q == Q.T).all() and d > 0
        assert np.gcd.reduce(np.append(Q.ravel(), d)) == 1
        assert sum(independent) == dim - int(np.trace(Q)) // d


def test_projector_key_is_canonical():
    # Insertion order, scaling and redundant vectors do not change the key.
    rng = np.random.default_rng(11)
    for _ in range(30):
        vectors = rng.integers(-3, 4, size=(4, 5)).tolist()
        a = complement_projector(vectors, 5)[:2]
        b = complement_projector([[3 * x for x in v] for v in reversed(vectors)] + vectors, 5)[:2]
        assert key_of(*a) == key_of(*b)
        # the label does not depend on the dtype, and it gives the projector back
        assert key_of(a[0].astype(object), a[1]) == key_of(*a)
        Q, d = projectors(projector_keys(a[0][None], [a[1]]), 5)
        assert (Q[0] == a[0]).all() and d[0] == a[1]


def test_images_vanish_exactly_on_the_span():
    rng = np.random.default_rng(3)
    for _ in range(20):
        vectors = rng.integers(-2, 3, size=(int(rng.integers(0, 4)), 4)).tolist()
        Q, _, independent = complement_projector(vectors, 4)
        probes = rng.integers(-2, 3, size=(6, 4))
        for row, probe in zip(images(probes, Q), probes):
            _, _, grows = complement_projector(vectors + [probe.tolist()], 4)
            assert (not row.any()) == (not grows[-1])


def test_extend_builds_each_line_once():
    vectors = [[1, 1, -1, 0], [0, 1, 1, -1]]
    Q, d, _ = complement_projector(vectors[:1], 4)
    probes = np.array([[0, 1, 1, -1], [0, -2, -2, 2], [2, 2, -2, 0], [1, 0, 0, 1]])
    key = projector_keys(Q[None], [d])
    parent = key.copy()
    children = extend(key, images(probes, Q[None]))
    assert len(children) == 2  # the second probe repeats the first, the third lies in W
    assert (key == parent).all()  # children are new arrays
    expected = {
        key_of(*complement_projector(vectors[:1] + [p], 4)[:2])
        for p in ([0, 1, 1, -1], [1, 0, 0, 1])
    }
    assert set(map(tuple, children.tolist())) == expected
    # Two parents in one batch: the line (0,1,1,-1), outside both subspaces,
    # gives one child of each, and its parallel rows under one parent give one.
    other = [[1, 0, 0, 1]]
    R, e, _ = complement_projector(other, 4)
    keys = np.concatenate([key, projector_keys(R[None], [e])])
    shared = np.array([[0, 1, 1, -1], [0, -3, -3, 3]])
    children = extend(keys, images(shared, np.stack([Q, R])))
    assert len(children) == 2
    assert set(map(tuple, children.tolist())) == {
        key_of(*complement_projector(vectors, 4)[:2]),
        key_of(*complement_projector(other + [[0, 1, 1, -1]], 4)[:2]),
    }


def test_distinct_keeps_one_row_of_each_value():
    rng = np.random.default_rng(13)
    rows = rng.integers(-2, 3, size=(300, 4))
    expected = set(map(tuple, rows.tolist()))
    for dtype in (np.int16, np.int32, np.int64, object):
        out = distinct(rows.astype(dtype))
        assert len(out) == len(expected) and set(map(tuple, out.tolist())) == expected
    # Two different rows are both kept, and a repeat of one is dropped.
    repeated = np.array([[0, 0], [1, 2**64 - 0x9E3779B97F4A7C15], [0, 0]], dtype=np.int64)
    assert sorted(distinct(repeated).tolist()) == [[0, 0], [1, 2**64 - 0x9E3779B97F4A7C15]]


def test_narrowest_stores_rows_in_the_fewest_bits():
    for top, dtype in ((2**15 - 1, np.int16), (2**15, np.int32), (2**31 - 1, np.int32), (2**31, np.int64)):
        rows = np.array([[0, top], [-top, 1]], dtype=np.int64)
        out = narrowest(rows)
        assert out.dtype == dtype and out.tolist() == rows.tolist()
    # Wider int64 and Python-integer keys are returned as given.
    for rows in (np.array([[2**40, -1]]), np.array([[2**70, -1]], dtype=object)):
        assert narrowest(rows) is rows
    assert narrowest(np.array([[1, 2]], dtype=object)).dtype == np.int16


def test_reject_is_one_exact_gram_schmidt_step():
    # <u,u> s - <u,s> u, orthogonal to u; the second scale overflows int64
    # and runs on Python integers.
    rng = np.random.default_rng(17)
    for scale in (1, 2**30):
        U = rng.integers(-5, 6, size=(3, 4, 5)) * scale
        s = rng.integers(-5, 6, size=(3, 5)) * scale
        out = reject(s, U)
        for k, r in np.ndindex(3, 4):
            u, v, w = U[k, r].tolist(), s[k].tolist(), out[k, r].tolist()
            uu, us = sum(a * a for a in u), sum(a * b for a, b in zip(u, v))
            assert w == [uu * b - us * a for a, b in zip(u, v)]
            assert sum(a * b for a, b in zip(u, w)) == 0


def test_projector_falls_back_to_python_integers():
    # Entries near 2**40 overflow int64 in the rank-one update; the result
    # is computed on Python integers and still matches Fractions exactly.
    rng = np.random.default_rng(5)
    big = 2**40
    for dim in (3, 4):
        vectors = [
            [big + int(x) for x in rng.integers(-50, 50, size=dim)],
            [int(x) for x in rng.integers(-3, 4, size=dim)],
            [big - 7 * int(x) for x in rng.integers(-50, 50, size=dim)],
        ][: dim - 1]
        Q, d, independent = complement_projector(vectors, dim)
        assert all(independent)
        assert Q.dtype == object and d > 2**62
        assert as_fractions(Q, d) == fraction_projector(vectors, dim)
        assert not images(np.array(vectors, dtype=object), Q).any()
        back, e = projectors(projector_keys(Q[None], [d]), dim)
        assert (back[0] == Q).all() and e[0] == d

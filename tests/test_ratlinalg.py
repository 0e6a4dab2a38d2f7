from fractions import Fraction

import numpy as np
import pytest

from einext.ratlinalg import (
    SpanTracker,
    int_det,
    solve_int_system,
    solve_square,
)


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_solve_square():
    a = frac_matrix([[2, 1], [1, 3]])
    x = solve_square(a, [Fraction(5), Fraction(10)])
    assert x == [Fraction(1), Fraction(3)]
    with pytest.raises(ValueError):
        solve_square(frac_matrix([[1, 2], [2, 4]]), [Fraction(1), Fraction(1)])


def test_int_det_matches_fraction_elimination():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        mat = rng.integers(-4, 5, size=(n, n)).tolist()
        det = int_det(mat)
        # cross-check through numpy on small integer matrices
        expected = round(float(np.linalg.det(np.array(mat, dtype=float))))
        assert det == expected


def test_int_det_singular_and_empty():
    assert int_det([[1, 2], [2, 4]]) == 0
    assert int_det([]) == 1


def test_solve_int_system():
    x = solve_int_system([[3, 2], [2, 3]], [1, 1])
    assert x == [Fraction(1, 5), Fraction(1, 5)]
    with pytest.raises(ValueError):
        solve_int_system([[1, 1], [1, 1]], [1, 2])


def test_span_tracker_basic():
    tracker = SpanTracker(3)
    assert tracker.add([1, 0, 0])
    assert tracker.add([1, 1, 0])
    assert not tracker.add([3, 2, 0])
    assert tracker.contains([5, -7, 0])
    assert not tracker.contains([0, 0, 1])
    assert tracker.rank == 2


def test_span_tracker_accepts_rationals():
    tracker = SpanTracker(2)
    assert tracker.add([Fraction(1, 2), Fraction(1, 3)])
    assert tracker.contains([Fraction(3), Fraction(2)])


def test_span_tracker_signature_is_canonical():
    rng = np.random.default_rng(11)
    for _ in range(30):
        vectors = rng.integers(-3, 4, size=(4, 5)).tolist()
        a = SpanTracker(5)
        b = SpanTracker(5)
        for v in vectors:
            a.add(v)
        for v in reversed(vectors):
            b.add(v)
        assert a.signature() == b.signature()


def test_span_tracker_copy_is_independent():
    tracker = SpanTracker(2)
    tracker.add([1, 0])
    clone = tracker.copy()
    clone.add([0, 1])
    assert tracker.rank == 1 and clone.rank == 2


def test_reduce_matrix_matches_contains():
    rng = np.random.default_rng(3)
    for _ in range(20):
        tracker = SpanTracker(4)
        for _ in range(int(rng.integers(0, 4))):
            tracker.add(rng.integers(-2, 3, size=4).tolist())
        probes = rng.integers(-2, 3, size=(6, 4))
        residual = tracker.reduce_matrix(probes)
        for row, probe in zip(residual, probes):
            assert (not row.any()) == tracker.contains(probe.tolist())

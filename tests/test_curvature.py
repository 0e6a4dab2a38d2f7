import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from einext import algebra, curvature
from einext.algebra import StructureTensor, Support, _jacobi_pairs, _ricci_pairs, divergence_residual, make_spec
from einext.catalog import entries as catalog_entries
from einext.curvature import (
    _exp_sum,
    _ricci,
    extension_ricci,
    ricci_at_identity,
    ricci_deformation,
    ricci_deformation_at,
)
from einext.verifier import verify_extension

from oracles import RICCI_COEFFS, jacobi_form_dense, koszul_ricci, ricci_form_dense, scalar_classes
from util import random_lie_tensor, random_sparse_tensor

STATED_GRID = (-1.0, -0.3, 0.0, 0.7, 2.0)


def heisenberg3():
    return StructureTensor(3, {(1, 2, 3): 2.0}, lie=True)


def e2_algebra():
    return StructureTensor(3, {(3, 1, 2): 1.0, (3, 2, 1): -1.0}, lie=True)


def row4_spec(p):
    mu = StructureTensor(3, {(3, 1, 1): p, (3, 2, 2): -1.0}, lie=True)
    return make_spec(mu, [1, "t", 0], p)


# ---------------------------------------------------------------------------
# Grouped Ricci
# ---------------------------------------------------------------------------


def test_grouped_examples():
    assert ricci_deformation(make_spec(StructureTensor(3), [2, 5, -1])) == {}

    heis = ricci_deformation(make_spec(heisenberg3(), [1, 1, 2]))
    assert list(heis) == [0]
    assert np.allclose(heis[0], np.diag([-2.0, -2.0, 2.0]))

    flat = ricci_deformation(make_spec(e2_algebra(), [1, 1, 1]))
    assert flat == {}


def test_grouped_exponents_are_half_integer_combinations():
    rng = np.random.default_rng(19)
    for _ in range(30):
        mu, p = random_sparse_tensor(rng, max_dim=5)
        grouped = ricci_deformation(make_spec(mu, p))
        for q in grouped:
            assert isinstance(q, Fraction) and (q * 2).denominator == 1


def test_grouped_coefficients_symmetric():
    rng = np.random.default_rng(23)
    for _ in range(40):
        mu, p = random_sparse_tensor(rng, max_dim=5)
        grouped = ricci_deformation(make_spec(mu, p))
        for C in grouped.values():
            assert np.abs(C - C.T).max() <= 1e-12


def test_grouped_matches_direct_on_moderate_grid():
    # double precision resolves the stated absolute tolerance on this grid
    rng = np.random.default_rng(0)
    for _ in range(100):
        mu, p = random_sparse_tensor(rng, max_dim=5)
        spec = make_spec(mu, p)
        grouped = ricci_deformation(spec)
        for u in (-0.5, -0.3, 0.0, 0.25, 0.5):
            summed = _exp_sum(grouped, u, (spec.dim, spec.dim))
            dev = np.abs(summed - ricci_deformation_at(spec, u)).max()
            assert dev <= 1e-10


def test_grouped_matches_direct_on_stated_grid_scale_aware():
    # the full grid reaches exp(30)-sized terms where an absolute 1e-10 is
    # below double-precision resolution; the bound scales with the terms
    rng = np.random.default_rng(1)
    for _ in range(100):
        mu, p = random_sparse_tensor(rng, max_dim=5)
        spec = make_spec(mu, p)
        grouped = ricci_deformation(spec)
        for u in STATED_GRID:
            scale = sum(
                math.exp(-2.0 * u * float(q)) * np.abs(C).max()
                for q, C in grouped.items()
            )
            summed = _exp_sum(grouped, u, (spec.dim, spec.dim))
            dev = np.abs(summed - ricci_deformation_at(spec, u)).max()
            assert dev <= max(1e-10, 64 * np.finfo(float).eps * scale)


def test_grouped_parametric_evaluation():
    spec = row4_spec(2.0)
    grouped = ricci_deformation(spec)
    target = spec.trace() * np.diag(spec.eigenvalues()) - spec.trace_sq() * np.eye(3)
    for u in STATED_GRID:
        summed = _exp_sum(grouped, u, (3, 3))
        assert np.abs(summed - target).max() <= 1e-12
        assert np.abs(ricci_deformation_at(spec, u) - target).max() <= 1e-12


def test_classes_are_formed_once_per_spec(monkeypatch):
    grouped_terms, calls = curvature._grouped_terms, []
    monkeypatch.setattr(curvature, "_grouped_terms", lambda spec: calls.append(spec) or grouped_terms(spec))
    spec = make_spec(heisenberg3(), [1, 1, 2])
    verify_extension(spec)
    extension_ricci(spec)
    ricci_deformation(spec)
    assert calls == [spec]


def test_divergence_is_formed_once_per_spec(monkeypatch):
    terms, calls = algebra._divergence_terms, []
    monkeypatch.setattr(algebra, "_divergence_terms", lambda *args: calls.append(args) or terms(*args))
    spec = make_spec(StructureTensor(3, {(1, 2, 2): 1.0, (1, 3, 3): 0.5, (2, 3, 1): 0.25}), [1, 2, 3])
    verify_extension(spec)
    mixed = extension_ricci(spec).ric_0i_classes
    div = divergence_residual(spec)
    assert len(calls) == 1 and not div.flags.writeable
    monkeypatch.undo()
    again = divergence_residual(replace(spec))
    assert again is not div and again.tobytes() == div.tobytes()
    assert div.any() and sum(mixed.values()).tobytes() == div.tobytes()


def test_cached_classes_cannot_be_changed_by_a_caller():
    mu = StructureTensor(3, {(1, 2, 3): 2.0, (1, 3, 1): 0.5})
    spec = make_spec(mu, [1, 2, 2])
    first = ricci_deformation(spec)
    expected = {q: C.copy() for q, C in first.items()}
    assert len(expected) > 1
    for C in first.values():
        assert not C.flags.writeable
        with pytest.raises(ValueError):
            C[0, 0] = 1.0
    first.clear()
    extension_ricci(spec).ric_block_classes.clear()
    again = ricci_deformation(spec)
    assert again is not first and again.keys() == expected.keys()
    assert all(np.array_equal(again[q], C) for q, C in expected.items())


def test_a_new_algebra_starts_without_the_cached_classes():
    spec = make_spec(heisenberg3(), [1, 1, 2])
    ricci_deformation(spec)
    assert ricci_deformation(replace(spec, algebra=e2_algebra())) == {}
    assert list(ricci_deformation(spec)) == [0]


# ---------------------------------------------------------------------------
# Scalar curvature
# ---------------------------------------------------------------------------


def test_scalar_examples():
    assert extension_ricci(make_spec(StructureTensor(3), [1, 1, 1])).scal_terms == {}
    heis = extension_ricci(make_spec(heisenberg3(), [1, 1, 2])).scal_terms
    assert set(heis) == {0}
    assert heis[0] == pytest.approx(-2.0)  # (tr D)^2 - 3 tr D^2
    row4 = extension_ricci(row4_spec(1.0)).scal_terms
    total = sum(row4.values())
    assert total == pytest.approx(-2.0)


def test_scalar_equals_trace_of_grouped_per_class():
    # the scalar classes are the traces of the Ricci classes; the oracle sums
    # the scalar-curvature formula term by term
    rng = np.random.default_rng(27)
    specs = [entry.spec for entry in catalog_entries()]
    specs += [make_spec(*random_sparse_tensor(rng, max_dim=6)) for _ in range(300)]
    for spec in specs:
        scal = extension_ricci(spec).scal_terms
        expected = scalar_classes(spec)
        assert set(scal) == set(expected)
        for q, value in expected.items():
            assert abs(scal[q] - value) <= 1e-12 * max(1.0, abs(value))


# ---------------------------------------------------------------------------
# Koszul oracle
# ---------------------------------------------------------------------------


def test_ricci_at_identity_matches_koszul_on_lie_tensors():
    rng = np.random.default_rng(40)
    for _ in range(100):
        mu, _ = random_lie_tensor(rng, max_dim=4)
        assert np.abs(ricci_at_identity(mu) - koszul_ricci(mu)).max() <= 1e-10


def test_grouped_at_zero_matches_koszul_on_lie_tensors():
    # away from u = 0 the deformed metric is the undeformed metric of the
    # rescaled bracket, again a Lie bracket, so the oracle pins every u
    rng = np.random.default_rng(41)
    for _ in range(60):
        mu, p = random_lie_tensor(rng, max_dim=4)
        spec = make_spec(mu, p)
        grouped = ricci_deformation(spec)
        summed = _exp_sum(grouped, 0.0, (mu.dim, mu.dim))
        assert np.abs(summed - koszul_ricci(mu)).max() <= 1e-10
        for u in (-1.0, -0.3, 0.7, 2.0):
            rescaled = StructureTensor(
                mu.dim,
                {
                    (i, j, k): math.exp(u * (p[k - 1] - p[i - 1] - p[j - 1])) * v
                    for (i, j, k), v in mu.items()
                },
            )
            oracle = koszul_ricci(rescaled)
            scale = max(1.0, max((abs(v) for _, v in rescaled.items()), default=0.0) ** 2)
            assert np.abs(ricci_deformation_at(spec, u) - oracle).max() <= 1e-10 * scale


# ---------------------------------------------------------------------------
# The pair kernel against the dense forms
# ---------------------------------------------------------------------------


@st.composite
def pair_cases(draw):
    """Frame triples i < j (1-based, sorted), a stack of nonzero S values on
    them, nonzero T values, and eigenvalues.  Sparse draws put k in {i, j} half
    the time; the dense branch takes every triple of dimension 6."""
    if draw(st.booleans()):
        n = 6
        triples = [(i, j, k) for i in range(1, 7) for j in range(i + 1, 7) for k in range(1, 7)]
    else:
        n = draw(st.integers(1, 6))
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        triples = set()
        for _ in range(draw(st.integers(0, 12)) if pairs else 0):
            i, j = draw(st.sampled_from(pairs))
            k = draw(st.sampled_from((i, j))) if draw(st.booleans()) else draw(st.integers(1, n))
            triples.add((i, j, k))
        triples = sorted(triples)
    # Values of magnitude 1/8..4 and either sign, drawn by seed: a dense
    # tensor has 90 of them per row.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.uniform(0.125, 4.0, (draw(st.integers(2, 4)), len(triples)))
    rows *= rng.choice([-1.0, 1.0], rows.shape)
    p = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    return n, triples, rows[1:].tolist(), rows[0].tolist(), p


def dense(n, triples, values):
    T = np.zeros((n, n, n))
    for (i, j, k), v in zip(triples, values):
        T[i - 1, j - 1, k - 1], T[j - 1, i - 1, k - 1] = v, -v
    return T


def close(kernel, oracle, magnitude):
    """Agreement to 1e-12 relative to the sum of the magnitudes of the terms."""
    return np.abs(kernel - oracle).max(initial=0.0) <= 1e-12 * max(1.0, magnitude.max(initial=0.0))


def is_ricci_of(R, D):
    return close(R, ricci_form_dense(D, D), ricci_form_dense(np.abs(D), np.abs(D), np.abs(RICCI_COEFFS)))


@settings(max_examples=150, deadline=None)
@given(pair_cases())
@example((4, [], [[]], [], [0, 1, 2, 3]))
def test_pair_kernel_matches_dense_forms(case):
    n, triples, stack, t, p = case
    # Polarised, S != T, on one support: the first S of the stack and T.
    index = StructureTensor(n, dict.fromkeys(triples, 1.0)).support().index
    support = Support(index, np.zeros(2 * len(triples)))
    s_full, t_full = (np.concatenate([np.array(x), -np.array(x)]) for x in (stack[0], t))
    S, T = dense(n, triples, stack[0]), dense(n, triples, t)
    absolute = np.abs(S), np.abs(T)

    ricci = _ricci_pairs(support, n)
    G = np.bincount(ricci.slot, ricci.coeff * s_full[ricci.left] * t_full[ricci.right], minlength=n * n)
    G = G.reshape(n, n)
    magnitude = ricci_form_dense(*absolute, np.abs(RICCI_COEFFS))
    assert close(0.5 * (G + G.T), ricci_form_dense(S, T), magnitude)

    jacobi = _jacobi_pairs(support, n)
    J = np.bincount(
        jacobi.slot, jacobi.coeff * s_full[jacobi.left] * t_full[jacobi.right], minlength=n * math.comb(n, 3)
    )
    assert close(J, jacobi_form_dense(S, T), jacobi_form_dense(*absolute))

    # A stack of values on a tensor's own support, and the deformation at a
    # stack of times, each against the dense form of its own constants.
    mu = StructureTensor(n, dict(zip(triples, t)))
    rows = np.array(stack).reshape(len(stack), len(triples))
    for R, values in zip(_ricci(mu, np.concatenate([rows, -rows], axis=1)), rows):
        assert is_ricci_of(R, dense(n, triples, values))
    spec = make_spec(mu, p)
    us = np.array([-0.5, 0.0, 0.25])
    weights = [math.exp(u * (p[k - 1] - p[i - 1] - p[j - 1])) for u in us for i, j, k in triples]
    for R, values in zip(ricci_deformation_at(spec, us), np.reshape(weights, (3, -1)) * t):
        assert is_ricci_of(R, dense(n, triples, values))


def test_koszul_known_values():
    assert np.allclose(koszul_ricci(heisenberg3()), np.diag([-2.0, -2.0, 2.0]))
    assert np.abs(koszul_ricci(e2_algebra())).max() <= 1e-12
    assert np.abs(koszul_ricci(StructureTensor(4))).max() == 0.0


# ---------------------------------------------------------------------------
# Extension Ricci
# ---------------------------------------------------------------------------


def test_extension_abelian_hyperbolic():
    report = extension_ricci(make_spec(StructureTensor(3), [1, 1, 1]))
    for u in (-0.5, 0.0, 1.0):
        assert np.allclose(report.evaluate_extension(u), -3.0 * np.eye(4))
    assert report.ric_00 == pytest.approx(-3.0)


def test_extension_heisenberg():
    report = extension_ricci(make_spec(heisenberg3(), [1, 1, 2]))
    for u in (-1.0, 0.0, 0.5):
        assert np.allclose(report.evaluate_extension(u), -6.0 * np.eye(4))


def test_extension_reports_divergence_in_mixed_row():
    mu = StructureTensor(3, {(1, 2, 2): 1.0}, lie=True)
    spec = make_spec(mu, [1, 2, 3])
    report = extension_ricci(spec)
    assert report.ric_0i_classes
    row = report.evaluate_extension(0.0)[0, 1:]
    assert np.abs(row).max() > 0.5


def extension_algebra(spec):
    """Extension Lie algebra, defined whenever the deformation is a derivation."""
    n = spec.algebra.dim
    p = spec.eigenvalues()
    entries = {}
    for (i, j, k), v in spec.algebra.items():
        entries[(i + 1, j + 1, k + 1)] = v
    for i in range(1, n + 1):
        if p[i - 1] != 0.0:
            entries[(1, i + 1, i + 1)] = entries.get((1, i + 1, i + 1), 0.0) + p[i - 1]
    return StructureTensor(n + 1, entries, lie=True)


def test_extension_ricci_matches_full_dimension_koszul():
    # for derivation deformations the extension is itself a metric Lie
    # algebra, so the whole (n+1)-block, including the sign of the mixed
    # row, is pinned by the brute-force oracle one dimension up
    from einext.algebra import is_derivation

    cases = [
        make_spec(StructureTensor(2, {(1, 2, 2): 1.0}, lie=True), [0, 1]),
        make_spec(heisenberg3(), [1, 1, 2]),
        make_spec(
            StructureTensor(3, {(3, 1, 1): 2.0, (3, 2, 2): -1.0}, lie=True), [1, 2, 0]
        ),
        make_spec(StructureTensor(3, {(1, 2, 2): 1.0}, lie=True), [0, 1, 2]),
        make_spec(StructureTensor(3), [1, 2, 3]),
    ]
    for spec in cases:
        assert is_derivation(spec).ok
        oracle = koszul_ricci(extension_algebra(spec))
        mine = extension_ricci(spec).evaluate_extension(0.0)
        assert np.abs(oracle - mine).max() <= 1e-10


def test_extension_json_round_trippable_shape():
    report = extension_ricci(make_spec(heisenberg3(), [1, 1, 2]))
    payload = report.to_json()
    assert payload["extension"]["ric_00"] == pytest.approx(-6.0)
    assert "0/1" in payload["ric_u"]["classes"]
    assert payload["scal"]["0/1"] == pytest.approx(-2.0)

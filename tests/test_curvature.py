import math
from fractions import Fraction

import numpy as np
import pytest

from einext.algebra import StructureTensor, make_spec
from einext.catalog import entries as catalog_entries
from einext.curvature import (
    connection_coeffs,
    extension_ricci,
    ricci_at_identity,
    ricci_deformation,
    ricci_deformation_at,
)

from oracles import koszul_connection, koszul_ricci, scalar_classes
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
# Connection coefficients
# ---------------------------------------------------------------------------


def test_connection_abelian_vanishes():
    spec = make_spec(StructureTensor(4), [1, -2, 0, 3])
    for u in (-1.0, 0.0, 0.8):
        assert np.allclose(connection_coeffs(spec, u), 0.0)


def test_connection_heisenberg_u0_values():
    spec = make_spec(heisenberg3(), [1, 1, 2])
    gamma = connection_coeffs(spec, 0.0)
    # direct substitution: G[i,j,k] combines the three bracket components
    mu = spec.algebra
    for i in range(3):
        for j in range(3):
            for k in range(3):
                expected = 0.5 * (
                    mu.get(i + 1, j + 1, k + 1)
                    - mu.get(j + 1, k + 1, i + 1)
                    - mu.get(k + 1, i + 1, j + 1)
                )
                assert gamma[i, j, k] == pytest.approx(expected)
    assert gamma[2, 0, 1] == pytest.approx(-1.0)  # <nabla_2 e_1, e_3>
    assert gamma[2, 1, 0] == pytest.approx(1.0)  # <nabla_1 e_2, e_3>


def test_connection_skew_symmetry():
    rng = np.random.default_rng(6)
    for _ in range(20):
        mu, p = random_sparse_tensor(rng, max_dim=4)
        spec = make_spec(mu, p)
        for u in (-0.7, 0.0, 0.4):
            gamma = connection_coeffs(spec, u)
            swap = np.transpose(gamma, (1, 0, 2))
            assert np.abs(gamma + swap).max() <= 1e-12


def test_connection_u0_matches_koszul_oracle():
    rng = np.random.default_rng(16)
    for _ in range(25):
        mu, p = random_sparse_tensor(rng, max_dim=4)
        spec = make_spec(mu, p)
        gamma = connection_coeffs(spec, 0.0)
        oracle = koszul_connection(mu)
        n = mu.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert gamma[i, j, k] == pytest.approx(oracle[k, j, i], abs=1e-12)


# ---------------------------------------------------------------------------
# Grouped Ricci
# ---------------------------------------------------------------------------


def test_grouped_examples():
    assert ricci_deformation(make_spec(StructureTensor(3), [2, 5, -1])).classes == {}

    heis = ricci_deformation(make_spec(heisenberg3(), [1, 1, 2]))
    assert list(heis.classes) == [0]
    assert np.allclose(heis.constant_class(), np.diag([-2.0, -2.0, 2.0]))

    flat = ricci_deformation(make_spec(e2_algebra(), [1, 1, 1]))
    assert flat.classes == {}


def test_grouped_exponents_are_half_integer_combinations():
    rng = np.random.default_rng(19)
    for _ in range(30):
        mu, p = random_sparse_tensor(rng, max_dim=5)
        grouped = ricci_deformation(make_spec(mu, p))
        for q in grouped.classes:
            assert isinstance(q, Fraction) and (q * 2).denominator == 1


def test_grouped_coefficients_symmetric():
    rng = np.random.default_rng(23)
    for _ in range(40):
        mu, p = random_sparse_tensor(rng, max_dim=5)
        grouped = ricci_deformation(make_spec(mu, p))
        for C in grouped.classes.values():
            assert np.abs(C - C.T).max() <= 1e-12


def test_grouped_matches_direct_on_moderate_grid():
    # double precision resolves the stated absolute tolerance on this grid
    rng = np.random.default_rng(0)
    for _ in range(100):
        mu, p = random_sparse_tensor(rng, max_dim=5)
        spec = make_spec(mu, p)
        grouped = ricci_deformation(spec)
        for u in (-0.5, -0.3, 0.0, 0.25, 0.5):
            dev = np.abs(grouped.evaluate(u) - ricci_deformation_at(spec, u)).max()
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
                for q, C in grouped.classes.items()
            )
            dev = np.abs(grouped.evaluate(u) - ricci_deformation_at(spec, u)).max()
            assert dev <= max(1e-10, 64 * np.finfo(float).eps * scale)


def test_grouped_parametric_evaluation():
    spec = row4_spec(2.0)
    grouped = ricci_deformation(spec)
    target = spec.trace() * np.diag(spec.eigenvalues()) - spec.trace_sq() * np.eye(3)
    for u in STATED_GRID:
        assert np.abs(grouped.evaluate(u) - target).max() <= 1e-12
        assert np.abs(ricci_deformation_at(spec, u) - target).max() <= 1e-12


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
        assert np.abs(grouped.evaluate(0.0) - koszul_ricci(mu)).max() <= 1e-10
        for u in (-1.0, -0.3, 0.7, 2.0):
            rescaled = StructureTensor(
                mu.dim,
                {
                    (i, j, k): math.exp(u * (p[k - 1] - p[i - 1] - p[j - 1])) * v
                    for (i, j, k), v in mu.items()
                },
            )
            oracle = koszul_ricci(rescaled)
            scale = max(1.0, rescaled.max_abs() ** 2)
            assert np.abs(ricci_deformation_at(spec, u) - oracle).max() <= 1e-10 * scale


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

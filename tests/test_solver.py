import time
from fractions import Fraction

import numpy as np
import pytest

from einext.algebra import StructureTensor, make_spec
from einext.catalog import entries
from einext.solver import (
    SearchProblem,
    _class_keys,
    _QuadraticResidual,
    _stack_residual,
    full_pattern,
    residual_vector,
    search,
)
from einext.verifier import classify_type_0001, sparsity_pattern, verify_extension


def F(*values):
    return tuple(Fraction(v) for v in values)


def test_residual_zero_on_heisenberg():
    mu = StructureTensor(3, {(1, 2, 3): 2.0}, lie=True)
    r = residual_vector(mu, F(1, 1, 2))
    assert np.abs(r).max() <= 1e-14
    # the canonical vector type is accepted as well
    from einext.spectral import SpectralVector
    r2 = residual_vector(mu, SpectralVector.of([1, 1, 2]))
    assert np.array_equal(r, r2)


def test_residual_zero_for_scalar_abelian():
    r = residual_vector(StructureTensor(3), F(1, 1, 1))
    assert np.abs(r).max() == 0.0


def test_residual_nonzero_for_empty_tensor_on_heisenberg_type():
    r = residual_vector(StructureTensor(3), F(1, 1, 2))
    # the only defect is the constant class missing diag(2, 2, -2)
    assert float(r @ r) == pytest.approx(12.0)


def test_residual_weights_jacobi_rows():
    mu = StructureTensor(3, {(1, 2, 3): 1.0, (1, 3, 1): 1.0})  # Jacobi breaker
    r1 = residual_vector(mu, F(1, 1, 2), jacobi_weight=1.0)
    r10 = residual_vector(mu, F(1, 1, 2), jacobi_weight=10.0)
    assert float(r10 @ r10) > float(r1 @ r1)


def test_search_problem_defaults_to_sparsity_pattern():
    problem = SearchProblem(spectral=F(0, 0, 1))
    assert set(problem.pattern) == sparsity_pattern(problem.spectral)
    assert (1, 2, 3) not in problem.pattern


def test_search_recovers_heisenberg():
    problem = SearchProblem(spectral=F(1, 1, 2), restarts=8, seed=42)
    start = time.perf_counter()
    result = search(problem)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    assert result.converged
    assert result.residual < 1e-8
    assert abs(abs(result.best_mu.get(1, 2, 3)) - 2.0) <= 1e-6


def test_search_scalar_type_trivial():
    result = search(SearchProblem(spectral=F(1, 1, 1), restarts=4, seed=1))
    assert result.converged
    assert result.residual <= 1e-12
    # the zero tensor solves the scalar case exactly
    assert np.abs(residual_vector(StructureTensor(3), F(1, 1, 1))).max() == 0.0


def test_search_type_0001_passes_classifier():
    result = search(SearchProblem(spectral=F(0, 0, 1), restarts=8, seed=3))
    assert result.converged
    spec = make_spec(result.best_mu, [0, 0, 1])
    assert classify_type_0001(spec, 1e-6).passed


def test_converged_results_verify_at_ten_times_tolerance():
    for spectral, seed in [(F(1, 1, 2), 42), (F(0, 0, 1), 3), (F(1, 1, 1), 1)]:
        problem = SearchProblem(spectral=spectral, restarts=6, seed=seed)
        result = search(problem)
        assert result.converged
        spec = make_spec(result.best_mu, list(spectral))
        report = verify_extension(spec, problem.tolerance * 10)
        assert report.einstein


def test_catalog_solutions_live_inside_sparsity_pattern():
    for entry in entries():
        spec = entry.spec
        pattern = sparsity_pattern(spec)
        for (i, j, k), v in spec.algebra.items():
            if abs(v) > 1e-10:
                assert (i, j, k) in pattern


def test_residual_equals_recomputed_objective():
    problem = SearchProblem(spectral=F(1, 1, 2), restarts=4, seed=7)
    result = search(problem)
    r = residual_vector(
        result.best_mu, problem.spectral, jacobi_weight=problem.jacobi_weight
    )
    assert abs(result.residual - 0.5 * float(r @ r)) <= 1e-12


def test_search_determinism():
    problem = SearchProblem(spectral=F(1, 1, 2), restarts=5, seed=11)
    a = search(problem).to_json()
    b = search(problem).to_json()
    assert a == b


def test_empty_pattern_reports_immediately():
    problem = SearchProblem(spectral=F(1, 1, 2), pattern=(), restarts=3, seed=0)
    result = search(problem)
    assert not result.converged
    assert result.residual > 1.0
    assert len(result.restart_summaries) == 1
    # a flat target with no variables converges trivially
    flat = search(SearchProblem(spectral=F(1, 1, 1), pattern=(), restarts=2, seed=0))
    assert flat.converged and flat.residual == 0.0


def test_full_pattern_search_still_finds_heisenberg():
    problem = SearchProblem(
        spectral=F(1, 1, 2), pattern=full_pattern(3), restarts=8, seed=42
    )
    result = search(problem)
    assert result.converged
    assert abs(abs(result.best_mu.get(1, 2, 3)) - 2.0) <= 1e-6


def test_objective_gradient_matches_finite_differences():
    # the model's exact Jacobian against central differences of the
    # objective computed directly from the tensor, not through the model
    problem = SearchProblem(spectral=F(1, 1, 2), restarts=1, seed=0)
    pattern = problem.pattern
    keys = _class_keys(problem.dim, problem.spectral, pattern)

    def objective(x):
        mu = problem.build_tensor(x)
        r = residual_vector(mu, problem.spectral, jacobi_weight=problem.jacobi_weight)
        return 0.5 * float(r @ r)

    def residual_fn(x):
        spec = make_spec(problem.build_tensor(x), problem.spectral)
        return _stack_residual(spec, keys, problem.jacobi_weight)

    model = _QuadraticResidual(residual_fn, len(pattern))
    rng = np.random.default_rng(29)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=len(pattern))
        r = residual_fn(x)
        assert np.abs(model(x) - r).max() <= 1e-9 * max(1.0, np.abs(r).max())
        grad = model.jacobian(x).T @ r
        fd = np.zeros_like(x)
        for v in range(x.size):
            h = 1e-6 * max(1.0, abs(x[v]))
            xp = x.copy()
            xp[v] += h
            xm = x.copy()
            xm[v] -= h
            fd[v] = (objective(xp) - objective(xm)) / (2 * h)
        scale = max(1.0, np.abs(grad).max())
        assert np.abs(grad - fd).max() / scale <= 1e-5


def test_problem_validation():
    with pytest.raises(ValueError):
        SearchProblem(spectral=F(1, 1, 2), restarts=0)
    with pytest.raises(ValueError):
        SearchProblem(spectral=F(1, 1), pattern=((1, 1, 1),))

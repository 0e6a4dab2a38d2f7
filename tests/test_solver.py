import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from einext.algebra import StructureTensor, full_pattern, make_spec
from einext.catalog import entries
from einext.curvature import _grouped_terms
from einext.solver import (
    SearchProblem,
    _QuadraticModel,
    _stack_residual,
    search,
)
from einext.verifier import classify_type_0001, sparsity_pattern, verify_extension

from oracles import class_layout
from util import dense, residual_vector


def F(*values):
    return tuple(Fraction(v) for v in values)


def test_residual_zero_on_heisenberg():
    mu = StructureTensor(3, {(1, 2, 3): 2.0}, lie=True)
    r = residual_vector(mu, F(1, 1, 2))
    assert np.abs(r).max() <= 1e-14


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
    assert abs(abs(dense(result.best_mu)[0, 1, 2]) - 2.0) <= 1e-6


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
        pattern = sparsity_pattern(spec.spectral)
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
    assert abs(abs(dense(result.best_mu)[0, 1, 2]) - 2.0) <= 1e-6


def assembled(spectral, pattern=None, jacobi_weight=10.0):
    """The search problem, its assembled model and the direct residual."""
    problem = SearchProblem(spectral=F(*spectral), pattern=pattern, jacobi_weight=jacobi_weight)
    base = make_spec(StructureTensor(problem.dim), problem.spectral)
    model = _QuadraticModel(base, problem.pattern, problem.jacobi_weight)

    def direct(x):
        spec = replace(base, algebra=problem.build_tensor(x))
        return _stack_residual(spec, model.keys, problem.jacobi_weight)

    return problem, model, direct


def test_objective_gradient_matches_finite_differences():
    # the model's exact Jacobian against central differences of the
    # objective computed directly from the tensor, not through the model
    problem, model, residual_fn = assembled((1, 1, 2))

    def objective(x):
        mu = problem.build_tensor(x)
        r = residual_vector(mu, problem.spectral, jacobi_weight=problem.jacobi_weight)
        return 0.5 * float(r @ r)

    rng = np.random.default_rng(29)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=len(problem.pattern))
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


# The eight types of the benchmark's search workload (default patterns), the
# full patterns of dims 3-5 and one dim-6 type.
MODEL_CASES = [
    ((1, 1, 2), None), ((1, 1, 1), None), ((0, 0, 1), None), ((1, 1, 0), None),
    ((1, 1, 1, 1), None), ((0, 0, 0, 1), None), ((1, 1, 1, 0), None),
    ((1, 1, 1, 1, 2), None),
    ((1, 1, 2), full_pattern(3)), ((1, 1, 1, 2), full_pattern(4)),
    ((1, 2, 3, 4, 5), full_pattern(5)),
    ((1, 1, 2, 2, 3, 4), None),
]


def check_model(problem, model, direct, points):
    for x in points:
        r = direct(x)
        assert model(x).shape == r.shape
        assert np.abs(model(x) - r).max() <= 1e-12 * max(1.0, np.abs(r).max())


@pytest.mark.parametrize("spectral, pattern", MODEL_CASES)
def test_assembled_model_matches_direct_residual(spectral, pattern):
    problem, model, direct = assembled(spectral, pattern)
    rng = np.random.default_rng(len(problem.pattern))
    points = [np.zeros(model.nvars)] + [
        rng.uniform(-3, 3, size=model.nvars) for _ in range(20)
    ]
    check_model(problem, model, direct, points)
    assert list(model.keys) == class_layout(problem.spectral, problem.pattern)


@st.composite
def typed_patterns(draw):
    n = draw(st.integers(3, 5))
    spectral = tuple(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    pattern = draw(st.sets(st.sampled_from(full_pattern(n)), min_size=1, max_size=20))
    return spectral, tuple(sorted(pattern))


@settings(max_examples=30, deadline=None)
@given(typed_patterns(), st.integers(0, 2**32 - 1), st.floats(0.0, 20.0))
@example(((0, 1, 0), ((1, 2, 1), (1, 2, 2))), 0, 10.0)
def test_assembled_model_property(case, seed, jacobi_weight):
    spectral, pattern = case
    problem, model, direct = assembled(spectral, pattern, jacobi_weight)
    x = np.random.default_rng(seed).uniform(-3, 3, size=model.nvars)
    check_model(problem, model, direct, [x])
    # The oracle keeps every class some pair of pieces touches; the model
    # drops those whose coefficients all cancel exactly, such as class 1/2
    # of type (0, 1, 0) on (1,2|1), (1,2|2).  Such a class vanishes at x too.
    layout = set(model.keys)
    oracle = set(class_layout(problem.spectral, problem.pattern))
    assert layout <= oracle
    spec = make_spec(problem.build_tensor(x), problem.spectral)
    scale = max(1.0, np.abs(direct(x)).max())
    for q, C in _grouped_terms(spec).items():
        assert q in layout or np.abs(C).max() <= 1e-12 * scale


def test_search_residual_is_that_of_a_fresh_spec():
    # search's direct residual builds each tensor's spec from the zero
    # tensor's by dataclasses.replace, which must not carry the old classes over.
    problem = SearchProblem(spectral=F(1, 1, 2), restarts=2, seed=5)
    base = make_spec(StructureTensor(3), problem.spectral)
    keys = _QuadraticModel(base, problem.pattern, problem.jacobi_weight).keys
    result = search(problem)
    r = _stack_residual(make_spec(result.best_mu, problem.spectral), keys, problem.jacobi_weight)
    assert result.residual == 0.5 * float(r @ r)


def test_problem_validation():
    with pytest.raises(ValueError):
        SearchProblem(spectral=F(1, 1, 2), restarts=0)
    with pytest.raises(ValueError):
        SearchProblem(spectral=F(1, 1), pattern=((1, 1, 1),))
    for field, bad in [
        ("tolerance", float("nan")),
        ("tolerance", -1.0),
        ("jacobi_weight", float("inf")),
        ("jacobi_weight", float("nan")),
    ]:
        with pytest.raises(ValueError, match=field):
            SearchProblem(spectral=F(1, 1, 2), **{field: bad})

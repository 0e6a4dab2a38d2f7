import re
import time
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from einext.algebra import StructureTensor, full_pattern, jacobi_residual, make_spec, sparsity_pattern
from einext.catalog import entries
from einext.curvature import _grouped_terms
from einext import solver
from einext.solver import MAX_ITERATIONS, SearchProblem, _PCG64, _QuadraticModel, search
from einext.spectral import enumeration_report
from einext.verifier import classify_type_0001, verify_extension

from oracles import class_layout
from util import _stack_residual, dense, residual_vector


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
        r = residual_fn(x)[model.rows]
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


# The eight types of the benchmark's search workload.
SEARCH_TYPES = [
    (1, 1, 2), (1, 1, 1), (0, 0, 1), (1, 1, 0),
    (1, 1, 1, 1), (0, 0, 0, 1), (1, 1, 1, 0), (1, 1, 1, 1, 2),
]

# The search types (default patterns), the full patterns of dims 3-5 and
# one dim-6 type.
MODEL_CASES = [(t, None) for t in SEARCH_TYPES] + [
    ((1, 1, 2), full_pattern(3)), ((1, 1, 1, 2), full_pattern(4)),
    ((1, 2, 3, 4, 5), full_pattern(5)),
    ((1, 1, 2, 2, 3, 4), None),
]


def check_model(problem, model, direct, points):
    # The model keeps the rows some monomial reaches, at positions
    # ``model.rows`` of the direct stack; every row it drops vanishes at x up
    # to rounding, since its coefficients cancel exactly.
    for x in points:
        r = direct(x)
        bound = 1e-12 * max(1.0, np.abs(r).max())
        assert model(x).shape == model.rows.shape
        assert np.abs(model(x) - r[model.rows]).max(initial=0.0) <= bound
        assert np.abs(np.delete(r, model.rows)).max(initial=0.0) <= bound
    # A later call leaves an earlier output as it was.
    first = model(points[0]), model.jacobian(points[0])
    kept = [a.copy() for a in first]
    model(points[0] + 1.0), model.jacobian(points[0] + 1.0)
    assert all(np.array_equal(a, b) for a, b in zip(first, kept))


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
@example(((0, 0, 0), ((1, 2, 1), (1, 2, 3))), 0, 0.0)
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


def converged(problem, mu) -> bool:
    """The verdict of verify on a fresh spec of mu at the problem's
    tolerance, with Jacobi within it too."""
    report = verify_extension(make_spec(mu, problem.spectral), problem.tolerance)
    return report.einstein and jacobi_residual(mu) <= problem.tolerance


@pytest.mark.parametrize(
    "spectral, restarts, seed, verdict",
    [
        ((1, 1, 2), 2, 5, True),
        ((1, 1, 2, 3, 3), 2, 0, True),
        ((1, 2, 3, 3, 4), 4, 0, False),
        ((1, 1, 2, 3, 3), 4, 2, True),
        ((1, 2, 3, 3, 4), 4, 2, True),
    ],
)
def test_search_verdict_is_that_of_a_fresh_spec(spectral, restarts, seed, verdict):
    # search verifies its best constants on a spec built from the zero
    # tensor's by dataclasses.replace, which must not carry the old classes
    # over; its residual is the best restart's own objective.
    problem = SearchProblem(spectral=F(*spectral), restarts=restarts, seed=seed)
    result = search(problem)
    assert result.converged == converged(problem, result.best_mu) == verdict
    assert result.residual == min(summary["objective"] for summary in result.restart_summaries)


def test_problem_validation():
    with pytest.raises(ValueError):
        SearchProblem(spectral=F(1, 1), pattern=((1, 1, 1),))
    for field, bad in [
        ("restarts", 0),
        ("restarts", 2.5),
        ("tolerance", float("nan")),
        ("tolerance", -1.0),
        ("jacobi_weight", float("inf")),
        ("jacobi_weight", float("nan")),
        ("seed", -1),
        ("seed", 1.5),
        ("restarts", True),
        ("seed", False),
        ("tolerance", True),
        ("jacobi_weight", False),
        ("tolerance", "1e-10"),
        ("jacobi_weight", "1"),
    ]:
        with pytest.raises(ValueError, match=field):
            SearchProblem(spectral=F(1, 1, 2), **{field: bad})


@pytest.mark.parametrize("triple", [(1, 2, 2.5), (1.5, 2, 3), (1, 2.0, 3), (1, 2, True)])
def test_pattern_entries_that_are_not_integers_are_refused(triple):
    with pytest.raises(ValueError, match=rf"^pattern triple {re.escape(str(triple))} entry must be an integer"):
        SearchProblem(spectral=F(1, 1, 2), pattern=[triple])


@pytest.mark.parametrize("triple", [(1, 2), (1, 2, 3, 1), 5, None])
def test_pattern_triples_of_other_lengths_are_refused(triple):
    with pytest.raises(ValueError, match=rf"^pattern triple {re.escape(repr(triple))} must have 3 entries$"):
        SearchProblem(spectral=F(1, 1, 2), pattern=[triple])


def test_numpy_integer_pattern_is_read():
    problem = SearchProblem(spectral=F(1, 1, 2), pattern=[(np.int64(1), 2, 3)])
    assert problem.pattern == ((1, 2, 3),)
    assert search(problem).converged


def test_restarts_stop_at_the_objective_floor():
    # A restart ends at its first objective within (tolerance / 100) ** 2.
    for spectral in SEARCH_TYPES:
        problem = SearchProblem(spectral=F(*spectral), restarts=8, seed=0)
        floor = (problem.tolerance / 100) ** 2
        for summary in search(problem).restart_summaries:
            assert all(objective > floor for objective in summary["trace"][:-1])


def test_zero_tolerance_restarts_end_within_the_step_cap():
    # With a zero floor only an exact zero stops a restart at the floor, so
    # the others polish to the stall test or the step cap.
    for spectral in [(1, 1, 2), (1, 1, 1), (0, 0, 1)]:
        result = search(SearchProblem(spectral=F(*spectral), restarts=3, seed=0, tolerance=0.0))
        for summary in result.restart_summaries:
            assert summary["iterations"] <= MAX_ITERATIONS
        assert result.converged == (result.residual == 0.0)
    flat = search(SearchProblem(spectral=F(1, 1, 1), pattern=(), tolerance=0.0))
    assert flat.converged and flat.restart_summaries[0]["iterations"] == 0


# The benchmark's types at seeds 0-9 with 8 restarts, and every
# cone-filtered type of dims 4 and 5 at seeds 0-2 with 4.
AGREEMENT_CASES = [(t, range(10), 8) for t in SEARCH_TYPES] + [
    (t, range(3), 4) for d in (4, 5) for t in sorted(v.entries for v in enumeration_report(d).cone_filtered)
]


@pytest.mark.parametrize(
    "spectral, seeds, restarts",
    AGREEMENT_CASES,
    ids=[f"{','.join(map(str, t))}-seeds{seeds[0]}-{seeds[-1]}" for t, seeds, _ in AGREEMENT_CASES],
)
def test_converged_agrees_with_verify(spectral, seeds, restarts):
    # search reports converged exactly when verify, at its default
    # tolerance, finds the best constants Einstein.
    for seed in seeds:
        result = search(SearchProblem(spectral=F(*spectral), restarts=restarts, seed=seed))
        report = verify_extension(make_spec(result.best_mu, list(spectral)))
        assert result.converged == report.einstein, seed


# numpy's Generator is the oracle of the start points.
SEEDS = st.one_of(
    st.integers(0, 2**130),
    st.integers(0, 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
)


@settings(max_examples=300, deadline=None)
@given(SEEDS, st.lists(st.integers(0, 60), max_size=8))
@example(0, list(range(61)))
@example(2**32 - 1, [1, 0, 60])
@example(2**32, [1, 0, 60])
@example(2**64, [1, 0, 60])
@example(2**130, [1, 0, 60])
@example(np.uint64(2**64 - 1), [60])
def test_start_points_are_numpy_s_stream_bit_for_bit(seed, sizes):
    ours, theirs = _PCG64(seed), np.random.default_rng(seed)
    for size in sizes:
        assert ours.uniform(-3.0, 3.0, size).tolist() == theirs.uniform(-3.0, 3.0, size).tolist(), size


@pytest.mark.parametrize("spectral", SEARCH_TYPES, ids=[",".join(map(str, t)) for t in SEARCH_TYPES])
def test_search_results_are_those_of_numpy_s_generator(spectral, monkeypatch):
    problems = [SearchProblem(spectral=F(*spectral), restarts=8, seed=seed) for seed in range(3)]
    ours = [search(problem).to_json() for problem in problems]
    monkeypatch.setattr(solver, "_PCG64", np.random.default_rng)
    assert ours == [search(problem).to_json() for problem in problems]


@pytest.mark.parametrize("spectral", SEARCH_TYPES, ids=[",".join(map(str, t)) for t in SEARCH_TYPES])
def test_search_results_are_those_of_numpy_s_solve(spectral, monkeypatch):
    problems = [SearchProblem(spectral=F(*spectral), restarts=8, seed=seed) for seed in range(3)]
    ours = [search(problem).to_json() for problem in problems]
    monkeypatch.setattr(solver, "_solve", np.linalg.solve)
    assert ours == [search(problem).to_json() for problem in problems]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.integers(0, 5), st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
@example(1, 0, 1e-3, 0)
@example(60, 0, 1e-3, 1)
def test_solve_is_numpy_s_bit_for_bit(v, extra, damping, seed):
    # A damped Gauss-Newton matrix J^T J + damping, symmetric positive-definite.
    rng = np.random.default_rng(seed)
    jac = rng.standard_normal((v + extra, v))
    a = jac.T @ jac + damping * np.eye(v)
    g = jac.T @ rng.standard_normal(v + extra)
    step = solver._solve(a, g)
    assert step.tobytes() == np.linalg.solve(a, g).tobytes()
    assert np.array_equal(solver._solve(a, -g), -step)


class _SingularModel:
    """r(x) = 1e10 (x_1 + x_2) - 1: J^T J has 1e20 in every entry, so the
    damped matrix is exactly singular until the damping passes half an ulp
    of 1e20 (8192), after 12 quadruplings of 1e-3."""

    def __call__(self, x):
        return np.array([1e10 * (x[0] + x[1]) - 1.0])

    def jacobian(self, x):
        return np.array([[1e10, 1e10]])


def test_a_singular_damped_system_raises_the_damping(monkeypatch):
    singular, solve = [], solver._solve

    def counted(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            singular.append(a[0, 0])
            raise

    monkeypatch.setattr(solver, "_solve", counted)

    def run():
        settings_before = np.geterr(), np.geterrcall()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            x, trace = solver._levenberg_marquardt(_SingularModel(), np.zeros(2), 0.0)
        assert caught == []
        assert (np.geterr(), np.geterrcall()) == settings_before
        return x.tolist(), trace

    # Under pytest's warnings-as-errors, then under the command line's float-error scope.
    plain = run()
    assert singular[:12] == [1e20] * 12
    with np.errstate(over="raise", invalid="raise"):
        assert run() == plain
    x, trace = plain
    assert len(trace) > 1 and trace[1] < trace[0] == 0.5

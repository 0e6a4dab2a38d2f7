"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import time
from fractions import Fraction

import numpy as np

from einext.algebra import is_derivation, make_spec, sparsity_pattern
from einext.catalog import e2, entries, heisenberg, table1
from einext.curvature import _exp_sum, extension_ricci, ricci_at_identity, ricci_deformation
from einext.solver import SearchProblem, search
from einext.spectral import cone_membership, enumerate_types, enumeration_report
from einext.verifier import classify_type_1112, verify_extension

from oracles import admissibility_defects, koszul_ricci, ricci_deformation_at
from test_spectral import canon_set
from util import dense, random_lie_tensor, random_sparse_tensor, relation_exists

KNOWN_DIM4_TYPES = {
    (1, 1, 1, 1),
    (2, 2, 3, 4),
    (3, 4, 4, 7),
    (1, 2, 3, 4),
    (1, 1, 2, 2),
    (1, 1, 1, 2),
    (1, 1, 2, 3),
    (-1, 1, 1, 2),
    (-1, 1, 2, 3),
}


def report(number, description):
    def decorator(fn):
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL - {description}")
                raise
            print(f"criterion {number}: PASS - {description}")
            return result

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorator


@report(1, "dimension-3 eigenvalue types are exactly (1,1,1) and (1,1,2)")
def test_criterion_1_enumerate_dim3():
    start = time.perf_counter()
    types = canon_set(enumerate_types(3))
    elapsed = time.perf_counter() - start
    assert types == {(1, 1, 1), (1, 1, 2)}
    assert elapsed < 1.0


@report(2, "dimension-4 eigenvalue types match the known nine")
def test_criterion_2_enumerate_dim4():
    start = time.perf_counter()
    rep = enumeration_report(4)
    elapsed = time.perf_counter() - start
    assert canon_set(rep.unfiltered) == KNOWN_DIM4_TYPES
    # both sets are computed; any discrepancy would be surfaced here
    if not rep.consistent:
        print(
            "  cone filter discrepancy:",
            sorted(canon_set(rep.cone_rejected)),
        )
    assert canon_set(rep.cone_filtered) == KNOWN_DIM4_TYPES
    assert elapsed < 10.0


@report(3, "zero-trace six-eigenvalue example: cone feasible, admissibility fails")
def test_criterion_3_zero_trace_diagnostic():
    p = [-3, -2, -1, 1, 2, 3]
    cert = cone_membership(p)
    assert cert.feasible
    assert cert.verify()  # exact re-substitution of the certificate
    assert all(c >= 0 for c in cert.coefficients.values())
    assert "zero trace" in admissibility_defects(p)


@report(4, "four-dimensional table rows verify with their Einstein constants")
def test_criterion_4_table_regression():
    start = time.perf_counter()
    cases = [table1(1), table1(2), table1(3)] + [
        table1(4, param) for param in (0.0, 0.5, 1.0, 2.0)
    ]
    expected = [0.0, -3.0, -6.0, -1.0, -1.25, -2.0, -5.0]
    for entry, constant in zip(cases, expected):
        rep = verify_extension(entry.spec, 1e-10)
        assert rep.einstein, entry.name
        assert abs(rep.einstein_constant - constant) <= 1e-12
        assert max(rep.residuals.values()) <= 1e-10
    assert time.perf_counter() - start < 1.0


@report(5, "Heisenberg family verifies and classifies for k = 1..4")
def test_criterion_5_heisenberg_family():
    for k in range(1, 5):
        entry = heisenberg(k)
        rep = verify_extension(entry.spec, 1e-10)
        assert rep.einstein
        assert abs(rep.einstein_constant + (2.0 * k + 4.0)) <= 1e-12
        assert max(rep.residuals.values()) <= 1e-10
        assert classify_type_1112(entry.spec, 1e-10).passed


@report(6, "flat e(2) extension is Einstein although not a derivation")
def test_criterion_6_non_derivation_fixture():
    entry = e2()
    rep = verify_extension(entry.spec, 1e-10)
    assert rep.einstein
    assert abs(rep.einstein_constant + 3.0) <= 1e-12
    assert max(rep.residuals.values()) <= 1e-10
    assert not is_derivation(entry.spec).ok


@report(7, "solver recovers the Heisenberg constants for type (1,1,2)")
def test_criterion_7_solver_recovery():
    start = time.perf_counter()
    problem = SearchProblem(
        spectral=(Fraction(1), Fraction(1), Fraction(2)), restarts=8, seed=42
    )
    result = search(problem)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    assert result.converged
    assert result.residual < 1e-8
    assert abs(abs(dense(result.best_mu)[0, 1, 2]) - 2.0) <= 1e-6


@report(8, "grouped curvature matches the direct and Koszul oracles")
def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(0)
    # grouped vs direct on 100 random sparse tensors, on a deformation grid
    # where double precision resolves the absolute tolerance
    for _ in range(100):
        mu, p = random_sparse_tensor(rng, max_dim=5)
        spec = make_spec(mu, p)
        grouped = ricci_deformation(spec)
        for u in (-0.5, -0.3, 0.0, 0.25, 0.5):
            summed = _exp_sum(grouped, u, (spec.dim, spec.dim))
            dev = np.abs(summed - ricci_deformation_at(spec, u)).max()
            assert dev <= 1e-10
    # undeformed Ricci vs the brute-force Koszul oracle on Lie-algebra draws
    rng = np.random.default_rng(1)
    for _ in range(100):
        mu, _ = random_lie_tensor(rng, max_dim=4)
        dev = np.abs(ricci_at_identity(mu) - koszul_ricci(mu)).max()
        assert dev <= 1e-10


@report(9, "structural properties hold on every verified extension")
def test_criterion_9_property_suite():
    specs = [entry.spec for entry in entries()]
    solved = search(
        SearchProblem(spectral=(Fraction(1), Fraction(1), Fraction(2)), restarts=8, seed=42)
    )
    assert solved.converged
    specs.append(make_spec(solved.best_mu, [1, 1, 2]))
    for spec in specs:
        rep = verify_extension(spec, 1e-9)
        assert rep.einstein
        forms = spec.spectral
        if any(f != forms[0] for f in forms):
            assert relation_exists(spec.spectral) is not None
        pattern = sparsity_pattern(spec.spectral)
        for (i, j, k), value in spec.algebra.items():
            if abs(value) > 1e-10:
                assert (i, j, k) in pattern
        # the extended metric is Einstein with constant -tr(D^2)
        constant = -spec.trace_sq()
        report_ext = extension_ricci(spec)
        for u in (-0.5, 0.0, 1.0):
            block = report_ext.evaluate_extension(u)
            dev = np.abs(block - constant * np.eye(spec.dim + 1)).max()
            assert dev <= 1e-10

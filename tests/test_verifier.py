import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from einext.algebra import StructureTensor, algebra_from_json, make_spec
from einext.catalog import entries as catalog_entries
from einext.curvature import ricci_at_identity
from einext.verifier import (
    TypeMismatchError,
    classify_type_0001,
    classify_type_1110,
    classify_type_1112,
    sparsity_pattern,
    _violated,
    verify_extension,
)

from util import permuted, random_sparse_tensor, relation_exists


def heisenberg3(strength=2.0):
    return StructureTensor(3, {(1, 2, 3): strength}, lie=True)


def e2_algebra():
    return StructureTensor(3, {(3, 1, 2): 1.0, (3, 2, 1): -1.0}, lie=True)


# ---------------------------------------------------------------------------
# verify_extension
# ---------------------------------------------------------------------------


def test_nan_check_is_violated():
    checks = {"finite": 0.0, "nan": float("nan"), "large": 1.0}
    assert _violated(checks, 1e-9) == ["nan", "large"]


@st.composite
def permuted_specs(draw):
    """A spec, random or from the catalog, and a relabelling of its frame."""
    if draw(st.booleans()):
        spec = draw(st.sampled_from([entry.spec for entry in catalog_entries()]))
    else:
        n = draw(st.integers(2, 5))
        triple = st.tuples(*[st.integers(1, n)] * 3).filter(lambda t: t[0] != t[1])
        value = st.one_of(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]), st.floats(-2, 2))
        mu = StructureTensor(n, draw(st.dictionaries(triple, value, max_size=8)))
        halves = st.integers(-2, 2).map(lambda x: Fraction(x, 2))
        spec = make_spec(mu, draw(st.lists(halves, min_size=n, max_size=n)))
    perm = draw(st.permutations(range(1, spec.dim + 1)))
    return spec, dict(zip(range(1, spec.dim + 1), perm))


@settings(max_examples=60, deadline=None)
@given(permuted_specs())
def test_verify_is_invariant_under_frame_permutation(case):
    spec, perm = case
    p = [None] * spec.dim
    for old, new in perm.items():
        p[new - 1] = spec.spectral[old - 1]
    report = verify_extension(spec)
    relabelled = verify_extension(make_spec(permuted(spec.algebra, perm), p))
    assert relabelled.einstein == report.einstein
    assert relabelled.residuals.keys() == report.residuals.keys()
    for name, value in report.residuals.items():
        other = relabelled.residuals[name]
        assert abs(other - value) <= 1e-12 * max(1.0, abs(value), abs(other)), name


def test_verify_heisenberg_passes():
    report = verify_extension(make_spec(heisenberg3(), [1, 1, 2]), 1e-10)
    assert report.einstein
    assert report.einstein_constant == pytest.approx(-6.0)
    assert max(report.residuals.values()) <= 1e-10
    assert not report.violated_conditions


def test_verify_abelian_scalar_passes():
    report = verify_extension(make_spec(StructureTensor(3), [1, 1, 1]), 1e-10)
    assert report.einstein
    assert report.einstein_constant == pytest.approx(-3.0)


def test_verify_wrong_strength_fails():
    report = verify_extension(make_spec(heisenberg3(1.0), [1, 1, 2]), 1e-9)
    assert not report.einstein
    assert report.einstein_constant is None
    assert "target" in report.violated_conditions
    assert report.residuals["target"] == pytest.approx(1.5)  # diag deficit 2 - 1/2


def test_verify_grouped_and_grid_agree_on_fuzz():
    rng = np.random.default_rng(50)
    disagreements = 0
    for _ in range(1000):
        mu, p = random_sparse_tensor(rng, max_dim=4)
        report = verify_extension(make_spec(mu, p), 1e-9)
        grouped_keys = [k for k in report.residuals if k not in ("u_grid",)]
        grouped_pass = all(report.residuals[k] <= 1e-9 for k in grouped_keys)
        grid_pass = (
            report.residuals["divergence"] <= 1e-9
            and report.residuals["u_grid"] <= 1e-9
        )
        disagreements += grouped_pass != grid_pass
    assert disagreements == 0


# ---------------------------------------------------------------------------
# the scalar case: on a verified spec, equal eigenvalues iff Ricci flat
# ---------------------------------------------------------------------------


def test_scalar_case_examples():
    for mu, p in ((StructureTensor(3), [1, 1, 1]), (e2_algebra(), [1, 1, 1]), (heisenberg3(), [1, 1, 2])):
        assert verify_extension(make_spec(mu, p)).einstein
        scalar = len(set(p)) == 1
        flat = np.abs(ricci_at_identity(mu)).max() <= 1e-9
        assert scalar == flat
    assert not verify_extension(make_spec(heisenberg3(1.0), [1, 1, 2])).einstein


# ---------------------------------------------------------------------------
# relation_exists / sparsity_pattern
# ---------------------------------------------------------------------------


def test_relation_examples():
    assert relation_exists([1, 1, 2]) == (1, 2, 3)
    assert relation_exists([1, 1, 1]) is None
    assert relation_exists([1, 2, 3, 4]) == (1, 2, 3)
    assert relation_exists([0, 0, 1]) == (1, 2, 1)


def test_relation_with_parametric_eigenvalues():
    spec = make_spec(StructureTensor(3), [1, "t", 0], "7/10")
    # p_1 = p_1 + p_3 holds at every parameter value
    assert relation_exists(spec.spectral) == (1, 3, 1)


def test_sparsity_pattern_examples():
    full = {
        (i, j, k) for i in range(1, 4) for j in range(i + 1, 4) for k in range(1, 4)
    }
    assert sparsity_pattern([1, 1, 1]) == full
    assert sparsity_pattern([1, 1, 2]) == full
    # dimension 2 leaves only k in {i, j}
    assert sparsity_pattern([1, 3]) == {(1, 2, 1), (1, 2, 2)}
    # type (0, 0, 1) rules out the central bracket
    pat = sparsity_pattern([0, 0, 1])
    assert (1, 2, 3) not in pat
    assert (1, 3, 3) in pat


def test_sparsity_pattern_bruteforce_scan():
    rng = np.random.default_rng(15)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        p = [int(x) for x in rng.integers(-3, 4, size=n)]
        pat = sparsity_pattern(p)
        allowed = set(p) | {0}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for k in range(1, n + 1):
                    expected = (p[i - 1] + p[j - 1] - p[k - 1]) in allowed
                    assert ((i, j, k) in pat) == expected


# ---------------------------------------------------------------------------
# classifiers
# ---------------------------------------------------------------------------


def test_classify_0001_examples():
    block = StructureTensor(3, {(1, 2, 2): -1.0}, lie=True)
    assert classify_type_0001(make_spec(block, [0, 0, 1])).passed
    assert not classify_type_0001(make_spec(StructureTensor(3), [0, 0, 1])).passed
    report = classify_type_0001(make_spec(heisenberg3(), [0, 0, 1]))
    assert not report.passed
    assert report.checks["distinguished_decoupled"] == pytest.approx(2.0)


def test_classify_0001_permutes_distinguished_index():
    # eigenvalue 1 in first position; the hyperbolic block sits on (2, 3)
    block = StructureTensor(3, {(2, 3, 3): -1.0}, lie=True)
    assert classify_type_0001(make_spec(block, [1, 0, 0])).passed


def test_classify_1110_examples():
    mu = StructureTensor(3, {(3, 1, 1): 1.0, (3, 2, 2): -1.0}, lie=True)
    report = classify_type_1110(make_spec(mu, [1, 1, 0]))
    assert report.passed
    assert report.spectrum == pytest.approx([-1.0, 1.0])
    assert not classify_type_1110(make_spec(StructureTensor(3), [1, 1, 0])).passed


def test_classify_1110_gauge_obstruction():
    mu = StructureTensor(3, {(3, 1, 2): 1.0}, lie=True)
    report = classify_type_1110(make_spec(mu, [1, 1, 0]))
    assert not report.passed
    assert report.gauge_obstruction


def test_classify_1112_heisenberg_family():
    assert classify_type_1112(make_spec(heisenberg3(), [1, 1, 2])).passed
    mu5 = StructureTensor(5, {(1, 2, 5): 2.0, (3, 4, 5): 2.0}, lie=True)
    report = classify_type_1112(make_spec(mu5, [1, 1, 1, 1, 2]))
    assert report.passed
    assert report.details["k_contact_eta_einstein"]
    weak = classify_type_1112(make_spec(heisenberg3(1.0), [1, 1, 2]))
    assert not weak.passed
    assert weak.checks["contact_coupling"] == pytest.approx(3.0)


def test_classify_1112_implies_verify():
    for k in range(1, 5):
        n = 2 * k + 1
        entries = {(2 * i - 1, 2 * i, n): 2.0 for i in range(1, k + 1)}
        spec = make_spec(StructureTensor(n, entries, lie=True), [1] * (n - 1) + [2])
        assert classify_type_1112(spec).passed
        assert verify_extension(spec, 1e-10).einstein


def test_classifiers_on_a_line():
    # dimension one has no transverse direction, so every certificate holds
    for classify, p in ((classify_type_0001, 1), (classify_type_1110, 0), (classify_type_1112, 2)):
        spec = make_spec(StructureTensor(1), [p])
        assert classify(spec).passed and verify_extension(spec).einstein


def test_classifiers_refuse_wrong_types():
    spec = make_spec(heisenberg3(), [1, 1, 2])
    with pytest.raises(TypeMismatchError):
        classify_type_0001(spec)
    with pytest.raises(TypeMismatchError):
        classify_type_1110(spec)
    with pytest.raises(TypeMismatchError):
        classify_type_1112(make_spec(StructureTensor(3), [1, 2, 2]))
    # scaled versions are near misses, never coerced
    with pytest.raises(TypeMismatchError):
        classify_type_1112(make_spec(StructureTensor(3), [2, 2, 4]))


# ---------------------------------------------------------------------------
# properties tying verification to the structural constraints
# ---------------------------------------------------------------------------


def passing_fixtures():
    yield make_spec(StructureTensor(3), [1, 1, 1])
    yield make_spec(heisenberg3(), [1, 1, 2])
    yield make_spec(e2_algebra(), [1, 1, 1])
    yield make_spec(StructureTensor(3, {(3, 1, 1): 0.5, (3, 2, 2): -1.0}, lie=True), [1, "t", 0], 0.5)


def test_passing_specs_satisfy_structural_constraints():
    for spec in passing_fixtures():
        report = verify_extension(spec, 1e-9)
        assert report.einstein
        forms = spec.spectral
        scalar = all(f == forms[0] for f in forms)
        if not scalar:
            assert relation_exists(spec.spectral) is not None
        pattern = sparsity_pattern(spec.spectral)
        for (i, j, k), v in spec.algebra.items():
            if abs(v) > 1e-10:
                assert (i, j, k) in pattern


FILIFORM = make_spec(
    StructureTensor(4, {(1, 2, 3): math.sqrt(20), (1, 3, 4): -math.sqrt(20)}, lie=True), [1, 2, 3, 4]
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([FILIFORM] + [entry.spec for entry in catalog_entries()]),
    st.integers(-300, 300).filter(bool).map(lambda k: Fraction(k, 100)),
)
@example(FILIFORM, Fraction(1, 10))
def test_scaling_keeps_einstein_with_constant_times_c_squared(spec, c):
    # Scaling mu and p by c scales the extended metric by 1/c^2 (for c < 0
    # after flipping the frame and the extension direction), so the Einstein
    # constant scales by c^2.  The scaled spec is read back from JSON with
    # the eigenvalues as decimal floats.
    data = {
        "dim": spec.dim,
        "mu": [{"i": i, "j": j, "k": k, "v": float(c) * v} for (i, j, k), v in spec.algebra.items()],
        "spectral": [float(c * x) for x in spec.spectral],
    }
    _, scaled, _ = algebra_from_json(json.loads(json.dumps(data)))
    assert scaled.spectral == tuple(c * x for x in spec.spectral)
    report = verify_extension(scaled)
    assert report.einstein, report.violated_conditions
    expected = float(c * c) * verify_extension(spec).einstein_constant
    assert report.einstein_constant == pytest.approx(expected, rel=1e-12, abs=1e-15)

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from einext.algebra import (
    CommutationError,
    DecompositionError,
    OrthogonalDecomposition,
    PatternViolationError,
    StructureError,
    StructureTensor,
    algebra_from_json,
    algebra_to_json,
    divergence_residual,
    is_derivation,
    jacobi_residual,
    killing_form,
    make_spec,
    mean_curvature,
    qn_split,
    standard_modification,
)

from oracles import divergence_bruteforce, killing_bruteforce
from util import random_lie_tensor, random_sparse_tensor


def heisenberg3():
    return StructureTensor(3, {(1, 2, 3): 2.0}, lie=True)


def e2_algebra():
    return StructureTensor(3, {(3, 1, 2): 1.0, (3, 2, 1): -1.0}, lie=True)


def row4_algebra(p):
    return StructureTensor(3, {(3, 1, 1): p, (3, 2, 2): -1.0}, lie=True)


# ---------------------------------------------------------------------------
# StructureTensor basics
# ---------------------------------------------------------------------------


def test_non_finite_values_rejected():
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(StructureError):
            StructureTensor(3, {(1, 2, 3): value})
    with pytest.raises(StructureError):
        make_spec(StructureTensor(1), ["t"], float("inf"))


def test_antisymmetric_storage():
    mu = StructureTensor(3, {(2, 1, 3): 5.0})
    assert mu.get(1, 2, 3) == -5.0
    assert mu.get(2, 1, 3) == 5.0
    assert mu.get(1, 1, 3) == 0.0
    assert mu.nnz == 1


def test_entries_cancel_and_drop():
    mu = StructureTensor(3, {(1, 2, 3): 1.0, (2, 1, 3): 1.0})
    assert mu.nnz == 0


def test_index_validation():
    with pytest.raises(StructureError):
        StructureTensor(3, {(1, 4, 2): 1.0})
    with pytest.raises(StructureError):
        StructureTensor(3, {(2, 2, 1): 1.0})
    with pytest.raises(StructureError):
        StructureTensor(0)


def test_dense_and_ad_agree():
    mu = e2_algebra()
    T = mu.dense()
    for i in range(1, 4):
        ad = mu.ad(i)
        for j in range(1, 4):
            for k in range(1, 4):
                assert ad[k - 1, j - 1] == T[i - 1, j - 1, k - 1]


def test_restrict_and_permute():
    mu = heisenberg3()
    block = mu.restrict([1, 2])
    assert block.dim == 2 and block.nnz == 0
    swapped = mu.permuted({1: 3, 2: 2, 3: 1})
    assert swapped.get(3, 2, 1) == 2.0
    with pytest.raises(StructureError):
        mu.permuted({1: 1, 2: 2, 3: 2})


def test_lie_flag_enforces_jacobi():
    StructureTensor(3, {(1, 2, 3): 1.0, (1, 3, 2): -1.0, (2, 3, 1): 1.0}, lie=True)
    with pytest.raises(StructureError):
        StructureTensor(3, {(1, 2, 3): 1.0, (1, 3, 1): 1.0}, lie=True)


# ---------------------------------------------------------------------------
# Jacobi residual
# ---------------------------------------------------------------------------


def test_jacobi_residual_examples():
    assert jacobi_residual(StructureTensor(4)) == 0.0
    assert jacobi_residual(heisenberg3()) == 0.0
    # every diagonal three-dimensional bracket satisfies Jacobi, so a
    # genuine violation needs a mixed entry
    diagonal = StructureTensor(3, {(1, 2, 3): 1.0, (1, 3, 2): 1.0, (2, 3, 1): 1.0})
    assert jacobi_residual(diagonal) == 0.0
    broken = StructureTensor(3, {(1, 2, 3): 1.0, (1, 3, 1): 1.0})
    assert jacobi_residual(broken) == pytest.approx(1.0)


def test_jacobi_zero_on_constructed_lie_families():
    rng = np.random.default_rng(9)
    for _ in range(40):
        mu, _ = random_lie_tensor(rng)
        assert jacobi_residual(mu) == 0.0


# ---------------------------------------------------------------------------
# Derivation test
# ---------------------------------------------------------------------------


def test_is_derivation_examples():
    assert is_derivation(make_spec(StructureTensor(4), [3, -1, 0, 2])).ok
    assert is_derivation(make_spec(heisenberg3(), [1, 1, 2])).ok
    check = is_derivation(make_spec(e2_algebra(), [1, 1, 1]))
    assert not check.ok
    assert check.max_violation == pytest.approx(1.0)


def test_scaling_derivation_characterizes_abelian():
    ones = [1, 1, 1]
    assert is_derivation(make_spec(StructureTensor(3), ones)).ok
    assert not is_derivation(make_spec(heisenberg3(), ones)).ok
    assert not is_derivation(make_spec(e2_algebra(), ones)).ok
    rng = np.random.default_rng(21)
    for _ in range(20):
        mu, _ = random_lie_tensor(rng)
        spec = make_spec(mu, [1] * mu.dim)
        assert is_derivation(spec).ok == (mu.nnz == 0)


# ---------------------------------------------------------------------------
# Killing form, mean curvature, divergence
# ---------------------------------------------------------------------------


def test_killing_form_examples():
    assert np.allclose(killing_form(heisenberg3()), 0.0)
    assert np.allclose(killing_form(e2_algebra()), np.diag([0.0, 0.0, -2.0]))
    for p in (0.5, 1.0, 2.0):
        B = killing_form(row4_algebra(p))
        expected = np.zeros((3, 3))
        expected[2, 2] = p * p + 1.0
        assert np.allclose(B, expected)


def test_killing_form_matches_bruteforce():
    rng = np.random.default_rng(31)
    for _ in range(60):
        mu, _ = random_sparse_tensor(rng, max_dim=4)
        B = killing_form(mu)
        assert np.abs(B - killing_bruteforce(mu)).max() <= 1e-12
        assert np.abs(B - B.T).max() == 0.0


def test_mean_curvature_examples():
    assert np.allclose(mean_curvature(StructureTensor(3)), 0.0)
    assert np.allclose(mean_curvature(heisenberg3()), 0.0)
    assert np.allclose(mean_curvature(row4_algebra(2.0)), [0.0, 0.0, 1.0])


def test_derivation_exponents_are_exact():
    # 3/10 - 1/10 - 2/10 is 0 exactly; in float64 it is 2.8e-17.
    check = is_derivation(make_spec(StructureTensor(3, {(1, 2, 3): 1e8}), ["1/10", "2/10", "3/10"]))
    assert check == (True, 0.0)


def test_divergence_examples():
    assert np.allclose(divergence_residual(make_spec(StructureTensor(3), [5, -2, 7])), 0.0)
    assert np.allclose(divergence_residual(make_spec(heisenberg3(), [1, 1, 2])), 0.0)
    spec = make_spec(row4_algebra(2.0), [1, "t", 0], 2.0)
    assert np.allclose(divergence_residual(spec), 0.0)
    # e(2) with a non-scalar deformation picks up a divergence defect
    bad = make_spec(StructureTensor(3, {(1, 2, 2): 1.0}), [1, 2, 3])
    assert np.abs(divergence_residual(bad)).max() > 0.5


def test_divergence_matches_trace_oracle():
    rng = np.random.default_rng(13)
    for _ in range(60):
        mu, p = random_sparse_tensor(rng, max_dim=4)
        spec = make_spec(mu, p)
        assert np.abs(
            divergence_residual(spec) - divergence_bruteforce(spec)
        ).max() <= 1e-12


# ---------------------------------------------------------------------------
# ExtensionSpec
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(StructureError):
        make_spec(heisenberg3(), [1, 1])
    with pytest.raises(StructureError):
        make_spec(heisenberg3(), ["t"] * 3)
    with pytest.raises(StructureError):
        make_spec(heisenberg3(), [1, 1, 2], 1)
    spec = make_spec(heisenberg3(), ["1/2", 1, 2.5])
    assert spec.eigenvalue(1) == Fraction(1, 2)
    assert spec.trace() == pytest.approx(4.0)
    assert spec.trace_sq() == pytest.approx(0.25 + 1 + 6.25)


def test_spec_exact_eigenvalues_with_param():
    spec = make_spec(row4_algebra(0.5), [1, "t", 0], 0.5)
    assert spec.spectral == (Fraction(1), Fraction(1, 2), Fraction(0))


# ---------------------------------------------------------------------------
# Orthogonal decomposition, Q/N split, standard modification
# ---------------------------------------------------------------------------


def rotation_action():
    # abelian plane rotated by the third direction
    return StructureTensor(3, {(3, 1, 2): 1.0, (3, 2, 1): -1.0}, lie=True)


def test_decomposition_validation():
    decomp = OrthogonalDecomposition((3,), (1, 2))
    decomp.validate(rotation_action())
    with pytest.raises(DecompositionError):
        OrthogonalDecomposition((3,), (1,)).validate(rotation_action())
    # abelian part must be abelian
    bad = StructureTensor(3, {(2, 3, 3): 1.0})
    with pytest.raises(DecompositionError):
        OrthogonalDecomposition((2, 3), (1,)).validate(bad)
    # ideal must not bracket back into the transverse part
    bad2 = StructureTensor(3, {(1, 2, 3): 1.0})
    with pytest.raises(DecompositionError):
        OrthogonalDecomposition((3,), (1, 2)).validate(bad2)


def test_qn_split_rotation():
    mu = rotation_action()
    spec = make_spec(mu, [1, 1, 1])
    decomp = OrthogonalDecomposition((3,), (1, 2))
    split = qn_split(mu, spec, decomp)
    assert not split.violations
    q3 = split.q_ops[3]
    assert np.allclose(q3, [[0.0, -1.0], [1.0, 0.0]])
    assert np.allclose(split.n_ops[3], 0.0)
    # reconstruction: Q + N equals the restricted action
    action = np.array([[mu.get(3, l, k) for l in (1, 2)] for k in (1, 2)])
    assert np.abs(q3 + split.n_ops[3] - action).max() == 0.0


def test_qn_split_zero_eigenvalue_routes_through_t():
    mu = row4_algebra(2.0)
    spec = make_spec(mu, [1, "t", 0], 2.0)
    split = qn_split(mu, spec, OrthogonalDecomposition((3,), (1, 2)))
    assert not split.violations
    assert 3 in split.t_ops
    assert np.allclose(split.t_ops[3], np.diag([2.0, -1.0]))
    assert 3 not in split.q_ops


def test_qn_split_compares_substituted_eigenvalues():
    # At t = 1 the eigenvalues (1, t, 0) are (1, 1, 0): the action of e_3
    # stays inside the eigenvalue-1 space, as it does for [1, 1, 0].
    mu = StructureTensor(3, {(3, 1, 2): 1.0, (3, 2, 1): 1.0})
    decomp = OrthogonalDecomposition((3,), (1, 2))
    for spec in (make_spec(mu, [1, "t", 0], 1), make_spec(mu, [1, 1, 0])):
        split = qn_split(mu, spec, decomp)
        assert not split.violations
        assert np.array_equal(split.t_ops[3], [[0.0, 1.0], [1.0, 0.0]])


def test_qn_split_zero_tensor():
    mu = StructureTensor(4)
    spec = make_spec(mu, [1, 1, 2, 0])
    split = qn_split(mu, spec, OrthogonalDecomposition((4,), (1, 2, 3)))
    assert not split.violations
    assert np.allclose(split.t_ops[4], 0.0)


def test_qn_split_reports_pattern_violation():
    # eigenvalue-5 generator cannot connect eigenvalues 1 and 2
    mu = StructureTensor(3, {(3, 1, 2): 1.0}, lie=True)
    spec = make_spec(mu, [1, 2, 5])
    split = qn_split(mu, spec, OrthogonalDecomposition((3,), (1, 2)))
    assert split.violations
    a, k, l, value, why = split.violations[0]
    assert (a, k, l) == (3, 2, 1) and value == 1.0


@st.composite
def decomposed_tensors(draw):
    """Random brackets that an abelian h and an ideal m admit: [h, m] and
    [m, m] inside m, with values that include one below the tolerance.
    Half the cases have an abelian m and skew same-eigenvalue blocks in
    every action, so that the twist can apply."""
    n = draw(st.integers(2, 5))
    p = draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
    h = sorted(draw(st.sets(st.integers(1, n), min_size=1, max_size=n - 1)))
    m = [i for i in range(1, n + 1) if i not in h]
    twistable = draw(st.booleans())
    allowed = [(a, l, k) for a in h for l in m for k in m]
    if not twistable:
        allowed += [(i, j, k) for i in m for j in m if i < j for k in m]
    value = st.sampled_from([-2.0, -1.0, 0.5, 1.0, 3.0, 1e-12])
    entries = {t: draw(value) for t in sorted(draw(st.sets(st.sampled_from(allowed), max_size=8)))}
    for a, l, k in allowed if twistable else ():
        if l <= k and p[k - 1] == p[l - 1]:
            entries[(a, l, k)] = -entries.get((a, k, l), 0.0) if l < k else 0.0
    mu = StructureTensor(n, entries)
    return mu, make_spec(mu, p), OrthogonalDecomposition(tuple(h), tuple(m))


@settings(max_examples=150, deadline=None)
@given(decomposed_tensors())
def test_qn_split_and_twist_invariants(case):
    mu, spec, decomp = case
    p = spec.spectral
    m = decomp.m_indices
    split = qn_split(mu, spec, decomp)
    for a in decomp.h_indices:
        action = np.array([[mu.get(a, l, k) for l in m] for k in m])
        crosses = np.array([[p[k - 1] != p[l - 1] for l in m] for k in m])
        violations = np.zeros_like(action)
        for b, k, l, v, _ in split.violations:
            if b == a:
                assert abs(v) > 1e-10 and crosses[m.index(k), m.index(l)]
                violations[m.index(k), m.index(l)] = v
        if p[a - 1] == 0:
            # T is the whole action; what crosses eigenspaces is also reported.
            assert a not in split.q_ops and np.array_equal(split.t_ops[a], action)
            assert np.array_equal(violations, np.where(crosses & (np.abs(action) > 1e-10), action, 0.0))
            continue
        shifts = np.array([[p[k - 1] == p[l - 1] + p[a - 1] for l in m] for k in m])
        Q, N = split.q_ops[a], split.n_ops[a]
        assert not Q[crosses].any() and not N[~shifts].any()
        # Entries outside both patterns but within the tolerance are dropped.
        assert np.abs(Q + N + violations - action).max(initial=0.0) <= 1e-10

    try:
        out = standard_modification(mu, spec, decomp)
    except StructureError:
        return
    h = set(decomp.h_indices)

    def is_q_entry(i, j, k):
        a, l = (i, j) if i in h else (j, i)
        return a in h and l not in h and p[a - 1] != 0 and p[k - 1] == p[l - 1]

    expected = {key: v for key, v in mu.items() if not is_q_entry(*key)}
    got = dict(out.items())
    for key in set(got) | set(expected):
        if got.get(key) != expected.get(key):
            assert key not in got and abs(expected[key]) <= 1e-10


def test_standard_modification_removes_rotation():
    mu = rotation_action()
    spec = make_spec(mu, [1, 1, 1])
    decomp = OrthogonalDecomposition((3,), (1, 2))
    out = standard_modification(mu, spec, decomp)
    assert out.nnz == 0
    assert is_derivation(spec.with_algebra(out)).ok


def test_standard_modification_fixed_points():
    # already a derivation: twisting by nothing
    mu = StructureTensor(3, {(3, 1, 1): 1.0, (3, 2, 2): -1.0}, lie=True)
    spec = make_spec(mu, [1, 1, 0])
    decomp = OrthogonalDecomposition((3,), (1, 2))
    out = standard_modification(mu, spec, decomp)
    assert out.items() == mu.items()
    zero = StructureTensor(3)
    out2 = standard_modification(zero, make_spec(zero, [1, 1, 0]), decomp)
    assert out2.nnz == 0


def test_standard_modification_mixed_action():
    # rotation (Q) plus an eigenvalue shift (N) on a two-block ideal
    entries = {
        (5, 4, 3): 1.0,
        (5, 3, 4): -1.0,  # Q: rotation inside the eigenvalue-2 block
        (5, 1, 3): 1.0,
        (5, 2, 4): 1.0,  # N: shift from eigenvalue 1 to eigenvalue 2
    }
    mu = StructureTensor(5, entries, lie=True)
    spec = make_spec(mu, [1, 1, 2, 2, 1])
    decomp = OrthogonalDecomposition((5,), (1, 2, 3, 4))
    split = qn_split(mu, spec, decomp)
    assert not split.violations
    with pytest.raises(CommutationError):
        standard_modification(mu, spec, decomp)
    # dropping the rotation makes the twist trivial and D a derivation
    mu2 = StructureTensor(5, {(5, 1, 3): 1.0, (5, 2, 4): 1.0}, lie=True)
    spec2 = make_spec(mu2, [1, 1, 2, 2, 1])
    out = standard_modification(mu2, spec2, decomp)
    assert out.items() == mu2.items()
    assert is_derivation(spec2.with_algebra(out)).ok


def test_standard_modification_refuses_nonskew_block():
    mu = StructureTensor(3, {(3, 1, 2): 1.0, (3, 2, 1): 1.0}, lie=True)
    spec = make_spec(mu, [1, 1, 1])
    with pytest.raises(PatternViolationError):
        standard_modification(mu, spec, OrthogonalDecomposition((3,), (1, 2)))


def test_standard_modification_refuses_bad_ideal_grading():
    # ideal bracket not an eigenvector of the deformation
    mu = StructureTensor(3, {(1, 2, 3): 2.0}, lie=True)
    spec = make_spec(mu, [1, 1, 1])
    with pytest.raises(PatternViolationError):
        standard_modification(mu, spec, OrthogonalDecomposition((), (1, 2, 3)))
    # with the correct grading it goes through untouched
    good = make_spec(mu, [1, 1, 2])
    out = standard_modification(mu, good, OrthogonalDecomposition((), (1, 2, 3)))
    assert out.items() == mu.items()


def test_standard_modification_postconditions_on_rotating_families():
    rng = np.random.default_rng(77)
    for _ in range(20):
        # one generator acting on an abelian ideal by a random skew map
        size = int(rng.integers(2, 4))
        skew = rng.uniform(-1, 1, size=(size, size))
        skew = skew - skew.T
        entries = {}
        n = size + 1
        for k in range(size):
            for l in range(size):
                if skew[k, l] != 0.0:
                    entries[(n, l + 1, k + 1)] = skew[k, l]
        mu = StructureTensor(n, entries, lie=True)
        spec = make_spec(mu, [1] * size + [2])
        out = standard_modification(
            mu, spec, OrthogonalDecomposition((n,), tuple(range(1, n)))
        )
        assert jacobi_residual(out) <= 1e-10
        assert is_derivation(spec.with_algebra(out)).ok


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def test_json_round_trip():
    mu = heisenberg3()
    spec = make_spec(mu, [1, 1, 2])
    decomp = OrthogonalDecomposition((3,), (1, 2))
    payload = algebra_to_json(mu, spec, decomp)
    text = json.dumps(payload)
    mu2, spec2, decomp2 = algebra_from_json(json.loads(text))
    assert mu2.items() == mu.items()
    assert spec2.spectral == spec.spectral
    assert decomp2 == decomp


def test_json_accepts_rational_strings():
    data = {
        "dim": 2,
        "mu": [{"i": 1, "j": 2, "k": 1, "v": "3/2"}],
        "spectral": ["1/2", 1],
    }
    mu, spec, _ = algebra_from_json(data)
    assert mu.get(1, 2, 1) == 1.5
    assert spec.eigenvalue(1) == Fraction(1, 2)


def test_json_requires_dim_and_valid_entries():
    with pytest.raises(StructureError):
        algebra_from_json({"mu": []})
    with pytest.raises(StructureError):
        algebra_from_json({"dim": 2, "mu": [{"i": 1, "j": 2, "v": 1.0}]})


def test_json_parametric_spectral_round_trip():
    spec = make_spec(row4_algebra(0.5), [1, "t", 0], 0.5)
    payload = algebra_to_json(spec.algebra, spec)
    assert "param" not in payload
    assert payload["spectral"] == [1, "1/2", 0]


def _affine_text(const, slope):
    sign = "-" if slope < 0 else "+"
    return f"{const}{sign}{abs(slope)}*t"


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@st.composite
def json_specs(draw):
    """Frame data with rational eigenvalues, a third of them read from
    parametric input (affine forms substituted at a rational param)."""
    n = draw(st.integers(1, 5))
    triple = st.tuples(*[st.integers(1, n)] * 3).filter(lambda t: t[0] != t[1])
    value = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)
    mu = StructureTensor(n, draw(st.dictionaries(triple, value, max_size=8)))
    if draw(st.integers(0, 2)):
        return mu, make_spec(mu, draw(st.lists(rationals, min_size=n, max_size=n)))
    forms = draw(st.lists(st.tuples(rationals, rationals), min_size=n, max_size=n))
    texts = [_affine_text(c, s) for c, s in forms]
    texts[draw(st.integers(0, n - 1))] = "t"
    param = draw(st.one_of(rationals.map(str), st.floats(-4, 4)))
    return mu, make_spec(mu, texts, param)


@settings(max_examples=50, deadline=None)
@given(json_specs())
def test_json_round_trip_property(case):
    mu, spec = case
    mu2, spec2, _ = algebra_from_json(json.loads(json.dumps(algebra_to_json(mu, spec))))
    assert mu2.items() == mu.items()
    assert spec2.spectral == spec.spectral
    assert all(type(q) is Fraction for q in spec2.spectral)

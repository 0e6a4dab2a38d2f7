from fractions import Fraction

import numpy as np
import pytest

from einext.spectral import (
    ConeCertificate,
    DimensionCapError,
    DimensionError,
    RankError,
    RootMatrix,
    RootTriple,
    SpectralVector,
    build_root_set,
    candidate_spectral,
    check_consistency,
    cone_membership,
    enumerate_types,
    enumeration_report,
    perp_roots,
    raw_candidate,
    root_matrix_for,
)

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


def canon_set(types):
    return {tuple(int(x) for x in p.entries) for p in types}


# ---------------------------------------------------------------------------
# Root set
# ---------------------------------------------------------------------------


def test_root_set_sizes():
    assert build_root_set(2) == []
    assert build_root_set(3) == [RootTriple(1, 2, 3), RootTriple(1, 3, 2), RootTriple(2, 3, 1)]
    assert len(build_root_set(4)) == 12
    assert len(build_root_set(6)) == 60  # C(6,2) * 4


def test_root_set_rejects_dim_one():
    with pytest.raises(DimensionError):
        build_root_set(1)


def test_root_triple_vector_and_validation():
    t = RootTriple(1, 2, 3)
    assert t.vector(3) == (1, 1, -1)
    with pytest.raises(ValueError):
        RootTriple(2, 1, 3).validate(3)
    with pytest.raises(ValueError):
        RootTriple(1, 2, 2).validate(3)


def test_root_matrix_rank_enforced():
    with pytest.raises(RankError):
        RootMatrix(4, (RootTriple(1, 2, 3), RootTriple(1, 2, 3)))


def test_root_matrix_column_sum_property():
    V = RootMatrix(4, (RootTriple(1, 2, 3), RootTriple(1, 2, 4)))
    for col in V.columns():
        assert sum(col) == 1


# ---------------------------------------------------------------------------
# Candidate vectors and canonical form
# ---------------------------------------------------------------------------


def test_candidate_single_column_n3():
    V = RootMatrix(3, (RootTriple(1, 2, 3),))
    assert raw_candidate(V) == (Fraction(2, 3), Fraction(2, 3), Fraction(4, 3))
    assert candidate_spectral(V).entries == (1, 1, 2)


def test_candidate_empty_matrix():
    V = RootMatrix(5, ())
    assert raw_candidate(V) == tuple([Fraction(1)] * 5)
    assert candidate_spectral(V).entries == (1, 1, 1, 1, 1)


def test_candidate_two_columns_n4():
    V = RootMatrix(4, (RootTriple(1, 2, 3), RootTriple(1, 2, 4)))
    assert raw_candidate(V) == (
        Fraction(3, 5),
        Fraction(3, 5),
        Fraction(6, 5),
        Fraction(6, 5),
    )
    assert candidate_spectral(V).entries == (1, 1, 2, 2)


def test_canonical_form_rules():
    assert SpectralVector.of([Fraction(2, 3), Fraction(4, 3), Fraction(2, 3)]).canonical().entries == (1, 1, 2)
    assert SpectralVector.of([-1, -1, -2]).canonical().entries == (1, 1, 2)
    # zero sum: the largest-magnitude entry must be positive
    assert SpectralVector.of([3, -3, 1, -1]).canonical().entries == (-3, -1, 1, 3)
    assert SpectralVector.of([-3, 3, -1, 1]).canonical().entries == (-3, -1, 1, 3)
    assert SpectralVector.of([2, -1, -1]).canonical().entries == (-1, -1, 2)
    assert SpectralVector.of([4, 2, 6]).canonical().entries == (1, 2, 3)


def test_canonical_is_permutation_invariant_retraction():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        vals = [Fraction(int(a), int(b)) for a, b in zip(rng.integers(-6, 7, size=n), rng.integers(1, 5, size=n))]
        if all(v == 0 for v in vals):
            continue
        p = SpectralVector.of(vals)
        canon = p.canonical()
        assert canon.canonical() == canon
        perm = rng.permutation(n)
        shuffled = SpectralVector.of([vals[i] for i in perm])
        assert shuffled.canonical() == canon


def test_spectral_vector_requires_two_entries():
    with pytest.raises(DimensionError):
        SpectralVector.of([1])


# ---------------------------------------------------------------------------
# Consistency
# ---------------------------------------------------------------------------


def test_consistency_examples():
    p = SpectralVector.of([1, 1, 2])
    good = check_consistency(p, RootMatrix(3, (RootTriple(1, 2, 3),)))
    assert good.ok and all(good.conditions.values())

    scalar = check_consistency(SpectralVector.of([1, 1, 1]), RootMatrix(3, ()))
    assert scalar.ok

    bad = check_consistency(p, RootMatrix(3, (RootTriple(1, 3, 2),)))
    assert not bad.ok
    assert not bad.conditions["orthogonal"]


def test_consistency_dimension_mismatch():
    with pytest.raises(DimensionError):
        check_consistency(SpectralVector.of([1, 1]), RootMatrix(3, ()))


def test_consistency_flags_zero_trace():
    p = SpectralVector.of([-3, -2, -1, 1, 2, 3])
    V = root_matrix_for(p)
    report = check_consistency(p, V)
    assert not report.ok
    assert report.conditions["orthogonal"]
    assert report.conditions["nonzero_entries"]
    assert report.conditions["maximal"]
    assert not report.conditions["nonzero_trace"]
    assert report.trace == 0
    assert report.notes


# ---------------------------------------------------------------------------
# Cone membership
# ---------------------------------------------------------------------------


def test_cone_example_n3():
    cert = cone_membership(SpectralVector.of([1, 1, 2]))
    assert cert.feasible and cert.verify()
    assert cert.target == (Fraction(2), Fraction(2), Fraction(-2))
    assert cert.coefficients == {RootTriple(1, 2, 3): Fraction(2)}


def test_cone_scalar_type_empty_certificate():
    cert = cone_membership(SpectralVector.of([1, 1, 1]))
    assert cert.feasible and cert.verify()
    assert cert.coefficients == {}
    assert cert.target == (Fraction(0),) * 3


def test_cone_rejects_zero_entries():
    with pytest.raises(ValueError):
        cone_membership(SpectralVector.of([0, 1, 1]))


def test_cone_infeasible_witness():
    cert = cone_membership(SpectralVector.of([-1, 1, 2]))
    assert not cert.feasible
    assert cert.witness is not None
    assert cert.verify()


def test_cone_remark33_instance():
    p = SpectralVector.of([-3, -2, -1, 1, 2, 3])
    gens = perp_roots(p.entries)
    assert set(gens) == {
        RootTriple(1, 4, 2),
        RootTriple(1, 5, 3),
        RootTriple(2, 3, 1),
        RootTriple(2, 4, 3),
        RootTriple(2, 6, 4),
        RootTriple(3, 5, 4),
        RootTriple(3, 6, 5),
        RootTriple(4, 5, 6),
    }
    cert = cone_membership(p)
    assert cert.feasible and cert.verify()
    # a known certificate: 2 * ones = 3 v142 + v153 + 2 v231 + v243 + 2 v264 + v354 + v365 + v456
    combo = {
        RootTriple(1, 4, 2): 3,
        RootTriple(1, 5, 3): 1,
        RootTriple(2, 3, 1): 2,
        RootTriple(2, 4, 3): 1,
        RootTriple(2, 6, 4): 2,
        RootTriple(3, 5, 4): 1,
        RootTriple(3, 6, 5): 1,
        RootTriple(4, 5, 6): 1,
    }
    total = [Fraction(0)] * 6
    for t, c in combo.items():
        total = [a + c * b for a, b in zip(total, t.vector(6))]
    assert total == [Fraction(2)] * 6
    known = ConeCertificate(
        True,
        cert.target,
        cert.generators,
        coefficients={t: Fraction(14 * c) for t, c in combo.items()},
    )
    assert known.verify()


def test_cone_agrees_with_bruteforce_small():
    from oracles import cone_bruteforce

    rng = np.random.default_rng(8)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(3, 6))
        entries = [int(x) for x in rng.integers(-3, 4, size=n)]
        if any(e == 0 for e in entries):
            continue
        p = SpectralVector.of(entries)
        gens = perp_roots(p.entries)
        if len(gens) > 6:
            continue
        cert = cone_membership(p)
        assert cert.verify()
        expected = cone_bruteforce(
            [t.vector(n) for t in gens], cert.target
        )
        assert cert.feasible == expected
        checked += 1
    assert checked >= 50


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def test_enumerate_dim2():
    assert canon_set(enumerate_types(2)) == {(1, 1)}


def test_enumerate_dim3():
    assert canon_set(enumerate_types(3)) == {(1, 1, 1), (1, 1, 2)}


def test_enumerate_dim4_matches_known_list():
    assert canon_set(enumerate_types(4)) == KNOWN_DIM4_TYPES


def test_enumerate_matches_bruteforce_oracle():
    from oracles import types_bruteforce

    for dim in (3, 4):
        assert canon_set(enumerate_types(dim)) == types_bruteforce(dim)


@pytest.fixture(scope="module")
def types_of():
    """``enumerate_types(dim)``, walked once per dimension for this module."""
    walked = {}

    def get(dim):
        if dim not in walked:
            walked[dim] = enumerate_types(dim)
        return walked[dim]

    return get


@pytest.mark.parametrize("dim, count", [(3, 2), (4, 9), (5, 51), (6, 409)])
def test_type_counts(types_of, dim, count):
    assert len(types_of(dim)) == count


# Every type the cone condition rejects up to dimension 6, with its witness.
CONE_REJECTED = {
    (-4, -1, 2, 3, 4, 5): ("1", "-1/2", "1", "-3/2", "-1", "-1/2"),
    (-3, -2, -1, 2, 3, 4): ("0", "-1", "1", "1", "0", "-1"),
    (-2, -1, 2, 3, 4, 6): ("-1", "1", "1", "0", "-1", "0"),
}


@pytest.mark.parametrize("dim, count", [(3, 2), (4, 9), (5, 51), (6, 406)])
def test_cone_filtered_counts_and_witnesses(types_of, dim, count):
    certs = {p: cone_membership(p) for p in types_of(dim)}
    assert all(cert.verify() for cert in certs.values())
    assert sum(cert.feasible for cert in certs.values()) == count
    rejected = {
        p.as_ints(): tuple(str(x) for x in cert.witness)
        for p, cert in certs.items()
        if not cert.feasible
    }
    assert rejected == {k: w for k, w in CONE_REJECTED.items() if len(k) == dim}


def test_enumerate_cone_filter_no_discrepancy_dim4():
    report = enumeration_report(4)
    assert report.consistent
    assert canon_set(report.cone_filtered) == KNOWN_DIM4_TYPES


def test_enumerate_cap():
    with pytest.raises(DimensionCapError) as err:
        enumerate_types(8)
    assert "7" in str(err.value)
    with pytest.raises(DimensionError):
        enumerate_types(1)


def test_emitted_types_invariants():
    for dim in (3, 4):
        for p in enumerate_types(dim):
            ints = p.as_ints()
            assert all(v != 0 for v in ints)
            assert sum(ints) > 0
            assert np.gcd.reduce([abs(v) for v in ints]) == 1
            V = root_matrix_for(p)
            assert all(
                sum(a * b for a, b in zip(col, p.entries)) == 0 for col in V.columns()
            )


def test_well_definedness_of_defining_subsets():
    # recomputing a maximal independent subset of the orthogonal roots and
    # applying the candidate formula reproduces the same canonical vector
    rng = np.random.default_rng(4)
    for p in sorted(enumerate_types(4), key=lambda q: q.entries):
        roots = perp_roots(p.entries)
        for _ in range(3):
            order = list(rng.permutation(len(roots)))
            shuffled = [roots[i] for i in order]
            V = root_matrix_for(p, root_set=shuffled)
            assert candidate_spectral(V) == p


def test_scalar_type_always_present():
    for dim in (2, 3, 4, 5):
        assert (1,) * dim in canon_set(enumerate_types(dim))


def test_nonscalar_types_admit_sum_relation():
    # every emitted non-scalar type has p_k = p_i + p_j with i != j
    for dim in (3, 4, 5):
        for p in enumerate_types(dim):
            ints = p.as_ints()
            if len(set(ints)) == 1:
                continue
            found = any(
                ints[k] == ints[i] + ints[j]
                for i in range(dim)
                for j in range(i + 1, dim)
                for k in range(dim)
            )
            assert found, f"no sum relation in {ints}"


def test_walk_on_python_integers_matches_int64(monkeypatch):
    # With the int64 caps at 2 every projector and image takes the exact
    # Python-integer path; the walk must give the same types.
    import einext.ratlinalg as ratlinalg

    expected = {dim: enumerate_types(dim) for dim in (3, 4, 5)}
    monkeypatch.setattr(ratlinalg, "_ENTRY_CAP", 2)
    monkeypatch.setattr(ratlinalg, "_PRODUCT_CAP", 2)
    for dim, types in expected.items():
        assert enumerate_types(dim) == types

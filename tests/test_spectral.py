from collections import Counter
from fractions import Fraction
from itertools import compress, permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from einext.spectral import (
    ConeCertificate,
    DimensionCapError,
    DimensionError,
    RootTriple,
    SpectralVector,
    build_root_set,
    cone_membership,
    enumerate_types,
    enumeration_report,
)

from einext import spectral
from einext.ratlinalg import distinct, extend, images, permuted_keys, projector_keys, projectors
from einext.scalars import parse_rational, scaled_to_integers

from oracles import admissibility_defects, cone_simplex
from util import canonical, complement_projector, perp_roots

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


def candidate(roots, dim):
    """Row sums of the projector onto the complement of the roots' span:
    the projection of 1_n, since every root vector sums to 1."""
    Q, d, _ = complement_projector([t.vector(dim) for t in roots], dim)
    return tuple(Fraction(int(s), d) for s in Q.sum(axis=1))


# ---------------------------------------------------------------------------
# Root set
# ---------------------------------------------------------------------------


def test_root_set_sizes():
    assert RootTriple(1, 2, 3).vector(3) == (1, 1, -1)
    assert build_root_set(2) == []
    assert build_root_set(3) == [RootTriple(1, 2, 3), RootTriple(1, 3, 2), RootTriple(2, 3, 1)]
    assert len(build_root_set(4)) == 12
    assert len(build_root_set(6)) == 60  # C(6,2) * 4


def test_root_set_rejects_dim_one():
    with pytest.raises(DimensionError):
        build_root_set(1)


def test_root_matrix_column_sum_property():
    for dim in (3, 4, 5):
        assert all(sum(t.vector(dim)) == 1 for t in build_root_set(dim))


def test_perp_roots_matches_direct_fraction_test():
    # p scaled to integers must give exactly the roots a Fraction test gives,
    # also for numerators near 10^15 over denominators near 10^12: both the
    # weights of perp_roots and the mask <r, q> = 0 the cone batch builds on
    rng = np.random.default_rng(31)
    hits = 0
    for trial in range(300):
        n = int(rng.integers(3, 7))
        top, bottom = (10**15, 10**12) if trial % 2 else (20, 6)
        p = [
            Fraction(int(rng.integers(-top, top)), int(rng.integers(bottom // 2, bottom)))
            for _ in range(n)
        ]
        for _ in range(int(rng.integers(0, 3))):
            i, j, k = rng.choice(n, size=3, replace=False)
            p[k] = p[i] + p[j]
        direct = [t for t in build_root_set(n) if p[t.i - 1] + p[t.j - 1] - p[t.k - 1] == 0]
        assert perp_roots(p) == direct
        perp, _, _ = spectral._cone_lps([scaled_to_integers(p)[0]])
        assert list(compress(build_root_set(n), perp[0])) == direct
        hits += bool(direct)
    assert hits >= 100


# ---------------------------------------------------------------------------
# Candidate vectors and canonical form
# ---------------------------------------------------------------------------


def test_candidate_single_column_n3():
    roots = perp_roots([1, 1, 2])
    assert roots == [RootTriple(1, 2, 3)]
    assert candidate(roots, 3) == (Fraction(2, 3), Fraction(2, 3), Fraction(4, 3))
    assert canonical(SpectralVector(candidate(roots, 3))).entries == (1, 1, 2)


def test_candidate_empty_matrix():
    assert perp_roots([1] * 5) == []
    assert candidate([], 5) == tuple([Fraction(1)] * 5)
    assert canonical(SpectralVector(candidate([], 5))).entries == (1, 1, 1, 1, 1)


def test_candidate_two_columns_n4():
    roots = perp_roots([1, 1, 2, 2])
    assert roots == [RootTriple(1, 2, 3), RootTriple(1, 2, 4)]
    for order in (roots, roots[::-1]):
        assert candidate(order, 4) == (
            Fraction(3, 5),
            Fraction(3, 5),
            Fraction(6, 5),
            Fraction(6, 5),
        )
        assert canonical(SpectralVector(candidate(order, 4))).entries == (1, 1, 2, 2)


def test_canonical_form_rules():
    assert canonical(SpectralVector([Fraction(2, 3), Fraction(4, 3), Fraction(2, 3)])).entries == (1, 1, 2)
    assert canonical(SpectralVector([-1, -1, -2])).entries == (1, 1, 2)
    # zero sum: the largest-magnitude entry must be positive
    assert canonical(SpectralVector([3, -3, 1, -1])).entries == (-3, -1, 1, 3)
    assert canonical(SpectralVector([-3, 3, -1, 1])).entries == (-3, -1, 1, 3)
    assert canonical(SpectralVector([2, -1, -1])).entries == (-1, -1, 2)
    assert canonical(SpectralVector([4, 2, 6])).entries == (1, 2, 3)


def test_canonical_is_permutation_invariant_retraction():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        vals = [Fraction(int(a), int(b)) for a, b in zip(rng.integers(-6, 7, size=n), rng.integers(1, 5, size=n))]
        if all(v == 0 for v in vals):
            continue
        p = SpectralVector(vals)
        canon = canonical(p)
        assert canonical(canon) == canon
        perm = rng.permutation(n)
        shuffled = SpectralVector([vals[i] for i in perm])
        assert canonical(shuffled) == canon


small_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(small_fractions, min_size=2, max_size=6),
    st.randoms(use_true_random=False),
    st.builds(Fraction, st.integers(1, 30), st.integers(1, 30)),
)
def test_canonical_is_idempotent_and_invariant(values, rnd, scale):
    canon = canonical(SpectralVector(values))
    assert canonical(canon) == canon
    shuffled = list(values)
    rnd.shuffle(shuffled)
    assert canonical(SpectralVector(shuffled)) == canon
    assert canonical(SpectralVector([scale * v for v in values])) == canon


def test_spectral_vector_requires_two_entries():
    with pytest.raises(DimensionError):
        SpectralVector([1])


def spellings(v):
    """The inputs that read back as the Fraction v: itself, "num/den", and
    the int or float of the same value where that is exact."""
    forms = [v, f"{v.numerator}/{v.denominator}"]
    if v.denominator == 1:
        forms.append(v.numerator)
    if v.denominator in (1, 2, 4):
        forms.append(float(v))
    return st.sampled_from(forms)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(small_fractions, min_size=2, max_size=6),
    st.lists(small_fractions, min_size=2, max_size=6),
    st.data(),
)
def test_spectral_vectors_are_equal_and_hash_equal_by_value(a, b, data):
    # The hash is taken from (numerator, denominator) pairs when a vector is
    # built: however an equal value is spelled, the pairs are the same.
    u, v, w = (SpectralVector(data.draw(st.tuples(*map(spellings, x)))) for x in (a, a, b))
    assert u == v and hash(u) == hash(v) and len({u, v}) == 1
    assert (u == w) == (a == b) and len({u, w}) == 2 - (a == b)
    i = data.draw(st.integers(0, len(a) - 1))
    changed = SpectralVector([*a[:i], a[i] + data.draw(st.sampled_from([1, -1, Fraction(1, 2)])), *a[i + 1 :]])
    assert changed != u and len({u, changed}) == 2


# ---------------------------------------------------------------------------
# Admissibility (the oracle the walk is checked against)
# ---------------------------------------------------------------------------


def test_consistency_examples():
    assert admissibility_defects([1, 1, 2]) == []
    assert admissibility_defects([1, 1, 1]) == []
    # (1,1,3) is orthogonal to no root, so it would have to be 1_n
    assert admissibility_defects([1, 1, 3]) == [
        "not the projection of 1_n off its orthogonal roots"
    ]
    assert admissibility_defects([-1, -1, -2]) == [
        "not the projection of 1_n off its orthogonal roots"
    ]
    assert "zero entry" in admissibility_defects([0, 1, 1])


def test_consistency_flags_zero_trace():
    # pairing p with the projection of 1_n forces |p|^2 = 0 when the trace is
    # zero, so p cannot be that projection either
    assert admissibility_defects([-3, -2, -1, 1, 2, 3]) == [
        "zero trace",
        "not the projection of 1_n off its orthogonal roots",
    ]


# ---------------------------------------------------------------------------
# Cone membership
# ---------------------------------------------------------------------------


def test_cone_example_n3():
    cert = cone_membership(SpectralVector([1, 1, 2]))
    assert cert.feasible and cert.verify()
    assert cert.target == (Fraction(2), Fraction(2), Fraction(-2))
    assert cert.coefficients == {RootTriple(1, 2, 3): Fraction(2)}


def test_cone_scalar_type_empty_certificate():
    cert = cone_membership(SpectralVector([1, 1, 1]))
    assert cert.feasible and cert.verify()
    assert cert.coefficients == {}
    assert cert.target == (Fraction(0),) * 3


def test_cone_rejects_zero_entries():
    with pytest.raises(ValueError):
        cone_membership(SpectralVector([0, 1, 1]))


def test_cone_infeasible_witness():
    cert = cone_membership(SpectralVector([-1, 1, 2]))
    assert not cert.feasible
    assert cert.witness is not None
    assert cert.verify()


def test_cone_remark33_instance():
    p = SpectralVector([-3, -2, -1, 1, 2, 3])
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
        p = SpectralVector(entries)
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


@pytest.mark.parametrize("dim, count", [(3, 2), (4, 9), (5, 51), (6, 409), (7, 4308)])
def test_type_counts(types_of, dim, count):
    assert len(types_of(dim)) == count


# The types of dims 6 and 7 by their number of distinct eigenvalues.
DISTINCT_EIGENVALUES = {
    6: {1: 1, 2: 4, 3: 25, 4: 73, 5: 153, 6: 153},
    7: {1: 1, 2: 5, 3: 41, 4: 189, 5: 643, 6: 1545, 7: 1884},
}


@pytest.mark.parametrize("dim", [3, 4, 5, 6, 7])
def test_two_eigenvalues_one_of_them_simple_only_in_the_type_1_to_2(types_of, dim):
    # The paper's classification: with two distinct eigenvalues, one of them
    # of multiplicity one, the type is (1, ..., 1, 2).
    counts = [Counter(p.entries) for p in types_of(dim)]
    two = [tuple(sorted(c.elements())) for c in counts if len(c) == 2 and 1 in c.values()]
    assert two == [(1,) * (dim - 1) + (2,)]
    if dim in DISTINCT_EIGENVALUES:
        assert Counter(map(len, counts)) == DISTINCT_EIGENVALUES[dim]


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_emitted_types_are_canonical(types_of, dim):
    assert [p for p in types_of(dim) if canonical(p) != p] == []


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
        tuple(int(x) for x in p.entries): tuple(str(x) for x in cert.witness)
        for p, cert in certs.items()
        if not cert.feasible
    }
    assert rejected == {k: w for k, w in CONE_REJECTED.items() if len(k) == dim}


def oracle_certificate(p: SpectralVector) -> ConeCertificate:
    """The certificate of p from the per-LP simplex on Fractions."""
    n, entries = len(p.entries), p.entries
    target = tuple(sum(x * x for x in entries) - sum(entries) * x for x in entries)
    gens = tuple(perp_roots(entries))
    coeffs, witness = cone_simplex([t.vector(n) for t in gens], target)
    if coeffs is not None:
        return ConeCertificate(True, target, gens, coefficients=dict(zip(gens, coeffs)))
    return ConeCertificate(False, target, gens, witness=tuple(witness))


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_cone_certificates_equal_the_per_lp_oracle(types_of, dim):
    assert [p for p in types_of(dim) if cone_membership(p) != oracle_certificate(p)] == []


@pytest.mark.parametrize("entries", [("1e300", 1, 2), (3000000000, 1, 2), (-3, -2, -1, 1, 2, 3)])
def test_cone_of_entries_past_int64_equals_the_oracle(entries):
    # no root is orthogonal to the first two, so the target is the witness
    p = SpectralVector(parse_rational(x) for x in entries)
    cert = cone_membership(p)
    assert cert == oracle_certificate(p) and cert.verify()


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_enumeration_decides_every_cone_in_one_int64_batch(monkeypatch, dim):
    # one simplex call per enumeration, never one LP per type
    batches, memberships = [], []
    decompose = spectral.cone_decompose

    def counted(*args):
        batches.append(decompose(*args))
        return batches[-1]

    monkeypatch.setattr(spectral, "cone_decompose", counted)
    monkeypatch.setattr(spectral, "cone_membership", memberships.append)
    report = enumeration_report(dim)
    assert len(batches) == 1 and memberships == []
    assert batches[0].rows.dtype == np.int64
    assert len(batches[0].rows) == len(report.unfiltered)


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
    for dim in (3.0, 2.5):
        for call in (enumerate_types, enumeration_report):
            with pytest.raises(DimensionError, match="must be an integer, got " + str(dim)):
                call(dim)
    with pytest.raises(DimensionError, match="at least 2"):
        enumerate_types(True)


def test_emitted_types_invariants():
    for dim in (3, 4):
        for p in enumerate_types(dim):
            assert all(x.denominator == 1 for x in p.entries)
            ints = [x.numerator for x in p.entries]
            assert all(v != 0 for v in ints)
            assert sum(ints) > 0
            assert np.gcd.reduce([abs(v) for v in ints]) == 1


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_emitted_types_have_no_admissibility_defect(types_of, dim):
    assert [p for p in types_of(dim) if admissibility_defects(p.entries)] == []


def test_well_definedness_of_defining_subsets():
    # the candidate formula over the orthogonal roots, taken in any order,
    # reproduces the same canonical vector
    rng = np.random.default_rng(4)
    for p in sorted(enumerate_types(4), key=lambda q: q.entries):
        roots = perp_roots(p.entries)
        for _ in range(3):
            shuffled = [roots[i] for i in rng.permutation(len(roots))]
            assert canonical(SpectralVector(candidate(shuffled, 4))) == p


def test_scalar_type_always_present():
    for dim in (2, 3, 4, 5):
        assert (1,) * dim in canon_set(enumerate_types(dim))


def test_nonscalar_types_admit_sum_relation():
    # every emitted non-scalar type has p_k = p_i + p_j with i != j
    for dim in (3, 4, 5):
        for p in enumerate_types(dim):
            ints = [x.numerator for x in p.entries]
            if len(set(ints)) == 1:
                continue
            found = any(
                ints[k] == ints[i] + ints[j]
                for i in range(dim)
                for j in range(i + 1, dim)
                for k in range(dim)
            )
            assert found, f"no sum relation in {ints}"


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_walk_without_the_orbit_quotient_gives_the_same_types(types_of, monkeypatch, dim):
    # Every child kept as it is, not as a permuted representative of its
    # S_n orbit: the walk stores more subspaces and finds the same types.
    monkeypatch.setattr(spectral, "permuted_keys", lambda keys, n: keys)
    assert enumerate_types(dim) == types_of(dim)


@pytest.mark.parametrize("dim", [3, 4, 5, 6, 7, 8])
def test_the_lines_through_one_root_are_one_orbit(dim):
    # S_n permutes the roots transitively, so the zero subspace's children
    # keep one key, and the walk needs no start root.
    keys = projector_keys(np.eye(dim, dtype=np.int64)[None], [1])
    children = extend(keys, images(spectral._roots(dim)[1], projectors(keys, dim)[0]))
    assert len(children) == len(build_root_set(dim))
    assert len(distinct(permuted_keys(children, dim))) == 1


@pytest.mark.parametrize("dim, bound", [(5, 60), (6, 400), (7, 3_500)])
def test_walk_visits_few_subspaces(types_of, monkeypatch, dim, bound):
    # 52 / 382 / 3,317 keys at dims 5 / 6 / 7; without the orbit quotient
    # 2,706 and 127,206 at dims 5 and 6.
    expected, visited = types_of(dim), []

    def counted(keys, n):
        visited.append(len(keys))
        return projectors(keys, n)

    monkeypatch.setattr(spectral, "projectors", counted)
    assert enumerate_types(dim) == expected
    assert sum(visited) <= bound


@st.composite
def root_subspace_keys(draw):
    """Keys of the complements of spans of random roots, in one dimension."""
    n = draw(st.integers(3, 6))
    roots = build_root_set(n)
    keys = []
    for _ in range(draw(st.integers(1, 6))):
        chosen = draw(st.lists(st.sampled_from(roots), max_size=n - 1))
        Q, d, _ = complement_projector([t.vector(n) for t in chosen], n)
        keys.append(projector_keys(Q[None], [d])[0])
    return np.array(keys), n


@settings(max_examples=60, deadline=None)
@given(root_subspace_keys())
def test_permuted_keys_permute_each_projector(keyed):
    keys, n = keyed
    out = permuted_keys(keys, n)
    assert out.dtype == np.int64 and out.shape == keys.shape
    assert (out[:, 0] == keys[:, 0]).all()
    perms = np.array(list(permutations(range(n))))
    (Q, _), (P, _) = projectors(keys, n), projectors(out, n)
    for q, p in zip(Q, P):
        assert (q[perms[:, :, None], perms[:, None, :]] == p).all(axis=(1, 2)).any()
    assert (permuted_keys(out, n) == out).all()
    # The same on Python integers, also past int64.
    assert (permuted_keys(keys.astype(object), n) == out).all()
    big = permuted_keys(keys.astype(object) * 3**40, n)
    assert big.dtype == object and (big == out.astype(object) * 3**40).all()


def test_walk_on_python_integers_matches_int64(monkeypatch):
    # With the int64 caps at 2 every projector and image takes the exact
    # Python-integer path, and so does the cone batch the walk's integer
    # types are handed to; the types and the verdicts must not change.
    import einext.ratlinalg as ratlinalg

    expected = {dim: (enumerate_types(dim), enumeration_report(dim)) for dim in (3, 4, 5)}
    monkeypatch.setattr(ratlinalg, "_ENTRY_CAP", 2)
    monkeypatch.setattr(ratlinalg, "_PRODUCT_CAP", 2)
    for dim, (types, report) in expected.items():
        assert enumerate_types(dim) == types
        low = enumeration_report(dim)
        assert (low.unfiltered, low.cone_filtered) == (report.unfiltered, report.cone_filtered)


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 40), st.integers(1, 62))
@example(4, 12)  # the last level of dim 5 on Python integers, the others on int64
def test_walk_types_do_not_depend_on_the_int64_caps(types_of, entry_bits, product_bits):
    # Low caps send the chunks with large entries or products to Python
    # integers and keep the others on int64; the types must not change.
    import einext.ratlinalg as ratlinalg

    with mock.patch.object(ratlinalg, "_ENTRY_CAP", 2**entry_bits), mock.patch.object(
        ratlinalg, "_PRODUCT_CAP", 2**product_bits
    ):
        for dim in (3, 4, 5):
            assert enumerate_types(dim) == types_of(dim)

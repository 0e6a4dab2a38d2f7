from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cone_bruteforce, cone_simplex
from util import cone_batch


def F(values):
    return [Fraction(v) for v in values]


def decompose(generators, target):
    """One LP as the batch of one: ``(coefficients, witness)``."""
    return cone_batch([(generators, target)])[0][0]


def check_certificate(generators, target, coeffs, witness):
    if coeffs is not None:
        assert all(c >= 0 for c in coeffs)
        total = [Fraction(0)] * len(target)
        for c, g in zip(coeffs, generators):
            total = [a + c * b for a, b in zip(total, g)]
        assert total == list(target)
        return True
    dot_t = sum(w * t for w, t in zip(witness, target))
    assert dot_t > 0
    for g in generators:
        assert sum(w * x for w, x in zip(witness, g)) <= 0
    return False


def test_positive_orthant():
    gens = [F([1, 0]), F([0, 1])]
    coeffs, witness = decompose(gens, F([3, 5]))
    assert check_certificate(gens, F([3, 5]), coeffs, witness)
    assert coeffs == [Fraction(3), Fraction(5)]


def test_infeasible_with_witness():
    gens = [F([1, 0]), F([0, 1])]
    coeffs, witness = decompose(gens, F([-1, 1]))
    assert coeffs is None
    assert not check_certificate(gens, F([-1, 1]), coeffs, witness)


def test_zero_target_and_empty_generators():
    coeffs, witness = decompose([], F([0, 0]))
    assert coeffs == [] and witness is None
    coeffs, witness = decompose([], F([1, -2]))
    assert coeffs is None and witness == F([1, -2])


def test_degenerate_directions():
    # target on a ray spanned twice over
    gens = [F([1, 1]), F([2, 2]), F([-1, 0])]
    coeffs, witness = decompose(gens, F([2, 2]))
    assert check_certificate(gens, F([2, 2]), coeffs, witness)


def test_matches_bruteforce_on_random_instances():
    rng = np.random.default_rng(17)
    agree_feasible = 0
    for _ in range(120):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(0, 6))
        gens = [F(rng.integers(-3, 4, size=n).tolist()) for _ in range(m)]
        target = F(rng.integers(-3, 4, size=n).tolist())
        coeffs, witness = decompose(gens, target)
        feasible = check_certificate(gens, target, coeffs, witness)
        assert feasible == cone_bruteforce(gens, target)
        agree_feasible += feasible
    assert 0 < agree_feasible < 120  # both branches exercised


def test_beale_cycling_instance_terminates():
    # Beale's cycling example (Naval Res. Logist. Quart. 1955) as a cone
    # instance: rows 1-2 are his degenerate constraints, row 3 his bound,
    # and row 4 makes the phase-one reduced costs (minus the column sums)
    # his costs -3/4, 20, -1/2, 6.  With the most negative reduced cost
    # entering, the phase-one simplex returns to its starting basis after
    # six degenerate pivots; with Bland's rule it must terminate.
    gens = [
        F(["1/4", "1/2", 0, 0]),
        F([-8, -12, 0, 0]),
        F([-1, "-1/2", 1, 1]),
        F([9, 3, 0, -18]),
    ]
    target = F([0, 0, 1, 2])
    coeffs, witness = decompose(gens, target)
    assert check_certificate(gens, target, coeffs, witness) == cone_bruteforce(gens, target)


def test_large_rationals_match_bruteforce():
    rng = np.random.default_rng(29)

    def big():
        den = int(rng.integers(10**12 - 10**6, 10**12))
        return Fraction(int(rng.integers(-(10**12), 10**12)), den)

    feasible = 0
    for _ in range(60):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 7))
        gens = [[big() for _ in range(n)] for _ in range(m)]
        target = [big() for _ in range(n)]
        coeffs, witness = decompose(gens, target)
        result = check_certificate(gens, target, coeffs, witness)
        assert result == cone_bruteforce(gens, target)
        feasible += result
    assert 0 < feasible < 60


small_rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))


@st.composite
def cone_instances(draw):
    n = draw(st.integers(1, 4))
    vector = st.lists(small_rationals, min_size=n, max_size=n)
    return draw(st.lists(vector, max_size=6)), draw(vector)


@settings(max_examples=100, deadline=None)
@given(
    cone_instances(),
    st.randoms(use_true_random=False),
    st.lists(st.builds(Fraction, st.integers(1, 7), st.integers(1, 7)), min_size=6, max_size=6),
)
def test_certificate_verifies_and_feasibility_is_invariant(instance, rnd, scales):
    gens, target = instance
    feasible = check_certificate(gens, target, *decompose(gens, target))
    moved = [[s * x for x in g] for s, g in zip(scales, gens)]
    rnd.shuffle(moved)
    assert check_certificate(moved, target, *decompose(moved, target)) == feasible


# ---------------------------------------------------------------------------
# Batches: each LP pivots as it would alone
# ---------------------------------------------------------------------------


@st.composite
def batch_instances(draw, n):
    """An LP of dimension n: free, feasible by construction (often degenerate),
    or with repeated generators; zero to six generators."""
    vector = st.lists(small_rationals, min_size=n, max_size=n)
    gens = draw(st.lists(vector, max_size=6))
    kind = draw(st.sampled_from(["free", "combination", "repeat"]))
    target = draw(vector)
    if kind == "combination":
        weights = draw(st.lists(st.integers(0, 2), min_size=len(gens), max_size=len(gens)))
        target = [sum((w * g[i] for w, g in zip(weights, gens)), Fraction(0)) for i in range(n)]
    elif kind == "repeat" and gens:
        gens = gens + gens[: draw(st.integers(1, len(gens)))]
    return gens, target


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda n: st.lists(batch_instances(n), min_size=1, max_size=8)),
    st.randoms(use_true_random=False),
)
def test_batch_equals_the_per_lp_oracle_in_any_order_and_company(batch, rnd):
    expected = [cone_simplex(gens, target) for gens, target in batch]
    assert cone_batch(batch)[0] == expected
    order = list(range(len(batch)))
    rnd.shuffle(order)
    assert cone_batch([batch[b] for b in order])[0] == [expected[b] for b in order]
    assert [cone_batch([instance])[0][0] for instance in batch] == expected


def random_batch(rng, n, top, size):
    """``size`` LPs of dimension n with integer entries of magnitude below top;
    every other target is a nonnegative combination of its generators."""
    batch = []
    for b in range(size):
        gens = [rng.integers(-top, top, size=n).tolist() for _ in range(int(rng.integers(0, 6)))]
        target = rng.integers(-top, top, size=n).tolist()
        if b % 2:
            weights = rng.integers(0, 3, size=len(gens)).tolist()
            target = [sum(w * g[i] for w, g in zip(weights, gens)) for i in range(n)]
        batch.append((gens, target))
    return batch


def test_python_integers_past_the_int64_bound_beside_small_lps():
    # Entries near 2^40 start on Python integers; entries near 2^28 start on
    # int64 and widen once a pivot's products may pass the bound.  The small
    # LPs sharing the batch pivot as they do alone on int64.
    rng = np.random.default_rng(43)
    for top in (2**40, 2**28):
        small = random_batch(rng, 4, 4, 12)
        large = random_batch(rng, 4, top, 6)
        batch = small[:6] + large + small[6:]
        results, tableaux = cone_batch(batch)
        assert tableaux.rows.dtype == object
        assert results == [cone_simplex(gens, target) for gens, target in batch]
        alone, small_tableaux = cone_batch(small)
        assert small_tableaux.rows.dtype == np.int64
        assert alone == results[:6] + results[12:]
        assert 0 < sum(coeffs is not None for coeffs, _ in results) < len(batch)

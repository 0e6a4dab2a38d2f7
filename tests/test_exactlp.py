from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from einext.exactlp import cone_decompose

from oracles import cone_bruteforce


def F(values):
    return [Fraction(v) for v in values]


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
    coeffs, witness = cone_decompose(gens, F([3, 5]))
    assert check_certificate(gens, F([3, 5]), coeffs, witness)
    assert coeffs == [Fraction(3), Fraction(5)]


def test_infeasible_with_witness():
    gens = [F([1, 0]), F([0, 1])]
    coeffs, witness = cone_decompose(gens, F([-1, 1]))
    assert coeffs is None
    assert not check_certificate(gens, F([-1, 1]), coeffs, witness)


def test_zero_target_and_empty_generators():
    coeffs, witness = cone_decompose([], F([0, 0]))
    assert coeffs == [] and witness is None
    coeffs, witness = cone_decompose([], F([1, -2]))
    assert coeffs is None and witness == F([1, -2])


def test_degenerate_directions():
    # target on a ray spanned twice over
    gens = [F([1, 1]), F([2, 2]), F([-1, 0])]
    coeffs, witness = cone_decompose(gens, F([2, 2]))
    assert check_certificate(gens, F([2, 2]), coeffs, witness)


def test_matches_bruteforce_on_random_instances():
    rng = np.random.default_rng(17)
    agree_feasible = 0
    for _ in range(120):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(0, 6))
        gens = [F(rng.integers(-3, 4, size=n).tolist()) for _ in range(m)]
        target = F(rng.integers(-3, 4, size=n).tolist())
        coeffs, witness = cone_decompose(gens, target)
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
    coeffs, witness = cone_decompose(gens, target)
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
        coeffs, witness = cone_decompose(gens, target)
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
    feasible = check_certificate(gens, target, *cone_decompose(gens, target))
    moved = [[s * x for x in g] for s, g in zip(scales, gens)]
    rnd.shuffle(moved)
    assert check_certificate(moved, target, *cone_decompose(moved, target)) == feasible

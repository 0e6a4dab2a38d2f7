import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from einext.algebra import StructureError, StructureTensor, divergence_residual, is_derivation, make_spec
from einext.catalog import (
    e2,
    entries,
    heisenberg,
    identity_extension,
    lookup,
    product,
    table1,
)
from einext.curvature import ricci_deformation
from einext.spectral import cone_membership
from einext.verifier import DEFAULT_TOL, classify_type_1112, verify_extension

from oracles import admissibility_defects


def test_table1_rows_verify():
    expectations = {1: 0.0, 2: -3.0, 3: -6.0}
    for row, constant in expectations.items():
        entry = table1(row)
        report = verify_extension(entry.spec, 1e-10)
        assert report.einstein
        assert report.einstein_constant == pytest.approx(constant)


@pytest.mark.parametrize("param", [0.0, 0.5, 1.0, 2.0])
def test_table1_row4_family(param):
    entry = table1(4, param)
    report = verify_extension(entry.spec, 1e-10)
    assert report.einstein
    assert report.einstein_constant == pytest.approx(-(1.0 + param * param))
    assert max(report.residuals.values()) <= 1e-10
    assert is_derivation(entry.spec).ok


def test_table1_argument_validation():
    with pytest.raises(ValueError):
        table1(5)
    with pytest.raises(ValueError):
        table1(4)
    with pytest.raises(ValueError):
        table1(2, 1.0)


def test_integer_parameter_rows_are_derivations():
    for entry in (table1(1), table1(2), table1(3), table1(4, 1.0), table1(4, 2.0)):
        assert is_derivation(entry.spec).ok


def test_heisenberg_family():
    for k in range(1, 5):
        entry = heisenberg(k)
        report = verify_extension(entry.spec, 1e-10)
        assert report.einstein
        assert report.einstein_constant == pytest.approx(-(2.0 * k + 4.0))
        assert classify_type_1112(entry.spec).passed
    with pytest.raises(ValueError):
        heisenberg(0)


def test_large_heisenberg_builds_and_verifies_in_small_memory():
    # n = 81 with 40 nonzero constants.  The Jacobi check at construction
    # and the curvature follow the nonzero constants; an n^4 array of
    # float64 alone would take 344 MB.
    tracemalloc.start()
    try:
        entry = heisenberg(40)
        report = verify_extension(entry.spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.einstein and report.einstein_constant == entry.expected_constant
    assert peak < 64 * 2**20
    # n = 201: the constants are stored by their 100 nonzero entries, and the
    # classifier reads two n x n slices; an n^3 array alone would take 65 MB.
    tracemalloc.start()
    try:
        entry = heisenberg(100)
        report = verify_extension(entry.spec)
        passed = classify_type_1112(entry.spec).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.einstein and passed
    assert peak < 16 * 2**20


def test_e2_fixture():
    entry = e2()
    report = verify_extension(entry.spec, 1e-10)
    assert report.einstein
    assert report.einstein_constant == pytest.approx(-3.0)
    assert not is_derivation(entry.spec).ok


def test_identity_extension():
    flat = identity_extension(StructureTensor(3))
    report = verify_extension(flat.spec, 1e-10)
    assert report.einstein and report.einstein_constant == pytest.approx(-3.0)

    curved_flat = identity_extension(e2().spec.algebra)
    report = verify_extension(curved_flat.spec, 1e-10)
    assert report.einstein and report.einstein_constant == pytest.approx(-3.0)
    assert not is_derivation(curved_flat.spec).ok

    with pytest.raises(StructureError):
        identity_extension(StructureTensor(3, {(1, 2, 3): 2.0}, lie=True))


def test_product_flat_blocks():
    a = make_spec(StructureTensor(2), [1, 1])
    b = make_spec(StructureTensor(2), [1, 1])
    combined = product(a, b)
    report = verify_extension(combined, 1e-10)
    assert report.einstein
    assert report.einstein_constant == pytest.approx(-4.0)


def test_product_mismatched_blocks_fail():
    combined = product(heisenberg(1).spec, make_spec(StructureTensor(1), [1]))
    report = verify_extension(combined, 1e-9)
    assert not report.einstein


def test_product_of_hyperbolic_blocks_matches_row4():
    for param in (0.5, 1.0, 2.0):
        curv = np.sqrt(1.0 + param * param)
        plane = make_spec(
            StructureTensor(2, {(1, 2, 2): curv}, lie=True), [0, 0]
        )
        line = make_spec(StructureTensor(1), [curv])
        combined = product(plane, line)
        report = verify_extension(combined, 1e-9)
        table_report = verify_extension(table1(4, param).spec, 1e-10)
        assert report.einstein == table_report.einstein == True
        assert report.einstein_constant == pytest.approx(
            table_report.einstein_constant
        )


PRODUCT_BLOCKS = {
    **{entry.name: entry.spec for entry in entries()},
    "identity-extension-e2": identity_extension(e2().spec.algebra).spec,
    "flat-line": make_spec(StructureTensor(1), [1]),
    "flat-plane": make_spec(StructureTensor(2), [1, 1]),
    "plane-mu122": make_spec(StructureTensor(2, {(1, 2, 2): 1.0}), [0, 0]),
}


def _meets_target(block, target):
    """Zero divergence, vanishing nonzero-exponent classes, and the constant
    class on the given target."""
    classes = ricci_deformation(block)
    return (
        np.abs(divergence_residual(block)).max(initial=0.0) <= DEFAULT_TOL
        and all(np.abs(C).max() <= DEFAULT_TOL for q, C in classes.items() if q != 0)
        and np.abs(classes.get(0, 0.0) - target).max(initial=0.0) <= DEFAULT_TOL
    )


@pytest.mark.parametrize("a, b", itertools.product(PRODUCT_BLOCKS, repeat=2))
def test_product_verifies_exactly_when_each_block_meets_combined_target(a, b):
    # catalog.product: the result verifies exactly when each block meets the
    # Einstein target of the combined deformation.
    spec_a, spec_b = PRODUCT_BLOCKS[a], PRODUCT_BLOCKS[b]
    combined = product(spec_a, spec_b)
    target, n = combined.einstein_target(), spec_a.dim
    blocks_meet = _meets_target(spec_a, target[:n, :n]) and _meets_target(spec_b, target[n:, n:])
    assert verify_extension(combined).einstein == blocks_meet


def test_counterexample_p6_diagnostics():
    # Six eigenvalues summing to zero: cone-feasible but inconsistent.
    p = [-3, -2, -1, 1, 2, 3]
    cert = cone_membership(p)
    assert cert.feasible and cert.verify()
    assert "zero trace" in admissibility_defects(p)


def test_lookup_and_entries():
    assert lookup("table1:3").name == "table1:3"
    assert lookup("table1:4:0.5").expected_constant == pytest.approx(-1.25)
    assert lookup("heisenberg:2").spec.dim == 5
    assert lookup("e2").name == "e2"
    with pytest.raises(KeyError):
        lookup("unknown")
    with pytest.raises(KeyError):
        lookup("table1:nine")
    for entry in entries():
        report = verify_extension(entry.spec, 1e-10)
        assert report.einstein == entry.expected_pass
        assert report.einstein_constant == pytest.approx(entry.expected_constant)


def test_row4_names_keep_their_short_forms():
    assert [table1(4, p).name for p in (1.0, 0.5, 0.0)] == ["table1:4:1", "table1:4:0.5", "table1:4:0"]
    assert table1(4, 0.123456789).name == "table1:4:0.123456789"


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e6, 1e6, allow_nan=False))
def test_row4_name_looks_up_the_same_eigenvalues(p):
    entry = table1(4, p)
    assert lookup(entry.name).spec.spectral == entry.spec.spectral

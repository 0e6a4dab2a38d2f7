import numpy as np
import pytest

from einext.algebra import StructureError, StructureTensor, is_derivation, make_spec
from einext.catalog import (
    counterexample_p6,
    e2,
    entries,
    heisenberg,
    identity_extension,
    lookup,
    product,
    table1,
)
from einext.spectral import cone_membership
from einext.verifier import classify_type_1112, verify_extension

from oracles import admissibility_defects


def test_table1_rows_verify():
    expectations = {1: 0.0, 2: -3.0, 3: -6.0}
    for row, constant in expectations.items():
        entry = table1(row)
        report = entry.verify(1e-10)
        assert report.einstein
        assert report.einstein_constant == pytest.approx(constant)


@pytest.mark.parametrize("param", [0.0, 0.5, 1.0, 2.0])
def test_table1_row4_family(param):
    entry = table1(4, param)
    report = entry.verify(1e-10)
    assert report.einstein
    assert report.einstein_constant == pytest.approx(-(1.0 + param * param))
    assert report.max_residual() <= 1e-10
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
        report = entry.verify(1e-10)
        assert report.einstein
        assert report.einstein_constant == pytest.approx(-(2.0 * k + 4.0))
        assert classify_type_1112(entry.spec).passed
    with pytest.raises(ValueError):
        heisenberg(0)


def test_e2_fixture():
    entry = e2()
    report = entry.verify(1e-10)
    assert report.einstein
    assert report.einstein_constant == pytest.approx(-3.0)
    assert not is_derivation(entry.spec).ok


def test_identity_extension():
    flat = identity_extension(StructureTensor(3))
    report = flat.verify(1e-10)
    assert report.einstein and report.einstein_constant == pytest.approx(-3.0)

    curved_flat = identity_extension(e2().spec.algebra)
    report = curved_flat.verify(1e-10)
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
        table_report = table1(4, param).verify(1e-10)
        assert report.einstein == table_report.einstein == True
        assert report.einstein_constant == pytest.approx(
            table_report.einstein_constant
        )


def test_counterexample_p6_diagnostics():
    p = counterexample_p6()
    cert = cone_membership(p)
    assert cert.feasible and cert.verify()
    assert "zero trace" in admissibility_defects(p.entries)


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
        report = entry.verify(1e-10)
        assert report.einstein == entry.expected_pass
        assert report.einstein_constant == pytest.approx(entry.expected_constant)

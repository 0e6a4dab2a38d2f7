from fractions import Fraction

import pytest

from einext.algebra import StructureTensor, make_spec
from einext.curvature import extension_ricci
from einext.scalars import format_rational, parse_affine, parse_rational


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("5") == Fraction(5)
    assert parse_rational("0.5") == Fraction(1, 2)
    assert parse_rational(0.5) == Fraction(1, 2)
    assert parse_rational(3) == Fraction(3)
    assert parse_rational(Fraction(2, 6)) == Fraction(1, 3)


def test_parse_affine_forms():
    half = Fraction(1, 2)
    assert parse_affine("0+1/2*t") == (0, half)
    assert parse_affine("1/2*t") == (0, half)
    assert parse_affine("-1/2*t") == (0, -half)
    assert parse_affine("t") == (0, 1)
    assert parse_affine("-t") == (0, -1)
    assert parse_affine("1 - 1/2*t") == (1, -half)
    assert parse_affine("2/3") == (Fraction(2, 3), 0)
    assert parse_affine(0.25) == (Fraction(1, 4), 0)
    with pytest.raises(ValueError):
        parse_affine("1+2t")


def test_parse_rational_rejects_garbage():
    with pytest.raises((ValueError, TypeError)):
        parse_rational("x/y")
    with pytest.raises(TypeError):
        parse_rational(None)
    for value in (True, False):
        with pytest.raises(TypeError):
            parse_rational(value)
    for value in (float("inf"), float("-inf"), float("nan"), "inf", "nan"):
        with pytest.raises(ValueError):
            parse_rational(value)


def test_format_rational():
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(-1)) == "-1/1"


def test_affine_evaluation():
    # make_spec substitutes the parameter exactly, whatever form it comes in.
    spec = make_spec(StructureTensor(4), ["1+t", "1/2*t", "-t", "2-1/3*t"], "3/2")
    assert spec.spectral == (Fraction(5, 2), Fraction(3, 4), Fraction(-3, 2), Fraction(3, 2))
    one = StructureTensor(1)
    assert make_spec(one, ["2+3*t"], "1/3").spectral == (3,)
    assert make_spec(one, ["2+3*t"], 0.5).spectral == (Fraction(7, 2),)
    assert make_spec(one, ["-t"], Fraction(1, 7)).spectral == (Fraction(-1, 7),)


def test_affine_json_key():
    # Class keys are the substituted values as "num/den", in increasing order.
    # At t = 1/3, p = (1/6, 1/3, 4/3): the exponents are 5/6 and -1/6, and
    # the divergence sits in row 1, exponent p_1/2.
    mu = StructureTensor(3, {(1, 2, 3): 1.0, (1, 3, 3): 1.0})
    report = extension_ricci(make_spec(mu, ["1/2*t", "t", "1+t"], "1/3")).to_json()
    assert list(report["ric_u"]["classes"]) == ["-5/6", "-1/3", "1/6"]
    assert list(report["extension"]["ric_0i"]) == ["1/12"]

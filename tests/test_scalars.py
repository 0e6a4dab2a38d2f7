import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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
    # The sign of a decimal exponent does not split the form.
    milli = Fraction(1, 1000)
    assert parse_affine("1e-3*t") == (0, milli)
    assert parse_affine("1+1e-3*t") == (1, milli)
    assert parse_affine("-2E-1*t") == (0, Fraction(-1, 5))
    assert parse_affine("1e-3-2*t") == (milli, -2)
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
    for value in ("1/0", " -3 / 0 "):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational(value)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_affine("1/0*t")


def test_decimal_exponent_is_bounded():
    # Every literal float64 can hold still reads: the bound is past 4,300
    # mantissa digits (Python's int limit) plus float64's exponent range.
    assert parse_rational("1e5000") == 10**5000
    assert parse_rational("-2.5E-5000") == Fraction(-5, 2 * 10**5000)
    assert parse_rational("1e+0000001") == 10
    assert float(parse_rational("1" + "0" * 4299 + "e-4600")) == 1e-301  # 4,300 digits
    for text in ("1e5001", "1e-5001", "1e-99999999", " 3E+99_999_999 ", "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="exponent past|Exceeds the limit"):
            parse_rational(text)
    with pytest.raises(ValueError, match=r"^'1e-99999999' has a decimal exponent past \+-5000$"):
        parse_affine("1e-99999999*t")


def test_exact_int_and_fraction_take_the_fast_path():
    half = Fraction(1, 2)
    assert parse_rational(half) is half
    assert type(parse_rational(7)) is Fraction and parse_rational(7) == 7
    assert type(parse_rational(-(10**40))) is Fraction and parse_rational(-(10**40)) == -(10**40)

    class Half(Fraction):
        pass

    # A subclass is no exact type: it is converted to a plain Fraction.
    assert type(parse_rational(Half(1, 2))) is Fraction and parse_rational(Half(1, 2)) == half


def test_bool_and_numpy_scalars_still_take_the_general_path():
    # bool is a subclass of int, and numpy's integers are Rational but not int.
    for value in (True, False, np.bool_(True)):
        with pytest.raises(TypeError):
            parse_rational(value)
    for value in (np.int64(-3), np.int32(5), np.uint8(200), np.int64(2**62)):
        assert type(parse_rational(value)) is Fraction and parse_rational(value) == int(value)


def test_float_reads_as_its_decimal():
    # Not 3602879701896397/36028797018963968, the dyadic value of the float.
    assert parse_rational(0.1) == Fraction(1, 10)
    assert parse_rational(0.1) + parse_rational(0.2) == parse_rational(0.3)
    assert parse_rational(-0.0) == 0 and parse_rational(1e-300) == Fraction(1, 10**300)


@given(st.integers(-(10**15) + 1, 10**15 - 1), st.integers(-300, 293))
def test_decimals_up_to_15_digits_are_exact(digits, exponent):
    # Decimals of at most 15 significant digits lie more than an ulp apart,
    # so the float nearest to one still reads as that decimal.  The exponent
    # range keeps every drawn value a normal float, below 10**308.
    value = Fraction(digits) * Fraction(10) ** exponent
    assert parse_rational(float(value)) == value


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(5e-324)
@example(sys.float_info.min)
@example(sys.float_info.max)
@example(-sys.float_info.max)
def test_every_finite_float_reads_back_as_itself(x):
    # algebra_from_json keeps a finite float as it is instead of reading it
    # exactly, which is the same number.
    assert float(parse_rational(x)) == x


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
    assert make_spec(one, ["1-2.5e-1*t"], "2").spectral == (Fraction(1, 2),)


def test_affine_json_key():
    # Class keys are the substituted values as "num/den", in increasing order.
    # At t = 1/3, p = (1/6, 1/3, 4/3): the exponents are 5/6 and -1/6, and
    # the divergence sits in row 1, exponent p_1/2.
    mu = StructureTensor(3, {(1, 2, 3): 1.0, (1, 3, 3): 1.0})
    report = extension_ricci(make_spec(mu, ["1/2*t", "t", "1+t"], "1/3")).to_json()
    assert list(report["ric_u"]["classes"]) == ["-5/6", "-1/3", "1/6"]
    assert list(report["extension"]["ric_0i"]) == ["1/12"]

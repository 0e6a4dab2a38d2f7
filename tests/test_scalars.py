from fractions import Fraction

import pytest

from einext.scalars import AffineRational, format_rational, parse_rational


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("5") == Fraction(5)
    assert parse_rational("0.5") == Fraction(1, 2)
    assert parse_rational(0.5) == Fraction(1, 2)
    assert parse_rational(3) == Fraction(3)
    assert parse_rational(Fraction(2, 6)) == Fraction(1, 3)
    assert AffineRational.of("0+1/2*t") == AffineRational(Fraction(0), Fraction(1, 2))
    assert AffineRational.of("1/2*t") == AffineRational(Fraction(0), Fraction(1, 2))
    assert AffineRational.of("-1/2*t") == AffineRational(Fraction(0), Fraction(-1, 2))
    assert AffineRational.of("t") == AffineRational.parameter()
    assert AffineRational.of("-t") == -AffineRational.parameter()
    assert AffineRational.of("1 - 1/2*t") == AffineRational(Fraction(1), Fraction(-1, 2))


def test_parse_rational_rejects_garbage():
    with pytest.raises((ValueError, TypeError)):
        parse_rational("x/y")
    with pytest.raises(TypeError):
        parse_rational(None)
    for value in (float("inf"), float("-inf"), float("nan"), "inf", "nan"):
        with pytest.raises(ValueError):
            parse_rational(value)


def test_format_rational():
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(-1)) == "-1/1"


def test_affine_arithmetic():
    t = AffineRational.parameter()
    one = AffineRational.of(1)
    expr = one + t * Fraction(1, 2)
    assert expr.const == 1 and expr.slope == Fraction(1, 2)
    assert (expr - expr).is_zero
    assert (-expr).const == -1
    assert (expr / 2).slope == Fraction(1, 4)
    assert expr != one
    assert AffineRational.of("2/3") == AffineRational(Fraction(2, 3))


def test_affine_equality_is_generic():
    # 1 + 0*t and 1 agree everywhere; t and 1 do not, even though they agree at t=1
    assert AffineRational.of(1) == AffineRational(Fraction(1), Fraction(0))
    assert AffineRational.parameter() != AffineRational.of(1)


def test_affine_evaluation():
    t = AffineRational.parameter()
    expr = AffineRational.of(2) + t * 3
    assert expr.evaluate(0.5) == 3.5
    assert expr.substitute(Fraction(1, 3)) == Fraction(3)
    assert AffineRational.of("7/2").evaluate() == 3.5
    with pytest.raises(ValueError):
        t.evaluate()


def test_affine_json_key():
    t = AffineRational.parameter()
    assert AffineRational.of("3/2").json_key() == "3/2"
    assert (AffineRational.of(1) + t * Fraction(1, 2)).json_key() == "1/1+1/2*t"
    assert (AffineRational.of(0) - t).json_key() == "0/1-1/1*t"


def test_affine_hashable_and_sortable():
    t = AffineRational.parameter()
    values = {AffineRational.of(1), AffineRational.of(1), t}
    assert len(values) == 2
    keys = sorted([t, AffineRational.of(0)], key=lambda q: q.sort_key())
    assert keys[0] == AffineRational.of(0)

"""Exact scalar input: rationals, and affine forms in one free parameter.

Eigenvalues are exact Fractions, so exponents are grouped by exact value,
never by floating-point coincidence.  An eigenvalue may be given as an
affine form ``"a+b*t"`` in one free parameter t; :func:`parse_affine` reads
it, and ``algebra.make_spec`` substitutes the parameter value exactly when
the input is read, so no symbolic t survives past the input.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Union

RationalLike = Union[int, float, str, Fraction]


def parse_rational(value: RationalLike) -> Fraction:
    """Coerce a number or a "num/den" string to an exact Fraction.

    Floats convert exactly (every float is a dyadic rational); strings may
    be integers, decimals, or "num/den".  Non-finite values and booleans
    are refused.
    """
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num.strip()), int(den.strip()))
        return Fraction(text)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{value!r} is not a finite rational number")
        return Fraction(value)
    if isinstance(value, Rational) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def format_rational(q: Fraction) -> str:
    """Render a Fraction as "num/den" (denominator always explicit)."""
    return f"{q.numerator}/{q.denominator}"


def parse_affine(value: RationalLike) -> tuple[Fraction, Fraction]:
    """(const, slope) of an eigenvalue entry ``const + slope * t``.

    A string ending in t reads as "[const]+slope*t", "[const]-slope*t",
    "[const]+t" or "[const]-t" with rational parts, a missing constant
    being zero; anything else is a rational with slope 0.
    """
    if not (isinstance(value, str) and value.rstrip().endswith("t")):
        return parse_rational(value), Fraction(0)
    body = value.strip()[:-1].rstrip()
    starred = body.endswith("*")
    if starred:
        body = body[:-1].rstrip()
    split = max(body.rfind("+", 1), body.rfind("-", 1), 0)
    const = parse_rational(body[:split]) if split else Fraction(0)
    coeff = body[split:]
    sign = -1 if coeff.startswith("-") else 1
    coeff = coeff[1:].strip() if coeff[:1] in ("+", "-") else coeff.strip()
    if starred:
        slope = parse_rational(coeff)
    elif not coeff:
        slope = Fraction(1)
    else:
        raise ValueError(f"cannot parse parametric value {value!r}")
    return const, sign * slope

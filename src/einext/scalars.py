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
from typing import Sequence, Union

RationalLike = Union[int, float, str, Fraction]


def parse_rational(value: RationalLike) -> Fraction:
    """Coerce a number or a "num/den" string to an exact Fraction.

    A float reads as the decimal of its shortest repr, so 0.1 is 1/10 and
    not the dyadic rational nearest to it; that decimal rounds back to the
    same float.  Strings may be integers, decimals, or "num/den".
    Non-finite values, booleans and a zero denominator are refused.
    """
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, den = (int(part.strip()) for part in text.split("/", 1))
            if den == 0:
                raise ValueError(f"{value!r} has a zero denominator")
            return Fraction(num, den)
        return Fraction(text)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{value!r} is not a finite rational number")
        return Fraction(repr(float(value)))  # float(): numpy 2 spells np.float64 in its repr
    if isinstance(value, Rational) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def scaled_to_integers(values: Sequence[Union[int, Fraction]]) -> tuple[list[int], int]:
    """The ints or Fractions times the lcm s > 0 of their denominators, as ints, and s."""
    # A list, not a generator: CPython builds the argument tuple of *generator
    # by resizing, which parks one tuple per call in the free list of its
    # final size, up to 2000 a size, and peak RSS grows with the calls.
    s = math.lcm(*[x.denominator for x in values])
    return [x.numerator * (s // x.denominator) for x in values], s


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
    # The last sign past the first character that is not a decimal exponent's, as in "1e-3".
    split = max((m for m in range(1, len(body)) if body[m] in "+-" and body[m - 1] not in "eE"), default=0)
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

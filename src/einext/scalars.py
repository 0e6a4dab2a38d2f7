"""Exact scalar arithmetic: rationals and affine forms in one free parameter.

Eigenvalues and exponential exponents are kept as exact objects so that
terms are grouped by identity of the exponent, never by floating-point
coincidence.  An :class:`AffineRational` represents ``const + slope * t``
for a single formal parameter ``t``; purely rational quantities have
``slope == 0``.  At most one free parameter is supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Union

RationalLike = Union[int, float, str, Fraction]


def parse_rational(value: RationalLike) -> Fraction:
    """Coerce a number or a "num/den" string to an exact Fraction.

    Floats convert exactly (every float is a dyadic rational); strings may
    be integers, decimals, or "num/den".  Non-finite values are refused.
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
    if isinstance(value, Rational):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def format_rational(q: Fraction) -> str:
    """Render a Fraction as "num/den" (denominator always explicit)."""
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class AffineRational:
    """Exact value ``const + slope * t`` with rational coefficients.

    Two forms compare equal only when they agree for every value of t,
    which is exactly the grouping rule needed for exponent bookkeeping
    with one symbolic eigenvalue parameter.
    """

    const: Fraction
    slope: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "const", Fraction(self.const))
        object.__setattr__(self, "slope", Fraction(self.slope))

    @staticmethod
    def of(value: Union["AffineRational", RationalLike]) -> "AffineRational":
        if isinstance(value, AffineRational):
            return value
        if isinstance(value, str) and value.rstrip().endswith("t"):
            return AffineRational._parse_parametric(value)
        return AffineRational(parse_rational(value))

    @staticmethod
    def _parse_parametric(text: str) -> "AffineRational":
        """Parse "[const]+slope*t", "[const]-slope*t" or "[const]+t" / "[const]-t"
        with rational parts; a missing constant is zero."""
        body = text.strip()[:-1].rstrip()
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
            raise ValueError(f"cannot parse parametric value {text!r}")
        return AffineRational(const, sign * slope)

    @staticmethod
    def zero() -> "AffineRational":
        return AffineRational(Fraction(0))

    @staticmethod
    def parameter() -> "AffineRational":
        """The bare formal parameter t."""
        return AffineRational(Fraction(0), Fraction(1))

    @property
    def is_zero(self) -> bool:
        return self.const == 0 and self.slope == 0

    @property
    def is_constant(self) -> bool:
        return self.slope == 0

    def __add__(self, other: "AffineRational") -> "AffineRational":
        other = AffineRational.of(other)
        return AffineRational(self.const + other.const, self.slope + other.slope)

    def __sub__(self, other: "AffineRational") -> "AffineRational":
        other = AffineRational.of(other)
        return AffineRational(self.const - other.const, self.slope - other.slope)

    def __neg__(self) -> "AffineRational":
        return AffineRational(-self.const, -self.slope)

    def __mul__(self, factor: RationalLike) -> "AffineRational":
        f = parse_rational(factor)
        return AffineRational(self.const * f, self.slope * f)

    __rmul__ = __mul__

    def __truediv__(self, factor: RationalLike) -> "AffineRational":
        f = parse_rational(factor)
        return AffineRational(self.const / f, self.slope / f)

    def sort_key(self) -> tuple:
        return (self.const, self.slope)

    def substitute(self, param: Fraction) -> Fraction:
        """Exact value at a rational parameter."""
        return self.const + self.slope * Fraction(param)

    def evaluate(self, param: float | None = None) -> float:
        """Numeric value; a parameter is required when slope != 0."""
        if self.slope == 0:
            return float(self.const)
        if param is None:
            raise ValueError("form depends on the free parameter but no value was given")
        return float(self.const + self.slope * Fraction(param))

    def json_key(self) -> str:
        """Stable string key: "num/den", with "+num/den*t" when parametric."""
        text = format_rational(self.const)
        if self.slope != 0:
            sign = "+" if self.slope > 0 else "-"
            text += f"{sign}{format_rational(abs(self.slope))}*t"
        return text

    def __str__(self) -> str:
        if self.slope == 0:
            q = self.const
            return str(q.numerator) if q.denominator == 1 else format_rational(q)
        return self.json_key()

"""Exact group law on short Weierstrass curves y^2 = x^3 + b x + c over Q.

Coordinates are `fractions.Fraction`, which keeps every value in lowest
terms with a positive denominator, so point equality is plain structural
equality and nothing is ever rounded.  `Fraction` is kept at the API
boundary only: the on-curve test and the chord-tangent formulas work on
the integer numerators and denominators, and each sum builds just its two
result coordinates as `Fraction`s.  All operations are pure; Curve and
Point are immutable and safe to share between threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import PointNotOnCurve, SingularCurve


@dataclass(frozen=True)
class Point:
    """Affine rational point, or the point at infinity when both fields are None."""

    x: Fraction | None
    y: Fraction | None

    def __post_init__(self):
        if (self.x is None) != (self.y is None):
            raise ValueError("affine points need both coordinates")
        if self.x is not None:
            if type(self.x) is not Fraction:
                object.__setattr__(self, "x", Fraction(self.x))
            if type(self.y) is not Fraction:
                object.__setattr__(self, "y", Fraction(self.y))

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self) -> str:
        if self.is_infinity:
            return "Point(O)"
        return f"Point({self.x}, {self.y})"


INFINITY = Point(None, None)


@dataclass(frozen=True)
class Curve:
    """y^2 = x^3 + b x + c with integer coefficients and nonzero discriminant."""

    b: int
    c: int

    def __post_init__(self):
        if not isinstance(self.b, int) or not isinstance(self.c, int):
            raise TypeError("curve coefficients must be integers")
        if 4 * self.b**3 + 27 * self.c**2 == 0:
            raise SingularCurve(f"4b^3 + 27c^2 = 0 for b={self.b}, c={self.c}")


def discriminant(curve: Curve) -> int:
    """Delta = -16 (4 b^3 + 27 c^2); its prime divisors are the bad primes."""
    return -16 * (4 * curve.b**3 + 27 * curve.c**2)


def is_on_curve(curve: Curve, pt: Point) -> bool:
    """y^2 = x^3 + bx + c, cleared of denominators: with x = xn/xd and
    y = yn/yd, yn^2 xd^3 = (xn^3 + b xn xd^2 + c xd^3) yd^2."""
    if pt.is_infinity:
        return True
    xn, xd = pt.x.numerator, pt.x.denominator
    yn, yd = pt.y.numerator, pt.y.denominator
    xd2 = xd * xd
    return yn * yn * xd2 * xd == (xn * xn * xn + curve.b * xn * xd2 + curve.c * xd2 * xd) * yd * yd


def _require_on_curve(curve: Curve, pt: Point) -> None:
    if not is_on_curve(curve, pt):
        raise PointNotOnCurve(f"{pt} does not satisfy y^2 = x^3 + {curve.b}x + {curve.c}")


def negate(curve: Curve, pt: Point) -> Point:
    _require_on_curve(curve, pt)
    if pt.is_infinity:
        return INFINITY
    return Point(pt.x, -pt.y)


def _add_raw(curve: Curve, p: Point, q: Point) -> Point:
    """Chord-tangent addition without membership checks (inputs trusted)."""
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    x1n, x1d, y1n, y1d = p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator
    x2n, x2d, y2n, y2d = q.x.numerator, q.x.denominator, q.y.numerator, q.y.denominator
    if x1n == x2n and x1d == x2d:
        if y1n == -y2n and y1d == y2d:
            return INFINITY
        # p == q with nonzero y: tangent slope (3x^2 + b) / (2y)
        sn = (3 * x1n * x1n + curve.b * x1d * x1d) * y1d
        sd = 2 * y1n * x1d * x1d
    else:
        # chord slope (y2 - y1) / (x2 - x1)
        sn = (y2n * y1d - y1n * y2d) * x1d * x2d
        sd = (x2n * x1d - x1n * x2d) * y1d * y2d
    g = gcd(sn, sd)
    sn, sd = sn // g, sd // g
    # x3 = slope^2 - x1 - x2
    x3 = Fraction(sn * sn * x1d * x2d - sd * sd * (x1n * x2d + x2n * x1d), sd * sd * x1d * x2d)
    x3n, x3d = x3.numerator, x3.denominator
    # y3 = slope (x1 - x3) - y1
    y3 = Fraction(
        sn * (x1n * x3d - x3n * x1d) * y1d - y1n * sd * x1d * x3d, sd * x1d * x3d * y1d
    )
    return Point(x3, y3)


def add(curve: Curve, p: Point, q: Point) -> Point:
    """p + q under the chord-tangent group law; O is the identity."""
    _require_on_curve(curve, p)
    _require_on_curve(curve, q)
    return _add_raw(curve, p, q)


def double(curve: Curve, p: Point) -> Point:
    """2p via the tangent line; returns O when y = 0 (2-torsion)."""
    _require_on_curve(curve, p)
    if p.is_infinity or p.y == 0:
        return INFINITY
    return _add_raw(curve, p, p)


def double_via_duplication(curve: Curve, p: Point) -> Point:
    """2p from the duplication formula, an independent route to double().

        x' = ((x^2 - b)^2 - 8 c x) / (4 y^2)
        y' = -y - (3x^2 + b)/(2y) * (x' - x)

    Used as a cross-check oracle: it must agree with the tangent-line route
    on every point with y != 0.
    """
    _require_on_curve(curve, p)
    if p.is_infinity or p.y == 0:
        return INFINITY
    x, y = p.x, p.y
    x2 = ((x * x - curve.b) ** 2 - 8 * curve.c * x) / (4 * y * y)
    y2 = -y - (3 * x * x + curve.b) / (2 * y) * (x2 - x)
    return Point(x2, y2)


def scalar_mul(curve: Curve, n: int, p: Point) -> Point:
    """n-fold group sum by double-and-add on |n|, negated when n < 0."""
    _require_on_curve(curve, p)
    if n < 0:
        return _scalar_mul_raw(curve, -n, Point(p.x, -p.y) if not p.is_infinity else p)
    return _scalar_mul_raw(curve, n, p)


def _scalar_mul_raw(curve: Curve, n: int, p: Point) -> Point:
    result = INFINITY
    addend = p
    while n:
        if n & 1:
            result = _add_raw(curve, result, addend)
        addend = _add_raw(curve, addend, addend)
        n >>= 1
    return result

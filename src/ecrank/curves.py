"""Exact group law on short Weierstrass curves y^2 = x^3 + b x + c over Q.

Coordinates are `fractions.Fraction`, which keeps every value in lowest
terms with a positive denominator, so point equality is plain structural
equality and nothing is ever rounded.  `Fraction` is kept at the API
boundary only: the on-curve test and the chord-tangent formulas work on
the integer numerators and denominators, and each sum builds just its two
result coordinates as `Fraction`s.  All operations are pure.

Value is the base of every ecrank value type, here and in the modules
that import this one.  A value lists its two or more fields, in order, as
`__slots__` and sets each once, in its `__init__`, through init_field;
any later assignment or deletion raises AttributeError.  Values compare
by exact type and fields, hash as their field tuple and rebuild through
their constructor under copy and pickle, so they are safe to share
between threads and processes.  `value._replace(name=new, ...)` is the
one way to derive a value with some fields changed: it too rebuilds
through the constructor, so the constructor's checks run again.  The
class statements are plain Python: nothing is generated or compiled when
ecrank is imported.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import attrgetter

from .errors import PointNotOnCurve, SingularCurve

# The one way a value's __init__ sets a field: Value.__setattr__ refuses.
init_field = object.__setattr__


class Value:
    """Immutable value with structural equality; see the module docstring."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # with two or more names, attrgetter returns the field tuple
        cls._astuple = staticmethod(attrgetter(*cls.__slots__))
        cls._field_index = {name: i for i, name in enumerate(cls.__slots__)}

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple(self) == other._astuple(other)

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._astuple(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__qualname__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__qualname__}")

    def __reduce__(self):
        return type(self), self._astuple(self)

    def _replace(self, **changes):
        """A copy with the named fields changed, built through the constructor;
        an unknown field name raises TypeError."""
        fields = list(self._astuple(self))
        for name, value in changes.items():
            try:
                fields[self._field_index[name]] = value
            except KeyError:
                raise TypeError(f"{type(self).__qualname__} has no field {name!r}") from None
        return type(self)(*fields)


class Point(Value):
    """Affine rational point, or the point at infinity when both fields are None."""

    __slots__ = ("x", "y")

    def __init__(self, x: Fraction | None, y: Fraction | None):
        if (x is None) != (y is None):
            raise ValueError("affine points need both coordinates")
        if x is not None:
            if type(x) is not Fraction:
                x = Fraction(x)
            if type(y) is not Fraction:
                y = Fraction(y)
        init_field(self, "x", x)
        init_field(self, "y", y)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self) -> str:
        if self.is_infinity:
            return "Point(O)"
        return f"Point({self.x}, {self.y})"


INFINITY = Point(None, None)


class Curve(Value):
    """y^2 = x^3 + b x + c with integer coefficients and nonzero discriminant."""

    __slots__ = ("b", "c")

    def __init__(self, b: int, c: int):
        if not isinstance(b, int) or not isinstance(c, int):
            raise TypeError("curve coefficients must be integers")
        if 4 * b**3 + 27 * c**2 == 0:
            raise SingularCurve(f"4b^3 + 27c^2 = 0 for b={b}, c={c}")
        init_field(self, "b", b)
        init_field(self, "c", c)


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

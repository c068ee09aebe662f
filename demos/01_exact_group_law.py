#!/usr/bin/env python3
"""Exact chord-tangent arithmetic, no floating point anywhere.

Builds the curve y^2 = x^3 - 4x + 53361 (the family member with m = 2 and
pqr = 3*7*11 = 231), walks through additions and doublings, and shows that
the group law keeps producing exact rational points whose coordinates can
be rechecked against the curve equation by pure integer arithmetic.
"""
from ecrank import (
    INFINITY,
    Curve,
    Point,
    add,
    discriminant,
    double,
    double_via_duplication,
    is_on_curve,
    negate,
    scalar_mul,
)

curve = Curve(-4, 53361)
print("curve: y^2 = x^3 - 4x + 53361")
print("discriminant:", discriminant(curve))
print()

a = Point(0, 231)
b = Point(2, 231)
print("two evident integral points:", a, b)
print("on curve:", is_on_curve(curve, a), is_on_curve(curve, b))
print()

s = add(curve, a, b)
print("their sum lies at the third intersection of the horizontal chord:")
print("  a + b =", s)
print()

print("doubling produces honest rationals; nothing is rounded:")
d = double(curve, b)
print("  2b =", d)
print("  is_on_curve(2b):", is_on_curve(curve, d))
print("  the same value from the duplication formula:", double_via_duplication(curve, b) == d)
print()

print("identity and inverses behave like a real abelian group:")
print("  a + O =", add(curve, a, INFINITY))
print("  a + (-a) =", add(curve, a, negate(curve, a)))
print()

print("coordinates grow quadratically in the multiple but stay exact:")
for n in (1, 2, 4, 8):
    p = scalar_mul(curve, n, b)
    digits = len(str(p.x.numerator))
    print(f"  [{n}]b: numerator of x has {digits} digit(s)")
p8 = scalar_mul(curve, 8, b)
print("  is_on_curve([8]b):", is_on_curve(curve, p8))
print()

print("associativity holds exactly, even with the big coordinates:")
lhs = add(curve, add(curve, s, d), p8)
rhs = add(curve, s, add(curve, d, p8))
print("  ((a+b) + 2b) + 8b == (a+b) + (2b + 8b):", lhs == rhs)

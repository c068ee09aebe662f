"""Dense integer polynomials and exact root extraction.

Coefficient lists are little-endian: coeffs[i] is the coefficient of x^i.

Integer roots are found by a factorization-free method: reduce the
squarefree part modulo a prime where all its roots are simple, Hensel-lift
every root past twice the Cauchy root bound, and verify candidates exactly.
This stays fast even when the constant term is a hundred-digit number with
no small factors, which defeats divisor-enumeration approaches.  Rational
roots reduce to the integer case through the monic transform z = lead * x.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .arith import primes_from, small_primes


def normalize(coeffs) -> list[int]:
    """Drop trailing zero coefficients (highest degrees)."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def degree(coeffs) -> int:
    cs = normalize(coeffs)
    return len(cs) - 1 if cs else -1


def evaluate(coeffs, x):
    """Horner evaluation; exact for int and Fraction arguments."""
    acc = 0
    for c in reversed(list(coeffs)):
        acc = acc * x + c
    return acc


def evaluate_mod(coeffs, x: int, mod: int) -> int:
    """Horner evaluation mod `mod`, keeping intermediates bounded."""
    acc = 0
    for c in reversed(list(coeffs)):
        acc = (acc * x + c) % mod
    return acc


def add(a, b) -> list[int]:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def mul(a, b) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def scale(a, k) -> list[int]:
    return [k * x for x in a]


def derivative(coeffs) -> list[int]:
    return [i * c for i, c in enumerate(coeffs)][1:]


def _divmod(a, b) -> tuple[list, list]:
    """Quotient and normalized remainder of polynomial long division over Q.

    Coefficients may be int or Fraction; dividing by the leading
    coefficient as a Fraction keeps every step exact.
    """
    rem = normalize(a)
    den = normalize(b)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    lead, n = Fraction(den[-1]), len(den)
    quot = [0] * max(len(rem) - n + 1, 0)
    for k in reversed(range(len(quot))):
        f = rem[k + n - 1] / lead
        if f:
            quot[k] = f
            for i, d in enumerate(den):
                rem[k + i] -= f * d
    return quot, normalize(rem)


def divide_exact(a, b) -> list[int]:
    """Quotient of integer polynomials when the division is exact.

    Raises ValueError on a nonzero remainder or non-integer quotient; used
    where an algebraic identity guarantees divisibility.
    """
    quot, rem = _divmod(a, b)
    if rem or any(c.denominator != 1 for c in quot):
        raise ValueError("division is not exact")
    return [int(c) for c in quot]


def content(coeffs) -> int:
    g = 0
    for c in coeffs:
        g = gcd(g, c)
    return g


def primitive_part(coeffs) -> list[int]:
    """Divide out the content; leading coefficient made positive."""
    cs = normalize(coeffs)
    if not cs:
        return cs
    g = content(cs)
    cs = [c // g for c in cs]
    if cs[-1] < 0:
        cs = [-c for c in cs]
    return cs


def squarefree_part(coeffs) -> list[int]:
    """Radical of an integer polynomial: same roots, all simple.

    Computed as P / gcd(P, P') with exact rational arithmetic; degrees here
    never exceed a few dozen, so coefficient growth is harmless.
    """
    cs = normalize(coeffs)
    if len(cs) <= 2:
        return cs
    a, b = cs, derivative(cs)
    while b:
        a, b = b, _divmod(a, b)[1]
    if len(a) <= 1:
        return primitive_part(cs)
    quot, _ = _divmod(cs, a)
    denom = lcm(*(c.denominator for c in quot))
    return primitive_part([int(c * denom) for c in quot])


def integer_roots(coeffs) -> list[int]:
    """All integer roots of a nonzero integer polynomial, sorted."""
    cs = normalize(coeffs)
    if not cs:
        raise ValueError("the zero polynomial has every root")
    roots: set[int] = set()
    k = 0
    while cs[k] == 0:
        k += 1
    if k:
        roots.add(0)
        cs = cs[k:]
    if len(cs) == 1:
        return sorted(roots)
    if len(cs) == 2:
        if cs[0] % cs[1] == 0:
            roots.add(-cs[0] // cs[1])
        return sorted(roots)

    sf = squarefree_part(cs)
    dsf = derivative(sf)
    lead = abs(sf[-1])
    bound = 2 + max(abs(c) for c in sf[:-1]) // lead  # Cauchy bound, rounded up

    def candidate_primes():
        for p in small_primes():
            if p > 100:
                yield p
        yield from primes_from(1 << 16)

    for p in candidate_primes():
        if lead % p == 0:
            continue
        residues = [r for r in range(p) if evaluate_mod(sf, r, p) == 0]
        if any(evaluate_mod(dsf, r, p) == 0 for r in residues):
            continue  # repeated root mod p; disc(sf) kills only finitely many p
        if not residues:
            return sorted(roots)
        modulus = p
        while modulus <= 2 * bound:
            modulus *= modulus
            residues = [
                (r - evaluate_mod(sf, r, modulus) * pow(evaluate_mod(dsf, r, modulus), -1, modulus))
                % modulus
                for r in residues
            ]
        for r in residues:
            x = r if r <= modulus // 2 else r - modulus
            if evaluate(cs, x) == 0:
                roots.add(x)
        return sorted(roots)
    raise AssertionError("unreachable: prime stream is infinite")


def rational_roots(coeffs) -> list[Fraction]:
    """All rational roots of a nonzero integer polynomial, sorted.

    Any root u/v in lowest terms has v | lead, so z = lead * x turns the
    problem into integer roots of a monic polynomial.
    """
    cs = normalize(coeffs)
    if not cs:
        raise ValueError("the zero polynomial has every root")
    an = cs[-1]
    d = len(cs) - 1
    monic = [cs[i] * an ** (d - 1 - i) for i in range(d)] + [1]
    roots = [Fraction(z, an) for z in integer_roots(monic)]
    return sorted(x for x in roots if evaluate(cs, x) == 0)

"""Dense integer polynomials and exact root extraction.

Coefficient lists are little-endian: coeffs[i] is the coefficient of x^i.

Everything runs in integer arithmetic; `Fraction` appears only as the
type of the rational roots handed back.  Integer roots are found by a
factorization-free method: find the roots of P modulo the smallest prime
from 3 up where they are all simple, Hensel-lift each past twice the Cauchy
root bound, and verify candidates exactly.  Lifting starts only after P
has shown a root mod every prime in _NO_ROOT_PRIMES: an integer root is a
root mod every prime, so one prime with no root ends the search.  The
radical P / gcd(P, P'), with the gcd from a primitive PRS over Z, is taken
only when every prime below _RADICAL_AFTER shows a repeated root of P, as
a repeated root over Q always does.  This stays fast even when the constant
term is a hundred-digit number with no small factors, which defeats
divisor-enumeration approaches.  Rational roots reduce to the integer case
through the monic transform z = lead * x, and each is checked exactly on
the homogenized polynomial.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import takewhile
from math import gcd

from .arith import primes_from

# integer_roots lifts the roots of its input itself when some odd prime
# below this one shows them all simple, and takes the radical only if none does.
_RADICAL_AFTER = 50

# An integer root is a root mod every prime, so integer_roots returns at once
# when the polynomial has no root mod one of these, before any Hensel lifting.
_NO_ROOT_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


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


def divide_exact(a, b) -> list[int]:
    """Quotient of integer polynomials when the division is exact.

    Long division over Z: each step divides the top coefficient by lead(b).
    Raises ValueError on a nonzero remainder or a non-integer quotient.  By
    Gauss's lemma a primitive divisor of an integer polynomial always
    divides it over Z.
    """
    rem = normalize(a)
    den = normalize(b)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    lead, n = den[-1], len(den)
    quot = [0] * max(len(rem) - n + 1, 0)
    for k in reversed(range(len(quot))):
        f, r = divmod(rem[k + n - 1], lead)
        if r:
            raise ValueError("division is not exact")
        if f:
            quot[k] = f
            for i, d in enumerate(den):
                rem[k + i] -= f * d
    if any(rem):
        raise ValueError("division is not exact")
    return quot


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


def _primitive_prem(a: list[int], b: list[int]) -> list[int]:
    """Primitive part of a pseudo-remainder of a by b (b normalized, nonzero).

    Each elimination step scales the running remainder by lead(b)/g and
    subtracts (top/g) * x^k * b, with g = gcd(lead(b), top), so the result
    is a nonzero integer multiple of the remainder over Q.
    """
    rem = list(a)
    lead, n = b[-1], len(b)
    while len(rem) >= n:
        top = rem.pop()
        if top:
            g = gcd(lead, top)
            s, t = lead // g, top // g
            k = len(rem) - n + 1
            if s != 1:
                rem = [s * c for c in rem]
            for i in range(n - 1):
                rem[k + i] -= t * b[i]
    return primitive_part(rem)


def squarefree_part(coeffs) -> list[int]:
    """Radical of an integer polynomial: same roots, all simple.

    P / gcd(P, P') in integer arithmetic.  The gcd comes from a primitive
    PRS over Z: pseudo-remainder, then primitive part, at each step, which
    gives the smallest coefficients of any PRS.  The gcd is primitive, so
    by Gauss's lemma it divides P exactly over Z.
    """
    cs = normalize(coeffs)
    if len(cs) <= 2:
        return cs
    a, b = primitive_part(cs), primitive_part(derivative(cs))
    while b:
        a, b = b, _primitive_prem(a, b)
    if len(a) <= 1:
        return primitive_part(cs)
    return primitive_part(divide_exact(cs, a))


def _roots_mod(coeffs, p: int) -> list[int]:
    """Residues r in [0, p) with coeffs(r) = 0 (mod p): one Horner pass
    over all residues at once, on coefficients reduced mod p."""
    reduced = [c % p for c in coeffs]
    values = [reduced[-1]] * p
    for c in reversed(reduced[:-1]):
        values = [(v * r + c) % p for r, v in enumerate(values)]
    return [r for r, v in enumerate(values) if v == 0]


def _has_root_mod(coeffs, p: int) -> bool:
    """Whether coeffs has a root mod p: Horner at one residue after
    another, stopping at the first root."""
    reduced = [c % p for c in reversed(coeffs)]
    for r in range(p):
        acc = 0
        for c in reduced:
            acc = (acc * r + c) % p
        if not acc:
            return True
    return False


def _simple_roots_mod(coeffs, primes):
    """(p, residues) for the first p in `primes` where every root of coeffs
    mod p is simple, or None when each p shows a repeated root."""
    dcs = derivative(coeffs)
    for p in primes:
        residues = _roots_mod(coeffs, p)
        if all(evaluate_mod(dcs, r, p) for r in residues):
            return p, residues
    return None


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

    # A root that is simple mod p lifts to at most one integer root, so cs
    # itself serves at the first p where all its roots are simple.  A
    # repeated root over Q stays repeated mod every p; only then is the
    # radical worth its gcd, and its roots are simple mod every p that does
    # not divide its discriminant.  A prime dividing lead serves too: a
    # simple root mod p lifts uniquely whatever lead is.
    poly = cs
    found = _simple_roots_mod(cs, takewhile(lambda p: p < _RADICAL_AFTER, primes_from(3)))
    if found is None:
        poly = squarefree_part(cs)
        found = _simple_roots_mod(poly, primes_from(3))  # the stream is infinite
    p, residues = found
    if not residues or any(q > p and not _has_root_mod(poly, q) for q in _NO_ROOT_PRIMES):
        return sorted(roots)
    dpoly = derivative(poly)
    bound = 2 + max(abs(c) for c in poly[:-1]) // abs(poly[-1])  # Cauchy bound, rounded up
    modulus = p
    while modulus <= 2 * bound:
        modulus *= modulus
        residues = [
            (r - evaluate_mod(poly, r, modulus) * pow(evaluate_mod(dpoly, r, modulus), -1, modulus))
            % modulus
            for r in residues
        ]
    for r in residues:
        x = r if r <= modulus // 2 else r - modulus
        if evaluate(cs, x) == 0:
            roots.add(x)
    return sorted(roots)


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
    return sorted(x for x in roots if _vanishes_at(cs, x.numerator, x.denominator))


def _vanishes_at(coeffs, u: int, v: int) -> bool:
    """coeffs(u/v) == 0, tested as sum c_i u^i v^(d-i) == 0 in integers."""
    acc, vk = 0, 1
    for c in reversed(coeffs):
        acc = acc * u + c * vk
        vk *= v
    return acc == 0

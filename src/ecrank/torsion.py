"""Torsion certification.  A record's verdict rests on routes 1 and 2,
beside the family congruences that family.cite_obstructions cites.

1. Reduction bound: the torsion group injects into E(F_ell) for every odd
   prime ell of good reduction, so its order divides the gcd of the counts.
2. Nagell-Lutz enumeration: rational torsion points on an integral model
   are integral with y = 0 or y^2 | Delta; each candidate is order-tested
   up to 12, the largest order a rational point can have.
3. Division polynomials, a library cross-check that the tests compare with
   routes 1 and 2 (building a record never runs psi_3, psi_5 or psi_7): a
   rational point of exact order n has integral x-coordinate that is a
   root of psi_n, so "psi_n has no integer root" certifies that no order-n
   point exists.  Orders 2, 3, 5, 7 are the only prime orders a rational
   torsion point can have, so clearing all four already forces the group
   to be trivial.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import gcd

from . import polys
from .arith import divisors, square_part_root
from .curves import INFINITY, Curve, Point, _add_raw, discriminant, scalar_mul
from .errors import InconsistentCertificate, UnsupportedOrder
from .reduction import count_points, good_odd_primes, reduce_curve

# A rational point of finite order has order at most 12, and the possible
# group orders are 1..10, 12 and 16 (the last from the Z/2 x Z/8 shape).
MAX_POINT_ORDER = 12
ADMISSIBLE_GROUP_ORDERS = frozenset({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16})

SUPPORTED_ORDERS = (2, 3, 5, 7)

# Residue sieve of the Nagell-Lutz loop.  If x^3 + bx + c = y^2 has an
# integer root, y^2 mod n is a value of the cubic mod every n; a y whose
# square misses one value table needs no root extraction.  27, 5, 7 and 16
# strike the most y per residue on the family grid.
_CANDIDATE_MODULI = (27, 5, 7, 16, 11, 13, 17, 19, 23)


# One value set per (n, b mod n, c mod n): at most 2,528, the sum of n^2.
@cache
def _cubic_values(n: int, bn: int, cn: int) -> frozenset[int]:
    """The values of x^3 + bn x + cn mod n."""
    return frozenset([(x * x * x + bn * x + cn) % n for x in range(n)])


def torsion_order_bound(curve: Curve, num_primes: int) -> tuple[int, list[tuple[int, int]]]:
    """gcd of #E(F_ell) over the first `num_primes` odd primes of good
    reduction, with per-prime evidence.  The torsion order divides it."""
    if num_primes < 1:
        raise ValueError("num_primes must be at least 1")
    bound = 0
    evidence = []
    for ell in good_odd_primes(curve, num_primes):
        n = count_points(reduce_curve(curve, ell))
        evidence.append((ell, n))
        bound = gcd(bound, n)
    return bound, evidence


# ---------------------------------------------------------------------------
# Division polynomials
# ---------------------------------------------------------------------------


def division_polynomial(curve: Curve, n: int) -> list[int]:
    """Integer polynomial in x whose roots are the x-coordinates of the
    nontrivial n-torsion.

    n = 2 returns f = x^3 + bx + c (2-torsion is exactly y = 0); n in
    {3, 5, 7} returns psi_n in closed form.  With psi_4 = 4y g4 and every
    y^2 replaced by f, the recursion psi_{2k+1} = psi_{k+2} psi_k^3 -
    psi_{k-1} psi_{k+1}^3 gives

        psi_5 = 32 g4 f^2 - psi_3^3
        psi_7 = psi_5 psi_3^3 - 128 g4^3 f^2

    Other orders are out of scope: combined with the reduction bound they
    are never needed to pin down a rational torsion group.
    """
    if n not in SUPPORTED_ORDERS:
        raise UnsupportedOrder(f"order {n} not supported (expected one of {SUPPORTED_ORDERS})")
    b, c = curve.b, curve.c
    f = [c, b, 0, 1]
    if n == 2:
        return f
    psi3 = [-b * b, 12 * c, 6 * b, 0, 3]
    if n == 3:
        return psi3
    g4 = [-(b**3) - 8 * c * c, -4 * b * c, -5 * b * b, 20 * c, 5 * b, 0, 1]
    f2 = polys.mul(f, f)
    psi3_cubed = polys.mul(psi3, polys.mul(psi3, psi3))
    psi5 = polys.add(polys.scale(polys.mul(g4, f2), 32), polys.scale(psi3_cubed, -1))
    if n == 5:
        return psi5
    g4_cubed = polys.mul(g4, polys.mul(g4, g4))
    return polys.add(polys.mul(psi5, psi3_cubed), polys.scale(polys.mul(g4_cubed, f2), -128))


@dataclass(frozen=True)
class RootVerdict:
    order: int
    has_integer_root: bool
    roots: tuple[int, ...]

    @property
    def certifies_no_point(self) -> bool:
        """No integer root means no rational point of this exact order:
        a torsion point would have integral x (Nagell-Lutz) and that x
        would be a root."""
        return not self.has_integer_root


def division_poly_has_integer_root(curve: Curve, n: int) -> RootVerdict:
    roots = tuple(polys.integer_roots(division_polynomial(curve, n)))
    return RootVerdict(n, bool(roots), roots)


# ---------------------------------------------------------------------------
# Nagell-Lutz enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorsionReport:
    bound_from_reduction: int
    primes_used: tuple[tuple[int, int], ...]
    integral_candidates: tuple[Point, ...]
    torsion_order: int
    generators: tuple[Point, ...]
    structure: str
    obstructions: tuple = ()  # family.ObstructionVerdict per order, from family.cite_obstructions

    @property
    def is_trivial(self) -> bool:
        return self.torsion_order == 1


def _point_order(curve: Curve, p: Point) -> int | None:
    """Exact order if at most MAX_POINT_ORDER, else None (infinite order)."""
    q = p
    for n in range(1, MAX_POINT_ORDER + 1):
        if q.is_infinity:
            return n
        q = _add_raw(curve, q, p)
    return None


def two_torsion_points(curve: Curve) -> list[Point]:
    """Rational points of order dividing 2 (excluding O): integer roots of
    the cubic with y = 0.  Rational 2-torsion abscissas are integral
    because the cubic is monic."""
    return [Point(x, 0) for x in polys.integer_roots(division_polynomial(curve, 2))]


def integral_torsion_candidates(curve: Curve) -> list[Point]:
    """Nagell-Lutz candidate set: integral points with y = 0 or y^2 | Delta.

    Every rational torsion point is among these, so the candidate list is a
    complete search space; the converse fails (a candidate can have
    infinite order) and is settled by the order test.

    The y with y^2 | Delta are the divisors of arith.square_part_root(Delta),
    which finds only the square part of Delta from the primes up to the
    cube root of what is left, by gcds with a table of prime-window
    products: below 2^16 first, then, for a cofactor R below 2^63 that
    outlasts them, up to the cube root of R.  Delta is factored in full,
    by Pollard rho, only when that cofactor is 2^63 or more.

    Each y goes to exact root extraction only if y^2 mod n is a value of
    x^3 + bx + c mod n for every n in _CANDIDATE_MODULI.  Each value set
    is _cubic_values(n, b mod n, c mod n), cached by its residue key, so it
    is built once per process and shared by every curve with those
    residues, and the filter drops no y that has an integral x.
    """
    candidates = set(two_torsion_points(curve))
    b, c = curve.b, curve.c
    tables = [(n, _cubic_values(n, b % n, c % n)) for n in _CANDIDATE_MODULI]
    for y in divisors(square_part_root(discriminant(curve))):
        y2 = y * y
        if not all(y2 % n in values for n, values in tables):
            continue
        for x in polys.integer_roots([c - y2, b, 0, 1]):
            candidates.add(Point(x, y))
            candidates.add(Point(x, -y))
    return sorted(candidates, key=str)


def _group_structure(
    curve: Curve, points: list[tuple[Point, int]]
) -> tuple[str, tuple[Point, ...]]:
    """Structure string and generators from the full point/order list.

    Over Q the torsion group is cyclic or Z/2 x Z/2n, so one point of
    maximal order plus (in the non-cyclic case) a 2-torsion point outside
    the cyclic part always generates.
    """
    size = len(points)
    if size == 1:
        return "trivial", ()
    max_pt, max_order = max(points, key=lambda po: (po[1], str(po[0])))
    if max_order == size:
        return f"Z/{size}", (max_pt,)
    if size != 2 * max_order or max_order % 2:
        raise InconsistentCertificate(f"impossible rational torsion shape: {size} points")
    inside = scalar_mul(curve, max_order // 2, max_pt)  # the one 2-torsion in <max_pt>
    extra = min(
        (pt for pt, o in points if o == 2 and pt != inside),
        key=str,
    )
    return f"Z/2 x Z/{max_order}", (max_pt, extra)


def nagell_lutz_torsion(curve: Curve, num_primes: int = 5) -> TorsionReport:
    """Full torsion report: reduction bound, candidate enumeration, exact
    order tests and group structure."""
    bound, evidence = torsion_order_bound(curve, num_primes)
    candidates = integral_torsion_candidates(curve)
    # O and every candidate of finite order, with its order: the full group,
    # since order-testing up to the Mazur cap never misses a torsion point
    points = [(INFINITY, 1)]
    for pt in candidates:
        order = _point_order(curve, pt)
        if order is not None:
            points.append((pt, order))
    order = len(points)
    if order not in ADMISSIBLE_GROUP_ORDERS:
        raise InconsistentCertificate(f"inadmissible torsion order {order}")
    if bound % order:
        raise InconsistentCertificate(
            f"torsion order {order} does not divide the reduction bound {bound}"
        )
    structure, generators = _group_structure(curve, points)
    return TorsionReport(
        bound_from_reduction=bound,
        primes_used=tuple(evidence),
        integral_candidates=tuple(candidates),
        torsion_order=order,
        generators=generators,
        structure=structure,
    )

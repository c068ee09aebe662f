#!/usr/bin/env python3
"""Certifying a trivial torsion subgroup three independent ways.

Route 1: the torsion group injects into E(F_ell) at every odd prime of
good reduction, so its order divides the gcd of the point counts.
Route 2: Nagell-Lutz confines rational torsion to integral points with
y = 0 or y^2 dividing the discriminant; each candidate is order-tested.
Route 3: a rational point of exact prime order n (n can only be 2, 3, 5
or 7) would put an integer root on the n-division polynomial.

Negative controls at the end show the pipeline reports nontrivial torsion
where it genuinely exists.
"""
from ecrank import (
    Curve,
    FamilyParams,
    build_family_curve,
    cite_obstructions,
    division_poly_has_integer_root,
    nagell_lutz_torsion,
    torsion_order_bound,
)

params = FamilyParams(2, 3, 7, 11)
curve = build_family_curve(params)
print(f"curve: y^2 = x^3 + ({curve.b})x + {curve.c}")
print()

bound, evidence = torsion_order_bound(curve, 5)
print("route 1: reduction bound")
for ell, n in evidence:
    print(f"  #E(F_{ell}) = {n}")
print(f"  gcd = {bound}  ->  torsion order divides {bound}")
print()

report = nagell_lutz_torsion(curve)
print("route 2: Nagell-Lutz enumeration")
print(f"  integral candidates surviving the order test: {list(report.integral_candidates)}")
print(f"  torsion order: {report.torsion_order} ({report.structure})")
print()

print("route 3: division polynomials")
for n in (2, 3, 5, 7):
    verdict = division_poly_has_integer_root(curve, n)
    word = "no integer root" if verdict.certifies_no_point else f"roots {verdict.roots}"
    print(f"  order {n}: {word}")
print()

print("family-specific obstructions (order 2 read from the candidates; orders 3, 5 and 7")
print("cited by hypothesis class: tier-1 proves the order-3 fact, the order-5 and order-7")
print("facts are only cited, and no certificate rests on them):")
for v in cite_obstructions(params, report).obstructions:
    print(f"  order {v.order}: {v.status} -- {v.reason}")
print()

print("negative controls (nontrivial torsion is found where it exists):")
for b, c, label in ((-1, 0, "y^2 = x^3 - x"), (0, 1, "y^2 = x^3 + 1")):
    rep = nagell_lutz_torsion(Curve(b, c))
    gens = ", ".join(str(g) for g in rep.generators)
    print(f"  {label}: order {rep.torsion_order}, structure {rep.structure}, generators {gens}")

#!/usr/bin/env python3
"""Rank lower bounds from exact point halving.

With trivial torsion, E(Q)/2E(Q) is an elementary abelian 2-group of
order 2^rank.  Halving a point reduces to finding rational roots of an
integer quartic, so "this point is not a double" is a machine-checkable
fact.  Three nonzero classes whose pairwise sums are also nonzero span a
subgroup of order 4, forcing rank >= 2; a fourth independent class forces
rank >= 3.
"""
from ecrank import (
    FamilyParams,
    build_family_curve,
    canonical_points,
    class_is_nonzero,
    double,
    halving_preimages,
    rank_ge2_certificate,
    rank_ge3_probe,
)

params = FamilyParams(2, 3, 7, 11)
curve = build_family_curve(params)
pts = canonical_points(params)
print(f"curve: y^2 = x^3 + ({curve.b})x + {curve.c}")
print(f"canonical points: base={pts.base}, shifted={pts.shifted}, combined={pts.combined}")
print()

print("halving the canonical points (empty list = not a double):")
for label, pt in zip(("base", "shifted", "combined"), pts):
    print(f"  halves of {label}: {halving_preimages(curve, pt)}")
print()

print("a constructed double, by contrast, is recognized as one:")
target = double(curve, pts.shifted)
verdict = class_is_nonzero(curve, target)
print(f"  halves of 2*shifted: {list(verdict.preimages)}  -> class nonzero: {verdict.nonzero}")
print()

cert = rank_ge2_certificate(params)
print("rank certificate:")
print(f"  torsion trivial: {cert.torsion_trivial}")
for label, v in (
    ("base", cert.class_base),
    ("shifted", cert.class_shifted),
    ("combined", cert.class_combined),
):
    routes = "halving" + ("+congruence" if v.congruence else "")
    print(f"  [{label}] nonzero: {v.nonzero} ({routes})")
print(f"  classes distinct: {cert.classes_distinct}")
print(f"  rank lower bound: {cert.rank_lower_bound}")
print()

print("probing another family member for a third independent generator:")
cert34 = rank_ge2_certificate(FamilyParams(34, 3, 5, 7))
cert3 = rank_ge3_probe(cert34, height_bound=50, den_bound=1)
print(f"  (m, p, q, r) = (34, 3, 5, 7), integral search up to |x| <= 50")
for probe in cert3.probe_points:
    print(f"  candidate {probe.point}: independent of the canonical pair: {probe.independent}")
print(f"  rank lower bound: {cert3.rank_lower_bound}")

"""The residue facts behind the congruence routes, proven once.

`family._congruence_route` and `family.congruence_obstruction` cite
their arguments from the hypothesis class of m alone.  Each argument's
residue fact depends only on m and pqr modulo 32 (or m modulo 3, 4 or 8),
so evaluating it on every class of m that the code's own gate accepts,
every odd residue of pqr and every k or s covers every input a record can
ever carry.

Orders 5 and 7 are only cited.  `_torsion_fact` checks the closed forms
the paper states, not psi_5 or psi_7 (both have roots mod 2^j), and for
even m, (1 + m^2)^8 % 4 != 0 always holds.  No certificate rests on
these facts.
"""
from fractions import Fraction

from ecrank import polys
from ecrank.curves import Curve, Point
from ecrank.descent import halving_quartic
from ecrank.family import FamilyParams, _congruence_route, canonical_points, congruence_obstruction
from ecrank.torsion import division_polynomial

ODD_32 = range(1, 32, 2)  # the odd residues of pqr mod 32


def _base_fact(m: int) -> bool:
    """x = 2k^2 and the cleared identity 16k^8 + m^4 + 8k^4 m^2 - 16k^2 (pqr)^2
    is nonzero mod 32 for every k (even k is the m^4 = 16 collision)."""
    return all(
        (16 * k**8 + m**4 + 8 * k**4 * m * m - 16 * k * k * d * d) % 32
        for k in range(32)
        for d in ODD_32
    )


def _shifted_fact(m: int) -> bool:
    """4s + 3m is never a square mod 4 (the squares mod 4 are 0 and 1)."""
    return all((4 * s + 3 * m) % 4 in (2, 3) for s in range(4))


def _combined_fact(m: int) -> bool:
    """The substituted quartic 2s^4 - 2s(pqr)^2 - (pqr)^2 is nonzero mod 8."""
    return all((2 * s**4 - 2 * s * d * d - d * d) % 8 for s in range(8) for d in ODD_32)


CANONICAL_FACTS = {"base": _base_fact, "shifted": _shifted_fact, "combined": _combined_fact}


def _torsion_fact(n: int, m: int) -> bool:
    if n == 3:  # psi_3 reduces to -m^4 mod 3 for every x and every pqr
        psis = [division_polynomial(Curve(-m * m, d * d), 3) for d in range(3)]
        return all(polys.evaluate(psi, x) % 3 for psi in psis for x in range(3))
    even_branch = m % 4 != 0  # even x forces m = 0 (mod 4)
    if n == 5:
        return even_branch and (1 + m * m) ** 8 % 4 != 0
    odd_value = (1 + m * m) ** 16 * (4 * (3 - m * m) ** 2 * (1 + m * m) ** 6 + (1 + m * m) ** 8)
    return even_branch and odd_value % 8 != 0


def test_congruence_facts_hold_on_every_gated_class():
    accepted = set()
    for m in range(1, 33):  # one representative of each class mod 32
        params = FamilyParams(m, 3, 5, 7)
        for target in canonical_points(params):
            evidence = _congruence_route(params, target)
            if evidence is None:
                continue
            accepted.add(m)
            assert CANONICAL_FACTS[evidence.target_label](m), (m, evidence.target_label)
            # the code's own halving quartic is monic, so no root mod 32
            # leaves it without a rational root
            t = target.x.numerator
            for d in ODD_32:
                quartic = halving_quartic(Curve(-m * m, d * d), Point(Fraction(t), Fraction(d)))
                assert all(polys.evaluate(list(quartic), x) % 32 for x in range(32)), (m, d, t)
    assert 2 in accepted
    for n, modulus in ((3, 3), (5, 4), (7, 8)):
        gated = [
            m
            for m in range(1, modulus + 1)
            if congruence_obstruction(FamilyParams(m, 3, 5, 7), n).obstructed
        ]
        assert 2 in gated, n
        for m in gated:
            assert _torsion_fact(n, m), (n, m)

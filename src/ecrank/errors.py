"""Exception types shared across the toolkit."""


class EcrankError(Exception):
    """Base class for every error the toolkit raises deliberately."""


class SingularCurve(EcrankError):
    """4b^3 + 27c^2 = 0: the cubic has a repeated root, no group law."""


class PointNotOnCurve(EcrankError):
    """An operation received a point that does not satisfy the curve equation."""


class NotPrime(EcrankError):
    """A value required to be prime failed the deterministic primality check."""


class PrimesNotDistinct(EcrankError):
    """The three primes of a parameter set must be pairwise distinct."""


class PrimeIsTwo(EcrankError):
    """The parameter primes must be odd."""


class BadReduction(EcrankError):
    """Point counting requested modulo a prime dividing the discriminant."""


class UnsupportedOrder(EcrankError):
    """Torsion-order machinery only covers the prime orders 2, 3, 5 and 7."""


class InfinityTarget(EcrankError):
    """Halving the point at infinity is a caller responsibility (its halves
    are exactly the rational 2-torsion points)."""


class FactorizationIncomplete(EcrankError):
    """The factoring budget ran out; callers must report 'inconclusive'
    rather than assert anything that depends on the missing factors."""


class InconsistentCertificate(EcrankError):
    """A self-check inside a certificate failed: two routes disagree or a
    proven invariant does not hold, so no verdict may be issued."""


class SweepResumeMismatch(EcrankError):
    """A sweep output file holds records that the sweep being resumed would
    not write: other parameters, other options, or another format."""


class SweepWorkerDied(EcrankError):
    """A forked sweep worker exited before sending the record whose turn
    had come, so the sweep cannot go on in combo order."""

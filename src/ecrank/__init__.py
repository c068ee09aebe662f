"""ecrank: exact torsion and rank-lower-bound certificates over Q.

Library layout:
    curves     exact chord-tangent group law on y^2 = x^3 + bx + c
    family     the family b = -m^2, c = (pqr)^2, its hypotheses and cited congruences
    reduction  reduction mod small primes, exact point counts
    torsion    reduction bound, Nagell-Lutz enumeration, division polynomials
    descent    point halving, E/2E class checks, rank certificates
    records    jsonl/csv records, recheck, parameter sweeps
    cli        the `ecrank` command
"""

from .curves import (
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
from .descent import (
    ClassVerdict,
    RankCertificate,
    class_is_nonzero,
    halving_preimages,
    halving_quartic,
    rank_ge2_certificate,
    rank_ge3_probe,
    search_points,
)
from .errors import (
    BadReduction,
    EcrankError,
    FactorizationIncomplete,
    InconsistentCertificate,
    InfinityTarget,
    NotPrime,
    PointNotOnCurve,
    PrimeIsTwo,
    PrimesNotDistinct,
    SingularCurve,
    SweepResumeMismatch,
    SweepWorkerDied,
    UnsupportedOrder,
)
from .family import (
    CanonicalPoints,
    FamilyParams,
    HypothesisReport,
    build_family_curve,
    ObstructionVerdict,
    canonical_points,
    cite_congruence,
    cite_obstructions,
    congruence_obstruction,
    validate_hypotheses,
)
from .records import SweepSpec, build_curve_record, recheck_diff, recheck_record, run_sweep
from .reduction import (
    ReducedCurve,
    count_points,
    naive_point_count,
    reduce_curve,
)
from .torsion import (
    TorsionReport,
    division_poly_has_integer_root,
    division_polynomial,
    integral_torsion_candidates,
    nagell_lutz_torsion,
    torsion_order_bound,
    two_torsion_points,
)

__version__ = "0.1.0"

"""Euler-Mascheroni constant from individual zeta zeros on the critical line.

The package implements two asymptotic harmonic-series identities tied to
single non-trivial zeros of the Riemann zeta function, yielding gamma
estimates from one zero ordinate each; the inverse direction recovers
zero ordinates by fixed-point iteration.  An O(k^2) brute-force double
sum and an O(k) factorized path cross-check each other.  The ``n^-s``
sums of ``series`` are calls of one primitive, ``partial_zeta``, and
every long sum keeps its exact total as one integer, rounded once: exactly
``math.fsum`` of all its terms.
"""

from .bench import BenchReport, bench_offdiag
from .errors import (
    CatalogError,
    CatalogLookupError,
    CatalogParseError,
    ConsistencyError,
    DomainError,
    OracleCapError,
    SingularGuardError,
    ZetaGammaError,
)
from .fixedpoint import (
    SINGULARITY_EPS,
    FixedPointMap,
    FixedPointStatus,
    FixedPointTrace,
    f_of_t,
    g_of_t,
    iterate_fixed_point,
)
from .series import (
    EULER_GAMMA,
    ORACLE_CAP,
    EulerMaclaurinOrder,
    GammaEstimate,
    GammaMethod,
    SeriesParams,
    TrigSums,
    em_rhs,
    gamma_type1,
    gamma_type2,
    harmonic_asymptotic,
    harmonic_partial_sum,
    offdiag_factorized,
    offdiag_naive,
    partial_zeta,
    stieltjes_estimate,
    trig_sums,
    zeta_em,
)
from .summation import (
    DEFAULT_CHUNK,
    chunked_parallel_pair_sum,
    chunked_parallel_sum,
    compensated_sum,
    get_num_workers,
    set_num_workers,
)
from .tables import TableSpec, build_table
from .zeros import (
    CatalogSource,
    ZeroCatalog,
    ZetaZero,
    builtin_catalog,
    get_zero,
    load_catalog,
)

__version__ = "0.1.0"

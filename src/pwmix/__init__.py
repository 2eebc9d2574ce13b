"""Differential privacy with piecewise-mixture Laplace and geometric noise.

The toolkit bundles exact densities and samplers for the standard Laplace
and geometric mechanisms and their two-piece mixture variants, closed-form
noise analytics, general-privacy-budget accounting with composition, a
count/histogram query-release engine over categorical CSV data, and a
benchmark/audit harness.
"""

__version__ = "0.1.0"

from .accounting import (
    BudgetLedger,
    compose,
    equivalent_epsilon,
    privacy_loss,
    usefulness_bound,
    zeta_closed_form,
    zeta_empirical,
)
from .analytics import geomix_stats, lapmix_stats, standard_stats
from .bench import (
    PrivacyAuditReport,
    SimulationConfig,
    UtilityReport,
    audit_mechanism,
    audit_privacy,
    error_cdf,
    mean_relative_error,
    run_simulation,
    table_sweep,
    within_bound_fraction,
)
from .data import (
    Dataset,
    NoisyRelease,
    QuerySpec,
    count_query,
    histogram_query,
    load_dataset,
    neighbors,
    release,
)
from .mechanisms import (
    Geometric,
    GeometricMixture,
    Laplace,
    LaplaceMixture,
    MechanismSpec,
    MechanismStats,
    MixtureConstants,
    MixtureParams,
    RoundedLaplace,
    TruncatedLaplace,
    ZeroNoise,
    geomix_cdf,
    geomix_constants,
    geomix_pmf,
    geometric_pmf,
    laplace_pdf,
    lapmix_cdf,
    lapmix_constants,
    lapmix_pdf,
)
from .sampling import SeededStream, sample

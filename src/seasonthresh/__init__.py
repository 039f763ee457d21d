"""Seasonal extinction/persistence thresholds for periodic cooperative
concave population dynamics."""

from .conditions import (
    ConditionCertificate,
    DiagonalizationData,
    check_decrease_bilinear,
    check_decrease_left,
    check_decrease_right,
    check_hyp_alternative,
    check_hyp_parameters,
    check_shared_eigenvector,
    diagonalize_season,
    insect_threshold_certificate,
    left_eigenvector_order,
    left_order_certificate,
)
from .floquet import (
    RhoProfile,
    ThresholdReport,
    TwoSeasonLinearization,
    constrained_resolvent,
    find_threshold,
    log_convexity_probe,
    monodromy,
    rho,
    rho_prime,
    rho_profile,
    rho_second,
    timescale_asymptotics,
)
from .insect import (
    EquilibriumReport,
    InsectParams,
    as_seasonal_system,
    divergence,
    equilibria,
    invariant_box,
    jacobian,
    r0,
    vector_field,
)
from .linalg import (
    PerronPair,
    is_irreducible,
    is_metzler,
    mat_exp,
    perron_pair,
    spectral_abscissa,
    spectral_radius,
)
from .seasonal import (
    AutonomousPiece,
    SeasonalSchedule,
    SeasonalSystem,
    season_index,
)
from .simulate import (
    FlowPropertyReport,
    PoincareResult,
    Trajectory,
    empirical_threshold,
    find_periodic_orbit,
    integrate,
    poincare_jacobian,
    poincare_map,
    verify_flow_properties,
)
from .splitting import (
    GelfandProbeReport,
    SplitSchedule,
    gelfand_bound_probe,
    optimize_split,
    shared_eigenvector_threshold,
    split_monodromy,
)

__version__ = "0.1.0"

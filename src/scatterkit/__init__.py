"""Finite-distance quantum scattering in arbitrary spatial dimension.

Exact incident/scattered/total wave fields, finite-distance scattering
coefficients and cross sections parameterised by phase shifts, the
conventional large-distance quantities for comparison, and phase-shift
solvers for model potentials.
"""

from .errors import (
    ConsistencyError,
    DegenerateCurrentError,
    DomainError,
    MatchingError,
    OverflowGuardError,
    ScatteringError,
    TruncationError,
    WrongDimensionError,
)
from .specfun import (
    DEFAULT_SERIES,
    Order,
    SeriesControl,
    bessel_polynomial,
    calY,
    caly_from_hankel,
    gegenbauer,
    pochhammer,
    spherical_bessel_j,
    spherical_hankel,
    tricomi_u_integer_b,
)
from .partialwave import (
    FieldSample,
    PhaseShiftSet,
    RadialMode,
    ScatterConfig,
    a_l,
    evaluate_grid,
    f_r_theta_3d,
    phase_shifts_from_json,
    phase_shifts_to_json,
    plane_wave,
    psi_incident,
    psi_total,
    radial_mode,
    radial_wavefunction,
)
from .xsection import (
    AsymptoticAmplitude,
    CrossSectionGrid,
    CrossSectionSample,
    angular_measure_integral,
    cross_section_grid,
    dsigma_double_sum,
    dsigma_from_cos_gamma,
    dsigma_full,
    dsigma_leading,
    f_theta_asymptotic,
    f_theta_grid,
    one_d_summary,
    sigma_total_asymptotic,
    sigma_total_mode_terms,
    two_d_dsigma,
    wronskian_radial,
)
from .phasesolve import (
    MatchResult,
    PotentialModel,
    hard_sphere_shift,
    ode_shift,
    potential_from_json,
    solve_potential_shifts,
    square_well_shift,
    unwrap_shifts,
)

__version__ = "0.1.0"

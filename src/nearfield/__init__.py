"""Near-field 3D channel estimation for UCA XL-MIMO systems.

Spherical-wave channel synthesis, a Bessel-zero-derived spherical-domain
codebook, simultaneous-OMP sparse recovery, baseline estimators, and a
seeded Monte Carlo experiment harness.
"""

from .channel import (
    C_LIGHT,
    ConfigurationError,
    PathParams,
    SystemConfig,
    azimuth_cosines,
    generate_channel,
    ring_steering,
    sample_paths,
    subcarrier_frequencies,
    uca_radius,
)
from .codebook import (
    FAR_FIELD,
    CoherenceStats,
    SphericalCodebook,
    azimuth_grid,
    build_angular_codebook,
    build_polar_codebook,
    build_spherical_codebook,
    coherence_stats,
    distance_grid,
    elevation_grid,
)
from .estimator import (
    CombiningMatrix,
    EstimationResult,
    MeasurementSet,
    SompStep,
    generate_combining,
    ls_estimate,
    nmse,
    nmse_db,
    oracle_estimate,
    s_somp,
    synthesize_measurements,
)
from .harness import (
    METHODS,
    RunSpec,
    SweepResult,
    SweepRow,
    desk_profile,
    emit_csv,
    paper_profile,
    run_trial,
    sweep_pilot,
    sweep_snr,
)
from .numerics import (
    bessel_j0,
    first_j0_zero,
    solve_beta_delta,
)

__version__ = "0.1.0"

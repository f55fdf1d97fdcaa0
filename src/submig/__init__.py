"""Subspace-migration imaging of thin curve-like electromagnetic inclusions."""

from .analysis import (
    BandLimits,
    ScattererSet,
    analytic_log,
    analytic_mf,
    analytic_sf,
    analytic_wmf,
    e1_e2,
)
from .forward import (
    ConfigurationError,
    DirectionSet,
    FrequencySet,
    MsrMatrix,
    add_awgn,
    assemble_msr,
    load_msr,
    make_directions,
    save_msr,
)
from .geometry import (
    CurveSample,
    ParametricCurve,
    PolynomialCurve,
    ThinInclusion,
    curve_length,
    effective_segment_count,
    frames,
    get_curve,
    sample_curve,
)
from .harness import (
    ExperimentConfig,
    ExperimentError,
    ExperimentReport,
    InclusionSpec,
    load_config,
    localization_error,
    preset_config,
    run_experiment,
    save_config,
    sidelobe_energy,
)
from .imaging import (
    DegenerateSteeringError,
    EmptySubspaceError,
    ImageGrid,
    ImageMap,
    SteeringConfig,
    map_multi,
    map_single,
    test_vector,
)
from .specfun import (
    ConvergenceError,
    bessel_envelope,
    bessel_j,
    integral_j0sq,
    integral_log_j0sq,
    quad_adaptive,
)
from .spectral import SvdFactors, effective_rank, svd

__version__ = "0.1.0"

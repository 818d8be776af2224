"""curverate: a numerical laboratory for convergence rates of Schrodinger
evolution along curves.

The package evaluates the curve-shifted (fractional) propagator by
oscillation-aware quadrature, implements the sharp Sobolev-threshold atlas
s(delta) for all supported smoothness/dispersion regimes, computes
rate-weighted maximal functions over spatial windows, and reproduces the
counterexample families' power-law blow-up in desk-scale scaling
experiments.
"""

__version__ = "0.1.0"

SCHEMA_VERSION = 1

from .errors import (  # noqa: F401
    CurverateError,
    DomainValidationError,
    DeltaRangeError,
    UnsupportedRegimeError,
    WindowError,
    ResolutionError,
    AccuracyError,
)
from .exponents import Regime, RegimeLaw, RatePoint, threshold, classify, region_curve  # noqa: F401
from .curves import CurveSpec, RegularityReport, gamma, verify_regularity  # noqa: F401
from .initial_data import (  # noqa: F401
    FrequencyProfile,
    bump_eval,
    fourier_eval,
    sobolev_norm,
)
from .propagator import FieldSample, evaluate, evaluate_grid  # noqa: F401
from .maximal import (  # noqa: F401
    TimeGrid,
    MaximalField,
    critical_time,
    l2_over_ball,
    lemma_bound,
    rate_ceiling_demo,
)
from .experiments import (  # noqa: F401
    ExperimentPlan,
    ScalingReport,
    run,
    sharpness_sweep,
    fit_loglog,
)

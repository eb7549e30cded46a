"""Numerical laboratory for finite-time blow-up in the repulsive
fractional Ginzburg-Landau equation u_t = -i|D|u + |u|^{p-1}u on a
periodic domain."""

__version__ = "0.1.0"

from .errors import (
    BlowupExceededError,
    ConfigError,
    ConvergenceError,
    CorruptFieldError,
    GridStabilityError,
    SingularSubstepError,
    SupercriticalError,
    ThresholdNotMetError,
)
from .grid import (
    FieldState,
    GridSpec,
    apply_half_wave,
    apply_multiplier,
    h1_norm,
    half_wave_phase_symbol,
    l2_norm,
    make_grid,
    sup_norm,
)
from .ode import (
    BoundParams,
    OdeParams,
    blowup_time,
    closed_form_eval,
    comparison_ode,
    critical_initial_norm,
    lifespan_upper_bound,
    lower_bound_divergence_time,
    weighted_norm_lower_bound,
)
from .weights import (
    CommutatorEstimate,
    WeightSpec,
    apply_commutator,
    apply_weighted_kernel,
    estimate_kappa,
    estimate_weighted_kernel_norm,
    inv_weight_values,
    norm_inv_h,
    weight_values,
    weighted_kernel_matrix,
)
from .evolution import (
    BlowupReport,
    ConstantProfile,
    GaussianProfile,
    SimConfig,
    TimeSeries,
    choose_dt,
    homogeneous_blowup_time,
    initial_field,
    nonlinear_substep,
    simulate,
    strang_step,
)
from .diagnostics import (
    MarginReport,
    MassIdentityReport,
    check_growth_inequality,
    check_weighted_lower_bound,
    mass_identity_residual,
)
from .kernel_decay import (
    TailFit,
    bump_eval,
    fit_tail_decay,
    kernel_transform,
)
from .experiments import (
    BoundsAudit,
    StabilityCheck,
    SweepResult,
    ThresholdSearch,
    bounds_consistency,
    commutator_scaling,
    domain_doubling_check,
    lifespan_sweep,
    predicted_threshold_scale,
    subcritical_threshold,
)

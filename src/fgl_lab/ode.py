"""Bernoulli comparison ODE and the blow-up bound formulas built on it.

The scalar model is

    f'(t) + C1 f(t) = C2 f(t)^q,   f(0) = f0 > 0,  q > 1,

whose solution is known in closed form.  Solutions with f0 above the
equilibrium (C1/C2)^{1/(q-1)} diverge in finite time; everything below
decays to zero.  The weighted-norm machinery for the evolution equation
reduces to this model, which is why the lower-bound / lifespan formulas
live here next to it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowupExceededError, BoundDivergedError, ConvergenceError

# Below this, kappa is treated as zero and the limit formulas are used.
_KAPPA_TINY = 1e-10


@dataclass(frozen=True)
class OdeParams:
    """Coefficients of f' + c1*f = c2*f^q with initial value f0."""

    c1: float
    c2: float
    q: float
    f0: float

    def __post_init__(self):
        for name in ("c1", "c2", "q", "f0"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"OdeParams.{name} must be finite")
        if self.c1 <= 0 or self.c2 <= 0:
            raise ValueError("OdeParams coefficients c1, c2 must be positive")
        if self.q <= 1:
            raise ValueError("OdeParams exponent q must exceed 1")
        if self.f0 <= 0:
            raise ValueError("OdeParams initial value f0 must be positive")

    @property
    def equilibrium(self) -> float:
        """Stationary value (c1/c2)^{1/(q-1)} separating decay from blow-up."""
        return (self.c1 / self.c2) ** (1.0 / (self.q - 1.0))


def blowup_time(params: OdeParams) -> float:
    """Exact blow-up time, or +inf when the solution is global.

    Finite iff f0 > (c1/c2)^{1/(q-1)}, in which case
    T* = -log(1 - (c1/c2) f0^{1-q}) / (c1 (q-1)).
    """
    arg = (params.c1 / params.c2) * params.f0 ** (1.0 - params.q)
    if arg >= 1.0:
        return math.inf
    return -math.log1p(-arg) / (params.c1 * (params.q - 1.0))


def closed_form_eval(params: OdeParams, t):
    """Evaluate the closed-form solution at time(s) t, strictly before blow-up.

    f(t) = e^{-c1 t} (f0^{1-q} + (c2/c1)(e^{-c1(q-1)t} - 1))^{-1/(q-1)}

    Raises
    ------
    BlowupExceededError
        If any requested time is at or beyond the blow-up time.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("closed form is defined for t >= 0")
    m = params.q - 1.0
    bracket = params.f0 ** (-m) + (params.c2 / params.c1) * np.expm1(
        -params.c1 * m * t_arr
    )
    if np.any(bracket <= 0):
        raise BlowupExceededError(
            f"requested time at or beyond blow-up time T* = {blowup_time(params):.6g}"
        )
    out = np.exp(-params.c1 * t_arr) * bracket ** (-1.0 / m)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


@dataclass(frozen=True)
class OracleResult:
    """Adaptive-integration record: samples, plus the threshold crossing if any."""

    times: np.ndarray
    values: np.ndarray
    crossing_time: float | None


def numeric_oracle(
    params: OdeParams,
    t_end: float,
    tol: float = 1e-10,
    num_samples: int = 200,
    divergence_mode: bool = False,
    threshold: float = 1e8,
) -> OracleResult:
    """Integrate the ODE with an adaptive embedded Runge-Kutta scheme.

    Independent of the closed form: this is the oracle the analytic
    formulas are checked against.  In divergence mode the integration
    stops at the first time f crosses ``threshold`` and reports it as
    ``crossing_time`` (None if no crossing happened by ``t_end``).
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        f = y[0]
        return (-params.c1 * f + params.c2 * f**params.q,)

    def crossing(t, y):
        return y[0] - threshold

    crossing.terminal = divergence_mode
    crossing.direction = 1.0

    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        (params.f0,),
        method="RK45",
        rtol=tol,
        atol=1e-300,
        dense_output=True,
        events=(crossing,),
    )
    if sol.status == -1:
        raise ConvergenceError(f"ODE integration failed: {sol.message}")
    t_hit = None
    if sol.t_events[0].size:
        t_hit = float(sol.t_events[0][0])
    t_stop = sol.t[-1]
    times = np.linspace(0.0, t_stop, num_samples)
    values = sol.sol(times)[0]
    return OracleResult(times=times, values=values, crossing_time=t_hit)


# ----------------------------------------------------------------------
# Weighted-norm bound formulas


@dataclass(frozen=True)
class BoundParams:
    """Ingredients of the blow-up bounds for one run and one weight.

    p : nonlinearity power (> 1)
    kappa : operator-norm estimate of the weighted commutator (>= 0)
    inv_weight_norm : ||1/h||_2 on the ambient space
    initial_weighted_norm : ||u0/h||_2
    """

    p: float
    kappa: float
    inv_weight_norm: float
    initial_weighted_norm: float

    def __post_init__(self):
        if self.p <= 1:
            raise ValueError("BoundParams.p must exceed 1")
        if self.kappa < 0 or not math.isfinite(self.kappa):
            raise ValueError("BoundParams.kappa must be finite and >= 0")
        if self.inv_weight_norm <= 0:
            raise ValueError("BoundParams.inv_weight_norm must be positive")
        if self.initial_weighted_norm <= 0:
            raise ValueError("BoundParams.initial_weighted_norm must be positive")


def critical_initial_norm(b: BoundParams) -> float:
    """Weighted-norm threshold kappa^{1/(p-1)} ||1/h||_2.

    Initial data with ||u0/h||_2 strictly above this value is certified
    to blow up in finite time.
    """
    return b.kappa ** (1.0 / (b.p - 1.0)) * b.inv_weight_norm


def _bracket(b: BoundParams, t):
    """Common bracket of the lower bound; hits zero at the divergence time."""
    m = b.p - 1.0
    v0 = b.initial_weighted_norm
    ninv = b.inv_weight_norm
    if b.kappa < _KAPPA_TINY:
        return v0 ** (-m) - ninv ** (-m) * m * np.asarray(t, dtype=float)
    return v0 ** (-m) + (ninv ** (-m) / b.kappa) * np.expm1(
        -b.kappa * m * np.asarray(t, dtype=float)
    )


def weighted_norm_lower_bound(b: BoundParams, t, variant: str = "conservative"):
    """Lower bound on ||u(t)/h||_2 for data above the blow-up threshold.

    variant='conservative' keeps the prefactor e^{-2 kappa t} that the
    Gronwall step produces; variant='sharp' uses e^{-kappa t}, which is
    what the comparison ODE for ||u/h||_2^2 actually yields.  Both share
    the same bracket and hence the same divergence time.
    """
    if variant not in ("conservative", "sharp"):
        raise ValueError(f"unknown variant {variant!r}")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("bound is defined for t >= 0")
    m = b.p - 1.0
    bracket = _bracket(b, t_arr)
    t_div = lower_bound_divergence_time(b)
    if np.any(t_arr >= t_div) or np.any(bracket <= 0):
        raise BoundDivergedError(
            "lower bound diverged: blow-up certified no later than "
            f"t = {t_div:.6g}"
        )
    rate = 2.0 * b.kappa if variant == "conservative" else b.kappa
    out = np.exp(-rate * t_arr) * bracket ** (-1.0 / m)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def lower_bound_divergence_time(b: BoundParams) -> float:
    """Time at which the lower-bound bracket reaches zero (+inf if never)."""
    m = b.p - 1.0
    arg = b.kappa * b.inv_weight_norm**m * b.initial_weighted_norm ** (-m)
    if arg >= 1.0:
        return math.inf
    if b.kappa < _KAPPA_TINY:
        return (
            b.initial_weighted_norm ** (-m) * b.inv_weight_norm**m / m
        )
    return -math.log1p(-arg) / (b.kappa * m)


@dataclass(frozen=True)
class LifespanBound:
    """Upper bound on the lifespan; +inf when the threshold is not cleared."""

    time: float
    condition_met: bool


def lifespan_upper_bound(
    b: BoundParams, variant: str = "conservative"
) -> LifespanBound:
    """Lifespan upper bound from the diverging lower bound.

    The 'conservative' variant carries the factor-2 slack of the Gronwall
    step; the 'sharp' variant is the divergence time of the bracket
    itself, half the conservative value.
    """
    if variant not in ("conservative", "sharp"):
        raise ValueError(f"unknown variant {variant!r}")
    t_div = lower_bound_divergence_time(b)
    if math.isinf(t_div):
        return LifespanBound(time=math.inf, condition_met=False)
    factor = 2.0 if variant == "conservative" else 1.0
    return LifespanBound(time=factor * t_div, condition_met=True)


def comparison_ode(b: BoundParams) -> OdeParams:
    """Bernoulli model satisfied (as equality) by Q = ||u/h||_2^2.

    Q' = -2 kappa Q + 2 ||1/h||_2^{-(p-1)} Q^{(p+1)/2}; requires
    kappa > 0 so the Bernoulli coefficients are admissible.
    """
    if b.kappa < _KAPPA_TINY:
        raise ValueError("comparison ODE requires kappa > 0")
    m = b.p - 1.0
    return OdeParams(
        c1=2.0 * b.kappa,
        c2=2.0 * b.inv_weight_norm ** (-m),
        q=(b.p + 1.0) / 2.0,
        f0=b.initial_weighted_norm**2,
    )

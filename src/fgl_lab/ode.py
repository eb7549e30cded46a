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
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BlowupExceededError, ThresholdNotMetError


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
        """Stationary value (c1/c2)^{1/(q-1)} separating decay from blow-up;
        +inf past the double range."""
        try:
            return (self.c1 / self.c2) ** (1.0 / (self.q - 1.0))
        except OverflowError:
            return math.inf


def blowup_time(params: OdeParams) -> float:
    """Exact blow-up time, or +inf when the solution is global.

    Finite iff arg = (c1/c2) f0^{1-q} < 1, in which case
    T* = -log1p(-arg) / (c1 (q-1)).  An arg past the normal range is
    taken in logs, capped at 1; below it, T* = arg / (c1 (q-1)).
    """
    m = params.q - 1.0
    try:
        arg = (params.c1 / params.c2) * params.f0 ** (1.0 - params.q)
    except OverflowError:
        arg = math.inf
    if not sys.float_info.min <= arg < math.inf:
        log_arg = min(0.0, math.log(params.c1) - math.log(params.c2)
                      - m * math.log(params.f0))
        if log_arg < math.log(sys.float_info.min):
            return math.exp(log_arg - math.log(params.c1) - math.log(m))
        arg = math.exp(log_arg)
    return math.inf if arg >= 1.0 else -math.log1p(-arg) / (params.c1 * m)


def closed_form_eval(params: OdeParams, t: np.ndarray) -> np.ndarray:
    """Evaluate the closed-form solution at times t, strictly before blow-up.

    f(t) = f0 e^{-c1 t} (1 + f0^{q-1} (c2/c1) expm1(-c1 (q-1) t))^{-1/(q-1)},
    its power taken through log1p to keep the digits as q -> 1.

    Raises
    ------
    BlowupExceededError
        If any requested time is at or beyond the blow-up time.
    OverflowError
        If f0^{1-q}, f0^{q-1} c2/c1 or a value f(t) passes the double
        range, named with the first such t.
    """
    if np.any(t < 0):
        raise ValueError("closed form is defined for t >= 0")
    m = params.q - 1.0
    coefficients = (f"c1 = {params.c1:.6g}, c2 = {params.c2:.6g}, "
                    f"f0 = {params.f0:.6g}, q - 1 = {m:.6g}")
    t_star = blowup_time(params)
    stage = "f0^(1-q)"
    try:
        head = params.f0 ** (-m)
        stage = "f0^(q-1) c2/c1"
        scale = (params.c2 / params.c1) / head
    except (OverflowError, ZeroDivisionError):
        scale = math.inf
    if scale == math.inf:
        raise OverflowError(f"the closed form's {stage} overflows at {coefficients}")
    x = scale * np.expm1(-params.c1 * m * t)
    if np.any(t >= t_star) or np.any(x <= -1.0):
        raise BlowupExceededError(
            f"requested time at or beyond blow-up time T* = {t_star:.6g}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        f = params.f0 * np.exp(-params.c1 * t) * np.exp(-np.log1p(x) / m)
    outside = ~np.isfinite(f)
    if np.any(outside):
        t_out = np.broadcast_to(t, f.shape)[outside][0]
        raise OverflowError(
            f"the closed form's f(t) overflows at t = {t_out:.6g}, {coefficients}")
    return f


# ----------------------------------------------------------------------
# Weighted-norm bound formulas


@dataclass(frozen=True)
class BoundParams:
    """Ingredients of the blow-up bounds for one run and one weight.

    p : nonlinearity power (> 1)
    kappa : operator-norm estimate of the weighted commutator (> 0; it
        vanishes only for h == 1, whose ||1/h||_2 is infinite)
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
        if self.kappa <= 0 or not math.isfinite(self.kappa):
            raise ValueError("BoundParams.kappa must be finite and positive")
        if self.inv_weight_norm <= 0:
            raise ValueError("BoundParams.inv_weight_norm must be positive")
        if self.initial_weighted_norm <= 0:
            raise ValueError("BoundParams.initial_weighted_norm must be positive")


def critical_initial_norm(b: BoundParams) -> float:
    """Weighted-norm threshold kappa^{1/(p-1)} ||1/h||_2.

    Initial data with ||u0/h||_2 strictly above this value is certified
    to blow up in finite time.  Raises ThresholdNotMetError when the
    power overflows, which no finite data clears.
    """
    try:
        return b.kappa ** (1.0 / (b.p - 1.0)) * b.inv_weight_norm
    except OverflowError:
        raise ThresholdNotMetError(
            f"the threshold kappa^(1/(p-1)) ||1/h||_2 overflows at kappa = "
            f"{b.kappa:.6g}, p - 1 = {b.p - 1.0:.6g}") from None


def comparison_ode(b: BoundParams) -> OdeParams:
    """Bernoulli model satisfied (as equality) by Q = ||u/h||_2^2.

    Q' = -2 kappa Q + 2 ||1/h||_2^{-(p-1)} Q^{(p+1)/2}.  Every bound
    below is read off its closed form.
    """
    m = b.p - 1.0
    return OdeParams(
        c1=2.0 * b.kappa,
        c2=2.0 * b.inv_weight_norm ** (-m),
        q=(b.p + 1.0) / 2.0,
        f0=b.initial_weighted_norm**2,
    )


def weighted_norm_lower_bound(b: BoundParams, t):
    """Lower bound on ||u(t)/h||_2 for data above the blow-up threshold.

    sqrt(Q) for the comparison ODE carries a prefactor e^{-kappa t}; the
    Gronwall step costs a second one.  Diverges at the blow-up time of
    the comparison ODE, and raises BlowupExceededError at or past it.
    """
    root = np.sqrt(closed_form_eval(comparison_ode(b), t))
    return np.exp(-b.kappa * np.asarray(t, dtype=float)) * root


def lower_bound_divergence_time(b: BoundParams) -> float:
    """Blow-up time of the comparison ODE (+inf below the threshold)."""
    return blowup_time(comparison_ode(b))


def lifespan_upper_bound(b: BoundParams) -> float:
    """Lifespan upper bound from the diverging lower bound (+inf when the
    threshold is not cleared).

    Twice the comparison ODE's blow-up time: the factor 2 is the slack
    of the Gronwall step.
    """
    return 2.0 * lower_bound_divergence_time(b)

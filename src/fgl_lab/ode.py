"""Bernoulli comparison ODE and the blow-up bound formulas built on it.

The scalar model is

    f'(t) + C1 f(t) = C2 f(t)^q,   f(0) = f0 > 0,  C1 >= 0,  q > 1,

whose solution is known in closed form, one form for every C1 >= 0.
Solutions with f0 above the equilibrium (C1/C2)^{1/(q-1)} (0 at C1 = 0)
diverge in finite time; everything below decays to zero.  The
weighted-norm machinery for the evolution equation reduces to this
model, which is why the lower-bound / lifespan formulas live here.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BlowupExceededError, ThresholdNotMetError


@dataclass(frozen=True)
class OdeParams:
    """Coefficients of f' + c1*f = c2*f^q with initial value f0; c1 may be 0."""

    c1: float
    c2: float
    q: float
    f0: float

    def __post_init__(self):
        for name in ("c1", "c2", "q", "f0"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"OdeParams.{name} must be finite")
        if self.c1 < 0 or self.c2 <= 0:
            raise ValueError("OdeParams needs c1 >= 0 and c2 > 0")
        if self.q <= 1:
            raise ValueError("OdeParams exponent q must exceed 1")
        if self.f0 <= 0:
            raise ValueError("OdeParams initial value f0 must be positive")

    def __str__(self):
        return (f"c1 = {self.c1:.6g}, c2 = {self.c2:.6g}, "
                f"f0 = {self.f0:.6g}, q - 1 = {self.q - 1.0:.6g}")

    @property
    def equilibrium(self) -> float:
        """Stationary value (c1/c2)^{1/(q-1)} separating decay from blow-up;
        +inf past the double range."""
        try:
            return (self.c1 / self.c2) ** (1.0 / (self.q - 1.0))
        except OverflowError:
            return math.inf


def _blowup_scales(params: OdeParams) -> tuple[float, float]:
    """(T0, a): T0 = f0^{-m}/(c2 m), the blow-up time at c1 = 0 (m = q - 1),
    and a = c1 m T0; in floats where f0^{-m}, f0^{-m}/c2 and T0 are normal,
    else in logs."""
    m = params.q - 1.0
    try:
        head = params.f0 ** -m
    except OverflowError:
        head = math.inf
    u = head / params.c2
    if all(sys.float_info.min <= v < math.inf for v in (head, u, u / m)):
        return u / m, params.c1 * u
    log_u = -m * math.log(params.f0) - math.log(params.c2)
    log_a = math.log(params.c1) + log_u if params.c1 > 0 else -math.inf
    with np.errstate(over="ignore"):
        return tuple(np.exp([log_u - math.log(m), log_a]).tolist())


def blowup_time(params: OdeParams) -> float:
    """Exact blow-up time T0 g(a), g(a) = -log1p(-a)/a, g(0) = 1 (T0 and a
    from _blowup_scales): +inf when the solution is global (a >= 1) or
    past the double range."""
    t0, a = _blowup_scales(params)
    return math.inf if a >= 1.0 else t0 * (-math.log1p(-a) / a if a > 0.0 else 1.0)


def closed_form_eval(params: OdeParams, t: np.ndarray) -> np.ndarray:
    """Evaluate the closed-form solution at times t, strictly before blow-up.

    f(t) = f0 e^{-c1 t} (1 + x)^{-1/(q-1)}, x = -(t/T0) G(z), z = c1 (q-1) t,
    G(z) = -expm1(-z)/z and G(0) = 1 (T0, a from _blowup_scales; x = expm1(-z)/a
    for normal z); the power goes through log1p to keep its digits as q -> 1.

    Raises
    ------
    BlowupExceededError
        If any requested time is at or beyond the blow-up time.
    OverflowError
        If a value f(t) passes the double range, named with the first such t.
    """
    if np.any(t < 0):
        raise ValueError("closed form is defined for t >= 0")
    m = params.q - 1.0
    t0, a = _blowup_scales(params)
    t_star = blowup_time(params)
    with np.errstate(all="ignore"):  # at or past T*, or past the range: refused
        z = params.c1 * m * np.asarray(t, dtype=float)
        x = np.where(z >= sys.float_info.min, np.expm1(-z) / a, -(t / t0))
        f = params.f0 * np.exp(-params.c1 * t) * np.exp(-np.log1p(x) / m)
    if np.any(t >= t_star) or np.any(x <= -1.0):
        raise BlowupExceededError(
            f"requested time at or beyond blow-up time T* = {t_star:.6g}, {params}")
    outside = ~np.isfinite(f)
    if np.any(outside):
        t_out = np.broadcast_to(t, f.shape)[outside][0]
        raise OverflowError(
            f"the closed form's f(t) overflows at t = {t_out:.6g}, {params}")
    return f


# ----------------------------------------------------------------------
# Weighted-norm bound formulas


@dataclass(frozen=True)
class BoundParams:
    """Ingredients of the blow-up bounds for one run and one weight.

    p : nonlinearity power (> 1)
    kappa : operator-norm estimate of the weighted commutator (>= 0; 0 for
        h == 1, whose ||1/h||_2 is infinite on the line, sqrt(2L) on [-L, L))
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
            raise ValueError("BoundParams.kappa must be finite and non-negative")
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

    Q' = -2 kappa Q + 2 ||1/h||_2^{-(p-1)} Q^{(p+1)/2} (the torus mass bound at
    kappa = 0, ||1/h||_2 = sqrt(2L)); every bound below is read off its closed form.
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

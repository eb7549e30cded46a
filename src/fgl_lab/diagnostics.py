"""Post-hoc audits of recorded runs against the analytic inequalities.

Only mass_identity_residual takes a time derivative: a centered finite
difference on the (generally nonuniform) recorded times, on interior
samples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import TimeSeries
from .ode import (
    BoundParams,
    OdeParams,
    lower_bound_divergence_time,
    weighted_norm_lower_bound,
)


_MARGIN_TOL = 0.05

# The growth audit's budget: rounding (about 1e-13), plus kappa's Lanczos
# underestimate (<= 4.1e-9 relative), which costs 4.1e-9 kappa dt a step.
_GROWTH_TOL = 1e-9


@dataclass(frozen=True)
class MarginReport:
    """Normalized margins of an inequality along a run: margins > 0 clear
    the bound, and the report is 'violated' when the worst dips below
    minus the check's own tolerance (_MARGIN_TOL or _GROWTH_TOL)."""

    times: np.ndarray
    margins: np.ndarray
    violated: bool
    worst: float


def _report(times: np.ndarray, margins: np.ndarray, tol: float) -> MarginReport:
    worst = float(np.min(margins)) if margins.size else math.nan
    return MarginReport(times, margins, bool(worst < -tol), worst)


def check_weighted_lower_bound(series: TimeSeries,
                               b: BoundParams) -> MarginReport:
    """Margins of ||u(t)/h||_2 against its blow-up lower bound.

    Samples at or past the bound's divergence time are excluded from the
    margins: there the bound certifies blow-up outright.  ``worst`` is
    nan when no sample is left.
    """
    mask = series.times < lower_bound_divergence_time(b) * (1.0 - 1e-9)
    times = series.times[mask]
    bound = weighted_norm_lower_bound(b, times)
    return _report(times, (np.sqrt(series.momentum[mask]) - bound) / bound,
                   _MARGIN_TOL)


def check_growth_inequality(series: TimeSeries,
                            ode: OdeParams) -> MarginReport:
    """Margins of Q_{n+1} >= Phi(Q_n), which every Strang step obeys.

    Q = ||u/h||_2^2, ``ode`` is its comparison ODE, m = q - 1 and dt the
    step into row n+1 (one row per step).  Each linear half-flow costs at
    most e^{-c1 dt/2}, and by discrete Hoelder the nonlinear flow grows Q
    at least by the exact Bernoulli map B(Q) = (Q^{-m} - m c2 dt)^{-1/m};
    so Phi(Q) = e^{-c1 dt/2} B(e^{-c1 dt/2} Q), for any dt.  Margins
    Q_{n+1}/Phi(Q_n) - 1 sit at times[1:]; a bracket <= 0 is -inf.
    """
    m = ode.q - 1.0
    q, dt = series.momentum, series.dts[1:]
    # B's bracket at e^{-c1 dt/2} Q_n is positive iff s < 1
    s = m * ode.c2 * dt * (np.exp(-0.5 * ode.c1 * dt) * q[:-1]) ** m
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(q[1:] / q[:-1]) + ode.c1 * dt + np.log1p(-s) / m
    margins = np.where(s < 1.0, np.expm1(log_ratio), -np.inf)
    return _report(series.times[1:], margins, _GROWTH_TOL)


@dataclass(frozen=True)
class MassIdentityReport:
    """Residuals of d/dt ||u||_2^2 = factor * ||u||_{p+1}^{p+1} for factor 1 and 2.

    Residuals are relative to the identity's right-hand side; the
    best_factor is the one with smaller mean residual.
    """

    times: np.ndarray
    residual_one: np.ndarray
    residual_two: np.ndarray
    best_factor: int

    @property
    def best_residual(self) -> float:
        res = self.residual_one if self.best_factor == 1 else self.residual_two
        return float(np.max(res))


def mass_identity_residual(series: TimeSeries) -> MassIdentityReport:
    """Audit which prefactor the mass production identity actually carries."""
    if series.times.size < 5:
        raise ValueError("need at least 5 recorded samples for derivative checks")
    dmdt = np.gradient(series.mass, series.times)[1:-1]
    p_pow = series.lp1[1:-1]
    res = {
        k: np.abs(dmdt - k * p_pow) / (k * p_pow) for k in (1.0, 2.0)
    }
    best = 1 if np.mean(res[1.0]) <= np.mean(res[2.0]) else 2
    return MassIdentityReport(
        times=series.times[1:-1],
        residual_one=res[1.0],
        residual_two=res[2.0],
        best_factor=best,
    )

"""Post-hoc audits of recorded runs against the analytic inequalities.

All time derivatives are centered finite differences on the (generally
nonuniform) recorded sample times, so every check that involves a
derivative is evaluated on interior samples only.
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


@dataclass(frozen=True)
class MarginReport:
    """Normalized margins of an inequality along a run.

    margins > 0 means the checked quantity clears its bound; the report
    is 'violated' when the worst margin dips below -_MARGIN_TOL.
    """

    times: np.ndarray
    margins: np.ndarray
    violated: bool
    worst: float


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
    margins = (np.sqrt(series.momentum[mask]) - bound) / bound
    worst = float(np.min(margins)) if margins.size else math.nan
    return MarginReport(
        times=times,
        margins=margins,
        violated=bool(worst < -_MARGIN_TOL),
        worst=worst,
    )


def check_growth_inequality(series: TimeSeries,
                            ode: OdeParams) -> MarginReport:
    """Margins of Q' >= c2 Q^q - c1 Q on interior samples.

    ``ode`` is the comparison ODE (``comparison_ode``) whose coefficients
    the weighted momentum Q = ||u/h||_2^2 is checked against.  Margins
    are normalized by the scale c2 Q^q + c1 Q of the right-hand side.
    """
    if series.times.size < 5:
        raise ValueError("need at least 5 recorded samples for derivative checks")
    q = series.momentum
    qdot = np.gradient(q, series.times)
    rhs_scale = ode.c2 * q**ode.q + ode.c1 * q
    raw = qdot - ode.c2 * q**ode.q + ode.c1 * q
    margins = (raw / rhs_scale)[1:-1]
    worst = float(np.min(margins))
    return MarginReport(
        times=series.times[1:-1],
        margins=margins,
        violated=bool(worst < -_MARGIN_TOL),
        worst=worst,
    )


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

"""Headline numerical experiments tying the pieces together.

Every experiment that feeds an assertion re-evaluates its key numbers
on a domain-doubled grid (L -> 2L at fixed dx) and raises
GridStabilityError when the 5% stability budget is exceeded, so
truncation artifacts cannot masquerade as results.
"""
from __future__ import annotations

import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConvergenceError,
    GridStabilityError,
    SupercriticalError,
    ThresholdNotMetError,
)
from .evolution import (
    BlowupReport,
    CustomProfile,
    SimConfig,
    TimeSeries,
    initial_field,
    scaled_profile,
    simulate,
)
from .grid import FieldState, GridSpec, l2_norm, make_grid
from .ode import (
    BoundParams,
    LifespanBound,
    comparison_ode,
    critical_initial_norm,
    lifespan_upper_bound,
)
from .diagnostics import (
    MarginReport,
    check_growth_inequality,
    check_weighted_lower_bound,
)
from .weights import (
    WeightSpec,
    estimate_kappa,
    inv_h_tail_integrable,
    inv_weight_values,
    norm_inv_h,
)

DEFAULT_WEIGHT = WeightSpec(exponent=1.0, scale=1.0)


# ----------------------------------------------------------------------
# Grid stability


@dataclass(frozen=True)
class StabilityCheck:
    """Change of a scalar when the domain is doubled at fixed dx."""

    label: str
    value: float
    doubled_value: float
    rel_change: float
    budget: float

    @property
    def stable(self) -> bool:
        return self.rel_change <= self.budget


def domain_doubling_check(
    value: float, fn, grid: GridSpec, label: str, budget: float = 0.05
) -> StabilityCheck:
    """Compare value, fn's result on grid as the caller holds it, with fn
    on the domain-doubled grid (2L, 2N), the only grid fn runs on.

    Raises GridStabilityError when the relative change exceeds budget.
    """
    doubled = make_grid(2.0 * grid.half_length, 2 * grid.points)
    doubled_value = float(fn(doubled))
    denom = max(abs(value), abs(doubled_value), 1e-300)
    check = StabilityCheck(
        label=label,
        value=float(value),
        doubled_value=doubled_value,
        rel_change=abs(doubled_value - value) / denom,
        budget=budget,
    )
    if not check.stable:
        raise GridStabilityError(
            f"{label} moved {check.rel_change:.2%} under domain doubling "
            f"(budget {budget:.0%}): {check.value:.6g} -> {doubled_value:.6g}"
        )
    return check


# ----------------------------------------------------------------------
# Lifespan scaling sweep


@dataclass(frozen=True)
class SweepResult:
    """Power-law fit over a one-parameter family of runs."""

    parameter: str
    parameter_values: np.ndarray
    measured: np.ndarray
    included: np.ndarray
    slope: float
    intercept: float
    residual: float
    stability: StabilityCheck


def _run_report(cfg: SimConfig) -> BlowupReport:
    # Only the report is kept, so record just the first and last samples.
    _, report = simulate(replace(cfg, record_every=sys.maxsize))
    return report


def lifespan_sweep(
    base: SimConfig, profile, r_values, workers: int = 1
) -> SweepResult:
    """Detected blow-up time versus amplitude factor R, with log-log fit.

    Members that do not blow up before base.t_max are excluded from the
    fit and flagged in ``included``.  The largest blowing-up member is
    re-run on a domain-doubled grid as the stability check.
    """
    if isinstance(profile, CustomProfile):
        raise ValueError("lifespan sweeps need an analytic profile (domain doubling)")
    r_arr = np.asarray(sorted(float(r) for r in r_values))
    if r_arr.size < 1 or np.any(r_arr <= 0):
        raise ValueError("amplitude factors must be positive")
    configs = [
        replace(base, profile=scaled_profile(profile, r)) for r in r_arr
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_run_report, configs))
    else:
        reports = [_run_report(cfg) for cfg in configs]

    included = np.array([rep.blew_up for rep in reports])
    measured = np.array(
        [rep.t_detected if rep.blew_up else math.nan for rep in reports]
    )
    if int(included.sum()) < 3:
        raise ValueError(
            f"only {int(included.sum())} members blew up; need >= 3 for a fit"
        )
    logs_r = np.log(r_arr[included])
    logs_t = np.log(measured[included])
    slope, intercept = np.polyfit(logs_r, logs_t, 1)
    resid = logs_t - (slope * logs_r + intercept)

    r_big = float(r_arr[included][-1])
    t_big = float(measured[included][-1])
    cfg_big = replace(base, profile=scaled_profile(profile, r_big))

    def t_detected_on(grid: GridSpec) -> float:
        rep = _run_report(replace(cfg_big, grid=grid))
        if not rep.blew_up:
            raise GridStabilityError("stability rerun did not blow up")
        return rep.t_detected

    return SweepResult(
        parameter="R",
        parameter_values=r_arr,
        measured=measured,
        included=included,
        slope=float(slope),
        intercept=float(intercept),
        residual=float(np.sqrt(np.mean(resid**2))),
        stability=domain_doubling_check(
            t_big, t_detected_on, base.grid, label=f"t_detected(R={r_big:g})"
        ),
    )


# ----------------------------------------------------------------------
# Commutator-norm scaling


def commutator_scaling(
    w: WeightSpec,
    r_values,
    base_grid: GridSpec,
    tol: float = 1e-8,
    seed: int = 0,
) -> SweepResult:
    """kappa estimates across dilations of the weight on matched grids.

    For each R the weight scale and the domain are dilated together
    (L = R L0 at fixed dx), which is the discrete stand-in for the
    ambient-space similarity giving kappa_R = kappa_1 / R.  Refuses
    (ValueError, before any kappa) the flat weight h == 1: it commutes
    with |D|, so kappa is 0 at every R and there is no slope to fit.
    """
    if w.exponent == 0:
        raise ValueError(
            "weight exponent 0 gives h == 1, which commutes with |D|: "
            "kappa = 0 at every R, so there is no scaling slope to fit"
        )
    r_arr = np.asarray(sorted(float(r) for r in r_values))
    if np.any(r_arr < 1):
        raise ValueError("dilation factors must be >= 1")
    kappas = np.array([
        estimate_kappa(
            w.rescaled(r),
            make_grid(base_grid.half_length * r, int(base_grid.points * r)),
            tol=tol, seed=seed,
        ).kappa
        for r in r_arr
    ])
    slope, intercept = np.polyfit(np.log(r_arr), np.log(kappas), 1)
    resid = np.log(kappas) - (slope * np.log(r_arr) + intercept)

    def kappa_on(grid: GridSpec) -> float:
        return estimate_kappa(w, grid, tol=tol, seed=seed).kappa

    kappa_1 = kappas[0] if r_arr[0] == 1.0 else kappa_on(base_grid)
    return SweepResult(
        parameter="R",
        parameter_values=r_arr,
        measured=kappas,
        included=np.ones_like(r_arr, dtype=bool),
        slope=float(slope),
        intercept=float(intercept),
        residual=float(np.sqrt(np.mean(resid**2))),
        stability=domain_doubling_check(
            kappa_1, kappa_on, base_grid, label="kappa(R=1)"
        ),
    )


# ----------------------------------------------------------------------
# Dyadic threshold search for small data


@dataclass(frozen=True)
class ThresholdSearch:
    """Outcome of the dyadic weight-dilation search."""

    r0: float
    bound: LifespanBound
    bound_params: BoundParams
    predicted_r0: float
    history: tuple
    stability: StabilityCheck


def _weighted_norm(u: FieldState, w: WeightSpec) -> float:
    dens = np.abs(u.values) ** 2 * inv_weight_values(w, u.grid) ** 2
    return math.sqrt(u.grid.dx * float(np.sum(dens)))


def predicted_threshold_scale(
    p: float, kappa_base: float, data_norm: float, weight: WeightSpec
) -> float:
    """Scale R at which the dilated weight's threshold meets the data.

    Solves (kappa_base/R)^{1/(p-1)} ||1/h_R||_2 = data_norm for R, using
    the ambient-space identities kappa_R = kappa_base / R and, for
    h = <x/a>^s, ||1/h_R||_2^2 = a R C_s^2 with
    C_s^2 = int (1+x^2)^{-s} dx = sqrt(pi) Gamma(s-1/2) / Gamma(s).
    Returns +inf when 2s <= 1, where ||1/h_R||_2 diverges.
    """
    expo = 0.5 - 1.0 / (p - 1.0)
    if expo >= 0:
        raise SupercriticalError("threshold scale prediction needs p < 3 in 1-d")
    if not inv_h_tail_integrable(weight):
        return math.inf
    s = weight.exponent
    c_sq = math.sqrt(math.pi) * math.gamma(s - 0.5) / math.gamma(s)
    base = kappa_base ** (1.0 / (p - 1.0)) * math.sqrt(c_sq * weight.scale)
    return (data_norm / base) ** (1.0 / expo)


def subcritical_threshold(
    u0: FieldState,
    p: float,
    weight: WeightSpec = DEFAULT_WEIGHT,
    max_doublings: int = 8,
    tol: float = 1e-8,
    seed: int = 0,
    max_points: int = 8192,
) -> ThresholdSearch:
    """Find the first dyadic weight dilation certifying blow-up of small data.

    Walks R = 1, 2, 4, ... computing the (tail-corrected) norm of 1/h_R,
    the commutator norm on grids that dilate with the weight, and the
    weighted data norm on the data's own grid, until the data strictly
    clears the threshold.  The continuum prediction of that dilation
    starts from the R = 1 row's kappa.  Refuses at or above the Fujita
    power p_F = 3, where the threshold no longer decays, (through
    norm_inv_h, before any kappa) weights whose ||1/h||_2 is infinite,
    and (ThresholdNotMetError, before any kappa) zero data, which no
    dilation lifts above a positive threshold.
    """
    if p <= 1:
        raise ValueError("need p > 1")
    p_fujita = 3.0
    if p >= p_fujita:
        raise SupercriticalError(
            f"p = {p:g} is at or above the Fujita power {p_fujita:g}; "
            "the dilation threshold does not decay"
        )

    base_grid = u0.grid
    history = []
    r = 1.0
    for _ in range(max_doublings + 1):
        points = int(base_grid.points * r)
        if points > max_points:
            raise ConvergenceError(
                f"threshold search exceeded the grid budget at R = {r:g} "
                f"({points} > {max_points} points)"
            )
        grid_r = make_grid(base_grid.half_length * r, points)
        w_r = weight.rescaled(r)
        ninv_r = norm_inv_h(w_r, grid_r)
        v0_r = _weighted_norm(u0, w_r)
        if v0_r == 0:
            raise ThresholdNotMetError(
                "the initial data is zero (||u0/h||_2 = 0), so no weight "
                "dilation clears the blow-up threshold"
            )
        kappa_r = estimate_kappa(w_r, grid_r, tol=tol, seed=seed).kappa
        threshold = kappa_r ** (1.0 / (p - 1.0)) * ninv_r
        met = v0_r > threshold
        history.append(
            {"R": r, "kappa": kappa_r, "inv_h_norm": ninv_r,
             "weighted_data_norm": v0_r, "threshold": threshold, "met": met}
        )
        if met:
            b = BoundParams(
                p=p,
                kappa=kappa_r,
                inv_weight_norm=ninv_r,
                initial_weighted_norm=v0_r,
            )
            return ThresholdSearch(
                r0=r,
                bound=lifespan_upper_bound(b, variant="conservative"),
                bound_params=b,
                predicted_r0=predicted_threshold_scale(
                    p, history[0]["kappa"], l2_norm(u0), weight),
                history=tuple(history),
                stability=domain_doubling_check(
                    kappa_r,
                    lambda g: estimate_kappa(w_r, g, tol=tol, seed=seed).kappa,
                    grid_r,
                    label=f"kappa(R={r:g})",
                ),
            )
        r *= 2.0
    raise ConvergenceError(
        f"threshold not met within {max_doublings} doublings (last R = {r / 2:g})"
    )


# ----------------------------------------------------------------------
# End-to-end bound consistency audit


@dataclass(frozen=True)
class BoundsAudit:
    """Everything the bound-consistency experiment measured."""

    bound_params: BoundParams
    threshold_value: float
    bound: LifespanBound
    report: BlowupReport
    series: TimeSeries
    lower_margins: MarginReport
    growth_margins: MarginReport
    stability: tuple[StabilityCheck, ...]


def bounds_consistency(
    cfg: SimConfig,
    weight: WeightSpec = DEFAULT_WEIGHT,
    required_margin: float = 1.1,
    margin_tol: float = 0.05,
    kappa_tol: float = 1e-8,
    seed: int = 0,
    variant: str = "conservative",
) -> BoundsAudit:
    """Run one blow-up simulation and audit it against all three bounds.

    Refuses (ThresholdNotMetError) unless the initial data clears the
    blow-up threshold by the required margin, and, before any kappa,
    (ValueError from norm_inv_h) weights whose ||1/h||_2 is infinite and
    (ValueError) zero initial data.  Choose cfg.dt_max
    so that kappa * dt stays below ~0.01, keeping the finite-difference
    checks honest.
    """
    u0 = initial_field(cfg.profile, cfg.grid)
    ninv = norm_inv_h(weight, cfg.grid)
    v0 = _weighted_norm(u0, weight)
    if v0 == 0:
        raise ValueError(
            "the initial data is zero (||u0/h||_2 = 0): there is no "
            "blow-up to bound"
        )
    kappa = estimate_kappa(weight, cfg.grid, tol=kappa_tol, seed=seed).kappa
    b = BoundParams(
        p=cfg.p, kappa=kappa, inv_weight_norm=ninv, initial_weighted_norm=v0
    )
    threshold = critical_initial_norm(b)
    if v0 < required_margin * threshold:
        raise ThresholdNotMetError(
            f"||u0/h||_2 = {v0:.6g} is below {required_margin:g} x threshold "
            f"= {required_margin * threshold:.6g}"
        )

    weights = (weight,) if weight == DEFAULT_WEIGHT else (weight, DEFAULT_WEIGHT)
    series, report = simulate(cfg, weights=weights)

    lower = check_weighted_lower_bound(
        series, b, weight=weight, variant=variant, tol=margin_tol
    )
    growth = check_growth_inequality(
        series, comparison_ode(b), weight=weight, tol=margin_tol
    )

    return BoundsAudit(
        bound_params=b,
        threshold_value=threshold,
        bound=lifespan_upper_bound(b, variant=variant),
        report=report,
        series=series,
        lower_margins=lower,
        growth_margins=growth,
        stability=tuple(
            domain_doubling_check(value, fn, cfg.grid, label)
            for value, fn, label in (
                (kappa,
                 lambda g: estimate_kappa(weight, g, tol=kappa_tol, seed=seed).kappa,
                 "kappa"),
                (ninv, lambda g: norm_inv_h(weight, g), "inv_h_norm"),
                (v0,
                 lambda g: _weighted_norm(initial_field(cfg.profile, g), weight),
                 "weighted_data_norm"),
            )
        ),
    )

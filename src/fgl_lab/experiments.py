"""Headline numerical experiments tying the pieces together.

Every experiment that feeds an assertion re-evaluates its key numbers
on a domain-doubled grid (L -> 2L at fixed dx) and raises
GridStabilityError when the 5% stability budget is exceeded, so
truncation artifacts cannot masquerade as results.  The dilation
ladders (commutator scaling and the threshold search) also refine dx
at fixed L, with a 1e-3 budget, because they read every rung off one
kappa solve.  A kappa check re-solves at a hundredth of its budget, not
at the 1e-8 of the kappa it checks, and starts from the checked solve's
top Ritz vector, so the seed enters only the checked solve (see
_kappa_check).
"""
from __future__ import annotations

import math
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
    SimConfig,
    TimeSeries,
    initial_field,
    simulate,
)
from .grid import FieldState, GridSpec, l2_norm, make_grid
from .ode import (
    BoundParams,
    comparison_ode,
    critical_initial_norm,
    lifespan_upper_bound,
)
from .diagnostics import (
    MarginReport,
    check_growth_inequality,
    check_weighted_lower_bound,
)
from .kernel_decay import _loglog_fit
from .weights import (
    CommutatorEstimate,
    WeightSpec,
    _gamma_ratio,
    _require_integrable,
    _require_line_kappa,
    estimate_kappa,
    inv_weight_values,
    norm_inv_h,
)


# ----------------------------------------------------------------------
# Grid stability


@dataclass(frozen=True)
class StabilityCheck:
    """Change of a scalar when the grid doubles its point count.

    Two kinds share this record.  Domain doubling compares the value on
    (L, N) with (2L, 2N), at fixed dx, and catches truncation of the
    domain.  dx refinement compares it with (L, 2N), at fixed L, and
    catches an unresolved grid.  ``doubled_value`` is the value on the
    doubled grid in either case.
    """

    label: str
    value: float
    doubled_value: float
    rel_change: float
    budget: float

    @property
    def stable(self) -> bool:
        return self.rel_change <= self.budget


_DOUBLING_BUDGET = 0.05


def domain_doubling_check(
    value: float, fn, grid: GridSpec, label: str,
    budget: float = _DOUBLING_BUDGET,
    refine: bool = False,
) -> StabilityCheck:
    """Compare value, fn's result on grid as the caller holds it, with fn
    on a grid of 2N points, the only grid fn runs on: the domain-doubled
    grid (2L, 2N), or with refine=True the dx-refined grid (L, 2N).

    Raises GridStabilityError, naming the kind of check, when the
    relative change exceeds budget.
    """
    half_length = grid.half_length if refine else 2.0 * grid.half_length
    doubled_value = float(fn(make_grid(half_length, 2 * grid.points)))
    denom = max(abs(value), abs(doubled_value), 1e-300)
    check = StabilityCheck(
        label=label,
        value=float(value),
        doubled_value=doubled_value,
        rel_change=abs(doubled_value - value) / denom,
        budget=budget,
    )
    if not check.stable:
        kind = "dx refinement" if refine else "domain doubling"
        raise GridStabilityError(
            f"{label} moved {check.rel_change:.2%} under {kind} "
            f"(budget {budget:.2%}): {check.value:.6g} -> {doubled_value:.6g}"
        )
    return check


# ----------------------------------------------------------------------
# Lifespan scaling sweep


@dataclass(frozen=True)
class SweepResult:
    """Power-law fit over the factors R of a family of runs."""

    parameter_values: np.ndarray
    measured: np.ndarray
    included: np.ndarray
    slope: float
    intercept: float
    residual: float
    stability: StabilityCheck
    refinement: StabilityCheck | None = None  # dx check; dilation ladders only


def _run_report(cfg: SimConfig) -> BlowupReport:
    # Only the report is kept, so the steps go unrecorded and can be quiet:
    # simulate skips their end-of-step ifft while the Wiener norm bounds
    # the sup below every threshold.
    _, report = simulate(cfg, every_step=False)
    return report


def _scaled(cfg: SimConfig, r: float) -> SimConfig:
    """cfg with its profile's amplitude multiplied by r."""
    return replace(cfg, profile=replace(cfg.profile,
                                        amplitude=cfg.profile.amplitude * r))


def lifespan_sweep(base: SimConfig, r_values, workers: int = 1) -> SweepResult:
    """Detected blow-up time versus amplitude factor R, with log-log fit.

    Member R runs base with its profile scaled by R.  Members that do
    not blow up before base.t_max are excluded from the fit and flagged
    in ``included``.  The largest blowing-up member is re-run on a
    domain-doubled grid as the stability check.  The runs share a
    process pool of min(workers, members) processes, or run in this
    process when that is 1.  Refuses (ValueError, before any run)
    factors that are not positive or not distinct: a repeated factor
    adds no point to the fit.  A profile with no ``amplitude`` field
    fails before any run too, where it is scaled.
    """
    r_arr = np.asarray(sorted(float(r) for r in r_values))
    if r_arr.size < 1 or np.any(r_arr <= 0):
        raise ValueError("amplitude factors must be positive")
    if np.any(np.diff(r_arr) == 0):
        raise ValueError(f"amplitude factors must be distinct, got {r_arr.tolist()}")
    configs = [_scaled(base, r) for r in r_arr]
    # No more processes than members: a pool forks all of its workers
    # at the first submit, busy or not.
    workers = min(workers, len(configs))
    if workers > 1:
        # Imported here: it loads multiprocessing, which no other run needs.
        from concurrent.futures import ProcessPoolExecutor

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
    slope, intercept, residual = _loglog_fit(r_arr[included], measured[included])

    r_big = float(r_arr[included][-1])
    t_big = float(measured[included][-1])
    cfg_big = _scaled(base, r_big)

    def t_detected_on(grid: GridSpec) -> float:
        rep = _run_report(replace(cfg_big, grid=grid))
        if not rep.blew_up:
            raise GridStabilityError("stability rerun did not blow up")
        return rep.t_detected

    return SweepResult(
        parameter_values=r_arr,
        measured=measured,
        included=included,
        slope=slope,
        intercept=intercept,
        residual=residual,
        stability=domain_doubling_check(
            t_big, t_detected_on, base.grid, label=f"t_detected(R={r_big:g})"
        ),
    )


# ----------------------------------------------------------------------
# Commutator-norm scaling

_KAPPA_DX_BUDGET = 1e-3


def _kappa_check(w: WeightSpec, base: CommutatorEstimate, grid: GridSpec,
                 label: str, refine: bool = False) -> StabilityCheck:
    """The domain doubling check (5% budget) of the kappa solved on grid,
    or with refine=True its dx refinement check (_KAPPA_DX_BUDGET).

    The re-solve runs at tol = budget / 100: the top Ritz value is then
    within tol / 2 of kappa, relative, which is at most 0.5% of the
    budget.  The base kappa keeps estimate_kappa's default tolerance.

    The re-solve starts from the base solve's top Ritz vector, read at
    the check grid's nodes (linear between them, zero outside [-L, L)).
    On (2L, 2N) node j of (L, N) is node j + N/2, so this pads the vector
    with N/2 zeros on each side; on (L, 2N) each new node takes the mean
    of its two neighbours.  At s = 1 the re-solve then stops after 3 or 4
    applications on (2L, 2N) and 10 to 14 on (L, 2N), where a random
    start takes 10 to 12 and 14 to 17.  The start also keeps it on the
    top singular value of A where the top two lie close (1.6e-5 apart,
    relative, at (25, 1024)): a random start can stop on the second.
    """
    budget = _KAPPA_DX_BUDGET if refine else _DOUBLING_BUDGET

    def kappa_on(g: GridSpec) -> float:
        start = np.interp(g.nodes, grid.nodes, base.vector, left=0.0, right=0.0)
        return estimate_kappa(w, g, tol=budget / 100, start=start).kappa

    return domain_doubling_check(base.kappa, kappa_on, grid, label,
                                 budget=budget, refine=refine)


def _kappa_checks(w: WeightSpec, base: CommutatorEstimate, grid: GridSpec):
    """(domain doubling, dx refinement) checks of kappa at R = 1 on grid.

    A dilation ladder reads every rung off kappa_1, so these two checks
    at R = 1 stand for the checks at every rung.  _KAPPA_DX_BUDGET sits
    above the largest move the test grids show, 7.1e-4 at (6.25, 128).
    """
    return (_kappa_check(w, base, grid, "kappa(R=1)"),
            _kappa_check(w, base, grid, "kappa(R=1)", refine=True))


# Each rung is kappa_1 / R, read off one solve at R = 1: the ladder picks
# table rows, not solves.
_COMMUTATOR_R_VALUES = (1.0, 2.0, 4.0, 8.0)


def commutator_scaling(
    w: WeightSpec,
    base_grid: GridSpec,
    seed: int = 0,
) -> SweepResult:
    """kappa across the dilations _COMMUTATOR_R_VALUES of the weight, from
    one kappa solve.

    Rung R dilates the weight scale and the domain together, h_R on the
    grid (R L, N).  The nodes of that grid are R times those of (L, N)
    and its wavenumbers 1/R times, so A(h_R; R L, N) = A(h_1; L, N) / R:
    exactly in floating point for R a power of two, to rounding
    otherwise.  kappa_R = kappa_1 / R is thus the rung's operator norm,
    not a model of it.  So kappa is estimated once, at R = 1 on
    base_grid from the ``seed`` vector, and checked there under domain
    doubling (5% budget) and under dx refinement, N -> 2N at fixed L
    (1e-3 budget); both re-solves start from its top Ritz vector.
    Refuses (ValueError, before any kappa) the flat weight h == 1: it
    commutes with |D|, so kappa is 0 at every R and there is no slope to
    fit.
    """
    if w.exponent == 0:
        raise ValueError(
            "weight exponent 0 gives h == 1, which commutes with |D|: "
            "kappa = 0 at every R, so there is no scaling slope to fit"
        )
    r_arr = np.array(_COMMUTATOR_R_VALUES)
    base = estimate_kappa(w, base_grid, seed=seed)
    kappas = base.kappa / r_arr
    slope, intercept, residual = _loglog_fit(r_arr, kappas)
    stability, refinement = _kappa_checks(w, base, base_grid)
    return SweepResult(
        parameter_values=r_arr,
        measured=kappas,
        included=np.ones_like(r_arr, dtype=bool),
        slope=slope,
        intercept=intercept,
        residual=residual,
        stability=stability,
        refinement=refinement,
    )


# ----------------------------------------------------------------------
# Dyadic threshold search for small data


@dataclass(frozen=True)
class ThresholdSearch:
    """Outcome of the dyadic weight-dilation search."""

    r0: float
    bound: float  # certified lifespan upper bound
    predicted_r0: float
    history: tuple
    stability: StabilityCheck
    refinement: StabilityCheck


def _weighted_norm(u: FieldState, w: WeightSpec) -> float:
    dens = np.abs(u.values) ** 2 * inv_weight_values(w, u.grid) ** 2
    return math.sqrt(u.grid.dx * float(np.sum(dens)))


def _certificate_norms(u0: FieldState, w: WeightSpec) -> tuple[float, float]:
    """(||1/h||_2, ||u0/h||_2) on u0's grid, the inputs beside kappa.

    Refuses (ValueError) a weight whose kappa grows with L
    (_require_line_kappa) or whose ||1/h||_2 is infinite (norm_inv_h),
    and zero data, which clear no threshold.
    """
    _require_line_kappa(w)
    ninv = norm_inv_h(w, u0.grid)
    v0 = _weighted_norm(u0, w)
    if v0 == 0:
        raise ValueError("the initial data is zero (||u0/h||_2 = 0), so it "
                         "clears no blow-up threshold")
    return ninv, v0


def _require_below_fujita(p: float) -> None:
    """Refuse p >= 3, the Fujita power, where the dilated threshold stops decaying."""
    if p >= 3.0:
        raise SupercriticalError(f"p = {p:g} is at or above the Fujita power 3; "
                                 "the dilation threshold does not decay")


def predicted_threshold_scale(
    p: float, kappa_base: float, data_norm: float, weight: WeightSpec
) -> float:
    """Scale R at which the dilated weight's threshold meets the data.

    Solves (kappa_base/R)^{1/(p-1)} ||1/h_R||_2 = data_norm for R, using
    the ambient-space identities kappa_R = kappa_base / R and, for
    h = <x/a>^s, ||1/h_R||_2^2 = a R C_s^2 with
    C_s^2 = int (1+x^2)^{-s} dx = sqrt(pi) Gamma(s-1/2) / Gamma(s), and
    data_norm in place of ||u0/h_R||_2, its limit as R grows.  Refuses
    p >= 3 (SupercriticalError) and, as norm_inv_h does, 2s <= 1
    (ValueError): then ||1/h_R||_2 is infinite.
    """
    _require_below_fujita(p)
    _require_integrable(weight)
    c_sq = math.sqrt(math.pi) * _gamma_ratio(weight.exponent)
    threshold = critical_initial_norm(BoundParams(
        p=p, kappa=kappa_base, inv_weight_norm=math.sqrt(c_sq * weight.scale),
        initial_weighted_norm=data_norm))
    return (data_norm / threshold) ** (1.0 / (0.5 - 1.0 / (p - 1.0)))


_MAX_DOUBLINGS = 8


def subcritical_threshold(
    u0: FieldState,
    p: float,
    weight: WeightSpec = WeightSpec(),
    seed: int = 0,
) -> ThresholdSearch:
    """Find the first dyadic weight dilation certifying blow-up of small data.

    Walks R = 1, 2, 4, ... until the data strictly clears the threshold.
    Rung R puts h_R on the grid (R L, N): its kappa is kappa_1 / R by the
    grid identity of commutator_scaling, and the same dilation of nodes
    and tail gives ||1/h_R||_2^2 = R ||1/h_1||_2^2, so both are read off
    R = 1 on u0's grid, with one Lanczos solve.  The weighted data norm
    is computed on u0's grid.  kappa_1 is checked under domain doubling
    and under dx refinement, which stand for the same checks at every
    rung.  The continuum prediction of the dilation starts from kappa_1.

    Refuses at or above the Fujita power p_F = 3, where the dilated
    threshold no longer decays: that is where this dilation argument
    stops, not where the dynamics change (small data blow up at p >= 3
    too), and, before any kappa, what _certificate_norms refuses.
    """
    if p <= 1:
        raise ValueError("need p > 1")
    _require_below_fujita(p)
    ninv, _ = _certificate_norms(u0, weight)
    base = estimate_kappa(weight, u0.grid, seed=seed)
    kappa_1 = base.kappa

    history = []
    r = 1.0
    for _ in range(_MAX_DOUBLINGS + 1):
        ninv_r = math.sqrt(r * ninv**2)
        v0_r = _weighted_norm(u0, replace(weight, scale=weight.scale * r))
        b = BoundParams(p=p, kappa=kappa_1 / r, inv_weight_norm=ninv_r,
                        initial_weighted_norm=v0_r)
        threshold = critical_initial_norm(b)
        met = v0_r > threshold
        history.append(
            {"R": r, "kappa": b.kappa, "inv_h_norm": ninv_r,
             "weighted_data_norm": v0_r, "threshold": threshold, "met": met}
        )
        if met:
            stability, refinement = _kappa_checks(weight, base, u0.grid)
            return ThresholdSearch(
                r0=r,
                bound=lifespan_upper_bound(b),
                predicted_r0=predicted_threshold_scale(
                    p, kappa_1, l2_norm(u0), weight),
                history=tuple(history),
                stability=stability,
                refinement=refinement,
            )
        r *= 2.0
    raise ConvergenceError(
        f"threshold not met within {_MAX_DOUBLINGS} doublings (last R = {r / 2:g})"
    )


# ----------------------------------------------------------------------
# End-to-end bound consistency audit

_REQUIRED_MARGIN = 1.1


@dataclass(frozen=True)
class BoundsAudit:
    """Everything the bound-consistency experiment measured."""

    bound_params: BoundParams
    threshold_value: float
    bound: float  # certified lifespan upper bound
    report: BlowupReport
    series: TimeSeries
    lower_margins: MarginReport
    growth_margins: MarginReport
    stability: tuple[StabilityCheck, ...]


def bounds_consistency(
    cfg: SimConfig,
    weight: WeightSpec = WeightSpec(),
    seed: int = 0,
) -> BoundsAudit:
    """Run one blow-up simulation and audit it against all three bounds.

    Refuses (ThresholdNotMetError) unless the initial data clears the
    blow-up threshold by the factor _REQUIRED_MARGIN, and, before any
    kappa, what _certificate_norms refuses.
    """
    ninv, v0 = _certificate_norms(initial_field(cfg.profile, cfg.grid), weight)
    base = estimate_kappa(weight, cfg.grid, seed=seed)
    b = BoundParams(
        p=cfg.p, kappa=base.kappa, inv_weight_norm=ninv,
        initial_weighted_norm=v0,
    )
    threshold = critical_initial_norm(b)
    if v0 < _REQUIRED_MARGIN * threshold:
        raise ThresholdNotMetError(
            f"||u0/h||_2 = {v0:.6g} is below {_REQUIRED_MARGIN:g} x threshold "
            f"= {_REQUIRED_MARGIN * threshold:.6g}"
        )

    series, report = simulate(cfg, weight=weight)
    return BoundsAudit(
        bound_params=b,
        threshold_value=threshold,
        bound=lifespan_upper_bound(b),
        report=report,
        series=series,
        lower_margins=check_weighted_lower_bound(series, b),
        growth_margins=check_growth_inequality(series, comparison_ode(b)),
        stability=(
            _kappa_check(weight, base, cfg.grid, "kappa"),
            domain_doubling_check(ninv, lambda g: norm_inv_h(weight, g),
                                  cfg.grid, "inv_h_norm"),
            domain_doubling_check(
                v0, lambda g: _weighted_norm(initial_field(cfg.profile, g), weight),
                cfg.grid, "weighted_data_norm"),
        ),
    )

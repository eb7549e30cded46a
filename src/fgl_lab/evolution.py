"""Split-step time integration with built-in finite-time blow-up detection.

One Strang step of size dt is

    e^{-i|D| dt/2}  o  N_dt  o  e^{-i|D| dt/2},

where both factors are exact: the linear half-steps are unit-modulus
Fourier multipliers and N_dt advances the focusing nonlinearity
pointwise through its closed-form modulus solution

    rho(dt) = (rho0^{-(p-1)} - (p-1) dt)^{-1/(p-1)},  phase frozen.

The step size adapts to keep the nonlinear amplification per step at a
fixed fraction theta of the distance to the substep singularity.  A run
ends either at t_max or at the first of three blow-up signals: the sup
norm crossing its threshold, the adaptive dt underflowing (below
dt_min, or too small to move t), or the nonlinear substep turning
singular inside a step.

simulate runs this step on raw arrays: it keeps the spectrum that ends
each step, caches the phase symbol (N/2 + 1 exponentials, mirrored)
while dt repeats, and takes sup, dt and every recorded column from one
density |u|^2 and that spectrum.  The phase product, both densities,
the substep gain, |fft(u)| and the finiteness mask go into buffers
allocated once per run: besides its FFT outputs, an unrecorded step
allocates one temporary, Im^2 in abs_squared.  A recorded or non-quiet
step costs three FFTs, a quiet one two.  A step is quiet when the run
does not record every step and the Wiener norm sum|fft(u)|/N, which
bounds sup|u|, proves that the sup stays below every threshold and the
next dt is dt_max; such a step never forms u = ifft(spec).  The
FieldState functions strang_step, nonlinear_substep and choose_dt are
its tested reference.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import CorruptFieldError, SingularSubstepError
from .grid import (
    FieldState,
    GridSpec,
    abs_squared,
    apply_half_wave,
    h1_norm_from_spectrum,
    half_wave_phase_symbol,
    sup_norm,
)
from .weights import WeightSpec, inv_weight_values

# The smallest normal float: a density below it has lost digits.
_TINY = float(np.finfo(float).tiny)


# ----------------------------------------------------------------------
# Initial data profiles: each is a function of the node array x


@dataclass(frozen=True)
class GaussianProfile:
    """amplitude * exp(-x^2 / width^2)."""

    amplitude: float = 1.0
    width: float = 1.0

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError("Gaussian width must be positive")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return (self.amplitude * np.exp(-x**2 / self.width**2)).astype(complex)


@dataclass(frozen=True)
class ConstantProfile:
    """amplitude at every x."""

    amplitude: complex = 1.0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.full(x.shape, self.amplitude, dtype=complex)


def initial_field(profile: Callable[[np.ndarray], np.ndarray],
                  grid: GridSpec) -> FieldState:
    """Realize an initial-data profile, a function of x, on a grid."""
    return FieldState(grid, profile(grid.nodes))


def homogeneous_blowup_time(amplitude: float, p: float) -> float:
    """Exact lifespan of spatially constant data of modulus ``amplitude``."""
    return 1.0 / ((p - 1.0) * amplitude ** (p - 1.0))


# ----------------------------------------------------------------------
# Configuration and step operations


# Most steps a run may ask for (t_max / dt_max): it bounds a run's steps
# and recorded rows, at this many plus the few dozen of a blow-up.
_MAX_STEPS = 10**6


@dataclass(frozen=True)
class SimConfig:
    """Everything one evolution run depends on."""

    grid: GridSpec
    p: float
    profile: Callable[[np.ndarray], np.ndarray]
    t_max: float
    theta: float = 0.5
    dt_max: float = 0.05
    dt_min: float = 1e-12
    sup_threshold: float = 1e8

    def __post_init__(self):
        if self.p <= 1:
            raise ValueError("nonlinearity power p must exceed 1")
        if not 0 < self.t_max < math.inf:
            raise ValueError("t_max must be positive and finite")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("step-safety factor theta must lie in (0, 1)")
        if not 0 < self.dt_min <= self.dt_max < math.inf:
            raise ValueError("require 0 < dt_min <= dt_max < inf")
        if self.t_max / self.dt_max > _MAX_STEPS:
            raise ValueError(
                f"t_max = {self.t_max:g} over dt_max = {self.dt_max:g} asks "
                f"for more than {_MAX_STEPS:g} steps")
        if self.sup_threshold <= 0:
            raise ValueError("sup_threshold must be positive")


def _stable_dt(sup: float, p: float, theta: float, dt_max: float) -> float:
    """Adaptive step: theta over the nonlinear blow-up rate at sup norm sup.

    A rate of 0, from zero data or a power of sup that underflows, takes
    dt_max.
    """
    rate = (p - 1.0) * sup ** (p - 1.0)
    if rate == 0.0:
        return dt_max
    return min(dt_max, theta / rate)


def _quiet_limit(cfg: SimConfig) -> float:
    """Wiener-norm level below which a state provably needs no sup.

    The sup of u = ifft(spec) is at most the Wiener norm W = sum|spec|/N,
    up to rounding of order eps log N.  Below this limit, which keeps a
    relative margin of 1e-6 over that rounding, the sup stays under
    sup_threshold and theta/((p-1) sup^{p-1}) stays above dt_max, so the
    next step is exactly dt_max and no threshold is crossed.
    """
    margin = 1.0 - 1e-6
    limit = margin * cfg.sup_threshold
    rate = margin * cfg.theta / ((cfg.p - 1.0) * cfg.dt_max)
    try:
        limit = min(limit, rate ** (1.0 / (cfg.p - 1.0)))
    except OverflowError:
        pass
    return limit


def _substep_gain(dens: np.ndarray, dt: float, m: float) -> np.ndarray:
    """Modulus factor (1 - m dt |w|^m)^{-1/m} from dens = |w|^2, in place.

    Overwrites dens with the gain and returns it.  Raises
    SingularSubstepError as nonlinear_substep does, with dens untouched.
    A rate m sup^m of 0 (zero data, or a power that underflows) is never
    singular.
    """
    rate = m * math.sqrt(float(dens.max())) ** m
    if rate > 0:
        dt_adm = 1.0 / rate
        if dt >= dt_adm:
            raise SingularSubstepError(
                f"nonlinear substep singular: dt = {dt:.3e} >= {dt_adm:.3e}",
                dt_admissible=dt_adm,
            )
    gain = dens
    gain **= 0.5 * m
    gain *= m * dt
    np.subtract(1.0, gain, out=gain)
    gain **= -1.0 / m
    return gain


def nonlinear_substep(f: FieldState, dt: float, p: float) -> FieldState:
    """Exact flow of w' = |w|^{p-1} w for time dt (phase is frozen).

    Raises SingularSubstepError when the largest modulus would reach its
    singularity within dt; the exception carries the largest admissible
    step size.
    """
    if dt < 0:
        raise ValueError("substep time must be >= 0")
    vals = f.values
    if not np.isfinite(vals).all():
        raise CorruptFieldError("field contains NaN or Inf")
    if dt == 0.0:
        return f
    return FieldState(f.grid, vals * _substep_gain(abs_squared(vals), dt, p - 1.0))


def strang_step(f: FieldState, dt: float, p: float) -> FieldState:
    """One second-order split step of size dt (the reference for simulate)."""
    half = nonlinear_substep(apply_half_wave(f, 0.5 * dt), dt, p)
    return apply_half_wave(half, 0.5 * dt)


def choose_dt(f: FieldState, p: float, theta: float, dt_max: float) -> float:
    """Adaptive step: theta over the current nonlinear blow-up rate."""
    return _stable_dt(sup_norm(f), p, theta, dt_max)


# ----------------------------------------------------------------------
# Run records


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Diagnostics sampled along a run (times strictly increasing)."""

    weight: WeightSpec
    times: np.ndarray
    dts: np.ndarray
    mass: np.ndarray          # ||u||_2^2
    h1: np.ndarray            # ||u||_{H^1}
    lp1: np.ndarray           # ||u||_{p+1}^{p+1}
    sup: np.ndarray
    momentum: np.ndarray      # ||u/h||_2^2 for h = weight


@dataclass(frozen=True)
class BlowupReport:
    """Outcome of a run; criterion is None when no blow-up was detected."""

    blew_up: bool
    t_detected: float | None
    criterion: str | None
    final_sup: float
    steps: int
    bracket: tuple[float, float] | None = None


class _Recorder:
    def __init__(self, cfg: SimConfig, weight: WeightSpec):
        self.cfg = cfg
        self.weight = weight
        self.inv_sq = inv_weight_values(weight, cfg.grid) ** 2
        self.rows = []

    def record(self, t: float, dt: float, dens: np.ndarray, spec: np.ndarray):
        """Sample the state with density |u|^2 = dens and spectrum fft(u) = spec."""
        sup_sq = float(np.max(dens))
        if 0.0 < sup_sq < _TINY:
            raise CorruptFieldError(
                f"state underflows at t = {t:.6g}: max|u| = {math.sqrt(sup_sq):.3e}, "
                "but max|u|^2 is subnormal, so the recorded sup and mass lose their digits"
            )
        dx = self.cfg.grid.dx
        lp1 = dx * float(np.sum(dens ** ((self.cfg.p + 1.0) / 2.0)))
        h1 = h1_norm_from_spectrum(spec, self.cfg.grid)
        self.rows.append(
            [t, dt, dx * float(np.sum(dens)), h1, lp1, math.sqrt(sup_sq),
             dx * float(np.sum(dens * self.inv_sq))]
        )

    def freeze(self) -> TimeSeries:
        # A row holds TimeSeries' columns in field order.
        return TimeSeries(self.weight, *np.array(self.rows).T.copy())


def simulate(
    cfg: SimConfig, weight: WeightSpec = WeightSpec(), every_step: bool = True
) -> tuple[TimeSeries, BlowupReport]:
    """Run the adaptive split-step integrator until t_max or blow-up.

    The series records the weighted momentum ||u/h||_2^2 for h = weight.
    It holds the initial state and, with every_step, each step's state,
    else the last state only; unrecorded steps may be quiet.

    Detection policy, first signal wins:
      1. sup-norm threshold crossed       -> 'sup_threshold'
      2. dt below dt_min, or t + dt == t  -> 'dt_underflow'
      3. singular nonlinear substep       -> 'nonlinear_substep_singular'

    NaN/Inf anywhere is a corrupt state and raises CorruptFieldError
    rather than being reported as blow-up.  Nonzero initial data whose
    max|u0|^2 is subnormal or 0 raises ValueError before the first step:
    its sup, mass and step size would lose their digits or read 0.
    A recorded state whose max|u|^2 is nonzero but subnormal raises
    CorruptFieldError, since its sup and mass would lose their digits.
    Neither check covers lp1 = ||u||_{p+1}^{p+1}, which leaves the double
    range sooner and then reads 0 (at amplitude 1e-130 and p = 3.5).
    """
    rec = _Recorder(cfg, weight)
    u = initial_field(cfg.profile, cfg.grid).values
    if not np.isfinite(u).all():
        raise CorruptFieldError("initial data contains NaN or Inf")
    dens = abs_squared(u)
    if float(np.max(dens)) < _TINY and np.any(u):
        raise ValueError(
            f"initial data too small to square: max|u0| = {np.max(np.abs(u)):.3e}, "
            "but |u0|^2 underflows the normal float range"
        )
    # The loop carries u, its density and its spectrum at time t; each
    # step ends on the spectrum it needs for the next first half-step.
    spec = np.fft.fft(u)
    # A step may end without forming u: when the run does not record
    # every step and the Wiener norm sum|spec|/N of its spectrum is below
    # _quiet_limit, it carries dens = None ("quiet") instead.
    quiet_sum = cfg.grid.points * _quiet_limit(cfg)
    # Step buffers: the phase product, the half-step density that becomes
    # the substep gain, |spec| for the Wiener test, the finiteness mask
    # of u and the density of the state.
    n = cfg.grid.points
    phased = np.empty(n, dtype=complex)
    gain = np.empty(n)
    modulus = np.empty(n)
    finite = np.empty(n, dtype=bool)
    state_dens = np.empty(n)
    t = 0.0
    steps = 0
    last_dt = 0.0
    phase_dt = phase = None
    criterion = t_detected = bracket = None
    rec.record(t, 0.0, dens, spec)

    while True:
        # A quiet state (dens None) crosses no threshold and takes dt_max.
        if dens is not None:
            sup = math.sqrt(float(dens.max()))
            if sup >= cfg.sup_threshold:
                criterion, t_detected = "sup_threshold", t
                bracket = (max(t - last_dt, 0.0), t)
                break
        if cfg.t_max - t <= 1e-12 * cfg.t_max:
            break

        if dens is None:
            dt_stab = cfg.dt_max
        else:
            dt_stab = _stable_dt(sup, cfg.p, cfg.theta, cfg.dt_max)
            if dt_stab < cfg.dt_min or t + dt_stab == t:
                criterion, t_detected, bracket = "dt_underflow", t, (t, t)
                break
        dt = min(dt_stab, cfg.t_max - t)

        if dt != phase_dt:
            phase_dt, phase = dt, half_wave_phase_symbol(cfg.grid, 0.5 * dt)
        # spec stays the state's spectrum until the step commits: the
        # singular-substep exit records it.
        half = np.fft.ifft(np.multiply(spec, phase, out=phased))
        try:
            half *= _substep_gain(abs_squared(half, out=gain), dt, cfg.p - 1.0)
        except SingularSubstepError as err:
            criterion = "nonlinear_substep_singular"
            t_detected = t + err.dt_admissible
            bracket = (t, t_detected)
            break
        spec = np.fft.fft(half)
        spec *= phase
        steps += 1
        # NaN or Inf in spec makes the Wiener norm fail the test.
        if not every_step and float(np.abs(spec, out=modulus).sum()) < quiet_sum:
            dens = None
        else:
            u = np.fft.ifft(spec)
            if not np.isfinite(u, out=finite).all():
                raise CorruptFieldError(f"state corrupt (NaN/Inf) after step at t = {t}")
            dens = abs_squared(u, out=state_dens)
        t += dt
        last_dt = dt
        if every_step:
            rec.record(t, dt, dens, spec)

    if dens is None:  # the run ended in a quiet state
        dens = abs_squared(np.fft.ifft(spec))
        sup = math.sqrt(float(np.max(dens)))
    if steps and not every_step:
        rec.record(t, last_dt, dens, spec)
    report = BlowupReport(
        blew_up=criterion is not None,
        t_detected=t_detected,
        criterion=criterion,
        final_sup=sup,
        steps=steps,
        bracket=bracket,
    )
    return rec.freeze(), report

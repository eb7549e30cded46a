"""Periodic pseudospectral grid, field states, and Fourier-multiplier operators.

The domain is the periodic interval [-L, L) sampled at N points.  Fourier
multipliers act exactly on the discrete frequency set k_j = j*pi/L,
j = -N/2 .. N/2-1, so band-limited eigenfunctions are reproduced to
round-off.  All norms use the rectangle rule, which is spectrally accurate
for smooth periodic integrands.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CorruptFieldError


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-half_length, half_length).

    Parameters
    ----------
    half_length : float
        Half the period, L > 0.  Nodes run from -L to L - dx.
    points : int
        Number of nodes, even and >= 4.
    """

    half_length: float
    points: int

    def __post_init__(self):
        if not np.isfinite(self.half_length) or self.half_length <= 0:
            raise ValueError("Grid half_length must be positive and finite")
        if self.points % 2 != 0:
            raise ValueError("Grid resolution points must be even")
        if self.points < 4:
            raise ValueError("Grid resolution points must be at least 4")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_length / self.points

    @cached_property
    def nodes(self) -> np.ndarray:
        """Node coordinates -L, -L + dx, ..., L - dx."""
        return -self.half_length + self.dx * np.arange(self.points)

    @cached_property
    def axis_frequencies(self) -> np.ndarray:
        """Angular frequencies k_j = j*pi/L, FFT ordering."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.dx)

    @cached_property
    def abs_wavenumber(self) -> np.ndarray:
        """|k| on the frequency lattice."""
        return np.abs(self.axis_frequencies)

    @cached_property
    def h1_weight(self) -> np.ndarray:
        """Symbol 1 + k^2 of the squared H^1 norm.

        The j = -N/2 frequency has no conjugate partner, so its k is
        zeroed, as in the derivative symbol i*k that keeps derivatives of
        real data real.
        """
        k = self.axis_frequencies.copy()
        k[self.points // 2] = 0.0
        return 1.0 + k**2


def make_grid(half_length: float, points: int) -> GridSpec:
    """Construct a validated GridSpec."""
    return GridSpec(half_length=float(half_length), points=int(points))


@dataclass(frozen=True, eq=False)
class FieldState:
    """A complex field sampled on a GridSpec, with value semantics.

    The sample array is copied on construction and marked read-only;
    operations return new states.  Non-finite entries are representable
    (they signal a corrupt state) but are rejected by every operator.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.complex128, copy=True)
        if vals.shape != (self.grid.points,):
            raise ValueError(f"field shape {vals.shape} does not match grid "
                             f"shape {(self.grid.points,)}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def abs_squared(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|values|^2 as re^2 + im^2, without the square root np.abs takes.

    Written into ``out`` (a real array of the same shape) when it is given.
    """
    out = np.square(values.real, out=out)
    out += np.square(values.imag)
    return out


def _require_finite(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise CorruptFieldError("field contains NaN or Inf")


# ----------------------------------------------------------------------
# Fourier multipliers


def half_wave_phase_symbol(grid: GridSpec, t: float) -> np.ndarray:
    """Unit-modulus symbol e^{-i|k|t} of the free half-wave propagator.

    Takes N/2 + 1 exponentials, not N, and mirrors them.  The mirror is
    exact: fftfreq scales the integers j and -j by one factor, so |k| at
    lattice entries j and N - j is the same float, and so is its
    exponential.
    """
    half = np.exp(-1j * t * grid.abs_wavenumber[: grid.points // 2 + 1])
    return np.concatenate((half, half[-2:0:-1]))


def apply_multiplier(f: FieldState, symbol: np.ndarray) -> FieldState:
    """Apply a Fourier multiplier given by its symbol on the frequency lattice."""
    _require_finite(f.values)
    spec = np.fft.fft(f.values)
    return FieldState(f.grid, np.fft.ifft(spec * symbol))


def apply_half_wave(f: FieldState, t: float) -> FieldState:
    """Apply the free propagator e^{-i|D|t} (mass-preserving for any t)."""
    return apply_multiplier(f, half_wave_phase_symbol(f.grid, t))


# ----------------------------------------------------------------------
# Norms (rectangle-rule quadrature)


def l2_norm(f: FieldState) -> float:
    _require_finite(f.values)
    return float(np.sqrt(f.grid.dx * np.sum(np.abs(f.values) ** 2)))


def sup_norm(f: FieldState) -> float:
    _require_finite(f.values)
    return float(np.max(np.abs(f.values)))


def h1_norm(f: FieldState) -> float:
    """Sobolev norm sqrt(||f||_2^2 + ||grad f||_2^2)."""
    _require_finite(f.values)
    return h1_norm_from_spectrum(np.fft.fft(f.values), f.grid)


def h1_norm_from_spectrum(coeffs: np.ndarray, grid: GridSpec) -> float:
    """H^1 norm of the field whose unnormalized spectrum fft(f) is coeffs."""
    power = np.sum(grid.h1_weight * abs_squared(coeffs))
    return float(np.sqrt(grid.dx / coeffs.size * power))


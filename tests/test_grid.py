"""Grid construction, spectral multipliers, and norms."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fgl_lab import (
    CorruptFieldError,
    FieldState,
    apply_half_wave,
    apply_multiplier,
    h1_norm,
    half_wave_phase_symbol,
    l2_norm,
    make_grid,
    sup_norm,
)


def random_field(grid, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points)
    return FieldState(grid, vals)


def gradient(grid):
    """Symbol i*k of the derivative, unpaired mode zeroed."""
    k = grid.axis_frequencies.copy()
    k[grid.points // 2] = 0.0
    return 1j * k


class TestGridSpec:
    def test_node_spacing_and_range(self):
        grid = make_grid(10.0, 64)
        x = grid.nodes
        assert grid.dx == pytest.approx(20.0 / 64)
        assert x[0] == pytest.approx(-10.0)
        assert x[-1] == pytest.approx(10.0 - grid.dx)
        assert np.allclose(np.diff(x), grid.dx)

    def test_fundamental_frequency(self):
        grid = make_grid(10.0, 64)
        k = grid.axis_frequencies
        assert k[0] == 0.0
        assert k[1] == pytest.approx(np.pi / 10.0)

    @pytest.mark.parametrize("points", [3, 7, 65])
    def test_odd_points_rejected(self, points):
        with pytest.raises(ValueError, match="even"):
            make_grid(10.0, points)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            make_grid(10.0, 2)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError):
            make_grid(0.0, 64)


class TestFieldState:
    def test_nan_is_detectable_and_rejected_by_operators(self):
        grid = make_grid(5.0, 16)
        vals = np.ones(16, dtype=complex)
        vals[3] = np.nan
        corrupt = FieldState(grid, vals)
        assert not np.isfinite(corrupt.values).all()
        with pytest.raises(CorruptFieldError):
            l2_norm(corrupt)

    def test_inf_is_detectable_and_rejected_by_operators(self):
        grid = make_grid(5.0, 16)
        vals = np.ones(16, dtype=complex)
        vals[0] = np.inf
        corrupt = FieldState(grid, vals)
        assert not np.isfinite(corrupt.values).all()
        with pytest.raises(CorruptFieldError):
            apply_multiplier(corrupt, grid.abs_wavenumber)

    def test_values_read_only(self):
        f = random_field(make_grid(5.0, 16), 0)
        with pytest.raises((ValueError, RuntimeError)):
            f.values[0] = 0.0

    def test_shape_must_match_grid(self):
        grid = make_grid(5.0, 16)
        with pytest.raises(ValueError):
            FieldState(grid, np.ones(8, dtype=complex))


class TestSymbols:
    def test_fractional_symbol_is_abs_k(self):
        grid = make_grid(10.0, 32)
        assert np.allclose(grid.abs_wavenumber, np.abs(grid.axis_frequencies))

    def test_half_wave_phase_is_unimodular(self):
        grid = make_grid(10.0, 32)
        phase = half_wave_phase_symbol(grid, 0.37)
        assert np.allclose(np.abs(phase), 1.0)

    @pytest.mark.parametrize("points", [4, 6, 10, 256, 3000, 4096])
    def test_half_wave_phase_is_the_full_exponential_bit_for_bit(self, points):
        # The symbol mirrors N/2 + 1 exponentials; |k| is mirror-symmetric
        # to the bit on every even N, so the mirror is the full exponential.
        grid = make_grid(10.0, points)
        k = grid.abs_wavenumber
        j = np.arange(1, points)
        assert np.array_equal(k[j], k[points - j])
        for t in (0.0, 0.0025, 0.37, 1e3):
            want = np.exp(-1j * t * k)
            assert half_wave_phase_symbol(grid, t).tobytes() == want.tobytes(), t

    def test_h1_weight_drops_unpaired_mode(self):
        grid = make_grid(10.0, 32)
        weight = grid.h1_weight
        assert weight[grid.points // 2] == 1.0
        assert weight[1] == pytest.approx(1.0 + (np.pi / 10.0) ** 2)


class TestMultipliers:
    def test_derivative_of_sine_is_spectrally_exact(self):
        grid = make_grid(np.pi, 64)
        f = FieldState(grid, np.sin(3 * grid.nodes))
        df = apply_multiplier(f, gradient(grid))
        expected = 3 * np.cos(3 * grid.nodes)
        assert np.max(np.abs(df.values - expected)) < 1e-12

    def test_fractional_on_plane_wave(self):
        grid = make_grid(np.pi, 64)
        f = FieldState(grid, np.exp(1j * 5 * grid.nodes))
        out = apply_multiplier(f, grid.abs_wavenumber)
        assert np.allclose(out.values, 5.0 * f.values)

    def test_half_wave_translates_analytic_wave(self):
        # e^{-it|D|} e^{i k x} = e^{i k (x - t)} for k > 0.
        grid = make_grid(np.pi, 64)
        f = FieldState(grid, np.exp(1j * 4 * grid.nodes))
        out = apply_half_wave(f, 0.25)
        expected = np.exp(1j * 4 * (grid.nodes - 0.25))
        assert np.max(np.abs(out.values - expected)) < 1e-12

    @given(seed=st.integers(0, 2**32 - 1))
    def test_half_wave_is_unitary(self, seed):
        f = random_field(make_grid(7.0, 32), seed)
        out = apply_half_wave(f, 1.3)
        assert l2_norm(out) == pytest.approx(l2_norm(f), rel=1e-12)

    def test_multiplier_shape_check(self):
        f = random_field(make_grid(7.0, 32), 1)
        with pytest.raises(ValueError):
            apply_multiplier(f, np.ones(16))


class TestNorms:
    def test_l2_of_constant(self):
        grid = make_grid(10.0, 64)
        f = FieldState(grid, np.ones_like(grid.nodes))
        assert l2_norm(f) == pytest.approx(np.sqrt(2 * 10.0), rel=1e-12)

    def test_sup_norm(self):
        grid = make_grid(10.0, 64)
        f = FieldState(grid, np.exp(-(grid.nodes**2)))
        assert sup_norm(f) == pytest.approx(1.0, rel=1e-12)

    def test_h1_combines_mass_and_gradient(self):
        f = random_field(make_grid(6.0, 64), 7)
        grad = apply_multiplier(f, gradient(f.grid))
        expected = np.sqrt(l2_norm(f) ** 2 + l2_norm(grad) ** 2)
        assert h1_norm(f) == pytest.approx(expected, rel=1e-12)

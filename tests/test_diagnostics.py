"""Momentum diagnostics, bound margins, and identity checks."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fgl_lab import (
    BoundParams,
    ConstantProfile,
    GaussianProfile,
    OdeParams,
    SimConfig,
    TimeSeries,
    WeightSpec,
    check_growth_inequality,
    check_weighted_lower_bound,
    closed_form_eval,
    comparison_ode,
    estimate_kappa,
    initial_field,
    inv_weight_values,
    l2_norm,
    lower_bound_divergence_time,
    make_grid,
    mass_identity_residual,
    norm_inv_h,
    simulate,
)
from fgl_lab.grid import FieldState

W = WeightSpec(1.0, 1.0)
UNIT_ODE = OdeParams(c1=1.0, c2=1.0, q=1.5, f0=1.0)


def exact_comparison_series(b: BoundParams, n=2001, frac=0.9) -> TimeSeries:
    """TimeSeries whose momentum is the exact comparison-ODE solution."""
    ode = comparison_ode(b)
    t_end = frac * lower_bound_divergence_time(b)
    times = np.linspace(0.0, t_end, n)
    q = closed_form_eval(ode, times)
    dts = np.full(n, times[1] - times[0])
    return TimeSeries(
        weight=W, times=times, dts=dts,
        mass=q.copy(), h1=np.sqrt(q), lp1=q.copy(), sup=np.sqrt(q),
        momentum=q,
    )


@pytest.fixture(scope="module")
def ref_params() -> BoundParams:
    return BoundParams(
        p=2.0, kappa=0.5, inv_weight_norm=math.sqrt(math.pi),
        initial_weighted_norm=math.sqrt(math.pi),
    )


GAUSSIAN_CFG = SimConfig(
    grid=make_grid(20.0, 256), p=2.0,
    profile=GaussianProfile(amplitude=1.5, width=1.0),
    t_max=0.3, dt_max=2e-3,
)


@pytest.fixture(scope="module")
def gaussian_run():
    return simulate(GAUSSIAN_CFG, weight=W)


class TestWeightedMomentum:
    def test_matches_direct_quadrature(self, gaussian_run):
        series, _ = gaussian_run
        grid = GAUSSIAN_CFG.grid
        u0 = initial_field(
            GaussianProfile(amplitude=1.5, width=1.0), grid
        )
        v = FieldState(grid, u0.values * inv_weight_values(W, grid))
        assert series.momentum[0] == pytest.approx(
            l2_norm(v) ** 2, rel=1e-12
        )

    def test_default_weight_is_first_registered(self, gaussian_run):
        series, _ = gaussian_run
        default_series, _ = simulate(GAUSSIAN_CFG)
        assert default_series.weight == W
        default = check_growth_inequality(default_series, UNIT_ODE)
        explicit = check_growth_inequality(series, UNIT_ODE)
        assert np.array_equal(default.margins, explicit.margins)


class TestLowerBoundMargins:
    def test_exact_solution_sits_on_sharp_bound(self, ref_params):
        # the exact sqrt(Q) clears the bound by the Gronwall factor e^{kappa t}
        series = exact_comparison_series(ref_params)
        report = check_weighted_lower_bound(series, ref_params)
        np.testing.assert_allclose(
            report.margins, np.expm1(ref_params.kappa * report.times),
            rtol=0, atol=1e-10,
        )

    def test_exact_solution_clears_conservative_bound(self, ref_params):
        series = exact_comparison_series(ref_params)
        report = check_weighted_lower_bound(series, ref_params)
        assert not report.violated
        assert report.worst >= -1e-12
        # the bound sits strictly below the exact solution away from t = 0
        assert report.margins[-1] > 0.01

    def test_deficient_data_is_flagged(self, ref_params):
        series = exact_comparison_series(ref_params)
        bad = TimeSeries(
            weight=series.weight,
            times=series.times, dts=series.dts, mass=series.mass,
            h1=series.h1, lp1=series.lp1, sup=series.sup,
            momentum=0.5 * series.momentum,
        )
        report = check_weighted_lower_bound(bad, ref_params)
        assert report.violated
        assert report.worst < -0.25


@functools.cache
def grid_kappa(points: int) -> float:
    return estimate_kappa(W, make_grid(20.0, points)).kappa


class TestGrowthInequality:
    def test_exact_solution_has_zero_margins(self, ref_params):
        series = exact_comparison_series(ref_params)
        report = check_growth_inequality(series, comparison_ode(ref_params))
        assert not report.violated
        # the exact ODE flow differs from its Strang splitting only by
        # the splitting error, 5e-12 to 3.8e-11 on these steps
        assert np.max(np.abs(report.margins)) < 4e-11
        np.testing.assert_array_equal(report.times, series.times[1:])

    def test_overclaimed_constant_is_flagged(self, ref_params):
        series = exact_comparison_series(ref_params)
        ode = comparison_ode(ref_params)
        doubled = OdeParams(c1=ode.c1, c2=2.0 * ode.c2, q=ode.q, f0=ode.f0)
        report = check_growth_inequality(series, doubled)
        assert report.violated

    def test_step_past_the_bernoulli_singularity_is_minus_inf(self, ref_params):
        series = exact_comparison_series(ref_params, n=3)
        ode = comparison_ode(ref_params)
        huge = OdeParams(c1=ode.c1, c2=1e6 * ode.c2, q=ode.q, f0=ode.f0)
        report = check_growth_inequality(series, huge)
        assert report.violated
        assert report.margins.tolist() == [-math.inf, -math.inf]

    @given(
        amplitude=st.floats(0.01, 4.0),
        width=st.floats(0.5, 3.0),
        center=st.floats(-5.0, 5.0),
        p=st.floats(1.05, 3.5),
        points=st.sampled_from((64, 128, 256, 512)),
        dt_max=st.floats(1e-3, 0.1),
    )
    def test_every_simulated_step_clears_the_bound(self, amplitude, width,
                                                   center, p, points, dt_max):
        # The bound holds step by step for any data and any dt, not only
        # above the blow-up threshold.
        grid = make_grid(20.0, points)
        cfg = SimConfig(
            grid=grid, p=p,
            profile=lambda x: (amplitude * np.exp(
                -((x - center) ** 2) / width**2)).astype(complex),
            t_max=0.3, dt_max=dt_max,
        )
        series, report = simulate(cfg, weight=W)
        assert series.times.size == report.steps + 1
        b = BoundParams(
            p=p, kappa=grid_kappa(points), inv_weight_norm=norm_inv_h(W, grid),
            initial_weighted_norm=math.sqrt(series.momentum[0]),
        )
        audit = check_growth_inequality(series, comparison_ode(b))
        assert not audit.violated, audit.worst


class TestMassIdentity:
    def test_factor_two_wins_on_gaussian(self, gaussian_run):
        series, _ = gaussian_run
        report = mass_identity_residual(series)
        assert report.best_factor == 2
        assert float(np.max(report.residual_two)) < 1e-3
        assert 0.9 < float(np.mean(report.residual_one)) < 1.1
        assert report.best_residual < 1e-3

    def test_factor_two_wins_on_homogeneous(self):
        cfg = SimConfig(
            grid=make_grid(10.0, 64), p=2.0, profile=ConstantProfile(2.0),
            t_max=0.4, dt_max=2e-3,
        )
        series, _ = simulate(cfg)
        report = mass_identity_residual(series)
        assert report.best_factor == 2
        assert float(np.max(report.residual_two)) < 1e-3

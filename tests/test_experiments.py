"""End-to-end experiments: sweeps, threshold search, bound audits."""

import inspect
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fgl_lab import (
    ConstantProfile,
    ConvergenceError,
    FieldState,
    GaussianProfile,
    GridStabilityError,
    SimConfig,
    SupercriticalError,
    ThresholdNotMetError,
    WeightSpec,
    apply_commutator,
    bounds_consistency,
    commutator_scaling,
    domain_doubling_check,
    estimate_kappa,
    initial_field,
    lifespan_sweep,
    make_grid,
    norm_inv_h,
    predicted_threshold_scale,
    subcritical_threshold,
)
from fgl_lab import experiments

W = WeightSpec(1.0, 1.0)


class TestDomainDoubling:
    def test_grid_independent_scalar_is_stable(self):
        seen = []
        check = domain_doubling_check(
            1.5, lambda g: seen.append(g) or 1.5, make_grid(10.0, 64), "const"
        )
        assert seen == [make_grid(20.0, 128)]
        assert check.value == 1.5
        assert check.doubled_value == 1.5
        assert check.rel_change == 0.0
        assert check.stable

    def test_domain_dependent_scalar_is_flagged(self):
        grid = make_grid(10.0, 64)
        with pytest.raises(GridStabilityError, match="L moved 50.00%"):
            domain_doubling_check(grid.half_length, lambda g: g.half_length, grid, "L")

    def test_budget_is_respected(self):
        grid = make_grid(10.0, 64)
        check = domain_doubling_check(
            grid.half_length, lambda g: g.half_length, grid, "L", budget=0.6
        )
        assert check.stable

    def test_refine_doubles_points_at_fixed_length(self):
        seen = []
        grid = make_grid(10.0, 64)
        check = domain_doubling_check(
            grid.dx, lambda g: seen.append(g) or g.dx, grid, "dx", budget=0.6,
            refine=True,
        )
        assert seen == [make_grid(10.0, 128)]
        assert check.rel_change == 0.5


@pytest.fixture(scope="module")
def sweep_base() -> SimConfig:
    return SimConfig(
        grid=make_grid(10.0, 256), p=2.0, profile=ConstantProfile(2.0),
        t_max=1.0, dt_max=1e-3,
    )


class TestLifespanSweep:
    def test_homogeneous_family_has_slope_minus_one(self, sweep_base):
        res = lifespan_sweep(sweep_base, [1, 2, 4])
        assert res.slope == pytest.approx(-1.0, abs=1e-6)
        assert np.allclose(res.measured, [0.5, 0.25, 0.125], rtol=1e-6)
        assert res.included.all()
        assert res.residual < 1e-6
        assert res.stability is not None and res.stability.stable

    def test_non_blowing_member_is_excluded(self, sweep_base):
        res = lifespan_sweep(sweep_base, [0.2, 1, 2, 4])
        assert list(res.included) == [False, True, True, True]
        assert math.isnan(res.measured[0])

    def test_needs_three_blowups(self, sweep_base):
        with pytest.raises(ValueError, match="need >= 3"):
            lifespan_sweep(sweep_base, [0.1, 0.2, 1])

    def test_rejects_profile_without_amplitude(self, sweep_base, monkeypatch):
        # Fixed samples have no amplitude to scale: refused before any run.
        def no_run(cfg):
            raise AssertionError("a member ran")

        monkeypatch.setattr(experiments, "_run_report", no_run)
        samples = np.ones(sweep_base.grid.points, dtype=complex)
        with pytest.raises(AttributeError, match="amplitude"):
            lifespan_sweep(replace(sweep_base, profile=lambda x: samples),
                           [1, 2, 4])

    def test_rejects_nonpositive_factors(self, sweep_base):
        with pytest.raises(ValueError, match="positive"):
            lifespan_sweep(sweep_base, [-1, 1, 2])

    def test_workers_do_not_change_results(self, sweep_base):
        serial = lifespan_sweep(sweep_base, [1, 2, 4])
        parallel = lifespan_sweep(sweep_base, [1, 2, 4], workers=2)
        assert np.array_equal(serial.measured, parallel.measured)
        assert serial.slope == parallel.slope

    @pytest.mark.parametrize("workers, pool_size", [(64, 3), (2, 2)])
    def test_pool_is_capped_at_the_member_count(self, sweep_base, monkeypatch,
                                                 workers, pool_size):
        import concurrent.futures

        pools = []

        class StubPool:
            # records the requested size and runs the members in this process
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubPool)
        res = lifespan_sweep(sweep_base, [1, 2, 4],
                             workers=workers)
        assert pools == [pool_size]
        assert res.slope == pytest.approx(-1.0, abs=1e-6)

    def test_single_member_sweep_starts_no_pool(self, sweep_base, monkeypatch):
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise AssertionError("a one-member sweep started a pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        with pytest.raises(ValueError, match="need >= 3"):
            lifespan_sweep(sweep_base, [2], workers=8)


def _dense_commutator(w, grid):
    cols = []
    for j in range(grid.points):
        e = np.zeros(grid.points, dtype=complex)
        e[j] = 1.0
        cols.append(apply_commutator(w, grid, FieldState(grid, e)).values)
    return np.column_stack(cols)


class TestDilationIdentity:
    """A(h_R; R L, N) = A(h_1; L, N) / R exactly for R a power of two."""

    def test_dense_operators_agree_entry_for_entry(self):
        base = _dense_commutator(W, make_grid(10.0, 512))
        for r in (2, 4, 8):
            dilated = _dense_commutator(W.rescaled(r), make_grid(10.0 * r, 512))
            assert np.array_equal(dilated, base / r)

    def test_kappa_agrees_bit_for_bit(self):
        for half_length in (100.0, 12.5):
            kappa_1 = estimate_kappa(W, make_grid(half_length, 2048)).kappa
            for r in (2, 4, 8):
                grid_r = make_grid(r * half_length, 2048)
                assert r * estimate_kappa(W.rescaled(r), grid_r).kappa == kappa_1


    def test_inv_h_norm_scales_with_sqrt_r(self):
        # the threshold ladder reads ||1/h_R||_2 on (R L, N) off R = 1; the
        # quadrature on each dilated grid, which it replaced, is the oracle.
        # At s = 0.75 the tail integral is a large share of the norm, and
        # each rung's quadrature of it rounds differently: up to 2e-13 here
        for s, budget in ((1.0, 0.0), (0.75, 1e-12)):
            w = WeightSpec(s, 1.0)
            for half_length, points in ((50.0, 1024), (12.5, 256), (100.0, 2048)):
                base = norm_inv_h(w, make_grid(half_length, points))
                for r in 2.0 ** np.arange(1, 9):
                    want = norm_inv_h(w.rescaled(r),
                                      make_grid(r * half_length, points))
                    got = math.sqrt(r * base**2)
                    assert abs(got - want) <= budget * want


class TestCommutatorScaling:
    def test_kappa_scales_inversely_with_dilation(self):
        res = commutator_scaling(W, [1, 2], make_grid(6.25, 128))
        assert res.slope == pytest.approx(-1.0, abs=1e-12)
        assert np.array_equal(res.measured * res.parameter_values,
                              [res.measured[0]] * 2)
        assert res.stability.stable
        assert res.refinement.stable
        # the coarsest grid in the suite: kappa moves 7.1e-4 as dx halves
        assert res.refinement.rel_change == pytest.approx(7.1e-4, rel=0.01)
        assert res.refinement.budget == 1e-3

    def test_rungs_add_no_kappa_solve(self, monkeypatch):
        # kappa at R = 1, its dx refinement and its domain doubling, however
        # many rungs: rung R is kappa_1 / R, and no solve runs above 2N
        calls = []
        original = experiments.estimate_kappa
        signature = inspect.signature(original)

        def counted(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            grid = bound.arguments["grid"]
            calls.append((grid.half_length, grid.points, bound.arguments["tol"]))
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, "estimate_kappa", counted)
        r_values = [1, 2, 4, 8, 16, 32]
        res = commutator_scaling(W, r_values, make_grid(12.5, 256))
        assert sorted(calls) == [
            (12.5, 256, 1e-8), (12.5, 512, 1e-5), (25.0, 512, 5e-4)]
        assert np.array_equal(res.measured * res.parameter_values,
                              [res.measured[0]] * len(r_values))
        assert res.stability.stable
        assert res.refinement.stable

    def test_dx_refinement_budget_is_enforced(self):
        grid = make_grid(6.25, 128)

        def kappa_on(g):
            return estimate_kappa(W, g, tol=1e-6).kappa

        with pytest.raises(GridStabilityError, match="dx refinement"):
            domain_doubling_check(kappa_on(grid), kappa_on, grid, "kappa(R=1)",
                                  budget=5e-4, refine=True)

    def test_rejects_subunit_dilations(self):
        with pytest.raises(ValueError, match=">= 1"):
            commutator_scaling(W, [0.5, 1], make_grid(6.25, 128))

    def test_rejects_degenerate_ladders_before_any_kappa(self, monkeypatch):
        # one factor leaves no line to fit; a repeated factor adds no point
        def no_solve(*args, **kwargs):
            raise AssertionError("kappa was estimated")

        monkeypatch.setattr(experiments, "estimate_kappa", no_solve)
        for r_values, words in (([1], "at least two"), ([2, 2], "distinct"),
                                ([1, 2, 2], "distinct")):
            with pytest.raises(ValueError, match=words):
                commutator_scaling(W, r_values, make_grid(6.25, 128))


class TestPredictedThresholdScale:
    @given(
        p=st.floats(1.5, 2.8),
        kappa1=st.floats(0.1, 2.0),
        norm=st.floats(0.01, 5.0),
    )
    def test_solves_the_matching_equation(self, p, kappa1, norm):
        r = predicted_threshold_scale(p, kappa1, norm, W)
        threshold_at_r = (kappa1 / r) ** (1.0 / (p - 1.0)) * math.sqrt(
            math.pi * r
        )
        assert threshold_at_r == pytest.approx(norm, rel=1e-9)

    def test_slow_weight_matches_the_grid_norm(self):
        # ||1/h_R||_2 for h = <x/a>^0.75 is sqrt(a R C^2) with C^2 > pi;
        # the prediction must use it, checked against the tail-corrected norm
        w = WeightSpec(0.75, 2.0)
        p, kappa1, norm = 1.5, 0.4, 0.3
        r = predicted_threshold_scale(p, kappa1, norm, w)
        ninv = norm_inv_h(w.rescaled(r), make_grid(400.0, 2**16))
        threshold_at_r = (kappa1 / r) ** (1.0 / (p - 1.0)) * ninv
        assert threshold_at_r == pytest.approx(norm, rel=1e-6)

    def test_steep_weight_past_the_gamma_range(self):
        # Gamma(200) overflows a double; Gamma(s - 1/2) / Gamma(s) does not
        w = WeightSpec(200.0)
        p, kappa1, norm = 1.5, 0.5, 1.0
        r = predicted_threshold_scale(p, kappa1, norm, w)
        ninv = norm_inv_h(w.rescaled(r), make_grid(10.0, 2**14))
        threshold_at_r = (kappa1 / r) ** (1.0 / (p - 1.0)) * ninv
        assert threshold_at_r == pytest.approx(norm, rel=1e-9)

    def test_non_integrable_weight_has_no_prediction(self):
        w = WeightSpec(0.5, 1.0)
        with pytest.raises(ValueError, match="integrable only for exponent > 1/2"):
            predicted_threshold_scale(1.5, 0.4, 0.3, w)

    def test_needs_subcritical_power(self):
        with pytest.raises(SupercriticalError, match="Fujita"):
            predicted_threshold_scale(3.0, 0.5, 1.0, W)


@pytest.fixture(scope="module")
def base_grid():
    return make_grid(12.5, 256)


class TestSubcriticalThreshold:
    def test_large_data_certified_without_dilation(self, base_grid):
        u0 = initial_field(
            GaussianProfile(amplitude=1.2, width=1.0), base_grid
        )
        found = subcritical_threshold(u0, 2.0)
        assert found.r0 == 1.0
        assert len(found.history) == 1
        assert found.history[0]["met"] is True
        assert math.isfinite(found.bound)
        assert found.stability.stable

    def test_small_data_needs_one_doubling(self, base_grid):
        u0 = initial_field(
            GaussianProfile(amplitude=0.9, width=1.0), base_grid
        )
        found = subcritical_threshold(u0, 2.0)
        assert found.r0 == 2.0
        assert [h["met"] for h in found.history] == [False, True]
        # dilation trades kappa down faster than the data norm shrinks
        h0, h1 = found.history
        assert h1["threshold"] < h0["threshold"]
        assert h1["kappa"] == pytest.approx(h0["kappa"] / 2.0, rel=0.01)
        assert h1["inv_h_norm"] == norm_inv_h(W.rescaled(2.0),
                                              make_grid(25.0, 256))

    def test_prediction_brackets_the_dyadic_answer(self, base_grid):
        u0 = initial_field(
            GaussianProfile(amplitude=0.9, width=1.0), base_grid
        )
        found = subcritical_threshold(u0, 2.0)
        # dyadic search lands within a factor of 4 of the continuum estimate
        assert 0.25 <= found.r0 / found.predicted_r0 <= 4.0

    def test_doubling_budget_guard(self, base_grid):
        u0 = initial_field(
            GaussianProfile(amplitude=1e-6, width=1.0), base_grid
        )
        with pytest.raises(ConvergenceError, match="threshold not met"):
            subcritical_threshold(u0, 2.0)

    def test_fujita_power_is_refused(self, base_grid):
        u0 = initial_field(
            GaussianProfile(amplitude=1.2, width=1.0), base_grid
        )
        with pytest.raises(SupercriticalError, match="Fujita"):
            subcritical_threshold(u0, 3.0)

    def test_parameter_validation(self, base_grid):
        u0 = initial_field(
            GaussianProfile(amplitude=1.2, width=1.0), base_grid
        )
        with pytest.raises(ValueError, match="p > 1"):
            subcritical_threshold(u0, 0.5)

    def test_zero_data_is_a_refused_request(self, base_grid):
        # a plain ValueError (exit 1), not a numerical failure
        u0 = initial_field(ConstantProfile(0.0), base_grid)
        with pytest.raises(ValueError, match="initial data is zero") as exc:
            subcritical_threshold(u0, 2.0)
        assert type(exc.value) is ValueError


@pytest.fixture(scope="module")
def audit():
    cfg = SimConfig(
        grid=make_grid(25.0, 512), p=2.0,
        profile=GaussianProfile(amplitude=3.0, width=1.0),
        t_max=2.0, dt_max=0.01,
    )
    return bounds_consistency(cfg)


class TestBoundsConsistency:
    def test_simulation_beats_the_certified_lifespan(self, audit):
        assert audit.report.blew_up
        assert math.isfinite(audit.bound)
        assert audit.report.t_detected <= audit.bound

    def test_initial_data_clears_threshold(self, audit):
        assert audit.bound_params.initial_weighted_norm > 1.1 * audit.threshold_value

    def test_lower_bound_margins_hold(self, audit):
        assert not audit.lower_margins.violated
        assert audit.lower_margins.worst >= -0.05

    def test_growth_inequality_holds(self, audit):
        assert not audit.growth_margins.violated
        assert audit.growth_margins.worst >= -1e-9
        assert audit.series.times.size == audit.report.steps + 1

    def test_fit_and_stability_are_reported(self, audit):
        assert len(audit.stability) == 3
        assert all(c.stable for c in audit.stability)

    def test_thinned_series_is_refused(self):
        # the growth audit needs every step's row
        cfg = SimConfig(
            grid=make_grid(20.0, 256), p=2.0,
            profile=GaussianProfile(amplitude=3.0, width=1.0),
            t_max=0.05, dt_max=0.01, record_every=2,
        )
        with pytest.raises(ValueError, match="4 rows for 5 steps"):
            bounds_consistency(cfg)

    def test_subthreshold_data_is_refused(self):
        cfg = SimConfig(
            grid=make_grid(20.0, 256), p=2.0,
            profile=GaussianProfile(amplitude=0.2, width=1.0),
            t_max=0.5, dt_max=0.01,
        )
        with pytest.raises(ThresholdNotMetError, match="below"):
            bounds_consistency(cfg)

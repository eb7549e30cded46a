"""Strang splitting, adaptive stepping, and blow-up detection."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fgl_lab import (
    BlowupReport,
    ConstantProfile,
    CorruptFieldError,
    FieldState,
    GaussianProfile,
    SimConfig,
    SingularSubstepError,
    WeightSpec,
    choose_dt,
    homogeneous_blowup_time,
    h1_norm,
    initial_field,
    inv_weight_values,
    make_grid,
    nonlinear_substep,
    simulate,
    strang_step,
    sup_norm,
)
from fgl_lab.evolution import _substep_gain


def small_grid():
    return make_grid(10.0, 64)


def reference_simulate(cfg, weight=WeightSpec()):
    """The split-step loop on FieldState, built from the public step operations.

    Each step runs strang_step (two FFT pairs), choose_dt and the sup
    check on the state itself, and every sample takes its own FFT for
    h1.  Returns the series as one row per state, the initial one and
    one per step, (t, dt, mass, h1, lp1, sup, momentum) and the
    BlowupReport.
    """
    grid = cfg.grid
    inv_sq = inv_weight_values(weight, grid) ** 2
    rows = []

    def record(t, dt, u):
        dens = np.abs(u.values) ** 2
        cv = grid.dx
        rows.append(
            [t, dt, cv * np.sum(dens), h1_norm(u),
             cv * np.sum(dens ** ((cfg.p + 1.0) / 2.0)), np.sqrt(np.max(dens)),
             cv * np.sum(dens * inv_sq)]
        )

    def blowup(criterion, t_detected, sup, steps, bracket):
        report = BlowupReport(True, t_detected, criterion, sup, steps, bracket)
        return np.array(rows), report

    u = initial_field(cfg.profile, grid)
    t, steps, last_dt = 0.0, 0, 0.0
    record(t, 0.0, u)
    while True:
        sup = sup_norm(u)
        if sup >= cfg.sup_threshold:
            return blowup("sup_threshold", t, sup, steps, (max(t - last_dt, 0.0), t))
        if cfg.t_max - t <= 1e-12 * cfg.t_max:
            break
        dt_stab = choose_dt(u, cfg.p, cfg.theta, cfg.dt_max)
        if dt_stab < cfg.dt_min or t + dt_stab == t:
            return blowup("dt_underflow", t, sup, steps, (t, t))
        dt = min(dt_stab, cfg.t_max - t)
        try:
            u = strang_step(u, dt, cfg.p)
        except SingularSubstepError as err:
            t_hit = t + err.dt_admissible
            return blowup("nonlinear_substep_singular", t_hit, sup, steps, (t, t_hit))
        t += dt
        last_dt = dt
        steps += 1
        record(t, dt, u)
    return np.array(rows), BlowupReport(False, None, None, sup_norm(u), steps, None)


def series_rows(series):
    """The TimeSeries columns in reference_simulate's row layout."""
    return np.column_stack([series.times, series.dts, series.mass, series.h1,
                            series.lp1, series.sup, series.momentum])


def report_rows(cfg, every_step=True):
    """The BlowupReport and the first and last series rows of one run."""
    series, report = simulate(cfg, every_step=every_step)
    rows = series_rows(series)
    return report, rows[0].tolist(), rows[-1].tolist()


def gaussian_config(half_length, points, p, amplitude, **kw):
    return SimConfig(
        grid=make_grid(half_length, points), p=p,
        profile=GaussianProfile(amplitude=amplitude, width=1.0), **kw,
    )


class TestProfiles:
    """A profile is a function of x; its samples are its expression's bits."""

    def test_constant_profile(self):
        grid = small_grid()
        u0 = initial_field(ConstantProfile(2.0 - 1.0j), grid)
        np.testing.assert_array_equal(
            u0.values, np.full(grid.nodes.shape, 2.0 - 1.0j, dtype=complex))

    def test_gaussian_profile_peak_and_width(self):
        grid = small_grid()
        x = grid.nodes
        u0 = initial_field(GaussianProfile(amplitude=1.5, width=2.0), grid)
        expected = (1.5 * np.exp(-(x**2) / 2.0**2)).astype(complex)
        np.testing.assert_array_equal(u0.values, expected)
        # off centre, on the node x = 1.25, it is a function of x as well
        def off_centre(x):
            return (1.5 * np.exp(-((x - 1.25) ** 2) / 2.0**2)).astype(complex)

        off = initial_field(off_centre, grid)
        np.testing.assert_array_equal(off.values, off_centre(x))
        assert off.values.max() == 1.5 and x[np.argmax(off.values.real)] == 1.25

    def test_custom_profile_roundtrip_and_mismatch(self):
        grid = small_grid()
        vals = np.linspace(0, 1, grid.points) + 0j
        u0 = initial_field(lambda x: vals, grid)
        np.testing.assert_array_equal(u0.values, vals)
        with pytest.raises(ValueError, match="does not match grid shape"):
            initial_field(lambda x: vals[:-2], grid)

    def test_validation(self):
        for width in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="width must be positive"):
                GaussianProfile(amplitude=1.0, width=width)


class TestSubsteps:
    def test_homogeneous_time_formula(self):
        assert homogeneous_blowup_time(2.0, 2.0) == pytest.approx(0.5, rel=1e-14)
        assert homogeneous_blowup_time(1.0, 3.0) == pytest.approx(0.5, rel=1e-14)
        assert homogeneous_blowup_time(4.0, 2.0) == pytest.approx(0.25, rel=1e-14)

    def test_nonlinear_substep_matches_pointwise_ode(self):
        # For p=2 the exact amplitude map is a -> a / (1 - a dt).
        grid = small_grid()
        f = initial_field(ConstantProfile(2.0), grid)
        out = nonlinear_substep(f, 0.1, 2.0)
        assert np.allclose(out.values, 2.0 / (1.0 - 0.2))

    def test_nonlinear_substep_preserves_phase(self):
        grid = small_grid()
        f = FieldState(grid, np.full(grid.points, 1.0 + 1.0j))
        out = nonlinear_substep(f, 0.05, 2.0)
        phase_in = np.angle(f.values)
        phase_out = np.angle(out.values)
        assert np.allclose(phase_in, phase_out)

    def test_singular_substep_raises_with_admissible_dt(self):
        grid = small_grid()
        f = initial_field(ConstantProfile(2.0), grid)
        # blow-up of the substep at dt = 1/((p-1) sup^{p-1}) = 0.5
        with pytest.raises(SingularSubstepError) as err:
            nonlinear_substep(f, 0.6, 2.0)
        assert err.value.dt_admissible == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("m", [0.5, 1.0, 1.5, 2.0, 2.5])
    def test_in_place_gain_is_the_closed_form(self, m):
        # A density with zeros whose max sits just below the singular
        # level (m dt)^{-2/m}; the gain overwrites it and is returned.
        dt = 0.01
        singular = (m * dt) ** (-2.0 / m)
        rng = np.random.default_rng(7)
        dens = singular * rng.uniform(0.0, 1.0, 257)
        dens[::16] = 0.0
        dens[100] = singular * (1.0 - 1e-9)
        want = (1.0 - m * dt * dens ** (m / 2)) ** (-1 / m)
        got = _substep_gain(dens, dt, m)
        assert got is dens
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [0.5, 1.0, 1.5, 2.0, 2.5])
    def test_singular_gain_leaves_its_input_unchanged(self, m):
        dens = np.linspace(0.0, 4.0, 33)
        before = dens.copy()
        dt_adm = 1.0 / (m * 2.0 ** m)
        with pytest.raises(SingularSubstepError) as err:
            _substep_gain(dens, 1.5 * dt_adm, m)
        assert err.value.dt_admissible == dt_adm
        assert dens.tobytes() == before.tobytes()

    def test_strang_step_on_constant_data_is_exact(self):
        grid = small_grid()
        f = initial_field(ConstantProfile(2.0), grid)
        out = strang_step(f, 0.1, 2.0)
        # |D| annihilates constants, so the step is the pointwise ODE.
        assert np.allclose(out.values, 2.0 / (1.0 - 0.2))

    @given(amp=st.floats(0.5, 4.0), theta=st.floats(0.1, 0.9))
    def test_choose_dt_formula(self, amp, theta):
        grid = small_grid()
        f = initial_field(ConstantProfile(amp), grid)
        dt = choose_dt(f, 2.0, theta, dt_max=0.05)
        assert dt == pytest.approx(min(0.05, theta / amp), rel=1e-12)

    def test_choose_dt_general_power(self):
        grid = small_grid()
        f = initial_field(ConstantProfile(3.0), grid)
        dt = choose_dt(f, 3.0, 0.5, dt_max=10.0)
        assert dt == pytest.approx(0.5 / (2.0 * 9.0), rel=1e-12)


class TestSimulate:
    def test_constant_data_detects_at_exact_time(self):
        cfg = SimConfig(
            grid=small_grid(), p=2.0, profile=ConstantProfile(2.0),
            t_max=2.0, dt_max=1e-3,
        )
        series, report = simulate(cfg)
        assert report.blew_up
        assert report.criterion == "sup_threshold"
        assert report.t_detected == pytest.approx(0.5, abs=1e-3)
        assert report.final_sup >= cfg.sup_threshold
        assert series.times[-1] == pytest.approx(report.t_detected, rel=1e-9)

    def test_no_blowup_below_horizon(self):
        cfg = SimConfig(
            grid=small_grid(), p=2.0, profile=ConstantProfile(2.0),
            t_max=0.2, dt_max=1e-3,
        )
        series, report = simulate(cfg)
        assert not report.blew_up
        assert report.criterion is None
        assert report.t_detected is None
        assert series.times[-1] == pytest.approx(0.2, rel=1e-9)
        # solution still matches the homogeneous closed form at t_max
        assert report.final_sup == pytest.approx(2.0 / (1.0 - 2.0 * 0.2), rel=1e-6)

    def test_dt_underflow_detection(self):
        cfg = SimConfig(
            grid=small_grid(), p=2.0, profile=ConstantProfile(2.0),
            t_max=2.0, dt_max=1e-3, sup_threshold=1e250, dt_min=1e-12,
        )
        _, report = simulate(cfg)
        assert report.blew_up
        assert report.criterion == "dt_underflow"
        assert report.t_detected == pytest.approx(0.5, abs=1e-3)

    def test_detection_bracket_spans_last_stable_step(self):
        cfg = SimConfig(
            grid=small_grid(), p=2.0, profile=ConstantProfile(2.0),
            t_max=2.0, dt_max=1e-3,
        )
        _, report = simulate(cfg)
        lo, hi = report.bracket
        assert lo < hi
        assert hi == pytest.approx(report.t_detected, rel=1e-15)

    def test_detection_insensitive_to_sup_threshold(self):
        times = {}
        for thresh in (1e8, 1e10):
            cfg = SimConfig(
                grid=small_grid(), p=2.0, profile=ConstantProfile(2.0),
                t_max=2.0, dt_max=1e-3, sup_threshold=thresh,
            )
            _, report = simulate(cfg)
            times[thresh] = report.t_detected
        rel = abs(times[1e8] - times[1e10]) / times[1e8]
        assert rel < 1e-3

    def test_step_that_cannot_move_t_ends_the_run(self):
        # Constant data at p = 3 blow up at 1/(2 a^2) = 20000.  Near it
        # the adaptive dt falls below half the spacing of doubles at t
        # long before dt_min, so t + dt == t: that step is dt_underflow.
        cfg = stalling_config()
        assert homogeneous_blowup_time(0.005, 3.0) == pytest.approx(2e4, rel=1e-15)
        series, report = simulate(cfg)
        assert (report.criterion, report.t_detected) == ("dt_underflow",
                                                         19999.999999999993)
        assert report.bracket == (report.t_detected, report.t_detected)
        assert report.steps == 67
        assert series.times.size == report.steps + 1
        assert np.all(np.diff(series.times) > 0)
        assert series.times[-1] == report.t_detected
        assert report.final_sup == series.sup[-1]

    def test_series_is_monotone_in_time_and_has_weights(self):
        w = WeightSpec(1.0, 1.0)
        cfg = SimConfig(
            grid=small_grid(), p=2.0,
            profile=GaussianProfile(amplitude=1.0, width=1.0),
            t_max=0.3, dt_max=5e-3,
        )
        series, _ = simulate(cfg, weight=w)
        assert np.all(np.diff(series.times) > 0)
        assert series.weight == w
        assert len(series.momentum) == len(series.times)
        assert np.all(series.mass > 0)
        assert np.all(series.sup > 0)

    def test_mass_grows_under_repulsive_nonlinearity(self):
        cfg = SimConfig(
            grid=small_grid(), p=2.0,
            profile=GaussianProfile(amplitude=1.0, width=1.0),
            t_max=0.3, dt_max=5e-3,
        )
        series, _ = simulate(cfg)
        assert series.mass[-1] > series.mass[0]

    def test_scaling_family_halves_lifespan(self):
        results = {}
        for amp in (2.0, 4.0):
            cfg = SimConfig(
                grid=small_grid(), p=2.0, profile=ConstantProfile(amp),
                t_max=2.0, dt_max=1e-3,
            )
            _, report = simulate(cfg)
            results[amp] = report.t_detected
        assert results[2.0] == pytest.approx(0.5, abs=1e-3)
        assert results[4.0] == pytest.approx(0.25, abs=1e-3)

    def test_config_validation(self):
        grid = small_grid()
        prof = ConstantProfile(1.0)
        with pytest.raises(ValueError):
            SimConfig(grid=grid, p=1.0, profile=prof, t_max=1.0)
        with pytest.raises(ValueError):
            SimConfig(grid=grid, p=2.0, profile=prof, t_max=0.0)
        with pytest.raises(ValueError):
            SimConfig(grid=grid, p=2.0, profile=prof, t_max=1.0, theta=1.5)
        with pytest.raises(ValueError):
            SimConfig(grid=grid, p=2.0, profile=prof, t_max=1.0, dt_max=0.0)
        # t_max inf ran 0 steps; t_max nan never returned
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="t_max must be positive and finite"):
                SimConfig(grid=grid, p=2.0, profile=prof, t_max=bad)
            with pytest.raises(ValueError, match="dt_max < inf"):
                SimConfig(grid=grid, p=2.0, profile=prof, t_max=1.0, dt_max=bad)

    def test_step_budget(self):
        # t_max / dt_max bounds a run's steps and recorded rows: 5e5 steps
        # are allowed, 3e8 are refused before any step
        grid = small_grid()
        prof = ConstantProfile(1.0)
        SimConfig(grid=grid, p=2.0, profile=prof, t_max=1.0, dt_max=2e-6)
        with pytest.raises(ValueError, match=r"t_max = 0\.3 over dt_max = 1e-09"):
            SimConfig(grid=grid, p=2.0, profile=prof, t_max=0.3, dt_max=1e-9)


def focusing_config():
    """A spike of height 40 dispersed backwards, so the free flow refocuses it.

    The first step's dt comes from the dispersed sup (about 20); the
    second step's linear half-step raises the sup past 1/dt, so its
    nonlinear substep is singular.
    """
    grid = make_grid(1.0, 256)
    spike = 40.0 * np.exp(-((grid.nodes / 0.02) ** 2))
    dispersed = np.fft.ifft(np.fft.fft(spike) * np.exp(0.045j * grid.abs_wavenumber))
    return SimConfig(
        grid=grid, p=2.0, profile=lambda x: dispersed, t_max=1.0,
        dt_max=0.03, theta=0.9,
    )


def stalling_config():
    """Constant data whose run reaches a step too small to move t."""
    return SimConfig(grid=make_grid(1.0, 16), p=3.0,
                     profile=ConstantProfile(0.005), t_max=25000.0,
                     dt_max=1000.0)


class TestLeanLoop:
    """simulate against the FieldState reference loop, its order and its FFT budget."""

    # name -> (config, the criterion the reference loop reports)
    CASES = {
        "p2_sup_threshold": (
            gaussian_config(25.0, 256, 2.0, 2.0, t_max=5.0, dt_max=0.01),
            "sup_threshold"),
        "p3_dt_underflow": (
            gaussian_config(25.0, 256, 3.0, 1.0, t_max=5.0, dt_max=0.01, dt_min=1e-6),
            "dt_underflow"),
        "singular_substep": (focusing_config(), "nonlinear_substep_singular"),
        "stalled_clock": (stalling_config(), "dt_underflow"),
        "reaches_t_max": (
            gaussian_config(25.0, 256, 2.0, 1.0, t_max=0.4, dt_max=0.01),
            None),
        # Even but not a power of two: the mirrored phase symbol in the loop.
        "n384_sup_threshold": (
            gaussian_config(25.0, 384, 2.0, 2.0, t_max=5.0, dt_max=0.01),
            "sup_threshold"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_reference_loop(self, name):
        cfg, criterion = self.CASES[name]
        want_rows, want = reference_simulate(cfg)
        series, got = simulate(cfg)
        assert want.criterion == criterion
        assert (got.steps, got.criterion, got.blew_up) == (
            want.steps, want.criterion, want.blew_up)
        assert series_rows(series).shape == want_rows.shape
        if want.blew_up:
            assert got.t_detected == pytest.approx(want.t_detected, rel=1e-12, abs=0)
            assert got.bracket == pytest.approx(want.bracket, rel=1e-12, abs=0)
        np.testing.assert_allclose(series_rows(series), want_rows, rtol=1e-10, atol=0)
        assert got.final_sup == pytest.approx(want.final_sup, rel=1e-10)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_unrecorded_run_matches_recorded_run(self, name):
        # Unrecorded steps may be quiet; recorded ones never are.
        cfg = self.CASES[name][0]
        lean, lean_first, lean_last = report_rows(cfg, every_step=False)
        full, full_first, full_last = report_rows(cfg)
        for field in ("steps", "criterion", "t_detected", "bracket", "final_sup"):
            assert getattr(lean, field) == getattr(full, field), field
        assert lean_first == full_first
        assert lean_last == full_last

    def test_second_order_in_time_on_gaussian_data(self):
        # At theta = 0.9 the adaptive step never undercuts dt_max here, so
        # every run takes fixed steps of dt_max and the error of each
        # diagnostic at t_max shrinks by 4 per halving.
        finals = []
        for dt_max in (0.04, 0.02, 0.01, 0.005):
            cfg = gaussian_config(25.0, 512, 2.0, 1.0, t_max=0.4, dt_max=dt_max, theta=0.9)
            series, report = simulate(cfg)
            assert not report.blew_up
            assert np.all(series.dts[1:-1] == dt_max)
            q = series.momentum
            finals.append([series.lp1[-1], series.h1[-1], series.sup[-1], q[-1]])
        diffs = np.abs(np.diff(np.array(finals), axis=0))
        orders = np.log2(diffs[:-1] / diffs[1:])
        assert np.all((orders >= 1.9) & (orders <= 2.1)), orders

    def test_three_ffts_per_step(self, monkeypatch):
        calls = []
        for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft"):
            original = getattr(np.fft, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(_original.__name__)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        _, report = simulate(self.CASES["p2_sup_threshold"][0])
        assert report.steps > 10
        assert len(calls) <= 3 * report.steps + 1

    def test_two_ffts_per_quiet_step(self, monkeypatch):
        # A lifespan-sweep member: only the report is kept, and the steps
        # run at dt_max until the sup nears the blow-up rate.
        cfg = self.CASES["p2_sup_threshold"][0]
        calls, spectra = [], []
        for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft"):
            original = getattr(np.fft, name)

            def counted(*args, _original=original, **kwargs):
                out = _original(*args, **kwargs)
                calls.append(_original.__name__)
                if _original.__name__ == "fft":
                    spectra.append(out)
                return out

            monkeypatch.setattr(np.fft, name, counted)
        _, report = simulate(cfg, every_step=False)
        assert report.criterion == "sup_threshold"
        # One forward FFT starts the run and one ends each step.
        assert len(spectra) == report.steps + 1
        # The sup of ifft(spec) is at most the Wiener norm sum|spec|/N.  A
        # step that ends below both the sup threshold and the sup at which
        # dt starts to adapt is quiet: it needs no ifft(spec).
        limit = min(cfg.sup_threshold,
                    (cfg.theta / ((cfg.p - 1.0) * cfg.dt_max)) ** (1.0 / (cfg.p - 1.0)))
        wiener = np.array([np.sum(np.abs(s)) / s.size for s in spectra[1:]])
        assert np.all(np.abs(wiener / limit - 1.0) > 1e-3)  # none near the margin
        quiet = int(np.sum(wiener < limit))
        assert quiet > report.steps / 2
        assert len(calls) == 1 + 2 * quiet + 3 * (report.steps - quiet)


class TestQuietSteps:
    """The Wiener-norm margin errs on the side of forming u."""

    @staticmethod
    def constant_config(**kw):
        # Constant data stay constant under the flow: the single Fourier
        # mode k = 0, whose Wiener norm equals its sup at every step.
        return SimConfig(grid=make_grid(5.0, 64), p=2.0, profile=ConstantProfile(1.0),
                         t_max=2.0, dt_max=0.01, **kw)

    def constant_sups(self, monkeypatch):
        """The recorded constant run, whose every sup equals its Wiener norm."""
        spectra = []
        original = np.fft.fft

        def kept(*args, **kwargs):
            spectra.append(original(*args, **kwargs))
            return spectra[-1]

        with monkeypatch.context() as patch:
            patch.setattr(np.fft, "fft", kept)
            series, _ = simulate(self.constant_config(theta=0.9))
        assert [np.sum(np.abs(s)) / s.size for s in spectra] == series.sup.tolist()
        return series

    def assert_same_run(self, **kw):
        lean = report_rows(self.constant_config(**kw), every_step=False)
        full = report_rows(self.constant_config(**kw))
        assert lean == full

    @pytest.mark.parametrize("side", [-1, 0, 1])
    def test_margin_at_the_sup_threshold(self, side, monkeypatch):
        sup = float(self.constant_sups(monkeypatch).sup[40])
        threshold = {-1: np.nextafter(sup, 0.0), 0: sup, 1: np.nextafter(sup, np.inf)}[side]
        self.assert_same_run(sup_threshold=float(threshold))

    @pytest.mark.parametrize("side", [-1, 0, 1])
    def test_margin_at_the_adaptive_dt_level(self, side, monkeypatch):
        # At p = 2, dt adapts once the sup passes theta/dt_max; this theta
        # puts that level at step 40's sup, so steps 1..40 still take dt_max.
        series = self.constant_sups(monkeypatch)
        assert np.all(series.dts[1:41] == 0.01)
        theta = 0.01 * float(series.sup[40]) * (1.0 + side * 1e-15)
        self.assert_same_run(theta=theta)

    def test_corrupt_spectrum_raises_at_the_same_step(self, monkeypatch):
        cfg = TestLeanLoop.CASES["p2_sup_threshold"][0]
        original = np.fft.fft

        def message(every_step, k=5):
            # fft call 0 starts the run; call k ends step k, a quiet step here.
            calls = []

            def corrupt(*args, **kwargs):
                out = original(*args, **kwargs)
                if len(calls) == k:
                    out[0] = np.nan
                calls.append(1)
                return out

            monkeypatch.setattr(np.fft, "fft", corrupt)
            with pytest.raises(CorruptFieldError) as err:
                simulate(cfg, every_step=every_step)
            return str(err.value)

        assert message(False) == message(True)

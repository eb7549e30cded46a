"""Bernoulli comparison ODE: closed form and the bounds read off it."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fgl_lab import (
    BlowupExceededError,
    BoundParams,
    OdeParams,
    blowup_time,
    closed_form_eval,
    critical_initial_norm,
    lifespan_upper_bound,
    lower_bound_divergence_time,
    weighted_norm_lower_bound,
)

SQRT_PI = math.sqrt(math.pi)

# Reference bound parameters used in several frozen values below:
# p = 2, kappa = 1/2, ||1/h||_2 = sqrt(pi), v0 = 2 x threshold.
REF = BoundParams(
    p=2.0,
    kappa=0.5,
    inv_weight_norm=SQRT_PI,
    initial_weighted_norm=SQRT_PI,
)


def supercritical_params(draw_tuple):
    c1, c2, q, ratio = draw_tuple
    params = OdeParams(c1=c1, c2=c2, q=q, f0=1.0)
    return OdeParams(c1=c1, c2=c2, q=q, f0=params.equilibrium * ratio)


param_strategy = st.tuples(
    st.floats(0.1, 3.0),
    st.floats(0.1, 3.0),
    st.floats(1.8, 3.5),
    st.floats(1.2, 5.0),
).map(supercritical_params)


class TestClosedForm:
    def test_canonical_blowup_time_is_log_two(self):
        params = OdeParams(c1=1.0, c2=1.0, q=2.0, f0=2.0)
        assert blowup_time(params) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_frozen_value_at_half(self):
        params = OdeParams(c1=1.0, c2=1.0, q=2.0, f0=2.0)
        assert closed_form_eval(params, 0.5) == pytest.approx(
            5.69348449872319, rel=1e-12
        )

    def test_equilibrium(self):
        params = OdeParams(c1=2.0, c2=0.5, q=3.0, f0=1.0)
        assert params.equilibrium == pytest.approx(2.0, rel=1e-15)

    def test_subcritical_data_is_global(self):
        params = OdeParams(c1=1.0, c2=1.0, q=2.0, f0=0.5)
        assert blowup_time(params) == math.inf

    def test_equilibrium_data_is_global(self):
        params = OdeParams(c1=1.0, c2=1.0, q=2.0, f0=1.0)
        assert blowup_time(params) == math.inf

    def test_eval_at_blowup_raises(self):
        params = OdeParams(c1=1.0, c2=1.0, q=2.0, f0=2.0)
        with pytest.raises(BlowupExceededError):
            closed_form_eval(params, blowup_time(params))

    def test_initial_value(self):
        params = OdeParams(c1=0.7, c2=1.3, q=2.5, f0=3.0)
        assert closed_form_eval(params, 0.0) == pytest.approx(3.0, rel=1e-14)

    def test_decaying_branch_matches_adaptive_integration(self):
        # Criterion 01 draws only data above the equilibrium; this checks
        # the decaying branch against an independent DOP853 solve.
        from scipy.integrate import solve_ivp

        rng = np.random.default_rng(7)
        for _ in range(10):
            c1, c2 = rng.uniform(0.1, 3.0, size=2)
            q = rng.uniform(1.8, 3.5)
            eq = (c1 / c2) ** (1.0 / (q - 1.0))
            params = OdeParams(c1=c1, c2=c2, q=q, f0=eq * rng.uniform(0.1, 0.95))
            assert blowup_time(params) == math.inf
            t_end = 5.0 / c1
            sol = solve_ivp(
                lambda t, y: (-c1 * y[0] + c2 * y[0] ** q,), (0.0, t_end),
                (params.f0,), method="DOP853", rtol=1e-12, atol=1e-300,
                dense_output=True,
            )
            assert sol.success
            times = np.linspace(0.0, t_end, 41)
            numeric = sol.sol(times)[0]
            exact = closed_form_eval(params, times)
            assert np.max(np.abs(exact - numeric) / numeric) < 1e-9

    @given(params=param_strategy)
    def test_supercritical_solutions_increase(self, params):
        t_star = blowup_time(params)
        t = np.linspace(0.0, 0.95 * t_star, 50)
        f = closed_form_eval(params, t)
        assert np.all(np.diff(f) > 0)

    @given(params=param_strategy)
    def test_closed_form_solves_the_ode(self, params):
        # f' + c1 f = c2 f^q, checked by a central difference.
        t_star = blowup_time(params)
        t = 0.5 * t_star
        eps = 1e-7 * t_star
        f_plus = closed_form_eval(params, t + eps)
        f_minus = closed_form_eval(params, t - eps)
        deriv = (f_plus - f_minus) / (2 * eps)
        f = closed_form_eval(params, t)
        rhs = -params.c1 * f + params.c2 * f**params.q
        assert deriv == pytest.approx(rhs, rel=1e-5)

    def test_equilibrium_past_the_double_range_is_inf(self):
        # (1e300)^(1e7) overflows a float power
        params = OdeParams(c1=1e300, c2=1.0, q=1.0000001, f0=1.0)
        assert params.equilibrium == math.inf
        assert blowup_time(params) == math.inf

    def test_blowup_time_when_the_power_overflows(self):
        # f0^(1-q) = 1e14700: the argument is far above 1, so T* is +inf
        params = OdeParams(c1=1.0, c2=1e300, q=50.0, f0=1e-300)
        assert blowup_time(params) == math.inf
        # f0^(1-q) = 1e310 but c1/c2 = 1e-320: the argument is 1e-10 < 1,
        # and T* = -log1p(-1e-10) / (c1 (q - 1))
        params = OdeParams(c1=1e-20, c2=1e300, q=2.0, f0=1e-310)
        assert blowup_time(params) == pytest.approx(1e10, rel=1e-9)

    def test_closed_form_overflow_names_the_stage(self):
        params = OdeParams(c1=1.0, c2=1e300, q=50.0, f0=1e-300)
        with pytest.raises(OverflowError, match=r"closed form's f0\^\(1-q\) "
                           r"overflows at c1 = 1, c2 = 1e\+300, f0 = 1e-300, "
                           r"q - 1 = 49"):
            closed_form_eval(params, np.linspace(0.0, 5.0, 3))
        # f0 = 1e300 is finite, but f grows past the double range at the
        # second sample: refused by name, with no numpy warning on the way.
        params = OdeParams(c1=1.0, c2=1e300, q=1.0000001, f0=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=r"closed form's f\(t\) "
                               r"overflows at t = 5e-296, c1 = 1, "
                               r"c2 = 1e\+300, f0 = 1e\+300, q - 1 = 1e-07"):
                closed_form_eval(params, np.linspace(0.0, 1e-295, 3))

    def test_closed_form_keeps_its_digits_as_q_tends_to_one(self):
        # A power 1/(q-1) = 1e7 of the bracket would lift its rounding to
        # 5e-10 relative; through log1p, f(0) is f0.
        params = OdeParams(c1=1e300, c2=1.0, q=1.0 + 1e-7, f0=2.0)
        f = closed_form_eval(params, np.linspace(0.0, 5e-300, 3))
        assert abs(f[0] - 2.0) <= 1e-15 * 2.0
        assert np.all(np.diff(f) < 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            OdeParams(c1=-1.0, c2=1.0, q=2.0, f0=1.0)
        with pytest.raises(ValueError):
            OdeParams(c1=1.0, c2=0.0, q=2.0, f0=1.0)
        with pytest.raises(ValueError):
            OdeParams(c1=1.0, c2=1.0, q=1.0, f0=1.0)
        with pytest.raises(ValueError):
            OdeParams(c1=1.0, c2=1.0, q=2.0, f0=0.0)


class TestBounds:
    def test_frozen_threshold(self):
        assert critical_initial_norm(REF) == pytest.approx(
            0.8862269254527579, rel=1e-15
        )

    def test_threshold_general_power(self):
        b = BoundParams(
            p=3.0, kappa=0.25, inv_weight_norm=2.0, initial_weighted_norm=1.0
        )
        assert critical_initial_norm(b) == pytest.approx(2.0 * 0.5, rel=1e-14)

    def test_frozen_lower_bound_values(self):
        assert weighted_norm_lower_bound(REF, 0.1) == pytest.approx(
            1.7771254255147795, rel=1e-13
        )

    def test_frozen_lower_bound_at_doubled_data_norm(self):
        # frozen by direct evaluation of the printed formula
        b = BoundParams(
            p=2.0, kappa=0.5, inv_weight_norm=math.sqrt(math.pi),
            initial_weighted_norm=2.0 * math.sqrt(math.pi),
        )
        assert weighted_norm_lower_bound(b, 0.1) == pytest.approx(
            3.9849603755030123, rel=1e-13
        )

    def test_lower_bound_starts_at_v0(self):
        assert weighted_norm_lower_bound(REF, 0.0) == (
            pytest.approx(REF.initial_weighted_norm, rel=1e-14)
        )

    def test_divergence_time_and_lifespans(self):
        t_div = lower_bound_divergence_time(REF)
        assert t_div == pytest.approx(2 * math.log(2.0), rel=1e-12)
        assert lifespan_upper_bound(REF) == pytest.approx(4 * math.log(2.0),
                                                          rel=1e-12)

    def test_bound_diverges_and_raises_past_divergence(self):
        t_div = lower_bound_divergence_time(REF)
        near = weighted_norm_lower_bound(REF, t_div * (1 - 1e-12))
        assert near > 1e5
        with pytest.raises(BlowupExceededError):
            weighted_norm_lower_bound(REF, t_div)
        with pytest.raises(BlowupExceededError):
            weighted_norm_lower_bound(REF, 2 * t_div)

    def test_below_threshold_no_lifespan_bound(self):
        b = BoundParams(
            p=2.0,
            kappa=0.5,
            inv_weight_norm=SQRT_PI,
            initial_weighted_norm=0.5 * 0.8862269254527579,
        )
        res = lifespan_upper_bound(b)
        assert not math.isfinite(res)
        assert res == math.inf
        assert lower_bound_divergence_time(b) == math.inf

    @given(
        p=st.floats(1.5, 3.0),
        kappa=st.floats(0.05, 2.0),
        ninv=st.floats(0.5, 4.0),
        ratio=st.floats(1.05, 4.0),
        frac=st.floats(0.05, 0.9),
    )
    def test_sharp_bound_is_comparison_ode_solution(self, p, kappa, ninv, ratio, frac):
        # The bound written out for V = ||u/h||_2, independent of the
        # comparison ODE the code reads it off.
        m = p - 1.0
        v0 = ratio * kappa ** (1.0 / m) * ninv
        b = BoundParams(
            p=p, kappa=kappa, inv_weight_norm=ninv, initial_weighted_norm=v0
        )
        t_div = -math.log1p(-kappa * ninv**m * v0 ** (-m)) / (kappa * m)
        t = frac * t_div
        bracket = v0 ** (-m) + (ninv ** (-m) / kappa) * math.expm1(-kappa * m * t)
        expected = math.exp(-2.0 * kappa * t) * bracket ** (-1.0 / m)
        assert weighted_norm_lower_bound(b, t) == (
            pytest.approx(expected, rel=1e-12)
        )

    @given(
        p=st.floats(1.5, 3.0),
        kappa=st.floats(0.05, 2.0),
        ninv=st.floats(0.5, 4.0),
        ratio=st.floats(1.05, 4.0),
    )
    def test_comparison_ode_blowup_matches_sharp_lifespan(self, p, kappa, ninv, ratio):
        # the divergence time of the bracket above, written out
        m = p - 1.0
        v0 = ratio * kappa ** (1.0 / m) * ninv
        b = BoundParams(
            p=p, kappa=kappa, inv_weight_norm=ninv, initial_weighted_norm=v0
        )
        expected = -math.log1p(-kappa * ninv**m * v0 ** (-m)) / (kappa * m)
        assert lifespan_upper_bound(b) == pytest.approx(2.0 * expected,
                                                        rel=1e-12)
        assert lower_bound_divergence_time(b) == pytest.approx(expected, rel=1e-12)

    def test_vanishing_kappa_limit_is_continuous(self):
        tiny = BoundParams(
            p=2.0, kappa=1e-13, inv_weight_norm=SQRT_PI, initial_weighted_norm=1.0
        )
        small = BoundParams(
            p=2.0, kappa=1e-7, inv_weight_norm=SQRT_PI, initial_weighted_norm=1.0
        )
        t = 0.3
        a = weighted_norm_lower_bound(tiny, t)
        c = weighted_norm_lower_bound(small, t)
        assert a == pytest.approx(c, rel=1e-5)
        assert lower_bound_divergence_time(tiny) == pytest.approx(
            lower_bound_divergence_time(small), rel=1e-5
        )

    def test_zero_kappa_rejected(self):
        # kappa = 0 only for h == 1, whose ||1/h||_2 is infinite
        with pytest.raises(ValueError, match="kappa"):
            BoundParams(p=2.0, kappa=0.0, inv_weight_norm=SQRT_PI,
                        initial_weighted_norm=1.0)

"""Acceptance gate: every headline claim of the package, one test each.

Each test prints exactly one ``[criterion NN] PASS/FAIL`` line (straight
to the real stdout, bypassing capture) before asserting, so a plain
``pytest tests/test_acceptance.py`` run always shows the full scoreboard.
"""

import json
import math
import os
from dataclasses import replace


import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import svdvals

from fgl_lab import (
    BoundParams,
    ConstantProfile,
    GaussianProfile,
    OdeParams,
    SimConfig,
    SupercriticalError,
    WeightSpec,
    apply_commutator,
    apply_half_wave,
    blowup_time,
    bounds_consistency,
    closed_form_eval,
    critical_initial_norm,
    estimate_kappa,
    estimate_weighted_kernel_norm,
    fit_tail_decay,
    h1_norm,
    homogeneous_blowup_time,
    initial_field,
    inv_weight_values,
    kernel_transform,
    l2_norm,
    lifespan_sweep,
    make_grid,
    mass_identity_residual,
    norm_inv_h,
    simulate,
    subcritical_threshold,
)
from fgl_lab.cli import main
from fgl_lab.grid import FieldState

W = WeightSpec(1.0, 1.0)


@pytest.fixture
def scoreboard(capsys):
    """Print one pass/fail line through pytest's capture to the terminal."""

    def report(num: int, ok: bool, detail: str) -> str:
        line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}"
        with capsys.disabled():
            print(f"\n{line}", flush=True)
        return line

    return report


def _weighted_norm(u: FieldState, w: WeightSpec) -> float:
    dens = np.abs(u.values) ** 2 * inv_weight_values(w, u.grid) ** 2
    return math.sqrt(u.grid.dx * float(np.sum(dens)))


def test_criterion_01_closed_form_matches_adaptive_oracle(scoreboard):
    """Bernoulli closed form vs independent adaptive integration."""
    rng = np.random.default_rng(20260814)
    worst_val = 0.0
    worst_tstar = 0.0
    for _ in range(50):
        c1 = rng.uniform(0.1, 3.0)
        c2 = rng.uniform(0.1, 3.0)
        q = rng.uniform(1.8, 3.5)
        eq = (c1 / c2) ** (1.0 / (q - 1.0))
        params = OdeParams(c1=c1, c2=c2, q=q, f0=eq * rng.uniform(1.2, 5.0))
        t_star = blowup_time(params)

        def rhs(t, y):
            return (-params.c1 * y[0] + params.c2 * y[0] ** params.q,)

        sol = solve_ivp(rhs, (0.0, 0.99 * t_star), (params.f0,),
                        method="DOP853", rtol=1e-12, atol=1e-300,
                        dense_output=True)
        assert sol.success
        times = np.linspace(0.0, 0.99 * t_star, 41)
        numeric = sol.sol(times)[0]
        exact = closed_form_eval(params, times)
        worst_val = max(worst_val,
                        float(np.max(np.abs(exact - numeric) / numeric)))

        def hits_threshold(t, y):
            return y[0] - 1e10

        hits_threshold.terminal = True
        hits_threshold.direction = 1.0
        # aim just past the singularity: either the threshold event fires,
        # or (for steep q) the crossing lies within a few float ulps of
        # t_star and the integrator stalls there with an underflowing step
        div = solve_ivp(rhs, (0.0, t_star * (1.0 + 1e-6)), (params.f0,),
                        method="DOP853", rtol=1e-12, atol=1e-300,
                        events=(hits_threshold,))
        if div.t_events[0].size:
            t_hit = float(div.t_events[0][0])
        else:
            assert div.status == -1, div.message
            t_hit = float(div.t[-1])
        worst_tstar = max(worst_tstar, abs(t_star - t_hit) / t_star)
    canonical = blowup_time(OdeParams(c1=1.0, c2=1.0, q=2.0, f0=2.0))
    canonical_ok = abs(canonical - math.log(2.0)) < 1e-15
    ok = worst_val <= 1e-6 and worst_tstar <= 1e-4 and canonical_ok
    line = scoreboard(
        1, ok,
        f"closed form vs adaptive oracle over 50 random parameter draws: "
        f"worst value error {worst_val:.2e} (budget 1e-6), worst lifespan "
        f"gap {worst_tstar:.2e} (budget 1e-4); canonical unit case gives "
        f"T* = ln 2 exactly: {canonical_ok}",
    )
    assert ok, line


def test_criterion_02_homogeneous_blowup_times_match_theory(scoreboard):
    """Constant data blows up at the exact ODE lifespan, across amplitudes."""
    grid = make_grid(10.0, 64)
    worst = 0.0
    for amp in (1.0, 2.0, 4.0):
        cfg = SimConfig(grid=grid, p=2.0, profile=ConstantProfile(amp),
                        t_max=1.5, dt_max=1e-3)
        _, report = simulate(cfg)
        assert report.blew_up
        assert homogeneous_blowup_time(amp, 2.0) == 1.0 / amp
        worst = max(worst, abs(report.t_detected - 1.0 / amp))
    ok = worst <= 1e-3
    line = scoreboard(
        2, ok,
        f"detected blow-up time vs exact lifespan 1/R for constant data "
        f"R in (1,2,4): worst error {worst:.2e} (budget 1e-3)",
    )
    assert ok, line


def test_criterion_03_mass_growth_identity_prefers_factor_two(scoreboard):
    """d/dt ||u||^2 tracks 2 Re integral of |u|^{p-1} u u-bar, not 1x."""
    cfg = SimConfig(
        grid=make_grid(50.0, 512), p=2.0,
        profile=GaussianProfile(amplitude=1.5, width=1.0),
        t_max=0.25, dt_max=2e-3,
    )
    series, _ = simulate(cfg)
    rep = mass_identity_residual(series)
    res2 = float(np.max(rep.residual_two))
    res1 = float(np.mean(rep.residual_one))
    ok = rep.best_factor == 2 and res2 < 1e-3 and 0.9 < res1 < 1.1
    line = scoreboard(
        3, ok,
        f"factor-2 residual {res2:.2e} (budget 1e-3), factor-1 residual "
        f"{res1:.3f} (should sit near 1), best factor {rep.best_factor}",
    )
    assert ok, line


def test_criterion_04_linear_flow_preserves_invariants(scoreboard):
    """The half-wave propagator alone conserves mass and H1 to round-off."""
    f = initial_field(GaussianProfile(amplitude=1.0, width=1.0),
                      make_grid(50.0, 256))
    mass, h1 = [l2_norm(f) ** 2], [h1_norm(f)]
    for _ in range(200):  # 10 time units in steps of 0.05
        f = apply_half_wave(f, 0.05)
        mass.append(l2_norm(f) ** 2)
        h1.append(h1_norm(f))
    mass, h1 = np.array(mass), np.array(h1)
    mass_drift = float(np.max(np.abs(mass - mass[0])) / mass[0])
    h1_drift = float(np.max(np.abs(h1 - h1[0])) / h1[0])
    ok = mass_drift < 1e-10 and h1_drift < 1e-10
    line = scoreboard(
        4, ok,
        f"10 time units of free flow: mass drift {mass_drift:.2e}, "
        f"H1 drift {h1_drift:.2e} (budget 1e-10)",
    )
    assert ok, line


def test_criterion_05_commutator_norm_validated_and_scales(scoreboard):
    """Lanczos equals a dense SVD; kappa_1 holds under dx refinement.

    Rung R runs on (12.5R, 256R).  By the grid identity
    A(h_R; RL, N) = A(h_1; L, N)/R, R * kappa_R there is kappa_1 on
    (12.5, 256R), so the spread measures kappa_1 under dx refinement from
    N = 256 to 2048.  The 1/R law itself is checked bit for bit in
    tests/test_experiments.py::TestDilationIdentity.
    """
    grid = make_grid(20.0, 256)
    est = estimate_kappa(W, grid, tol=1e-10).kappa
    cols = []
    for j in range(grid.points):
        e = np.zeros(grid.points, dtype=complex)
        e[j] = 1.0
        cols.append(apply_commutator(W, grid, FieldState(grid, e)).values)
    dense = svdvals(np.column_stack(cols))[0]
    svd_err = abs(est - dense) / dense

    base = make_grid(12.5, 256)
    products = []
    for r in (1.0, 2.0, 4.0, 8.0):
        grid_r = make_grid(base.half_length * r, int(base.points * r))
        products.append(
            r * estimate_kappa(replace(W, scale=r), grid_r, tol=1e-9).kappa
        )
    spread = max(products) / min(products) - 1.0
    ok = svd_err <= 1e-6 and spread <= 0.15
    line = scoreboard(
        5, ok,
        f"kappa vs dense SVD: rel err {svd_err:.2e} (budget 1e-6); "
        f"kappa_1 under dx refinement N = 256 -> 2048 (kappa_R * R over "
        f"R in (1,2,4,8)): spread {spread:.2%} (budget 15%)",
    )
    assert ok, line


def test_criterion_06_weighted_kernel_norm_uniformly_bounded(scoreboard):
    """||h^-1 <x-y>^-2 h||_{L2->L2} stays below 2 pi as the domain grows."""
    norms = {
        (half_length, points): estimate_weighted_kernel_norm(
            W, make_grid(half_length, points), tol=1e-9,
        )
        for half_length, points in
        ((100.0, 2048), (100.0, 4096), (200.0, 4096))
    }
    cap = 2.0 * math.pi * 1.02
    base = norms[(100.0, 2048)]
    dx_change = abs(norms[(100.0, 4096)] - base) / base
    dom_change = abs(norms[(200.0, 4096)] - base) / base
    ok = (all(n <= cap for n in norms.values())
          and dx_change <= 0.02 and dom_change <= 0.02)
    line = scoreboard(
        6, ok,
        f"norm {base:.6f} vs cap 2 pi = {2 * math.pi:.6f} (2% slack); "
        f"change {dx_change:.2e} under dx refinement, {dom_change:.2e} "
        f"under domain doubling (budget 2%)",
    )
    assert ok, line


def test_criterion_07_inverse_weight_norm_quadrature(scoreboard):
    """||1/h||_2 matches sqrt(pi R) for the bracket weight at scale R."""
    grid = make_grid(200.0, 8192)
    worst = 0.0
    for r in (1.0, 2.0, 4.0):
        got = norm_inv_h(replace(W, scale=r), grid)
        want = math.sqrt(math.pi * r)
        worst = max(worst, abs(got - want) / want)
    ok = worst <= 1e-3
    line = scoreboard(
        7, ok,
        f"||1/h_R||_2 vs sqrt(pi R) for R in (1,2,4): worst rel err "
        f"{worst:.2e} (budget 1e-3)",
    )
    assert ok, line


def test_criterion_08_kernel_tail_decay_quadratic(scoreboard):
    """Smooth-cutoff kernel: quadratic envelope decay with a stable constant.

    The slope is fitted on (10, 100) and (20, 200).  The envelope constant
    max |g|(1+x^2) is compared on (50, 100) and (100, 200): below x ~ 50
    the windowed max is set by the bump's transition-band term (decaying
    like exp(-1.2 sqrt(x))), not by the quadratic tail, so it depends on
    where the window starts.  The far constant must also match the |xi|
    kink coefficient 2 (the Fourier transform of |xi| is -2/x^2).
    """
    x = np.arange(8.0, 230.0, 0.02)
    g = kernel_transform(x, num_nodes=12800)
    fit = fit_tail_decay(x, g, window=(10.0, 100.0))
    shifted = fit_tail_decay(x, g, window=(20.0, 200.0))
    near = fit_tail_decay(x, g, window=(50.0, 100.0))
    far = fit_tail_decay(x, g, window=(100.0, 200.0))
    pre_change = abs(shifted.constant - fit.constant) / fit.constant
    c_change = abs(far.constant - near.constant) / near.constant
    kink_gap = abs(far.constant - 2.0) / 2.0
    slopes_ok = fit.slope <= -1.8 and shifted.slope <= -1.8
    far_slopes_ok = abs(near.slope + 2.0) <= 0.2 and abs(far.slope + 2.0) <= 0.2
    constant_ok = c_change <= 0.10 and kink_gap <= 0.10
    ok = slopes_ok and far_slopes_ok and constant_ok
    line = scoreboard(
        8, ok,
        f"envelope slopes {fit.slope:.3f} / {shifted.slope:.3f} "
        f"(budget <= -1.8), far {near.slope:.3f} / {far.slope:.3f} "
        f"(want -2 +- 0.2); constant {near.constant:.4f} -> "
        f"{far.constant:.4f} on (50,100) -> (100,200): shift {c_change:.1%} "
        f"(budget 10%), {kink_gap:.1%} from kink coefficient 2 (budget 10%); "
        f"pre-asymptotic shift (10,100) -> (20,200) {pre_change:.1%}, "
        f"not asserted",
    )
    assert ok, line


def test_criterion_09_blowup_run_consistent_with_certified_bounds(scoreboard):
    """A supercritical run beats its certified lifespan and both margins."""
    grid = make_grid(100.0, 2048)
    kappa = estimate_kappa(W, grid, tol=1e-8).kappa
    ninv = norm_inv_h(W, grid)
    unit = _weighted_norm(
        initial_field(GaussianProfile(amplitude=1.0, width=1.0),
                      grid), W,
    )
    b_probe = BoundParams(p=2.0, kappa=kappa, inv_weight_norm=ninv,
                          initial_weighted_norm=1.0)
    amplitude = 2.0 * critical_initial_norm(b_probe) / unit
    cfg = SimConfig(
        grid=grid, p=2.0,
        profile=GaussianProfile(amplitude=amplitude, width=1.0),
        t_max=3.0, dt_max=0.01,
    )
    audit = bounds_consistency(cfg)
    t_det = audit.report.t_detected
    bound = audit.bound
    lower_worst = audit.lower_margins.worst
    growth_worst = audit.growth_margins.worst
    ok = (audit.report.blew_up and t_det <= 1.1 * bound
          and lower_worst >= -0.05 and growth_worst >= -1e-9)
    line = scoreboard(
        9, ok,
        f"data at 2x threshold: t_detected {t_det:.4f} <= 1.1 x bound "
        f"{bound:.4f}; worst margins lower {lower_worst:.3f} (budget -0.05) "
        f"/ per-step growth {growth_worst:.3g} (budget -1e-9)",
    )
    assert ok, line


def test_criterion_10_lifespan_scaling_exponents(scoreboard):
    """Detected lifespan scales like R^{-(p-1)} along amplitude dilations."""
    grid = make_grid(50.0, 1024)
    base2 = SimConfig(
        grid=grid, p=2.0, t_max=2.0, dt_max=0.01,
        profile=GaussianProfile(amplitude=2.0, width=1.0))
    sweep2 = lifespan_sweep(base2, (1.0, 2.0, 4.0, 8.0))
    base3 = SimConfig(
        grid=grid, p=3.0, t_max=2.0, dt_max=0.01,
        profile=GaussianProfile(amplitude=1.2, width=1.0))
    sweep3 = lifespan_sweep(base3, (1.0, 2.0, 4.0, 8.0))
    ok = (abs(sweep2.slope + 1.0) <= 0.1 and abs(sweep3.slope + 2.0) <= 0.2
          and sweep2.included.all() and sweep3.included.all())
    line = scoreboard(
        10, ok,
        f"log-log slope p=2: {sweep2.slope:.4f} (want -1 +- 0.1); "
        f"p=3: {sweep3.slope:.4f} (want -2 +- 0.2)",
    )
    assert ok, line


def test_criterion_11_dilation_certifies_small_data_blowup(scoreboard):
    """Weight dilation certifies blow-up of small data, and the run obeys it."""
    base = make_grid(12.5, 256)
    profile = GaussianProfile(amplitude=0.16, width=2.0)
    u0 = initial_field(profile, base)
    found = subcritical_threshold(u0, 2.0)
    ratio = found.r0 / found.predicted_r0

    cfg = SimConfig(grid=make_grid(50.0, 1024), p=2.0, profile=profile,
                    t_max=20.0, dt_max=0.05)
    _, report = simulate(cfg)

    with pytest.raises(SupercriticalError):
        subcritical_threshold(u0, 3.0)

    ok = (math.isfinite(found.r0) and 0.25 <= ratio <= 4.0
          and math.isfinite(found.bound) and report.blew_up
          and report.t_detected <= 1.1 * found.bound)
    line = scoreboard(
        11, ok,
        f"R0 = {found.r0:g} (continuum estimate {found.predicted_r0:.2f}); "
        f"run blew up at t = {report.t_detected:.2f} within certified "
        f"{found.bound:.2f}; p = 3 correctly refused",
    )
    assert ok, line


def test_criterion_12_cli_outputs_reproducible(scoreboard, tmp_path, monkeypatch, capsys):
    """Same command, same seed: byte-identical output tree."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1755129600")
    out = tmp_path / "run"
    argv = [
        "simulate", "--out-dir", str(out), "--seed", "1",
        "--grid.half_length", "10", "--grid.points", "64",
        "--evolution.profile", "constant", "--evolution.amplitude", "2",
        "--evolution.dt_max", "1e-3", "--evolution.t_max", "1",
    ]

    def snapshot():
        files = {}
        for root, _, names in os.walk(out):
            for name in names:
                full = os.path.join(root, name)
                with open(full, "rb") as fh:
                    files[os.path.relpath(full, out)] = fh.read()
        return files

    assert main(argv) == 0
    first = snapshot()
    assert main(argv) == 0
    second = snapshot()
    capsys.readouterr()
    same_names = first.keys() == second.keys()
    diffs = [rel for rel in first if second.get(rel) != first[rel]]
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    listed = set(manifest["outputs"]) == set(first.keys())
    ok = same_names and not diffs and listed and len(first) >= 8
    line = scoreboard(
        12, ok,
        f"two identical runs wrote {len(first)} files, "
        f"{len(diffs)} differing; manifest lists the full tree: {listed}",
    )
    assert ok, line

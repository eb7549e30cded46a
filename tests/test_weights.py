"""Bracket weights, commutator norm estimation, and the smoothing kernel."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import svdvals
from scipy.sparse.linalg import LinearOperator, eigsh
from scipy.special import hyp2f1

from fgl_lab import (
    ConvergenceError,
    FieldState,
    WeightSpec,
    apply_commutator,
    apply_weighted_kernel,
    estimate_kappa,
    estimate_weighted_kernel_norm,
    inv_weight_values,
    make_grid,
    norm_inv_h,
    weight_values,
    weighted_kernel_matrix,
)
from fgl_lab.weights import (
    _commutator_closures,
    _kernel_closures,
    _operator_norm,
    _tail_integral,
    _top_ritz_pair,
)


def random_field(grid, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points)
    return FieldState(grid, vals)


def inner(f, g):
    return complex(np.vdot(f.values, g.values) * f.grid.dx)


class TestWeightSpec:
    def test_values_on_grid(self):
        grid = make_grid(10.0, 64)
        w = WeightSpec(1.0, 1.0)
        h = weight_values(w, grid)
        x = grid.nodes
        assert np.allclose(h, np.sqrt(1.0 + x**2))
        assert np.allclose(inv_weight_values(w, grid) * h, 1.0)

    def test_scale_dilates_argument(self):
        grid = make_grid(10.0, 64)
        h2 = weight_values(WeightSpec(1.0, 2.0), grid)
        x = grid.nodes
        assert np.allclose(h2, np.sqrt(1.0 + (x / 2.0) ** 2))

    def test_exponent_zero_is_flat(self):
        grid = make_grid(10.0, 64)
        assert np.allclose(weight_values(WeightSpec(0.0, 1.0), grid), 1.0)

    def test_label_and_rescale(self):
        w = WeightSpec(1.0, 1.0)
        assert w.label == "bracket_s1_R1"
        assert replace(w, scale=4.0).label == "bracket_s1_R4"

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightSpec(-0.5, 1.0)
        with pytest.raises(ValueError):
            WeightSpec(1.0, 0.0)


class TestNormInvH:
    def test_bracket_weight_norm_is_sqrt_pi(self):
        grid = make_grid(50.0, 2048)
        assert norm_inv_h(WeightSpec(1.0, 1.0), grid) == pytest.approx(
            math.sqrt(math.pi), rel=1e-3
        )

    def test_dilation_scales_like_sqrt_r(self):
        grid = make_grid(50.0, 2048)
        base = norm_inv_h(WeightSpec(1.0, 1.0), grid)
        doubled = norm_inv_h(WeightSpec(1.0, 2.0), grid)
        assert doubled / base == pytest.approx(math.sqrt(2.0), rel=1e-3)

    def test_tail_correction_improves_truncation(self):
        grid = make_grid(50.0, 2048)
        w = WeightSpec(1.0, 1.0)
        with_tail = norm_inv_h(w, grid)
        without = math.sqrt(grid.dx * float(np.sum(inv_weight_values(w, grid) ** 2)))
        exact = math.sqrt(math.pi)
        assert abs(with_tail - exact) < abs(without - exact)

    def test_non_integrable_weight_is_refused(self):
        # 1/h^2 is not integrable for 2s <= 1, so ||1/h||_2 is infinite
        grid = make_grid(50.0, 2048)
        for s in (0.0, 0.25, 0.4, 0.5):
            with pytest.raises(ValueError, match=f"exponent {s:g}"):
                norm_inv_h(WeightSpec(s, 1.0), grid)

    @staticmethod
    def hypergeometric_tail(s, a, length):
        # int_L^inf (1 + (x/a)^2)^{-s} dx
        #   = a y^{1-2s}/(2s-1) 2F1(s, s-1/2; s+1/2; -1/y^2),  y = L/a
        y = length / a
        return (a * y ** (1 - 2 * s) / (2 * s - 1)
                * hyp2f1(s, s - 0.5, s + 0.5, -1.0 / y**2))

    @pytest.mark.parametrize("s", [0.55, 0.6, 0.75, 0.9, 1.0, 1.25, 1.5, 2.0,
                                   2.5, 3.0, 4.0, 6.0])
    def test_tail_matches_hypergeometric_closed_form(self, s):
        # L from 6.25 to 51200 beyond the weight scale: the sine series.
        # scipy's hyp2f1 is itself off by up to 7e-16 on this grid.
        for a in (0.5, 1.0, 4.0, 256.0):
            for length in (6.25 * 2.0**k for k in range(14)):
                if length > a:
                    assert _tail_integral(s, a, length) == pytest.approx(
                        self.hypergeometric_tail(s, a, length), rel=2e-15)
        # L at or inside the weight scale: the full integral minus the
        # cosine series, which cancels more as s grows.
        for length in (6.25, 25.0, 100.0, 200.0, 256.0):
            assert _tail_integral(s, 256.0, length) == pytest.approx(
                self.hypergeometric_tail(s, 256.0, length), rel=1e-13)

    @pytest.mark.parametrize("s", [171.1, 200.0])
    def test_tail_where_gamma_overflows(self, s):
        # Gamma(s) overflows above s ~ 171.6; the ratio of the full
        # integral goes through lgamma there
        from scipy.integrate import quad

        want = quad(lambda x: (1.0 + (x / 1000.0) ** 2) ** -s, 10.0, np.inf,
                    epsabs=0.0, epsrel=1e-13)[0]
        assert _tail_integral(s, 1000.0, 10.0) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("s, a, half_length", [(0.75, 256.0, 51200.0),
                                                   (2.0, 4.0, 1600.0)])
    def test_tail_at_large_scales(self, s, a, half_length):
        # adaptive quadrature read 34.740 instead of 36.204 for the first
        # (4% low) and warned on both
        want = self.hypergeometric_tail(s, a, half_length)
        assert _tail_integral(s, a, half_length) == pytest.approx(want, rel=1e-15)
        grid = make_grid(half_length, 4096)
        w = WeightSpec(s, a)
        on_grid = grid.dx * float(np.sum(inv_weight_values(w, grid) ** 2))
        assert norm_inv_h(w, grid) == pytest.approx(
            math.sqrt(on_grid + 2.0 * want), rel=1e-15)


class TestCommutator:
    @given(seed=st.integers(0, 2**31 - 1))
    def test_adjoint_identity(self, seed):
        grid = make_grid(15.0, 64)
        w = WeightSpec(1.0, 1.0)
        f = random_field(grid, seed)
        g = random_field(grid, seed + 1)
        lhs = inner(apply_commutator(w, grid, f), g)
        rhs = inner(f, apply_commutator(w, grid, g, adjoint=True))
        scale = max(abs(lhs), abs(rhs), 1e-30)
        assert abs(lhs - rhs) / scale < 1e-10

    def test_linearity(self):
        grid = make_grid(15.0, 64)
        w = WeightSpec(1.0, 1.0)
        f = random_field(grid, 5)
        g = random_field(grid, 6)
        combo = FieldState(grid, 2.0 * f.values - 1.5j * g.values)
        out = apply_commutator(w, grid, combo)
        expected = (
            2.0 * apply_commutator(w, grid, f).values
            - 1.5j * apply_commutator(w, grid, g).values
        )
        assert np.max(np.abs(out.values - expected)) < 1e-10

    def test_flat_weight_commutator_vanishes(self):
        grid = make_grid(15.0, 64)
        w = WeightSpec(0.0, 1.0)
        f = random_field(grid, 9)
        out = apply_commutator(w, grid, f)
        assert np.max(np.abs(out.values)) < 1e-12

    def test_estimate_matches_dense_svd(self):
        grid = make_grid(10.0, 128)
        w = WeightSpec(1.0, 1.0)
        mat = np.zeros((128, 128), dtype=complex)
        basis = np.eye(128)
        for j in range(128):
            col = apply_commutator(w, grid, FieldState(grid, basis[:, j]))
            mat[:, j] = col.values
        sigma_dense = svdvals(mat)[0]
        est = estimate_kappa(w, grid, tol=1e-10, seed=0)
        assert est.kappa == pytest.approx(sigma_dense, rel=1e-8)
        assert est.iterations < 10000
        assert est.kappa > 0

    @pytest.mark.parametrize("half_length, points", [(15.0, 64), (100.0, 2048)])
    def test_packed_closures_match_unpacked_operator(self, half_length, points):
        # the real closures Lanczos runs against the complex-field oracle
        grid = make_grid(half_length, points)
        w = WeightSpec(1.0, 1.0)
        apply_a, apply_a_star = _commutator_closures(w, grid)
        random = np.random.default_rng(7).standard_normal(points)
        nyquist = (-1.0) ** np.arange(points)
        for v in (random, nyquist):
            for packed, adjoint in ((apply_a, False), (apply_a_star, True)):
                out = packed(v)
                assert out.dtype == np.float64
                want = apply_commutator(w, grid, FieldState(grid, v),
                                        adjoint=adjoint).values
                assert np.max(np.abs(out - want)) <= 1e-12 * np.max(np.abs(want))

    def test_fft_budget_is_one_real_pair_per_operator(self, monkeypatch):
        # A and A^T each take one rfft/irfft pair: 4 transforms per A^T A
        calls = []
        for name in ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft", "fft2",
                     "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn",
                     "irfftn"):
            def counted(*args, _original=getattr(np.fft, name), **kwargs):
                calls.append(_original)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        grid = make_grid(10.0, 256)
        est = estimate_kappa(WeightSpec(1.0, 1.0), grid, tol=1e-10)
        assert est.iterations > 0
        assert len(calls) == 4 * est.iterations
        calls.clear()
        # h == 1 gives A = 0 on the grid: beta_1 = 0 ends the first step
        flat = estimate_kappa(WeightSpec(0.0, 1.0), grid, tol=1e-10)
        assert flat.iterations == 1
        assert len(calls) == 4

    @pytest.mark.parametrize("points", [8, 1024, 8192, 16384])
    def test_buffered_closures_match_fresh_arrays_bitwise(self, points):
        # the reference stacks its inputs and lets every FFT allocate
        grid = make_grid(points / 80.0, points)
        w = WeightSpec(1.0, 1.0)
        h = weight_values(w, grid)
        absk = grid.abs_wavenumber[: points // 2 + 1]

        def abs_d_pair(a, b):
            return np.fft.irfft(np.fft.rfft(np.stack((a, b))) * absk, points)

        def ref_a(f):
            df, dhf = abs_d_pair(f, h * f)
            return 1.0 / h * dhf - df

        def ref_a_star(g):
            dg, dg_over_h = abs_d_pair(g, 1.0 / h * g)
            return h * dg_over_h - dg

        apply_a, apply_a_star = _commutator_closures(w, grid)
        rng = np.random.default_rng(points)
        kept = []
        for _ in range(3):
            for closure, ref in ((apply_a, ref_a), (apply_a_star, ref_a_star)):
                v = rng.standard_normal(points)
                out = closure(v)
                assert np.array_equal(out, ref(v))
                kept.append((out, out.copy()))
        # no returned array shares a buffer with a later application
        for out, snapshot in kept:
            assert np.array_equal(out, snapshot)

    def test_applications_reuse_their_fft_buffers(self, monkeypatch):
        # every rfft/irfft of a solve writes into one array per function, so
        # no application allocates its FFT pair afresh
        outs = {"rfft": [], "irfft": []}
        for name, seen in outs.items():
            def recorded(*args, _original=getattr(np.fft, name), _seen=seen,
                         **kwargs):
                _seen.append(kwargs.get("out"))
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, recorded)
        est = estimate_kappa(WeightSpec(1.0, 1.0), make_grid(100.0, 1024))
        for seen in outs.values():
            assert len(seen) == 2 * est.iterations
            assert seen[0] is not None
            assert all(out is seen[0] for out in seen)

    def test_estimate_flat_weight_is_zero(self):
        grid = make_grid(10.0, 64)
        est = estimate_kappa(WeightSpec(0.0, 1.0), grid, tol=1e-10, seed=0)
        assert est.kappa == 0.0

    def test_seed_determinism(self):
        grid = make_grid(10.0, 128)
        w = WeightSpec(1.0, 1.0)
        a = estimate_kappa(w, grid, tol=1e-10, seed=42).kappa
        b = estimate_kappa(w, grid, tol=1e-10, seed=42).kappa
        assert a == b

    def test_start_vector_replaces_the_seed(self):
        grid = make_grid(10.0, 128)
        w = WeightSpec(1.0, 1.0)
        start = np.random.default_rng(3).standard_normal(128)
        a = estimate_kappa(w, grid, tol=1e-10, seed=1, start=start)
        # the start is normalized first, and scaling by 2 is exact
        b = estimate_kappa(w, grid, tol=1e-10, seed=2, start=2.0 * start)
        assert (a.kappa, a.iterations) == (b.kappa, b.iterations)

    @pytest.mark.parametrize("half_length, points", [(10.0, 128), (50.0, 1024)])
    def test_ritz_vector_is_the_top_singular_vector(self, half_length, points):
        grid = make_grid(half_length, points)
        w = WeightSpec(1.0, 1.0)
        apply_a, _ = _commutator_closures(w, grid)
        mat = np.column_stack([apply_a(e) for e in np.eye(points)])
        lam, vecs = np.linalg.eigh(mat.T @ mat)
        est = estimate_kappa(w, grid, tol=1e-10)
        assert est.vector.dtype == np.float32
        v = est.vector.astype(float)
        v /= np.linalg.norm(v)
        top = vecs[:, -1]
        # sin of the angle to the top vector: at most the residual bound
        # rho / gap, rho <= tol kappa^2, plus float32 rounding (1e-7 here)
        gap = (lam[-1] - lam[-2]) / lam[-1]
        sin = np.linalg.norm(v - (v @ top) * top)
        assert sin <= 1e-10 / gap + 1e-6
        # a solve started from it stops at once
        again = estimate_kappa(w, grid, tol=1e-6, start=est.vector)
        assert again.iterations <= 2
        assert again.kappa == pytest.approx(est.kappa, rel=1e-12)

    def test_iteration_budget_raises(self):
        grid = make_grid(10.0, 128)
        apply_a, apply_a_star = _commutator_closures(WeightSpec(1.0, 1.0), grid)
        with pytest.raises(ConvergenceError, match="in 1 applications"):
            _operator_norm(apply_a, apply_a_star, grid.points, tol=1e-14,
                           max_iter=1, seed=0)

    @pytest.mark.parametrize("half_length, points",
                             [(10.0, 128), (50.0, 1024), (100.0, 2048)])
    def test_lanczos_matches_dense_svd_for_every_seed(self, half_length, points):
        # (100, 2048) has a near-degenerate top pair, the hardest case
        grid = make_grid(half_length, points)
        apply_a, _ = _commutator_closures(WeightSpec(1.0, 1.0), grid)
        mat = np.column_stack([apply_a(e) for e in np.eye(points)])
        sigma = math.sqrt(np.linalg.eigvalsh(mat.T @ mat)[-1])
        for seed in (0, 1, 7, 42):
            est = estimate_kappa(WeightSpec(1.0, 1.0), grid, seed=seed)
            assert est.kappa == pytest.approx(sigma, rel=1e-8)

    @pytest.mark.parametrize("half_length, points", [(1.0, 4), (2.0, 8), (10.0, 8)])
    def test_lanczos_when_the_krylov_space_runs_out(self, half_length, points):
        # the recurrence meets beta = 0 (to rounding) within N applications
        grid = make_grid(half_length, points)
        for w in (WeightSpec(1.0, 1.0), WeightSpec(2.0, 0.5)):
            apply_a, _ = _commutator_closures(w, grid)
            mat = np.column_stack([apply_a(e) for e in np.eye(points)])
            est = estimate_kappa(w, grid)
            assert est.kappa == pytest.approx(svdvals(mat)[0], rel=1e-12)
            assert est.iterations <= points
            kernel = svdvals(weighted_kernel_matrix(w, grid))[0]
            assert estimate_weighted_kernel_norm(w, grid) == pytest.approx(
                kernel, rel=1e-12)

    @pytest.mark.parametrize("half_length, points", [
        (50.0, 1024), (100.0, 2048), (100.0, 4096), (100.0, 8192),
        (200.0, 16384)])
    def test_lanczos_needs_no_more_applications_than_arpack(self, half_length,
                                                             points):
        # the grids the benchmark's certify workload solves kappa on; ARPACK
        # (eigsh, the same start vector and stopping test) is the oracle
        grid = make_grid(half_length, points)
        apply_a, apply_a_star = _commutator_closures(WeightSpec(1.0, 1.0), grid)
        for seed in (0, 42):
            count = 0

            def normal(v):
                nonlocal count
                count += 1
                return apply_a_star(apply_a(v))

            v0 = np.random.default_rng(seed).standard_normal(points)
            op = LinearOperator((points, points), matvec=normal, dtype=float)
            lam = eigsh(op, k=1, which="LA", v0=v0, tol=1e-8,
                        return_eigenvectors=False)[0]
            est = estimate_kappa(WeightSpec(1.0, 1.0), grid, seed=seed)
            assert est.iterations <= count
            assert est.kappa == pytest.approx(math.sqrt(lam), rel=1e-8)


def eigh_operator_norm(apply_op, apply_adjoint, n, tol, max_iter, seed):
    """_operator_norm's Lanczos loop with a dense eigh of T_j as its Ritz
    test: the oracle for where _operator_norm stops and what it returns."""
    def dot(x, y):
        return float(np.einsum("i,i->", x, y))

    v = np.random.default_rng(seed).standard_normal(n)
    v /= math.sqrt(dot(v, v))
    v_prev = np.zeros(n)
    alphas, betas = [], []
    beta, next_test = 0.0, 1
    for j in range(1, max_iter + 1):
        w = apply_adjoint(apply_op(v)) - beta * v_prev
        alphas.append(dot(v, w))
        w -= alphas[-1] * v
        beta = math.sqrt(dot(w, w))
        if j >= next_test or j == max_iter or beta == 0.0:
            theta, vecs = np.linalg.eigh(np.diag(alphas) + np.diag(betas, -1))
            top, residual = float(theta[-1]), beta * abs(float(vecs[-1, -1]))
            if residual <= tol * top:
                return math.sqrt(max(top, 0.0)), j
            next_test = j + 1 + j // 64
        betas.append(beta)
        v_prev, v = v, w / beta
    raise ConvergenceError("oracle did not converge")


# The grids the benchmark's certify workload solves kappa on: the base
# grids and their domain-doubled and dx-refined check grids.
CERTIFY_GRIDS = [(50.0, 1024), (50.0, 2048), (100.0, 2048), (100.0, 4096),
                 (200.0, 4096), (100.0, 8192), (200.0, 8192), (200.0, 16384)]


class TestLanczosRitzTest:
    @pytest.mark.parametrize("half_length, points", CERTIFY_GRIDS)
    def test_stops_where_the_eigh_loop_stops(self, half_length, points):
        grid = make_grid(half_length, points)
        apply_a, apply_a_star = _commutator_closures(WeightSpec(1.0, 1.0), grid)
        for seed in (0, 1, 7, 42):
            for tol in (1e-8, 1e-5, 5e-4):
                want, stop = eigh_operator_norm(apply_a, apply_a_star, points,
                                                tol, 1000, seed)
                got, applications, _ = _operator_norm(
                    apply_a, apply_a_star, points, tol, 1000, seed)
                assert applications == stop
                assert got == pytest.approx(want, rel=2e-15, abs=0)

    def test_needs_no_lapack(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        for name in ("eigh", "eigvalsh", "eig", "svd"):
            monkeypatch.setattr(np.linalg, name, refuse)
        grid = make_grid(20.0, 256)
        w = WeightSpec(1.0, 1.0)
        base = estimate_kappa(w, grid)
        assert base.kappa > 0
        # the Ritz vector path: formed at the stop, then a warm start
        warm = estimate_kappa(w, make_grid(40.0, 512), tol=5e-4,
                              start=np.pad(base.vector, 128))
        assert warm.kappa > 0
        assert estimate_weighted_kernel_norm(w, grid) > 0

    @pytest.mark.parametrize("budget, grids", [
        (0.05, [(100.0, 2048), (200.0, 4096), (200.0, 8192), (200.0, 16384)]),
    ])
    def test_check_solves_are_as_precise_as_their_budget(self, budget, grids):
        # a solve at tol = budget / 100, the grid checks' tolerance, from
        # the seed's vector: its Ritz value must sit within budget / 200 of
        # kappa, relative (the checks' own warm starts are tested below)
        w = WeightSpec(1.0, 1.0)
        for half_length, points in grids:
            grid = make_grid(half_length, points)
            for seed in (0, 1, 7, 42):
                sharp = estimate_kappa(w, grid, tol=1e-12, seed=seed).kappa
                check = estimate_kappa(w, grid, tol=budget / 100, seed=seed).kappa
                assert abs(check - sharp) <= budget / 200 * sharp

    @pytest.mark.parametrize("exponent, refine, most", [
        (0.75, False, 6), (1.0, False, 6), (1.25, False, 6), (1.0, True, 14),
    ], ids=["0.75", "1.0", "1.25", "refine-1.0"])
    def test_warm_doubling_solves_are_as_precise_and_short(self, exponent,
                                                           refine, most):
        # a grid check starts its re-solve from the base solve's top Ritz
        # vector, read at the check grid's nodes: on the 5%-budget domain
        # doubled grids (2L, 2N), or with refine the 1e-3-budget dx-refined
        # grids (L, 2N), it must still sit within budget / 200 of kappa and
        # stop within most applications.  A cold re-solve takes 7 to 21 on
        # the doubled grids, and 14 to 17 at s = 1 on the refined ones,
        # where a warm one takes 10 to 14.
        budget = 1e-3 if refine else 0.05
        w = WeightSpec(exponent, 1.0)
        grids = ([(50.0, 2048), (100.0, 4096), (100.0, 8192)] if refine else
                 [(100.0, 2048), (200.0, 4096), (200.0, 8192), (200.0, 16384)])
        for half_length, points in grids:
            grid = make_grid(half_length, points)
            sharp = estimate_kappa(w, grid, tol=1e-12).kappa
            base_grid = make_grid(half_length if refine else half_length / 2,
                                  points // 2)
            for seed in (0, 1, 7, 42):
                base = estimate_kappa(w, base_grid, seed=seed)
                start = np.interp(grid.nodes, base_grid.nodes, base.vector,
                                  left=0.0, right=0.0)
                check = estimate_kappa(w, grid, tol=budget / 100, start=start)
                assert abs(check.kappa - sharp) <= budget / 200 * sharp
                assert check.iterations <= most


def random_tridiagonals(rng, kind, count):
    """(diagonal, off-diagonal) lists of orders 1 to 70."""
    for _ in range(count):
        m = int(rng.integers(1, 71))
        diag = rng.standard_normal(m)
        off = np.abs(rng.standard_normal(m - 1)) * 10.0 ** rng.uniform(-8, 0)
        if kind == "mirrored":  # persymmetric: near-degenerate top pairs
            diag = diag + diag[::-1]
        elif kind == "split" and m > 1:
            off[rng.integers(0, m - 1)] = 0.0
        elif kind == "integer":  # exact eigenvalues, exactly zero pivots
            diag = rng.integers(0, 3, m).astype(float)
            off = rng.integers(0, 2, m - 1).astype(float)
        yield diag.tolist(), off.tolist()


class TestTopRitzPair:
    @pytest.mark.parametrize("seed, kind", [
        (0, "random"), (1, "mirrored"), (2, "split"), (3, "integer")])
    def test_matches_eigh(self, seed, kind):
        rng = np.random.default_rng(seed)
        eps = np.finfo(float).eps
        for diag, off in random_tridiagonals(rng, kind, 400):
            lam, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, -1))
            norm = max(abs(lam[0]), abs(lam[-1]))
            # no start, a start at the top eigenvalue, and one at the first
            # diagonal entry, which makes the first pivot exactly 0
            for guess in (math.nan, float(lam[-1]), diag[0]):
                theta, z = _top_ritz_pair(diag, off, guess)
                assert abs(theta - lam[-1]) <= 8 * eps * norm
                assert abs(np.linalg.norm(z) - 1.0) <= 8 * eps
            s = abs(z[-1])
            gap = lam[-1] - lam[-2] if len(diag) > 1 else math.inf
            if gap > 1e-3 * norm:
                bound = 64 * eps * norm / gap
                assert abs(s - abs(vecs[-1, -1])) <= bound
                # the whole vector, up to sign
                top = vecs[:, -1] * math.copysign(1.0, z @ vecs[:, -1])
                assert np.max(np.abs(z - top)) <= bound

    @pytest.mark.parametrize("diag, off, theta, s", [
        ([3.0], [], 3.0, 1.0),
        ([2.0, 1.0, 0.0], [0.0, 0.0], 2.0, 0.0),
        ([5.0, 1.0, 2.0], [0.0, 0.5], 5.0, 0.0),
        ([1.0, 1.0], [1.0], 2.0, math.sqrt(0.5)),
        ([1.0, 1.0, 0.0], [1.0, 0.0], 2.0, 0.0),
        ([0.0, 1.0, 1.0], [0.0, 1.0], 2.0, math.sqrt(0.5)),
    ])
    def test_exact_pairs_with_zero_pivots(self, diag, off, theta, s):
        # each T - theta I has a pivot that is exactly 0
        got_theta, got_z = _top_ritz_pair(diag, off)
        assert got_theta == theta
        assert abs(got_z[-1]) == pytest.approx(s, rel=1e-15)


class TestWeightedKernel:
    def test_flat_weight_norm_below_pi(self):
        # h == 1: the kernel is <x-y>^{-2}, whose convolution norm is pi.
        grid = make_grid(100.0, 1024)
        val = estimate_weighted_kernel_norm(WeightSpec(0.0, 1.0), grid)
        assert val <= math.pi * 1.001
        assert val > 0.9 * math.pi

    def test_estimate_matches_dense_svd(self):
        grid = make_grid(20.0, 256)
        w = WeightSpec(1.0, 1.0)
        mat = weighted_kernel_matrix(w, grid)
        est = estimate_weighted_kernel_norm(w, grid)
        assert est == pytest.approx(svdvals(mat)[0], rel=1e-7)

    def test_apply_matches_matrix(self):
        # K is applied matrix-free; K^T is checked too, Lanczos uses both.
        for w in (WeightSpec(1.0, 1.0), WeightSpec(0.5, 3.0)):
            for points in (256, 1024):
                grid = make_grid(20.0, points)
                f = random_field(grid, 3)
                mat = weighted_kernel_matrix(w, grid)
                out = apply_weighted_kernel(w, grid, f)
                assert np.allclose(out.values, mat @ f.values,
                                   rtol=1e-12, atol=1e-14)
                _, apply_k_t = _kernel_closures(w, grid)
                v = f.values.real
                assert np.allclose(apply_k_t(v), mat.T @ v,
                                   rtol=1e-12, atol=1e-14)

    def test_norm_bounded_as_domain_grows(self):
        # Matrix-free, so the domain can grow past what a dense matrix allows.
        w = WeightSpec(1.0, 1.0)
        base = estimate_weighted_kernel_norm(w, make_grid(100.0, 2048), tol=1e-9)
        for half_length, points in ((400.0, 8192), (800.0, 16384),
                                    (1600.0, 32768)):
            val = estimate_weighted_kernel_norm(
                w, make_grid(half_length, points), tol=1e-9
            )
            assert val <= 2.0 * math.pi * 1.02
            assert abs(val - base) / base <= 0.02

    def test_grid_budget_guard(self):
        grid = make_grid(100.0, 8192)
        with pytest.raises(ValueError, match="points"):
            weighted_kernel_matrix(WeightSpec(1.0, 1.0), grid)

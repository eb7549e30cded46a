"""Smooth-cutoff kernel: bump profile, oscillatory transform, tail fit."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import fgl_lab
from fgl_lab import bump_eval, fit_tail_decay, kernel_decay, kernel_transform

ROOT = Path(__file__).resolve().parents[1]

# The bump's plateau end a and support end b.
PLATEAU_END, SUPPORT_END = 1.0, 2.0

# independently frozen quadrature values (verified against adaptive
# quadrature of the same integrand at 1e-11 absolute tolerance)
G_AT_ZERO = 2.2769187101710813

def g_at(x):
    """kernel_transform at one sample."""
    return kernel_transform(np.array([x]))[0]


def full_range_complex_transform(x, num_nodes=12800):
    """Reference rule: int phi(|xi|)|xi| e^{i x xi} over [-b, b], complex.

    32-node Gauss-Legendre panels of equal width on each side of the
    origin, the phase matrix exp(1j x xi) built over every node.  It uses
    neither the evenness of the symbol nor the plateau, so its real part
    is an independent check of kernel_transform and its imaginary part
    shows the odd part of the symbol integrates to round-off.
    """
    per_panel = 32
    panels_per_side = max(4, math.ceil(num_nodes / (2 * per_panel)))
    base_x, base_w = np.polynomial.legendre.leggauss(per_panel)
    edges = np.linspace(0.0, SUPPORT_END, panels_per_side + 1)
    xs, ws = [], []
    for side in (-1.0, 1.0):
        for a, b in zip(edges[:-1], edges[1:]):
            half = 0.5 * (b - a)
            mid = 0.5 * (a + b)
            xs.append(side * (mid + half * base_x))
            ws.append(half * base_w)
    nodes, wts = np.concatenate(xs), np.concatenate(ws)
    weighted = wts * bump_eval(nodes) * np.abs(nodes)
    return np.exp(1j * np.outer(np.asarray(x, dtype=float), nodes)) @ weighted


def direct_panel_rule(x, num_nodes=12800):
    """The ramp rule with one cosine per sample and node, plus the plateau.

    The same 32-node Gauss-Legendre panels on [a, b] that kernel_transform
    uses, summed as cos(outer(x, nodes)) @ weights with no split of the
    phase, so it checks the split on any x.
    """
    a, b = PLATEAU_END, SUPPORT_END
    num_panels = math.ceil(max(4, math.ceil(num_nodes / 64)) * (b - a) / b)
    edges = np.linspace(a, b, num_panels + 1)
    half = 0.5 * (b - a) / num_panels
    base_x, base_w = np.polynomial.legendre.leggauss(32)
    nodes = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * base_x).ravel()
    weights = 2.0 * np.tile(half * base_w, num_panels) * bump_eval(nodes) * nodes
    x = np.asarray(x, dtype=float)
    plateau = a * a * (2.0 * np.sinc(a * x / np.pi) - np.sinc(a * x / (2 * np.pi)) ** 2)
    return plateau + np.cos(np.outer(x, nodes)) @ weights


def cosine_quadrature(x, a=PLATEAU_END):
    """g(x) = 2 int_0^b phi(xi) xi cos(x xi) d xi by QUADPACK's
    cosine-weighted rule, on the plateau [0, a] and the ramp [a, b]."""
    def integrand(xi):
        return float(bump_eval(xi)) * xi

    pieces = [
        quad(integrand, lo, hi, weight="cos", wvar=x,
             epsabs=1e-14, epsrel=1e-14, limit=200)[0]
        for lo, hi in ((0.0, a), (a, SUPPORT_END))
    ]
    return 2.0 * sum(pieces)


class TestBump:
    def test_plateau_is_one(self):
        assert bump_eval(0.0) == 1.0
        assert bump_eval(0.5) == 1.0
        assert bump_eval(1.0) == 1.0

    def test_vanishes_outside_support(self):
        assert bump_eval(2.0) == 0.0
        assert bump_eval(5.0) == 0.0

    def test_midpoint_of_ramp(self):
        assert bump_eval(1.5) == pytest.approx(0.5, abs=1e-15)

    def test_even_in_rho(self):
        r = np.linspace(-3, 3, 41)
        assert np.array_equal(bump_eval(r), bump_eval(-r))

    def test_strictly_decreasing_on_ramp(self):
        # avoid the first/last few percent of the ramp, where the
        # C-infinity step saturates to 1.0 (resp. 0.0) in double precision
        r = np.linspace(1.1, 1.9, 30)
        v = bump_eval(r)
        assert np.all(np.diff(v) < 0)
        assert np.all((v > 0) & (v < 1))


class TestTransform:
    def test_value_at_origin(self):
        assert g_at(0.0) == pytest.approx(G_AT_ZERO, rel=1e-12)

    def test_even_in_x(self):
        x = np.array([0.5, 1.7, 12.0, 40.0])
        gp = kernel_transform(x)
        gm = kernel_transform(-x)
        assert np.allclose(gp, gm, rtol=0, atol=1e-12)

    def test_matches_full_range_complex_rule(self):
        x = np.linspace(0.0, 400.0, 201)
        z = full_range_complex_transform(x)
        assert np.max(np.abs(kernel_transform(x) - z.real)) <= 1e-13
        assert np.max(np.abs(z.imag)) < 1e-12 * np.max(np.abs(z.real))

    def test_phase_split_matches_direct_rule(self):
        # unsorted samples of both signs, far past the CLI range, and 0
        x = np.random.default_rng(5).uniform(-1000.0, 1000.0, 3000)
        x[1234] = 0.0
        gap = np.max(np.abs(kernel_transform(x) - direct_panel_rule(x)))
        assert gap <= 1e-13

    def test_permuting_samples_permutes_output_exactly(self):
        # enough samples to span several chunks
        rng = np.random.default_rng(6)
        x = rng.uniform(-400.0, 400.0, 25000)
        perm = rng.permutation(x.size)
        assert np.array_equal(kernel_transform(x[perm]),
                              kernel_transform(x)[perm])

    # the 4,000 `fgl kernel` samples in 26, 109 or 236 blocks of two
    # sizes (25 blocks of 160 at the default budget)
    @pytest.mark.parametrize("budget", [100 * 154, 100 * 37, 100 * 17])
    def test_block_size_does_not_change_bits(self, monkeypatch, budget):
        x = np.linspace(5.0, 400.0, 4000)
        g = kernel_transform(x)
        monkeypatch.setattr(kernel_decay, "_BLOCK_REALS", budget)
        assert np.array_equal(kernel_transform(x), g)

    # fewer samples than a block holds (163 at the default 100 panels), a
    # full block, and one sample more, which must not leave a one-sample
    # last block: BLAS sums a product that small with another kernel, and
    # its last bits differ
    @pytest.mark.parametrize("count", [1, 40, kernel_decay._BLOCK_REALS // 100,
                                       kernel_decay._BLOCK_REALS // 100 + 1])
    def test_blocks_match_one_block(self, monkeypatch, count):
        x = np.random.default_rng(7).uniform(-400.0, 400.0, count)
        g = kernel_transform(x)
        monkeypatch.setattr(kernel_decay, "_BLOCK_REALS", 2**20)
        assert np.array_equal(kernel_transform(x), g)

    @staticmethod
    def traced_peak(x):
        tracemalloc.start()
        try:
            kernel_transform(x)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_does_not_grow_with_samples(self):
        # the block arrays take 0.6 MiB; the rest is a few arrays of x's size
        assert self.traced_peak(np.linspace(0.0, 400.0, 10**5)) < 8 * 2**20

    def test_peak_memory_of_the_cli_default(self):
        # the 4,000 samples on [5, 400] of `fgl kernel`
        assert self.traced_peak(np.linspace(5.0, 400.0, 4000)) < 2 * 2**20

    def test_node_count_converged(self):
        x = np.array([0.0, 5.0, 25.0, 50.0])
        coarse = kernel_transform(x, num_nodes=12800)
        fine = kernel_transform(x, num_nodes=25600)
        assert np.max(np.abs(coarse - fine)) < 1e-9

    # abscissae of the windowed maxima of |g|(1+x^2) that decide
    # criterion 08 on (10,100), (20,200), (50,100) and (100,200)
    @pytest.mark.parametrize("x", [17.66, 28.04, 51.24, 103.62])
    def test_matches_adaptive_cosine_quadrature(self, x):
        assert g_at(x) == pytest.approx(cosine_quadrature(x), rel=0, abs=1e-12)

    # small x guards the plateau's closed form against the cancellation
    # in (cos ax - 1)/x^2; at plateau end 1.3 the plateau end is not an
    # edge of the panels a rule over [0, 2] would use.  The plateau end
    # is a module constant, patched here to reach the other bumps.
    @pytest.mark.parametrize("x", [0.0, 1e-8, 1e-4, 1e-2, 0.5, 3.0])
    @pytest.mark.parametrize("plateau_end", [PLATEAU_END, 0.5, 1.3],
                             ids=["a1", "a0.5", "a1.3"])
    def test_small_x_matches_adaptive_cosine_quadrature(self, monkeypatch,
                                                        plateau_end, x):
        monkeypatch.setattr(kernel_decay, "_PLATEAU_END", plateau_end)
        assert g_at(x) == pytest.approx(cosine_quadrature(x, plateau_end),
                                        rel=0, abs=1e-12)

    def test_envelope_settles_near_two(self):
        # |g(x)| (1 + x^2) -> 2 for the quadratic-kink tail
        g50 = g_at(50.0)
        assert abs(g50) * (1 + 50.0**2) == pytest.approx(2.0, abs=0.2)

    def test_node_floor(self):
        with pytest.raises(ValueError):
            kernel_transform(np.array([1.0]), num_nodes=100)


class TestTailFit:
    def test_pure_power_law_recovered_exactly(self):
        x = np.linspace(8.0, 120.0, 20000)
        fit = fit_tail_decay(x, x**-2.0, window=(10.0, 100.0))
        assert fit.slope == pytest.approx(-2.0, abs=1e-9)
        assert fit.residual < 1e-9
        # constant = max (1 + x^2)/x^2 over the window, at the left edge
        xmin = x[x >= 10.0][0]
        assert fit.constant == pytest.approx((1 + xmin**2) / xmin**2, rel=1e-12)

    def test_oscillatory_envelope(self):
        x = np.linspace(8.0, 230.0, 50000)
        fit = fit_tail_decay(
            x, np.sin(x) / x**2, window=(10.0, 200.0)
        )
        assert fit.slope == pytest.approx(-2.0, abs=0.05)
        assert fit.constant == pytest.approx(1.0, rel=0.05)

    def test_bin_samples_lie_in_window(self):
        x = np.linspace(8.0, 120.0, 20000)
        fit = fit_tail_decay(x, x**-2.0, window=(10.0, 100.0))
        assert fit.bin_x.size >= 8
        assert np.all((fit.bin_x >= 10.0) & (fit.bin_x <= 100.0))
        assert np.all(np.diff(fit.bin_x) > 0)

    def test_too_few_usable_bins(self):
        x = np.array([10.0, 20.0, 30.0, 90.0])
        with pytest.raises(ValueError, match="usable"):
            fit_tail_decay(x, x**-2.0, window=(10.0, 100.0))

    def test_bad_window(self):
        x = np.linspace(10, 100, 1000)
        with pytest.raises(ValueError, match="window"):
            fit_tail_decay(x, x**-2.0, window=(-1.0, 100.0))


def test_tracer_hook_binds_the_transform(tmp_path):
    # perfbench's tracer counts a kernel_transform call's evaluations from
    # its x_samples and num_nodes arguments, so a traced `fgl kernel` (the
    # benchmark's --trace 1) breaks if they are renamed.  Run in a
    # subprocess: install imports scipy.fft, which fgl_lab never does.
    src = os.path.dirname(os.path.dirname(os.path.abspath(fgl_lab.__file__)))
    argv = ["kernel", "--out-dir", "run", "--kernel.num_samples", "400",
            "--kernel.num_nodes", "800", "--kernel.x_max", "250"]
    code = (
        "import contextlib, io, json, fgl_lab.cli\n"
        "from tracing import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = fgl_lab.cli.main({argv!r})\n"
        "tracer.set_active(False)\n"
        "spans = [s[5] for s in tracer.spans\n"
        "         if s[0] == 'kernel_decay.kernel_transform']\n"
        "print(json.dumps([code, spans]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(proc.stdout) == [0, [{"evals": 400 * 800}]]

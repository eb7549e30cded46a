"""Decay audit for the kernel g(x) = int phi(|xi|) |xi| e^{i x xi} d xi.

phi is a smooth radial bump (plateau on [0,1], support in [0,2]) built
from the classical exp(-1/t) step, so the only non-smooth feature of
the symbol phi(|xi|)|xi| is the |xi| kink at the origin.  That kink is
what limits the decay of g, so the envelope of |g| should fall off like
x^{-2}.

The symbol is even, so g is a cosine integral over [0, support_end]: a
closed form on the plateau and Gauss-Legendre panels on the ramp, where
the integrand is smooth.  The ramp panels share one width, so each
node's phase x(mid_p + s_m) splits into a panel part and one of 32 node
offsets: a sample needs the sines and cosines of panels + 32 angles, not
a cosine per node, and two small matrix products sum the rule.  The
samples go through in blocks of at most 2**14 reals per (samples x
panels) work array, so the transform's working set stays in L2 cache
whatever the number of samples.  The decay rate is read off a log-log
fit through per-bin envelope maxima.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Most reals in one (samples x panels) work array of kernel_transform.
# 2**13 to 2**17 time the same on 4,000 samples; 2**14 keeps the default
# (163, 100) arrays under glibc's 128 KiB mmap threshold, and takes the
# fewest page faults.
_BLOCK_REALS = 2**14

# The bump phi is 1 on [0, _PLATEAU_END] and 0 beyond _SUPPORT_END; a
# tail fit takes one envelope sample from each of _TAIL_BINS log bins.
_PLATEAU_END, _SUPPORT_END = 1.0, 2.0
_TAIL_BINS = 12


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, strictly rising between."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


def bump_eval(rho) -> np.ndarray:
    """Evaluate phi at radii rho (negative inputs are mirrored)."""
    r = np.abs(np.asarray(rho, dtype=float))
    arg = (_SUPPORT_END - r) / (_SUPPORT_END - _PLATEAU_END)
    out = _smooth_step(arg)
    out = np.where(r <= _PLATEAU_END, 1.0, out)
    return np.where(r >= _SUPPORT_END, 0.0, out)


def kernel_transform(x_samples, num_nodes: int = 12800) -> np.ndarray:
    """g(x) = 2 int_0^b phi(xi) xi cos(x xi) d xi on the 1-d array x_samples.

    On the plateau [0, a] phi = 1, giving the closed form
    a^2 (2 sinc(ax/pi) - sinc(ax/2pi)^2), free of the (cos ax - 1)/x^2
    cancellation near x = 0.  Only the ramp [a, b] is integrated, by
    32-node Gauss-Legendre panels no wider than num_nodes makes them on
    [-b, b].

    Every panel has the same half-width, so its nodes are mid_p + s_m
    with the same 32 offsets s_m, and the phase splits:
    cos(x(mid_p + s_m)) = cos(x mid_p) cos(x s_m) - sin(x mid_p) sin(x s_m).
    With W the (panel, node) weight table, the ramp is
    sum_p [cos(x mid_p) (cos(x s) W^T)_p - sin(x mid_p) (sin(x s) W^T)_p]:
    each sample takes the sine and cosine of panels + 32 angles, not a
    cosine per node.

    The samples go through in blocks whose (block, panels) arrays hold
    at most _BLOCK_REALS = 2**14 reals: 163 samples at the default 100
    panels (the two (block, 32) node arrays are no larger from 32 panels,
    num_nodes > 3,968, on).  Each block forms its plateau term and its
    work arrays as temporaries of its own size, so the working set does
    not grow with the number of samples.  The blocks are equal to within
    one sample, so that with several blocks each product takes at least
    2**13 x 32 multiply-adds.  A short last block would go to OpenBLAS's
    small-matrix kernel (under about 4e4 multiply-adds), which rounds
    differently; past that size g does not depend on the block size.
    """
    if num_nodes < 256:
        raise ValueError("num_nodes too small to resolve the oscillation")
    x = np.asarray(x_samples, dtype=float)
    a, b = _PLATEAU_END, _SUPPORT_END
    num_panels = math.ceil(max(4, math.ceil(num_nodes / 64)) * (b - a) / b)
    edges = np.linspace(a, b, num_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (b - a) / num_panels
    base_x, base_w = np.polynomial.legendre.leggauss(32)
    offsets = half * base_x
    nodes = mid[:, None] + offsets
    weights = 2.0 * half * base_w * bump_eval(nodes) * nodes
    per_block = max(1, _BLOCK_REALS // num_panels)
    num_blocks = max(1, -(-x.size // per_block))
    cuts = [i * x.size // num_blocks for i in range(num_blocks + 1)]
    g = np.empty(x.size)
    for start, stop in zip(cuts[:-1], cuts[1:]):
        xb = x[start:stop]
        plateau = a * a * (2.0 * np.sinc(a * xb / np.pi)
                           - np.sinc(a * xb / (2 * np.pi)) ** 2)
        node_phase = xb[:, None] * offsets
        panel_phase = xb[:, None] * mid
        re = (np.cos(node_phase) @ weights.T) * np.cos(panel_phase)
        im = (np.sin(node_phase) @ weights.T) * np.sin(panel_phase)
        g[start:stop] = plateau + (re - im).sum(axis=1)
    return g


@dataclass(frozen=True)
class TailFit:
    """Log-log envelope fit of |g| over a window.

    slope : fitted decay exponent (x^{-2} gives -2)
    constant : max of |g(x)| <x>^2 over the window.  For the kernel
        this max also sees the bump's transition-band term (it decays
        like exp(-1.2 sqrt(x))), so it depends on the window whenever
        the window starts below x ~ 50; beyond that it settles to the
        kink coefficient 2.
    residual : rms residual of the log-log fit
    """

    slope: float
    constant: float
    residual: float
    bin_x: np.ndarray
    bin_values: np.ndarray


def _loglog_fit(x, y) -> tuple[float, float, float]:
    """(slope, intercept, rms residual) of the least-squares line through
    (log x, log y)."""
    log_x, log_y = np.log(x), np.log(y)
    slope, intercept = np.polyfit(log_x, log_y, 1)
    resid = log_y - (slope * log_x + intercept)
    return float(slope), float(intercept), float(np.sqrt(np.mean(resid**2)))


def fit_tail_decay(x, g, window: tuple[float, float] = (10.0, 100.0)) -> TailFit:
    """Fit the envelope decay rate of |g| on a window of x > 0.

    The window is cut into _TAIL_BINS logarithmic bins; each bin
    contributes the sample of largest |g| (at its own abscissa), which
    rides the envelope even when g oscillates through zero.  At least 8
    bins must hold a sample.  The returned constant is the plain
    windowed max of |g| <x>^2, not a fitted one: for the kernel it
    includes the transition-band term, so it is window-dependent for
    windows starting below x ~ 50 (6.40 on (10, 100) against 3.39 on
    (20, 200)).
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    lo, hi = window
    if not 0 < lo < hi:
        raise ValueError("window must satisfy 0 < lo < hi")
    mask = (x >= lo) & (x <= hi)
    xw, gw = x[mask], np.abs(g[mask])
    edges = np.geomspace(lo, hi, _TAIL_BINS + 1)
    bin_x, bin_v = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        sel = (xw >= a) & (xw <= b)
        if not np.any(sel):
            continue
        i = np.argmax(gw[sel])
        if gw[sel][i] <= 0:
            continue
        bin_x.append(xw[sel][i])
        bin_v.append(gw[sel][i])
    if len(bin_x) < 8:
        raise ValueError(
            f"only {len(bin_x)} usable bins in window {window}; need >= 8"
        )
    bx = np.asarray(bin_x)
    bv = np.asarray(bin_v)
    slope, _, residual = _loglog_fit(bx, bv)
    return TailFit(
        slope=slope,
        constant=float(np.max(gw * (1.0 + xw**2))),
        residual=residual,
        bin_x=bx,
        bin_values=bv,
    )

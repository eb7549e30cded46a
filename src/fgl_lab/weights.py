"""Polynomial bracket weights and the operators built from them.

The weight family is h(x) = (1 + |x/R|^2)^{s/2}, i.e. <x/R>^s.  Two
operators matter:

* the weighted commutator  A f = (1/h) [|D|, h] f = (1/h)|D|(h f) - |D| f,
  whose operator norm kappa drives every blow-up bound, and
* the smoothing kernel     K f(x) = (1/h(x)) int <x-y>^{-2} h(y) f(y) dy,
  which controls the commutator in the analysis.

Both operator norms come from one matrix-free Lanczos routine on the
normal operator A^T A (A itself is not self-adjoint, A^T A is).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .grid import FieldState, GridSpec, _require_finite, apply_multiplier


@dataclass(frozen=True)
class WeightSpec:
    """Bracket weight <x/scale>^exponent.

    exponent = 0 degenerates to h == 1; it is allowed so the vanishing
    commutator and non-decaying-tail edge cases stay constructible.
    """

    exponent: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if self.exponent < 0 or not math.isfinite(self.exponent):
            raise ValueError("weight exponent must be finite and >= 0")
        if self.scale <= 0 or not math.isfinite(self.scale):
            raise ValueError("weight scale must be positive and finite")

    def h(self, r):
        """Evaluate h at coordinate values (scalar or array)."""
        r = np.asarray(r, dtype=float)
        out = (1.0 + (r / self.scale) ** 2) ** (self.exponent / 2.0)
        return float(out) if out.ndim == 0 else out

    @property
    def label(self) -> str:
        return f"bracket_s{self.exponent:g}_R{self.scale:g}"

    def rescaled(self, factor: float) -> "WeightSpec":
        return WeightSpec(exponent=self.exponent, scale=self.scale * factor)


def weight_values(w: WeightSpec, grid: GridSpec) -> np.ndarray:
    """h sampled on the grid as a real array."""
    return w.h(grid.nodes)


def inv_weight_values(w: WeightSpec, grid: GridSpec) -> np.ndarray:
    return 1.0 / weight_values(w, grid)


def inv_h_tail_integrable(w: WeightSpec) -> bool:
    """Whether 1/h^2 is integrable on the line."""
    return 2.0 * w.exponent > 1


def norm_inv_h(w: WeightSpec, grid: GridSpec) -> float:
    """L2 norm of 1/h: grid quadrature plus the analytic tail.

    The grid only sees [-L, L); for slowly decaying weights the tail
    int_{|x|>L} h^{-2} dx is a visible fraction of the total, so it is
    added by adaptive quadrature.  Raises ValueError when 2s <= 1: then
    1/h^2 is not integrable and ||1/h||_2 is infinite.
    """
    if not inv_h_tail_integrable(w):
        raise ValueError(
            f"||1/h||_2 is infinite for weight exponent {w.exponent:g}: "
            "1/h^2 is integrable only for exponent > 1/2"
        )
    from scipy.integrate import quad

    s, r = w.exponent, w.scale
    tail, _ = quad(
        lambda x: (1.0 + (x / r) ** 2) ** (-s), grid.half_length, np.inf
    )
    vals = inv_weight_values(w, grid)
    return math.sqrt(grid.dx * float(np.sum(vals**2)) + 2.0 * tail)


# ----------------------------------------------------------------------
# Weighted commutator A = (1/h)[|D|, h] and its adjoint


def _commutator_closures(w: WeightSpec, grid: GridSpec):
    """Real-array apply/adjoint closures for the commutator on this grid.

    Each closure stacks its two inputs into one (2, N) array, so |D| acts
    on both through one real FFT pair.  N is even, so the rfft half
    spectrum ends on the Nyquist bin and |k| is even in k.
    """
    h = weight_values(w, grid)
    inv_h = 1.0 / h
    n = grid.points
    absk = grid.abs_wavenumber[: n // 2 + 1]

    def abs_d_pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.fft.irfft(np.fft.rfft(np.stack((a, b))) * absk, n)

    def apply_a(f: np.ndarray) -> np.ndarray:
        df, dhf = abs_d_pair(f, h * f)
        return inv_h * dhf - df

    def apply_a_star(g: np.ndarray) -> np.ndarray:
        dg, dg_over_h = abs_d_pair(g, inv_h * g)
        return h * dg_over_h - dg

    return apply_a, apply_a_star


def apply_commutator(
    w: WeightSpec, grid: GridSpec, f: FieldState, adjoint: bool = False
) -> FieldState:
    """Apply A (or A* with adjoint=True) to a complex field.

    A* g = h |D|(g/h) - |D| g, the exact adjoint of A in the discrete
    L2 inner product because |D| is self-adjoint and h is real.  Built
    from apply_multiplier on complex fields, independently of the packed
    real closures that estimate_kappa runs, so tests can check one
    against the other.
    """
    if f.grid != grid:
        raise ValueError("field does not live on the supplied grid")
    h = weight_values(w, grid)
    abs_k = grid.abs_wavenumber
    if adjoint:
        weighted = h * apply_multiplier(FieldState(grid, f.values / h), abs_k).values
    else:
        weighted = apply_multiplier(FieldState(grid, h * f.values), abs_k).values / h
    return FieldState(grid, weighted - apply_multiplier(f, abs_k).values)


def _operator_norm(apply_op, apply_adjoint, n: int, tol: float, max_iter: int,
                   seed: int) -> tuple[float, int]:
    """(||A||, applications of A^T A) for a real operator A on R^n.

    ARPACK's Lanczos (eigsh, k=1, which='LA') finds the top eigenvalue
    lambda of A^T A from a start vector drawn from ``seed``.  ``tol`` is
    ARPACK's relative tolerance on lambda and ``max_iter`` the number of
    ARPACK restarts allowed.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    v0 = np.random.default_rng(seed).standard_normal(n)
    applications = 0

    def normal(v: np.ndarray) -> np.ndarray:
        nonlocal applications
        applications += 1
        return apply_adjoint(apply_op(v))

    op = LinearOperator((n, n), matvec=normal, dtype=np.float64)
    try:
        lam = eigsh(op, k=1, which="LA", v0=v0, tol=tol, maxiter=max_iter,
                    return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise ConvergenceError(f"Lanczos did not converge in {max_iter} "
                               f"restarts (n = {n}, tol = {tol:g})") from exc
    return math.sqrt(max(float(lam[0]), 0.0)), applications


@dataclass(frozen=True)
class CommutatorEstimate:
    """Converged operator-norm estimate of the weighted commutator."""

    kappa: float
    iterations: int  # applications of the normal operator A*A


def estimate_kappa(
    w: WeightSpec,
    grid: GridSpec,
    tol: float = 1e-8,
    max_iter: int = 10000,
    seed: int = 0,
) -> CommutatorEstimate:
    """Estimate kappa = ||(1/h)[|D|, h]|| by Lanczos on A*A.

    ``tol`` is the relative tolerance on kappa^2, ``max_iter`` the number
    of Lanczos restarts allowed.  A maps real data to real data (h real,
    |k| even), so the Krylov vectors stay real.  The flat weight h == 1
    commutes with |D|, so exponent 0 gives kappa = 0 without a solve.
    """
    if w.exponent == 0:
        return CommutatorEstimate(0.0, 0)
    apply_a, apply_a_star = _commutator_closures(w, grid)
    kappa, applications = _operator_norm(
        apply_a, apply_a_star, grid.points, tol=tol, max_iter=max_iter,
        seed=seed)
    return CommutatorEstimate(kappa, applications)


# ----------------------------------------------------------------------
# Smoothing kernel operator


def weighted_kernel_matrix(
    w: WeightSpec, grid: GridSpec, max_points: int = 4096
) -> np.ndarray:
    """Dense matrix of K f(x) = (1/h(x)) sum_y <x-y>^{-2} h(y) f(y) dx.

    Uses the true line distance x - y on the truncated domain, not the
    torus distance, mirroring the ambient-space operator.
    """
    if grid.points > max_points:
        raise ValueError(
            f"grid has {grid.points} points, above the dense-kernel cap {max_points}"
        )
    x = grid.nodes
    h = weight_values(w, grid)
    diff = x[:, None] - x[None, :]
    kernel = 1.0 / (1.0 + diff**2)
    return grid.dx * (1.0 / h)[:, None] * kernel * h[None, :]


def _kernel_closures(w: WeightSpec, grid: GridSpec):
    """Matrix-free K = dx (1/h) T h and K^T = dx h T (1/h).

    T is the symmetric Toeplitz matrix of <(i-j) dx>^{-2}, applied by
    embedding it in a circulant of size 2N that the real FFT diagonalizes.
    """
    n = grid.points
    h = weight_values(w, grid)
    t = 1.0 / (1.0 + (np.arange(n) * grid.dx) ** 2)
    symbol = np.fft.rfft(np.concatenate((t, [0.0], t[:0:-1])))

    def toeplitz(vec: np.ndarray) -> np.ndarray:
        return np.fft.irfft(np.fft.rfft(vec, 2 * n) * symbol, 2 * n)[:n]

    return (lambda v: grid.dx / h * toeplitz(h * v),
            lambda v: grid.dx * h * toeplitz(v / h))


def apply_weighted_kernel(w: WeightSpec, grid: GridSpec, f: FieldState) -> FieldState:
    """Apply the smoothing kernel operator to a field."""
    _require_finite(f.values)
    apply_k, _ = _kernel_closures(w, grid)
    return FieldState(grid, apply_k(f.values.real) + 1j * apply_k(f.values.imag))


def estimate_weighted_kernel_norm(
    w: WeightSpec,
    grid: GridSpec,
    tol: float = 1e-8,
    max_iter: int = 10000,
    seed: int = 0,
) -> float:
    """||K|| by Lanczos on K^T K; ``tol`` and ``max_iter`` as in estimate_kappa."""
    apply_k, apply_k_t = _kernel_closures(w, grid)
    return _operator_norm(apply_k, apply_k_t, grid.points, tol=tol,
                          max_iter=max_iter, seed=seed)[0]

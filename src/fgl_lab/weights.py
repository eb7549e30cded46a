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
import sys
from dataclasses import dataclass, field

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

    def h(self, r: np.ndarray) -> np.ndarray:
        """Evaluate h at an array of coordinate values."""
        return (1.0 + (r / self.scale) ** 2) ** (self.exponent / 2.0)

    @property
    def label(self) -> str:
        return f"bracket_s{self.exponent:g}_R{self.scale:g}"


def weight_values(w: WeightSpec, grid: GridSpec) -> np.ndarray:
    """h sampled on the grid as a real array.

    Raises ValueError where h overflows: a steep weight past the double
    range would turn the commutator and the kernel operator into NaN.
    """
    with np.errstate(over="ignore"):
        h = w.h(grid.nodes)
    overflow = ~np.isfinite(h)
    if overflow.any():
        raise ValueError(
            f"weight exponent {w.exponent:g}, scale {w.scale:g} overflows on "
            f"the grid from |x| = {np.abs(grid.nodes[overflow]).min():g} on")
    return h


def inv_weight_values(w: WeightSpec, grid: GridSpec) -> np.ndarray:
    """1/h on the grid; it is exactly 0 where h overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / w.h(grid.nodes)


def _require_integrable(w: WeightSpec) -> None:
    """Refuse (ValueError) a weight with 2s <= 1: then 1/h^2 is not
    integrable on the line and ||1/h||_2 is infinite."""
    if not 2.0 * w.exponent > 1:
        raise ValueError(
            f"||1/h||_2 is infinite for weight exponent {w.exponent:g}: "
            "1/h^2 is integrable only for exponent > 1/2"
        )


def _require_line_kappa(w: WeightSpec) -> None:
    """Refuse (ValueError) a weight with 2s >= 3: then A's kernel at x = 0,
    of size h(y)/y^2 ~ |y|^(s-2), is not square-integrable in y, and kappa
    grows like L^(s - 3/2) (log L at s = 3/2), so it has no line limit."""
    if 2.0 * w.exponent >= 3:
        raise ValueError(
            f"kappa has no line limit for weight exponent {w.exponent:g}: it "
            "grows like L^(s - 3/2) with the half-length L, so it certifies "
            "nothing; a certificate needs exponent < 3/2"
        )


def _gamma_ratio(s: float) -> float:
    """Gamma(s - 1/2) / Gamma(s) for s > 1/2: int (1 + x^2)^{-s} dx / sqrt(pi)."""
    if s < 171:  # Gamma(s) overflows from s = 171.6 on
        return math.gamma(s - 0.5) / math.gamma(s)
    return math.exp(math.lgamma(s - 0.5) - math.lgamma(s))


def _gauss_series(a: float, b: float, c: float, z: float) -> float:
    """2F1(a, b; c; z) by Gauss's series, for a, b, c > 0 and 0 <= z <= 1/2.

    Every term is positive and the term ratio tends to z, so the sum
    stops once a term no longer changes it.
    """
    term = total = 1.0
    k = 0
    while total + term != total:
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
        total += term
        k += 1
    return total


def _tail_integral(s: float, a: float, length: float) -> float:
    """int_L^inf (1 + (x/a)^2)^{-s} dx in closed form, for s > 1/2.

    x = a cot(phi) turns it into a int_0^phi0 sin^{2s-2}(phi) dphi with
    phi0 = atan2(a, L), which is a phi0 at s = 1.  Otherwise, with
    y = L/a and z = sin^2(phi0) = 1/(1 + y^2), the integral is
    z^{s-1/2}/(2s-1) 2F1(1/2, s-1/2; s+1/2; z) when z <= 1/2, and else
    the full integral sqrt(pi) Gamma(s-1/2)/(2 Gamma(s)) minus
    cos(phi0) z^{s-1/2} 2F1(s, 1; 3/2; 1 - z).  That subtraction loses
    relative digits only when the tail is a small part of the whole (large
    s with L near a), where it hardly moves ||1/h||_2.
    """
    if s == 1:
        return a * math.atan2(a, length)
    y2 = (length / a) ** 2
    z = 1.0 / (1.0 + y2)
    head = (1.0 + y2) ** (0.5 - s)
    if z <= 0.5:
        return a * head / (2 * s - 1) * _gauss_series(0.5, s - 0.5, s + 0.5, z)
    full = math.sqrt(math.pi) / 2 * _gamma_ratio(s)
    return a * (full - math.sqrt(y2 * z) * head * _gauss_series(s, 1.0, 1.5, y2 * z))


def norm_inv_h(w: WeightSpec, grid: GridSpec) -> float:
    """L2 norm of 1/h: grid quadrature plus the analytic tail.

    The grid only sees [-L, L); for slowly decaying weights the tail
    int_{|x|>L} h^{-2} dx is a visible fraction of the total, so it is
    added in closed form (_tail_integral).  Raises ValueError when
    2s <= 1: then 1/h^2 is not integrable and ||1/h||_2 is infinite.
    """
    _require_integrable(w)
    tail = _tail_integral(w.exponent, w.scale, grid.half_length)
    vals = inv_weight_values(w, grid)
    return math.sqrt(grid.dx * float(np.sum(vals**2)) + 2.0 * tail)


# ----------------------------------------------------------------------
# Weighted commutator A = (1/h)[|D|, h] and its adjoint


def _commutator_closures(w: WeightSpec, grid: GridSpec):
    """Real-array apply/adjoint closures for the commutator on this grid.

    Each closure writes its two inputs into the rows of one (2, N) array,
    so |D| acts on both through one real FFT pair.  N is even, so the
    rfft half spectrum ends on the Nyquist bin and |k| is even in k.

    The pair, its (2, N/2+1) half spectrum and the |D| result are
    allocated once per closure set and reused by every application.
    From N = 8192 on each is 128 KiB or more, glibc's mmap threshold, so
    a fresh temporary maps new pages and faults them in on every call: a
    (100, 8192) solve at tol 1e-8 (38 applications) took 3,200-4,700
    minor page faults with per-call arrays and takes 140-300 with these.
    The buffers never escape: each closure returns a fresh N-vector.
    """
    h = weight_values(w, grid)
    inv_h = 1.0 / h
    n = grid.points
    absk = grid.abs_wavenumber[: n // 2 + 1]
    pair = np.empty((2, n))
    spec = np.empty((2, n // 2 + 1), dtype=complex)
    back = np.empty((2, n))

    def abs_d_pair() -> np.ndarray:
        np.fft.rfft(pair, out=spec)
        np.multiply(spec, absk, out=spec)
        return np.fft.irfft(spec, n, out=back)

    def apply_a(f: np.ndarray) -> np.ndarray:
        pair[0] = f
        np.multiply(h, f, out=pair[1])
        df, dhf = abs_d_pair()
        return inv_h * dhf - df

    def apply_a_star(g: np.ndarray) -> np.ndarray:
        pair[0] = g
        np.multiply(inv_h, g, out=pair[1])
        dg, dg_over_h = abs_d_pair()
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


def _newton_sum(alphas: list, beta_sq: list, x: float) -> float:
    """p'(x)/p(x) for p(x) = det(T - xI), or 0.0 if x is not above T's spectrum.

    T is the symmetric tridiagonal with diagonal ``alphas`` and squared
    off-diagonals ``beta_sq``.  The LDL^T pivots of T - xI are
    d_i = a_i - x - b_{i-1}^2 / d_{i-1}, with derivatives
    d_i' = -1 + b_{i-1}^2 d_{i-1}' / d_{i-1}^2, and p = prod d_i, so
    p'/p = sum d_i'/d_i.  By Sylvester's inertia x lies above the spectrum
    exactly when every pivot is negative; the first pivot that is not
    (0.0 or nan included) ends the pass, so no division meets a zero.
    """
    d = alphas[0] - x
    if not d < 0.0:
        return 0.0
    dd = -1.0
    total = dd / d
    for a, b2 in zip(alphas[1:], beta_sq):
        q = b2 / d
        dd = q * dd / d - 1.0
        d = a - x - q
        if not d < 0.0:
            return 0.0
        total += dd / d
    return total


def _top_ritz_pair(alphas: list, betas: list, guess: float = math.nan
                   ) -> tuple[float, np.ndarray]:
    """(theta, z): the top eigenvalue of the symmetric tridiagonal T and
    its unit eigenvector, with no LAPACK call.

    T has diagonal ``alphas`` and off-diagonals ``betas``.  theta comes
    from Newton on det(T - xI) from above (_newton_sum): every root is
    real, so each step x - p/p' = x - 1/sum_k 1/(x - lambda_k) stays at or
    above the top root and the iterates fall monotonically onto it.  The
    start is ``guess`` when its pivots show it above the spectrum, else
    the Gershgorin bound.  Newton stops once a step no longer lowers x, or
    lands on a point whose pivots are not all negative: an exact step
    cannot pass the top root, so that point is the root to rounding.

    z comes from a twisted factorization of T - theta I (K. V. Fernando,
    SIAM J. Matrix Anal. Appl. 18, 1997; I. S. Dhillon and B. N. Parlett,
    Linear Algebra Appl. 387, 2004).  Forward pivots d+ and backward
    pivots d- meet at the twist r = argmin |gamma_r|, gamma_r =
    d+_r + d-_r - (a_r - theta), where the eigenvector is large.  With
    z_r = 1 the other components are products of pivot ratios,
    z_i = -b_i z_{i+1} / d+_i above r and z_i = -b_{i-1} z_{i-1} / d-_i
    below it, so its last component s = z_m / ||z||, which the Lanczos
    residual needs, keeps its relative accuracy even when it is tiny.  A
    pivot smaller in size than pivmin, the bound LAPACK's Sturm counts
    use (0 included), is replaced by -pivmin, which keeps every ratio
    finite.
    """
    m = len(alphas)
    beta_sq = [b * b for b in betas]
    total = _newton_sum(alphas, beta_sq, guess)
    if total > 0.0:
        x = guess
    else:
        radii = [abs(b) for b in betas]
        x = max(a + lo + hi
                for a, lo, hi in zip(alphas, [0.0] + radii, radii + [0.0]))
        total = _newton_sum(alphas, beta_sq, x)
    while total > 0.0:
        lower = x - 1.0 / total
        if not lower < x:
            break
        x = lower
        total = _newton_sum(alphas, beta_sq, x)

    pivmin = sys.float_info.min * max([1.0] + beta_sq)

    def pivot(d: float) -> float:
        return d if abs(d) > pivmin else -pivmin

    shifted = [a - x for a in alphas]
    fwd, bwd = shifted[:], shifted[:]
    fwd[0], bwd[-1] = pivot(shifted[0]), pivot(shifted[-1])
    for i in range(1, m):
        fwd[i] = pivot(shifted[i] - beta_sq[i - 1] / fwd[i - 1])
    for i in range(m - 2, -1, -1):
        bwd[i] = pivot(shifted[i] - beta_sq[i] / bwd[i + 1])
    gammas = [abs(f + b - s) for f, b, s in zip(fwd, bwd, shifted)]
    r = gammas.index(min(gammas))
    z = [1.0] * m
    norm_sq = 1.0
    for i in range(r - 1, -1, -1):
        z[i] = z[i + 1] * -(betas[i] / fwd[i])
        norm_sq += z[i] * z[i]
    for i in range(r + 1, m):
        z[i] = z[i - 1] * -(betas[i - 1] / bwd[i])
        norm_sq += z[i] * z[i]
    return x, np.array(z) / math.sqrt(norm_sq)


def _operator_norm(apply_op, apply_adjoint, n: int, tol: float, max_iter: int,
                   seed: int, start: np.ndarray | None = None
                   ) -> tuple[float, int, np.ndarray]:
    """(||A||, applications of A^T A, top Ritz vector) for a real operator
    A on R^n.

    Three-term Lanczos on A^T A from ``start``, or with none from a
    vector drawn from ``seed``.  The recurrence keeps only the last two
    Krylov vectors in double precision: without reorthogonalization the
    extreme Ritz value still converges (C. C. Paige, Linear Algebra
    Appl. 34, 1980).  It stops as ARPACK does, once the top Ritz pair
    (theta, s) of the tridiagonal T_j has residual beta_j |s_j| <=
    tol theta, which holds at once when the Krylov space runs out
    (beta_j = 0).  ``max_iter`` caps the applications of A^T A.  The
    Ritz pair comes from _top_ritz_pair in O(j) pure-Python work per
    Newton step, started at the last test's theta + rho (rho its
    residual), which lies just above the new top Ritz value whenever
    that value moved by less than rho.  The test runs after each of the
    first 64 applications, then after every 1 + j // 64 of them.

    The Ritz vector V_j z, the unit top eigenvector z of T_j taken
    through the Krylov basis V_j, is returned in float32 for a later
    solve to start from: a start only has to lie near the top singular
    vector, so the basis is kept at half the memory of a float64 copy,
    and the solve's own recurrence and its value are untouched by it.
    """
    # einsum, not a BLAS dot: OpenBLAS splits a dot of N = 16384 over two
    # threads, and the Ritz test calls no LAPACK routine, so a solve wakes
    # no BLAS thread and its CPU time stays at its wall time.
    def dot(x: np.ndarray, y: np.ndarray) -> float:
        return float(np.einsum("i,i->", x, y))

    if start is None:
        v = np.random.default_rng(seed).standard_normal(n)
    else:
        v = np.array(start, dtype=float)
    v /= math.sqrt(dot(v, v))
    v_prev = np.zeros(n)
    alphas, betas, basis = [], [], []
    beta, next_test, residual, top = 0.0, 1, math.inf, math.nan
    for j in range(1, max_iter + 1):
        basis.append(v.astype(np.float32))
        w = apply_adjoint(apply_op(v)) - beta * v_prev
        alphas.append(dot(v, w))
        w -= alphas[-1] * v
        beta = math.sqrt(dot(w, w))
        if j >= next_test or j == max_iter or beta == 0.0:
            top, z = _top_ritz_pair(alphas, betas, top + residual)
            residual = beta * abs(float(z[-1]))
            if residual <= tol * top:
                ritz = np.zeros(n, dtype=np.float32)
                for coeff, q in zip(z.astype(np.float32), basis):
                    ritz += coeff * q
                return math.sqrt(max(top, 0.0)), j, ritz
            next_test = j + 1 + j // 64
        betas.append(beta)
        v_prev, v = v, w / beta
    raise ConvergenceError(
        f"Lanczos did not converge in {max_iter} applications of A^T A "
        f"(n = {n}, residual {residual:.3g} > tol {tol:g} x {top:.6g})")


# Most applications of A*A in one Lanczos solve (no grid needs 50).
_MAX_APPLICATIONS = 1000


@dataclass(frozen=True)
class CommutatorEstimate:
    """Converged operator-norm estimate of the weighted commutator."""

    kappa: float
    iterations: int  # applications of the normal operator A*A
    # float32 top right singular vector of A, as far as the solve resolved it
    vector: np.ndarray = field(repr=False, compare=False)


def estimate_kappa(
    w: WeightSpec,
    grid: GridSpec,
    tol: float = 1e-8,
    seed: int = 0,
    start: np.ndarray | None = None,
) -> CommutatorEstimate:
    """Estimate kappa = ||(1/h)[|D|, h]|| by Lanczos on A*A.

    ``tol`` bounds the residual of the top Ritz pair of A*A relative to
    kappa^2, in at most _MAX_APPLICATIONS applications of A*A.  A maps
    real data to real data (h real, |k| even), so the Krylov vectors stay real.
    The flat weight h == 1 commutes with |D|: A is 0 on the grid, so the
    first application gives beta_1 = 0 and the solve returns kappa = 0.

    The solve starts from ``start`` (grid.points values, any nonzero
    norm) when given, and ``seed`` then plays no part; else from a
    vector drawn from ``seed``.  The estimate carries the top Ritz
    vector, so a solve on a related grid can start from it: a start
    that already lies near the top singular vector stops in a few
    applications.
    """
    apply_a, apply_a_star = _commutator_closures(w, grid)
    kappa, applications, vector = _operator_norm(
        apply_a, apply_a_star, grid.points, tol=tol,
        max_iter=_MAX_APPLICATIONS, seed=seed, start=start)
    return CommutatorEstimate(kappa, applications, vector)


# ----------------------------------------------------------------------
# Smoothing kernel operator


_DENSE_KERNEL_POINTS = 4096  # most points of the dense kernel (128 MiB)


def weighted_kernel_matrix(w: WeightSpec, grid: GridSpec) -> np.ndarray:
    """Dense matrix of K f(x) = (1/h(x)) sum_y <x-y>^{-2} h(y) f(y) dx.

    Uses the true line distance x - y on the truncated domain, not the
    torus distance, mirroring the ambient-space operator.
    """
    if grid.points > _DENSE_KERNEL_POINTS:
        raise ValueError(
            f"grid has {grid.points} points, above the dense-kernel cap "
            f"{_DENSE_KERNEL_POINTS}"
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

    dx_over_h, dx_times_h = grid.dx / h, grid.dx * h

    def toeplitz(vec: np.ndarray) -> np.ndarray:
        return np.fft.irfft(np.fft.rfft(vec, 2 * n) * symbol, 2 * n)[:n]

    return (lambda v: dx_over_h * toeplitz(h * v),
            lambda v: dx_times_h * toeplitz(v / h))


def apply_weighted_kernel(w: WeightSpec, grid: GridSpec, f: FieldState) -> FieldState:
    """Apply the smoothing kernel operator to a field."""
    _require_finite(f.values)
    apply_k, _ = _kernel_closures(w, grid)
    return FieldState(grid, apply_k(f.values.real) + 1j * apply_k(f.values.imag))


def estimate_weighted_kernel_norm(
    w: WeightSpec,
    grid: GridSpec,
    tol: float = 1e-8,
    seed: int = 0,
) -> float:
    """||K|| by Lanczos on K^T K; ``tol`` as in estimate_kappa."""
    apply_k, apply_k_t = _kernel_closures(w, grid)
    return _operator_norm(apply_k, apply_k_t, grid.points, tol=tol,
                          max_iter=_MAX_APPLICATIONS, seed=seed)[0]

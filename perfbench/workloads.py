"""The benchmark's workloads and the answers each operation must give.

A workload is a fixed list of operations run one after another by one
client (a closed loop).  An operation is a real ``fgl`` command line,
run in-process through ``fgl_lab.cli.main``, or a direct API call where
no subcommand exists.  The seed is passed to every ``fgl --seed`` and to
the kernel-norm ``seed=``; the only randomness in the program is the
power-iteration start vector, so every pinned answer holds for any seed.

Expected values were measured at the commit that introduced this file
(seed 0); tolerances are relative (``rel``) or absolute (``abs``).
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("sweep", "certify", "kernel")

# Workloads that run single-threaded and compute-bound.  On a shared host
# a core switches between speeds about 1.5x apart for seconds at a time,
# and these workloads slow down in step with a fixed FFT loop (the core
# probe in worker.py), so their times are rescaled by it.  kernel is
# memory-bound and runs two BLAS threads: its times do not follow the
# probe, so they are reported as measured.
CORE_BOUND = ("sweep", "certify")

# name -> (value, kind, tolerance); kind is "rel", "abs" or "eq".
EXPECTED = {
    "sweep.p2.slope": (-1.1855776180123452, "rel", 1e-6),
    "sweep.p3.slope": (-2.3563339241750723, "rel", 1e-6),
    "sweep.runs_included": (8, "eq", 0),
    "bounds.n2048.kappa": (0.5675325193824927, "abs", 1e-7),
    "bounds.n8192.kappa": (0.5675325282598834, "abs", 1e-7),
    "bounds.n2048.t_detected": (0.5229632838224566, "rel", 1e-6),
    "bounds.n8192.t_detected": (0.5229697216229209, "rel", 1e-6),
    "bounds.n2048.lifespan_bound": (2.3687048437571225, "rel", 1e-6),
    "bounds.n8192.lifespan_bound": (2.368704861140718, "rel", 1e-6),
    "commutator.slope": (-1.0, "abs", 1e-6),
    "threshold.r0": (2.0, "eq", 0),
    "threshold.lifespan_bound": (21.925157523016086, "rel", 1e-6),
    # Criterion 08's documented negative result: the measured envelope
    # shift is pinned, not the 10% budget the criterion asks for.
    "kernel.slope": (-2.6258158689400126, "rel", 1e-6),
    "kernel.shifted_slope": (-2.218723016773646, "rel", 1e-6),
    "kernel.constant_rel_change": (0.47126093229300886, "rel", 1e-6),
    "kernel.g_oracle": (0.0, "abs", 1e-10),
    "kernel_norm": (3.657833355579696, "abs", 1e-8),
}

KERNEL_NORM_CAP = 2.0 * math.pi
ORACLE_POINTS = 5


@dataclass
class Check:
    name: str
    got: object
    expected: object
    ok: bool


@dataclass(frozen=True)
class Operation:
    """One attempted operation: an fgl command line or an API call."""

    name: str
    argv: tuple = ()
    call: object = None          # fn() -> value, for API operations
    checks: object = None        # fn(op, out_dir, value, expect) -> [Check]


@dataclass
class Expectations:
    """Pinned values, optionally with one deliberately broken entry."""

    values: dict = field(default_factory=lambda: dict(EXPECTED))

    def broken(self, name):
        if name not in self.values:
            raise KeyError(f"unknown expected value {name!r}; "
                           f"choose from {sorted(self.values)}")
        value, kind, tol = self.values[name]
        self.values[name] = (value + max(1e-3 * abs(value), 1e-3), kind, tol)
        return self

    def check(self, name, got, label=None):
        value, kind, tol = self.values[name]
        if got is None:
            ok = False
        elif kind == "eq":
            ok = got == value
        elif kind == "abs":
            ok = abs(got - value) <= tol
        else:
            ok = abs(got - value) <= tol * abs(value)
        return Check(label or name, got, value, bool(ok))


def _summary(out_dir):
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _true(name, got):
    return Check(name, got, True, got is True)


# ----------------------------------------------------------------------
# Per-operation answer checks


def _check_sweep(op, out_dir, value, expect):
    s = _summary(out_dir)
    stab = s.get("stability") or {}
    return [
        expect.check(f"{op.name}.slope", s.get("slope")),
        expect.check("sweep.runs_included", s.get("runs_included"),
                     f"{op.name}.runs_included"),
        _true(f"{op.name}.stability", stab.get("stable")),
    ]


def _check_bounds(op, out_dir, value, expect):
    s = _summary(out_dir)
    return [
        expect.check(f"{op.name}.kappa", s.get("kappa")),
        expect.check(f"{op.name}.t_detected", s.get("t_detected")),
        expect.check(f"{op.name}.lifespan_bound", s.get("lifespan_bound")),
        _true(f"{op.name}.blew_up", s.get("blew_up")),
        _true(f"{op.name}.lower_margins_ok", s.get("lower_margins_ok")),
        _true(f"{op.name}.growth_margins_ok", s.get("growth_margins_ok")),
    ]


def _check_commutator(op, out_dir, value, expect):
    s = _summary(out_dir)
    return [expect.check("commutator.slope", s.get("slope"), f"{op.name}.slope")]


def _check_threshold(op, out_dir, value, expect):
    s = _summary(out_dir)
    return [
        expect.check("threshold.r0", s.get("r0")),
        expect.check("threshold.lifespan_bound", s.get("lifespan_bound")),
    ]


def _bump(xi):
    """Smooth cutoff phi: 1 on [0, 1], 0 beyond 2, exp(-1/t) blend between."""
    if xi <= 1.0:
        return 1.0
    if xi >= 2.0:
        return 0.0
    t = 2.0 - xi
    a, b = math.exp(-1.0 / t), math.exp(-1.0 / (1.0 - t))
    return a / (a + b)


def kernel_oracle(x):
    """g(x) = 2 int_0^2 phi(xi) xi cos(x xi) dxi by QUADPACK's cosine rule.

    An oracle independent of the program's Gauss-Legendre panels: the
    integral is split at the plateau edge and handed to QAWO.
    """
    from scipy.integrate import quad

    def f(xi):
        return 2.0 * xi * _bump(xi)

    opts = dict(weight="cos", wvar=x, epsabs=1e-14, epsrel=1e-13, limit=200)
    return quad(f, 0.0, 1.0, **opts)[0] + quad(f, 1.0, 2.0, **opts)[0]


def _kernel_checks(seed):
    """Checks of ``fgl kernel``; the seed picks the rows spot-checked."""

    def check(op, out_dir, value, expect):
        s = _summary(out_dir)
        checks = [
            expect.check("kernel.slope", s.get("slope")),
            expect.check("kernel.shifted_slope", s.get("shifted_slope")),
            expect.check("kernel.constant_rel_change",
                         s.get("constant_rel_change")),
        ]
        with open(os.path.join(out_dir, "kernel.csv"), encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        picked = np.random.default_rng(seed).choice(len(rows), ORACLE_POINTS,
                                                    replace=False)
        for i in sorted(picked):
            x, g = float(rows[i]["x"]), float(rows[i]["g"])
            checks.append(expect.check("kernel.g_oracle", g - kernel_oracle(x),
                                       f"kernel.g_oracle[x={x!r}]"))
        return checks

    return check


def _check_kernel_norm(op, out_dir, value, expect):
    return [
        expect.check("kernel_norm", value),
        Check("kernel_norm.le_2pi", value, KERNEL_NORM_CAP,
              value is not None and value <= KERNEL_NORM_CAP),
    ]


# ----------------------------------------------------------------------
# Workload definitions

_SWEEP = ("--workers", "1", "--evolution.profile", "gaussian",
          "--evolution.amplitude", "1", "--evolution.width", "1",
          "--grid.half_length", "100", "--grid.points", "4096",
          "--evolution.dt_max", "0.005", "--evolution.t_max", "10",
          "--sweep.r_values", "0.5,0.75,1,1.5,2,3,4,8")

_BOUNDS = ("--grid.half_length", "100", "--evolution.amplitude", "2",
           "--evolution.dt_max", "0.01")


def operations(workload, seed):
    """The workload's operations, in the order they run."""
    if workload == "sweep":
        return [
            Operation("sweep.p2", ("sweep", "--evolution.p", "2") + _SWEEP,
                      checks=_check_sweep),
            Operation("sweep.p3", ("sweep", "--evolution.p", "3") + _SWEEP,
                      checks=_check_sweep),
        ]
    if workload == "certify":
        return [
            Operation("bounds.n2048",
                      ("bounds", "--grid.points", "2048") + _BOUNDS,
                      checks=_check_bounds),
            Operation("bounds.n8192",
                      ("bounds", "--grid.points", "8192") + _BOUNDS,
                      checks=_check_bounds),
            Operation("commutator.n2048",
                      ("commutator", "--grid.half_length", "100",
                       "--grid.points", "2048"),
                      checks=_check_commutator),
            Operation("commutator.n4096",
                      ("commutator", "--grid.half_length", "100",
                       "--grid.points", "4096"),
                      checks=_check_commutator),
            Operation("threshold",
                      ("threshold", "--grid.half_length", "50",
                       "--grid.points", "1024", "--evolution.amplitude", "0.3",
                       "--evolution.p", "1.5"),
                      checks=_check_threshold),
        ]
    if workload == "kernel":
        return [
            Operation("kernel", ("kernel",), checks=_kernel_checks(seed)),
            Operation("kernel_norm", call=_kernel_norm_call(seed),
                      checks=_check_kernel_norm),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _kernel_norm_call(seed):
    """Criterion 06's base case: ||K|| at L = 100, N = 2048, tol 1e-9."""
    from fgl_lab import weights
    from fgl_lab.grid import make_grid

    w = weights.WeightSpec(exponent=1.0, scale=1.0)
    grid = make_grid(100.0, 2048)

    def call():
        # looked up at call time, so a traced run sees the wrapper
        return weights.estimate_weighted_kernel_norm(w, grid, tol=1e-9,
                                                     seed=seed)

    return call

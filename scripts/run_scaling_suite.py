#!/usr/bin/env python3
"""Scaling-law suite: lifespan vs amplitude and commutator vs dilation.

Fits log-log slopes for the detected blow-up time as the data amplitude
is scaled (expected slope -(p-1)) and tabulates the commutator norm
across weight dilations.  Each dilation rung is exact from one kappa
solve at R = 1 (kappa_R = kappa_1 / R on the dilated grid), so the table
reports how far that solve moves under dx refinement and domain
doubling.

    python3 scripts/run_scaling_suite.py --points 512 --out-dir suite-out
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fgl_lab import (  # noqa: E402
    GaussianProfile,
    SimConfig,
    WeightSpec,
    commutator_scaling,
    lifespan_sweep,
    make_grid,
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--half-length", type=float, default=50.0)
    ap.add_argument("--points", type=int, default=1024)
    ap.add_argument("--dt-max", type=float, default=0.01)
    ap.add_argument("--amplitudes", type=float, nargs="+",
                    default=[1.0, 2.0, 4.0, 8.0])
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", default=None,
                    help="also dump one sweep table per fit here")
    return ap.parse_args(argv)


def report_sweep(result, expected: float) -> None:
    print(f"  fitted slope {result.slope:+.4f} "
          f"(expected {expected:+.1f}, residual {result.residual:.2e})")
    for r, t, ok in zip(result.parameter_values, result.measured,
                        result.included):
        status = "included" if ok else "excluded"
        t_str = f"{t:.6f}" if np.isfinite(t) else "no blow-up"
        print(f"    R = {r:<6g} t_detected = {t_str:<12} [{status}]")
    print(f"  largest-R check: moved {result.stability.rel_change:.2%} "
          f"under domain doubling (budget {result.stability.budget:.0%})")


def dump_sweep(path: str, result) -> None:
    table = np.column_stack([result.parameter_values, result.measured,
                             result.included.astype(float)])
    header = f"{result.parameter} t_detected included (slope={result.slope!r})"
    np.savetxt(path, table, header=header)


def main(argv=None) -> int:
    args = parse_args(argv)
    grid = make_grid(args.half_length, args.points)
    amps = np.asarray(args.amplitudes, dtype=float)
    sweeps = {}

    for p, base_amp in ((2.0, 2.0), (3.0, 1.2)):
        base = SimConfig(
            grid=grid, p=p,
            profile=GaussianProfile(amplitude=base_amp, width=1.0, center=0.0),
            t_max=10.0, dt_max=args.dt_max,
        )
        result = lifespan_sweep(base, base.profile, amps,
                                workers=args.workers)
        print(f"amplitude sweep at p = {p:g} "
              f"(base amplitude {base_amp:g}, {amps.size} runs):")
        report_sweep(result, expected=-(p - 1.0))
        sweeps[f"lifespan_p{p:g}"] = result
        print()

    dilations = np.array([1.0, 2.0, 4.0, 8.0])
    result = commutator_scaling(WeightSpec(exponent=1.0, scale=1.0),
                                dilations, base_grid=make_grid(12.5, 256),
                                seed=args.seed)
    products = result.measured * result.parameter_values
    print(f"commutator norm under weight dilation ({dilations.size} scales):")
    print(f"  fitted slope {result.slope:+.4f} (expected -1.0)")
    for r, kappa, prod in zip(result.parameter_values, result.measured,
                              products):
        print(f"    R = {r:<6g} kappa_R = {kappa:.6f}   kappa_R * R = {prod:.6f}")
    spread = products.max() - products.min()
    print(f"  kappa_R * R spread = {spread:.2e}")
    for kind, check in (("dx refinement", result.refinement),
                        ("domain doubling", result.stability)):
        print(f"  kappa_1 moved {check.rel_change:.2e} under {kind} "
              f"(budget {check.budget:g})")
    sweeps["commutator"] = result

    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for name, res in sweeps.items():
            dump_sweep(os.path.join(args.out_dir, f"{name}.dat"), res)
        print(f"\nwrote {len(sweeps)} sweep tables to {args.out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())

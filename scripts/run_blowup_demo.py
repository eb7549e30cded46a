#!/usr/bin/env python3
"""One supercritical run, end to end: threshold, simulation, certificates.

Places Gaussian data a chosen factor above the blow-up threshold for the
bracket weight, runs the split-step evolution until detection, and then
audits the run against the certified lifespan and lower-bound formulas.

    python3 scripts/run_blowup_demo.py --margin 2.0 --out-dir demo-out
"""

import argparse
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fgl_lab import (  # noqa: E402
    BoundParams,
    GaussianProfile,
    SimConfig,
    WeightSpec,
    bounds_consistency,
    critical_initial_norm,
    estimate_kappa,
    initial_field,
    inv_weight_values,
    make_grid,
    norm_inv_h,
)
from fgl_lab.io import timeseries_table, write_plot_curve, write_rows_csv  # noqa: E402


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--half-length", type=float, default=100.0)
    ap.add_argument("--points", type=int, default=2048)
    ap.add_argument("--p", type=float, default=2.0)
    ap.add_argument("--margin", type=float, default=2.0,
                    help="data norm as a multiple of the threshold")
    ap.add_argument("--dt-max", type=float, default=0.01)
    ap.add_argument("--t-max", type=float, default=5.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", default=None,
                    help="also dump series.csv and plot data here")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    grid = make_grid(args.half_length, args.points)
    weight = WeightSpec(exponent=1.0, scale=1.0)

    print(f"grid: [-{grid.half_length:g}, {grid.half_length:g}) "
          f"with {grid.points} points (dx = {grid.dx:.4g})")
    kappa = estimate_kappa(weight, grid, seed=args.seed).kappa
    ninv = norm_inv_h(weight, grid)
    unit = initial_field(GaussianProfile(amplitude=1.0, width=1.0, center=0.0),
                         grid)
    unit_norm = math.sqrt(grid.dx * float(np.sum(
        np.abs(unit.values) ** 2 * inv_weight_values(weight, grid) ** 2)))
    probe = BoundParams(p=args.p, kappa=kappa, inv_weight_norm=ninv,
                        initial_weighted_norm=1.0)
    threshold = critical_initial_norm(probe)
    amplitude = args.margin * threshold / unit_norm
    print(f"commutator norm kappa = {kappa:.6f}, ||1/h||_2 = {ninv:.6f}")
    print(f"blow-up threshold ||u0/h||_2 > {threshold:.6f}; "
          f"placing data at {args.margin:g}x -> amplitude {amplitude:.6f}")

    cfg = SimConfig(
        grid=grid, p=args.p,
        profile=GaussianProfile(amplitude=amplitude, width=1.0, center=0.0),
        t_max=args.t_max, dt_max=args.dt_max,
    )
    audit = bounds_consistency(cfg, weight=weight, seed=args.seed)
    rep = audit.report

    print()
    if rep.blew_up:
        lo, hi = rep.bracket
        print(f"blow-up detected at t = {rep.t_detected:.6f} "
              f"({rep.criterion}, {rep.steps} steps, "
              f"bracket [{lo:.6f}, {hi:.6f}])")
    else:
        print(f"no blow-up by t = {cfg.t_max:g} (sup = {rep.final_sup:.3g})")
    print(f"certified lifespan bound: {audit.bound.time:.6f} "
          f"(detected/bound = {rep.t_detected / audit.bound.time:.3f})")
    print(f"lower-bound margins: worst {audit.lower_margins.worst:+.4f} "
          f"({'ok' if not audit.lower_margins.violated else 'VIOLATED'})")
    print(f"growth-inequality margins: worst {audit.growth_margins.worst:+.4f} "
          f"({'ok' if not audit.growth_margins.violated else 'VIOLATED'})")
    for check in audit.stability:
        print(f"stability: {check.label} moved {check.rel_change:.2%} "
              f"under domain doubling (budget {check.budget:.0%})")

    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        write_rows_csv(os.path.join(args.out_dir, "series.csv"),
                       *timeseries_table(audit.series))
        write_plot_curve(os.path.join(args.out_dir, "sup_vs_t.dat"),
                         audit.series.times, audit.series.sup)
        print(f"\nwrote series.csv and sup_vs_t.dat to {args.out_dir}/")

    failed = audit.lower_margins.violated or audit.growth_margins.violated
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

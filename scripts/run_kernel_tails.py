#!/usr/bin/env python3
"""Tail decay of the frequency-localized half-wave kernel.

Evaluates the oscillatory kernel on a log-spaced abscissa, fits the
algebraic decay rate over sliding windows, and reports the windowed
envelope constant so drift between windows is visible.

    python3 scripts/run_kernel_tails.py --x-max 400 --out-dir tails-out
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fgl_lab import BumpSpec, fit_tail_decay, kernel_transform  # noqa: E402


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--x-min", type=float, default=5.0)
    ap.add_argument("--x-max", type=float, default=400.0)
    ap.add_argument("--num-samples", type=int, default=4000)
    ap.add_argument("--num-nodes", type=int, default=12800)
    ap.add_argument("--windows", type=float, nargs=2, action="append",
                    metavar=("LO", "HI"), default=None,
                    help="fit window, repeatable (default: 10-100 and 20-200)")
    ap.add_argument("--num-bins", type=int, default=12)
    ap.add_argument("--out-dir", default=None,
                    help="also dump the sampled kernel and fits here")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    windows = args.windows or [(10.0, 100.0), (20.0, 200.0)]
    x = np.logspace(np.log10(args.x_min), np.log10(args.x_max),
                    args.num_samples)
    g = kernel_transform(BumpSpec(), x_samples=x, num_nodes=args.num_nodes)
    envelope = np.abs(g) * (1.0 + x**2)

    print(f"kernel sampled at {x.size} points on "
          f"[{args.x_min:g}, {args.x_max:g}] with {args.num_nodes} nodes")
    print(f"  g(x_min) = {g[0]:+.6e}   g(x_max) = {g[-1]:+.6e}")
    print(f"  |g|(1+x^2) over the last decade: "
          f"min {envelope[x >= args.x_max / 10].min():.4f}, "
          f"max {envelope[x >= args.x_max / 10].max():.4f}")
    print()

    fits = []
    for lo, hi in windows:
        fit = fit_tail_decay(x, g, window=(lo, hi), num_bins=args.num_bins)
        fits.append(fit)
        print(f"window [{lo:g}, {hi:g}] with {args.num_bins} bins:")
        print(f"  fitted decay x^{fit.slope:+.4f} "
              f"(quadratic decay is -2), constant = {fit.constant:.4f}")
    if len(fits) >= 2:
        consts = np.array([f.constant for f in fits])
        shift = abs(consts[1] - consts[0]) / consts[0]
        print(f"\nenvelope constant moved {shift:.1%} between the first two "
              f"windows; below x ~ 50 the crests have not settled yet, so "
              f"expect drift unless both windows sit in the far tail")

    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        np.savetxt(os.path.join(args.out_dir, "kernel.dat"),
                   np.column_stack([x, g, envelope]),
                   header="x g envelope")
        for fit, (lo, hi) in zip(fits, windows):
            np.savetxt(
                os.path.join(args.out_dir, f"fit_{lo:g}_{hi:g}.dat"),
                np.column_stack([fit.bin_x, fit.bin_values]),
                header=f"bin_x bin_|g| (slope={fit.slope!r} "
                       f"constant={fit.constant!r})")
        print(f"wrote kernel.dat and {len(fits)} fit tables to "
              f"{args.out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

``fgl <command> [--config <path>] [--section.key value]... [--seed N]
[--workers N] [--out-dir DIR]``

``_COMMANDS`` is the table of commands: each row names its handler, the
config keys it reads, as whole sections or single ``section.key``
entries, and its help.  A key's value is its ``--section.key`` flag
(``=value`` as well; a negative value in exponent notation needs the
``=`` form), else the config file's, else ``config.SCHEMA``'s default.
A flag for any other key is refused as an unrecognized argument.

Each handler returns a ``_Result``; ``run`` alone writes it out as a
summary JSON, command-specific CSV tables, a ``curves.json`` naming the
table columns each curve plots, and a run manifest listing exactly those
files, all into the output directory (``--out-dir``, default
``fgl-out``).

Exit codes: 0 on success (a detected blow-up is a successful result),
1 on usage/config errors and refused requests, 2 on numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import SCHEMA, coerce_value, load_config
from .errors import ConfigError
from .evolution import (
    ConstantProfile,
    GaussianProfile,
    SimConfig,
    initial_field,
    simulate,
)
from .grid import GridSpec, l2_norm, make_grid
from .io import (
    RunManifest,
    fmt,
    run_timestamp,
    timeseries_table,
    write_columns,
    write_json,
)
from .kernel_decay import fit_tail_decay, kernel_transform
from .ode import OdeParams, blowup_time, closed_form_eval, weighted_norm_lower_bound
from .weights import WeightSpec
from .experiments import (
    bounds_consistency,
    commutator_scaling,
    lifespan_sweep,
    subcritical_threshold,
)

__all__ = ["main"]

class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


@dataclass(frozen=True)
class _Result:
    """What a command produced; ``_write_tree`` turns it into files.

    tables: (file name, header, columns) entries.
    curves: (table file name, x column, y column, title) entries.
    """

    line: str
    summary: dict
    tables: list
    curves: list


# ----------------------------------------------------------------------
# Config -> domain objects


def _grid_from(cfg: dict) -> GridSpec:
    g = cfg["grid"]
    return make_grid(g["half_length"], g["points"])


def _weight_from(cfg: dict) -> WeightSpec:
    w = cfg["weights"]
    return WeightSpec(exponent=w["exponent"], scale=w["scale"])


def _profile_from(cfg: dict):
    e = cfg["evolution"]
    if e["profile"] == "constant":
        return ConstantProfile(amplitude=e["amplitude"])
    return GaussianProfile(amplitude=e["amplitude"], width=e["width"])


def _sim_config(cfg: dict) -> SimConfig:
    e = cfg["evolution"]
    return SimConfig(
        grid=_grid_from(cfg),
        p=e["p"],
        profile=_profile_from(cfg),
        t_max=e["t_max"],
        dt_max=e["dt_max"],
    )


def _stability_dict(check) -> dict:
    return {
        "label": check.label,
        "value": check.value,
        "doubled_value": check.doubled_value,
        "rel_change": check.rel_change,
        "stable": check.stable,
    }


def _series_curves(series) -> list:
    """One curve of series.csv per recorded quantity against t."""
    return [("series.csv", "t", name, f"{name} along the run")
            for name in ("mass", "h1", "sup", f"Q_{series.weight.label}")]


# ----------------------------------------------------------------------
# Command handlers: each computes its results and returns a _Result


def _cmd_simulate(cfg: dict, seed: int, workers: int) -> _Result:
    sim = _sim_config(cfg)
    series, report = simulate(sim, weight=_weight_from(cfg))
    summary = {
        "blew_up": report.blew_up,
        "t_detected": report.t_detected,
        "criterion": report.criterion,
        "final_sup": report.final_sup,
        "steps": report.steps,
        "bracket": list(report.bracket) if report.bracket else None,
        "samples": len(series.times),
        "p": sim.p,
    }
    if report.blew_up:
        line = (f"simulate: blow-up at t={fmt(report.t_detected)} "
                f"({report.criterion}) after {report.steps} steps")
    else:
        line = (f"simulate: no blow-up by t={fmt(sim.t_max)} "
                f"(final sup {fmt(report.final_sup)})")
    return _Result(line, summary, [("series.csv", *timeseries_table(series))],
                   _series_curves(series))


def _cmd_sweep(cfg: dict, seed: int, workers: int) -> _Result:
    result = lifespan_sweep(_sim_config(cfg), cfg["sweep"]["r_values"],
                            workers=workers)
    summary = {
        "parameter": "R",
        "slope": result.slope,
        "intercept": result.intercept,
        "residual": result.residual,
        "runs_included": int(np.count_nonzero(result.included)),
        "stability": _stability_dict(result.stability),
    }
    line = (f"sweep: slope={fmt(result.slope)} over "
            f"{summary['runs_included']} runs (residual {fmt(result.residual)})")
    return _Result(
        line, summary,
        [("sweep.csv", ["R", "t_detected", "included"],
          (result.parameter_values, result.measured, result.included))],
        [("sweep.csv", "R", "t_detected",
          "lifespan vs amplitude scale (log-log)")],
    )


_ODE_SAMPLES = 200  # points of the closed-form curve on [0, horizon]
_ODE_T_FRACTION = 0.99  # the horizon's share of a finite blow-up time


def _cmd_ode(cfg: dict, seed: int, workers: int) -> _Result:
    params = OdeParams(**cfg["ode"])
    t_star = blowup_time(params)
    # a global solution (T* = inf at c1 > 0) is drawn over 5/c1
    horizon = (5.0 / params.c1 if params.c1 > 0 and not np.isfinite(t_star)
               else _ODE_T_FRACTION * t_star)
    if not np.isfinite(horizon):
        raise OverflowError(f"the curve's horizon overflows at "
                            f"T* = {t_star:.6g}, {params}")
    times = np.linspace(0.0, horizon, _ODE_SAMPLES)
    values = closed_form_eval(params, times)
    summary = {
        "blowup_time": t_star,
        "equilibrium": params.equilibrium,
        "c1": params.c1, "c2": params.c2, "q": params.q, "f0": params.f0,
        "horizon": horizon,
        "final_value": float(values[-1]),
    }
    line = f"ode: blowup_time={fmt(t_star)} equilibrium={fmt(params.equilibrium)}"
    return _Result(
        line, summary,
        [("ode.csv", ["t", "f"], (times, values))],
        [("ode.csv", "t", "f", "closed-form Bernoulli solution")],
    )


def _cmd_commutator(cfg: dict, seed: int, workers: int) -> _Result:
    result = commutator_scaling(_weight_from(cfg), _grid_from(cfg), seed=seed)
    products = result.parameter_values * result.measured
    spread = float(products.max() / products.min() - 1.0)
    summary = {
        "slope": result.slope,
        "intercept": result.intercept,
        "residual": result.residual,
        "kappa_times_r_spread": spread,
        "stability": _stability_dict(result.stability),
        "refinement": _stability_dict(result.refinement),
    }
    line = (f"commutator: slope={fmt(result.slope)} "
            f"kappa*R spread={fmt(spread)}")
    return _Result(
        line, summary,
        [("commutator.csv", ["R", "kappa", "kappa_times_R"],
          (result.parameter_values, result.measured, products))],
        [("commutator.csv", "R", "kappa",
          "commutator norm vs weight scale (log-log)")],
    )


# Criterion 08's fit: the envelope slope on (10, 100), checked against
# the window shifted one octave, (20, 200), on a table that covers both.
_KERNEL_WINDOW = (10.0, 100.0)
_KERNEL_SHIFTED_WINDOW = (20.0, 200.0)


def _cmd_kernel(cfg: dict, seed: int, workers: int) -> _Result:
    x = np.linspace(5.0, 400.0, 4000)
    g = kernel_transform(x, num_nodes=cfg["kernel"]["num_nodes"])
    envelope = np.abs(g) * (1.0 + x**2)
    fit = fit_tail_decay(x, g, window=_KERNEL_WINDOW)
    shifted = fit_tail_decay(x, g, window=_KERNEL_SHIFTED_WINDOW)
    c_change = abs(shifted.constant - fit.constant) / fit.constant
    summary = {
        "slope": fit.slope,
        "constant": fit.constant,
        "residual": fit.residual,
        "shifted_slope": shifted.slope,
        "shifted_constant": shifted.constant,
        "constant_rel_change": c_change,
        "g_at_origin_window_start": float(g[0]),
    }
    line = (f"kernel: slope={fmt(fit.slope)} C={fmt(fit.constant)} "
            f"C shift={fmt(c_change)}")
    return _Result(
        line, summary,
        [("kernel.csv", ["x", "g", "envelope"], (x, g, envelope)),
         ("kernel_bins.csv", ["x", "bin_max_abs_g"],
          (fit.bin_x, fit.bin_values))],
        [("kernel.csv", "x", "g", "kernel"),
         ("kernel.csv", "x", "envelope", "decay envelope |g|(1+x^2)"),
         ("kernel_bins.csv", "x", "bin_max_abs_g", "envelope bin maxima")],
    )


def _cmd_threshold(cfg: dict, seed: int, workers: int) -> _Result:
    grid = _grid_from(cfg)
    weight = _weight_from(cfg)
    u0 = initial_field(_profile_from(cfg), grid)
    result = subcritical_threshold(u0, cfg["evolution"]["p"], weight=weight,
                                   seed=seed)
    columns = ["R", "kappa", "inv_h_norm", "weighted_data_norm", "threshold", "met"]
    summary = {
        "r0": result.r0,
        "predicted_r0": result.predicted_r0,
        "kappa_base": result.history[0]["kappa"],
        "data_l2_norm": l2_norm(u0),
        "lifespan_bound": result.bound,
        "doublings_tried": len(result.history),
        "stability": _stability_dict(result.stability),
        "refinement": _stability_dict(result.refinement),
    }
    line = (f"threshold: R0={fmt(result.r0)} predicted={fmt(result.predicted_r0)} "
            f"lifespan bound={fmt(result.bound)}")
    return _Result(
        line, summary,
        [("threshold.csv", columns,
          [[h[c] for h in result.history] for c in columns])],
        [("threshold.csv", "R", "threshold",
          "critical norm vs weight dilation")],
    )


def _cmd_bounds(cfg: dict, seed: int, workers: int) -> _Result:
    audit = bounds_consistency(_sim_config(cfg), weight=_weight_from(cfg),
                               seed=seed)
    lower = audit.lower_margins
    bound_curve = weighted_norm_lower_bound(audit.bound_params, lower.times)
    report = audit.report
    summary = {
        "threshold_value": audit.threshold_value,
        "kappa": audit.bound_params.kappa,
        "inv_weight_norm": audit.bound_params.inv_weight_norm,
        "initial_weighted_norm": audit.bound_params.initial_weighted_norm,
        "lifespan_bound": audit.bound,
        "blew_up": report.blew_up,
        "t_detected": report.t_detected,
        "criterion": report.criterion,
        "steps": report.steps,
        "lower_margin_worst": lower.worst,
        "lower_margins_ok": not lower.violated,
        "growth_margin_worst": audit.growth_margins.worst,
        "growth_margins_ok": not audit.growth_margins.violated,
        "stability": [_stability_dict(c) for c in audit.stability],
    }
    outcome = (f"t_detected={fmt(report.t_detected)}" if report.blew_up
               else f"no blow-up by t={fmt(cfg['evolution']['t_max'])}")
    line = (f"bounds: {outcome} vs bound {fmt(audit.bound)}; worst margins "
            f"lower={fmt(lower.worst)} growth={fmt(audit.growth_margins.worst)}")
    return _Result(
        line, summary,
        [("series.csv", *timeseries_table(audit.series)),
         ("lower_bound.csv", ["t", "lower_bound"], (lower.times, bound_curve))],
        _series_curves(audit.series) + [
            ("lower_bound.csv", "t", "lower_bound",
             "certified weighted-norm lower bound")],
    )


# name -> (handler, config sections or section.key entries it reads, help)
_COMMANDS = {
    "simulate": (_cmd_simulate, ("grid", "weights", "evolution"),
                 "evolve one initial datum and record the blow-up diagnostics"),
    "sweep": (_cmd_sweep, ("grid", "evolution", "sweep"),
              "lifespan vs amplitude scale over a family of runs"),
    "ode": (_cmd_ode, ("ode",),
            "closed-form blow-up ODE solution and lifespan"),
    "commutator": (_cmd_commutator, ("grid", "weights"),
                   "weighted commutator norm across weight dilations"),
    "kernel": (_cmd_kernel, ("kernel",),
               "smooth-cutoff kernel decay and envelope fit"),
    "threshold": (_cmd_threshold, ("grid", "weights", "evolution.p", "evolution.profile",
                                   "evolution.amplitude", "evolution.width"),
                  "dyadic weight-dilation search certifying small-data blow-up"),
    "bounds": (_cmd_bounds, ("grid", "weights", "evolution"),
               "run one blow-up and audit it against the certified bounds"),
}


def _row_keys(entries) -> list[tuple[str, str]]:
    """(section, key) of each key a row reads; an entry is a section or one key."""
    return [(section, key) for section, _, one in (e.partition(".") for e in entries)
            for key in ((one,) if one else SCHEMA[section])]


def build_parser() -> _Parser:
    parser = _Parser(
        prog="fgl",
        description="Blow-up experiments for the repulsive half-wave "
        "equation with power nonlinearity.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    for name, (_, _, text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=text, description=text)
        cmd.add_argument("--config", default=None,
                         help="key = value config file (INI sections)")
        cmd.add_argument("--seed", type=int, default=0,
                         help="seed for randomized estimators (default 0)")
        cmd.add_argument("--workers", type=int, default=0,
                         help="parallel workers for sweeps (0 = all cores)")
        cmd.add_argument("--out-dir", default="fgl-out",
                         help="output directory (default ./fgl-out)")
    return parser


def _write_tree(out_dir: str, result: _Result) -> list[str]:
    """Write a command's tables, its curves.json and its summary.

    Returns the files written, relative to out_dir: the manifest's list.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, header, columns in result.tables:
        write_columns(os.path.join(out_dir, name), columns, header)
        written.append(name)
    curves = [{"file": name, "x": x, "y": y, "title": title}
              for name, x, y, title in result.curves]
    for name, payload in (("curves.json", {"curves": curves}),
                          ("summary.json", result.summary)):
        write_json(os.path.join(out_dir, name), payload)
        written.append(name)
    return written


def run(argv) -> int:
    args, extra = build_parser().parse_known_args(argv)
    handler, entries, _ = _COMMANDS[args.command]
    keys = _row_keys(entries)
    # A key's value is its flag, else the config file's, else the default.
    overrides = _Parser(prog=f"fgl {args.command}", add_help=False,
                        allow_abbrev=False)
    for section, key in keys:
        overrides.add_argument(f"--{section}.{key}", default=argparse.SUPPRESS)
    flags = {dest: coerce_value(*dest.split("."), text)
             for dest, text in vars(overrides.parse_args(extra)).items()}
    file_values = load_config(args.config)
    cfg = {}
    for section, key in keys:
        default = file_values.get(section, {}).get(key, SCHEMA[section][key][1])
        cfg.setdefault(section, {})[key] = flags.get(f"{section}.{key}", default)
    if args.workers < 0:
        raise ConfigError(f"--workers must be >= 0 (0 = all cores), "
                          f"got {args.workers}")
    workers = args.workers if args.workers > 0 else (os.cpu_count() or 1)
    result = handler(cfg, args.seed, workers)
    manifest = RunManifest(
        command=args.command,
        config=cfg,
        version=__version__,
        seed=args.seed,
        out_dir=args.out_dir,
        timestamp=run_timestamp(),
        outputs=tuple(sorted(_write_tree(args.out_dir, result)
                             + ["manifest.json"])),
    )
    manifest.write(os.path.join(args.out_dir, "manifest.json"))
    print(result.line)
    return 0


def main(argv=None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except ArithmeticError as exc:  # errors.NumericalError among them
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

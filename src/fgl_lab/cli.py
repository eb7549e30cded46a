"""Command-line entry point.

``fgl <command> --config <path> [--section.key value]... [--seed N]
[--workers N] [--out-dir DIR]``

Commands: simulate, sweep, ode, commutator, kernel, threshold, bounds.
Each run writes a summary JSON, command-specific CSV, two-column plot
data under ``plots/``, and a run manifest, all into the output
directory (``--out-dir`` flag, else the ``FGL_OUT_DIR`` environment
variable, else ``fgl-out``).

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
from .config import ResolvedConfig, load_config, parse_overrides, resolve
from .errors import (
    BoundDivergedError,
    BlowupExceededError,
    ConfigError,
    ConvergenceError,
    CorruptFieldError,
    GridStabilityError,
    SingularSubstepError,
    SupercriticalError,
    ThresholdNotMetError,
    WeightNotRegisteredError,
)
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
    write_json,
    write_plot_curve,
    write_plot_index,
    write_rows_csv,
    write_timeseries_csv,
)
from .kernel_decay import BumpSpec, fit_tail_decay, kernel_transform
from .ode import OdeParams, blowup_time, closed_form_eval, weighted_norm_lower_bound
from .weights import WeightSpec, estimate_kappa, norm_inv_h
from .experiments import (
    bounds_consistency,
    commutator_scaling,
    lifespan_sweep,
    subcritical_threshold,
)

__all__ = ["main"]

_NUMERICAL_ERRORS = (
    BoundDivergedError,
    BlowupExceededError,
    ConvergenceError,
    CorruptFieldError,
    GridStabilityError,
    SingularSubstepError,
    ThresholdNotMetError,
    WeightNotRegisteredError,
    FloatingPointError,
)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


@dataclass(frozen=True)
class _RunContext:
    command: str
    cfg: ResolvedConfig
    seed: int
    workers: int
    out_dir: str

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)


# ----------------------------------------------------------------------
# Config -> domain objects


def _grid_from(cfg: ResolvedConfig) -> GridSpec:
    g = cfg["grid"]
    return make_grid(g["half_length"], g["points"])


def _weight_from(cfg: ResolvedConfig) -> WeightSpec:
    w = cfg["weights"]
    return WeightSpec(exponent=w["exponent"], scale=w["scale"])


def _profile_from(cfg: ResolvedConfig):
    e = cfg["evolution"]
    if e["profile"] == "constant":
        return ConstantProfile(value=e["amplitude"])
    return GaussianProfile(
        amplitude=e["amplitude"], width=e["width"], center=e["center"]
    )


def _sim_config(cfg: ResolvedConfig) -> SimConfig:
    e = cfg["evolution"]
    return SimConfig(
        grid=_grid_from(cfg),
        p=e["p"],
        profile=_profile_from(cfg),
        t_max=e["t_max"],
        theta=e["theta"],
        dt_max=e["dt_max"],
        dt_min=e["dt_min"],
        sup_threshold=e["sup_threshold"],
        record_every=e["record_every"],
        linear_only=e["linear_only"],
    )


def _stability_dict(check) -> dict | None:
    if check is None:
        return None
    return {
        "label": check.label,
        "value": check.value,
        "doubled_value": check.doubled_value,
        "rel_change": check.rel_change,
        "stable": check.stable,
    }


def _series_outputs(ctx: _RunContext, series) -> tuple[list[str], list[dict]]:
    """Write the time-series CSV and per-quantity plot curves."""
    outputs = ["series.csv"]
    write_timeseries_csv(ctx.path("series.csv"), series)
    curves = []
    named = [("mass", series.mass), ("h1", series.h1), ("sup", series.sup)]
    named += [(f"Q_{lab}", series.momenta[lab]) for lab in sorted(series.momenta)]
    for name, values in named:
        rel = os.path.join("plots", f"{name}_vs_t.dat")
        write_plot_curve(ctx.path(rel), series.times, values)
        outputs.append(rel)
        curves.append({"file": rel, "x": "t", "y": name,
                       "title": f"{name} along the run"})
    return outputs, curves


# ----------------------------------------------------------------------
# Command handlers: each writes its files and returns (summary_line, outputs)


def _cmd_simulate(ctx: _RunContext):
    cfg = _sim_config(ctx.cfg)
    weight = _weight_from(ctx.cfg)
    series, report = simulate(cfg, weights=(weight,))
    outputs, curves = _series_outputs(ctx, series)
    write_plot_index(ctx.path(os.path.join("plots", "index.json")), curves)
    outputs.append(os.path.join("plots", "index.json"))
    summary = {
        "blew_up": report.blew_up,
        "t_detected": report.t_detected,
        "criterion": report.criterion,
        "final_sup": report.final_sup,
        "steps": report.steps,
        "bracket": list(report.bracket) if report.bracket else None,
        "samples": len(series.times),
        "p": cfg.p,
    }
    write_json(ctx.path("summary.json"), summary)
    outputs.append("summary.json")
    if report.blew_up:
        line = (f"simulate: blow-up at t={fmt(report.t_detected)} "
                f"({report.criterion}) after {report.steps} steps")
    else:
        line = (f"simulate: no blow-up by t={fmt(cfg.t_max)} "
                f"(final sup {fmt(report.final_sup)})")
    return line, outputs


def _cmd_sweep(ctx: _RunContext):
    base = _sim_config(ctx.cfg)
    profile = _profile_from(ctx.cfg)
    r_values = ctx.cfg["sweep"]["r_values"]
    result = lifespan_sweep(base, profile, r_values, workers=ctx.workers)
    rows = [
        (r, t, bool(inc))
        for r, t, inc in zip(result.parameter_values, result.measured,
                             result.included)
    ]
    write_rows_csv(ctx.path("sweep.csv"),
                   ["R", "t_detected", "included"], rows)
    rel = os.path.join("plots", "t_detected_vs_R.dat")
    mask = result.included
    write_plot_curve(ctx.path(rel), result.parameter_values[mask],
                     result.measured[mask])
    write_plot_index(ctx.path(os.path.join("plots", "index.json")),
                     [{"file": rel, "x": "R", "y": "t_detected",
                       "title": "lifespan vs amplitude scale (log-log)"}])
    summary = {
        "parameter": result.parameter,
        "slope": result.slope,
        "intercept": result.intercept,
        "residual": result.residual,
        "runs_included": int(np.count_nonzero(result.included)),
        "stability": _stability_dict(result.stability),
    }
    write_json(ctx.path("summary.json"), summary)
    outputs = ["sweep.csv", rel, os.path.join("plots", "index.json"),
               "summary.json"]
    line = (f"sweep: slope={fmt(result.slope)} over "
            f"{summary['runs_included']} runs (residual {fmt(result.residual)})")
    return line, outputs


def _cmd_ode(ctx: _RunContext):
    o = ctx.cfg["ode"]
    params = OdeParams(c1=o["c1"], c2=o["c2"], q=o["q"], f0=o["f0"])
    t_star = blowup_time(params)
    frac = o["t_fraction"]
    if not 0.0 < frac < 1.0:
        raise ConfigError("[ode] t_fraction must lie strictly between 0 and 1")
    horizon = frac * t_star if np.isfinite(t_star) else 5.0 / params.c1
    times = np.linspace(0.0, horizon, o["num_samples"])
    values = closed_form_eval(params, times)
    write_rows_csv(ctx.path("ode.csv"), ["t", "f"], zip(times, values))
    rel = os.path.join("plots", "f_vs_t.dat")
    write_plot_curve(ctx.path(rel), times, values)
    write_plot_index(ctx.path(os.path.join("plots", "index.json")),
                     [{"file": rel, "x": "t", "y": "f",
                       "title": "closed-form Bernoulli solution"}])
    summary = {
        "blowup_time": t_star,
        "equilibrium": params.equilibrium,
        "c1": params.c1, "c2": params.c2, "q": params.q, "f0": params.f0,
        "horizon": horizon,
        "final_value": float(values[-1]),
    }
    write_json(ctx.path("summary.json"), summary)
    outputs = ["ode.csv", rel, os.path.join("plots", "index.json"),
               "summary.json"]
    line = f"ode: blowup_time={fmt(t_star)} equilibrium={fmt(params.equilibrium)}"
    return line, outputs


def _cmd_commutator(ctx: _RunContext):
    weight = _weight_from(ctx.cfg)
    grid = _grid_from(ctx.cfg)
    c = ctx.cfg["commutator"]
    result = commutator_scaling(weight, c["r_values"], grid,
                                tol=c["tol"], seed=ctx.seed)
    rows = [
        (r, k, r * k)
        for r, k in zip(result.parameter_values, result.measured)
    ]
    write_rows_csv(ctx.path("commutator.csv"),
                   ["R", "kappa", "kappa_times_R"], rows)
    rel = os.path.join("plots", "kappa_vs_R.dat")
    write_plot_curve(ctx.path(rel), result.parameter_values, result.measured)
    write_plot_index(ctx.path(os.path.join("plots", "index.json")),
                     [{"file": rel, "x": "R", "y": "kappa",
                       "title": "commutator norm vs weight scale (log-log)"}])
    products = result.parameter_values * result.measured
    spread = float(products.max() / products.min() - 1.0)
    summary = {
        "slope": result.slope,
        "intercept": result.intercept,
        "residual": result.residual,
        "kappa_times_r_spread": spread,
        "stability": _stability_dict(result.stability),
    }
    write_json(ctx.path("summary.json"), summary)
    outputs = ["commutator.csv", rel, os.path.join("plots", "index.json"),
               "summary.json"]
    line = (f"commutator: slope={fmt(result.slope)} "
            f"kappa*R spread={fmt(spread)}")
    return line, outputs


def _cmd_kernel(ctx: _RunContext):
    k = ctx.cfg["kernel"]
    spec = BumpSpec()
    x = np.linspace(k["x_min"], k["x_max"], k["num_samples"])
    g = kernel_transform(spec, x, num_nodes=k["num_nodes"])
    envelope = np.abs(g) * (1.0 + x**2)
    fit = fit_tail_decay(x, g, window=(k["window_lo"], k["window_hi"]),
                         num_bins=k["num_bins"])
    shifted = fit_tail_decay(x, g, window=(k["shifted_lo"], k["shifted_hi"]),
                             num_bins=k["num_bins"])
    c_change = abs(shifted.constant - fit.constant) / fit.constant
    write_rows_csv(ctx.path("kernel.csv"), ["x", "g", "envelope"],
                   zip(x, g, envelope))
    rel_g = os.path.join("plots", "g_vs_x.dat")
    rel_env = os.path.join("plots", "envelope_vs_x.dat")
    rel_bins = os.path.join("plots", "bin_maxima.dat")
    write_plot_curve(ctx.path(rel_g), x, g)
    write_plot_curve(ctx.path(rel_env), x, envelope)
    write_plot_curve(ctx.path(rel_bins), fit.bin_x, fit.bin_values)
    write_plot_index(ctx.path(os.path.join("plots", "index.json")), [
        {"file": rel_g, "x": "x", "y": "g", "title": "kernel"},
        {"file": rel_env, "x": "x", "y": "|g|(1+x^2)",
         "title": "decay envelope"},
        {"file": rel_bins, "x": "x", "y": "bin max |g|",
         "title": "envelope bin maxima"},
    ])
    summary = {
        "slope": fit.slope,
        "constant": fit.constant,
        "residual": fit.residual,
        "shifted_slope": shifted.slope,
        "shifted_constant": shifted.constant,
        "constant_rel_change": c_change,
        "g_at_origin_window_start": float(g[0]),
    }
    write_json(ctx.path("summary.json"), summary)
    outputs = ["kernel.csv", rel_g, rel_env, rel_bins,
               os.path.join("plots", "index.json"), "summary.json"]
    line = (f"kernel: slope={fmt(fit.slope)} C={fmt(fit.constant)} "
            f"C shift={fmt(c_change)}")
    return line, outputs


def _cmd_threshold(ctx: _RunContext):
    grid = _grid_from(ctx.cfg)
    weight = _weight_from(ctx.cfg)
    t = ctx.cfg["threshold"]
    u0 = initial_field(_profile_from(ctx.cfg), grid)
    kappa1 = estimate_kappa(weight, grid, tol=t["kappa_tol"],
                            seed=ctx.seed).kappa
    result = subcritical_threshold(
        u0, ctx.cfg["evolution"]["p"], kappa1, weight=weight,
        max_doublings=t["max_doublings"], tol=t["kappa_tol"],
        seed=ctx.seed, max_points=t["max_points"],
    )
    rows = [
        (h["R"], h["kappa"], h["inv_h_norm"], h["weighted_data_norm"],
         h["threshold"], bool(h["met"]))
        for h in result.history
    ]
    write_rows_csv(
        ctx.path("threshold.csv"),
        ["R", "kappa", "inv_h_norm", "weighted_data_norm", "threshold", "met"],
        rows,
    )
    rel = os.path.join("plots", "threshold_vs_R.dat")
    write_plot_curve(ctx.path(rel), [h["R"] for h in result.history],
                     [h["threshold"] for h in result.history])
    write_plot_index(ctx.path(os.path.join("plots", "index.json")),
                     [{"file": rel, "x": "R", "y": "threshold",
                       "title": "critical norm vs weight dilation"}])
    summary = {
        "r0": result.r0,
        "predicted_r0": result.predicted_r0,
        "kappa_base": kappa1,
        "data_l2_norm": l2_norm(u0),
        "lifespan_bound": result.bound.time,
        "bound_condition_met": result.bound.condition_met,
        "doublings_tried": len(result.history),
        "stability": _stability_dict(result.stability),
    }
    write_json(ctx.path("summary.json"), summary)
    outputs = ["threshold.csv", rel, os.path.join("plots", "index.json"),
               "summary.json"]
    line = (f"threshold: R0={fmt(result.r0)} predicted={fmt(result.predicted_r0)} "
            f"lifespan bound={fmt(result.bound.time)}")
    return line, outputs


def _cmd_bounds(ctx: _RunContext):
    cfg = _sim_config(ctx.cfg)
    weight = _weight_from(ctx.cfg)
    b = ctx.cfg["bounds"]
    audit = bounds_consistency(
        cfg, weight=weight, required_margin=b["required_margin"],
        margin_tol=b["margin_tol"], kappa_tol=b["kappa_tol"],
        seed=ctx.seed, variant=b["variant"],
    )
    outputs, curves = _series_outputs(ctx, audit.series)
    lower = audit.lower_margins
    rel = os.path.join("plots", "lower_bound_vs_t.dat")
    bound_curve = [
        weighted_norm_lower_bound(audit.bound_params, tv, variant=b["variant"])
        for tv in lower.times
    ]
    write_plot_curve(ctx.path(rel), lower.times, bound_curve)
    curves.append({"file": rel, "x": "t", "y": "lower bound",
                   "title": "certified weighted-norm lower bound"})
    write_plot_index(ctx.path(os.path.join("plots", "index.json")), curves)
    outputs += [rel, os.path.join("plots", "index.json")]
    report = audit.report
    summary = {
        "threshold_value": audit.threshold_value,
        "kappa": audit.bound_params.kappa,
        "inv_weight_norm": audit.bound_params.inv_weight_norm,
        "initial_weighted_norm": audit.bound_params.initial_weighted_norm,
        "lifespan_bound": audit.bound.time,
        "bound_condition_met": audit.bound.condition_met,
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
    write_json(ctx.path("summary.json"), summary)
    outputs.append("summary.json")
    line = (f"bounds: t_detected={fmt(report.t_detected)} vs bound "
            f"{fmt(audit.bound.time)}; worst margins "
            f"lower={fmt(lower.worst)} growth={fmt(audit.growth_margins.worst)}")
    return line, outputs


_HANDLERS = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "ode": _cmd_ode,
    "commutator": _cmd_commutator,
    "kernel": _cmd_kernel,
    "threshold": _cmd_threshold,
    "bounds": _cmd_bounds,
}

_COMMAND_HELP = {
    "simulate": "evolve one initial datum and record the blow-up diagnostics",
    "sweep": "lifespan vs amplitude scale over a family of runs",
    "ode": "closed-form blow-up ODE solution and lifespan",
    "commutator": "weighted commutator norm across weight dilations",
    "kernel": "smooth-cutoff kernel decay and envelope fit",
    "threshold": "dyadic weight-dilation search certifying small-data blow-up",
    "bounds": "run one blow-up and audit it against the certified bounds",
}


def build_parser() -> _Parser:
    parser = _Parser(
        prog="fgl",
        description="Blow-up experiments for the repulsive half-wave "
        "equation with power nonlinearity.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    for name in _HANDLERS:
        cmd = sub.add_parser(name, help=_COMMAND_HELP[name],
                             description=_COMMAND_HELP[name])
        cmd.add_argument("--config", default=None,
                         help="key = value config file (INI sections)")
        cmd.add_argument("--seed", type=int, default=0,
                         help="seed for randomized estimators (default 0)")
        cmd.add_argument("--workers", type=int, default=0,
                         help="parallel workers for sweeps (0 = all cores)")
        cmd.add_argument("--out-dir", default=None,
                         help="output directory (else $FGL_OUT_DIR, "
                         "else ./fgl-out)")
    return parser


def _resolve_out_dir(flag_value: str | None) -> str:
    if flag_value is not None:
        return flag_value
    return os.environ.get("FGL_OUT_DIR", "fgl-out")


def run(argv) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    overrides = parse_overrides(extra)
    cfg = resolve(args.command, load_config(args.config), overrides)
    workers = args.workers if args.workers > 0 else (os.cpu_count() or 1)
    out_dir = _resolve_out_dir(args.out_dir)
    os.makedirs(os.path.join(out_dir, "plots"), exist_ok=True)
    ctx = _RunContext(command=args.command, cfg=cfg, seed=args.seed,
                      workers=workers, out_dir=out_dir)
    line, outputs = _HANDLERS[args.command](ctx)
    manifest = RunManifest(
        command=args.command,
        config=cfg.as_dict(),
        version=__version__,
        seed=args.seed,
        workers=workers,
        out_dir=out_dir,
        timestamp=run_timestamp(),
        outputs=tuple(outputs) + ("manifest.json",),
    )
    manifest.write(ctx.path("manifest.json"))
    print(line)
    return 0


def main(argv=None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except (ConfigError, SupercriticalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

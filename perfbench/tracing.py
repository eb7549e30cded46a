"""Outside-in span tracing for the fgl-lab benchmark.

The tracer wraps public functions of ``fgl_lab`` modules and numpy's FFT
entry points from the outside; nothing under ``src/`` knows about it.
Each wrapper is rebound in every ``fgl_lab`` module namespace that holds
the original object (``from .grid import sup_norm`` copies the name, so
patching only ``fgl_lab.grid`` would miss calls made from
``fgl_lab.evolution``); the FFT wrappers likewise replace
``numpy.fft.<name>``, ``scipy.fft.<name>`` and any ``from numpy.fft
import <name>`` copy.  ``set_active`` swaps the wrappers in and out, so
one process can alternate traced and untraced passes.  Spans are kept in
memory and written as JSON lines when the run ends.

A span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import statistics
import sys
import time

# Modules whose public functions are all traced; their self time is
# reported per module.
WHOLE_MODULES = ("experiments", "diagnostics", "ode", "config", "io")

# Per-value helpers of the io layer: their time stays in the writer that
# calls them instead of costing a span per CSV cell.
IO_HELPERS = ("fmt", "sanitize_json")

# Compute modules: only the named functions are traced, so that the time
# of unnamed helpers stays in the self time of the traced caller.
NAMED_FUNCTIONS = {
    "grid": ("apply_half_wave", "apply_multiplier", "h1_norm", "sup_norm"),
    "evolution": ("simulate", "strang_step", "nonlinear_substep", "choose_dt"),
    "weights": ("estimate_kappa", "norm_inv_h",
                "estimate_weighted_kernel_norm", "weighted_kernel_matrix"),
    "kernel_decay": ("kernel_transform", "fit_tail_decay"),
}

FFT_FUNCTIONS = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn",
                 "irfftn", "fft2", "ifft2", "rfft2", "irfft2", "hfft", "ihfft")

# Modules whose FFT entry points are wrapped; any other FFT an fgl_lab
# module holds fails the traced run.
FFT_MODULES = ("numpy.fft", "scipy.fft")

# us-per-step is reported for these grid sizes (the sizes the workloads run).
STEP_SIZES = (2048, 4096, 8192)


class TracingError(RuntimeError):
    """A call path of the program would escape the tracer."""


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent_index, op_id, attrs]``; its id
    is its index in ``spans``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id: str | None = None
        # (namespace, attribute, original, wrapper) for every rebinding.
        self._bindings: list[tuple] = []

    def span(self, name, fn, attrs=None):
        """Return fn wrapped in a span; attrs(args, kwargs, result) -> dict."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            record = [name, clock(), None, stack[-1] if stack else None,
                      tracer.op_id, None]
            spans.append(record)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if attrs is not None:
                record[5] = attrs(args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # Installation

    def install(self):
        """Wrap the traced functions and the FFT entry points, then activate.

        Raises TracingError if a function to trace does not exist, or if
        an ``fgl_lab`` namespace holds an FFT the tracer cannot wrap: a
        per-layer figure must not drop to zero because a call went
        around the tracer.
        """
        modules, missing = {}, []
        for short in WHOLE_MODULES + tuple(NAMED_FUNCTIONS):
            try:
                modules[short] = importlib.import_module(f"fgl_lab.{short}")
            except ModuleNotFoundError:
                missing.append(short)
        package = [mod for name, mod in sys.modules.items()
                   if name == "fgl_lab" or name.startswith("fgl_lab.")]
        hooks = _attribute_hooks()
        for short, module in modules.items():
            if short in NAMED_FUNCTIONS:
                names = NAMED_FUNCTIONS[short]
            else:
                names = [n for n, obj in vars(module).items()
                         if not n.startswith("_") and inspect.isfunction(obj)
                         and obj.__module__ == module.__name__
                         and n not in IO_HELPERS]
            for fname in names:
                original = getattr(module, fname, None)
                if original is None:
                    missing.append(f"{short}.{fname}")
                    continue
                hook = hooks.get(f"{short}.{fname}")
                attrs = hook(original) if hook else None
                self._bind(package, [], original,
                           self.span(f"{short}.{fname}", original, attrs))
        manifest = getattr(modules.get("io"), "RunManifest", None)
        if manifest is None:
            missing.append("io.RunManifest")
        else:
            self._bindings.append(
                (manifest, "write", manifest.write,
                 self.span("io.RunManifest.write", manifest.write)))
        for fft_module in FFT_MODULES:
            module = importlib.import_module(fft_module)
            for fname in FFT_FUNCTIONS:
                original = getattr(module, fname, None)
                if original is not None:
                    self._bind(package, [module], original,
                               self.span(f"fft.{fname}", original, _fft_attrs))
        missing += _unwrapped_ffts(package, {id(b[2]) for b in self._bindings})
        if missing:
            raise TracingError(f"cannot trace: {', '.join(missing)}")
        self.set_active(True)

    def _bind(self, package, namespaces, original, wrapped):
        """Record a rebinding wherever the original object is held."""
        for ns in list(namespaces) + package:
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._bindings.append((ns, key, original, wrapped))

    def set_active(self, on):
        """Bind the wrappers (on) or restore the original functions (off)."""
        for ns, key, original, wrapped in self._bindings:
            setattr(ns, key, wrapped if on else original)

    # ------------------------------------------------------------------
    # Output

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, op, attrs) in enumerate(self.spans):
                row = {"id": sid, "name": name, "start": start, "end": end,
                       "parent": parent, "op": op}
                if attrs:
                    row["attrs"] = attrs
                fh.write(json.dumps(row) + "\n")


def _unwrapped_ffts(package, bound_ids):
    """FFT functions or modules held by fgl_lab namespaces but not wrapped.

    bound_ids : ids of the original objects that have a wrapper bound.
    """
    found = []
    for mod in package:
        for key, value in vars(mod).items():
            if inspect.ismodule(value):
                if "fft" in value.__name__ and value.__name__ not in FFT_MODULES:
                    found.append(f"{mod.__name__}.{key} ({value.__name__})")
            elif (callable(value) and id(value) not in bound_ids
                  and getattr(value, "__name__", None) in FFT_FUNCTIONS
                  and not (getattr(value, "__module__", None) or "").startswith("fgl_lab")):
                found.append(f"{mod.__name__}.{key} ({value.__module__})")
    return found


def _fft_attrs(args, kwargs, result):
    """Computed work of one transform: 5 N log2 N flops, input+output bytes."""
    n = result.size
    nbytes = getattr(args[0], "nbytes", 0) + result.nbytes
    return {"n": n, "flops": 5.0 * n * math.log2(n) if n > 1 else 0.0,
            "bytes": nbytes}


def _attribute_hooks():
    """Per-function attribute extractors, keyed by span name.

    Each hook takes the original function and returns attrs(args,
    kwargs, result); binding the signature once keeps the per-call cost low.
    """

    def simulate(fn):
        sig = inspect.signature(fn)

        def attrs(args, kwargs, result):
            cfg = sig.bind(*args, **kwargs).arguments["cfg"]
            return {"steps": int(result[1].steps), "n": int(cfg.grid.points)}

        return attrs

    def estimate_kappa(fn):
        return lambda args, kwargs, result: {"iterations": int(result.iterations)}

    def kernel_transform(fn):
        sig = inspect.signature(fn)

        def attrs(args, kwargs, result):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            samples = len(bound.arguments["x_samples"])
            return {"evals": samples * int(bound.arguments["num_nodes"])}

        return attrs

    return {
        "evolution.simulate": simulate,
        "weights.estimate_kappa": estimate_kappa,
        "kernel_decay.kernel_transform": kernel_transform,
    }


# ----------------------------------------------------------------------
# Per-layer metrics


def layer_metrics(spans, wall_s):
    """Per-layer metrics of one workload iteration.

    spans : the spans recorded during that iteration (parents index into
        the full span list, so ids are kept as recorded).
    wall_s : traced wall time of the iteration, for span coverage.
    """
    child = {}
    for _, (_, start, end, parent, _, _) in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (end - start)

    calls, self_s, total_s, attrs = {}, {}, {}, {}
    top_level = 0.0
    for sid, (name, start, end, parent, _, extra) in spans:
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        total_s[name] = total_s.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child.get(sid, 0.0)
        if parent is None:
            top_level += dur
        if extra:
            attrs.setdefault(name, []).append(extra)

    def by_prefix(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    def attr_sum(prefix, key):
        return sum(a.get(key, 0) for name, rows in attrs.items()
                   if name.startswith(prefix) for a in rows)

    m = {
        "fft.calls": by_prefix(calls, "fft."),
        "fft.self_s": by_prefix(self_s, "fft."),
        "fft.flops_computed": attr_sum("fft.", "flops"),
        "fft.bytes_computed": attr_sum("fft.", "bytes"),
        "grid.apply_half_wave.calls": calls.get("grid.apply_half_wave", 0),
        "grid.apply_half_wave.self_s": self_s.get("grid.apply_half_wave", 0.0),
        "grid.apply_multiplier.self_s": self_s.get("grid.apply_multiplier", 0.0),
        "grid.h1_norm.calls": calls.get("grid.h1_norm", 0),
        "grid.h1_norm.self_s": self_s.get("grid.h1_norm", 0.0),
        "grid.sup_norm.calls": calls.get("grid.sup_norm", 0),
        "grid.sup_norm.self_s": self_s.get("grid.sup_norm", 0.0),
        "evolution.steps": attr_sum("evolution.simulate", "steps"),
        "evolution.simulate.calls": calls.get("evolution.simulate", 0),
        "evolution.simulate.self_s": self_s.get("evolution.simulate", 0.0),
        "evolution.strang_step.self_s": self_s.get("evolution.strang_step", 0.0),
        "evolution.nonlinear_substep.self_s":
            self_s.get("evolution.nonlinear_substep", 0.0),
        "evolution.choose_dt.self_s": self_s.get("evolution.choose_dt", 0.0),
    }
    for n in STEP_SIZES:
        runs = [(end - start, extra["steps"])
                for _, (name, start, end, _, _, extra) in spans
                if name == "evolution.simulate" and extra["n"] == n]
        steps = sum(s for _, s in runs)
        m[f"evolution.us_per_step.n{n}"] = (
            1e6 * sum(d for d, _ in runs) / steps if steps else 0.0)
    m.update({
        "weights.estimate_kappa.calls": calls.get("weights.estimate_kappa", 0),
        "weights.estimate_kappa.self_s": self_s.get("weights.estimate_kappa", 0.0),
        "weights.estimate_kappa.total_s": total_s.get("weights.estimate_kappa", 0.0),
        "weights.estimate_kappa.iterations":
            attr_sum("weights.estimate_kappa", "iterations"),
        "weights.norm_inv_h.self_s": self_s.get("weights.norm_inv_h", 0.0),
        "weights.estimate_weighted_kernel_norm.self_s":
            self_s.get("weights.estimate_weighted_kernel_norm", 0.0),
        "weights.weighted_kernel_matrix.self_s":
            self_s.get("weights.weighted_kernel_matrix", 0.0),
        "kernel_decay.kernel_transform.self_s":
            self_s.get("kernel_decay.kernel_transform", 0.0),
        "kernel_decay.kernel_transform.evals_computed":
            attr_sum("kernel_decay.kernel_transform", "evals"),
        "kernel_decay.kernel_transform.bytes_computed":
            16 * attr_sum("kernel_decay.kernel_transform", "evals"),
        "kernel_decay.fit_tail_decay.self_s":
            self_s.get("kernel_decay.fit_tail_decay", 0.0),
        "experiments.self_s": by_prefix(self_s, "experiments."),
        "experiments.domain_doubling_check.total_s":
            total_s.get("experiments.domain_doubling_check", 0.0),
        "diagnostics.self_s": by_prefix(self_s, "diagnostics."),
        "ode.self_s": by_prefix(self_s, "ode."),
        "io.self_s": by_prefix(self_s, "io."),
        "config.self_s": by_prefix(self_s, "config."),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "run.span_coverage": top_level / wall_s if wall_s > 0 else 0.0,
    })
    return m


def median_metrics(per_iteration):
    """Median of each metric across iterations (counts repeat exactly)."""
    keys = per_iteration[0].keys()
    return {k: statistics.median(it[k] for it in per_iteration) for k in keys}

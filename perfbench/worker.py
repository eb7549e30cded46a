"""One benchmark process: import fgl_lab, build the inputs, run the workload.

Started by ``run.py`` in a fresh interpreter, so the set-up it reports
includes the cold ``import fgl_lab`` every ``fgl`` user pays.  It prints
one JSON object as the last line of its standard output.

With ``--setup-only`` it stops once the inputs are built; ``run.py``
starts several such processes to take the median set-up time.

Passes repeat the workload's operations back to back until the
measuring budget would be overrun (at least one pass).  With
``--trace 1`` the tracer is installed once and passes alternate
untraced and traced, so the per-layer numbers and the tracing overhead
come from the same process and the same stretches of time.  A traced
run writes its spans to ``out/spans-<workload>-seed<N>.jsonl``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

from tracing import Tracer, layer_metrics, median_metrics
from workloads import CORE_BOUND, Expectations, operations

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The core probe is a fixed FFT loop.  PROBE_REF_S is its time in the
# fast state of the 2-vCPU machine the baseline was recorded on, so a
# rescaled time reads as seconds at that speed.  The transforms are bound
# here, before a tracer wraps numpy.fft, so probes record no spans.
PROBE_REF_S = 0.025
_PROBE_FFT, _PROBE_IFFT = np.fft.fft, np.fft.ifft
_PROBE_INPUT = np.random.default_rng(0).standard_normal(4096) + 0j


def core_probe():
    """Seconds the probe takes now: the current speed of this core."""
    x = _PROBE_INPUT
    start = time.perf_counter()
    for _ in range(300):
        x = _PROBE_IFFT(_PROBE_FFT(x))
    return time.perf_counter() - start


def _import_program():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import fgl_lab
    from fgl_lab import cli

    origin = os.path.dirname(os.path.abspath(fgl_lab.__file__))
    if origin != os.path.join(ROOT, "src", "fgl_lab"):
        raise ImportError(f"fgl_lab imported from {origin}, not from this checkout")
    return cli


def _dir_bytes(path):
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


class Runner:
    """Runs the workload's operations and checks every answer."""

    def __init__(self, workload, seed, work_dir, expect, main):
        self.ops = operations(workload, seed)
        self.core_bound = workload in CORE_BOUND
        self.seed = seed
        self.work_dir = work_dir
        self.expect = expect
        self.main = main
        self.attempted = 0
        self.failures = []
        self.op_seconds = {op.name: [] for op in self.ops}

    def out_dir(self, op):
        return os.path.join(self.work_dir, op.name)

    def iterate(self, tracer=None):
        """One pass over the operations.

        Returns (wall_s, scaled_s, cpu_s, bytes_written, probes).  wall_s
        and cpu_s cover the operations only.  For a core-bound workload
        each operation's time is rescaled by the core probes taken just
        before and after it, and scaled_s is their sum; otherwise it is
        wall_s.
        """
        shutil.rmtree(self.work_dir, ignore_errors=True)
        gc.collect()
        results, times, cpu = [], [], 0.0
        probes = [core_probe()] if self.core_bound else []
        for op in self.ops:
            if tracer is not None:
                tracer.op_id = op.name
            cpu0 = time.process_time()
            start = time.perf_counter()
            results.append(self._run_op(op))
            times.append(time.perf_counter() - start)
            cpu += time.process_time() - cpu0
            if self.core_bound:
                probes.append(core_probe())
        if tracer is not None:
            tracer.op_id = None
        else:
            for op, seconds in zip(self.ops, times):
                self.op_seconds[op.name].append(seconds)
        for op, outcome in zip(self.ops, results):
            self._check(op, *outcome)
        wall = sum(times)
        scaled = wall
        if self.core_bound:
            scaled = sum(t * 2 * PROBE_REF_S / (before + after)
                         for t, before, after in zip(times, probes, probes[1:]))
        return wall, scaled, cpu, _dir_bytes(self.work_dir), probes

    def _run_op(self, op):
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if op.call is not None:
                    return 0, op.call(), None
                argv = list(op.argv) + ["--seed", str(self.seed),
                                        "--out-dir", self.out_dir(op)]
                return self.main(argv), None, sink.getvalue()
        except Exception:
            return None, None, sink.getvalue() + traceback.format_exc()

    def _check(self, op, code, value, text):
        self.attempted += 1
        problems = []
        if code != 0:
            problems.append(f"exit code {code}: {(text or '').strip()[-500:]}")
        else:
            try:
                checks = op.checks(op, self.out_dir(op), value, self.expect)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                checks = []
                problems.append(f"answer unreadable: {exc!r}")
            problems += [f"{c.name}: got {c.got!r}, expected {c.expected!r}"
                         for c in checks if not c.ok]
        if problems:
            self.failures.append({"op": op.name, "problems": problems})


def _measure(runner, budget, tracer=None, traced_main=None):
    """Iterate until another pass would overrun the budget.

    Returns {traced: [pass, ...]}, each pass a dict of the values
    ``Runner.iterate`` returns plus the range of its spans.  With a
    tracer, passes alternate untraced and traced (at least one of each),
    so both sets of times come from the same stretches of time on a
    machine whose speed drifts.
    """
    passes = {False: [], True: []}
    untraced_main = runner.main
    traced = False
    durations = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.set_active(traced)
            runner.main = traced_main if traced else untraced_main
        first_span = len(tracer.spans) if tracer else 0
        begun = time.perf_counter()
        wall, scaled, cpu, nbytes, probes = runner.iterate(
            tracer if traced else None)
        durations.append(time.perf_counter() - begun)
        passes[traced].append({
            "wall": wall, "scaled": scaled, "cpu": cpu, "bytes": nbytes,
            "probes": probes,
            "spans": (first_span, len(tracer.spans) if tracer else 0)})
        if tracer is not None:
            traced = not traced
            if not passes[True]:
                continue
        if time.perf_counter() - start + statistics.median(durations) > budget:
            if tracer is not None:
                tracer.set_active(False)
                runner.main = untraced_main
            return passes


def _versions():
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _blas_info():
    """BLAS library numpy was built with, and its thread count if exported."""
    import ctypes
    import numpy as np

    info = {"library": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--break-check", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cli = _import_program()
    expect = Expectations()
    if args.break_check:
        expect.broken(args.break_check)
    work_dir = os.path.join(HERE, "out", f"work-{args.workload}-{os.getpid()}")
    runner = Runner(args.workload, args.seed, work_dir, expect, cli.main)
    ready_at = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    result = {"ready_at": ready_at}
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        passes = _measure(runner, args.seconds, tracer,
                          tracer.span("cli.main", cli.main))
    else:
        passes = _measure(runner, args.seconds)
    untraced = passes[False]
    walls = [p["wall"] for p in untraced]
    cpus = [p["cpu"] for p in untraced]
    result.update(wall_s=[p["scaled"] for p in untraced], raw_wall_s=walls,
                  cpu_s=cpus, probe_s=[p["probes"] for p in untraced])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        per_pass = [
            layer_metrics([(sid, tracer.spans[sid]) for sid in range(*p["spans"])],
                          p["wall"])
            for p in passes[True]]
        t_walls = [p["wall"] for p in passes[True]]
        layers = median_metrics(per_pass)
        layers["io.bytes_written"] = statistics.median(p["bytes"] for p in untraced)
        layers["run.cpu_s"] = statistics.median(cpus)
        layers["run.raw_wall_s"] = statistics.median(walls)
        layers["run.trace_overhead_s"] = (statistics.median(t_walls)
                                          - statistics.median(walls))
        result.update(traced_wall_s=t_walls, layers=layers,
                      counts_repeat=all(
                          it["evolution.steps"] == per_pass[0]["evolution.steps"]
                          and it["fft.calls"] == per_pass[0]["fft.calls"]
                          for it in per_pass))
        tracer.write_jsonl(os.path.join(
            HERE, "out", f"spans-{args.workload}-seed{args.seed}.jsonl"))
    result.update(
        attempted=runner.attempted,
        failures=runner.failures,
        op_seconds={k: statistics.median(v) for k, v in runner.op_seconds.items()},
        versions=_versions(),
        blas=_blas_info(),
    )
    shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

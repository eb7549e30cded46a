"""Check the benchmark's own failure paths.

    python3 perfbench/selftest.py

1. A deliberately wrong pinned answer (``--break-check``) is counted as
   a failed operation, and the run still completes and prints a result.
2. In a directory that holds only BENCHMARK.json and the benchmark's
   files, the benchmark exits non-zero without printing a result.
3. The tracer wraps an FFT copied into an ``fgl_lab`` namespace (as
   ``from numpy.fft import rfft`` would), and refuses to run when a
   function to trace is gone or an FFT it cannot wrap is held.

Exits 0 when all hold.  Scratch files go under ``perfbench/out/``.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BARE = os.path.join(HERE, "out", "bare")


def _bench(cwd, *extra):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", "certify", "--seed", "0", "--seconds", "1",
           "--trace", "0", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def broken_answer_is_counted():
    proc = _bench(ROOT, "--break-check", "bounds.n2048.t_detected")
    if proc.returncode != 0:
        return f"run with a broken answer exited {proc.returncode}: {proc.stderr[-500:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["correct"] or result["failed"] < 1:
        return f"broken answer not counted: {result}"
    print(f"broken answer counted: {result['failed']} of "
          f"{result['attempted']} operations failed")
    return None


def bare_directory_fails():
    shutil.rmtree(BARE, ignore_errors=True)
    os.makedirs(BARE)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), BARE)
    shutil.copytree(HERE, os.path.join(BARE, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = _bench(BARE)
    finally:
        shutil.rmtree(BARE, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"
    print(f"bare directory: exit {proc.returncode}, no result printed")
    return None


def tracer_catches_every_path():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import numpy as np
    import scipy.fftpack
    import fgl_lab
    import tracing

    fgl_lab.grid.copied_rfft = np.fft.rfft
    tracer = tracing.Tracer()
    tracer.install()
    try:
        fgl_lab.grid.copied_rfft(np.ones(8))
    finally:
        tracer.set_active(False)
        del fgl_lab.grid.copied_rfft
    if [span[0] for span in tracer.spans] != ["fft.rfft"]:
        return f"copied FFT not traced: {tracer.spans}"
    print("copied FFT traced")

    escapes = {
        "gone function": lambda: tracing.NAMED_FUNCTIONS.update(
            grid=tracing.NAMED_FUNCTIONS["grid"] + ("no_such_function",)),
        "unwrapped FFT": lambda: setattr(fgl_lab.grid, "fftpack", scipy.fftpack),
    }
    named = dict(tracing.NAMED_FUNCTIONS)
    for what, escape in escapes.items():
        escape()
        try:
            tracing.Tracer().install()
        except tracing.TracingError as exc:
            print(f"{what} refused: {exc}")
        else:
            return f"{what} not refused"
        finally:
            tracing.NAMED_FUNCTIONS.update(named)
            vars(fgl_lab.grid).pop("fftpack", None)
    return None


def main():
    problems = [p for p in (broken_answer_is_counted(), bare_directory_fails(),
                            tracer_catches_every_path()) if p]
    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""fgl-lab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {sweep,certify,kernel} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The program is imported from ``src/``;
nothing is installed.  Each run

* starts ``SETUP_RUNS`` fresh interpreters that only import ``fgl_lab``
  and build the inputs, then the measuring interpreter itself, and
  reports the median of their set-up times as ``setup_s``;
* repeats the workload for about ``--seconds`` seconds in the measuring
  interpreter and reports the median pass as ``wall_s``;
* checks every answer; a failed operation is counted in ``failed``
  (``failed / attempted`` is the failure fraction);
* with ``--trace 1``, reports the per-layer metrics of BENCHMARK.json
  instead, from spans recorded outside the program (see tracing.py).

Every run writes ``perfbench/out/result-<workload>-seed<N>-trace<T>.json``
with the metrics, the failures and the provenance of the machine; a
traced run also writes its spans as JSON lines next to it.  The last
line of standard output is the result object.  ``--break-check NAME``
perturbs one pinned answer, to show that a wrong answer is counted.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("sweep", "certify", "kernel")
SETUP_RUNS = 3
IMPORT_PROBES = 3
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def _run(cmd, timeout, what):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{what} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc


def _worker(args, deadline, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if args.break_check:
        cmd += ["--break-check", args.break_check]
    start = time.perf_counter()
    proc = _run(cmd, deadline - time.monotonic(), "worker")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready_at"] - start
    return result


def _import_times(deadline):
    """Cumulative import times of fgl_lab and scipy.integrate (-X importtime)."""
    code = f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); import fgl_lab"
    samples = {"fgl_lab": [], "scipy.integrate": []}
    for _ in range(IMPORT_PROBES):
        proc = _run([sys.executable, "-X", "importtime", "-c", code],
                    deadline - time.monotonic(), "import probe")
        seen = set()
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                name = parts[2].strip()
                if name not in seen:
                    seen.add(name)
                    samples[name].append(int(parts[1]) * 1e-6)
    return {f"{name}_s": statistics.median(v) if v else 0.0
            for name, v in samples.items()}


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _metric_table():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def measure(args):
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "fgl_lab", "__init__.py")):
        raise BenchError(f"no program to measure: {ROOT}/src/fgl_lab is missing")
    end_to_end, per_layer = _metric_table()
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": _git_commit(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }

    setups = []
    for _ in range(SETUP_RUNS):
        setups.append(_worker(args, deadline, setup_only=True)["setup_s"])
    result = _worker(args, deadline)
    setups.append(result["setup_s"])

    attempted = result["attempted"]
    failed = len(result["failures"])
    values = {
        "wall_s": statistics.median(result["wall_s"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    if args.trace:
        imports = _import_times(deadline)
        values.update(result["layers"])
        values["fgl_lab.import_s"] = imports["fgl_lab_s"]
        values["fgl_lab.import_scipy_integrate_s"] = imports["scipy.integrate_s"]
    units = per_layer if args.trace else end_to_end
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    provenance.update(loadavg_end=os.getloadavg(), versions=result["versions"],
                      blas=result["blas"])
    record = {
        "provenance": provenance,
        "metrics": metrics,
        "all_values": values,
        "failed_frac": failed / attempted,
        "failures": result["failures"],
        "samples": {"wall_s": result["wall_s"], "raw_wall_s": result["raw_wall_s"],
                    "cpu_s": result["cpu_s"], "probe_s": result["probe_s"],
                    "setup_s": setups,
                    "traced_wall_s": result.get("traced_wall_s")},
        "op_seconds": result["op_seconds"],
        "counts_repeat": result.get("counts_repeat"),
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--break-check", default=None,
                        help="perturb one pinned answer (self-test)")
    args = parser.parse_args(argv)
    try:
        summary = measure(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(f"{args.workload} seed {args.seed}: {summary['failed']} of "
          f"{summary['attempted']} operations failed; details in {OUT}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Repeat the benchmark and summarise it: medians, quartiles and spreads.

    python3 perfbench/baseline.py --label NAME [--traced-seeds 0 0 1]
    python3 perfbench/baseline.py --compare OLD.json NEW.json

The first form runs every workload ``RUNS`` times untraced, each run
with its own seed (0, 1, ...), interleaving the workloads, then one
traced run per entry of ``--traced-seeds`` (a repeated seed shows that
the work counts repeat exactly).  It writes
``perfbench/baseline/<NAME>.json``: every run's metrics and provenance,
and for each end-to-end metric the median, the quartiles and the
spread (quartile distance over median) against its bound from
BENCHMARK.json.  A spread below a third of the bound counts as steady.
``<NAME>.md`` holds the same numbers as tables, with the per-layer
medians of the traced runs.

The second form compares two such files metric by metric: the new median
may be worse than the old one by at most the metric's bound.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(spec, workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(HERE, "out", f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    values = {k: v["value"] for k, v in summary["metrics"].items()}
    print(f"{workload:8s} seed {seed:2d} trace {trace}: "
          f"{summary['failed']}/{summary['attempted']} failed  "
          + "  ".join(f"{k}={v:.4g}" for k, v in list(values.items())[:4]),
          flush=True)
    return {"seed": seed, "correct": summary["correct"],
            "attempted": summary["attempted"], "failed": summary["failed"],
            "values": values, "provenance": record["provenance"],
            "op_seconds": record["op_seconds"],
            "counts_repeat": record["counts_repeat"]}


def spread_stats(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": spread, "bound": bound, "within_bound": spread <= bound,
            "steady": spread < bound / 3}


def collect(label, traced_seeds):
    spec = _spec()
    workloads = [w["name"] for w in spec["workloads"]]
    out = {"label": label, "run_seconds": spec["run_seconds"], "workloads": {}}
    for w in workloads:
        out["workloads"][w] = {"untraced": [], "traced": []}
    for seed in range(RUNS):
        for w in workloads:
            out["workloads"][w]["untraced"].append(_run(spec, w, seed, 0))
    for seed in traced_seeds:
        for w in workloads:
            out["workloads"][w]["traced"].append(_run(spec, w, seed, 1))

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w, data in out["workloads"].items():
        data["stats"] = {
            name: spread_stats([r["values"][name] for r in data["untraced"]], bound)
            for name, bound in bounds.items()}
        data["failed_frac"] = (sum(r["failed"] for r in data["untraced"])
                               / sum(r["attempted"] for r in data["untraced"]))
    os.makedirs(os.path.join(HERE, "baseline"), exist_ok=True)
    path = os.path.join(HERE, "baseline", f"{label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    table = "\n".join(_tables(spec, out))
    with open(os.path.join(HERE, "baseline", f"{label}.md"), "w",
              encoding="utf-8") as fh:
        fh.write(f"# Baseline {label}\n\n{table}\n")
    print(f"\nwrote {path}\n\n{table}")


def _tables(spec, out):
    """Markdown: end-to-end spread per workload, then the per-layer medians."""
    workloads = list(out["workloads"])
    yield "| workload | metric | median | q1 | q3 | spread | bound |"
    yield "|---|---|---|---|---|---|---|"
    for w, data in out["workloads"].items():
        for name, s in data["stats"].items():
            yield (f"| {w} | {name} | {s['median']:.4g} | {s['q1']:.4g} | "
                   f"{s['q3']:.4g} | {s['spread']:.3f} | {s['bound']} |")
        yield f"| {w} | failed_frac | {data['failed_frac']:.3g} | | | | |"
    traced = {w: out["workloads"][w]["traced"] for w in workloads}
    if not all(traced.values()):
        return
    seeds = " ".join(str(r["seed"]) for r in traced[workloads[0]])
    yield ""
    yield f"Per layer: median over the traced runs (seeds {seeds})."
    yield ""
    yield "| metric | unit | " + " | ".join(workloads) + " |"
    yield "|---|---|" + "---|" * len(workloads)
    for m in spec["per_layer"]:
        cells = [statistics.median(r["values"][m["name"]] for r in traced[w])
                 for w in workloads]
        yield (f"| {m['name']} | {m['unit']} | "
               + " | ".join(f"{c:.4g}" for c in cells) + " |")


def compare(old_path, new_path):
    spec = _spec()
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    with open(old_path, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    worse = 0
    print("| workload | metric | old median | new median | change | bound |")
    print("|---|---|---|---|---|---|")
    for w, data in new["workloads"].items():
        for name, s in data["stats"].items():
            base = old["workloads"][w]["stats"][name]["median"]
            change = s["median"] / base - 1.0
            if better[name] == "higher":
                change = -change
            flag = " worse" if change > s["bound"] else ""
            worse += bool(flag)
            print(f"| {w} | {name} | {base:.4g} | {s['median']:.4g} | "
                  f"{change:+.3f}{flag} | {s['bound']} |")
    return 1 if worse else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label")
    parser.add_argument("--traced-seeds", type=int, nargs="*", default=[0, 0, 1])
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.label:
        parser.error("--label is required unless --compare is given")
    collect(args.label, args.traced_seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())

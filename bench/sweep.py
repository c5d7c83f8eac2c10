"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 bench/sweep.py --seeds 10
    python3 bench/sweep.py ... --record LABEL   # also append a baseline entry

Every workload in ``BENCHMARK.json`` runs with seeds 1..N for its
``run_seconds``.
For every end-to-end metric it prints the median of the per-run values
and their spread: the interquartile distance from
``statistics.quantiles(values, n=4)`` as a share of the median, the
figure compared against each metric's bound in ``BENCHMARK.json``.
With ``--record`` the medians, quartiles and environment are appended to
``bench/baseline.json`` under the given label; the environment is the one
``run.py`` recorded after pinning its CPU.  ``--trace 1 --record`` with
the same label adds the traced per-layer medians to that entry.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BASELINE = os.path.join(BENCH, "baseline.json")


def spread(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def sweep(workload: str, seeds, seconds: int, trace: int) -> dict:
    values = {}
    failed = attempted = 0
    environment = None
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, check=True, capture_output=True, text=True,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if environment is None:
            # recorded by run.py after pinning, so it shows the CPU the children ran on
            record = os.path.join(ROOT, ".bench_work", "results", f"{workload}-seed{seed}-trace{trace}.json")
            with open(record, "r", encoding="utf-8") as fh:
                environment = json.load(fh)["environment"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return {"attempted": attempted, "failed": failed, "values": values, "environment": environment}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced runs, per-layer medians")
    parser.add_argument("--record", metavar="LABEL", default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = range(1, args.seeds + 1)

    entry = {"label": args.record, "date": datetime.date.today().isoformat(), "seconds": seconds,
             "seeds": list(seeds), "workloads": {}}
    environments = {}
    for workload in workloads:
        result = sweep(workload, seeds, seconds, args.trace)
        environments[workload] = result["environment"]
        summary = {"attempted": result["attempted"], "failed": result["failed"]}
        print(f"{workload}: {result['attempted']} operations, {result['failed']} failed")
        print(f"  {'error_rate':12s} {result['failed'] / result['attempted']:.6g} ratio")
        if args.trace:
            summary = {"per_layer": {name: statistics.median(v) for name, v in result["values"].items()}}
            print("\n".join(f"  {name:48s} {value:.6g}" for name, value in summary["per_layer"].items() if value))
            entry["workloads"][workload] = summary
            continue
        for name, values in result["values"].items():
            median, q1, q3, share = spread(values)
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": share, "values": values}
            print(f"  {name:12s} median {median:.6g} {units[name]}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {share:.4f}  (bound {bounds.get(name)}, bound/3 {bounds.get(name, 0) / 3:.4f})")
        entry["workloads"][workload] = summary

    if args.record:
        entry["environment"] = dict(environments[workloads[0]])
        del entry["environment"]["largest_array_vs_l3"]
        entry["environment"]["working_set_mib"] = {w: env["working_set_mib"] for w, env in environments.items()}
        history = {"entries": []}
        if os.path.exists(BASELINE):
            with open(BASELINE, "r", encoding="utf-8") as fh:
                history = json.load(fh)
        last = history["entries"][-1] if history["entries"] else None
        if args.trace and last is not None and last["label"] == args.record:
            # traced figures join the untraced entry of the same label
            for workload, summary in entry["workloads"].items():
                last["workloads"].setdefault(workload, {}).update(summary)
        else:
            history["entries"].append(entry)
        with open(BASELINE, "w", encoding="utf-8") as fh:
            json.dump(history, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

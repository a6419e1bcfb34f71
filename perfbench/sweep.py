"""Run the benchmark over several seeds and summarize each metric.

Usage, from the root of a checkout:

    python3 perfbench/sweep.py --seeds 1-10 --trace 0 --write perfbench/out/sweep.json

Runs ``perfbench/run.py`` once per workload and seed, one process at a
time (every workload of BENCHMARK.json unless ``--workloads`` names some),
and prints for every metric, with its unit, the median, the quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, next to a third of the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=None,
                        help="comma separated workload names (default: all)")
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"), help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]

    summary = {}
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - t0
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append(result)
            brief = " ".join(f"{k}={v['value']:.5g}" for k, v in list(result["metrics"].items())[:6])
            print(f"{workload} seed {seed}: {wall:.1f}s wall, correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {brief}", flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            metrics[name] = summarize([r["metrics"][name]["value"] for r in runs])
        summary[workload] = {"seeds": args.seeds, "seconds": seconds, "trace": args.trace,
                             "all_correct": all(r["correct"] for r in runs), "metrics": metrics}
        print(f"{workload}: all correct = {summary[workload]['all_correct']}")
        for name, s in metrics.items():
            bound = declared[name].get("bound")
            limit = f"  bound/3 {bound / 3:.3f}" if bound else ""
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:40s} {declared[name]['unit']:9s} median {s['median']:.6g}"
                  f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {spread}{limit}")
    if args.write:
        Path(args.write).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

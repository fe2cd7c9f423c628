"""Repeat the benchmark over several seeds and report each metric's spread.

Usage, from the root of the repository::

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...]
        [--trace 0|1] [--out perfbench/results/<label>.json]

Runs ``BENCHMARK.json``'s command once per workload and seed, one run at
a time, and prints per metric the median of the runs and the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as
a share of the median, next to a third of the metric's bound.  ``--out``
saves every run's result line and the summary as JSON, the form the
committed trajectory under ``perfbench/results/`` takes.  Exits 1 when a
run fails or reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str):
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def spread(values):
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return median, (third - first) / abs(median)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append",
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    record = {"seconds": spec["run_seconds"], "trace": args.trace,
              "runs": {}, "summary": {}}
    ok = True
    for workload in workloads:
        results = []
        for seed in parse_seeds(args.seeds):
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", str(args.trace)]
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n"
                      f"{done.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            result["seed"] = seed
            ok = ok and result["correct"]
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']}",
                  file=sys.stderr)
        record["runs"][workload] = results
        summary = record["summary"][workload] = {}
        if not results:
            continue
        print(f"\n{workload} ({len(results)} runs)")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median, iqr = spread(values)
            bound = bounds.get(name)
            summary[name] = {"median": median, "iqr_frac": iqr,
                             "unit": results[0]["metrics"][name]["unit"]}
            flag = ""
            if bound is not None and name != "setup_s" and iqr > bound / 3:
                flag = "  > bound/3"
            limit = f"{bound / 3:.4f}" if bound is not None else "-"
            print(f"  {name:32s} {median:>14.6g}  iqr/median {iqr:.4f}"
                  f"  bound/3 {limit}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

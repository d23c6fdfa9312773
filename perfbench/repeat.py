#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each metric's spread.

    python3 perfbench/repeat.py --workloads generate,train,score --seeds 1-10

For every workload and metric it prints the median of the runs, the
first and third quartiles (statistics.quantiles, n=4) and their distance
as a share of the median, next to the metric's bound in BENCHMARK.json.
Exits 1 if any run fails, reports an incorrect output or prints an
"api-check failed" line (see pipeline.Checks).
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


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    status = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        walls: list[float] = []
        for seed in _seeds(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds),
                                     "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            walls.append(time.perf_counter() - t0)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
                status = 1
            for line in lines:
                if line.startswith("api-check failed: "):
                    print(f"{workload} seed {seed}: {line}")
                    status = 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"\n{workload} ({len(_seeds(args.seeds))} seeds, {args.seconds} s; "
              f"wall per run {min(walls):.1f}-{max(walls):.1f} s)")
        print(f"{'metric':52s} {'unit':16s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'spread':>7s} {'bound':>6s}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], 0, vals[0]))
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            print(f"{name:52s} {units[name]:16s} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {spread:7.3f} {'' if bound is None else bound:>6}")
    return status


if __name__ == "__main__":
    sys.exit(main())

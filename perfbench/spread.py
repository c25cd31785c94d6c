#!/usr/bin/env python3
"""Run every workload with several seeds and report how steady each metric is.

    python3 perfbench/spread.py                # 10 seeds per workload
    python3 perfbench/spread.py --runs 1       # every workload once
    python3 perfbench/spread.py --out perfbench/baseline.json   # adds a traced run

Workloads run one at a time, each in its own process, with the command and
run length from BENCHMARK.json.  For every end-to-end metric it prints the
median and the quartile spread, (q3 - q1) / median over the runs, next to
the metric's bound; a spread under a third of the bound is steady enough to
detect a regression of that size.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(config: dict, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    cmd = [sys.executable if part == "python3" else part for part in config["command"]]
    proc = subprocess.run(cmd + args, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    env = next(json.loads(line[5:]) for line in lines if line.startswith("env: "))
    return {"seed": seed, "env": env, **json.loads(lines[-1])}


def summarize(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload")
    parser.add_argument("--out", type=Path, default=None, help="write runs and summary as JSON")
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = range(1, args.runs + 1)
    report = {"run_seconds": config["run_seconds"], "workloads": {}}
    steady = True
    for workload in (w["name"] for w in config["workloads"]):
        runs = []
        for seed in seeds:
            run = run_once(config, workload, seed, config["run_seconds"])
            runs.append(run)
            values = "  ".join(f"{k}={v['value']:.4g}" for k, v in run["metrics"].items())
            print(f"{workload} seed {seed}: correct={run['correct']} "
                  f"{run['failed']}/{run['attempted']} failed  {values}", flush=True)
            steady &= run["correct"]
        summary = {}
        for metric in config["end_to_end"]:
            name = metric["name"]
            stats = summarize([run["metrics"][name]["value"] for run in runs])
            summary[name] = {**stats, "unit": metric["unit"], "bound": metric["bound"]}
            ok = stats["spread"] < metric["bound"] / 3
            steady &= ok
            print(f"  {name:<12} median {stats['median']:.4g} {metric['unit']:<4} "
                  f"q1 {stats['q1']:.4g} q3 {stats['q3']:.4g} spread {stats['spread']:.3f} "
                  f"(bound {metric['bound']}, {'ok' if ok else 'TOO WIDE'})", flush=True)
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        if args.out:
            traced = run_once(config, workload, 1, config["run_seconds"], trace=1)
            steady &= traced["correct"]
            report["workloads"][workload]["trace"] = traced
            print(f"  traced run: correct={traced['correct']} "
                  f"{traced['failed']}/{traced['attempted']} failed", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

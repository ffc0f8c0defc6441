"""Run-to-run spread of the benchmark, and the recorded baseline.

    python3 bench/spread.py                    # spreads only
    python3 bench/spread.py --write-baseline   # also bench/baseline.json

Runs `run.py` once per seed (seeds 1..10) on every workload with tracing
off, then once traced with seed 1.  The spread of a metric is the distance
between the first and third quartile of its values as a share of their
median (`statistics.quantiles(values, n=4)`); it should stay below a third
of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    env = next((ln for ln in proc.stdout.splitlines() if ln.startswith("# ")), "")
    if proc.returncode != 0 or not last.startswith("{"):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    return json.loads(last), env


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--write-baseline", action="store_true")
    args = p.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    doc = {"run_seconds": seconds, "runs": RUNS, "workloads": {}}
    worst = 0.0
    for workload in (w["name"] for w in bench["workloads"]):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        attempted = failed = 0
        for seed in range(1, RUNS + 1):
            res, env = run_once(workload, seed, seconds, 0)
            attempted += res["attempted"]
            failed += res["failed"]
            for name in values:
                values[name].append(res["metrics"][name]["value"])
        e2e = {}
        for m in bench["end_to_end"]:
            name, unit, bound = m["name"], m["unit"], m["bound"]
            e2e[name] = summarize(values[name])
            ratio = e2e[name]["spread"] / bound
            worst = max(worst, ratio)
            print(f"{workload:13s} {name:16s} median {e2e[name]['median']:10.4f} {unit:5s} "
                  f"spread {e2e[name]['spread']:.4f} ({ratio:.2f} of bound {bound})", flush=True)
        print(f"{workload:13s} attempted {attempted} failed {failed}", flush=True)
        traced, _ = run_once(workload, 1, seconds, 1)
        doc["workloads"][workload] = {
            "attempted": attempted,
            "failed": failed,
            "end_to_end": e2e,
            "per_layer_seed": 1,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        doc["environment"] = json.loads(env.split("env=", 1)[1]) if "env=" in env else {}
    print(f"largest spread: {worst:.2f} of its bound")
    if args.write_baseline:
        with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

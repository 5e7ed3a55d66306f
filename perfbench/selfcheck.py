#!/usr/bin/env python3
"""Self-check of the benchmark's emitted names.

    python3 perfbench/selfcheck.py [--seconds 1] [--workloads w1,w2]

Runs every workload of BENCHMARK.json briefly, untraced and traced, from
the current directory (a checkout root). Each run must exit 0, pass its
correctness gate and emit exactly the declared metrics with their declared
units: a declared name that is missing, or an emitted name that is not
declared, is an error. Also checks that perfbench/layers.json maps every
per-layer metric to declared workloads and end-to-end metrics, and explains
every workload.
"""

import argparse
import json
import os
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1)
    parser.add_argument("--workloads", help="comma-separated; default: the declared workloads")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open(os.path.join("perfbench", "layers.json")) as f:
        layers = json.load(f)
    errors = []
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if set(layers["layers"]) != set(per_layer):
        errors.append(f"layers.json and BENCHMARK.json per-layer names differ: "
                      f"{sorted(set(layers['layers']) ^ set(per_layer))}")
    if set(layers["workloads"]) != set(workloads):
        errors.append("layers.json does not explain exactly the declared workloads")
    for name, entry in layers["layers"].items():
        little = entry["little_effect_on"]
        if not entry["on_workload"]:
            errors.append(f"layers.json: {name} is mapped to no workload")
        for w in entry["on_workload"] + little["workloads"]:
            if w not in workloads:
                errors.append(f"layers.json: {name} names the undeclared workload {w}")
        for m in entry["should_move"] + little["metrics"]:
            if m not in end_to_end:
                errors.append(f"layers.json: {name} names the undeclared metric {m}")
    chosen = args.workloads.split(",") if args.workloads else workloads
    for workload in chosen:
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            label = f"{workload} --trace {trace}"
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                errors.append(f"{label}: exit {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                errors.append(f"{label}: correctness gate failed\n{done.stderr}")
            emitted = {n: m["unit"] for n, m in result["metrics"].items()}
            for name in sorted(set(declared) - set(emitted)):
                errors.append(f"{label}: declared metric {name} not emitted")
            for name in sorted(set(emitted) - set(declared)):
                errors.append(f"{label}: emitted metric {name} not declared")
            for name in sorted(set(emitted) & set(declared)):
                if emitted[name] != declared[name]:
                    errors.append(f"{label}: {name} in {emitted[name]}, declared {declared[name]}")
            print(f"{label}: {len(emitted)} metrics", file=sys.stderr)
    for e in errors:
        print(f"selfcheck: {e}", file=sys.stderr)
    print("selfcheck: ok" if not errors else f"selfcheck: {len(errors)} error(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

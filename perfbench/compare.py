#!/usr/bin/env python3
"""Run sets of benchmark runs, check their spread, and compare two sets.

    # Runs: alternate two checkouts (parent, change) pair by pair; each
    # result line goes to <out>-a.jsonl / <out>-b.jsonl.
    python3 perfbench/compare.py run --a PARENT_DIR [--b CHANGE_DIR] --out PREFIX \
        [--workloads w1,w2] [--runs 10] [--seed 1000] [--seconds N]

    # Spread of one set: IQR / median of each end-to-end metric per workload.
    python3 perfbench/compare.py spread PREFIX-a.jsonl

    # Compare mode: one row per workload and end-to-end metric.
    python3 perfbench/compare.py compare PREFIX-a.jsonl PREFIX-b.jsonl

Without --b, both sets run the same checkout (a self-comparison: every row
must read "no worse" or "improved"). Pair k uses seed (--seed + k) in both
sets, so a pair compares the two programs on identical inputs.

Verdicts per row, with `bound` from BENCHMARK.json:
  unresolved  the IQR/median spread of either set is wider than the bound,
              unless every run of the change is better than every run of the
              parent (then improved)
  improved    the change won >= 9/10 of the pairs and the medians differ by
              more than the parent's interquartile range, in the better
              direction
  no worse    the change's median is within the bound of the parent's
  worse       otherwise
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_bench(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"run failed in {checkout} ({workload}, seed {seed}):\n{done.stderr}")
    return json.loads(lines[-1])


def cmd_run(args):
    a_dir = os.path.abspath(args.a)
    b_dir = os.path.abspath(args.b or args.a)
    bench = load_bench(a_dir)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    with open(f"{args.out}-a.jsonl", "a") as fa, open(f"{args.out}-b.jsonl", "a") as fb:
        for workload in workloads:
            for k in range(args.runs):
                seed = args.seed + k
                # Alternate which side goes first so drift hits both alike.
                order = [(a_dir, fa), (b_dir, fb)] if k % 2 == 0 else [(b_dir, fb), (a_dir, fa)]
                for checkout, sink in order:
                    result = one_run(checkout, workload, seed, seconds)
                    sink.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")
                    sink.flush()
                    status = "ok" if result["correct"] else "INCORRECT"
                    print(f"{workload} seed {seed} {os.path.basename(checkout)}: {status}",
                          file=sys.stderr)


def load_set(path):
    rows = {}
    with open(path) as f:
        for line in f:
            row = json.loads(line)
            rows.setdefault(row["workload"], {})[row["seed"]] = row["result"]
    return rows


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def metric_values(results, name):
    return [r["metrics"][name]["value"] for r in results if name in r["metrics"]]


def cmd_spread(args):
    bench = load_bench(os.getcwd())
    rows = load_set(args.file)
    worst = 0.0
    for workload, by_seed in rows.items():
        results = [by_seed[s] for s in sorted(by_seed)]
        bad = sum(not r["correct"] for r in results)
        print(f"{workload}: {len(results)} runs, {bad} incorrect")
        for m in bench["end_to_end"]:
            values = metric_values(results, m["name"])
            s = spread(values)
            worst = max(worst, s / m["bound"])
            flag = "  OVER BOUND" if s > m["bound"] else ("  over bound/3" if s > m["bound"] / 3 else "")
            print(f"  {m['name']:<14} median {statistics.median(values):14.6g} {m['unit']:<8}"
                  f" spread {s:7.2%} (bound {m['bound']:.0%}){flag}")
    print(f"worst spread / bound: {worst:.2f}")


def verdict(metric, parent, change):
    """Compare-mode verdict for one metric: see the module docs."""
    bound, lower = metric["bound"], metric["better"] == "lower"
    seeds = sorted(set(parent) & set(change))
    a = [parent[s] for s in seeds]
    b = [change[s] for s in seeds]
    qa, qb = quartiles(a), quartiles(b)
    won = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    share = won / len(seeds) if seeds else 0.0
    med_a, med_b = qa[1], qb[1]
    worse_by = ((med_b - med_a) if lower else (med_a - med_b)) / med_a if med_a else 0.0
    all_better = bool(a) and (max(b) < min(a) if lower else min(b) > max(a))
    if spread(a) > bound or spread(b) > bound:
        word = "improved" if all_better else "unresolved"
    elif share >= 0.9 and -worse_by * med_a > (qa[2] - qa[0]):
        word = "improved"
    elif worse_by <= bound:
        word = "no worse"
    else:
        word = "worse"
    return qa, qb, share, word


def cmd_compare(args):
    bench = load_bench(os.getcwd())
    parent, change = load_set(args.parent), load_set(args.change)
    print(f"{'workload':<13} {'metric':<13} {'parent q1/med/q3':>34} {'change q1/med/q3':>34} "
          f"{'won':>5}  verdict")
    failing = 0
    for workload in parent:
        if workload not in change:
            continue
        for m in bench["end_to_end"]:
            pa = {s: r["metrics"][m["name"]]["value"] for s, r in parent[workload].items()}
            pb = {s: r["metrics"][m["name"]]["value"] for s, r in change[workload].items()}
            qa, qb, share, word = verdict(m, pa, pb)
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
            print(f"{workload:<13} {m['name']:<13} {fmt(qa):>34} {fmt(qb):>34} {share:5.0%}  {word}")
            failing += word in ("unresolved", "worse")
        bad = sum(not r["correct"] for r in list(parent[workload].values())
                  + list(change[workload].values()))
        if bad:
            print(f"{workload}: {bad} run(s) failed the correctness gate")
            failing += 1
    return 1 if failing else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--a", required=True)
    r.add_argument("--b")
    r.add_argument("--out", required=True)
    r.add_argument("--workloads")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed", type=int, default=1000)
    r.add_argument("--seconds", type=int)
    s = sub.add_parser("spread")
    s.add_argument("file")
    c = sub.add_parser("compare")
    c.add_argument("parent")
    c.add_argument("change")
    args = parser.parse_args()
    if args.cmd == "run":
        cmd_run(args)
        return 0
    if args.cmd == "spread":
        cmd_spread(args)
        return 0
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())

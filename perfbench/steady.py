#!/usr/bin/env python3
"""Steadiness report for perfbench.

Runs one or more workloads k times, each with its own seed (1..k), and
prints for every end-to-end metric its median, quartiles (as Python's
statistics.quantiles(values, n=4) gives them), the spread
(Q3 - Q1) / median and the metric's bound from BENCHMARK.json. A metric
whose spread exceeds its bound is flagged. The held-out seed, which no
other run uses, is then run HELDOUT_RUNS times: a metric whose held-out
median lies further from the main median than the bound, or whose spread
over the repeats exceeds it, is flagged too. Every metric is checked,
setup_s included. Each run's values are printed as it finishes, and the
exit status is 1 when anything was flagged.

Given --base DIR (a checkout of another commit), every seed runs on
both checkouts, alternating which goes first, and the report adds each
side's median and flags a metric whose median got worse by more than
its bound.

Run from the repository root:

    python3 perfbench/steady.py --workload serve-warm --runs 10
    python3 perfbench/steady.py --workload all --runs 10 --base ../parent
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


FIRST_SEED = 1
HELDOUT_SEED = 1000003
HELDOUT_RUNS = 3


def load_bench(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    p = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"{workload} seed {seed} in {checkout} exited {p.returncode}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        raise SystemExit(f"{workload} seed {seed} in {checkout}: incorrect answers")
    print(f"{workload} seed {seed} ({checkout}): " + " ".join(
        f"{n}={m['value']:.4g}" for n, m in sorted(res["metrics"].items())), flush=True)
    return res["metrics"]


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def worse_by(metric, base, head):
    """Relative amount by which head is worse than base (negative: better)."""
    if base == 0:
        return 0.0
    d = (head - base) / base
    return d if metric["better"] == "lower" else -d


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", required=True,
                    help="workload name, repeatable, or 'all'")
    ap.add_argument("--runs", type=int, default=10, help="seeds per workload")
    ap.add_argument("--base", help="checkout of the commit to compare against")
    args = ap.parse_args()

    head = os.getcwd()
    bench = load_bench(head)
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if "all" in args.workload else args.workload
    flagged = 0

    for w in workloads:
        sides = {"head": {}, "base": {}}
        for k in range(args.runs):
            seed = FIRST_SEED + k
            order = [("head", head), ("base", args.base)] if args.base else [("head", head)]
            if k % 2 == 1:
                order.reverse()
            for side, checkout in order:
                for name, m in run_once(checkout, bench, w, seed).items():
                    sides[side].setdefault(name, []).append(m["value"])
        held = {}
        for _ in range(HELDOUT_RUNS):
            for name, m in run_once(head, bench, w, HELDOUT_SEED).items():
                held.setdefault(name, []).append(m["value"])

        print(f"\n== {w}: {args.runs} seeds from {FIRST_SEED}, held-out seed "
              f"{HELDOUT_SEED} x{HELDOUT_RUNS}, {bench['run_seconds']}s runs")
        print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  flags")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = sides["head"].get(name)
            if not vals or len(held.get(name, [])) != HELDOUT_RUNS:
                print(f"{name:28} missing")
                flagged += 1
                continue
            med, q1, q3, sp = spread(vals)
            hmed, _, _, hsp = spread(held[name])
            flags = []
            if sp > bound:
                flags.append("SPREAD>BOUND")
            if med and abs(hmed - med) / med > bound:
                flags.append(f"HELDOUT-OFF({hmed:.4g})")
            if hsp > bound:
                flags.append(f"HELDOUT-SPREAD({hsp:.3f})")
            if args.base and name in sides["base"]:
                bmed = statistics.median(sides["base"][name])
                wb = worse_by(m, bmed, med)
                if wb > bound:
                    flags.append("REGRESSION")
                flags.append(f"base={bmed:.4g} worse_by={wb:+.3f}")
            flagged += sum(1 for f in flags if not f.startswith("base="))
            print(f"{name:28} {med:12.5g} {q1:12.5g} {q3:12.5g} {sp:8.4f} {bound:6.3f}  {' '.join(flags)}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())

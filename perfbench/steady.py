#!/usr/bin/env python3
"""Re-check the benchmark's bounds on this machine.

    python3 perfbench/steady.py [--runs 10] [--seed 1] [--seconds N] [workload ...]

Runs each workload (default: every workload in BENCHMARK.json) --runs
times, each with another seed, one run at a time, and prints for each
end-to-end metric the median, the quartiles (Python's
statistics.quantiles, n=4), the spread (third minus first quartile, as a
share of the median), the largest deviation from the median, and the
metric's bound. A spread at or above its bound is marked, and one at or
above a third of it is noted. Also prints the share of failed
operations, which must be the same in every run. Exits 1 if a run is
not correct, the shares differ, or a spread reaches its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    a = ap.parse_args()
    ok = True
    for w in a.workloads:
        results = []
        for i in range(a.runs):
            r = run_once(spec, w, a.seed + i, a.seconds)
            results.append(r)
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
            print(f"{w} seed {a.seed + i}: {vals}", file=sys.stderr, flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{w}: {a.runs} runs, failed share {sorted(shares)}")
        ok &= len(shares) == 1 and all(r["correct"] for r in results)
        print(f"  {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'max dev':>9}{'bound':>7}")
        for m in spec["end_to_end"]:
            v = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            dev = max(abs(x - med) for x in v) / med
            mark = "" if spread < m["bound"] else "  OVER"
            if spread >= m["bound"] / 3:
                mark = mark or "  (above a third)"
            ok &= spread < m["bound"]
            print(f"  {m['name']:<14}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{spread:>9.3f}{dev:>9.3f}{m['bound']:>7}{mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run every workload over several seeds and print the end-to-end table.

    python3 bench/summary.py --seeds 10 [--first-seed 1]

Run from the repository root.  Runs bench/run.py once per (seed, workload)
for the run_seconds that BENCHMARK.json sets, interleaving the workloads
(the order rotates with the seed) so that slow spells of the host spread
over all of them instead of landing on one.  For each workload and metric
it prints the median over seeds, the quartiles as statistics.quantiles
gives them, and the spread (q3 - q1) / median, plus fail_frac = failed /
attempted over all runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]

    names = list(workloads.WORKLOADS)
    results = {w: [] for w in names}
    for k in range(args.seeds):
        seed = args.first_seed + k
        for w in names[k % len(names):] + names[:k % len(names)]:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                return 1
            res = json.loads(lines[-1])
            results[w].append(res)
            vals = " ".join(f"{m}={v['value']:.4g}" for m, v in res["metrics"].items())
            print(f"{w} seed {seed}: correct={res['correct']} {res['failed']}/{res['attempted']} {vals}",
                  flush=True)
            for note in lines[:-1]:
                if note.startswith(("defect", "  check failed")):
                    print("  " + note)

    print()
    print(f"{'workload':<12} {'metric':<14} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>8}  unit")
    for w in names:
        runs = results[w]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        for m in sorted(runs[0]["metrics"]):
            vals = [r["metrics"][m]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{w:<12} {m:<14} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} {spread:>8.3f}  "
                  f"{runs[0]['metrics'][m]['unit']}")
        print(f"{w:<12} {'fail_frac':<14} {failed / max(attempted, 1):>10.4g} "
              f"{'':>10} {'':>10} {'':>8}  1 ({failed} of {attempted} items, {len(runs)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

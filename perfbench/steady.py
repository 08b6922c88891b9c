"""Steadiness of the benchmark: run each workload repeatedly, one seed per
run, and print every end-to-end metric's median, quartiles and spread
(q3 - q1) / median next to its bound from BENCHMARK.json.

    python3 perfbench/steady.py [--workloads figures,oracles,cli] [--runs 10]
        [--first-seed 1] [--seconds S] [--save FILE] [--compare FILE]

``--save`` writes the runs as JSON; ``--compare`` reads such a file and
prints how far this set's medians moved from it, as a share of the earlier
median, signed so that a positive share is a change for the worse.
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


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited %d:\n%s" % (workload, seed, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--save")
    p.add_argument("--compare")
    args = p.parse_args(argv)

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    runs = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        results = []
        for k in range(args.runs):
            seed = args.first_seed + k
            results.append(run_once(workload, seed, args.seconds))
            print("%s seed %d done" % (workload, seed), file=sys.stderr, flush=True)
        runs[workload] = results
        shares = {r["failed"] / r["attempted"] for r in results}
        print("\n%s: %d runs of %d s, failed share %s, correct %s" % (
            workload, len(results), args.seconds, sorted(shares), all(r["correct"] for r in results)))
        print("  %-20s %12s %12s %12s %8s %6s %6s" % (
            "metric", "q1", "median", "q3", "spread", "bound", "moved"))
        for name, m in metrics.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / abs(q2)
            moved = ""
            if workload in earlier:
                old = statistics.median(r["metrics"][name]["value"] for r in earlier[workload])
                sign = 1.0 if m["better"] == "lower" else -1.0
                moved = "%+.3f" % (sign * (q2 - old) / abs(old))
            if name != "setup_s":
                worst = max(worst, spread / m["bound"])
            print("  %-20s %12.6g %12.6g %12.6g %8.4f %6.2f %6s" % (
                name, q1, q2, q3, spread, m["bound"], moved))
    print("\nlargest spread / bound (setup_s excluded): %.3f" % worst)
    if args.save:
        Path(args.save).write_text(json.dumps(runs, indent=1) + "\n")


if __name__ == "__main__":
    main()

"""modvar benchmark: one workload, one run.

    python3 perfbench/run.py --workload figures|oracles|cli --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts the workload in fresh
processes with BLAS/OpenMP limited to one thread and modvar imported from the
checkout's ``src``.  With ``--trace 0`` the last stdout line holds the
end-to-end metrics; ``setup_s`` is the median over three starts of the time
from launching the workload process to its first timed op.  With
``--trace 1`` it holds the per-layer metrics of one traced process, whose
spans are written under ``.perfbench/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import steal

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench"
WORKLOADS = ("figures", "oracles", "cli")
SUMMARY = ("correct", "attempted", "failed", "metrics")
SETUP_STARTS = 3
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def machine_info():
    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    try:
        info["loadavg_start"] = list(os.getloadavg())
    except OSError:
        pass
    probe = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        capture_output=True, text=True, timeout=60,
    )
    if probe.returncode == 0:
        info["numpy"], info["scipy"] = probe.stdout.split()
    return info


def run_child(args, extra, deadline):
    """Start one workload process; return (seconds from launch to its
    first timed op, less the steal in between, and its result)."""
    argv = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)] + extra
    t_launch, s_launch = time.monotonic(), steal.seconds()
    proc = subprocess.run(argv, cwd=str(ROOT), env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError("workload process exited with code %d" % proc.returncode)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    t_ready, s_ready = result["t_ready"]
    return (t_ready - t_launch) - (s_ready - s_launch), result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    if not (ROOT / "src" / "modvar" / "__init__.py").is_file():
        print("no modvar source under %s" % (ROOT / "src"), file=sys.stderr)
        return 1
    info = machine_info()
    steal.pin()
    try:
        if args.trace:
            _, result = run_child(args, [], deadline)
        else:
            setups = [run_child(args, ["--setup-only"], deadline)[0]
                      for _ in range(SETUP_STARTS - 1)]
            setup, result = run_child(args, [], deadline)
            setups.append(setup)
            result["metrics"]["setup_s"] = (statistics.median(setups), "s")
            result["setup_s_all"] = setups
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print("benchmark run failed: %s" % exc, file=sys.stderr)
        return 1

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in sorted(result["metrics"].items())}
    missing = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
    if missing:
        print("benchmark run failed: no finite value for %s" % ", ".join(missing), file=sys.stderr)
        return 1
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": info,
        "failed_checks": result["failed_checks"],
        "detail": {k: v for k, v in result.items() if k not in SUMMARY + ("failed_checks", "t_ready")},
    }
    RUN_DIR.mkdir(exist_ok=True)
    out = RUN_DIR / ("result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    summary = dict({k: result[k] for k in SUMMARY}, metrics=metrics)
    out.write_text(json.dumps(dict(record, **summary), indent=1) + "\n")
    print("machine: %s" % json.dumps(info))
    if result["failed_checks"]:
        print("failed checks: %s" % ", ".join(result["failed_checks"]))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

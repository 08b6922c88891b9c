"""Before/after timings of two modvar checkouts, written to one JSON record.

    python scripts/bench_layers.py --parent DIR --change DIR --out BENCH_<n>.json
        [--perfbench-pairs 0] [--first-seed 501]

Per layer: each of PAIRS alternating pairs starts one probe process per
checkout, the parent first in even pairs and the change first in odd ones.
A probe imports modvar from <checkout>/src, pins itself to one processor
and times every layer below as the best of REPEAT timeit runs, in
microseconds per call.  The probed layers are the scalar-t density-matrix
path that the oracles call point by point, the window solvers, two array-t
evaluators that the figures call, and the CSV writer on one fig1 density
table (written to the null device, so no disk time is counted).

Cold processes: in the same pairs, each side also starts CHILDREN children
per command in COLD, one after another, each pinned to the same processor
with thread counts of 1, and reads the least CPU time (user + system) of
them from RUSAGE_CHILDREN, in milliseconds: one child slowed by load on a
shared machine then no longer moves its pair.
The commands are `import modvar.cli`, `window --framework cl`, `figure
fig4` and the `figures` benchmark workload's start-up (`--setup-only`, seed
--first-seed).  The modvar modules each command loads are listed once per
side, from a run under `python -X importtime`.

End to end (optional): --perfbench-pairs alternating pairs per workload of
`python3 perfbench/run.py --workload W --seed S --seconds 25 --trace 0`, run
in each checkout with that checkout's own benchmark; pair i of every
workload uses seed --first-seed + i on both sides.  Each metric is compared with its bound in BENCHMARK.json.

The record gives each side's median and quartiles, the change/parent ratio
of the medians, and the number of pairs the change won.  Needs only the
standard library and numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import timeit
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
PAIRS = 10
REPEAT = 7
CHILDREN = 3
SECONDS = 25
WORKLOADS = ("figures", "oracles", "cli")

# runs once per probe, outside the timings
_SETUP = """
import os
import numpy as np
from modvar import figures
from modvar.caldeira_leggett import _center_width, _term_parts, cl_current, cl_density, cl_modular_closed
from modvar.config import FIGURE_DEFAULTS
from modvar.windows import overlap_window, two_particle_window

def _case(name):
    cfg = FIGURE_DEFAULTS[name]
    return cfg.superposition(cfg.alphas[0]), cfg.bath(), cfg.constants()

spec, bath, c = _case("fig2")
spec1, bath1, c1 = _case("fig1")
x_grid = np.linspace(-40.0, 40.0, 401)
t_grid = np.linspace(0.0, 2.0, 41)[:, None]
t_closed = np.linspace(0.0, 2.0, 301)
cfg1 = FIGURE_DEFAULTS["fig1"]  # t_grid spans its 0..2
density_names = ["x"] + ["t=%.15g" % t for t in t_grid[:, 0]]
density_cols = [x_grid] + list(cl_density(spec1, bath1, c1, x_grid, t_grid))
"""
# layer name -> the statement timed
LAYERS = {
    "term_parts.scalar_t": "_term_parts(spec, bath, c, 1.3)",
    "cl_density_plus_cl_current.scalar_t": (
        "cl_density(spec, bath, c, -24.5, 1.3); cl_current(spec, bath, c, -24.5, 1.3)"
    ),
    "center_width.scalar_t": "_center_width(spec.packetA, bath.gamma, bath.D, c, 1.3)",
    "overlap_window.cl": 'overlap_window("cl", spec, bath, c)',
    "two_particle_window": "two_particle_window(spec, bath, c)",
    "cl_density.fig1_grid_41x401": "cl_density(spec1, bath1, c1, x_grid, t_grid)",
    "cl_modular_closed.301_t": "cl_modular_closed(spec, bath, c, t_closed)",
    "figures._write_csv.fig1_density_cl": (
        "figures._write_csv(os.devnull, cfg1, [], density_names, density_cols)"
    ),
}
_TARGET_S = 0.05  # each timeit run lasts about this long

# cold-process layer name -> the child's arguments after the interpreter;
# {out} is a scratch directory and {seed} is --first-seed
COLD = {
    "import_modvar_cli": ["-c", "import modvar.cli"],
    "window_cl": ["-m", "modvar.cli", "window", "--framework", "cl"],
    "figure_fig4": ["-m", "modvar.cli", "figure", "fig4", "--out", "{out}"],
    "workload_figures_setup": ["perfbench/workload.py", "--workload", "figures", "--seed", "{seed}",
                               "--seconds", "1", "--setup-only"],
}


def _pin():
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def probe():
    """Best-of-REPEAT microseconds per call of every layer, in this process."""
    _pin()
    namespace = {}
    exec(_SETUP, namespace)
    out = {}
    for name, stmt in LAYERS.items():
        timer = timeit.Timer(stmt, globals=namespace)
        number = max(1, int(_TARGET_S / max(timer.timeit(1), 1e-7)))
        out[name] = min(timer.repeat(REPEAT, number)) / number * 1e6
    return out


def _run(cmd, cwd, env=None):
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=1800)
    if proc.returncode != 0:
        raise RuntimeError("%s in %s exited %d:\n%s" % (cmd, cwd, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _env(checkout):
    return dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONHASHSEED="0",
                OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


def _probe_in(checkout):
    return _run([sys.executable, str(Path(__file__).resolve()), "--probe"], str(checkout), _env(checkout))


def _cold_in(checkout, cold_args, flags=()):
    """(least CPU ms of CHILDREN pinned children, last child's stderr) per
    cold-process layer."""
    out = {}
    for name, args in cold_args.items():
        best = float("inf")
        for _ in range(CHILDREN):
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            proc = subprocess.run([sys.executable, *flags, *args], cwd=str(checkout),
                                  env=_env(checkout), capture_output=True, text=True, timeout=600,
                                  preexec_fn=_pin)
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            if proc.returncode != 0:
                raise RuntimeError("%s in %s exited %d:\n%s"
                                   % (args, checkout, proc.returncode, proc.stderr))
            cpu_s = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
            best = min(best, cpu_s * 1e3)
        out[name] = (best, proc.stderr)
    return out


def _modvar_modules(importtime_stderr):
    """The modvar modules named in `python -X importtime` output."""
    names = (line.rpartition("|")[2].strip() for line in importtime_stderr.splitlines()
             if line.startswith("import time:"))
    return sorted(name for name in names if name.split(".")[0] == "modvar")


def _perfbench_in(checkout, workload, seed):
    result = _run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(SECONDS), "--trace", "0"], str(checkout))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    metrics["failed_share"] = result["failed"] / max(result["attempted"], 1)
    return metrics


def _alternate(pairs, run_side):
    """runs[side] lists of run_side(side, pair) results, alternating which side goes first."""
    runs = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            runs[side].append(run_side(side, i))
            print("pair %d %s done" % (i, side), file=sys.stderr, flush=True)
    return runs


def summarize(parent, change, better="lower"):
    """Medians, quartiles, ratio and pair wins of two equal-length series."""
    def stats(values):
        q1, median, q3 = statistics.quantiles(values, n=4)
        return {"median": median, "q1": q1, "q3": q3}

    sign = 1.0 if better == "lower" else -1.0
    p, c = stats(parent), stats(change)
    return {
        "parent": dict(p, runs=parent),
        "change": dict(c, runs=change),
        "ratio_change_over_parent": c["median"] / p["median"] if p["median"] else None,
        "change_wins": sum(sign * (b - a) < 0.0 for a, b in zip(parent, change)),
        "ties": sum(a == b for a, b in zip(parent, change)),
        "pairs": len(parent),
        "parent_iqr": p["q3"] - p["q1"],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--perfbench-pairs", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=501)
    args = ap.parse_args(argv)
    if args.probe:
        print(json.dumps(probe()))
        return 0
    if not (args.parent and args.change and args.out):
        ap.error("--parent, --change and --out are required")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    scratch = tempfile.TemporaryDirectory()
    cold_args = {name: [a.format(out=scratch.name, seed=args.first_seed) for a in argv]
                 for name, argv in COLD.items()}

    def pair_side(side, i):
        cold = _cold_in(checkouts[side], cold_args)
        return dict(_probe_in(checkouts[side]), cold={name: ms for name, (ms, _) in cold.items()})

    layer_runs = _alternate(PAIRS, pair_side)
    modules = {side: {name: _modvar_modules(err) for name, (_, err) in
                      _cold_in(checkouts[side], cold_args, ("-X", "importtime")).items()}
               for side in SIDES}
    record = {
        "machine": {
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine(),
        },
        "method": {"pairs": PAIRS, "repeat": REPEAT, "unit": "us per call, best of repeat",
                   "cold_unit": "ms of CPU (user + system), least of %d children per side per pair"
                   % CHILDREN},
        "per_layer": {
            name: summarize([r[name] for r in layer_runs["parent"]], [r[name] for r in layer_runs["change"]])
            for name in LAYERS
        },
        "cold_process": {
            name: dict(summarize([r["cold"][name] for r in layer_runs["parent"]],
                                 [r["cold"][name] for r in layer_runs["change"]]),
                       argv=COLD[name], modvar_modules={side: modules[side][name] for side in SIDES})
            for name in COLD
        },
    }
    scratch.cleanup()

    if args.perfbench_pairs:
        bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
        bounds = {m["name"]: m for m in bench["end_to_end"]}
        end_to_end = {}
        for workload in WORKLOADS:
            runs = _alternate(args.perfbench_pairs, lambda side, i: _perfbench_in(
                checkouts[side], workload, args.first_seed + i))
            rows = {}
            for name in sorted(runs["parent"][0]):
                meta = bounds.get(name, {"better": "lower", "bound": None, "unit": ""})
                row = summarize([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                                meta["better"])
                row.update(unit=meta["unit"], better=meta["better"], bound=meta["bound"])
                rows[name] = row
            end_to_end[workload] = rows
        record["end_to_end"] = {
            "seconds": SECONDS, "first_seed": args.first_seed,
            "pairs": args.perfbench_pairs, "workloads": end_to_end,
        }

    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

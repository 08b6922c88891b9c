"""One benchmark workload, run in a fresh process by ``perfbench/run.py``.

The process imports modvar from the checkout's ``src``, draws its inputs
from the seed, runs one warm-up op and then times whole rounds of ops in a
closed loop (one op at a time, one client) for the requested seconds.  The
checks run between ops and outside the op timings.  The last line of stdout
is one JSON object for ``run.py``.

  figures  one op writes fig1-fig4 with seeded alpha, T and x0 offsets
  oracles  one op holds every oracle against its closed form at one seeded
           (alpha, t, gamma, T) point; a round is four ops
  cli      one op is one cold ``python -m modvar.cli`` call; a round is the
           five calls of ``Cli.argv``
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import layers
import steal

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench"

import modvar  # noqa: E402  (the checkout's src is on PYTHONPATH)
from modvar import caldeira_leggett as cl  # noqa: E402
from modvar import config, figures, oracles, schrodinger, windows  # noqa: E402
from modvar.params import BathParams, PhysicalConstants, TimeGrid, make_superposition  # noqa: E402

C = PhysicalConstants()
FIGS = ("fig1", "fig2", "fig3", "fig4")
POOL = 8  # figure configs per seed; each recurs every POOL ops for the byte check


def _spec(alpha):
    return make_superposition(L=50.0, sigma0=1.0, k=0.1, alpha=alpha)


class Figures:
    round_size = 1

    def __init__(self, rng, workdir):
        self.out = os.path.join(workdir, "figures")
        self.pool = [self._draw(rng) for _ in range(POOL)]
        self.tails = self._tails([cfgs["fig1"] for cfgs in self.pool])
        self.digests = {}

    def _draw(self, rng):
        alpha = float(rng.uniform(0.0, 2.0 * math.pi))
        alphas = {
            "fig1": (alpha,),
            "fig2": (alpha,),
            "fig3": (alpha, alpha + math.pi / 4, alpha + math.pi / 2, alpha + math.pi),
            "fig4": (alpha, alpha + math.pi / 2),
        }
        cfgs = {}
        for name in FIGS:
            base = config.FIGURE_DEFAULTS[name]
            temps = tuple(float(T * rng.uniform(0.5, 1.5)) for T in base.temperatures)
            offsets = tuple(float(x + rng.uniform(-0.5, 0.5)) for x in base.x0_offsets)
            updates = {"alphas": alphas[name], "temperatures": temps,
                       "x0_offsets": offsets, "out": self.out}
            cfgs[name] = config.resolve_config(name, {}, updates)
        return cfgs

    @staticmethod
    def _tails(cfgs):
        """Lattice mass beyond the fig1 x grid at each density column, from
        the benchmark's own moment integration: one entry per config, with
        one array per framework.  All packets integrate together."""
        cfg = cfgs[0]
        ts = np.linspace(cfg.t_start, cfg.tmax, 41)
        x0s, p0s, gammas, Ds = [], [], [], []
        for c in cfgs:
            for gamma, D in ((0.0, 0.0), (c.gamma, 2.0 * c.m * c.gamma * c.kB * c.temperatures[0])):
                x0s += [-c.separation / 2, c.separation / 2]
                p0s += [0.0, c.hbar * c.kick]
                gammas += [gamma, gamma]
                Ds += [D, D]
        means, variances = checks.moment_trajectory(
            x0s, p0s, cfg.sigma0, gammas, Ds, (cfg.m, cfg.hbar, cfg.gravity), ts)
        out = []
        for j in range(len(cfgs)):
            out.append({
                fw: checks.lattice_tail(means[:, 4 * j + 2 * k:4 * j + 2 * k + 2],
                                        variances[:, 4 * j + 2 * k:4 * j + 2 * k + 2])
                for k, fw in enumerate(("schrodinger", "cl"))
            })
        return out

    def op(self, i):
        cfgs = self.pool[i % POOL]
        return [path for name in FIGS for path in figures.generate_figure(name, cfgs[name])]

    def check(self, i, paths):
        cfgs = self.pool[i % POOL]
        digest = hashlib.sha256()
        for path in paths:
            with open(path, "rb") as fh:
                digest.update(fh.read())
        first = self.digests.setdefault(i % POOL, digest.hexdigest())
        found = [checks.pass_fail("same config writes identical bytes", first == digest.hexdigest())]
        for fw in ("schrodinger", "cl"):
            path = os.path.join(self.out, "fig1_density_%s.csv" % fw)
            found += checks.check_fig1_density(path, self.tails[i % POOL][fw])
        fig3 = cfgs["fig3"]
        found += checks.check_fig3(os.path.join(self.out, "fig3_modular.csv"),
                                   fig3.alphas, fig3.kick, fig3.sigma0)
        found += checks.check_fig4(os.path.join(self.out, "fig4_common_bath.csv"))
        return found


def _envelope_exponent_bound(gamma, T, t, L=50.0, sigma0=1.0, k=0.1):
    """Upper bound on the decoherence exponent of the dissipative modular
    signal (the scaled times are at most t)."""
    D = 2.0 * gamma * T
    return D * L * L * t + (L * gamma * t) ** 2 / (2.0 * sigma0**2) + 0.5 * (k * sigma0) ** 2


class Oracles:
    # the evolution-equation check runs at the verify gate's own points, one
    # per op in turn: at some seeded points its time-derivative sweep stops
    # early and the check fails (see the FOUND line in CHANGES.md)
    HEISENBERG_POINTS = ((0.001, 2.0, 0.3), (0.001, 2.0, 0.9), (0.001, 2.0, 1.5), (0.005, 15.0, 0.3))
    round_size = len(HEISENBERG_POINTS)
    # the verify gate caps its dissipative check where the envelope reaches 1e-60
    MAX_EXPONENT = 60.0 * math.log(10.0)

    def __init__(self, rng, workdir):
        self.points = []
        while len(self.points) < 400:
            alpha = float(rng.uniform(0.0, 2.0 * math.pi))
            t = float(rng.uniform(0.1, 1.9))
            gamma = float(10.0 ** rng.uniform(-4.0, -2.0))
            T = float(rng.uniform(1.0, 15.0))
            offset = float(rng.uniform(-2.0, 2.0))
            if _envelope_exponent_bound(gamma, T, t) <= self.MAX_EXPONENT:
                self.points.append((alpha, t, gamma, T, offset))

    def op(self, i):
        alpha, t, gamma, T, offset = self.points[i % len(self.points)]
        spec = _spec(alpha)
        bath = BathParams(gamma=gamma, T=T)
        L = spec.L
        r = {}
        r["char"] = (
            oracles.characteristic_modular(oracles.SchrodingerSource(spec, C), t, L).real,
            schrodinger.modular_expectation(spec, C, t),
        )
        r["clq"] = (
            cl.cl_modular_quadrature(spec, bath, C, t, L),
            cl.cl_modular_closed(spec, bath, C, t),
            cl.cl_modular_envelope_phase(spec, bath, C, t)[0],
        )
        h_gamma, h_T, h_t = self.HEISENBERG_POINTS[i % self.round_size]
        r["heis"] = oracles.heisenberg_rhs_check(
            _spec(math.pi / 4), BathParams(gamma=h_gamma, T=h_T), C, h_t).relative_residual
        r["l1"] = (cl.l1_coherence(spec, bath, C, t),
                   cl.l1_coherence(_spec(alpha + math.pi / 2), bath, C, t))
        r["window"] = (windows.overlap_window("cl", spec, bath, C).t_max,
                       oracles.moment_ode_window(spec, bath, C))
        pA = spec.packetA
        X0 = pA.x0 + offset * pA.sigma0
        grid = TimeGrid(0.0, 2.0, 51)

        def velocity(x, s):
            return cl.cl_current(spec, bath, C, x, s) / cl.cl_density(spec, bath, C, x, s)

        r["traj"] = (oracles.trajectory_ode_oracle(velocity, X0, grid).X,
                     cl.cl_bohmian_trajectory(pA, bath, C, X0, grid).X)
        prop = oracles.grid_propagator(spec, C, oracles.GridSpec(**layers.REDUCED_GRID))
        exact = schrodinger.superposed_amplitude(spec, C, prop.x, layers.REDUCED_GRID["t_final"])
        r["grid"] = (oracles.l2_error(prop.x, prop.psi, exact), prop.norm_drift)
        return r

    def check(self, i, r):
        (c0, e0), (c1, e1) = r["l1"]
        quad, closed, env = r["clq"]
        ode_x, closed_x = r["traj"]
        return [
            checks.check_oracle("characteristic_modular vs modular_expectation",
                                abs(r["char"][0] - r["char"][1]), scale=0.5),
            checks.check_oracle("cl_modular_quadrature vs cl_modular_closed",
                                abs(quad - closed) / env),
            checks.check_oracle("heisenberg_rhs_check residual", r["heis"]),
            checks.check_l1_phase_blindness(c0, e0, c1, e1),
            checks.check_window(*r["window"]),
            checks.check_oracle("trajectory_ode_oracle vs cl_bohmian_trajectory",
                                float(np.max(np.abs(ode_x - closed_x))),
                                scale=float(np.max(np.abs(closed_x)))),
            checks.check_oracle("grid_propagator vs superposed_amplitude (L2)", r["grid"][0]),
            checks.check_oracle("grid_propagator norm drift", r["grid"][1]),
        ]


FIG3 = config.FIGURE_DEFAULTS["fig3"]


class Cli:
    """Cold command-line calls, one child process at a time."""

    round_size = 5
    NAN_CALL = ["window", "--framework", "cl", "--gamma", "nan", "--temperature", "2"]

    def __init__(self, rng, workdir):
        self.out = os.path.join(workdir, "cli")
        self.baths = [(float(10.0 ** rng.uniform(-4.0, -2.0)), float(rng.uniform(1.0, 15.0)))
                      for _ in range(400)]
        self.unitary_window = oracles.moment_ode_window(_spec(FIG3.alphas[0]), None, C)

    def argv(self, i):
        kind = i % self.round_size
        if kind == 0:
            return ["window", "--framework", "schrodinger"]
        if kind == 1:
            gamma, T = self.baths[(i // self.round_size) % len(self.baths)]
            return ["window", "--framework", "cl", "--gamma", repr(gamma), "--temperature", repr(T)]
        if kind == 2:
            return ["figure", "fig3", "--out", self.out]
        if kind == 3:
            return ["figure", "fig4", "--out", self.out]
        return list(self.NAN_CALL)

    def op(self, i):
        return subprocess.run(
            [sys.executable, "-m", "modvar.cli"] + self.argv(i),
            capture_output=True, text=True, timeout=120,
        )

    def failed(self, i, proc):
        if i % self.round_size == 4:
            return checks.nan_call_failed(proc.returncode)
        return proc.returncode != 0

    def check(self, i, proc):
        kind = i % self.round_size
        if kind == 0:
            return [checks.check_printed_window("unitary", proc.stdout, self.unitary_window)]
        if kind == 1:
            gamma, T = self.baths[(i // self.round_size) % len(self.baths)]
            oracle = oracles.moment_ode_window(_spec(FIG3.alphas[0]), BathParams(gamma=gamma, T=T), C)
            return [checks.check_printed_window("dissipative", proc.stdout, oracle)]
        if kind == 2:
            return checks.check_fig3(os.path.join(self.out, "fig3_modular.csv"),
                                     FIG3.alphas, FIG3.kick, FIG3.sigma0)
        if kind == 3:
            return checks.check_fig4(os.path.join(self.out, "fig4_common_bath.csv"))
        return []

    @staticmethod
    def cpu():
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        return ru.ru_utime + ru.ru_stime

    @staticmethod
    def peak_rss_kb():
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


WORKLOADS = {"figures": Figures, "oracles": Oracles, "cli": Cli}


def _process_cpu():
    return time.process_time()


def _process_peak_rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Loop:
    """Runs ops, checks their outputs and keeps the tallies."""

    def __init__(self, wl):
        self.wl = wl
        self.cpu = getattr(wl, "cpu", _process_cpu)
        self.walls, self.steals, self.cpus, self.found = [], [], [], []
        self.attempted = self.failed = 0
        self.index = 0
        self.op_spans = []

    def one(self, tracer=None):
        i = self.index
        self.index += 1
        c0 = self.cpu()
        s0 = steal.seconds()
        w0 = time.perf_counter()
        try:
            if tracer is None:
                out = self.wl.op(i)
            else:
                with tracer.span("op") as span:
                    self.op_spans.append(span)
                    out = self.wl.op(i)
            failed = getattr(self.wl, "failed", lambda i, out: False)(i, out)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            print("op %d failed: %r" % (i, exc), file=sys.stderr)
            out, failed = None, True
        wall = time.perf_counter() - w0
        stolen = steal.seconds() - s0
        cpu = self.cpu() - c0
        self.attempted += 1
        self.failed += failed
        self.walls.append(wall)
        self.steals.append(stolen)
        self.cpus.append(cpu)
        if not failed:
            self.found += self.wl.check(i, out)
        return wall - stolen

    def round(self, tracer=None):
        return [self.one(tracer) for _ in range(self.wl.round_size)]


def _metrics(loop, peak_kb):
    net = [w - s for w, s in zip(loop.walls, loop.steals)]
    return {
        "ops_per_s": (loop.attempted / sum(net), "1/s"),
        "op_p50_ms": (statistics.median(net) * 1e3, "ms"),
        "op_cpu_ms": (statistics.median(loop.cpus) * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "accuracy_margin_dec": (checks.accuracy_margin(loop.found), "decades"),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="stop after the warm-up op and report the set-up time")
    args = p.parse_args(argv)

    src = (ROOT / "src").resolve()
    if Path(modvar.__file__).resolve().parent.parent != src:
        sys.exit("modvar imported from %s, not from %s" % (modvar.__file__, src))

    workdir = str(RUN_DIR / ("tmp-%d" % os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        result = _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


def _run(args, workdir):
    rng = np.random.default_rng(args.seed)
    wl = WORKLOADS[args.workload](rng, workdir)
    loop = Loop(wl)
    loop.one()  # warm-up: counted in set-up, not in the tallies
    loop = Loop(wl)
    loop.index = 1
    t_ready = (time.monotonic(), steal.seconds())
    if args.setup_only:
        return {"t_ready": t_ready}

    if args.trace:
        return dict(_traced(args, wl, loop, workdir), **_tallies(loop, t_ready))
    t_end = time.perf_counter() + args.seconds
    while time.perf_counter() < t_end:
        loop.round()
    peak = getattr(wl, "peak_rss_kb", _process_peak_rss_kb)()
    return dict(
        _tallies(loop, t_ready),
        accuracy_min_dec=checks.accuracy_min(loop.found),
        op_walls_s=loop.walls,
        op_steal_s=loop.steals,
        metrics=_metrics(loop, peak),
    )


def _tallies(loop, t_ready):
    return {
        "t_ready": t_ready, "attempted": loop.attempted, "failed": loop.failed,
        "correct": all(c.passed for c in loop.found),
        "failed_checks": sorted({c.name for c in loop.found if not c.passed}),
    }


def _traced(args, wl, loop, workdir):
    """Probes, then rounds that run untraced and again traced on the same
    inputs; the median ratio of paired op times is the tracing overhead."""
    tracer = layers.Tracer()
    t_end = time.perf_counter() + args.seconds
    with tracer.installed():
        extra = layers.probe(workdir, dict(os.environ))
    probe_end = len(tracer.spans)
    ratios = []
    while True:
        first = loop.index
        plain = loop.round()
        loop.index = first
        failed = loop.failed
        with tracer.installed():
            traced = loop.round(tracer)
        if isinstance(wl, Cli):
            # a child with the wrong exit code raises nothing in this process
            tracer.failed["cli"] += loop.failed - failed
        ratios += [b / a for a, b in zip(plain, traced)]
        if time.perf_counter() >= t_end:
            break
    overhead = 100.0 * (statistics.median(ratios) - 1.0)
    metrics = layers.layer_metrics(tracer, probe_end, loop.op_spans, extra, overhead)
    path = RUN_DIR / ("trace-%s-seed%d.json" % (args.workload, args.seed))
    tracer.write(str(path))
    return {"trace_file": str(path.relative_to(ROOT)), "metrics": metrics}


if __name__ == "__main__":
    main()

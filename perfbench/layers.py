"""Per-layer tracing for the traced benchmark run.

Spans are recorded from the benchmark's side, around calls into the public
functions of each modvar module: the wrappers replace the module attribute
and every ``from module import name`` binding of it inside the package, and
``uninstall`` puts the originals back.  A span is (name, start_ns, end_ns,
parent); spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace

import numpy as np

# the propagator oracle runs a quarter of the default 2.0 time units with the
# default step dt = 2.0 / 8000, on half the default 4096 points
REDUCED_GRID = {"n_points": 2048, "t_final": 0.5, "n_steps": 2000}

# (module, function): the layer boundaries the traced run times
TRACED = [
    ("schrodinger", "modular_expectation"),
    ("schrodinger", "superposed_density_and_current"),
    ("schrodinger", "local_modular_on_trajectory"),
    ("caldeira_leggett", "density_matrix_rR"),
    ("caldeira_leggett", "cl_density"),
    ("caldeira_leggett", "cl_local_modular_on_trajectory"),
    ("caldeira_leggett", "cl_modular_closed"),
    ("caldeira_leggett", "cl_modular_quadrature"),
    ("caldeira_leggett", "l1_coherence"),
    ("two_particle", "reduced_modular_common_bath"),
    ("windows", "overlap_window"),
    ("windows", "two_particle_window"),
    ("oracles", "characteristic_modular"),
    ("oracles", "heisenberg_rhs_check"),
    ("oracles", "moment_ode_window"),
    ("oracles", "trajectory_ode_oracle"),
    ("oracles", "grid_propagator"),
    ("figures", "generate_figure"),
    ("config", "resolve_config"),
    ("params", "make_superposition"),
    ("cli", "main"),
]

MODULES = [
    "params", "schrodinger", "caldeira_leggett", "two_particle", "windows",
    "oracles", "figures", "config", "cli", "verify",
]


def _suffix(module, name, args):
    """Split one function's spans by the kind of call."""
    if name == "density_matrix_rR":
        return ".point" if np.broadcast(args[3], args[4]).size == 1 else ".grid"
    if name == "generate_figure":
        return "." + args[0]
    if name == "main":
        return "." + args[0][0]
    return ""


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index]
        self.failed = Counter()
        self._stack = []
        self._patched = []
        self._seen = set()

    def _wrap(self, module, name, fn):
        base = "%s.%s" % (module, name)

        def wrapper(*args, **kwargs):
            label = base + _suffix(module, name, args)
            with self.span(label, module):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def span(self, label, module=None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [label, time.perf_counter_ns(), 0, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        except Exception as exc:
            # count an exception once per module it passes through
            if module is not None and (id(exc), module) not in self._seen:
                self._seen.add((id(exc), module))
                self.failed[module] += 1
            raise
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def install(self):
        targets = [importlib.import_module("modvar." + module) for module, _ in TRACED]
        package = [m for n, m in sys.modules.items() if n == "modvar" or n.startswith("modvar.")]
        for (module, name), target in zip(TRACED, targets):
            original = getattr(target, name)
            wrapper = self._wrap(module, name, original)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields": ["name", "start_ns", "end_ns", "parent"], "spans": [\n')
            fh.write(",\n".join(json.dumps(s) for s in self.spans))
            fh.write("\n]}\n")


# ------------------------------------------------------------------ probes

def _repeat(fn, n):
    for _ in range(n):
        fn()


def probe(workdir, child_env):
    """Time every traced function in isolation at fixed inputs (the figure
    defaults), with the wrappers installed.  Returns the CLI start-up and
    gate figures, which have no in-process span."""
    from modvar import caldeira_leggett as cl
    from modvar import cli, config, figures, oracles, schrodinger, two_particle, verify, windows
    from modvar.params import BathParams, PhysicalConstants, TimeGrid, make_superposition

    c = PhysicalConstants()
    spec = make_superposition(L=50.0, sigma0=1.0, k=0.1, alpha=math.pi / 4)
    bath = BathParams(gamma=0.001, T=2.0)
    bath4 = BathParams(gamma=0.005, T=15.0)
    xs = np.linspace(-40.0, 40.0, 401)
    grid = TimeGrid(0.0, 2.0, 201)
    X0 = spec.packetA.x0
    t = 1.0

    _repeat(lambda: schrodinger.modular_expectation(spec, c, t), 200)
    _repeat(lambda: cl.cl_modular_closed(spec, bath, c, t), 200)
    _repeat(lambda: two_particle.reduced_modular_common_bath(spec, bath4, c, t), 200)
    _repeat(lambda: cl.density_matrix_rR(spec, bath, c, 0.0, X0, t), 100)
    _repeat(lambda: cl.density_matrix_rR(spec, bath, c, 0.0, xs, t), 50)
    _repeat(lambda: cl.cl_density(spec, bath, c, xs, t), 50)
    _repeat(lambda: schrodinger.superposed_density_and_current(spec, c, xs, t), 50)
    _repeat(lambda: schrodinger.local_modular_on_trajectory(spec, c, X0, grid), 20)
    _repeat(lambda: cl.cl_local_modular_on_trajectory(spec, bath, c, X0, grid), 5)
    _repeat(lambda: windows.overlap_window("cl", spec, bath, c), 20)
    _repeat(lambda: windows.two_particle_window(spec, bath4, c), 20)
    _repeat(lambda: config.resolve_config("fig3", {}, {"gamma": 0.002}), 100)
    _repeat(lambda: cl.cl_modular_quadrature(spec, bath, c, t, spec.L), 5)
    _repeat(lambda: cl.l1_coherence(spec, bath, c, t), 3)
    source = oracles.SchrodingerSource(spec, c)
    _repeat(lambda: oracles.characteristic_modular(source, t, spec.L), 3)
    _repeat(lambda: oracles.heisenberg_rhs_check(spec, bath, c, t), 3)
    _repeat(lambda: oracles.moment_ode_window(spec, bath, c), 3)
    traj_grid = TimeGrid(0.0, 2.0, 51)

    # the velocity field calls the unwrapped density, so that the cl_density
    # median stays the one of the 401-point grid call
    density = getattr(cl.cl_density, "__wrapped__", cl.cl_density)

    def velocity(x, s):
        return cl.cl_current(spec, bath, c, x, s) / density(spec, bath, c, x, s)

    _repeat(lambda: oracles.trajectory_ode_oracle(velocity, X0, traj_grid), 3)
    _repeat(lambda: oracles.grid_propagator(spec, c, oracles.GridSpec(**REDUCED_GRID)), 3)

    out = os.path.join(workdir, "probe")
    fig_bytes = 0
    for _ in range(3):
        fig_bytes = 0
        for name in ("fig1", "fig2", "fig3", "fig4"):
            cfg = replace(config.FIGURE_DEFAULTS[name], out=out)
            for path in figures.generate_figure(name, cfg):
                fig_bytes += os.path.getsize(path)

    cli_failed = 0
    with contextlib.redirect_stdout(io.StringIO()):
        for _ in range(10):
            cli_failed += cli.main(["window", "--framework", "cl"]) != 0
        for _ in range(5):
            cli_failed += cli.main(["figure", "fig3", "--out", out]) != 0

    gates = [verify.gate_windows, verify.gate_two_particle, verify.gate_continuum_limit,
             verify.gate_temperature_phase]
    verify_failed = sum(not gate().passed for gate in gates)

    interpreter = _child_ms([sys.executable, "-c", "pass"], child_env, 5)
    imports = _child_ms([sys.executable, "-c", "import modvar.cli"], child_env, 3)
    return {
        "figures.bytes_per_op": (float(fig_bytes), "B"),
        "cli.interpreter_ms": (interpreter, "ms"),
        "cli.import_ms": (imports, "ms"),
        "cli_failed": cli_failed,
        "verify_failed": verify_failed,
    }


def _child_ms(argv, env, n):
    walls = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)
        walls.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(walls)


def layer_metrics(tracer, probe_end, op_spans, probe_extra, overhead_pct):
    """Per-layer metrics: medians from the probe spans (the first
    ``probe_end`` spans), calls per op and coverage from the traced ops."""
    ops = set(op_spans)
    n_ops = max(1, len(op_spans))
    metrics = {}

    def p50(label, scale):
        d = [s[2] - s[1] for s in tracer.spans[:probe_end] if s[0] == label]
        return statistics.median(d) / scale if d else math.nan

    labels = []
    for module, name in TRACED:
        if name == "density_matrix_rR":
            labels += ["%s.%s.point" % (module, name), "%s.%s.grid" % (module, name)]
        elif name not in ("generate_figure", "main", "make_superposition"):
            labels.append("%s.%s" % (module, name))
    for label in labels:
        metrics[label + ".p50_us"] = (p50(label, 1e3), "us")
        metrics[label + ".calls_per_op"] = (_calls_within(tracer, label, ops) / n_ops, "1/op")
    for fig in ("fig1", "fig2", "fig3", "fig4"):
        metrics["figures.generate_figure.%s.p50_ms" % fig] = (
            p50("figures.generate_figure." + fig, 1e6), "ms")
    metrics["cli.main.window_ms"] = (p50("cli.main.window", 1e6), "ms")
    metrics["cli.main.figure_ms"] = (p50("cli.main.figure", 1e6), "ms")
    for key in ("figures.bytes_per_op", "cli.interpreter_ms", "cli.import_ms"):
        metrics[key] = probe_extra[key]
    for module in MODULES:
        metrics[module + ".failed"] = (float(tracer.failed[module]), "count")
    metrics["cli.failed"] = (metrics["cli.failed"][0] + probe_extra["cli_failed"], "count")
    metrics["verify.failed"] = (float(probe_extra["verify_failed"]), "count")
    covered = sum(s[2] - s[1] for s in tracer.spans if s[3] in ops)
    total = sum(tracer.spans[i][2] - tracer.spans[i][1] for i in op_spans)
    metrics["trace.coverage_pct"] = (100.0 * covered / total if total else math.nan, "%")
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    return metrics


def _calls_within(tracer, label, op_indices):
    """Spans named ``label`` that descend from one of the op spans."""
    count = 0
    for s in tracer.spans:
        if s[0] != label:
            continue
        parent = s[3]
        while parent != -1 and parent not in op_indices:
            parent = tracer.spans[parent][3]
        count += parent != -1
    return count

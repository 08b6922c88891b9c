"""Figure data generation: deterministic CSV emission for the four standard
panels.

Schema: first column t (or x for density grids), one column per series,
'#'-prefixed header echoing the resolved configuration.  Each value is
printed as "%.15g" % value prints it, with '\n' line endings, so re-runs
are byte-identical.  A figure whose tables hold a non-finite value raises
FloatingPointError before any of its files is written.

The writer formats a whole table at once (modvar._csvformat) instead of
calling "%.15g" per cell, whose 15-digit conversion takes CPython's slow
bignum route.  It scales each |x| to a 15-digit integer in double-double
arithmetic, times an exact (hi, lo) pair for 10**k, and rounds it.
Lookup tables then put %g's sign, digits, point and exponent into
fixed-width byte cells, and bytes.translate drops the blank bytes.  Cells
that route cannot settle exactly are formatted by "%.15g" % x itself:
zeros, non-finite values, |x| outside [1e-280, 1e280), and every cell
whose rounding lies within 1e-6 of a tie, which includes the exact ties
that round half to even.
"""

from __future__ import annotations

import os

import numpy as np

from .caldeira_leggett import (
    cl_bohmian_trajectory,
    cl_density,
    cl_local_modular_on_trajectory,
    cl_modular_closed,
)
from .config import ConfigError, RunConfig
from .params import TimeGrid
from .schrodinger import (
    bohmian_trajectory,
    local_modular_on_trajectory,
    modular_expectation,
    superposed_density_and_current,
)
from .two_particle import reduced_modular_common_bath
from .windows import two_particle_window

_FIG1_XGRID = (-40.0, 40.0, 401)
_FIG1_TSAMPLES = 41


def _check_columns(filename: str, colnames: list, columns: list) -> None:
    for name, col in zip(colnames, columns):
        if not np.all(np.isfinite(col)):
            raise FloatingPointError("non-finite value in column %s of %s" % (name, filename))


def _write_csv(path: str, cfg: RunConfig, extra_header: list, colnames: list, columns: list) -> str:
    lines = []
    lines.extend(cfg.header_lines())
    lines.extend("# %s" % text for text in extra_header)
    lines.append("# columns: %s" % ",".join(colnames))
    # loaded here, so that a command which writes no CSV does not load it
    from ._csvformat import format_table

    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))
        fh.write(format_table(columns))
    return path


def _frameworks(cfg: RunConfig) -> list:
    return ["schrodinger", "cl"] if cfg.framework == "both" else [cfg.framework]


def cl_temperatures(name: str, cfg: RunConfig) -> tuple:
    """Temperatures of the CL baths a figure evaluates: all of them for fig3
    and fig4, the first for fig1 and fig2 unless those are unitary only."""
    if name in ("fig3", "fig4"):
        return cfg.temperatures
    return cfg.temperatures[:1] if "cl" in _frameworks(cfg) else ()


def _fig1(cfg: RunConfig) -> list:
    c = cfg.constants()
    spec = cfg.superposition(cfg.alphas[0])
    bath = cfg.bath()
    grid = TimeGrid(cfg.t_start, cfg.tmax, cfg.samples)
    xs = np.linspace(*_FIG1_XGRID)
    ts_density = np.linspace(cfg.t_start, cfg.tmax, _FIG1_TSAMPLES)
    tables = []
    for fw in _frameworks(cfg):
        # one (t, x) grid per framework: a row per density time
        if fw == "schrodinger":
            rho, _ = superposed_density_and_current(spec, c, xs, ts_density[:, None])
        else:
            rho = cl_density(spec, bath, c, xs, ts_density[:, None])
        tables.append((
            "fig1_density_%s.csv" % fw,
            ["figure: fig1 density grid, framework=%s" % fw],
            ["x"] + list(np.char.mod("t=%.15g", ts_density)),
            [xs] + list(rho),
        ))

        traj_cols = [grid.times()]
        names = ["t"]
        for off in cfg.x0_offsets:
            X0 = spec.packetA.x0 + off * cfg.sigma0
            if fw == "schrodinger":
                traj = bohmian_trajectory(spec.packetA, c, X0, grid)
            else:
                traj = cl_bohmian_trajectory(spec.packetA, bath, c, X0, grid)
            traj_cols.append(traj.X)
            names.append("X0_offset=%.15g" % off)
        tables.append((
            "fig1_trajectories_%s.csv" % fw,
            ["figure: fig1 trajectories, framework=%s" % fw],
            names,
            traj_cols,
        ))
    return tables


def _fig2(cfg: RunConfig) -> list:
    c = cfg.constants()
    alpha = cfg.alphas[0]
    spec = cfg.superposition(alpha)
    bath = cfg.bath()
    grid = TimeGrid(cfg.t_start, cfg.tmax, cfg.samples)
    cols = [grid.times()]
    names = ["t"]
    for fw in _frameworks(cfg):
        for off in cfg.x0_offsets:
            X0 = spec.packetA.x0 + off * cfg.sigma0
            if fw == "schrodinger":
                values = local_modular_on_trajectory(spec, c, X0, grid, cfg.support_factor)
            else:
                values = cl_local_modular_on_trajectory(
                    spec, bath, c, X0, grid, cfg.support_factor
                )
            cols.append(values)
            names.append("%s_offset=%.15g" % (fw, off))
    return [("fig2_local_modular.csv", ["figure: fig2 local modular values"], names, cols)]


def _fig3(cfg: RunConfig) -> list:
    c = cfg.constants()
    grid = TimeGrid(cfg.t_start, cfg.tmax, cfg.samples)
    ts = grid.times()
    cols = [ts]
    names = ["t"]
    for alpha in cfg.alphas:
        spec = cfg.superposition(alpha)
        cols.append(modular_expectation(spec, c, ts))
        names.append("alpha=%.15g_schrodinger" % alpha)
        for T in cfg.temperatures:
            cols.append(cl_modular_closed(spec, cfg.bath(T), c, ts))
            names.append("alpha=%.15g_cl_T=%.15g" % (alpha, T))
    return [("fig3_modular.csv", ["figure: fig3 global modular signals"], names, cols)]


def _fig4(cfg: RunConfig) -> list:
    c = cfg.constants()
    spec0 = cfg.superposition(cfg.alphas[0])
    windows = [
        two_particle_window(spec0, cfg.bath(T), c, cfg.support_factor).t_max
        for T in cfg.temperatures
    ]
    t_end = min([cfg.tmax] + windows)
    grid = TimeGrid(cfg.t_start, t_end, cfg.samples)
    ts = grid.times()
    cols = [ts]
    names = ["t"]
    for alpha in cfg.alphas:
        spec = cfg.superposition(alpha)
        for T in cfg.temperatures:
            cols.append(reduced_modular_common_bath(spec, cfg.bath(T), c, ts))
            names.append("alpha=%.15g_T=%.15g" % (alpha, T))
    header = [
        "figure: fig4 common-bath reduced modular signals",
        "two-particle windows: %s" % ",".join("%.6f" % w for w in windows),
    ]
    return [("fig4_common_bath.csv", header, names, cols)]


_FIGURES = {"fig1": _fig1, "fig2": _fig2, "fig3": _fig3, "fig4": _fig4}


def generate_figure(name: str, cfg: RunConfig) -> list:
    """Emit the CSV files for one figure; returns the written paths."""
    if name not in _FIGURES:
        raise ConfigError("unknown figure %r (choose fig1..fig4)" % (name,))
    tables = _FIGURES[name](cfg)
    # check every table before writing any, so a failure leaves no partial output
    for filename, _, names, cols in tables:
        _check_columns(filename, names, cols)
    os.makedirs(cfg.out, exist_ok=True)
    return [
        _write_csv(os.path.join(cfg.out, filename), cfg, header, names, cols)
        for filename, header, names, cols in tables
    ]

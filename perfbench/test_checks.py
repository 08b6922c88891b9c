"""Every correctness check of the benchmark rejects a corrupted output.

    python3 -m pytest -q perfbench/test_checks.py

Each test first shows that the check passes on the program's real output,
then corrupts that output and shows that the check fails.  A check that
cannot fail measures nothing.
"""

from __future__ import annotations

import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workload  # noqa: E402
from modvar import caldeira_leggett as cl  # noqa: E402
from modvar import config, figures, oracles, schrodinger, windows  # noqa: E402
from modvar.params import BathParams  # noqa: E402

C = workload.C


def _rewrite_column(path, column, fn):
    lines = Path(path).read_text().splitlines()
    out = []
    for line in lines:
        if line.startswith("#"):
            out.append(line)
            continue
        cells = line.split(",")
        cols = range(1, len(cells)) if column is None else [column]
        for j in cols:
            cells[j] = "%.15g" % fn(float(cells[j]))
        out.append(",".join(cells))
    Path(path).write_text("\n".join(out) + "\n")


def _all_pass(found):
    return all(c.passed for c in found) and checks.accuracy_margin(found) > 0


def test_fig3_sign_flip_fails(tmp_path):
    cfg = replace(config.FIGURE_DEFAULTS["fig3"], out=str(tmp_path))
    (path,) = figures.generate_figure("fig3", cfg)
    assert _all_pass(checks.check_fig3(path, cfg.alphas, cfg.kick, cfg.sigma0))
    _rewrite_column(path, 1, lambda v: -v)
    found = checks.check_fig3(path, cfg.alphas, cfg.kick, cfg.sigma0)
    assert not _all_pass(found)
    assert checks.accuracy_margin(found) <= 0


def test_fig1_density_scaled_fails(tmp_path):
    cfg = replace(config.FIGURE_DEFAULTS["fig1"], out=str(tmp_path))
    figures.generate_figure("fig1", cfg)
    (tails,) = workload.Figures._tails([cfg])
    for fw in ("schrodinger", "cl"):
        path = tmp_path / ("fig1_density_%s.csv" % fw)
        assert _all_pass(checks.check_fig1_density(str(path), tails[fw]))
        _rewrite_column(path, None, lambda v: 1.01 * v)
        assert not _all_pass(checks.check_fig1_density(str(path), tails[fw]))


def test_fig_values_out_of_bounds_fail(tmp_path):
    cfg = replace(config.FIGURE_DEFAULTS["fig4"], out=str(tmp_path))
    (path,) = figures.generate_figure("fig4", cfg)
    assert _all_pass(checks.check_fig4(path))
    _rewrite_column(path, 2, lambda v: math.nan)
    assert not _all_pass(checks.check_fig4(path))


def test_oracle_off_by_ten_tolerances_fails():
    spec = workload._spec(0.3)
    bath = BathParams(gamma=0.001, T=2.0)
    t, L = 0.7, spec.L
    closed = schrodinger.modular_expectation(spec, C, t)
    oracle = oracles.characteristic_modular(oracles.SchrodingerSource(spec, C), t, L).real
    name = "characteristic_modular vs modular_expectation"
    tol = checks.ORACLE_TOL[name]
    assert checks.check_oracle(name, abs(oracle - closed)).passed
    assert not checks.check_oracle(name, abs(oracle + 10 * tol - closed)).passed

    quad = cl.cl_modular_quadrature(spec, bath, C, t, L)
    env = cl.cl_modular_envelope_phase(spec, bath, C, t)[0]
    name = "cl_modular_quadrature vs cl_modular_closed"
    closed = cl.cl_modular_closed(spec, bath, C, t)
    assert checks.check_oracle(name, abs(quad - closed) / env).passed
    bad = quad + 10 * checks.ORACLE_TOL[name] * env
    assert not checks.check_oracle(name, abs(bad - closed) / env).passed

    for name, tol in checks.ORACLE_TOL.items():
        found = [checks.check_oracle(name, 10 * tol)]
        assert not _all_pass(found)
    c0, e0 = 0.8, 1e-12
    assert checks.check_l1_phase_blindness(c0, e0, c0, e0).passed
    assert not checks.check_l1_phase_blindness(c0, e0, c0 + 10 * (1e-8 + 20 * e0), e0).passed


def test_window_off_by_1e3_fails():
    spec = workload._spec(0.0)
    bath = BathParams(gamma=0.001, T=2.0)
    solver = windows.overlap_window("cl", spec, bath, C).t_max
    oracle = oracles.moment_ode_window(spec, bath, C)
    assert checks.check_window(solver, oracle).passed
    assert not checks.check_window(solver + 1e-3, oracle).passed
    printed = "t_max = %.6f\ncriterion: x\n"
    assert checks.check_printed_window("cl", printed % solver, oracle).passed
    found = [checks.check_printed_window("cl", printed % (solver + 1e-3), oracle)]
    assert not _all_pass(found)
    assert not checks.check_printed_window("cl", "no window\n", oracle).passed


def test_nan_call_exiting_0_fails():
    cli = workload.Cli.__new__(workload.Cli)
    nan_index = cli.round_size - 1
    assert cli.argv(nan_index) == workload.Cli.NAN_CALL
    ok = subprocess.CompletedProcess(cli.NAN_CALL, 2, "", "configuration error")
    bad = subprocess.CompletedProcess(cli.NAN_CALL, 0, "t_max = 0.000000\n", "")
    assert not cli.failed(nan_index, ok)
    assert cli.failed(nan_index, bad)


def test_same_config_different_bytes_fails(tmp_path):
    wl = workload.Figures.__new__(workload.Figures)
    wl.out = str(tmp_path)
    wl.pool = [{name: replace(config.FIGURE_DEFAULTS[name], out=str(tmp_path))
                for name in workload.FIGS}]
    wl.tails = workload.Figures._tails([wl.pool[0]["fig1"]])
    wl.digests = {}
    paths = wl.op(0)
    assert _all_pass(wl.check(0, paths))
    paths = wl.op(0)
    with open(paths[-1], "a") as fh:
        fh.write("# one more header line\n")
    assert not _all_pass(wl.check(0, paths))

"""Correctness checks for the benchmark's outputs.

Every check compares a program output with a value the benchmark computes by
another route, or with a property the method must have.  None compares with a
stored copy of earlier output.

A check records its observed deviation and its tolerance.  Accuracy checks
feed ``accuracy_margin``, built from log10(tolerance / deviation).  Pass/fail
checks (bounds, byte equality, windows) stay out of the margin while they
pass, because their deviation carries no digits: a window is quantised by
the solver's 1e-6 bisection and the printed precision, so its deviation is a
random fraction of its tolerance.  A failing check of either kind pulls the
margin to or below 0.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

_EPS = 2.0 ** -52
# a margin is a finite number in the printed result, even for a NaN output
_MARGIN_FLOOR = -99.0

FIG1_X = (-40.0, 40.0)
FIG1_N = 401
FIG1_DX = (FIG1_X[1] - FIG1_X[0]) / (FIG1_N - 1)
WINDOW_SOLVER_TOL = 1e-6
WINDOW_PRINT_HALF_UNIT = 5e-7

# tolerances of the figure checks: values are printed with %.15g (relative
# 5e-16); the fig3 phases reach ~300 rad, which costs ~3 digits to argument
# rounding in cos(phi) against cos(phi + pi)
NORM_TOL = 1e-12
ANTISYM_TOL = 1e-12
T0_TOL = 1e-13


@dataclass(frozen=True)
class Check:
    """One comparison: observed deviation against its tolerance.

    ``scale`` is the magnitude of the compared values; deviations below one
    double-precision unit of it read as that unit, so an exact match gives a
    finite margin.
    """

    name: str
    deviation: float
    tolerance: float
    scale: float = 1.0
    accuracy: bool = True

    @property
    def passed(self) -> bool:
        return math.isfinite(self.deviation) and self.deviation <= self.tolerance

    @property
    def margin(self) -> float:
        if not math.isfinite(self.deviation):
            return _MARGIN_FLOOR
        if self.tolerance <= 0.0:  # a pass/fail check that holds
            return math.inf
        floor = _EPS * max(self.scale, 1e-300)
        return max(_MARGIN_FLOOR, math.log10(self.tolerance / max(self.deviation, floor)))


def pass_fail(name: str, ok: bool) -> Check:
    """A check with no numeric deviation: 0 when it holds, infinite when not."""
    return Check(name, 0.0 if ok else math.inf, 0.0, accuracy=False)


def accuracy_margin(checks) -> float:
    """The worst failing check's margin (<= 0) if any check failed; else
    the smallest, over kinds of accuracy check, of the kind's median margin.

    A kind's minimum over one run rides on a few rounding-limited outliers
    and moves between seeds by more than the metric's bound; its median
    moves when an oracle loses digits at every point."""
    failing = [c.margin for c in checks if not c.passed]
    if failing:
        return min(failing)
    kinds = {}
    for c in checks:
        if c.accuracy:
            kinds.setdefault(c.name, []).append(c.margin)
    return min(statistics.median(v) for v in kinds.values()) if kinds else math.inf


def accuracy_min(checks) -> float:
    """Plain minimum margin over the accuracy checks and the failing ones."""
    margins = [c.margin for c in checks if c.accuracy or not c.passed]
    return min(margins) if margins else math.inf


# ---------------------------------------------------------------- CSV files

def read_csv(path: str):
    """(column names, values) of a figure CSV; values has one column each."""
    names, rows = None, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# columns: "):
                names = line[len("# columns: "):].strip().split(",")
            elif line.strip() and not line.startswith("#"):
                rows.append(line)
    values = np.array([[float(v) for v in row.split(",")] for row in rows])
    return names, values


def moment_trajectory(x0s, p0s, sigma0, gamma, D, constants, ts, dt=2.5e-3):
    """Means and variances of Gaussian packets under the Caldeira-Leggett
    second-moment equations, by fixed-step RK4 from t = 0 to each of ``ts``:

        x' = p/m, p' = -m g - 2 gamma p, Sxx' = 2 Sxp/m,
        Sxp' = Spp/m - 2 gamma Sxp,   Spp' = -4 gamma Spp + 2 D.

    gamma = D = 0 is unitary evolution.  x0s, p0s, gamma and D broadcast to
    one entry per packet.  Returns arrays (len(ts), n_packets).
    """
    m, hbar, g = constants
    x0s, p0s, gamma, D = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x0s, p0s, gamma, D)))
    y = np.array([
        x0s, p0s, np.full(x0s.shape, sigma0**2), np.zeros(x0s.shape),
        np.full(x0s.shape, hbar**2 / (4.0 * sigma0**2)),
    ])

    def f(y):
        x, p, sxx, sxp, spp = y
        return np.array([
            p / m, -m * g - 2.0 * gamma * p, 2.0 * sxp / m,
            spp / m - 2.0 * gamma * sxp, -4.0 * gamma * spp + 2.0 * D,
        ])

    means, variances = [], []
    t = 0.0
    for target in ts:
        while target - t > 1e-12:
            h = min(dt, target - t)
            k1 = f(y)
            k2 = f(y + 0.5 * h * k1)
            k3 = f(y + 0.5 * h * k2)
            k4 = f(y + h * k3)
            y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
        means.append(y[0].copy())
        variances.append(y[2].copy())
    return np.array(means), np.array(variances)


def lattice_tail(means: np.ndarray, variances: np.ndarray, lo=FIG1_X[0], hi=FIG1_X[1],
                 dx=FIG1_DX, reach=600) -> np.ndarray:
    """dx times the sum of the packet mixture's density over the lattice
    points beyond [lo, hi] (rows are times).  The lattice sum of a Gaussian
    of width s over all of a grid with spacing dx is 1 to within
    exp(-2 pi^2 s^2 / dx^2), and the packets do not overlap, so the mixture
    carries the superposition's mass."""
    steps = dx * np.arange(1, reach + 1)
    xs = np.concatenate([lo - steps, hi + steps])[None, None, :]
    mu, var = means[:, :, None], variances[:, :, None]
    dens = np.exp(-((xs - mu) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)
    return dx * dens.sum(axis=2).mean(axis=1)


def check_fig1_density(path: str, tails: np.ndarray) -> list:
    """fig1 density grid: non-negative, and each time column sums (times
    the grid step) to 1 minus the mass on the lattice beyond the grid
    (``tails``, one per column)."""
    _, values = read_csv(path)
    x, rho = values[:, 0], values[:, 1:]
    if len(x) != FIG1_N or x[0] != FIG1_X[0] or x[-1] != FIG1_X[1] or rho.shape[1] != len(tails):
        return [pass_fail("fig1 density grid layout", False)]
    dev = float(np.max(np.abs(FIG1_DX * rho.sum(axis=0) - (1.0 - tails))))
    return [
        pass_fail("fig1 density non-negative", bool(np.all(rho >= 0.0))),
        Check("fig1 density normalisation", dev, NORM_TOL),
    ]


def _column_alphas(names, alphas):
    """Map each modular column to the input alpha its name was printed from
    (names carry alpha with %.15g, the inputs carry every digit)."""
    out = {}
    for i, name in enumerate(names):
        if name == "t":
            continue
        head, _, series = name.partition("_")
        printed = float(head.split("=", 1)[1])
        alpha = min(alphas, key=lambda a: abs(a - printed))
        out[i] = (alpha, series)
    return out


def check_fig3(path: str, alphas, k: float, sigma0: float) -> list:
    """fig3 modular columns: alpha and alpha+pi columns are negatives of
    each other, every column starts at (1/2) e^{-k^2 sigma0^2 / 2} cos alpha,
    and every value is finite with |value| <= 1/2."""
    names, values = read_csv(path)
    cols = _column_alphas(names, alphas)
    antisym, pairs = 0.0, 0
    for i, (alpha, series) in cols.items():
        for j, (a2, s2) in cols.items():
            if s2 == series and abs(a2 - alpha - math.pi) < 1e-12:
                antisym = max(antisym, float(np.max(np.abs(values[:, i] + values[:, j]))))
                pairs += 1
    if values[0, 0] != 0.0 or pairs == 0:
        return [pass_fail("fig3 layout: t=0 row and an alpha, alpha+pi pair", False)]
    amp = 0.5 * math.exp(-0.5 * k * k * sigma0 * sigma0)
    t0 = max(abs(values[0, i] - amp * math.cos(alpha)) for i, (alpha, _) in cols.items())
    return [
        Check("fig3 alpha+pi antisymmetry", antisym, ANTISYM_TOL, scale=0.5),
        Check("fig3 value at t=0", t0, T0_TOL, scale=0.5),
        check_bounded("fig3", values[:, 1:]),
    ]


def check_bounded(label: str, values: np.ndarray) -> Check:
    """Every modular value is finite with |value| <= 1/2."""
    ok = bool(np.all(np.isfinite(values)) and np.all(np.abs(values) <= 0.5))
    return pass_fail("%s values finite and within 1/2" % label, ok)


def check_fig4(path: str) -> list:
    _, values = read_csv(path)
    return [check_bounded("fig4", values[:, 1:])]


# ------------------------------------------------------------------ windows

def check_printed_window(label: str, stdout: str, oracle: float) -> Check:
    """A printed 't_max = %.6f' agrees with the moment-ODE window within
    the printed half-unit plus the solver's tolerance."""
    printed = math.nan
    for line in stdout.splitlines():
        if line.startswith("t_max = "):
            printed = float(line.split("=", 1)[1])
    return Check(
        "%s printed window vs moment ODE" % label,
        abs(printed - oracle),
        WINDOW_PRINT_HALF_UNIT + WINDOW_SOLVER_TOL,
        scale=oracle,
        accuracy=False,
    )


def check_window(solver: float, oracle: float) -> Check:
    """In-process window against the moment-ODE window, within 1e-6."""
    return Check(
        "window solver vs moment ODE", abs(solver - oracle), WINDOW_SOLVER_TOL,
        scale=oracle, accuracy=False,
    )


def nan_call_failed(returncode: int) -> bool:
    """A non-finite parameter must be refused with exit code 2."""
    return returncode != 2


# ------------------------------------------------------------------ oracles

# acceptance tolerances of the oracle comparisons (tests/test_acceptance.py
# and modvar.verify): absolute for the unitary characteristic function,
# relative to the envelope for the dissipative quadrature, relative residual
# for the evolution equation, absolute for trajectories and the propagator
ORACLE_TOL = {
    "characteristic_modular vs modular_expectation": 1e-8,
    "cl_modular_quadrature vs cl_modular_closed": 1e-6,
    "heisenberg_rhs_check residual": 1e-5,
    "trajectory_ode_oracle vs cl_bohmian_trajectory": 1e-5,
    "grid_propagator vs superposed_amplitude (L2)": 1e-6,
    "grid_propagator norm drift": 1e-10,
}


def check_oracle(name: str, deviation: float, scale: float = 1.0) -> Check:
    return Check(name, float(deviation), ORACLE_TOL[name], scale=scale)


def check_l1_phase_blindness(c0: float, e0: float, c1: float, e1: float) -> Check:
    """l1 coherence is blind to the relative phase, within the quadrature's
    own error estimates (the verify gate's tolerance)."""
    return Check(
        "l1_coherence at alpha vs alpha+pi/2", abs(c0 - c1), 1e-8 + 10.0 * (e0 + e1),
        scale=max(abs(c0), abs(c1)),
    )

"""The Caldeira-Leggett cells of the golden figure CSVs against a 50-digit
mpmath evaluation of the same closed forms at the same float points.

c14 holds the figure output to the golden bytes; this test holds the golden
bytes to the mathematics.  numpy's vectorized exp/expm1/cos round
differently from libm in the last bit, so a golden cell may carry either
rounding, but every cell must match the exact value to 1e-12 of the cell's
scale.  Set MODVAR_GOLDEN_DIR to referee another set of goldens.
"""

import os

import numpy as np
import pytest

from modvar import figures, verify
from modvar.config import FIGURE_DEFAULTS
from modvar.params import TimeGrid
from modvar.windows import two_particle_window

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

# Each cell's error is taken relative to its scale: the density itself in
# fig1, the modulus of the complex local value in fig2 and the envelope in
# fig3 and fig4, floored at the smallest normal float.  The worst scaled
# error over every cell, the same for the libm and the numpy rounding, is
# 3.05e-13 (fig1), 1.33e-13 (fig2), 7.5e-14 (fig3) and 1.59e-13 (fig4);
# the worst absolute errors are 7.7e-16, 2.05e-14, 7.7e-16 and 4.1e-16.
BOUND = 1e-12
# every 8th x of fig1's 401-point grid and every 2nd t of fig2's 201 samples
FIG1_X_STRIDE = 8
FIG2_T_STRIDE = 2


def _read(name):
    path = os.path.join(verify._golden_dir(), name + ".csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cols = [line for line in lines if line.startswith("# columns: ")][0]
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    return cols[len("# columns: "):].split(","), rows


def _mpf(x):
    return mp.mpf(float(x))


def _tau(gamma, t):
    """(1 - e^{-2 gamma t}) / (2 gamma), t at gamma = 0."""
    return t if gamma == 0 else -mp.expm1(-2 * gamma * t) / (2 * gamma)


class _Model:
    """The closed forms at mp.dps = 50 for one figure's parameters."""

    def __init__(self, cfg, T):
        self.m, self.hbar, self.g = _mpf(cfg.m), _mpf(cfg.hbar), _mpf(cfg.gravity)
        self.gamma = _mpf(cfg.gamma)
        self.D = 2 * self.m * self.gamma * _mpf(cfg.kB) * _mpf(T)
        self.s0, self.L, self.k = _mpf(cfg.sigma0), _mpf(cfg.separation), _mpf(cfg.kick)

    def center_width(self, t):
        """Left packet's center x_t and width w_t."""
        m, hbar, g, gamma, D, s0 = self.m, self.hbar, self.g, self.gamma, self.D, self.s0
        tau = _tau(gamma, t)
        drift = (t - tau) / (2 * gamma) if gamma else t * t / 2
        u = 2 * gamma * t
        # D t^3 h(u) with h(u) = (3 + e^{-2u} - 4 e^{-u} - 2u) / u^3, h(0) = -2/3
        h = mp.mpf(-2) / 3 if u == 0 else (3 + mp.exp(-2 * u) - 4 * mp.exp(-u) - 2 * u) / u**3
        w2 = s0**2 * (1 + (hbar * tau) ** 2 / (4 * m**2 * s0**4)) - D * t**3 * h / m**2
        return -self.L / 2 - g * drift, mp.sqrt(w2)

    def parts(self, t, alpha):
        """Width, shared r-coefficients, four Gaussian terms and weights of
        the superposition's rho(r, R, t)."""
        m, hbar, g, gamma, D = self.m, self.hbar, self.g, self.gamma, self.D
        s0, L, k = self.s0, self.L, self.k
        j = mp.mpc(0, 1)
        tau, tau4 = _tau(gamma, t), _tau(2 * gamma, t)
        drift = (t - tau) / (2 * gamma) if gamma else t * t / 2
        e2 = mp.exp(-2 * gamma * t)
        w = self.center_width(t)[1]
        quad = -(D * tau4 / hbar**2 + e2 * e2 / (8 * s0**2))
        slope = -(D * tau**2 / (hbar * m) + hbar * tau * e2 / (4 * m * s0**2))
        lin1 = -j * m * g * tau / hbar
        beta1 = -j * (L / 2 + g * drift)
        lin2, beta2 = lin1 + j * k * e2, beta1 + j * (L + hbar * k * tau / m)
        A3 = -(4 * k**2 * s0**4 + 4 * j * k * L * s0**2 + L**2) / (8 * s0**2)
        lin3 = lin1 + e2 * (L + 2 * j * k * s0**2) / (4 * s0**2)
        beta3 = beta1 + (L + 2 * j * k * s0**2) * (hbar * tau + 2 * j * m * s0**2) / (4 * m * s0**2)
        A4 = A3 + j * k * L
        lin4 = lin3 - L * e2 / (2 * s0**2)
        beta4 = beta3 + 2 * k * s0**2 - hbar * L * tau / (2 * m * s0**2)
        terms = [(0, lin1, beta1), (0, lin2, beta2), (A3, lin3, beta3), (A4, lin4, beta4)]
        weights = [mp.mpf(1) / 2, mp.mpf(1) / 2, mp.exp(j * alpha) / 2, mp.exp(-j * alpha) / 2]
        return w, quad, slope, terms, weights

    @staticmethod
    def rho(parts, r, R):
        w, quad, slope, terms, weights = parts
        total = 0
        for (A, lin, beta), wt in zip(terms, weights):
            a = A + lin * r + quad * r * r
            total += wt * mp.exp(a - (R + 1j * (beta + slope * r)) ** 2 / (2 * w * w))
        return total / (mp.sqrt(2 * mp.pi) * w)

    def modular(self, t, alpha, rate=1):
        """Envelope and value of the closed-form modular signal; rate 2 is
        the common-bath signal."""
        m, hbar, g, gamma, D = self.m, self.hbar, self.g, self.gamma, self.D
        s0, L, k = self.s0, self.L, self.k
        tau, tau_d = _tau(rate * gamma, t), _tau(2 * rate * gamma, t)
        envelope = mp.exp(
            -D * L**2 * tau_d / hbar**2
            - L**2 * (rate * gamma) ** 2 * tau**2 / (2 * rate * s0**2)
            - k**2 * s0**2 / 2
        ) / 2
        return envelope, envelope * mp.cos(alpha - L * tau * (k * gamma + m * g / hbar))


def _fig1_cells():
    cfg = FIGURE_DEFAULTS["fig1"]
    xs = np.linspace(*figures._FIG1_XGRID)
    ts = np.linspace(cfg.t_start, cfg.tmax, figures._FIG1_TSAMPLES)
    names, rows = _read("fig1_density_cl")
    assert names == ["x"] + ["t=%.15g" % t for t in ts]
    model = _Model(cfg, cfg.temperatures[0])
    alpha = _mpf(cfg.alphas[0])
    for col, t in enumerate(ts, 1):
        parts = model.parts(_mpf(t), alpha)
        for i in range(0, len(xs), FIG1_X_STRIDE):
            assert rows[i][0] == "%.15g" % xs[i]
            exact = model.rho(parts, 0, _mpf(xs[i])).real
            yield float(rows[i][col]), exact, abs(exact)


def _fig2_cells():
    cfg = FIGURE_DEFAULTS["fig2"]
    ts = TimeGrid(cfg.t_start, cfg.tmax, cfg.samples).times()
    names, rows = _read("fig2_local_modular")
    model = _Model(cfg, cfg.temperatures[0])
    alpha, L, s0 = _mpf(cfg.alphas[0]), model.L, model.s0
    for off in cfg.x0_offsets:
        col = names.index("cl_offset=%.15g" % off)
        X0 = _mpf(-cfg.separation / 2 + off * cfg.sigma0)
        for i in range(0, len(ts), FIG2_T_STRIDE):
            assert rows[i][0] == "%.15g" % ts[i]
            t = _mpf(ts[i])
            x_t, w_t = model.center_width(t)
            X = x_t + (X0 + L / 2) * w_t / s0
            parts = model.parts(t, alpha)
            up, dn = model.rho(parts, L, X + L / 2), model.rho(parts, -L, X - L / 2)
            local = (up + dn) / (2 * model.rho(parts, 0, X))
            yield float(rows[i][col]), local.real, abs(local)


def _modular_cells(name, cfg, ts, label, rate):
    names, rows = _read(name)
    for alpha in cfg.alphas:
        for T in cfg.temperatures:
            col = names.index(label % (alpha, T))
            model = _Model(cfg, T)
            for i, t in enumerate(ts):
                assert rows[i][0] == "%.15g" % t
                envelope, exact = model.modular(_mpf(t), _mpf(alpha), rate)
                yield float(rows[i][col]), exact, envelope


def _fig3_cells():
    cfg = FIGURE_DEFAULTS["fig3"]
    ts = TimeGrid(cfg.t_start, cfg.tmax, cfg.samples).times()
    return _modular_cells("fig3_modular", cfg, ts, "alpha=%.15g_cl_T=%.15g", 1)


def _fig4_cells():
    cfg = FIGURE_DEFAULTS["fig4"]
    spec = cfg.superposition(cfg.alphas[0])
    t_end = min([cfg.tmax] + [
        two_particle_window(spec, cfg.bath(T), cfg.constants(), cfg.support_factor).t_max
        for T in cfg.temperatures
    ])
    ts = TimeGrid(cfg.t_start, t_end, cfg.samples).times()
    return _modular_cells("fig4_common_bath", cfg, ts, "alpha=%.15g_T=%.15g", 2)


CELLS = {
    "fig1_density_cl": _fig1_cells,
    "fig2_local_modular": _fig2_cells,
    "fig3_modular": _fig3_cells,
    "fig4_common_bath": _fig4_cells,
}


def worst_errors(name):
    """Largest |golden - exact|, largest |golden - exact| / scale, and the
    number of cells refereed, for one file."""
    tiny = mp.mpf(np.finfo(float).tiny)
    with mp.workdps(50):
        errors = [(abs(mp.mpf(cell) - exact), max(scale, tiny))
                  for cell, exact, scale in CELLS[name]()]
    return float(max(e for e, _ in errors)), float(max(e / s for e, s in errors)), len(errors)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_golden_cl_cells_match_mpmath_referee(name):
    err, scaled, n = worst_errors(name)
    print("%s: %d cells, worst |golden - exact| %.3g, relative to scale %.3g" % (name, n, err, scaled))
    assert n > 100
    assert scaled <= BOUND

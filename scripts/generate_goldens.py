"""Regenerate the committed golden data under tests/data/.

Scalar records land in tests/data/golden_values.txt, one per line:

    quantity, parameter-hash, value(s), oracle-id, abs-tolerance

Each value is produced by a route independent of the closed form the test
suite later checks against it: raw Gaussian arithmetic, moment ODEs,
Gauss-Legendre density-matrix quadrature, a momentum-grid discrete Fourier sum,
Richardson finite differences, or a high-precision rearranged evaluation.
The figure CSVs for the byte-regression gate go to tests/data/golden_figs/.

Usage: python3 scripts/generate_goldens.py [--outdir tests/data]
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
from dataclasses import replace

import mpmath
import numpy as np
from scipy.integrate import quad, solve_ivp

from modvar.caldeira_leggett import cl_modular_quadrature, l1_coherence, local_translation
from modvar.config import FIGURE_DEFAULTS
from modvar.figures import generate_figure
from modvar.oracles import (
    SchrodingerSource,
    characteristic_modular,
    modular_via_momentum_grid,
)
from modvar.params import BathParams, PhysicalConstants, make_superposition
from modvar.schrodinger import local_modular_pointwise, superposed_amplitude

BASE = {"m": 1.0, "hbar": 1.0, "kB": 1.0, "g": -3.0, "L": 50.0, "sigma0": 1.0, "k": 0.1}


def param_hash(params: dict) -> str:
    # keep in sync with tests/conftest.py
    blob = ";".join(
        "%s=%s" % (key, "%.17g" % params[key] if isinstance(params[key], float) else params[key])
        for key in sorted(params)
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def _constants(p):
    return PhysicalConstants(m=p["m"], hbar=p["hbar"], kB=p["kB"], g=p["g"])


def _spec(p):
    return make_superposition(
        L=p["L"], sigma0=p["sigma0"], k=p["k"], alpha=p["alpha"], hbar=p["hbar"]
    )


def _raw_amplitude(p, x):
    """Two-packet wave function at t=0 from first principles (no library
    propagation code): normalized Gaussians at -L/2 (rest) and +L/2 (kick)."""
    s0, L, k, alpha = p["sigma0"], p["L"], p["k"], p["alpha"]
    norm = (2.0 * math.pi * s0**2) ** -0.25

    def g(u):
        return norm * math.exp(-(u**2) / (4.0 * s0**2))

    psi_a = g(x + L / 2.0)
    psi_b = g(x - L / 2.0) * complex(math.cos(k * x), math.sin(k * x))
    overlap = math.exp(-(L**2) / (8.0 * s0**2))  # ~0 for L >> s0
    ns = 1.0 / math.sqrt(2.0 + 2.0 * overlap * math.cos(alpha))
    return ns * (psi_a + complex(math.cos(alpha), math.sin(alpha)) * psi_b)


def rec_local_modular_origin():
    p = {**BASE, "k": 0.0, "alpha": 0.0, "x": -25.0, "t": 0.0}
    x, L = p["x"], p["L"]
    val = ((_raw_amplitude(p, x + L) + _raw_amplitude(p, x - L)) / (2.0 * _raw_amplitude(p, x))).real
    check = local_modular_pointwise(_spec(p), _constants(p), x, 0.0)
    assert abs(val - check) <= 1e-12, (val, check)
    return "local_modular_pointwise_origin", p, [val], "raw-shifted-gaussian", 1e-12


def rec_local_translation_origin():
    p = {**BASE, "k": 0.0, "alpha": 0.0, "gamma": 0.001, "T": 2.0, "x": -25.0, "t": 0.0}
    x, L = p["x"], p["L"]
    # pure state at t=0: rho(x+L, x)/rho(x, x) from the raw amplitudes
    val = _raw_amplitude(p, x + L) * _raw_amplitude(p, x).conjugate()
    val = val / abs(_raw_amplitude(p, x)) ** 2
    c = _constants(p)
    check = local_translation(_spec(p), BathParams(gamma=p["gamma"], T=p["T"], constants=c), c, x, 0.0)
    assert abs(val - check) <= 1e-10, (val, check)
    return "local_translation_origin", p, [val.real, val.imag], "raw-gaussian-ratio", 1e-10


def rec_cl_packet_state():
    p = {**BASE, "x0": -25.0, "p0": 0.0, "gamma": 0.001, "T": 2.0, "t": 2.0}
    m, g, gamma = p["m"], p["g"], p["gamma"]
    D = 2.0 * m * gamma * p["kB"] * p["T"]
    s0, hbar = p["sigma0"], p["hbar"]

    def rhs(_t, y):
        x, mom, sxx, sxp, spp = y
        return [
            mom / m,
            -m * g - 2.0 * gamma * mom,
            2.0 * sxp / m,
            spp / m - 2.0 * gamma * sxp,
            -4.0 * gamma * spp + 2.0 * D,
        ]

    y0 = [p["x0"], p["p0"], s0**2, 0.0, hbar**2 / (4.0 * s0**2)]
    sol = solve_ivp(rhs, (0.0, p["t"]), y0, method="DOP853", rtol=1e-13, atol=1e-13)
    x_t = float(sol.y[0, -1])
    w_t = float(math.sqrt(sol.y[2, -1]))
    return "cl_packet_center_width", p, [x_t, w_t], "moment-ode-dop853", 1e-8


def rec_cl_modular_closed():
    p = {**BASE, "alpha": 0.0, "gamma": 0.001, "T": 2.0, "t": 2.0}
    c = _constants(p)
    bath = BathParams(gamma=p["gamma"], T=p["T"], constants=c)
    val = cl_modular_quadrature(_spec(p), bath, c, p["t"], p["L"])
    return "cl_modular_closed", p, [val], "density-matrix-quadrature", max(1e-15, 1e-9 * abs(val))


def rec_reduced_modular_common_bath():
    p = {**BASE, "alpha": 0.0, "gamma": 0.005, "T": 15.0, "t": 2.0}
    mpmath.mp.dps = 60
    m, hbar, kB = map(mpmath.mpf, (p["m"], p["hbar"], p["kB"]))
    g, L, s0, k = map(mpmath.mpf, (p["g"], p["L"], p["sigma0"], p["k"]))
    gamma, T, t = map(mpmath.mpf, (p["gamma"], p["T"], p["t"]))
    D = 2 * m * gamma * kB * T
    # rates doubled by the common environment coupling both particles
    decay = -D * L**2 * (1 - mpmath.e ** (-8 * gamma * t)) / (8 * gamma * hbar**2)
    spread = -(L**2) * (1 - mpmath.e ** (-4 * gamma * t)) ** 2 / (16 * s0**2)
    static = -(k**2) * s0**2 / 2
    phase = p["alpha"] - L * (1 - mpmath.e ** (-4 * gamma * t)) * (k + m * g / (hbar * gamma)) / 4
    val = float(mpmath.mpf("0.5") * mpmath.e ** (decay + spread + static) * mpmath.cos(phase))
    return (
        "reduced_modular_common_bath",
        p,
        [val],
        "mpmath-rearranged",
        max(1e-8 * abs(val), 1e-320),
    )


def _d_chi(src, t, ell, h):
    """Central difference of chi(r, t) in r at r = ell, step h."""
    plus = characteristic_modular(src, t, ell + h)
    minus = characteristic_modular(src, t, ell - h)
    return (plus - minus) / (2.0 * h)


def rec_momentum_first_moment():
    p = {**BASE, "alpha": 0.0, "t": 1.0, "ell": 50.0}
    src = SchrodingerSource(_spec(p), _constants(p))
    t, ell, hbar = p["t"], p["ell"], p["hbar"]
    # Richardson extrapolation of central differences of chi itself, not the
    # integrand derivative that momentum_first_moment_translated integrates
    h = 1e-4
    d_h2 = _d_chi(src, t, ell, h / 2)
    rich = (4.0 * d_h2 - _d_chi(src, t, ell, h)) / 3.0
    assert abs(rich - d_h2) <= 1e-6 * max(1.0, abs(rich)), (rich, d_h2)
    val = (hbar / 1j) * rich
    # second, coarser scheme must agree before the value is trusted
    alt = (hbar / 1j) * _d_chi(src, t, ell, 2e-4)
    assert abs(val - alt) <= 1e-7 * max(1.0, abs(val)), (val, alt)
    return "momentum_first_moment_translated", p, [val.real, val.imag], "richardson-fd", 1e-6


def rec_modular_t0():
    p = {**BASE, "alpha": 0.0, "t": 0.0}
    val = modular_via_momentum_grid(_spec(p), _constants(p), p["t"], p["L"]).real
    return "modular_expectation_t0", p, [val], "momentum-grid-dft", 1e-10


def rec_l1_coherence(t):
    p = {**BASE, "alpha": math.pi / 4.0, "gamma": 0.001, "T": 2.0, "t": float(t)}
    c = _constants(p)
    bath = BathParams(gamma=p["gamma"], T=p["T"], constants=c)
    val, err = l1_coherence(_spec(p), bath, c, p["t"])
    if t == 0.0:
        # pure state: the double integral factorizes into (integral |Psi|)^2
        spec = _spec(p)
        total, qerr = quad(
            lambda x: abs(superposed_amplitude(spec, c, x, 0.0)), -45.0, 45.0, limit=200
        )
        assert abs(val - total**2) <= 1e-6 * val, (val, total**2, qerr)
    return "l1_coherence", p, [val], "composite-gauss-legendre", max(1e-9, 1e-8 * abs(val))


def fmt_value(v: float) -> str:
    return "%.17g" % v


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default=os.path.join(os.path.dirname(__file__), "..", "tests", "data"))
    args = ap.parse_args()
    outdir = os.path.abspath(args.outdir)
    os.makedirs(outdir, exist_ok=True)

    records = [
        rec_modular_t0(),
        rec_local_modular_origin(),
        rec_local_translation_origin(),
        rec_cl_packet_state(),
        rec_cl_modular_closed(),
        rec_reduced_modular_common_bath(),
        rec_momentum_first_moment(),
        rec_l1_coherence(0.0),
        rec_l1_coherence(1.0),
        rec_l1_coherence(2.0),
    ]
    lines = [
        "# golden scalar values consumed by the test suite",
        "# regenerate with: python3 scripts/generate_goldens.py",
        "# format: quantity, parameter-hash, value(s), oracle-id, abs-tolerance",
    ]
    for quantity, params, values, oracle, tol in records:
        lines.append(
            "%s, %s, %s, %s, %.3g"
            % (quantity, param_hash(params), " ".join(fmt_value(v) for v in values), oracle, tol)
        )
    path = os.path.join(outdir, "golden_values.txt")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(path)

    figdir = os.path.join(outdir, "golden_figs")
    os.makedirs(figdir, exist_ok=True)
    for name in ("fig1", "fig2", "fig3", "fig4"):
        cfg = replace(FIGURE_DEFAULTS[name], out=figdir)
        for written in generate_figure(name, cfg):
            print(written)


if __name__ == "__main__":
    main()

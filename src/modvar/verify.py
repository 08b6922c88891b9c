"""Acceptance criteria c01-c14: every closed form is checked against an
independent numerical oracle.

This module is the only definition of the criteria.  `modvar verify` runs
them and `tests/test_acceptance.py` collects them; each criterion is a
zero-argument function that returns a `GateResult` record.
"""

from __future__ import annotations

import cmath
import functools
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, replace

import numpy as np

from .caldeira_leggett import (
    _eval_parts,
    _term_parts,
    cl_bohmian_trajectory,
    cl_current,
    cl_density,
    cl_modular_closed,
    cl_modular_envelope_phase,
    cl_modular_quadrature,
    cl_packet_state,
    density_matrix_rR,
    l1_coherence,
)
from .config import FIGURE_DEFAULTS
from .figures import generate_figure
from .oracles import (
    GridSpec,
    SchrodingerSource,
    characteristic_modular,
    grid_propagator,
    heisenberg_rhs_check,
    l2_error,
    pde_residual,
    trajectory_ode_oracle,
    two_particle_translation,
)
from .params import BathParams, GaussianPacket, PhysicalConstants, TimeGrid, make_superposition
from .schrodinger import (
    bohmian_trajectory,
    bohmian_velocity,
    local_modular_pointwise,
    modular_expectation,
    packet_state,
    superposed_amplitude,
    superposed_density_and_current,
)
from .two_particle import (
    StatisticsKind,
    initial_phase_rate,
    modular_indistinguishable,
    reduced_modular_components,
)
from .windows import overlap_window


@dataclass(frozen=True)
class GateResult:
    """Outcome of one criterion: its observed values by name, the bound
    they are held to, and the wall time of the check."""

    id: str
    name: str
    observed: dict
    bound: str
    passed: bool
    seconds: float


CRITERIA = []


def criterion(cid, name, bound, budget=None):
    """Register a check returning (observed values, passed) as criterion
    `cid`; a wall budget in seconds becomes part of the bound."""
    if budget is not None:
        bound = "%s; under %g s" % (bound, budget)

    def register(check):
        @functools.wraps(check)
        def run():
            t0 = time.perf_counter()
            observed, passed = check()
            seconds = time.perf_counter() - t0
            if budget is not None:
                passed = passed and seconds < budget
            return GateResult(cid, name, observed, bound, bool(passed), seconds)

        run.id = cid
        CRITERIA.append(run)
        return run

    return register


_C = PhysicalConstants()


def _spec(alpha=0.0, hbar=1.0):
    return make_superposition(L=50.0, sigma0=1.0, k=0.1, alpha=alpha, hbar=hbar)


@criterion("c01", "non-overlap windows", "10.002/9.606/7.858/4.704 within 0.005", budget=1.0)
def gate_windows():
    spec = _spec()
    cases = {
        "unitary": (None, 10.002),
        "gamma=0.001,T=2": (BathParams(gamma=0.001, T=2.0), 9.606),
        "gamma=0.001,T=15": (BathParams(gamma=0.001, T=15.0), 7.858),
        "gamma=0.01,T=15": (BathParams(gamma=0.01, T=15.0), 4.704),
    }
    got = {
        label: overlap_window("schrodinger" if bath is None else "cl", spec, bath, _C).t_max
        for label, (bath, _) in cases.items()
    }
    return got, all(abs(got[label] - ref) <= 0.005 for label, (_, ref) in cases.items())


@criterion(
    "c02",
    "unitary modular closed form vs characteristic oracle",
    "max abs diff <= 1e-8 over 4 alphas x 50 t",
    budget=10.0,
)
def gate_schrodinger_modular():
    worst = 0.0
    for alpha in (0.0, math.pi / 4, math.pi / 2, math.pi):
        spec = _spec(alpha)
        src = SchrodingerSource(spec, _C)
        for t in np.linspace(0.0, 2.0, 50):
            closed = modular_expectation(spec, _C, float(t))
            oracle = characteristic_modular(src, float(t), spec.L).real
            worst = max(worst, abs(closed - oracle))
    return {"max diff": worst}, worst <= 1e-8


@criterion(
    "c03",
    "dissipative modular closed form vs density-matrix quadrature",
    "relative diff <= 1e-6 over 2 alphas x 3 baths x 21 t",
    budget=60.0,
)
def gate_cl_modular():
    spec0 = _spec()
    worst = 0.0
    for gamma, T in ((0.001, 2.0), (0.001, 5.0), (0.005, 15.0)):
        bath = BathParams(gamma=gamma, T=T)
        # past ~60 decades of decay the coherence peak falls below what any
        # double-precision quadrature can cancel down to; cap the window there
        # (the envelope does not depend on alpha)
        t_hi = 2.0
        if cl_modular_envelope_phase(spec0, bath, _C, t_hi)[0] < 1e-60:
            lo_t, hi_t = 0.0, t_hi
            for _ in range(60):
                mid = 0.5 * (lo_t + hi_t)
                if cl_modular_envelope_phase(spec0, bath, _C, mid)[0] >= 1e-60:
                    lo_t = mid
                else:
                    hi_t = mid
            t_hi = lo_t
        for alpha in (0.0, math.pi / 4):
            spec = _spec(alpha)
            for t in np.linspace(0.0, t_hi, 21):
                closed = cl_modular_closed(spec, bath, _C, float(t))
                quad = cl_modular_quadrature(spec, bath, _C, float(t), spec.L)
                env, _ = cl_modular_envelope_phase(spec, bath, _C, float(t))
                worst = max(worst, abs(closed - quad) / env)
    return {"max relative diff": worst}, worst <= 1e-6


@criterion(
    "c04",
    "governing-equation residuals + coefficient mutation",
    "clean <= 1e-6, ratio in [3.5,4.5], mutated > 1e-3",
)
def gate_pde_residuals():
    spec = _spec(math.pi / 4)
    bath = BathParams(gamma=0.001, T=2.0)
    rep_s = pde_residual("schrodinger", spec, bath, _C)
    rep_cl = pde_residual("cl", spec, bath, _C)
    # coefficient sensitivity: rerun at hbar=2 where a unit misreading is visible
    c2 = PhysicalConstants(hbar=2.0)
    spec2 = _spec(math.pi / 4, hbar=2.0)
    bath2 = BathParams(gamma=0.001, T=2.0, constants=c2)
    rep_clean2 = pde_residual("cl", spec2, bath2, c2)
    rep_mut = pde_residual("cl", spec2, bath2, c2, h_coeff=1.0)
    observed = {
        "schrodinger": rep_s.relative_residual,
        "cl": rep_cl.relative_residual,
        "cl ratio": rep_cl.convergence_ratio,
        "cl hbar=2": rep_clean2.relative_residual,
        "mutated": rep_mut.relative_residual,
    }
    return observed, (
        max(rep_s.relative_residual, rep_cl.relative_residual, rep_clean2.relative_residual)
        <= 1e-6
        and 3.5 <= rep_cl.convergence_ratio <= 4.5
        and rep_mut.relative_residual > 1e-3
    )


@criterion(
    "c05",
    "closed-form trajectories vs ODE integration",
    "unitary <= 1e-6, dissipative <= 1e-5",
)
def gate_trajectories():
    spec = _spec(0.0)
    pA = spec.packetA
    grid = TimeGrid(0.0, 2.0, 101)
    bath = BathParams(gamma=0.1, T=10.0)

    def cl_velocity(x, t):
        return cl_current(spec, bath, _C, x, t) / cl_density(spec, bath, _C, x, t)

    worst_s = worst_cl = 0.0
    for off in (-2.0, 0.0, 2.0):
        X0 = pA.x0 + off * pA.sigma0
        closed = bohmian_trajectory(pA, _C, X0, grid)
        ode = trajectory_ode_oracle(lambda x, t: bohmian_velocity(pA, _C, x, t), X0, grid)
        worst_s = max(worst_s, float(np.max(np.abs(closed.X - ode.X))))
        closed = cl_bohmian_trajectory(pA, bath, _C, X0, grid)
        ode = trajectory_ode_oracle(cl_velocity, X0, grid)
        worst_cl = max(worst_cl, float(np.max(np.abs(closed.X - ode.X))))
    return {"unitary": worst_s, "dissipative": worst_cl}, worst_s <= 1e-6 and worst_cl <= 1e-5


_SUPPORT_REACH = 10.0


def _integrate_supports(f, centers, width):
    """Adaptive quadrature of f over _SUPPORT_REACH widths around each center;
    kept on scipy so that it stays independent of the Gauss-Legendre kernel."""
    from scipy import integrate

    reach = _SUPPORT_REACH * width
    total = 0.0
    for xc in centers:
        val, _ = integrate.quad(f, xc - reach, xc + reach, epsabs=1e-12, epsrel=1e-10, limit=200)
        total += val
    return total


@criterion(
    "c06",
    "local-value decomposition integrates to the global signal",
    "both frameworks <= 1e-6",
)
def gate_local_global():
    spec = _spec(math.pi / 4)
    L = spec.L
    worst_s = 0.0
    for t in (0.5, 1.5):
        # pure state: integral of |Psi|^2 times the local value
        def integrand_s(x, t=t):
            rho, _ = superposed_density_and_current(spec, _C, x, t)
            return rho * local_modular_pointwise(spec, _C, x, t)

        states = [packet_state(p, _C, t) for p in (spec.packetA, spec.packetB)]
        val = _integrate_supports(integrand_s, [s.x_t for s in states], states[0].sigma_t)
        worst_s = max(worst_s, abs(val - modular_expectation(spec, _C, t)))

    bath = BathParams(gamma=0.001, T=2.0)
    worst_cl = 0.0
    for t in (0.5, 0.8, 1.5):
        parts = _term_parts(spec, bath, _C, t)

        # rho(x, x) times the local value Re[rho(x+L, x) + rho(x-L, x)] / (2 rho(x, x))
        def integrand_cl(x, parts=parts):
            up, dn = _eval_parts(parts, L, x + L / 2.0), _eval_parts(parts, -L, x - L / 2.0)
            return 0.5 * complex(up + dn).real

        states = [cl_packet_state(p, bath, _C, t) for p in (spec.packetA, spec.packetB)]
        val = _integrate_supports(integrand_cl, [s.x_t for s in states], states[0].w_t)
        worst_cl = max(worst_cl, abs(val - cl_modular_quadrature(spec, bath, _C, t, L)))
    return {"unitary": worst_s, "dissipative": worst_cl}, worst_s <= 1e-6 and worst_cl <= 1e-6


@criterion(
    "c07",
    "expectation-value evolution equation",
    "dissipative residual <= 1e-5; unitary limit <= 1e-7",
)
def gate_heisenberg():
    spec = _spec(math.pi / 4)
    worst = 0.0
    for gamma, T in ((0.001, 2.0), (0.005, 15.0)):
        bath = BathParams(gamma=gamma, T=T)
        for t in np.linspace(0.1, 1.9, 10):
            worst = max(worst, heisenberg_rhs_check(spec, bath, _C, float(t)).relative_residual)
    unitary = heisenberg_rhs_check(spec, BathParams(gamma=0.0, T=2.0), _C, 1.0).relative_residual
    return {"dissipative": worst, "unitary": unitary}, worst <= 1e-5 and unitary <= 1e-7


@criterion(
    "c08",
    "density-matrix trace, Hermiticity, positive diagonal",
    "|trace-1| <= 1e-8, Hermiticity defect <= 1e-10, diagonal >= 0",
)
def gate_density_sanity():
    # every (T, alpha) set of the figure defaults, plus four baths at alpha = pi/4
    cases = [
        (cfg.superposition(alpha), cfg.bath(T), cfg.constants())
        for cfg in FIGURE_DEFAULTS.values()
        for T in cfg.temperatures
        for alpha in cfg.alphas
    ]
    cases += [
        (_spec(math.pi / 4), BathParams(gamma=gamma, T=T), _C)
        for gamma, T in ((0.1, 10.0), (0.001, 2.0), (0.001, 5.0), (0.005, 15.0))
    ]
    rs = np.array([-50.0, -25.0, -2.0, -0.5, 0.0, 0.5, 2.0, 25.0, 50.0])[:, None]
    worst_trace = worst_herm = 0.0
    min_diag = math.inf
    for spec, bath, c in cases:
        for t in (0.0, 1.0, 2.0):
            worst_trace = max(worst_trace, abs(cl_modular_quadrature(spec, bath, c, t, 0.0) - 1.0))
            for n_x in (81, 161):
                xs = np.linspace(-40.0, 40.0, n_x)
                rho_p = density_matrix_rR(spec, bath, c, rs, xs[None, :], t)
                rho_m = density_matrix_rR(spec, bath, c, -rs, xs[None, :], t)
                worst_herm = max(worst_herm, float(np.max(np.abs(rho_p - np.conj(rho_m)))))
                min_diag = min(min_diag, float(np.min(cl_density(spec, bath, c, xs, t))))
    observed = {"trace": worst_trace, "hermiticity": worst_herm, "min diagonal": min_diag}
    return observed, worst_trace <= 1e-8 and worst_herm <= 1e-10 and min_diag >= 0.0


@criterion(
    "c09",
    "dissipative-to-unitary continuum limit",
    "halving-gamma error ratios = 2 +- 0.2",
)
def gate_continuum_limit():
    spec = _spec(math.pi / 4)
    gammas = (1e-3, 5e-4, 2.5e-4)
    # sample before the gamma-linear decoherence exponent saturates the
    # difference (exponent <= 0.25 at the largest gamma), else the error
    # plateaus at the unitary signal size and the halving ratio collapses
    rate = 2.0 * gammas[0] * _C.kB * 2.0 * spec.L**2 / _C.hbar**2
    ts = np.linspace(0.0, 0.25 / rate, 16)
    sch = modular_expectation(spec, _C, ts)
    errs = []
    for gamma in gammas:
        cl = cl_modular_closed(spec, BathParams(gamma=gamma, T=2.0), _C, ts)
        errs.append(float(np.max(np.abs(cl - sch))))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    return {"ratio 1": r1, "ratio 2": r2}, abs(r1 - 2.0) <= 0.2 and abs(r2 - 2.0) <= 0.2


@criterion(
    "c10",
    "exchange-statistics expectation vs product-term quadrature",
    "|closed - oracle| <= 1e-12 for BE and FD at companions A, B, far, wide and 3 seeded",
)
def gate_two_particle():
    spec = _spec(math.pi / 4)
    pA, pB = spec.packetA, spec.packetB
    a, b = 1.0 / math.sqrt(2.0), cmath.exp(1j * spec.alpha) / math.sqrt(2.0)
    rng = np.random.default_rng(10)
    # the superposed packets, a far packet, a packet wide enough that
    # <chi|T_L|chi> is not negligible, and narrow packets
    companions = [pA, pB, GaussianPacket(10.0 * spec.L, 0.0, 1.0), GaussianPacket(0.0, 0.0, 20.0)]
    lo, hi = (-spec.L, -1.0, 0.3), (spec.L, 1.0, 3.0)
    companions += [GaussianPacket(*rng.uniform(lo, hi)) for _ in range(3)]
    worst = 0.0
    for chi in companions:
        for kind, sign in ((StatisticsKind.BE, 1.0), (StatisticsKind.FD, -1.0)):
            # psi (x) chi + sign chi (x) psi as product terms, psi = a A + b B
            terms = [(a, pA, chi), (b, pB, chi), (sign * a, chi, pA), (sign * b, chi, pB)]
            oracle = two_particle_translation(terms, spec.L, _C)
            worst = max(worst, abs(modular_indistinguishable(spec, chi, kind, _C) - oracle))
    return {"max |closed - oracle|": worst}, worst <= 1e-12


@criterion(
    "c11",
    "temperature enters envelope only; initial frequency",
    "phase spread <= 1e-12, envelope decreasing in T at t > 0, freq within 1%",
)
def gate_temperature_phase():
    gamma = 0.005
    baths = [BathParams(gamma=gamma, T=T) for T in (2.0, 5.0, 15.0)]
    h = 1e-6
    worst_phase = worst_freq = 0.0
    worst_ratio = 0.0  # largest envelope ratio between successive temperatures
    for alpha in (0.0, math.pi / 2):
        spec = _spec(alpha)
        for t in (0.0, 0.5, 1.0, 2.0):
            envs, phases = zip(*(reduced_modular_components(spec, b, _C, t) for b in baths))
            worst_phase = max(worst_phase, max(phases) - min(phases))
            if t > 0.0:
                worst_ratio = max(worst_ratio, envs[1] / envs[0], envs[2] / envs[1])
        # initial frequency by forward difference at the lowest and highest T
        omega0 = initial_phase_rate(spec, baths[0], _C)
        for b in (baths[0], baths[2]):
            phi_h = reduced_modular_components(spec, b, _C, 2.0 * h)[1]
            phi_0 = reduced_modular_components(spec, b, _C, 0.0)[1]
            worst_freq = max(worst_freq, abs(-(phi_h - phi_0) / (2.0 * h) - omega0) / abs(omega0))
    observed = {
        "phase spread": worst_phase,
        "max envelope ratio": worst_ratio,
        "freq relative error": worst_freq,
    }
    return observed, worst_phase <= 1e-12 and worst_ratio < 1.0 and worst_freq <= 0.01


@criterion(
    "c12",
    "local quantities blind to the relative phase",
    "density/current alpha-differences <= 1e-12; l1 coherence diff <= e0 + e1 + 1e-12",
)
def gate_phase_blindness():
    specs = [_spec(alpha) for alpha in (0.0, math.pi / 4, math.pi / 2, math.pi)]
    bath = BathParams(gamma=0.001, T=2.0)
    worst = 0.0
    for n_x in (161, 201):
        xs = np.linspace(-40.0, 40.0, n_x)
        for t in (0.0, 1.0, 2.0):
            local = np.array([
                [
                    *superposed_density_and_current(spec, _C, xs, t),
                    cl_density(spec, bath, _C, xs, t),
                    cl_current(spec, bath, _C, xs, t),
                ]
                for spec in specs
            ])
            # peak-to-peak over alpha: the largest difference between any two offsets
            worst = max(worst, float(np.ptp(local, axis=0).max()))
    c0, e0 = l1_coherence(specs[0], bath, _C, 1.0)
    c1, e1 = l1_coherence(specs[2], bath, _C, 1.0)
    observed = {"max local diff": worst, "coherence diff": abs(c0 - c1), "quad err": e0 + e1}
    return observed, worst <= 1e-12 and abs(c0 - c1) <= e0 + e1 + 1e-12


@criterion(
    "c13",
    "spectral propagation vs closed-form state",
    "L2 error <= 1e-6, norm drift <= 1e-10, 4000/8000-step error ratio in [3,5]",
    budget=60.0,
)
def gate_grid_propagator():
    spec = _spec(math.pi / 4)
    fine = grid_propagator(spec, _C)  # the convergence-studied default resolution
    coarse = grid_propagator(spec, _C, GridSpec(n_steps=4000))
    err, err_coarse = (
        l2_error(r.x, r.psi, superposed_amplitude(spec, _C, r.x, 2.0)) for r in (fine, coarse)
    )
    # halving the step count must show the second-order splitting defect
    ratio = err_coarse / err
    observed = {"L2": err, "norm drift": fine.norm_drift, "coarse/fine ratio": ratio}
    return observed, err <= 1e-6 and fine.norm_drift <= 1e-10 and 3.0 <= ratio <= 5.0


def _golden_dir():
    """MODVAR_GOLDEN_DIR, else the checkout's tests/data/golden_figs (found
    from this file's location, not the working directory)."""
    env = os.environ.get("MODVAR_GOLDEN_DIR")
    if env:
        return env
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    return os.path.join(root, "tests", "data", "golden_figs")


@criterion(
    "c14",
    "figure CSV regression",
    "every figure file byte-identical to its golden copy",
)
def gate_figure_regression():
    golden = _golden_dir()
    files = differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("fig1", "fig2", "fig3", "fig4"):
            for path in generate_figure(name, replace(FIGURE_DEFAULTS[name], out=tmp)):
                files += 1
                ref = os.path.join(golden, os.path.basename(path))
                # a missing golden copy counts as a difference
                if not os.path.exists(ref):
                    differing += 1
                    continue
                with open(path, "rb") as new, open(ref, "rb") as old:
                    differing += new.read() != old.read()
    return {"files": files, "differing": differing}, differing == 0


# the fast suite leaves out c13 (spectral propagation) and c14 (figure regression)
SUITES = {"fast": CRITERIA[:12], "full": CRITERIA}


def format_result(r: GateResult) -> str:
    observed = ", ".join("%s %.6g" % item for item in r.observed.items())
    return "[%s] %-55s %8.2fs  %s  (gate: %s)" % (
        "PASS" if r.passed else "FAIL", r.name, r.seconds, observed, r.bound,
    )


def run_suite(suite: str = "fast") -> int:
    """Run the requested criteria; report one line per criterion to stderr
    and return a process exit code."""
    results = [check() for check in SUITES[suite]]
    for r in results:
        sys.stderr.write(format_result(r) + "\n")
    passed = sum(r.passed for r in results)
    sys.stderr.write("%d/%d gates passed (%s suite)\n" % (passed, len(results), suite))
    return 0 if passed == len(results) else 1

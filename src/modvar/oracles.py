"""Independent numerical validation of every closed form in the package:
composite Gauss-Legendre quadrature of the characteristic function,
translated momentum moments, the expectation-value evolution check, PDE
residuals, ODE trajectory integration, the moment-ODE non-overlap window,
and a spectral grid propagator.

These routines never reuse the closed-form answers they test; they
integrate, differentiate, or propagate from more primitive definitions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .params import (
    BathParams,
    ParameterError,
    PhysicalConstants,
    SuperpositionSpec,
    TimeGrid,
)
from .schrodinger import (
    BohmianTrajectory,
    DomainError,
    _superposed_amplitude_dx,
    packet_state,
    superposed_amplitude,
)
from .caldeira_leggett import (
    QuadratureError,
    _center_width,
    _eval_parts,
    _eval_parts_dr,
    _gl_line_integral,
    _term_parts,
)


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of a finite-difference consistency check."""

    max_abs_residual: float
    relative_residual: float
    steps: tuple
    convergence_ratio: float


@dataclass(frozen=True)
class SchrodingerSource:
    """Pure-state source: the two-packet superposition."""

    spec: SuperpositionSpec
    c: PhysicalConstants

    def centers_width(self, t):
        states = [packet_state(p, self.c, t) for p in (self.spec.packetA, self.spec.packetB)]
        return [st.x_t for st in states], max(st.sigma_t for st in states)

    def line(self, r, t, d_dr=False):
        """Integrand x -> Psi*(x) Psi(x + r) of chi(r, t) (its r-derivative
        when d_dr), with the peaks and width that place the quadrature."""
        spec, c = self.spec, self.c
        centers, width = self.centers_width(t)
        shifted = _superposed_amplitude_dx if d_dr else superposed_amplitude

        def f(x):
            return np.conj(superposed_amplitude(spec, c, x, t)) * shifted(spec, c, x + r, t)

        return f, centers + [xc - r for xc in centers], width


@dataclass(frozen=True)
class CLSource:
    """Dissipative source: analytic density matrix of the superposition."""

    spec: SuperpositionSpec
    bath: BathParams
    c: PhysicalConstants

    def line(self, r, t, d_dr=False):
        """Integrand R -> rho(r, R, t) of chi(r, t) (its r-derivative when
        d_dr), with the term peaks and width that place the quadrature."""
        parts = _term_parts(self.spec, self.bath, self.c, t)
        evaluate = _eval_parts_dr if d_dr else _eval_parts
        peaks = [beta.imag for (_, _, beta) in parts[3]]
        return (lambda R: evaluate(parts, r, R)), peaks, parts[0]


Source = SchrodingerSource | CLSource


def _chi(source: Source, r: float, t: float, d_dr: bool = False):
    """(chi(r, t), error estimate), chi(r, t) = integral over R of
    rho(r, R, t), by the composite Gauss-Legendre kernel; its r-derivative
    when d_dr.  For pure states rho(r, R) = Psi(R + r/2) Psi*(R - r/2)."""
    return _gl_line_integral(*source.line(r, t, d_dr))


def characteristic_modular(source: Source, t: float, ell: float) -> complex:
    """<e^{i p ell / hbar}> by quadrature of the characteristic function."""
    val, err = _chi(source, ell, t)
    if err > 1e-8:
        raise QuadratureError("characteristic quadrature error %.3g" % err)
    return val


def modular_via_momentum_grid(spec, c, t: float, ell: float) -> complex:
    """Cross-check route: discrete-Fourier momentum distribution of the pure
    state on 2^14 points, then <e^{i p ell / hbar}> as a momentum-space sum."""
    n = 2**14
    src = SchrodingerSource(spec, c)
    centers, width = src.centers_width(t)
    # box span must exceed twice the translation length: the p-density of a
    # two-packet state carries fringes at dual position +-L, and the weighted
    # sum has components out to 2 ell that alias back through the DFT period
    pad = 20.0 * width + abs(ell)
    lo = min(centers) - pad
    hi = max(centers) + pad
    x = np.linspace(lo, hi, n, endpoint=False)
    dx = x[1] - x[0]
    psi = superposed_amplitude(spec, c, x, t)
    # momentum grid of the DFT with hbar folded in
    p = 2.0 * math.pi * c.hbar * np.fft.fftfreq(n, d=dx)
    psi_p = np.fft.fft(psi) * dx / math.sqrt(2.0 * math.pi * c.hbar)
    prob = np.abs(psi_p) ** 2
    dp = 2.0 * math.pi * c.hbar / (n * dx)
    norm = prob.sum() * dp
    return complex((prob * np.exp(1j * p * ell / c.hbar)).sum() * dp / norm)


def momentum_first_moment_translated(
    source: Source, t: float, ell: float, method: str = "analytic"
) -> complex:
    """<p e^{i p ell / hbar}> = (hbar/i) d chi / d r at r = ell.

    method="fd" replaces the integrand derivative by Richardson central
    differences of chi itself; the two must agree closely.
    """
    hbar = source.c.hbar
    if method == "analytic":
        val, err = _chi(source, ell, t, d_dr=True)
        if err > 1e-8:
            raise QuadratureError("moment quadrature error %.3g" % err)
        return (hbar / 1j) * val
    if method != "fd":
        raise ParameterError("method must be 'analytic' or 'fd'")
    h = 1e-4
    d_h = (_chi(source, ell + h, t)[0] - _chi(source, ell - h, t)[0]) / (2.0 * h)
    d_h2 = (_chi(source, ell + h / 2, t)[0] - _chi(source, ell - h / 2, t)[0]) / h
    rich = (4.0 * d_h2 - d_h) / 3.0
    if abs(rich - d_h2) > 1e-6 * max(1.0, abs(rich)):
        raise QuadratureError("derivative estimate not converged")
    return (hbar / 1j) * rich


def _time_derivative_sweep(f: Callable[[float], complex], t: float, h0: float = 1e-3):
    """Central-difference df/dt with automatic step refinement.

    Halves the step while each difference of successive estimates is at
    most half the one before.  The first estimate that breaks this sits on
    the round-off floor and is discarded: returns (last converged estimate,
    its step, convergence ratio of the last clean pair of differences).
    """
    h = best_h = h0
    best = (f(t + h) - f(t - h)) / (2.0 * h)
    diffs = []
    for _ in range(9):
        h *= 0.5
        est = (f(t + h) - f(t - h)) / (2.0 * h)
        d = abs(est - best)
        if d == 0.0 or (diffs and d > 0.5 * diffs[-1]):
            break
        best, best_h = est, h
        diffs.append(d)
    ratio = diffs[-2] / diffs[-1] if len(diffs) >= 2 else float("nan")
    return best, best_h, ratio


def heisenberg_rhs_check(
    spec: SuperpositionSpec, b: BathParams, c: PhysicalConstants, t: float
) -> ResidualReport:
    """Check d/dt <e^{i p L / hbar}> against
    (-i m g L / hbar - D L^2 / hbar^2) <e^{i p L / hbar}>
      - 2 gamma i (L / hbar) <p e^{i p L / hbar}>,
    all expectations taken on the analytic density matrix by quadrature."""
    L, hbar = spec.L, c.hbar
    source = CLSource(spec, b, c)

    lhs, step, ratio = _time_derivative_sweep(lambda s: _chi(source, L, s)[0], t)
    chi = _chi(source, L, t)[0]
    mom = momentum_first_moment_translated(source, t, L)
    term1 = (-1j * c.m * c.g * L / hbar - b.D * L**2 / hbar**2) * chi
    term2 = -2.0 * b.gamma * 1j * (L / hbar) * mom
    rhs = term1 + term2
    resid = abs(lhs - rhs)
    scale = max(abs(term1), abs(term2), abs(lhs), 1e-30)
    return ResidualReport(
        max_abs_residual=resid,
        relative_residual=resid / scale,
        steps=(step,),
        convergence_ratio=ratio,
    )


def _sample_supports(framework, spec, b, c, n, t_max=2.0, seed=7):
    """Deterministic sample points inside the evolving packet supports, as
    arrays: (x, t) for "schrodinger" and (r, R, t) for "cl"."""
    rng = np.random.default_rng(seed)
    # one row of draws per point: t, packet choice, R (or x) offset, r
    u = rng.random((n, 3 if framework == "schrodinger" else 4))
    t = 0.05 + (t_max - 0.05) * u[:, 0]
    in_a = u[:, 1] < 0.5
    offset = -2.0 + 4.0 * u[:, 2]
    if framework == "schrodinger":
        st_a, st_b = (packet_state(p, c, t) for p in (spec.packetA, spec.packetB))
        x_t = np.where(in_a, st_a.x_t, st_b.x_t)
        return x_t + offset * np.where(in_a, st_a.sigma_t, st_b.sigma_t), t
    (x_a, w_a, _), (x_b, w_b, _) = (
        _center_width(p, b.gamma, b.D, c, t) for p in (spec.packetA, spec.packetB)
    )
    R = np.where(in_a, x_a, x_b) + offset * np.where(in_a, w_a, w_b)
    r = (-3.0 + 6.0 * u[:, 3]) * spec.sigma0
    return r, R, t


def _schrodinger_terms(spec, c, x, t, h):
    """Terms of i hbar psi_t + hbar^2/(2m) psi_xx - m g x psi at the points
    (x, t), by central differences of step h."""
    def psi(xx, tt):
        return superposed_amplitude(spec, c, xx, tt)

    # phase rotates at rate ~ m|g x|/hbar, much faster than the spatial
    # scales; the time stencil needs a finer step than the space stencil
    ht = 0.1 * h
    p_t = (psi(x, t + ht) - psi(x, t - ht)) / (2.0 * ht)
    val = psi(x, t)
    p_xx = (psi(x + h, t) - 2.0 * val + psi(x - h, t)) / (h * h)
    return 1j * c.hbar * p_t, c.hbar**2 * p_xx / (2.0 * c.m), -c.m * c.g * x * val


def _cl_terms(spec, b, c, r, R, t, h, h_coeff):
    """Terms of the CL master equation at the points (r, R, t), by central
    differences of step h on the solution built with h_coeff."""
    parts = _term_parts(spec, b, c, t, h_coeff)
    rho = functools.partial(_eval_parts, parts)

    r_t = (
        _eval_parts(_term_parts(spec, b, c, t + h, h_coeff), r, R)
        - _eval_parts(_term_parts(spec, b, c, t - h, h_coeff), r, R)
    ) / (2.0 * h)
    r_r = (rho(r + h, R) - rho(r - h, R)) / (2.0 * h)
    r_rR = (
        rho(r + h, R + h) - rho(r + h, R - h) - rho(r - h, R + h) + rho(r - h, R - h)
    ) / (4.0 * h * h)
    val = rho(r, R)
    return (
        r_t,
        -(1j * c.hbar / c.m) * r_rR,
        2.0 * b.gamma * r * r_r,
        (b.D / c.hbar**2) * r * r * val,
        -(c.m * c.g / (1j * c.hbar)) * r * val,
    )


def pde_residual(
    framework: str,
    spec: SuperpositionSpec,
    b: BathParams,
    c: PhysicalConstants,
    h_coeff: float | None = None,
) -> ResidualReport:
    """Finite-difference residual of the governing equation on the analytic
    solution, at 40 seeded points inside the packet supports.

    framework "schrodinger": i hbar psi_t + hbar^2/(2m) psi_xx - m g x psi.
    framework "cl": rho_t - (i hbar/m) rho_rR + 2 gamma r rho_r
                    + (D/hbar^2) r^2 rho - (m g/(i hbar)) r rho.
    Reports the worst relative residual and the step-halving convergence
    ratio of the residual maxima.  h_coeff (cl only) evaluates the solution
    with one coefficient's hbar replaced, to show the check can fail.
    """
    if framework not in ("schrodinger", "cl"):
        raise ParameterError("framework must be 'schrodinger' or 'cl'")
    points = _sample_supports(framework, spec, b, c, 40)

    def worst(h):
        if framework == "schrodinger":
            terms = _schrodinger_terms(spec, c, *points, h)
        else:
            terms = _cl_terms(spec, b, c, *points, h, h_coeff)
        resid = np.abs(sum(terms))
        scale = np.maximum(np.abs(terms).max(axis=0), 1e-30)
        return float(resid.max()), float((resid / scale).max())

    step = 1e-4
    abs_h, rel_h = worst(step)
    abs_2h, _ = worst(2.0 * step)
    ratio = abs_2h / abs_h if abs_h > 0 else float("inf")
    return ResidualReport(
        max_abs_residual=abs_h,
        relative_residual=rel_h,
        steps=(step, 2.0 * step),
        convergence_ratio=ratio,
    )


def trajectory_ode_oracle(
    velocity_field: Callable[[float, float], float], X0: float, grid: TimeGrid
) -> BohmianTrajectory:
    """Integrate dX/dt = v(X, t) with tight adaptive error control."""
    from scipy import integrate

    ts = grid.times()
    sol = integrate.solve_ivp(
        lambda t, y: [velocity_field(y[0], t)],
        (ts[0], ts[-1]),
        [X0],
        method="DOP853",
        t_eval=ts,
        rtol=1e-10,
        atol=1e-12,
    )
    if not sol.success:
        raise RuntimeError("trajectory integration failed: %s" % sol.message)
    return BohmianTrajectory(X0=X0, samples=np.column_stack([sol.t, sol.y[0]]))


_WINDOW_CAP = 100.0


def moment_ode_window(
    spec: SuperpositionSpec,
    b: BathParams | None,
    c: PhysicalConstants,
    support_factor: float = 5.0,
) -> float:
    """Non-overlap window from the Caldeira-Leggett second-moment equations.

    Integrates, for both packets,

        x' = p/m,  p' = -m g - 2 gamma p,
        Sxx' = 2 Sxp/m,  Sxp' = Spp/m - 2 gamma Sxp,  Spp' = -4 gamma Spp + 2 D

    from Sxx = sigma0^2, Sxp = 0, Spp = hbar^2/(4 sigma0^2), and stops at the
    first root of the gap (x_A + s sqrt(Sxx_A)) - (x_B - s sqrt(Sxx_B)).
    b = None is the unitary limit (gamma = D = 0).  The two-particle
    (common-bath) window is the single-packet window at rate 2 gamma with D
    unchanged: a bath BathParams(2 gamma, T/2) carries the same D.
    """
    from scipy import integrate

    m, hbar, g = c.m, c.hbar, c.g
    gamma = 0.0 if b is None else b.gamma
    D = 0.0 if b is None else b.D
    s = support_factor

    def rhs(_t, y):
        out = np.empty(10)
        for i in (0, 5):
            x, mom, sxx, sxp, spp = y[i:i + 5]
            out[i:i + 5] = (
                mom / m,
                -m * g - 2.0 * gamma * mom,
                2.0 * sxp / m,
                spp / m - 2.0 * gamma * sxp,
                -4.0 * gamma * spp + 2.0 * D,
            )
        return out

    def gap(_t, y):
        return (y[0] + s * math.sqrt(y[2])) - (y[5] - s * math.sqrt(y[7]))

    gap.terminal = True
    gap.direction = 1.0

    y0 = []
    for p in (spec.packetA, spec.packetB):
        y0 += [p.x0, p.p0, p.sigma0**2, 0.0, hbar**2 / (4.0 * p.sigma0**2)]
    if gap(0.0, y0) >= 0.0:
        raise DomainError("packets already overlap at t = 0 for this support factor")
    sol = integrate.solve_ivp(
        rhs, (0.0, _WINDOW_CAP), y0, method="DOP853", events=gap, rtol=1e-12, atol=1e-12
    )
    if not sol.success:
        raise RuntimeError("moment integration failed: %s" % sol.message)
    if sol.t_events[0].size == 0:
        raise DomainError("supports stay disjoint up to t = %g" % _WINDOW_CAP)
    return float(sol.t_events[0][0])


@dataclass(frozen=True)
class GridSpec:
    """Resolution of the spectral propagation oracle."""

    n_points: int = 4096
    t_final: float = 2.0
    n_steps: int = 8000


@dataclass(frozen=True)
class GridPropagation:
    """Propagated state with conservation diagnostics."""

    x: np.ndarray
    psi: np.ndarray
    norm_drift: float
    boundary_peak: float
    dt: float


def _propagation_box(spec, c, t_final):
    """Domain covering every classical center over [0, t_final] plus tails."""
    ts = np.linspace(0.0, t_final, 65)
    centers = []
    for p in (spec.packetA, spec.packetB):
        centers.append(p.x0 + p.p0 * ts / c.m - 0.5 * c.g * ts**2)
    centers = np.concatenate(centers)
    sigma_max = packet_state(spec.packetA, c, t_final).sigma_t
    return float(centers.min() - 15.0 * sigma_max), float(centers.max() + 15.0 * sigma_max)


def grid_propagator(
    spec: SuperpositionSpec, c: PhysicalConstants, grid: GridSpec = GridSpec()
) -> GridPropagation:
    """Propagate the initial superposition by n_steps second-order Strang
    steps S = V K(k) V: a half kick V = exp(-i a x), a = m g dt / (2 hbar),
    around the free step K(k) = exp(-i hbar k^2 dt / (2 m)) on the discrete
    Fourier grid.

    The potential is linear, so a kick shifts momentum, K(k) V = V K(k - a).
    Moving every kick to the left gives the same product in closed order,

        S^N = exp(-2iNa x) prod_{j<N} K(k - (2j+1) a),
        sum_{j<N} (k - (2j+1) a)^2 = N k^2 - 2aN^2 k + a^2 N (4N^2 - 1)/3
                                   = N (k - Na)^2 + a^2 N (N^2 - 1)/3,

    so N steps cost one FFT of the initial state and one inverse FFT.  The
    state is formed that way at each conservation checkpoint.  The midpoint
    sum keeps the splitting defect, a c-number phase of order dt^2 per unit
    time."""
    lo, hi = _propagation_box(spec, c, grid.t_final)
    n = grid.n_points
    x = np.linspace(lo, hi, n, endpoint=False)
    dx = x[1] - x[0]
    kx = 2.0 * math.pi * np.fft.fftfreq(n, d=dx)
    dt = grid.t_final / grid.n_steps
    a = c.m * c.g * dt / (2.0 * c.hbar)

    psi0 = superposed_amplitude(spec, c, x, 0.0)
    spectrum = np.fft.fft(psi0)
    norm0 = math.sqrt(float(np.sum(np.abs(psi0) ** 2)) * dx)
    worst_norm = 0.0
    worst_edge = 0.0
    check_every = max(1, grid.n_steps // 100)
    for steps in [*range(check_every, grid.n_steps, check_every), grid.n_steps]:
        kick_sum = steps * (kx - steps * a) ** 2 + a**2 * steps * (steps**2 - 1) / 3.0
        psi = np.fft.ifft(np.exp(-1j * c.hbar * dt / (2.0 * c.m) * kick_sum) * spectrum)
        dens = np.abs(psi) ** 2
        norm = math.sqrt(float(dens.sum()) * dx)
        worst_norm = max(worst_norm, abs(norm - norm0))
        edge = float(max(dens[:8].max(), dens[-8:].max()))
        worst_edge = max(worst_edge, edge)
        if edge > 1e-12:
            raise DomainError(
                "boundary density %.3g exceeds 1e-12; enlarge the box" % edge
            )
    psi = np.exp(-2j * grid.n_steps * a * x) * psi
    return GridPropagation(x=x, psi=psi, norm_drift=worst_norm, boundary_peak=worst_edge, dt=dt)


def l2_error(x: np.ndarray, psi_a: np.ndarray, psi_b: np.ndarray) -> float:
    """Discrete L2 distance between two sampled wavefunctions."""
    dx = x[1] - x[0]
    return math.sqrt(float(np.sum(np.abs(psi_a - psi_b) ** 2)) * dx)

"""Independent numerical routes (quadrature, finite differences, spectral
propagation) that the closed forms are held against."""

import math

import numpy as np
import pytest

from conftest import BASE, base_constants, base_spec, golden_record, make_bath
from modvar import oracles
from modvar.caldeira_leggett import (
    cl_bohmian_trajectory,
    cl_current,
    cl_density,
    cl_modular_closed,
)
from modvar.oracles import (
    CLSource,
    GridSpec,
    SchrodingerSource,
    characteristic_modular,
    grid_propagator,
    heisenberg_rhs_check,
    l2_error,
    modular_via_momentum_grid,
    moment_ode_window,
    momentum_first_moment_translated,
    pde_residual,
    trajectory_ode_oracle,
    _time_derivative_sweep,
)
from modvar.params import (
    BathParams,
    ParameterError,
    PhysicalConstants,
    TimeGrid,
    make_superposition,
    scaled_time_tau,
)
from modvar.schrodinger import (
    DomainError,
    bohmian_trajectory,
    bohmian_velocity,
    modular_expectation,
    superposed_amplitude,
)
from modvar.windows import overlap_window, two_particle_window


def test_characteristic_normalization():
    # chi(0, t) is the trace in both frameworks
    c = base_constants()
    spec = base_spec(math.pi / 4)
    for src in (SchrodingerSource(spec, c), CLSource(spec, make_bath(0.001, 2.0), c)):
        for t in (0.0, 1.3):
            assert characteristic_modular(src, t, 0.0) == pytest.approx(1.0, abs=1e-10)


def test_characteristic_matches_closed_unitary():
    c = base_constants()
    for alpha in (0.0, math.pi / 2):
        spec = base_spec(alpha)
        src = SchrodingerSource(spec, c)
        for t in (0.0, 0.7, 1.6):
            got = characteristic_modular(src, t, spec.L)
            assert got.real == pytest.approx(modular_expectation(spec, c, t), abs=1e-8)


def test_characteristic_matches_closed_dissipative():
    c = base_constants()
    spec = base_spec(math.pi / 4)
    b = make_bath(0.001, 2.0)
    src = CLSource(spec, b, c)
    for t in (0.0, 0.8, 1.6):
        plus = characteristic_modular(src, t, spec.L)
        minus = characteristic_modular(src, t, -spec.L)
        # the two displacement directions are conjugate
        assert abs(minus - plus.conjugate()) < 1e-12
        got = 0.5 * (plus + minus).real
        assert got == pytest.approx(cl_modular_closed(spec, b, c, t), abs=1e-10)


def test_momentum_grid_route_matches_quadrature():
    c = base_constants()
    spec = base_spec(math.pi / 4)
    src = SchrodingerSource(spec, c)
    for t in (0.0, 0.5):
        grid_val = modular_via_momentum_grid(spec, c, t, spec.L)
        quad_val = characteristic_modular(src, t, spec.L)
        assert abs(grid_val - quad_val) < 1e-8


def test_momentum_moment_matches_recorded_fd(goldens):
    params = {**BASE, "alpha": 0.0, "t": 1.0, "ell": 50.0}
    (re_ref, im_ref), _oracle, tol = golden_record(
        goldens, "momentum_first_moment_translated", params
    )
    src = SchrodingerSource(base_spec(0.0), base_constants())
    got = momentum_first_moment_translated(src, 1.0, 50.0)
    assert got.real == pytest.approx(re_ref, abs=tol)
    assert got.imag == pytest.approx(im_ref, abs=tol)
    # the Richardson fallback agrees with the integrand derivative
    fd = momentum_first_moment_translated(src, 1.0, 50.0, method="fd")
    assert abs(got - fd) < 1e-7 * max(1.0, abs(got))
    with pytest.raises(ParameterError):
        momentum_first_moment_translated(src, 1.0, 50.0, method="spline")


def test_momentum_moment_zero_translation_is_classical():
    # at ell = 0 the moment reduces to <p>, which follows the classical
    # damped-fall solution
    c = base_constants()
    spec = base_spec(math.pi / 4)
    t = 0.8
    src = SchrodingerSource(spec, c)
    want = 0.5 * c.hbar * spec.k - c.m * c.g * t
    got = momentum_first_moment_translated(src, t, 0.0)
    assert got == pytest.approx(want, abs=1e-9)
    b = make_bath(0.005, 15.0)
    src_cl = CLSource(spec, b, c)
    want_cl = 0.5 * c.hbar * spec.k * math.exp(-2.0 * b.gamma * t) - c.m * c.g * scaled_time_tau(
        b.gamma, t
    )
    got_cl = momentum_first_moment_translated(src_cl, t, 0.0)
    assert got_cl == pytest.approx(want_cl, abs=1e-9)


def test_expectation_evolution_residual():
    c = base_constants()
    spec = base_spec(math.pi / 4)
    for gamma, T in ((0.001, 2.0), (0.005, 15.0)):
        b = make_bath(gamma, T)
        for t in (0.3, 0.9, 1.5):
            rep = heisenberg_rhs_check(spec, b, c, t)
            assert rep.relative_residual < 1e-5


def test_expectation_evolution_unitary_limit():
    rep = heisenberg_rhs_check(base_spec(math.pi / 4), make_bath(0.0, 2.0), base_constants(), 1.0)
    assert rep.relative_residual < 1e-7


def test_derivative_sweep_returns_last_converged_estimate():
    # f'(t) = 0.75 with central-difference error h^2; below h = 1e-5 a
    # 1e-9 step in f makes the difference of successive estimates jump
    t = 0.5

    def f(s):
        return s**3 + (1e-9 if 0.0 < s - t < 1e-5 else 0.0)

    est, step, ratio = _time_derivative_sweep(f, t)
    assert step == pytest.approx(1e-3 / 2**6)
    assert abs(est - 0.75) <= 2.0 * step**2
    assert ratio == pytest.approx(4.0, rel=0.01)


def test_expectation_evolution_residual_at_recorded_point():
    # a seeded point where the sweep used to return the round-off estimate
    # and the relative residual read 6.4e-4
    spec = base_spec(4.111152314096068)
    b = make_bath(0.0013150100478055804, 7.145275543430335)
    rep = heisenberg_rhs_check(spec, b, base_constants(), 0.3890678829431714)
    assert rep.relative_residual < 1e-5


def test_wave_equation_residual():
    spec = base_spec(math.pi / 4)
    rep = pde_residual("schrodinger", spec, make_bath(0.001, 2.0), base_constants())
    assert rep.relative_residual < 1e-6


def test_density_matrix_equation_residual():
    spec = base_spec(math.pi / 4)
    rep = pde_residual("cl", spec, make_bath(0.001, 2.0), base_constants())
    assert rep.relative_residual < 1e-6
    # halving the stencil quarters the defect
    assert 3.5 < rep.convergence_ratio < 4.5


def test_residual_flags_misplaced_constant():
    # at hbar = 2 a coefficient silently read as 1 must light up
    c2 = PhysicalConstants(hbar=2.0)
    spec2 = make_superposition(L=50.0, sigma0=1.0, k=0.1, alpha=math.pi / 4, hbar=2.0)
    b2 = BathParams(gamma=0.001, T=2.0, constants=c2)
    clean = pde_residual("cl", spec2, b2, c2)
    assert clean.relative_residual < 1e-6
    mutated = pde_residual("cl", spec2, b2, c2, h_coeff=1.0)
    assert mutated.relative_residual > 1e-3


def test_residual_rejects_unknown_framework():
    with pytest.raises(ParameterError):
        pde_residual("wigner", base_spec(0.0), make_bath(0.001, 2.0), base_constants())


def test_trajectory_ode_matches_closed_unitary():
    c = base_constants()
    spec = base_spec(0.0)
    pA = spec.packetA
    grid = TimeGrid(0.0, 2.0, 21)
    X0 = pA.x0 + 1.0
    closed = bohmian_trajectory(pA, c, X0, grid)
    ode = trajectory_ode_oracle(lambda x, t: bohmian_velocity(pA, c, x, t), X0, grid)
    assert float(np.max(np.abs(closed.X - ode.X))) < 1e-6


def test_trajectory_ode_matches_closed_dissipative():
    c = base_constants()
    spec = base_spec(0.0)
    pA = spec.packetA
    b = make_bath(0.1, 10.0)
    grid = TimeGrid(0.0, 2.0, 21)
    X0 = pA.x0 - 2.0

    def v(x, t):
        return cl_current(spec, b, c, x, t) / cl_density(spec, b, c, x, t)

    closed = cl_bohmian_trajectory(pA, b, c, X0, grid)
    ode = trajectory_ode_oracle(v, X0, grid)
    assert float(np.max(np.abs(closed.X - ode.X))) < 1e-5


@pytest.mark.parametrize(
    "gamma, T, two_particle",
    [(None, None, False), (0.001, 2.0, False), (0.001, 15.0, False), (0.01, 15.0, False),
     (0.005, 15.0, True)],
)
def test_window_matches_moment_ode(gamma, T, two_particle):
    # the four criterion-1 windows and the two-particle window, against the
    # moment equations integrated on their own; 1e-6 is the bisection tolerance
    c = base_constants()
    spec = base_spec(0.0)
    b = None if gamma is None else make_bath(gamma, T)
    if two_particle:
        solved = two_particle_window(spec, b, c)
        # twice the rate at half the temperature keeps D = 2 m gamma kB T
        b = BathParams(2.0 * gamma, T / 2.0, constants=c)
    else:
        solved = overlap_window("schrodinger" if b is None else "cl", spec, b, c)
    oracle = moment_ode_window(spec, b, c)
    assert solved.t_max == pytest.approx(oracle, abs=1e-6)


def test_spectral_propagation_matches_closed():
    c = base_constants()
    spec = base_spec(math.pi / 4)
    grid = GridSpec(n_points=2048, t_final=1.0, n_steps=2000)
    prop = grid_propagator(spec, c, grid)
    closed = superposed_amplitude(spec, c, prop.x, grid.t_final)
    assert l2_error(prop.x, prop.psi, closed) < 1e-6
    assert prop.norm_drift < 1e-10
    assert prop.boundary_peak < 1e-12


def _strang_step_loop(spec, c, grid):
    """Reference for grid_propagator: n_steps literal Strang steps (half
    kick, free step on the discrete Fourier grid, half kick) on the
    propagator's own lattice, two FFTs per step."""
    lo, hi = oracles._propagation_box(spec, c, grid.t_final)
    x = np.linspace(lo, hi, grid.n_points, endpoint=False)
    kx = 2.0 * math.pi * np.fft.fftfreq(grid.n_points, d=x[1] - x[0])
    dt = grid.t_final / grid.n_steps
    half_v = np.exp(-1j * c.m * c.g * x * dt / (2.0 * c.hbar))
    kin = np.exp(-1j * c.hbar * kx**2 * dt / (2.0 * c.m))
    psi = superposed_amplitude(spec, c, x, 0.0)
    for _ in range(grid.n_steps):
        psi = half_v * np.fft.ifft(kin * np.fft.fft(half_v * psi))
    return x, psi


@pytest.mark.parametrize("grid", [GridSpec(1024, 0.5, 400), GridSpec(512, 1.0, 300)])
@pytest.mark.parametrize("alpha", [0.0, math.pi / 4])
def test_grid_propagator_matches_step_loop(grid, alpha):
    # the reassociated product is the step loop's operator, not the closed
    # form: the two agree to rounding, far inside the splitting defect
    c = base_constants()
    spec = base_spec(alpha)
    prop = grid_propagator(spec, c, grid)
    x, ref = _strang_step_loop(spec, c, grid)
    assert np.array_equal(prop.x, x)
    assert l2_error(x, prop.psi, ref) < 1e-12


def test_grid_propagator_rejects_mass_at_the_box_edge(monkeypatch):
    monkeypatch.setattr(oracles, "_propagation_box", lambda spec, c, t_final: (-30.0, 30.0))
    with pytest.raises(DomainError, match="enlarge the box"):
        grid_propagator(base_spec(math.pi / 4), base_constants(), GridSpec(1024, 0.5, 400))


def test_l2_error_basics():
    x = np.linspace(0.0, 1.0, 101)
    f = np.exp(1j * x)
    assert l2_error(x, f, f) == 0.0
    shifted = f + 0.01
    # constant offset integrates to |c| sqrt(span)
    assert l2_error(x, f, shifted) == pytest.approx(0.01 * math.sqrt(1.0), rel=1e-2)

"""Unitary evolution: packet states, modular signal, local values,
trajectories."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import BASE, base_constants, base_spec, golden_record
from modvar.params import GaussianPacket, PhysicalConstants, TimeGrid, make_superposition
from modvar.schrodinger import (
    DomainError,
    bohmian_trajectory,
    local_modular_on_trajectory,
    local_modular_pointwise,
    modular_expectation,
    packet_state,
    superposed_amplitude,
    superposed_density_and_current,
)


def test_packet_state_initial():
    c = base_constants()
    p = GaussianPacket(x0=-25.0, p0=0.0, sigma0=1.0)
    st0 = packet_state(p, c, 0.0)
    assert st0.x_t == -25.0 and st0.p_t == 0.0
    assert st0.sigma_t == 1.0 and st0.s_t == 1.0 + 0.0j


def test_packet_state_ballistics():
    c = base_constants()
    p = GaussianPacket(x0=-25.0, p0=0.1, sigma0=1.0)
    st2 = packet_state(p, c, 2.0)
    # x = x0 + p0 t/m - g t^2/2 with g = -3
    assert st2.x_t == pytest.approx(-25.0 + 0.2 + 6.0, rel=1e-15)
    assert st2.p_t == pytest.approx(0.1 + 6.0, rel=1e-15)


@settings(max_examples=80, deadline=None)
@given(t=st.floats(min_value=0.0, max_value=20.0), s0=st.floats(min_value=0.2, max_value=5.0))
def test_width_matches_complex_width(t, s0):
    c = base_constants()
    stt = packet_state(GaussianPacket(0.0, 0.0, s0), c, t)
    assert stt.sigma_t == pytest.approx(abs(stt.s_t), rel=1e-14)


def test_superposition_normalized():
    c = base_constants()
    spec = base_spec(math.pi / 4)
    for t in (0.0, 1.0, 2.0):
        total, err = quad(
            lambda x: abs(superposed_amplitude(spec, c, x, t)) ** 2,
            -60.0,
            60.0,
            points=[-25.0, 25.0],
            limit=300,
        )
        assert abs(total - 1.0) <= 1e-10


def test_continuity_equation():
    c = base_constants()
    spec = base_spec(0.0)
    h = 1e-5
    for x, t in ((-26.0, 0.5), (-24.0, 1.0), (24.5, 1.5)):
        rho_p, _ = superposed_density_and_current(spec, c, np.array([x]), t + h)
        rho_m, _ = superposed_density_and_current(spec, c, np.array([x]), t - h)
        _, j_p = superposed_density_and_current(spec, c, np.array([x + h]), t)
        _, j_m = superposed_density_and_current(spec, c, np.array([x - h]), t)
        dt_rho = (rho_p[0] - rho_m[0]) / (2.0 * h)
        dx_j = (j_p[0] - j_m[0]) / (2.0 * h)
        assert dt_rho + dx_j == pytest.approx(0.0, abs=5e-6 * max(1e-3, abs(dt_rho)))


def test_modular_value_against_golden(goldens):
    params = {**BASE, "alpha": 0.0, "t": 0.0}
    values, oracle, tol = golden_record(goldens, "modular_expectation_t0", params)
    assert oracle == "momentum-grid-dft"
    got = modular_expectation(base_spec(0.0), base_constants(), 0.0)
    assert got == pytest.approx(values[0], abs=tol)


def test_modular_signal_period():
    # the signal repeats after T = 2 pi hbar/(m |g| L)
    spec = base_spec(0.3)
    c = base_constants()
    T = 2.0 * math.pi * c.hbar / (c.m * abs(c.g) * spec.L)
    assert modular_expectation(spec, c, T) == pytest.approx(
        modular_expectation(spec, c, 0.0), rel=1e-12
    )


@settings(max_examples=100, deadline=None)
@given(
    alpha=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    t=st.floats(min_value=0.0, max_value=5.0),
)
def test_modular_amplitude_bound(alpha, t):
    spec = base_spec(alpha)
    bound = 0.5 * math.exp(-0.5 * spec.k**2 * spec.sigma0**2)
    assert abs(modular_expectation(spec, base_constants(), t)) <= bound + 1e-15


def test_local_modular_golden_point(goldens):
    params = {**BASE, "k": 0.0, "alpha": 0.0, "x": -25.0, "t": 0.0}
    values, _, tol = golden_record(goldens, "local_modular_pointwise_origin", params)
    spec = make_superposition(L=50.0, sigma0=1.0, k=0.0, alpha=0.0)
    got = local_modular_pointwise(spec, base_constants(), -25.0, 0.0)
    assert got == pytest.approx(values[0], abs=tol)


def test_local_modular_underflow_domain():
    spec = base_spec(0.0)
    with pytest.raises(DomainError) as err:
        local_modular_pointwise(spec, base_constants(), 300.0, 0.0)
    assert "300" in str(err.value)


def test_local_decomposes_to_global():
    c = base_constants()
    spec = base_spec(math.pi / 4)
    for t in (0.0, 1.0):
        val, _ = quad(
            lambda x: abs(superposed_amplitude(spec, c, x, t)) ** 2
            * local_modular_pointwise(spec, c, x, t),
            -45.0,
            45.0,
            points=[-25.0, 25.0],
            limit=400,
        )
        assert val == pytest.approx(modular_expectation(spec, c, t), abs=1e-6)


def test_local_on_trajectory_start_value():
    spec = base_spec(math.pi / 4)
    values = local_modular_on_trajectory(spec, base_constants(), -25.0, TimeGrid(0.0, 2.0, 41))
    assert values[0] == pytest.approx(0.5 * math.cos(math.pi / 4), rel=1e-12)


def test_local_on_trajectory_static_case():
    # no kick, no gravity: the local value never moves
    spec = make_superposition(L=50.0, sigma0=1.0, k=0.0, alpha=0.9)
    c = PhysicalConstants(g=0.0)
    values = local_modular_on_trajectory(spec, c, -25.0, TimeGrid(0.0, 2.0, 21))
    assert np.allclose(values, 0.5 * math.cos(0.9), rtol=0, atol=1e-14)


def test_local_on_trajectory_support_warning():
    spec = base_spec(0.0)
    with pytest.warns(UserWarning):
        local_modular_on_trajectory(spec, base_constants(), -5.0, TimeGrid(0.0, 1.0, 11))


def test_local_matches_pointwise_along_path():
    c = base_constants()
    spec = base_spec(math.pi / 4)
    grid = TimeGrid(0.0, 1.0, 9)
    X0 = -26.0
    values = local_modular_on_trajectory(spec, c, X0, grid)
    traj = bohmian_trajectory(spec.packetA, c, X0, grid)
    for ti, Xi, vi in zip(grid.times(), traj.X, values):
        assert vi == pytest.approx(local_modular_pointwise(spec, c, Xi, float(ti)), abs=1e-8)


def test_trajectories_never_cross():
    c = base_constants()
    spec = base_spec(0.0)
    grid = TimeGrid(0.0, 2.0, 101)
    xs = [bohmian_trajectory(spec.packetA, c, X0, grid).X for X0 in (-27.0, -25.0, -23.0)]
    assert np.all(xs[0] < xs[1]) and np.all(xs[1] < xs[2])

"""Validity-window solver: the time up to which the two supports stay
disjoint."""

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from conftest import base_constants, base_spec, make_bath
from modvar.caldeira_leggett import cl_packet_state
from modvar.oracles import moment_ode_window
from modvar.params import (
    BathParams,
    ParameterError,
    PhysicalConstants,
    make_superposition,
    scaled_time_tau,
    validate_regime,
)
from modvar.schrodinger import DomainError, packet_state
from modvar.windows import _solve_window, overlap_window, two_particle_window

SF = 5.0


def _gap_unitary(spec, c, t):
    st = packet_state(spec.packetA, c, t)
    return -spec.L - (c.hbar * spec.k / c.m) * t + 2.0 * SF * st.sigma_t


def _gap_dissipative(spec, b, c, t, rate=1.0):
    # scaled friction at the original diffusion constant: D = 2 m gamma kB T,
    # so doubling gamma while halving T leaves D untouched
    b_eff = BathParams(gamma=b.gamma * rate, T=b.T / rate, constants=c)
    st = cl_packet_state(spec.packetA, b_eff, c, t)
    return (
        -spec.L
        - (c.hbar * spec.k / c.m) * scaled_time_tau(b.gamma * rate, t)
        + 2.0 * SF * st.w_t
    )


def test_unitary_window_value():
    win = overlap_window("schrodinger", base_spec(0.0), None, base_constants())
    assert win.t_max == pytest.approx(10.002041, abs=5e-6)


def test_dissipative_window_values():
    c = base_constants()
    spec = base_spec(0.0)
    win_cold = overlap_window("cl", spec, make_bath(0.001, 2.0), c)
    assert win_cold.t_max == pytest.approx(9.605996, abs=5e-6)
    win_warm = overlap_window("cl", spec, make_bath(0.001, 15.0), c)
    assert win_warm.t_max == pytest.approx(7.858, abs=5e-3)


def test_window_is_a_sign_change():
    # recomputing the criterion from public state evolvers, the gap must
    # change sign across the reported time
    c = base_constants()
    spec = base_spec(0.0)
    win = overlap_window("schrodinger", spec, None, c)
    assert _gap_unitary(spec, c, win.t_max - 1e-3) < 0.0
    assert _gap_unitary(spec, c, win.t_max + 1e-3) > 0.0
    b = make_bath(0.001, 2.0)
    win_cl = overlap_window("cl", spec, b, c)
    assert _gap_dissipative(spec, b, c, win_cl.t_max - 1e-3) < 0.0
    assert _gap_dissipative(spec, b, c, win_cl.t_max + 1e-3) > 0.0


def test_window_shrinks_with_temperature():
    c = base_constants()
    spec = base_spec(0.0)
    ts = [overlap_window("cl", spec, make_bath(0.001, T), c).t_max for T in (2.0, 5.0, 15.0)]
    assert ts[0] > ts[1] > ts[2]


def test_two_particle_window_doubles_friction_only():
    # the common-bath window is the plain solver at twice the friction with
    # the diffusion constant unchanged; note it is not always shorter, since
    # extra friction also suppresses the spreading
    c = base_constants()
    spec = base_spec(0.0)
    expected = {2.0: 8.893631, 15.0: 5.724376}
    for T, want in expected.items():
        b = make_bath(0.005, T)
        double = two_particle_window(spec, b, c).t_max
        assert double == pytest.approx(want, abs=5e-6)
        sign_lo = _gap_dissipative(spec, b, c, double - 1e-3, rate=2.0)
        sign_hi = _gap_dissipative(spec, b, c, double + 1e-3, rate=2.0)
        assert sign_lo < 0.0 < sign_hi


def test_frictionless_window_matches_unitary():
    c = base_constants()
    spec = base_spec(0.0)
    win_s = overlap_window("schrodinger", spec, None, c)
    win_cl = overlap_window("cl", spec, make_bath(0.0, 2.0), c)
    # the unitary window solves the CL gap at gamma = D = 0
    assert win_cl.t_max == win_s.t_max


def test_window_rejects_initial_overlap():
    with pytest.raises(DomainError):
        overlap_window("schrodinger", base_spec(0.0), None, base_constants(), support_factor=30.0)


def test_window_argument_validation():
    c = base_constants()
    with pytest.raises(ParameterError):
        overlap_window("lindblad", base_spec(0.0), None, c)
    with pytest.raises(ParameterError):
        overlap_window("cl", base_spec(0.0), None, c)


@settings(max_examples=15, deadline=None)
@given(gamma=st.floats(0.0, 1.0), T=st.floats(0.1, 20.0), s=st.floats(1.0, 10.0))
@example(gamma=0.0078125, T=0.125, s=1.0)  # window 75.16, past the last doubling below the cap
def test_window_matches_moment_ode_in_regime(gamma, T, s):
    # the doubling bracket must not step over an early root: the solver
    # agrees with the independently integrated moment equations anywhere in
    # the high-temperature regime
    c = base_constants()
    b = make_bath(gamma, T)
    assume(not validate_regime(c, b))
    solved = overlap_window("cl", base_spec(0.0), b, c, support_factor=s).t_max
    assert solved == pytest.approx(moment_ode_window(base_spec(0.0), b, c, s), abs=1e-6)


def test_window_below_resolution_is_a_domain_error():
    # at T = 1e308 the supports touch within the 1e-6 bisection tolerance;
    # the solver must not report t_max = 0
    with pytest.raises(DomainError):
        overlap_window("cl", base_spec(0.0), make_bath(0.001, 1e308), base_constants())


def test_non_finite_gap_is_a_domain_error():
    # at gamma = 1e308, 2 gamma overflows, the width bracket's argument
    # u = 2 gamma t is inf * 0 = NaN at t = 0 and so is the support gap,
    # which the bisection must not read as overlap; the CL windows reject
    # this rate before they bisect
    with np.errstate(all="ignore"), pytest.raises(DomainError, match="not finite"):
        _solve_window(base_spec(0.0), 1e308, 1.0, base_constants(), SF, "cl")


@seed(20261019)
@settings(max_examples=40, deadline=None)
@given(
    m=st.floats(0.3, 3.0), hbar=st.floats(0.3, 3.0), kB=st.floats(0.3, 3.0),
    g=st.floats(-5.0, 5.0), L=st.floats(20.0, 60.0), sigma0=st.floats(0.5, 2.0),
    k=st.floats(-0.3, 0.3), gamma=st.floats(0.0, 0.02), T=st.floats(0.5, 20.0),
    s=st.floats(1.0, 6.0),
)
def test_windows_match_moment_ode_at_non_unit_constants(m, hbar, kB, g, L, sigma0, k, gamma, T, s):
    # a missing factor of m, hbar or kB would cancel at m = hbar = kB = 1;
    # the unitary, CL and two-particle windows against the moment equations
    c = PhysicalConstants(m=m, hbar=hbar, kB=kB, g=g)
    spec = make_superposition(L=L, sigma0=sigma0, k=k, alpha=0.0, hbar=hbar)
    b = BathParams(gamma, T, constants=c)
    # twice the rate at half the temperature: the two-particle window's bath
    b2 = BathParams(2.0 * gamma, T / 2.0, constants=c)
    assume(not validate_regime(c, b) and not validate_regime(c, b2))
    cases = [
        (lambda: overlap_window("schrodinger", spec, None, c, s), None),
        (lambda: overlap_window("cl", spec, b, c, s), b),
        (lambda: two_particle_window(spec, b, c, s), b2),
    ]
    for solve, bath in cases:
        try:
            solved = solve().t_max
        except DomainError:
            # supports overlap at t = 0, or stay disjoint past the cap
            assume(False)
        assert solved == pytest.approx(moment_ode_window(spec, bath, c, s), abs=1e-6)

"""Dissipative density-matrix dynamics: packet moments, matrix structure,
local displacement values and coherence measures."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import BASE, base_constants, base_spec, golden_record, make_bath
from modvar.caldeira_leggett import (
    _abs_on_grid,
    _blob_rectangles,
    _eval_parts,
    _term_parts,
    cl_bohmian_trajectory,
    cl_current,
    cl_density,
    cl_local_modular_on_trajectory,
    cl_modular_closed,
    cl_modular_envelope_phase,
    cl_packet_state,
    density_matrix_rR,
    l1_coherence,
    local_translation,
    trace_check,
)
from modvar.config import FIGURE_DEFAULTS
from modvar.params import (
    BathParams,
    GaussianPacket,
    TimeGrid,
    friction_drift,
    make_superposition,
    scaled_time_tau,
)
from modvar.schrodinger import (
    DomainError,
    bohmian_trajectory,
    local_modular_on_trajectory,
    modular_expectation,
    packet_state,
    superposed_density_and_current,
)
from modvar.two_particle import reduced_modular_common_bath


def test_packet_state_initial():
    p = GaussianPacket(x0=-25.0, p0=0.0, sigma0=1.0)
    st0 = cl_packet_state(p, make_bath(0.01, 5.0), base_constants(), 0.0)
    assert st0.x_t == pytest.approx(-25.0, abs=1e-14)
    assert st0.w_t == pytest.approx(1.0, rel=1e-14)
    assert st0.tau == 0.0


def test_packet_state_frictionless_limit():
    # gamma=0 (D=0) must reproduce the unitary center and width exactly
    p = GaussianPacket(x0=-25.0, p0=0.1, sigma0=1.0)
    c = base_constants()
    b0 = make_bath(0.0, 2.0)
    for t in (0.3, 1.0, 2.0):
        free = packet_state(p, c, t)
        damp = cl_packet_state(p, b0, c, t)
        assert damp.x_t == pytest.approx(free.x_t, abs=1e-12)
        assert damp.w_t == pytest.approx(free.sigma_t, rel=1e-12)
        assert damp.tau == pytest.approx(t, rel=1e-14)
    # and a tiny friction stays close to it
    bs = make_bath(1e-9, 2.0)
    free = packet_state(p, c, 2.0)
    damp = cl_packet_state(p, bs, c, 2.0)
    assert damp.x_t == pytest.approx(free.x_t, abs=1e-6)
    assert damp.w_t == pytest.approx(free.sigma_t, rel=1e-6)


def test_packet_state_against_moment_ode(goldens):
    params = {**BASE, "x0": -25.0, "p0": 0.0, "gamma": 0.001, "T": 2.0, "t": 2.0}
    (x_ref, w_ref), _oracle, tol = golden_record(goldens, "cl_packet_center_width", params)
    p = GaussianPacket(x0=params["x0"], p0=params["p0"], sigma0=BASE["sigma0"])
    got = cl_packet_state(p, make_bath(params["gamma"], params["T"]), base_constants(), params["t"])
    assert got.x_t == pytest.approx(x_ref, abs=tol)
    assert got.w_t == pytest.approx(w_ref, abs=tol)


def test_trajectory_is_rescaled_offset():
    p = GaussianPacket(x0=-25.0, p0=0.0, sigma0=1.0)
    b = make_bath(0.01, 5.0)
    c = base_constants()
    grid = TimeGrid(0.0, 2.0, 9)
    for X0 in (-27.0, -25.0, -23.5):
        traj = cl_bohmian_trajectory(p, b, c, X0, grid)
        assert traj.X0 == X0
        for t, X in traj.samples:
            s = cl_packet_state(p, b, c, t)
            want = s.x_t + (X0 - p.x0) * s.w_t / p.sigma0
            assert X == pytest.approx(want, abs=1e-12)


def test_trajectory_frictionless_limit():
    p = GaussianPacket(x0=-25.0, p0=0.0, sigma0=1.0)
    c = base_constants()
    grid = TimeGrid(0.0, 2.0, 21)
    damp = cl_bohmian_trajectory(p, make_bath(0.0, 2.0), c, -23.0, grid)
    free = bohmian_trajectory(p, c, -23.0, grid)
    assert np.max(np.abs(damp.X - free.X)) < 1e-10


def test_trace_stays_one():
    spec = base_spec(alpha=math.pi / 4)
    c = base_constants()
    for gamma, T in ((0.001, 2.0), (0.005, 15.0), (0.1, 10.0)):
        b = make_bath(gamma, T)
        for t in (0.0, 1.0, 2.0):
            assert trace_check(spec, b, c, t) == pytest.approx(1.0, abs=1e-8)


@settings(max_examples=60, deadline=None)
@given(
    r=st.floats(-60.0, 60.0),
    R=st.floats(-40.0, 40.0),
    t=st.floats(0.0, 2.0),
    alpha=st.floats(0.0, 2.0 * math.pi),
)
def test_matrix_is_hermitian(r, R, t, alpha):
    # rho(R - r/2, R + r/2) must equal the conjugate of rho(R + r/2, R - r/2)
    spec, bath, c = base_spec(alpha), make_bath(0.001, 2.0), base_constants()
    a = complex(density_matrix_rR(spec, bath, c, r, R, t))
    b = complex(density_matrix_rR(spec, bath, c, -r, R, t))
    scale = max(abs(a), abs(b), 1e-300)
    assert abs(a - b.conjugate()) / scale < 1e-10


def test_density_matrix_takes_list_t():
    # a nested list of t gives the bits of the same ndarray
    spec, b, c = base_spec(math.pi / 4), make_bath(0.001, 2.0), base_constants()
    r = np.array([-2.0, 0.0, 0.5, 50.0])
    R = np.array([-25.0, -24.0, 0.0, 25.0])
    t = [[0.0], [0.5], [1.0]]
    got = density_matrix_rR(spec, b, c, r, R, t)
    assert got.shape == (3, 4)
    np.testing.assert_array_equal(got, density_matrix_rR(spec, b, c, r, R, np.array(t)))


def test_diagonal_nonnegative():
    spec = base_spec(alpha=math.pi / 2)
    b = make_bath(0.001, 2.0)
    c = base_constants()
    xs = np.linspace(-40.0, 40.0, 161)
    for t in (0.0, 0.7, 1.6):
        dens = cl_density(spec, b, c, xs, t)
        assert np.all(dens >= 0.0)
        # the imaginary part being dropped is pure roundoff
        raw = density_matrix_rR(spec, b, c, 0.0, xs, t)
        assert np.max(np.abs(raw.imag)) < 1e-14 * np.max(dens)


def test_current_derivative_consistency():
    # analytic d/dr against a Richardson central difference of rho in r
    spec = base_spec(alpha=math.pi / 4)
    b = make_bath(0.01, 5.0)
    c = base_constants()
    h = 1e-5

    def diff(step, x, t):
        up = density_matrix_rR(spec, b, c, step, x, t)
        return (up - density_matrix_rR(spec, b, c, -step, x, t)) / (2.0 * step)

    for t in (0.2, 1.0):
        for x in (-27.0, -25.0, -23.0, 24.0):
            d = (4.0 * diff(h / 2, x, t) - diff(h, x, t)) / 3.0
            js = (c.hbar / c.m) * d.imag
            assert cl_current(spec, b, c, x, t) == pytest.approx(js, rel=1e-6, abs=1e-12)


def test_frictionless_density_and_current_match_unitary():
    spec = base_spec(alpha=math.pi / 4)
    b0 = make_bath(0.0, 2.0)
    c = base_constants()
    xs = np.linspace(-35.0, 35.0, 141)
    for t in (0.0, 1.0, 2.0):
        dens_s, cur_s = superposed_density_and_current(spec, c, xs, t)
        dens_cl = cl_density(spec, b0, c, xs, t)
        cur_cl = cl_current(spec, b0, c, xs, t)
        assert np.max(np.abs(dens_cl - dens_s)) < 1e-13
        assert np.max(np.abs(cur_cl - cur_s)) < 1e-13


def test_local_translation_at_rest(goldens):
    # k=0, alpha=0 at the left center: both packets weigh in equally, value 1
    params = {
        **BASE,
        "k": 0.0,
        "alpha": 0.0,
        "gamma": 0.001,
        "T": 2.0,
        "x": -25.0,
        "t": 0.0,
    }
    (re_ref, im_ref), _oracle, tol = golden_record(goldens, "local_translation_origin", params)
    spec = make_superposition(L=BASE["L"], sigma0=BASE["sigma0"], k=0.0, alpha=0.0)
    got = local_translation(spec, make_bath(0.001, 2.0), base_constants(), -25.0, 0.0)
    assert got.real == pytest.approx(re_ref, abs=tol)
    assert got.imag == pytest.approx(im_ref, abs=tol)


def test_local_translation_phase_tracks_alpha():
    b = make_bath(0.001, 2.0)
    c = base_constants()
    ref = local_translation(base_spec(0.0), b, c, -25.0, 0.7)
    for alpha in (0.3, math.pi / 4, 1.9):
        got = local_translation(base_spec(alpha), b, c, -25.0, 0.7)
        assert got == pytest.approx(ref * cmath.exp(1j * alpha), abs=1e-12)


def test_local_translation_magnitude_decays():
    spec = base_spec(0.0)
    b = make_bath(0.001, 2.0)
    c = base_constants()
    mags = []
    for t in np.linspace(0.0, 2.0, 6):
        xc = cl_packet_state(spec.packetA, b, c, t).x_t
        mags.append(abs(local_translation(spec, b, c, xc, t)))
    assert all(m0 > m1 for m0, m1 in zip(mags, mags[1:]))


def test_modular_closed_initial_value():
    c = base_constants()
    b = make_bath(0.005, 15.0)
    for alpha in (0.0, math.pi / 4, math.pi / 2):
        spec = base_spec(alpha)
        want = 0.5 * math.exp(-0.5 * spec.k**2 * spec.sigma0**2) * math.cos(alpha)
        assert cl_modular_closed(spec, b, c, 0.0) == pytest.approx(want, abs=1e-12)


def test_modular_closed_against_quadrature_record(goldens):
    params = {**BASE, "alpha": 0.0, "gamma": 0.001, "T": 2.0, "t": 2.0}
    (ref,), _oracle, tol = golden_record(goldens, "cl_modular_closed", params)
    got = cl_modular_closed(base_spec(0.0), make_bath(0.001, 2.0), base_constants(), 2.0)
    assert got == pytest.approx(ref, abs=tol)


def test_modular_closed_frictionless_limit():
    c = base_constants()
    spec = base_spec(math.pi / 4)
    b0 = make_bath(0.0, 2.0)
    for t in (0.0, 0.5, 1.3, 2.0):
        assert cl_modular_closed(spec, b0, c, t) == pytest.approx(
            modular_expectation(spec, c, t), abs=1e-14
        )
    bs = make_bath(1e-10, 2.0)
    for t in (0.5, 2.0):
        assert cl_modular_closed(spec, bs, c, t) == pytest.approx(
            modular_expectation(spec, c, t), abs=1e-6
        )


def test_envelope_decreasing_in_temperature():
    spec = base_spec(0.0)
    c = base_constants()
    envs = [cl_modular_envelope_phase(spec, make_bath(0.005, T), c, 1.0)[0] for T in (2.0, 5.0, 15.0)]
    assert envs[0] > envs[1] > envs[2] > 0.0


def test_local_modular_trajectory_frictionless():
    spec = base_spec(math.pi / 4)
    c = base_constants()
    grid = TimeGrid(0.0, 1.0, 11)
    damp = cl_local_modular_on_trajectory(spec, make_bath(1e-10, 2.0), c, -25.0, grid)
    free = local_modular_on_trajectory(spec, c, -25.0, grid)
    assert np.max(np.abs(damp.values - free.values)) < 1e-6


def test_local_modular_trajectory_matches_per_t_parts():
    # one coefficient evaluation over the whole trajectory against one
    # _term_parts call per sample, whose scalar complex products round
    # differently from numpy's array loops;
    # the values reach 0.42, so 1e-15 allows a few units in the last place
    spec, b, c = base_spec(math.pi / 4), make_bath(0.001, 2.0), base_constants()
    grid = TimeGrid(0.0, 2.0, 201)
    got = cl_local_modular_on_trajectory(spec, b, c, -27.0, grid).values
    L = spec.L
    want = []
    for t, X in cl_bohmian_trajectory(spec.packetA, b, c, -27.0, grid).samples:
        parts = _term_parts(spec, b, c, float(t))
        up, dn = _eval_parts(parts, L, X + L / 2.0), _eval_parts(parts, -L, X - L / 2.0)
        want.append(np.real((up + dn) / (2.0 * _eval_parts(parts, 0.0, X))))
    assert np.max(np.abs(got - np.array(want))) <= 1e-15


def test_local_modular_trajectory_underflow_is_a_domain_error():
    # X0 = -65 starts 40 widths left of the packet at fig2's parameters,
    # where rho(X, X, 0) underflows
    cfg = FIGURE_DEFAULTS["fig2"]
    grid = TimeGrid(cfg.t_start, cfg.tmax, cfg.samples)
    with pytest.warns(UserWarning, match="outside"), \
            pytest.raises(DomainError, match="underflows at t = 0$"):
        cl_local_modular_on_trajectory(
            cfg.superposition(cfg.alphas[0]), cfg.bath(), cfg.constants(), -65.0, grid
        )


_VECTORIZED = {
    "scaled_time_tau": scaled_time_tau,
    "friction_drift": friction_drift,
    "cl_modular_closed": lambda gamma, t: cl_modular_closed(
        base_spec(0.3), make_bath(gamma, 0.005), base_constants(), t
    ),
    "reduced_modular_common_bath": lambda gamma, t: reduced_modular_common_bath(
        base_spec(0.3), make_bath(gamma, 0.005), base_constants(), t
    ),
    "modular_expectation": lambda gamma, t: modular_expectation(base_spec(0.3), base_constants(), t),
}


@pytest.mark.parametrize("gamma", [0.0, 1e-4, 0.1])
@pytest.mark.parametrize("name", sorted(_VECTORIZED))
def test_array_t_equals_scalar_calls(name, gamma):
    # an array of t rounds every sample exactly as a scalar call does; at
    # gamma = 1e-4 the scaled times switch from series to closed form at t = 1
    f = _VECTORIZED[name]
    ts = np.linspace(0.0, 3.0, 301)
    scalars = [f(gamma, float(t)) for t in ts]
    assert all(type(v) is float for v in scalars)
    np.testing.assert_array_equal(f(gamma, ts), scalars)


def test_scalar_t_matches_array_t_within_rounding():
    # outside the functions above, a scalar t and the matching element of an
    # array of t may differ in the last bits: numpy's array loops round
    # complex products and squares differently from scalar arithmetic, and
    # action_t takes t**3.  The density matrix's exponents reach several
    # hundred far from its peak, where the relative difference grows to ~1e-13
    rng = np.random.default_rng(13)
    c = base_constants()
    for _ in range(40):
        spec = base_spec(rng.uniform(0.0, 2.0 * math.pi))
        b = make_bath(10.0 ** rng.uniform(-4.0, -1.0), rng.uniform(0.5, 15.0))
        L = spec.L
        r = np.array([0.0, 0.5, L, -L, L - 0.5])
        R = np.array([-L / 2.0, L / 2.0 + 0.3, 0.0, 0.7, -1.0])
        ts = np.sort(rng.uniform(0.0, 2.0, 8))
        scalars = [
            [density_matrix_rR(spec, b, c, ri, Ri, float(t)) for ri, Ri in zip(r, R)]
            for t in ts
        ]
        np.testing.assert_allclose(
            scalars, density_matrix_rR(spec, b, c, r, R, ts[:, None]), rtol=1e-12, atol=0.0
        )
    ts = np.linspace(0.0, 3.0, 3001)
    spec = base_spec(math.pi / 4)
    for p in (spec.packetA, spec.packetB):
        array = packet_state(p, c, ts)
        scalars = [packet_state(p, c, float(t)) for t in ts]
        for field in ("s_t", "sigma_t", "x_t", "p_t", "action_t"):
            np.testing.assert_allclose(
                [getattr(st, field) for st in scalars], getattr(array, field),
                rtol=1e-15, atol=0.0,
            )


def test_local_values_integrate_to_expectation():
    # weighting the local Hermitian value by the diagonal recovers the
    # closed-form expectation
    spec = base_spec(math.pi / 4)
    b = make_bath(0.001, 2.0)
    c = base_constants()
    t = 0.8

    def integrand(x):
        up = complex(density_matrix_rR(spec, b, c, spec.L, x + spec.L / 2.0, t))
        dn = complex(density_matrix_rR(spec, b, c, -spec.L, x - spec.L / 2.0, t))
        return 0.5 * (up + dn).real

    total = 0.0
    for lo, hi in ((-45.0, -5.0), (-5.0, 5.0), (5.0, 45.0)):
        val, err = quad(integrand, lo, hi, epsabs=1e-12, limit=200)
        total += val
    assert total == pytest.approx(cl_modular_closed(spec, b, c, t), abs=1e-6)


def test_l1_coherence_records(goldens):
    spec = base_spec(math.pi / 4)
    b = make_bath(0.001, 2.0)
    c = base_constants()
    for t in (0.0, 1.0, 2.0):
        params = {**BASE, "alpha": math.pi / 4, "gamma": 0.001, "T": 2.0, "t": t}
        (ref,), _oracle, tol = golden_record(goldens, "l1_coherence", params)
        got, err = l1_coherence(spec, b, c, t)
        assert abs(got - ref) < tol + err


@pytest.mark.parametrize(
    "L, alpha, gamma, T, t",
    [
        (50.0, math.pi / 4, 0.001, 2.0, 0.0),
        (50.0, math.pi / 4, 0.001, 2.0, 1.0),
        (50.0, math.pi / 4, 0.001, 2.0, 2.0),
        (50.0, 0.0, 0.005, 15.0, 2.0),
        (50.0, math.pi / 2, 0.1, 10.0, 1.0),
        (400.0, 0.7, 0.001, 2.0, 5.0),
    ],
)
def test_abs_on_grid_matches_direct_evaluation(L, alpha, gamma, T, t):
    # the rank-4 product against |rho| evaluated term by term on the
    # bounding box of the support rectangles; overflow, division by zero and
    # invalid values raise, so a factor that carries a line peak it should
    # not fails here.  Far tails underflow to zero in both routes, which is
    # their correct value, so underflow alone is let through.
    spec = make_superposition(L=L, sigma0=BASE["sigma0"], k=BASE["k"], alpha=alpha)
    parts = _term_parts(spec, make_bath(gamma, T), base_constants(), t)
    rects = np.array(_blob_rectangles(parts)[0])
    r = np.linspace(rects[:, 0].min(), rects[:, 1].max(), 301)
    R = np.linspace(rects[:, 2].min(), rects[:, 3].max(), 203)
    with np.errstate(all="raise", under="ignore"):
        got = _abs_on_grid(parts, r, R)
        want = np.abs(_eval_parts(parts, r[:, None], R[None, :]))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)


def test_l1_coherence_alpha_blind():
    c = base_constants()
    for gamma, T, t in ((0.001, 2.0, 1.0), (0.001, 2.0, 0.0), (0.001, 2.0, 2.0),
                        (0.005, 15.0, 2.0), (0.1, 10.0, 1.0)):
        b = make_bath(gamma, T)
        v0, e0 = l1_coherence(base_spec(0.0), b, c, t)
        v1, e1 = l1_coherence(base_spec(math.pi / 2), b, c, t)
        assert abs(v0 - v1) < 1e-8 * abs(v0) + e0 + e1

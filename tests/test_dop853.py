"""The package's DOP853 integrator against scipy's solve_ivp(method="DOP853")
through the two ODE oracles, and against closed-form solutions."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from modvar import _dop853
from modvar.caldeira_leggett import cl_current, cl_density
from modvar.oracles import moment_ode_window, trajectory_ode_oracle
from modvar.params import BathParams, PhysicalConstants, TimeGrid, make_superposition
from modvar.schrodinger import DomainError, bohmian_velocity

C = PhysicalConstants()
SPEC = make_superposition(L=50.0, sigma0=1.0, k=0.1, alpha=0.0)


def _scipy_dop853(fun, t0, y0, t_end, rtol, atol, t_eval=None, event=None):
    """dop853's signature and return value, computed by solve_ivp."""
    if event is not None:
        event.terminal, event.direction = True, 1.0
    sol = solve_ivp(fun, (t0, t_end), y0, method="DOP853", t_eval=t_eval, events=event,
                    rtol=rtol, atol=atol)
    t_event = sol.t_events[0][0] if event is not None and sol.t_events[0].size else None
    return sol.y.T, t_event, None if sol.success else sol.message


def _on_scipy(monkeypatch, oracle, *args):
    with monkeypatch.context() as patch:
        patch.setattr(_dop853, "dop853", _scipy_dop853)
        return oracle(*args)


def _cl_velocity(bath):
    def v(x, t):
        return cl_current(SPEC, bath, C, x, t) / cl_density(SPEC, bath, C, x, t)

    return v


_C05_BATH = BathParams(gamma=0.1, T=10.0)
_SEEDED_BATHS = [
    BathParams(gamma=float(10.0 ** g), T=float(T))
    for g, T in np.random.default_rng(29).uniform((-4.0, 1.0), (-1.0, 15.0), (5, 2))
]
_VELOCITIES = (
    [("unitary", off, lambda x, t: bohmian_velocity(SPEC.packetA, C, x, t)) for off in (-2, 0, 2)]
    + [("cl c05", off, _cl_velocity(_C05_BATH)) for off in (-2, 0, 2)]
    + [("cl seeded %d" % i, 1.0, _cl_velocity(b)) for i, b in enumerate(_SEEDED_BATHS)]
)


@pytest.mark.parametrize("label, offset, velocity", _VELOCITIES, ids=[
    "%s-%g" % (label, off) for label, off, _ in _VELOCITIES])
def test_trajectory_equals_solve_ivp_bit_for_bit(monkeypatch, label, offset, velocity):
    # c05's three X0 offsets for the unitary and CL velocities, and 5 seeded baths
    X0 = SPEC.packetA.x0 + offset * SPEC.packetA.sigma0
    grid = TimeGrid(0.0, 2.0, 101)
    ours = trajectory_ode_oracle(velocity, X0, grid)
    theirs = _on_scipy(monkeypatch, trajectory_ode_oracle, velocity, X0, grid)
    assert np.array_equal(ours.samples, theirs.samples)


@pytest.mark.parametrize("bath", [
    None,
    BathParams(gamma=0.001, T=2.0),
    BathParams(gamma=0.001, T=15.0),
    BathParams(gamma=0.01, T=15.0),
    BathParams(gamma=0.01, T=7.5),  # the two-particle bath of (0.005, 15)
], ids=["unitary", "0.001-2", "0.001-15", "0.01-15", "two-particle"])
def test_window_matches_solve_ivp_event(monkeypatch, bath):
    # c01's four windows and the two-particle bath; Brent's method on the
    # same dense output finds the same root
    ours = moment_ode_window(SPEC, bath, C)
    theirs = _on_scipy(monkeypatch, moment_ode_window, SPEC, bath, C)
    assert abs(ours - theirs) <= 1e-13


def test_exponential_decay_meets_rtol():
    t = np.linspace(0.0, 5.0, 41)
    y, t_event, failure = _dop853.dop853(lambda s, z: -z, 0.0, [1.0], 5.0, 1e-12, 1e-14, t_eval=t)
    assert failure is None and t_event is None
    np.testing.assert_allclose(y[:, 0], np.exp(-t), rtol=1e-10, atol=0.0)


def test_harmonic_oscillator_meets_rtol():
    t = np.linspace(0.0, 10.0, 57)
    y, _, failure = _dop853.dop853(
        lambda s, z: [z[1], -z[0]], 0.0, [1.0, 0.0], 10.0, 1e-12, 1e-12, t_eval=t
    )
    assert failure is None
    np.testing.assert_allclose(y, np.column_stack([np.cos(t), -np.sin(t)]), rtol=1e-10, atol=1e-10)


def test_event_is_found_on_the_dense_output():
    # x(t) = cos t first rises through 0.5 at t = 5 pi / 3
    _, t_event, _ = _dop853.dop853(
        lambda s, z: [z[1], -z[0]], 0.0, [1.0, 0.0], 10.0, 1e-12, 1e-12,
        event=lambda s, z: z[0] - 0.5,
    )
    assert t_event == pytest.approx(5.0 * math.pi / 3.0, abs=1e-11)


def test_blow_up_fails_loudly():
    # X' = X^2 from X = 1 blows up at t = 1: the step falls below 10 ulp(t)
    with pytest.raises(RuntimeError, match="trajectory integration failed: step fell below"):
        trajectory_ode_oracle(lambda x, t: x * x, 1.0, TimeGrid(0.0, 2.0, 5))


def test_window_that_never_closes():
    # packets 1e4 widths apart and at rest spread too slowly to meet by t = 100
    far = make_superposition(L=1e4, sigma0=1.0, k=0.0, alpha=0.0)
    with pytest.raises(DomainError, match="supports stay disjoint up to t = 100"):
        moment_ode_window(far, None, C)

"""Parameter objects, derived bath quantities and their limiting branches."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modvar.params import (
    BathParams,
    GaussianPacket,
    ParameterError,
    PhysicalConstants,
    SuperpositionSpec,
    TimeGrid,
    _tau_and_drift,
    make_superposition,
    scaled_time_tau,
    validate_regime,
)


def test_constants_reject_nonpositive():
    with pytest.raises(ParameterError):
        PhysicalConstants(m=0.0)
    with pytest.raises(ParameterError):
        PhysicalConstants(hbar=-1.0)
    # g may take any sign
    PhysicalConstants(g=9.81)
    PhysicalConstants(g=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_value_objects_reject_non_finite(bad):
    good = GaussianPacket(-25.0, 0.0, 1.0)
    builders = [
        lambda: PhysicalConstants(g=bad),
        lambda: BathParams(gamma=bad, T=2.0),
        lambda: BathParams(gamma=0.001, T=bad),
        lambda: GaussianPacket(bad, 0.0, 1.0),
        lambda: GaussianPacket(0.0, bad, 1.0),
        lambda: GaussianPacket(0.0, 0.0, bad),
        lambda: SuperpositionSpec(good, GaussianPacket(25.0, 0.1, 1.0), 50.0, bad, 0.0),
        lambda: SuperpositionSpec(good, GaussianPacket(25.0, 0.1, 1.0), 50.0, 0.1, bad),
        lambda: make_superposition(L=bad, sigma0=1.0, k=0.1, alpha=0.0),
        lambda: make_superposition(L=50.0, sigma0=bad, k=0.1, alpha=0.0),
        lambda: make_superposition(L=50.0, sigma0=1.0, k=bad, alpha=0.0),
        lambda: make_superposition(L=50.0, sigma0=1.0, k=0.1, alpha=bad),
    ]
    for build in builders:
        with pytest.raises(ParameterError, match="must be finite"):
            build()


def test_bath_diffusion_coefficient():
    c = PhysicalConstants()
    b = BathParams(gamma=0.005, T=15.0, constants=c)
    assert b.D == pytest.approx(2.0 * 0.005 * 15.0, rel=1e-15)
    assert BathParams(gamma=0.0, T=5.0).D == 0.0
    with pytest.raises(ParameterError):
        BathParams(gamma=-0.1, T=1.0)
    with pytest.raises(ParameterError):
        BathParams(gamma=0.1, T=-1.0)


def test_superposition_construction():
    spec = make_superposition(L=50.0, sigma0=1.0, k=0.1, alpha=0.3)
    assert spec.packetA.x0 == -25.0 and spec.packetB.x0 == 25.0
    assert spec.packetA.p0 == 0.0 and spec.packetB.p0 == pytest.approx(0.1)
    assert spec.sigma0 == 1.0
    with pytest.raises(ParameterError):
        make_superposition(L=-1.0, sigma0=1.0, k=0.0, alpha=0.0)
    # hand-built inconsistent specs are rejected too
    with pytest.raises(ParameterError):
        SuperpositionSpec(
            packetA=GaussianPacket(-20.0, 0.0, 1.0),
            packetB=GaussianPacket(25.0, 0.1, 1.0),
            L=50.0,
            k=0.1,
            alpha=0.0,
        )


def test_time_grid_validation():
    grid = TimeGrid(0.0, 2.0, 5)
    assert list(grid.times()) == [0.0, 0.5, 1.0, 1.5, 2.0]
    with pytest.raises(ParameterError):
        TimeGrid(1.0, 0.5, 3)
    with pytest.raises(ParameterError):
        TimeGrid(0.0, 1.0, 1)


def test_tau_limits_and_switch():
    # gamma = 0 returns t exactly
    assert scaled_time_tau(0.0, 1.7) == 1.7
    # series and closed branches agree across the switchover
    for gt in (0.5e-4, 0.99e-4, 1.01e-4, 2e-4):
        t = 1.0
        gamma = gt
        series = t * (1.0 + gt * (-1.0 + gt * (2.0 / 3.0 + gt * (-1.0 / 3.0 + gt * 2.0 / 15.0))))
        closed = -math.expm1(-2.0 * gamma * t) / (2.0 * gamma)
        assert scaled_time_tau(gamma, t) == pytest.approx(series, rel=1e-12)
        assert scaled_time_tau(gamma, t) == pytest.approx(closed, rel=1e-12)


def test_friction_drift_limit():
    assert _tau_and_drift(0.0, 3.0)[1] == pytest.approx(4.5, rel=1e-15)
    # small-gamma value stays next to t^2/2
    assert _tau_and_drift(1e-9, 3.0)[1] == pytest.approx(4.5, rel=1e-7)


@settings(max_examples=100, deadline=None)
@given(
    gamma=st.floats(min_value=1e-6, max_value=1.0),
    t=st.floats(min_value=0.0, max_value=50.0),
)
def test_tau_bounds(gamma, t):
    tau = scaled_time_tau(gamma, t)
    assert 0.0 <= tau <= t + 1e-12
    assert tau <= 1.0 / (2.0 * gamma) + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    gamma=st.floats(min_value=1e-6, max_value=0.5),
    t=st.floats(min_value=0.0, max_value=10.0),
    dt=st.floats(min_value=1e-3, max_value=1.0),
)
def test_tau_monotone(gamma, t, dt):
    assert scaled_time_tau(gamma, t + dt) > scaled_time_tau(gamma, t)


def test_regime_warning():
    c = PhysicalConstants()
    assert validate_regime(c, BathParams(gamma=0.001, T=2.0)) == []
    warnings = validate_regime(c, BathParams(gamma=0.5, T=2.0))
    assert len(warnings) == 1 and "validity" in warnings[0]

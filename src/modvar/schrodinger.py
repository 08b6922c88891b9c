"""Closed-form unitary evolution of Gaussian packets and their superposition,
Bohmian kinematics, and modular-variable observables under uniform gravity.

All evaluators are pure and accept numpy arrays for the position argument;
packet_state, the amplitudes and modular_expectation accept them for t too.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .params import (
    GaussianPacket,
    PhysicalConstants,
    SuperpositionSpec,
    TimeGrid,
    float_if_scalar,
)


class DomainError(ValueError):
    """Raised when an evaluation point is outside the representable domain."""


@dataclass(frozen=True)
class PacketStateS:
    """Time-evolved packet parameters: complex width s_t, real width sigma_t,
    classical center x_t, momentum p_t and action action_t; each is an
    array shaped like t for an array of t."""

    s_t: complex
    sigma_t: float
    x_t: float
    p_t: float
    action_t: float


@dataclass(frozen=True)
class BohmianTrajectory:
    """Sampled trajectory: initial position X0 and ordered (t, X) pairs."""

    X0: float
    samples: np.ndarray  # shape (n, 2), columns t and X(t)

    @property
    def t(self) -> np.ndarray:
        return self.samples[:, 0]

    @property
    def X(self) -> np.ndarray:
        return self.samples[:, 1]


def packet_state(p: GaussianPacket, c: PhysicalConstants, t) -> PacketStateS:
    """Evolve one packet's parameters to time t (a scalar or an array)."""
    m, hbar, g = c.m, c.hbar, c.g
    # divide in reals before forming the complex number: numpy and Python
    # round a complex quotient differently, so s_t would depend on whether t
    # is a scalar or an array
    s_t = p.sigma0 * (1.0 + 1j * (hbar * t / (2.0 * m * p.sigma0**2)))
    sigma_t = float_if_scalar(
        p.sigma0 * np.sqrt(1.0 + (hbar * t) ** 2 / (4.0 * m**2 * p.sigma0**4))
    )
    x_t = p.x0 + p.p0 * t / m - 0.5 * g * t * t
    p_t = p.p0 - m * g * t
    action_t = (p.p0**2 / (2.0 * m) - m * g * p.x0) * t - p.p0 * g * t * t \
        + m * g * g * t**3 / 3.0
    return PacketStateS(s_t=s_t, sigma_t=sigma_t, x_t=x_t, p_t=p_t, action_t=action_t)


def _packet_amplitude(p: GaussianPacket, c: PhysicalConstants, x, t: float):
    """Complex amplitude of a single evolved packet at position(s) x."""
    st = packet_state(p, c, t)
    x = np.asarray(x, dtype=float)
    # principal branch of the quartic root; continuous for t >= 0 because
    # s_t^2 stays in the upper half plane
    pref = np.power(2.0 * np.pi * st.s_t**2, -0.25)
    dx = x - st.x_t
    phase = (st.p_t * dx + st.action_t) / c.hbar
    out = pref * np.exp(-dx * dx / (4.0 * st.s_t * p.sigma0) + 1j * phase)
    return out if out.shape else complex(out)


def _packet_amplitude_dx(p: GaussianPacket, c: PhysicalConstants, x, t: float):
    """Spatial derivative of _packet_amplitude (analytic)."""
    st = packet_state(p, c, t)
    x = np.asarray(x, dtype=float)
    phi = _packet_amplitude(p, c, x, t)
    return phi * (-(x - st.x_t) / (2.0 * st.s_t * p.sigma0) + 1j * st.p_t / c.hbar)


def bohmian_velocity(p: GaussianPacket, c: PhysicalConstants, x, t: float):
    """Velocity field guiding the packet's trajectories."""
    m, hbar, g = c.m, c.hbar, c.g
    s0 = p.sigma0
    sigma_t2 = s0**2 + (hbar * t) ** 2 / (4.0 * m**2 * s0**2)
    x = np.asarray(x, dtype=float)
    num = 8.0 * m * s0**4 * p.p0 \
        + (2.0 * hbar**2 * (x - p.x0) - 8.0 * m**2 * g * s0**4) * t \
        - g * hbar**2 * t**3
    return float_if_scalar(num / (8.0 * m**2 * s0**2 * sigma_t2))


def bohmian_trajectory(
    p: GaussianPacket, c: PhysicalConstants, X0: float, grid: TimeGrid
) -> BohmianTrajectory:
    """Closed-form trajectory X(t) = x_t + (X0 - x0) sigma_t / sigma0."""
    ts = grid.times()
    st = packet_state(p, c, ts)
    X = st.x_t + (X0 - p.x0) * st.sigma_t / p.sigma0
    return BohmianTrajectory(X0=X0, samples=np.column_stack([ts, X]))


def _superposition_norm(spec: SuperpositionSpec, c: PhysicalConstants) -> float:
    """Normalization constant of the two-packet superposition."""
    s0 = spec.sigma0
    overlap = math.exp(-spec.L**2 / (8.0 * s0**2) - 0.5 * spec.k**2 * s0**2)
    return (1.0 + math.cos(spec.alpha - spec.k * spec.L / 2.0) * overlap) ** -0.5


def superposed_amplitude(spec: SuperpositionSpec, c: PhysicalConstants, x, t: float):
    """Amplitude of the evolved superposition N (psi_A + e^{i alpha} psi_B)/sqrt(2)."""
    N = _superposition_norm(spec, c)
    psiA = _packet_amplitude(spec.packetA, c, x, t)
    psiB = _packet_amplitude(spec.packetB, c, x, t)
    return N * (psiA + cmath.exp(1j * spec.alpha) * psiB) / math.sqrt(2.0)


def _superposed_amplitude_dx(spec: SuperpositionSpec, c: PhysicalConstants, x, t: float):
    N = _superposition_norm(spec, c)
    dA = _packet_amplitude_dx(spec.packetA, c, x, t)
    dB = _packet_amplitude_dx(spec.packetB, c, x, t)
    return N * (dA + cmath.exp(1j * spec.alpha) * dB) / math.sqrt(2.0)


def superposed_density_and_current(spec: SuperpositionSpec, c: PhysicalConstants, x, t: float):
    """Density and current of the full superposition (local observables)."""
    psi = superposed_amplitude(spec, c, x, t)
    dpsi = _superposed_amplitude_dx(spec, c, x, t)
    rho = np.abs(psi) ** 2
    j = (c.hbar / c.m) * np.imag(np.conjugate(psi) * dpsi)
    return rho, j


def modular_expectation(spec: SuperpositionSpec, c: PhysicalConstants, t):
    """<cos(p L / hbar)> of the superposition in the non-overlap regime, over
    a scalar or an array of t."""
    s0 = spec.sigma0
    amp = 0.5 * math.exp(-0.5 * spec.k**2 * s0**2)
    return float_if_scalar(amp * np.cos(spec.alpha - c.m * c.g * spec.L * t / c.hbar))


_UNDERFLOW = 1e-300


def local_modular_pointwise(spec: SuperpositionSpec, c: PhysicalConstants, x, t: float):
    """Pointwise local value of cos(p L / hbar): the translation operator acts
    as a shift, Psi(x) -> Psi(x + L)."""
    x_arr = np.asarray(x, dtype=float)
    psi = superposed_amplitude(spec, c, x_arr, t)
    dens = np.abs(psi) ** 2
    if np.any(dens < _UNDERFLOW):
        bad = np.atleast_1d(x_arr)[np.atleast_1d(dens < _UNDERFLOW)]
        raise DomainError(
            "|Psi|^2 underflows at x = %r; local value undefined there" % (bad[:3],)
        )
    up = superposed_amplitude(spec, c, x_arr + spec.L, t)
    dn = superposed_amplitude(spec, c, x_arr - spec.L, t)
    return float_if_scalar(np.real((up + dn) / (2.0 * psi)))


def _warn_outside_support(spec: SuperpositionSpec, X0: float, support_factor: float) -> None:
    """Warn when X0 lies outside the left packet's support_factor-sigma support."""
    pA = spec.packetA
    if abs(X0 - pA.x0) > support_factor * pA.sigma0:
        warnings.warn(
            "X0 = %g lies outside the left packet's %g-sigma support" % (X0, support_factor)
        )


def local_modular_on_trajectory(
    spec: SuperpositionSpec,
    c: PhysicalConstants,
    X0: float,
    grid: TimeGrid,
    support_factor: float = 5.0,
):
    """Local modular value along the trajectory launched from X0 inside the
    left (occupied) packet.

    Returns the values on grid.times() as an array. X0 outside the left
    packet's effective support only warns: the closed form stays evaluable,
    it just loses its interpretation.
    """
    _warn_outside_support(spec, X0, support_factor)
    pA = spec.packetA
    ts = grid.times()
    m, hbar, g = c.m, c.hbar, c.g
    s0 = spec.sigma0
    sigma_t = packet_state(pA, c, ts).sigma_t
    k, L = spec.k, spec.L
    envelope = 0.5 * np.exp(
        (hbar * k * ts / (2.0 * m * sigma_t**2))
        * (-hbar * k * ts / (2.0 * m) + (X0 + L / 2.0) * sigma_t / s0)
    )
    phase = spec.alpha + 0.5 * (
        -2.0 * m * g * L * ts / hbar
        - hbar * k**2 * s0**2 * ts / (m * sigma_t**2)
        + k * (L + 2.0 * X0) * s0 / sigma_t
    )
    return envelope * np.cos(phase)

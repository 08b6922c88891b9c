"""Two-particle modular expectations under exchange statistics and the
common-bath reduced modular signal with its early-time model.

Everything here is closed-form Gaussian algebra; no two-particle grids are
ever materialized.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .params import (
    BathParams,
    GaussianPacket,
    ParameterError,
    PhysicalConstants,
    SuperpositionSpec,
    float_if_scalar,
    scaled_time_tau,
)

_SQRT3 = math.sqrt(3.0)


class StatisticsKind(Enum):
    MB = "MB"
    BE = "BE"
    FD = "FD"


_TAGS = ("equals-A", "equals-B", "disjoint")


@dataclass(frozen=True)
class CompanionState:
    """Second-particle state: a Gaussian packet or one of the symbolic tags
    equals-A, equals-B, disjoint (the last asserts exactly zero overlap with
    both superposed packets)."""

    chi: GaussianPacket | str

    def __post_init__(self):
        if isinstance(self.chi, str) and self.chi not in _TAGS:
            raise ParameterError("unknown companion tag %r" % (self.chi,))

    @property
    def is_tag(self) -> bool:
        return isinstance(self.chi, str)


@dataclass(frozen=True)
class EarlyTimeModel:
    """Short-time model of the common-bath signal: envelope
    prefactor*exp(-linear_rate t - quadratic_rate t^2) and phase drift
    -omega0 t."""

    prefactor: float
    linear_rate: float
    quadratic_rate: float
    omega0: float

    def envelope(self, t: float) -> float:
        return self.prefactor * math.exp(-self.linear_rate * t - self.quadratic_rate * t * t)

    def delta_phi(self, t: float) -> float:
        return -self.omega0 * t


def gaussian_overlap(pA: GaussianPacket, pB: GaussianPacket, c: PhysicalConstants) -> complex:
    """<psi_A | psi_B> for two Gaussian packets, phases included."""
    hbar = c.hbar
    sa2, sb2 = pA.sigma0**2, pB.sigma0**2
    a = 1.0 / (4.0 * sa2) + 1.0 / (4.0 * sb2)
    bcoef = pA.x0 / (2.0 * sa2) + pB.x0 / (2.0 * sb2) + 1j * (pB.p0 - pA.p0) / hbar
    ccoef = (
        -pA.x0**2 / (4.0 * sa2)
        - pB.x0**2 / (4.0 * sb2)
        + 1j * (pA.p0 * pA.x0 - pB.p0 * pB.x0) / hbar
    )
    pref = (2.0 * math.pi * sa2) ** -0.25 * (2.0 * math.pi * sb2) ** -0.25
    return pref * cmath.sqrt(math.pi / a) * cmath.exp(bcoef * bcoef / (4.0 * a) + ccoef)


def translated_matrix_element(
    pA: GaussianPacket, pB: GaussianPacket, ell: float, c: PhysicalConstants
) -> complex:
    """<psi_A | e^{i p ell / hbar} | psi_B> = integral psi_A*(x) psi_B(x + ell) dx."""
    shifted = GaussianPacket(x0=pB.x0 - ell, p0=pB.p0, sigma0=pB.sigma0)
    return gaussian_overlap(pA, shifted, c)


def modular_mb(spec: SuperpositionSpec, c: PhysicalConstants) -> complex:
    """Distinguishable (product-state) translation expectation: only the
    cross term survives for non-overlapping packets."""
    overlap = abs(gaussian_overlap(spec.packetA, spec.packetB, c))
    if overlap >= 1e-12:
        raise ParameterError(
            "packets overlap (|<A|B>| = %.3g); product-state cross-term form invalid" % overlap
        )
    M = translated_matrix_element(spec.packetA, spec.packetB, spec.L, c)
    return 0.5 * cmath.exp(1j * spec.alpha) * M


def _companion_overlaps(spec, chi: GaussianPacket, c):
    """(<chi|psi_A>, <chi|psi_B>, <chi|T_L|psi_A>, <chi|T_L|psi_B>)."""
    cA = gaussian_overlap(chi, spec.packetA, c)
    cB = gaussian_overlap(chi, spec.packetB, c)
    tA = translated_matrix_element(chi, spec.packetA, spec.L, c)
    tB = translated_matrix_element(chi, spec.packetB, spec.L, c)
    return cA, cB, tA, tB


def indistinguishable_norm(
    spec: SuperpositionSpec,
    chi: CompanionState,
    s: StatisticsKind,
    c: PhysicalConstants,
) -> float:
    """N_pm = [2 pm |<chi|psi_A> + e^{i alpha} <chi|psi_B>|^2]^{-1/2}."""
    if s is StatisticsKind.MB:
        raise ParameterError("product states need no symmetrization norm")
    if chi.is_tag:
        if chi.chi == "disjoint":
            cross = 0.0
        else:
            # equals-A or equals-B: one overlap is 1, the other is negligible
            cross = 1.0
    else:
        cA, cB, _, _ = _companion_overlaps(spec, chi.chi, c)
        cross = abs(cA + cmath.exp(1j * spec.alpha) * cB) ** 2
    sign = 1.0 if s is StatisticsKind.BE else -1.0
    denom = 2.0 + sign * cross
    if denom <= 1e-12:
        raise ParameterError("symmetrized state norm vanishes for this companion")
    return 1.0 / math.sqrt(denom)


def modular_indistinguishable(
    spec: SuperpositionSpec,
    chi: CompanionState,
    s: StatisticsKind,
    c: PhysicalConstants,
) -> complex:
    """Particle-1 translation expectation for the symmetrized (BE) or
    antisymmetrized (FD) two-particle state.

    Symbolic tags take the closed special-case forms; Gaussian companions go
    through the general cross-term expression.
    """
    if s is StatisticsKind.MB:
        # product state: companion drops out entirely
        return modular_mb(spec, c)
    mb = modular_mb(spec, c)
    if chi.is_tag:
        alpha = spec.alpha
        M = translated_matrix_element(spec.packetA, spec.packetB, spec.L, c)
        if chi.chi == "disjoint":
            return 0.5 * mb
        if chi.chi == "equals-B":
            return mb / _SQRT3 if s is StatisticsKind.BE else mb
        # equals-A
        if s is StatisticsKind.BE:
            return (
                0.5
                / _SQRT3
                * (2.0 * cmath.exp(1j * alpha) * M + cmath.exp(-1j * alpha) * M.conjugate())
            )
        return -0.5 * cmath.exp(-1j * alpha) * M.conjugate()
    # general Gaussian companion
    cA, cB, tA, tB = _companion_overlaps(spec, chi.chi, c)
    alpha = spec.alpha
    N = indistinguishable_norm(spec, chi, s, c)
    f = (cA.conjugate() + cmath.exp(-1j * alpha) * cB.conjugate()) / math.sqrt(2.0)
    g = (tA + cmath.exp(1j * alpha) * tB) / math.sqrt(2.0)
    sign = 1.0 if s is StatisticsKind.BE else -1.0
    cross = f * g
    return N * N * (mb + sign * (cross + cross.conjugate()))


def reduced_modular_components(
    spec: SuperpositionSpec, b: BathParams, c: PhysicalConstants, t
):
    """(envelope, cosine argument) of the common-bath reduced modular signal,
    over a scalar or an array of t.

    A single bath coupled to both particles doubles the effective damping of
    the reduced single-particle coherence, giving e^{-4 gamma t} time
    constants.  Written through scaled times tau_c = -expm1(-c t)/c so the
    gamma -> 0 limit is exact.
    """
    m, hbar, g = c.m, c.hbar, c.g
    gamma, D = b.gamma, b.D
    s0, L, k = spec.sigma0, spec.L, spec.k
    tau2 = scaled_time_tau(2.0 * gamma, t)  # (1 - e^{-4 gamma t})/(4 gamma)
    tau8 = scaled_time_tau(4.0 * gamma, t)  # (1 - e^{-8 gamma t})/(8 gamma)
    # tau2 * tau2: a scalar t must round as an array of t does
    envelope = 0.5 * np.exp(
        -D * L**2 * tau8 / hbar**2
        - L**2 * gamma**2 * (tau2 * tau2) / s0**2
        - 0.5 * k**2 * s0**2
    )
    phase = spec.alpha - L * tau2 * (k * gamma + m * g / hbar)
    return float_if_scalar(envelope), phase


def reduced_modular_common_bath(
    spec: SuperpositionSpec, b: BathParams, c: PhysicalConstants, t
):
    """Modular signal of either particle when both couple to one bath, over a
    scalar or an array of t."""
    envelope, phase = reduced_modular_components(spec, b, c, t)
    return float_if_scalar(envelope * np.cos(phase))


def early_time_model(
    spec: SuperpositionSpec, b: BathParams, c: PhysicalConstants
) -> EarlyTimeModel:
    """Leading short-time behavior of the common-bath signal."""
    m, hbar, g = c.m, c.hbar, c.g
    gamma, D = b.gamma, b.D
    s0, L, k = spec.sigma0, spec.L, spec.k
    return EarlyTimeModel(
        prefactor=0.5 * math.exp(-0.5 * k**2 * s0**2),
        linear_rate=D * L**2 / hbar**2,
        quadratic_rate=L**2 * gamma * (gamma / s0**2 + 4.0 * D / hbar**2),
        omega0=L * (k * gamma + m * g / hbar),
    )

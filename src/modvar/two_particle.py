"""Two-particle modular expectations under exchange statistics and the
common-bath reduced modular signal with its initial phase rate.

Everything here is closed-form Gaussian algebra; no two-particle grids are
ever materialized.
"""

from __future__ import annotations

import cmath
import math
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


class StatisticsKind(Enum):
    MB = "MB"
    BE = "BE"
    FD = "FD"


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


def _translation_over_terms(terms, ell: float, c: PhysicalConstants) -> complex:
    """<T_ell (x) 1> in the two-particle state sum_j c_j f_j (x) g_j, given as
    (c_j, f_j, g_j) product terms of Gaussian packets:

        sum_ij conj(c_i) c_j <f_i|T_ell|f_j> <g_i|g_j>
        / sum_ij conj(c_i) c_j <f_i|f_j> <g_i|g_j>."""
    num = den = 0.0j
    for ci, fi, gi in terms:
        for cj, fj, gj in terms:
            weight = ci.conjugate() * cj * gaussian_overlap(gi, gj, c)
            num += weight * translated_matrix_element(fi, fj, ell, c)
            den += weight * gaussian_overlap(fi, fj, c)
    if abs(den) <= 1e-12:
        raise ParameterError("two-particle state norm vanishes for this companion")
    return num / den


def modular_indistinguishable(
    spec: SuperpositionSpec,
    chi: GaussianPacket,
    s: StatisticsKind,
    c: PhysicalConstants,
) -> complex:
    """<T_L (x) 1> of particle 1 in the product state psi (x) chi (MB) or in
    psi (x) chi + sign chi (x) psi (sign +1 for BE, -1 for FD), with
    psi = (A + e^{i alpha} B)/sqrt(2) and chi a Gaussian companion.  For
    packets A, B that do not overlap the norm is 1 for MB and
    2 + 2 sign |<chi|psi>|^2 for BE/FD; a norm <= 1e-12 raises ParameterError.

    T_L shifts psi(x) -> psi(x + L); each packet is (2 pi sigma0^2)^{-1/4}
    exp(-(x - x0)^2/4 sigma0^2 + i p0 (x - x0)/hbar).  PAPER.md holds only
    the paper's abstract, so the paper's own convention cannot be checked
    here; no observable is known that gives BE/MB = 1/sqrt(3) at chi = B, as
    N in place of N^2 would.
    """
    pA, pB = spec.packetA, spec.packetB
    a, b = 1.0 / math.sqrt(2.0), cmath.exp(1j * spec.alpha) / math.sqrt(2.0)
    terms = [(a, pA, chi), (b, pB, chi)]
    if s is not StatisticsKind.MB:
        sign = 1.0 if s is StatisticsKind.BE else -1.0
        terms += [(sign * a, chi, pA), (sign * b, chi, pB)]
    return _translation_over_terms(terms, spec.L, c)


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


def initial_phase_rate(spec: SuperpositionSpec, b: BathParams, c: PhysicalConstants) -> float:
    """omega0 = L (k gamma + m g / hbar): the common-bath signal's phase falls
    as -omega0 t at small t."""
    return spec.L * (spec.k * b.gamma + c.m * c.g / c.hbar)

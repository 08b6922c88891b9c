"""Non-overlap window solver.

The closed-form modular results hold while the two packets' effective
supports stay disjoint: the right tail of the left packet must remain to
the left of the right packet's left tail.  With support factor s the
boundary condition reads

    -L - (hbar k / m) T(t) + 2 s W(t) = 0

where (T, W) = (t, sigma_t) for unitary evolution and (tau(t), w_t) with
friction/diffusion.  A rate multiplier of 2 gives the two-particle
(common-bath) window, which carries doubled damping exponents at equal D.
"""

from __future__ import annotations

from dataclasses import dataclass

from .params import (
    BathParams,
    ParameterError,
    PhysicalConstants,
    SuperpositionSpec,
)
from .schrodinger import DomainError, packet_state
from .caldeira_leggett import _center_width

_BRACKET_CAP = 100.0
_TOL = 1e-6


@dataclass(frozen=True)
class OverlapWindow:
    """Latest time satisfying the non-overlap inequality, and the criterion
    it solves."""

    t_max: float
    criterion: str


def overlap_window(
    framework: str,
    spec: SuperpositionSpec,
    b: BathParams | None,
    c: PhysicalConstants,
    support_factor: float = 5.0,
    rate_multiplier: float = 1.0,
) -> OverlapWindow:
    """Solve the support-touching condition by bracketing bisection to 1e-6."""
    if framework not in ("schrodinger", "cl"):
        raise ParameterError("framework must be 'schrodinger' or 'cl'")
    if framework == "cl" and b is None:
        raise ParameterError("dissipative window needs bath parameters")
    s = support_factor
    hk_over_m = c.hbar * spec.k / c.m
    if framework == "schrodinger":
        def gap(t):
            return -spec.L - hk_over_m * t + 2.0 * s * packet_state(spec.packetA, c, t).sigma_t
        crit = "-L - (hbar k/m) t + 2*%g*sigma_t = 0 (schrodinger)" % s
    else:
        gamma_eff = b.gamma * rate_multiplier
        def gap(t):
            _, w, tau = _center_width(spec.packetA, gamma_eff, b.D, c, t)
            return -spec.L - hk_over_m * tau + 2.0 * s * float(w)
        crit = "-L - (hbar k/m) tau(t) + 2*%g*w_t = 0 (cl, gamma=%g, D=%g)" % (
            s, gamma_eff, b.D,
        )

    if gap(0.0) >= 0.0:
        raise DomainError("packets already overlap at t = 0 for this support factor")
    # double the bracket, with its last step clamped to the cap
    lo, hi = 0.0, 1.0
    while gap(hi) < 0.0:
        if hi >= _BRACKET_CAP:
            raise DomainError("supports stay disjoint up to t = %g" % _BRACKET_CAP)
        lo, hi = hi, min(2.0 * hi, _BRACKET_CAP)
    while hi - lo > _TOL:
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    if lo == 0.0:
        # every midpoint tried already overlapped: the root lies below _TOL
        raise DomainError("supports touch before t = %g, below the solver's resolution" % hi)
    return OverlapWindow(t_max=0.5 * (lo + hi), criterion=crit)


def two_particle_window(
    spec: SuperpositionSpec,
    b: BathParams,
    c: PhysicalConstants,
    support_factor: float = 5.0,
) -> OverlapWindow:
    """Window for the common-bath reduced signal (doubled damping rate)."""
    return overlap_window("cl", spec, b, c, support_factor, rate_multiplier=2.0)

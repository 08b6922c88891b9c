"""Non-overlap window solver.

The closed-form modular results hold while the two packets' effective
supports stay disjoint: the right tail of the left packet must remain to
the left of the right packet's left tail.  With support factor s the
boundary condition reads

    -L - (hbar k / m) tau(t) + 2 s w_t = 0

with the friction-scaled time tau(t) and the width w_t of the left packet
under friction and diffusion; unitary evolution is gamma = D = 0, where
(tau, w_t) = (t, sigma_t).  The two-particle (common-bath) window is the
single-packet window at rate 2 gamma with D unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import (
    BathParams,
    ParameterError,
    PhysicalConstants,
    SuperpositionSpec,
)
from .schrodinger import DomainError
from .caldeira_leggett import _center_width

_BRACKET_CAP = 100.0
_TOL = 1e-6


@dataclass(frozen=True)
class OverlapWindow:
    """Latest time satisfying the non-overlap inequality, and the criterion
    it solves."""

    t_max: float
    criterion: str


def _solve_window(spec, gamma, D, c, s, criterion) -> OverlapWindow:
    """Solve the support-touching condition at (gamma, D) by bisection."""
    hk_over_m = c.hbar * spec.k / c.m

    def gap(t):
        _, w, tau, _ = _center_width(spec.packetA, gamma, D, c, t)
        value = -spec.L - hk_over_m * tau + 2.0 * s * float(w)
        # a NaN gap compares as neither side of zero and would steer the bisection
        if not math.isfinite(value):
            raise DomainError("support gap is not finite at t = %g" % t)
        return value

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
    return OverlapWindow(t_max=0.5 * (lo + hi), criterion=criterion)


def _cl_window(spec, gamma, D, c, s) -> OverlapWindow:
    # the bracket may reach the cap, where the width bracket's closed branch
    # divides by u^3 with u = 2 gamma t; a cube past the largest double would
    # surface as a raw overflow warning before the gap turns NaN
    u = 2.0 * gamma * _BRACKET_CAP
    if not math.isfinite(u * u * u):
        raise DomainError("(2 gamma t)^3 overflows at t = %g for gamma = %r" % (_BRACKET_CAP, gamma))
    crit = "-L - (hbar k/m) tau(t) + 2*%g*w_t = 0 (cl, gamma=%g, D=%g)" % (s, gamma, D)
    return _solve_window(spec, gamma, D, c, s, crit)


def overlap_window(
    framework: str,
    spec: SuperpositionSpec,
    b: BathParams | None,
    c: PhysicalConstants,
    support_factor: float = 5.0,
) -> OverlapWindow:
    """Solve the support-touching condition by bracketing bisection to 1e-6."""
    if framework not in ("schrodinger", "cl"):
        raise ParameterError("framework must be 'schrodinger' or 'cl'")
    s = support_factor
    if framework == "schrodinger":
        crit = "-L - (hbar k/m) t + 2*%g*sigma_t = 0 (schrodinger)" % s
        return _solve_window(spec, 0.0, 0.0, c, s, crit)
    if b is None:
        raise ParameterError("dissipative window needs bath parameters")
    return _cl_window(spec, b.gamma, b.D, c, s)


def two_particle_window(
    spec: SuperpositionSpec,
    b: BathParams,
    c: PhysicalConstants,
    support_factor: float = 5.0,
) -> OverlapWindow:
    """Window for the common-bath reduced signal: rate 2 gamma, D unchanged."""
    return _cl_window(spec, 2.0 * b.gamma, b.D, c, support_factor)

"""Shared physical parameter types and derived environment quantities.

Everything here is an immutable value object or a pure function; modules
downstream never mutate parameters after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class ParameterError(ValueError):
    """Raised when a physical parameter violates its constraints."""


def _require_finite(**values):
    """Raise ParameterError naming the first NaN or infinite value."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ParameterError("%s must be finite, got %r" % (name, value))


@dataclass(frozen=True)
class PhysicalConstants:
    """Mass, hbar, Boltzmann constant and the signed uniform acceleration g.

    Dimensionless units m = hbar = kB = 1 are the working default, but all
    four constants stay configurable so SI-style sanity checks remain
    possible.  g is stored signed and used verbatim everywhere.
    """

    m: float = 1.0
    hbar: float = 1.0
    kB: float = 1.0
    g: float = -3.0

    def __post_init__(self):
        _require_finite(m=self.m, hbar=self.hbar, kB=self.kB, g=self.g)
        if self.m <= 0 or self.hbar <= 0 or self.kB <= 0:
            raise ParameterError("m, hbar and kB must all be positive")


@dataclass(frozen=True)
class BathParams:
    """Relaxation rate gamma, temperature T and the cached diffusion
    coefficient D = 2 m gamma kB T.

    gamma = 0 is allowed and reproduces the unitary limit exactly.
    """

    gamma: float
    T: float
    D: float = field(init=False)

    # m and kB enter D, so the constants are captured at construction time
    constants: PhysicalConstants = field(default_factory=PhysicalConstants)

    def __post_init__(self):
        _require_finite(gamma=self.gamma, T=self.T)
        if self.gamma < 0:
            raise ParameterError("relaxation rate gamma must be >= 0")
        if self.T < 0:
            raise ParameterError("temperature must be >= 0")
        c = self.constants
        D = 2.0 * c.m * self.gamma * c.kB * self.T
        if not math.isfinite(D):
            raise OverflowError(
                "D = 2 m gamma kB T overflows at gamma = %r, T = %r" % (self.gamma, self.T)
            )
        object.__setattr__(self, "D", D)


@dataclass(frozen=True)
class GaussianPacket:
    """Initial data of one Gaussian component: center, momentum, width."""

    x0: float
    p0: float
    sigma0: float

    def __post_init__(self):
        _require_finite(x0=self.x0, p0=self.p0, sigma0=self.sigma0)
        if self.sigma0 <= 0:
            raise ParameterError("packet width sigma0 must be positive")


@dataclass(frozen=True)
class SuperpositionSpec:
    """Two equal-width packets at -L/2 (at rest) and +L/2 (kicked by hbar*k),
    superposed with relative phase alpha."""

    packetA: GaussianPacket
    packetB: GaussianPacket
    L: float
    k: float
    alpha: float

    def __post_init__(self):
        _require_finite(L=self.L, k=self.k, alpha=self.alpha)
        if self.L <= 0:
            raise ParameterError("separation L must be positive")
        # construction goes through make_superposition, but guard invariants
        # anyway so hand-built specs cannot be inconsistent
        if self.packetA.x0 != -self.L / 2 or self.packetB.x0 != self.L / 2:
            raise ParameterError("packet centers must sit at -L/2 and +L/2")
        if self.packetA.p0 != 0.0:
            raise ParameterError("left packet must start at rest")
        if self.packetA.sigma0 != self.packetB.sigma0:
            raise ParameterError("both packets must share one width")

    @property
    def sigma0(self) -> float:
        return self.packetA.sigma0


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with at least two samples."""

    t_start: float
    t_end: float
    n_samples: int

    def __post_init__(self):
        if self.t_start > self.t_end:
            raise ParameterError("t_start must not exceed t_end")
        if self.n_samples < 2:
            raise ParameterError("a time grid needs at least 2 samples")

    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_samples)


def make_superposition(
    L: float, sigma0: float, k: float, alpha: float, hbar: float = 1.0
) -> SuperpositionSpec:
    """Build the standard two-packet spec: centers at -L/2 and +L/2, the right
    packet kicked with momentum hbar*k."""
    _require_finite(L=L, sigma0=sigma0, k=k, alpha=alpha)
    pA = GaussianPacket(x0=-L / 2, p0=0.0, sigma0=sigma0)
    pB = GaussianPacket(x0=+L / 2, p0=hbar * k, sigma0=sigma0)
    return SuperpositionSpec(packetA=pA, packetB=pB, L=L, k=k, alpha=alpha)


def float_if_scalar(x):
    """x as a plain float when it is a scalar, unchanged when it is an array."""
    return x if np.ndim(x) else float(x)


def _branchwise(small, series, closed, *args):
    """series(*args) on the entries where the boolean array small holds and
    closed(*args) on the others.

    Each branch sees only its own entries of the arrays args, which share
    small's shape, so neither branch overflows or divides by zero on an
    entry that the other takes; a branch that no entry selects is not
    evaluated.  A 0-d mask always selects one branch whole, and that branch
    then gets args unchanged.
    """
    if np.ndim(small) == 0:
        return series(*args) if small else closed(*args)
    n_small = np.count_nonzero(small)
    if n_small == np.size(small):
        return series(*args)
    if n_small == 0:
        return closed(*args)
    out = np.empty(np.shape(small))
    for mask, branch in ((small, series), (~small, closed)):
        out[mask] = branch(*(a[mask] for a in args))
    return out


# Below gamma*t = 1e-4 the closed form 1 - e^{-2 gamma t} loses digits to
# cancellation, so a short series takes over; both branches carry >= 12
# significant digits at the switch.
_TAU_SWITCH = 1e-4


def scaled_time_tau(gamma: float, t):
    """tau(t) = (1 - e^{-2 gamma t}) / (2 gamma), the friction-scaled time.

    Monotone in t, bounded by 1/(2 gamma); returns t exactly when gamma = 0.
    Takes a scalar or an array of t and returns a float for scalar t.
    """
    t = np.asarray(t, dtype=float)
    if gamma == 0.0:
        return float_if_scalar(t.copy())

    def series(ts):
        gt = gamma * ts
        # tau = t (1 - g t + (2/3)(g t)^2 - (1/3)(g t)^3 + (2/15)(g t)^4)
        return ts * (1.0 + gt * (-1.0 + gt * (2.0 / 3.0 + gt * (-1.0 / 3.0 + gt * 2.0 / 15.0))))

    def closed(tc):
        return -np.expm1(-2.0 * gamma * tc) / (2.0 * gamma)

    return float_if_scalar(_branchwise(gamma * t < _TAU_SWITCH, series, closed, t))


def _tau_and_drift(gamma: float, t):
    """scaled_time_tau(gamma, t) and the friction drift (t - tau)/(2 gamma)
    taken from that one tau; a series below the same switch keeps the
    drift's gamma -> 0 limit t^2/2."""
    t = np.asarray(t, dtype=float)
    tau = scaled_time_tau(gamma, t)
    if gamma == 0.0:
        return tau, float_if_scalar(0.5 * t * t)

    def series(ts, _):
        gt = gamma * ts
        # (t - tau)/(2 gamma) = t^2 (1/2 - gt/3 + gt^2/6 - gt^3/15 + gt^4/45)
        return ts * ts * (0.5 + gt * (-1.0 / 3.0 + gt * (1.0 / 6.0 + gt * (-1.0 / 15.0 + gt / 45.0))))

    def closed(tc, tau_c):
        return (tc - tau_c) / (2.0 * gamma)

    return tau, float_if_scalar(_branchwise(gamma * t < _TAU_SWITCH, series, closed, t, tau))


def validate_regime(c: PhysicalConstants, b: BathParams) -> list[str]:
    """Return warnings when the high-temperature condition kB T >> hbar gamma
    fails; ">>" is operationalized as a factor of 10."""
    warnings = []
    if c.kB * b.T < 10.0 * c.hbar * b.gamma:
        warnings.append(
            "kB*T = %.6g is not large against hbar*gamma = %.6g "
            "(need a factor >= 10); dissipative results may be outside "
            "the model's validity range" % (c.kB * b.T, c.hbar * b.gamma)
        )
    return warnings

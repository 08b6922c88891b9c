"""Analytic dissipative evolution of the superposed density matrix, the
matching Bohmian kinematics, and modular/translation observables with
diagnostics.

The density matrix is expressed in relative/midpoint coordinates
r = x - x', R = (x + x')/2 as a weighted sum of four Gaussian terms

    rho_j(r, R, t) = (1/(sqrt(2 pi) w_t)) exp[a_j(r,t) - (R + i b_j(r,t))^2 / (2 w_t^2)]

with a_j quadratic and b_j linear in r.  All coefficients are evaluated in
cancellation-free form through the scaled times tau_c(t) = -expm1(-c t)/c,
so the gamma -> 0 limit is exact.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .params import (
    BathParams,
    GaussianPacket,
    PhysicalConstants,
    SuperpositionSpec,
    TimeGrid,
    TimeSeries,
    float_if_scalar,
    friction_drift,
    scaled_time_tau,
)
from .schrodinger import BohmianTrajectory, DomainError

_UNDERFLOW = 1e-300

# Taylor coefficients of f(u) = 3 + e^{-2u} - 4 e^{-u} - 2u = sum c_n u^n,
# c_n = ((-2)^n - 4 (-1)^n) / n!, nonzero from n = 3 on.  The bracket feeds
# the diffusive width correction and cancels badly for small u.
_BRACKET_COEFFS = [
    ((-2.0) ** n - 4.0 * (-1.0) ** n) / math.factorial(n) for n in range(3, 17)
]


def _width_bracket_over_u3(u):
    """(3 + e^{-2u} - 4 e^{-u} - 2u) / u^3, stable for all u >= 0."""
    u = np.asarray(u, dtype=float)
    small = u <= 0.5
    # series sum_{n>=3} c_n u^{n-3}; 14 terms keep full precision up to the switch
    acc = np.zeros_like(u)
    for cn in reversed(_BRACKET_COEFFS):
        acc = acc * u + cn
    with np.errstate(divide="ignore", invalid="ignore"):
        closed = (3.0 + np.exp(-2.0 * u) - 4.0 * np.exp(-u) - 2.0 * u) / u**3
    out = np.where(small, acc, closed)
    return float_if_scalar(out)


@dataclass(frozen=True)
class PacketStateCL:
    """Dissipatively evolved packet parameters: center x_t, width w_t and the
    friction-scaled time tau."""

    x_t: float
    w_t: float
    tau: float


def _center_width(p: GaussianPacket, gamma: float, D: float, c: PhysicalConstants, ts):
    """Vectorized center and width of one packet for a given rate/diffusion.

    Kept separate from the bath object so window solvers can rescale the
    rate while holding D fixed.
    """
    ts = np.asarray(ts, dtype=float)
    m, hbar, g = c.m, c.hbar, c.g
    s0 = p.sigma0
    tau = scaled_time_tau(gamma, ts)
    drift = friction_drift(gamma, ts)
    x_t = p.x0 + p.p0 * tau / m - g * drift
    # diffusive broadening: -(bracket) D/(8 m^2 gamma^3) = -D t^3 h(u)/m^2, u = 2 gamma t
    u = 2.0 * gamma * ts
    w_sq = s0**2 * (1.0 + (hbar * tau) ** 2 / (4.0 * m**2 * s0**4)) \
        - D * ts**3 * _width_bracket_over_u3(u) / m**2
    w_t = np.sqrt(w_sq)
    return x_t, w_t, tau


def cl_packet_state(
    p: GaussianPacket, b: BathParams, c: PhysicalConstants, t: float
) -> PacketStateCL:
    """Evolve one packet's center and width under friction and diffusion."""
    x_t, w_t, tau = _center_width(p, b.gamma, b.D, c, t)
    return PacketStateCL(x_t=float(x_t), w_t=float(w_t), tau=float(tau))


def cl_bohmian_trajectory(
    p: GaussianPacket, b: BathParams, c: PhysicalConstants, X0: float, grid: TimeGrid
) -> BohmianTrajectory:
    """X(t) = x_t + (X0 - x0) w_t / sigma0 on the grid."""
    ts = grid.times()
    x_t, w_t, _ = _center_width(p, b.gamma, b.D, c, ts)
    X = x_t + (X0 - p.x0) * w_t / p.sigma0
    return BohmianTrajectory(X0=X0, samples=np.column_stack([ts, X]))


def _term_parts(spec, b, c, t, h_coeff=None):
    """Shared coefficient structure at time(s) t.

    Returns (w, quad, slope, [(A_j, lin_j, beta_j)]_j, weights) where
    a_j(r) = A_j + lin_j r + quad r^2 and b_j(r) = beta_j + slope r.  The
    time-dependent parts have the shape of t, so an array (or nested list)
    of t broadcasts against r and R in _eval_parts.
    """
    m, hbar, g = c.m, c.hbar, c.g
    gamma, D = b.gamma, b.D
    s0 = spec.sigma0
    L, k = spec.L, spec.k
    h = c.hbar if h_coeff is None else h_coeff
    t = np.asarray(t, dtype=float)

    _, w, tau = _center_width(spec.packetA, gamma, D, c, t)
    tau4 = scaled_time_tau(2.0 * gamma, t)  # (1 - e^{-4 gamma t}) / (4 gamma)
    drift = friction_drift(gamma, t)
    e2 = np.exp(-2.0 * gamma * t)

    quad = -(D * tau4 / hbar**2 + e2 * e2 / (8.0 * s0**2))
    slope = -(D * tau**2 / (hbar * m) + hbar * tau * e2 / (4.0 * m * s0**2))

    lin1 = -1j * m * g * tau / hbar
    beta1 = -1j * (L / 2.0 + g * drift)

    lin2 = lin1 + 1j * k * e2
    beta2 = beta1 + 1j * (L + h * k * tau / m)

    A3 = -(4.0 * k**2 * s0**4 + 4j * k * L * s0**2 + L**2) / (8.0 * s0**2)
    lin3 = lin1 + e2 * (L + 2j * k * s0**2) / (4.0 * s0**2)
    beta3 = beta1 + (L + 2j * k * s0**2) * (hbar * tau + 2j * m * s0**2) / (4.0 * m * s0**2)

    A4 = A3 + 1j * k * L
    lin4 = lin3 - L * e2 / (2.0 * s0**2)
    beta4 = beta3 + 2.0 * k * s0**2 - hbar * L * tau / (2.0 * m * s0**2)

    terms = [(0.0, lin1, beta1), (0.0, lin2, beta2), (A3, lin3, beta3), (A4, lin4, beta4)]
    # equal-weight superposition: each term carries 1/2
    weights = [0.5, 0.5, 0.5 * cmath.exp(1j * spec.alpha), 0.5 * cmath.exp(-1j * spec.alpha)]
    return w, quad, slope, terms, weights


def _eval_parts(parts, r, R):
    """rho(r, R) from precomputed coefficient parts (broadcasts t, r and R)."""
    w, quad, slope, terms, weights = parts
    r = np.asarray(r)
    R = np.asarray(R)
    pref = 1.0 / (math.sqrt(2.0 * math.pi) * w)
    total = 0.0j
    for (A, lin, beta), wt in zip(terms, weights):
        a = A + lin * r + quad * r * r
        bb = beta + slope * r
        total = total + wt * np.exp(a - (R + 1j * bb) ** 2 / (2.0 * w * w))
    return pref * total


def _eval_parts_dr(parts, r, R):
    """Analytic d rho / d r from precomputed parts."""
    w, quad, slope, terms, weights = parts
    r = np.asarray(r)
    R = np.asarray(R)
    pref = 1.0 / (math.sqrt(2.0 * math.pi) * w)
    total = 0.0j
    for (A, lin, beta), wt in zip(terms, weights):
        a = A + lin * r + quad * r * r
        bb = beta + slope * r
        term = np.exp(a - (R + 1j * bb) ** 2 / (2.0 * w * w))
        dlog = lin + 2.0 * quad * r - 1j * slope * (R + 1j * bb) / (w * w)
        total = total + wt * term * dlog
    return pref * total


def density_matrix_rR(
    spec: SuperpositionSpec,
    b: BathParams,
    c: PhysicalConstants,
    r,
    R,
    t: float,
):
    """rho(r, R, t) = (1/2)[rho1 + rho2 + e^{i alpha} rho3 + e^{-i alpha} rho4]."""
    return _eval_parts(_term_parts(spec, b, c, t), r, R)


def cl_density(spec, b, c, x, t: float):
    """Diagonal rho(x, x, t); real and nonnegative."""
    val = density_matrix_rR(spec, b, c, 0.0, x, t)
    out = np.real(val)
    return float_if_scalar(out)


def cl_current(spec, b, c, x, t: float):
    """Probability current j(x,t) = (hbar/m) Im d rho/d r at (r=0, R=x)."""
    d = _eval_parts_dr(_term_parts(spec, b, c, t), 0.0, np.asarray(x, dtype=float))
    out = (c.hbar / c.m) * np.imag(d)
    return float_if_scalar(out)


def local_translation(spec, b, c, x: float, t: float) -> complex:
    """Local displacement value rho(x+L, x, t) / rho(x, x, t)."""
    parts = _term_parts(spec, b, c, t)
    den = _eval_parts(parts, 0.0, np.asarray(x))
    if abs(den) < _UNDERFLOW:
        raise DomainError("rho(x, x, t) underflows at x = %g" % x)
    num = _eval_parts(parts, spec.L, np.asarray(x + spec.L / 2.0))
    return complex(num / den)


def cl_local_modular_on_trajectory(
    spec, b, c, X0: float, grid: TimeGrid, support_factor: float = 5.0
) -> TimeSeries:
    """Local Hermitian modular value along the left packet's trajectory:
    Re{[rho(X+L, X) + rho(X-L, X)] / (2 rho(X, X))}."""
    pA = spec.packetA
    if abs(X0 - pA.x0) > support_factor * pA.sigma0:
        warnings.warn(
            "X0 = %g lies outside the left packet's %g-sigma support" % (X0, support_factor)
        )
    traj = cl_bohmian_trajectory(pA, b, c, X0, grid)
    ts, X, L = traj.t, traj.X, spec.L
    parts = _term_parts(spec, b, c, ts)
    den = _eval_parts(parts, 0.0, X)
    under = np.abs(den) < _UNDERFLOW
    if under.any():
        raise DomainError("rho(X, X, t) underflows at t = %g" % ts[np.argmax(under)])
    up = _eval_parts(parts, L, X + L / 2.0)
    dn = _eval_parts(parts, -L, X - L / 2.0)
    return TimeSeries(
        t=ts,
        values=np.real((up + dn) / (2.0 * den)),
        provenance="cl local modular, X0=%g, alpha=%g, gamma=%g, T=%g"
        % (X0, spec.alpha, b.gamma, b.T),
    )


class QuadratureError(RuntimeError):
    """Raised when a quadrature's error estimate exceeds its tolerance."""


# composite Gauss-Legendre orders of the coarse and fine passes; their
# difference is the error estimate of every quadrature oracle
_GL_RULES = {n: np.polynomial.legendre.leggauss(n) for n in (18, 26)}


def _panel_nodes(breaks, scale, n):
    """Composite Gauss-Legendre nodes/weights over the sorted breakpoints,
    panels no wider than ~3 scale."""
    nodes, wts = _GL_RULES[n]
    xs, ws = [], []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        n_panels = max(1, int(math.ceil((hi - lo) / (3.0 * scale))))
        edges = np.linspace(lo, hi, n_panels + 1)
        half = (0.5 * (edges[1:] - edges[:-1]))[:, None]
        mid = (0.5 * (edges[1:] + edges[:-1]))[:, None]
        xs.append((half * nodes + mid).ravel())
        ws.append((half * wts).ravel())
    return np.concatenate(xs), np.concatenate(ws)


def _gl_line_integral(f, peaks, width):
    """Integral of the vectorized integrand f along a line of Gaussian packets.

    The interval runs from 15 widths below the lowest peak (where a packet
    has decayed below e^-112) to 15 widths above the highest, with
    breakpoints at the peaks and panels no wider than ~3 widths.  An 18-node
    and a 26-node pass each evaluate f once on one array of nodes; returns
    (fine value, |fine - coarse|).
    """
    peaks = sorted(set(peaks))
    breaks = [peaks[0] - 15.0 * width] + peaks + [peaks[-1] + 15.0 * width]
    coarse, fine = (
        np.dot(wts, f(xs)) for xs, wts in (_panel_nodes(breaks, width, n) for n in (18, 26))
    )
    return complex(fine), abs(fine - coarse)


def _line_scale(parts, r0):
    """Peak magnitude of the density-matrix parts along the line r = r0.

    Each part's R profile is a displaced complex Gaussian; its pointwise
    magnitude peaks exp(Re(u)^2 / 2w^2) above its own integral (u is the
    displacement), so deep in the decohered regime every value can sit far
    below any absolute tolerance.  Dividing the integrand by this scale
    keeps the error gate acting relative to the largest part.
    """
    w, quad, slope, terms, weights = parts
    best = -math.inf
    for wt, (A, lin, beta) in zip(weights, terms):
        u = beta + slope * r0
        expo = (A + lin * r0 + quad * r0 * r0).real + u.real**2 / (2.0 * w * w)
        best = max(best, math.log(abs(wt)) + expo)
    return math.exp(best) if best > -700.0 else 0.0


def cl_modular_quadrature(spec, b, c, t: float, ell: float) -> float:
    """<cos(p ell / hbar)> = Re of the mean of the translation integrals
    <e^{+-i p ell / hbar}> = integral of rho(x' +- ell, x', t) dx', each by
    the composite Gauss-Legendre kernel on the analytic density matrix;
    valid for any ell."""
    parts = _term_parts(spec, b, c, t)
    w = parts[0]
    peaks = [beta.imag for (_, _, beta) in parts[3]]
    total = 0.0j
    for r in (ell, -ell):
        scale = _line_scale(parts, r)
        if scale == 0.0:
            continue
        # integrand rho(x' + r, x') at midpoint R = x' + r/2
        val, err = _gl_line_integral(
            lambda xp: _eval_parts(parts, r, xp + r / 2.0) / scale,
            [p - r / 2.0 for p in peaks],
            w,
        )
        if err > 1e-8:
            raise QuadratureError(
                "translation quadrature error %.3g at t=%g, ell=%g" % (err, t, r)
            )
        total += val * scale
    return float((total / 2.0).real)


def cl_modular_envelope_phase(spec, b, c, t):
    """Envelope and cosine argument of the dissipative modular signal, over
    a scalar or an array of t."""
    m, hbar, g = c.m, c.hbar, c.g
    gamma, D = b.gamma, b.D
    s0, L, k = spec.sigma0, spec.L, spec.k
    tau = scaled_time_tau(gamma, t)
    tau4 = scaled_time_tau(2.0 * gamma, t)
    # tau * tau, not tau**2: Python's float power and numpy's square round
    # differently, and a scalar t must give the bits of an array of t
    envelope = 0.5 * np.exp(
        -D * L**2 * tau4 / hbar**2
        - L**2 * gamma**2 * (tau * tau) / (2.0 * s0**2)
        - 0.5 * k**2 * s0**2
    )
    phase = spec.alpha - L * tau * (k * gamma + m * g / hbar)
    return float_if_scalar(envelope), phase


def cl_modular_closed(spec, b, c, t):
    """Closed-form dissipative modular signal; reduces exactly to the unitary
    result as gamma -> 0.  Takes a scalar or an array of t."""
    envelope, phase = cl_modular_envelope_phase(spec, b, c, t)
    return float_if_scalar(envelope * np.cos(phase))


def trace_check(spec, b, c, t: float) -> float:
    """Trace of the density matrix by quadrature (the ell = 0 modular value)."""
    return cl_modular_quadrature(spec, b, c, t, 0.0)


def _blob_rectangles(parts):
    """Effective-support rectangles of the four terms in the (r, R) plane,
    and the width s_r in r that they share."""
    w, quad, slope, terms, _ = parts
    # |rho_j| ~ exp[Re a + (Re b)^2/(2 w^2)] = exp[Q r^2 + ...]: the same Q for every term
    Q = quad + slope * slope / (2.0 * w * w)
    s_r = 1.0 / math.sqrt(2.0 * abs(Q))
    rects = []
    for (A, lin, beta) in terms:
        lin_eff = lin.real + beta.real * slope / (w * w)
        r_star = -lin_eff / (2.0 * Q)
        rects.append(
            [r_star - 12.0 * s_r, r_star + 12.0 * s_r,
             beta.imag - 12.0 * w, beta.imag + 12.0 * w]
        )
    return rects, s_r


def _merge_rects(rects):
    merged = [list(r) for r in rects]
    changed = True
    while changed:
        changed = False
        for i in range(len(merged)):
            for j in range(i + 1, len(merged)):
                a, bx = merged[i], merged[j]
                if a[0] <= bx[1] and bx[0] <= a[1] and a[2] <= bx[3] and bx[2] <= a[3]:
                    merged[i] = [min(a[0], bx[0]), max(a[1], bx[1]),
                                 min(a[2], bx[2]), max(a[3], bx[3])]
                    merged.pop(j)
                    changed = True
                    break
            if changed:
                break
    return merged


def _abs_on_grid(parts, r, R):
    """|rho(r_i, R_k)| on the tensor grid of the 1-D arrays r and R.

    Each term's exponent a_j(r) - (R + i b_j(r))^2/(2 w^2) splits into a part
    in r, a part in R and the cross term -i slope r R / w^2.  slope and w are
    real, so the cross term is one unit-modulus factor shared by all four
    terms and drops out of the modulus:

        |rho| = |sum_j F_j(r) G_j(R)| / (sqrt(2 pi) w),

    the modulus of an (n_r x 4) @ (4 x n_R) product, with

        F_j(r) = wt_j exp[a_j(r) + (Re b_j(r))^2/(2 w^2) + i slope Im(beta_j) r / w^2],
        G_j(R) = exp[-(R - Im beta_j)^2/(2 w^2) - i Re(beta_j) (R - Im beta_j) / w^2].

    |F_j(r)| is the peak of |rho_j| along the line r (times sqrt(2 pi) w) and
    |G_j| <= 1, so neither factor overflows where rho does not.  Factors
    below 2^-511 are set to zero: that changes |rho| by less than 2^-500 of
    its peak, and a product of two such factors would be subnormal, which the
    matrix product computes on the processor's slow path.
    """
    w, quad, slope, terms, weights = parts
    F = np.empty((len(r), len(terms)), dtype=complex)
    G = np.empty((len(terms), len(R)), dtype=complex)
    for j, ((A, lin, beta), wt) in enumerate(zip(terms, weights)):
        re_b = beta.real + slope * r
        F[:, j] = wt * np.exp(
            A + lin * r + quad * r * r + re_b * re_b / (2.0 * w * w)
            + 1j * (slope * beta.imag / (w * w)) * r
        )
        dR = R - beta.imag
        G[j] = np.exp(-dR * dR / (2.0 * w * w) - 1j * (beta.real / (w * w)) * dR)
    F[np.abs(F) < 2.0**-511] = 0.0
    G[np.abs(G) < 2.0**-511] = 0.0
    return np.abs(F @ G) / (math.sqrt(2.0 * math.pi) * w)


def _gl_integral_abs(parts, rect, s_r, n):
    w = parts[0]
    lo_r, hi_r, lo_R, hi_R = rect
    r, r_wts = _panel_nodes((lo_r, hi_r), s_r, n)
    R, R_wts = _panel_nodes((lo_R, hi_R), w, n)
    return float(r_wts @ _abs_on_grid(parts, r, R) @ R_wts)


def l1_coherence(spec, b, c, t: float):
    """Position-basis l1 coherence: the double integral of |rho(r, R, t)|.

    Integrates over the union of the four terms' effective-support
    rectangles with composite Gauss-Legendre rules; returns
    (value, error_estimate).
    """
    parts = _term_parts(spec, b, c, t)
    rects, s_r = _blob_rectangles(parts)
    rects = _merge_rects(rects)
    coarse = sum(_gl_integral_abs(parts, rect, s_r, 18) for rect in rects)
    fine = sum(_gl_integral_abs(parts, rect, s_r, 26) for rect in rects)
    err = abs(fine - coarse)
    if err > 1e-6 * max(1.0, abs(fine)):
        raise QuadratureError("l1 coherence quadrature did not settle: diff %.3g" % err)
    return fine, err

"""Exchange-statistics modular expectations and the common-bath reduced
signal."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import BASE, base_constants, base_spec, golden_record, make_bath
from modvar.oracles import two_particle_translation
from modvar.params import GaussianPacket, make_superposition
from modvar.two_particle import (
    StatisticsKind,
    gaussian_overlap,
    initial_phase_rate,
    modular_indistinguishable,
    reduced_modular_common_bath,
    reduced_modular_components,
    translated_matrix_element,
)

MB, BE, FD = StatisticsKind.MB, StatisticsKind.BE, StatisticsKind.FD


def _packet_values(p, c, xs):
    s2 = p.sigma0**2
    norm = (2.0 * math.pi * s2) ** -0.25
    return norm * np.exp(-((xs - p.x0) ** 2) / (4.0 * s2) + 1j * p.p0 * (xs - p.x0) / c.hbar)


def test_overlap_normalization():
    c = base_constants()
    for p in (GaussianPacket(0.0, 0.0, 1.0), GaussianPacket(-3.0, 0.7, 1.6)):
        assert gaussian_overlap(p, p, c) == pytest.approx(1.0, abs=1e-14)


def test_overlap_against_quadrature():
    c = base_constants()
    pA = GaussianPacket(x0=-1.0, p0=0.4, sigma0=1.2)
    pB = GaussianPacket(x0=1.5, p0=-0.9, sigma0=0.8)

    def integrand_re(x):
        return (np.conj(_packet_values(pA, c, x)) * _packet_values(pB, c, x)).real

    def integrand_im(x):
        return (np.conj(_packet_values(pA, c, x)) * _packet_values(pB, c, x)).imag

    re, _ = quad(integrand_re, -15.0, 15.0, epsabs=1e-13)
    im, _ = quad(integrand_im, -15.0, 15.0, epsabs=1e-13)
    got = gaussian_overlap(pA, pB, c)
    assert got.real == pytest.approx(re, abs=1e-12)
    assert got.imag == pytest.approx(im, abs=1e-12)


def test_translated_element_against_quadrature():
    c = base_constants()
    pA = GaussianPacket(x0=-1.0, p0=0.4, sigma0=1.2)
    pB = GaussianPacket(x0=-4.5, p0=-0.9, sigma0=0.8)
    ell = 3.0

    def integrand(x, part):
        val = np.conj(_packet_values(pA, c, x)) * _packet_values(pB, c, x + ell)
        return val.real if part == "re" else val.imag

    re, _ = quad(integrand, -15.0, 15.0, args=("re",), epsabs=1e-13)
    im, _ = quad(integrand, -15.0, 15.0, args=("im",), epsabs=1e-13)
    got = translated_matrix_element(pA, pB, ell, c)
    assert got.real == pytest.approx(re, abs=1e-12)
    assert got.imag == pytest.approx(im, abs=1e-12)


def test_product_state_value():
    c = base_constants()
    for alpha in (0.0, math.pi / 4, 2.1):
        spec = base_spec(alpha)
        M = translated_matrix_element(spec.packetA, spec.packetB, spec.L, c)
        mb = modular_indistinguishable(spec, spec.packetA, MB, c)
        assert mb == pytest.approx(0.5 * cmath.exp(1j * alpha) * M, abs=1e-15)


def test_product_state_overlapping_packets_match_oracle():
    # the product-term sum is exact where the packets overlap
    c = base_constants()
    for L in (2.0, 4.0):
        spec = make_superposition(L=L, sigma0=1.0, k=0.1, alpha=math.pi / 4)
        pA, pB = spec.packetA, spec.packetB
        b = cmath.exp(1j * spec.alpha) / math.sqrt(2.0)
        terms = [(1.0 / math.sqrt(2.0), pA, pA), (b, pB, pA)]
        want = two_particle_translation(terms, spec.L, c)
        assert abs(modular_indistinguishable(spec, pA, MB, c) - want) <= 1e-12


def _companions(spec):
    """The superposed packets themselves and a packet far from both."""
    return {
        "A": spec.packetA,
        "B": spec.packetB,
        "far": GaussianPacket(x0=10.0 * spec.L, p0=0.0, sigma0=spec.sigma0),
    }


def test_tag_ratios():
    # <T_L (x) 1>/MB in psi (x) chi +- chi (x) psi: (1 +- 1)/(2 +- 1) when chi
    # is the translated packet A, 1/2 when it overlaps neither packet
    c = base_constants()
    spec = base_spec(math.pi / 4)
    mb = modular_indistinguishable(spec, spec.packetA, MB, c)
    want = {("A", BE): 2.0 / 3.0, ("A", FD): 0.0, ("far", BE): 0.5, ("far", FD): 0.5}
    companions = _companions(spec)
    for (name, s), ratio in want.items():
        got = modular_indistinguishable(spec, companions[name], s, c) / mb
        assert abs(got - ratio) <= 1e-12, (name, s)


def test_general_companion_far_away_matches_disjoint():
    c = base_constants()
    spec = base_spec(math.pi / 4)
    mb = modular_indistinguishable(spec, spec.packetA, MB, c)
    remote = GaussianPacket(x0=400.0, p0=0.0, sigma0=1.0)
    for s in (BE, FD):
        got = modular_indistinguishable(spec, remote, s, c)
        assert got == pytest.approx(0.5 * mb, rel=1e-10)


def test_general_companion_equal_to_right_packet():
    # a companion built to coincide with packet B: the exchange term doubles
    # the bosonic signal's numerator (ratio 2/3) and cancels the fermionic one
    c = base_constants()
    spec = base_spec(math.pi / 4)
    mb = modular_indistinguishable(spec, spec.packetA, MB, c)
    chi = GaussianPacket(x0=spec.packetB.x0, p0=spec.packetB.p0, sigma0=spec.sigma0)
    assert abs(modular_indistinguishable(spec, chi, BE, c) / mb - 2.0 / 3.0) <= 1e-12
    assert abs(modular_indistinguishable(spec, chi, FD, c) / mb) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(
    alpha=st.floats(0.0, 2.0 * math.pi),
    companion=st.sampled_from(["A", "B", "far"])
    | st.builds(
        GaussianPacket,
        x0=st.floats(-60.0, 60.0),
        p0=st.floats(-1.0, 1.0),
        sigma0=st.floats(0.3, 3.0),
    ),
    s=st.sampled_from([MB, BE, FD]),
)
def test_translation_bound(alpha, companion, s):
    # |<T_L (x) 1>| <= 1/2 for every single-Gaussian companion
    c = base_constants()
    spec = base_spec(alpha)
    if isinstance(companion, str):
        companion = _companions(spec)[companion]
    val = modular_indistinguishable(spec, companion, s, c)
    assert abs(val) <= 0.5 + 1e-12


def test_fermionic_equal_companion_bounded():
    c = base_constants()
    for alpha in np.linspace(0.0, 2.0 * math.pi, 13):
        spec = base_spec(alpha)
        val = modular_indistinguishable(spec, spec.packetA, FD, c)
        assert abs(val) <= 0.5 + 1e-12


def test_common_bath_initial_value():
    c = base_constants()
    for alpha in (0.0, math.pi / 4):
        spec = base_spec(alpha)
        b = make_bath(0.005, 15.0)
        want = 0.5 * math.exp(-0.5 * spec.k**2 * spec.sigma0**2) * math.cos(alpha)
        assert reduced_modular_common_bath(spec, b, c, 0.0) == pytest.approx(want, abs=1e-14)


def test_common_bath_frictionless_limit():
    # with the bath switched off the reduced signal is the unitary one
    from modvar.schrodinger import modular_expectation

    c = base_constants()
    spec = base_spec(math.pi / 4)
    b0 = make_bath(0.0, 2.0)
    for t in (0.0, 0.7, 2.0):
        assert reduced_modular_common_bath(spec, b0, c, t) == pytest.approx(
            modular_expectation(spec, c, t), abs=1e-14
        )


def test_common_bath_against_high_precision(goldens):
    params = {**BASE, "alpha": 0.0, "gamma": 0.005, "T": 15.0, "t": 2.0}
    (ref,), _oracle, tol = golden_record(goldens, "reduced_modular_common_bath", params)
    got = reduced_modular_common_bath(base_spec(0.0), make_bath(0.005, 15.0), base_constants(), 2.0)
    assert abs(got - ref) < tol


def test_common_bath_envelope_positive_and_decaying():
    c = base_constants()
    spec = base_spec(0.0)
    b = make_bath(0.005, 15.0)
    envs = [reduced_modular_components(spec, b, c, t)[0] for t in np.linspace(0.0, 2.0, 9)]
    assert all(e > 0.0 for e in envs)
    assert all(e0 > e1 for e0, e1 in zip(envs, envs[1:]))


def test_initial_phase_rate_value():
    c = base_constants()
    spec = base_spec(math.pi / 2)
    b = make_bath(0.005, 15.0)
    assert initial_phase_rate(spec, b, c) == pytest.approx(-149.975, rel=1e-12)


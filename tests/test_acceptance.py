"""Acceptance checks: one test per release criterion.

The criteria themselves are defined once, in `modvar.verify`, which also
backs `modvar verify`.  Each test here runs one of them, prints its record
so a red run still shows how far off the build is, and asserts that it
passed.
"""

from modvar import verify

_BY_ID = {check.id: check for check in verify.CRITERIA}


def _check(cid):
    result = _BY_ID[cid]()
    print(verify.format_result(result))
    assert result.passed, result


def test_c01_nonoverlap_windows():
    _check("c01")


def test_c02_unitary_modular_vs_characteristic_oracle():
    _check("c02")


def test_c03_dissipative_modular_vs_quadrature():
    _check("c03")


def test_c04_governing_equation_residuals():
    _check("c04")


def test_c05_trajectory_ode_vs_closed_form():
    _check("c05")


def test_c06_local_to_global_decomposition():
    _check("c06")


def test_c07_expectation_evolution_residuals():
    _check("c07")


def test_c08_density_matrix_sanity_all_figure_sets():
    _check("c08")


def test_c09_continuum_limit_halving_ratio():
    _check("c09")


def test_c10_exchange_statistics_ratios():
    _check("c10")


def test_c11_temperature_and_phase_separation():
    _check("c11")


def test_c12_local_observables_blind_to_relative_phase():
    _check("c12")


def test_c13_spectral_propagation_error():
    _check("c13")


def test_c14_figure_csv_regression():
    _check("c14")


def test_every_criterion_has_a_test():
    tested = sorted(name[5:8] for name in globals() if name.startswith("test_c"))
    assert tested == sorted(_BY_ID)

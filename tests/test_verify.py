"""The verify gates behind `modvar verify`, run outside the test layout."""

from modvar.verify import gate_figure_regression


def test_figure_regression_gate_from_another_directory(tmp_path, monkeypatch):
    # the default golden directory is found from the package, not the cwd
    monkeypatch.delenv("MODVAR_GOLDEN_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    result = gate_figure_regression()
    assert result.passed, result.observed

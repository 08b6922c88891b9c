"""The verify gates behind `modvar verify`, run outside the test layout,
and the report and exit code of a failing suite."""

from modvar import cli, verify
from modvar.verify import gate_figure_regression


def test_figure_regression_gate_from_another_directory(tmp_path, monkeypatch):
    # the default golden directory is found from the package, not the cwd
    monkeypatch.delenv("MODVAR_GOLDEN_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    result = gate_figure_regression()
    assert result.passed, result.observed


def test_failing_and_over_budget_gates_exit_1(monkeypatch, capsys):
    # every real gate passes, so stub gates exercise the failing branch: one
    # fails its check, one passes its check but overruns a zero wall budget
    monkeypatch.setattr(verify, "CRITERIA", [])
    verify.criterion("s01", "passing stub", "always")(lambda: ({"x": 1.0}, True))
    verify.criterion("s02", "failing stub", "never")(lambda: ({"x": 2.0}, False))
    verify.criterion("s03", "slow stub", "always", budget=0.0)(lambda: ({"x": 3.0}, True))
    monkeypatch.setattr(verify, "SUITES", {"fast": verify.CRITERIA, "full": verify.CRITERIA})
    assert cli.main(["verify"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[-1] == "1/3 gates passed (fast suite)"
    fails = [line for line in lines if line.startswith("[FAIL]")]
    assert [line.split()[1:3] for line in fails] == [["failing", "stub"], ["slow", "stub"]]
    assert "(gate: always; under 0 s)" in fails[1]


def test_all_passing_gates_exit_0(monkeypatch, capsys):
    monkeypatch.setattr(verify, "CRITERIA", [])
    for cid in ("s01", "s02", "s03"):
        verify.criterion(cid, "passing stub", "always")(lambda: ({"x": 1.0}, True))
    monkeypatch.setattr(verify, "SUITES", {"fast": verify.CRITERIA, "full": verify.CRITERIA})
    assert cli.main(["verify"]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == ["[PASS]"] * 3
    assert lines[-1] == "3/3 gates passed (fast suite)"

"""End-to-end command-line behavior, in process through cli.main.

The suite's warning filter turns a raw warning into an exception that main
does not catch, so no case here can pass while printing one.  Child
processes run only where the interpreter itself is under test: the modules
each command loads, and one `python -m modvar.cli` call per exit code."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modvar import cli, figures
from modvar.config import FIGURE_DEFAULTS


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "modvar.cli", *argv],
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture
def run_main(capsys):
    """cli.main on argv, with its exit code and captured output in the
    fields of a finished child process."""

    def run(*argv):
        code = cli.main(list(argv))
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(argv, code, out, err)

    return run


def test_window_unitary():
    res = run_cli("window", "--framework", "schrodinger")
    assert res.returncode == 0
    match = re.search(r"t_max = ([0-9.]+)", res.stdout)
    assert match and float(match.group(1)) == pytest.approx(10.002041, abs=1e-5)
    assert "criterion:" in res.stdout


def test_unitary_window_ignores_the_rate(run_main):
    # only the CL windows reject a rate whose width bracket overflows
    res = run_main("window", "--framework", "schrodinger", "--gamma", "1e101")
    assert res.returncode == 0
    assert "t_max = 10.002041" in res.stdout
    assert res.stderr == ""


def test_window_dissipative_flags(run_main):
    res = run_main("window", "--framework", "cl", "--gamma", "0.001", "--temperature", "2")
    assert res.returncode == 0
    assert float(re.search(r"t_max = ([0-9.]+)", res.stdout).group(1)) == pytest.approx(
        9.605996, abs=1e-5
    )


@pytest.mark.parametrize(
    "argv", [("window", "--framework", "cl"), ("figure", "fig3"), ("figure", "fig2")]
)
def test_regime_warning_on_stderr(argv, tmp_path, run_main):
    # kB*T = 2 is below 10 hbar*gamma = 5: the CL bath's warning goes to
    # stderr and the run still succeeds; the default gamma warns of nothing
    res = run_main(*argv, "--gamma", "0.5", "--temperature", "2", "--out", str(tmp_path))
    assert res.returncode == 0
    assert res.stdout.startswith("t_max = " if argv[0] == "window" else str(tmp_path))
    assert res.stderr.splitlines() == [
        "warning: kB*T = 2 is not large against hbar*gamma = 0.5 (need a factor >= 10); "
        "dissipative results may be outside the model's validity range"
    ]
    quiet = run_main(*argv, "--temperature", "2", "--out", str(tmp_path))
    assert quiet.returncode == 0 and quiet.stderr == ""


def test_window_needs_single_framework():
    # default framework is "both", which the solver cannot use
    res = run_cli("window")
    assert res.returncode == 2
    assert "configuration error" in res.stderr


def test_missing_config_file(run_main):
    res = run_main("window", "--framework", "schrodinger", "--config", "no_such_file.cfg")
    assert res.returncode == 2
    assert "configuration error" in res.stderr


def test_bad_flag_value(run_main):
    res = run_main("window", "--framework", "cl", "--gamma", "-0.5")
    assert res.returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("window", "--framework", "cl", "--gamma", "nan", "--temperature", "2"),
        ("window", "--framework", "cl", "--gamma", "0.001", "--temperature", "inf"),
        ("window", "--framework", "cl", "--gamma", "0.001", "--temperature", "2", "--kick", "nan"),
        ("window", "--framework", "schrodinger", "--support-factor", "nan"),
        ("figure", "fig3", "--gamma", "nan"),
        ("figure", "fig1", "--x0-offset", "nan"),
        ("figure", "fig3", "--tmax", "inf"),
        ("window", "--framework", "schrodinger", "--support-factor", "inf"),
    ],
)
def test_non_finite_flag_is_a_configuration_error(argv, tmp_path, run_main):
    # a NaN or infinite parameter must not yield t_max = 0 or NaN columns
    res = run_main(*argv, "--out", str(tmp_path))
    assert res.returncode == 2
    assert "configuration error" in res.stderr
    assert res.stdout == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ("window", "--framework", "cl", "--gamma", "0.001", "--temperature", "1e308"),
        ("figure", "fig3", "--temperature", "1e308"),
        ("figure", "fig1", "--gamma", "1e308", "--temperature", "1e308"),
        ("window", "--framework", "cl", "--sigma0", "1e-200"),
        ("window", "--framework", "cl", "--sigma0", "1e200"),
        ("window", "--framework", "cl", "--gamma", "5e307", "--temperature", "1e-300"),
        ("window", "--framework", "cl", "--gamma", "1e101", "--temperature", "1e-50"),
        ("figure", "fig4", "--gamma", "1e101", "--temperature", "1e-101"),
    ],
)
def test_extreme_finite_flag_is_a_numerical_failure(argv, tmp_path, run_main):
    # finite input past what double precision carries: a window below the
    # solver's resolution, NaN columns (in fig1's third of four files), an
    # overflowing width, or a rate whose width bracket argument cubes past
    # the largest double before the bracket cap; named, not a raw warning
    res = run_main(*argv, "--out", str(tmp_path))
    assert res.returncode == 1
    assert "numerical failure" in res.stderr
    if "--sigma0" in argv:
        # sigma0^2 overflows at 1e200 and sigma0^4 is 0 at 1e-200
        assert "sigma0" in res.stderr
    assert "Traceback" not in res.stderr
    assert "RuntimeWarning" not in res.stderr
    assert res.stdout == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ("figure", "fig4", "--gamma", "1e308"),
        ("window", "--framework", "cl", "--gamma", "1e308"),
        ("figure", "fig2", "--temperature", "1e308"),
        ("figure", "fig3", "--temperature", "1e308"),
    ],
)
def test_overflowing_diffusion_is_one_diagnostic_line(argv, tmp_path, run_main):
    # D = 2 m gamma kB T overflows at the default temperatures, or D is finite
    # and D L^2 / hbar^2 overflows: one named failure, raised before any numpy
    # arithmetic can warn
    res = run_main(*argv, "--out", str(tmp_path))
    assert res.returncode == 1
    assert len(res.stderr.splitlines()) == 1
    assert res.stderr.startswith("numerical failure: D")
    assert "RuntimeWarning" not in res.stderr
    assert res.stdout == ""
    assert not list(tmp_path.iterdir())


def test_huge_rate_width_bracket_gives_no_raw_warning(tmp_path, run_main):
    # u = 2 gamma t past the cube root of the largest double: the width
    # bracket takes its u^-2 form instead of cubing u
    res = run_main("figure", "fig1", "--gamma", "1e200", "--temperature", "1e-200",
                  "--out", str(tmp_path))
    assert res.returncode == 0
    assert "RuntimeWarning" not in res.stderr
    assert len(list(tmp_path.iterdir())) == 4


def test_overflowing_envelope_drag_is_named(tmp_path):
    res = run_cli("figure", "fig3", "--gamma", "1e200", "--temperature", "1e-200",
                  "--out", str(tmp_path))
    assert res.returncode == 1
    assert "numerical failure: L^2 gamma^2 overflows at gamma = 1e+200" in res.stderr
    assert "RuntimeWarning" not in res.stderr
    assert not list(tmp_path.iterdir())


_EXTREMES = [0.0, -0.0, -1.0, 1e-300, -1e-300, 1e-200, 1e200, 1e300, -1e300, 1e308,
             math.nan, math.inf, -math.inf]
_FLAGS = ("--gamma", "--temperature", "--kick", "--sigma0", "--support-factor")


def _all_finite_rows(path):
    with open(path, encoding="utf-8") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    return all(math.isfinite(float(v)) for row in rows for v in row.split(","))


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from([("window", "--framework", "cl"), ("figure", "fig3")]),
    values=st.tuples(*[st.none() | st.sampled_from(_EXTREMES) | st.floats() for _ in _FLAGS]),
)
def test_cli_exits_cleanly_or_gives_finite_output(command, values):
    # any float on these flags: exit 2 or 1, or exit 0 with t_max > 0 or an
    # all-finite CSV; never an escaping exception
    argv = list(command) + ["%s=%r" % (f, v) for f, v in zip(_FLAGS, values) if v is not None]
    with tempfile.TemporaryDirectory() as out:
        stdout = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("ignore")
            code = cli.main(argv + ["--out", out])
        written = [os.path.join(out, name) for name in os.listdir(out)]
        if code != 0:
            assert code in (1, 2)
            assert not written
        elif command[0] == "window":
            assert float(re.search(r"t_max = (\S+)", stdout.getvalue()).group(1)) > 0.0
        else:
            assert written and all(_all_finite_rows(path) for path in written)


def test_non_finite_width_is_named(run_main):
    res = run_main("window", "--framework", "schrodinger", "--sigma0", "nan")
    assert res.returncode == 2
    # named as a non-finite width, not as a width mismatch between packets
    assert "sigma0 must be finite" in res.stderr


_RUN = "from modvar import cli; cli.main(%r)"


@pytest.mark.parametrize(
    "code, unloaded",
    [
        # the package re-exports nothing, so it loads no submodule
        ("import modvar", ["modvar."]),
        # scipy is imported only inside the few functions that need it
        ("import modvar.cli", ["scipy"]),
        (_RUN % ["window", "--framework", "cl"],
         ["modvar.figures", "modvar.two_particle", "modvar.oracles", "modvar.verify",
          "modvar._csvformat", "scipy"]),
        (_RUN % ["figure", "fig4", "--out", "OUT"], ["modvar.oracles", "modvar.verify", "scipy"]),
        # both ODE oracles run on the package's DOP853
        ("from modvar import oracles, params; c = params.PhysicalConstants(); "
         "spec = params.make_superposition(50.0, 1.0, 0.1, 0.0); "
         "oracles.moment_ode_window(spec, params.BathParams(0.01, 15.0), c); "
         "oracles.trajectory_ode_oracle(lambda x, t: -x, 1.0, params.TimeGrid(0.0, 2.0, 5))",
         ["scipy"]),
    ],
    ids=["package", "cli", "window", "figure", "ode-oracles"],
)
def test_each_command_loads_only_what_it_runs(code, unloaded, tmp_path):
    # each case runs in a fresh interpreter, then reports sys.modules and
    # the size of the Gauss-Legendre cache, which no quadrature has filled
    report = (
        "import json, sys; cl = sys.modules.get('modvar.caldeira_leggett'); "
        "print(json.dumps([sorted(sys.modules), cl and cl._gl_rule.cache_info().currsize]))"
    )
    script = code.replace("OUT", str(tmp_path)) + "\n" + report
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    modules, rules = json.loads(res.stdout.splitlines()[-1])
    assert [m for m in modules if m.startswith(tuple(unloaded))] == []
    assert rules == (None if code == "import modvar" else 0)


def test_unknown_figure_name():
    # argparse rejects the choice before main() runs
    with pytest.raises(SystemExit) as exc:
        cli.main(["figure", "fig9"])
    assert exc.value.code == 2


def test_figure_deterministic_bytes(tmp_path, run_main):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    r1 = run_main("figure", "fig2", "--out", str(out1))
    r2 = run_main("figure", "fig2", "--out", str(out2))
    assert r1.returncode == 0 and r2.returncode == 0
    names = sorted(os.path.basename(p) for p in r1.stdout.split())
    assert names == sorted(os.path.basename(p) for p in r2.stdout.split())
    for name in names:
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2
        assert b"\r" not in b1


def test_csv_writer_prints_each_cell_with_percent_15g(tmp_path):
    # the writer formats whole rows at once; each cell must read as
    # "%.15g" % col[i] would, for an array column and a list column alike
    values = [-0.0, 5e-324, 1e300, 0.1 + 0.2, 3.0]
    cols = [np.array(values), values[::-1]]
    path = figures._write_csv(
        str(tmp_path / "t.csv"), FIGURE_DEFAULTS["fig1"], ["note"], ["a", "b"], cols
    )
    with open(path, encoding="utf-8") as fh:
        body = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    assert body == [",".join("%.15g" % col[i] for col in cols) for i in range(len(values))]
    assert body[0] == "-0,3"


def _hard_doubles():
    """Doubles where %.15g's rounding, exponent or form is hardest to get
    right, each with both signs."""
    values = [0.0, 5e-324, 3 * 5e-324, 1e-310, 2.2250738585072014e-308,
              np.nextafter(2.2250738585072014e-308, 0.0)]
    # the ends of the range that the writer scales itself
    for bound in (1e-280, 1e280):
        values += [bound, np.nextafter(bound, 0.0), np.nextafter(bound, np.inf)]
    for k in range(-30, 31):
        power = float("1e%d" % k)
        values += [np.nextafter(power, 0.0), power, np.nextafter(power, np.inf),
                   float("9.999999999999995e%d" % k)]
    # where %g switches between its fixed and exponent forms
    for switch in (1e-5, 1e-4, 1e14, 1e15, 1e16):
        below = above = switch
        for _ in range(4):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            values += [below, above]
        values += [switch * 0.9999999999999995, switch * 0.99999999999999949]
    # exact ties, which round half to even: 16-digit integers ending in 5,
    # and 17-digit ones ending in 50
    rng = np.random.default_rng(24)
    values += list(rng.integers(10**14, 9 * 10**14, 2000) * 10.0 + 5.0)
    values += list(rng.integers(10**14, 18 * 10**13, 2000) * 100.0 + 50.0)
    values += [1.0, 10.0, 0.5, 0.1 + 0.2, 123456789012345.0, 1234567890123456.0]
    return np.array(values + [-v for v in values])


def test_csv_writer_matches_percent_15g_on_seeded_doubles(tmp_path):
    # the whole-table formatter against "%.15g" % x, row for row: 204 000
    # doubles of both signs from 1e-320 to 1e300, after the hard cases
    hard = _hard_doubles()
    rng = np.random.default_rng(2024)
    n = 204_000 - hard.size
    spread = 10.0 ** rng.uniform(-320.0, 300.0, n) * rng.choice([-1.0, 1.0], n)
    table = np.concatenate([hard, spread]).reshape(-1, 4)
    path = figures._write_csv(
        str(tmp_path / "t.csv"), FIGURE_DEFAULTS["fig1"], [], list("abcd"), list(table.T)
    )
    with open(path, encoding="utf-8") as fh:
        body = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    assert body == [",".join("%.15g" % v for v in row) for row in table.tolist()]


def test_figure_header_round_trips_as_config(tmp_path, run_main):
    # the '#' header of an emitted CSV, taken verbatim, reloads as a config
    # file that reproduces the same bytes; non-assignment lines are comments
    out1 = tmp_path / "first"
    r1 = run_main("figure", "fig2", "--out", str(out1), "--alpha", "0.9")
    assert r1.returncode == 0
    path1 = [p for p in r1.stdout.split() if p.endswith(".csv")][0]
    header = []
    with open(path1, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            header.append(line.rstrip("\n"))
    cfg_path = tmp_path / "replay.cfg"
    cfg_path.write_text("\n".join(header) + "\n", encoding="utf-8")
    out2 = tmp_path / "second"
    r2 = run_main("figure", "fig2", "--config", str(cfg_path), "--out", str(out2))
    assert r2.returncode == 0
    path2 = [p for p in r2.stdout.split() if p.endswith(".csv")][0]
    assert Path(path1).read_bytes() == Path(path2).read_bytes()


def test_flag_overrides_config_file(tmp_path, run_main):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha=0.0\nkick=0.2\n", encoding="utf-8")
    out = tmp_path / "out"
    res = run_main("figure", "fig2", "--config", str(cfg), "--kick", "0.1", "--out", str(out))
    assert res.returncode == 0
    path = [p for p in res.stdout.split() if p.endswith(".csv")][0]
    text = Path(path).read_text(encoding="utf-8")
    assert "# kick=0.1" in text
    assert "# alpha=0" in text


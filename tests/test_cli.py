"""End-to-end command-line behavior, through subprocesses and, for the
property test, in process."""

import contextlib
import io
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


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "modvar.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


def test_window_unitary():
    res = run_cli("window", "--framework", "schrodinger")
    assert res.returncode == 0
    match = re.search(r"t_max = ([0-9.]+)", res.stdout)
    assert match and float(match.group(1)) == pytest.approx(10.002041, abs=1e-5)
    assert "criterion:" in res.stdout


def test_window_dissipative_flags():
    res = run_cli("window", "--framework", "cl", "--gamma", "0.001", "--temperature", "2")
    assert res.returncode == 0
    assert float(re.search(r"t_max = ([0-9.]+)", res.stdout).group(1)) == pytest.approx(
        9.605996, abs=1e-5
    )


@pytest.mark.parametrize(
    "argv", [("window", "--framework", "cl"), ("figure", "fig3"), ("figure", "fig2")]
)
def test_regime_warning_on_stderr(argv, tmp_path):
    # kB*T = 2 is below 10 hbar*gamma = 5: the CL bath's warning goes to
    # stderr and the run still succeeds; the default gamma warns of nothing
    res = run_cli(*argv, "--gamma", "0.5", "--temperature", "2", "--out", str(tmp_path))
    assert res.returncode == 0
    assert res.stdout.startswith("t_max = " if argv[0] == "window" else str(tmp_path))
    assert res.stderr.splitlines() == [
        "warning: kB*T = 2 is not large against hbar*gamma = 0.5 (need a factor >= 10); "
        "dissipative results may be outside the model's validity range"
    ]
    quiet = run_cli(*argv, "--temperature", "2", "--out", str(tmp_path))
    assert quiet.returncode == 0 and quiet.stderr == ""


def test_window_needs_single_framework():
    # default framework is "both", which the solver cannot use
    res = run_cli("window")
    assert res.returncode == 2
    assert "configuration error" in res.stderr


def test_missing_config_file():
    res = run_cli("window", "--framework", "schrodinger", "--config", "no_such_file.cfg")
    assert res.returncode == 2
    assert "configuration error" in res.stderr


def test_bad_flag_value():
    res = run_cli("window", "--framework", "cl", "--gamma", "-0.5")
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
def test_non_finite_flag_is_a_configuration_error(argv, tmp_path):
    # a NaN or infinite parameter must not yield t_max = 0 or NaN columns
    res = run_cli(*argv, "--out", str(tmp_path))
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
    ],
)
def test_extreme_finite_flag_is_a_numerical_failure(argv, tmp_path):
    # finite input past what double precision carries: a window below the
    # solver's resolution, NaN columns (in fig1's third of four files), or an
    # overflowing width
    res = run_cli(*argv, "--out", str(tmp_path))
    assert res.returncode == 1
    assert "numerical failure" in res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""
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


def test_non_finite_width_is_named():
    res = run_cli("window", "--framework", "schrodinger", "--sigma0", "nan")
    assert res.returncode == 2
    # named as a non-finite width, not as a width mismatch between packets
    assert "sigma0 must be finite" in res.stderr


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported only inside the few functions that need it
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, modvar.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_unknown_figure_name():
    res = run_cli("figure", "fig9")
    # argparse rejects the choice before main() runs
    assert res.returncode == 2


def test_figure_deterministic_bytes(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    r1 = run_cli("figure", "fig2", "--out", str(out1))
    r2 = run_cli("figure", "fig2", "--out", str(out2))
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


def test_figure_header_round_trips_as_config(tmp_path):
    # the '#' header of an emitted CSV, taken verbatim, reloads as a config
    # file that reproduces the same bytes; non-assignment lines are comments
    out1 = tmp_path / "first"
    r1 = run_cli("figure", "fig2", "--out", str(out1), "--alpha", "0.9")
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
    r2 = run_cli("figure", "fig2", "--config", str(cfg_path), "--out", str(out2))
    assert r2.returncode == 0
    path2 = [p for p in r2.stdout.split() if p.endswith(".csv")][0]
    assert Path(path1).read_bytes() == Path(path2).read_bytes()


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha=0.0\nkick=0.2\n", encoding="utf-8")
    out = tmp_path / "out"
    res = run_cli("figure", "fig2", "--config", str(cfg), "--kick", "0.1", "--out", str(out))
    assert res.returncode == 0
    path = [p for p in res.stdout.split() if p.endswith(".csv")][0]
    text = Path(path).read_text(encoding="utf-8")
    assert "# kick=0.1" in text
    assert "# alpha=0" in text


def test_verify_exit_code_matches_tally():
    res = run_cli("verify", "--suite", "fast")
    match = re.search(r"(\d+)/(\d+) gates passed", res.stderr)
    assert match, res.stderr
    passed, total = int(match.group(1)), int(match.group(2))
    assert res.returncode == (0 if passed == total else 1)
    assert len(re.findall(r"\[(?:PASS|FAIL)\]", res.stderr)) == total

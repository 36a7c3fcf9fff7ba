"""Guards that must hold under `python -O` too: they raise typed errors, and
the CLI turns them into exit status 2 with an `error:` line."""

import ast
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import origamilab
from origamilab.errors import FormatError, GridError, OutOfRange
from origamilab.flow import _crossings, _exact_div, trace
from origamilab.hitting import RECORD_FIELDS, r_dense_time, read_records
from origamilab.origami import SurfacePoint, builtin_torus

SRC = os.path.dirname(os.path.dirname(os.path.abspath(origamilab.__file__)))


def test_records_header_and_rows_checked(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(FormatError):
        read_records(bad)
    bad.write_text(",".join(RECORD_FIELDS) + "\ngolden,1,2\n")
    with pytest.raises(FormatError):
        read_records(bad)


def test_grid_guards():
    with pytest.raises(GridError):
        _exact_div(7, 2)
    # q * Mrun * m >= 2**61: the start's denominator alone is 2**60
    start = SurfacePoint(0, F(1, 2 ** 60), F(1, 3))
    with pytest.raises(GridError):
        r_dense_time(builtin_torus(), "rational:1/3", start, F(1, 4),
                     time_cap=10)


def test_off_grid_crossing():
    # slope 1/3 from (1/2, 0) crosses the top at x = 5/6, off the 1/2 grid
    with pytest.raises(GridError):
        list(_crossings(builtin_torus(), 0, 1, 0, 1, 3, 2))


def test_negative_crossing_cap():
    # trace stops when its count of crossings reaches the cap, which a
    # count from 0 never does for a cap below 0
    with pytest.raises(OutOfRange):
        trace(builtin_torus(), F(1, 2), SurfacePoint(0, F(1, 8), F(1, 8)),
              crossings=-3)


def _python(flags, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *flags, *args],
                          capture_output=True, text=True, env=env)


def _cli_exits_2(argv, flags=()):
    proc = _python(flags, "-m", "origamilab.cli", *argv)
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_cli_bad_records_exit_2(tmp_path, flags):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,records,file\n")
    _cli_exits_2(["exponent", "--in", str(bad), "--out-dir", str(tmp_path)],
                 flags)


@pytest.mark.parametrize("args", [
    ["--slope", "3/2", "--check", "upper"],
    ["--slope", "inf"],
    ["--slope", "3/2", "--radii", "prop:1..3"],
], ids=["upper", "auto", "prop"])
def test_cli_hitting_without_continued_fraction_exit_2(tmp_path, args):
    _cli_exits_2(["hitting", "--origami", "ornithorynque", *args,
                  "--out-dir", str(tmp_path)])


_FLOW = ["flow", "--origami", "ornithorynque", "--slope", "1/2",
         "--span", "1", "--start"]
_GOLDEN = ["hitting", "--origami", "ornithorynque", "--slope", "golden"]
_HITTING = _GOLDEN + ["--radii", "1/4", "--start"]
_TRANSITIONS = ["verify", "transitions", "--origami", "ornithorynque",
                "--trials", "0", "--cone"]


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
@pytest.mark.parametrize("argv", [
    _FLOW + ["0,1/0,1/3"],
    _HITTING + ["0,1/0,1/3"],
    ["cf", "--rational", "1/0"],
    ["cf"],
    _FLOW + ["99,1/3,1/3"],
    _FLOW + ["0,2,1/3"],
    _HITTING + ["0,5/2,1/3"],
    _GOLDEN + ["--check", "upper", "--levels", "-1"],
    _GOLDEN + ["--check", "lower", "--w", "2", "--levels", "-1"],
    _GOLDEN + ["--radii", "special:-2..3"],
    ["verify", "transitions", "--origami", "ornithorynque", "--trials", "-5"],
    _GOLDEN + ["--cap", "-5"],
    _GOLDEN + ["--check", "upper", "--K", "-3"],
    ["verify", "intersections", "--origami", "ornithorynque", "--K", "-1"],
    _TRANSITIONS + ["1", "0"],
    _TRANSITIONS + ["1/2", "1/2"],
    _TRANSITIONS + ["-1", "-inf"],
    ["orbit", "--origami", "genus2_L", "--cap", "0"],
    ["orbit", "--origami", "genus2_L", "--cap", "-1"],
    _HITTING + ["0,1/3,1/3", "--jobs", "0"],
], ids=["flow-zero-denominator", "hitting-zero-denominator",
        "cf-zero-denominator", "cf-without-slope", "start-square",
        "start-x", "hitting-start-x", "upper-level", "lower-level",
        "radius-index", "trials", "cap", "hitting-K", "verify-K",
        "cone-reversed", "cone-empty", "cone-upper-minus-infinity",
        "orbit-cap-zero", "orbit-cap-negative", "hitting-jobs"])
def test_cli_bad_flags_exit_2(tmp_path, argv, flags):
    _cli_exits_2([*argv, "--out-dir", str(tmp_path)], flags)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_control_pair_without_fixed_squares(flags):
    # ornithorynque has no h-fixed square
    proc = _python(flags, "-c", (
        "from origamilab.origami import builtin_ornithorynque\n"
        "from origamilab.verify import genus2_control_pair\n"
        "genus2_control_pair(builtin_ornithorynque(), 17)"))
    assert proc.returncode == 1
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("origamilab.errors.PreconditionViolated:")


def test_no_assert_statements_in_library():
    pkg = os.path.join(SRC, "origamilab")
    found = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read(), name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []

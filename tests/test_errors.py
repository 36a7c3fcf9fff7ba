"""Guards that must hold under `python -O` too: they raise typed errors, and
the CLI turns them into exit status 2 with an `error:` line."""

import ast
import contextlib
import io
import os
import subprocess
import sys
import tempfile
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import origamilab
import reference
from origamilab.cfrac import (_iroot, ceil_power, diophantine_type_estimate,
                              golden_slope, parse_slope_spec,
                              rational_lt_power)
from origamilab.cli import COMMANDS, arguments, main
from origamilab.cylinders import InducedDecomposition
from origamilab.errors import FormatError, GridError, OutOfRange
from origamilab.flow import Segment, _crossings, _exact_div, trace
from origamilab.hitting import RECORD_FIELDS, r_dense_time, read_records
from origamilab.origami import (GluingView, SurfacePoint, builtin_torus,
                                make_origami)
from origamilab.perm import Permutation
from origamilab.sl2 import MAT_ID, ReflectionMap, act_word
from origamilab.verify import tiles_crossed

SRC = os.path.dirname(os.path.dirname(os.path.abspath(origamilab.__file__)))
# the tests' own helpers, such as `paper_checks`
TESTS = os.path.dirname(os.path.abspath(__file__))


def test_records_header_and_rows_checked(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(FormatError):
        read_records(bad)
    bad.write_text(",".join(RECORD_FIELDS) + "\ngolden,1,2\n")
    with pytest.raises(FormatError):
        read_records(bad)
    # a field past the csv module's size limit
    bad.write_text(",".join(RECORD_FIELDS) + "\n" + "x" * 200000 + "\n")
    with pytest.raises(FormatError):
        read_records(bad)


def test_grid_guards():
    with pytest.raises(GridError):
        _exact_div(7, 2)
    # q * Mrun * m >= 2**61: the start's denominator alone is 2**60
    start = SurfacePoint(0, F(1, 2 ** 60), F(1, 3))
    with pytest.raises(GridError):
        r_dense_time(builtin_torus(), parse_slope_spec("rational:1/3"), start,
                     F(1, 4), time_cap=10)


def test_library_refusals():
    # arguments that no command passes, refused by the function itself
    with pytest.raises(ValueError, match="negative radicand"):
        _iroot(-1, 3)
    with pytest.raises(ValueError, match="negative exponent"):
        ceil_power(2, F(-1, 2))
    assert rational_lt_power(0, 2, F(-1, 2))
    golden = golden_slope()
    with pytest.raises(OutOfRange, match="no exact rational value"):
        golden.value_exact()
    with pytest.raises(OutOfRange, match="depth >= 2"):
        diophantine_type_estimate(golden, 1)
    torus = builtin_torus()
    start = SurfacePoint(0, F(0), F(1, 3))
    with pytest.raises(ValueError, match="same size"):
        GluingView(Permutation([0]), Permutation([1, 0]))
    with pytest.raises(ValueError, match="bad side"):
        torus.edge_id(0, "front")
    with pytest.raises(ValueError, match="diagonal"):
        InducedDecomposition(torus, MAT_ID, base="diagonal")
    with pytest.raises(OutOfRange, match="r > 0"):
        r_dense_time(torus, parse_slope_spec("golden"), start, 0,
                     time_cap=10)
    with pytest.raises(ValueError, match="bad token"):
        act_word(("R",), torus)
    with pytest.raises(ValueError, match="not fixed by the reflection S"):
        ReflectionMap(make_origami(3, (1, 2, 0), (1, 2, 0)))
    with pytest.raises(ValueError, match="no tile structure"):
        tiles_crossed(Segment(torus, start, F(1, 2), 1))


@pytest.mark.parametrize("k", [59, 60])
def test_int64_refusal_from_2_to_the_61(k):
    # slope 1 on the torus at r^2 = 1/2: m = 2 cells a side, and the start's
    # denominator 2**k is the grid's M, so q*M*m = 2**(k + 1): 2**60 is
    # measured and 2**61 refused
    start = SurfacePoint(0, F(1, 2 ** k), F(1, 2))

    def measure():
        return r_dense_time(builtin_torus(), parse_slope_spec("rational:1"),
                            start, F(1, 2), time_cap=10)

    if k == 59:
        assert not measure()[0].capped
    else:
        with pytest.raises(GridError):
            measure()


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
        p for p in (SRC, TESTS, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *flags, *args],
                          capture_output=True, text=True, env=env)


def _refused(name, mode):
    """Case `name` of tests/reference.py, in process or under python -O."""
    if mode == "plain":
        reference.check(name)
    else:
        report = reference.optimized()[name]
        assert not report, report


@pytest.mark.parametrize("mode", ["plain", "optimized"])
def test_cli_bad_records_exit_2(mode):
    _refused("bad-records", mode)


@pytest.mark.parametrize("kind", ["upper", "auto", "prop"])
def test_cli_hitting_without_continued_fraction_exit_2(kind):
    reference.check(f"no-continued-fraction-{kind}")


@pytest.mark.parametrize("mode", ["plain", "optimized"])
@pytest.mark.parametrize("name", reference.REFUSED)
def test_cli_bad_flags_exit_2(name, mode):
    _refused(name, mode)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_control_pair_without_fixed_squares(flags):
    # ornithorynque has no h-fixed square
    proc = _python(flags, "-c", (
        "from origamilab.origami import builtin_ornithorynque\n"
        "from paper_checks import genus2_control_pair\n"
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


# -- the CLI under random command lines ---------------------------------------

# a records file that exponent fits, a row with a bad field and a short row
_RECORDS_LINES = [*reference.FILES["golden.csv"].splitlines(),
                  "golden,1,2,0,x,1/3,0.5,3,,1,7,0", "a,b"]
# Each flag's values: valid ones, boundary ones and junk. Every value keeps
# the work small: --jobs is only ever 1, and the flags that bound the work
# are always given, from small values, in the modes that read them.
_JUNK = ["", "x", "-1", "0", "1/0", "nan", "-inf"]
_ALWAYS = {"depth", "cap", "trials", "levels", "jobs"}
_VALUES = {
    "origami": ["ornithorynque", "genus2_L", "torus", "fuzz.origami",
                "nosuch.origami"],
    "matrix": ["1,1,0,1", "0,-1,1,0", "2,1,1,1", "1,0,0,1", "1,2,3,4",
               "1,1", "1,x,0,1"],
    "out": ["out.csv", "sub/out.csv", "fuzz.origami"],
    "out_dir": ["od", "fuzz.origami", "od/deeper"],
    "cap": ["1", "3", "1/2", "0", "-1"],
    "rational": ["5/7", "3", "0", "-2/3", "1/1"],
    "type": ["2", "1", "3/2", "0", "-1"],
    "spec": ["golden", "type:w=2", "type:w=3/2", "5/7", "inf",
             "rational:1/3", "type:w="],
    "depth": ["0", "1", "3", "-3"],
    "slope": ["1/2", "-2/3", "0", "inf", "golden", "type:w=2",
              "rational:1/3", "rational:x"],
    "start": ["0,1/3,1/5", "0,3/16,5/16", "1,0,1/2", "0,0,0", "0,1,1",
              "11,1,1/2", "99,1/3,1/3", "0,2,1/3", "-1,1/3,1/3", "0,1",
              "0,1/3,1/0"],
    "crossings": ["0", "5", "-1"],
    "span": ["1", "1/3", "0", "-1", "5/2"],
    "base": ["vertical", "horizontal"],
    "cone": ["0 1", "-inf -1", "1 inf", "-1 0", "1 0", "1/2 1/2",
             "-inf inf", "x 1"],
    "trials": ["0", "1", "3", "-5"],
    "K": ["1", "2", "17", "0", "-1"],
    "seed": ["0", "7", "-1"],
    "jobs": ["1"],
    "mem_budget": ["1000", "0", "-5", "268435456"],
    "radii": ["1/4", "1/2,1/3", "prop:0..1", "special:0..0", "prop:3..1",
              "special:-2..3", "prop:", "-1/2", "1/4,0"],
    "w": ["2", "3/2", "1", "5", "0", "-1"],
    "levels": ["0", "0,0", "-1", "1,x"],
    "infile": ["fuzz.csv", "nosuch.csv", "fuzz.origami"],
    "plot": ["plot.svg", "sub/plot.svg"],
    "min": ["0.85", "-1", "inf"],
    "max": ["1.3", "-1", "inf"],
    "config": ["fuzz.ini", "nosuch.ini", "fuzz.origami"],
}
_ORIGAMI_LINES = ["n=3", "n=1", "n=0", "n=-2", "h=1 0 2", "v=2 1 0", "h=0",
                  "v=0", "h=1 2 0", "v=1 1 0", "names=a b c", "names=a",
                  "# note", "n", "=1", "h=x"]
_CONFIG_LINES = ["[run]", "task = info", "task = cf", "task = orbit",
                 "task = nosuch", "seed = 3", "[info]", "[cf]", "[orbit]",
                 "origami = torus", "origami = nosuch", "rational = 5/7",
                 "type = 2", "depth = 3", "cap = 2", "spec = golden",
                 "[run", "= 1", "x"]


def _file_text(lines):
    """Text of up to 8 lines drawn from `lines` or made of random text."""
    return st.lists(st.one_of(st.sampled_from(lines), st.text(max_size=12)),
                    max_size=8).map("\n".join)


@st.composite
def _cli_call(draw):
    """(argv, {file name: text}): a command of `cli.COMMANDS` and one of its
    modes, with each flag of that mode given or not, each with a value from
    `_VALUES` or junk, and sometimes one flag of another mode."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    rows = COMMANDS[name].modes or {"": {}}
    mode = draw(st.sampled_from([m for m in rows if m or len(rows) == 1]))
    # the flags of the other modes; cf's mode is the one input it is given
    taken = {*rows.get("", {}), *rows.get(mode, {}), mode}
    other = sorted(({f for row in rows.values() for f in row}
                    | (set(rows) if name == "cf" else set())) - taken)
    extra = draw(st.sampled_from(other)) \
        if other and draw(st.integers(0, 3)) == 0 else None
    argv = [name]
    for flag, settings in arguments(name).items():
        dest = settings.get("dest", flag.lstrip("-").replace("-", "_"))
        if dest in other and dest != extra:
            continue
        positional = not flag.startswith("-")
        fixed = dest in ("mode", "check")   # verify's positional, --check
        given = fixed or dest in _ALWAYS or dest in (mode, extra) or \
            positional or \
            draw(st.integers(0, 3)) < (3 if settings.get("required") else 2)
        if not given:
            continue
        if "action" in settings:        # a switch such as --down
            argv.append(flag)
            continue
        value = mode if fixed else draw(st.sampled_from(_VALUES[dest]))
        if not fixed and dest not in _ALWAYS and \
                draw(st.integers(0, 4)) == 0:
            value = draw(st.sampled_from(_JUNK))
        if positional:
            argv.append(value)
        elif settings.get("nargs") == 2:
            argv += [flag, *value.split()]
        elif draw(st.booleans()):
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    files = {"fuzz.origami": draw(_file_text(_ORIGAMI_LINES)),
             "fuzz.ini": draw(_file_text(_CONFIG_LINES)),
             "fuzz.csv": draw(_file_text(_RECORDS_LINES))}
    return argv, files


@settings(max_examples=300, deadline=None)
@given(_cli_call())
def test_cli_fuzz_exits_0_1_or_2_with_one_error_line(call):
    argv, files = call
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in files.items():
                with open(name, "w") as fh:
                    fh.write(text)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(here)
    assert code in (0, 1, 2), argv
    stderr = err.getvalue()
    if code == 2 and "usage:" not in stderr:
        assert sum("error:" in line for line in stderr.splitlines()) == 1, \
            (argv, stderr)

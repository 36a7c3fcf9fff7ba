import importlib
import json
import os
import subprocess
import sys
import types
from fractions import Fraction

import pytest

import origamilab
from origamilab.cli import label_str, main
from origamilab.cylinders import VerticalDecomposition, horizontal_cylinders
from origamilab.origami import BUILTINS, INFINITY, builtin_ornithorynque
from origamilab.verify import NEG_INFINITY, next_letter_relation


def run(args):
    return main(args)


def test_info(capsys):
    assert run(["info", "--origami", "ornithorynque"]) == 0
    out = capsys.readouterr().out
    assert "n=12" in out and "genus=4" in out and "|Aut|=3" in out
    assert "cones=2,2,2" in out


def test_info_missing_file():
    assert run(["info", "--origami", "no_such_file.origami"]) == 2


def test_act_and_orbit(tmp_path, capsys):
    assert run(["act", "--origami", "ornithorynque", "--matrix", "1,1,0,1",
                "--out", "acted.origami", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "isomorphic to input: True" in out
    assert (tmp_path / "acted.origami").exists()

    assert run(["orbit", "--origami", "genus2_L",
                "--out-dir", str(tmp_path)]) == 0
    files = sorted(os.listdir(tmp_path))
    assert "orbit_000.origami" in files and "orbit_002.origami" in files
    adj = (tmp_path / "orbit_adjacency.csv").read_text().splitlines()
    assert adj[0] == "from,token,to"
    assert len(adj) == 1 + 3 * 4


def test_cf(capsys):
    assert run(["cf", "--rational", "5/7"]) == 0
    out = capsys.readouterr().out
    assert "3 2 5 7" in out


def test_flow_csv(tmp_path):
    assert run(["flow", "--origami", "ornithorynque", "--slope", "1/2",
                "--start", "0,1/8,1/8", "--crossings", "10",
                "--out", "ev.csv", "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "ev.csv").read_text().splitlines()
    assert lines[0] == "k,t,square,side,edge_class,label,pos"
    assert len(lines) == 11


def test_cutseq(capsys):
    assert run(["cutseq", "--origami", "ornithorynque", "--slope", "0",
                "--start", "7,1/2,0", "--span", "6"]) == 0
    assert capsys.readouterr().out.split() == ["A0", "A1", "A2", "A0"]


def test_cylinders_csv(tmp_path):
    assert run(["cylinders", "--origami", "ornithorynque",
                "--out", "cyl.csv", "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "cyl.csv").read_text().splitlines()
    assert lines[0] == "index,slope,L,W,squares"
    assert len(lines) == 3


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_cylinders_csv_without_matrix(tmp_path, name):
    # the identity decomposition stands for both bases
    o = BUILTINS[name]()
    for base, cyls in (("vertical", VerticalDecomposition(o).cylinders),
                       ("horizontal", horizontal_cylinders(o))):
        assert run(["cylinders", "--origami", name, "--base", base,
                    "--out", f"{base}.csv", "--out-dir", str(tmp_path)]) == 0
        rows = ["index,slope,L,W,squares"] + [
            f"{c.index},{'inf' if c.slope == INFINITY else c.slope},"
            f"{c.length},{c.width},{';'.join(map(str, sorted(c.squares)))}"
            for c in cyls]
        assert (tmp_path / f"{base}.csv").read_text().splitlines() == rows


def test_verify_tiles(tmp_path):
    assert run(["verify", "tiles", "--origami", "ornithorynque",
                "--trials", "25", "--seed", "3",
                "--out", "tiles.json", "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "tiles.json").read_text())
    assert payload["ok"] and payload["violations"] == 0


def test_verify_transitions_reports_known_excess(tmp_path):
    # the narrow successor table is violated on the B rows (see ledger);
    # the command reports it and exits nonzero, while the verified table
    # shows no violations
    assert run(["verify", "transitions", "--origami", "ornithorynque",
                "--trials", "300", "--seed", "1",
                "--out", "trans.json", "--out-dir", str(tmp_path)]) == 1
    payload = json.loads((tmp_path / "trans.json").read_text())
    assert payload["violations_vs_verified"] == []
    letters = sorted(v["letter"] for v in payload["violations_vs_asserted"])
    assert letters == ["B0", "B1", "B2"]


def test_verify_transitions_trials_is_a_floor(tmp_path):
    # the 25 boundary pairs are always sampled, so --trials 0 still samples
    for trials, per_letter in (("0", 25), ("24", 25), ("26", 26)):
        run(["verify", "transitions", "--origami", "ornithorynque",
             "--trials", trials, "--out", "t.json",
             "--out-dir", str(tmp_path)])
        payload = json.loads((tmp_path / "t.json").read_text())
        assert payload["samples_per_letter"] == per_letter


def test_verify_transitions_cone_from_minus_infinity(tmp_path):
    # -inf and -5/2 are cone bounds here, not unknown flags
    for cone in (["-inf", "-1"], ["-5/2", "-1"]):
        assert run(["verify", "transitions", "--origami", "ornithorynque",
                    "--cone", *cone, "--trials", "0", "--out", "t.json",
                    "--out-dir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "t.json").read_text())
        lo = NEG_INFINITY if cone[0] == "-inf" else Fraction(cone[0])
        rel = next_letter_relation(builtin_ornithorynque(),
                                   cone=(lo, Fraction(-1)), sample_budget=0)
        assert payload["successors"] == {
            label_str(l): sorted(map(label_str, s))
            for l, s in rel.successors.items()}


def test_verify_intersections(tmp_path):
    assert run(["verify", "intersections", "--origami", "ornithorynque",
                "--trials", "60", "--seed", "2", "--K", "17",
                "--out", "ix.json", "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "ix.json").read_text())
    assert payload["main"]["failures"] == 0
    assert payload["reflected"]["failures"] == 0
    assert "config_hash" in payload


def test_hitting_exponent_pipeline(tmp_path):
    radii = "1/4,1/8,1/16,1/32,1/64,1/128"
    assert run(["hitting", "--origami", "torus", "--slope", "golden",
                "--start", "0,3/16,5/16", "--radii", radii, "--cap", "4000",
                "--out", "rec.csv", "--out-dir", str(tmp_path),
                "--seed", "5"]) == 0
    assert run(["exponent", "--in", str(tmp_path / "rec.csv"),
                "--out", "fit.json", "--plot", "fit.svg",
                "--out-dir", str(tmp_path)]) == 0
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert 0.5 < fit["h_hat"] < 1.8
    svg = (tmp_path / "fit.svg").read_text()
    assert svg.startswith("<svg") and "fitted exponent" in svg


def test_hitting_determinism(tmp_path):
    radii = "1/4,1/8,1/16"
    for name in ("a.csv", "b.csv"):
        assert run(["hitting", "--origami", "torus", "--slope", "golden",
                    "--start", "0,3/16,5/16", "--radii", radii,
                    "--cap", "2000", "--out", name,
                    "--out-dir", str(tmp_path), "--seed", "7"]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_hitting_jobs_parallel_matches(tmp_path):
    radii = "1/4,1/8,1/16"
    for name, jobs in (("s.csv", "1"), ("p.csv", "2")):
        assert run(["hitting", "--origami", "torus", "--slope", "golden",
                    "--start", "0,3/16,5/16", "--radii", radii,
                    "--cap", "2000", "--out", name, "--jobs", jobs,
                    "--out-dir", str(tmp_path), "--seed", "7"]) == 0
    assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "p.csv").read_bytes()


def test_run_config(tmp_path, capsys):
    cfg = tmp_path / "job.ini"
    cfg.write_text("[run]\ntask = info\n\n[info]\norigami = ornithorynque\n")
    assert run(["run", "--config", str(cfg)]) == 0
    assert "genus=4" in capsys.readouterr().out


def test_negative_slope_through_config_and_flag(tmp_path, capsys):
    cfg = tmp_path / "job.ini"
    cfg.write_text("[run]\ntask = cutseq\n\n[cutseq]\n"
                   "origami = ornithorynque\nslope = -1/3\n"
                   "start = 2,1/7,1/5\nspan = 3\n")
    assert run(["run", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.split() == ["C2", "B2", "B1"]
    assert run(["cutseq", "--origami", "ornithorynque", "--slope=-1/3",
                "--start", "2,1/7,1/5", "--span", "3"]) == 0
    assert capsys.readouterr().out.split() == ["C2", "B2", "B1"]


@pytest.mark.parametrize("cone", ["0 1", "-inf -1"])
def test_run_config_verify_matches_direct_command(tmp_path, cone):
    # verify's mode is positional and --cone takes two values
    cfg = tmp_path / "job.ini"
    cfg.write_text(f"[run]\ntask = verify\nseed = 3\nout_dir = {tmp_path}\n\n"
                   "[verify]\nmode = transitions  ; a positional\n"
                   "origami = ornithorynque\n"
                   f"cone = {cone}\ntrials = 30\nout = config.json\n")
    code = run(["run", "--config", str(cfg)])
    assert code in (0, 1)
    assert run(["verify", "transitions", "--origami", "ornithorynque",
                "--cone", *cone.split(), "--trials", "30", "--seed", "3",
                "--out", "direct.json", "--out-dir", str(tmp_path)]) == code
    assert (tmp_path / "config.json").read_bytes() == \
        (tmp_path / "direct.json").read_bytes()


def test_run_config_missing(tmp_path, capsys):
    assert run(["run", "--config", str(tmp_path / "missing.ini")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_hitting_check_upper(tmp_path):
    assert run(["hitting", "--origami", "ornithorynque", "--slope", "golden",
                "--start", "0,3/16,5/16", "--check", "upper",
                "--levels", "6,7,8", "--K", "17",
                "--out", "up.csv", "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "up.csv").read_text().splitlines()
    assert len(lines) == 4


_LAZY_CHECK = """
import sys
from origamilab.cli import load_origami, main

# what every command pays before it runs: the import and the surface
SET_UP = ["origamilab", "origamilab.cli", "origamilab.errors",
          "origamilab.origami", "origamilab.perm"]
LAZY = ("numpy", "concurrent.futures", "multiprocessing")

def package():
    return sorted(m for m in sys.modules if m.split(".")[0] == "origamilab")

def loaded():
    return [m for m in LAZY if m in sys.modules]

def check(ok, what):
    # not assert: the check must hold under python -O too
    if not ok:
        sys.exit(f"{what}: loaded {loaded()} and {package()}")

out = sys.argv[1]
check(loaded() == [], "import origamilab.cli")
load_origami("ornithorynque")
check(package() == SET_UP, "set-up")
check(main(["info", "--origami", "ornithorynque"]) == 0, "info failed")
check(package() == SET_UP and loaded() == [], "info")
for argv in (
        ["cf", "--rational", "5/7"],
        ["flow", "--origami", "ornithorynque", "--slope", "1/2",
         "--start", "0,1/8,1/8", "--crossings", "10"],
        ["cutseq", "--origami", "ornithorynque", "--slope", "0",
         "--start", "7,1/2,0", "--span", "6"],
        ["cylinders", "--origami", "ornithorynque"],
        ["verify", "tiles", "--origami", "ornithorynque", "--trials", "5"]):
    check(main(argv + ["--out-dir", out]) == 0, f"{argv[0]} failed")
    check(loaded() == [], argv[0])
check(main(["hitting", "--origami", "torus", "--slope", "golden",
            "--radii", "1/4", "--cap", "2000", "--out-dir", out]) == 0,
      "hitting failed")
check("numpy" in sys.modules, "hitting without numpy")
"""


def test_only_hitting_loads_numpy_and_the_pool(tmp_path):
    # a fresh process: the test session itself has numpy loaded. The set-up
    # and `info` load only the surface's modules; no command but hitting
    # loads numpy or the pool.
    src = os.path.dirname(os.path.dirname(origamilab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _LAZY_CHECK, str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_package_exports_resolve_to_their_submodules():
    # the package re-exports lazily: each name is the submodule's object
    submodules = [importlib.import_module(f"origamilab.{name}")
                  for name in ("cfrac", "flow", "origami", "perm", "sl2")]
    for name in origamilab.__all__:
        obj = getattr(origamilab, name)
        if isinstance(obj, types.ModuleType):
            assert obj is sys.modules[f"origamilab.{name}"]
        else:
            assert any(vars(m).get(name) is obj for m in submodules), name
    assert set(origamilab.__all__) <= set(dir(origamilab))
    star = {}
    exec("from origamilab import *", star)
    assert set(star) - {"__builtins__"} == set(origamilab.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        origamilab.no_such_name


def _orbit_edges(tmp_path, cap):
    """Exit code, and the adjacency rows with classes named by their
    surface files, of `orbit --origami genus2_L --cap cap`."""
    out = tmp_path / str(cap)
    code = run(["orbit", "--origami", "genus2_L", "--cap", str(cap),
                "--out-dir", str(out)])
    surfaces = {int(f.stem.removeprefix("orbit_")): f.read_text()
                for f in out.glob("orbit_*.origami")}
    rows = (out / "orbit_adjacency.csv").read_text().splitlines()
    assert rows[0] == "from,token,to"
    edges = set()
    for row in rows[1:]:
        a, tok, b = row.split(",")
        edges.add((surfaces[int(a)], tok, surfaces[int(b)]))
    return code, set(surfaces.values()), edges


@pytest.mark.parametrize("cap", [1, 2])
def test_orbit_truncated_by_cap(tmp_path, capsys, cap):
    # a cap below the orbit's size used to end in a KeyError: the adjacency
    # kept edges to images that were not kept
    code, full, full_edges = _orbit_edges(tmp_path, 64)
    assert code == 0 and len(full) == 3
    capsys.readouterr()
    code, kept, edges = _orbit_edges(tmp_path, cap)
    assert code == 1
    assert capsys.readouterr().out == f"classes: {cap}  complete: False\n"
    assert len(kept) == cap and kept <= full
    assert edges == {(a, tok, b) for a, tok, b in full_edges
                     if a in kept and b in kept}


def test_orbit_removes_class_files_of_an_earlier_orbit(tmp_path):
    # a capped orbit into a directory that held the full one used to leave
    # orbit_002.origami beside an adjacency CSV that names only 0 and 1
    out = tmp_path / "orbit"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")
    for cap, code in (("64", 0), ("2", 1)):
        assert run(["orbit", "--origami", "genus2_L", "--cap", cap,
                    "--out-dir", str(out)]) == code
    assert sorted(f.name for f in out.iterdir()) == [
        "notes.txt", "orbit_000.origami", "orbit_001.origami",
        "orbit_adjacency.csv"]


def test_parser_reuse_matches_fresh_processes(capsys):
    # the parser is built once per process: a rejected call must leave
    # nothing behind for the next one
    src = os.path.dirname(os.path.dirname(origamilab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    bad = ["hitting", "--origami", "ornithorynque", "--slope", "golden",
           "--check", "bogus"]
    good = ["info", "--origami", "ornithorynque"]
    for argv in (bad, good, bad):
        fresh = subprocess.run([sys.executable, "-m", "origamilab.cli", *argv],
                               capture_output=True, text=True, env=env)
        code = main(argv)
        out = capsys.readouterr()
        assert (code, out.out, out.err) == \
            (fresh.returncode, fresh.stdout, fresh.stderr)
    assert fresh.returncode == 2 and "invalid choice" in fresh.stderr


@pytest.mark.parametrize("argv", [
    ["flow", "--origami", "ornithorynque", "--slope", "1/2", "--start",
     "0,1/8,1/8", "--crossings", "-3"],
    ["cf", "--type", "2", "--depth", "-1"],
    ["cf", "--spec", "golden", "--depth", "0"],
    ["flow", "--origami", "ornithorynque", "--slope", "golden", "--start",
     "0,1/8,1/8", "--crossings", "3", "--depth", "-1"],
    ["cutseq", "--origami", "ornithorynque", "--slope", "golden", "--start",
     "0,1/8,1/8", "--span", "2", "--depth", "-2"],
], ids=["flow-crossings", "cf-type-depth", "cf-spec-depth", "flow-depth",
        "cutseq-depth"])
def test_bad_caps_and_depths_exit_2(tmp_path, capsys, argv):
    # a negative crossing cap without --span used to trace forever, a cf
    # depth below 1 printed an empty table, and a negative convergent depth
    # ended in a traceback
    assert run([*argv, "--out-dir", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not os.listdir(tmp_path)

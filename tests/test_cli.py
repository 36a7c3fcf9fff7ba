import argparse
import dataclasses
import importlib
import json
import os
import subprocess
import sys
import types
from fractions import Fraction

import pytest

import origamilab
import reference
from origamilab import verify
from origamilab.cli import (MODES, _subcommands, build_parser, check_flags,
                            label_str, main, parse_start)
from origamilab.cylinders import InducedDecomposition, VerticalDecomposition
from origamilab.origami import BUILTINS, INFINITY, builtin_ornithorynque
from origamilab.sl2 import MAT_ID
from origamilab.verify import NEG_INFINITY, next_letter_relation


def run(args):
    return main(args)


def test_info():
    reference.check("info")


def test_info_missing_file():
    reference.check("info-missing-file")


def test_names_of_the_wrong_count_exit_2(tmp_path, capsys):
    # an n=3 file with two names used to load: info exited 0, and act wrote
    # the two names back out
    path = tmp_path / "short.origami"
    path.write_text("n=3\nh=1 0 2\nv=2 1 0\nnames=a b\n")
    for argv in (["info"], ["act", "--matrix", "1,1,0,1"]):
        assert run([*argv, "--origami", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_orbit_and_act_outputs_are_pinned():
    reference.check("orbit-genus2_L")
    reference.check("act-S")


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


def test_cf():
    reference.check("cf-rational")
    reference.check("cf-type-7/3")


def test_flow_csv():
    reference.check("flow")


def test_cutseq():
    reference.check("cutseq")


def test_cylinders_csv():
    reference.check("cylinders")


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_cylinders_csv_without_matrix(tmp_path, name):
    # the identity decomposition stands for both bases
    o = BUILTINS[name]()
    for base, cyls in (("vertical", VerticalDecomposition(o).cylinders),
                       ("horizontal", InducedDecomposition(
                           o, MAT_ID, base="horizontal").cylinders)):
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


# each check of the intersection harness, a stub that makes it fail, and
# the report counts the failure fills: a pair with no intersection whose
# words are classified is also a conflict
FAILING_CHECKS = {
    "no-witness": ("segments_intersect", lambda seg_h, seg_v: None,
                   {"failures", "conflicts"}),
    "witness-off-segment": ("point_on_segment", lambda seg, pt: False,
                            {"witness_recheck_failures"}),
    "audit-fails": ("criterion_classify",
                    lambda word_h, word_v, slope_h=None: verify.Verdict(
                        kind="unclassified", slope_audit_ok=False),
                    {"slope_audit_failures"}),
}
# the count of a report and the key that names its failing pairs
NAMED = {"failures": "non_intersecting", "conflicts": "classifier_conflicts",
         "slope_audit_failures": "slope_audit_failed_slopes"}


@pytest.mark.parametrize("name", FAILING_CHECKS)
def test_verify_intersections_reports_a_failing_check(tmp_path, monkeypatch,
                                                      name):
    # at K = 34 every word is long enough, so each pair is classified
    check, stub, filled = FAILING_CHECKS[name]
    monkeypatch.setattr(verify, check, stub)
    assert run(["verify", "intersections", "--origami", "ornithorynque",
                "--trials", "10", "--K", "34",
                "--out", "ix.json", "--out-dir", str(tmp_path)]) == 1
    payload = json.loads((tmp_path / "ix.json").read_text())
    assert payload["ok"] is False
    for pair in ("main", "reflected"):
        counts = {key: payload[pair][key] for key in (
            "failures", "conflicts", "witness_recheck_failures",
            "slope_audit_failures")}
        assert counts == {key: 10 if key in filled else 0 for key in counts}
        assert payload[pair]["too_short"] == 0
        named = {NAMED[key] for key in filled if key in NAMED}
        assert named == set(NAMED.values()) & set(payload[pair])
        assert all(len(payload[pair][key]) == 10 for key in named)
        for entry in payload[pair].get("non_intersecting", []):
            for seg in (entry["h"], entry["v"]):
                # a start that --start reads back
                parse_start(builtin_ornithorynque(), seg["start"])
                assert Fraction(seg["span"]) > 0
        for entry in payload[pair].get("classifier_conflicts", []):
            assert entry["verdict"] in ("triple", "pair")


def test_verify_tiles_reports_a_violation(tmp_path, monkeypatch):
    # a segment that crosses only two of the three tiles
    monkeypatch.setattr(verify, "tiles_crossed", lambda seg: {0, 1})
    assert run(["verify", "tiles", "--origami", "ornithorynque",
                "--trials", "5", "--out", "tiles.json",
                "--out-dir", str(tmp_path)]) == 1
    payload = json.loads((tmp_path / "tiles.json").read_text())
    assert payload["violations"] == payload["checked"] > 0
    assert payload["ok"] is False


def test_verify_transitions_reports_a_missing_successor(tmp_path,
                                                        monkeypatch):
    # a sampled relation without C2 -> A0, which both tables hold
    sampled = verify.next_letter_relation

    def without_c2_a0(*args, **kwargs):
        rel = sampled(*args, **kwargs)
        rel.successors[("C", 2)] -= {("A", 0)}
        return rel

    monkeypatch.setattr(verify, "next_letter_relation", without_c2_a0)
    assert run(["verify", "transitions", "--origami", "ornithorynque",
                "--trials", "195", "--out", "t.json",
                "--out-dir", str(tmp_path)]) == 1
    payload = json.loads((tmp_path / "t.json").read_text())
    missing = {"letter": "C2", "kind": "missing", "successor": "A0"}
    assert payload["violations_vs_verified"] == [missing]
    assert {**missing, "witness": "None"} in payload["violations_vs_asserted"]
    assert payload["ok"] is False


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


def test_hitting_rational_slope_stops_after_one_period():
    reference.check("rational-one-period")


@pytest.mark.parametrize("argv", [
    # q * M * m >= 2**61: stamping would overflow int64
    ["--slope", "3/1000000000021", "--radii", "1/4"],
    # 432 cells over a 16-byte budget; the convergent is 987/1597
    ["--slope", "golden", "--radii", "1/4", "--mem-budget", "16"],
], ids=["int64", "memory-budget"])
def test_hitting_refuses_the_grid_before_tracing_a_leaf(tmp_path, monkeypatch,
                                                        argv):
    # kappa is an integer from the default start at both slopes, so a leaf
    # traced first would run n*q crossings before the refusal
    import origamilab.hitting as hl

    def traced(*args):
        raise AssertionError("a leaf was traced before the grid was refused")

    monkeypatch.setattr(hl, "_on_singular_leaf", traced)
    assert run(["hitting", "--origami", "ornithorynque", *argv,
                "--out-dir", str(tmp_path)]) == 2


def test_run_config():
    reference.check("run-config")


def test_run_config_missing():
    reference.check("missing-config")


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


def test_run_config_keeps_the_case_of_its_keys(tmp_path, capsys):
    # K = 5 reaches --K, not --k
    cfg = tmp_path / "job.ini"
    cfg.write_text("[run]\ntask = verify\n\n[verify]\nmode = intersections\n"
                   "origami = ornithorynque\nK = 5\ntrials = 3\n")
    assert run(["run", "--config", str(cfg)]) == 0
    through_config = capsys.readouterr().out
    assert run(["verify", "intersections", "--origami", "ornithorynque",
                "--K", "5", "--trials", "3"]) == 0
    assert capsys.readouterr().out == through_config


@pytest.mark.parametrize("mode", ["intersections", "tiles", "transitions"])
def test_verify_config_hash_is_pinned(mode):
    reference.check(f"config-hash-{mode}")


def test_verify_config_hash_through_run_config_is_pinned():
    reference.check("config-hash-run-config")


def test_hitting_check_upper():
    reference.check("hitting-upper")


_LOWER = ["hitting", "--origami", "ornithorynque", "--slope", "type:w=2",
          "--check", "lower"]


def test_hitting_lower_reports_a_capped_record(tmp_path, monkeypatch,
                                               capsys):
    # a record not dense by its cap is not dense by the threshold either
    import origamilab.hitting as hl
    measured = hl.r_dense_time

    def capped(*args, **kwargs):
        rec, snapshot = measured(*args, **kwargs)
        return dataclasses.replace(rec, T_span=None, T2=None, T=None,
                                   capped=True), snapshot

    monkeypatch.setattr(hl, "r_dense_time", capped)
    assert run([*_LOWER, "--levels", "0", "--out-dir", str(tmp_path)]) == 0
    row, last = capsys.readouterr().out.splitlines()
    assert row.startswith("k=0 q=1 T=None lower_ok=True ")
    assert last.endswith("ok=True")
    assert ",,1,151,0" in (tmp_path / "records.csv").read_text()


def test_hitting_lower_fails_the_tube_audit_without_a_core_line(
        tmp_path, monkeypatch, capsys):
    import origamilab.hitting as hl
    monkeypatch.setattr(hl, "_renormalized_clearance", lambda *args: None)
    assert run([*_LOWER, "--levels", "1", "--out-dir", str(tmp_path)]) == 1
    row, last = capsys.readouterr().out.splitlines()
    assert row.startswith("k=1 q=2 ") and row.endswith(" tube_ok=False")
    assert last.endswith("ok=False")


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
         "--start", "0,1/8,1/8", "--crossings", "10", "--out-dir", out],
        ["cutseq", "--origami", "ornithorynque", "--slope", "0",
         "--start", "7,1/2,0", "--span", "6"],
        ["cylinders", "--origami", "ornithorynque", "--out-dir", out],
        ["verify", "tiles", "--origami", "ornithorynque", "--trials", "5",
         "--out-dir", out]):
    check(main(argv) == 0, f"{argv[0]} failed")
    check(loaded() == [], argv[0])
check(main(["hitting", "--origami", "torus", "--slope", "golden",
            "--radii", "1/4", "--cap", "2000", "--out-dir", out]) == 0,
      "hitting failed")
check(loaded() == ["numpy"], "hitting")
"""


def test_only_hitting_loads_numpy(tmp_path):
    # a fresh process: the test session itself has numpy loaded. The set-up
    # and `info` load only the surface's modules; no command but hitting
    # loads numpy, and none loads a process pool.
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


@pytest.mark.parametrize("name", ["flow-crossings", "cf-type-depth",
                                  "cf-spec-depth", "flow-depth",
                                  "cutseq-depth"])
def test_bad_caps_and_depths_exit_2(name):
    reference.check(name)


@pytest.mark.parametrize("radii", ["prop:17..9", "special:3..1"])
def test_empty_radii_range_exits_2(radii):
    reference.check(f"empty-{radii.partition(':')[0]}-radii")


# the four flags that commands share; each command takes those it reads
SHARED = {"--seed", "--jobs", "--mem-budget", "--out-dir"}
TAKES_SHARED = {
    "verify": SHARED, "hitting": SHARED, "exponent": SHARED,
    "act": {"--out-dir"}, "orbit": {"--out-dir"}, "flow": {"--out-dir"},
    "cylinders": {"--out-dir"},
    "info": set(), "cf": set(), "cutseq": set(), "run": set(),
}
# per command that takes a shared flag it does not read, a command line
# without one that exits 0 in a directory holding OK_INI
PLAIN = {
    "info": ["info", "--origami", "genus2_L"],
    "act": ["act", "--origami", "genus2_L", "--matrix", "1,1,0,1"],
    "orbit": ["orbit", "--origami", "genus2_L"],
    "cf": ["cf", "--rational", "5/7"],
    "flow": ["flow", "--origami", "genus2_L", "--slope", "1/2",
             "--start", "0,1/8,1/8", "--crossings", "4"],
    "cutseq": ["cutseq", "--origami", "ornithorynque", "--slope", "0",
               "--start", "7,1/2,0", "--span", "6"],
    "cylinders": ["cylinders", "--origami", "genus2_L"],
    "run": ["run", "--config", "ok.ini"],
}
OK_INI = "[run]\ntask = info\n\n[info]\norigami = genus2_L\n"
FLAG_VALUES = {"--seed": "9", "--jobs": "2", "--mem-budget": "1000",
               "--out-dir": "elsewhere"}
REMOVED = [(cmd, flag) for cmd in sorted(PLAIN)
           for flag in sorted(SHARED - TAKES_SHARED[cmd])]


def test_each_command_takes_only_the_shared_flags_it_reads():
    taken = {name: SHARED & set(p._option_string_actions)
             for name, p in _subcommands().items()}
    assert taken == TAKES_SHARED
    assert sum(map(len, taken.values())) == 16
    assert len(REMOVED) == 28


@pytest.mark.parametrize("cmd,flag", REMOVED,
                         ids=[f"{c}{f}" for c, f in REMOVED])
def test_shared_flag_a_command_does_not_read_exits_2(tmp_path, monkeypatch,
                                                     capsys, cmd, flag):
    # `run --config ok.ini --seed 9` used to run the config's task at its
    # own seed, and `info --jobs -3` to exit 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ok.ini").write_text(OK_INI)
    assert run(PLAIN[cmd]) == 0
    capsys.readouterr()
    assert run([*PLAIN[cmd], flag, FLAG_VALUES[flag]]) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "elsewhere").exists()


def test_run_section_keys_go_to_the_task(tmp_path, capsys):
    # a [run] key is a flag of the task, so one the task does not take is
    # refused
    cfg = tmp_path / "job.ini"
    cfg.write_text(OK_INI.replace("task = info\n", "task = info\nseed = 3\n"))
    assert run(["run", "--config", str(cfg)]) == 2
    assert "unrecognized arguments: --seed=3" in capsys.readouterr().err


# command lines that run every (command, mode) of every handler, the mode
# as in cli.MODES; exponent comes after hitting, whose records it fits
MODE_ARGVS = [
    *((cmd, "", argv) for cmd, argv in PLAIN.items() if cmd != "cf"),
    ("act", "", [*PLAIN["act"], "--out", "a.origami"]),
    ("cf", "rational", PLAIN["cf"]),
    ("cf", "type", ["cf", "--type", "2", "--depth", "3"]),
    ("cf", "spec", ["cf", "--spec", "golden", "--depth", "3"]),
    *(("verify", mode, ["verify", mode, "--origami", "ornithorynque",
                        "--trials", "2", "--out", "v.json"])
      for mode in ("transitions", "tiles", "intersections")),
    ("hitting", "upper", ["hitting", "--origami", "ornithorynque", "--slope",
                          "golden", "--check", "upper", "--levels", "6"]),
    ("hitting", "lower", ["hitting", "--origami", "ornithorynque", "--slope",
                          "type:w=2", "--check", "lower", "--levels", "0"]),
    ("hitting", "none", ["hitting", "--origami", "torus", "--slope",
                         "golden", "--radii",
                         "1/4,1/8,1/16,1/32,1/64,1/128", "--cap", "4000"]),
    ("exponent", "", ["exponent", "--in", "records.csv"]),
]
# the flags that a mode takes but does not act on: verify and exponent hash
# --jobs and --mem-budget into config_hash through vars(args), and hitting
# takes --jobs, only at 1, because the benchmark workloads pass it. The
# benchmark change that drops --jobs from their argv removes both.
HASHED_ONLY = {"verify": {"jobs", "mem_budget"},
               "exponent": {"jobs", "mem_budget"}}
UNREAD = {"hitting": {"jobs"}}


def test_every_flag_a_command_takes_is_read(tmp_path, monkeypatch, capsys):
    # Each mode reads exactly the flags of its row in MODES and the flags of
    # its command that MODES does not name. A flag counts when it holds a
    # value: a None one was neither given nor filled in, and reading it
    # tests for that, as cf does for its inputs.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ok.ini").write_text(OK_INI)
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    modes = {(cmd, mode) for cmd in _subcommands()
             for mode in MODES.get(cmd, {"": {}})
             if mode or len(MODES.get(cmd, {"": {}})) == 1}
    assert modes == {(cmd, mode) for cmd, mode, _ in MODE_ARGVS}
    seen = {cmd: set() for cmd in _subcommands()}
    for cmd, mode, argv in MODE_ARGVS:
        args = build_parser().parse_args(argv, namespace=Recording())
        check_flags(args)
        rows = MODES.get(cmd, {})
        table = {flag for row in rows.values() for flag in row}
        taken = {*rows.get("", {}), *rows.get(mode, {})}
        dests = {a.dest for a in _subcommands()[cmd]._actions} - {"help"}
        expected = (dests - table) | taken
        expected -= HASHED_ONLY.get(cmd, set()) | UNREAD.get(cmd, set())
        handler = args.func
        read.clear()
        assert handler(args) in (0, 1), argv
        got = set(read)
        seen[cmd] |= got
        assert ("__dict__" in got) == (cmd in HASHED_ONLY), argv
        valued = {f for f in (got | expected) - {"__dict__"}
                  if getattr(args, f) is not None}
        assert got & valued == expected & valued, argv
    # and every flag, None or not, is read in some mode
    for cmd, parser in _subcommands().items():
        dests = {a.dest for a in parser._actions} - {"help"}
        unread = HASHED_ONLY.get(cmd, set()) | UNREAD.get(cmd, set())
        assert dests - unread <= seen[cmd], cmd
        assert not unread & seen[cmd], cmd
    capsys.readouterr()


def test_jobs_takes_only_1_in_every_mode():
    reference.check("jobs-2-in-every-mode")


def test_readme_golden_exponent_outputs_are_pinned():
    reference.check("golden-exponent")

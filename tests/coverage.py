"""The lines of src/ that tier-1 never runs, and those that no command
runs, each against a checked-in list.

Run from the root of a checkout:

    python tests/coverage.py

It copies src/, tests/, docs/, README.md and pyproject.toml to a temporary
directory and makes two passes there, in this process, under a
`sys.settrace` line tracer.

The first pass runs the tier-1 command. A `sitecustomize.py` written into
the copy's src/ puts the same tracer in every Python subprocess that the
tests start: each of them has that src/ on its PYTHONPATH, since it runs
the `origamilab` it imports from there. The executable lines of each module
are the lines of its code objects (`co_lines`), and each line belongs to
the innermost function that holds it, by its qualified name
(`co_qualname`, new in Python 3.11; CI runs this on 3.11).

UNRUN lists the lines that may never run. An entry names a line by
module, function and source text, and gives one of the REASONS. The script
prints every line that never ran and is not listed, and every listed line
that ran (or is gone), and exits 1 if there is any. So a change that adds
a line no test runs adds a test, and a change that makes a listed line
run drops its entry: the list only gets shorter. Whether tier-1's own
tests pass does not change the verdict; its summary is printed above it.
A line that only some random draws of a hypothesis test reach would make
the verdict vary from run to run, so each line gets a test or a reference
case that reaches it every time.

The second pass runs every case of tests/reference.py, STARTS included,
through `cli.main`, on a fresh import of the package. LIBRARY lists the
lines that tier-1 runs but no command does, in UNRUN's form, each with one
of the LIBRARY_REASONS; the text `*` lists every line of a member at once.
A line that no command runs and that neither list holds, and a LIBRARY
line that a command runs (or that is gone), fails it. So `src/` holds
what a command or the benchmark runs, and the guards of that code; a
member that only tests call belongs in `tests/`.

pytest does not collect this file (it has no test_ prefix). CI runs it as
a job of its own: tracing makes tier-1 about two and a half times slower.
"""

import importlib
import os
import shutil
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "docs", "README.md", "pyproject.toml")
# the tier-1 command's arguments to pytest
TIER1 = ["-q", "--continue-on-collection-errors"]

REASONS = {
    "guard": "a typed refusal or invariant guard: safety code that stays",
    "edge": "a domain edge of an exact helper in cfrac",
}

LIBRARY_REASONS = {
    "guard": "only a library call reaches it: a refusal, an invariant guard "
             "or a branch that no command's input takes",
    "benchmark": "perfbench/workloads.py or perfbench/tracer.py reads it",
    "size": "a branch that only inputs larger than the table's reach",
}

# The tracer, run in this process and, from sitecustomize.py, in each
# subprocess: it records, per file under `prefix`, every line a frame of
# that file is at when it runs, returns or raises.
HOOK = '''
import sys
import threading


def start_tracing(prefix):
    """Trace every new frame of a file under prefix; {file: set of lines}."""
    hits, tracers = {}, {}

    def tracer_for(filename):
        add = hits.setdefault(filename, set()).add

        def local(frame, event, arg):
            add(frame.f_lineno)
            return local
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        local = tracers.get(filename, False)
        if local is False:
            local = tracers[filename] = (
                tracer_for(filename) if filename.startswith(prefix) else None)
        if local is not None:
            local(frame, event, arg)
        return local

    threading.settrace(on_call)
    sys.settrace(on_call)
    return hits
'''

# sitecustomize.py of the copy, after HOOK: trace, and write the lines
# to a file of the process's own at exit
SITE = '''

def _dump(hits, path):
    sys.settrace(None)
    with open(path, "w") as fh:
        for filename, lines in hits.items():
            fh.write(f"{filename}\\t{' '.join(map(str, sorted(lines)))}\\n")


import atexit
import os
atexit.register(_dump, start_tracing(PREFIX),
                os.path.join(OUT, f"{os.getpid()}.lines"))
'''


def _entries(text, reasons=REASONS):
    """The entries of a table of lines `module function reason text`."""
    out = []
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        module, function, reason, source = line.split(maxsplit=3)
        if reason not in reasons:
            raise ValueError(f"{line}: no such reason {reason!r}")
        if reason == "edge" and module != "cfrac":
            raise ValueError(f"{line}: only cfrac has domain edges")
        out.append((module, function, source))
    return out


# The lines tier-1 never runs, each with its reason. Mutants of
# tests/mutants.py fire the InvariantViolated guards of cylinders, origami
# and sl2.
UNRUN = _entries("""
cfrac      _iroot                                          edge   x -= 1
cfrac      _iroot                                          edge   x += 1
cylinders  VerticalDecomposition.__init__.<locals>.right_neighbor guard raise InvariantViolated("a non-singular line joins two strips")
cylinders  VerticalDecomposition.__init__.<locals>.right_neighbor guard raise InvariantViolated("joined strips differ in length")
cylinders  VerticalDecomposition.__init__                  guard  raise InvariantViolated("cylinder areas must sum to n")
cylinders  InducedDecomposition.crossing_sequence          guard  raise InvariantViolated("the pull-back meets a cone inside")
hitting    _core_chords                                    guard  raise PreconditionViolated("core geodesic must close")
hitting    _tube_cells                                     guard  raise GridError("tube count would overflow int64")
origami    Origami._build_cone_data                        guard  raise InvariantViolated("sum of cone orders must be even")
origami    Origami._build_cone_data                        guard  raise InvariantViolated(
origami    Origami._build_cone_data                        guard  "commutator cycles disagree with the vertex walk")
sl2        decompose                                       guard  raise InvariantViolated(f"word {word} does not evaluate to {m}")
verify     _segment_sampler.<locals>.sample                guard  raise RuntimeError("could not sample a cone-free segment")
verify     intersection_property_harness                   guard  raise PreconditionViolated("the reflection does not permute "
""")

# The lines that tier-1 runs and no case of tests/reference.py does, each
# with its reason; `*` for every line of the member. The benchmark's
# members are criterion 7's transversal bound, which perfbench/workloads.py
# samples, and what perfbench/tracer.py wraps by name.
LIBRARY = _entries("""
__init__   __getattr__                                     benchmark return _import_module(f".{name}", __name__)
cfrac      _iroot                                          guard     raise ValueError("negative radicand")
cfrac      ceil_power                                      guard     raise ValueError("negative exponent")
cfrac      rational_lt_power                               guard     return True
cfrac      rational_lt_power                               guard     return vn ** q * base ** (-p) < vd ** q
cfrac      CFSlope.p                                       guard     return 1
cfrac      CFSlope.q                                       guard     return 0
cfrac      CFSlope.error_bound                             guard     return Fraction(0)
cfrac      CFSlope.value_exact                             guard     raise OutOfRange("infinite expansion has no exact rational value")
cfrac      g_matrix                                        guard     raise NonPositiveQuotient(f"a_{i} = {a}")
cfrac      diophantine_type_estimate                       guard     raise OutOfRange("need depth >= 2")
cli        cmd_verify.<locals>.<listcomp>                  guard     {"letter": label_str(v.letter), "kind": v.kind,
cli        cmd_verify                                      guard     bad += 1
cli        cmd_verify.<locals>.<listcomp>                  guard     {"verdict": c["verdict"].kind,
cli        cmd_verify.<locals>.<listcomp>.<dictcomp>       guard     **{side: _segment_fields(*c[side]) for side in "hv"}}
cylinders  InducedDecomposition.__init__                   guard     raise ValueError(base)
cylinders  InducedDecomposition.slope_pq                   benchmark *
cylinders  InducedDecomposition.pull_back                  guard     vx, vy = -vx, -vy
cylinders  InducedDecomposition.pull_back                  guard     return start, INFINITY, Fraction(abs(vx) * num, den), vx > 0
cylinders  InducedDecomposition.crossing_sequence          benchmark *
cylinders  transversal_bound                               benchmark *
cylinders  trapping_window                                 guard     raise PreconditionViolated("need alpha > 0")
cylinders  trapping_window                                 guard     raise PreconditionViolated(
cylinders  trapping_window                                 guard     f"alpha {alpha} >= 1/L for cylinder of length {c.length}")
cylinders  trapping_window                                 guard     raise PreconditionViolated("start point is not on a cylinder boundary")
flow       _off_grid                                       guard     return GridError(f"{a}/{b} is off the 1/M grid")
flow       _exact_div                                      guard     raise _off_grid(a, b)
flow       _grid_start                                     guard     raise OutOfRange(f"({x}, {y}) outside the closed unit square")
flow       _crossings                                      guard     raise _off_grid(lhs, b)
flow       _crossings                                      guard     raise _off_grid(rhs, a)
flow       span_for_length_at_least                        guard     return Fraction(length)
flow       Segment.length_squared                          benchmark *
flow       make_segment                                    benchmark *
flow       _segments_common_point                          guard     if _cross(qpx, qpy, rx, ry) != 0:
flow       _segments_common_point                          guard     return None
flow       _segments_common_point                          guard     if rx == 0 and ry == 0:
flow       _segments_common_point                          guard     return (ax, ay, 1) if _on_segment(ax, ay, cx, cy, dx, dy) else None
flow       _segments_common_point                          guard     if sx == 0 and sy == 0:
flow       _segments_common_point                          guard     return (cx, cy, 1) if _on_segment(cx, cy, ax, ay, bx, by) else None
flow       _segments_common_point                          guard     dot_r = rx * rx + ry * ry
flow       _segments_common_point                          guard     t0 = (cx - ax) * rx + (cy - ay) * ry
flow       _segments_common_point                          guard     t1 = (dx - ax) * rx + (dy - ay) * ry
flow       _segments_common_point                          guard     lo = max(min(t0, t1), 0)
flow       _segments_common_point                          guard     if lo > min(max(t0, t1), dot_r):
flow       _segments_common_point                          guard     return None
flow       _segments_common_point                          guard     return ax * dot_r + lo * rx, ay * dot_r + lo * ry, dot_r
hitting    r_dense_time                                    guard     raise OutOfRange("need r > 0")
hitting    r_dense_time                                    guard     snapshot = grid.snapshot()
hitting    lower_bound_experiment                          guard     lower_ok = True        # not dense by the cap >= threshold
hitting    lower_bound_experiment                          guard     tube = TubeAudit(performed=True, ok=False)
origami    slope_pair                                      guard     slope = Fraction(slope)
origami    GluingView.__init__                             guard     raise ValueError("h and v must have the same size")
origami    Origami.edge_id                                 guard     raise ValueError(f"bad side {side!r}")
origami    is_isomorphic                                   guard     return None
origami    canonical_point                                 guard     x = Fraction(x)
origami    canonical_point                                 guard     y = Fraction(y)
origami    canonical_point                                 guard     raise OutOfRange(f"({x}, {y}) outside the closed unit square")
perm       Permutation.__mul__                             guard     raise ValueError("permutations of different sizes")
sl2        Mat2.inv                                        guard     if det == -1:
sl2        Mat2.inv                                        guard     return Mat2(-self.d, self.b, self.c, -self.a)
sl2        Mat2.inv                                        guard     raise NotUnimodular(f"det {det}")
sl2        evaluate_word                                   guard     raise ValueError(f"bad token {tok!r}")
sl2        _reglue                                         guard     raise ValueError(f"bad token {tok!r}")
sl2        AffineChart.map_point                           guard     raise ValueError(f"bad token {tok!r}")
sl2        ReflectionMap.__init__                          guard     raise ValueError("origami is not fixed by the reflection S")
sl2        ReflectionMap.map_point                         benchmark *
verify     compare_relation                                guard     out.append(RelationViolation(letter, "missing", s))
verify     tiles_crossed                                   guard     raise ValueError("origami has no tile structure")
verify     criterion_classify                              guard     audit = None
verify     criterion_classify                              guard     if slope_h is not None:
verify     criterion_classify                              guard     p, q = slope_pair(slope_h)
verify     criterion_classify                              guard     audit = -6 * q < p < -q if q else None    # no audit for a horizontal H
verify     criterion_classify                              guard     return Verdict(kind="unclassified", slope_audit_ok=audit)
verify     point_on_segment                                guard     reps.add((origami.hinv(pt.square), N, Y))
verify     point_on_segment                                guard     reps.add((origami.vinv(origami.hinv(pt.square)), N, N))
verify     point_on_segment                                guard     return False
verify     intersection_property_harness                   guard     rep.witness_recheck_failures += 1
verify     intersection_property_harness                   guard     rep.classifier_conflicts.append({
verify     intersection_property_harness                   guard     "verdict": verdict, "h": (seg_h.start, seg_h.slope),
verify     intersection_property_harness                   guard     "v": (seg_v.start, seg_v.slope)})
verify     intersection_property_harness                   guard     rep.slope_audit_failures.append(slope_h)
""", LIBRARY_REASONS)


def executable_lines(path):
    """{line: qualified name of the innermost function} of each line of
    the module at path that holds code; `<module>` at module level."""
    code = compile(path.read_text(), str(path), "exec")
    lines, todo = {}, [(code, 0)]
    depth = {}
    while todo:
        co, level = todo.pop()
        name = co.co_qualname
        for _, _, line in co.co_lines():
            if line and depth.get(line, -1) < level:
                lines[line], depth[line] = name, level
        todo.extend((c, level + 1) for c in co.co_consts
                    if hasattr(c, "co_lines"))
    return lines


def code_lines(package):
    """[(module, function, text, line)] of each executable line of the
    modules of package."""
    out = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text().splitlines()
        for line, name in sorted(executable_lines(path).items()):
            out.append((path.stem, name, source[line - 1].strip(), line))
    return out


def never_run(hits, lines, package):
    """The entries of lines that no traced frame was at."""
    return [entry for entry in lines
            if entry[3] not in hits.get(str(package / f"{entry[0]}.py"), ())]


def traced_tier1(copy):
    """Run tier-1 in copy, traced here and in its subprocesses; (pytest's
    exit code, {file: set of lines run})."""
    package = copy / "src" / "origamilab"
    prefix = str(package) + os.sep
    out = copy / "lines"
    out.mkdir()
    (copy / "src" / "sitecustomize.py").write_text(
        f"PREFIX, OUT = {prefix!r}, {str(out)!r}\n" + HOOK + SITE)
    namespace = {}
    exec(HOOK, namespace)
    here = os.getcwd()
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(copy / "src"), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(copy / "src"))
    os.chdir(copy)
    try:
        hits = namespace["start_tracing"](prefix)
        code = pytest.main(TIER1)
    finally:
        sys.settrace(None)
        os.chdir(here)
    for dump in out.iterdir():
        for row in dump.read_text().splitlines():
            filename, _, lines = row.partition("\t")
            hits.setdefault(filename, set()).update(map(int, lines.split()))
    return int(code), hits


def traced_commands(copy):
    """Run every case of tests/reference.py in copy through `cli.main` in
    this process, traced, on a fresh import of the package; (the names of
    the cases that did not match the table, {file: set of lines run})."""
    for name in list(sys.modules):
        if name.partition(".")[0] in ("origamilab", "reference"):
            del sys.modules[name]
    sys.path.insert(0, str(copy / "tests"))
    reference = importlib.import_module("reference")
    namespace = {}
    exec(HOOK, namespace)
    hits = namespace["start_tracing"](
        str(copy / "src" / "origamilab") + os.sep)
    try:
        failed = [name for name in reference.CASES
                  if reference.mismatches(name, reference.in_process)]
    finally:
        sys.settrace(None)
    return failed, hits


def in_member(name, member):
    """Whether the function of qualified name `name` is member or is
    nested in it."""
    return name == member or name.startswith(member + ".")


def compare(lines, table, ran=()):
    """Print each line of `lines` that `table` does not hold, and each
    entry that holds none of them; whether there was any. A line entry
    holds one line of its text, and a `*` entry every line of its member,
    so it also fails when the member's body has a line in `ran`."""
    members = {entry[:2] for entry in table if entry[2] == "*"}
    left = Counter(entry for entry in table if entry[2] != "*")
    held, bad = set(), False
    for module, name, text, line in lines:
        member = next((m for m in members
                       if m[0] == module and in_member(name, m[1])), None)
        if member:
            held.add(member)
        elif left[module, name, text] > 0:
            left[module, name, text] -= 1
        else:
            bad = True
            print(f"not listed: src/origamilab/{module}.py:{line} in {name}: "
                  f"{text}")
    for module, name, text in sorted(left.elements()):
        bad = True
        print(f"listed, but ran or gone: {module} {name}: {text}")
    for module, member in sorted(members):
        # of a member that no command calls, only its first line runs: the
        # `def` or first decorator, run when its module is imported
        run = [line for m, name, _, line in ran
               if m == module and in_member(name, member)]
        if (module, member) not in held or len(run) > 1:
            bad = True
            print(f"listed whole, but ran or gone: {module} {member}")
    return bad


def main():
    began = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(os.path.realpath(tmp)) / "copy"
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in COPIED:
            if (ROOT / part).is_dir():
                shutil.copytree(ROOT / part, copy / part, ignore=ignore)
            else:
                shutil.copy2(ROOT / part, copy / part)
        package = copy / "src" / "origamilab"
        lines = code_lines(package)
        code, hits = traced_tier1(copy)
        if code not in (0, 1):
            sys.exit(f"pytest could not run tier-1: exit {code}")
        unrun = never_run(hits, lines, package)
        tier1_s = time.monotonic() - began
        failed, hits = traced_commands(copy)
        idle = never_run(hits, lines, package)
        commands_s = time.monotonic() - began - tier1_s
    print(f"tier-1: {len(unrun)} lines of src/ never ran, {len(UNRUN)} "
          f"listed, in {tier1_s:.0f} s")
    bad = compare(unrun, UNRUN)
    ran, unrun = set(lines) - set(idle), set(unrun)
    idle = [entry for entry in idle if entry not in unrun]
    print(f"commands: {len(idle)} more lines of src/ ran under no case of "
          f"tests/reference.py, {len(LIBRARY)} entries of LIBRARY, in "
          f"{commands_s:.0f} s")
    bad |= compare(idle, LIBRARY, ran)
    for name in failed:
        print(f"case not as in tests/reference.py: {name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

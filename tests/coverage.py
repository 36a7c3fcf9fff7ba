"""The lines of src/ that tier-1 never runs, against a checked-in list.

Run from the root of a checkout:

    python tests/coverage.py

It copies src/, tests/, docs/, README.md and pyproject.toml to a temporary
directory and runs the tier-1 command there, in this process, under a
`sys.settrace` line tracer. A `sitecustomize.py` written into the copy's
src/ puts the same tracer in every Python subprocess that the tests start:
each of them has that src/ on its PYTHONPATH, since it runs the
`origamilab` it imports from there. The executable lines of each module
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

pytest does not collect this file (it has no test_ prefix). CI runs it as
a job of its own: tracing makes tier-1 about two and a half times slower.
"""

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
    "main": 'the body of `if __name__ == "__main__"`',
    "edge": "a domain edge of an exact helper in cfrac",
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


def _entries(text):
    """The entries of a table of lines `module function reason text`."""
    out = []
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        module, function, reason, source = line.split(maxsplit=3)
        if reason not in REASONS:
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


def never_run(hits, package):
    """[(module, function, text, line)] of each executable line of the
    modules of package that no traced frame was at."""
    out = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text().splitlines()
        ran = hits.get(str(path), set())
        for line, name in sorted(executable_lines(path).items()):
            if line not in ran:
                out.append((path.stem, name, source[line - 1].strip(), line))
    return out


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
        code, hits = traced_tier1(copy)
        if code not in (0, 1):
            sys.exit(f"pytest could not run tier-1: exit {code}")
        unrun = never_run(hits, copy / "src" / "origamilab")
    missing = Counter(entry[:3] for entry in unrun) - Counter(UNRUN)
    ran = Counter(UNRUN) - Counter(entry[:3] for entry in unrun)
    print(f"{len(unrun)} lines of src/ never ran, {len(UNRUN)} listed, in "
          f"{time.monotonic() - began:.0f} s")
    bad = bool(missing or ran)
    for module, name, text, line in unrun:
        if missing[module, name, text] > 0:
            missing[module, name, text] -= 1
            print(f"never ran, not listed: src/origamilab/{module}.py:{line} "
                  f"in {name}: {text}")
    for module, name, text in sorted(ran.elements()):
        print(f"listed, but ran or gone: {module} {name}: {text}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""The reference command lines of `origamilab`, in one table.

A case is one or more commands, run in order in a fresh directory holding
the files of FILES. Each command carries its exit code and a digest: the
first 16 hex digits of the SHA-256 of its stdout, its stderr, and the name
and bytes of each file it creates, changes or removes there.

pytest does not collect this file. Tier-1 runs each case through
`origamilab.cli.main`, in the test that names it, and every refusal case
once more in one `python -O` process; `python tests/reference.py` runs the
table through the installed `origamilab` script. A mismatch prints the
streams, the files touched and the new digest: a change that alters an
output on purpose pastes that digest in and names the case in CHANGES.md."""

import contextlib
import functools
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

FILES = {
    "no-squares.origami": "n=0\nh=\nv=\n",
    "repeated-key.origami": "n=3\nh=1 0 2\nv=2 1 0\nh=2 0 1\n",
    "unknown-key.origami": "n=3\nh=1 0 2\nv=2 1 0\nsquares=4\n",
    "no-section-header.ini": "command = info\n",
    "repeated-section.ini": "[run]\ntask = info\n[run]\ntask = cf\n",
    "repeated-option.ini": "[run]\ntask = info\ntask = cf\n",
    "no-run-section.ini": "[other]\nx = 1\n",
    "job.ini": "[run]\ntask = info\n\n[info]\norigami = ornithorynque\n",
    # keys keep their case: Task is not task, and K = 5 is --K 5
    "key-case.ini": "[run]\nTask = info\n",
    "k5.ini": "[run]\ntask = verify\n\n[verify]\nmode = intersections\norigami = ornithorynque\nK = 5\ntrials = 3\n",
    # verify's mode is positional and --cone takes two values
    "cone.ini": "[run]\ntask = verify\nseed = 3\n\n[verify]\nmode = transitions\norigami = ornithorynque\ncone = -inf -1\ntrials = 30\nout = c.json\n",
    # a true-valued key is a switch
    "down.ini": "[run]\ntask = cutseq\n\n[cutseq]\norigami = ornithorynque\nslope = 1/3\nstart = 7,1/2,1/5\nspan = 6\ndown = true\n",
    # a records file that exponent fits
    "golden.csv": "slope_spec,pN,qN,square,x,y,r,cells,T,capped,crossings,seed\n"
                  "golden,610,987,0,3/16,5/16,0.65,3,60.7,0,103,0\n"
                  "golden,987,1597,1,1/4,1/2,0.40,4,54.3,0,103,0\n"
                  "golden,1597,2584,0,3/16,5/16,0.15,10,233.4,0,362,\n"
                  "golden,2584,4181,0,3/16,5/16,0.05,24,442.7,0,621,0\n"
                  "golden,4181,6765,0,3/16,5/16,0.01,102,2255.5,0,3106,0\n",
    "not-records.csv": "not,a,records,file\n",
}

# name -> [(command, exit code, digest)], filled by _cases
CASES = {}


def _cases(text):
    """The cases of a table of lines `name exit digest command` ({O} for
    `--origami ornithorynque`; one line a command, in order; # a comment),
    added to CASES."""
    group, last = {}, None
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        name, code, digest, command = line.split(maxsplit=3)
        if name in CASES and name != last:
            raise ValueError(f"case {name} is named twice")
        command = command.replace("{O}", "--origami ornithorynque")
        group[name] = CASES.setdefault(name, [])
        group[name].append((command, int(code), digest))
        last = name
    return group


# Each exits 2 with one `error:` line, refused by the command's own check
# and not by argparse, and writes no file.
REFUSED = _cases("""
flow-zero-denominator       2 b14961b4b38cdc80 flow {O} --slope 1/2 --span 1 --start 0,1/0,1/3
hitting-zero-denominator    2 b14961b4b38cdc80 hitting {O} --slope golden --radii 1/4 --start 0,1/0,1/3
cf-zero-denominator         2 b14961b4b38cdc80 cf --rational 1/0
cf-without-slope            2 429bbfef93d71539 cf
cf-spec-horizontal          2 8c3f43b4180fc5b9 cf --spec inf
cf-spec-rational            2 8c3f43b4180fc5b9 cf --spec 3/2
cf-rational-and-type        2 429bbfef93d71539 cf --rational 5/7 --type 2
cf-rational-and-spec        2 429bbfef93d71539 cf --rational 5/7 --spec golden --depth -3
start-square                2 62595b0f38d11ab7 flow {O} --slope 1/2 --span 1 --start 99,1/3,1/3
start-x                     2 d7da3416ca1f1fc1 flow {O} --slope 1/2 --span 1 --start 0,2,1/3
hitting-start-x             2 0c44637ed55ff31a hitting {O} --slope golden --radii 1/4 --start 0,5/2,1/3
# a start on a cone vertex, written with x = 1
start-on-cone               2 38dde9f5c87b38a7 cutseq {O} --slope 1/2 --start 0,1,0 --span 3
upper-level                 2 b5af107292ce8a65 hitting {O} --slope golden --check upper --levels -1
lower-level                 2 b5af107292ce8a65 hitting {O} --slope golden --check lower --w 2 --levels -1
radius-index                2 7071a1f48411b206 hitting {O} --slope golden --radii special:-2..3
trials                      2 306163a0c354b889 verify transitions {O} --trials -5
cap                         2 532811801caf65bd hitting {O} --slope golden --cap -5
hitting-K                   2 667ef04dbca2a147 hitting {O} --slope golden --check upper --K -3
verify-K                    2 aba50e2da3dd5a27 verify intersections {O} --K -1
cone-reversed               2 a6be8f18de785afc verify transitions {O} --trials 0 --cone 1 0
cone-empty                  2 a6b0bb18edec5c95 verify transitions {O} --trials 0 --cone 1/2 1/2
cone-upper-minus-infinity   2 f1ffd76a670f38aa verify transitions {O} --trials 0 --cone -1 -inf
cone-unbounded              2 9efdfe3c86ec20dc verify transitions {O} --trials 0 --cone -inf inf
orbit-cap-zero              2 d8469370aae24a1c orbit --origami genus2_L --cap 0
orbit-cap-negative          2 4c5eae74cd545ce2 orbit --origami genus2_L --cap -1
hitting-jobs                2 83b14fc531a90dc5 hitting {O} --slope golden --radii 1/4 --start 0,1/3,1/3 --jobs 0
# a 2.73 TiB cell grid: refused before it is allocated
radius-over-memory-budget   2 93d10ff32670041d hitting {O} --slope golden --radii 1/1000000
no-squares-origami          2 94ea6944f53f0fb8 info --origami no-squares.origami
repeated-key-origami        2 01053234ef723c25 info --origami repeated-key.origami
unknown-key-origami         2 27438c4657e68d24 info --origami unknown-key.origami
no-section-header-ini       2 3c9fa9e86eb913c0 run --config no-section-header.ini
repeated-section-ini        2 ad05ac19c849ae79 run --config repeated-section.ini
repeated-option-ini         2 9c8f8b2b59f89a19 run --config repeated-option.ini
no-run-section-ini          2 4d6bbae5f0038e53 run --config no-run-section.ini
key-case-ini                2 4d6bbae5f0038e53 run --config key-case.ini
missing-config              2 42f63e2c9534e46b run --config nosuch.ini
negative-radius             2 0f84bfbfc15f63a8 hitting {O} --slope golden --radii=-1/2
# a flag the mode of --check does not read
upper-radii                 2 02b9e94eb0809236 hitting {O} --slope golden --check upper --radii 1/4
lower-cap                   2 b5f3ab9d22966d88 hitting {O} --slope golden --check lower --cap 2000
none-w                      2 1cc0bc85092253f6 hitting {O} --slope golden --w 2
upper-w                     2 ed0cc8a4a21cf591 hitting {O} --slope golden --check upper --w 2
none-levels                 2 b4477964fd73ea0a hitting {O} --slope golden --levels 6
# every mode runs in one process, so --jobs takes only 1
none-jobs                   2 28439c77540abc26 hitting {O} --slope golden --radii 1/4 --jobs 2
upper-jobs                  2 82096d0927c4a868 hitting {O} --slope golden --check upper --jobs 2
lower-jobs                  2 c0995a30e68516fc hitting {O} --slope golden --check lower --jobs 2
tiles-jobs-2                2 6bc567330693387b verify tiles {O} --trials 5 --jobs 2
exponent-jobs-2             2 6764264e7059a708 exponent --in golden.csv --jobs 2
# the two commands that read letters refuse a surface without them
cutseq-unlabelled           2 4ca2f9dbc1dfc19c cutseq --origami torus --slope 1/2 --start 0,1/3,1/3 --span 1
tiles-unlabelled            2 4ca2f9dbc1dfc19c verify tiles --origami genus2_L
# a flag the mode does not read, or a value below its lowest
cf-rational-depth-negative  2 01b712fec940e4d4 cf --rational 5/7 --depth -4
cf-rational-depth           2 01b712fec940e4d4 cf --rational 5/7 --depth 5
lower-K                     2 29485adce37bdcd6 hitting {O} --slope type:w=2 --check lower --levels 0 --K 99
tiles-jobs                  2 1f2a5b3ad0d3f025 verify tiles {O} --trials 5 --jobs -3
tiles-mem-budget            2 837940486a67cca7 verify tiles {O} --trials 5 --mem-budget 0
tiles-jobs-and-mem-budget   2 1f2a5b3ad0d3f025 verify tiles {O} --trials 5 --jobs -3 --mem-budget -5
exponent-jobs               2 83b14fc531a90dc5 exponent --in golden.csv --jobs 0
tiles-cone                  2 ac6054cd7bcee385 verify tiles {O} --trials 5 --cone 1 0
transitions-K               2 746c0cd31d82f053 verify transitions {O} --trials 0 --K 5
flow-rational-depth         2 aec182a609391855 flow {O} --slope 1/2 --span 1 --start 0,1/8,1/8 --depth -3
cutseq-rational-depth       2 aec182a609391855 cutseq {O} --slope 1/2 --start 0,1/8,1/8 --span 1 --depth -3
""")

# Each checked by the test of tests/test_cli.py or tests/test_errors.py that
# names it.
PINNED = _cases("""
info                        0 4c64cec9e569f286 info {O}
cylinders                   0 ada6b59625cc1c79 cylinders {O} --out cylinders.csv
flow                        0 94280625fd7c98a4 flow {O} --slope 1/2 --start 0,1/8,1/8 --crossings 40 --out events.csv
hitting-upper               0 230a0b143c8c310e hitting {O} --slope golden --check upper --levels 6,7,8,9,10,11,12,13,14 --K 17 --out upper.csv
run-config                  0 4c64cec9e569f286 run --config job.ini
# classes in canonical-key order, and act's isomorphism verdict
orbit-genus2_L              0 9e25b7df9b590bd5 orbit --origami genus2_L
act-S                       0 4910a33e5e8bd173 act --matrix 0,-1,1,0 {O}
cf-rational                 0 7acecb4c5118d462 cf --rational 5/7
# a type with denominator 3 takes the integer Newton root
cf-type-7/3                 0 5e96f4637e6d9ea4 cf --type 7/3 --depth 6
cutseq                      0 f03db49091bb2eb9 cutseq {O} --slope 0 --start 7,1/2,0 --span 6
info-missing-file           2 004007c17aa23213 info --origami no_such_file.origami
# each once traced forever, printed an empty table or ended in a traceback
flow-crossings              2 38121d98f1064d1f flow {O} --slope 1/2 --start 0,1/8,1/8 --crossings -3
cf-type-depth               2 544675d78e7ab5e2 cf --type 2 --depth -1
cf-spec-depth               2 56035c9c67cdf8e8 cf --spec golden --depth 0
flow-depth                  2 6b260ec46d54ec5f flow {O} --slope golden --start 0,1/8,1/8 --crossings 3 --depth -1
cutseq-depth                2 ccfd3dfcfa1957b4 cutseq {O} --slope golden --start 0,1/8,1/8 --span 2 --depth -2
# each once wrote an empty records file
empty-prop-radii            2 6635febd841409e0 hitting {O} --slope golden --radii prop:17..9
empty-special-radii         2 d26c2ad3605cf6bc hitting {O} --slope golden --radii special:3..1
# in every mode, the refusal names the mode
jobs-2-in-every-mode        2 138a865917933842 verify transitions {O} --trials 2 --out v.json --jobs 2
jobs-2-in-every-mode        2 6bc567330693387b verify tiles {O} --trials 2 --out v.json --jobs 2
jobs-2-in-every-mode        2 e6c175d603cc89da verify intersections {O} --trials 2 --out v.json --jobs 2
jobs-2-in-every-mode        2 82096d0927c4a868 hitting {O} --slope golden --check upper --levels 6 --jobs 2
jobs-2-in-every-mode        2 c0995a30e68516fc hitting {O} --slope type:w=2 --check lower --levels 0 --jobs 2
jobs-2-in-every-mode        2 28439c77540abc26 hitting --origami torus --slope golden --radii 1/4,1/8,1/16,1/32,1/64,1/128 --cap 4000 --jobs 2
jobs-2-in-every-mode        2 6764264e7059a708 exponent --in records.csv --jobs 2
# each config_hash dates from when every flag had its default in the parser
config-hash-transitions     1 fc230e4d8a19d15a verify transitions {O} --trials 30 --seed 0 --out report.json
config-hash-tiles           0 b5d3c02c2894f3ef verify tiles {O} --trials 5
config-hash-intersections   0 7e4bf086e451e9c3 verify intersections {O} --K 17 --trials 5 --seed 0
config-hash-run-config      0 07b18f5a231e7538 run --config cone.ini
# the leaf closes within span n*q = 24: one block's 48 crossings
rational-one-period         0 5ccd5f5b03986bf6 hitting {O} --slope 1/2 --radii 1/4 --out half.csv
golden-exponent             0 1037c4f33a2f7bea hitting {O} --slope golden --radii prop:9..17 --out records.csv
golden-exponent             0 57fe24e8b133f02e exponent --in records.csv --out fit.json --plot fit.svg --min 0.85 --max 1.3
bad-records                 2 ab8730dba339f6f0 exponent --in not-records.csv
no-continued-fraction-upper 2 735a4b88d5e25439 hitting {O} --slope 3/2 --check upper
no-continued-fraction-auto  2 1c50733aa98f0afd hitting {O} --slope inf
no-continued-fraction-prop  2 01e26bb73df6fdfa hitting {O} --slope 3/2 --radii prop:1..3
""")

# The README's commands at tier-1 sizes and CI's others, not in PINNED.
COMMANDS = _cases("""
cf-type-2                   0 79a3d734dd4b1acf cf --type 2 --depth 8
orbit-ornithorynque         0 7d7fb8e02144a61d orbit {O}
# the kernel's other directions: down (-p, -q), left and horizontal
flow-down                   0 5bd2c945b3a32e35 flow {O} --slope 1/2 --start 0,1/8,1/8 --crossings 40 --down --out ev.csv
flow-left                   0 943dff805e0659ec flow {O} --slope=-1/3 --start 2,1/7,1/5 --crossings 20
flow-horizontal             0 5312a3beea4e6610 flow {O} --slope inf --start 0,1/8,1/8 --crossings 12
# x = 1 is x = 0 of the square to the right: the flow meets a cone
flow-into-cone              0 638796ec75a8e26f flow {O} --slope 0 --start 0,1,1/2 --crossings 12
cutseq-down                 0 89ac0d8495eb12cf cutseq {O} --slope 1/3 --start 7,1/2,1/5 --span 6 --down
cutseq-horizontal           0 a07513f8bbd7de98 cutseq {O} --slope inf --start 0,1/8,1/8 --span 6
# a config's `down = true` is --down: the same word
config-switch               0 89ac0d8495eb12cf run --config down.ini
cylinders-sheared           0 8e2e85d238d3a791 cylinders {O} --matrix 1,1,0,1
cylinders-horizontal        0 b3e707d1d2276afe cylinders --origami genus2_L --base horizontal
verify-intersections        0 8057551eeebdc89b verify intersections {O} --K 17 --trials 50
# exit 1 by design: criterion 4's narrow table
verify-transitions          1 f9b79ef589c0d265 verify transitions {O} --trials 25
# config keys keep their case: K = 5 is --K 5, the same bytes
config-key-case             0 74eff00dfa8977cd run --config k5.ini
config-key-case             0 74eff00dfa8977cd verify intersections {O} --K 5 --trials 3
hitting-lower               0 d7c4b05ae561c6b3 hitting {O} --slope type:w=2 --check lower --levels 0,1 --out lower.csv
hitting-special-radii       0 3342aef0532b638d hitting {O} --slope golden --radii special:0..2
# a slope_spec that holds commas is quoted, and exponent reads it back
quotients-records           0 aa52c3000d199668 hitting {O} --slope quotients:[1,2,1,3,1,1,2,1,1,1,2,1,1,2,1,3,1,1,1,1,1,2] --radii 1/2,1/4,1/8,1/16,1/32,1/64 --out q.csv
quotients-records           0 5b7496707f4601be exponent --in q.csv
""")

# the cases whose every command exits 2
REFUSALS = [name for name, commands in CASES.items()
            if all(code == 2 for _, code, _ in commands)]


def _files():
    """{relative path: bytes} of every file under the working directory."""
    return {str(path): path.read_bytes() for path in Path().rglob("*")
            if path.is_file()}


def digest(out, err, changes):
    """The digest of one command's streams and sorted file changes."""
    return hashlib.sha256(repr((out, err, changes)).encode()).hexdigest()[:16]


def in_process(argv):
    """(exit code, stdout, stderr) of `origamilab.cli.main(argv)`."""
    from origamilab.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def installed(argv):
    """(exit code, stdout, stderr) of the installed `origamilab` script."""
    p = subprocess.run(["origamilab", *argv], capture_output=True, text=True)
    return p.returncode, p.stdout, p.stderr


def mismatches(name, run):
    """What differs from the table when case `name` runs through `run`;
    empty when nothing does."""
    report = []
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for fixture, text in FILES.items():
                Path(fixture).write_text(text)
            for command, code, want in CASES[name]:
                before = _files()
                got_code, out, err = run(shlex.split(command))
                after = _files()
                # (name, bytes) of each file changed, bytes None if removed
                changes = sorted((n, after.get(n)) for n in {*before, *after}
                                 if before.get(n) != after.get(n))
                got = digest(out, err, changes)
                if (got_code, got) != (code, want):
                    report.append(
                        f"origamilab {command}\n  exit {got_code} (table "
                        f"{code}), digest {got} (table {want})\n  stdout: "
                        f"{out!r}\n  stderr: {err!r}\n  files: "
                        f"{[name for name, _ in changes]}")
        finally:
            os.chdir(here)
    return "\n".join(report)


def check(name):
    """Run case `name` in process; AssertionError on any mismatch."""
    report = mismatches(name, in_process)
    if report:
        raise AssertionError(f"case {name}:\n{report}")


@functools.cache
def optimized():
    """{name: mismatches} of every refusal case, all run in one `python -O`
    process on the `origamilab` that this process imports."""
    import origamilab
    paths = (Path(origamilab.__file__).resolve().parents[1],
             Path(__file__).resolve().parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    code = ("import json, reference\n"
            "print(json.dumps({name: reference.mismatches(name, "
            "reference.in_process) for name in reference.REFUSALS}))")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env)
    if proc.returncode:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout)


def main():
    failed = 0
    for name in CASES:
        report = mismatches(name, installed)
        print(f"FAILED {name}\n{report}" if report else f"ok {name}")
        failed += bool(report)
    print(f"{len(CASES) - failed} of {len(CASES)} cases match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""The reference command lines of `origamilab`, in one table.

A case is one or more commands, run in order in a fresh directory holding
the files of FILES. Each command carries its exit code and a digest: the
first 16 hex digits of the SHA-256 of its stdout, its stderr, and the name
and bytes of each file it creates, changes or removes there. Every command
runs with COLUMNS set to WIDTH, the width argparse wraps its text to.

pytest does not collect this file. Tier-1 runs each case but those of
STARTS through `origamilab.cli.main`, in the test that names it, and every
refusal case once more in one `python -O` process; `python
tests/reference.py` runs the whole table through the installed
`origamilab` script. A mismatch prints the streams, the files touched and
the new digest: a change that alters an output on purpose pastes that
digest in and names the case in CHANGES.md."""

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
from unittest import mock

FILES = {
    "no-squares.origami": "n=0\nh=\nv=\n",
    "repeated-key.origami": "n=3\nh=1 0 2\nv=2 1 0\nh=2 0 1\n",
    "unknown-key.origami": "n=3\nh=1 0 2\nv=2 1 0\nsquares=4\n",
    "short-h.origami": "n=3\nh=1 0\nv=2 1 0\n",
    "no-v.origami": "n=3\nh=1 0 2\n",
    "not-transitive.origami": "n=2\nh=0 1\nv=0 1\n",
    "not-bijective.origami": "n=2\nh=0 0\nv=0 1\n",
    "one-name.origami": "n=2\nh=1 0\nv=0 1\nnames=a\n",
    # a vertical cylinder of two strips, joined across a regular line and
    # bounded by the cone; the reader skips the comment line
    "two-strips.origami": "# a comment line\nn=4\nh=0 2 3 1\nv=1 0 2 3\n",
    # a torus of two squares: one cylinder of two strips and no cone
    "two-square-torus.origami": "n=2\nh=1 0\nv=0 1\n",
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
    # golden.csv without its last record: four records
    "four.csv": "slope_spec,pN,qN,square,x,y,r,cells,T,capped,crossings,seed\n"
                "golden,610,987,0,3/16,5/16,0.65,3,60.7,0,103,0\n"
                "golden,987,1597,1,1/4,1/2,0.40,4,54.3,0,103,0\n"
                "golden,1597,2584,0,3/16,5/16,0.15,10,233.4,0,362,\n"
                "golden,2584,4181,0,3/16,5/16,0.05,24,442.7,0,621,0\n",
    # five records whose radii span less than 1.5 decades
    "narrow.csv": "slope_spec,pN,qN,square,x,y,r,cells,T,capped,crossings,seed\n"
                  "golden,610,987,0,3/16,5/16,0.65,3,60.7,0,103,0\n"
                  "golden,987,1597,1,1/4,1/2,0.40,4,54.3,0,103,0\n"
                  "golden,1597,2584,0,3/16,5/16,0.15,10,233.4,0,362,\n"
                  "golden,2584,4181,0,3/16,5/16,0.1,24,442.7,0,621,0\n"
                  "golden,4181,6765,0,3/16,5/16,0.05,102,2255.5,0,3106,0\n",
    "short-row.csv": "slope_spec,pN,qN,square,x,y,r,cells,T,capped,crossings,seed\n"
                     "golden,610,987\n",
    # a field past the csv module's size limit of 131072 characters
    "huge-field.csv": "slope_spec,pN,qN,square,x,y,r,cells,T,capped,crossings,seed\n"
                      + "x" * 131073 + "\n",
    # golden.csv with its first record at r = 2.5, which has no per-point
    # exponent
    "above-1.csv": "slope_spec,pN,qN,square,x,y,r,cells,T,capped,crossings,seed\n"
                   "golden,610,987,0,3/16,5/16,2.5,3,60.7,0,103,0\n"
                   "golden,987,1597,1,1/4,1/2,0.40,4,54.3,0,103,0\n"
                   "golden,1597,2584,0,3/16,5/16,0.15,10,233.4,0,362,\n"
                   "golden,2584,4181,0,3/16,5/16,0.05,24,442.7,0,621,0\n"
                   "golden,4181,6765,0,3/16,5/16,0.01,102,2255.5,0,3106,0\n",
    # golden.csv with every T the same: a plot with no y range
    "flat.csv": "slope_spec,pN,qN,square,x,y,r,cells,T,capped,crossings,seed\n"
                "golden,610,987,0,3/16,5/16,0.65,3,100.0,0,103,0\n"
                "golden,987,1597,1,1/4,1/2,0.40,4,100.0,0,103,0\n"
                "golden,1597,2584,0,3/16,5/16,0.15,10,100.0,0,362,\n"
                "golden,2584,4181,0,3/16,5/16,0.05,24,100.0,0,621,0\n"
                "golden,4181,6765,0,3/16,5/16,0.01,102,100.0,0,3106,0\n",
}

# the terminal width of every command, so argparse's usage and help text
# wrap the same way in every shell
WIDTH = "80"

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
# a list flag of the wrong shape, refused with the flag and its value
start-two-values            2 3102b89b9114e423 flow {O} --slope 1/2 --span 1 --start 0,1/8
matrix-three-entries        2 89ef59d014631e6f act --matrix 1,2,3 {O}
radii-prop-without-range    2 8ecb0d3ffde57837 hitting {O} --slope golden --radii prop:1
levels-empty-entry          2 ea2f8cb0b8b0ea47 hitting {O} --slope golden --check upper --levels 6,,7
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
cone-upper-minus-infinity   2 9b1dede8a82caa78 verify transitions {O} --trials 0 --cone -1 -inf
cone-unbounded              2 9efdfe3c86ec20dc verify transitions {O} --trials 0 --cone -inf inf
orbit-cap-zero              2 d8469370aae24a1c orbit --origami genus2_L --cap 0
orbit-cap-negative          2 4c5eae74cd545ce2 orbit --origami genus2_L --cap -1
hitting-jobs                2 83b14fc531a90dc5 hitting {O} --slope golden --radii 1/4 --start 0,1/3,1/3 --jobs 0
# a 2.73 TiB cell grid: refused before it is allocated
radius-over-memory-budget   2 93d10ff32670041d hitting {O} --slope golden --radii 1/1000000
no-squares-origami          2 94ea6944f53f0fb8 info --origami no-squares.origami
short-h-origami             2 e994e063541559f4 info --origami short-h.origami
repeated-key-origami        2 01053234ef723c25 info --origami repeated-key.origami
unknown-key-origami         2 27438c4657e68d24 info --origami unknown-key.origami
no-v-origami                2 efeeb26289cfbc5d info --origami no-v.origami
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
# the commands that read letters refuse a surface without them
cutseq-unlabelled           2 4ca2f9dbc1dfc19c cutseq --origami torus --slope 1/2 --start 0,1/3,1/3 --span 1
tiles-unlabelled            2 4ca2f9dbc1dfc19c verify tiles --origami genus2_L
transitions-unlabelled      2 4ca2f9dbc1dfc19c verify transitions --origami torus --trials 3
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
# a flow with no end, a spec that parses to no slope, a slope the density
# kernel cannot trace
flow-without-end            2 c1970d070170ed37 flow {O} --slope 1/2 --start 0,1/8,1/8
cf-spec-type-key            2 29e8488b56ae6bec cf --spec type:x=2
cf-spec-type-zero           2 ae70ca2b1ea7d40c cf --spec type:w=1/0
cf-spec-quotients-brackets  2 e80d77b5c482ff62 cf --spec quotients:1,2
cf-spec-quotient-zero       2 6c4523a1d1f6ff23 cf --spec "quotients:[1,0]"
# a finite expansion read past its depth
cf-spec-past-its-depth      2 bdbd1a990deb2e95 cf --spec "quotients:[1,2]" --depth 5
hitting-horizontal          2 28f89b74d92e4442 hitting {O} --slope inf --radii 1/4
# at slope 1/3 every perturbed start keeps kappa = 3x - y = 1, and every
# corner of genus2_L is its one cone: each candidate's leaf meets it
every-start-singular        2 3f2f11d57e549697 hitting --origami genus2_L --slope 1/3 --radii 1/4 --start 0,1/2,1/2
# the lower check reads w from a type:w=W slope, and a given --w must be W
lower-golden                2 a9c5a8687c53e6d0 hitting {O} --slope golden --check lower --levels 0
lower-w-not-the-slopes      2 549782305070ce48 hitting {O} --slope type:w=2 --w 3 --check lower --levels 0
flow-rational-depth         2 aec182a609391855 flow {O} --slope 1/2 --span 1 --start 0,1/8,1/8 --depth -3
cutseq-rational-depth       2 aec182a609391855 cutseq {O} --slope 1/2 --start 0,1/8,1/8 --span 1 --depth -3
# a value that is not a number, refused with the flag and its value
start-square-not-integer    2 d1a7e187bc3a60ae flow {O} --slope 1/2 --span 1 --start a,1/8,1/8
start-x-not-fraction        2 673fed2189b471b1 flow {O} --slope 1/2 --span 1 --start 0,x,1/8
span-not-fraction           2 d4ec7cbc9b0d38e8 flow {O} --slope 1/2 --start 0,1/8,1/8 --span x
span-not-fraction           2 d4ec7cbc9b0d38e8 cutseq {O} --slope 1/2 --start 0,1/8,1/8 --span x
cap-not-fraction            2 0641ff302530609a hitting {O} --slope golden --radii 1/4 --cap x
radii-entry-not-fraction    2 3fa11a0d5db4161a hitting {O} --slope golden --radii 1/4,x
# a surface file that is no origami, and a matrix not in SL(2,Z)
not-transitive-origami      2 419a029e7dac8c3c info --origami not-transitive.origami
not-bijective-origami       2 09b1368d6a3686c0 info --origami not-bijective.origami
one-name-origami            2 b84cc886d99abfc3 info --origami one-name.origami
act-not-unimodular          2 b6ba4193a1285b74 act --matrix 2,0,0,1 {O}
# slopes and spans outside what each command measures
cf-type-below-1             2 ef3f58e16cc55cb6 cf --type 1/2
cf-spec-not-a-slope         2 7738fb81ec93ae46 cf --spec bogus
cf-rational-above-1         2 1c0db323a0fd0f2f cf --rational 7/5
flow-negative-span          2 2219acc3ac40e89d flow {O} --slope 1/2 --start 0,1/8,1/8 --span=-1
hitting-cap-below-radius    2 2d239f3085e94271 hitting {O} --slope golden --radii 1/2 --cap 1/4
hitting-slope-above-1       2 898b64d4cecd524c hitting {O} --slope 3/2 --radii 1/4
# q * M * m reaches 2^61: refused before the start's leaf is traced
hitting-int64               2 fa77148c53e88e17 hitting --origami torus --slope 1/100000000000000000000 --radii 1/4 --cap 10
lower-w-1                   2 5bdaed656d318dee hitting {O} --slope type:w=1 --check lower --levels 0
# records that exponent cannot fit, or cannot read
exponent-four-records       2 a54739388ded4f4b exponent --in four.csv
exponent-narrow-radii       2 949eb58cb0fb7c70 exponent --in narrow.csv
exponent-short-row          2 85058868f07cdf50 exponent --in short-row.csv
exponent-huge-field         2 0d9bd4ede3255ae9 exponent --in huge-field.csv
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
config-hash-transitions     1 4301eacdcfe69e64 verify transitions {O} --trials 30 --seed 0 --out report.json
config-hash-tiles           0 b5d3c02c2894f3ef verify tiles {O} --trials 5
config-hash-intersections   0 d1386c27996f6167 verify intersections {O} --K 17 --trials 5 --seed 0
config-hash-run-config      0 4402da06668da788 run --config cone.ini
# the leaf closes within span n*q = 24: one block's 48 crossings
rational-one-period         0 5ccd5f5b03986bf6 hitting {O} --slope 1/2 --radii 1/4 --out half.csv
golden-exponent             0 1037c4f33a2f7bea hitting {O} --slope golden --radii prop:9..17 --out records.csv
golden-exponent             0 57fe24e8b133f02e exponent --in records.csv --out fit.json --plot fit.svg --min 0.85 --max 1.3
golden-exponent             0 bceba71d8353ee48 exponent --in records.csv --out fit.json
bad-records                 2 ab8730dba339f6f0 exponent --in not-records.csv
no-continued-fraction-upper 2 735a4b88d5e25439 hitting {O} --slope 3/2 --check upper
no-continued-fraction-auto  2 1c50733aa98f0afd hitting {O} --slope inf
no-continued-fraction-prop  2 01e26bb73df6fdfa hitting {O} --slope 3/2 --radii prop:1..3
""")

# The README's commands at tier-1 sizes and CI's others, not in PINNED.
COMMANDS = _cases("""
cf-type-2                   0 79a3d734dd4b1acf cf --type 2 --depth 8
# two rows, no estimate: each once printed its table, then exited 2
cf-rational-depth-2         0 29a388728a52eeb8 cf --rational 2/5
cf-spec-depth-2             0 c4d836cdb1d682f0 cf --spec golden --depth 2
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
verify-intersections        0 4cf255cf6b5676d0 verify intersections {O} --K 17 --trials 50
# exit 1 by design: criterion 4's narrow table
verify-transitions          1 e2633e963b8536be verify transitions {O} --trials 25
# config keys keep their case: K = 5 is --K 5, the same bytes
config-key-case             0 40e23cc87409f002 run --config k5.ini
config-key-case             0 40e23cc87409f002 verify intersections {O} --K 5 --trials 3
hitting-lower               0 d7c4b05ae561c6b3 hitting {O} --slope type:w=2 --check lower --levels 0,1 --out lower.csv
# w = 3, read from the slope: the records of `--w 3`, not of w = 2
lower-w-from-slope          0 5f17f21f42a0783d hitting {O} --slope type:w=3 --check lower --levels 0,1
hitting-special-radii       0 3342aef0532b638d hitting {O} --slope golden --radii special:0..2
# a slope_spec that holds commas is quoted, and exponent reads it back
quotients-records           0 aa52c3000d199668 hitting {O} --slope quotients:[1,2,1,3,1,1,2,1,1,1,2,1,1,2,1,3,1,1,1,1,1,2] --radii 1/2,1/4,1/8,1/16,1/32,1/64 --out q.csv
quotients-records           0 5b7496707f4601be exponent --in q.csv
# an irrational slope read at a depth: the convergent p_8/q_8 of golden
flow-golden                 0 47b15b86ebb2014b flow {O} --slope golden --depth 8 --start 0,1/8,1/8 --crossings 20 --out golden.csv
cutseq-golden               0 cf5aa882601767c7 cutseq {O} --slope golden --depth 8 --start 0,1/8,1/8 --span 4
# a surface without letters: the harness skips the word half of each pair
intersections-unlabelled    0 ff2ba081bf72b50d verify intersections --origami torus --K 5 --trials 3
# a record at r >= 1 has a per-point exponent of null
exponent-radius-above-1     0 57ff4a60e2b7c923 exponent --in above-1.csv
exponent-flat               0 403a56cd75bbaa0f exponent --in flat.csv --plot flat.svg
# --out writes the image; the word and the verdict still go to stdout
act-out                     0 c72ccd27bef8210e act --matrix 0,-1,1,0 {O} --out image.origami
# the words of V^-1 and [[0,1],[-1,0]] (through d = 0), of V^-2 (a run
# of V-) and of -I
act-words                   0 1d8646b6c98a9e7d act --matrix 1,0,-1,1 {O}
act-words                   0 02ee769664687556 act --matrix 1,0,-2,1 {O}
act-words                   0 b34d64e97e1c8c30 act --matrix=-1,0,0,-1 {O}
act-words                   0 f29cb80ce98d8454 act --matrix 0,1,-1,0 {O}
# a capped orbit into the directory of the full one removes the class file
# it did not keep
orbit-capped-after-full     0 9e25b7df9b590bd5 orbit --origami genus2_L
orbit-capped-after-full     1 9899502216b2dc7b orbit --origami genus2_L --cap 2
# strips joined across a regular line: a chain that ends at the cone, and
# on a surface with no cone a cycle
cylinders-two-strips        0 6f781d6327d41d7b cylinders --origami two-strips.origami
cylinders-no-cone           0 6a7db7c9283c3d57 cylinders --origami two-square-torus.origami
# a type with denominator 2 takes the integer square root
cf-type-3/2                 0 efe1a8489bd48027 cf --type 3/2 --depth 6
cf-spec-rational-prefix     0 29a388728a52eeb8 cf --spec rational:2/5 --depth 2
# from a bottom edge, up and down, and from y = 1, the bottom of v(j)
flow-from-an-edge           0 e0dcbe1aaca34670 flow {O} --slope 1/2 --start 0,1/8,0 --crossings 5
flow-from-an-edge           0 c24b81209ab2e724 flow {O} --slope 1/2 --start 0,1/8,0 --crossings 5 --down
flow-from-an-edge           0 1222663739c981ba flow {O} --slope 1/2 --start 0,1/8,1 --crossings 5
# a span that ends inside a piece, and no crossing at all
flow-span                   0 3611e9cab9f9de22 flow {O} --slope 1/2 --start 0,1/8,1/8 --span 3/2
flow-no-crossings           0 34b63cd6c83fa4f6 flow {O} --slope 1/2 --start 0,1/8,1/8 --crossings 0
cutseq-zero-span            0 53cbb847b4541142 cutseq {O} --slope 1/2 --start 0,1/8,1/8 --span 0
# segments too short to meet: exit 1, and each pair named
intersections-too-short     1 a38a1510af57e681 verify intersections {O} --K 2 --trials 20
# triple verdicts, a segment drawn again, and a witness on a bottom edge
intersections-triple        0 6f74eb9be9886f7d verify intersections {O} --K 20 --trials 200 --seed 289
# a budget past the 13 x 13 grid and the 25 boundary pairs: random draws
transitions-random-draws    1 8aecc04a803be31c verify transitions {O} --trials 195
# a record whose last cell is entered from its right side
hitting-negative-slope      0 543ea9b7a741a13d hitting {O} --slope=-2/5 --radii 1/2
# a finite expansion, measured at its value
hitting-finite-quotients    0 b23afe28e2f1ce90 hitting {O} --slope quotients:[2] --radii 1/4
# a start on a cone, and one whose first perturbation lies on x = 0: each
# candidate is skipped
hitting-start-on-cone       0 fe55741ccf703ede hitting {O} --slope golden --radii 1/4 --start 1,0,0
hitting-perturbed-on-edge   0 76bd53329a927560 hitting {O} --slope 1 --radii 1/2 --start 0,241/257,241/257
""")

# argparse's own text, at WIDTH: the help of the program and of each
# command, and one refusal of each kind argparse makes, which prints the
# command's usage before its one `error:` line
ARGPARSE = _cases("""
help                        0 04bfe20084aed312 --help
help-info                   0 b9d130bd24ee3c86 info --help
help-act                    0 4912eeeb18506181 act --help
help-orbit                  0 47701de64c11041e orbit --help
help-cf                     0 37ec4446502fac10 cf --help
help-flow                   0 ff95a78bc68c1289 flow --help
help-cutseq                 0 15d2983dbfd53523 cutseq --help
help-cylinders              0 2119e57e089cf011 cylinders --help
help-verify                 0 204913fc6d17387a verify --help
help-hitting                0 a656b03bc16b3c77 hitting --help
help-exponent               0 1473db652cf60d9b exponent --help
help-run                    0 ba63a88ffb13a094 run --help
unknown-flag                2 f35dcb3caffcb063 info {O} --bogus
missing-required-flag       2 1b481e61bfddc518 flow --slope 1/2 --start 0,1/8,1/8 --crossings 3
bad-check                   2 4a75129cbb9556c6 hitting {O} --slope golden --check bogus
bad-base                    2 c34e03be68b6ddeb cylinders {O} --base diagonal
crossings-not-integer       2 13a26f15bf3e6cdd flow {O} --slope 1/2 --start 0,1/8,1/8 --crossings 1/2
cone-one-value              2 712093be252d4aeb verify transitions {O} --cone 0
""")

# The records of each hitting check from many starts: the start the README
# uses, the starts of the benchmark's seeds 0 to 12, in order, and
# 1,1/2,1/2, whose leaf is singular for some convergents of both slopes
# (0,3/16,5/16 is too, for 987/1597). The README's start is the default
# one, so its upper and prop records are those of the cases hitting-upper
# and golden-exponent, and only its lower records are here. The seed-0
# start's upper.csv and lower.csv are the files whose SHA-256
# perfbench/reference.json pins. Only `python tests/reference.py` runs
# these cases: in tier-1 they would add about 15 s.
STARTS = _cases("""
lower@0,3/16,5/16           0 c805101b39170ac3 hitting {O} --slope type:w=2 --check lower --levels 0,1,2,3 --start 0,3/16,5/16 --out lower.csv
upper@6,25/31,29/31         0 e463908a711184a9 hitting {O} --slope golden --check upper --levels 6,7,8,9,10,11,12,13,14 --start 6,25/31,29/31 --out upper.csv
lower@6,25/31,29/31         0 07b8b9222fd51ceb hitting {O} --slope type:w=2 --check lower --levels 0,1,2,3 --start 6,25/31,29/31 --out lower.csv
prop@6,25/31,29/31          0 5d886092d411b2d1 hitting {O} --slope golden --radii prop:9..17 --start 6,25/31,29/31 --out records.csv
prop@6,25/31,29/31          0 ba3256afd44be0cf exponent --in records.csv --out fit.json
upper@2,19/31,28/31         0 9605038ae1d3e5c8 hitting {O} --slope golden --check upper --levels 6,7,8,9,10,11,12,13,14 --start 2,19/31,28/31 --out upper.csv
lower@2,19/31,28/31         0 500916cf7a1f64fd hitting {O} --slope type:w=2 --check lower --levels 0,1,2,3 --start 2,19/31,28/31 --out lower.csv
prop@2,19/31,28/31          0 deb07975cf8fcf09 hitting {O} --slope golden --radii prop:9..17 --start 2,19/31,28/31 --out records.csv
prop@2,19/31,28/31          0 c83922325b7c467e exponent --in records.csv --out fit.json
upper@0,3/31,3/31           0 ec73f4120a56b36e hitting {O} --slope golden --check upper --levels 6,7,8,9,10,11,12,13,14 --start 0,3/31,3/31 --out upper.csv
lower@0,3/31,3/31           0 37b059caf17290f9 hitting {O} --slope type:w=2 --check lower --levels 0,1,2,3 --start 0,3/31,3/31 --out lower.csv
prop@0,3/31,3/31            0 d694cae0c3881351 hitting {O} --slope golden --radii prop:9..17 --start 0,3/31,3/31 --out records.csv
prop@0,3/31,3/31            0 1094ae4cce932522 exponent --in records.csv --out fit.json
upper@3,19/31,18/31         0 a1b3301561846848 hitting {O} --slope golden --check upper --levels 6,7,8,9,10,11,12,13,14 --start 3,19/31,18/31 --out upper.csv
lower@3,19/31,18/31         0 f46cb3afab118aee hitting {O} --slope type:w=2 --check lower --levels 0,1,2,3 --start 3,19/31,18/31 --out lower.csv
prop@3,19/31,18/31          0 97260c6c84cb3751 hitting {O} --slope golden --radii prop:9..17 --start 3,19/31,18/31 --out records.csv
prop@3,19/31,18/31          0 4a3a36003c5d5e1b exponent --in records.csv --out fit.json
upper@3,10/31,4/31          0 b4bbe054c738eda8 hitting {O} --slope golden --check upper --levels 6,7,8,9,10,11,12,13,14 --start 3,10/31,4/31 --out upper.csv
lower@3,10/31,4/31          0 02818d21eab01606 hitting {O} --slope type:w=2 --check lower --levels 0,1,2,3 --start 3,10/31,4/31 --out lower.csv
prop@3,10/31,4/31           0 3cd754c8fbfa7c0f hitting {O} --slope golden --radii prop:9..17 --start 3,10/31,4/31 --out records.csv
prop@3,10/31,4/31           0 227ce51c18d68dd9 exponent --in records.csv --out fit.json
upper@9,9/31,24/31          0 23c55e27892c4288 hitting {O} --slope golden --check upper --levels 6,7,8,9,10,11,12,13,14 --start 9,9/31,24/31 --out upper.csv
lower@9,9/31,24/31          0 811ac2764ea1507d hitting {O} --slope type:w=2 --check lower --levels 0,1,2,3 --start 9,9/31,24/31 --out lower.csv
prop@9,9/31,24/31           0 3699592174fa27b2 hitting {O} --slope golden --radii prop:9..17 --start 9,9/31,24/31 --out records.csv
prop@9,9/31,24/31           0 7bb98ed18de92f5a exponent --in records.csv --out fit.json
upper@9,27/31,3/31          0 92a223da384dc7d7 hitting {O} --slope golden --check upper --levels 6,7,8,9,10,11,12,13,14 --start 9,27/31,3/31 --out upper.csv
lower@9,27/31,3/31          0 5997168ab11da5ae hitting {O} --slope type:w=2 --check lower --levels 0,1,2,3 --start 9,27/31,3/31 --out lower.csv
prop@9,27/31,3/31           0 2725fe558f2d9829 hitting {O} --slope golden --radii prop:9..17 --start 9,27/31,3/31 --out records.csv
prop@9,27/31,3/31           0 28d68b28bc7d4e3f exponent --in records.csv --out fit.json
upper@5,5/31,13/31          0 38212e79ad14ff26 hitting {O} --slope golden --check upper --levels 6,7,8,9,10,11,12,13,14 --start 5,5/31,13/31 --out upper.csv
lower@5,5/31,13/31          0 50973a59a3bf9f4f hitting {O} --slope type:w=2 --check lower --levels 0,1,2,3 --start 5,5/31,13/31 --out lower.csv
prop@5,5/31,13/31           0 9973210db2b745ab hitting {O} --slope golden --radii prop:9..17 --start 5,5/31,13/31 --out records.csv
prop@5,5/31,13/31           0 afa0e29d479b6d4a exponent --in records.csv --out fit.json
upper@3,12/31,13/31         0 bcde192711aa7136 hitting {O} --slope golden --check upper --levels 6,7,8,9,10,11,12,13,14 --start 3,12/31,13/31 --out upper.csv
lower@3,12/31,13/31         0 b10173a1d506e095 hitting {O} --slope type:w=2 --check lower --levels 0,1,2,3 --start 3,12/31,13/31 --out lower.csv
prop@3,12/31,13/31          0 38cbb7a7918d9f76 hitting {O} --slope golden --radii prop:9..17 --start 3,12/31,13/31 --out records.csv
prop@3,12/31,13/31          0 1bb502a5bcb23405 exponent --in records.csv --out fit.json
upper@7,20/31,12/31         0 1def07b14094d042 hitting {O} --slope golden --check upper --levels 6,7,8,9,10,11,12,13,14 --start 7,20/31,12/31 --out upper.csv
lower@7,20/31,12/31         0 ecbe1f33c1626bf3 hitting {O} --slope type:w=2 --check lower --levels 0,1,2,3 --start 7,20/31,12/31 --out lower.csv
prop@7,20/31,12/31          0 cde2436bc9ed0ea6 hitting {O} --slope golden --radii prop:9..17 --start 7,20/31,12/31 --out records.csv
prop@7,20/31,12/31          0 25eedd2513a7e0e4 exponent --in records.csv --out fit.json
upper@9,2/31,14/31          0 68dc82f8359fa0ce hitting {O} --slope golden --check upper --levels 6,7,8,9,10,11,12,13,14 --start 9,2/31,14/31 --out upper.csv
lower@9,2/31,14/31          0 5fa0cb65a441e8f4 hitting {O} --slope type:w=2 --check lower --levels 0,1,2,3 --start 9,2/31,14/31 --out lower.csv
prop@9,2/31,14/31           0 b59cd673fa8a7624 hitting {O} --slope golden --radii prop:9..17 --start 9,2/31,14/31 --out records.csv
prop@9,2/31,14/31           0 a0c1b7f68134088c exponent --in records.csv --out fit.json
upper@7,28/31,18/31         0 c272e651c70ae532 hitting {O} --slope golden --check upper --levels 6,7,8,9,10,11,12,13,14 --start 7,28/31,18/31 --out upper.csv
lower@7,28/31,18/31         0 36f753bb9fceb96e hitting {O} --slope type:w=2 --check lower --levels 0,1,2,3 --start 7,28/31,18/31 --out lower.csv
prop@7,28/31,18/31          0 bd3b617b9cf366b3 hitting {O} --slope golden --radii prop:9..17 --start 7,28/31,18/31 --out records.csv
prop@7,28/31,18/31          0 3eb2da1ab55b4254 exponent --in records.csv --out fit.json
upper@7,9/31,22/31          0 fdec49b2077a3601 hitting {O} --slope golden --check upper --levels 6,7,8,9,10,11,12,13,14 --start 7,9/31,22/31 --out upper.csv
lower@7,9/31,22/31          0 efb6a543a67cb664 hitting {O} --slope type:w=2 --check lower --levels 0,1,2,3 --start 7,9/31,22/31 --out lower.csv
prop@7,9/31,22/31           0 7291f468d0450503 hitting {O} --slope golden --radii prop:9..17 --start 7,9/31,22/31 --out records.csv
prop@7,9/31,22/31           0 430ea3e2d6f80643 exponent --in records.csv --out fit.json
upper@1,1/2,1/2             0 df0dcb1fca414bc7 hitting {O} --slope golden --check upper --levels 6,7,8,9,10,11,12,13,14 --start 1,1/2,1/2 --out upper.csv
lower@1,1/2,1/2             0 5a77c4a58ca4b7f7 hitting {O} --slope type:w=2 --check lower --levels 0,1,2,3 --start 1,1/2,1/2 --out lower.csv
prop@1,1/2,1/2              0 2b9527a273fa6b57 hitting {O} --slope golden --radii prop:9..17 --start 1,1/2,1/2 --out records.csv
prop@1,1/2,1/2              0 c3644d19744cbb1d exponent --in records.csv --out fit.json
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
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, COLUMNS=WIDTH):
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

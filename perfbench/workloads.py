"""The three benchmark workloads: inputs made from the workload seed, one pass
through the public entry points, and the checks on every output.

A pass is a list of operations. Each operation is one call of an entry point
(a `cli.main` command, or the transversal-bound sampler, which has no CLI
command) whose outputs are checked. An operation fails when it raises or when
a check on its output fails.

Outputs are checked two ways:
  - for REFERENCE_SEED, the SHA-256 of every output must equal the digest
    pinned in reference.json, which was made from the library as it stood
    when the benchmark was defined;
  - for every seed, the invariants of the experiment must hold (see the
    `_check_*` helpers).
"""

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

from origamilab import cfrac, cli, cylinders, flow
from origamilab.errors import ConeVertexInInterior
from origamilab.origami import SurfacePoint
from origamilab.verify import verified_next_up

REFERENCE_SEED = 0
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

ORIGAMI = "ornithorynque"
GOLDEN_LEVELS = "6,7,8,9,10,11,12,13,14"    # n; the fit needs 1.5 decades of r
LOWER_LEVELS = "0,1,2,3"                    # k; k=3 is the q=61, m=488 grid
TRANSITION_SAMPLES = 500                    # per letter, cone (0,1)
HARNESS_PAIRS = 500                         # per cone pair, K=17
TRANSVERSAL_SEGMENTS = 300
SEGMENT_CROSSINGS_MAX = 1000


def start_point(seed):
    """Rational start (square, x, y) picked by the seed. The prime
    denominator makes the start rarely lie on a singular leaf of a
    convergent slope, so the number of perturbed retries, each a full
    backward trace, rarely depends on the seed."""
    rng = random.Random(seed)
    d = 31
    return (f"{rng.randrange(12)},{rng.randrange(1, d)}/{d},"
            f"{rng.randrange(1, d)}/{d}")


def sub_seeds(seed, n):
    rng = random.Random(seed)
    return [rng.randrange(2 ** 31) for _ in range(n)]


def _sha(data):
    return hashlib.sha256(data).hexdigest()


class Pass:
    """Runs the operations of one pass in out_dir and records, per
    operation, whether it passed, the digests of its outputs and why it
    failed."""

    def __init__(self, out_dir, seed, reference):
        self.out_dir = out_dir
        self.seed = seed
        self.reference = reference if seed == REFERENCE_SEED else None
        self.ops = []
        self.bytes_written = 0
        os.makedirs(out_dir, exist_ok=True)

    def path(self, name):
        return os.path.join(self.out_dir, name)

    def run_cli(self, op, argv, outputs, check):
        """One CLI command writing the named output files; check(code, files)
        returns None when the outputs are right, else the reason."""
        buf = io.StringIO()
        digests = {}
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv + ["--out-dir", self.out_dir])
            files = {}
            for name in outputs:
                with open(self.path(name), "rb") as fh:
                    files[name] = fh.read()
            self.bytes_written += len(buf.getvalue().encode()) + sum(
                len(b) for b in files.values())
            digests = {name: _sha(b) for name, b in files.items()}
            reason = check(code, files)
        except Exception as exc:        # a raising operation is a failed one
            reason = f"raised {type(exc).__name__}: {exc}"
        self._record(op, digests, reason)

    def run_fn(self, op, fn):
        """An operation with no CLI command: fn() returns (payload, reason),
        where payload is JSON-serialisable and is digested."""
        digests = {}
        try:
            payload, reason = fn()
            blob = json.dumps(payload, sort_keys=True).encode()
            digests = {"result.json": _sha(blob)}
        except Exception as exc:
            reason = f"raised {type(exc).__name__}: {exc}"
        self._record(op, digests, reason)

    def _record(self, op, digests, reason):
        if reason is None and self.reference is not None:
            want = self.reference.get(op)
            if want != digests:
                reason = f"outputs differ from reference: {digests} != {want}"
        self.ops.append({"op": op, "ok": reason is None, "digests": digests,
                         "reason": reason})


def _records(blob):
    lines = blob.decode().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _check_upper(code, files):
    if code != cli.EXIT_OK:
        return f"upper check not all ok (exit {code})"
    recs = _records(files["upper.csv"])
    if len(recs) != len(GOLDEN_LEVELS.split(",")):
        return f"{len(recs)} records"
    if any(r["capped"] != "0" for r in recs):
        return "a level hit the time cap"
    return None


def _check_fit(code, files):
    if code != cli.EXIT_OK:
        return f"exit code {code}"
    fit = json.loads(files["fit.json"])
    if fit["n_records"] != len(GOLDEN_LEVELS.split(",")):
        return f"fit used {fit['n_records']} records"
    return None


def _check_lower(code, files):
    if code != cli.EXIT_OK:
        return f"a lower-bound audit failed (exit {code})"
    if len(_records(files["lower.csv"])) != len(LOWER_LEVELS.split(",")):
        return "wrong record count"
    return None


def _check_transitions(code, files):
    # Exit code 1 is expected: criterion 4's narrow asserted_next_up table
    # omits B_i -> B_{i-1} by design. The sampled relation must still be a
    # subset of verified_next_up(), i.e. no "excess" pair against it.
    if code not in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED):
        return f"exit code {code}"
    report = json.loads(files["transitions.json"])
    excess = [v for v in report["violations_vs_verified"]
              if v["kind"] == "excess"]
    if excess:
        return f"pairs outside verified_next_up(): {excess}"
    if len(report["successors"]) != len(verified_next_up()):
        return "a letter has no successors"
    return None


def _check_harness(code, files):
    if code != cli.EXIT_OK:
        return f"intersection harness failed (exit {code})"
    report = json.loads(files["intersections.json"])
    for pair in ("main", "reflected"):
        if report[pair]["trials"] != HARNESS_PAIRS:
            return f"{pair}: {report[pair]['trials']} trials"
    return None


def transversal_sampler(seed, n):
    """Criterion 7's sampler: random g-matrices, the induced cylinder
    decomposition in their slope, and the transversal length bound for a
    random segment, kept to segments of at most SEGMENT_CROSSINGS_MAX
    crossings. Returns (per-segment results, failure reason)."""
    o = cli.load_origami(ORIGAMI)[0]
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        quots = [rng.randrange(1, 5) for _ in range(rng.randrange(1, 6))]
        m = cfrac.g_matrix(quots)
        base = rng.choice(("vertical", "horizontal"))
        dec = cylinders.InducedDecomposition(o, m, base=base)
        p, q = dec.slope_pq()
        if abs(q) > 50 or abs(p) > 50:
            continue
        slope = Fraction(rng.randrange(-60, 60), rng.randrange(1, 40))
        if slope == dec.slope:
            continue
        start = SurfacePoint(rng.randrange(o.n),
                             Fraction(rng.randrange(1, 32), 32),
                             Fraction(rng.randrange(1, 32), 32))
        span = Fraction(rng.randrange(1, 10))
        # Crossings traced: about (|s| + 1) * span for the segment and
        # (|vx| + |vy|) * span for its pull-back, (vx, vy) = A^-1 (s, 1).
        # Unbounded, one segment in a hundred traces thousands of them, and
        # the pass time and peak memory would follow the seed.
        inv = m.inv()
        if (abs(slope) + 1 + abs(inv.a * slope + inv.b)
                + abs(inv.c * slope + inv.d)) * span > SEGMENT_CROSSINGS_MAX:
            continue
        try:
            seg = flow.Segment(o, start, slope, span)
        except ConeVertexInInterior:
            continue
        tb = cylinders.transversal_bound(seg, dec)
        out.append([list(quots), base, str(slope), list(tb.crossed),
                    str(tb.bound_squared), tb.holds])
    broken = [r for r in out if not r[-1]]
    return out, (f"bound violated on {len(broken)} segments" if broken
                 else None)


def golden_upper(p):
    start = start_point(p.seed)
    p.run_cli("hitting-upper",
              ["hitting", "--origami", ORIGAMI, "--slope", "golden",
               "--start", start, "--check", "upper", "--levels",
               GOLDEN_LEVELS, "--K", "17", "--jobs", "1",
               "--seed", str(p.seed), "--out", "upper.csv"],
              ["upper.csv"], _check_upper)
    p.run_cli("exponent",
              ["exponent", "--in", p.path("upper.csv"), "--out", "fit.json",
               "--seed", str(p.seed)],
              ["fit.json"], _check_fit)


def typew_lower(p):
    start = start_point(p.seed)
    p.run_cli("hitting-lower",
              ["hitting", "--origami", ORIGAMI, "--slope", "type:w=2",
               "--start", start, "--check", "lower", "--w", "2",
               "--levels", LOWER_LEVELS, "--jobs", "1",
               "--seed", str(p.seed), "--out", "lower.csv"],
              ["lower.csv"], _check_lower)


def sampled_checks(p):
    s_letters, s_pairs, s_segments = sub_seeds(p.seed, 3)
    p.run_cli("transitions",
              ["verify", "transitions", "--origami", ORIGAMI, "--cone", "0",
               "1", "--trials", str(TRANSITION_SAMPLES), "--jobs", "1",
               "--seed", str(s_letters), "--out", "transitions.json"],
              ["transitions.json"], _check_transitions)
    p.run_cli("intersections",
              ["verify", "intersections", "--origami", ORIGAMI, "--K", "17",
               "--trials", str(HARNESS_PAIRS), "--jobs", "1",
               "--seed", str(s_pairs), "--out", "intersections.json"],
              ["intersections.json"], _check_harness)
    p.run_fn("transversal-bound",
             lambda: transversal_sampler(s_segments, TRANSVERSAL_SEGMENTS))


WORKLOADS = {
    "golden-upper": golden_upper,
    "typew-lower": typew_lower,
    "sampled-checks": sampled_checks,
}


def load_reference():
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)

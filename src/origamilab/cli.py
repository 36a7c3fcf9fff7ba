"""Command-line entry point wiring all modules into reproducible experiment
runs with CSV/JSON/SVG outputs.

Every run is deterministic given its flags and --seed; JSON reports embed the
seed and a hash of the resolved configuration. `run --config FILE` executes
the same tasks from an INI-style config whose sections mirror the flags.
"""

import argparse
import math
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction
from functools import cache

from .errors import FormatError, OrigamiLabError, OutOfRange
from .origami import (BUILTINS, DEFAULT_MEM_BUDGET, INFINITY, SurfacePoint,
                      automorphism_group, is_isomorphic, origami_from_text,
                      origami_to_text)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def load_origami(name_or_path):
    if name_or_path in BUILTINS:
        return BUILTINS[name_or_path](), name_or_path
    with open(name_or_path) as fh:
        return origami_from_text(fh.read()), os.path.basename(name_or_path)


def split_value(text, given, form, count=None, sep=",", convert=int):
    """The `sep`-separated parts of a flag value, each through `convert`,
    and `count` of them if that is given; any other value is a usage error
    that names the flag and its value, `given`."""
    try:
        values = [convert(t) for t in text.split(sep)]
    except ValueError:
        values = []
    if not values or count not in (None, len(values)):
        raise OutOfRange(f"{given}: not {form}")
    return values


def parse_matrix(text):
    # local: loaded only when a command reads a matrix
    from .sl2 import Mat2
    return Mat2(*split_value(text, f"--matrix {text}", "a,b,c,d", 4))


def parse_fraction(text, given, form="a fraction"):
    """A rational flag value. A zero denominator is a usage error, and so
    is any other text that is not a fraction: that one names the flag and
    its value, `given`, and the `form` the value takes."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise OutOfRange(f"zero denominator in {text!r}") from None
    except ValueError:
        raise OutOfRange(f"{given}: not {form}") from None


def parse_start(origami, text):
    """`--start j,x,y`: a square of the origami and a point of the closed
    unit square."""
    given = f"--start {text}"
    j, x, y = split_value(text, given, "j,x,y", 3, convert=str)
    try:
        square = int(j)
    except ValueError:
        raise OutOfRange(f"{given}: not j,x,y") from None
    start = SurfacePoint(square, parse_fraction(x, given, "j,x,y"),
                         parse_fraction(y, given, "j,x,y"))
    if not 0 <= start.square < origami.n:
        raise OutOfRange(f"--start square {j} outside 0..{origami.n - 1}")
    if not (0 <= start.x <= 1 and 0 <= start.y <= 1):
        raise OutOfRange(f"--start ({x}, {y}) outside the closed unit square")
    return start


def at_least(low, value, what):
    """`value`, or OutOfRange when it is below `low`."""
    if value < low:
        raise OutOfRange(f"{what} {value} is below {low}")
    return value


def _flags(rows):
    """Each flag of a command's modes in COMMANDS, with the last row's
    spec."""
    return {flag: spec for row in rows.values() for flag, spec in row.items()}


def check_flags(args):
    """Refuse a flag that the mode of `args` does not read or a value out of
    its bounds; then fill in every default, to hash the same keys."""
    rows = COMMANDS[args.cmd].modes
    mode = getattr(args, "mode", getattr(args, "check", ""))
    if args.cmd == "cf":
        given = [m for m in rows if getattr(args, m) is not None]
        if len(given) != 1:
            raise OutOfRange("cf needs exactly one of --" + ", --".join(rows))
        mode, = given
    where = (f"--check {mode}" if args.cmd == "hitting"
             else f"{args.cmd} {mode}".rstrip())
    taken = {**rows.get("", {}), **rows.get(mode, {})}
    for flag, (default, *bounds) in {**_flags(rows), **taken}.items():
        value, name = getattr(args, flag), "--" + flag.replace("_", "-")
        if value is None:
            setattr(args, flag, default)
        elif flag not in taken:
            raise OutOfRange(f"{name} is not read by {where}")
        elif bounds[1:] and value > bounds[1]:
            raise OutOfRange(f"{name} {value} is above {bounds[1]} with "
                             f"{where}")
        elif bounds:
            at_least(bounds[0], value, name)


def parse_slope_for_flow(text, depth):
    # local: loaded only when a command reads a slope
    from .cfrac import parse_slope_spec
    spec = parse_slope_spec(text)
    if spec.kind == "horizontal":
        return INFINITY
    if spec.kind == "rational":
        return spec.value
    return spec.cf.convergent(depth)


def label_str(label):
    return "" if label is None else f"{label[0]}{label[1]}"


_NON_CONFIG_KEYS = {"func", "out", "out_dir", "plot", "infile", "cmd"}


def config_hash(payload):
    # local, as json in write_json: only verify and exponent load them
    import hashlib
    import json
    payload = {k: v for k, v in payload.items()
               if k not in _NON_CONFIG_KEYS and not callable(v)}
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def out_path(args, name):
    base = args.out_dir or "."
    os.makedirs(base, exist_ok=True)
    return os.path.join(base, name)


def write_json(path, payload):
    import json
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, default=str)
        fh.write("\n")


# -- handlers -----------------------------------------------------------------------
# Each handler imports the modules it runs at its top, so importing this
# module and loading a surface load only `errors`, `perm` and `origami`.

def cmd_info(args):
    o, name = load_origami(args.origami)
    cd = o.cone_data
    print(f"origami {name}: n={o.n}")
    print(f"genus={cd.genus}  cones={','.join(map(str, cd.cones))}"
          f"  regular_vertices={cd.regular_vertices}")
    print(f"|Aut|={len(automorphism_group(o))}")
    print(f"edge classes: {2 * o.n}"
          f" (labels: {len(o.labels) if o.labelled else 0})")
    if o.labelled:
        print(f"labeled={len(o.labels)} dotted={2 * o.n - len(o.letters)}")
    return EXIT_OK


def cmd_act(args):
    # local: loaded only when this command runs
    from .sl2 import act, decompose
    o, _ = load_origami(args.origami)
    m = parse_matrix(args.matrix)
    img = act(m, o)
    text = origami_to_text(img)
    if args.out:
        with open(out_path(args, args.out), "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    sigma = is_isomorphic(img, o)
    print(f"# word: {' '.join(decompose(m))}")
    print(f"# isomorphic to input: {sigma is not None}")
    return EXIT_OK


def cmd_orbit(args):
    # local: loaded only when this command runs
    from .sl2 import orbit_enumerate
    o, _ = load_origami(args.origami)
    res = orbit_enumerate(o, cap=args.cap)
    keys = sorted(res.representatives)
    index = {k: i for i, k in enumerate(keys)}
    names = [f"orbit_{i:03d}.origami" for i in range(len(keys))]
    for k, name in zip(keys, names):
        with open(out_path(args, name), "w") as fh:
            fh.write(origami_to_text(res.representatives[k]))
    # class files an earlier, longer orbit left in the same directory
    out_dir = os.path.dirname(out_path(args, "orbit_adjacency.csv"))
    for name in os.listdir(out_dir):
        if re.fullmatch(r"orbit_\d+\.origami", name) and name not in names:
            os.remove(os.path.join(out_dir, name))
    with open(out_path(args, "orbit_adjacency.csv"), "w") as fh:
        fh.write("from,token,to\n")
        for k in keys:
            for tok, k2 in sorted(res.adjacency.get(k, {}).items()):
                fh.write(f"{index[k]},{tok},{index[k2]}\n")
    print(f"classes: {len(keys)}  complete: {res.complete}")
    return EXIT_OK if res.complete else EXIT_CHECK_FAILED


def cmd_cf(args):
    # local: loaded only when this command runs
    from .cfrac import (CFSlope, cf_expand, diophantine_type_estimate,
                        parse_slope_spec, slope_with_type)
    if args.rational is not None:
        quots = cf_expand(parse_fraction(args.rational,
                                         f"--rational {args.rational}"))
        cf, depth = CFSlope(quots), len(quots)
    elif args.type is not None:
        depth = args.depth
        cf = slope_with_type(parse_fraction(args.type,
                                            f"--type {args.type}"))
    else:
        cf, depth = parse_slope_spec(args.spec).cf, args.depth
        if cf is None:
            raise OutOfRange("slope spec has no continued fraction")
    cf.ensure(depth)
    print("n a_n p_n q_n")
    for n in range(1, depth + 1):
        print(f"{n} {cf.quotient(n)} {cf.p(n)} {cf.q(n)}")
    # the estimate over n <= depth - 1 needs depth - 1 >= 2
    if depth >= 3:
        est = diophantine_type_estimate(cf, depth - 1)
        print(f"type_estimate {est.value:.6g} at n={est.at_n}")
    return EXIT_OK


def cmd_flow(args):
    # local: loaded only when this command runs
    from .flow import trace
    o, _ = load_origami(args.origami)
    slope = parse_slope_for_flow(args.slope, args.depth)
    start = parse_start(o, args.start)
    span = (parse_fraction(args.span, f"--span {args.span}") if args.span
            else None)
    res = trace(o, slope, start, up=not args.down, crossings=args.crossings,
                span=span)
    speed = (1.0 if slope == INFINITY
             else math.sqrt(1 + float(Fraction(slope)) ** 2))
    with open(out_path(args, args.out), "w") as fh:
        fh.write("k,t,square,side,edge_class,label,pos\n")
        for k, e in enumerate(res.events):
            edge = "" if e.edge is None else str(e.edge)
            pos = "" if e.pos is None else str(e.pos)
            fh.write(f"{k},{float(e.s) * speed!r},{e.square_from},{e.kind},"
                     f"{edge},{label_str(e.label)},{pos}\n")
    print(f"events: {len(res.events)}  status: {res.status}")
    return EXIT_OK


def cmd_cutseq(args):
    # local: loaded only when this command runs
    from .flow import Segment
    o, _ = load_origami(args.origami)
    if not o.labelled:
        raise ValueError("origami has no letter labels")
    slope = parse_slope_for_flow(args.slope, args.depth)
    start = parse_start(o, args.start)
    span = parse_fraction(args.span, f"--span {args.span}")
    seg = Segment(o, start, slope, span, up=not args.down)
    print(" ".join(label_str(l) for l in seg.word))
    return EXIT_OK


def cmd_cylinders(args):
    # local: loaded only when this command runs
    from .cylinders import InducedDecomposition
    from .sl2 import MAT_ID
    o, _ = load_origami(args.origami)
    cyls = InducedDecomposition(
        o, parse_matrix(args.matrix) if args.matrix else MAT_ID,
        base=args.base).cylinders
    with open(out_path(args, args.out), "w") as fh:
        fh.write("index,slope,L,W,squares\n")
        for c in cyls:
            slope = "inf" if c.slope == INFINITY else str(c.slope)
            sqs = ";".join(str(s) for s in sorted(c.squares))
            fh.write(f"{c.index},{slope},{c.length},{c.width},{sqs}\n")
    total = sum(c.area for c in cyls)
    print(f"cylinders: {len(cyls)}  area: {total} (n={o.n})")
    return EXIT_OK if total == o.n else EXIT_CHECK_FAILED


def _segment_fields(start, slope, span=None):
    """A sampled segment of a failing report, as strings: its start as
    `--start` reads it, its slope and its span."""
    fields = {"start": f"{start.square},{start.x},{start.y}",
              "slope": str(slope)}
    if span is not None:
        fields["span"] = str(span)
    return fields


def cmd_verify(args):
    # local: loaded only when this command runs
    import json
    import random
    from .verify import (NEG_INFINITY, asserted_next_up, compare_relation,
                         intersection_property_harness, next_letter_relation,
                         tiles_crossed, verified_next_up, _segment_sampler)
    o, name = load_origami(args.origami)
    payload = {"origami": name, "seed": args.seed, "mode": args.mode}
    ok = True
    if args.mode == "transitions":
        given = f"--cone {args.cone[0]} {args.cone[1]}"
        lo = (NEG_INFINITY if args.cone[0] == "-inf"
              else parse_fraction(args.cone[0], given))
        hi = (INFINITY if args.cone[1] == "inf"
              else parse_fraction(args.cone[1], given))
        if not lo < hi:
            raise OutOfRange(f"--cone {args.cone[0]} {args.cone[1]}: the "
                             f"lower bound must be below the upper")
        rel = next_letter_relation(o, cone=(lo, hi),
                                   sample_budget=args.trials, seed=args.seed)
        payload["samples_per_letter"] = rel.samples_per_letter
        payload["skipped"] = rel.skipped
        payload["non_converged"] = sorted(map(label_str, rel.non_converged))
        payload["successors"] = {
            label_str(l): sorted(map(label_str, s))
            for l, s in rel.successors.items()}
        if (lo, hi) == (Fraction(0), Fraction(1)):
            v_assert = compare_relation(rel, asserted_next_up())
            v_full = compare_relation(rel, verified_next_up())
            payload["violations_vs_asserted"] = [
                {"letter": label_str(v.letter), "kind": v.kind,
                 "successor": label_str(v.successor),
                 "witness": str(v.witness)} for v in v_assert]
            payload["violations_vs_verified"] = [
                {"letter": label_str(v.letter), "kind": v.kind,
                 "successor": label_str(v.successor)} for v in v_full]
            ok = not v_assert and not v_full
    elif args.mode == "tiles":
        if not o.labelled:
            raise ValueError("origami has no letter labels")
        rng = random.Random(args.seed)
        cones = {"v": (Fraction(0), Fraction(1)),
                 "h": (NEG_INFINITY, Fraction(-1))}
        bad = checked = 0
        for cone in cones.values():
            sample = _segment_sampler(o, cone, args.K)
            for _ in range(args.trials):
                seg = sample(rng)
                if len(seg.word) >= 6:
                    checked += 1
                    if tiles_crossed(seg) != {0, 1, 2}:
                        bad += 1
        payload.update(checked=checked, violations=bad)
        ok = bad == 0 and checked > 0
    else:
        reports = []
        for pair in ("main", "reflected"):
            rep = intersection_property_harness(
                o, args.K, args.trials, pair, seed=args.seed)
            reports.append(rep)
            payload[pair] = {
                "trials": rep.trials, "failures": rep.failures,
                "verdicts": rep.verdicts, "too_short": rep.word_too_short,
                "conflicts": len(rep.classifier_conflicts),
                "slope_audit_failures": len(rep.slope_audit_failures),
                "witness_recheck_failures": rep.witness_recheck_failures}
            # the failing pairs themselves, only when there are some
            named = {
                "non_intersecting": [
                    {side: _segment_fields(*p[side]) for side in "hv"}
                    for p in rep.non_intersecting],
                "classifier_conflicts": [
                    {"verdict": c["verdict"].kind,
                     **{side: _segment_fields(*c[side]) for side in "hv"}}
                    for c in rep.classifier_conflicts],
                "slope_audit_failed_slopes": list(
                    map(str, rep.slope_audit_failures))}
            payload[pair].update((k, v) for k, v in named.items() if v)
        ok = all(r.failures == 0 and not r.classifier_conflicts
                 and not r.slope_audit_failures
                 and r.witness_recheck_failures == 0 for r in reports)
    payload["ok"] = ok
    payload["config_hash"] = config_hash(vars(args))
    if args.out:
        write_json(out_path(args, args.out), payload)
    print(json.dumps(payload, sort_keys=True, default=str))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _hitting_radii2(radii, spec, K):
    """The squared radii of `--radii`: an explicit list, or the special radii
    of a continued-fraction slope (prop:, special:)."""
    # local: hitting loads numpy, which only hitting and exponent need
    from . import hitting as hl
    if not radii.startswith(("prop:", "special:")):
        rs = [parse_fraction(r, f"--radii {radii}")
              for r in radii.split(",")]
        if min(rs) <= 0:
            raise OutOfRange(f"--radii {radii}: a radius is not positive")
        return [r ** 2 for r in rs]
    if spec.kind != "cf":
        raise OutOfRange(f"--radii {radii} needs a continued-fraction slope, "
                         f"not {spec.text!r}")
    kind, _, span = radii.partition(":")
    lo, hi = (at_least(0, i, "--radii index") for i in
              split_value(span, f"--radii {radii}", f"{kind}:LO..HI", 2, ".."))
    if hi < lo:
        raise OutOfRange(f"--radii {radii}: the range {lo}..{hi} is empty")
    if kind == "prop":
        return [hl.upper_radius(spec.cf, n, K) ** 2
                for n in range(lo, hi + 1)]
    return [hl.lower_radius2(spec.cf, k) for k in range(lo, hi + 1)]


def _levels(text):
    """`--levels`: a comma list of indices n or k, each at least 0."""
    return [at_least(0, n, "--levels") for n in
            split_value(text, f"--levels {text}", "a comma list of integers")]


def cmd_hitting(args):
    # local: hitting loads numpy, which only hitting and exponent need
    from . import hitting as hl
    from .cfrac import parse_slope_spec
    o, _ = load_origami(args.origami)
    start = parse_start(o, args.start)
    spec = parse_slope_spec(args.slope)

    if args.check == "upper":
        res = hl.special_times_check(o, spec, start, _levels(args.levels),
                                     K=args.K, mem_budget=args.mem_budget)
        recs = [row.record for row in res.rows]
        for row in res.rows:
            print(f"n={row.n} q={row.q_n} r={row.r:.5g} "
                  f"T={row.record.T if row.record.T is None else round(row.record.T, 2)} "
                  f"bound={row.bound} ok={row.ok}")
        ok = res.all_ok
    elif args.check == "lower":
        levels = _levels(args.levels)
        if (args.w is not None
                and parse_fraction(args.w, f"--w {args.w}") != spec.value):
            raise OutOfRange(f"--w {args.w} is not the W of {spec.text}")
        res = hl.lower_bound_experiment(o, spec, levels, start,
                                        mem_budget=args.mem_budget)
        recs = [row.record for row in res.rows]
        for row in res.rows:
            print(f"k={row.k} q={row.q2k} "
                  f"T={row.record.T if row.record.T is None else round(row.record.T, 2)} "
                  f"lower_ok={row.lower_ok} kappa_ok={row.kappa_ok} "
                  f"trapping={row.trapping_ok} tube_ok="
                  f"{row.tube.ok if row.tube.performed else 'n/a'}")
        ok = res.all_ok
    else:
        cap = parse_fraction(args.cap, f"--cap {args.cap}")
        if cap <= 0:
            raise OutOfRange(f"--cap {args.cap} is not positive")
        recs = [hl.r_dense_time(o, spec, start, r2, time_cap=cap,
                                mem_budget=args.mem_budget)[0]
                for r2 in _hitting_radii2(args.radii, spec, args.K)]
        ok = True
    for rec in recs:
        rec.seed = args.seed
    hl.write_records(out_path(args, args.out), recs)
    print(f"records: {len(recs)} -> {args.out}  ok={ok}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_exponent(args):
    # local: hitting loads numpy, which only hitting and exponent need
    from . import hitting as hl
    from .svg import scatter_svg
    recs = hl.read_records(args.infile)
    fit = hl.exponent_estimate(recs)
    payload = {
        "h_hat": fit.h_hat,
        "n_records": fit.n_records,
        "envelope": [[x, y] for x, y in fit.envelope],
        "per_point": [[r, T, e] for (r, T, e) in fit.per_point],
        "seed": args.seed,
        "config_hash": config_hash(vars(args)),
    }
    ok = True
    if args.min is not None:
        ok = ok and fit.h_hat >= args.min
    if args.max is not None:
        ok = ok and fit.h_hat <= args.max
    payload["ok"] = ok
    write_json(out_path(args, args.out), payload)
    if args.plot:
        pts = [(-math.log(r), math.log(T)) for (r, T, _) in fit.per_point]
        with open(out_path(args, args.plot), "w") as fh:
            fh.write(scatter_svg(pts, fit.envelope, "hitting-time scaling",
                                 f"fitted exponent {fit.h_hat:.4f}"))
    print(f"h_hat={fit.h_hat:.4f} ok={ok}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_run(args):
    # local: loaded only when this command runs
    import configparser
    cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
    cp.optionxform = str        # keys keep their case, as flags such as --K
    try:
        read = cp.read(args.config)
    except configparser.Error as exc:
        # a missing section header, or a section or option given twice;
        # configparser's message spans lines
        raise FormatError(f"bad config: {' '.join(str(exc).split())}") \
            from None
    if not read:
        raise FormatError(f"cannot read config {args.config}")
    if "run" not in cp or "task" not in cp["run"]:
        raise FormatError("config needs [run] task = <name>")
    task = cp["run"]["task"]
    section = cp[task] if task in cp else {}
    given = arguments(task) if task in COMMANDS else {}
    positional = [name for name in given
                  if not name.startswith("-") and name in section]
    # positional arguments (verify's mode) first, in the table's order
    argv = [task, *(section[name] for name in positional)]
    for key, val in cp["run"].items():
        if key in ("task",):
            continue
        argv.append(f"--{key.replace('_', '-')}={val}")
    for key, val in section.items():
        if key in positional:
            continue
        flag = f"--{key.replace('_', '-')}"
        if given.get(flag, {}).get("nargs"):
            # several values (--cone LO HI), one token each: the task's
            # parser reads a negative one such as -inf as a value
            argv += [flag, *val.split()]
        elif val.lower() in ("true", "yes"):
            argv.append(flag)
        else:
            # one token, so a negative value is not read as a flag
            argv.append(f"{flag}={val}")
    return main(argv)


# -- the commands -------------------------------------------------------------------

# Every command: its handler, its arguments in the order argparse lists
# them, each with its argparse settings, and its modes. A mode is verify's
# positional, hitting's --check, cf's one given input, or "" for every mode.
# A mode's row maps each flag that only some modes read, or whose values are
# bounded, to (default[, lowest[, highest]]). These flags follow the
# arguments, typed as their default (an int, or two values for a tuple),
# and have no parser default, so `check_flags` sees which were given.
# verify and exponent only hash --jobs and --mem-budget. Every mode runs in
# one process, so --jobs takes only 1; it is parsed only because the
# benchmark workloads pass --jobs 1.
Command = namedtuple("Command", "handler arguments modes")
_REQUIRED = {"required": True}
_ORIGAMI = {"--origami": _REQUIRED}
_OUT_DIR = {"--out-dir": {}}
_SHARED = {"--seed": {"type": int, "default": 0}, **_OUT_DIR}
_DOWN = {"--down": {"action": "store_true"}}
_LIMITS = {"jobs": (1, 1, 1), "mem_budget": (DEFAULT_MEM_BUDGET, 1)}
COMMANDS = {
    "info": Command(cmd_info, _ORIGAMI, {}),
    "act": Command(cmd_act, {**_ORIGAMI, "--matrix": _REQUIRED, "--out": {},
                             **_OUT_DIR}, {}),
    "orbit": Command(cmd_orbit, {**_ORIGAMI, **_OUT_DIR},
                     {"": {"cap": (64, 1)}}),
    "cf": Command(cmd_cf, {"--rational": {}, "--type": {}, "--spec": {}},
                  {"rational": {}, "type": {"depth": (12, 1)},
                   "spec": {"depth": (12, 1)}}),
    "flow": Command(cmd_flow, {
        **_ORIGAMI, "--slope": _REQUIRED, "--start": _REQUIRED,
        "--crossings": {"type": int}, "--span": {}, **_DOWN,
        "--out": {"default": "events.csv"}, **_OUT_DIR},
        {"": {"depth": (20, 0)}}),
    "cutseq": Command(cmd_cutseq, {
        **_ORIGAMI, "--slope": _REQUIRED, "--start": _REQUIRED,
        "--span": _REQUIRED, **_DOWN}, {"": {"depth": (20, 0)}}),
    "cylinders": Command(cmd_cylinders, {
        **_ORIGAMI, "--matrix": {},
        "--base": {"choices": ("vertical", "horizontal"),
                   "default": "vertical"},
        "--out": {"default": "cylinders.csv"}, **_OUT_DIR}, {}),
    "verify": Command(cmd_verify, {
        "mode": {"choices": ("transitions", "tiles", "intersections")},
        **_ORIGAMI, "--out": {}, **_SHARED},
        {"": {"trials": (1000, 0), **_LIMITS},
         "transitions": {"cone": (("0", "1"),)},
         "tiles": {"K": (17, 1)}, "intersections": {"K": (17, 1)}}),
    # K sets the prop: radii. The lower check reads w from its type:w=W
    # slope; --w, parsed only for a benchmark workload, must be W if given
    "hitting": Command(cmd_hitting, {
        **_ORIGAMI, "--slope": _REQUIRED,
        "--start": {"default": "0,3/16,5/16"},
        "--check": {"choices": ("none", "upper", "lower"), "default": "none"},
        "--out": {"default": "records.csv"}, **_SHARED},
        {"": _LIMITS,
         "none": {"radii": ("prop:9..17",), "cap": ("100000",), "K": (17, 1)},
         "upper": {"levels": ("6,7,8,9,10,11,12,13,14",), "K": (17, 1)},
         "lower": {"levels": ("0,1,2,3",), "w": (None,)}}),
    "exponent": Command(cmd_exponent, {
        "--in": {"dest": "infile", **_REQUIRED},
        "--out": {"default": "fit.json"}, "--plot": {},
        "--min": {"type": float}, "--max": {"type": float}, **_SHARED},
        {"": _LIMITS}),
    "run": Command(cmd_run, {"--config": _REQUIRED}, {}),
}


def arguments(cmd):
    """Each argument of command `cmd` with its argparse settings, in
    argparse's order: those of COMMANDS, then the flags of its modes."""
    modes = {"--" + flag.replace("_", "-"):
             {"type": int} if isinstance(default, int) else
             {"nargs": 2} if isinstance(default, tuple) else {}
             for flag, (default, *_) in _flags(COMMANDS[cmd].modes).items()}
    return {**COMMANDS[cmd].arguments, **modes}


@cache
def build_parser():
    """The argument parser, built on first use and kept for the process:
    a fresh one per `main` call would leave cyclic garbage each time."""
    ap = argparse.ArgumentParser(prog="origamilab")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        for argument, settings in arguments(name).items():
            p.add_argument(argument, **settings)
        p.set_defaults(func=command.handler)
    # argparse reads a token that starts with "-" as a flag unless it is a
    # plain negative number; a cone bound such as -inf or -5/2 is a value
    sub.choices["verify"]._negative_number_matcher = re.compile(
        r"^-(inf|\d+(/\d+)?|\d*\.\d+)$")
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        check_flags(args)
        return args.func(args)
    except (OrigamiLabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

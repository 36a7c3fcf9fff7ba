"""Command-line entry point wiring all modules into reproducible experiment
runs with CSV/JSON/SVG outputs.

Every run is deterministic given its flags and --seed; JSON reports embed the
seed and a hash of the resolved configuration. `run --config FILE` executes
the same tasks from an INI-style config whose sections mirror the flags.
"""

import argparse
import hashlib
import json
import math
import os
import re
import sys
from fractions import Fraction
from functools import cache

from .errors import OrigamiLabError, OutOfRange
from .origami import (BUILTINS, DEFAULT_MEM_BUDGET, INFINITY, SurfacePoint,
                      automorphism_group, origami_from_text, origami_to_text)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def load_origami(name_or_path):
    if name_or_path in BUILTINS:
        return BUILTINS[name_or_path](), name_or_path
    with open(name_or_path) as fh:
        return origami_from_text(fh.read()), os.path.basename(name_or_path)


def parse_matrix(text):
    # local: loaded only when a command reads a matrix
    from .sl2 import Mat2
    a, b, c, d = (int(t) for t in text.split(","))
    return Mat2(a, b, c, d)


def parse_fraction(text):
    """A rational flag value; a zero denominator is a usage error."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise OutOfRange(f"zero denominator in {text!r}") from None


def parse_start(origami, text):
    """`--start j,x,y`: a square of the origami and a point of the closed
    unit square."""
    j, x, y = text.split(",")
    start = SurfacePoint(int(j), parse_fraction(x), parse_fraction(y))
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


def parse_slope_for_flow(text, depth=20):
    # local: loaded only when a command reads a slope
    from .cfrac import parse_slope_spec
    spec = parse_slope_spec(text)
    if spec.kind == "horizontal":
        return INFINITY
    if spec.kind == "rational":
        return spec.value
    return spec.cf.convergent(at_least(0, depth, "--depth"))


def label_str(label):
    return "" if label is None else f"{label[0]}{label[1]}"


_NON_CONFIG_KEYS = {"func", "out", "out_dir", "plot", "infile", "config",
                    "cmd"}


def config_hash(payload):
    if not isinstance(payload, dict):
        payload = vars(payload)
    payload = {k: v for k, v in payload.items()
               if k not in _NON_CONFIG_KEYS and not callable(v)}
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def out_path(args, name):
    base = getattr(args, "out_dir", None) or "."
    os.makedirs(base, exist_ok=True)
    return os.path.join(base, name)


def write_json(path, payload):
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
    print(f"genus={cd.genus}  cones={','.join(str(c.order) for c in cd.cones)}"
          f"  regular_vertices={cd.regular_vertices}")
    print(f"|Aut|={len(automorphism_group(o))}")
    print(f"edge classes: {len(o.edge_classes)}"
          f" (labels: {len(o.labels) if o.labelled else 0})")
    if o.labelled:
        dotted = sum(1 for c in o.edge_classes if c.dotted)
        print(f"labeled={len(o.labels)} dotted={dotted}")
    return EXIT_OK


def cmd_act(args):
    # local: loaded only when this command runs
    from .sl2 import act, decompose, is_isomorphic
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
    cap = at_least(1, args.cap, "--cap")
    o, _ = load_origami(args.origami)
    res = orbit_enumerate(o, cap=cap)
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
    if args.rational:
        quots = cf_expand(parse_fraction(args.rational))
        cf = CFSlope(quots)
        depth = len(quots)
    elif args.type is not None:
        depth = at_least(1, args.depth, "--depth")
        cf = slope_with_type(parse_fraction(args.type), depth=depth)
    elif args.spec is None:
        raise OutOfRange("cf needs one of --rational, --type, --spec")
    else:
        spec = parse_slope_spec(args.spec)
        if spec.cf is None:
            print("slope spec has no continued fraction", file=sys.stderr)
            return EXIT_USAGE
        cf = spec.cf
        depth = at_least(1, args.depth, "--depth")
    cf.ensure(depth)
    print("n a_n p_n q_n")
    for n in range(1, depth + 1):
        print(f"{n} {cf.quotient(n)} {cf.p(n)} {cf.q(n)}")
    if depth >= 2:
        est = diophantine_type_estimate(cf, depth - 1)
        print(f"type_estimate {est.value:.6g} at n={est.at_n}")
    return EXIT_OK


def cmd_flow(args):
    # local: loaded only when this command runs
    from .flow import trace
    o, _ = load_origami(args.origami)
    slope = parse_slope_for_flow(args.slope, args.depth)
    start = parse_start(o, args.start)
    res = trace(o, slope, start, up=not args.down, crossings=args.crossings,
                span=parse_fraction(args.span) if args.span else None,
                raise_on_cone=False)
    speed = (1.0 if slope == INFINITY
             else math.sqrt(1 + float(Fraction(slope)) ** 2))
    with open(out_path(args, args.out), "w") as fh:
        fh.write("k,t,square,side,edge_class,label,pos\n")
        for k, e in enumerate(res.events):
            ec = "" if e.edge_class is None else str(e.edge_class.id)
            pos = "" if e.pos is None else str(e.pos)
            fh.write(f"{k},{float(e.s) * speed!r},{e.square_from},{e.kind},"
                     f"{ec},{label_str(e.label)},{pos}\n")
    print(f"events: {len(res.events)}  status: {res.status}")
    return EXIT_OK


def cmd_cutseq(args):
    # local: loaded only when this command runs
    from .flow import Segment, cutting_sequence
    o, _ = load_origami(args.origami)
    slope = parse_slope_for_flow(args.slope, args.depth)
    start = parse_start(o, args.start)
    seg = Segment(o, start, slope, parse_fraction(args.span), up=not args.down)
    word = cutting_sequence(seg)
    print(" ".join(label_str(l) for l in word.word))
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


def cmd_verify(args):
    # local: loaded only when this command runs
    import random
    from .flow import cutting_sequence
    from .verify import (NEG_INFINITY, asserted_next_up, compare_relation,
                         intersection_property_harness, next_letter_relation,
                         tiles_crossed, verified_next_up, _sample_segment)
    at_least(0, args.trials, "--trials")
    at_least(1, args.K, "--K")
    o, name = load_origami(args.origami)
    payload = {"origami": name, "seed": args.seed, "mode": args.mode}
    ok = True
    if args.mode == "transitions":
        lo = (NEG_INFINITY if args.cone[0] == "-inf"
              else parse_fraction(args.cone[0]))
        hi = (INFINITY if args.cone[1] == "inf"
              else parse_fraction(args.cone[1]))
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
        rng = random.Random(args.seed)
        cones = {"v": (Fraction(0), Fraction(1)),
                 "h": (NEG_INFINITY, Fraction(-1))}
        bad = 0
        checked = 0
        for cone in cones.values():
            for _ in range(args.trials):
                seg = _sample_segment(o, rng, cone, args.K)
                if len(cutting_sequence(seg).word) >= 6:
                    checked += 1
                    if tiles_crossed(seg) != {0, 1, 2}:
                        bad += 1
        payload.update(checked=checked, violations=bad)
        ok = bad == 0 and checked > 0
    else:
        reports = []
        for pair in ("main", "reflected"):
            rep = intersection_property_harness(
                o, args.K, args.trials, pair, seed=args.seed, name=name)
            reports.append(rep)
            payload[pair] = {
                "trials": rep.trials, "failures": rep.failures,
                "verdicts": rep.verdicts, "too_short": rep.word_too_short,
                "conflicts": len(rep.classifier_conflicts),
                "slope_audit_failures": len(rep.slope_audit_failures),
                "witness_recheck_failures": rep.witness_recheck_failures}
        ok = all(r.failures == 0 and not r.classifier_conflicts
                 and not r.slope_audit_failures
                 and r.witness_recheck_failures == 0 for r in reports)
    payload["ok"] = ok
    payload["config_hash"] = config_hash(vars(args))
    if args.out:
        write_json(out_path(args, args.out), payload)
    print(json.dumps(payload, sort_keys=True, default=str)[:400])
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _hitting_one(task):
    # local: hitting loads numpy, which only hitting and exponent need
    from . import hitting as hl
    o, spec_text, start, r2, cap, budget, name, seed = task
    rec, _, _ = hl._measure_with_retry(
        o, spec_text, start, r2, time_cap=cap, mem_budget=budget,
        origami_name=name, seed=seed)
    return rec


def _hitting_radii2(radii, spec, K):
    """The squared radii of `--radii`: an explicit list, or the special radii
    of a continued-fraction slope (prop:, special:, auto)."""
    # local: hitting loads numpy, which only hitting and exponent need
    from . import hitting as hl
    if radii != "auto" and not radii.startswith(("prop:", "special:")):
        return [parse_fraction(r) ** 2 for r in radii.split(",")]
    if spec.kind != "cf":
        raise OutOfRange(f"--radii {radii} needs a continued-fraction slope, "
                         f"not {spec.text!r}")
    if radii == "auto":
        return [hl.upper_radius(spec.cf, n, K) ** 2 for n in range(9, 18)]
    kind, _, span = radii.partition(":")
    lo, hi = (at_least(0, int(t), "--radii index") for t in span.split(".."))
    if kind == "prop":
        return [hl.upper_radius(spec.cf, n, K) ** 2
                for n in range(lo, hi + 1)]
    return [hl.lower_radius2(spec.cf, k) for k in range(lo, hi + 1)]


def _levels(text, default):
    """`--levels`: a comma list of indices n or k, each at least 0."""
    if not text:
        return default
    return [at_least(0, int(t), "--levels") for t in text.split(",")]


def cmd_hitting(args):
    # local: hitting loads numpy, which only hitting and exponent need
    from . import hitting as hl
    from .cfrac import parse_slope_spec
    o, name = load_origami(args.origami)
    start = parse_start(o, args.start)
    spec = parse_slope_spec(args.slope)
    K = at_least(1, args.K, "--K")
    at_least(1, args.jobs, "--jobs")

    if args.check == "upper":
        ns = _levels(args.levels, list(range(6, 15)))
        res = hl.special_times_check(o, spec, start, ns, K=K,
                                     mem_budget=args.mem_budget,
                                     origami_name=name)
        recs = [row.record for row in res.rows]
        for row in res.rows:
            print(f"n={row.n} q={row.q_n} r={row.r:.5g} "
                  f"T={row.record.T if row.record.T is None else round(row.record.T, 2)} "
                  f"bound={row.bound} ok={row.ok}")
        ok = res.all_ok
    elif args.check == "lower":
        ks = _levels(args.levels, [0, 1, 2, 3])
        res = hl.lower_bound_experiment(o, parse_fraction(args.w), ks, start,
                                        mem_budget=args.mem_budget,
                                        origami_name=name)
        recs = [row.record for row in res.rows]
        for row in res.rows:
            print(f"k={row.k} q={row.q2k} "
                  f"T={row.record.T if row.record.T is None else round(row.record.T, 2)} "
                  f"lower_ok={row.lower_ok} kappa_ok={row.kappa_ok} "
                  f"trapping={row.trapping_ok} tube_ok="
                  f"{row.tube.ok if row.tube.performed else 'n/a'}")
        ok = res.all_ok
    else:
        cap = parse_fraction(args.cap)
        if cap <= 0:
            raise OutOfRange(f"--cap {args.cap} is not positive")
        radii2 = _hitting_radii2(args.radii, spec, K)
        tasks = [(o, args.slope, start, r2, cap, args.mem_budget, name,
                  args.seed) for r2 in radii2]
        if args.jobs > 1:
            # local: the pool's multiprocessing is needed only here
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                recs = list(pool.map(_hitting_one, tasks))
        else:
            recs = [_hitting_one(t) for t in tasks]
        ok = True
    for rec in recs:
        rec.seed = args.seed
    hl.write_records(out_path(args, args.out), recs)
    print(f"records: {len(recs)} -> {args.out}  ok={ok}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_exponent(args):
    # local: hitting loads numpy, which only hitting and exponent need
    from . import hitting as hl
    from .svg import write_scatter_svg
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
        write_scatter_svg(out_path(args, args.plot), pts,
                          envelope=fit.envelope,
                          title="hitting-time scaling",
                          annotation=f"fitted exponent {fit.h_hat:.4f}")
    print(f"h_hat={fit.h_hat:.4f} ok={ok}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_run(args):
    # local: loaded only when this command runs
    import configparser
    cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
    read = cp.read(args.config)
    if not read:
        print(f"cannot read config {args.config}", file=sys.stderr)
        return EXIT_USAGE
    if "run" not in cp or "task" not in cp["run"]:
        print("config needs [run] task = <name>", file=sys.stderr)
        return EXIT_USAGE
    task = cp["run"]["task"]
    section = cp[task] if task in cp else {}
    parser = _subcommands().get(task)
    options = {} if parser is None else parser._option_string_actions
    positional = [] if parser is None else [
        a.dest for a in parser._get_positional_actions() if a.dest in section]
    # positional arguments (verify's mode) first, in the parser's order
    argv = [task, *(section[dest] for dest in positional)]
    for key, val in cp["run"].items():
        if key in ("task",):
            continue
        argv.append(f"--{key.replace('_', '-')}={val}")
    for key, val in section.items():
        if key in positional:
            continue
        flag = f"--{key.replace('_', '-')}"
        nargs = getattr(options.get(flag), "nargs", None)
        if nargs in ("+", "*") or isinstance(nargs, int) and nargs > 1:
            # several values (--cone LO HI), one token each: the task's
            # parser reads a negative one such as -inf as a value
            argv += [flag, *val.split()]
        elif val.lower() in ("true", "yes"):
            argv.append(flag)
        else:
            # one token, so a negative value is not read as a flag
            argv.append(f"{flag}={val}")
    return main(argv)


def _subcommands():
    """Subcommand name -> its parser."""
    return next(a.choices for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))


@cache
def build_parser():
    """The argument parser, built on first use and kept for the process:
    a fresh one per `main` call would leave cyclic garbage each time."""
    ap = argparse.ArgumentParser(prog="origamilab")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--mem-budget", dest="mem_budget", type=int,
                       default=DEFAULT_MEM_BUDGET)
        p.add_argument("--out-dir", dest="out_dir", default=None)

    p = sub.add_parser("info")
    p.add_argument("--origami", required=True)
    common(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("act")
    p.add_argument("--origami", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=cmd_act)

    p = sub.add_parser("orbit")
    p.add_argument("--origami", required=True)
    p.add_argument("--cap", type=int, default=64)
    common(p)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("cf")
    p.add_argument("--rational", default=None)
    p.add_argument("--type", default=None)
    p.add_argument("--spec", default=None)
    p.add_argument("--depth", type=int, default=12)
    common(p)
    p.set_defaults(func=cmd_cf)

    p = sub.add_parser("flow")
    p.add_argument("--origami", required=True)
    p.add_argument("--slope", required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--crossings", type=int, default=None)
    p.add_argument("--span", default=None)
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--down", action="store_true")
    p.add_argument("--out", default="events.csv")
    common(p)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("cutseq")
    p.add_argument("--origami", required=True)
    p.add_argument("--slope", required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--span", required=True)
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--down", action="store_true")
    common(p)
    p.set_defaults(func=cmd_cutseq)

    p = sub.add_parser("cylinders")
    p.add_argument("--origami", required=True)
    p.add_argument("--matrix", default=None)
    p.add_argument("--base", choices=("vertical", "horizontal"),
                   default="vertical")
    p.add_argument("--out", default="cylinders.csv")
    common(p)
    p.set_defaults(func=cmd_cylinders)

    p = sub.add_parser("verify")
    p.add_argument("mode", choices=("transitions", "tiles", "intersections"))
    p.add_argument("--origami", required=True)
    p.add_argument("--cone", nargs=2, default=("0", "1"),
                   metavar=("LO", "HI"),
                   help="slope cone of transitions; LO may be -inf, HI inf")
    p.add_argument("--trials", type=int, default=1000,
                   help="transitions: samples per letter, at least 25 (the "
                   "25 boundary pairs are always sampled); tiles: segments "
                   "per cone; intersections: pairs per cone pair")
    p.add_argument("--K", type=int, default=17)
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=cmd_verify)
    # argparse reads a token that starts with "-" as a flag unless it is a
    # plain negative number; a cone bound such as -inf or -5/2 is a value
    p._negative_number_matcher = re.compile(r"^-(inf|\d+(/\d+)?|\d*\.\d+)$")

    p = sub.add_parser("hitting")
    p.add_argument("--origami", required=True)
    p.add_argument("--slope", required=True)
    p.add_argument("--start", default="0,3/16,5/16")
    p.add_argument("--radii", default="auto")
    p.add_argument("--cap", default="100000")
    p.add_argument("--K", type=int, default=17)
    p.add_argument("--w", default="2")
    p.add_argument("--check", choices=("none", "upper", "lower"),
                   default="none")
    p.add_argument("--levels", default=None)
    p.add_argument("--out", default="records.csv")
    common(p)
    p.set_defaults(func=cmd_hitting)

    p = sub.add_parser("exponent")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default="fit.json")
    p.add_argument("--plot", default=None)
    p.add_argument("--min", type=float, default=None)
    p.add_argument("--max", type=float, default=None)
    common(p)
    p.set_defaults(func=cmd_exponent)

    p = sub.add_parser("run")
    p.add_argument("--config", required=True)
    common(p)
    p.set_defaults(func=cmd_run)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (OrigamiLabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

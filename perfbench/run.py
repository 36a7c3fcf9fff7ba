"""origamilab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload golden-upper --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout: the library is imported from src/
and nothing is installed. --trace 0 prints the end-to-end metrics, measured
with tracing off; --trace 1 prints the per-layer metrics of a traced pass
and checks that tracing changed no count and no output. The setup_s and
wall_s of --trace 0 are scaled to a reference host speed by probe.py.
BENCHMARK.json declares the workloads, metrics and units;
perfbench/README.md defines each metric and says why each workload exists.

The last line of standard output is the JSON result; the line before it
records the machine. Raw results and spans go to .perfbench_out/.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
DEADLINE_S = 170        # a run must end within 180 s
SETUP_SPAWNS = 9
MIN_PASSES = 2
# The probe runs during the import and the build; the child prints its
# durations.
SETUP_CODE = ("import probe; p = probe.Probe(); "
              "p.start(probe.SETUP_INTERVAL_S); "
              "import origamilab.cli as cli; "
              "cli.load_origami('ornithorynque'); "
              "p.stop(); print(p.durations)")


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((SRC, HERE))
    return env


def run_child(cmd, t_start, capture=False):
    """Run cmd to completion and return its wall time, and with capture its
    standard output too. The wait blocks; subprocess's own timeout would
    poll in steps of up to 50 ms and quantize the time. A timer kills the
    child at the deadline."""
    left = t_start + DEADLINE_S - time.monotonic()
    if left <= 0:
        sys.exit("perfbench: out of time")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=worker_env(), cwd=ROOT,
                            stdout=subprocess.PIPE if capture else None)
    timer = threading.Timer(left, proc.kill)
    timer.start()
    try:
        out, _ = proc.communicate()
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"perfbench: {cmd[1]} exited with {proc.returncode}")
    return (elapsed, out) if capture else elapsed


def measure_setup(t_start):
    """Wall times of SETUP_SPAWNS fresh processes, raw and scaled to the
    reference speed by the probe that ran inside each."""
    raw, scaled = [], []
    for _ in range(SETUP_SPAWNS):
        wall, out = run_child([sys.executable, "-c", SETUP_CODE], t_start,
                              capture=True)
        raw.append(wall)
        scaled.append(probe.scaled(wall, json.loads(out)))
    return raw, scaled


def run_worker(args, tag, trace, seconds, min_passes, t_start, probed=0):
    out_dir = os.path.join(OUT, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    result = os.path.join(out_dir, f"seed{args.seed}-{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--min-passes", str(min_passes),
           "--trace", str(trace), "--probe", str(probed),
           "--out-dir", os.path.join(out_dir, tag), "--result", result]
    run_child(cmd, t_start)
    with open(result) as fh:
        return json.load(fh)


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy")}


def failed_ops(results):
    ops = [op for r in results for op in r["ops"]]
    for op in ops:
        if not op["ok"]:
            print(f"perfbench: {op['op']} failed: {op['reason']}",
                  file=sys.stderr)
    return len(ops), sum(1 for op in ops if not op["ok"])


def end_to_end(args, t_start):
    setup_raw, setup = measure_setup(t_start)
    res = run_worker(args, "passes", 0, args.seconds, MIN_PASSES, t_start,
                     probed=1)
    attempted, failed = failed_ops([res])
    metrics = {"setup_s": statistics.median(setup),
               "wall_s": statistics.median(res["scaled_s"]),
               "peak_rss_mib": res["peak_rss_mib"],
               "ok_ratio": 1 - failed / attempted}
    raw = {"setup_s": setup, "setup_unscaled_s": setup_raw,
           "wall_s": res["scaled_s"], "wall_unscaled_s": res["wall_s"]}
    return metrics, attempted, failed, [], raw


def per_layer(args, t_start):
    base = run_worker(args, "untraced", 0, 0, 1, t_start)
    traced = [run_worker(args, f"traced{i}", 1, 0, 1, t_start)
              for i in (1, 2)]
    attempted, failed = failed_ops([base] + traced)
    problems = []
    # counts, and ratios of counts, repeat exactly; times (*_s) do not
    for key, value in traced[0]["layers"].items():
        if not key.endswith("_s") and traced[1]["layers"][key] != value:
            problems.append(f"{key}: {value} != {traced[1]['layers'][key]}")
    want = [op["digests"] for op in base["ops"]]
    for i, res in enumerate(traced, 1):
        if [op["digests"] for op in res["ops"]] != want:
            problems.append(f"traced pass {i} outputs differ from untraced")
    for p in problems:
        print(f"perfbench: determinism: {p}", file=sys.stderr)
    metrics = dict(traced[0]["layers"])
    metrics["trace.wall_s"] = traced[0]["wall_s"][0]
    metrics["trace.overhead_s"] = traced[0]["wall_s"][0] - base["wall_s"][0]
    raw = {"untraced_wall_s": base["wall_s"],
           "traced_wall_s": [r["wall_s"][0] for r in traced]}
    return metrics, attempted, failed, problems, raw


def main():
    t_start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "origamilab", "__init__.py")):
        sys.exit(f"perfbench: no origamilab sources under {SRC}")
    with open(spec_path) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")

    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed, problems, raw = measure(args, t_start)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        sys.exit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
                 "are not both measured and declared")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }
    meta = machine()
    with open(os.path.join(OUT, args.workload,
                           f"seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"machine": meta, "raw": raw, "problems": problems,
                   "result": result}, fh, indent=1)
    print(json.dumps({"machine": meta}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

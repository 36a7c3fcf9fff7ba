"""One fresh process running passes of a workload; started by run.py.

Runs passes until --seconds would be exceeded by one more pass, and at least
--min-passes of them, then writes a JSON result: per-pass wall times (and,
with --probe 1, the same times scaled to the reference host speed by
probe.py), the checked operations, peak RSS and, with --trace 1, the layer
metrics of the last pass. The spans of a traced pass are written beside the
result.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--min-passes", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--probe", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    import origamilab
    src = os.path.join(ROOT, "src", "origamilab")
    if os.path.dirname(os.path.abspath(origamilab.__file__)) != src:
        sys.exit(f"origamilab imported from {origamilab.__file__}, "
                 f"not from {src}")
    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    reference = workloads.load_reference().get(args.workload, {})
    run_pass = workloads.WORKLOADS[args.workload]
    speed = None
    if args.probe:
        import probe
        speed = probe.Probe()

    walls = []
    scaled = []
    ops = []
    start = time.perf_counter()
    while True:
        p = workloads.Pass(args.out_dir, args.seed, reference)
        if speed is not None:
            speed.start(probe.PASS_INTERVAL_S)
        t0 = time.perf_counter()
        run_pass(p)
        t1 = time.perf_counter()
        if speed is not None:
            speed.stop()
            scaled.append(probe.scaled(t1 - t0, speed.durations))
        walls.append(t1 - t0)
        ops.extend(p.ops)
        if len(walls) >= args.min_passes and \
                t1 - start + statistics.median(walls) > args.seconds:
            break

    result = {
        "wall_s": walls,
        "ops": ops,
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if speed is not None:
        result["scaled_s"] = scaled
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(p.bytes_written)
        spans_path = os.path.splitext(args.result)[0] + "-spans.json"
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()

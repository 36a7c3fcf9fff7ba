"""Per-layer tracing from outside the library.

Tracer.install() replaces the public functions and methods of each origamilab
module by timing wrappers, at every module that imported them, so calls made
inside the library are traced too. Each call becomes a span
[name, start, end, parent, attrs] kept in memory; layer metrics are derived
from the spans when the pass ends. A few hot constructors are only counted.
Nothing inside src/ is changed.
"""

import sys
import time
from fractions import Fraction

from origamilab import cfrac, cli, cylinders, flow, hitting, origami, sl2, verify


def _trace_kind(args, kwargs):
    if kwargs.get("crossings") is not None:
        return "flow.capped"                  # crossing-capped
    if not kwargs.get("up", True) and not kwargs.get("collect_pieces", False):
        return "flow.back"                    # the singular-leaf check
    return "flow.fwd"                         # span-capped


def _trace_attrs(args, kwargs, result, exc):
    res = result if exc is None else getattr(exc, "trace", None)
    if res is None:
        return None
    attrs = {"crossings": res.crossings}
    if kwargs.get("crossings") is not None:
        # depth of the first labelled crossing after the start, the only
        # crossing the next-letter sampler uses
        depth = 0
        for e in res.events:
            if e.initial:
                continue
            depth += 1
            if e.label is not None:
                break
        else:
            depth = 0
        attrs["depth"] = depth
    return attrs


def _raised(args, kwargs, result, exc):
    return None if exc is None else {"raised": type(exc).__name__}


def _stamp_attrs(args, kwargs, result, exc):
    if exc is not None:
        return None
    return {"cells": result[0], "bytes": args[0].bits.nbytes}


def _realize_attrs(args, kwargs, result, exc):
    if exc is not None:
        return None
    return {"depth": result.depth or 0}


def _relation_attrs(args, kwargs, result, exc):
    if exc is not None:
        return None
    origami_ = args[0]
    return {"samples": result.samples_per_letter * len(origami_.labels),
            "skipped": result.skipped}


def _harness_attrs(args, kwargs, result, exc):
    if exc is not None:
        return None
    return {"pairs": result.trials}


# (module or class, attribute, span name or a function of the call, attrs)
SPANS = [
    (flow, "trace", _trace_kind, _trace_attrs),
    (flow, "segments_intersect", "flow.segments_intersect", None),
    (flow, "make_segment", "flow.make_segment", _raised),
    (flow.Segment, "__init__", "flow.segment", None),
    (hitting, "r_dense_time", "hitting.r_dense_time", _raised),
    (hitting, "realize_slope", "hitting.realize_slope", _realize_attrs),
    (hitting, "lower_bound_experiment", "hitting.lower_bound_experiment",
     None),
    (hitting.CellGrid, "stamp_piece", "hitting.stamp_piece", _stamp_attrs),
    (verify, "next_letter_relation", "verify.next_letter_relation",
     _relation_attrs),
    (verify, "intersection_property_harness", "verify.harness",
     _harness_attrs),
    (verify, "criterion_classify", "verify.criterion_classify", None),
    (cylinders.InducedDecomposition, "__init__", "cylinders.induced", None),
    (cylinders, "transversal_bound", "cylinders.transversal_bound", None),
    (cylinders, "trapping_window", "cylinders.trapping_window", None),
    (sl2, "act_word", "sl2.act_word", None),
    (cli, "main", "cli.main", None),
] + [(cfrac, name, f"cfrac.{name}", None)
     for name in ("ceil_power", "rational_lt_power", "cf_expand", "g_matrix",
                  "golden_slope", "slope_with_type",
                  "diophantine_type_estimate", "parse_slope_spec")] + [
    (cfrac.CFSlope, name, f"cfrac.CFSlope.{name}", None)
    for name in ("ensure", "quotient", "quotients", "p", "q", "convergent",
                 "error_bound")]

# counted calls, no span: (class, attribute, counter name)
COUNTS = [
    (origami.Origami, "__init__", "origami.constructed"),
    (sl2.AffineChart, "map_point", "sl2.map_point.calls"),
    (sl2.ReflectionMap, "map_point", "sl2.map_point.calls"),
    (Fraction, "__new__", "fractions.constructed"),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {name: 0 for _, _, name in COUNTS}
        self._stack = []

    def _span_wrapper(self, fn, name, attrs):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name(args, kwargs) if callable(name) else name, 0.0, 0.0,
                   stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            result = exc = None
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                rec[2] = clock()
                stack.pop()
                if attrs is not None:
                    rec[4] = attrs(args, kwargs, result, exc)
        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        for owner, attr, name, attrs in SPANS:
            self._replace(owner, attr, self._span_wrapper(
                getattr(owner, attr), name, attrs))
        for owner, attr, name in COUNTS:
            setattr(owner, attr, self._count_wrapper(getattr(owner, attr),
                                                     name))

    @staticmethod
    def _replace(owner, attr, wrapper):
        """Set the wrapper on the owner; for a module, also at every
        origamilab module that imported the same object by name."""
        orig = getattr(owner, attr)
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        for modname, mod in list(sys.modules.items()):
            if modname == "origamilab" or modname.startswith("origamilab."):
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)

    def layer_metrics(self, bytes_written):
        """Counts and busy times per layer, from the spans of one pass."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        by_name = {}
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
            by_name.setdefault(s[0], []).append(i)

        def select(pred):
            return [i for n, idx in by_name.items() if pred(n) for i in idx]

        def busy(pred):
            """Time inside spans matching pred, counting a span nested in
            another matching span once."""
            total = 0.0
            for i in select(pred):
                j = spans[i][3]
                while j >= 0 and not pred(spans[j][0]):
                    j = spans[j][3]
                if j < 0:
                    total += dur[i]
            return total

        def named(name):
            return lambda n: n == name

        def attrs(name, key):
            return [(spans[i][4] or {}).get(key, 0)
                    for i in by_name.get(name, ())]

        def attr_sum(name, key):
            return sum(attrs(name, key))

        def attr_max(name, key):
            return max(attrs(name, key), default=0)

        def raised(name, exc_name):
            return sum(1 for i in by_name.get(name, ())
                       if (spans[i][4] or {}).get("raised") == exc_name)

        def ratio(a, b):
            return a / b if b else 0.0

        def self_time(name):
            return sum(dur[i] - child[i] for i in by_name.get(name, ()))

        m = {}
        cross = {}
        for kind in ("back", "fwd", "capped"):
            name = f"flow.{kind}"
            cross[kind] = attr_sum(name, "crossings")
            m[f"{name}.crossings"] = cross[kind]
            m[f"{name}.busy_s"] = busy(named(name))
        m["flow.back.calls"] = len(by_name.get("flow.back", ()))
        trace_busy = busy(lambda n: n in ("flow.back", "flow.fwd",
                                          "flow.capped"))
        all_cross = sum(cross.values())
        m["flow.crossings_per_s"] = ratio(all_cross, trace_busy)
        for name in ("flow.segment", "flow.segments_intersect",
                     "hitting.r_dense_time", "hitting.stamp_piece",
                     "cylinders.induced", "sl2.act_word"):
            m[f"{name}.calls"] = len(by_name.get(name, ()))
            m[f"{name}.busy_s"] = busy(named(name))
        m["hitting.retry_ratio"] = ratio(raised("hitting.r_dense_time",
                                                "StartOnSingularLeaf"),
                                         m["hitting.r_dense_time.calls"])
        m["hitting.useful_crossing_ratio"] = ratio(cross["fwd"], all_cross)
        m["hitting.pieces_per_s"] = ratio(m["hitting.stamp_piece.calls"],
                                          m["hitting.stamp_piece.busy_s"])
        m["hitting.cells_stamped"] = attr_sum("hitting.stamp_piece", "cells")
        m["hitting.cells_per_s"] = ratio(m["hitting.cells_stamped"],
                                         m["hitting.stamp_piece.busy_s"])
        m["hitting.grid_bytes_peak"] = attr_max("hitting.stamp_piece",
                                                "bytes")
        m["hitting.realize_slope.depth_max"] = attr_max(
            "hitting.realize_slope", "depth")
        m["hitting.lower_bound_experiment.self_s"] = self_time(
            "hitting.lower_bound_experiment")

        samples = attr_sum("verify.next_letter_relation", "samples")
        sampler_busy = busy(named("verify.next_letter_relation"))
        m["verify.samples"] = samples
        m["verify.samples_per_s"] = ratio(samples, sampler_busy)
        m["verify.sampler_skipped"] = attr_sum("verify.next_letter_relation",
                                               "skipped")
        m["verify.sampler_crossings_per_sample"] = ratio(cross["capped"],
                                                         samples)
        m["verify.sampler_useful_ratio"] = ratio(
            attr_sum("flow.capped", "depth"), cross["capped"])
        pairs = attr_sum("verify.harness", "pairs")
        m["verify.pairs"] = pairs
        m["verify.pairs_per_s"] = ratio(pairs, busy(named("verify.harness")))
        m["verify.resample_ratio"] = ratio(
            raised("flow.make_segment", "ConeVertexInInterior"),
            len(by_name.get("flow.make_segment", ())))
        m["verify.criterion_classify.busy_s"] = busy(
            named("verify.criterion_classify"))
        m["cylinders.transversal_bound.busy_s"] = busy(
            named("cylinders.transversal_bound"))
        m["cylinders.trapping_window.busy_s"] = busy(
            named("cylinders.trapping_window"))
        m["cfrac.busy_s"] = busy(lambda n: n.startswith("cfrac."))
        m["cli.main.busy_s"] = busy(named("cli.main"))
        m["cli.self_s"] = self_time("cli.main")
        m["cli.bytes_written"] = bytes_written
        m.update(self.counts)
        return m

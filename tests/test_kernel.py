"""The integer crossing kernel behind `trace` and `Segment`, against a short
stepper that uses Fractions only, and the crossing count that hitting
records pin."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from origamilab.errors import (ConeVertexInInterior, NotTransitive,
                               OutOfRange, StartOnSingularLeaf)
from origamilab.flow import INFINITY, Event, Segment, trace
from origamilab.hitting import r_dense_time
from origamilab.origami import (BL, SurfacePoint, builtin_genus2_L,
                                builtin_ornithorynque, builtin_torus,
                                canonical_point, make_origami)

BUILTINS = (builtin_ornithorynque(), builtin_genus2_L(), builtin_torus())


def reference_trace(o, slope, start, up, span, crossings):
    """(events, pieces, status, end, span_done, crossings) of the flow moving
    by (dx, dy) per unit span, stepped square by square in Fractions."""
    dx, dy = (F(1), F(0)) if slope == INFINITY else (F(slope), F(1))
    if not up:
        dx, dy = -dx, -dy
    j, x, y = start.square, start.x, start.y
    if x == 0 and y == 0 and o.cone_at(j, BL):
        raise StartOnSingularLeaf("start on a cone")
    # a flow along an edge runs in the square on its right, looking forward
    if x == 0 and (dx < 0 or (dx == 0 and not up)):
        j, x = o.hinv(j), F(1)
    if y == 0 and (dy < 0 or (dy == 0 and not up)):
        j, y = o.vinv(j), F(1)

    events, pieces = [], []
    side = None                         # an edge the flow leaves at s = 0
    if x not in (0, 1):
        side = "bottom" if y == 0 and dy > 0 else \
            "top" if y == 1 and dy < 0 else None
    elif y not in (0, 1):
        side = "left" if x == 0 and dx > 0 else \
            "right" if x == 1 and dx < 0 else None
    if side is not None:
        events.append(Event(F(0), side, j, j, o.edge_class_of(j, side),
                            x if side in ("top", "bottom") else y,
                            initial=True))

    s, n, status = F(0), 0, "ok"
    while crossings is None or n < crossings:
        t = min((1 - x) / dx if dx > 0 else x / -dx if dx < 0 else 2,
                (1 - y) / dy if dy > 0 else y / -dy if dy < 0 else 2)
        if span is not None and s + t > span:
            t = span - s
            if t:
                pieces.append((j, x, y, x + dx * t, y + dy * t))
            x, y, s = x + dx * t, y + dy * t, span
            break
        x1, y1 = x + dx * t, y + dy * t
        pieces.append((j, x, y, x1, y1))
        s, n = s + t, n + 1
        nxt, x, y = j, x1, y1
        if dx and x1 in (0, 1):
            nxt, x = (o.h(nxt), F(0)) if x1 == 1 else (o.hinv(nxt), F(1))
        if dy and y1 in (0, 1):
            nxt, y = (o.v(nxt), F(0)) if y1 == 1 else (o.vinv(nxt), F(1))
        if x1 in (0, 1) and y1 in (0, 1):
            vid = o.vertex_at(j, ("T" if y1 == 1 else "B")
                              + ("R" if x1 == 1 else "L"))
            cone = o.vertex_is_cone[vid]
            events.append(Event(s, "corner", j, j if cone else nxt, None,
                                None, vid, cone))
            if cone:
                x, y = x1, y1
                status = "ok" if s == span else "cone"
                break
        else:
            side = ("right" if x1 == 1 else "left") if x1 in (0, 1) else \
                ("top" if y1 == 1 else "bottom")
            events.append(Event(s, side, j, nxt, o.edge_class_of(j, side),
                                y1 if side in ("left", "right") else x1))
        j = nxt
        if s == span:
            break
    return (events, pieces, status, canonical_point(o, j, x, y), s, n)


def _origami(n, h, v):
    try:
        return make_origami(n, h, v)
    except NotTransitive:
        assume(False)


origamis = st.one_of(
    st.sampled_from(BUILTINS),
    st.integers(1, 6).flatmap(lambda n: st.builds(
        _origami, st.just(n), st.permutations(range(n)),
        st.permutations(range(n)))))
slopes = st.one_of(st.sampled_from([INFINITY, F(0)]),
                   st.builds(F, st.integers(-12, 12), st.integers(1, 12)))
coords = st.one_of(st.just(F(0)),
                   st.builds(lambda d, k: F(k % d, d), st.integers(1, 12),
                             st.integers(0, 11)))
spans = st.one_of(st.none(),
                  st.builds(F, st.integers(0, 30), st.integers(1, 6)))


@settings(max_examples=400, deadline=None)
@given(origamis, slopes, st.integers(0, 11), coords, coords, st.booleans(),
       spans, st.one_of(st.none(), st.integers(0, 40)))
def test_trace_matches_fraction_stepper(o, slope, sq, x, y, up, span, cap):
    assume(span is not None or cap is not None)
    start = SurfacePoint(sq % o.n, x, y)
    try:
        want = reference_trace(o, slope, start, up, span, cap)
    except StartOnSingularLeaf:
        with pytest.raises(StartOnSingularLeaf):
            trace(o, slope, start, up=up, span=span, crossings=cap)
        return
    res = trace(o, slope, start, up=up, span=span, crossings=cap,
                raise_on_cone=False)
    assert (res.events, res.pieces, res.status, res.end, res.span_done,
            res.crossings) == want


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(BUILTINS), slopes, st.integers(0, 11), coords, coords,
       st.booleans(), st.builds(F, st.integers(-2, 30), st.integers(1, 6)))
def test_segment_matches_fraction_stepper(o, slope, sq, x, y, up, span):
    start = SurfacePoint(sq % o.n, x, y)
    if span < 0:
        with pytest.raises(OutOfRange):
            Segment(o, start, slope, span, up=up)
        return
    try:
        events, pieces, status, end, span_done, _ = reference_trace(
            o, slope, start, up, span, None)
    except StartOnSingularLeaf:
        with pytest.raises(StartOnSingularLeaf):
            Segment(o, start, slope, span, up=up)
        return
    if status == "cone":
        message = f"^cone vertex at span {span_done} < {span}$"
        with pytest.raises(ConeVertexInInterior, match=message):
            Segment(o, start, slope, span, up=up)
        return
    seg = Segment(o, start, slope, span, up=up)
    assert seg.pieces == pieces
    assert seg.word == tuple(e.label for e in events
                             if e.kind != "corner" and e.label is not None)
    squares = {piece[0] for piece in pieces}
    if events:
        squares.add(events[-1].square_to)
    assert seg.squares() == squares
    assert seg.end == end


def test_hitting_crossings_count_whole_span_blocks():
    # crossings run to the end of the 32-unit span block that contains T
    xo = builtin_ornithorynque()
    start = SurfacePoint(0, F(3, 16), F(5, 16))
    rec, _, _ = r_dense_time(xo, "golden", start, F(1, 64), time_cap=5000)
    alpha = F(rec.pN, rec.qN)
    assert rec.crossings == 362
    assert trace(xo, alpha, start, span=rec.T_span).crossings == 340
    block_end = -(-rec.T_span // 32) * 32
    assert trace(xo, alpha, start, span=block_end).crossings == 362

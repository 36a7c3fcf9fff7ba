"""The integer crossing kernel behind `trace` and `Segment`, against a short
stepper that uses Fractions only and against the kernel as it was when it
tested its direction on every crossing and traced a downward flow upward
on the half-turned surface, and the crossing count that hitting records
pin."""

from fractions import Fraction as F
from itertools import islice
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from origamilab.errors import (ConeVertexInInterior, GridError, OutOfRange,
                               StartOnSingularLeaf)
from origamilab.flow import (INFINITY, Event, Segment, _crossings,
                             _exact_div, _grid_denominator, _off_grid, trace)
from origamilab.cfrac import parse_slope_spec
from origamilab.hitting import r_dense_time
from origamilab.origami import (BL, BR, TL, TR, GluingView, SurfacePoint,
                                builtin_genus2_L, builtin_ornithorynque,
                                builtin_torus, canonical_point, slope_pair)
from surface_strategies import gluing_views, transitive_origamis

BUILTINS = (builtin_ornithorynque(), builtin_genus2_L(), builtin_torus())


def reference_trace(o, slope, start, up, span, crossings):
    """(events, pieces, status, end, span_done, crossings) of the flow moving
    by (dx, dy) per unit span from the canonical form of the start, stepped
    square by square in Fractions. Each event's letter is the letter whose
    edge has the event's edge id."""
    letter_of = {o.edge_id(j, side): letter
                 for letter, (j, side) in o.letters.items()}
    dx, dy = (F(1), F(0)) if slope == INFINITY else (F(slope), F(1))
    if not up:
        dx, dy = -dx, -dy
    start = canonical_point(o, start.square, start.x, start.y)
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
        edge = o.edge_id(j, side)
        events.append(Event(F(0), side, j, j, edge,
                            x if side in ("top", "bottom") else y,
                            initial=True, label=letter_of.get(edge)))

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
            vid = o._vertex_of[("T" if y1 == 1 else "B")
                               + ("R" if x1 == 1 else "L")][j]
            cone = o.vertex_is_cone[vid]
            events.append(Event(s, "corner", j, j if cone else nxt, None,
                                None, cone))
            if cone:
                x, y = x1, y1
                status = "ok" if s == span else "cone"
                break
        else:
            side = ("right" if x1 == 1 else "left") if x1 in (0, 1) else \
                ("top" if y1 == 1 else "bottom")
            edge = o.edge_id(j, side)
            events.append(Event(s, side, j, nxt, edge,
                                y1 if side in ("left", "right") else x1,
                                label=letter_of.get(edge)))
        j = nxt
        if s == span:
            break
    return (events, pieces, status, canonical_point(o, j, x, y), s, n)


def reference_crossings(surface, j, X, Y, p, q, M, stop=None):
    """`_crossings` as it was when it tested q == 0, p == 0 and the sign
    of p, and compared side names, on every crossing: the reference for
    the kernel that picks its direction case once per call."""
    h, v, hinv = surface.h.images, surface.v.images, surface.hinv.images
    corner = BR if q == 0 else TR if p > 0 else TL    # the flow's exit
    if p < 0 and X == 0:        # leaving leftward: right edge of hinv(j)
        j, X = hinv[j], M
    s = 0
    while True:
        if q == 0:
            dS = M - X
            kind = "corner" if Y == 0 else "right"
            X1, Y1 = M, Y
        elif p == 0:
            dS = M - Y
            kind = "corner" if X == 0 else "top"
            X1, Y1 = X, M
        elif p > 0:
            lhs, rhs = p * (M - Y), q * (M - X)
            if lhs < rhs:
                dS = M - Y
                kind = "top"
                dX, r = divmod(lhs, q)
                if r:
                    raise _off_grid(lhs, q)
                X1, Y1 = X + dX, M
            elif lhs > rhs:
                dS, r = divmod(rhs, p)
                if r:
                    raise _off_grid(rhs, p)
                kind = "right"
                X1, Y1 = M, Y + dS
            else:
                dS = M - Y
                kind = "corner"
                X1, Y1 = M, M
        else:
            lhs, rhs = -p * (M - Y), q * X
            if lhs < rhs:
                dS = M - Y
                kind = "top"
                dX, r = divmod(lhs, q)
                if r:
                    raise _off_grid(lhs, q)
                X1, Y1 = X - dX, M
            elif lhs > rhs:
                dS, r = divmod(rhs, -p)
                if r:
                    raise _off_grid(rhs, -p)
                kind = "left"
                X1, Y1 = 0, Y + dS
            else:
                dS = M - Y
                kind = "corner"
                X1, Y1 = 0, M

        if stop is not None and s + dS > stop:
            rem = stop - s
            if rem:
                if q == 0:
                    yield j, X, Y, X + rem, Y, stop, None, j
                else:
                    yield (j, X, Y, X + _exact_div(p * rem, q), Y + rem,
                           stop, None, j)
            return
        s += dS

        if kind == "top":
            j_next, Xn, Yn = v[j], X1, 0
        elif kind == "right":
            j_next, Xn, Yn = h[j], 0, Y1
        elif kind == "left":
            j_next, Xn, Yn = hinv[j], M, Y1
        elif surface.vertex_is_cone[surface._vertex_of[corner][j]]:
            yield j, X, Y, X1, Y1, s, kind, None
            return
        elif q == 0:
            j_next, Xn, Yn = h[j], 0, 0
        elif p == 0:
            j_next, Xn, Yn = v[j], 0, 0
        elif p > 0:
            j_next, Xn, Yn = v[h[j]], 0, 0
        else:
            j_next, Xn, Yn = hinv[v[j]], M, 0
        yield j, X, Y, X1, Y1, s, kind, j_next
        if s == stop:
            return
        j, X, Y = j_next, Xn, Yn


origamis = st.one_of(st.sampled_from(BUILTINS), transitive_origamis(6))
slopes = st.one_of(st.sampled_from([INFINITY, F(0)]),
                   st.builds(F, st.integers(-12, 12), st.integers(1, 12)))
# closed-interval coordinates: x = 1 or y = 1 names a point of the
# neighbouring square
coords = st.one_of(st.sampled_from([F(0), F(1)]),
                   st.builds(lambda d, k: F(k % (d + 1), d),
                             st.integers(1, 12), st.integers(0, 12)))
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
    res = trace(o, slope, start, up=up, span=span, crossings=cap)
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
        events, pieces, status, _, span_done, _ = reference_trace(
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
    M = seg.M
    assert seg.grid_pieces == [(j, x0 * M, y0 * M, x1 * M, y1 * M)
                               for j, x0, y0, x1, y1 in pieces]
    assert seg.word == tuple(e.label for e in events
                             if e.kind != "corner" and e.label is not None)
    squares = {piece[0] for piece in pieces}
    if events:
        squares.add(events[-1].square_to)
    assert seg.squares() == squares


def _outcome(make):
    """What `make()` returns, or the type and message of the error it
    raises."""
    try:
        return make()
    except (ConeVertexInInterior, StartOnSingularLeaf) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(origamis, slopes, st.integers(0, 11), coords, coords, st.booleans(),
       st.builds(F, st.integers(0, 30), st.integers(1, 6)),
       st.one_of(st.none(), st.integers(0, 40)))
def test_every_representation_traces_as_the_canonical_point(o, slope, sq, x,
                                                            y, up, span, cap):
    # x = 1 or y = 1 names the point of the neighbouring square, so a start
    # traces as canonical_point of it, and on a cone vertex is refused
    start = SurfacePoint(sq % o.n, x, y)
    canonical = canonical_point(o, start.square, x, y)

    def traced(pt):
        return _outcome(lambda: trace(o, slope, pt, up=up, span=span,
                                      crossings=cap))

    def segment(pt):
        seg = Segment(o, pt, slope, span, up=up)
        return seg.M, seg.grid_pieces, seg.word, seg.squares()

    assert traced(start) == traced(canonical)
    assert _outcome(lambda: segment(start)) == \
        _outcome(lambda: segment(canonical))


def test_hitting_crossings_count_whole_span_blocks():
    # crossings run to the end of the 32-unit span block that contains T
    xo = builtin_ornithorynque()
    start = SurfacePoint(0, F(3, 16), F(5, 16))
    rec, _ = r_dense_time(xo, parse_slope_spec("golden"), start, F(1, 64),
                          time_cap=5000)
    alpha = F(rec.pN, rec.qN)
    assert rec.crossings == 362
    assert trace(xo, alpha, start, span=rec.T_span).crossings == 340
    block_end = -(-rec.T_span // 32) * 32
    assert trace(xo, alpha, start, span=block_end).crossings == 362


def _kernel_run(kernel, *args):
    """The first 80 tuples the kernel yields, and the message of the
    GridError that ends them, if one does."""
    out = []
    try:
        for item in islice(kernel(*args), 80):
            out.append(item)
    except GridError as exc:
        return out, str(exc)
    return out, None


surfaces = st.one_of(st.sampled_from(BUILTINS), gluing_views(6))
# closed-interval coordinates, 0 and 1 included, for starts on any side
closed = st.integers(1, 8).flatmap(
    lambda d: st.integers(0, d).map(lambda a: F(a, d)))


# the sides of a flow traced on the half-turned surface, in the own frame
_FLIP = {"top": "bottom", "bottom": "top", "left": "right", "right": "left",
         "corner": "corner", None: None}


def _turned_back(M, run):
    """A `_kernel_run` on the half-turned surface (h^-1, v^-1), in the own
    frame: square j stays square j, and (X, Y) is (M - X, M - Y)."""
    items, message = run
    return [(j, M - X0, M - Y0, M - X1, M - Y1, s, _FLIP[kind], j_next)
            for j, X0, Y0, X1, Y1, s, kind, j_next in items], message


def _on_grid(pt, M):
    return pt.square, pt.x.numerator * (M // pt.x.denominator), \
        pt.y.numerator * (M // pt.y.denominator)


@settings(max_examples=1500, deadline=None)
@given(surfaces, slopes, st.integers(0, 11), closed, closed, st.booleans(),
       st.booleans(), st.integers(1, 3), st.data())
def test_kernel_matches_per_crossing_dispatch(o, slope, sq, x, y, down,
                                              on_grid, k, data):
    # every direction case: upward against the reference, and downward,
    # from a canonical start off any cone, against the reference traced
    # upward on the walked half turn from the same point made canonical
    # there, turned back; an M off the grid must fail at the same crossing
    p, q = slope_pair(slope)
    d = lcm(x.denominator, y.denominator)
    M = k * (_grid_denominator(p, q, d) if on_grid else d)
    if down:
        start = canonical_point(o, sq % o.n, x, y)
        assume(start.x or start.y or not o.cone_at(start.square, BL))
        turned = GluingView(o.hinv, o.vinv)
        args = (o, *_on_grid(start, M), -p, -q, M)
        ref_args = (turned, *_on_grid(canonical_point(
            turned, start.square, 1 - start.x, 1 - start.y), M), p, q, M)

        def reference(*stop):
            return _turned_back(M, _kernel_run(reference_crossings,
                                               *ref_args, *stop))
    else:
        args = (o, *_on_grid(SurfacePoint(sq % o.n, x, y), M), p, q, M)

        def reference(*stop):
            return _kernel_run(reference_crossings, *args, *stop)
    want = reference()
    assert _kernel_run(_crossings, *args) == want
    # a stop anywhere, or on one of the crossings
    spans = [c[5] for c in want[0]]
    stop = data.draw(st.one_of(st.integers(0, 20 * M),
                               st.sampled_from(spans or [0])))
    assert _kernel_run(_crossings, *args, stop) == reference(stop)

import random
from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from origamilab.cfrac import g_matrix
from origamilab.cylinders import InducedDecomposition
from origamilab.errors import (ConeVertexInInterior, HitsConeVertex,
                               NotTransitive, OutOfRange,
                               StartOnSingularLeaf)
from origamilab.flow import (INFINITY, Segment, cutting_sequence,
                             segments_intersect, span_for_length_at_least,
                             trace)
from origamilab.origami import (TR, Origami, SurfacePoint, builtin_genus2_L,
                                builtin_ornithorynque, builtin_torus,
                                canonical_point, make_origami)
from origamilab.sl2 import ReflectionMap
from origamilab.verify import point_on_segment


def test_torus_half_slope_pattern():
    # slope 1/2 upward: x advances 1/2 per unit y, so two top crossings per
    # right crossing, cyclically
    t = builtin_torus()
    res = trace(t, F(1, 2), SurfacePoint(0, F(1, 8), F(1, 8)), crossings=12)
    kinds = [e.kind for e in res.events if not e.initial]
    assert len(kinds) == 12
    assert kinds.count("top") == 8 and kinds.count("right") == 4
    for i in range(len(kinds) - 3):
        window = kinds[i:i + 3]
        assert window.count("top") == 2 and window.count("right") == 1


def test_zero_span_trace():
    xo = builtin_ornithorynque()
    res = trace(xo, F(1, 3), SurfacePoint(2, F(1, 3), F(1, 3)), span=F(0))
    assert res.events == [] and res.span_done == 0


def test_xo_vertical_closed_geodesic():
    xo = builtin_ornithorynque()
    a0 = xo.class_of_label(("A", 0))
    (top_sq, _), _ = a0.incidences
    start = canonical_point(xo, top_sq, F(1, 2), F(1))
    res = trace(xo, F(0), start, span=F(6))
    assert res.end == start
    letters = [e.label for e in res.events if e.label is not None]
    assert letters == [("A", 0), ("A", 1), ("A", 2), ("A", 0)]
    assert sum(p[4] - p[2] for p in res.pieces) == 6


def test_piece_count_slope_third():
    # start on a bottom edge, rise exactly 6: 6 horizontal + 2 vertical
    # crossings cut the segment into 8 pieces
    xo = builtin_ornithorynque()
    seg = Segment(xo, SurfacePoint(0, F(1, 5), F(0)), F(1, 3), F(6))
    assert len(seg.pieces) == 8
    res = trace(xo, F(1, 3), SurfacePoint(0, F(1, 5), F(0)), span=F(6))
    kinds = [e.kind for e in res.events if not e.initial]
    assert kinds.count("top") == 6 and kinds.count("right") == 2
    assert sum(p[4] - p[2] for p in seg.pieces) == 6
    assert seg.length_squared == 36 * F(10, 9)


def test_single_piece_short_segment():
    xo = builtin_ornithorynque()
    seg = Segment(xo, SurfacePoint(0, F(1, 2), F(1, 2)), F(1, 3), F(1, 4))
    assert len(seg.pieces) == 1
    assert cutting_sequence(seg).word == ()


def test_cone_vertex_interior_rejected():
    xo = builtin_ornithorynque()
    j = next(j for j in range(12) if xo.cone_at(j, TR))
    with pytest.raises(ConeVertexInInterior):
        Segment(xo, SurfacePoint(j, F(1, 2), F(1, 2)), F(1), F(1))
    # endpoint exactly at the cone is allowed
    seg = Segment(xo, SurfacePoint(j, F(1, 2), F(1, 2)), F(1), F(1, 2))
    assert len(seg.pieces) == 1


def test_regular_vertex_passthrough():
    # tile centers are regular: the diagonal through one continues
    xo = builtin_ornithorynque()
    j = next(j for j in range(12) if not xo.cone_at(j, TR))
    res = trace(xo, F(1), SurfacePoint(j, F(1, 4), F(1, 4)), span=F(3, 2))
    assert res.status == "ok"
    corner = [e for e in res.events if e.kind == "corner"]
    assert corner and not corner[0].is_cone


def test_singular_start_rejected():
    xo = builtin_ornithorynque()
    j = next(j for j in range(12) if xo.cone_at(j, "BL"))
    with pytest.raises(StartOnSingularLeaf):
        trace(xo, F(1, 3), SurfacePoint(j, F(0), F(0)), span=F(1))


def test_hits_cone_vertex_truncated():
    xo = builtin_ornithorynque()
    j = next(j for j in range(12) if xo.cone_at(j, TR))
    with pytest.raises(HitsConeVertex) as exc:
        trace(xo, F(1), SurfacePoint(j, F(1, 2), F(1, 2)), span=F(4))
    tr = exc.value.trace
    assert tr.status == "cone"
    assert tr.span_done == F(1, 2)


@pytest.mark.parametrize("up", [True, False], ids=["up", "down"])
def test_start_outside_the_square_raises(up):
    # an upward trace used to run from x = 2 and return a point of square 6
    xo = builtin_ornithorynque()
    start = SurfacePoint(0, F(2), F(1, 3))
    with pytest.raises(OutOfRange):
        trace(xo, F(1, 2), start, crossings=5, up=up)
    with pytest.raises(OutOfRange):
        Segment(xo, start, F(1, 2), F(3), up=up)


def test_span_for_length():
    s = span_for_length_at_least(F(1, 2), 17)
    assert s * s * (1 + F(1, 4)) >= 289
    assert (s - F(1, 8)) ** 2 * (1 + F(1, 4)) < 289
    assert span_for_length_at_least(INFINITY, F(7, 2)) == F(7, 2)


def reference_span_for_length_at_least(slope, length, denominator=None):
    """The span formula on Fraction arithmetic, as it was written first."""
    length = F(length)
    if slope == INFINITY:
        return length
    slope = F(slope)
    D = denominator or max(8, slope.denominator)
    t = length ** 2 / (1 + slope ** 2) * D ** 2
    k = 0 if t <= 0 else isqrt(t.numerator // t.denominator)
    while k * k * t.denominator < t.numerator:
        k += 1
    return F(k, D)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.just(INFINITY), st.integers(-9, 9),
                 st.builds(F, st.integers(-60, 60), st.integers(1, 40))),
       st.one_of(st.integers(0, 40), st.builds(F, st.integers(0, 90),
                                               st.integers(1, 12))),
       st.one_of(st.none(), st.integers(1, 70)))
def test_span_for_length_matches_fraction_formula(slope, length, denominator):
    got = span_for_length_at_least(slope, length, denominator)
    assert got == reference_span_for_length_at_least(slope, length,
                                                     denominator)
    assert type(got) is F


def _transitive(n, h, v):
    try:
        return make_origami(n, h, v)
    except NotTransitive:
        assume(False)


def _pulled_back(quotients, base):
    # the unlabelled surface Y = A^-1 . X of an induced decomposition
    dec = InducedDecomposition(builtin_ornithorynque(), g_matrix(quotients),
                               base=base)
    return Origami(*dec.chart.chain[0])


surfaces = st.one_of(
    st.sampled_from([builtin_ornithorynque(), builtin_genus2_L(),
                     builtin_torus()]),
    st.integers(1, 8).flatmap(lambda n: st.builds(
        _transitive, st.just(n), st.permutations(range(n)),
        st.permutations(range(n)))),
    st.builds(_pulled_back, st.lists(st.integers(1, 4), min_size=1,
                                     max_size=4),
              st.sampled_from(["vertical", "horizontal"])))


def _downward(o, start, slope, span):
    try:
        seg = Segment(o, start, slope, span, up=False)
    except (ConeVertexInInterior, StartOnSingularLeaf) as exc:
        return type(exc), str(exc)
    return seg.M, seg.grid_pieces, seg.word, seg.end, seg.final_square


@settings(max_examples=300, deadline=None)
@given(surfaces, st.one_of(st.just(INFINITY), st.builds(
           F, st.integers(-12, 12), st.integers(1, 8))),
       st.integers(0, 11), st.integers(0, 8), st.integers(0, 8),
       st.builds(F, st.integers(0, 40), st.integers(1, 4)))
def test_downward_segment_on_view_matches_validated_half_turn(
        o, slope, sq, a, b, span):
    start = SurfacePoint(sq % o.n, F(a, 8), F(b, 8))
    got = _downward(o, start, slope, span)
    # the reference traces on a validated Origami(h^-1, v^-1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Origami, "half_turn",
                   lambda self: Origami(self.hinv, self.vinv))
        want = _downward(o, start, slope, span)
    assert got == want


def test_reversal_word():
    xo = builtin_ornithorynque()
    rng = random.Random(6)
    for _ in range(20):
        slope = F(rng.randrange(1, 12), rng.randrange(12, 24))
        seg = Segment(xo, SurfacePoint(rng.randrange(12),
                                       F(rng.randrange(1, 32), 32),
                                       F(rng.randrange(1, 32), 32)),
                      slope, F(rng.randrange(3, 9)))
        rev = seg.reversed()
        w = cutting_sequence(seg).word
        wr = cutting_sequence(rev).word
        assert wr == tuple(reversed(w))
        assert rev.end == seg.start


def test_segment_end_built_on_first_read():
    xo = builtin_ornithorynque()
    start = SurfacePoint(3, F(1, 5), F(2, 7))
    for up in (True, False):
        seg = Segment(xo, start, F(2, 5), F(7, 2), up=up)
        assert "end" not in vars(seg)
        assert seg.end == trace(xo, F(2, 5), start, up=up, span=F(7, 2)).end
        assert vars(seg)["end"] is seg.end
    still = Segment(xo, start, F(2, 5), F(0))
    assert still.end == start


def test_reflection_conjugates_words():
    xo = builtin_ornithorynque()
    f = ReflectionMap(xo)
    # induced letter relabeling: horizontal class of top(j) maps to the
    # class of top(sigma(j)); vertical class of right(j) to left(sigma(j))
    letter_map = {}
    for c in xo.edge_classes:
        if c.label is None:
            continue
        (j, side), _ = c.incidences
        if side == "top":
            img = xo.edge_class_of(f.sigma(j), "top")
        else:
            img = xo.edge_class_of(f.sigma(j), "left")
        letter_map[c.label] = img.label
    assert sorted(letter_map) == sorted(letter_map.values())
    assert f.letters == letter_map
    rng = random.Random(9)
    for _ in range(15):
        slope = F(rng.randrange(1, 20), rng.randrange(4, 24))
        seg = Segment(xo, SurfacePoint(rng.randrange(12),
                                       F(rng.randrange(1, 16), 16),
                                       F(rng.randrange(1, 16), 16)),
                      slope, F(rng.randrange(2, 7)))
        img = Segment(xo, f.map_point(seg.start), -slope, seg.span, up=seg.up)
        w = cutting_sequence(seg).word
        wi = cutting_sequence(img).word
        assert wi == tuple(letter_map[l] for l in w)


def test_intersection_basics():
    xo = builtin_ornithorynque()
    d1 = Segment(xo, SurfacePoint(0, F(0), F(0)), F(1), F(1))
    d2 = Segment(xo, SurfacePoint(0, F(1), F(0)), F(-1), F(1))
    w = segments_intersect(d1, d2)
    assert w == SurfacePoint(0, F(1, 2), F(1, 2))
    assert segments_intersect(d1, d1) is not None
    assert point_on_segment(d1, w) and point_on_segment(d2, w)


def test_intersection_witness_on_both():
    xo = builtin_ornithorynque()
    rng = random.Random(14)
    found = 0
    for _ in range(40):
        try:
            s1 = Segment(xo, SurfacePoint(rng.randrange(12),
                                          F(rng.randrange(1, 16), 16),
                                          F(rng.randrange(1, 16), 16)),
                         F(rng.randrange(1, 10), 11), F(rng.randrange(2, 6)))
            s2 = Segment(xo, SurfacePoint(rng.randrange(12),
                                          F(rng.randrange(1, 16), 16),
                                          F(rng.randrange(1, 16), 16)),
                         F(-rng.randrange(12, 30), 11), F(rng.randrange(2, 6)))
        except ConeVertexInInterior:
            continue
        w = segments_intersect(s1, s2)
        if w is not None:
            found += 1
            assert point_on_segment(s1, w) and point_on_segment(s2, w)
    assert found > 5


def test_shadowing_on_torus():
    # two nearby slopes from one start stay within delta * span of each other
    t = builtin_torus()
    s1, s2 = F(3, 8), F(3, 8) + F(1, 1024)
    start = SurfacePoint(0, F(1, 7), F(2, 7))
    span = F(40)
    r1 = trace(t, s1, start, span=span)
    r2 = trace(t, s2, start, span=span)
    delta = s2 - s1
    dx = (r2.end.x - r1.end.x) % 1
    dist = min(dx, 1 - dx)
    assert dist <= delta * span
    assert r1.end.y == r2.end.y


def test_horizontal_trace():
    g2 = builtin_genus2_L()
    res = trace(g2, INFINITY, SurfacePoint(0, F(1, 3), F(1, 2)), span=F(4))
    assert all(e.kind in ("right", "left") for e in res.events if not e.initial)
    assert sum(p[3] - p[1] for p in res.pieces) == 4


def test_down_orientation():
    xo = builtin_ornithorynque()
    start = SurfacePoint(3, F(1, 3), F(2, 3))
    up = trace(xo, F(2, 5), start, span=F(5))
    down_back = trace(xo, F(2, 5), up.end, up=False, span=F(5))
    assert down_back.end == start


# -- the integer readers against the Fraction versions they replaced ----------

def reference_common_point(a, b, c, d):
    """A common point of closed planar segments ab and cd, or None, in
    Fractions throughout."""
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = a, b, c, d
    rx, ry = bx - ax, by - ay
    sx, sy = dx - cx, dy - cy
    denom = rx * sy - ry * sx
    qpx, qpy = cx - ax, cy - ay
    if denom != 0:
        t = F(qpx * sy - qpy * sx, denom)
        u = F(qpx * ry - qpy * rx, denom)
        if 0 <= t <= 1 and 0 <= u <= 1:
            return (ax + t * rx, ay + t * ry)
        return None
    if qpx * ry - qpy * rx != 0:
        return None

    def on(px, py, ax, ay, bx, by):
        return ((bx - ax) * (py - ay) == (by - ay) * (px - ax)
                and min(ax, bx) <= px <= max(ax, bx)
                and min(ay, by) <= py <= max(ay, by))

    if rx == 0 and ry == 0:
        return (ax, ay) if on(ax, ay, cx, cy, dx, dy) else None
    if sx == 0 and sy == 0:
        return (cx, cy) if on(cx, cy, ax, ay, bx, by) else None
    dot_r = rx * rx + ry * ry
    t0 = F((cx - ax) * rx + (cy - ay) * ry, dot_r)
    t1 = F((dx - ax) * rx + (dy - ay) * ry, dot_r)
    lo = max(min(t0, t1), F(0))
    hi = min(max(t0, t1), F(1))
    if lo > hi:
        return None
    return (ax + lo * rx, ay + lo * ry)


def reference_intersect(seg1, seg2):
    """The first common point over the Fraction pieces, in the same order."""
    by_square = {}
    for piece in seg1.pieces:
        by_square.setdefault(piece[0], []).append(piece)
    for j, x0, y0, x1, y1 in seg2.pieces:
        for other in by_square.get(j, ()):
            pt = reference_common_point(other[1:3], other[3:5], (x0, y0),
                                        (x1, y1))
            if pt is not None:
                return canonical_point(seg1.origami, j, pt[0], pt[1])
    return None


def reference_point_on_segment(segment, pt):
    o = segment.origami
    reps = {(pt.square, pt.x, pt.y)}
    if pt.x == 0:
        reps.add((o.hinv(pt.square), F(1), pt.y))
    if pt.y == 0:
        reps.add((o.vinv(pt.square), pt.x, F(1)))
    if pt.x == 0 and pt.y == 0:
        reps.add((o.vinv(o.hinv(pt.square)), F(1), F(1)))
    return any(sq == j and (x1 - x0) * (py - y0) == (y1 - y0) * (px - x0)
               and min(x0, x1) <= px <= max(x0, x1)
               and min(y0, y1) <= py <= max(y0, y1)
               for (j, x0, y0, x1, y1) in segment.pieces
               for (sq, px, py) in reps)


BUILTINS = (builtin_ornithorynque(), builtin_genus2_L(), builtin_torus())
slopes = st.one_of(st.sampled_from([INFINITY, F(0)]),
                   st.builds(F, st.integers(-12, 12), st.integers(1, 12)))
coords = st.one_of(st.just(F(0)),
                   st.builds(lambda d, k: F(k % d, d), st.integers(1, 16),
                             st.integers(0, 15)))
spans = st.builds(F, st.integers(0, 24), st.integers(1, 6))


def _segment(o, start, slope, span, up):
    try:
        return Segment(o, start, slope, span, up=up)
    except (ConeVertexInInterior, StartOnSingularLeaf):
        assume(False)


@st.composite
def segment_pairs(draw):
    """Two segments on one builtin: unrelated, on one line (overlapping,
    touching or with a gap), touching at an endpoint, or identical."""
    o = draw(st.sampled_from(BUILTINS))
    seg1 = _segment(o, SurfacePoint(draw(st.integers(0, o.n - 1)),
                                    draw(coords), draw(coords)),
                    draw(slopes), draw(spans), draw(st.booleans()))
    kind = draw(st.sampled_from(("random", "collinear", "gap", "touching",
                                 "identical")))
    if kind == "identical":
        return seg1, Segment(o, seg1.start, seg1.slope, seg1.span, seg1.up)
    if kind == "random":
        start = SurfacePoint(draw(st.integers(0, o.n - 1)), draw(coords),
                             draw(coords))
    elif kind == "gap":
        gap = draw(st.builds(F, st.integers(1, 4), st.just(16)))
        start = _segment(o, seg1.end, seg1.slope, gap, seg1.up).end
    else:
        start = draw(st.sampled_from((seg1.start, seg1.end)))
    slope = draw(slopes) if kind in ("random", "touching") else seg1.slope
    return seg1, _segment(o, start, slope, draw(spans), draw(st.booleans()))


@settings(max_examples=400, deadline=None)
@given(segment_pairs())
def test_intersection_matches_fraction_reference(pair):
    seg1, seg2 = pair
    for a, b in ((seg1, seg2), (seg2, seg1)):
        w = segments_intersect(a, b)
        assert w == reference_intersect(a, b)
        if w is not None:
            assert point_on_segment(a, w) and point_on_segment(b, w)


@settings(max_examples=300, deadline=None)
@given(segment_pairs(), st.integers(0, 11), coords, coords)
def test_point_on_segment_matches_fraction_reference(pair, sq, x, y):
    seg, other = pair
    o = seg.origami
    points = [SurfacePoint(sq % o.n, x, y), other.start, other.end, seg.end]
    points += [canonical_point(o, j, (x0 + x1) / 2, (y0 + y1) / 2)
               for j, x0, y0, x1, y1 in seg.pieces[:3]]
    for pt in points:
        assert point_on_segment(seg, pt) == reference_point_on_segment(seg, pt)

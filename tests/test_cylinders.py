import random
from copy import copy
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from origamilab.cfrac import g_matrix
from origamilab.cylinders import (InducedDecomposition, VerticalDecomposition,
                                  horizontal_cylinders, identity_decomposition,
                                  transversal_bound, trapping_window,
                                  vertical_cylinders)
from origamilab.errors import (ConeVertexInInterior, ParallelToDecomposition,
                               PreconditionViolated, StartOnSingularLeaf)
from origamilab.flow import INFINITY, Segment, trace
from origamilab.origami import (BL, BR, TL, TR, GluingView, Origami,
                                SurfacePoint, builtin_genus2_L,
                                builtin_ornithorynque, builtin_torus)
from origamilab.sl2 import (MAT_V, AffineChart, act_word, decompose,
                            evaluate_word, invert_word)


def brute_vertical_strips(v_images):
    """Oracle: v-cycles by direct list walking."""
    n = len(v_images)
    seen = [False] * n
    strips = []
    for i in range(n):
        if seen[i]:
            continue
        c = [i]
        seen[i] = True
        j = v_images[i]
        while j != i:
            seen[j] = True
            c.append(j)
            j = v_images[j]
        strips.append(c)
    return strips


def test_xo_vertical_cylinders():
    xo = builtin_ornithorynque()
    cyls = vertical_cylinders(xo)
    assert len(cyls) == 2
    assert all(c.length == 6 and c.width == 1 for c in cyls)
    assert sum(c.area for c in cyls) == 12
    names = {frozenset(xo.names[s] for s in c.squares) for c in cyls}
    plus = frozenset(f"({i},1,{b})" for i in range(3) for b in range(2))
    minus = frozenset(f"({i},0,{b})" for i in range(3) for b in range(2))
    assert names == {plus, minus}


def test_torus_and_genus2():
    assert [(c.length, c.width) for c in vertical_cylinders(builtin_torus())] \
        == [(1, 1)]
    g2 = builtin_genus2_L()
    cyls = vertical_cylinders(g2)
    strips = brute_vertical_strips(list(g2.v.images))
    assert sorted(len(s) for s in strips) == sorted(c.length for c in cyls)
    assert sum(c.area for c in cyls) == 3
    hcyls = horizontal_cylinders(g2)
    assert sum(c.area for c in hcyls) == 3


def test_identity_induced_matches_vertical():
    xo = builtin_ornithorynque()
    dec = identity_decomposition(xo)
    assert dec.slope == 0
    assert [(c.length, c.width) for c in dec.cylinders] == \
        [(c.length, c.width) for c in vertical_cylinders(xo)]


def test_induced_by_V():
    # g(1) = V fixes the surface; the horizontal-base decomposition lands in
    # slope g(1).inf = 1/1 with the widths and lengths of the base
    xo = builtin_ornithorynque()
    dec = InducedDecomposition(xo, MAT_V, base="horizontal")
    assert dec.slope == 1
    assert sorted((c.length, c.width) for c in dec.cylinders) == [(6, 1), (6, 1)]
    assert sum(c.area for c in dec.cylinders) == 12


def test_membership_audit():
    # the chart image of a vertical closed geodesic of Y is a closed geodesic
    # of X in slope A.0
    xo = builtin_ornithorynque()
    m = g_matrix([1, 2])
    dec = InducedDecomposition(xo, m, base="vertical")
    p, q = dec.slope_pq()
    assert F(p, q) == F(m.b, m.d)
    yo = dec.vertical.origami
    cyl = dec.vertical.cylinders[0]
    anchor = SurfacePoint(cyl.strips[0][0], F(1, 3), F(1, 2))
    z0 = dec.chart.map_point(anchor)
    res = trace(xo, F(p, q), z0, span=cyl.length * q)
    assert res.status == "ok" and res.end == z0
    # sampled points of the vertical line map onto the traced geodesic
    from origamilab.verify import point_on_segment
    seg = Segment(xo, z0, F(p, q), cyl.length * q)
    for k in range(1, 6):
        w = dec.chart.map_point(SurfacePoint(cyl.strips[0][0], F(1, 3),
                                             F(1, 2) + F(k, 64)))
        assert point_on_segment(seg, w)


def test_transversal_bound_orthogonal():
    xo = builtin_ornithorynque()
    dec = identity_decomposition(xo)
    h = Segment(xo, SurfacePoint(0, F(1, 3), F(1, 2)), INFINITY, F(2))
    tb = transversal_bound(h, dec)
    assert tb.cos_squared == 1
    assert tb.width_sum == len(tb.crossed)
    assert tb.bound_squared == tb.width_sum ** 2
    assert tb.holds and tb.length_squared == 4


def test_transversal_bound_45_degrees():
    xo = builtin_ornithorynque()
    dec = identity_decomposition(xo)
    seg = Segment(xo, SurfacePoint(0, F(1, 3), F(1, 8)), F(1), F(3, 2))
    tb = transversal_bound(seg, dec)
    assert tb.cos_squared == F(1, 2)
    assert tb.bound_squared == 2 * tb.width_sum ** 2
    assert tb.holds


def test_transversal_bound_parallel_rejected():
    xo = builtin_ornithorynque()
    dec = identity_decomposition(xo)
    seg = Segment(xo, SurfacePoint(0, F(1, 3), F(1, 8)), F(0), F(2))
    with pytest.raises(ParallelToDecomposition):
        transversal_bound(seg, dec)


def test_transversal_bound_random_induced():
    from origamilab.errors import ConeVertexInInterior
    xo = builtin_ornithorynque()
    rng = random.Random(23)
    checked = 0
    while checked < 60:
        quots = [rng.randrange(1, 4) for _ in range(rng.randrange(1, 5))]
        m = g_matrix(quots)
        base = rng.choice(("vertical", "horizontal"))
        dec = InducedDecomposition(xo, m, base=base)
        p, q = dec.slope_pq()
        if abs(q) > 50:
            continue
        slope = F(rng.randrange(-40, 40), rng.randrange(1, 30))
        if slope == dec.slope:
            continue
        try:
            seg = Segment(xo, SurfacePoint(rng.randrange(12),
                                           F(rng.randrange(1, 32), 32),
                                           F(rng.randrange(1, 32), 32)),
                          slope, F(rng.randrange(1, 12)))
        except ConeVertexInInterior:
            continue
        tb = transversal_bound(seg, dec)
        assert tb.holds, (quots, base, slope, seg.start)
        checked += 1


def test_trapping_window_xo():
    xo = builtin_ornithorynque()
    dec = VerticalDecomposition(xo)
    pt = SurfacePoint(next(iter(
        c.strips[0] for c in dec.cylinders if 2 in c.squares or True))[0],
        F(0), F(1, 3))
    res = trapping_window(xo, dec, F(1, 10), pt)
    assert res.window_span == 10          # euclidean window sqrt(101)
    assert res.exit_span == 10
    assert res.stayed_through_window


def test_trapping_window_torus():
    t = builtin_torus()
    dec = VerticalDecomposition(t)
    res = trapping_window(t, dec, F(1, 3), SurfacePoint(0, F(0), F(1, 5)))
    assert res.stayed_through_window
    assert res.exit_span is None          # one cylinder: never leaves


def test_trapping_preconditions():
    xo = builtin_ornithorynque()
    dec = VerticalDecomposition(xo)
    with pytest.raises(PreconditionViolated):
        trapping_window(xo, dec, F(1, 2), SurfacePoint(0, F(0), F(1, 3)))
    with pytest.raises(PreconditionViolated):
        trapping_window(xo, dec, F(1, 10), SurfacePoint(0, F(1, 2), F(1, 3)))


def test_trapping_random_boundary_points():
    xo = builtin_ornithorynque()
    dec = VerticalDecomposition(xo)
    rng = random.Random(31)
    alpha = F(1, 12)
    done = 0
    while done < 30:
        cyl = dec.cylinders[rng.randrange(len(dec.cylinders))]
        sq = cyl.strips[0][rng.randrange(len(cyl.strips[0]))]
        pt = SurfacePoint(sq, F(0), F(rng.randrange(1, 97), 97))
        res = trapping_window(xo, dec, alpha, pt)
        assert res.stayed_through_window
        assert res.exit_span is None or res.exit_span >= res.window_span
        done += 1


def test_one_walk_chart_matches_two_walks():
    # the chart used to be built by walking X -> Y = A^-1 . X with
    # act_word, then walking Y -> X again inside AffineChart
    xo = builtin_ornithorynque()
    rng = random.Random(41)
    for _ in range(30):
        m = g_matrix([rng.randrange(1, 5) for _ in range(rng.randrange(0, 6))])
        base = rng.choice(("vertical", "horizontal"))
        dec = InducedDecomposition(xo, m, base=base)
        word = decompose(m)
        y = act_word(invert_word(word), xo)
        # the reference pulls segments back onto the validated Y
        ref = copy(dec)
        ref.chart, ref.y_view = AffineChart(y, word), y
        assert ref.chart.chain[-1] == (xo.h, xo.v)
        assert dec.chart.word == ref.chart.word
        assert dec.chart.chain == ref.chart.chain
        assert dec.y_origami.pair() == y.pair()
        swapped = y if base == "vertical" else Origami(y.v, y.h)
        ref.vertical = VerticalDecomposition(swapped)
        for _ in range(5):
            pt = SurfacePoint(rng.randrange(12), F(rng.randrange(32), 32),
                              F(rng.randrange(32), 32))
            assert dec.chart.map_point(pt) == ref.chart.map_point(pt)
            back = dec.chart.inverse().map_point(pt)
            assert back == ref.chart.inverse().map_point(pt)
            slope = F(rng.randrange(-20, 20), rng.randrange(1, 9))
            if slope == dec.slope:
                continue
            try:
                seg = Segment(xo, pt, slope, F(rng.randrange(1, 4)))
            except (ConeVertexInInterior, StartOnSingularLeaf):
                continue
            assert dec.crossing_sequence(seg) == ref.crossing_sequence(seg)


# -- the chart walk on validated Origamis, kept as the reference ---------------

def _origami_act(tok, o):
    h, v = {"T": (o.h, o.v * o.hinv), "T-": (o.h, o.v * o.h),
            "V": (o.h * o.vinv, o.v), "V-": (o.h * o.v, o.v)}[tok]
    return Origami(h, v, names=o.names)


def _origami_step(tok, o, pt):
    sq, x, y = pt.square, pt.x, pt.y
    if tok == "T":
        if x + y < 1:
            return SurfacePoint(sq, x + y, y)
        return SurfacePoint(o.h(sq), x + y - 1, y)
    if tok == "T-":
        if x >= y:
            return SurfacePoint(sq, x - y, y)
        return SurfacePoint(o.hinv(sq), x - y + 1, y)
    if tok == "V":
        if x + y < 1:
            return SurfacePoint(sq, x, x + y)
        return SurfacePoint(o.v(sq), x, x + y - 1)
    if y >= x:
        return SurfacePoint(sq, x, y - x)
    return SurfacePoint(o.vinv(sq), x, y - x + 1)


class OrigamiChainChart:
    """One validated Origami per generator token; every step reads the
    neighbouring squares from the Origami it starts on."""

    def __init__(self, origami, word, chain=None):
        self.word = tuple(word)
        if chain is None:
            chain = [origami]
            for tok in reversed(self.word):
                chain.append(_origami_act(tok, chain[-1]))
        self.chain = tuple(chain)

    @property
    def matrix(self):
        return evaluate_word(self.word)

    def map_point(self, pt):
        for tok, o in zip(reversed(self.word), self.chain):
            pt = _origami_step(tok, o, pt)
        return pt

    def inverse(self):
        return OrigamiChainChart(None, invert_word(self.word),
                                 self.chain[::-1])


SURFACES = (builtin_ornithorynque(), builtin_genus2_L())
G_MATRICES = st.lists(st.integers(1, 4), max_size=5).map(g_matrix)
WORD_MATRICES = st.lists(st.sampled_from(("T", "T-", "V", "V-")),
                         max_size=8).map(evaluate_word)
UNIT = st.sampled_from([2, 3, 32, 97]).flatmap(
    lambda d: st.integers(0, d - 1).map(lambda a: F(a, d)))


@settings(max_examples=150, deadline=None)
@given(origami=st.sampled_from(SURFACES),
       m=st.one_of(G_MATRICES, WORD_MATRICES),
       base=st.sampled_from(("vertical", "horizontal")),
       data=st.data())
def test_permutation_chart_matches_origami_chain(origami, m, base, data):
    dec = InducedDecomposition(origami, m, base=base)
    # the reference pulls segments back onto the validated Y
    ref = copy(dec)
    ref.chart = OrigamiChainChart(origami,
                                  invert_word(decompose(m))).inverse()
    y = ref.y_view = ref.chart.chain[0]
    ref.vertical = VerticalDecomposition(
        y if base == "vertical" else Origami(y.v, y.h, names=y.names))
    assert [(h.images, v.images) for h, v in dec.chart.chain] == \
        [o.pair() for o in ref.chart.chain]
    assert dec.y_origami.pair() == y.pair()
    pt = SurfacePoint(data.draw(st.integers(0, origami.n - 1)),
                      data.draw(UNIT), data.draw(UNIT))
    assert dec.chart.map_point(pt) == ref.chart.map_point(pt)
    assert dec.chart.inverse().map_point(pt) == \
        ref.chart.inverse().map_point(pt)
    slope = F(data.draw(st.integers(-20, 20)), data.draw(st.integers(1, 8)))
    if slope == dec.slope:
        return
    try:
        seg = Segment(origami, pt, slope, F(data.draw(st.integers(1, 3))))
    except (ConeVertexInInterior, StartOnSingularLeaf):
        return
    assert dec.crossing_sequence(seg) == ref.crossing_sequence(seg)


def _vertex_partition(surface):
    classes = {}
    for sq in range(surface.n):
        for corner in (BL, BR, TL, TR):
            classes.setdefault(surface.vertex_at(sq, corner), set()).add(
                (sq, corner))
    return {frozenset(c) for c in classes.values()}


@settings(max_examples=150, deadline=None)
@given(origami=st.sampled_from(SURFACES),
       m=st.one_of(G_MATRICES, WORD_MATRICES),
       base=st.sampled_from(("vertical", "horizontal")),
       data=st.data())
def test_gluing_view_matches_validated_origami(origami, m, base, data):
    dec = InducedDecomposition(origami, m, base=base)
    view = dec.y_view
    assert isinstance(view, GluingView)
    y = Origami(*dec.chart.chain[0], names=origami.names)
    for surface, ref in ((view, y), (view.half_turn(), y.half_turn()),
                         (view.diagonal_swap(), y.diagonal_swap())):
        assert (surface.h, surface.v, surface.hinv) == \
            (ref.h, ref.v, ref.hinv)
        assert all(surface.cone_at(sq, c) == ref.cone_at(sq, c)
                   for sq in range(y.n) for c in (BL, BR, TL, TR))
    assert _vertex_partition(view) == _vertex_partition(y)
    assert view.vertex_orders == y.vertex_orders
    assert view.edge_labels == {}
    ref = copy(dec)
    ref.y_view = y
    ref.vertical = VerticalDecomposition(
        y if base == "vertical" else y.diagonal_swap())
    assert dec.vertical.cylinders == ref.vertical.cylinders
    assert dec.vertical.position == ref.vertical.position
    pt = SurfacePoint(data.draw(st.integers(0, origami.n - 1)),
                      data.draw(UNIT), data.draw(UNIT))
    slope = data.draw(st.one_of(
        st.just(INFINITY),
        st.builds(F, st.integers(-20, 20), st.integers(1, 8))))
    if slope == dec.slope:
        return
    try:
        seg = Segment(origami, pt, slope, F(data.draw(st.integers(1, 3))),
                      up=data.draw(st.booleans()))
    except (ConeVertexInInterior, StartOnSingularLeaf):
        return
    assert dec.crossing_sequence(seg) == ref.crossing_sequence(seg)
    # the pull-back by the Fraction arithmetic it replaced, on the validated Y
    inv = m.inv()
    if seg.slope == INFINITY:
        vx, vy = F(inv.a), F(inv.c)
    else:
        vx, vy = inv.a * seg.slope + inv.b, inv.c * seg.slope + inv.d
    if not seg.up:
        vx, vy = -vx, -vy
    start = dec.chart.inverse().map_point(seg.start)
    want = Segment(y, start, INFINITY, abs(vx) * seg.span, up=vx > 0) \
        if vy == 0 else Segment(y, start, vx / vy, abs(vy) * seg.span,
                                up=vy > 0)
    got = dec.pull_back_segment(seg)
    assert (got.start, got.slope, got.span, got.up, got.grid_pieces,
            got.end) == (want.start, want.slope, want.span, want.up,
                         want.grid_pieces, want.end)


@pytest.mark.parametrize("base, built", [("vertical", 1), ("horizontal", 1)])
def test_origamis_built_per_induced_decomposition(monkeypatch, base, built):
    # crossing sequences build no surface: the surfaces the word passes
    # through stay permutation pairs, Y is a gluing view and the horizontal
    # base's diagonal swap a view of that; reading y_origami validates Y,
    # once
    xo, m = builtin_ornithorynque(), g_matrix([1, 2, 3])
    seg = Segment(xo, SurfacePoint(0, F(1, 3), F(1, 5)), F(2, 7), F(3))
    init, built_now = Origami.__init__, []

    def counting_init(self, *args, **kwargs):
        built_now.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Origami, "__init__", counting_init)
    dec = InducedDecomposition(xo, m, base=base)
    assert dec.slope_pq() and not built_now
    dec.crossing_sequence(seg)
    dec.crossing_sequence(seg)
    assert not built_now
    assert dec.y_origami.pair() == (dec.y_view.h.images,
                                    dec.y_view.v.images)
    assert len(built_now) == built
    dec.y_origami
    assert len(built_now) == built

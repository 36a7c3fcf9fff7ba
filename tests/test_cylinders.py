import dataclasses
import random
from copy import copy
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from origamilab import cylinders
from origamilab.cfrac import g_matrix
from origamilab.cylinders import (Cylinder, InducedDecomposition,
                                  TrappingResult, VerticalDecomposition,
                                  transversal_bound, trapping_window)
from origamilab.errors import (ConeVertexInInterior, NotTransitive,
                               ParallelToDecomposition, PreconditionViolated,
                               StartOnSingularLeaf)
from origamilab.flow import INFINITY, Segment, trace
from origamilab.origami import (BL, BR, TL, TR, GluingView, Origami,
                                SurfacePoint, builtin_genus2_L,
                                builtin_ornithorynque, builtin_torus,
                                make_origami, slope_pair)
from origamilab.perm import Permutation
from origamilab.sl2 import (MAT_ID, MAT_V, AffineChart, act_word, decompose,
                            evaluate_word, invert_word, projective_slope,
                            stretch_factor_squared)
from origamilab.verify import _reading_order, criterion_classify


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
    cyls = VerticalDecomposition(xo).cylinders
    assert len(cyls) == 2
    assert all(c.length == 6 and c.width == 1 for c in cyls)
    assert sum(c.area for c in cyls) == 12
    names = {frozenset(xo.names[s] for s in c.squares) for c in cyls}
    plus = frozenset(f"({i},1,{b})" for i in range(3) for b in range(2))
    minus = frozenset(f"({i},0,{b})" for i in range(3) for b in range(2))
    assert names == {plus, minus}


def test_torus_and_genus2():
    assert [(c.length, c.width)
            for c in VerticalDecomposition(builtin_torus()).cylinders] \
        == [(1, 1)]
    g2 = builtin_genus2_L()
    cyls = VerticalDecomposition(g2).cylinders
    strips = brute_vertical_strips(list(g2.v.images))
    assert sorted(len(s) for s in strips) == sorted(c.length for c in cyls)
    assert sum(c.area for c in cyls) == 3
    hcyls = InducedDecomposition(g2, MAT_ID, base="horizontal").cylinders
    assert sum(c.area for c in hcyls) == 3


# -- the strip merge by a left walk per strip, kept as the reference ----------

def reference_strip_merge(origami):
    """(cylinders, position) as the merge built them when it walked left
    from every unmerged strip to the start of its block."""
    strips = origami.v.cycles()
    strip_of = {sq: si for si, strip in enumerate(strips) for sq in strip}

    def right_neighbor(si):
        (ni,) = {strip_of[origami.h(sq)] for sq in strips[si]}
        return ni

    singular = [any(origami.cone_at(sq, BR) for sq in strip)
                for strip in strips]
    merged = [False] * len(strips)
    blocks = []
    for si in range(len(strips)):
        if merged[si]:
            continue
        start = si
        seen = {si}
        while True:
            lefts = [lj for lj in range(len(strips))
                     if not singular[lj] and right_neighbor(lj) == start]
            if not lefts or lefts[0] in seen:
                break
            start = lefts[0]
            seen.add(start)
        block = [start]
        merged[start] = True
        cur = start
        while not singular[cur]:
            nxt = right_neighbor(cur)
            if merged[nxt]:
                break
            block.append(nxt)
            merged[nxt] = True
            cur = nxt
        blocks.append(block)
    cylinders, position = [], {}
    for ci, block in enumerate(sorted(blocks, key=lambda b: min(
            min(strips[si]) for si in b))):
        block_strips = tuple(strips[si] for si in block)
        cylinders.append(Cylinder(
            index=ci, slope=F(0), length=len(block_strips[0]),
            width=len(block_strips),
            squares=frozenset(sq for st in block_strips for sq in st),
            strips=block_strips))
        for off, st in enumerate(block_strips):
            for sq in st:
                position[sq] = (ci, off)
    return cylinders, position


@st.composite
def strip_surfaces(draw):
    """Transitive origamis with n <= 9. One in three has h = id and one in
    three h a power of v, with v an n-cycle: tori, whose strips (in the
    diagonal swap) join across regular lines only, into one cycle."""
    n = draw(st.integers(1, 9))
    kind = draw(st.integers(0, 2))
    if kind == 0:
        h = draw(st.permutations(range(n)))
        v = draw(st.permutations(range(n)))
    else:
        order = draw(st.permutations(range(n)))
        v = [0] * n
        for i in range(n):
            v[order[i]] = order[(i + 1) % n]
        h = list(range(n))
        for _ in range(draw(st.integers(0, n - 1)) if kind == 2 else 0):
            h = [v[x] for x in h]
    try:
        return make_origami(n, h, v)
    except NotTransitive:
        assume(False)


@settings(max_examples=300, deadline=None)
@given(strip_surfaces())
def test_strip_merge_matches_left_walk(o):
    for surface in (o, Origami(o.hinv, o.vinv), o.diagonal_swap()):
        vd = VerticalDecomposition(surface)
        assert (vd.cylinders, vd.position) == reference_strip_merge(surface)


@pytest.mark.parametrize("sigma", list(permutations(range(3))),
                         ids=lambda sigma: "".join(map(str, sigma)))
def test_strip_merge_on_relabeled_genus2(sigma):
    # every line of the genus-2 surface carries its one cone, and each
    # relabeling puts its one-square strip at another place in the order
    g2 = builtin_genus2_L()
    p = Permutation(sigma)
    o = Origami(p * g2.h * p.inv(), p * g2.v * p.inv())
    for surface in (o, Origami(o.hinv, o.vinv), o.diagonal_swap()):
        vd = VerticalDecomposition(surface)
        assert (vd.cylinders, vd.position) == reference_strip_merge(surface)


def test_identity_induced_matches_vertical():
    xo = builtin_ornithorynque()
    dec = InducedDecomposition(xo, MAT_ID)
    assert dec.slope == 0
    assert [(c.length, c.width) for c in dec.cylinders] == \
        [(c.length, c.width) for c in VerticalDecomposition(xo).cylinders]


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
    dec = InducedDecomposition(xo, MAT_ID)
    h = Segment(xo, SurfacePoint(0, F(1, 3), F(1, 2)), INFINITY, F(2))
    tb = transversal_bound(h, dec)
    assert tb.cos_squared == 1
    assert tb.width_sum == len(tb.crossed)
    assert tb.bound_squared == tb.width_sum ** 2
    assert tb.holds and tb.length_squared == 4


def test_transversal_bound_45_degrees():
    xo = builtin_ornithorynque()
    dec = InducedDecomposition(xo, MAT_ID)
    seg = Segment(xo, SurfacePoint(0, F(1, 3), F(1, 8)), F(1), F(3, 2))
    tb = transversal_bound(seg, dec)
    assert tb.cos_squared == F(1, 2)
    assert tb.bound_squared == 2 * tb.width_sum ** 2
    assert tb.holds


def test_transversal_bound_parallel_rejected():
    xo = builtin_ornithorynque()
    dec = InducedDecomposition(xo, MAT_ID)
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
    res = trapping_window(dec, F(1, 10), pt)
    assert res.window_span == 10          # euclidean window sqrt(101)
    assert res.exit_span == 10
    assert res.stayed_through_window


def test_trapping_window_torus():
    t = builtin_torus()
    dec = VerticalDecomposition(t)
    res = trapping_window(dec, F(1, 3), SurfacePoint(0, F(0), F(1, 5)))
    assert res.stayed_through_window
    assert res.exit_span is None          # one cylinder: never leaves


def test_trapping_preconditions():
    # both cylinders are 6 long: alpha*L = 1, 3/2 and 3 are refused, from a
    # start on a cylinder boundary that nothing else refuses
    xo = builtin_ornithorynque()
    dec = VerticalDecomposition(xo)
    for alpha in (F(1, 6), F(1, 4), F(1, 2)):
        with pytest.raises(PreconditionViolated, match="1/L"):
            trapping_window(dec, alpha, SurfacePoint(0, F(0), F(1, 3)))
    with pytest.raises(PreconditionViolated, match="alpha > 0"):
        trapping_window(dec, 0, SurfacePoint(0, F(0), F(1, 3)))
    assert trapping_window(dec, F(1, 7), SurfacePoint(0, F(0), F(1, 3))) \
        .stayed_through_window
    with pytest.raises(PreconditionViolated):
        trapping_window(dec, F(1, 10), SurfacePoint(0, F(1, 2), F(1, 3)))


def test_trapping_default_margin_sees_an_exit_past_one_ninth():
    # a cylinder stated 25/28 wide over its width of 1: the orbit leaves it
    # at span 10, which is the window 125/14 and 12% more: inside the
    # margin of 1/8, and past a margin of 1/9
    xo = builtin_ornithorynque()
    dec = VerticalDecomposition(xo)
    narrow = dataclasses.replace(dec.cylinders[0], width=F(25, 28))
    dec.cylinders = [narrow, *dec.cylinders[1:]]
    start = SurfacePoint(narrow.strips[0][0], F(0), F(1, 3))
    res = trapping_window(dec, F(1, 10), start)
    assert (res.window_span, res.exit_span) == (F(125, 14), 10)


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
        res = trapping_window(dec, alpha, pt)
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
        assert Origami(*dec.chart.chain[0]).pair() == y.pair()
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
    assert Origami(*dec.chart.chain[0]).pair() == y.pair()
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


def cylinders_crossed(dec, pulled):
    """The cylinder of each piece of `pulled`, a `Segment` on Y, repeats
    merged."""
    seq = []
    for piece in pulled.grid_pieces:
        ci = dec.vertical.position[piece[0]][0]
        if not seq or seq[-1] != ci:
            seq.append(ci)
    return seq


def reference_crossing_sequence(dec, seg):
    """The crossing sequence as it was read: the cylinders crossed by the
    pull-back `Segment` on Y."""
    return cylinders_crossed(dec, Segment(
        dec.y_view, *dec.pull_back(seg.start, seg.slope, seg.span, seg.up)))


@settings(max_examples=150, deadline=None)
@given(origami=st.sampled_from(SURFACES),
       m=st.one_of(G_MATRICES, WORD_MATRICES),
       base=st.sampled_from(("vertical", "horizontal")),
       up=st.booleans(), data=st.data())
def test_y_walk_matches_pull_back_segment_squares(origami, m, base, up,
                                                  data):
    dec = InducedDecomposition(origami, m, base=base)
    pt = SurfacePoint(data.draw(st.integers(0, origami.n - 1)),
                      data.draw(UNIT), data.draw(UNIT))
    slope = data.draw(st.one_of(
        st.just(INFINITY),
        st.builds(F, st.integers(-20, 20), st.integers(1, 8))))
    assume(slope != dec.slope)
    try:
        seg = Segment(origami, pt, slope, F(data.draw(st.integers(1, 4)),
                                            data.draw(st.integers(1, 3))),
                      up=up)
    except (ConeVertexInInterior, StartOnSingularLeaf):
        return
    assert dec.crossing_sequence(seg) == reference_crossing_sequence(dec, seg)


def pulled_back_y_segment(dec, y, seg):
    """The pull-back of `seg` onto the validated Y `y` by the Fraction
    arithmetic that `InducedDecomposition.pull_back` replaced."""
    inv = dec.matrix.inv()
    if seg.slope == INFINITY:
        vx, vy = F(inv.a), F(inv.c)
    else:
        vx, vy = inv.a * seg.slope + inv.b, inv.c * seg.slope + inv.d
    if not seg.up:
        vx, vy = -vx, -vy
    start = dec.chart.inverse().map_point(seg.start)
    if vy == 0:
        return Segment(y, start, INFINITY, abs(vx) * seg.span, up=vx > 0)
    return Segment(y, start, vx / vy, abs(vy) * seg.span, up=vy > 0)


@pytest.mark.parametrize("origami,quotients,base,start,slope,span", [
    (builtin_ornithorynque(), [1, 2], "vertical", (0, F(1, 3), F(1, 5)),
     F(1, 2), F(3)),
    (builtin_ornithorynque(), [1, 2], "horizontal", (1, F(2, 7), F(3, 5)),
     F(-2, 3), F(2)),
    (builtin_genus2_L(), [1, 2], "vertical", (2, F(1, 2), F(1, 7)),
     INFINITY, F(5, 2)),
    (builtin_genus2_L(), [2], "horizontal", (1, F(2, 7), F(3, 5)),
     F(-2, 3), F(2)),
], ids=["xo-vertical", "xo-horizontal", "L-vertical-inf", "L-horizontal"])
def test_downward_crossing_sequence_matches_pulled_back_y_segment(
        origami, quotients, base, start, slope, span):
    # the pull-back of a downward segment reverses its direction vector;
    # followed upward, each of these crosses another cylinder sequence
    dec = InducedDecomposition(origami, g_matrix(quotients), base=base)
    seg = Segment(origami, SurfacePoint(*start), slope, span, up=False)
    want = cylinders_crossed(dec, pulled_back_y_segment(
        dec, Origami(*dec.chart.chain[0]), seg))
    assert len(want) > 1
    assert dec.crossing_sequence(seg) == want


def _vertex_partition(surface):
    classes = {}
    for sq in range(surface.n):
        for corner in (BL, BR, TL, TR):
            classes.setdefault(surface._vertex_of[corner][sq], set()).add(
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
    for surface, ref in ((view, y),
                         (view.diagonal_swap(), y.diagonal_swap())):
        assert (surface.h, surface.v, surface.hinv) == \
            (ref.h, ref.v, ref.hinv)
        assert all(surface.cone_at(sq, c) == ref.cone_at(sq, c)
                   for sq in range(y.n) for c in (BL, BR, TL, TR))
    assert _vertex_partition(view) == _vertex_partition(y)
    assert view.vertex_orders == y.vertex_orders
    assert view.letters == {}
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
    want = pulled_back_y_segment(dec, y, seg)
    got = Segment(dec.y_view, *dec.pull_back(seg.start, seg.slope, seg.span,
                                             seg.up))
    assert (got.start, got.slope, got.span, got.up, got.grid_pieces,
            got.end) == (want.start, want.slope, want.span, want.up,
                         want.grid_pieces, want.end)


# -- the trapping window by `trace` on a validated Y, kept as the reference ----

def reference_trapping_window(origami, decomposition, alpha, boundary_point):
    ci = decomposition.position[boundary_point.square][0]
    cyl = decomposition.cylinders[ci]
    window = F(cyl.width) / alpha
    res = trace(origami, alpha, boundary_point, span=window * F(9, 8))
    exit_span = None
    s_done = F(0)
    for piece in res.pieces:
        if piece[0] not in cyl.squares:
            exit_span = s_done
            break
        s_done += piece[4] - piece[2]
    return TrappingResult(window_span=window, exit_span=exit_span,
                          stayed_through_window=exit_span is None
                          or exit_span >= window)


@settings(max_examples=150, deadline=None)
@given(origami=st.sampled_from(SURFACES),
       m=st.one_of(G_MATRICES, WORD_MATRICES),
       data=st.data())
def test_trapping_window_on_view_matches_trace_on_validated_y(origami, m,
                                                              data):
    dec = InducedDecomposition(origami, m)
    vd = dec.vertical
    y = Origami(*dec.chart.chain[0])
    longest = max(c.length for c in vd.cylinders)
    a = data.draw(st.integers(1, 5))
    alpha = F(a, a * longest + data.draw(st.integers(1, 20)))
    cyl = data.draw(st.sampled_from(vd.cylinders))
    pt = SurfacePoint(data.draw(st.sampled_from(cyl.strips[0])), F(0),
                      data.draw(UNIT))
    try:
        want = reference_trapping_window(y, vd, alpha, pt)
    except StartOnSingularLeaf:
        with pytest.raises(StartOnSingularLeaf):
            trapping_window(vd, alpha, pt)
        return
    assert trapping_window(vd, alpha, pt) == want
    assert trapping_window(VerticalDecomposition(y), alpha, pt) == want


# -- the slope formulas on Fractions and INFINITY, kept as the reference -----

def reference_slope_pq(s):
    return (1, 0) if s == INFINITY else (s.numerator, s.denominator)


def reference_projective_slope(m, s):
    if s == INFINITY:
        return INFINITY if m.c == 0 else F(m.a, m.c)
    den = m.c * s + m.d
    return INFINITY if den == 0 else F(m.a * s + m.b) / den


def reference_stretch_factor_squared(m, s):
    if s == INFINITY:
        return F(m.a * m.a + m.c * m.c)
    return ((m.a * s + m.b) ** 2 + (m.c * s + m.d) ** 2) / (s * s + 1)


def reference_cos2(s, p, q):
    """transversal_bound's cos^2 as (numerator, denominator)."""
    if s == INFINITY:
        return q * q, q * q + p * p
    return ((s.numerator * q - p * s.denominator) ** 2,
            (s.numerator ** 2 + s.denominator ** 2) * (q * q + p * p))


def reference_length_squared(s, span):
    return span ** 2 if s == INFINITY else span ** 2 * (1 + s ** 2)


def reference_reading_order(word, s, up):
    if s != INFINITY and abs(s) > 1:
        forward = (s > 0) == up
    else:
        forward = up
    return word if forward else tuple(reversed(word))


def reference_audit(s):
    if s is not None and s != INFINITY:
        return F(-6) < s < F(-1)
    return None


SLOPES = st.one_of(st.just(INFINITY),
                   st.builds(F, st.integers(-30, 30), st.integers(1, 12)))
UNCLASSIFIED_H = tuple(("B", k % 3) for k in range(12))
FILLER_V = tuple(("A", k % 3) for k in range(12))


@settings(max_examples=300, deadline=None)
@given(m=st.one_of(G_MATRICES, WORD_MATRICES), s=SLOPES,
       base=st.sampled_from(("vertical", "horizontal")), up=st.booleans(),
       data=st.data())
def test_slope_pair_formulas_match_fraction_forms(m, s, base, up, data):
    for got, want in ((projective_slope(m, s),
                       reference_projective_slope(m, s)),
                      (stretch_factor_squared(m, s),
                       reference_stretch_factor_squared(m, s))):
        assert got == want and type(got) is type(want)
    p, q = slope_pair(s)
    assert (p, q) == reference_slope_pq(s)
    word = tuple(range(7))
    assert _reading_order(word, p, q, up) == \
        reference_reading_order(word, s, up)
    # the mirror's direction; -INFINITY read left for the horizontal slope
    assert _reading_order(word, -p, q, up) == \
        reference_reading_order(word, -s, up)
    for slope_h in (s, None):
        v = criterion_classify(UNCLASSIFIED_H, FILLER_V, slope_h=slope_h)
        assert v.kind == "unclassified"
        assert v.slope_audit_ok is reference_audit(slope_h)

    xo = builtin_ornithorynque()
    dec = InducedDecomposition(xo, m, base=base)
    assert dec.slope_pq() == reference_slope_pq(dec.slope)
    pt = SurfacePoint(data.draw(st.integers(0, 11)), data.draw(UNIT),
                      data.draw(UNIT))
    try:
        seg = Segment(xo, pt, s, F(data.draw(st.integers(1, 3))), up=up)
    except (ConeVertexInInterior, StartOnSingularLeaf):
        return
    ls = reference_length_squared(s, seg.span)
    assert seg.length_squared == ls
    dp, dq = reference_slope_pq(dec.slope)
    cos2_num, cos2_den = reference_cos2(s, dp, dq)
    if cos2_num == 0:
        with pytest.raises(ParallelToDecomposition):
            transversal_bound(seg, dec)
        return
    tb = transversal_bound(seg, dec)
    assert tb.cos_squared == F(cos2_num, cos2_den)
    assert tb.bound_squared == F(tb.width_sum ** 2 * cos2_den,
                                 (dq * dq + dp * dp) * cos2_num)
    assert tb.length_squared == ls and tb.holds == (ls <= tb.bound_squared)


@pytest.mark.parametrize("base, built", [("vertical", 1), ("horizontal", 1)])
def test_origamis_built_per_induced_decomposition(monkeypatch, base, built):
    # an induced decomposition builds no surface: the surfaces the word
    # passes through stay permutation pairs, Y is a gluing view and the
    # horizontal base's diagonal swap a view of that
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
    transversal_bound(seg, dec)
    assert not built_now
    # the validated reference is the only surface built
    y = Origami(*dec.chart.chain[0])
    assert len(built_now) == built
    assert isinstance(y, GluingView) and not isinstance(dec.y_view, Origami)
    assert y.pair() == (dec.y_view.h.images, dec.y_view.v.images)
    assert y.vertex_orders == dec.y_view.vertex_orders


@pytest.mark.parametrize("base", ("vertical", "horizontal"))
def test_rejected_decomposition_builds_no_word_or_chart(monkeypatch, base):
    # the transversal sampler drops a decomposition whose slope it rejects;
    # until the chart is read, only the slope has been made
    built = []

    def counting(name, fn):
        def wrapped(*args):
            built.append(name)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(cylinders, "decompose",
                        counting("word", cylinders.decompose))
    monkeypatch.setattr(cylinders, "AffineChart",
                        counting("chart", cylinders.AffineChart))
    dec = InducedDecomposition(builtin_ornithorynque(), g_matrix([3, 1, 2]),
                               base=base)
    assert dec.slope_pq() and not built
    assert not {"chart", "_to_y", "y_view", "vertical"} & set(vars(dec))
    dec.vertical
    assert built == ["word", "chart"]

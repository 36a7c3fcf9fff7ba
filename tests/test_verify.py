import random
from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from origamilab.errors import ConeVertexInInterior, WordTooShort
from origamilab.flow import (INFINITY, Segment, _crossings,
                             _grid_denominator, _grid_start, cutting_sequence,
                             make_segment, trace)
from origamilab.origami import SurfacePoint, builtin_genus2_L, builtin_ornithorynque
from origamilab.sl2 import ReflectionMap
from origamilab.verify import (MAIN_CONES, NEG_INFINITY, REFLECTED_CONES,
                               asserted_next_up, compare_relation,
                               criterion_classify, genus2_control_pair,
                               intersection_property_harness,
                               next_letter_relation, oriented_word,
                               point_on_segment, reflected_oriented_word,
                               single_square_crossing_intersects,
                               tiles_crossed, two_square_point_location,
                               verified_next_up, _cone_slope, _edge_start,
                               _next_letter, _sample_grid, _sample_segment,
                               _sample_slope)

XO = builtin_ornithorynque()


def test_transition_relation_up_cone():
    xo = builtin_ornithorynque()
    rel = next_letter_relation(xo, sample_budget=600, seed=1)
    # complete agreement with the exhaustively verified table
    assert not compare_relation(rel, verified_next_up())
    assert not rel.non_converged
    # the narrow table is violated exactly on the three B rows, by the
    # B-letter one index down (nearly vertical climbs of the B column)
    excess = compare_relation(rel, asserted_next_up())
    assert sorted((v.letter, v.successor) for v in excess) == [
        (("B", 0), ("B", 2)), (("B", 1), ("B", 0)), (("B", 2), ("B", 1))]
    assert all(v.kind == "excess" for v in excess)
    # explicit witness from the analysis: B_2 at t=1/2, s=1/10 exits at B_1
    b2, c1 = _edge_start(xo, ("B", 2)), _edge_start(xo, ("C", 1))
    assert _next_letter(xo, b2, *_sample_grid(F(1, 2), F(1, 10))) == ("B", 1)
    assert _next_letter(xo, b2, *_sample_grid(F(15, 16), F(1, 10))) == \
        ("D", 1)
    assert _next_letter(xo, c1, *_sample_grid(F(1, 2), F(1, 2))) == ("A", 2)


def reference_next_letter(origami, letter, t, s):
    """The first labelled event after s = 0 of a 64-crossing upward trace."""
    sq, orient = _edge_start(origami, letter)
    start = SurfacePoint(sq, t, F(0)) if orient == "h" else \
        SurfacePoint(sq, F(0), t)
    res = trace(origami, s, start, crossings=64, raise_on_cone=False)
    for e in res.events:
        if e.s > 0 and e.label is not None:
            return e.label
    return None


# rationals strictly between 0 and 1, small denominators hitting corners
OPEN_UNIT = st.sampled_from([2, 4, 16, 64, 97, 256]).flatmap(
    lambda d: st.integers(1, d - 1).map(lambda a: F(a, d)))


def grid_start_next_letter(origami, edge, t, s):
    """`_next_letter` as it was before the grid was shared by the letters:
    the start point, M and the grid start rebuilt per letter and sample."""
    sq, orient = edge
    start = SurfacePoint(sq, t, F(0)) if orient == "h" else \
        SurfacePoint(sq, F(0), t)
    p, q = s.numerator, s.denominator
    M = _grid_denominator(p, q, start.x, start.y)
    for j, *_, kind, _ in islice(_crossings(
            *_grid_start(origami, M, start, up=True), p, q, M), 64):
        label = origami.edge_labels.get((j, kind))
        if label is not None:
            return label
    return None


@settings(max_examples=300, deadline=None)
@given(letter=st.sampled_from(XO.labels),
       cone=st.sampled_from(MAIN_CONES + REFLECTED_CONES),
       t=OPEN_UNIT, u=OPEN_UNIT)
def test_next_letter_matches_trace(letter, cone, t, u):
    s = _cone_slope(*cone, u)
    edge = _edge_start(XO, letter)
    T, p, q, M = _sample_grid(t, s)
    assert F(T, M) == t and F(p, q) == s
    got = _next_letter(XO, edge, T, p, q, M)
    assert got == grid_start_next_letter(XO, edge, t, s)
    assert got == reference_next_letter(XO, letter, t, s)


def reference_relation(origami, cone, sample_budget, seed):
    """next_letter_relation as first written: the slope of every base point,
    the start edge and its grid recomputed for every letter and sample. The
    evidence of a pair is (count, t_min, t_max, s_min, s_max, witness),
    taken with min and max over the Fractions of all its samples."""
    rng = random.Random(seed)
    lo, hi = cone
    base = []
    grid = max(4, int(sample_budget ** 0.5))
    for a in range(1, grid + 1):
        for b in range(1, grid + 1):
            base.append((F(a, grid + 1), F(b, grid + 1)))
    edge_fracs = [F(1, 64), F(63, 64), F(1, 1024), F(1023, 1024), F(1, 2)]
    for t in edge_fracs:
        for u in edge_fracs:
            base.append((t, u))
    while len(base) < sample_budget:
        d = rng.choice((64, 97, 128, 193, 256))
        base.append((F(rng.randrange(1, d), d), F(rng.randrange(1, d), d)))
    rng.shuffle(base)
    base = base[:max(sample_budget, len(edge_fracs) ** 2)]
    successors, evidence, first_round, skipped = {}, {}, {}, 0
    half = len(base) // 2
    for letter in origami.labels:
        succ = set()
        for idx, (t, u) in enumerate(base):
            s = _cone_slope(lo, hi, u)
            nxt = grid_start_next_letter(origami,
                                         _edge_start(origami, letter), t, s)
            if nxt is None:
                skipped += 1
                continue
            succ.add(nxt)
            evidence.setdefault((letter, nxt), []).append((t, s))
            if idx == half:
                first_round[letter] = frozenset(succ)
        successors[letter] = frozenset(succ)
    non_conv = frozenset(l for l in successors
                         if successors[l] != first_round.get(l, successors[l]))
    evidence = {pair: (len(ts), min(t for t, _ in ts), max(t for t, _ in ts),
                       min(s for _, s in ts), max(s for _, s in ts), ts[0])
                for pair, ts in evidence.items()}
    return successors, evidence, non_conv, len(base), skipped


@pytest.mark.parametrize("cone, budget, seed", [
    (MAIN_CONES[1], 0, 0), (MAIN_CONES[1], 40, 1), (MAIN_CONES[0], 30, 2),
    (REFLECTED_CONES[0], 50, 3), (REFLECTED_CONES[1], 20, 4),
    (MAIN_CONES[1], 120, 5)])
def test_relation_matches_per_letter_loop(cone, budget, seed):
    rel = next_letter_relation(XO, cone=cone, sample_budget=budget, seed=seed)
    evidence = {pair: (ev.count, ev.t_min, ev.t_max, ev.s_min, ev.s_max,
                       ev.witness) for pair, ev in rel.evidence.items()}
    assert (rel.successors, evidence, rel.non_converged,
            rel.samples_per_letter, rel.skipped) == \
        reference_relation(XO, cone, budget, seed)
    assert rel.samples_per_letter == max(budget, 25)


def test_exclusion_chain_still_closes():
    # with the corrected B row, the no-tile-0 exclusion argument still rules
    # out every letter for words of length >= 6
    succ = verified_next_up()
    tile0_letters = {("A", 0), ("B", 0), ("C", 0), ("D", 0),
                     ("A", 2), ("B", 1), ("C", 2), ("D", 1)}
    excluded = {l: 1 for l in tile0_letters}    # excluded for k <= n-1
    # repeatedly exclude letters whose successors are all excluded
    changed = True
    while changed:
        changed = False
        for letter in succ:
            if letter in excluded:
                continue
            costs = [excluded.get(s) for s in succ[letter]]
            if all(c is not None for c in costs):
                excluded[letter] = max(costs) + 1
                changed = True
    assert len(excluded) == 12
    assert max(excluded.values()) <= 5          # so n >= 6 is a contradiction


def test_h_cone_relation():
    xo = builtin_ornithorynque()
    rel = next_letter_relation(xo, cone=(NEG_INFINITY, F(-1)),
                               sample_budget=500, seed=2)
    succ = rel.successors
    for i in range(3):
        assert succ[("A", i)] == {("D", (i - 1) % 3)}
        assert succ[("B", i)] == {("C", (i + 1) % 3), ("D", i)}
        assert succ[("C", i)] == {("A", i), ("B", i), ("C", (i - 1) % 3)}
        assert succ[("D", i)] == {("A", i), ("C", (i - 1) % 3),
                                  ("D", (i + 1) % 3)}


def fraction_cone_slope(lo, hi, u):
    """`_cone_slope` as it was, in Fraction arithmetic."""
    if lo == NEG_INFINITY:
        return hi - (1 - u) / u
    if hi == INFINITY:
        return lo + (1 - u) / u
    return lo + (hi - lo) * u


def fraction_sample_slope(rng, cone):
    """`_sample_slope` as it was, in Fraction arithmetic."""
    u = F(rng.randrange(1, 64), 64)
    lo, hi = cone
    if (lo == NEG_INFINITY or hi == INFINITY) and rng.random() < 0.5:
        return hi - 5 * u if lo == NEG_INFINITY else lo + 5 * u
    return fraction_cone_slope(lo, hi, u)


SLOPE_CONES = MAIN_CONES + REFLECTED_CONES + (
    (F(0), F(1)), (F(1), INFINITY), (F(-5, 3), F(7, 2)),
    (NEG_INFINITY, F(3, 4)))


@settings(max_examples=300, deadline=None)
@given(cone=st.sampled_from(SLOPE_CONES),
       d=st.sampled_from((5, 64, 97, 128, 193, 256, 1024)), data=st.data())
def test_integer_cone_slope_matches_fraction_arithmetic(cone, d, data):
    # the denominators of next_letter_relation's base points and draws
    u = F(data.draw(st.integers(1, d - 1)), d)
    got = _cone_slope(*cone, u)
    assert got == fraction_cone_slope(*cone, u) and type(got) is F


@pytest.mark.parametrize("cone", SLOPE_CONES)
def test_integer_sample_slope_matches_fraction_arithmetic(cone):
    for seed in range(200):
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        for _ in range(10):
            got = _sample_slope(got_rng, cone)
            assert got == fraction_sample_slope(want_rng, cone)
            assert type(got) is F
        # the same draws, so the callers' later draws do not move
        assert got_rng.getstate() == want_rng.getstate()


def test_evidence_recorded():
    xo = builtin_ornithorynque()
    rel = next_letter_relation(xo, sample_budget=200, seed=3)
    ev = rel.evidence[(("C", 1), ("A", 2))]
    assert ev.count > 0 and ev.witness is not None
    assert ev.t_min <= ev.t_max and ev.s_min <= ev.s_max


def test_tiles_crossed():
    xo = builtin_ornithorynque()
    seg = Segment(xo, SurfacePoint(0, F(1, 3), F(1, 3)), F(1, 5), F(1, 4))
    assert tiles_crossed(seg) == {0}
    rng = random.Random(12)
    for cone in MAIN_CONES:
        checked = 0
        while checked < 40:
            seg = _sample_segment(xo, rng, cone, 17)
            if len(cutting_sequence(seg).word) < 6:
                continue
            checked += 1
            assert tiles_crossed(seg) == {0, 1, 2}


def test_classifier_vectors():
    filler_v = tuple(("A", k % 3) for k in range(12))
    # triple (C_2, C_0, C_1) for i = 0
    word = (("A", 1), ("C", 2), ("C", 0), ("C", 1)) + tuple(
        ("B", k % 3) for k in range(8))
    v = criterion_classify(word, filler_v)
    assert v.kind == "triple" and v.i == 0
    # D-triple (D_1, D_0, D_2) for i = 1
    word = (("D", 1), ("D", 0), ("D", 2)) + tuple(
        ("B", k % 3) for k in range(9))
    v = criterion_classify(word, filler_v)
    assert v.kind == "triple" and v.i == 1
    # pair (A_0, D_0) at an interior position, i = 0
    word = (("C", 0), ("A", 0), ("D", 0)) + tuple(
        ("B", k % 3) for k in range(9))
    v = criterion_classify(word, filler_v)
    assert v.kind == "pair" and v.i == 0 and v.position == 2
    # the pair must not match at position 1
    word = (("A", 0), ("D", 0)) + tuple(("B", k % 3) for k in range(10))
    v = criterion_classify(word, filler_v)
    assert v.kind != "pair" or v.position != 1
    with pytest.raises(WordTooShort):
        criterion_classify((("A", 0),) * 5, filler_v)
    v = criterion_classify(tuple(("B", k % 3) for k in range(12)), filler_v,
                           slope_h=F(-3, 2))
    assert v.kind == "unclassified" and v.slope_audit_ok


def test_word_pairs_satisfy_next_relation():
    # consecutive letters of any upward (0,1)-cone word are successor pairs
    xo = builtin_ornithorynque()
    succ = verified_next_up()
    rng = random.Random(20)
    # a slope-1/2 upward segment of length 3*sqrt(5) (rise 27/5 covers it)
    seg = Segment(xo, SurfacePoint(0, F(17, 32), F(1, 32)), F(1, 2), F(27, 5))
    word = cutting_sequence(seg).word
    assert len(word) >= 3
    segs = [seg]
    for _ in range(25):
        segs.append(_sample_segment(xo, rng, (F(0), F(1)), 10))
    for s in segs:
        w = cutting_sequence(s).word
        for a, b in zip(w, w[1:]):
            assert b in succ[a], (a, b)


def test_oriented_word():
    xo = builtin_ornithorynque()
    seg = Segment(xo, SurfacePoint(0, F(1, 3), F(1, 5)), F(-7, 3), F(3))
    w = cutting_sequence(seg).word
    assert oriented_word(seg) == tuple(reversed(w))   # dx < 0 going up
    seg_v = Segment(xo, SurfacePoint(0, F(1, 3), F(1, 5)), F(1, 3), F(3))
    assert oriented_word(seg_v) == cutting_sequence(seg_v).word


@settings(max_examples=200, deadline=None)
@given(cone=st.sampled_from(REFLECTED_CONES), square=st.integers(0, 11),
       x=st.integers(1, 63), y=st.integers(1, 63), u=st.integers(1, 63),
       band=st.booleans(), K=st.integers(1, 17), up=st.booleans())
def test_reflected_word_matches_traced_mirror(cone, square, x, y, u, band, K,
                                              up):
    # the harness used to trace the mirror segment to read its word
    f = ReflectionMap(XO)
    lo, hi = cone
    slope = lo + 5 * F(u, 64) if band and hi == INFINITY else \
        _cone_slope(lo, hi, F(u, 64))
    try:
        seg = make_segment(XO, SurfacePoint(square, F(x, 64), F(y, 64)),
                           slope, length_at_least=K, up=up)
    except ConeVertexInInterior:
        assume(False)
    mirror = Segment(XO, f.map_point(seg.start), -seg.slope, seg.span,
                     up=seg.up)
    assert reflected_oriented_word(f, seg) == oriented_word(mirror)


def test_harness_small():
    xo = builtin_ornithorynque()
    for pair in ("main", "reflected"):
        rep = intersection_property_harness(xo, 17, 150, pair, seed=5,
                                            name="xo")
        assert rep.failures == 0
        assert not rep.classifier_conflicts
        assert not rep.slope_audit_failures
        assert rep.witness_recheck_failures == 0
    rep34 = intersection_property_harness(xo, 34, 80, "main", seed=6)
    assert rep34.failures == 0 and rep34.word_too_short == 0
    assert rep34.verdicts.get("triple", 0) + rep34.verdicts.get("pair", 0) > 0


def test_genus2_control():
    g2 = builtin_genus2_L()
    for K in (17, 34, 50):
        seg_h, seg_v, witness = genus2_control_pair(g2, K)
        assert witness is None
        assert seg_h.length_squared >= K * K
        assert seg_v.length_squared >= K * K
        assert seg_h.slope < -1 and 0 < seg_v.slope < 1


def test_two_square_point_location():
    # slope -2 and slope 1/2 lines both crossing the shared side {1} x [0,1]
    assert two_square_point_location((F(1), F(1, 4)), F(-2),
                                     (F(1), F(3, 4)), F(1, 2))
    rng = random.Random(10)
    for _ in range(300):
        sh = -1 - F(rng.randrange(1, 200), 37)
        sv = F(rng.randrange(1, 36), 37)
        yh = F(rng.randrange(0, 64), 64)
        yv = F(rng.randrange(0, 64), 64)
        # anchor both lines on the shared side {1} x [0,1]
        assert two_square_point_location((F(1), yh), sh, (F(1), yv), sv)
    with pytest.raises(ValueError):
        two_square_point_location((F(1, 2), F(1, 2)), F(-2),
                                  (F(1, 2), F(1, 2)), F(3, 2))
    with pytest.raises(ValueError):
        # H-line through (10, 1/2) misses the shared side
        two_square_point_location((F(10), F(1, 2)), F(-2),
                                  (F(1), F(1, 2)), F(1, 2))


def test_single_square_crossing():
    rng = random.Random(11)
    for _ in range(300):
        sh = -1 - F(rng.randrange(1, 150), 41)
        sv = F(rng.randrange(1, 40), 41)
        # both pass through an interior point and extend well beyond
        xh = F(rng.randrange(1, 63), 64)
        yh = F(rng.randrange(1, 63), 64)
        xv = F(rng.randrange(1, 63), 64)
        yv = F(rng.randrange(1, 63), 64)
        h_seg = ((xh + sh * (-2 - yh), F(-2)), (xh + sh * (3 - yh), F(3)))
        v_seg = ((xv + sv * (-2 - yv), F(-2)), (xv + sv * (3 - yv), F(3)))
        assert single_square_crossing_intersects(h_seg, v_seg)
    with pytest.raises(ValueError):
        single_square_crossing_intersects(((F(5), F(0)), (F(6), F(1))),
                                          ((F(0), F(0)), (F(1), F(1))))

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from origamilab.cfrac import g_matrix
from origamilab.errors import NotUnimodular
from origamilab.flow import INFINITY
from origamilab.origami import (SurfacePoint, builtin_genus2_L,
                                builtin_ornithorynque, builtin_torus,
                                canonical_key, canonical_point,
                                is_isomorphic)
from origamilab.sl2 import (MAT_ID, MAT_R, MAT_T, MAT_V, AffineChart, Mat2,
                            ReflectionMap, act, act_word, decompose,
                            evaluate_word, invert_word, orbit_enumerate,
                            projective_slope, reflect_S,
                            stretch_factor_squared)
from paper_checks import stabilizer_certificate

TOKENS = ("T", "T-", "V", "V-")


def random_word(rng, n):
    return tuple(rng.choice(TOKENS) for _ in range(n))


def test_decompose_examples():
    assert decompose(MAT_T) == ("T",)
    # direct product: T^-1 V T^-1 = R
    assert evaluate_word(("T-", "V", "T-")) == MAT_R
    assert decompose(MAT_R) == ("T-", "V", "T-")
    assert decompose(g_matrix([1, 2])) == ("V", "T", "T")


def test_decompose_rejects():
    with pytest.raises(NotUnimodular):
        decompose(Mat2(1, 0, 0, -1))
    with pytest.raises(NotUnimodular):
        decompose(Mat2(2, 0, 0, 2))


def test_decompose_roundtrip_random():
    rng = random.Random(11)
    for _ in range(60):
        w = random_word(rng, rng.randrange(0, 20))
        m = evaluate_word(w)
        assert evaluate_word(decompose(m)) == m


def test_act_generator_inverse_pairs():
    for o in (builtin_genus2_L(), builtin_ornithorynque()):
        for tok, inv in (("T", "T-"), ("V", "V-")):
            assert act_word((inv,), act_word((tok,), o)).pair() == o.pair()
            assert act_word((tok,), act_word((inv,), o)).pair() == o.pair()


def test_action_is_group_action_up_to_isomorphism():
    # words with equal evaluation act equally on isomorphism classes (the
    # labeled pairs themselves may differ by a relabeling)
    rng = random.Random(3)
    g2 = builtin_genus2_L()
    for _ in range(25):
        w1 = random_word(rng, rng.randrange(0, 8))
        w2 = random_word(rng, rng.randrange(0, 8))
        lhs = act(evaluate_word(w1) * evaluate_word(w2), g2)
        rhs = act_word(w1, act_word(w2, g2))
        assert is_isomorphic(lhs, rhs) is not None
        assert canonical_key(lhs) == canonical_key(rhs)


def test_inverse_word_cancellation_is_exact():
    # unlike general word equality, w then w^-1 cancels token by token
    rng = random.Random(30)
    for o in (builtin_genus2_L(), builtin_ornithorynque()):
        for _ in range(15):
            w = random_word(rng, rng.randrange(0, 10))
            assert act_word(w, act_word(invert_word(w), o)).pair() == o.pair()


def test_cone_data_preserved():
    rng = random.Random(7)
    for o in (builtin_genus2_L(), builtin_ornithorynque()):
        base = o.cone_data
        for _ in range(10):
            w = random_word(rng, rng.randrange(1, 10))
            img = act_word(w, o)
            cd = img.cone_data
            assert sorted(cd.cones) == sorted(base.cones)
            assert cd.genus == base.genus


def test_xo_fixed_point():
    xo = builtin_ornithorynque()
    assert is_isomorphic(act(MAT_T, xo), xo) is not None
    assert is_isomorphic(act(MAT_R, xo), xo) is not None
    assert is_isomorphic(act(g_matrix([1, 1]), xo), xo) is not None
    assert is_isomorphic(reflect_S(xo), xo) is not None
    cert = stabilizer_certificate(xo)
    assert cert.full_stabilizer


def test_reflect_involution():
    for o in (builtin_torus(), builtin_genus2_L(), builtin_ornithorynque()):
        assert reflect_S(reflect_S(o)).pair() == o.pair()
    t = builtin_torus()
    assert reflect_S(t).pair() == t.pair()


def test_orbits():
    assert len(orbit_enumerate(builtin_ornithorynque()).representatives) == 1
    assert len(orbit_enumerate(builtin_torus()).representatives) == 1
    res = orbit_enumerate(builtin_genus2_L())
    assert len(res.representatives) == 3 and res.complete
    # closure: every generator image of every class is a known class
    for key, row in res.adjacency.items():
        for tok in TOKENS:
            assert row[tok] in res.representatives
    capped = orbit_enumerate(builtin_genus2_L(), cap=2)
    assert not capped.complete and len(capped.representatives) == 2


def test_genus2_stabilizer_report():
    cert = stabilizer_certificate(builtin_genus2_L())
    assert not cert.full_stabilizer
    assert cert.moving_generators


def test_projective_slope():
    # g(a_1..a_2n) . 0 = p_2n/q_2n ; odd case uses infinity
    quots = [1, 2, 3, 1, 2, 4]
    m = g_matrix(quots)
    from origamilab.cfrac import CFSlope
    cf = CFSlope(quots)
    assert projective_slope(m, F(0)) == cf.convergent(6)
    m5 = g_matrix(quots[:5])
    assert projective_slope(m5, INFINITY) == cf.convergent(5)
    assert projective_slope(MAT_ID, F(3, 7)) == F(3, 7)
    assert projective_slope(MAT_R, F(0)) == INFINITY
    # round trip
    rng = random.Random(1)
    for _ in range(30):
        w = random_word(rng, rng.randrange(0, 10))
        m = evaluate_word(w)
        s = F(rng.randrange(-9, 10), rng.randrange(1, 9))
        img = projective_slope(m, s)
        assert projective_slope(m.inv(), img) == s


def test_stretch_factor():
    # identity stretches nothing
    assert stretch_factor_squared(MAT_ID, F(1, 2)) == 1
    # R rotates: unit vectors stay unit
    assert stretch_factor_squared(MAT_R, F(3, 5)) == 1
    assert stretch_factor_squared(MAT_T, INFINITY) == 1


def test_affine_chart_well_defined():
    # boundary representatives of one point map to the same image point
    xo = builtin_ornithorynque()
    rng = random.Random(2)
    for _ in range(12):
        w = random_word(rng, rng.randrange(1, 6))
        chart = AffineChart(xo, w)
        j = rng.randrange(12)
        y = F(rng.randrange(1, 16), 16)
        a = chart.map_point(canonical_point(xo, j, F(1), y))
        b = chart.map_point(SurfacePoint(xo.h(j), F(0), y))
        assert a == b
        x = F(rng.randrange(1, 16), 16)
        c = chart.map_point(canonical_point(xo, j, x, F(1)))
        d = chart.map_point(SurfacePoint(xo.v(j), x, F(0)))
        assert c == d


def test_affine_chart_inverse():
    xo = builtin_ornithorynque()
    rng = random.Random(9)
    for _ in range(12):
        w = random_word(rng, rng.randrange(1, 8))
        chart = AffineChart(xo, w)
        inv = chart.inverse()
        pt = SurfacePoint(rng.randrange(12), F(rng.randrange(1, 32), 32),
                          F(rng.randrange(1, 32), 32))
        assert inv.map_point(chart.map_point(pt)) == pt
        assert chart.matrix * inv.matrix == MAT_ID


def test_reflection_map_consistency():
    xo = builtin_ornithorynque()
    f = ReflectionMap(xo)
    # boundary representatives agree
    j = 4
    y = F(3, 8)
    a = f.map_point(canonical_point(xo, j, F(1), y))
    b = f.map_point(SurfacePoint(xo.h(j), F(0), y))
    assert a == b


# -- the chart's point map, in Fraction arithmetic, kept as the reference -------

def affine_step(tok, h, v, pt):
    """One generator on a point of the surface glued by (h, v), on Fraction
    coordinates; the square to the left or below is a preimage under h or
    v. `AffineChart.map_point` folded this step before it ran on integers."""
    sq, x, y = pt.square, pt.x, pt.y
    if tok == "T":
        if x + y < 1:
            return SurfacePoint(sq, x + y, y)
        return SurfacePoint(h(sq), x + y - 1, y)
    if tok == "T-":
        if x >= y:
            return SurfacePoint(sq, x - y, y)
        return SurfacePoint(h.images.index(sq), x - y + 1, y)
    if tok == "V":
        if x + y < 1:
            return SurfacePoint(sq, x, x + y)
        return SurfacePoint(v(sq), x, x + y - 1)
    if tok == "V-":
        if y >= x:
            return SurfacePoint(sq, x, y - x)
        return SurfacePoint(v.images.index(sq), x, y - x + 1)
    raise ValueError(f"bad token {tok!r}")


def fraction_map_point(chart, pt):
    for tok, (h, v) in zip(reversed(chart.word), chart.chain):
        pt = affine_step(tok, h, v, pt)
    return pt


# closed-interval coordinates with their own denominators, 0 and 1 included
COORD = st.sampled_from([1, 2, 3, 16, 97, 1024]).flatmap(
    lambda d: st.integers(0, d).map(lambda a: F(a, d)))


@settings(max_examples=200, deadline=None)
@given(origami=st.sampled_from((builtin_ornithorynque(), builtin_genus2_L(),
                                builtin_torus())),
       word=st.lists(st.sampled_from(TOKENS), max_size=12),
       data=st.data())
def test_integer_map_point_matches_fraction_steps(origami, word, data):
    chart = AffineChart(origami, word)
    pt = SurfacePoint(data.draw(st.integers(0, origami.n - 1)),
                      data.draw(COORD), data.draw(COORD))
    for c in (chart, chart.inverse()):
        got = c.map_point(pt)
        assert got == fraction_map_point(c, pt)
        assert type(got.x) is F and type(got.y) is F


def test_map_point_rejects_a_bad_token():
    xo = builtin_ornithorynque()
    chart = AffineChart(xo, ("T",))
    chart.word = ("X",)
    with pytest.raises(ValueError):
        chart.map_point(SurfacePoint(0, F(1, 2), F(1, 3)))


# -- the integer fold against the Mat2 fold -----------------------------------

TOKEN_MAT = {"T": MAT_T, "T-": MAT_T.inv(), "V": MAT_V, "V-": MAT_V.inv()}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=40))
def test_integer_evaluate_word_matches_mat2_fold(word):
    want = MAT_ID
    for tok in word:
        want = want * TOKEN_MAT[tok]
    got = evaluate_word(word)
    assert got == want and type(got) is Mat2


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=20), st.booleans())
def test_inverse_at_det_minus_1(word, left):
    # a word times the reflection diag(1, -1), on either side, has det -1
    flip = Mat2(1, 0, 0, -1)
    m = flip * evaluate_word(word) if left else evaluate_word(word) * flip
    assert m.det() == -1
    assert m * m.inv() == MAT_ID == m.inv() * m


@pytest.mark.parametrize("m", [Mat2(0, 0, 0, 0), Mat2(1, 1, 1, 1),
                               Mat2(2, 0, 0, 1), Mat2(0, 1, 2, 0)],
                         ids=["zero", "det-0", "det-2", "det-minus-2"])
def test_inverse_refuses_a_matrix_that_is_not_unimodular(m):
    assert m.det() in (0, 2, -2)
    with pytest.raises(NotUnimodular):
        m.inv()


def test_evaluate_word_rejects_a_bad_token():
    with pytest.raises(ValueError):
        evaluate_word(("T", "X"))

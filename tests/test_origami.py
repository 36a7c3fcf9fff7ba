import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from origamilab.errors import NotTransitive, OutOfRange
from origamilab.origami import (BL, BR, TL, TR, Origami, SurfacePoint,
                                automorphism_group, builtin_genus2_L,
                                builtin_ornithorynque, builtin_torus,
                                canonical_key, canonical_point, cone_data,
                                is_isomorphic, make_origami, origami_from_text,
                                origami_to_text)
from origamilab.perm import Permutation


def brute_commutator_cycles(h, v):
    """Independent oracle: cycles of v^-1 h^-1 v h on raw image lists."""
    n = len(h)
    hinv = [0] * n
    vinv = [0] * n
    for i, j in enumerate(h):
        hinv[j] = i
    for i, j in enumerate(v):
        vinv[j] = i
    comm = [vinv[hinv[v[h[x]]]] for x in range(n)]
    seen = [False] * n
    cycles = []
    for i in range(n):
        if seen[i]:
            continue
        c = [i]
        seen[i] = True
        j = comm[i]
        while j != i:
            seen[j] = True
            c.append(j)
            j = comm[j]
        cycles.append(c)
    return cycles


def test_torus():
    t = builtin_torus()
    cd = cone_data(t)
    assert t.n == 1 and cd.genus == 1
    assert not cd.cones and cd.regular_vertices == 1


def test_disconnected_rejected():
    with pytest.raises(NotTransitive):
        make_origami(2, [0, 1], [0, 1])


def test_ornithorynque_invariants():
    xo = builtin_ornithorynque()
    cd = cone_data(xo)
    assert xo.n == 12
    assert sorted(c.order for c in cd.cones) == [2, 2, 2]
    assert cd.regular_vertices == 3
    assert cd.genus == 4
    assert xo.commutator.cycle_type() == (3, 3, 3, 1, 1, 1)
    assert len(xo.labels) == 12
    assert sum(1 for c in xo.edge_classes if c.dotted) == 12
    assert len(xo.edge_classes) == 2 * xo.n


def test_ornithorynque_dotted_consistency():
    # the four within-tile gluings certify the dotted identifications
    xo = builtin_ornithorynque()
    idx = {name: i for i, name in enumerate(xo.names)}
    for i in range(3):
        assert xo.v(idx[f"({i},1,1)"]) == idx[f"({i},1,0)"]
        assert xo.v(idx[f"({i},0,1)"]) == idx[f"({i},0,0)"]
        assert xo.h(idx[f"({i},1,0)"]) == idx[f"({i},0,0)"]
        assert xo.h(idx[f"({i},1,1)"]) == idx[f"({i},0,1)"]


def test_ornithorynque_label_placement():
    xo = builtin_ornithorynque()
    idx = {name: i for i, name in enumerate(xo.names)}
    for i in range(3):
        assert xo.edge_class_of(idx[f"({i},1,0)"], "top").label == ("A", i)
        assert xo.edge_class_of(idx[f"({i},0,0)"], "top").label == ("B", i)
        assert xo.edge_class_of(idx[f"({i},0,0)"], "right").label == ("C", i)
        assert xo.edge_class_of(idx[f"({i},0,1)"], "right").label == ("D", i)


def test_genus2_L_oracle():
    g2 = builtin_genus2_L()
    cycles = brute_commutator_cycles(list(g2.h.images), list(g2.v.images))
    lens = sorted(len(c) for c in cycles)
    assert lens == [3]                       # one cone of order 2
    cd = cone_data(g2)
    assert [c.order for c in cd.cones] == [2]
    assert cd.genus == 2
    assert cd.regular_vertices == 0


def test_euler_characteristic():
    for o in (builtin_torus(), builtin_genus2_L(), builtin_ornithorynque()):
        v_classes = len(o.vertex_orders)
        chi = v_classes - 2 * o.n + o.n
        assert chi == 2 - 2 * o.cone_data.genus


def test_automorphisms():
    xo = builtin_ornithorynque()
    aut = automorphism_group(xo)
    assert len(aut) == 3
    # closed under composition and inverse; order divides n
    for a in aut:
        assert a.inv() in aut
        for b in aut:
            assert a * b in aut
    assert xo.n % len(aut) == 0
    # the index rotation (i,a,b) -> (i+1,a,b) is an automorphism
    idx = {name: i for i, name in enumerate(xo.names)}
    rot = Permutation([idx[f"({(i + 1) % 3},{a},{b})"]
                       for i in range(3) for a in range(2) for b in range(2)])
    assert rot in aut

    assert len(automorphism_group(builtin_torus())) == 1


def test_genus2_automorphisms_brute():
    import itertools
    g2 = builtin_genus2_L()
    # direct brute force over all 6 permutations
    count = 0
    for images in itertools.permutations(range(3)):
        sigma = Permutation(images)
        if sigma * g2.h == g2.h * sigma and sigma * g2.v == g2.v * sigma:
            count += 1
    assert count == 1
    assert len(automorphism_group(g2)) == 1


def test_isomorphism_conjugation_invariance():
    rng = random.Random(5)
    xo = builtin_ornithorynque()
    for _ in range(6):
        images = list(range(12))
        rng.shuffle(images)
        sigma = Permutation(images)
        relabeled = make_origami(
            12, (sigma * xo.h * sigma.inv()).images,
            (sigma * xo.v * sigma.inv()).images)
        found = is_isomorphic(xo, relabeled)
        assert found is not None
        assert found * xo.h == relabeled.h * found
        assert found * xo.v == relabeled.v * found
        assert canonical_key(relabeled) == canonical_key(xo)
        assert cone_data(relabeled).genus == 4


def test_isomorphism_size_mismatch_absent():
    assert is_isomorphic(builtin_torus(), builtin_genus2_L()) is None


def test_point_normalization():
    xo = builtin_ornithorynque()
    p = canonical_point(xo, 3, F(1), F(1, 2))
    assert p.square == xo.h(3) and p.x == 0 and p.y == F(1, 2)
    p2 = canonical_point(xo, 3, F(1), F(1))
    assert p2 == SurfacePoint(xo.v(xo.h(3)), F(0), F(0))
    # idempotent
    p3 = canonical_point(xo, p2.square, p2.x, p2.y)
    assert p3 == p2


def test_vertex_walk_matches_commutator():
    for o in (builtin_torus(), builtin_genus2_L(), builtin_ornithorynque()):
        walk = sorted(k for k in o.vertex_orders if k >= 1)
        comm = sorted(c.order for c in o.cone_data.cones)
        assert walk == comm


def test_text_roundtrip(tmp_path):
    xo = builtin_ornithorynque()
    text = origami_to_text(xo)
    back = origami_from_text(text)
    assert back.pair() == xo.pair()
    assert back.names == xo.names
    bad = "n=2\nh=0 1\nv=0 1\n"
    with pytest.raises(NotTransitive):
        origami_from_text(bad)
    with pytest.raises(ValueError):
        origami_from_text("nonsense")


# -- symmetry views against validated surfaces --------------------------------

BUILTINS = (builtin_ornithorynque(), builtin_genus2_L(), builtin_torus())


def _transitive(n, h, v):
    try:
        return make_origami(n, h, v)
    except NotTransitive:
        assume(False)


origamis = st.one_of(
    st.sampled_from(BUILTINS),
    st.integers(1, 9).flatmap(lambda n: st.builds(
        _transitive, st.just(n), st.permutations(range(n)),
        st.permutations(range(n)))))


@settings(max_examples=200, deadline=None)
@given(origamis)
def test_symmetry_views_match_validated_surfaces(o):
    for view, ref in ((o.half_turn(), Origami(o.hinv, o.vinv)),
                      (o.diagonal_swap(), Origami(o.v, o.h))):
        assert view.n == ref.n
        assert view.h.images == ref.h.images
        assert view.v.images == ref.v.images
        assert view.hinv.images == ref.hinv.images
        for j in range(o.n):
            for c in (BL, BR, TL, TR):
                want = ref.vertex_is_cone[ref.vertex_at(j, c)]
                assert view.vertex_is_cone[view.vertex_at(j, c)] == want
                assert view.cone_at(j, c) == ref.cone_at(j, c) == want


def reference_canonical_point(origami, square, x, y):
    """canonical_point on Fraction comparisons, as it was written first."""
    x = F(x)
    y = F(y)
    if not (0 <= x <= 1 and 0 <= y <= 1):
        raise OutOfRange(f"({x}, {y}) outside the closed unit square")
    if x == 1:
        square, x = origami.h(square), F(0)
    if y == 1:
        square, y = origami.v(square), F(0)
    return SurfacePoint(square, x, y)


# ints, Fractions and strings in and around [0, 1], the edges x=1 and y=1
# included
coordinate = st.one_of(
    st.integers(-1, 2),
    st.builds(F, st.integers(-3, 9), st.integers(1, 6)),
    st.sampled_from(["0", "1", "1/2", "3/3", "2/7", "-1/5", "7/6"]))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(BUILTINS), st.integers(0, 11), coordinate, coordinate)
def test_canonical_point_matches_fraction_version(o, square, x, y):
    square %= o.n
    try:
        want = reference_canonical_point(o, square, x, y)
    except OutOfRange as exc:
        with pytest.raises(OutOfRange, match=re.escape(str(exc))):
            canonical_point(o, square, x, y)
        return
    got = canonical_point(o, square, x, y)
    assert got == want
    assert type(got.x) is F and type(got.y) is F

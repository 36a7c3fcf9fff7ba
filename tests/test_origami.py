import os
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from origamilab.errors import NotTransitive, OutOfRange
from origamilab.flow import _flow
from origamilab.origami import (_SWAP, BL, BR, INFINITY, TL, TR,
                                GluingView, Origami, SurfacePoint,
                                automorphism_group, builtin_genus2_L,
                                builtin_ornithorynque, builtin_torus,
                                canonical_key, canonical_point,
                                is_isomorphic, make_origami, origami_from_text,
                                origami_to_text, relabeling_walk)
from origamilab.perm import Permutation
from surface_strategies import (gluing_view, gluing_views,
                                transitive_origamis, y_view)


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
    cd = t.cone_data
    assert t.n == 1 and cd.genus == 1
    assert not cd.cones and cd.regular_vertices == 1


def test_disconnected_rejected():
    with pytest.raises(NotTransitive):
        make_origami(2, [0, 1], [0, 1])


def test_ornithorynque_invariants():
    xo = builtin_ornithorynque()
    cd = xo.cone_data
    assert xo.n == 12
    assert sorted(cd.cones) == [2, 2, 2]
    assert cd.regular_vertices == 3
    assert cd.genus == 4
    assert sorted(len(c) for c in xo.commutator.cycles()) == \
        [1, 1, 1, 3, 3, 3]
    assert len(xo.labels) == 12
    # 2n edges, of which the twelve unlettered are dotted
    assert len(xo.letters) == 2 * xo.n - 12


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
        assert xo.letters[("A", i)] == (idx[f"({i},1,0)"], "top")
        assert xo.letters[("B", i)] == (idx[f"({i},0,0)"], "top")
        assert xo.letters[("C", i)] == (idx[f"({i},0,0)"], "right")
        assert xo.letters[("D", i)] == (idx[f"({i},0,1)"], "right")
        for a in range(2):
            for b in range(2):
                assert xo.tile_of[idx[f"({i},{a},{b})"]] == i
    # the tops of j = 0..n-1 first, then the rights
    assert list(xo.letters.values()) == sorted(
        xo.letters.values(), key=lambda e: (e[1] == "right", e[0]))
    assert xo.labels == tuple(xo.letters)


def test_label_rows_agree_with_edge_ids():
    # each side of each square carries the letter of its edge, found by
    # `edge_id`: the top of j is the bottom of v(j), the right of j the
    # left of h(j)
    for o in (builtin_ornithorynque(), builtin_genus2_L(), builtin_torus()):
        letter_of = {o.edge_id(j, side): letter
                     for letter, (j, side) in o.letters.items()}
        for side in ("top", "bottom", "left", "right"):
            assert o.label_rows[side] == [
                letter_of.get(o.edge_id(j, side)) for j in range(o.n)]
        assert {o.edge_id(j, side) for j in range(o.n)
                for side in ("top", "bottom")} == set(range(o.n))
        assert {o.edge_id(j, side) for j in range(o.n)
                for side in ("left", "right")} == set(range(o.n, 2 * o.n))


def test_genus2_L_oracle():
    g2 = builtin_genus2_L()
    cycles = brute_commutator_cycles(list(g2.h.images), list(g2.v.images))
    lens = sorted(len(c) for c in cycles)
    assert lens == [3]                       # one cone of order 2
    cd = g2.cone_data
    assert cd.cones == (2,)
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
        assert relabeled.cone_data.genus == 4


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
        comm = sorted(o.cone_data.cones)
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


DOCS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "docs", "formats.md")


def test_documented_origami_file_is_read():
    # the fenced block under the format's heading is a file the reader takes
    with open(DOCS) as fh:
        section = fh.read().split("## Origami text format\n", 1)[1]
    block = section.split("```\n", 2)[1]
    o = origami_from_text(block)
    assert o.pair() == builtin_genus2_L().pair()
    assert o.names == ("a", "b", "c")


# -- symmetry views against validated surfaces --------------------------------

BUILTINS = (builtin_ornithorynque(), builtin_genus2_L(), builtin_torus())


origamis = st.one_of(st.sampled_from(BUILTINS), transitive_origamis(9))


@settings(max_examples=200, deadline=None)
@given(origamis)
def test_symmetry_views_match_validated_surfaces(o):
    view, ref = o.diagonal_swap(), Origami(o.v, o.h)
    assert view.n == ref.n
    assert view.h.images == ref.h.images
    assert view.v.images == ref.v.images
    assert view.hinv.images == ref.hinv.images
    for j in range(o.n):
        for c in (BL, BR, TL, TR):
            want = ref.vertex_is_cone[ref._vertex_of[c][j]]
            assert view.vertex_is_cone[view._vertex_of[c][j]] == want
            assert view.cone_at(j, c) == ref.cone_at(j, c) == want


def reference_vertex_classes(surface):
    """The vertex walk as it was, over a dict keyed by (square, corner):
    (that dict, the vertex orders)."""
    turn = {TR: (surface.h.images, TL), TL: (surface.v.images, BL),
            BL: (surface.hinv.images, BR), BR: (surface.vinv.images, TR)}
    vertex_of = {}
    orders = []
    for sq0 in range(surface.n):
        for c0 in (BL, BR, TL, TR):
            if (sq0, c0) in vertex_of:
                continue
            vid = len(orders)
            sq, corner = sq0, c0
            size = 0
            while (sq, corner) not in vertex_of:
                vertex_of[(sq, corner)] = vid
                size += 1
                images, corner = turn[corner]
                sq = images[sq]
            assert size % 4 == 0
            orders.append(size // 4 - 1)
    return vertex_of, tuple(orders)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(BUILTINS), gluing_views(9)))
def test_vertex_classes_match_dict_walk(surface):
    # random pairs need not be transitive: the walk reads only the gluings
    vertex_of, orders = reference_vertex_classes(surface)
    assert surface.vertex_orders == orders
    assert surface.vertex_is_cone == tuple(k >= 1 for k in orders)
    for (j, c), vid in vertex_of.items():
        assert surface._vertex_of[c][j] == vid
        assert surface.cone_at(j, c) == (orders[vid] >= 1)
    # the swapped view's corner c is the surface's corner _SWAP[c]
    view = surface.diagonal_swap()
    for j, c in vertex_of:
        assert view._vertex_of[c][j] == vertex_of[(j, _SWAP[c])]


def _views(surface):
    """The diagonal swap of the surface, and the swap of that."""
    view = surface.diagonal_swap()
    yield view
    yield view.diagonal_swap()


def _corner_orders(surface):
    return {(j, c): surface.vertex_orders[surface._vertex_of[c][j]]
            for j in range(surface.n) for c in (BL, BR, TL, TR)}


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.sampled_from(BUILTINS), st.builds(
    y_view, st.lists(st.integers(1, 4), min_size=1, max_size=5),
    st.sampled_from(("vertical", "horizontal")))))
def test_views_agree_with_walked_gluing_views(surface):
    for view in _views(surface):
        assert type(view) is GluingView
        walked = GluingView(view.h, view.v)
        assert (view.n, view.hinv, view.vinv) == \
            (walked.n, walked.hinv, walked.vinv)
        for j in range(surface.n):
            for c in (BL, BR, TL, TR):
                assert view.cone_at(j, c) == walked.cone_at(j, c)
        assert _corner_orders(view) == _corner_orders(walked)


@pytest.mark.parametrize("surface", BUILTINS, ids=lambda o: f"n{o.n}")
def test_a_symmetry_twice_gives_back_the_surface(surface):
    back = surface.diagonal_swap().diagonal_swap()
    assert (back.h, back.v, back.hinv, back.vinv) == \
        (surface.h, surface.v, surface.hinv, surface.vinv)
    assert back._vertex_of == surface._vertex_of


@pytest.mark.parametrize("surface", BUILTINS, ids=lambda o: f"n{o.n}")
def test_swap_view_walks_labels_and_flows_down(surface):
    view = surface.diagonal_swap()
    ref = Origami(surface.v, surface.h)
    assert relabeling_walk(view, 0) == relabeling_walk(ref, 0)
    assert all(label is None for row in view.label_rows.values()
               for label in row)
    for sq in range(surface.n):
        start = SurfacePoint(sq, F(1, 3), F(1, 5))
        for slope in (F(2, 3), F(-1, 2), F(0), INFINITY):
            got = _flow(view, slope, start, False, 5)
            want = _flow(ref, slope, start, False, 5)
            assert got[:3] == want[:3]
            assert list(got[3]) == list(want[3])


def test_views_walk_no_vertex_and_invert_nothing(monkeypatch):
    surfaces = [*BUILTINS, y_view([2, 1, 3], "horizontal")]
    calls = []
    monkeypatch.setattr(GluingView, "_build_vertex_classes",
                        lambda self: calls.append("vertex walk"))
    monkeypatch.setattr(Permutation, "inv",
                        lambda self: calls.append("inverse"))
    for surface in surfaces:
        for _ in _views(surface):
            pass
    assert calls == []


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


# -- the relabeling walk against the three walks it replaced ----------------

def reference_check_transitive(surface):
    """Transitivity by depth-first search, as `Origami` checked it."""
    seen = [False] * surface.n
    seen[0] = True
    stack = [0]
    while stack:
        x = stack.pop()
        for y in (surface.h(x), surface.v(x), surface.hinv(x),
                  surface.vinv(x)):
            if not seen[y]:
                seen[y] = True
                stack.append(y)
    for j, ok in enumerate(seen):
        if not ok:
            raise NotTransitive(j)


def reference_propagate(o1, o2, anchor_image):
    """The relabeling with sigma(0) = anchor_image by depth-first
    propagation, or None, as `is_isomorphic` and `automorphism_group` ran
    it."""
    n = o1.n
    sigma = [None] * n
    sigma[0] = anchor_image
    stack = [0]
    while stack:
        x = stack.pop()
        for g1, g2 in ((o1.h, o2.h), (o1.v, o2.v), (o1.hinv, o2.hinv),
                       (o1.vinv, o2.vinv)):
            y, img = g1(x), g2(sigma[x])
            if sigma[y] is None:
                sigma[y] = img
                stack.append(y)
            elif sigma[y] != img:
                return None
    if sorted(sigma) != list(range(n)):
        return None
    return Permutation(sigma)


def reference_isomorphisms(o1, o2):
    return [s for t in range(o2.n)
            if (s := reference_propagate(o1, o2, t)) is not None]


def reference_canonical_key(origami):
    """The key by its own inline breadth-first walk."""
    n = origami.n
    best = None
    for s0 in range(n):
        order = [None] * n
        order[s0] = 0
        count = 1
        queue = [s0]
        qi = 0
        while qi < len(queue):
            x = queue[qi]
            qi += 1
            for y in (origami.h(x), origami.v(x), origami.hinv(x),
                      origami.vinv(x)):
                if order[y] is None:
                    order[y] = count
                    count += 1
                    queue.append(y)
        h2 = [0] * n
        v2 = [0] * n
        for x in range(n):
            h2[order[x]] = order[origami.h(x)]
            v2[order[x]] = order[origami.v(x)]
        key = (tuple(h2), tuple(v2))
        if best is None or key < best:
            best = key
    return best


def _pairs(n):
    return st.tuples(st.permutations(range(n)), st.permutations(range(n)))


def _conjugate(sigma, g):
    return (sigma * g * sigma.inv()).images


def _origami_or_unreachable(h, v):
    """The validated surface of (h, v), or the square its NotTransitive
    names; the same from the reference check first."""
    try:
        reference_check_transitive(gluing_view(h, v))
    except NotTransitive as exc:
        with pytest.raises(NotTransitive) as got:
            Origami(Permutation(h), Permutation(v))
        assert got.value.unreachable == exc.unreachable
        return None
    return Origami(Permutation(h), Permutation(v))


# a builtin's pair or a random pair (n <= 8), a relabeling and a second
# random pair of the same size
walk_cases = st.one_of(
    st.sampled_from([(o.h.images, o.v.images) for o in BUILTINS]),
    st.integers(1, 8).flatmap(_pairs)).flatmap(
        lambda hv: st.tuples(st.just(hv),
                             st.permutations(range(len(hv[0]))),
                             _pairs(len(hv[0]))))


@settings(max_examples=300, deadline=None)
@given(walk_cases)
def test_walk_matches_the_walks_it_replaced(case):
    (h, v), images, other = case
    o = _origami_or_unreachable(h, v)
    o2 = _origami_or_unreachable(*other)
    assume(o is not None)
    sigma = Permutation(images)
    relabeled = Origami(Permutation(_conjugate(sigma, o.h)),
                        Permutation(_conjugate(sigma, o.v)))
    for a, b in ((o, relabeled), (relabeled, o), (o, o2), (o2, o)):
        if a is None or b is None:
            continue
        want = reference_isomorphisms(a, b)
        assert is_isomorphic(a, b) == (want[0] if want else None)
    assert is_isomorphic(o, relabeled) is not None
    assert automorphism_group(o) == reference_isomorphisms(o, o)
    assert automorphism_group(relabeled) == \
        reference_isomorphisms(relabeled, relabeled)
    for surface in (o, relabeled, o2):
        if surface is not None:
            assert canonical_key(surface) == reference_canonical_key(surface)


def brute_isomorphisms(o1, o2):
    """Every relabeling sigma with sigma h1 = h2 sigma and sigma v1 = v2
    sigma, over all n! of them, by sigma(0)."""
    import itertools
    found = [sigma for sigma in map(Permutation,
                                    itertools.permutations(range(o1.n)))
             if sigma * o1.h == o2.h * sigma and sigma * o1.v == o2.v * sigma]
    return sorted(found, key=lambda sigma: sigma(0))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(_pairs(n), st.permutations(range(n)), _pairs(n))))
def test_walk_matches_brute_force_over_all_relabelings(case):
    (h, v), images, other = case
    o = _origami_or_unreachable(h, v)
    o2 = _origami_or_unreachable(*other)
    assume(o is not None and o2 is not None)
    sigma = Permutation(images)
    relabeled = Origami(Permutation(_conjugate(sigma, o.h)),
                        Permutation(_conjugate(sigma, o.v)))
    for b in (relabeled, o2):
        brute = brute_isomorphisms(o, b)
        assert is_isomorphic(o, b) == (brute[0] if brute else None)
        assert (canonical_key(o) == canonical_key(b)) == bool(brute)
    assert automorphism_group(o) == brute_isomorphisms(o, o)

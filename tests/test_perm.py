from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from origamilab.errors import NotBijective
from origamilab.perm import Permutation, commutator


def perms(n_max=8):
    return st.integers(2, n_max).flatmap(
        lambda n: st.permutations(list(range(n))).map(Permutation))


def test_basic_ops():
    p = Permutation([1, 2, 0])
    assert p(0) == 1 and p(2) == 0
    assert p.inv().images == (2, 0, 1)
    assert (p * p.inv()).images == (0, 1, 2)
    assert p.cycles() == [(0, 1, 2)]
    assert sorted(len(c) for c in Permutation(range(4)).cycles()) == \
        [1, 1, 1, 1]


def test_from_cycles():
    p = Permutation.from_cycles(3, [(0, 1)])
    assert p.images == (1, 0, 2)
    q = Permutation.from_cycles(5, [(0, 2, 4), (1, 3)])
    assert q(0) == 2 and q(4) == 0 and q(1) == 3 and q(3) == 1


def test_not_bijective():
    with pytest.raises(NotBijective):
        Permutation([0, 0, 1])


def test_composition_order():
    # (a*b)(x) = a(b(x))
    a = Permutation([1, 0, 2])
    b = Permutation([0, 2, 1])
    assert (a * b).images == tuple(a(b(x)) for x in range(3))


@settings(max_examples=50, deadline=None)
@given(perms(), perms())
def test_commutator_identity(v, h):
    if v.n != h.n:
        return
    c = commutator(v, h)
    expect = tuple(v.inv()(h.inv()(v(h(x)))) for x in range(v.n))
    assert c.images == expect


@settings(max_examples=50, deadline=None)
@given(perms())
def test_inverse_roundtrip(p):
    assert (p.inv() * p).images == tuple(range(p.n))
    assert p.inv().inv().images == p.images


@settings(max_examples=30, deadline=None)
@given(perms())
def test_cycles_partition(p):
    cycles = p.cycles()
    seen = sorted(x for c in cycles for x in c)
    assert seen == list(range(p.n))
    for c in cycles:
        for a, b in zip(c, c[1:] + c[:1]):
            assert p(a) == b


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.permutations(list(range(n))).map(Permutation),
    st.permutations(list(range(n))).map(Permutation))))
def test_products_and_inverses_match_validated_forms(pair):
    # products and inverses skip the bijection check; building them from
    # their images validates them
    a, b = pair
    for got in (a * b, b * a, a.inv(), commutator(a, b)):
        assert Permutation(got.images).images == got.images
        assert type(got.images) is tuple
    assert (a * b).images == tuple(a(b(x)) for x in range(a.n))
    assert a.inv().images == tuple(a.images.index(x) for x in range(a.n))


def test_outside_input_still_validated():
    with pytest.raises(NotBijective):
        Permutation([0, 0])
    with pytest.raises(ValueError):
        Permutation([1, 0]) * Permutation([0, 2, 1])

"""The random surfaces that several test modules draw, each module with its
own range of square counts."""

from hypothesis import assume
from hypothesis import strategies as st

from origamilab.cfrac import g_matrix
from origamilab.cylinders import InducedDecomposition
from origamilab.errors import NotTransitive
from origamilab.origami import GluingView, builtin_ornithorynque, make_origami
from origamilab.perm import Permutation


def transitive(n, h, v):
    """The validated surface of (h, v); a pair not transitive is rejected."""
    try:
        return make_origami(n, h, v)
    except NotTransitive:
        assume(False)


def gluing_view(h, v):
    return GluingView(Permutation(h), Permutation(v))


def y_view(quotients, base):
    """Y = A^-1 . X of the genus-4 surface: an induced decomposition's view."""
    return InducedDecomposition(builtin_ornithorynque(), g_matrix(quotients),
                                base=base).y_view


def transitive_origamis(max_n):
    """Validated surfaces of random (h, v) pairs on 1..max_n squares."""
    return st.integers(1, max_n).flatmap(lambda n: st.builds(
        transitive, st.just(n), st.permutations(range(n)),
        st.permutations(range(n))))


def gluing_views(max_n):
    """Unvalidated (h, v) pairs on 1..max_n squares, transitive or not."""
    return st.integers(1, max_n).flatmap(lambda n: st.builds(
        gluing_view, st.permutations(range(n)), st.permutations(range(n))))

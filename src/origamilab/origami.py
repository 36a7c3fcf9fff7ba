"""Origamis (square-tiled surfaces): construction, invariants, builtins.

A surface is glued from n unit squares: crossing the right edge of square j
lands on the left edge of h(j), crossing the top edge lands on the bottom
edge of v(j). All derived data (vertex classes, cone data, the letters
on each side) is computed at construction time and immutable afterwards.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import InvariantViolated, NotTransitive, OutOfRange
from .perm import Permutation, commutator

# corner tags: vertex sits at this corner of the square
BL, BR, TL, TR = "BL", "BR", "TL", "TR"

# The horizontal slope; every other slope (dx/dy) is a Fraction. Formulas
# read a slope as the pair of `slope_pair`.
INFINITY = float("inf")
# Bytes a cell grid of `hitting` may take. It lives here, in a module every
# command loads, so that the CLI reads it without loading `flow` or numpy.
DEFAULT_MEM_BUDGET = 256 * 2 ** 20


def slope_pair(slope):
    """The slope p/q as coprime integers (p, q) with q >= 0: the direction
    (dx, dy) = (p, q), and (1, 0) for INFINITY."""
    if not isinstance(slope, Fraction):
        if slope == INFINITY:
            return 1, 0
        slope = Fraction(slope)
    return slope.numerator, slope.denominator


@dataclass(frozen=True)
class ConeData:
    cones: tuple              # each cone's order k >= 1, angle 2*pi*(k+1)
    regular_vertices: int     # commutator fixed points
    genus: int


@dataclass(frozen=True)
class SurfacePoint:
    square: int
    x: Fraction
    y: Fraction


# where each corner of a square lands under the diagonal swap
_SWAP = {BL: BL, TR: TR, BR: TL, TL: BR}


class GluingView:
    """The surface glued by a pair (h, v) of permutations of equal size, not
    validated (`Origami` is the validated subclass): T and V re-gluings of a
    valid surface give a valid one, so a pair they produce needs no second
    check. It carries the gluings and their inverses, the vertex classes,
    `cone_at` and the diagonal swap, a `GluingView` that shares its vertex
    classes: what the flow kernel, `Segment` and `VerticalDecomposition`
    read. It has no lettered edges."""

    letters = {}

    def __init__(self, h, v):
        if h.n != v.n:
            raise ValueError("h and v must have the same size")
        self.n = h.n
        self.h, self.v = h, v
        self.hinv, self.vinv = h.inv(), v.inv()
        self._build_vertex_classes()

    def _build_vertex_classes(self):
        # turn (square, corner) incidences counterclockwise around a vertex,
        # TR -h-> TL -v-> BL -hinv-> BR -vinv-> TR, a full turn per pass: a
        # class of k+1 turns is a cone of order k >= 1; ids in scan order
        vertex_of = {c: [None] * self.n for c in (BL, BR, TL, TR)}
        turn = [(vertex_of[c], g.images) for c, g in
                ((TR, self.h), (TL, self.v), (BL, self.hinv), (BR, self.vinv))]
        orders = []
        for sq0 in range(self.n):
            for i, c0 in ((2, BL), (3, BR), (1, TL), (0, TR)):
                if vertex_of[c0][sq0] is not None:
                    continue
                vid = len(orders)
                (r0, g0), (r1, g1), (r2, g2), (r3, g3) = turn[i:] + turn[:i]
                sq, turns = sq0, 0
                while r0[sq] is None:
                    r0[sq] = r1[g0[sq]] = vid
                    sq = g1[g0[sq]]
                    r2[sq] = r3[g2[sq]] = vid
                    sq = g3[g2[sq]]
                    turns += 1
                orders.append(turns - 1)
        self._vertex_of = vertex_of
        self.vertex_orders = tuple(orders)
        self.vertex_is_cone = tuple(k >= 1 for k in orders)

    @cached_property
    def label_rows(self):
        """`letters` as {side: letters by square}, for the flow's hot loops:
        the letter on the top of j is also on the bottom of v(j), and the
        one on the right of j also on the left of h(j). Corners and the
        stop of a cut piece (side None) carry no letter."""
        rows = {side: [None] * self.n
                for side in ("top", "bottom", "left", "right", "corner", None)}
        for letter, (j, side) in self.letters.items():
            opp, g = ("bottom", self.v) if side == "top" else ("left", self.h)
            rows[side][j] = rows[opp][g(j)] = letter
        return rows

    def cone_at(self, square, corner):
        return self.vertex_is_cone[self._vertex_of[corner][square]]

    def diagonal_swap(self):
        """The surface mirrored in the diagonal y = x, (h, v) -> (v, h),
        square indices kept: its corner c of square j is this surface's
        corner _SWAP[c] of j, so it shares this surface's vertex classes
        and ids, and walks no vertex and inverts no permutation."""
        view = object.__new__(GluingView)
        view.n = self.n
        view.h, view.v, view.hinv, view.vinv = (self.v, self.h, self.vinv,
                                                self.hinv)
        view._vertex_of = {c: self._vertex_of[_SWAP[c]]
                           for c in (BL, BR, TL, TR)}
        view.vertex_orders = self.vertex_orders
        view.vertex_is_cone = self.vertex_is_cone
        return view


class Origami(GluingView):
    """A `GluingView` checked to be a surface: transitive, with cone data
    that agrees with the vertex walk. It adds names and the surface's
    decorations: `letters`, each letter mapped to the (square, side) of the
    top or right it is on, the tops of j = 0..n-1 first and then the
    rights, and `tile_of`, each square's tile, or None."""

    def __init__(self, h, v, names=None, labels=None, tile_of=None):
        super().__init__(h, v)
        self.names = tuple(names) if names else tuple(str(j) for j in range(self.n))
        if len(self.names) != self.n:
            raise ValueError(f"{len(self.names)} names for n={self.n}")
        self.tile_of = tile_of

        reached, _ = relabeling_walk(self, 0)
        if len(reached) < self.n:
            raise NotTransitive(min(set(range(self.n)) - set(reached)))
        self._build_cone_data()
        labels = labels or {}
        self.letters = {lab: (j, side) for side in ("top", "right")
                        for j in range(self.n)
                        if (lab := labels.get((j, side))) is not None}
        self.labelled = bool(labels)

    # -- construction checks ------------------------------------------------

    def _build_cone_data(self):
        # a commutator cycle of length k + 1 is a vertex of order k, a
        # cone when k >= 1
        comm = commutator(self.v, self.h)
        orders = [len(cyc) - 1 for cyc in comm.cycles()]
        cones = tuple(k for k in orders if k)
        if sum(cones) % 2:
            raise InvariantViolated("sum of cone orders must be even")
        # cross-check against the independent side-pairing walk
        if sorted(orders) != sorted(self.vertex_orders):
            raise InvariantViolated(
                "commutator cycles disagree with the vertex walk")
        self.cone_data = ConeData(cones, regular_vertices=orders.count(0),
                                  genus=(sum(cones) + 2) // 2)
        self.commutator = comm

    # -- lookups --------------------------------------------------------------

    def edge_id(self, square, side):
        """The edge on this side of the square: j for the top of j, which
        is the bottom of v(j), and n + j for the right of j, which is the
        left of h(j)."""
        if side == "top":
            return square
        if side == "bottom":
            return self.vinv(square)
        if side == "right":
            return self.n + square
        if side == "left":
            return self.n + self.hinv(square)
        raise ValueError(f"bad side {side!r}")

    @property
    def labels(self):
        return tuple(self.letters)

    def pair(self):
        return (self.h.images, self.v.images)

    def __repr__(self):
        return f"Origami(n={self.n}, h={self.h!r}, v={self.v!r})"


def make_origami(n, h, v, names=None, labels=None, tile_of=None):
    """Validated origami from image sequences or Permutations."""
    if n < 1:
        raise ValueError(f"an origami needs at least one square, not n={n}")
    if not isinstance(h, Permutation):
        h = Permutation(h)
    if not isinstance(v, Permutation):
        v = Permutation(v)
    if h.n != n or v.n != n:
        raise ValueError(f"permutation sizes disagree with n={n}")
    return Origami(h, v, names=names, labels=labels, tile_of=tile_of)


# -- builtins ----------------------------------------------------------------

def _xo_index(i, a, b):
    return 4 * (i % 3) + 2 * a + b


def builtin_ornithorynque():
    """The 12-square genus-4 origami on Z/3 x Z/2 x Z/2 with lettered edges.

    h sends (i,0,0)->(i+1,1,0), (i,0,1)->(i-1,1,1), (i,1,0)->(i,0,0),
    (i,1,1)->(i,0,1); v sends (i,0,0)->(i-1,0,1), (i,0,1)->(i,0,0),
    (i,1,0)->(i+1,1,1), (i,1,1)->(i,1,0). Labels: A_i top of (i,1,0),
    B_i top of (i,0,0), C_i right of (i,0,0), D_i right of (i,0,1); the
    twelve within-tile identifications are the dotted edges. Tile i is
    the 2x2 block of the squares (i,a,b).
    """
    h = [0] * 12
    v = [0] * 12
    names = [""] * 12
    tile_of = [0] * 12
    for i in range(3):
        h[_xo_index(i, 0, 0)] = _xo_index(i + 1, 1, 0)
        h[_xo_index(i, 0, 1)] = _xo_index(i - 1, 1, 1)
        h[_xo_index(i, 1, 0)] = _xo_index(i, 0, 0)
        h[_xo_index(i, 1, 1)] = _xo_index(i, 0, 1)
        v[_xo_index(i, 0, 0)] = _xo_index(i - 1, 0, 1)
        v[_xo_index(i, 0, 1)] = _xo_index(i, 0, 0)
        v[_xo_index(i, 1, 0)] = _xo_index(i + 1, 1, 1)
        v[_xo_index(i, 1, 1)] = _xo_index(i, 1, 0)
        for a in range(2):
            for b in range(2):
                names[_xo_index(i, a, b)] = f"({i},{a},{b})"
                tile_of[_xo_index(i, a, b)] = i
    labels = {}
    for i in range(3):
        labels[(_xo_index(i, 1, 0), "top")] = ("A", i)
        labels[(_xo_index(i, 0, 0), "top")] = ("B", i)
        labels[(_xo_index(i, 0, 0), "right")] = ("C", i)
        labels[(_xo_index(i, 0, 1), "right")] = ("D", i)
    return make_origami(12, h, v, names=names, labels=labels,
                        tile_of=tuple(tile_of))


def builtin_genus2_L():
    """3-square comparison surface with one cone of order 2 (genus 2)."""
    h = Permutation.from_cycles(3, [(0, 1)])
    v = Permutation.from_cycles(3, [(0, 2)])
    return Origami(h, v, names=("0", "1", "2"))


def builtin_torus():
    return make_origami(1, [0], [0])


BUILTINS = {
    "ornithorynque": builtin_ornithorynque,
    "genus2_L": builtin_genus2_L,
    "torus": builtin_torus,
}


# -- symmetries ---------------------------------------------------------------

def relabeling_walk(surface, start):
    """The one walk of the square graph: breadth first from `start` along
    h, v, h^-1, v^-1, in that order. Returns the squares in the order the
    walk reaches them and (h, v) relabeled by that order (the i-th square
    reached becomes square i), over the squares reached. The walk from 0
    reaches every square exactly when the surface is transitive."""
    h, v = surface.h.images, surface.v.images
    moves = (h, v, surface.hinv.images, surface.vinv.images)
    label = {start: 0}
    order = [start]
    for x in order:             # the list is the queue: it grows as it is read
        for g in moves:
            if g[x] not in label:
                label[g[x]] = len(order)
                order.append(g[x])
    return order, (tuple(label[h[x]] for x in order),
                   tuple(label[v[x]] for x in order))


def _isomorphisms(o1, o2):
    """Every relabeling sigma with sigma h1 = h2 sigma and sigma v1 = v2
    sigma, by sigma(0) = t for t = 0, 1, ...: for transitive surfaces there
    is one exactly when the walks from 0 on o1 and from t on o2 give the
    same relabeled pair, and it sends the i-th square of the one walk to
    the i-th of the other."""
    order1, pair1 = relabeling_walk(o1, 0)
    for t in range(o2.n):
        order2, pair2 = relabeling_walk(o2, t)
        if pair2 == pair1:
            sigma = [0] * o1.n
            for a, b in zip(order1, order2):
                sigma[a] = b
            yield Permutation(sigma)


def automorphism_group(origami):
    """All square relabelings commuting with both h and v, by the image of
    square 0."""
    return list(_isomorphisms(origami, origami))


def is_isomorphic(o1, o2):
    """The relabeling sigma with h2 = sigma h1 sigma^-1 and v2 = sigma v1
    sigma^-1 of least sigma(0), or None. Different sizes are simply not
    isomorphic."""
    if o1.n != o2.n:
        return None
    return next(_isomorphisms(o1, o2), None)


def canonical_key(origami):
    """Relabeling-invariant key: the least relabeled (h, v) of the walks
    from every square."""
    return min(relabeling_walk(origami, s)[1] for s in range(origami.n))


# -- points -------------------------------------------------------------------

_ZERO = Fraction(0)


def canonical_point(origami, square, x, y):
    """Push x=1 to the left edge of h(square), then y=1 to the bottom of
    v(square)."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    if not isinstance(y, Fraction):
        y = Fraction(y)
    xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
    if not (0 <= xn <= xd and 0 <= yn <= yd):
        raise OutOfRange(f"({x}, {y}) outside the closed unit square")
    if xn == xd:
        square, x = origami.h(square), _ZERO
    if yn == yd:
        square, y = origami.v(square), _ZERO
    return SurfacePoint(square, x, y)


# -- text format ---------------------------------------------------------------

def origami_to_text(origami):
    lines = [f"n={origami.n}",
             "h=" + " ".join(map(str, origami.h.images)),
             "v=" + " ".join(map(str, origami.v.images))]
    if origami.names != tuple(str(j) for j in range(origami.n)):
        lines.append("names=" + " ".join(origami.names))
    return "\n".join(lines) + "\n"


def origami_from_text(text):
    """The origami of a file in the text format: each of the keys n, h, v
    and names at most once, and no other key."""
    fields = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, rest = line.partition("=")
        key = key.strip()
        if not eq or key not in ("n", "h", "v", "names"):
            raise ValueError(f"bad origami file: line {lineno}: {line!r} "
                             "is not n=, h=, v= or names=")
        if key in fields:
            raise ValueError(
                f"bad origami file: line {lineno}: repeated key {key!r}")
        fields[key] = rest.strip()
    try:
        n = int(fields["n"])
        h = [int(t) for t in fields["h"].split()]
        v = [int(t) for t in fields["v"].split()]
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad origami file: {exc}") from exc
    names = fields["names"].split() if "names" in fields else None
    return make_origami(n, h, v, names=names)

"""Origamis (square-tiled surfaces): construction, invariants, builtins.

A surface is glued from n unit squares: crossing the right edge of square j
lands on the left edge of h(j), crossing the top edge lands on the bottom
edge of v(j). All derived data (edge classes, vertex classes, cone data) is
computed at construction time and immutable afterwards.
"""

from dataclasses import dataclass
from fractions import Fraction

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
class EdgeClass:
    id: int
    orientation: str          # "h" horizontal edge, "v" vertical edge
    incidences: tuple         # ((square, side), (square, side))
    label: object = None      # letter tuple like ("A", 0), or None
    dotted: bool = False


@dataclass(frozen=True)
class Cone:
    vertex_id: int
    order: int                # k >= 1, cone angle 2*pi*(k+1)
    cycle: tuple              # commutator cycle realizing it


@dataclass(frozen=True)
class ConeData:
    cones: tuple              # of Cone
    regular_vertices: int     # commutator fixed points
    genus: int


@dataclass(frozen=True)
class SurfacePoint:
    square: int
    x: Fraction
    y: Fraction


class GluingView:
    """The surface glued by a pair (h, v) of permutations of equal size, not
    validated (`Origami` is the validated subclass): T and V re-gluings of a
    valid surface give a valid one, so a pair they produce needs no second
    check. It carries the gluings and their inverses, the vertex classes,
    `vertex_at`, `cone_at` and the two square symmetries: what the flow
    kernel, `Segment` and `VerticalDecomposition` read. It has no lettered
    edges."""

    edge_labels = {}

    def __init__(self, h, v):
        if h.n != v.n:
            raise ValueError("h and v must have the same size")
        self.n = h.n
        self.h, self.v = h, v
        self.hinv, self.vinv = h.inv(), v.inv()
        self._build_vertex_classes()

    def _build_vertex_classes(self):
        # rotate (square, corner) incidences counterclockwise around a vertex;
        # one full turn is 4 steps, so a class of size 4(k+1) is a cone of
        # order k when k >= 1
        turn = {TR: (self.h.images, TL), TL: (self.v.images, BL),
                BL: (self.hinv.images, BR), BR: (self.vinv.images, TR)}
        vertex_of = {}
        orders = []
        for sq0 in range(self.n):
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
                if size % 4:
                    raise InvariantViolated(f"vertex class of size {size}")
                orders.append(size // 4 - 1)
        self._vertex_of = vertex_of
        self.vertex_orders = tuple(orders)
        self.vertex_is_cone = tuple(k >= 1 for k in orders)

    def vertex_at(self, square, corner):
        return self._vertex_of[(square, corner)]

    def cone_at(self, square, corner):
        return self.vertex_is_cone[self._vertex_of[(square, corner)]]

    # -- symmetries of the square that keep square indices ----------------------

    def half_turn(self):
        """The surface turned by a half turn, (h, v) -> (h^-1, v^-1), as a
        view (see `SquareSymmetryView`)."""
        return SquareSymmetryView(self, self.hinv, self.vinv, self.h,
                                  _HALF_TURN)

    def diagonal_swap(self):
        """The surface mirrored in the diagonal y = x, (h, v) -> (v, h), as
        a view (see `SquareSymmetryView`)."""
        return SquareSymmetryView(self, self.v, self.h, self.vinv, _SWAP)


class Origami(GluingView):
    """A `GluingView` checked to be a surface: transitive, with cone data
    that agrees with the vertex walk. It adds names, edge classes and
    lettered edges."""

    def __init__(self, h, v, names=None, labels=None):
        super().__init__(h, v)
        self.names = tuple(names) if names else tuple(str(j) for j in range(self.n))
        self.tiles = None     # set by builtins that have a tile structure

        self._check_transitive()
        self._build_cone_data()
        self._build_edge_classes(labels or {})

    # -- construction checks ------------------------------------------------

    def _check_transitive(self):
        seen = [False] * self.n
        seen[0] = True
        stack = [0]
        while stack:
            x = stack.pop()
            for y in (self.h(x), self.v(x), self.hinv(x), self.vinv(x)):
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        for j, ok in enumerate(seen):
            if not ok:
                raise NotTransitive(j)

    def _build_cone_data(self):
        comm = commutator(self.v, self.h)
        cycles = comm.cycles(include_fixed=True)
        cones = []
        regular = 0
        for cyc in cycles:
            if len(cyc) >= 2:
                cones.append(Cone(vertex_id=-1, order=len(cyc) - 1, cycle=cyc))
            else:
                regular += 1
        total_order = sum(c.order for c in cones)
        if total_order % 2:
            raise InvariantViolated("sum of cone orders must be even")
        genus = (total_order + 2) // 2
        # cross-check against the independent side-pairing walk
        walk_orders = sorted(k for k in self.vertex_orders if k >= 1)
        if walk_orders != sorted(c.order for c in cones) or \
                sum(1 for k in self.vertex_orders if k == 0) != regular:
            raise InvariantViolated(
                "commutator cycles disagree with the vertex walk")
        self.cone_data = ConeData(cones=tuple(cones), regular_vertices=regular,
                                  genus=genus)
        self.commutator = comm

    def _build_edge_classes(self, labels):
        # ids: 0..n-1 horizontal (top of j), n..2n-1 vertical (right of j)
        has_labels = bool(labels)
        classes = []
        for j in range(self.n):
            lab = labels.get((j, "top"))
            classes.append(EdgeClass(
                id=j, orientation="h",
                incidences=((j, "top"), (self.v(j), "bottom")),
                label=lab, dotted=has_labels and lab is None))
        for j in range(self.n):
            lab = labels.get((j, "right"))
            classes.append(EdgeClass(
                id=self.n + j, orientation="v",
                incidences=((j, "right"), (self.h(j), "left")),
                label=lab, dotted=has_labels and lab is None))
        self.edge_classes = tuple(classes)
        self.labelled = has_labels
        self._label_to_class = {c.label: c for c in classes if c.label is not None}
        # (square, side) -> label of every lettered edge, both of its sides
        self.edge_labels = {inc: c.label for c in classes
                            if c.label is not None for inc in c.incidences}

    # -- lookups --------------------------------------------------------------

    def edge_class_of(self, square, side):
        if side == "top":
            return self.edge_classes[square]
        if side == "bottom":
            return self.edge_classes[self.vinv(square)]
        if side == "right":
            return self.edge_classes[self.n + square]
        if side == "left":
            return self.edge_classes[self.n + self.hinv(square)]
        raise ValueError(f"bad side {side!r}")

    def class_of_label(self, label):
        return self._label_to_class[label]

    @property
    def labels(self):
        return tuple(self._label_to_class)

    def pair(self):
        return (self.h.images, self.v.images)

    def __eq__(self, other):
        return isinstance(other, Origami) and self.pair() == other.pair()

    def __hash__(self):
        return hash(self.pair())

    def __repr__(self):
        return f"Origami(n={self.n}, h={self.h!r}, v={self.v!r})"


# where each corner of a square lands under the symmetry
_HALF_TURN = {BL: TR, TR: BL, BR: TL, TL: BR}
_SWAP = {BL: BL, TR: TR, BR: TL, TL: BR}


class SquareSymmetryView:
    """An origami seen through a symmetry of the unit square: square j stays
    square j, its gluings are (h, v) with inverse hinv, and its corner c is
    the origami's corner corner_map[c]. It is not a validated surface: it
    carries only what the flow kernel, `canonical_point` and
    `VerticalDecomposition` read, and its vertex ids are the origami's."""

    def __init__(self, origami, h, v, hinv, corner_map):
        self.n = origami.n
        self.h, self.v, self.hinv = h, v, hinv
        self.vertex_is_cone = origami.vertex_is_cone
        self._vertex_of = origami._vertex_of
        self._corner = corner_map

    def vertex_at(self, square, corner):
        return self._vertex_of[(square, self._corner[corner])]

    def cone_at(self, square, corner):
        return self.vertex_is_cone[self.vertex_at(square, corner)]


def make_origami(n, h, v, names=None, labels=None):
    """Validated origami from image sequences or Permutations."""
    if not isinstance(h, Permutation):
        h = Permutation(h)
    if not isinstance(v, Permutation):
        v = Permutation(v)
    if h.n != n or v.n != n:
        raise ValueError(f"permutation sizes disagree with n={n}")
    return Origami(h, v, names=names, labels=labels)


def cone_data(origami):
    return origami.cone_data


# -- builtins ----------------------------------------------------------------

def _xo_index(i, a, b):
    return 4 * (i % 3) + 2 * a + b


def builtin_ornithorynque():
    """The 12-square genus-4 origami on Z/3 x Z/2 x Z/2 with lettered edges.

    h sends (i,0,0)->(i+1,1,0), (i,0,1)->(i-1,1,1), (i,1,0)->(i,0,0),
    (i,1,1)->(i,0,1); v sends (i,0,0)->(i-1,0,1), (i,0,1)->(i,0,0),
    (i,1,0)->(i+1,1,1), (i,1,1)->(i,1,0). Labels: A_i top of (i,1,0),
    B_i top of (i,0,0), C_i right of (i,0,0), D_i right of (i,0,1); the
    twelve within-tile identifications are the dotted classes.
    """
    h = [0] * 12
    v = [0] * 12
    names = [""] * 12
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
    labels = {}
    for i in range(3):
        labels[(_xo_index(i, 1, 0), "top")] = ("A", i)
        labels[(_xo_index(i, 0, 0), "top")] = ("B", i)
        labels[(_xo_index(i, 0, 0), "right")] = ("C", i)
        labels[(_xo_index(i, 0, 1), "right")] = ("D", i)
    o = make_origami(12, h, v, names=names, labels=labels)
    o.tiles = tuple(frozenset(_xo_index(i, a, b) for a in range(2) for b in range(2))
                    for i in range(3))
    return o


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

def _propagate(o1, o2, anchor_image):
    """Relabeling sigma with sigma*h1 = h2*sigma, sigma*v1 = v2*sigma and
    sigma(0) = anchor_image, or None."""
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


def automorphism_group(origami):
    """All square relabelings commuting with both h and v."""
    group = []
    for t in range(origami.n):
        sigma = _propagate(origami, origami, t)
        if sigma is not None:
            group.append(sigma)
    return group


def is_isomorphic(o1, o2):
    """A relabeling sigma with h2 = sigma h1 sigma^-1 and v2 = sigma v1
    sigma^-1, or None. Different sizes are simply not isomorphic."""
    if o1.n != o2.n:
        return None
    for t in range(o2.n):
        sigma = _propagate(o1, o2, t)
        if sigma is not None:
            return sigma
    return None


def canonical_key(origami):
    """Relabeling-invariant key: minimal BFS-relabeled (h, v) image pair."""
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
    fields = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition("=")
        fields[key.strip()] = rest.strip()
    try:
        n = int(fields["n"])
        h = [int(t) for t in fields["h"].split()]
        v = [int(t) for t in fields["v"].split()]
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad origami file: {exc}") from exc
    names = fields["names"].split() if "names" in fields else None
    return make_origami(n, h, v, names=names)

"""Cylinder decompositions, the transversal length bound and the trapping
window for nearly-parallel flow.

Vertical cylinders are maximal unions of width-1 strips (cycles of v) merged
across vertical edge lines that carry no conical point. Decompositions in a
rational slope p/q are never searched directly: they are carried over from
the vertical decomposition of Y = A^-1 . X through the affine chart.

Y is the chart's first gluing pair, seen as a `GluingView`: the T/V
re-gluings that produced it keep a surface valid, and decomposing Y, tracing
a pulled-back segment on it or a trapping window in it reads only its
gluings and vertex classes.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (InvariantViolated, ParallelToDecomposition,
                     PreconditionViolated)
from .flow import INFINITY, Segment, _flow
from .origami import BR, GluingView, slope_pair
from .sl2 import (MAT_ID, AffineChart, decompose, invert_word,
                  projective_slope)


@dataclass(frozen=True)
class Cylinder:
    index: int
    slope: object              # Fraction p/q, or INFINITY
    length: int                # integer length L (periods of the core curve)
    width: int                 # integer width W (number of merged strips)
    squares: frozenset
    strips: tuple              # strips left to right, each a tuple of squares

    @property
    def area(self):
        return self.length * self.width


class VerticalDecomposition:
    """Vertical (slope 0) cylinders of an origami, with strip offsets.

    It reads only the surface's gluings and `cone_at`, and keeps the surface
    as `origami`. For an `InducedDecomposition` that surface is a
    `GluingView`, with no edge classes, names or labels."""

    def __init__(self, origami):
        self.origami = origami
        strips = origami.v.cycles(include_fixed=True)
        strip_of = {}
        for si, strip in enumerate(strips):
            for sq in strip:
                strip_of[sq] = si

        def right_line_singular(si):
            return any(origami.cone_at(sq, BR) for sq in strips[si])

        def right_neighbor(si):
            imgs = {strip_of[origami.h(sq)] for sq in strips[si]}
            if len(imgs) != 1:
                raise InvariantViolated("a non-singular line joins two strips")
            (ni,) = imgs
            if len(strips[ni]) != len(strips[si]):
                raise InvariantViolated("joined strips differ in length")
            return ni

        # strips joined across regular lines: chains, each walked from its
        # left end, and cycles, each started at the right neighbour of its
        # first strip (the one cycle of a surface with no singular line)
        right = {si: right_neighbor(si) for si in range(len(strips))
                 if not right_line_singular(si)}
        has_left = set(right.values())
        cylinders = []
        for si in range(len(strips)):
            if si not in has_left:
                block = [si]
                while block[-1] in right:
                    block.append(right[block[-1]])
                cylinders.append(block)
        placed = {si for block in cylinders for si in block}
        for si in range(len(strips)):
            if si not in placed:
                block = [right[si]]
                while block[-1] != si:
                    block.append(right[block[-1]])
                placed.update(block)
                cylinders.append(block)

        self.cylinders = []
        self.position = {}        # square -> (cylinder index, strip offset)
        for ci, block in enumerate(sorted(cylinders, key=lambda b: min(
                min(strips[si]) for si in b))):
            block_strips = tuple(strips[si] for si in block)
            squares = frozenset(sq for st in block_strips for sq in st)
            self.cylinders.append(Cylinder(
                index=ci, slope=Fraction(0), length=len(block_strips[0]),
                width=len(block_strips), squares=squares, strips=block_strips))
            for off, st in enumerate(block_strips):
                for sq in st:
                    self.position[sq] = (ci, off)
        if sum(c.area for c in self.cylinders) != origami.n:
            raise InvariantViolated("cylinder areas must sum to n")

    def cylinder_of_square(self, sq):
        return self.position[sq][0]

    def is_boundary_point(self, pt):
        """True when the point sits on a vertical line bounding a cylinder."""
        if pt.x != 0:
            return False
        ci, off = self.position[pt.square]
        return off == 0


def vertical_cylinders(origami):
    return VerticalDecomposition(origami).cylinders


def horizontal_cylinders(origami):
    """Cylinders in the horizontal direction: the horizontal base of the
    identity decomposition."""
    return InducedDecomposition(origami, MAT_ID, base="horizontal").cylinders


class InducedDecomposition:
    """Decomposition of X in slope A.0 (vertical base) or A.infinity
    (horizontal base), carried by the affine chart from Y = A^-1 . X."""

    def __init__(self, origami, matrix, base="vertical"):
        if base not in ("vertical", "horizontal"):
            raise ValueError(base)
        self.origami = origami
        self.matrix = matrix
        self.base = base
        self.slope = projective_slope(
            matrix, Fraction(0) if base == "vertical" else INFINITY)
        self._word = invert_word(decompose(matrix))

    # The chart and the surface Y are built on first use: a caller may
    # read only the slope and drop the decomposition.
    @cached_property
    def chart(self):
        """One walk X -> A^-1 . X = Y; its inverse is the chart Y -> X, and
        the T/V re-gluings undo each other exactly, so it lands on X."""
        return AffineChart(self.origami, self._word).inverse()

    @cached_property
    def y_view(self):
        """Y as a `GluingView` of the chart's first gluing pair: the
        decomposition and the pull-backs read no more than that."""
        return GluingView(*self.chart.chain[0])

    @cached_property
    def vertical(self):
        """The vertical decomposition of Y (of its diagonal swap for the
        horizontal base); its `origami` is the unvalidated `y_view`."""
        if self.base == "vertical":
            return VerticalDecomposition(self.y_view)
        # the diagonal swap (h,v) -> (v,h); squares keep their indices
        return VerticalDecomposition(self.y_view.diagonal_swap())

    @property
    def cylinders(self):
        s = self.slope
        return tuple(Cylinder(index=c.index, slope=s, length=c.length,
                              width=c.width, squares=c.squares,
                              strips=c.strips)
                     for c in self.vertical.cylinders)

    def slope_pq(self):
        return slope_pair(self.slope)

    def pull_back(self, start, slope, span, up=True):
        """(start, slope, span, up) in Y of the orbit of X with these; the
        chart maps the one to the other as point sets.

        The direction vector (per unit span) maps by the inverse matrix; the
        new span is its |dy| component times the old span (|dx| when the
        image is horizontal)."""
        sx, sy = slope_pair(slope)
        # (sx, sy) is the direction per max(sy, 1) units of span, and
        # (vx, vy) its image in Y
        m = self.matrix.inv()
        vx, vy = m.a * sx + m.b * sy, m.c * sx + m.d * sy
        if not up:
            vx, vy = -vx, -vy
        start = self.chart.inverse().map_point(start)
        num, den = span.numerator, span.denominator * (sy or 1)
        if vy == 0:
            return start, INFINITY, Fraction(abs(vx) * num, den), vx > 0
        return start, Fraction(vx, vy), Fraction(abs(vy) * num, den), vy > 0

    def pull_back_segment(self, segment):
        """The segment in Y-coordinates (same point set under the chart)."""
        return Segment(self.y_view, *self.pull_back(
            segment.start, segment.slope, segment.span, segment.up))

    def crossing_sequence(self, segment):
        """Cylinder indices crossed by the segment, with multiplicity.
        For the horizontal base, membership lives on the diagonal-swapped
        surface, which shares square indices."""
        position = self.vertical.position
        seq = []
        for piece in self.pull_back_segment(segment).grid_pieces:
            ci = position[piece[0]][0]
            if not seq or seq[-1] != ci:
                seq.append(ci)
        return seq


def identity_decomposition(origami):
    return InducedDecomposition(origami, MAT_ID, base="vertical")


@dataclass
class TransversalBound:
    crossed: tuple             # cylinder indices with multiplicity
    width_sum: int
    cos_squared: Fraction
    bound_squared: Fraction
    length_squared: Fraction
    holds: bool

    @property
    def bound(self):
        return float(self.bound_squared) ** 0.5


def transversal_bound(segment, decomposition):
    """Exact upper bound for the length of a segment crossing cylinders:
    sum of crossed widths over (sqrt(q^2+p^2) cos angle-to-orthogonal)."""
    p, q = decomposition.slope_pq()
    sp, sq = slope_pair(segment.slope)
    cos2_num = (sp * q - p * sq) ** 2
    cos2_den = (sp * sp + sq * sq) * (q * q + p * p)
    if cos2_num == 0:
        raise ParallelToDecomposition(
            f"slope {segment.slope} parallel to {p}/{q}")
    cos2 = Fraction(cos2_num, cos2_den)
    crossed = decomposition.crossing_sequence(segment)
    widths = {c.index: c.width for c in decomposition.cylinders}
    wsum = sum(widths[ci] for ci in crossed)
    bound2 = Fraction(wsum * wsum * cos2_den, (q * q + p * p) * cos2_num)
    ls = segment.length_squared
    return TransversalBound(crossed=tuple(crossed), width_sum=wsum,
                            cos_squared=cos2, bound_squared=bound2,
                            length_squared=ls, holds=ls <= bound2)


@dataclass
class TrappingResult:
    cylinder_index: int
    window_span: Fraction      # |dy| extent W_i / alpha
    exit_span: object          # Fraction or None if never left within margin
    stayed_through_window: bool


def trapping_window(decomposition, alpha, boundary_point,
                    margin=Fraction(1, 8)):
    """Verify by exact trace on the decomposed surface that the orbit of a
    cylinder-boundary point in a small slope alpha stays inside one vertical
    cylinder while it drifts across it: Euclidean window
    W_i sqrt(1+alpha^2)/alpha, i.e. |dy| span W_i/alpha."""
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise PreconditionViolated("need alpha > 0")
    for c in decomposition.cylinders:
        if alpha * c.length >= 1:
            raise PreconditionViolated(
                f"alpha {alpha} >= 1/L for cylinder of length {c.length}")
    if not decomposition.is_boundary_point(boundary_point):
        raise PreconditionViolated("start point is not on a cylinder boundary")

    # with alpha > 0 and x = 0 the first piece lies in the start's square
    ci = decomposition.cylinder_of_square(boundary_point.square)
    cyl = decomposition.cylinders[ci]
    window = Fraction(cyl.width) / alpha
    M, _, _, crossings = _flow(decomposition.origami, alpha, boundary_point,
                               True, window * (1 + margin))
    # the pieces stop at the span or at a cone; each rises by its span
    exit_span = next((Fraction(s - (Y1 - Y0), M)
                      for j, _, Y0, _, Y1, s, _, _ in crossings
                      if j not in cyl.squares), None)
    stayed = exit_span is None or exit_span >= window
    return TrappingResult(cylinder_index=ci, window_span=window,
                          exit_span=exit_span, stayed_through_window=stayed)

"""Cylinder decompositions, the transversal length bound and the trapping
window for nearly-parallel flow.

Vertical cylinders are maximal unions of width-1 strips (cycles of v) merged
across vertical edge lines that carry no conical point. Decompositions in a
rational slope p/q are never searched directly: they are carried over from
the vertical decomposition of Y = A^-1 . X through the affine chart.

Y is the chart's first gluing pair, seen as a `GluingView`: the T/V
re-gluings that produced it keep a surface valid, and decomposing Y, or a
trapping window in it, reads only its gluings and vertex classes; a segment
of X pulled back to Y is `Segment(dec.y_view, *dec.pull_back(...))`. The
walk behind a crossing sequence reads less: only the square of each piece
of `_flow` on Y, with no `Segment` built.

An `InducedDecomposition` makes only its slope when built. Each of these is
built on its first read and kept: the chart (A's word, its inverse and the
walk of re-gluings), the chart X -> Y of the pull-backs, the view of Y and
its vertical decomposition. A caller that reads only the slope, such as a
sampler that rejects slopes of large height, pays for none of them.
`transversal_bound` reads the widths off that vertical decomposition.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (InvariantViolated, ParallelToDecomposition,
                     PreconditionViolated)
from .flow import INFINITY, _flow
from .origami import BR, GluingView, slope_pair
from .sl2 import AffineChart, decompose, invert_word, projective_slope


_ZERO = Fraction(0)


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
    `GluingView`, with no names or letters."""

    def __init__(self, origami):
        self.origami = origami
        strips = origami.v.cycles()
        strip_of = [0] * origami.n
        for si, strip in enumerate(strips):
            for sq in strip:
                strip_of[sq] = si
        h = origami.h.images

        def right_line_singular(si):
            return any(origami.cone_at(sq, BR) for sq in strips[si])

        def right_neighbor(si):
            imgs = {strip_of[h[sq]] for sq in strips[si]}
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
        # strips are numbered in the order of their least squares
        for ci, block in enumerate(sorted(cylinders, key=min)):
            block_strips = tuple(strips[si] for si in block)
            squares = frozenset(sq for st in block_strips for sq in st)
            self.cylinders.append(Cylinder(
                index=ci, slope=_ZERO, length=len(block_strips[0]),
                width=len(block_strips), squares=squares, strips=block_strips))
            for off, st in enumerate(block_strips):
                for sq in st:
                    self.position[sq] = (ci, off)
        if sum(c.area for c in self.cylinders) != origami.n:
            raise InvariantViolated("cylinder areas must sum to n")


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

    # The word, the chart and the surface Y are built on first use: a
    # caller may read only the slope and drop the decomposition.
    @cached_property
    def chart(self):
        """One walk X -> A^-1 . X = Y along the inverse of A's word; its
        inverse is the chart Y -> X, and the T/V re-gluings undo each other
        exactly, so it lands on X."""
        word = invert_word(decompose(self.matrix))
        return AffineChart(self.origami, word).inverse()

    @cached_property
    def _to_y(self):
        """The chart X -> Y that every pull-back maps its start by."""
        return self.chart.inverse()

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
        start = self._to_y.map_point(start)
        num, den = span.numerator, span.denominator * (sy or 1)
        if vy == 0:
            return start, INFINITY, Fraction(abs(vx) * num, den), vx > 0
        return start, Fraction(vx, vy), Fraction(abs(vy) * num, den), vy > 0

    def crossing_sequence(self, segment):
        """Cylinder indices crossed by the segment, with multiplicity: the
        squares of the pull-back's pieces, read off `_flow` on Y with no
        `Segment` built. For the horizontal base, the diagonal-swapped
        surface that cylinder membership lives on shares Y's square
        indices."""
        position = self.vertical.position
        cylinder_of = [position[sq][0] for sq in range(len(position))]
        start, slope, span, up = self.pull_back(
            segment.start, segment.slope, segment.span, segment.up)
        _, stop, _, crossings = _flow(self.y_view, slope, start, up, span)
        seq = []
        ci, j_next = None, 0
        for j, _, _, _, _, s, _, j_next in crossings:
            if cylinder_of[j] != ci:
                ci = cylinder_of[j]
                seq.append(ci)
        # the chart maps cones to cones, and the segment has none inside
        if j_next is None and s != stop:
            raise InvariantViolated("the pull-back meets a cone inside")
        return seq


@dataclass
class TransversalBound:
    crossed: tuple             # cylinder indices with multiplicity
    width_sum: int
    cos_squared: Fraction
    bound_squared: Fraction
    length_squared: Fraction
    holds: bool


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
    cyls = decomposition.vertical.cylinders     # indexed as crossed
    wsum = sum(cyls[ci].width for ci in crossed)
    bound2 = Fraction(wsum * wsum * cos2_den, (q * q + p * p) * cos2_num)
    ls = segment.length_squared
    return TransversalBound(crossed=tuple(crossed), width_sum=wsum,
                            cos_squared=cos2, bound_squared=bound2,
                            length_squared=ls, holds=ls <= bound2)


# how far past its window, as a share of it, a trapping trace goes on
TRAPPING_MARGIN = Fraction(1, 8)


@dataclass
class TrappingResult:
    window_span: Fraction      # |dy| extent W_i / alpha
    exit_span: object          # Fraction or None if never left within margin
    stayed_through_window: bool


def trapping_window(decomposition, alpha, boundary_point):
    """Verify by exact trace on the decomposed surface that the orbit of a
    cylinder-boundary point in a small slope alpha stays inside one vertical
    cylinder while it drifts across it: Euclidean window
    W_i sqrt(1+alpha^2)/alpha, i.e. |dy| span W_i/alpha, traced on to
    TRAPPING_MARGIN past it."""
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise PreconditionViolated("need alpha > 0")
    for c in decomposition.cylinders:
        if alpha * c.length >= 1:
            raise PreconditionViolated(
                f"alpha {alpha} >= 1/L for cylinder of length {c.length}")
    # a start on the vertical line bounding its cylinder on the left; with
    # alpha > 0 and x = 0 the first piece lies in the start's square
    ci, offset = decomposition.position[boundary_point.square]
    if boundary_point.x != 0 or offset != 0:
        raise PreconditionViolated("start point is not on a cylinder boundary")
    cyl = decomposition.cylinders[ci]
    window = Fraction(cyl.width) / alpha
    M, _, _, crossings = _flow(decomposition.origami, alpha, boundary_point,
                               True, window * (1 + TRAPPING_MARGIN))
    # the pieces stop at the span or at a cone; each rises by its span
    exit_span = next((Fraction(s - (Y1 - Y0), M)
                      for j, _, Y0, _, Y1, s, _, _ in crossings
                      if j not in cyl.squares), None)
    stayed = exit_span is None or exit_span >= window
    return TrappingResult(window_span=window, exit_span=exit_span,
                          stayed_through_window=stayed)

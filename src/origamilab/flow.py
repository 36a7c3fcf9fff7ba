"""Exact linear-flow tracing, straight segments, cutting sequences.

Slope convention is Slope = dx/dy: 0 is vertical, INFINITY horizontal. One
integer kernel, `_crossings`, moves upward (dy > 0, or dx > 0 for
horizontal) on an integer grid: with slope p/q and start coordinates of
denominator d, every edge crossing has coordinates in (1/M)Z for
M = d * q * max(1, |p|), so its loop is pure integer arithmetic. It reads
the gluings as image tuples and divides inline; a remainder, i.e. a
crossing off the grid, raises GridError.

`_flow` sets up a flow in either direction: its grid, its stop span, the
start's own edge and its crossings, all in the origami's own frame. A
downward flow is traced upward on the half-turn view (h,v) -> (h^-1, v^-1)
of `Origami.half_turn`, which is not a validated surface: square j stays
square j and its corners are the origami's, turned; `_flow` maps its
crossings back with `_turned_back`. `trace`, the only place that builds
`Event`s and `Fraction` pieces, `Segment`, which keeps the kernel's
integers, the trapping window and the hitting audits (the singular-leaf
check, the tube audit's clearance and core geodesic) all read `_flow`.
`_crossings` has two more callers, each on a grid of its own:
`hitting.r_dense_time`, whose window snapshot needs the window on its grid,
and the next-letter sampler, which shares one grid across all letters.

`length2` and `span_for_length2` are the one relation between a span and
a squared Euclidean length.

A slope-p/q orbit covers a line of the torus, and that line meets a lattice
point (the image of every vertex) iff kappa = q*x - p*y is an integer. So
`hitting.r_dense_time` traces no backward orbit for any other start, and
traces one at most n*q units of span, where n is the number of squares.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt, lcm

from .errors import (ConeVertexInInterior, GridError, HitsConeVertex,
                     OutOfRange, StartOnSingularLeaf)
from .origami import (BL, BR, INFINITY, TL, TR, SurfacePoint,
                      canonical_point, slope_pair)


@dataclass(frozen=True)
class Event:
    s: Fraction            # span parameter: |dy| progressed (|dx| horizontal)
    kind: str              # top / bottom / left / right / corner
    square_from: int
    square_to: int
    edge_class: object     # EdgeClass, None for corner events
    pos: object            # coordinate along the crossed edge, None for corner
    vertex_id: object = None
    is_cone: bool = False
    initial: bool = False  # start point already on this edge (s = 0)

    @property
    def label(self):
        return self.edge_class.label if self.edge_class is not None else None


@dataclass
class TraceResult:
    events: list
    pieces: list           # (square, x0, y0, x1, y1) exact Fractions
    status: str            # "ok" | "cone"
    end: SurfacePoint
    span_done: Fraction
    crossings: int


def _off_grid(a, b):
    return GridError(f"{a}/{b} is off the 1/M grid")


def _exact_div(a, b):
    q, r = divmod(a, b)
    if r:
        raise _off_grid(a, b)
    return q


def _grid_denominator(p, q, *values):
    """M putting every crossing of a slope-p/q orbit through a point with
    these rational coordinates (and the spans among them) on the 1/M grid."""
    d = lcm(*(f.denominator for f in values))
    return d if q == 0 else d * q * max(1, abs(p))


def _grid_start(origami, M, start, up):
    """(surface, square, X, Y): the start on the 1/M grid of the surface
    traced upward, i.e. of the half-turn view for a downward trace."""
    surface = origami
    if not up:
        surface = origami.half_turn()
        start = canonical_point(surface, start.square, 1 - start.x,
                                1 - start.y)
    j, x, y = start.square, start.x, start.y
    X = _exact_div(x.numerator * M, x.denominator)
    Y = _exact_div(y.numerator * M, y.denominator)
    if not (0 <= X <= M and 0 <= Y <= M):
        raise OutOfRange(f"({x}, {y}) outside the closed unit square")
    if X == 0 and Y == 0 and surface.cone_at(j, BL):
        raise StartOnSingularLeaf(f"start is the cone at corner of square {j}")
    return surface, j, X, Y


def _crossings(surface, j, X, Y, p, q, M, stop=None):
    """Edge crossings of the upward flow of slope p/q from (j, X/M, Y/M).

    Yields (j, X0, Y0, X1, Y1, s, kind, j_next) per piece: the piece of
    square j from (X0, Y0) to the crossing (X1, Y1) of side `kind` (top,
    right, left or corner) at cumulative span s, entering square j_next.
    Every value is an integer in units of 1/M; a crossing off that grid
    raises GridError. At a cone corner j_next is None and the flow ends.
    With a stop span, a piece that would pass it is cut there and yielded
    with kind None; a stop on a crossing ends the flow after that crossing.
    """
    h, v, hinv = surface.h.images, surface.v.images, surface.hinv.images
    corner = BR if q == 0 else TR if p > 0 else TL    # the flow's exit
    if p < 0 and X == 0:        # leaving leftward: right edge of hinv(j)
        j, X = hinv[j], M
    s = 0
    while True:
        if q == 0:
            dS = M - X
            kind = "corner" if Y == 0 else "right"
            X1, Y1 = M, Y
        elif p == 0:
            dS = M - Y
            kind = "corner" if X == 0 else "top"
            X1, Y1 = X, M
        elif p > 0:
            lhs, rhs = p * (M - Y), q * (M - X)
            if lhs < rhs:
                dS = M - Y
                kind = "top"
                dX, r = divmod(lhs, q)
                if r:
                    raise _off_grid(lhs, q)
                X1, Y1 = X + dX, M
            elif lhs > rhs:
                dS, r = divmod(rhs, p)
                if r:
                    raise _off_grid(rhs, p)
                kind = "right"
                X1, Y1 = M, Y + dS
            else:
                dS = M - Y
                kind = "corner"
                X1, Y1 = M, M
        else:
            lhs, rhs = -p * (M - Y), q * X
            if lhs < rhs:
                dS = M - Y
                kind = "top"
                dX, r = divmod(lhs, q)
                if r:
                    raise _off_grid(lhs, q)
                X1, Y1 = X - dX, M
            elif lhs > rhs:
                dS, r = divmod(rhs, -p)
                if r:
                    raise _off_grid(rhs, -p)
                kind = "left"
                X1, Y1 = 0, Y + dS
            else:
                dS = M - Y
                kind = "corner"
                X1, Y1 = 0, M

        if stop is not None and s + dS > stop:
            rem = stop - s
            if rem:
                if q == 0:
                    yield j, X, Y, X + rem, Y, stop, None, j
                else:
                    yield (j, X, Y, X + _exact_div(p * rem, q), Y + rem,
                           stop, None, j)
            return
        s += dS

        if kind == "top":
            j_next, Xn, Yn = v[j], X1, 0
        elif kind == "right":
            j_next, Xn, Yn = h[j], 0, Y1
        elif kind == "left":
            j_next, Xn, Yn = hinv[j], M, Y1
        elif surface.vertex_is_cone[surface.vertex_at(j, corner)]:
            yield j, X, Y, X1, Y1, s, kind, None
            return
        elif q == 0:
            j_next, Xn, Yn = h[j], 0, 0
        elif p == 0:
            j_next, Xn, Yn = v[j], 0, 0
        elif p > 0:
            j_next, Xn, Yn = v[h[j]], 0, 0
        else:
            j_next, Xn, Yn = hinv[v[j]], M, 0
        yield j, X, Y, X1, Y1, s, kind, j_next
        if s == stop:
            return
        j, X, Y = j_next, Xn, Yn


# a downward flow's sides, seen from the origami's own frame
_FLIP = {"top": "bottom", "bottom": "top", "left": "right", "right": "left",
         "corner": "corner", None: None}


def _flow(origami, slope, start, up, span):
    """(M, stop, initial, crossings), the set-up of every traced flow: stop
    is the span on the 1/M grid, initial the (side, square, position) of
    the start's own edge, when the flow leaves it transversally at s = 0,
    and crossings the `_crossings` generator, both in the origami's own
    frame. A downward flow is traced upward on the half-turn view and
    turned back here."""
    if span is not None:
        if not isinstance(span, Fraction):
            span = Fraction(span)
        if span.numerator < 0:
            raise OutOfRange("span must be >= 0")
    p, q = slope_pair(slope)
    M = _grid_denominator(p, q, start.x, start.y, span or 0)
    surface, j, X, Y = _grid_start(origami, M, start, up)
    stop = None if span is None else _exact_div(span.numerator * M,
                                                span.denominator)
    if Y == 0 and X != 0 and q != 0:
        initial = "bottom", j, X
    elif X == 0 and Y != 0 and p != 0:
        initial = ("left", j, Y) if p > 0 else ("right", surface.hinv(j), Y)
    elif X == M and Y != 0 and p < 0:
        initial = "right", j, Y
    else:
        initial = None
    if not up and initial is not None:
        initial = _FLIP[initial[0]], initial[1], M - initial[2]
    crossings = _crossings(surface, j, X, Y, p, q, M, stop)
    return M, stop, initial, crossings if up else _turned_back(M, crossings)


def _turned_back(M, crossings):
    """Crossings traced on the half-turn view, in the origami's own frame:
    X -> M - X, Y -> M - Y and sides swapped; square indices are shared."""
    return ((j, M - X0, M - Y0, M - X1, M - Y1, s, _FLIP[kind], j_next)
            for j, X0, Y0, X1, Y1, s, kind, j_next in crossings)


def trace(origami, slope, start, *, up=True, span=None, crossings=None,
          raise_on_cone=True):
    """Trace the flow from start, stopping after an exact span (|dy| units,
    |dx| for horizontal) or a number of crossings, whichever comes first.

    Hitting a conical point strictly before the stop raises HitsConeVertex
    carrying the truncated TraceResult (or returns it with status "cone"
    when raise_on_cone is false). A cone hit exactly at the requested span
    is a legal segment endpoint.
    """
    if span is None and crossings is None:
        raise ValueError("need a span or a crossing cap")
    if crossings is not None and crossings < 0:
        raise OutOfRange(f"crossing cap {crossings} is below 0")
    M, stop, initial, flow = _flow(origami, slope, start, up, span)

    def at(a):
        return Fraction(a, M)

    events = []
    pieces = []
    if initial is not None:     # the start's own edge, crossed at s = 0
        side, sq, a = initial
        events.append(Event(s=Fraction(0), kind=side, square_from=sq,
                            square_to=sq,
                            edge_class=origami.edge_class_of(sq, side),
                            pos=at(a), initial=True))

    ncross = 0
    last = None
    if crossings != 0:
        for last in flow:
            j, X0, Y0, X1, Y1, s, kind, j_next = last
            pieces.append((j, at(X0), at(Y0), at(X1), at(Y1)))
            if kind is None:
                break
            ncross += 1
            if kind == "corner":
                events.append(Event(
                    s=Fraction(s, M), kind="corner", square_from=j,
                    square_to=j if j_next is None else j_next,
                    edge_class=None, pos=None,
                    vertex_id=origami.vertex_at(
                        j, (TR if X1 else TL) if Y1 else (BR if X1 else BL)),
                    is_cone=j_next is None))
            else:
                events.append(Event(
                    s=Fraction(s, M), kind=kind, square_from=j,
                    square_to=j_next,
                    edge_class=origami.edge_class_of(j, kind),
                    pos=at(X1 if kind in ("top", "bottom") else Y1)))
            if ncross == crossings:
                break

    if last is None:
        end, s = canonical_point(origami, start.square, start.x, start.y), 0
    else:
        end = canonical_point(origami, last[0], at(last[3]), at(last[4]))
        s = last[5]
    status = "cone" if last is not None and last[7] is None and s != stop \
        else "ok"
    result = TraceResult(events=events, pieces=pieces, status=status,
                         end=end, span_done=Fraction(s, M), crossings=ncross)
    if status == "cone" and raise_on_cone:
        raise HitsConeVertex(result, result.events[-1].vertex_id)
    return result


# -- segments -------------------------------------------------------------------

def ceil_sqrt_fraction(t):
    """Smallest integer k with k*k >= t (t a nonnegative Fraction)."""
    if not isinstance(t, Fraction):
        t = Fraction(t)
    return _ceil_sqrt(t.numerator, t.denominator)


def _ceil_sqrt(num, den):
    """Smallest integer k with k*k >= num/den, for den > 0."""
    if num <= 0:
        return 0
    k = isqrt(num // den)
    while k * k * den < num:
        k += 1
    return k


def length2(span, p, q):
    """Squared Euclidean length of a span along the direction (p, q): the
    span is |dy|, or |dx| for the horizontal (1, 0)."""
    return span ** 2 * Fraction(p * p + q * q, q * q or 1)


def span_for_length2(p, q, length2, D):
    """Smallest span k/D along the direction (p, q) whose squared length is
    at least length2: k^2 (p^2 + q^2) >= length2 D^2 (q^2 or 1)."""
    return Fraction(_ceil_sqrt(length2.numerator * (q * q or 1) * D * D,
                               length2.denominator * (p * p + q * q)), D)


def span_for_length_at_least(slope, length, denominator=None):
    """Smallest rational span k/D whose segment of the given slope has
    Euclidean length >= length; exact via squared lengths. A horizontal
    span is the length itself."""
    if not isinstance(length, (int, Fraction)):
        length = Fraction(length)
    p, q = slope_pair(slope)
    if q == 0:
        return Fraction(length)
    return span_for_length2(p, q, length * length, denominator or max(8, q))


class Segment:
    """A straight segment with no conical point in its interior. The extent
    is the rational span (|dy|, or |dx| for horizontal); the Euclidean
    length is exposed squared. `grid_pieces` are the per-square pieces
    (square, X0, Y0, X1, Y1) on the 1/M grid, `word` the labels crossed and
    `final_square` the square entered at the end."""

    def __init__(self, origami, start, slope, span, up=True):
        self.origami = origami
        self.start = start
        if not isinstance(slope, Fraction) and slope != INFINITY:
            slope = Fraction(slope)
        self.slope = slope
        self.span = span if isinstance(span, Fraction) else Fraction(span)
        self.up = up
        M, stop, initial, crossings = _flow(origami, slope, start, up,
                                            self.span)
        self.M = M
        crossings = list(crossings)
        self.grid_pieces = [c[:5] for c in crossings]
        labels = origami.edge_labels
        word = [labels.get((c[0], c[6])) for c in crossings] \
            if labels else []
        self.final_square = None
        if initial is not None:
            side, self.final_square, _ = initial
            word.insert(0, labels.get((self.final_square, side)))
        self.word = tuple(label for label in word if label is not None)
        self._last = None
        if not crossings:
            return
        j, _, _, X1, Y1, s, _, j_next = crossings[-1]
        if j_next is None and s != stop:
            raise ConeVertexInInterior(
                f"cone vertex at span {Fraction(s, M)} < {self.span}")
        self.final_square = j if j_next is None else j_next
        self._last = (j, X1, Y1)

    @cached_property
    def end(self):
        """The end point, canonical; built on first read."""
        if self._last is None:
            start = self.start
            return canonical_point(self.origami, start.square, start.x,
                                   start.y)
        j, X1, Y1 = self._last
        return canonical_point(self.origami, j, Fraction(X1, self.M),
                               Fraction(Y1, self.M))

    @property
    def pieces(self):
        """(square, x0, y0, x1, y1) per piece, as exact Fractions."""
        M = self.M
        return [(j, Fraction(X0, M), Fraction(Y0, M), Fraction(X1, M),
                 Fraction(Y1, M)) for j, X0, Y0, X1, Y1 in self.grid_pieces]

    @property
    def length_squared(self):
        return length2(self.span, *slope_pair(self.slope))

    def reversed(self):
        return Segment(self.origami, self.end, self.slope, self.span,
                       up=not self.up)

    def squares(self):
        out = {piece[0] for piece in self.grid_pieces}
        if self.final_square is not None:
            out.add(self.final_square)
        return out

    def __repr__(self):
        return (f"Segment(start={self.start}, slope={self.slope}, "
                f"span={self.span}, up={self.up})")


def make_segment(origami, start, slope, *, length_at_least, up=True):
    span = span_for_length_at_least(slope, length_at_least)
    return Segment(origami, start, slope, span, up=up)


@dataclass
class CuttingSequence:
    word: tuple               # labels, e.g. ("A", 0)


def cutting_sequence(segment):
    """Labeled crossings in parameter order; dotted classes are skipped."""
    if not segment.origami.labelled:
        raise ValueError("origami has no letter labels")
    return CuttingSequence(word=segment.word)


# -- exact closed-segment intersection ---------------------------------------------

def _cross(ax, ay, bx, by):
    return ax * by - ay * bx


def _on_segment(px, py, ax, ay, bx, by):
    if _cross(bx - ax, by - ay, px - ax, py - ay) != 0:
        return False
    return (min(ax, bx) <= px <= max(ax, bx)
            and min(ay, by) <= py <= max(ay, by))


def _segments_common_point(a, b, c, d):
    """A common point of closed planar segments ab and cd, or None; exact on
    integer or Fraction coordinates."""
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = a, b, c, d
    rx, ry = bx - ax, by - ay
    sx, sy = dx - cx, dy - cy
    denom = _cross(rx, ry, sx, sy)
    qpx, qpy = cx - ax, cy - ay
    if denom != 0:
        t = _cross(qpx, qpy, sx, sy)
        u = _cross(qpx, qpy, rx, ry)
        if denom < 0:
            denom, t, u = -denom, -t, -u
        if 0 <= t <= denom and 0 <= u <= denom:
            return (ax + Fraction(t * rx, denom), ay + Fraction(t * ry, denom))
        return None
    # parallel
    if _cross(qpx, qpy, rx, ry) != 0:
        return None
    # collinear: overlap of parameter ranges along the longer direction
    if rx == 0 and ry == 0:
        return (ax, ay) if _on_segment(ax, ay, cx, cy, dx, dy) else None
    if sx == 0 and sy == 0:
        return (cx, cy) if _on_segment(cx, cy, ax, ay, bx, by) else None
    # parameters along ab in units of 1/dot_r
    dot_r = rx * rx + ry * ry
    t0 = (cx - ax) * rx + (cy - ay) * ry
    t1 = (dx - ax) * rx + (dy - ay) * ry
    lo = max(min(t0, t1), 0)
    if lo > min(max(t0, t1), dot_r):
        return None
    return (ax + Fraction(lo * rx, dot_r), ay + Fraction(lo * ry, dot_r))


def segments_intersect(seg1, seg2):
    """Witness SurfacePoint of an intersection (closed segments; a shared
    endpoint counts), or None. Exact integer arithmetic on the common grid
    1/(M1 M2), bucketed by square."""
    M1, M2 = seg1.M, seg2.M
    by_square = {}
    for j, X0, Y0, X1, Y1 in seg1.grid_pieces:
        by_square.setdefault(j, []).append(
            ((X0 * M2, Y0 * M2), (X1 * M2, Y1 * M2)))
    for j, X0, Y0, X1, Y1 in seg2.grid_pieces:
        if j not in by_square:
            continue
        c = (X0 * M1, Y0 * M1)
        d = (X1 * M1, Y1 * M1)
        for a, b in by_square[j]:
            pt = _segments_common_point(a, b, c, d)
            if pt is not None:
                N = M1 * M2
                return canonical_point(seg1.origami, j, Fraction(pt[0], N),
                                       Fraction(pt[1], N))
    return None

"""Exact linear-flow tracing, straight segments, cutting sequences.

Slope convention is Slope = dx/dy: 0 is vertical, INFINITY horizontal. One
integer kernel, `_crossings`, moves a flow in any of the four directions
on an integer grid: with slope p/q and start coordinates of denominator d,
every edge crossing has coordinates in (1/M)Z for M = d * q * max(1, |p|),
so its loop is pure integer arithmetic. It reads the gluings as image
tuples and divides inline; a remainder, i.e. a crossing off the grid,
raises GridError.

The kernel picks its direction case once per call, not per crossing. A
flow along an axis (p = 0 or q = 0) ends every piece on the same side at
the same height, or at a corner when it runs on an edge, so its kind and
end are fixed before the loop. A slanted flow runs one loop for all four
quadrants. A leftward or downward flow is the rightward or upward one
seen in the mirror X -> M - X or Y -> M - Y of each square, with the
mirror folded into constants set before the loop: the side ahead is at
X = E and Y = F (M, or 0 mirrored), the square past it h(j) or hinv(j),
v(j) or vinv(j), and the corner ahead one tag per quadrant. So the loop
tests no sign and names each side once.

`_flow` sets up a flow in either direction, on integers: its grid, its
stop span, the start, made canonical as `canonical_point` makes it, the
start's own edge and its crossings, all in the origami's own frame; a
downward flow is the direction (-p, -q). Its callers:
  - `trace`, the only place that builds `Event`s and `Fraction` pieces;
  - `Segment`, which keeps the kernel's integer pieces and its word (the
    cutting sequence), built in one pass;
  - `cylinders.InducedDecomposition.crossing_sequence`, which walks the
    pulled-back segment on Y and reads only each piece's square;
  - `cylinders.trapping_window`;
  - the hitting audits: the singular-leaf predicate and the tube audit's
    clearance and core geodesic;
  - `hitting.r_dense_time`, whose window span `_flow`'s mark argument puts
    on the grid.
`_crossings` has one more caller, on a grid of its own: the next-letter
sampler, which shares one grid across all letters.

`length2` and `span_for_length2` are the one relation between a span and
a squared Euclidean length; `span_units_within_length2` is the floor
counterpart of `span_for_length2`, read by `r_dense_time` for the pieces it
leaves unstamped.

A slope-p/q orbit covers a closed line of the torus, which meets a lattice
point (the image of every vertex) iff kappa = q*x - p*y is an integer. So
`hitting._on_singular_leaf` traces no orbit for any other start, and one
forward at most n*q units of span, where n is the number of squares.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt, lcm

from .errors import (ConeVertexInInterior, GridError, OutOfRange,
                     StartOnSingularLeaf)
from .origami import (BL, BR, INFINITY, TL, TR, SurfacePoint,
                      canonical_point, slope_pair)


@dataclass(frozen=True)
class Event:
    s: Fraction            # span parameter: |dy| progressed (|dx| horizontal)
    kind: str              # top / bottom / left / right / corner
    square_from: int
    square_to: int
    edge: object           # `Origami.edge_id` of the edge, None for corners
    pos: object            # coordinate along the crossed edge, None for corner
    is_cone: bool = False
    initial: bool = False  # start point already on this edge (s = 0)
    label: object = None   # the letter on the edge, or None


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


def _grid_denominator(p, q, d):
    """M putting every crossing of a slope-p/q orbit through a point with
    rational coordinates of common denominator d (and the spans among them,
    of denominators dividing d) on the 1/M grid."""
    return d if q == 0 else d * q * max(1, abs(p))


def _grid_start(origami, M, start):
    """(square, X, Y): the start on the 1/M grid, made canonical as
    `canonical_point` does (X = M is X = 0 of h(j), then Y = M is Y = 0 of
    v(j)), and refused on a cone vertex."""
    j, x, y = start.square, start.x, start.y
    X = _exact_div(x.numerator * M, x.denominator)
    Y = _exact_div(y.numerator * M, y.denominator)
    if not (0 <= X <= M and 0 <= Y <= M):
        raise OutOfRange(f"({x}, {y}) outside the closed unit square")
    if X == M:
        j, X = origami.h(j), 0
    if Y == M:
        j, Y = origami.v(j), 0
    if X == 0 and Y == 0 and origami.cone_at(j, BL):
        raise StartOnSingularLeaf(f"start is the cone at corner of square {j}")
    return j, X, Y


def _crossings(surface, j, X, Y, p, q, M, stop=None):
    """Edge crossings of the flow in the direction (p, q) from (j, X/M, Y/M).

    Yields (j, X0, Y0, X1, Y1, s, kind, j_next) per piece: the piece of
    square j from (X0, Y0) to the crossing (X1, Y1) of side `kind` (top,
    bottom, left, right or corner) at cumulative span s, entering square
    j_next. Every value is an integer in units of 1/M; a crossing off that
    grid raises GridError. At a cone corner j_next is None and the flow
    ends. With a stop span, a piece that would pass it is cut there and
    yielded with kind None; a stop on a crossing ends the flow after that
    crossing. The direction is read once, before the loop, and a start on
    the side ahead at X = 0 or Y = 0 moves to the square past it: X = 0
    moving left (or down an axis) to X = M of hinv(j), Y = 0 moving down
    to Y = M of vinv(j).
    """
    # the flow's sense in X and in Y; a flow along an axis takes the sense
    # of its motion in both
    east = p > 0 or (p == 0 and q > 0)
    north = q > 0 or (q == 0 and p > 0)
    if east:
        E, side, nxt, a = M, "right", surface.h.images, p
    else:
        E, side, nxt, a = 0, "left", surface.hinv.images, -p
        if X == 0:
            j, X = nxt[j], M
    if north:
        F, top, vnxt, ys = M, "top", surface.v.images, 1
    else:
        F, top, vnxt, ys = 0, "bottom", surface.vinv.images, -1
        if Y == 0:
            j, Y = vnxt[j], M
    Xb, Yb = M - E, M - F       # the sides behind
    s = 0
    if p == 0 or q == 0:
        # along an axis every piece ends on the side ahead at the same
        # height (or abscissa), at a corner when the flow runs on the edge
        # behind it in the other axis
        if q == 0:
            kind, step, corner = side, nxt, BR if east else TL
            X1, Y1, Xn, Yn = E, Y, Xb, Y
            on_edge = Y == Yb
            dS = abs(E - X)
        else:
            kind, step, corner = top, vnxt, TL if north else BR
            X1, Y1, Xn, Yn = X, F, X, Yb
            on_edge = X == Xb
            dS = abs(F - Y)
        if on_edge:
            kind = "corner"
        while True:
            if stop is not None and s + dS > stop:
                rem = stop - s
                if rem:
                    # (p, q) is the unit step of an axis flow
                    yield j, X, Y, X + p * rem, Y + q * rem, stop, None, j
                return
            s += dS
            jn = None if on_edge and surface.cone_at(j, corner) else step[j]
            yield j, X, Y, X1, Y1, s, kind, jn
            if jn is None or s == stop:
                return
            j, X, Y, dS = jn, Xn, Yn, M
    # a slanted flow leaves through the side ahead at Y = F or at X = E;
    # with a = |p| and b = |q| the room ahead is |F - Y| and qx (E - X) for
    # qx = b or -b, and ys = +-1 turns the slope's p/q into dX/dY
    b = ys * q
    qx = b if east else -b
    corner = (TR if north else BR) if east else (TL if north else BL)
    room = ys * (F - Y)
    while True:
        lhs, rhs = a * room, qx * (E - X)
        if lhs < rhs:
            dS = room
            dX = lhs // qx
            if dX * qx != lhs:
                raise _off_grid(lhs, b)
            kind, jn = top, vnxt[j]
            X1 = Xn = X + dX
            Y1, Yn = F, Yb
            room = M
        elif lhs > rhs:
            dS = rhs // a
            if dS * a != rhs:
                raise _off_grid(rhs, a)
            kind, jn = side, nxt[j]
            X1, Xn = E, Xb
            Y1 = Yn = Y + ys * dS
            room -= dS
        else:
            dS = room
            kind = "corner"
            jn = None if surface.cone_at(j, corner) else vnxt[nxt[j]]
            X1, Y1, Xn, Yn = E, F, Xb, Yb
            room = M
        if stop is not None and s + dS > stop:
            rem = stop - s
            if rem:
                yield (j, X, Y, X + ys * _exact_div(ys * p * rem, b),
                       Y + ys * rem, stop, None, j)
            return
        s += dS
        yield j, X, Y, X1, Y1, s, kind, jn
        if jn is None or s == stop:
            return
        j, X, Y = jn, Xn, Yn


def _flow(origami, slope, start, up, span, mark=0):
    """(M, stop, initial, crossings), the set-up of every traced flow: stop
    is the span on the 1/M grid, initial the (side, square, position) of
    the start's own edge, when the flow leaves it transversally at s = 0,
    and crossings the `_crossings` generator of the direction (p, q) of the
    slope, or (-p, -q) downward. The grid also holds the span mark, such
    as the window of `hitting.r_dense_time`."""
    d = lcm(start.x.denominator, start.y.denominator, mark.denominator)
    if span is not None:
        if not isinstance(span, Fraction):
            span = Fraction(span)
        if span.numerator < 0:
            raise OutOfRange("span must be >= 0")
        d = lcm(d, span.denominator)
    p, q = slope_pair(slope)
    M = _grid_denominator(p, q, d)
    j, X, Y = _grid_start(origami, M, start)
    stop = None if span is None else span.numerator * (M // span.denominator)
    if not up:
        p, q = -p, -q
    # the start's own edge, named in the square the kernel moves it to
    if Y == 0 and X != 0 and q != 0:
        initial = ("bottom", j, X) if q > 0 else ("top", origami.vinv(j), X)
    elif X == 0 and Y != 0 and p != 0:
        initial = ("left", j, Y) if p > 0 else ("right", origami.hinv(j), Y)
    else:
        initial = None
    return M, stop, initial, _crossings(origami, j, X, Y, p, q, M, stop)


def trace(origami, slope, start, *, up=True, span=None, crossings=None):
    """Trace the flow from start, stopping after an exact span (|dy| units,
    |dx| for horizontal) or a number of crossings, whichever comes first.

    Hitting a conical point strictly before the stop ends the trace there:
    the truncated TraceResult has status "cone". A cone hit exactly at the
    requested span is a legal segment endpoint, with status "ok".
    """
    if span is None and crossings is None:
        raise ValueError("need a span or a crossing cap")
    if crossings is not None and crossings < 0:
        raise OutOfRange(f"crossing cap {crossings} is below 0")
    M, stop, initial, flow = _flow(origami, slope, start, up, span)

    def at(a):
        return Fraction(a, M)

    label_rows = origami.label_rows
    events = []
    pieces = []
    if initial is not None:     # the start's own edge, crossed at s = 0
        side, sq, a = initial
        events.append(Event(s=Fraction(0), kind=side, square_from=sq,
                            square_to=sq, edge=origami.edge_id(sq, side),
                            pos=at(a), initial=True,
                            label=label_rows[side][sq]))

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
                    edge=None, pos=None, is_cone=j_next is None))
            else:
                events.append(Event(
                    s=Fraction(s, M), kind=kind, square_from=j,
                    square_to=j_next,
                    edge=origami.edge_id(j, kind),
                    pos=at(X1 if kind in ("top", "bottom") else Y1),
                    label=label_rows[kind][j]))
            if ncross == crossings:
                break

    if last is None:
        end, s = canonical_point(origami, start.square, start.x, start.y), 0
    else:
        end = canonical_point(origami, last[0], at(last[3]), at(last[4]))
        s = last[5]
    status = "cone" if last is not None and last[7] is None and s != stop \
        else "ok"
    return TraceResult(events=events, pieces=pieces, status=status,
                       end=end, span_done=Fraction(s, M), crossings=ncross)


# -- segments -------------------------------------------------------------------

def ceil_sqrt_fraction(t):
    """Smallest integer k with k*k >= t (t a nonnegative Fraction)."""
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


def _span_bound2(p, q, length2, D):
    """(a, b) such that the span k/D along the direction (p, q) has squared
    length at least (at most) length2 iff k^2 >= a/b (k^2 <= a/b):
    k^2 (p^2 + q^2) >= length2 D^2 (q^2 or 1)."""
    return (length2.numerator * (q * q or 1) * D * D,
            length2.denominator * (p * p + q * q))


def span_for_length2(p, q, length2, D):
    """Smallest span k/D along the direction (p, q) whose squared length is
    at least length2."""
    return Fraction(_ceil_sqrt(*_span_bound2(p, q, length2, D)), D)


def span_units_within_length2(p, q, length2, D):
    """Largest k whose span k/D along the direction (p, q) has squared
    length at most length2: the floor counterpart of `span_for_length2`."""
    a, b = _span_bound2(p, q, length2, D)
    return isqrt(a // b)


def span_for_length_at_least(slope, length):
    """Smallest rational span k/D, D = max(8, q) for the slope p/q, whose
    segment of the given slope has Euclidean length >= length; exact via
    squared lengths. A horizontal span is the length itself. The length is
    an int or a Fraction."""
    p, q = slope_pair(slope)
    if q == 0:
        return Fraction(length)
    return span_for_length2(p, q, length * length, max(8, q))


class Segment:
    """A straight segment with no conical point in its interior. The extent
    is the rational span (|dy|, or |dx| for horizontal); the Euclidean
    length is exposed squared. `grid_pieces` are the per-square pieces
    (square, X0, Y0, X1, Y1) on the 1/M grid, `word` the letters crossed in
    order (dotted edges, and every edge of an unlabelled surface, add none)
    and `final_square` the square entered at the end. The slope is a
    Fraction or INFINITY."""

    def __init__(self, origami, start, slope, span, up=True):
        self.origami = origami
        self.start = start
        self.slope = slope
        self.span = span if isinstance(span, Fraction) else Fraction(span)
        self.up = up
        M, stop, initial, crossings = _flow(origami, slope, start, up,
                                            self.span)
        self.M = M
        # pieces and word in one pass over the kernel's tuples
        label_rows = origami.label_rows
        word = []
        self.final_square = None
        if initial is not None:
            side, self.final_square, _ = initial
            label = label_rows[side][self.final_square]
            if label is not None:
                word.append(label)
        self.grid_pieces = pieces = []
        for j, X0, Y0, X1, Y1, s, kind, j_next in crossings:
            pieces.append((j, X0, Y0, X1, Y1))
            label = label_rows[kind][j]
            if label is not None:
                word.append(label)
        self.word = tuple(word)
        self._last = None
        if not pieces:
            return
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


def make_segment(origami, start, slope, *, length_at_least, up=True):
    span = span_for_length_at_least(slope, length_at_least)
    return Segment(origami, start, slope, span, up=up)


# -- exact closed-segment intersection ---------------------------------------------

def _cross(ax, ay, bx, by):
    return ax * by - ay * bx


def _on_segment(px, py, ax, ay, bx, by):
    if _cross(bx - ax, by - ay, px - ax, py - ay) != 0:
        return False
    return (min(ax, bx) <= px <= max(ax, bx)
            and min(ay, by) <= py <= max(ay, by))


def _segments_common_point(a, b, c, d):
    """A common point (x/w, y/w) of closed planar segments ab and cd as
    (x, y, w), or None; exact on integer or Fraction coordinates."""
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
            return ax * denom + t * rx, ay * denom + t * ry, denom
        return None
    # parallel
    if _cross(qpx, qpy, rx, ry) != 0:
        return None
    # collinear: overlap of parameter ranges along the longer direction
    if rx == 0 and ry == 0:
        return (ax, ay, 1) if _on_segment(ax, ay, cx, cy, dx, dy) else None
    if sx == 0 and sy == 0:
        return (cx, cy, 1) if _on_segment(cx, cy, ax, ay, bx, by) else None
    # parameters along ab in units of 1/dot_r
    dot_r = rx * rx + ry * ry
    t0 = (cx - ax) * rx + (cy - ay) * ry
    t1 = (dx - ax) * rx + (dy - ay) * ry
    lo = max(min(t0, t1), 0)
    if lo > min(max(t0, t1), dot_r):
        return None
    return ax * dot_r + lo * rx, ay * dot_r + lo * ry, dot_r


def segments_intersect(seg1, seg2):
    """Witness SurfacePoint of an intersection (closed segments; a shared
    endpoint counts), or None. Exact integer arithmetic on the common grid
    1/(M1 M2), bucketed by square."""
    M1, M2 = seg1.M, seg2.M
    by_square = {}
    for piece in seg1.grid_pieces:
        by_square.setdefault(piece[0], []).append(piece)
    for j, X0, Y0, X1, Y1 in seg2.grid_pieces:
        if j not in by_square:
            continue
        # only the pieces that share a square go on the common grid
        c = (X0 * M1, Y0 * M1)
        d = (X1 * M1, Y1 * M1)
        for _, A0, B0, A1, B1 in by_square[j]:
            pt = _segments_common_point((A0 * M2, B0 * M2), (A1 * M2, B1 * M2),
                                        c, d)
            if pt is not None:
                x, y, w = pt
                N = M1 * M2 * w
                return canonical_point(seg1.origami, j, Fraction(x, N),
                                       Fraction(y, N))
    return None

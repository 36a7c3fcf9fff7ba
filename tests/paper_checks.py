"""Paper-side checks that only the tests read: the genus-2 control pair,
the two planar lemmas behind the intersection property, the exact
type-w witness of a continued fraction, and the SL(2,Z) stabilizer
certificate. The tests import this module by name, so `tests/` must be on
the path (pytest puts it there).
"""

from dataclasses import dataclass
from fractions import Fraction

from origamilab.cfrac import rational_lt_power
from origamilab.errors import PreconditionViolated
from origamilab.flow import Segment, _segments_common_point, segments_intersect
from origamilab.origami import SurfacePoint, is_isomorphic
from origamilab.sl2 import R_WORD, T_TOK, TOKENS, act_word


# -- genus-2 control -------------------------------------------------------------------

def genus2_control_pair(origami, K):
    """An explicit non-intersecting (H, V) pair of length >= K on an origami
    with an h-fixed square and a different v-fixed square: H winds inside the
    one-square horizontal cylinder, V inside the one-square vertical one."""
    jh = next((j for j in range(origami.n) if origami.h(j) == j), None)
    jv = next((j for j in range(origami.n)
               if origami.v(j) == j and j != jh), None)
    if jh is None or jv is None:
        raise PreconditionViolated(
            "need an h-fixed square and a different v-fixed square")
    steep = 4 * (int(K) + 1)
    seg_h = Segment(origami, SurfacePoint(jh, Fraction(7, 8), Fraction(1, 4)),
                    Fraction(-steep), Fraction(1, 2))
    seg_v = Segment(origami, SurfacePoint(jv, Fraction(1, 8), Fraction(1, 8)),
                    Fraction(1, steep), Fraction(2 * (int(K) + 1)))
    if seg_h.length_squared < K * K or seg_v.length_squared < K * K:
        raise PreconditionViolated(f"control segments shorter than {K}")
    if seg_h.squares() != {jh} or seg_v.squares() != {jv}:
        raise PreconditionViolated("control segments leave their squares")
    witness = segments_intersect(seg_h, seg_v)
    return seg_h, seg_v, witness


# -- local planar predicates ---------------------------------------------------------

def two_square_point_location(h_point, h_slope, v_point, v_slope):
    """For lines with 0 < Slope(l_V) < 1 and Slope(l_H) < -1 both meeting
    the shared side {1} x [0,1] of two adjacent unit squares, their
    intersection point lies in [0,2] x [0,1]. Exact check; raises on a
    violated hypothesis."""
    xh, yh = map(Fraction, h_point)
    xv, yv = map(Fraction, v_point)
    sh, sv = Fraction(h_slope), Fraction(v_slope)
    if not (sh < -1 and 0 < sv < 1):
        raise ValueError("slopes outside the hypothesis cones")
    for (x0, y0, s) in ((xh, yh, sh), (xv, yv, sv)):
        y_at_1 = y0 + (1 - x0) / s
        if not 0 <= y_at_1 <= 1:
            raise ValueError("line misses the shared side")
    y_star = (xv - sv * yv - xh + sh * yh) / (sh - sv)
    x_star = xh + sh * (y_star - yh)
    return 0 <= x_star <= 2 and 0 <= y_star <= 1


def _planar_segment_meets_box(a, b):
    """Closed planar segment [a,b] meets the closed unit square, exactly."""
    (ax, ay), (bx, by) = a, b
    lo, hi = Fraction(0), Fraction(1)
    dx, dy = bx - ax, by - ay
    t0, t1 = Fraction(0), Fraction(1)
    for (p, d) in ((ax, dx), (ay, dy)):
        if d == 0:
            if not lo <= p <= hi:
                return False
            continue
        ta = (lo - p) / d
        tb = (hi - p) / d
        if ta > tb:
            ta, tb = tb, ta
        t0, t1 = max(t0, ta), min(t1, tb)
    return t0 <= t1


def single_square_crossing_intersects(h_seg, v_seg):
    """Planar model of the one-square configuration: both segments cross the unit
    square with endpoints beyond its neighbors; returns whether they meet
    (exact)."""
    if not (_planar_segment_meets_box(*h_seg) and
            _planar_segment_meets_box(*v_seg)):
        raise ValueError("segments must both meet the square")
    return _segments_common_point(h_seg[0], h_seg[1],
                                  v_seg[0], v_seg[1]) is not None


# -- continued fractions --------------------------------------------------------------

def type_witness_holds(cf, n, w, eps):
    """Exact check of the defining inequality |alpha - p_n/q_n| < q_n^-(w+1-eps)
    with alpha replaced by the convergent 10 levels deeper."""
    w = Fraction(w)
    eps = Fraction(eps)
    deep = n + 10
    if cf.finite:
        deep = min(deep, cf.depth_available)
    alpha = cf.convergent(deep)
    gap = abs(alpha - cf.convergent(n))
    return rational_lt_power(gap, cf.q(n), -(w + 1 - eps))


# -- stabilizer -------------------------------------------------------------------------

@dataclass
class StabilizerReport:
    fixed_by_T: bool
    fixed_by_R: bool
    full_stabilizer: bool
    moving_generators: tuple


def stabilizer_certificate(origami):
    """T and R generate SL(2,Z): if both fix the origami up to isomorphism,
    the whole group does."""
    moving = tuple(tok for tok in TOKENS
                   if is_isomorphic(act_word((tok,), origami), origami) is None)
    fixed_t = T_TOK not in moving
    fixed_r = is_isomorphic(act_word(R_WORD, origami), origami) is not None
    return StabilizerReport(fixed_by_T=fixed_t, fixed_by_R=fixed_r,
                            full_stabilizer=fixed_t and fixed_r,
                            moving_generators=moving)

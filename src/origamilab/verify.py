"""Computational verification of the cutting-sequence machinery: next-letter
transition sampling, tile-crossing checks, the word classifier behind the
intersection criterion, and the randomized intersection harness.

Letters are tuples like ("A", 2) over the twelve-letter alphabet of the
genus-4 builtin; slopes follow the dx/dy convention (0 = vertical).
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from math import lcm

from .errors import ConeVertexInInterior, PreconditionViolated, WordTooShort
from .flow import (INFINITY, Segment, _crossings, _grid_denominator,
                   _on_segment, _segments_common_point, cutting_sequence,
                   make_segment, segments_intersect)
from .origami import SurfacePoint, slope_pair
from .sl2 import ReflectionMap

NEG_INFINITY = float("-inf")


def _rot(letter, d):
    fam, i = letter
    return (fam, (i + d) % 3)


def asserted_next_up():
    """Successor sets the sampling harness audits against for the (0,1)
    upward cone (the narrow sets; see also verified_next_up)."""
    out = {}
    for i in range(3):
        out[("A", i)] = {("A", (i + 1) % 3), ("B", (i + 1) % 3), ("C", (i + 1) % 3)}
        out[("B", i)] = {("C", (i - 1) % 3), ("D", (i - 1) % 3)}
        out[("C", i)] = {("A", (i + 1) % 3)}
        out[("D", i)] = {("A", (i - 1) % 3), ("B", (i - 1) % 3)}
    return out


def verified_next_up():
    """The complete next-letter relation realized by exact sampling: the
    B-rows also reach the B-letter one index down (a nearly vertical
    trajectory climbs the B-column), which the narrow table omits."""
    out = asserted_next_up()
    for i in range(3):
        out[("B", i)] = out[("B", i)] | {("B", (i - 1) % 3)}
    return out


@dataclass
class PairEvidence:
    count: int = 0
    t_min: object = None
    t_max: object = None
    s_min: object = None
    s_max: object = None
    witness: object = None

    def add(self, t, s):
        if self.count == 0:
            self.t_min = self.t_max = t
            self.s_min = self.s_max = s
            self.witness = (t, s)
        else:
            if _below(t, self.t_min):
                self.t_min = t
            elif _below(self.t_max, t):
                self.t_max = t
            if _below(s, self.s_min):
                self.s_min = s
            elif _below(self.s_max, s):
                self.s_max = s
        self.count += 1


def _below(a, b):
    """a < b for rationals, cross-multiplied on integers."""
    return a.numerator * b.denominator < b.numerator * a.denominator


@dataclass
class TransitionRelation:
    cone: tuple
    successors: dict            # letter -> frozenset of letters
    evidence: dict              # (letter, successor) -> PairEvidence
    non_converged: frozenset    # letters whose set grew in the last round
    samples_per_letter: int
    skipped: int                # singular samples (cone hit before a letter)


def _cone_slope(lo, hi, u):
    """Map u in (0,1) to a rational slope in the open cone (lo, hi), built as
    one Fraction of integers: hi - (1-u)/u, lo + (1-u)/u or lo + (hi-lo)u."""
    a, b = u.numerator, u.denominator
    if not isinstance(lo, Fraction) and lo == NEG_INFINITY:
        n, d = hi.numerator, hi.denominator
        return Fraction(a * n - (b - a) * d, a * d)
    if not isinstance(hi, Fraction) and hi == INFINITY:
        n, d = lo.numerator, lo.denominator
        return Fraction(a * n + (b - a) * d, a * d)
    ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    return Fraction(b * ln * hd + a * (hn * ld - ln * hd), b * ld * hd)


def _edge_start(origami, letter):
    """Representative square whose bottom (or left) edge carries the letter,
    plus the edge orientation."""
    ec = origami.class_of_label(letter)
    if ec.orientation == "h":
        (_, _), (sq, _) = ec.incidences        # (j,'top'), (v(j),'bottom')
        return sq, "h"
    (_, _), (sq, _) = ec.incidences            # (j,'right'), (h(j),'left')
    return sq, "v"


def _sample_grid(t, s):
    """(T, p, q, M): an edge position 0 < t < 1 as T/M on the 1/M grid of
    the flow of slope s = p/q through it, the same for every edge."""
    p, q = s.numerator, s.denominator
    M = _grid_denominator(p, q, t)
    return t.numerator * (M // t.denominator), p, q, M


def _next_letter(origami, edge, T, p, q, M):
    """Letter of the first labeled crossing of the upward flow after leaving
    the edge (square, orientation) given by `_edge_start` at position T/M
    with slope p/q (see `_sample_grid`), or None when the trajectory hits a
    cone first or crosses 64 edges without a label."""
    sq, orient = edge
    X, Y = (T, 0) if orient == "h" else (0, T)
    labels = origami.edge_labels
    for j, *_, kind, _ in islice(_crossings(origami, sq, X, Y, p, q, M), 64):
        label = labels.get((j, kind))
        if label is not None:
            return label
    return None


def next_letter_relation(origami, cone=(Fraction(0), Fraction(1)),
                         sample_budget=1000, seed=0):
    """Sample exact (position, slope) pairs on every labeled edge and record
    the next labeled edge hit by the upward flow. Stratified grid plus
    adversarial samples near the parameter boundaries; two rounds to flag
    non-convergence.

    The budget is a floor: each letter gets max(sample_budget, 25) samples,
    because the 25 pairs of boundary fractions are always among them."""
    if not origami.labelled:
        raise ValueError("origami has no letter labels")
    rng = random.Random(seed)
    lo, hi = cone

    base = []
    grid = max(4, int(sample_budget ** 0.5))
    for a in range(1, grid + 1):
        for b in range(1, grid + 1):
            base.append((Fraction(a, grid + 1), Fraction(b, grid + 1)))
    edge_fracs = [Fraction(1, 64), Fraction(63, 64), Fraction(1, 1024),
                  Fraction(1023, 1024), Fraction(1, 2)]
    for t in edge_fracs:
        for u in edge_fracs:
            base.append((t, u))
    while len(base) < sample_budget:
        d = rng.choice((64, 97, 128, 193, 256))
        base.append((Fraction(rng.randrange(1, d), d),
                     Fraction(rng.randrange(1, d), d)))
    rng.shuffle(base)
    base = base[:max(sample_budget, len(edge_fracs) ** 2)]
    # (position, slope) per sample and its grid, shared by every letter
    samples = [(t, _cone_slope(lo, hi, u)) for t, u in base]
    grids = [_sample_grid(t, s) for t, s in samples]

    successors = {}
    evidence = {}
    first_round = {}
    skipped = 0
    half = len(base) // 2
    for letter in origami.labels:
        edge = _edge_start(origami, letter)
        succ = set()
        for idx, (t, s) in enumerate(samples):
            nxt = _next_letter(origami, edge, *grids[idx])
            if nxt is None:
                skipped += 1
                continue
            succ.add(nxt)
            evidence.setdefault((letter, nxt), PairEvidence()).add(t, s)
            if idx == half:
                first_round[letter] = frozenset(succ)
        successors[letter] = frozenset(succ)
    non_conv = frozenset(l for l in successors
                         if successors[l] != first_round.get(l, successors[l]))
    return TransitionRelation(cone=cone, successors=successors,
                              evidence=evidence, non_converged=non_conv,
                              samples_per_letter=len(base), skipped=skipped)


@dataclass
class RelationViolation:
    letter: tuple
    kind: str                  # "excess" | "missing"
    successor: tuple
    witness: object = None


def compare_relation(relation, reference):
    """Containment and completeness of sampled successor sets against a
    reference table."""
    out = []
    for letter, sampled in sorted(relation.successors.items()):
        ref = reference[letter]
        for s in sorted(sampled - ref):
            ev = relation.evidence.get((letter, s))
            out.append(RelationViolation(letter, "excess", s,
                                         ev.witness if ev else None))
        for s in sorted(ref - sampled):
            out.append(RelationViolation(letter, "missing", s))
    return out


# -- tiles ---------------------------------------------------------------------

def tiles_crossed(segment):
    """Indices of the 2x2 tiles whose closed square union meets the segment."""
    tiles = segment.origami.tiles
    if tiles is None:
        raise ValueError("origami has no tile structure")
    tile_of = {}
    for ti, squares in enumerate(tiles):
        for sq in squares:
            tile_of[sq] = ti
    out = {tile_of[sq] for sq in segment.squares()}
    return out


def oriented_word(segment):
    """Cutting word in the classifier's reading direction: words of
    horizontal-ish segments (|slope| > 1, |dx| > |dy|) read left to right
    (dx > 0), vertical-ish ones bottom to top (dy > 0)."""
    return _reading_order(cutting_sequence(segment).word,
                          *slope_pair(segment.slope), segment.up)


def reflected_oriented_word(reflection, segment):
    """`oriented_word` of the segment's mirror image under the reflection
    (start mapped, slope negated, same span and direction). The mirror
    crosses the mirrored edges in the same order, so its word is the
    segment's own word read through the reflection's letter bijection."""
    letters = reflection.letters
    p, q = slope_pair(segment.slope)
    return _reading_order(tuple(letters[l] for l in segment.word), -p, q,
                          segment.up)


def _reading_order(word, p, q, up):
    """The word of a segment of direction (p, q), flown up or down, read
    left to right when |dx| > |dy| and bottom to top otherwise."""
    forward = (p > 0) == up if abs(p) > q else up
    return word if forward else tuple(reversed(word))


# -- the word classifier ----------------------------------------------------------

@dataclass
class Verdict:
    kind: str                  # "triple" | "pair" | "unclassified"
    i: object = None
    position: object = None    # 1-based index in the H-word
    pattern: object = None
    slope_audit_ok: object = None


def criterion_classify(word_h, word_v, slope_h=None, slope_v=None):
    """Search the H-word for one of the two 3-letter runs
    (C_{i+2}, C_i, C_{i+1}) / (D_i, D_{i+2}, D_{i+1}), then for an interior
    pair gamma_k in {C_{i+2}, A_i}, gamma_{k+1} in {B_{i+1}, D_i}; otherwise
    report unclassified with the slope-range audit -6 < Slope(H) < -1."""
    n, m = len(word_h), len(word_v)
    if n < 12 or m < 12:
        raise WordTooShort(f"need 12+12 letters, got {n}+{m}")
    for k in range(n - 2):
        g0, g1, g2 = word_h[k:k + 3]
        if g0[0] == g1[0] == g2[0] == "C":
            i = g1[1]
            if g0 == _rot(("C", i), 2) and g2 == _rot(("C", i), 1):
                return Verdict(kind="triple", i=i, position=k + 1,
                               pattern=(g0, g1, g2))
        if g0[0] == g1[0] == g2[0] == "D":
            i = g0[1]
            if g1 == _rot(("D", i), 2) and g2 == _rot(("D", i), 1):
                return Verdict(kind="triple", i=i, position=k + 1,
                               pattern=(g0, g1, g2))
    for k in range(1, n - 1):          # 1-based positions 2..n-1
        g, gn = word_h[k], word_h[k + 1]
        for i in range(3):
            if g in {("C", (i + 2) % 3), ("A", i)} and \
                    gn in {("B", (i + 1) % 3), ("D", i)}:
                return Verdict(kind="pair", i=i, position=k + 1,
                               pattern=(g, gn))
    audit = None
    if slope_h is not None:
        p, q = slope_pair(slope_h)
        audit = -6 * q < p < -q if q else None    # no audit for a horizontal H
    return Verdict(kind="unclassified", slope_audit_ok=audit)


# -- randomized intersection harness ------------------------------------------------

@dataclass
class HarnessReport:
    origami_name: str
    cone_pair: str
    K: object
    trials: int
    seed: int
    non_intersecting: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    classifier_conflicts: list = field(default_factory=list)
    slope_audit_failures: list = field(default_factory=list)
    word_too_short: int = 0
    witness_recheck_failures: int = 0

    @property
    def failures(self):
        return len(self.non_intersecting)


def _rand_fraction(rng):
    return Fraction(rng.randrange(1, 64), 64)


def _sample_slope(rng, cone):
    """A slope of the cone at u = a/64 for a random a. An unbounded cone
    mixes the band of width 5 at its finite end, built on integers, with
    the steep slopes of `_cone_slope`."""
    a = rng.randrange(1, 64)
    lo, hi = cone
    low_open = not isinstance(lo, Fraction) and lo == NEG_INFINITY
    high_open = not isinstance(hi, Fraction) and hi == INFINITY
    if (low_open or high_open) and rng.random() < 0.5:
        if low_open:
            return Fraction(64 * hi.numerator - 5 * a * hi.denominator,
                            64 * hi.denominator)            # hi - 5u
        return Fraction(64 * lo.numerator + 5 * a * lo.denominator,
                        64 * lo.denominator)                # lo + 5u
    return _cone_slope(lo, hi, Fraction(a, 64))


def _sample_segment(origami, rng, cone, K, max_tries=64):
    for _ in range(max_tries):
        s = _sample_slope(rng, cone)
        start = SurfacePoint(rng.randrange(origami.n),
                             _rand_fraction(rng), _rand_fraction(rng))
        try:
            return make_segment(origami, start, s, length_at_least=K)
        except ConeVertexInInterior:
            continue
    raise RuntimeError("could not sample a cone-free segment")


def point_on_segment(segment, pt):
    """Exact incidence of a canonical point with a segment, checking every
    boundary representation of the point. The point has coordinates in
    (1/D)Z and the pieces in (1/M)Z, so both go on the 1/(M D) grid."""
    origami, x, y = segment.origami, pt.x, pt.y
    D = lcm(x.denominator, y.denominator)
    N = segment.M * D
    X = x.numerator * (N // x.denominator)
    Y = y.numerator * (N // y.denominator)
    reps = {(pt.square, X, Y)}
    if X == 0:
        reps.add((origami.hinv(pt.square), N, Y))
    if Y == 0:
        reps.add((origami.vinv(pt.square), X, N))
    if X == 0 and Y == 0:
        reps.add((origami.vinv(origami.hinv(pt.square)), N, N))
    squares = {sq for sq, _, _ in reps}
    for j, x0, y0, x1, y1 in segment.grid_pieces:
        if j not in squares:
            continue
        x0, y0, x1, y1 = x0 * D, y0 * D, x1 * D, y1 * D
        for sq, px, py in reps:
            if sq == j and _on_segment(px, py, x0, y0, x1, y1):
                return True
    return False


MAIN_CONES = ((NEG_INFINITY, Fraction(-1)), (Fraction(0), Fraction(1)))
REFLECTED_CONES = ((Fraction(-1), Fraction(0)), (Fraction(1), INFINITY))


def intersection_property_harness(origami, K, trials, cone_pair="main",
                                  seed=0, name=""):
    """Random (H, V) pairs of length >= K in the requested slope cones:
    counts non-intersecting pairs (expected none on the genus-4 builtin),
    tallies classifier verdicts and cross-checks every verdict against the
    geometric oracle."""
    rng = random.Random(seed)
    h_cone, v_cone = MAIN_CONES if cone_pair == "main" else REFLECTED_CONES
    reflection = None
    if cone_pair == "reflected" and origami.labelled:
        reflection = ReflectionMap(origami)
        if set(reflection.letters.values()) != set(reflection.letters):
            raise PreconditionViolated("the reflection does not permute "
                                       "the letters")
    rep = HarnessReport(origami_name=name or "origami", cone_pair=cone_pair,
                        K=K, trials=trials, seed=seed)
    for _ in range(trials):
        seg_h = _sample_segment(origami, rng, h_cone, K)
        seg_v = _sample_segment(origami, rng, v_cone, K)
        witness = segments_intersect(seg_h, seg_v)
        if witness is None:
            rep.non_intersecting.append({
                "h": (seg_h.start, seg_h.slope, seg_h.span),
                "v": (seg_v.start, seg_v.slope, seg_v.span)})
        else:
            if not (point_on_segment(seg_h, witness)
                    and point_on_segment(seg_v, witness)):
                rep.witness_recheck_failures += 1
        if not origami.labelled:
            continue
        if cone_pair == "main":
            word_h = oriented_word(seg_h)
            word_v = oriented_word(seg_v)
            slope_h = seg_h.slope
        else:
            # reflect: V-type maps to H-type and vice versa, slope s -> -s
            word_h = reflected_oriented_word(reflection, seg_v)
            word_v = reflected_oriented_word(reflection, seg_h)
            slope_h = -seg_v.slope
        try:
            verdict = criterion_classify(word_h, word_v, slope_h=slope_h)
        except WordTooShort:
            rep.word_too_short += 1
            continue
        rep.verdicts[verdict.kind] = rep.verdicts.get(verdict.kind, 0) + 1
        if verdict.kind in ("triple", "pair") and witness is None:
            rep.classifier_conflicts.append({
                "verdict": verdict, "h": (seg_h.start, seg_h.slope),
                "v": (seg_v.start, seg_v.slope)})
        if verdict.kind == "unclassified" and verdict.slope_audit_ok is False:
            rep.slope_audit_failures.append(slope_h)
    return rep


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

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
                   _on_segment, segments_intersect, span_for_length_at_least)
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
class TransitionRelation:
    successors: dict            # letter -> frozenset of letters
    witnesses: dict             # (letter, successor) -> its first (t, s)
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
    """The square whose bottom (or left) edge carries the letter, plus the
    edge orientation: the letter on the top of j is on the bottom of v(j),
    the one on the right of j on the left of h(j)."""
    j, side = origami.letters[letter]
    if side == "top":
        return origami.v(j), "h"
    return origami.h(j), "v"


def _sample_grid(t, s):
    """(T, p, q, M): an edge position 0 < t < 1 as T/M on the 1/M grid of
    the flow of slope s = p/q through it, the same for every edge."""
    p, q = s.numerator, s.denominator
    M = _grid_denominator(p, q, t.denominator)
    return t.numerator * (M // t.denominator), p, q, M


def _next_letter(origami, edge, T, p, q, M):
    """Letter of the first labeled crossing of the upward flow after leaving
    the edge (square, orientation) given by `_edge_start` at position T/M
    with slope p/q (see `_sample_grid`), or None when the trajectory hits a
    cone first or crosses 64 edges without a label."""
    sq, orient = edge
    X, Y = (T, 0) if orient == "h" else (0, T)
    label_rows = origami.label_rows
    for j, _, _, _, _, _, kind, _ in islice(
            _crossings(origami, sq, X, Y, p, q, M), 64):
        label = label_rows[kind][j]
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
    if lo == NEG_INFINITY and hi == INFINITY:
        raise PreconditionViolated("the slope cone needs a finite bound")

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
    witnesses = {}
    first_round = {}
    skipped = 0
    half = len(base) // 2
    for letter in origami.labels:
        edge = _edge_start(origami, letter)
        succ = set()
        for idx, grid in enumerate(grids):
            nxt = _next_letter(origami, edge, *grid)
            if nxt is None:
                skipped += 1
            else:
                succ.add(nxt)
                witnesses.setdefault((letter, nxt), samples[idx])
            if idx == half:
                first_round[letter] = frozenset(succ)
        successors[letter] = frozenset(succ)
    non_conv = frozenset(l for l in successors
                         if successors[l] != first_round[l])
    return TransitionRelation(successors=successors, witnesses=witnesses,
                              non_converged=non_conv,
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
            out.append(RelationViolation(letter, "excess", s,
                                         relation.witnesses[(letter, s)]))
        for s in sorted(ref - sampled):
            out.append(RelationViolation(letter, "missing", s))
    return out


# -- tiles ---------------------------------------------------------------------

def tiles_crossed(segment):
    """Indices of the 2x2 tiles whose closed square union meets the segment."""
    tile_of = segment.origami.tile_of
    if tile_of is None:
        raise ValueError("origami has no tile structure")
    return {tile_of[sq] for sq in segment.squares()}


def oriented_word(segment):
    """Cutting word in the classifier's reading direction: words of
    horizontal-ish segments (|slope| > 1, |dx| > |dy|) read left to right
    (dx > 0), vertical-ish ones bottom to top (dy > 0)."""
    return _reading_order(segment.word,
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
    slope_audit_ok: object = None


def criterion_classify(word_h, word_v, slope_h=None):
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
                return Verdict(kind="triple", i=i, position=k + 1)
        if g0[0] == g1[0] == g2[0] == "D":
            i = g0[1]
            if g1 == _rot(("D", i), 2) and g2 == _rot(("D", i), 1):
                return Verdict(kind="triple", i=i, position=k + 1)
    for k in range(1, n - 1):          # 1-based positions 2..n-1
        g, gn = word_h[k], word_h[k + 1]
        for i in range(3):
            if g in {("C", (i + 2) % 3), ("A", i)} and \
                    gn in {("B", (i + 1) % 3), ("D", i)}:
                return Verdict(kind="pair", i=i, position=k + 1)
    audit = None
    if slope_h is not None:
        p, q = slope_pair(slope_h)
        audit = -6 * q < p < -q if q else None    # no audit for a horizontal H
    return Verdict(kind="unclassified", slope_audit_ok=audit)


# -- randomized intersection harness ------------------------------------------------

@dataclass
class HarnessReport:
    trials: int
    non_intersecting: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    classifier_conflicts: list = field(default_factory=list)
    slope_audit_failures: list = field(default_factory=list)
    word_too_short: int = 0
    witness_recheck_failures: int = 0

    @property
    def failures(self):
        return len(self.non_intersecting)


# the coordinate draws a/64, and the u = a/64 of the slope draws
_SIXTY_FOURTHS = tuple(Fraction(a, 64) for a in range(64))


def _slope_tables(cone):
    """(steep, band): the slopes of the cone at u = a/64, at index a, and
    for an unbounded cone the band of width 5 at its finite end, built on
    integers (None for a bounded cone). `_draw` reads an entry of them."""
    lo, hi = cone
    steep = [None] + [_cone_slope(lo, hi, u) for u in _SIXTY_FOURTHS[1:]]
    if lo != NEG_INFINITY and hi != INFINITY:
        return steep, None
    if lo == NEG_INFINITY:          # hi - 5u
        n, d, sign = hi.numerator, hi.denominator, -1
    else:                           # lo + 5u
        n, d, sign = lo.numerator, lo.denominator, 1
    return steep, [None] + [Fraction(64 * n + sign * 5 * a * d, 64 * d)
                            for a in range(1, 64)]


def _draw(rng, steep, band):
    """The entry at a random a = 1..63 of steep, or with a band, of the
    band or steep at even odds."""
    a = rng.randrange(1, 64)
    return band[a] if band is not None and rng.random() < 0.5 else steep[a]


def _segment_sampler(origami, cone, K):
    """`sample(rng)`: a `Segment` of length >= K, the one `make_segment`
    gives, in a slope drawn from `_slope_tables(cone)` and from a start
    (square, a/64, b/64), drawn again, at most 64 times in all, while it
    meets a cone vertex inside. Each slope's span is made once, with the
    tables."""
    steep, band = (
        t and [None] + [(s, span_for_length_at_least(s, K)) for s in t[1:]]
        for t in _slope_tables(cone))
    n, coord = origami.n, _SIXTY_FOURTHS

    def sample(rng):
        for _ in range(64):
            s, span = _draw(rng, steep, band)
            start = SurfacePoint(rng.randrange(n), coord[rng.randrange(1, 64)],
                                 coord[rng.randrange(1, 64)])
            try:
                return Segment(origami, start, s, span)
            except ConeVertexInInterior:
                continue
        raise RuntimeError("could not sample a cone-free segment")
    return sample


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
                                  seed=0):
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
    rep = HarnessReport(trials=trials)
    sample_h = _segment_sampler(origami, h_cone, K)
    sample_v = _segment_sampler(origami, v_cone, K)
    for _ in range(trials):
        seg_h = sample_h(rng)
        seg_v = sample_v(rng)
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


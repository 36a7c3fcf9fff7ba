import dataclasses
from fractions import Fraction as F
from math import lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from origamilab import hitting
from origamilab.cfrac import g_matrix, parse_slope_spec, slope_with_type
from origamilab.cylinders import InducedDecomposition
from origamilab.errors import (CapTooSmall, ExponentTooSmall,
                               InsufficientSpan, OutOfRange,
                               StartOnSingularLeaf)
from origamilab.flow import (_crossings, _exact_div, _grid_denominator,
                             _grid_start, ceil_sqrt_fraction, length2,
                             span_for_length2, span_units_within_length2,
                             trace)
from origamilab.hitting import (CellGrid, HittingRecord,
                                exponent_estimate, lower_bound_experiment,
                                r_dense_time, read_records, realize_slope,
                                special_times_check, write_records)
from origamilab.origami import (Origami, SurfacePoint, builtin_genus2_L,
                                builtin_ornithorynque, builtin_torus)
from origamilab.sl2 import projective_slope


def torus_oracle_T_span(alpha, start, r2, m):
    """Independent r-dense time on the torus: enumerate the linear flow's
    pieces analytically (splits at x- and y-integer crossings), stamp cells
    of the m x m grid a piece touches, honoring the t > r threshold on piece
    start times; returns the largest first-visit span, or None when some
    cell is never visited. A leftward flow (alpha < 0) enters a square on
    its right edge, x = 1, as the kernel's pieces do."""
    p, q = alpha.numerator, alpha.denominator
    assert 0 < abs(alpha) <= 1
    x0, y0 = start.x, start.y
    skip2 = F(r2) * q * q / (p * p + q * q)
    first_visit = {}
    # generous horizon: the torus has area 1 and diameter sqrt(2); and the
    # orbit closes after span q, so the first stamped piece, which starts
    # within a span of 1 after r, and one period visit every cell it ever
    # visits
    closed = ceil_sqrt_fraction(skip2) + q + 2
    span_max = min(F(64 + 8 * max(1, int(1 / float(r2) ** 0.5))), closed)

    bounds = {F(0), span_max}
    k = 1                       # y-crossings: s = k - y0
    while F(k) - y0 < span_max:
        bounds.add(F(k) - y0)
        k += 1
    k, step = (1, 1) if p > 0 else (0, -1)
    while (F(k) - x0) / alpha < span_max:   # x-crossings
        bounds.add((F(k) - x0) / alpha)
        k += step
    cuts = sorted(bounds)

    def frac1(v):
        return v - v.__floor__()

    for s_start, s_end in zip(cuts, cuts[1:]):
        if s_start * s_start <= skip2:
            continue
        x_start = x0 + alpha * s_start
        xa = frac1(x_start) if p > 0 else x_start - x_start.__ceil__() + 1
        ya = frac1(y0 + s_start)
        yb = ya + (s_end - s_start)
        assert yb <= 1
        r0 = int(ya * m)
        r1 = min(int(yb * m), m - 1)
        for r in range(r0, r1 + 1):
            y_lo = max(ya, F(r, m))
            y_hi = min(yb, F(r + 1, m))
            for xv in (xa + alpha * (y_lo - ya), xa + alpha * (y_hi - ya)):
                c = min(int(xv * m), m - 1)
                cell = (r, c)
                # entry span: piece start, then row bottom, then the column
                # boundary the piece crosses into the cell
                entry = s_start
                if F(r, m) > ya:
                    entry = max(entry, s_start + F(r, m) - ya)
                if p > 0 and F(c, m) > xa:
                    entry = max(entry, s_start + (F(c, m) - xa) / alpha)
                if p < 0 and F(c + 1, m) < xa:
                    entry = max(entry, s_start + (xa - F(c + 1, m)) / -alpha)
                if cell not in first_visit or entry < first_visit[cell]:
                    first_visit[cell] = entry
    if len(first_visit) < m * m:
        assert span_max == closed, "horizon too small"
        return None
    return max(first_visit.values())


def torus_record(alpha, start, r2):
    """r_dense_time of a rational slope on the torus, capped well past the
    oracle's horizon."""
    rec, _ = r_dense_time(builtin_torus(),
                          parse_slope_spec(f"rational:{alpha}"), start, r2,
                          time_cap=2 * alpha.denominator + 10)
    return rec


def test_torus_oracle_exact_match():
    torus = builtin_torus()
    start = SurfacePoint(0, F(3, 16), F(5, 16))
    for r2, spec in ((F(1, 100), "golden"), (F(1, 64), "golden"),
                     (F(1, 144), "quotients:[2,1,3,1,5,1,2,1,1,1,2,1,1,2]")):
        rec, _ = r_dense_time(torus, parse_slope_spec(spec), start, r2,
                              time_cap=4000)
        alpha = F(rec.pN, rec.qN)
        t_oracle = torus_oracle_T_span(alpha, start, r2, rec.cells_per_side)
        assert rec.T_span == t_oracle
        assert rec.T2 == t_oracle ** 2 * (1 + alpha * alpha)


@pytest.mark.parametrize("alpha, x, y, r2, T_span", [
    (F(-4, 7), F(1, 8), F(1, 4), F(1, 3), F(245, 96)),
    (F(-1, 3), F(0), F(1, 16), F(1, 7), F(15, 4)),
    (F(-3, 11), F(15, 16), F(1, 8), F(1, 13), F(1111, 144)),
    (F(4, 5), F(1, 8), F(0), F(1, 17), F(545, 96)),
    (F(7, 9), F(0), F(1, 16), F(1, 65), F(69, 7)),
])
def test_torus_oracle_both_slope_signs(alpha, x, y, r2, T_span):
    # in each case the column candidate of `cell_entry_span` for the sign
    # of alpha decides T
    start = SurfacePoint(0, x, y)
    rec = torus_record(alpha, start, r2)
    assert rec.T_span == T_span
    assert torus_oracle_T_span(alpha, start, r2, rec.cells_per_side) == \
        T_span


@pytest.mark.parametrize("alpha, T_span", [(F(3, 4), F(7, 2)),
                                           (F(-3, 4), F(25, 6))])
def test_piece_starting_at_time_r_is_not_stamped(alpha, T_span):
    # along (+-3, 4) a span s takes time 5s/4: the piece that enters at the
    # first y-crossing, s = 1/2, starts at time exactly r = 5/8
    start, r2 = SurfacePoint(0, F(1, 4), F(1, 2)), F(25, 64)
    assert length2(F(1, 2), alpha.numerator, alpha.denominator) == r2
    rec = torus_record(alpha, start, r2)
    assert rec.T_span == T_span
    assert torus_oracle_T_span(alpha, start, r2, rec.cells_per_side) == \
        T_span


SIXTEENTHS = st.integers(0, 15).map(lambda a: F(a, 16))


@settings(max_examples=120, deadline=None)
@given(q=st.integers(1, 12), data=st.data(), x=SIXTEENTHS, y=SIXTEENTHS,
       n=st.integers(2, 60))
def test_torus_oracle_rational_sweep(q, data, x, y, n):
    p = data.draw(st.integers(-q, q).filter(bool))
    alpha, start, r2 = F(p, q), SurfacePoint(0, x, y), F(1, n)
    rec = torus_record(alpha, start, r2)
    assert rec.T_span == torus_oracle_T_span(F(rec.pN, rec.qN), start, r2,
                                             rec.cells_per_side)


def test_torus_golden_scale():
    torus = builtin_torus()
    start = SurfacePoint(0, F(3, 16), F(5, 16))
    rec, _ = r_dense_time(torus, parse_slope_spec("golden"), start, F(1, 100),
                          time_cap=4000)
    assert not rec.capped
    # r-dense time on the unit torus is at least ~(1-2r)/(2r) and, for the
    # golden rotation, at most a small multiple of 1/r
    assert 0.4 <= rec.T * 0.1 <= 8


def test_rational_slope_never_dense():
    xo = builtin_ornithorynque()
    rec, _ = r_dense_time(xo, parse_slope_spec("rational:1/3"),
                          SurfacePoint(0, F(3, 16), F(5, 16)), F(1, 400),
                          time_cap=400)
    assert rec.capped and rec.T is None


def test_monotonicity_refined_grid():
    # halving r, here with a doubled (nested) default grid, can only
    # increase T
    xo = builtin_ornithorynque()
    start = SurfacePoint(0, F(3, 16), F(5, 16))
    r2 = F(1, 72)
    golden = parse_slope_spec("golden")
    rec, _ = r_dense_time(xo, golden, start, r2, time_cap=5000)
    rec2, _ = r_dense_time(xo, golden, start, r2 / 4, time_cap=5000)
    assert (rec.cells_per_side, rec2.cells_per_side) == (12, 24)
    assert rec2.T_span >= rec.T_span
    assert (rec.T_span, rec2.T_span) == (F(10097, 48), F(3675917, 9760))


def test_caps_and_guards():
    xo = builtin_ornithorynque()
    start = SurfacePoint(0, F(3, 16), F(5, 16))
    with pytest.raises(CapTooSmall):
        r_dense_time(xo, parse_slope_spec("golden"), start, F(1, 4),
                     time_cap=F(1, 4))
    with pytest.raises(OutOfRange):
        r_dense_time(xo, parse_slope_spec("rational:5/2"), start, F(1, 16),
                     time_cap=100)
    real = realize_slope(parse_slope_spec("golden"), F(1, 100), F(2000) ** 2)
    # shadowing guard, exactly
    assert real.error_bound ** 2 * F(2000) ** 2 < F(1, 100) / 100


def test_realize_slope_of_a_finite_expansion_is_its_value():
    # the guard fails at depth 1 (1/2), and the expansion ends at depth 2:
    # the realized slope is the value itself, with no error
    real = realize_slope(parse_slope_spec("quotients:[2,3]"), F(1, 16),
                         10 ** 6)
    assert (real.value, real.pN, real.qN, real.depth, real.error_bound) == \
        (F(3, 7), 3, 7, 2, 0)


def test_special_times_small():
    xo = builtin_ornithorynque()
    res = special_times_check(xo, parse_slope_spec("golden"),
                              SurfacePoint(0, F(3, 16), F(5, 16)), [6, 7, 8],
                              K=17)
    assert res.all_ok
    for row in res.rows:
        assert row.record.T2 <= F(row.bound) ** 2


def test_lower_bound_small_levels():
    xo = builtin_ornithorynque()
    start = SurfacePoint(0, F(3, 16), F(5, 16))
    res = lower_bound_experiment(xo, parse_slope_spec("type:w=2"), [0, 1, 2],
                                 start)
    assert res.all_ok
    for row in res.rows:
        assert row.quotient_ok and row.lower_ok and row.kappa_ok
        if row.k >= 1:
            assert row.tube.performed
            assert row.tube.stamped_tube_cells == 0
            assert row.tube.tube_cells > 0
            assert row.tube.clearance > F(1, 4)


def test_tube_audit_stamps_only_up_to_its_window():
    # the piece straddling the window used to reach tube cells beyond the
    # span the clearance sweep covered: 2 of 384 stamped at this start
    xo = builtin_ornithorynque()
    res = lower_bound_experiment(xo, parse_slope_spec("type:w=2"), [1],
                                 SurfacePoint(6, F(26, 31), F(27, 31)))
    tube = res.rows[0].tube
    assert tube.performed and tube.ok
    assert tube.tube_cells == 384 and tube.stamped_tube_cells == 0


def test_lower_bound_builds_no_origami(monkeypatch):
    # the trapping window and the tube audit's clearance trace on Y's gluing
    # view; they used to validate Y as an Origami first
    xo = builtin_ornithorynque()
    init, built = Origami.__init__, []

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Origami, "__init__", counting_init)
    res = lower_bound_experiment(xo, parse_slope_spec("type:w=2"), [1],
                                 SurfacePoint(0, F(3, 16), F(5, 16)))
    assert res.all_ok and res.rows[0].tube.performed
    assert not built


def reference_renormalized_clearance(decomp, chart_inv_start, beta, span):
    """The clearance by `trace` on a validated Y, in Fractions."""
    y = Origami(*decomp.chart.chain[0])
    res = trace(y, beta, chart_inv_start, up=True, span=span)
    sweeps = {}
    for (j, x0, _, x1, _) in res.pieces:
        ci, off = decomp.vertical.position[j]
        lo, hi = min(x0, x1) + off, max(x0, x1) + off
        if ci in sweeps:
            sweeps[ci] = (min(sweeps[ci][0], lo), max(sweeps[ci][1], hi))
        else:
            sweeps[ci] = (lo, hi)
    best = None
    for cyl in decomp.vertical.cylinders:
        W = cyl.width
        for i in range(1, 64):
            x = F(i * W, 64)
            if not F(1, 4) <= x <= W - F(1, 4):
                continue
            if cyl.index not in sweeps:
                clearance = F(W)
            else:
                lo, hi = sweeps[cyl.index]
                if lo <= x <= hi:
                    continue
                clearance = min(abs(x - lo), abs(x - hi))
            if best is None or clearance > best[2]:
                best = (cyl.index, x, clearance)
    return best


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 4), max_size=4), st.integers(0, 11),
       st.builds(F, st.integers(0, 31), st.just(32)),
       st.builds(F, st.integers(0, 31), st.just(32)),
       st.builds(F, st.integers(-6, 6), st.integers(1, 60)),
       st.builds(F, st.integers(0, 400), st.integers(1, 9)))
def test_renormalized_clearance_matches_trace_on_validated_y(
        quotients, sq, x, y, beta, span):
    dec = InducedDecomposition(builtin_ornithorynque(), g_matrix(quotients))
    start = SurfacePoint(sq, x, y)
    try:
        want = reference_renormalized_clearance(dec, start, beta, span)
    except StartOnSingularLeaf:
        with pytest.raises(StartOnSingularLeaf):
            hitting._renormalized_clearance(dec, start, beta, span)
        return
    got = hitting._renormalized_clearance(dec, start, beta, span)
    assert got == want
    assert got is None or all(type(v) is type(w) for v, w in zip(got, want))


# -- the span-length formulas and the tube audit's pull-back they replaced --------

def reference_span_for_time2(time2, p, q):
    return F(ceil_sqrt_fraction(
        F(time2) * F(q * q, p * p + q * q) * 64 ** 2), 64)


def reference_euclid2(span, p, q):
    return span * span * F(p * p + q * q, q * q)


@settings(max_examples=400, deadline=None)
@given(st.builds(F, st.integers(-60, 60), st.integers(1, 60)),
       st.builds(F, st.integers(0, 10 ** 6), st.integers(1, 1000)),
       st.builds(F, st.integers(0, 4000), st.integers(1, 64)))
def test_span_length_formulas_match_record_forms(slope, time2, span):
    p, q = slope.numerator, slope.denominator
    got = hitting._span_for_time2(time2, p, q)
    assert got == span_for_length2(p, q, time2, 64) \
        == reference_span_for_time2(time2, p, q)
    assert type(got) is F
    assert length2(span, p, q) == reference_euclid2(span, p, q)
    assert length2(got, p, q) >= time2


TYPE_W2 = slope_with_type(F(2))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 11),
       st.builds(F, st.integers(0, 30), st.just(31)),
       st.builds(F, st.integers(0, 30), st.just(31)),
       st.builds(F, st.integers(1, 10 ** 5), st.just(64)))
def test_pull_back_matches_inline_chart_arithmetic(k, deeper, sq, x, y,
                                                   span):
    # the tube audit's start and window span in Y, as lower_bound_experiment
    # computed them before it called `pull_back`
    mat = g_matrix(TYPE_W2.quotients(2 * k))
    dec = InducedDecomposition(builtin_ornithorynque(), mat)
    alpha = TYPE_W2.convergent(2 * k + deeper)
    start = SurfacePoint(sq, x, y)
    inv = mat.inv()
    want = (dec.chart.inverse().map_point(start), projective_slope(inv, alpha),
            span * (inv.c * alpha + inv.d), True)
    assert dec.pull_back(start, alpha, span) == want


def test_lower_bound_rejects_w1():
    xo = builtin_ornithorynque()
    with pytest.raises(ExponentTooSmall):
        lower_bound_experiment(xo, parse_slope_spec("type:w=1"), [1],
                               SurfacePoint(0, F(3, 16), F(5, 16)))


def test_lower_bound_needs_a_type_w_slope():
    xo, start = builtin_ornithorynque(), SurfacePoint(0, F(3, 16), F(5, 16))
    for text in ("golden", "1/3", "quotients:[1,2]", "inf"):
        with pytest.raises(OutOfRange):
            lower_bound_experiment(xo, parse_slope_spec(text), [0], start)


def _synthetic_record(r, T):
    return HittingRecord(spec_text="synthetic", pN=1, qN=2,
                         square=0, x=F(1, 3), y=F(1, 3),
                         r=float(r), cells_per_side=4, T_span=None,
                         T2=F(T) ** 2, T=float(T), capped=False, crossings=0)


def test_exponent_fit_synthetic():
    recs = [_synthetic_record(F(1, d), F(1, d) ** -2) for d in
            (2, 4, 8, 16, 32, 64, 128)]
    fit = exponent_estimate(recs)
    assert abs(fit.h_hat - 2) < 1e-9
    assert all(abs(e - 2) < 1e-9 for (_, _, e) in fit.per_point)


def test_exponent_insufficient():
    recs = [_synthetic_record(F(1, d), d) for d in (2, 3)]
    with pytest.raises(InsufficientSpan):
        exponent_estimate(recs)
    recs = [_synthetic_record(F(1, d), d) for d in (2, 3, 4, 5, 6)]
    with pytest.raises(InsufficientSpan):
        exponent_estimate(recs)          # fewer than 1.5 decades


def test_determinism_and_csv_roundtrip(tmp_path):
    xo = builtin_ornithorynque()
    start = SurfacePoint(0, F(3, 16), F(5, 16))
    golden = parse_slope_spec("golden")
    rec1, _ = r_dense_time(xo, golden, start, F(1, 64), time_cap=5000)
    rec2, _ = r_dense_time(xo, golden, start, F(1, 64), time_cap=5000)
    assert rec1 == rec2
    rec1.seed = rec2.seed = 9
    path = tmp_path / "records.csv"
    write_records(path, [rec1])
    write_records(tmp_path / "records2.csv", [rec2])
    assert (tmp_path / "records.csv").read_bytes() == \
        (tmp_path / "records2.csv").read_bytes()
    back = read_records(path)
    assert len(back) == 1
    assert back[0].T == rec1.T and back[0].qN == rec1.qN
    assert back[0].seed == 9


def test_formats_md_gives_the_records_header():
    # the header write_records writes, as docs/formats.md gives it
    docs = Path(__file__).resolve().parents[1] / "docs" / "formats.md"
    section = docs.read_text().split("## `hitting` records CSV\n\n")[1]
    assert section.splitlines()[0] == f"`{','.join(hitting.RECORD_FIELDS)}`"


# -- the singular-leaf predicate against walks of the whole leaf -------------

BUILTINS = (builtin_ornithorynque(), builtin_genus2_L(), builtin_torus())


def grid_of(p, q, *values):
    """The 1/M grid of a slope-p/q flow through these rationals."""
    return _grid_denominator(p, q, lcm(*(v.denominator for v in values)))


def reference_backward_meets_cone(origami, p, q, start, span_cap):
    """The backward orbit walked all the way to the cap: the singular-leaf
    check of `r_dense_time` before it read the whole leaf."""
    Mb = grid_of(p, q, start.x, start.y, span_cap)
    stop = span_cap.numerator * Mb // span_cap.denominator
    return any(j_next is None and s < stop for *_, s, _, j_next in _crossings(
        origami, *_grid_start(origami, Mb, start), -p, -q, Mb, stop))


@st.composite
def leaf_starts(draw, origami, p, q):
    """A start on the origami; one time in three on a leaf with
    kappa = q*x - p*y in Z, and sometimes on a vertex."""
    square = draw(st.integers(0, origami.n - 1))
    d = draw(st.integers(1, 40))
    y = F(draw(st.integers(0, d - 1)), d)
    mode = draw(st.integers(0, 5))
    if mode < 2:        # kappa = k
        x = (draw(st.integers(-q, q)) + p * y) / q % 1
    elif mode == 2:
        x, y = F(0), F(0)
    else:
        e = draw(st.integers(1, 40))
        x = F(draw(st.integers(0, e - 1)), e)
    return SurfacePoint(square, x, y)


def first_cone(origami, p, q, start, up):
    """The span of the first cone on the orbit, forward or backward, before
    span 2*n*q, or None; a start on a cone raises StartOnSingularLeaf."""
    M = grid_of(p, q, start.x, start.y)
    sign = 1 if up else -1
    for *_, s, _, j_next in _crossings(
            origami, *_grid_start(origami, M, start), sign * p, sign * q, M,
            2 * origami.n * q * M):
        if j_next is None:
            return F(s, M)
    return None


@st.composite
def leaf_cases(draw):
    origami = draw(st.sampled_from(BUILTINS))
    slope = F(draw(st.integers(-59, 59)), draw(st.integers(1, 59)))
    p, q = slope.numerator, slope.denominator
    if abs(p) > q:
        p, q = q if p > 0 else -q, abs(p)
    return origami, p, q, draw(leaf_starts(origami, p, q))


@settings(max_examples=400, deadline=None)
@given(leaf_cases())
def test_singular_leaf_predicate_matches_two_way_walk(case):
    origami, p, q, start = case
    got = hitting._on_singular_leaf(origami, p, q, start)
    try:
        forward = first_cone(origami, p, q, start, True)
        backward = first_cone(origami, p, q, start, False)
    except StartOnSingularLeaf:
        assert got
        return
    # a leaf meets a cone in both directions or in neither
    assert (forward is None) == (backward is None)
    assert got == (forward is not None or backward is not None)
    if got:
        assert (q * start.x - p * start.y).denominator == 1


def test_kappa_integer_start_on_torus_is_measured_unperturbed():
    # the torus has no cone: its leaves through the vertex are regular
    alpha, r2 = F(2, 5), F(1, 9)
    for x, y in ((F(2, 5), F(0)), (F(0), F(0)), (F(1, 5), F(1, 2))):
        assert (5 * x - 2 * y).denominator == 1
        start = SurfacePoint(0, x, y)
        rec = torus_record(alpha, start, r2)
        assert (rec.square, rec.x, rec.y) == (0, x, y)
        assert rec.T_span is not None
        assert rec.T_span == torus_oracle_T_span(alpha, start, r2,
                                                 rec.cells_per_side)


def test_start_candidates_skip_a_perturbation_on_an_edge():
    # x = 1 - 16/257 lands on x = 0 at t = 1: the first perturbation is t = 2
    start = SurfacePoint(0, 1 - F(16, 257), F(1, 3))
    got = list(hitting._start_candidates(builtin_ornithorynque(), start))
    assert got[:2] == [start, SurfacePoint(2, F(16, 257), F(545, 771))]
    assert len(got) == 15 and all(0 < c.x < 1 and 0 < c.y < 1 for c in got)


@settings(max_examples=80, deadline=None)
@given(leaf_cases())
# the backward cone lies past the short cap, the forward one past its block
@example((builtin_ornithorynque(), 1, 17, SurfacePoint(2, F(1, 17), F(0))))
def test_chosen_start_does_not_depend_on_time_cap(case):
    # a rational slope is realized as itself at any cap, so both runs read
    # the same leaves
    origami, p, q, start = case

    def chosen(cap):
        try:
            rec, _ = r_dense_time(origami,
                                  parse_slope_spec(f"rational:{F(p, q)}"),
                                  start,
                                  F(1, 4), time_cap=cap)
        except StartOnSingularLeaf:
            return None
        return rec.square, rec.x, rec.y

    assert chosen(1) == chosen(3 * origami.n * q)


# -- stamping against the 3-D indexed reference ---------------------------------

def reference_stamp_piece(grid, j, X0, Y0, X1, Y1, M, p, q, want_new=False,
                          clip=False):
    """CellGrid.stamp_piece as it was before the flat byte view and the row
    tables: the columns where the piece enters and leaves each row as two
    arrays, the inner ones by one floor division a row, each stamped by 3-D
    indexing on grid.bits. With clip, both column arrays are clipped to
    [0, m-1]."""
    m = grid.m
    r0 = Y0 * m // M
    r1 = min(Y1 * m // M, m - 1)
    rows = np.arange(r0, r1 + 1, dtype=np.int64)
    if r1 > r0:
        ks = np.arange(r0 + 1, r1 + 1, dtype=np.int64)
        inner = (X0 * q * m + p * (ks * M - Y0 * m)) // (q * M)
        np.minimum(inner, m - 1, out=inner)
    else:
        inner = np.empty(0, dtype=np.int64)
    c_start = min(X0 * m // M, m - 1)
    c_end = min(X1 * m // M, m - 1)
    los = np.concatenate(([c_start], inner))
    his = np.concatenate((inner, [c_end]))
    if clip:
        np.clip(los, 0, m - 1, out=los)
        np.clip(his, 0, m - 1, out=his)
    total_new = 0
    new_cells = []
    for cols in (los, his):
        bytecols = cols >> 3
        bitmask = (1 << (cols & 7)).astype(np.uint8)
        vals = grid.bits[j, rows, bytecols]
        newmask = (vals & bitmask) == 0
        grid.bits[j, rows, bytecols] = vals | bitmask
        n_new = int(newmask.sum())
        grid.remaining -= n_new
        total_new += n_new
        if want_new and n_new:
            new_cells.extend(zip(rows[newmask].tolist(),
                                 cols[newmask].tolist()))
    return total_new, new_cells


@st.composite
def stamp_cases(draw, max_m=24):
    """(m, M, p, q, pieces): pieces (j, X0, Y0, X1, Y1) of slope p/q on the
    1/M grid, moving by (p, q)*u; some have an end at x = 1 on a row
    boundary (the last point for p >= 0, the first for p < 0), and some are
    split at an inner point the way the window snapshot splits."""
    slope = F(draw(st.integers(-12, 12)), draw(st.integers(1, 12)))
    p, q = slope.numerator, slope.denominator
    if abs(p) > q:
        p, q = q if p > 0 else -q, abs(p)
    m = draw(st.integers(1, max_m))
    M = m * draw(st.integers(1, 4)) * q * max(1, abs(p))
    pieces = []
    for _ in range(draw(st.integers(1, 4))):
        j = draw(st.integers(0, 1))
        if draw(st.booleans()):
            Xe, Ye = M, draw(st.integers(0, m)) * (M // m)
            if p < 0:
                u = draw(st.integers(0, min(M // -p, (M - Ye) // q)))
                X0, Y0 = Xe, Ye
            else:
                u = draw(st.integers(0, min(M // p if p else M, Ye // q)))
                X0, Y0 = Xe - p * u, Ye - q * u
        else:
            X0, Y0 = draw(st.integers(0, M)), draw(st.integers(0, M))
            room = (M - X0) // p if p > 0 else X0 // -p if p < 0 else M
            u = draw(st.integers(0, min(room, (M - Y0) // q)))
        X1, Y1 = X0 + p * u, Y0 + q * u
        if draw(st.booleans()):
            w = draw(st.integers(0, u))
            Xw, Yw = X0 + p * w, Y0 + q * w
            pieces += [(j, X0, Y0, Xw, Yw), (j, Xw, Yw, X1, Y1)]
        else:
            pieces.append((j, X0, Y0, X1, Y1))
    return m, M, p, q, pieces


def _stamps_agree(case, want_new, clip):
    m, M, p, q, pieces = case
    grid, ref = CellGrid(2, m), CellGrid(2, m)
    for piece in pieces:
        got = grid.stamp_piece(*piece, M, p, q, want_new=want_new)
        assert got == reference_stamp_piece(ref, *piece, M, p, q,
                                            want_new=want_new, clip=clip)
        # Python ints, as the records and the benchmark's JSON need
        assert type(got[0]) is int and type(grid.remaining) is int
    assert np.array_equal(grid.bits, ref.bits)
    assert grid.remaining == ref.remaining


@settings(max_examples=400, deadline=None)
@given(stamp_cases(), st.booleans())
def test_stamp_piece_matches_clipped_form(case, want_new):
    # no column leaves [0, m-1]
    _stamps_agree(case, want_new, clip=True)


@settings(max_examples=300, deadline=None)
@given(stamp_cases(max_m=488), st.booleans())
def test_stamp_piece_matches_reference(case, want_new):
    _stamps_agree(case, want_new, clip=False)


def test_stamping_a_snapshot_leaves_its_grid_unchanged():
    grid = CellGrid(2, 20)
    grid.stamp_piece(0, 0, 0, 20, 20, 20, 1, 1)
    bits, remaining = grid.bits.copy(), grid.remaining
    snap = grid.snapshot()
    for j in (0, 1):
        assert snap.stamp_piece(j, 0, 0, 7, 14, 20, 1, 2)[0] > 0
    assert np.array_equal(grid.bits, bits) and grid.remaining == remaining
    assert snap.remaining < remaining
    assert np.shares_memory(snap.flat, snap.bits)


def test_row_tables_give_the_floor_of_each_row_boundary():
    # floor((c + p*k)/q) = B[k] + [R[k] >= q - c], for every |p| <= q <= 12,
    # 0 <= c < q and 0 <= k <= 40, read from the tables the grid makes
    ks = range(41)
    for q in range(1, 13):
        for p in range(-q, q + 1):
            grid = CellGrid(1, 40)
            grid.stamp_piece(0, 0, 0, 0, 0, 1, p, q)
            B, R = grid.B.tolist(), grid.R.tolist()
            assert [b * q + r for b, r in zip(B, R)] == [p * k for k in ks]
            assert all(0 <= r < q for r in R)
            for c in range(q):
                assert [b + (r >= q - c) for b, r in zip(B, R)] == \
                    [(c + p * k) // q for k in ks]


@pytest.mark.parametrize("p, piece, cells", [
    (1, (0, 0, 2, 2), {(0, 0), (0, 1), (1, 1)}),
    (-1, (2, 0, 0, 2), {(0, 1), (1, 0), (1, 1)})])
def test_piece_through_a_cell_corner_stamps_three_of_its_four_cells(
        p, piece, cells):
    # the diagonal of a 2x2 grid passes through the corner of its four
    # cells at (1/2, 1/2): each row takes the column right of that corner
    grid = CellGrid(1, 2)
    n_new, new = grid.stamp_piece(0, *piece, 2, p, 1, want_new=True)
    assert n_new == 3 and set(new) == cells
    assert {(r, c) for r in range(2) for c in range(2)
            if grid.square_cells(0, slice(0, 2))[r, c]} == cells


def test_second_slope_gets_its_own_row_tables():
    # pieces across the whole square, each touching new cells: slope 1/3
    # from x = 1/5, from (1/2, 1/20) and from (0, 1/20); -2/5 from x = 9/10
    m, M = 20, 600
    up = [((1, 3), (0, 120, 0, 320, 600)), ((1, 3), (0, 300, 30, 490, 600)),
          ((1, 3), (0, 0, 30, 190, 600))]
    down = ((-2, 5), (0, 540, 0, 300, 600))
    grid, ref = CellGrid(1, m), CellGrid(1, m)

    def stamp(grid, ref, slope, piece):
        got = grid.stamp_piece(*piece, M, *slope, want_new=True)
        assert got == reference_stamp_piece(ref, *piece, M, *slope,
                                            want_new=True)
        assert got[0] > 0 and np.array_equal(grid.bits, ref.bits)

    stamp(grid, ref, *up[0])
    # a snapshot stamped at another slope leaves the grid's tables as they
    # were
    stamp(grid.snapshot(), ref.snapshot(), *down)
    stamp(grid, ref, *up[1])
    stamp(grid, ref, *down)
    stamp(grid, ref, *up[2])


# -- r_dense_time against the loop it replaced -------------------------------

def reference_cell_entry_span(X0, Y0, M, p, q, m, row, col):
    """Exact |dy| offset (from the piece start) at which the piece first
    touches cell (row, col); the piece is assumed to touch it."""
    y0 = F(Y0, M)
    x0 = F(X0, M)
    cands = [F(0)]
    row_y = F(row, m)
    if row_y > y0:
        cands.append(row_y - y0)
    if p > 0:
        xb = F(col, m)
        if xb > x0:
            cands.append((xb - x0) * q / p)
    elif p < 0:
        xb = F(col + 1, m)
        if xb < x0:
            cands.append((x0 - xb) * q / (-p))
    return max(cands)


def reference_r_dense_time(origami, spec, start, r2, time_cap, window2):
    """r_dense_time from one start, as it was before `_flow`,
    `CellGrid.cover` and the one singular-leaf decision: its own grid
    denominator and start, the backward orbit walked to the cap and the
    forward one to the end of the trace for a cone, the trace run to the
    cap, the piece that crosses the window stamped up to the window,
    snapshotted and then stamped on, and each new cell's entry span in
    Fractions. Returns (record, snapshot bits)."""
    r2 = F(r2)
    time_cap2 = F(time_cap) ** 2
    real = realize_slope(spec, r2, time_cap2)
    p, q = real.pN, real.qN
    m = max(1, ceil_sqrt_fraction(2 / r2))
    grid = CellGrid(origami.n, m)
    span_cap = hitting._span_for_time2(time_cap2, p, q)
    window = None if window2 is None else hitting._span_for_time2(window2, p,
                                                                   q)
    Mrun = grid_of(p, q, start.x, start.y, window or 0)
    if reference_backward_meets_cone(origami, p, q, start, span_cap):
        raise StartOnSingularLeaf("backward orbit hits a cone vertex")
    skip = span_units_within_length2(p, q, r2, Mrun)
    snap_at = None if window is None else window.numerator * Mrun \
        // window.denominator
    block = hitting.CROSSING_BLOCK
    limit = -(-span_cap // block) * block * Mrun

    def stamp(j, X0, Y0, X1, Y1, s0):
        _, new_cells = grid.stamp_piece(
            j, X0, Y0, X1, Y1, Mrun, p, q,
            want_new=grid.remaining <= 2 * (m + 2))
        if grid.remaining:
            return None
        return F(s0, Mrun) + max(
            reference_cell_entry_span(X0, Y0, Mrun, p, q, m, r, c)
            for (r, c) in new_cells)

    T_span = None
    snapshot = None
    crossings = 0
    for j, X0, Y0, X1, Y1, s, kind, j_next in _crossings(
            origami, *_grid_start(origami, Mrun, start), p, q, Mrun, limit):
        if T_span is None:
            s0 = s - (Y1 - Y0)
            stamping = s0 > skip
            if snap_at is not None and s > snap_at:
                if stamping and s0 < snap_at:
                    rem = snap_at - s0
                    Xw, Yw = X0 + _exact_div(p * rem, q), Y0 + rem
                    T_span = stamp(j, X0, Y0, Xw, Yw, s0)
                    X0, Y0, s0 = Xw, Yw, snap_at
                snapshot = grid.bits.copy()
                snap_at = None
            if stamping and T_span is None:
                T_span = stamp(j, X0, Y0, X1, Y1, s0)
            if T_span is not None:
                limit = -(-T_span // block) * block * Mrun
        if s > limit:
            break
        if kind is not None:
            crossings += 1
            if j_next is None and s < limit:
                raise StartOnSingularLeaf("forward orbit hits a cone vertex")
    if snapshot is None and window is not None:
        snapshot = grid.bits.copy()
    T2 = None if T_span is None else length2(T_span, p, q)
    record = HittingRecord(
        spec_text=spec.text, pN=p, qN=q, square=start.square, x=start.x,
        y=start.y, r=float(r2) ** 0.5, cells_per_side=m,
        T_span=T_span, T2=T2, T=None if T2 is None else float(T2) ** 0.5,
        capped=T2 is None, crossings=crossings)
    return record, None if snapshot is None else snapshot.tobytes()


@st.composite
def density_cases(draw):
    """A builtin, a slope of either sign, a start on the 1/16 grid or one
    of `leaf_starts`, a radius, a cap, for a rational slope sometimes past
    the period bound n*q, and a window span: none, on the 1/64 grid, on a
    y-crossing k - y, a short one (at most r^2 before rounding up to the
    1/64 grid, so mostly in the unstamped prefix) or at the cap, past T
    when the grid fills."""
    origami = draw(st.sampled_from(BUILTINS))
    q = draw(st.integers(1, 9))
    p = draw(st.integers(-q, q))
    rational = f"rational:{F(p, q)}"
    spec = draw(st.sampled_from((rational, rational, "golden", "type:w=2",
                                 "quotients:[2,1,3,1,5,1,2,1,1,1,2,1,1,2]")))
    r2 = F(1, draw(st.integers(2, 40)))
    cap = draw(st.integers(8, 40))
    rational_slope = spec == rational
    spec = parse_slope_spec(spec)
    real = realize_slope(spec, r2, F(cap) ** 2)
    if rational_slope and draw(st.booleans()):
        # a span of at least cap/sqrt(2) >= n*q
        cap = draw(st.integers(2 * origami.n * real.qN,
                               3 * origami.n * real.qN))
    start = draw(st.one_of(
        st.builds(SurfacePoint, st.integers(0, origami.n - 1), SIXTEENTHS,
                  SIXTEENTHS),
        leaf_starts(origami, real.pN, real.qN)))
    mode = draw(st.sampled_from(("none", "grid", "crossing", "prefix",
                                 "cap")))
    if mode == "none":
        return origami, spec, start, r2, cap, None
    if mode == "grid":
        window = F(draw(st.integers(0, 64 * cap)), 64)
    elif mode == "crossing":
        window = draw(st.integers(1, cap)) - start.y
    elif mode == "prefix":
        window = F(draw(st.integers(0, 64)), 64) * r2
    else:
        window = F(cap)
    return origami, spec, start, r2, cap, length2(window, real.pN, real.qN)


def _dense_outcome(measure, origami, spec, start, r2, cap, window2):
    try:
        return measure(origami, spec, start, r2, cap, window2)
    except StartOnSingularLeaf:
        return StartOnSingularLeaf


def _r_dense_time(origami, spec, start, r2, cap, window2):
    rec, snapshot = r_dense_time(origami, spec, start, r2, time_cap=cap,
                                 window2=window2)
    return rec, None if snapshot is None else snapshot.bits.tobytes()


def reference_measure(origami, spec, start, r2, cap, window2):
    """`reference_r_dense_time` from the first start candidate it does not
    refuse, as the measurement was composed before the one singular-leaf
    decision."""
    for cand in hitting._start_candidates(origami, start):
        try:
            return reference_r_dense_time(origami, spec, cand, r2, cap,
                                          window2)
        except StartOnSingularLeaf as exc:
            last = exc
    raise last


@settings(max_examples=150, deadline=None)
@given(density_cases())
# a piece starts at the window, on the y-crossing 1 - y
@example((builtin_ornithorynque(), parse_slope_spec("golden"),
          SurfacePoint(0, F(0), F(1, 16)), F(1, 2), 8, F(52425, 43264)))
def test_r_dense_time_matches_reference_loop(case):
    assert_matches_reference_measure(case)


@st.composite
def retry_cases(draw):
    """A builtin, an irrational or rational spec, a start of `leaf_starts`
    and a cap whose window is the whole cap."""
    origami = draw(st.sampled_from(BUILTINS))
    spec = draw(st.sampled_from(("golden", "rational:2/5", "rational:-3/7",
                                 "quotients:[1,2,1,3,1,2,2,1,1,4,1,1]"))
               .map(parse_slope_spec))
    r2 = F(1, draw(st.sampled_from((16, 36, 64))))
    cap = draw(st.integers(20, 160))
    real = realize_slope(spec, r2, F(cap) ** 2)
    start = draw(leaf_starts(origami, real.pN, real.qN))
    return origami, spec, start, r2, cap, F(cap) ** 2


@settings(max_examples=60, deadline=None)
@given(retry_cases())
def test_measure_with_retry_matches_backward_walk(case):
    # the start candidates r_dense_time tries in turn, against the retry
    # over the backward walk to the cap
    assert_matches_reference_measure(case)


def assert_matches_reference_measure(case):
    # The reference refuses a start only for a cone met before its cap,
    # r_dense_time for any cone on the start's leaf: it never takes an
    # earlier candidate, and it takes the same one once the cap spans the
    # period bound n*q. From one start, whole records and snapshot bytes
    # agree, but for the crossings of a capped record, which r_dense_time
    # counts only through the period's block.
    origami, spec, start, r2, cap, window2 = case
    got = _dense_outcome(_r_dense_time, *case)
    want = _dense_outcome(reference_measure, *case)
    real = realize_slope(spec, r2, F(cap) ** 2)
    long_cap = hitting._span_for_time2(F(cap) ** 2, real.pN, real.qN) >= \
        origami.n * real.qN
    if want is StartOnSingularLeaf:
        assert got is StartOnSingularLeaf
        return
    if got is StartOnSingularLeaf:
        assert not long_cap
        return
    (rec, snapshot), (ref, ref_snapshot) = got, want
    candidates = list(hitting._start_candidates(origami, start))
    at, ref_at = (candidates.index(SurfacePoint(r.square, r.x, r.y))
                  for r in (rec, ref))
    assert at == ref_at if long_cap else at >= ref_at
    if at != ref_at:
        return
    if ref.capped:
        assert rec.crossings <= ref.crossings
        ref = dataclasses.replace(ref, crossings=rec.crossings)
    assert (rec, snapshot) == (ref, ref_snapshot)


def test_rational_orbit_stops_after_one_period():
    # slope 1/11 on the L passes all n = 3 squares before its leaf closes,
    # at span n*q = 33; under a cap of three periods the trace ends at the
    # end of the block holding one period past the unstamped prefix, span
    # 64, not at the cap's, 128, and the cap's record is otherwise unchanged
    L, alpha = builtin_genus2_L(), F(1, 11)
    start = SurfacePoint(0, F(3, 16), F(5, 16))
    ends = [trace(L, alpha, start, span=11 * k).end for k in (1, 2, 3)]
    assert sorted(end.square for end in ends) == [0, 1, 2]
    assert ends[-1] == start
    case = (L, parse_slope_spec("rational:1/11"), start, F(1, 64), 100,
            F(100) ** 2)
    rec, snapshot = _r_dense_time(*case)
    ref, ref_snapshot = reference_r_dense_time(*case)
    assert rec.capped
    assert rec.crossings == trace(L, alpha, start, span=64).crossings
    assert ref.crossings == trace(L, alpha, start, span=128).crossings
    ref = dataclasses.replace(ref, crossings=rec.crossings)
    assert (rec, snapshot) == (ref, ref_snapshot)


@st.composite
def split_cases(draw):
    """(m, M, p, q, piece, w, mask): a piece of slope p/q in square 0 of a
    one-square grid, moving by (p, q)*u from (X0, Y0), a split point w in
    [0, u] and the cells stamped before it: all the piece does not touch,
    sometimes but one, and a random part of those it touches."""
    slope = F(draw(st.integers(-12, 12)), draw(st.integers(1, 12)))
    p, q = slope.numerator, slope.denominator
    if abs(p) > q:
        p, q = q if p > 0 else -q, abs(p)
    m = draw(st.integers(1, 16))
    M = m * draw(st.integers(1, 4)) * q * max(1, abs(p))
    X0, Y0 = draw(st.integers(0, M)), draw(st.integers(0, M))
    room = (M - X0) // p if p > 0 else X0 // -p if p < 0 else M
    u = draw(st.integers(0, min(room, (M - Y0) // q)))
    piece = (0, X0, Y0, X0 + p * u, Y0 + q * u)
    touched = CellGrid(1, m)
    touched.stamp_piece(*piece, M, p, q)
    cells = touched.square_cells(0, slice(0, m))
    mask = ~cells
    mask[cells] = draw(st.lists(st.booleans(), min_size=int(cells.sum()),
                                max_size=int(cells.sum())))
    if draw(st.booleans()):
        left = np.flatnonzero(~cells)
        if len(left):
            mask.flat[left[draw(st.integers(0, len(left) - 1))]] = False
    return m, M, p, q, piece, draw(st.integers(0, u)), mask


def _grid_with(m, mask):
    grid = CellGrid(1, m)
    padded = np.zeros((m, 8 * grid.row_bytes), dtype=bool)
    padded[:, :m] = mask
    grid.bits[0] = np.packbits(padded, axis=1, bitorder="little")
    grid.remaining -= int(mask.sum())
    return grid


@settings(max_examples=400, deadline=None)
@given(split_cases())
def test_cover_whole_piece_matches_split_piece(case):
    m, M, p, q, (j, X0, Y0, X1, Y1), w, mask = case
    whole, split = _grid_with(m, mask), _grid_with(m, mask)
    got = whole.cover(j, X0, Y0, X1, Y1, M, p, q)
    Xw, Yw = X0 + p * w, Y0 + q * w
    want = split.cover(j, X0, Y0, Xw, Yw, M, p, q)
    if want is None:
        want = split.cover(j, Xw, Yw, X1, Y1, M, p, q)
        if want is not None:
            want += F(Yw - Y0, M)
    assert got == want
    assert np.array_equal(whole.bits, split.bits)
    assert whole.remaining == split.remaining
    if got is not None:
        # the largest entry span of the new cells, in Fractions
        new = ~mask & whole.square_cells(0, slice(0, m))
        assert got == max(
            (reference_cell_entry_span(X0, Y0, M, p, q, m, r, c)
             for r, c in zip(*np.nonzero(new))), default=F(0))

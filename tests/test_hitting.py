from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from origamilab import hitting
from origamilab.cfrac import g_matrix, parse_slope_spec, slope_with_type
from origamilab.cylinders import InducedDecomposition
from origamilab.errors import (CapTooSmall, ExponentTooSmall,
                               InsufficientSpan, OutOfRange,
                               StartOnSingularLeaf)
from origamilab.flow import (_crossings, _grid_denominator, _grid_start,
                             ceil_sqrt_fraction, length2, span_for_length2,
                             trace)
from origamilab.hitting import (CellGrid, HittingRecord,
                                _backward_meets_cone, _measure_with_retry,
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
    start times; returns the largest first-visit span."""
    p, q = alpha.numerator, alpha.denominator
    assert 0 < alpha <= 1
    x0, y0 = start.x, start.y
    skip2 = F(r2) * q * q / (p * p + q * q)
    first_visit = {}
    # generous horizon: the torus has area 1 and diameter sqrt(2)
    span_max = F(64 + 8 * max(1, int(1 / float(r2) ** 0.5)))

    bounds = {F(0), span_max}
    k = 1                       # y-crossings: s = k - y0
    while F(k) - y0 < span_max:
        bounds.add(F(k) - y0)
        k += 1
    k = 1                       # x-crossings: s = (k - x0)/alpha
    while (F(k) - x0) / alpha < span_max:
        bounds.add((F(k) - x0) / alpha)
        k += 1
    cuts = sorted(bounds)

    def frac1(v):
        return v - v.__floor__()

    for s_start, s_end in zip(cuts, cuts[1:]):
        if s_end <= s_start:
            continue
        if s_start * s_start <= skip2:
            continue
        xa = frac1(x0 + alpha * s_start)
        ya = frac1(y0 + s_start)
        yb = ya + (s_end - s_start)
        assert yb <= 1
        r0 = int(ya * m)
        r1 = min(int(yb * m), m - 1)
        for r in range(r0, r1 + 1):
            y_lo = max(ya, F(r, m))
            y_hi = min(yb, F(r + 1, m))
            x_lo = xa + alpha * (y_lo - ya)
            x_hi = xa + alpha * (y_hi - ya)
            for xv, y_at in ((x_lo, y_lo), (x_hi, None)):
                c = min(int(xv * m), m - 1)
                cell = (r, c)
                # entry span: piece start, then row bottom, then col boundary
                entry = s_start
                if F(r, m) > ya:
                    entry = max(entry, s_start + F(r, m) - ya)
                if F(c, m) > xa:
                    entry = max(entry, s_start + (F(c, m) - xa) / alpha)
                if cell not in first_visit or entry < first_visit[cell]:
                    first_visit[cell] = entry
    assert len(first_visit) == m * m, "horizon too small"
    return max(first_visit.values())


def test_torus_oracle_exact_match():
    torus = builtin_torus()
    start = SurfacePoint(0, F(3, 16), F(5, 16))
    for r2, spec in ((F(1, 100), "golden"), (F(1, 64), "golden"),
                     (F(1, 144), "quotients:[2,1,3,1,5,1,2,1,1,1,2,1,1,2]")):
        rec, _, _ = r_dense_time(torus, spec, start, r2, time_cap=4000)
        alpha = F(rec.pN, rec.qN)
        t_oracle = torus_oracle_T_span(alpha, start, r2, rec.cells_per_side)
        assert rec.T_span == t_oracle
        assert rec.T2 == t_oracle ** 2 * (1 + alpha * alpha)


def test_torus_golden_scale():
    torus = builtin_torus()
    start = SurfacePoint(0, F(3, 16), F(5, 16))
    rec, _, _ = r_dense_time(torus, "golden", start, F(1, 100), time_cap=4000)
    assert not rec.capped
    # r-dense time on the unit torus is at least ~(1-2r)/(2r) and, for the
    # golden rotation, at most a small multiple of 1/r
    assert 0.4 <= rec.T * 0.1 <= 8


def test_rational_slope_never_dense():
    xo = builtin_ornithorynque()
    rec, _, _ = r_dense_time(xo, "rational:1/3", SurfacePoint(0, F(3, 16), F(5, 16)),
                             F(1, 400), time_cap=400)
    assert rec.capped and rec.T is None


def test_monotonicity_refined_grid():
    # halving r with a doubled (nested) grid can only increase T
    xo = builtin_ornithorynque()
    start = SurfacePoint(0, F(3, 16), F(5, 16))
    r2 = F(1, 64)
    rec, _, _ = r_dense_time(xo, "golden", start, r2, time_cap=5000)
    rec2, _, _ = r_dense_time(xo, "golden", start, r2 / 4, time_cap=5000,
                              cells_per_side=2 * rec.cells_per_side)
    assert rec2.T_span >= rec.T_span


def test_caps_and_guards():
    xo = builtin_ornithorynque()
    start = SurfacePoint(0, F(3, 16), F(5, 16))
    with pytest.raises(CapTooSmall):
        r_dense_time(xo, "golden", start, F(1, 4), time_cap=F(1, 4))
    with pytest.raises(OutOfRange):
        r_dense_time(xo, "rational:5/2", start, F(1, 16), time_cap=100)
    real = realize_slope(parse_slope_spec("golden"), F(1, 100), F(2000) ** 2)
    # shadowing guard, exactly
    assert real.error_bound ** 2 * F(2000) ** 2 < F(1, 100) / 100


def test_special_times_small():
    xo = builtin_ornithorynque()
    res = special_times_check(xo, "golden", SurfacePoint(0, F(3, 16), F(5, 16)),
                              [6, 7, 8], K=17)
    assert res.all_ok
    for row in res.rows:
        assert row.record.T2 <= F(row.bound) ** 2


def test_lower_bound_small_levels():
    xo = builtin_ornithorynque()
    res = lower_bound_experiment(xo, 2, [0, 1, 2],
                                 SurfacePoint(0, F(3, 16), F(5, 16)))
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
    res = lower_bound_experiment(xo, 2, [1],
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
    res = lower_bound_experiment(xo, 2, [1],
                                 SurfacePoint(0, F(3, 16), F(5, 16)))
    assert res.all_ok and res.rows[0].tube.performed
    assert not built


def reference_renormalized_clearance(decomp, chart_inv_start, beta, span):
    """The clearance by `trace` on a validated Y, in Fractions."""
    y = Origami(*decomp.chart.chain[0])
    res = trace(y, beta, chart_inv_start, up=True, span=span,
                raise_on_cone=False)
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
        lower_bound_experiment(xo, 1, [1], SurfacePoint(0, F(3, 16), F(5, 16)))


def _synthetic_record(r, T):
    return HittingRecord(spec_text="synthetic", origami_name="t", pN=1, qN=2,
                         square=0, x=F(1, 3), y=F(1, 3), r2=F(r) ** 2,
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
    rec1, _, _ = r_dense_time(xo, "golden", start, F(1, 64), time_cap=5000, seed=9)
    rec2, _, _ = r_dense_time(xo, "golden", start, F(1, 64), time_cap=5000, seed=9)
    assert rec1 == rec2
    path = tmp_path / "records.csv"
    write_records(path, [rec1])
    write_records(tmp_path / "records2.csv", [rec2])
    assert (tmp_path / "records.csv").read_bytes() == \
        (tmp_path / "records2.csv").read_bytes()
    back = read_records(path)
    assert len(back) == 1
    assert back[0].T == rec1.T and back[0].qN == rec1.qN


# -- the singular-leaf check against the backward walk it replaced ---------------

BUILTINS = (builtin_ornithorynque(), builtin_genus2_L(), builtin_torus())


def reference_backward_meets_cone(origami, p, q, start, span_cap):
    """The backward orbit walked all the way to the cap."""
    Mb = _grid_denominator(p, q, start.x, start.y, span_cap)
    stop = span_cap.numerator * Mb // span_cap.denominator
    return any(j_next is None and s < stop for *_, s, _, j_next in _crossings(
        *_grid_start(origami, Mb, start, up=False), p, q, Mb, stop))


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


def first_backward_cone(origami, p, q, start):
    """The span of the first cone on the backward orbit before span 2*n*q,
    or None (also for a start on a cone)."""
    M = _grid_denominator(p, q, start.x, start.y)
    try:
        for *_, s, _, j_next in _crossings(
                *_grid_start(origami, M, start, up=False), p, q, M,
                2 * origami.n * q * M):
            if j_next is None:
                return F(s, M)
    except StartOnSingularLeaf:
        pass
    return None


@st.composite
def singular_leaf_cases(draw):
    origami = draw(st.sampled_from(BUILTINS))
    slope = F(draw(st.integers(-59, 59)), draw(st.integers(1, 59)))
    p, q = slope.numerator, slope.denominator
    if abs(p) > q:
        p, q = q if p > 0 else -q, abs(p)
    start = draw(leaf_starts(origami, p, q))
    # caps on the 1/64 grid, as _span_for_time2 makes them, below and
    # above the n*q bound, or exactly at the first cone
    nq64 = 64 * origami.n * q
    where = draw(st.integers(0, 2))
    cone = first_backward_cone(origami, p, q, start) if where == 2 else None
    if cone is not None:
        return origami, p, q, start, cone
    if where == 1:
        cap = draw(st.integers(nq64, 2 * nq64 + 5 * 64))
    else:
        cap = draw(st.integers(1, nq64))
    return origami, p, q, start, F(cap, 64)


@settings(max_examples=400, deadline=None)
@given(singular_leaf_cases())
def test_kappa_predicate_matches_backward_walk(case):
    origami, p, q, start, span_cap = case
    try:
        want = reference_backward_meets_cone(origami, p, q, start, span_cap)
    except StartOnSingularLeaf:
        with pytest.raises(StartOnSingularLeaf):
            _backward_meets_cone(origami, p, q, start, span_cap)
        return
    assert _backward_meets_cone(origami, p, q, start, span_cap) == want
    if want:
        assert (q * start.x - p * start.y).denominator == 1


@st.composite
def retry_cases(draw):
    origami = draw(st.sampled_from(BUILTINS))
    spec = draw(st.sampled_from(("golden", "rational:2/5", "rational:-3/7",
                                 "quotients:[1,2,1,3,1,2,2,1,1,4,1,1]")))
    r2 = F(1, draw(st.sampled_from((16, 36, 64))))
    cap = draw(st.integers(20, 160))
    real = realize_slope(spec, r2, F(cap) ** 2)
    start = draw(leaf_starts(origami, real.pN, real.qN))
    return origami, spec, start, r2, cap


def _measured(origami, spec, start, r2, cap):
    try:
        rec, grid, _ = _measure_with_retry(origami, spec, start, r2,
                                           time_cap=cap, origami_name="o")
    except StartOnSingularLeaf as exc:
        return str(exc)
    return rec, grid.bits.tobytes()


@settings(max_examples=60, deadline=None)
@given(retry_cases())
def test_measure_with_retry_matches_backward_walk(case):
    # whole records, whose square, x and y are the start the retry chose
    got = _measured(*case)
    with mock.patch.object(hitting, "_backward_meets_cone",
                           reference_backward_meets_cone):
        want = _measured(*case)
    assert got == want


# -- stamping against its clipped form ---------------------------------------------

def clipped_stamp_piece(grid, j, X0, Y0, X1, Y1, M, p, q, want_new=False):
    """CellGrid.stamp_piece with both column arrays clipped to [0, m-1]."""
    m = grid.m
    r0 = Y0 * m // M
    r1 = min(Y1 * m // M, m - 1)
    rows = np.arange(r0, r1 + 1, dtype=np.int64)
    if r1 > r0:
        ks = np.arange(r0 + 1, r1 + 1, dtype=np.int64)
        inner = (X0 * q * m + p * (ks * M - Y0 * m)) // (q * M)
    else:
        inner = np.empty(0, dtype=np.int64)
    c_start = min(X0 * m // M, m - 1)
    c_end = min(X1 * m // M, m - 1)
    los = np.concatenate(([c_start], inner))
    his = np.concatenate((inner, [c_end]))
    np.clip(los, 0, m - 1, out=los)
    np.clip(his, 0, m - 1, out=his)
    total_new = 0
    new_cells = []
    for cols in (los, his):
        n_new, nr, nc = grid._stamp(j, rows, cols, want_new)
        total_new += n_new
        if nr is not None:
            new_cells.extend(zip(nr.tolist(), nc.tolist()))
    return total_new, new_cells


@st.composite
def stamp_cases(draw):
    """(m, M, p, q, pieces): pieces (j, X0, Y0, X1, Y1) of slope p/q on the
    1/M grid, moving by (p, q)*u; some end at x = 1 on a row boundary, and
    some are split at an inner point the way the window snapshot splits."""
    slope = F(draw(st.integers(-12, 12)), draw(st.integers(1, 12)))
    p, q = slope.numerator, slope.denominator
    if abs(p) > q:
        p, q = q if p > 0 else -q, abs(p)
    m = draw(st.integers(1, 24))
    M = m * draw(st.integers(1, 4)) * q * max(1, abs(p))
    pieces = []
    for _ in range(draw(st.integers(1, 4))):
        j = draw(st.integers(0, 1))
        if p > 0 and draw(st.booleans()):
            X1, Y1 = M, draw(st.integers(0, m)) * (M // m)
            u = draw(st.integers(0, min(M // p, Y1 // q)))
            X0, Y0 = X1 - p * u, Y1 - q * u
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


@settings(max_examples=400, deadline=None)
@given(stamp_cases(), st.booleans())
def test_stamp_piece_matches_clipped_form(case, want_new):
    m, M, p, q, pieces = case
    grid, ref = CellGrid(2, m), CellGrid(2, m)
    for piece in pieces:
        assert grid.stamp_piece(*piece, M, p, q, want_new=want_new) == \
            clipped_stamp_piece(ref, *piece, M, p, q, want_new=want_new)
    assert np.array_equal(grid.bits, ref.bits)
    assert grid.remaining == ref.remaining

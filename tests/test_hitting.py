from fractions import Fraction as F

import pytest

from origamilab.cfrac import parse_slope_spec
from origamilab.errors import (CapTooSmall, ExponentTooSmall,
                               InsufficientSpan, OutOfRange)
from origamilab.hitting import (HittingRecord, exponent_estimate,
                                lower_bound_experiment, r_dense_time,
                                read_records, realize_slope,
                                special_times_check, write_records)
from origamilab.origami import SurfacePoint, builtin_ornithorynque, builtin_torus


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

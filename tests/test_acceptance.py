"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Two sub-checks are expected to fail against the pinned reference values and
are implemented faithfully anyway; the analysis lives in the reviewer notes
outside the package:
  - criterion 4: the narrow B-row successor sets are not an upper bound for
    the true next-letter relation (B_i also reaches B_{i-1});
  - criterion 10 (w=2 clause): at the only special radii allowed by the
    memory budget, the measured per-point exponent at q=61 is pinned near
    1.55 by the full renormalized sweep, below the required 1.6.
"""

import random
import time
from fractions import Fraction as F

import pytest

from origamilab.cfrac import (CFSlope, cf_expand, g_matrix, parse_slope_spec,
                              slope_with_type)
from origamilab.errors import ConeVertexInInterior
from origamilab.flow import Segment
from origamilab.hitting import (exponent_estimate, lower_bound_experiment,
                                r_dense_time, special_times_check)
from origamilab.origami import (SurfacePoint, automorphism_group,
                                builtin_genus2_L, builtin_ornithorynque,
                                is_isomorphic)
from origamilab.sl2 import MAT_R, MAT_T, act, orbit_enumerate, reflect_S
from origamilab.verify import (MAIN_CONES, asserted_next_up,
                               compare_relation,
                               intersection_property_harness,
                               next_letter_relation, tiles_crossed,
                               _segment_sampler)
from paper_checks import genus2_control_pair

START = SurfacePoint(0, F(3, 16), F(5, 16))


def report(cid, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {cid}: {status}  {detail}")
    assert ok, f"criterion {cid} failed: {detail}"


@pytest.fixture(scope="module")
def xo():
    return builtin_ornithorynque()


@pytest.fixture(scope="module")
def w2_lower(xo):
    return lower_bound_experiment(xo, parse_slope_spec("type:w=2"),
                                  [0, 1, 2, 3], START)


def test_criterion_1_invariants(xo):
    t0 = time.time()
    cd = xo.cone_data
    ok = (xo.n == 12
          and sorted(c.order for c in cd.cones) == [2, 2, 2]
          and all(2 * (c.order + 1) == 6 for c in cd.cones)   # angle 6 pi
          and cd.regular_vertices == 3
          and cd.genus == 4
          and len(automorphism_group(xo)) == 3)
    report(1, ok, f"n=12 cones=(2,2,2) regular=3 genus=4 |Aut|=3 "
                  f"({time.time() - t0:.2f}s)")


def test_criterion_2_sl2_fixed_point(xo):
    t0 = time.time()
    ok = (is_isomorphic(act(MAT_T, xo), xo) is not None
          and is_isomorphic(act(MAT_R, xo), xo) is not None
          and is_isomorphic(reflect_S(xo), xo) is not None
          and len(orbit_enumerate(xo).representatives) == 1)
    report(2, ok, f"T, R, S fix the surface; orbit size 1 "
                  f"({time.time() - t0:.2f}s)")


def test_criterion_3_cf_suite():
    t0 = time.time()
    rng = random.Random(33)
    slopes = []
    for _ in range(60):
        q = rng.randrange(20, 5000)
        p = rng.randrange(1, q)
        slopes.append(CFSlope(cf_expand(F(p, q))))
    for w, max_depth in ((F(3, 2), 31), (F(2), 31), (F(5, 2), 13)):
        for _ in range(13):
            slopes.append(slope_with_type(w, depth=rng.randrange(8, max_depth)))
    slopes.append(slope_with_type(1, depth=30))
    ok = True
    checked = 0
    for cf in slopes[:100]:
        depth = cf.depth_available if cf.finite else 30
        cf.ensure(min(depth, 30))
        depth = min(depth, 30)
        for n in range(0, depth + 1):
            ok = ok and (cf.p(n) * cf.q(n - 1) - cf.p(n - 1) * cf.q(n)
                         == (-1) ** (n + 1))
        for n in range(1, depth + 1):
            m = g_matrix(cf.quotients(n))
            if n % 2 == 0:
                ok = ok and (m.a, m.c, m.b, m.d) == \
                    (cf.p(n - 1), cf.q(n - 1), cf.p(n), cf.q(n))
            else:
                ok = ok and (m.a, m.c, m.b, m.d) == \
                    (cf.p(n), cf.q(n), cf.p(n - 1), cf.q(n - 1))
        for n in range(1, depth - 10):
            deep = cf.convergent(n + 10)
            gap = abs(deep - cf.convergent(n))
            ok = ok and gap < F(1, cf.q(n) * cf.q(n + 1))
        checked += 1
        if not ok:
            break
    report(3, ok and checked == 100,
           f"{checked} slopes, depths <= 30, exact ({time.time() - t0:.1f}s)")


def test_criterion_4_transition_relation(xo):
    t0 = time.time()
    rel = next_letter_relation(xo, cone=(F(0), F(1)), sample_budget=10000,
                               seed=0)
    violations = compare_relation(rel, asserted_next_up())
    missing = [v for v in violations if v.kind == "missing"]
    excess = [v for v in violations if v.kind == "excess"]
    detail = (f"samples/letter={rel.samples_per_letter} "
              f"excess={[(f'{l[0]}{l[1]}', f'{s[0]}{s[1]}') for (l, s) in ((v.letter, v.successor) for v in excess)]} "
              f"missing={len(missing)} ({time.time() - t0:.1f}s)")
    report(4, not violations, detail)


def test_criterion_5_tile_crossings(xo):
    t0 = time.time()
    rng = random.Random(55)
    bad = 0
    for cone in MAIN_CONES:
        sample = _segment_sampler(xo, cone, 17)
        done = 0
        while done < 1000:
            seg = sample(rng)
            if len(seg.word) < 6:
                continue
            done += 1
            if tiles_crossed(seg) != {0, 1, 2}:
                bad += 1
    report(5, bad == 0, f"2x1000 segments with >= 6 letters, "
                        f"violations={bad} ({time.time() - t0:.1f}s)")


def test_criterion_6_intersection_property(xo):
    t0 = time.time()
    reports = {}
    for pair in ("main", "reflected"):
        reports[pair] = intersection_property_harness(
            xo, 17, 10000, pair, seed=101)
    controls_ok = True
    g2 = builtin_genus2_L()
    for K in (17, 34, 50):
        _, _, witness = genus2_control_pair(g2, K)
        controls_ok = controls_ok and witness is None
    ok = controls_ok
    detail = []
    for pair, rep in reports.items():
        ok = ok and rep.failures == 0 and not rep.classifier_conflicts \
            and not rep.slope_audit_failures \
            and rep.witness_recheck_failures == 0
        detail.append(f"{pair}: fail={rep.failures} verdicts={rep.verdicts} "
                      f"short={rep.word_too_short}")
    detail.append(f"genus2 controls found (K=17,34,50): {controls_ok}")
    report(6, ok, "; ".join(detail) + f" ({time.time() - t0:.1f}s)")


def test_criterion_7_cylinders(xo):
    from origamilab.cylinders import (InducedDecomposition,
                                      VerticalDecomposition, transversal_bound)
    t0 = time.time()
    cyls = VerticalDecomposition(xo).cylinders
    names = {frozenset(xo.names[s] for s in c.squares) for c in cyls}
    plus = frozenset(f"({i},1,{b})" for i in range(3) for b in range(2))
    minus = frozenset(f"({i},0,{b})" for i in range(3) for b in range(2))
    ok = (len(cyls) == 2 and all(c.length == 6 and c.width == 1 for c in cyls)
          and names == {plus, minus}
          and sum(c.area for c in cyls) == 12)
    rng = random.Random(77)
    checked = 0
    while checked < 1000:
        quots = [rng.randrange(1, 5) for _ in range(rng.randrange(1, 6))]
        m = g_matrix(quots)
        base = rng.choice(("vertical", "horizontal"))
        dec = InducedDecomposition(xo, m, base=base)
        p, q = dec.slope_pq()
        if abs(q) > 50 or abs(p) > 50:
            continue
        slope = F(rng.randrange(-60, 60), rng.randrange(1, 40))
        if slope == dec.slope:
            continue
        try:
            seg = Segment(xo, SurfacePoint(rng.randrange(12),
                                           F(rng.randrange(1, 32), 32),
                                           F(rng.randrange(1, 32), 32)),
                          slope, F(rng.randrange(1, 10)))
        except ConeVertexInInterior:
            continue
        tb = transversal_bound(seg, dec)
        if not tb.holds:
            ok = False
            break
        checked += 1
    report(7, ok, f"two (L=6,W=1) cylinders, area 12; bound held on "
                  f"{checked} random transversal segments "
                  f"({time.time() - t0:.1f}s)")


def test_criterion_8_upper_bound(xo):
    t0 = time.time()
    res = special_times_check(xo, parse_slope_spec("golden"), START,
                              range(6, 15), K=17)
    ratios = [round(r.ratio, 4) if r.ratio is not None else None
              for r in res.rows]
    report(8, res.all_ok, f"n=6..14 ratios T/(4Kq_n) = {ratios} "
                          f"({time.time() - t0:.1f}s)")


def test_criterion_9_lower_bound(w2_lower):
    t0 = time.time()
    rows = [r for r in w2_lower.rows if 50 <= r.q2k <= 1000]
    ok = len(rows) >= 1
    detail = []
    for row in rows:
        ok = ok and row.quotient_ok and row.lower_ok and row.kappa_ok \
            and row.trapping_ok is not False and row.tube.performed \
            and row.tube.ok
        thr = (row.threshold2_num / 8) ** 0.5
        detail.append(
            f"q={row.q2k}: T={row.record.T and round(row.record.T, 1)} >= "
            f"{thr:.1f}, kappa_ok={row.kappa_ok}, trapping={row.trapping_ok}, "
            f"tube cells={row.tube.tube_cells} stamped="
            f"{row.tube.stamped_tube_cells} clearance="
            f"{float(row.tube.clearance or 0):.3f}")
    report(9, ok, "; ".join(detail) + f" ({time.time() - t0:.1f}s)")


def test_criterion_10_golden_exponent(xo):
    t0 = time.time()
    res = special_times_check(xo, parse_slope_spec("golden"), START,
                              range(9, 18), K=17)
    fit = exponent_estimate([row.record for row in res.rows])
    ok = res.all_ok and 0.85 <= fit.h_hat <= 1.3
    report("10-golden", ok,
           f"h_hat={fit.h_hat:.4f} in [0.85, 1.3] ({time.time() - t0:.1f}s)")


def test_criterion_10_w2_exponents(xo, w2_lower):
    t0 = time.time()
    recs = [row.record for row in w2_lower.rows]
    for r2 in (F(1, 64) ** 2, F(1, 96) ** 2):
        rec, _ = r_dense_time(xo, parse_slope_spec("type:w=2"), START, r2,
                              time_cap=60000)
        recs.append(rec)
    fit = exponent_estimate(recs)
    tested = sorted(w2_lower.rows, key=lambda r: r.q2k)[-2:]
    per_point = {row.q2k: row.record.per_point_exponent() for row in tested}
    ok = fit.h_hat >= 1.6 and all(e is not None and e >= 1.6
                                  for e in per_point.values())
    report("10-w2", ok,
           f"envelope h_hat={fit.h_hat:.4f} (need >= 1.6); per-point at two "
           f"largest q: { {q: round(e, 4) for q, e in per_point.items()} } "
           f"(need >= 1.6) ({time.time() - t0:.1f}s)")


def test_criterion_11_determinism(tmp_path):
    import origamilab.cli as cli
    t0 = time.time()
    radii = "36/55,36/89,36/144,36/233,36/377,36/610,36/2584"
    outs = []
    for name in ("one", "two"):
        d = tmp_path / name
        code = cli.main(["hitting", "--origami", "ornithorynque",
                         "--slope", "golden", "--start", "0,3/16,5/16",
                         "--radii", radii, "--cap", "60000",
                         "--seed", "42", "--out", "rec.csv",
                         "--out-dir", str(d)])
        assert code == 0
        code = cli.main(["exponent", "--in", str(d / "rec.csv"),
                         "--out", "fit.json", "--plot", "fit.svg",
                         "--seed", "42", "--out-dir", str(d)])
        assert code == 0
        outs.append(((d / "rec.csv").read_bytes(),
                     (d / "fit.json").read_bytes(),
                     (d / "fit.svg").read_bytes()))
    ok = outs[0] == outs[1]
    report(11, ok, f"records/fit/plot byte-identical across reruns "
                   f"({time.time() - t0:.1f}s)")

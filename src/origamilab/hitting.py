"""Hitting-time measurements: r-dense times, the special-radius upper bound,
the synthesized-slope lower bound with its audits, and exponent fits.

Density is certified on square cells of side 1/m <= r/sqrt(2), one bit per
cell (a cell never straddles a square, which only tightens the requirement).
Irrational slopes enter as exact convergents under the shadowing guard
|alpha - p_N/q_N| * T_cap < r/10. Times are tracked as exact rational rises
(|dy|); Euclidean times are compared through their exact squares.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cfrac import (SlopeSpec, ceil_power, g_matrix, parse_slope_spec,
                    rational_lt_power, slope_with_type)
from .cylinders import InducedDecomposition, trapping_window
from .errors import (CapTooSmall, ExponentTooSmall, FormatError, GridError,
                     InsufficientSpan, OutOfRange, PreconditionViolated,
                     StartOnSingularLeaf)
from .flow import (_crossings, _exact_div, _flow, _grid_denominator,
                   _grid_start, ceil_sqrt_fraction, length2, span_for_length2)
from .origami import DEFAULT_MEM_BUDGET, SurfacePoint, canonical_point
from .sl2 import projective_slope, stretch_factor_squared


# -- cell grid -------------------------------------------------------------------

class CellGrid:
    """One bit per cell, cells per square in an m x m grid."""

    def __init__(self, n_squares, m):
        self.n_squares = n_squares
        self.m = m
        self.row_bytes = (m + 7) // 8
        self.bits = np.zeros((n_squares, m, self.row_bytes), dtype=np.uint8)
        self.total = n_squares * m * m
        self.remaining = self.total

    def snapshot(self):
        return self.bits.copy()

    @staticmethod
    def square_cells(bits, j, rows):
        """The cells of square j in the given slice of rows, from packed
        bits (the grid's own or a snapshot), as a bool array indexed
        [row, column]."""
        m = bits.shape[1]
        return np.unpackbits(bits[j, rows], axis=1, count=m,
                             bitorder="little").view(bool)

    def _stamp(self, j, rows, cols, want_new):
        bytecols = cols >> 3
        bitmask = (1 << (cols & 7)).astype(np.uint8)
        vals = self.bits[j, rows, bytecols]
        newmask = (vals & bitmask) == 0
        self.bits[j, rows, bytecols] = vals | bitmask
        n_new = int(newmask.sum())
        self.remaining -= n_new
        if want_new and n_new:
            return n_new, rows[newmask], cols[newmask]
        return n_new, None, None

    def stamp_piece(self, j, X0, Y0, X1, Y1, M, p, q, want_new=False):
        """Stamp every cell the closed piece touches. Requires |p| <= q
        (at most two cell columns per cell row)."""
        m = self.m
        r0 = Y0 * m // M
        r1 = min(Y1 * m // M, m - 1)
        rows = np.arange(r0, r1 + 1, dtype=np.int64)
        if r1 > r0:
            ks = np.arange(r0 + 1, r1 + 1, dtype=np.int64)
            inner = (X0 * q * m + p * (ks * M - Y0 * m)) // (q * M)
            # x is in [0, 1] on a row boundary; only x = 1 gives column m
            np.minimum(inner, m - 1, out=inner)
        else:
            inner = np.empty(0, dtype=np.int64)
        c_start = min(X0 * m // M, m - 1)
        c_end = min(X1 * m // M, m - 1)
        los = np.concatenate(([c_start], inner))
        his = np.concatenate((inner, [c_end]))
        total_new = 0
        new_cells = []
        for cols in (los, his):
            n_new, nr, nc = self._stamp(j, rows, cols, want_new)
            total_new += n_new
            if nr is not None:
                new_cells.extend(zip(nr.tolist(), nc.tolist()))
        return total_new, new_cells

def cell_entry_span(X0, Y0, M, p, q, m, row, col):
    """Exact |dy| offset (from the piece start) at which the piece first
    touches cell (row, col); the piece is assumed to touch it."""
    y0 = Fraction(Y0, M)
    x0 = Fraction(X0, M)
    cands = [Fraction(0)]
    row_y = Fraction(row, m)
    if row_y > y0:
        cands.append(row_y - y0)
    if p > 0:
        xb = Fraction(col, m)
        if xb > x0:
            cands.append((xb - x0) * q / p)
    elif p < 0:
        xb = Fraction(col + 1, m)
        if xb < x0:
            cands.append((x0 - xb) * q / (-p))
    return max(cands)


# -- slope realization ---------------------------------------------------------------

@dataclass
class RealizedSlope:
    spec_text: str
    value: Fraction            # exact slope used by the tracer
    pN: int
    qN: int
    depth: object              # convergent depth, None for exact rationals
    error_bound: Fraction      # bound on |alpha - value|, 0 if exact; a
                               # finite expansion can attain it


def realize_slope(spec, r2, time_cap2):
    """Convergent deep enough for the shadowing guard
    |alpha - p_N/q_N|^2 * T_cap^2 < r^2/100, all exact."""
    if isinstance(spec, str):
        spec = parse_slope_spec(spec)
    if spec.kind == "rational":
        v = spec.value
        return RealizedSlope(spec_text=spec.text, value=v, pN=v.numerator,
                             qN=v.denominator, depth=None,
                             error_bound=Fraction(0))
    if spec.kind != "cf":
        raise OutOfRange(f"cannot realize slope spec {spec.text!r}")
    cf = spec.cf
    n = 1
    while True:
        if cf.finite and n >= cf.depth_available:
            v = cf.value_exact()
            return RealizedSlope(spec_text=spec.text, value=v,
                                 pN=v.numerator, qN=v.denominator,
                                 depth=cf.depth_available,
                                 error_bound=Fraction(0))
        bound = cf.error_bound(n)
        if bound * bound * time_cap2 < r2 / 100:
            v = cf.convergent(n)
            return RealizedSlope(spec_text=spec.text, value=v,
                                 pN=v.numerator, qN=v.denominator, depth=n,
                                 error_bound=bound)
        n += 1


# -- r-dense time ----------------------------------------------------------------------

@dataclass
class HittingRecord:
    spec_text: str
    origami_name: str
    pN: int
    qN: int
    square: int
    x: Fraction
    y: Fraction
    r2: Fraction
    r: float
    cells_per_side: int
    T_span: object             # Fraction |dy| rise at completion, or None
    T2: object                 # exact squared Euclidean time, or None
    T: object                  # float, or None when capped
    capped: bool
    crossings: int
    seed: object = None

    def per_point_exponent(self):
        if self.T is None or self.r >= 1:
            return None
        return math.log(self.T) / -math.log(self.r)


def _span_for_time2(time2, p, q):
    """Smallest multiple of 1/64 whose rise along slope p/q takes Euclidean
    time at least sqrt(time2)."""
    return span_for_length2(p, q, time2, 64)


# Records count the crossings through the end of the block of this many
# units of span that contains T; the cap is rounded up to a whole block.
CROSSING_BLOCK = 32


def _backward_meets_cone(origami, p, q, start, span_cap):
    """Whether the backward orbit of slope p/q (gcd 1) from start meets a
    cone vertex at a span below span_cap.

    The origami covers the torus, branched over its one lattice point, and
    the direction is (p, q). The torus line through (x, y) meets a lattice
    point iff kappa = q*x - p*y is an integer, so for any other kappa no
    vertex is ever met. Otherwise the lift meets a vertex once per torus
    period (span q), and a lift that meets no cone is periodic on the n
    preimages of the start: a cone, if any, comes before span n*q.
    """
    if (q * start.x - p * start.y).denominator != 1:
        return False
    _, stop, _, crossings = _flow(origami, Fraction(p, q), start, False,
                                  min(span_cap, origami.n * q))
    return any(j_next is None and s < stop
               for *_, s, _, j_next in crossings)


def r_dense_time(origami, slope_spec, start, r2, *, time_cap,
                 mem_budget=DEFAULT_MEM_BUDGET, cells_per_side=None,
                 window2=None, seed=None, origami_name="origami"):
    """First-visit density measurement: trace the flow, stamping cells, until
    every cell is visited at a time > r (T = the last first-visit) or the
    time cap is reached (record flagged capped).

    A start whose orbit meets a cone vertex raises StartOnSingularLeaf:
    backward before the cap, decided by the kappa = q*x - p*y test of
    `_backward_meets_cone`, or forward before the trace's limit.

    window2, when given, is an exact squared time: the grid is snapshotted
    once the trace has stamped up to the window span _span_for_time2(window2)
    (used by the tube audit). Returns (record, grid, snapshot).
    """
    r2 = Fraction(r2)
    if r2 <= 0:
        raise OutOfRange("need r > 0")
    time_cap2 = Fraction(time_cap) ** 2
    if time_cap2 <= r2:
        raise CapTooSmall("time cap below the radius threshold")
    real = realize_slope(slope_spec, r2, time_cap2)
    alpha = real.value
    p, q = alpha.numerator, alpha.denominator
    if abs(p) > q:
        raise OutOfRange("density kernel needs |slope| <= 1")

    m = cells_per_side or max(1, ceil_sqrt_fraction(2 / r2))
    grid = CellGrid(origami.n, m)
    if grid.total > mem_budget * 8:
        raise CapTooSmall(
            f"cell store needs {grid.total} bits > budget {mem_budget * 8}")
    span_cap = _span_for_time2(time_cap2, p, q)
    window = None if window2 is None else _span_for_time2(window2, p, q)
    # every crossing, the window point and the cap lie on the (1/Mrun)-grid
    Mrun = _grid_denominator(p, q, start.x, start.y, window or 0)
    if q * Mrun * m >= 2 ** 61:
        raise GridError("stamping would overflow int64")

    if _backward_meets_cone(origami, p, q, start, span_cap):
        raise StartOnSingularLeaf("backward orbit hits a cone vertex")

    # pieces starting at a time <= r are not stamped:
    # (s/Mrun)^2 (p^2+q^2)/q^2 <= r^2  <=>  s <= skip
    skip = math.isqrt(r2.numerator * (q * Mrun) ** 2
                 // (r2.denominator * (p * p + q * q)))
    snap_at = None if window is None else window.numerator * Mrun \
        // window.denominator
    limit = -(-span_cap // CROSSING_BLOCK) * CROSSING_BLOCK * Mrun

    def stamp(j, X0, Y0, X1, Y1, s0):
        """Stamp a piece starting at span s0; T_span if it fills the grid."""
        _, new_cells = grid.stamp_piece(
            j, X0, Y0, X1, Y1, Mrun, p, q,
            want_new=grid.remaining <= 2 * (m + 2))
        if grid.remaining:
            return None
        return Fraction(s0, Mrun) + max(
            cell_entry_span(X0, Y0, Mrun, p, q, m, r, c)
            for (r, c) in new_cells)

    T_span = None
    snapshot = None
    crossings = 0
    for j, X0, Y0, X1, Y1, s, kind, j_next in _crossings(
            *_grid_start(origami, Mrun, start, up=True), p, q, Mrun, limit):
        if T_span is None:
            s0 = s - (Y1 - Y0)
            stamping = s0 > skip
            if snap_at is not None and s > snap_at:
                if stamping and s0 < snap_at:
                    # stamp up to the window, then snapshot, then the rest
                    rem = snap_at - s0
                    Xw, Yw = X0 + _exact_div(p * rem, q), Y0 + rem
                    T_span = stamp(j, X0, Y0, Xw, Yw, s0)
                    X0, Y0, s0 = Xw, Yw, snap_at
                snapshot = grid.snapshot()
                snap_at = None
            if stamping and T_span is None:
                T_span = stamp(j, X0, Y0, X1, Y1, s0)
            if T_span is not None:
                limit = -(-T_span // CROSSING_BLOCK) * CROSSING_BLOCK * Mrun
        if s > limit:
            break
        if kind is not None:
            crossings += 1
            if j_next is None and s < limit:
                raise StartOnSingularLeaf("forward orbit hits a cone vertex")
    if snapshot is None and window is not None:
        snapshot = grid.snapshot()

    T2 = None if T_span is None else length2(T_span, p, q)
    record = HittingRecord(
        spec_text=slope_spec if isinstance(slope_spec, str) else slope_spec.text,
        origami_name=origami_name, pN=real.pN, qN=real.qN,
        square=start.square, x=start.x, y=start.y, r2=r2,
        r=float(r2) ** 0.5, cells_per_side=m, T_span=T_span, T2=T2,
        T=None if T2 is None else float(T2) ** 0.5, capped=T2 is None,
        crossings=crossings, seed=seed)
    return record, grid, snapshot


def _start_candidates(origami, start, tries=16):
    """The requested start plus deterministic perturbations with a coprime
    denominator, for retrying exact singular-leaf coincidences."""
    yield start
    for t in range(1, tries):
        x = (start.x + Fraction(16 * t, 257)) % 1
        y = (start.y + Fraction(48 * t, 257)) % 1
        if x == 0 or y == 0:
            continue
        yield SurfacePoint((start.square + t) % origami.n, x, y)


def _measure_with_retry(origami, spec, start, r2, **kw):
    last = None
    for cand in _start_candidates(origami, start):
        try:
            return r_dense_time(origami, spec, cand, r2, **kw)
        except StartOnSingularLeaf as exc:
            last = exc
    raise last


# -- the special radii ---------------------------------------------------------------

def upper_radius(cf, n, K=17):
    """r_n = 2(K+1)/q_n, where T(r_n) <= 4 K q_n is checked."""
    return Fraction(2 * (K + 1), cf.q(n))


def lower_radius2(cf, k):
    """r_k^2 for r_k = 1/(q_2k sqrt(32)), where T(r_k) >= q_2k^w/sqrt(8)."""
    return Fraction(1, 32 * cf.q(2 * k) ** 2)


# -- the special-radius upper bound ---------------------------------------------------

@dataclass
class SpecialTimesRow:
    n: int
    q_n: int
    r: float
    record: HittingRecord
    bound: int                 # 4 K q_n
    ratio: object              # float T / bound, None when capped
    ok: bool


@dataclass
class SpecialTimesResult:
    K: int
    rows: list
    all_ok: bool


def special_times_check(origami, slope_spec, start, n_values, K=17,
                        mem_budget=DEFAULT_MEM_BUDGET, origami_name="origami"):
    """Measure T at the radii r_n = 2(K+1)/q_n and check T <= 4 K q_n."""
    spec = parse_slope_spec(slope_spec) if isinstance(slope_spec, str) else slope_spec
    if spec.kind != "cf":
        raise OutOfRange("need a continued-fraction slope spec")
    rows = []
    for n in sorted(n_values):
        q_n = spec.cf.q(n)
        r_n = upper_radius(spec.cf, n, K)
        bound = 4 * K * q_n
        rec, _, _ = _measure_with_retry(origami, spec, start, r_n ** 2,
                                        time_cap=2 * bound,
                                        mem_budget=mem_budget,
                                        origami_name=origami_name)
        ok = (not rec.capped) and rec.T2 <= Fraction(bound) ** 2
        ratio = None if rec.capped else rec.T / bound
        rows.append(SpecialTimesRow(n=n, q_n=q_n, r=float(r_n), record=rec,
                                    bound=bound, ratio=ratio, ok=ok))
    return SpecialTimesResult(K=K, rows=rows, all_ok=all(r.ok for r in rows))


# -- the synthesized-slope lower bound and its audits -----------------------------------

@dataclass
class TubeAudit:
    performed: bool
    clearance: object = None       # exact orbit distance to the core line
    clearance_ok: bool = False
    cylinder: object = None
    core_x: object = None
    tube_cells: int = 0
    stamped_tube_cells: int = 0
    ok: bool = False
    note: str = ""


@dataclass
class LowerBoundRow:
    k: int
    q2k: int
    p2k: int
    quotient_ok: bool          # a_{2k+1} >= ceil(q_2k^(w-1))
    record: HittingRecord
    threshold2_num: int        # ceil(q^(2w)); threshold^2 = this / 8
    lower_ok: bool             # T >= q^w / sqrt(8)
    kappa2: object
    kappa_ok: bool             # kappa^2 > q^2/2
    trapping_ok: object        # None when the precondition fails at this level
    tube: TubeAudit = None


@dataclass
class LowerBoundResult:
    w: Fraction
    rows: list
    all_ok: bool


def _renormalized_clearance(decomp, chart_inv_start, beta, span):
    """Trace the renormalized orbit and find a vertical core line, among the
    multiples of W/64 in each cylinder of width W, at exact distance > 1/4
    from its transversal sweep; returns (cyl, x*, clearance) or None."""
    M, _, _, crossings = _flow(decomp.y_view, beta, chart_inv_start, True,
                               span)
    position = decomp.vertical.position
    sweeps = {}                # in units of 1/M, then as Fractions
    for j, X0, _, X1, *_ in crossings:
        ci, off = position[j]
        lo, hi = min(X0, X1) + off * M, max(X0, X1) + off * M
        if ci in sweeps:
            sweeps[ci] = (min(sweeps[ci][0], lo), max(sweeps[ci][1], hi))
        else:
            sweeps[ci] = (lo, hi)
    sweeps = {ci: (Fraction(lo, M), Fraction(hi, M))
              for ci, (lo, hi) in sweeps.items()}
    best = None
    quarter = Fraction(1, 4)
    for cyl in decomp.vertical.cylinders:
        W = cyl.width
        lo_hi = sweeps.get(cyl.index)
        for i in range(1, 64):
            x = Fraction(i * W, 64)
            if not quarter <= x <= W - quarter:
                continue
            if lo_hi is None:
                clearance = Fraction(W)      # cylinder never visited
            else:
                lo, hi = lo_hi
                if lo <= x <= hi:
                    continue
                clearance = min(abs(x - lo), abs(x - hi))
            if best is None or clearance > best[2]:
                best = (cyl.index, x, clearance)
    return best


def _core_chords(decomp, cyl_index, core_x, p, q):
    """The chords of the core closed geodesic of slope p/q (the image of the
    vertical line at core_x) as (chords, M): per square, the set of chord
    offsets kappa = q*x - p*y in units of 1/M."""
    cyl = decomp.vertical.cylinders[cyl_index]
    strip_idx = int(core_x)        # offset of the strip containing the line
    anchor = SurfacePoint(cyl.strips[strip_idx][0], core_x - strip_idx,
                          Fraction(1, 2))
    z0 = decomp.chart.map_point(anchor)
    M, _, _, crossings = _flow(decomp.origami, Fraction(p, q), z0, True,
                               cyl.length * q)
    chords = {}
    for j, X0, Y0, X1, Y1, *_ in crossings:
        chords.setdefault(j, set()).add(q * X0 - p * Y0)
    if canonical_point(decomp.origami, j, Fraction(X1, M),
                       Fraction(Y1, M)) != z0:
        raise PreconditionViolated("core geodesic must close")
    return chords, M


def _tube_cells(chords, M, grid_bits, p, q):
    """Cells lying entirely inside the 1/4-slabs around the chords (offsets
    in units of 1/M, per square, for slope p/q > 0), and how many of them
    are stamped in the given packed bits."""
    m = grid_bits.shape[1]
    if 4 * M * m * (q + 2 * p + 1) >= 2 ** 62:
        raise GridError("tube count would overflow int64")
    total = 0
    stamped = 0
    Q = 4 * M * q
    # rows unpacked at a time: about 2**15 cells keep the audit's memory small
    block = max(1, 2 ** 15 // m)
    for j, kappas in chords.items():
        K = np.fromiter(kappas, dtype=np.int64)[:, None]
        for r0 in range(0, m, block):
            rows = np.arange(r0, min(r0 + block, m), dtype=np.int64)
            # stamped cells of each row before each column (at most m)
            prefix = np.zeros((len(rows), m + 1),
                              dtype=np.min_scalar_type(m))
            prefix[:, 1:] = CellGrid.square_cells(
                grid_bits, j, slice(r0, r0 + block))
            np.cumsum(prefix, axis=1, out=prefix)
            # cell (r, c) lies inside the open slab kappa-1/4 < f < kappa+1/4
            # iff q*c/m - p*(r+1)/m > kappa - 1/4 and
            #     q*(c+1)/m - p*r/m < kappa + 1/4, that is, times 4*M*m,
            # Q*c > t_lo and Q*(c+1) < t_hi: lo <= c < hi, per chord and row
            t_lo = (4 * K - M) * m + 4 * M * p * (rows + 1)
            t_hi = (4 * K + M) * m + 4 * M * p * rows
            lo = np.clip(t_lo // Q + 1, 0, m)
            hi = np.clip(-(-t_hi // Q) - 1, lo, m)
            total += int((hi - lo).sum())
            stamped += int((prefix[rows - r0, hi]
                            - prefix[rows - r0, lo]).sum())
    return total, stamped


def lower_bound_experiment(origami, w, k_values, start,
                           mem_budget=DEFAULT_MEM_BUDGET,
                           origami_name="origami"):
    """For a slope synthesized with type w > 1, measure T at the special
    radii r_k = 1/(q_2k sqrt(32)) and check T >= q_2k^w / sqrt(8), plus the
    stretch-factor, trapping-window and avoided-tube audits."""
    w = Fraction(w)
    if w <= 1:
        raise ExponentTooSmall("the construction needs w > 1")
    spec = SlopeSpec(text=f"type:w={w}", kind="cf", cf=slope_with_type(w))
    cf = spec.cf
    rows = []
    for k in sorted(k_values):
        n2k = 2 * k
        cf.ensure(n2k + 2)
        q2k, p2k = cf.q(n2k), cf.p(n2k)
        quotient_ok = cf.quotient(n2k + 1) >= ceil_power(q2k, w - 1)
        r2 = lower_radius2(cf, k)
        thr2_num = ceil_power(q2k, 2 * w)       # threshold^2 <= thr2_num/8
        window2 = Fraction(thr2_num, 8)
        # density needs at least ~area/(2r) time; keep the cap well above both
        time_cap = 48 * (ceil_power(q2k, w) + 6 * 6 * q2k + 1)
        rec, _, snapshot = _measure_with_retry(
            origami, spec, start, r2, time_cap=time_cap,
            mem_budget=mem_budget, window2=window2,
            origami_name=origami_name)
        if rec.capped:
            lower_ok = True        # not dense by the cap >= threshold
        else:
            lower_ok = not rational_lt_power(8 * rec.T2, q2k, 2 * w)

        mat = g_matrix(cf.quotients(n2k))      # the identity at k = 0
        alpha_n = Fraction(rec.pN, rec.qN)
        beta = projective_slope(mat.inv(), alpha_n)
        kappa2 = stretch_factor_squared(mat, beta)
        kappa_ok = kappa2 > Fraction(q2k * q2k, 2)

        trapping_ok = None
        tube = TubeAudit(performed=False, note="k = 0 is the vertical base")
        if k >= 1:
            decomp = InducedDecomposition(origami, mat, base="vertical")
            vd = decomp.vertical
            if all(beta * c.length < 1 for c in vd.cylinders):
                trapping_ok = True
                # four boundary starts at heights (2t+1)/9, off every corner
                for t in range(4):
                    cylt = vd.cylinders[t % len(vd.cylinders)]
                    sq = cylt.strips[0][t % len(cylt.strips[0])]
                    ptb = SurfacePoint(sq, Fraction(0), Fraction(2 * t + 1, 9))
                    tr = trapping_window(vd, beta, ptb)
                    trapping_ok = trapping_ok and tr.stayed_through_window
            # the orbit up to the window span the snapshot was stamped to,
            # pulled back to Y
            y_start, _, span_y, _ = decomp.pull_back(
                SurfacePoint(rec.square, rec.x, rec.y), alpha_n,
                _span_for_time2(window2, rec.pN, rec.qN))
            best = _renormalized_clearance(decomp, y_start, beta, span_y)
            if best is None:
                tube = TubeAudit(performed=True, ok=False,
                                 note="no core line with positive clearance")
            else:
                ci, core_x, clearance = best
                chords, M = _core_chords(decomp, ci, core_x, p2k, q2k)
                total, stamped = _tube_cells(chords, M, snapshot, p2k, q2k)
                tube = TubeAudit(performed=True, clearance=clearance,
                                 clearance_ok=clearance > Fraction(1, 4),
                                 cylinder=ci, core_x=core_x, tube_cells=total,
                                 stamped_tube_cells=stamped,
                                 ok=clearance > Fraction(1, 4) and stamped == 0
                                 and total > 0)
        rows.append(LowerBoundRow(k=k, q2k=q2k, p2k=p2k,
                                  quotient_ok=quotient_ok, record=rec,
                                  threshold2_num=thr2_num, lower_ok=lower_ok,
                                  kappa2=kappa2, kappa_ok=kappa_ok,
                                  trapping_ok=trapping_ok, tube=tube))
    all_ok = all(r.quotient_ok and r.lower_ok and r.kappa_ok
                 and (r.trapping_ok is not False)
                 and (not r.tube.performed or r.tube.ok) for r in rows)
    return LowerBoundResult(w=w, rows=rows, all_ok=all_ok)


# -- exponent fit -----------------------------------------------------------------------

@dataclass
class ExponentFit:
    h_hat: float
    envelope: list             # (x, y) points on the upper hull
    per_point: list            # (r, T, exponent or None)
    n_records: int


def exponent_estimate(records, min_records=5, min_decades=1.5):
    """Least-squares slope through the upper convex hull of
    (-log r, log T); per-point exponents log T / -log r reported alongside."""
    usable = [rec for rec in records if not rec.capped and rec.T is not None]
    if len(usable) < min_records:
        raise InsufficientSpan(f"need >= {min_records} records, have {len(usable)}")
    rs = [rec.r for rec in usable]
    if math.log10(max(rs) / min(rs)) < min_decades:
        raise InsufficientSpan("records span fewer than "
                               f"{min_decades} decades of r")
    pts = sorted({(-math.log(rec.r), math.log(rec.T)) for rec in usable})
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) >= (pt[0] - x1) * (y2 - y1):
                hull.pop()
            else:
                break
        hull.append(pt)
    xs = [p[0] for p in hull]
    ys = [p[1] for p in hull]
    n = len(hull)
    if n == 1:
        raise InsufficientSpan("degenerate envelope")
    xbar = sum(xs) / n
    ybar = sum(ys) / n
    denom = sum((x - xbar) ** 2 for x in xs)
    slope = sum((x - xbar) * (y - ybar) for x, y in hull) / denom
    per_point = [(rec.r, rec.T, rec.per_point_exponent()) for rec in usable]
    return ExponentFit(h_hat=slope, envelope=hull, per_point=per_point,
                       n_records=len(usable))


# -- record CSV -------------------------------------------------------------------------

RECORD_FIELDS = ("slope_spec", "pN", "qN", "square", "x", "y", "r", "cells",
                 "T", "capped", "crossings", "seed")


def record_row(rec):
    return (rec.spec_text, str(rec.pN), str(rec.qN), str(rec.square),
            str(rec.x), str(rec.y), repr(rec.r), str(rec.cells_per_side),
            "" if rec.T is None else repr(rec.T),
            "1" if rec.capped else "0", str(rec.crossings),
            "" if rec.seed is None else str(rec.seed))


def write_records(path, records):
    with open(path, "w") as fh:
        fh.write(",".join(RECORD_FIELDS) + "\n")
        for rec in records:
            fh.write(",".join(record_row(rec)) + "\n")


def read_records(path):
    out = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header != list(RECORD_FIELDS):
            raise FormatError(f"{path}: bad records header {header}")
        for line in fh:
            fields = line.rstrip("\n").split(",")
            if len(fields) != len(RECORD_FIELDS):
                raise FormatError(f"{path}: bad records row {line!r}")
            vals = dict(zip(RECORD_FIELDS, fields))
            r = float(vals["r"])
            out.append(HittingRecord(
                spec_text=vals["slope_spec"], origami_name="",
                pN=int(vals["pN"]), qN=int(vals["qN"]),
                square=int(vals["square"]), x=Fraction(vals["x"]),
                y=Fraction(vals["y"]), r2=Fraction(r) ** 2, r=r,
                cells_per_side=int(vals["cells"]),
                T_span=None, T2=None,
                T=None if vals["T"] == "" else float(vals["T"]),
                capped=vals["capped"] == "1",
                crossings=int(vals["crossings"]),
                seed=None if vals["seed"] == "" else int(vals["seed"])))
    return out

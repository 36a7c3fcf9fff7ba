"""Hitting-time measurements: r-dense times, the special-radius upper bound,
the synthesized-slope lower bound with its audits, and exponent fits.

Density is certified on square cells of side 1/m <= r/sqrt(2), one bit per
cell (a cell never straddles a square, which only tightens the requirement).
A piece of slope p/q meets row boundary k of a square in a column of the
mechanical (Sturmian) sequence floor((c + p*k)/q) shifted by an integer a, and
floor((c + p*k)/q) = floor(p*k/q) + [p*k mod q >= q - c] for 0 <= c < q and
either sign of p; so the grid tabulates floor(p*k/q) and p*k mod q once per
slope, with each row's byte offset, and a piece costs one divmod for a and c.
Irrational slopes enter as exact convergents under the shadowing guard
|alpha - p_N/q_N| * T_cap < r/10. Times are tracked as exact rational rises
(|dy|); Euclidean times are compared through their exact squares.
"""

import copy
import csv
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cfrac import ceil_power, g_matrix, rational_lt_power
from .cylinders import InducedDecomposition, trapping_window
from .errors import (CapTooSmall, ExponentTooSmall, FormatError, GridError,
                     InsufficientSpan, OutOfRange, PreconditionViolated,
                     StartOnSingularLeaf)
from .flow import (_exact_div, _flow, _grid_denominator, ceil_sqrt_fraction,
                   length2, span_for_length2, span_units_within_length2)
from .origami import DEFAULT_MEM_BUDGET, SurfacePoint, canonical_point
from .sl2 import projective_slope, stretch_factor_squared


# -- cell grid -------------------------------------------------------------------

# the bit of column c in its byte, looked up by c & 7 (little bit order)
_BITS = np.array([1, 2, 4, 8, 16, 32, 64, 128], dtype=np.uint8)


class CellGrid:
    """One bit per cell, cells per square in an m x m grid: the cells the
    flow has touched, and when the last of them was first touched.

    Stamping reads row tables made once per grid: the byte offset of each
    row in the flat view and, for the slope p/q last stamped, B[k] =
    floor(p*k/q) and R[k] = p*k mod q for the row boundaries k = 0..m. A
    piece whose start gives X0*q*m - p*Y0*m = q*M*a + b meets row boundary
    k in column a + floor((c + p*k)/q), c = floor(b/M), or in column m - 1
    at x = 1; and floor((c + p*k)/q) = B[k] + [R[k] >= q - c] for
    0 <= c < q."""

    def __init__(self, n_squares, m, mem_budget=DEFAULT_MEM_BUDGET):
        cells = n_squares * m * m
        if cells > mem_budget * 8:
            raise CapTooSmall(
                f"cell store needs {cells} bits > budget {mem_budget * 8}")
        self.m = m
        self.row_bytes = (m + 7) // 8
        self.bits = np.zeros((n_squares, m, self.row_bytes), dtype=np.uint8)
        # the same bytes: cell (j, row, c) is in byte
        # row_offset[j*m + row] + c // 8
        self.flat = self.bits.reshape(-1)
        self.row_offset = np.arange(n_squares * m,
                                    dtype=np.int64) * self.row_bytes
        self.remaining = cells
        self.slope = None

    def snapshot(self):
        """A copy, stamped apart from the grid."""
        snap = copy.copy(self)
        snap.bits = self.bits.copy()
        snap.flat = snap.bits.reshape(-1)
        return snap

    def square_cells(self, j, rows):
        """The cells of square j in the given slice of rows, as a bool
        array indexed [row, column]."""
        return np.unpackbits(self.bits[j, rows], axis=1, count=self.m,
                             bitorder="little").view(bool)

    def stamp_piece(self, j, X0, Y0, X1, Y1, M, p, q, want_new=False):
        """Stamp the cells the closed piece touches, but at a cell corner:
        where the piece passes through a corner that four cells share, it
        stamps in each row the column right of the corner, for either sign
        of p, so 3 of those 4 cells. Requires |p| <= q (at most two cell
        columns per cell row). Returns the number of new cells and, with
        want_new, their (row, column)s."""
        m = self.m
        if self.slope != (p, q):
            self.slope = (p, q)
            self.B, self.R = np.divmod(
                np.arange(m + 1, dtype=np.int64) * p, q)
        r0 = Y0 * m // M
        r1 = min(Y1 * m // M, m - 1)
        a, b = divmod((X0 * q - p * Y0) * m, q * M)
        # the piece enters row r0 + i in column cols[i] and leaves it in
        # cols[i + 1]
        cols = np.empty(r1 - r0 + 2, dtype=np.int64)
        cols[0] = min(X0 * m // M, m - 1)
        cols[-1] = min(X1 * m // M, m - 1)
        inner = cols[1:-1]
        np.add(self.B[r0 + 1:r1 + 1], a, out=inner)
        inner += self.R[r0 + 1:r1 + 1] >= q - b // M
        # x is in [0, 1] on a row boundary; only x = 1 gives column m
        np.minimum(inner, m - 1, out=inner)
        base = self.row_offset[j * m + r0:j * m + r1 + 1]
        byte = cols >> 3
        masks = _BITS.take(cols & 7)
        flat = self.flat
        total_new = 0
        new_cells = []
        # the rows of one column set are distinct, so no byte is put twice
        for part in (slice(0, -1), slice(1, None)):
            idx = base + byte[part]
            mask = masks[part]
            vals = flat.take(idx)
            flat.put(idx, vals | mask)
            new = (vals & mask) == 0
            n_new = int(np.count_nonzero(new))
            total_new += n_new
            if want_new and n_new:
                new_cells.extend(zip((np.flatnonzero(new) + r0).tolist(),
                                     cols[part][new].tolist()))
        self.remaining -= total_new
        return total_new, new_cells

    def cover(self, j, X0, Y0, X1, Y1, M, p, q):
        """Stamp the piece, as `stamp_piece`. Once every cell is stamped,
        return the exact |dy| offset from the piece's start at which it first
        touched the last new cell; until then, None."""
        m = self.m
        # new cells are listed only when the piece can fill the grid: it
        # touches at most 2m cells
        _, new_cells = self.stamp_piece(j, X0, Y0, X1, Y1, M, p, q,
                                        want_new=self.remaining <= 2 * (m + 2))
        if self.remaining:
            return None
        # a cell is entered at the piece's start, at its row's bottom or at
        # the column side the piece crosses; offsets are over m*M*|p|
        a = max(1, abs(p))
        last = 0
        for r, c in new_cells:
            last = max(last, (r * M - Y0 * m) * a)
            if p > 0:
                last = max(last, (c * M - X0 * m) * q)
            elif p < 0:
                last = max(last, (X0 * m - (c + 1) * M) * q)
        return Fraction(last, m * M * a)


# -- slope realization ---------------------------------------------------------------

@dataclass
class RealizedSlope:
    value: Fraction            # exact slope used by the tracer
    pN: int
    qN: int
    depth: object              # convergent depth, None for exact rationals
    error_bound: Fraction      # bound on |alpha - value|, 0 if exact; a
                               # finite expansion can attain it


def realize_slope(spec, r2, time_cap2):
    """Convergent of the `SlopeSpec` deep enough for the shadowing guard
    |alpha - p_N/q_N|^2 * T_cap^2 < r^2/100, all exact."""
    if spec.kind == "rational":
        v = spec.value
        return RealizedSlope(value=v, pN=v.numerator, qN=v.denominator,
                             depth=None, error_bound=Fraction(0))
    if spec.kind != "cf":
        raise OutOfRange(f"cannot realize slope spec {spec.text!r}")
    cf = spec.cf
    n = 1
    while True:
        if cf.finite and n >= cf.depth_available:
            v = cf.value_exact()
            return RealizedSlope(value=v, pN=v.numerator, qN=v.denominator,
                                 depth=cf.depth_available,
                                 error_bound=Fraction(0))
        bound = cf.error_bound(n)
        if bound * bound * time_cap2 < r2 / 100:
            v = cf.convergent(n)
            return RealizedSlope(value=v, pN=v.numerator, qN=v.denominator,
                                 depth=n, error_bound=bound)
        n += 1


# -- r-dense time ----------------------------------------------------------------------

@dataclass
class HittingRecord:
    spec_text: str
    pN: int
    qN: int
    square: int
    x: Fraction
    y: Fraction
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


def _start_candidates(origami, start):
    """The requested start plus 15 deterministic perturbations with a
    coprime denominator, tried in turn while the start's leaf is singular."""
    yield start
    for t in range(1, 16):
        x = (start.x + Fraction(16 * t, 257)) % 1
        y = (start.y + Fraction(48 * t, 257)) % 1
        if x == 0 or y == 0:
            continue
        yield SurfacePoint((start.square + t) % origami.n, x, y)


def _on_singular_leaf(origami, p, q, start):
    """Whether the leaf of slope p/q (gcd 1) through start, or the start
    itself, meets a cone vertex.

    The origami covers the torus, branched over its one lattice point. The
    torus leaf through (x, y) in the direction (p, q) closes after span q
    and meets the lattice point, once per period, iff kappa = q*x - p*y is
    an integer. Then a leaf with no cone forward within span n*q meets n
    vertices there, all regular; there are at most n - 1 of those, so it is
    closed (Veech 1989). A leaf that meets a cone meets one both ways.
    """
    if (q * start.x - p * start.y).denominator != 1:
        return False
    try:
        _, _, _, crossings = _flow(origami, Fraction(p, q), start, True,
                                   origami.n * q)
    except StartOnSingularLeaf:
        return True
    return any(j_next is None for *_, j_next in crossings)


def r_dense_time(origami, spec, start, r2, *, time_cap,
                 mem_budget=DEFAULT_MEM_BUDGET, window2=None):
    """First-visit density measurement: trace the flow, stamping cells, until
    every cell is visited at a time > r (T = the last first-visit) or the
    time cap is reached (record flagged capped).

    It measures from the first of `_start_candidates` whose leaf meets no
    cone vertex (`_on_singular_leaf`), or raises StartOnSingularLeaf. That
    leaf is closed, of period at most n*q, so the trace ends at the block
    holding the unstamped prefix plus n*q, or at the cap's block if first.

    Returns (record, snapshot). With window2, an exact squared time, the
    snapshot is a `CellGrid` of the cells stamped up to the window span
    _span_for_time2(window2), the part of the flow the tube audit's
    clearance covers: the grid before the piece that crosses the window,
    plus that piece up to the window (the whole grid when the trace ends
    first). Without window2 it is None.
    """
    r2 = Fraction(r2)
    if r2 <= 0:
        raise OutOfRange("need r > 0")
    time_cap2 = Fraction(time_cap) ** 2
    if time_cap2 <= r2:
        raise CapTooSmall("time cap below the radius threshold")
    real = realize_slope(spec, r2, time_cap2)
    alpha = real.value
    p, q = alpha.numerator, alpha.denominator
    if abs(p) > q:
        raise OutOfRange("density kernel needs |slope| <= 1")

    m = max(1, ceil_sqrt_fraction(2 / r2))
    grid = CellGrid(origami.n, m, mem_budget)
    span_cap = _span_for_time2(time_cap2, p, q)
    window = None if window2 is None else _span_for_time2(window2, p, q)
    mark = window or Fraction(0)
    for cand in _start_candidates(origami, start):
        # refused before its leaf is traced, on the M `_flow` would give it
        d = math.lcm(cand.x.denominator, cand.y.denominator, mark.denominator)
        if q * _grid_denominator(p, q, d) * m >= 2 ** 61:
            raise GridError("stamping would overflow int64")
        if not _on_singular_leaf(origami, p, q, cand):
            start = cand
            break
    else:
        raise StartOnSingularLeaf("every start candidate meets a cone vertex")
    # every crossing, the window point and the cap lie on the (1/M)-grid
    M, limit, _, flow = _flow(
        origami, alpha, start, True,
        -(-span_cap // CROSSING_BLOCK) * CROSSING_BLOCK, mark=mark)

    # pieces starting at a time <= r, a span <= skip/M, are not stamped
    skip = span_units_within_length2(p, q, r2, M)
    # the leaf closes within span n*q: no cell is new one period past skip
    block = CROSSING_BLOCK * M
    limit = min(limit, -(-(skip + origami.n * q * M) // block) * block)
    snap_at = None if window is None else int(window * M)

    T_span = snapshot = None
    crossings = 0
    for j, X0, Y0, X1, Y1, s, kind, j_next in flow:
        if T_span is None:
            s0 = s - (Y1 - Y0)
            stamping = s0 > skip
            if snap_at is not None and s > snap_at:
                # the grid before this piece, plus the piece up to the window
                snapshot = grid.snapshot()
                if stamping and s0 < snap_at:
                    rem = snap_at - s0
                    snapshot.stamp_piece(j, X0, Y0,
                                         X0 + _exact_div(p * rem, q),
                                         Y0 + rem, M, p, q)
                snap_at = None
            if stamping:
                last = grid.cover(j, X0, Y0, X1, Y1, M, p, q)
                if last is not None:
                    T_span = Fraction(s0, M) + last
                    limit = -(-T_span // CROSSING_BLOCK) * block
        if s > limit:
            break
        if kind is not None:
            crossings += 1
    if snapshot is None and window is not None:
        snapshot = grid.snapshot()

    T2 = None if T_span is None else length2(T_span, p, q)
    record = HittingRecord(
        spec_text=spec.text,
        pN=real.pN, qN=real.qN, square=start.square, x=start.x, y=start.y,
        r=float(r2) ** 0.5, cells_per_side=m, T_span=T_span, T2=T2,
        T=None if T2 is None else float(T2) ** 0.5, capped=T2 is None,
        crossings=crossings)
    return record, snapshot


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
    rows: list
    all_ok: bool


def special_times_check(origami, spec, start, n_values, K=17,
                        mem_budget=DEFAULT_MEM_BUDGET):
    """Measure T at the radii r_n = 2(K+1)/q_n and check T <= 4 K q_n."""
    if spec.kind != "cf":
        raise OutOfRange("need a continued-fraction slope spec")
    rows = []
    for n in sorted(n_values):
        q_n = spec.cf.q(n)
        r_n = upper_radius(spec.cf, n, K)
        bound = 4 * K * q_n
        rec, _ = r_dense_time(origami, spec, start, r_n ** 2,
                              time_cap=2 * bound, mem_budget=mem_budget)
        ok = (not rec.capped) and rec.T2 <= Fraction(bound) ** 2
        ratio = None if rec.capped else rec.T / bound
        rows.append(SpecialTimesRow(n=n, q_n=q_n, r=float(r_n), record=rec,
                                    bound=bound, ratio=ratio, ok=ok))
    return SpecialTimesResult(rows=rows, all_ok=all(r.ok for r in rows))


# -- the synthesized-slope lower bound and its audits -----------------------------------

@dataclass
class TubeAudit:
    performed: bool
    clearance: object = None       # exact orbit distance to the core line
    cylinder: object = None
    core_x: object = None
    tube_cells: int = 0
    stamped_tube_cells: int = 0
    ok: bool = False


@dataclass
class LowerBoundRow:
    k: int
    q2k: int
    p2k: int
    quotient_ok: bool          # a_{2k+1} >= ceil(q_2k^(w-1))
    record: HittingRecord
    threshold2_num: int        # ceil(q^(2w)); threshold^2 = this / 8
    lower_ok: bool             # T >= q^w / sqrt(8)
    kappa_ok: bool             # kappa^2 > q^2/2
    trapping_ok: object        # None when the precondition fails at this level
    tube: TubeAudit = None


@dataclass
class LowerBoundResult:
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


def _tube_cells(chords, M, snapshot, p, q):
    """Cells lying entirely inside the 1/4-slabs around the chords (offsets
    in units of 1/M, per square, for slope p/q > 0), and how many of them
    are stamped in the snapshot, a `CellGrid`."""
    m = snapshot.m
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
            prefix[:, 1:] = snapshot.square_cells(j, slice(r0, r0 + block))
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


def lower_bound_experiment(origami, spec, k_values, start,
                           mem_budget=DEFAULT_MEM_BUDGET):
    """For the slope type:w=W, of type w = W > 1, measure T at the radii
    r_k = 1/(q_2k sqrt(32)) and check T >= q_2k^w / sqrt(8), plus the
    stretch-factor, trapping-window and avoided-tube audits."""
    if spec.kind != "cf" or spec.value is None:
        raise OutOfRange(f"the lower bound needs a type:w=W slope, not "
                         f"{spec.text!r}")
    w, cf = spec.value, spec.cf
    if w <= 1:
        raise ExponentTooSmall("the construction needs w > 1")
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
        rec, snapshot = r_dense_time(
            origami, spec, start, r2, time_cap=time_cap,
            mem_budget=mem_budget, window2=window2)
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
        tube = TubeAudit(performed=False)      # k = 0 is the vertical base
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
                # no core line with positive clearance
                tube = TubeAudit(performed=True, ok=False)
            else:
                ci, core_x, clearance = best
                chords, M = _core_chords(decomp, ci, core_x, p2k, q2k)
                total, stamped = _tube_cells(chords, M, snapshot, p2k, q2k)
                tube = TubeAudit(performed=True, clearance=clearance,
                                 cylinder=ci, core_x=core_x, tube_cells=total,
                                 stamped_tube_cells=stamped,
                                 ok=clearance > Fraction(1, 4) and stamped == 0
                                 and total > 0)
        rows.append(LowerBoundRow(k=k, q2k=q2k, p2k=p2k,
                                  quotient_ok=quotient_ok, record=rec,
                                  threshold2_num=thr2_num, lower_ok=lower_ok,
                                  kappa_ok=kappa_ok,
                                  trapping_ok=trapping_ok, tube=tube))
    all_ok = all(r.quotient_ok and r.lower_ok and r.kappa_ok
                 and (r.trapping_ok is not False)
                 and (not r.tube.performed or r.tube.ok) for r in rows)
    return LowerBoundResult(rows=rows, all_ok=all_ok)


# -- exponent fit -----------------------------------------------------------------------

@dataclass
class ExponentFit:
    h_hat: float
    envelope: list             # (x, y) points on the upper hull
    per_point: list            # (r, T, exponent or None)
    n_records: int


def exponent_estimate(records):
    """Least-squares slope through the upper convex hull of
    (-log r, log T); per-point exponents log T / -log r reported alongside.
    The fit needs 5 uncapped records spanning 1.5 decades of r."""
    usable = [rec for rec in records if not rec.capped and rec.T is not None]
    if len(usable) < 5:
        raise InsufficientSpan(f"need >= 5 records, have {len(usable)}")
    rs = [rec.r for rec in usable]
    if math.log10(max(rs) / min(rs)) < 1.5:
        raise InsufficientSpan("records span fewer than 1.5 decades of r")
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
    # the span gives distinct first and last x, and the hull keeps both
    n = len(hull)
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
    # a field with a comma, such as a quotients: slope_spec, is quoted
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RECORD_FIELDS)
        writer.writerows(map(record_row, records))


def read_records(path):
    out = []
    with open(path, newline="") as fh:
        try:
            header, *rows = list(csv.reader(fh)) or [[]]
        except csv.Error as exc:
            raise FormatError(f"{path}: {exc}") from None
        if header != list(RECORD_FIELDS):
            raise FormatError(f"{path}: bad records header {header}")
        for fields in rows:
            if len(fields) != len(RECORD_FIELDS):
                raise FormatError(f"{path}: bad records row {fields}")
            vals = dict(zip(RECORD_FIELDS, fields))
            out.append(HittingRecord(
                spec_text=vals["slope_spec"], pN=int(vals["pN"]),
                qN=int(vals["qN"]), square=int(vals["square"]),
                x=Fraction(vals["x"]), y=Fraction(vals["y"]),
                r=float(vals["r"]), cells_per_side=int(vals["cells"]),
                T_span=None, T2=None,
                T=None if vals["T"] == "" else float(vals["T"]),
                capped=vals["capped"] == "1",
                crossings=int(vals["crossings"]),
                seed=None if vals["seed"] == "" else int(vals["seed"])))
    return out

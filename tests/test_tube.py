"""The avoided-tube count on the kernel's integers, against a row-by-row
count over Fraction chord offsets, and the audits it pins."""

from fractions import Fraction as F
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from origamilab.cfrac import g_matrix, slope_with_type
from origamilab.cylinders import InducedDecomposition
from origamilab.hitting import (CellGrid, _core_chords, _tube_cells,
                                lower_bound_experiment)
from origamilab.origami import SurfacePoint, builtin_ornithorynque

XO = builtin_ornithorynque()


def reference_tube_cells(per_square, grid_bits, m, p, q):
    """Cells inside the 1/4-slabs around the chords with Fraction offsets
    kappa = q*x - p*y, and how many are stamped, walked row by row."""
    total = 0
    stamped = 0
    rows = np.arange(m, dtype=np.int64)
    for j, kappas in per_square.items():
        for kappa in kappas:
            D = 4 * kappa.denominator
            ks = int(kappa * D)             # kappa in units of 1/D
            quarter = D // 4
            Q = D * q
            t_lo = (ks - quarter) * m + D * p * (rows + 1)
            t_hi = (ks + quarter) * m + D * p * rows
            c_min = t_lo // Q + 1
            c_max = -((-t_hi) // Q) - 1 - 1
            c_min = np.maximum(c_min, 0)
            c_max = np.minimum(c_max, m - 1)
            for r in np.nonzero(c_min <= c_max)[0].tolist():
                lo, hi = int(c_min[r]), int(c_max[r])
                cols = np.arange(lo, hi + 1, dtype=np.int64)
                bytecols = cols >> 3
                bitmask = (1 << (cols & 7)).astype(np.uint8)
                vals = grid_bits[j, r, bytecols]
                total += len(cols)
                stamped += int(((vals & bitmask) != 0).sum())
    return total, stamped


@pytest.fixture(scope="module")
def audits():
    return lower_bound_experiment(XO, 2, [1, 2, 3],
                                  SurfacePoint(0, F(3, 16), F(5, 16))).rows


@pytest.fixture(scope="module")
def geodesics(audits):
    """(chords, M, p, q) of core closed geodesics at each audited level: the
    audit's own core line and two others."""
    cf = slope_with_type(F(2))
    out = []
    for row in audits:
        decomp = InducedDecomposition(XO, g_matrix(cf.quotients(2 * row.k)),
                                      base="vertical")
        for ci, x in ((row.tube.cylinder, row.tube.core_x), (0, F(1, 2)),
                      (1, F(3, 4))):
            chords, M = _core_chords(decomp, ci, x, row.p2k, row.q2k)
            out.append((chords, M, row.p2k, row.q2k))
    return out


def _snapshot(rng, m, density):
    snapshot = CellGrid(XO.n, m)
    bits = rng.random((XO.n, m, 8 * snapshot.row_bytes)) < density
    snapshot.bits = np.packbits(bits, axis=2, bitorder="little")
    return snapshot


def _as_fractions(chords, M):
    return {j: {F(K, M) for K in ks} for j, ks in chords.items()}


def test_audits_pinned(audits):
    assert [(row.tube.tube_cells, row.tube.stamped_tube_cells)
            for row in audits] == [(384, 0), (5376, 0), (430416, 0)]
    assert all(row.tube.ok for row in audits)


@pytest.mark.parametrize("m", [56, 600])
def test_tube_count_on_stamped_snapshot(geodesics, m):
    # the audited core line of level k=2 (q=7) with half the cells stamped,
    # at its own m = 8q and at an m whose squares are unpacked in blocks
    chords, M, p, q = geodesics[3]
    snapshot = _snapshot(np.random.default_rng(m), m, 0.5)
    total, stamped = _tube_cells(chords, M, snapshot, p, q)
    assert (total, stamped) == reference_tube_cells(
        _as_fractions(chords, M), snapshot.bits, m, p, q)
    assert 0 < stamped < total
    assert m != 8 * q or total == 5376


@st.composite
def slopes(draw):
    q = draw(st.integers(2, 40))
    p = draw(st.integers(1, q - 1).filter(lambda p: gcd(p, q) == 1))
    return p, q


@settings(max_examples=150, deadline=None)
@given(which=st.integers(0, 8), own_slope=st.booleans(), slope=slopes(),
       m=st.integers(1, 128), density=st.sampled_from([0.05, 0.5, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_tube_count_matches_row_loop(geodesics, which, own_slope, slope, m,
                                     density, seed):
    chords, M, p, q = geodesics[which]
    if not own_slope:
        p, q = slope
    snapshot = _snapshot(np.random.default_rng(seed), m, density)
    total, stamped = _tube_cells(chords, M, snapshot, p, q)
    assert (total, stamped) == reference_tube_cells(
        _as_fractions(chords, M), snapshot.bits, m, p, q)
    if density == 1.0:
        assert stamped == total

"""Single-edit mutants of the exact fast paths and the invariant guards, and
the tests that kill them.

Run from the root of a checkout:

    python tests/mutants.py          # every mutant
    python tests/mutants.py 0 7      # mutants by index

Each mutant is applied to a fresh copy of src/ and tests/ in a temporary
directory, and only its listed tests run there, with that copy's src/ on
the path. A mutant is killed when those tests fail. An equivalent mutant
changes no result, so it must survive; every other one must be killed. The
listed tests first run once on the unmutated copy and must pass there. The
script prints one line per mutant, naming the tests that failed, and exits
1 when any mutant does otherwise.

pytest does not collect this file (it has no test_ prefix). CI runs it as
a step of its own, apart from the tier-1 suite, because each mutant needs
a test run of its own, a few seconds each. A change that adds a fast path
adds its mutants here.
"""

import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# address space of each test run: a mutant that allocates before its guard
# then fails at once, whatever the host's overcommit policy
AS_LIMIT = 4 * 2 ** 30

# old and new are exact text, one line or a block; old must occur once
Mutant = namedtuple("Mutant", "file old new tests equivalent")

HITTING = "src/origamilab/hitting.py"
TH = "tests/test_hitting.py"
_SNAPSHOT_STAMP = """\
                    snapshot.stamp_piece(j, X0, Y0,
                                         X0 + _exact_div(p * rem, q),
                                         Y0 + rem, M, p, q)
"""

_INT64_GUARD = ("        if q * _grid_denominator(p, q, d) * m >= "
                "2 ** 61:\n")

ORIGAMI = "src/origamilab/origami.py"
TO = "tests/test_origami.py"
_WALK_MOVES = "    moves = (h, v, surface.hinv.images, surface.vinv.images)\n"

CYLINDERS = "src/origamilab/cylinders.py"
TC = "tests/test_cylinders.py"
TE = "tests/test_errors.py"

FLOW = "src/origamilab/flow.py"
TK = "tests/test_kernel.py"
_KERNEL_TESTS = [f"{TK}::test_kernel_matches_per_crossing_dispatch",
                 f"{TK}::test_trace_matches_fraction_stepper"]
_CORNER_TEST = ("tests/test_flow.py::"
                "test_flow_stops_at_a_cone_of_the_corner_ahead")

MUTANTS = [
    # the cell entry without its column candidate, for either sign
    Mutant(HITTING,
           "                last = max(last, (c * M - X0 * m) * q)\n",
           "                pass\n",
           [f"{TH}::test_torus_oracle_both_slope_signs",
            f"{TH}::test_torus_oracle_rational_sweep",
            "tests/test_cli.py::"
            "test_readme_golden_exponent_outputs_are_pinned"], False),
    Mutant(HITTING,
           "                last = max(last, (X0 * m - (c + 1) * M) * q)\n",
           "                pass\n",
           [f"{TH}::test_torus_oracle_both_slope_signs",
            f"{TH}::test_torus_oracle_rational_sweep"], False),
    # records count crossings to the end of a 32-unit block
    Mutant(HITTING, "CROSSING_BLOCK = 32\n", "CROSSING_BLOCK = 16\n",
           ["tests/test_cli.py::"
            "test_readme_golden_exponent_outputs_are_pinned"], False),
    # a piece starting at time exactly r is stamped
    Mutant(HITTING, "            stamping = s0 > skip\n",
           "            stamping = s0 >= skip\n",
           [f"{TH}::test_piece_starting_at_time_r_is_not_stamped"], False),
    # a grid twice as fine puts every crossing on it too
    Mutant(FLOW,
           "    return d if q == 0 else d * q * max(1, abs(p))\n",
           "    return 2 * d if q == 0 else 2 * d * q * max(1, abs(p))\n",
           ["tests/test_kernel.py",
            f"{TH}::test_r_dense_time_matches_reference_loop",
            f"{TH}::test_torus_oracle_rational_sweep"], True),
    # a leaf with kappa in Z + 1/2 meets no vertex, so walking it finds none
    Mutant(HITTING,
           "    if (q * start.x - p * start.y).denominator != 1:\n",
           "    if (q * start.x - p * start.y).denominator not in (1, 2):\n",
           [f"{TH}::test_singular_leaf_predicate_matches_two_way_walk",
            f"{TH}::test_r_dense_time_matches_reference_loop"], True),
    # every leaf with kappa in Z read as singular, though a torus has no cone
    Mutant(HITTING,
           "    return any(j_next is None for *_, j_next in crossings)\n",
           "    return True\n",
           [f"{TH}::test_kappa_integer_start_on_torus_is_measured_"
            "unperturbed"], False),
    # the trace stopped one period early, before a leaf that passes every
    # square has closed
    Mutant(HITTING, "skip + origami.n * q * M",
           "skip + (origami.n - 1) * q * M",
           [f"{TH}::test_rational_orbit_stops_after_one_period"], False),
    # a pair's witness overwritten by each later sample with that pair
    Mutant("src/origamilab/verify.py",
           "                witnesses.setdefault((letter, nxt), samples[idx])\n",
           "                witnesses[(letter, nxt)] = samples[idx]\n",
           ["tests/test_verify.py::test_relation_matches_per_letter_loop"],
           False),
    # the memory guard after the allocation it guards
    Mutant(HITTING,
           """\
        if cells > mem_budget * 8:
            raise CapTooSmall(
                f"cell store needs {cells} bits > budget {mem_budget * 8}")
        self.m = m
        self.row_bytes = (m + 7) // 8
        self.bits = np.zeros((n_squares, m, self.row_bytes), dtype=np.uint8)
""",
           """\
        self.m = m
        self.row_bytes = (m + 7) // 8
        self.bits = np.zeros((n_squares, m, self.row_bytes), dtype=np.uint8)
        if cells > mem_budget * 8:
            raise CapTooSmall(
                f"cell store needs {cells} bits > budget {mem_budget * 8}")
""",
           ["tests/test_errors.py::test_cli_bad_flags_exit_2"
            "[radius-over-memory-budget-plain]"], False),
    # the window snapshot without the crossing piece's part up to the window
    Mutant(HITTING, _SNAPSHOT_STAMP, "                    pass\n",
           [f"{TH}::test_r_dense_time_matches_reference_loop"], False),
    # a piece that starts at the window stamped into the snapshot
    Mutant(HITTING, "                if stamping and s0 < snap_at:\n",
           "                if stamping and s0 <= snap_at:\n",
           [f"{TH}::test_r_dense_time_matches_reference_loop"], False),
    # the whole crossing piece stamped into the snapshot
    Mutant(HITTING, _SNAPSHOT_STAMP,
           "                    snapshot.stamp_piece(j, X0, Y0, X1, Y1, M, "
           "p, q)\n",
           [f"{TH}::test_r_dense_time_matches_reference_loop",
            f"{TH}::test_tube_audit_stamps_only_up_to_its_window"], False),
    # the kernel's side crossing without its remainder check
    Mutant(FLOW,
           """\
            if dS * a != rhs:
                raise _off_grid(rhs, a)
""", "",
           ["tests/test_kernel.py::test_kernel_matches_per_crossing_dispatch"],
           False),
    # the integer fold adding the wrong column for T
    Mutant("src/origamilab/sl2.py", "            b, d = b + a, d + c\n",
           "            b, d = b + a, d + a\n",
           ["tests/test_sl2.py::test_integer_evaluate_word_matches_mat2_fold"],
           False),
    # the vertex walk turning from TL as from TR and back: every surface
    # still builds, as the cone orders agree with the commutator's
    Mutant(ORIGAMI,
           "((2, BL), (3, BR), (1, TL), (0, TR))",
           "((2, BL), (3, BR), (0, TL), (1, TR))",
           ["tests/test_origami.py::test_vertex_classes_match_dict_walk"],
           False),
    # the relabeling walk along h and v only: it reaches the same squares,
    # since h and v generate a finite group, but in another order
    Mutant(ORIGAMI, _WALK_MOVES, "    moves = (h, v)\n",
           [f"{TO}::test_walk_matches_the_walks_it_replaced"], False),
    # the relabeling walk with h and v swapped
    Mutant(ORIGAMI, _WALK_MOVES,
           "    moves = (v, h, surface.hinv.images, surface.vinv.images)\n",
           [f"{TO}::test_walk_matches_the_walks_it_replaced"], False),
    # the isomorphism test comparing only the relabeled h
    Mutant(ORIGAMI, "        if pair2 == pair1:\n",
           "        if pair2[0] == pair1[0]:\n",
           [f"{TO}::test_walk_matches_the_walks_it_replaced",
            f"{TO}::test_walk_matches_brute_force_over_all_relabelings"],
           False),
    # the window snapshot stamping through the grid's flat view
    Mutant(HITTING, "        snap.flat = snap.bits.reshape(-1)\n", "",
           [f"{TH}::test_stamping_a_snapshot_leaves_its_grid_unchanged",
            f"{TH}::test_r_dense_time_matches_reference_loop"], False),
    # one wrong entry in the table of a column's bit within its byte
    Mutant(HITTING, "_BITS = np.array([1, 2, 4, 8, 16, 32, 64, 128], "
           "dtype=np.uint8)\n",
           "_BITS = np.array([1, 2, 4, 8, 16, 32, 128, 128], "
           "dtype=np.uint8)\n",
           [f"{TH}::test_stamp_piece_matches_reference",
            f"{TH}::test_torus_oracle_rational_sweep"], False),
    # rows m bytes apart in the flat view, in place of row_bytes
    Mutant(HITTING,
           """\
        base = np.arange((j * m + r0) * row_bytes,
                         (j * m + r1 + 1) * row_bytes, row_bytes)
""", """\
        base = np.arange((j * m + r0) * m, (j * m + r1 + 1) * m, m)
""",
           [f"{TH}::test_stamp_piece_matches_reference",
            f"{TH}::test_torus_oracle_rational_sweep"], False),
    # Each mutant below breaks what one InvariantViolated guard checks, and
    # its tests fail by that guard's error.
    # sl2.decompose: a run of T- where the Euclidean step needs T
    Mutant("src/origamilab/sl2.py",
           "            suffix = _run(T_TOK, TINV_TOK, q) + suffix\n",
           "            suffix = _run(TINV_TOK, T_TOK, q) + suffix\n",
           ["tests/test_sl2.py::test_decompose_examples",
            "tests/test_sl2.py::test_decompose_roundtrip_random"], False),
    # origami: a cone's order read as its cycle's length, so the orders of
    # the three order-2 cones of the genus-4 surface sum to 9, not 6
    Mutant(ORIGAMI, "cones.append(Cone(order=len(cyc) - 1))",
           "cones.append(Cone(order=len(cyc)))",
           ["tests/test_cli.py::test_info"], False),
    # origami: the vertex walk counting one turn more at every vertex, so
    # it disagrees with the commutator cycles
    Mutant(ORIGAMI, "                orders.append(turns - 1)\n",
           "                orders.append(turns)\n",
           ["tests/test_cli.py::test_info",
            "tests/test_errors.py::test_grid_guards"], False),
    # cylinders: a line read as singular exactly when it is regular, so a
    # singular line is crossed to two strips
    Mutant(CYLINDERS, "                 if not right_line_singular(si)}\n",
           "                 if right_line_singular(si)}\n",
           [f"{TC}::test_torus_and_genus2",
            f"{TC}::test_strip_merge_on_relabeled_genus2[012]"], False),
    # cylinders: every line read as regular, so a singular line is crossed
    # to one strip of another length
    Mutant(CYLINDERS,
           "            return any(origami.cone_at(sq, BR) for sq in "
           "strips[si])\n",
           "            return False\n",
           [f"{TC}::test_strip_merge_on_relabeled_genus2[102]",
            f"{TC}::test_strip_merge_on_relabeled_genus2[201]"], False),
    # cylinders: length and width swapped, so the areas miss n
    Mutant(CYLINDERS, "length=len(block_strips[0]),",
           "length=len(block_strips),",
           [f"{TC}::test_xo_vertical_cylinders",
            f"{TC}::test_strip_merge_matches_left_walk"], False),
    # cylinders: the pulled-back span not divided by the slope's q, so the
    # pull-back runs on past its end into a cone
    Mutant(CYLINDERS,
           "        num, den = span.numerator, span.denominator * (sy or 1)\n",
           "        num, den = span.numerator, span.denominator\n",
           [f"{TC}::test_transversal_bound_random_induced",
            "tests/test_acceptance.py::test_criterion_7_cylinders"], False),
    # cylinders: a downward segment pulled back without its direction
    # reversed, so the pull-back runs the other way from its start
    Mutant(CYLINDERS, "        if not up:\n            vx, vy = -vx, -vy\n",
           "",
           [f"{TC}::test_downward_crossing_sequence_matches_pulled_back_y_"
            "segment"], False),
    # the kernel's start at X = 0 ahead of a leftward (or downward
    # vertical) flow left in its own square, not moved to hinv(j)
    Mutant(FLOW, "        if X == 0:\n            j, X = nxt[j], M\n", "",
           _KERNEL_TESTS, False),
    # the kernel's start at Y = 0 ahead of a downward flow left in its own
    # square, not moved to vinv(j)
    Mutant(FLOW, "        if Y == 0:\n            j, Y = vnxt[j], M\n", "",
           _KERNEL_TESTS, False),
    # a downward flow's corner ahead read as the upward one's: the cone
    # check at the bottom right or bottom left corner looks at the top
    Mutant(FLOW, "(TR if north else BR) if east",
           "(TR if north else TR) if east",
           [*_KERNEL_TESTS, f"{_CORNER_TEST}[BR]"], False),
    Mutant(FLOW, "(TL if north else BL)", "(TL if north else TL)",
           [*_KERNEL_TESTS, f"{_CORNER_TEST}[BL]"], False),
    Mutant(FLOW, "top, vnxt, TL if north else BR",
           "top, vnxt, TL if north else TR",
           [*_KERNEL_TESTS, f"{_CORNER_TEST}[down-edge]"], False),
    # the diagonal swap reading the surface's corner c as its own corner c:
    # without the corner map a corner takes another vertex's class
    Mutant(ORIGAMI, "self._vertex_of[_SWAP[c]]", "self._vertex_of[c]",
           [f"{TO}::test_views_agree_with_walked_gluing_views",
            f"{TO}::test_vertex_classes_match_dict_walk",
            f"{TO}::test_symmetry_views_match_validated_surfaces"], False),
    # the lower check measuring type:w=2, w = 2, whatever slope it is given
    Mutant(HITTING, "    w, cf = spec.value, spec.cf\n",
           "    from .cfrac import parse_slope_spec\n"
           "    spec = parse_slope_spec('type:w=2')\n"
           "    w, cf = spec.value, spec.cf\n",
           ["tests/test_reference.py::test_case[lower-w-from-slope]"], False),
    # the trapping window's alpha*L < 1 guard letting alpha*L = 1 through,
    # or every alpha*L below 2
    Mutant(CYLINDERS, "        if alpha * c.length >= 1:\n",
           "        if alpha * c.length > 1:\n",
           [f"{TC}::test_trapping_preconditions"], False),
    Mutant(CYLINDERS, "        if alpha * c.length >= 1:\n",
           "        if alpha * c.length >= 2:\n",
           [f"{TC}::test_trapping_preconditions"], False),
    # the trapping window traced only 1/9 past the window, not 1/8
    Mutant(CYLINDERS, "TRAPPING_MARGIN = Fraction(1, 8)",
           "TRAPPING_MARGIN = Fraction(1, 9)",
           [f"{TC}::test_trapping_default_margin_sees_an_exit_past_one_"
            "ninth"], False),
    # the int64 refusal from 2**62, so a grid of q*M*m = 2**61 is stamped
    Mutant(HITTING, _INT64_GUARD, _INT64_GUARD.replace("2 ** 61", "2 ** 62"),
           [f"{TE}::test_int64_refusal_from_2_to_the_61[60]"], False),
    # the int64 refusal reading q // M, which is 0 for every slope
    Mutant(HITTING, _INT64_GUARD, _INT64_GUARD.replace("q * ", "q // "),
           [f"{TE}::test_int64_refusal_from_2_to_the_61[60]",
            "tests/test_cli.py::"
            "test_hitting_refuses_the_grid_before_tracing_a_leaf[int64]"],
           False),
    # Equivalent: the snapshot taken at a piece that ends exactly at the
    # window holds that whole piece, stamped up to the window, and the
    # snapshot taken at the next piece holds it too, stamped into the grid.
    # With the trace ending there, or T found there, the snapshot after the
    # loop is that same grid.
    Mutant(HITTING, "            if snap_at is not None and s > snap_at:\n",
           "            if snap_at is not None and s >= snap_at:\n",
           [f"{TH}::test_r_dense_time_matches_reference_loop",
            f"{TH}::test_tube_audit_stamps_only_up_to_its_window"], True),
]


def run_tests(copy, tests):
    """(passed, names of the failed tests) for the tests in the copy."""
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *tests],
        cwd=copy, env=env, capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (AS_LIMIT, AS_LIMIT)))
    if proc.returncode not in (0, 1):
        sys.exit(f"pytest could not run {tests}:\n{proc.stdout[-2000:]}"
                 f"{proc.stderr[-2000:]}")
    failed = re.findall(r"^FAILED (\S+)", proc.stdout, re.M)
    return proc.returncode == 0, failed


def fresh_copy(tmp):
    copy = os.path.join(tmp, "copy")
    shutil.rmtree(copy, ignore_errors=True)
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for part in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(copy, part),
                        ignore=ignore)
    return copy


def mutate(copy, mutant):
    path = os.path.join(copy, mutant.file)
    with open(path) as fh:
        text = fh.read()
    if text.count(mutant.old) != 1:
        sys.exit(f"{mutant.file}: the mutated text must occur once:\n"
                 f"{mutant.old}")
    with open(path, "w") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def main(argv):
    chosen = [int(a) for a in argv] or range(len(MUTANTS))
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        tests = sorted({t for i in chosen for t in MUTANTS[i].tests})
        passed, failed = run_tests(fresh_copy(tmp), tests)
        if not passed:
            sys.exit(f"unmutated, these tests fail: {failed}")
        for i in chosen:
            mutant = MUTANTS[i]
            copy = fresh_copy(tmp)
            mutate(copy, mutant)
            passed, failed = run_tests(copy, mutant.tests)
            want = "survived" if mutant.equivalent else "killed"
            got = "survived" if passed else "killed"
            bad += got != want
            first = mutant.old.strip().splitlines()[0]
            print(f"{i:2} {got:8} ({'ok' if got == want else 'WRONG'}, "
                  f"{'equivalent' if mutant.equivalent else 'must die'}) "
                  f"{mutant.file}: {first}")
            for name in failed:
                print(f"     by {name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

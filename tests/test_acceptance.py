"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line; runtime budgets are asserted
where the criterion carries one.
"""
import time
from contextlib import contextmanager

from hicat.emit import emit
from hicat.models import (
    almost_positive_model,
    cluster_model,
    module_model,
    relative_f_model,
)
from hicat.quotients import projinj_ideal, quotient
from hicat.rigidity import correspondence_check, maximal_rigid
from hicat.tuples import build_quiver, gen_derset_window, gen_modset, gen_nonconsec
from hicat.verify import (
    find_noncommuting_witness,
    grid_points,
    run_theorem,
    sanity_reports,
    verify_equiv_module_ap,
)
from pair_rules import composite

GRID = (3, 4, 200)

# (d, n) -> objects, hom pairs, ext pairs and exangles compared, as reported by
# equiv on the grid and by main2 on the grid and at (1, 6); both compare a
# quotient with the almost-positive model, so a passing run counts its tables
COMPARE_FIELDS = ("objects", "hom_pairs", "ext_pairs", "exangles")
COMPARE_COUNTERS = {
    (1, 1): (2, 4, 4, 1), (1, 2): (5, 25, 25, 5), (1, 3): (9, 81, 81, 15),
    (1, 4): (14, 196, 196, 35), (2, 1): (2, 4, 4, 1), (2, 2): (7, 49, 49, 7),
    (2, 3): (16, 256, 256, 28), (2, 4): (30, 900, 900, 84), (3, 1): (2, 4, 4, 1),
    (3, 2): (9, 81, 81, 9), (3, 3): (25, 625, 625, 45), (3, 4): (55, 3025, 3025, 165),
    (1, 6): (27, 729, 729, 126),
}

# (d, n) -> extension pairs, distinguished ones and objects, as reported by f-exangles
F_EXANGLES_FIELDS = ("ext_pairs", "distinguished", "objects")
F_EXANGLES_COUNTERS = {
    (1, 1): (2, 1, 2), (1, 2): (10, 5, 5), (1, 3): (30, 15, 9), (1, 4): (70, 35, 14),
    (2, 1): (2, 1, 2), (2, 2): (14, 7, 7), (2, 3): (56, 28, 16), (2, 4): (168, 84, 30),
    (3, 1): (2, 1, 2), (3, 2): (18, 9, 9), (3, 3): (90, 45, 25), (3, 4): (330, 165, 55),
    (1, 6): (252, 126, 27),
}

# (d, n) -> for each model of sanity_reports (module, cluster, almost-positive,
# relative-f, derived on the window (1, 3)): objects, unit checks, associativity
# triples, ext pairs and shift checks; no cluster model of the grid has a
# noncommuting witness
SANITY_FIELDS = ("objects", "unit_checks", "associativity_triples", "ext_pairs", "shift_checks")
SANITY_COUNTERS = {
    (1, 1): ((1, 2, 1, 0, 0), (2, 4, 2, 2, 4), (2, 4, 2, 1, 0), (2, 4, 2, 1, 0),
             (3, 6, 3, 2, 4)),
    (1, 2): ((3, 10, 12, 1, 0), (5, 20, 40, 10, 25), (5, 18, 28, 5, 0), (5, 20, 40, 5, 0),
             (6, 22, 36, 7, 9)),
    (1, 3): ((6, 30, 73, 5, 0), (9, 60, 348, 30, 81), (9, 50, 174, 15, 0),
             (9, 60, 348, 15, 0), (9, 50, 175, 15, 9)),
    (1, 4): ((10, 70, 309, 15, 0), (14, 140, 1904, 70, 196), (14, 110, 715, 35, 0),
             (14, 140, 1904, 35, 0), (12, 90, 481, 26, 9)),
    (2, 1): ((1, 2, 1, 0, 0), (2, 4, 2, 2, 4), (2, 4, 2, 1, 0), (2, 4, 2, 1, 0),
             (3, 6, 3, 2, 4)),
    (2, 2): ((4, 14, 20, 1, 0), (7, 28, 56, 14, 49), (7, 26, 44, 7, 0), (7, 28, 56, 7, 0),
             (9, 34, 60, 11, 25)),
    (2, 3): ((10, 56, 195, 7, 0), (16, 112, 720, 56, 256), (16, 98, 450, 28, 0),
             (16, 112, 720, 28, 0), (18, 112, 540, 35, 64)),
    (2, 4): ((20, 168, 1268, 28, 0), (30, 336, 5856, 168, 900), (30, 280, 2963, 84, 0),
             (30, 336, 5856, 84, 0), (30, 280, 2928, 85, 121)),
    (3, 1): ((1, 2, 1, 0, 0), (2, 4, 2, 2, 4), (2, 4, 2, 1, 0), (2, 4, 2, 1, 0),
             (3, 6, 3, 2, 4)),
    (3, 2): ((5, 18, 28, 1, 0), (9, 36, 72, 18, 81), (9, 34, 60, 9, 0), (9, 36, 72, 9, 0),
             (12, 46, 84, 15, 49)),
    (3, 3): ((15, 90, 381, 9, 0), (25, 180, 1220, 90, 625), (25, 162, 854, 45, 0),
             (25, 180, 1220, 45, 0), (30, 198, 1098, 63, 225)),
    (3, 4): ((35, 330, 3412, 45, 0), (55, 660, 13200, 330, 3025), (55, 570, 7835, 165, 0),
             (55, 660, 13200, 165, 0), (60, 630, 9000, 196, 676)),
}


def counters_by_point(reports):
    return {(r.d, r.n): r.counters for r in reports}


def pinned(fields, table):
    return {point: dict(zip(fields, values)) for point, values in table.items()}


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description} "
          f"({time.perf_counter() - start:.2f}s)")


def brute_maximal_independent_count(objects, conflict) -> int:
    results = set()

    def extend(chosen, rest):
        grew = False
        for i, y in enumerate(rest):
            if all(not conflict(y, c) for c in chosen):
                grew = True
                extend(chosen + (y,), rest[i + 1:])
        if not grew:
            if all(any(conflict(y, c) for c in chosen)
                   for y in objects if y not in chosen):
                results.add(tuple(sorted(chosen)))

    extend((), tuple(objects))
    return len(results)


def test_criterion_1_figure_counts():
    with criterion(1, "object counts match the reference figures"):
        start = time.perf_counter()
        assert len(gen_modset(7, 2)) == 10
        assert len(gen_nonconsec(8, 2)) == 16
        q2 = build_quiver(2, 3)
        assert len(q2.vertices) == 6 and len(q2.arrows) == 6
        q3 = build_quiver(3, 3)
        assert len(q3.vertices) == 10 and len(q3.arrows) == 12
        assert gen_derset_window(8, 2, 1, 1) == (
            (1, 3, 5), (1, 3, 6), (1, 3, 7), (1, 4, 6), (1, 4, 7), (1, 5, 7))
        assert time.perf_counter() - start < 1.0


def test_criterion_2_module_quotient_equivalence():
    with criterion(2, "module quotient equals the almost-positive model on the grid"):
        start = time.perf_counter()
        reports = run_theorem("equiv", GRID)
        assert len(reports) == 12
        for report in reports:
            assert report.ok, report.summary()
        expected = pinned(COMPARE_FIELDS, COMPARE_COUNTERS)
        del expected[(1, 6)]
        assert counters_by_point(reports) == expected
        assert time.perf_counter() - start < 60.0


def test_criterion_3_relative_structure_and_cyclic_quotient():
    with criterion(3, "restricted exangles characterized and cyclic quotient matches"):
        start = time.perf_counter()
        for theorem, fields, table in (("f-exangles", F_EXANGLES_FIELDS, F_EXANGLES_COUNTERS),
                                       ("main2", COMPARE_FIELDS, COMPARE_COUNTERS)):
            reports = run_theorem(theorem, GRID, extra_points=((1, 6),))
            assert len(reports) == 13
            for report in reports:
                assert report.ok, report.summary()
            assert counters_by_point(reports) == pinned(fields, table), theorem
        # at (d, n) = (1, 6): the hom space O_15 -> O_26 is nonzero, while the
        # space O_15 -> O_48 vanishes, so every composite routed through O_48
        # is zero; composition genuinely depends on the middle object, as the
        # recorded witness shows
        c = cluster_model(1, 6)
        assert c.hom_dim((1, 5), (2, 6)) == 1
        assert c.hom_dim((4, 8), (2, 6)) == 1
        assert c.hom_dim((1, 5), (4, 8)) == 0
        x, y, z = find_noncommuting_witness(c)
        assert c.hom_dim(x, y) == 1 and c.hom_dim(y, z) == 1
        assert c.hom_dim(x, z) == 1 and composite(c, x, y, z) == 0
        assert time.perf_counter() - start < 120.0


def test_criterion_4_sanity_zero_failures():
    with criterion(4, "associativity, complexes and hom-exactness on every model"):
        points = grid_points(*GRID)
        assert sorted(points) == sorted(SANITY_COUNTERS)
        for d, n in points:
            reports = sanity_reports(d, n)
            for report in reports:
                assert report.ok, report.summary()
            expected = [dict(zip(SANITY_FIELDS, values)) for values in SANITY_COUNTERS[(d, n)]]
            expected[1]["noncommuting_witnesses"] = 0
            assert [r.counters for r in reports] == expected, (d, n)


def test_criterion_5_count_coincidence():
    with criterion(5, "maximal rigid counts agree across the models"):
        for n in range(1, 6):
            ap = almost_positive_model(1, n)
            mod = module_model(1, n + 1)
            ap_count = brute_maximal_independent_count(
                ap.objects, lambda x, y: bool(ap.ext_dim(x, y) or ap.ext_dim(y, x)))
            mod_count = brute_maximal_independent_count(
                mod.objects, lambda x, y: bool(mod.ext_dim(x, y) or mod.ext_dim(y, x)))
            assert ap_count == mod_count
            assert ap_count == len(maximal_rigid(ap))
            # the value produced by mapping tilting sets through the quotient
            q = quotient(mod, projinj_ideal(mod))
            dead = set(q.zero_objects)
            images = {tuple(s for s in t if s not in dead)
                      for t in maximal_rigid(mod)}
            assert len(images) == ap_count
        for n in range(1, 4):
            counts = {
                "module": len(maximal_rigid(module_model(2, n + 1))),
                "relative-f": len(maximal_rigid(relative_f_model(2, n))),
                "almost-positive": len(maximal_rigid(almost_positive_model(2, n))),
            }
            assert len(set(counts.values())) == 1, counts


# (d, n) -> maximal rigid sets, exchange exangles, mutations checked,
# smallest and largest set size, as reported by correspondence_check
CORRESPONDENCE_COUNTERS = {
    (1, 1): (2, 2, 4, 1, 1),
    (1, 2): (5, 10, 20, 2, 2),
    (1, 3): (14, 42, 84, 3, 3),
    (1, 4): (42, 168, 336, 4, 4),
    (2, 1): (2, 2, 4, 1, 1),
    (2, 2): (7, 14, 42, 3, 3),
    (2, 3): (40, 128, 480, 6, 6),
    (2, 4): (357, 1650, 7140, 10, 10),
    (3, 1): (2, 2, 4, 1, 1),
    (3, 2): (12, 26, 90, 3, 4),
    (3, 3): (272, 924, 4760, 6, 10),
    (3, 4): (26378, 122602, 864666, 10, 20),
}


def test_criterion_6_mutation_correspondence():
    with criterion(6, "exchange exangles and mutations correspond on the grid"):
        points = grid_points(*GRID)
        assert sorted(points) == sorted(CORRESPONDENCE_COUNTERS)
        for d, n in points:
            report = correspondence_check(d, n)
            assert report.ok, report.summary()
            sets, exchanges, mutations, smallest, largest = CORRESPONDENCE_COUNTERS[(d, n)]
            assert report.counters == {
                "tilting_sets": sets, "ap_maximal_rigid": sets, "relf_maximal_rigid": sets,
                "exchange_exangles": exchanges, "mutations_checked": mutations,
                "set_size_min": smallest, "set_size_max": largest,
            }, (d, n)


FIGURE_QUIVER_23 = {("1,3", "1,4"), ("1,4", "1,5"), ("1,4", "2,4"),
                    ("1,5", "2,5"), ("2,4", "2,5"), ("2,5", "3,5")}

FIGURE_MODULE_23 = {
    ("1,3,5", "1,3,6"), ("1,3,6", "1,3,7"), ("1,3,6", "1,4,6"),
    ("1,3,7", "1,4,7"), ("1,4,6", "1,4,7"), ("1,4,7", "1,5,7"),
    ("1,4,6", "2,4,6"), ("1,4,7", "2,4,7"), ("1,5,7", "2,5,7"),
    ("2,4,6", "2,4,7"), ("2,4,7", "2,5,7"), ("2,5,7", "3,5,7"),
}

FIGURE_AP_23_NODES = {
    "1,3,5", "1,3,6", "1,3,7", "1,4,6", "1,4,7", "1,5,7", "2,4,6", "2,4,7",
    "2,5,7", "2,4,8", "2,5,8", "2,6,8", "3,5,7", "3,5,8", "3,6,8", "4,6,8",
}

# the drawn arrows plus the one forced by the shift symmetry of the
# shifted-projective part (the image of the arrow 146 -> 147)
FIGURE_AP_23_ARROWS = FIGURE_MODULE_23 | {
    ("2,4,7", "2,4,8"), ("2,5,7", "2,5,8"), ("3,5,7", "3,5,8"),
    ("2,4,8", "2,5,8"), ("2,5,8", "2,6,8"), ("2,5,8", "3,5,8"),
    ("2,6,8", "3,6,8"), ("3,5,8", "3,6,8"), ("3,6,8", "4,6,8"),
}


def _parse_dot(text):
    nodes, edges = set(), set()
    for line in text.splitlines():
        line = line.strip()
        if "->" in line:
            src, _, tgt = line.partition("->")
            edges.add((src.strip().strip('";'), tgt.strip().strip('";')))
        elif line.startswith('"'):
            nodes.add(line.split('"')[1])
    return nodes, edges


def test_criterion_7_golden_figures():
    with criterion(7, "figure emissions are deterministic with the right graphs"):
        quiver = build_quiver(2, 3)
        first = emit(quiver)
        assert first == emit(quiver)
        nodes, edges = _parse_dot(first)
        assert edges == FIGURE_QUIVER_23
        assert len(nodes) == 6

        module_cat = module_model(2, 3)
        first = emit(module_cat, arrows="irreducible-only")
        assert first == emit(module_cat, arrows="irreducible-only")
        nodes, edges = _parse_dot(first)
        assert len(nodes) == 10
        assert edges == FIGURE_MODULE_23

        ap_cat = almost_positive_model(2, 3)
        first = emit(ap_cat, arrows="irreducible-only")
        assert first == emit(ap_cat, arrows="irreducible-only")
        nodes, edges = _parse_dot(first)
        assert nodes == FIGURE_AP_23_NODES
        assert edges == FIGURE_AP_23_ARROWS

"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line; runtime budgets are asserted
where the criterion carries one.
"""
import time
from contextlib import contextmanager

from hicat.emit import EmitSpec, emit_string
from hicat.models import (
    almost_positive_model,
    cluster_model,
    module_model,
    relative_f_model,
)
from hicat.quotients import projinj_ideal, quotient
from hicat.rigidity import correspondence_check, maximal_rigid, tilting_sets
from hicat.tuples import build_quiver, gen_derset_window, gen_modset, gen_nonconsec
from hicat.verify import (
    find_noncommuting_witness,
    grid_points,
    run_theorem,
    sanity_reports,
    verify_equiv_module_ap,
)

GRID = (3, 4, 200)


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
        assert time.perf_counter() - start < 60.0


def test_criterion_3_relative_structure_and_cyclic_quotient():
    with criterion(3, "restricted exangles characterized and cyclic quotient matches"):
        start = time.perf_counter()
        for theorem in ("f-exangles", "main2"):
            reports = run_theorem(theorem, GRID, extra_points=((1, 6),))
            assert len(reports) == 13
            for report in reports:
                assert report.ok, report.summary()
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
        assert c.hom_dim(x, z) == 1 and c.compose_scalar(x, y, z) == 0
        assert time.perf_counter() - start < 120.0


def test_criterion_4_sanity_zero_failures():
    with criterion(4, "associativity, complexes and hom-exactness on every model"):
        for d, n in grid_points(*GRID):
            for report in sanity_reports(d, n):
                assert report.ok, report.summary()


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
            images = {tuple(s for s in t.summands if s not in dead)
                      for t in tilting_sets(mod)}
            assert len(images) == ap_count
        for n in range(1, 4):
            counts = {
                "module": len(tilting_sets(module_model(2, n + 1))),
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
        quiver_spec = EmitSpec(fmt="dot", content="quiver")
        cat_spec = EmitSpec(fmt="dot", content="category", arrows="irreducible-only")

        quiver = build_quiver(2, 3)
        first = emit_string(quiver, quiver_spec)
        assert first == emit_string(quiver, quiver_spec)
        nodes, edges = _parse_dot(first)
        assert edges == FIGURE_QUIVER_23
        assert len(nodes) == 6

        module_cat = module_model(2, 3)
        first = emit_string(module_cat, cat_spec)
        assert first == emit_string(module_cat, cat_spec)
        nodes, edges = _parse_dot(first)
        assert len(nodes) == 10
        assert edges == FIGURE_MODULE_23

        ap_cat = almost_positive_model(2, 3)
        first = emit_string(ap_cat, cat_spec)
        assert first == emit_string(ap_cat, cat_spec)
        nodes, edges = _parse_dot(first)
        assert nodes == FIGURE_AP_23_NODES
        assert edges == FIGURE_AP_23_ARROWS

"""Rigid configurations, mutation, and the cross-model correspondences.

A set of objects is rigid when no ordered pair carries a nonzero
extension in the model's own extension structure.  Maximal rigid sets
are enumerated as maximal independent sets of the extension-conflict
graph; mutation exchanges one summand for the unique alternative that
keeps the set maximal rigid, witnessed by exchange d-exangles whose
middle terms stay inside the rest of the set.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import networkx as nx

from .exangles import Exangle, realize
from .models import (
    CategoryModel,
    almost_positive_model,
    module_model,
    relative_f_model,
)
from .quotients import projinj_ideal, quotient, strip_zero_summands
from .tuples import IndexTuple
from .verify import VerificationReport, compare_exangles


@dataclass(frozen=True)
class RigidSet:
    """A rigid configuration: pairwise extension-free summands."""
    kind: str
    summands: tuple[IndexTuple, ...]

    def without(self, x: IndexTuple) -> tuple[IndexTuple, ...]:
        return tuple(s for s in self.summands if s != x)


def is_rigid(model: CategoryModel, summands) -> bool:
    """True when no ordered pair of summands has a nonzero extension."""
    items = tuple(summands)
    for x in items:
        model._require(x)
    adj = conflict_map(model)
    return all(y not in adj[x] for x in items for y in items)


@lru_cache(maxsize=None)
def conflict_map(model: CategoryModel) -> dict:
    """For each object, the set of objects it has an extension with (either order)."""
    adj: dict[IndexTuple, frozenset] = {}
    for x in model.objects:
        adj[x] = frozenset(y for y in model.objects
                           if model.ext_dim(x, y) or model.ext_dim(y, x))
    return adj


def conflict_graph(model: CategoryModel) -> nx.Graph:
    """Undirected graph joining objects with an extension in either order."""
    g = nx.Graph()
    g.add_nodes_from(model.objects)
    adj = conflict_map(model)
    for x, y in combinations(model.objects, 2):
        if y in adj[x]:
            g.add_edge(x, y)
    return g


def maximal_rigid(model: CategoryModel) -> tuple[RigidSet, ...]:
    """All inclusion-maximal rigid sets, deterministically ordered."""
    comp = nx.complement(conflict_graph(model))
    comp.add_nodes_from(model.objects)
    sets = {tuple(sorted(clique)) for clique in nx.find_cliques(comp)}
    return tuple(RigidSet(model.kind, s) for s in sorted(sets))


def tilting_sets(model: CategoryModel) -> tuple[RigidSet, ...]:
    """Maximal rigid sets of a module model, all containing the projective-injectives.

    The projective-injective objects are extension-orthogonal to
    everything, so maximality forces their inclusion; this is checked.
    """
    projinj = {a for a in model.objects
               if model.classify(a).projective and model.classify(a).injective}
    sets = maximal_rigid(model)
    for t in sets:
        missing = projinj - set(t.summands)
        if missing:
            raise AssertionError(f"maximal rigid set {t.summands} misses "
                                 f"projective-injectives {sorted(missing)}")
    return sets


def _strip(summands, dead: set[IndexTuple]) -> tuple[IndexTuple, ...]:
    return tuple(s for s in summands if s not in dead)


class _MutationScanner:
    """The mutation engine of one model, shared by every mutation path.

    For one maximal rigid set, a single pass over the objects buckets
    every outside object by its unique conflict inside the set; the
    replacements of a summand x are then exactly the bucket of x whose
    members conflict with every other compatible object.
    """

    def __init__(self, model):
        self.model = model
        self.adj = conflict_map(model)
        self._exangle_cache: dict[tuple, Exangle | None] = {}

    def buckets(self, summands: tuple[IndexTuple, ...]) -> dict:
        """Outside objects keyed by their unique conflict in a rigid set.

        Raises ValueError when some outside object conflicts with no
        summand, that is when the rigid set is not maximal.
        """
        member = set(summands)
        out: dict[IndexTuple, list[IndexTuple]] = {x: [] for x in summands}
        for y in self.model.objects:
            if y in member:
                continue
            hits = self.adj[y] & member
            if len(hits) == 1:
                out[next(iter(hits))].append(y)
            elif not hits:
                raise ValueError("mutation needs a maximal rigid set")
        return out

    def candidates(self, x: IndexTuple, bucket: list[IndexTuple]) -> list[IndexTuple]:
        free = [x] + bucket
        return [y for y in bucket
                if all(z == y or z in self.adj[y] for z in free)]

    def replacement(self, x: IndexTuple, bucket: list[IndexTuple]) -> IndexTuple | None:
        """The unique replacement of summand x, or None; raises when ambiguous."""
        found = self.candidates(x, bucket)
        if len(found) > 1:
            raise ValueError(f"ambiguous mutation of {x}: candidates {found}")
        return found[0] if found else None

    def exangle(self, b: IndexTuple, a: IndexTuple) -> Exangle | None:
        key = (b, a)
        if key not in self._exangle_cache:
            self._exangle_cache[key] = (realize(self.model, b, a)
                                        if self.model.ext_dim(b, a) else None)
        return self._exangle_cache[key]

    def exchange_pairs(self, x: IndexTuple, bucket, rest_set) -> list[tuple]:
        """Oriented end pairs of exchange exangles with middles inside the rest."""
        pairs = []
        for y in bucket:
            for b, a in ((x, y), (y, x)):
                e = self.exangle(b, a)
                if e is not None and all(lbl in rest_set
                                         for level in e.middles for lbl in level):
                    pairs.append((b, a))
        return sorted(pairs)


def _scan_at(model: CategoryModel, t: RigidSet, x: IndexTuple):
    """A scanner of the model and the replacement pool of summand x of t.

    Raises ValueError unless t is a maximal rigid set with summand x.
    """
    if x not in t.summands:
        raise ValueError(f"{x} is not a summand of the rigid set")
    if not is_rigid(model, t.summands):
        raise ValueError("mutation needs a maximal rigid set")
    scan = _MutationScanner(model)
    return scan, scan.buckets(t.summands)[x]


def _exchanges(scan, t: RigidSet, x: IndexTuple, bucket) -> tuple[Exangle, ...]:
    pairs = scan.exchange_pairs(x, bucket, set(t.without(x)))
    return tuple(sorted((scan.exangle(b, a) for b, a in pairs),
                        key=lambda e: (e.x0, e.xlast)))


def exchange_exangles(model: CategoryModel, t: RigidSet, x: IndexTuple) -> tuple[Exangle, ...]:
    """Exchange d-exangles at a summand of a maximal rigid set.

    Returns every realized exangle whose end terms are x and some
    replacement y (in either orientation) such that swapping x for y
    keeps the set rigid and whose middle terms lie in the additive hull
    of the remaining summands.  Raises ValueError when t is not a
    maximal rigid set.
    """
    scan, bucket = _scan_at(model, t, x)
    return _exchanges(scan, t, x, bucket)


@dataclass(frozen=True)
class MutationResult:
    """Outcome of a single mutation: the new set and its exchange exangles."""
    summands: tuple[IndexTuple, ...]
    replaced_by: IndexTuple
    exchanges: tuple[Exangle, ...]


def mutate(model: CategoryModel, t: RigidSet, x: IndexTuple) -> MutationResult | None:
    """Replace one summand of a maximal rigid set.

    Returns None when no replacement keeps the set maximal rigid (a
    legitimate outcome for some summands when d > 1); raises when the
    replacement is ambiguous.
    """
    scan, bucket = _scan_at(model, t, x)
    y = scan.replacement(x, bucket)
    if y is None:
        return None
    return MutationResult(summands=tuple(sorted(t.without(x) + (y,))), replaced_by=y,
                          exchanges=_exchanges(scan, t, x, bucket))


def mutation_graph_dot(model: CategoryModel) -> str:
    """DOT digraph of the mutation graph: nodes are maximal rigid sets."""
    sets = maximal_rigid(model)
    scan = _MutationScanner(model)

    def set_id(summands) -> str:
        return "|".join(",".join(str(v) for v in lbl) for lbl in summands)

    edges = set()
    for t in sets:
        buckets = scan.buckets(t.summands)
        for x in t.summands:
            y = scan.replacement(x, buckets[x])
            if y is not None:
                new = sorted(t.without(x) + (y,))
                edges.add(tuple(sorted((set_id(t.summands), set_id(new)))))
    lines = ["digraph {"]
    for t in sets:
        lines.append(f'  "{set_id(t.summands)}";')
    for u, v in sorted(edges):
        lines.append(f'  "{u}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def correspondence_check(d: int, n: int) -> VerificationReport:
    """Maximal rigid sets and their mutations transported along both quotients.

    Checks that deleting the projective-injective summands carries the
    module-model tilting sets bijectively onto the maximal rigid sets of
    the almost-positive model with exchange exangles matching termwise,
    that the restricted cyclic model's maximal rigid sets map bijectively
    onto the same sets with mutation intertwined, and that mutation is an
    involution wherever it is defined.
    """
    start = time.perf_counter()
    counters: dict[str, int] = {}
    counterexample = None
    ok = True

    base = module_model(d, n + 1)
    ap = almost_positive_model(d, n)
    relf = relative_f_model(d, n)
    q = quotient(base, projinj_ideal(base))
    dead = set(q.zero_objects)

    tilts = tilting_sets(base)
    ap_rigid = maximal_rigid(ap)
    relf_rigid = maximal_rigid(relf)
    counters["tilting_sets"] = len(tilts)
    counters["ap_maximal_rigid"] = len(ap_rigid)
    counters["relf_maximal_rigid"] = len(relf_rigid)
    sizes = {len(t.summands) for t in ap_rigid}
    # not all maximal rigid sets have the same size once d reaches 3;
    # record the range instead of assuming purity
    counters["set_size_min"] = min(sizes)
    counters["set_size_max"] = max(sizes)

    images = sorted(_strip(t.summands, dead) for t in tilts)
    ap_sets = sorted(t.summands for t in ap_rigid)
    if images != ap_sets or len(set(images)) != len(images):
        ok = False
        counterexample = ("tilting-image-mismatch", images[:3], ap_sets[:3])

    relf_sets = sorted(t.summands for t in relf_rigid)
    if ok and relf_sets != ap_sets:
        ok = False
        counterexample = ("relf-set-mismatch", relf_sets[:3], ap_sets[:3])

    exchanges = 0
    mutations = 0
    scan_base = _MutationScanner(base)
    scan_ap = _MutationScanner(ap)
    scan_relf = _MutationScanner(relf)
    match_cache: dict[tuple, bool] = {}

    def stripped_matches(b: IndexTuple, a: IndexTuple) -> bool:
        key = (b, a)
        if key not in match_cache:
            stripped = strip_zero_summands(scan_base.exangle(b, a), dead)
            match_cache[key] = compare_exangles(stripped, scan_ap.exangle(b, a)) is None
        return match_cache[key]

    mutation_edges: dict[tuple, tuple] = {}
    if ok:
        for t in tilts:
            buckets_base = scan_base.buckets(t.summands)
            image = _strip(t.summands, dead)
            buckets_ap = scan_ap.buckets(image)
            for x in t.summands:
                if x in dead:
                    # projective-injectives sit in every maximal rigid set,
                    # so they can never be exchanged
                    if scan_base.candidates(x, buckets_base[x]):
                        ok = False
                        counterexample = ("projinj-summand-mutable", t.summands, x)
                        break
                    continue
                mutations += 1
                if buckets_base[x] != buckets_ap[x]:
                    ok = False
                    counterexample = ("replacement-pool-mismatch", t.summands, x)
                    break
                rest = set(t.summands) - {x}
                rest_image = rest - dead
                pairs_base = scan_base.exchange_pairs(x, buckets_base[x], rest)
                pairs_ap = scan_ap.exchange_pairs(x, buckets_ap[x], rest_image)
                if pairs_base != pairs_ap or \
                        not all(stripped_matches(b, a) for b, a in pairs_base):
                    ok = False
                    counterexample = ("exchange-mismatch", t.summands, x)
                    break
                exchanges += len(pairs_base)
                cand_base = scan_base.candidates(x, buckets_base[x])
                cand_ap = scan_ap.candidates(x, buckets_ap[x])
                if cand_base != cand_ap:
                    ok = False
                    counterexample = ("mutation-mismatch", t.summands, x)
                    break
                if len(cand_base) > 1:
                    ok = False
                    counterexample = ("ambiguous-mutation", t.summands, x, cand_base)
                    break
                if cand_base:
                    y = cand_base[0]
                    new = tuple(sorted(rest | {y}))
                    mutation_edges[(new, y)] = (tuple(sorted(t.summands)), x)
            if not ok:
                break
    if ok:
        # mutating (old, x) gave (new, y); mutating (new, y) must give (old, x)
        for key, value in mutation_edges.items():
            if mutation_edges.get(value) != key:
                ok = False
                counterexample = ("mutation-not-involutive", value, key)
                break
    if ok:
        for t in relf_rigid:
            buckets_relf = scan_relf.buckets(t.summands)
            buckets_ap = scan_ap.buckets(t.summands)
            for x in t.summands:
                mutations += 1
                if buckets_relf[x] != buckets_ap[x]:
                    ok = False
                    counterexample = ("relf-replacement-mismatch", t.summands, x)
                    break
                if scan_relf.candidates(x, buckets_relf[x]) != \
                        scan_ap.candidates(x, buckets_ap[x]):
                    ok = False
                    counterexample = ("relf-mutation-mismatch", t.summands, x)
                    break
            if not ok:
                break
    counters["exchange_exangles"] = exchanges
    counters["mutations_checked"] = mutations

    return VerificationReport(theorem="correspondence", d=d, n=n, ok=ok,
                              counters=counters, counterexample=counterexample,
                              elapsed=time.perf_counter() - start)

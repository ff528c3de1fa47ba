"""Rigid configurations, mutation, and the cross-model correspondences.

A set of objects is rigid when no ordered pair carries a nonzero
extension in the model's own extension structure.  Maximal rigid sets
are enumerated as maximal independent sets of the extension-conflict
graph; mutation exchanges one summand for the unique alternative that
keeps the set maximal rigid, witnessed by exchange d-exangles whose
middle terms stay inside the rest of the set.

Internally every set of objects is an integer bitmask over a sorted
label universe, so that bit order is label order; labels appear only at
the API edge and in counterexamples.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

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


def _indices(mask: int):
    """Bit positions of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Conflicts:
    """A model's objects numbered within a sorted label universe.

    rows[i] has bit j set when the objects i and j have an extension in
    either order, read from the model's own ext_dim; universe labels that
    are not objects of the model get an empty row and no bit in
    ``objects``.
    """

    def __init__(self, model: CategoryModel, universe: tuple[IndexTuple, ...]):
        self.labels = universe
        self.bit = {lbl: 1 << i for i, lbl in enumerate(universe)}
        members = [(self.bit[x].bit_length() - 1, x) for x in model.objects]
        rows = [0] * len(universe)
        ext = model.ext_dim
        for k, (i, x) in enumerate(members):
            if ext(x, x):
                rows[i] |= 1 << i
            for j, y in members[k + 1:]:
                if ext(x, y) or ext(y, x):
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        self.rows = rows
        self.objects = sum(1 << i for i, _ in members)

    def mask(self, labels) -> int:
        """The mask of distinct labels of the universe."""
        return sum(map(self.bit.__getitem__, labels))

    def labels_of(self, mask: int) -> tuple[IndexTuple, ...]:
        out = []
        while mask:
            low = mask & -mask
            out.append(self.labels[low.bit_length() - 1])
            mask ^= low
        return tuple(out)


def _own_conflicts(model: CategoryModel) -> _Conflicts:
    """The conflict masks of a model on its own objects, built once per model.

    They are kept in the model's instance dictionary, as a cached_property
    would keep them, so they live and die with the model.
    """
    table = vars(model).get("_conflicts")
    if table is None:
        table = vars(model)["_conflicts"] = _Conflicts(model, tuple(sorted(model.objects)))
    return table


def is_rigid(model: CategoryModel, summands) -> bool:
    """True when no ordered pair of summands has a nonzero extension."""
    items = tuple(summands)
    for x in items:
        model._require(x)
    c = _own_conflicts(model)
    m = c.mask(set(items))
    return not any(c.rows[i] & m for i in _indices(m))


def _maximal_independent(rows: list[int], vertices: int) -> list[int]:
    """Maximal independent sets of a conflict graph, as masks.

    Pivoting Bron–Kerbosch (Bron–Kerbosch 1973; Tomita et al. 2006) on
    the complement masks: each step branches only on the vertices of P
    outside the neighbourhood of the pivot with most neighbours in P.
    """
    nbrs = [vertices & ~row & ~(1 << i) for i, row in enumerate(rows)]
    found: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p:
            if not x:
                found.append(r)
            return
        best, pivot = -1, 0
        rest = p | x
        while rest:
            low = rest & -rest
            nb = nbrs[low.bit_length() - 1]
            count = (p & nb).bit_count()
            if count > best:
                best, pivot = count, nb
            rest ^= low
        branch = p & ~pivot
        while branch:
            low = branch & -branch
            nb = nbrs[low.bit_length() - 1]
            expand(r | low, p & nb, x & nb)
            p ^= low
            x |= low
            branch ^= low

    expand(0, vertices, 0)
    return found


def maximal_rigid(model: CategoryModel) -> tuple[RigidSet, ...]:
    """All inclusion-maximal rigid sets, deterministically ordered."""
    c = _own_conflicts(model)
    sets = sorted(c.labels_of(m) for m in _maximal_independent(c.rows, c.objects))
    return tuple(RigidSet(model.kind, s) for s in sets)


def tilting_sets(model: CategoryModel) -> tuple[RigidSet, ...]:
    """Maximal rigid sets of a module model, all containing the projective-injectives.

    The projective-injective objects are extension-orthogonal to
    everything, so maximality forces their inclusion; this is checked.
    Raises ValueError for a model of another kind.
    """
    projinj = {z for z, _ in projinj_ideal(model).arrows}
    sets = maximal_rigid(model)
    for t in sets:
        missing = projinj - set(t.summands)
        if missing:
            raise AssertionError(f"maximal rigid set {t.summands} misses "
                                 f"projective-injectives {sorted(missing)}")
    return sets


class _MutationScanner:
    """The mutation engine of one model, shared by every mutation path.

    For one maximal rigid set, a single pass over the summands finds the
    outside objects with exactly one conflict inside the set; the bucket
    of a summand x is those of them that conflict with x, and the
    replacements of x are the members of its bucket that conflict with
    every other compatible object.  Sets, buckets and summands are masks
    and bit positions over a sorted label universe: the model's own
    objects by default, or a larger universe shared with other scanners.
    """

    def __init__(self, model: CategoryModel, universe: tuple[IndexTuple, ...] | None = None):
        self.model = model
        own = _own_conflicts(model)
        self.conflicts = own if universe in (None, own.labels) else _Conflicts(model, universe)
        self.rows = self.conflicts.rows
        # (b, a) -> (exangle, mask of its middle terms), or None without extension
        self._exchange: dict[tuple[int, int], tuple[Exangle, int] | None] = {}
        # (x, bucket) -> sorted ((b, a), middles mask) of the extensions between them
        self._links: dict[tuple[int, int], list[tuple[tuple[int, int], int]]] = {}

    def single_hits(self, t: int) -> int:
        """Outside objects with exactly one conflict in the rigid set t.

        Raises ValueError when some outside object conflicts with no
        summand, that is when the rigid set is not maximal.
        """
        once = twice = 0
        rows = self.rows
        rest = t
        while rest:
            low = rest & -rest
            row = rows[low.bit_length() - 1]
            twice |= once & row
            once |= row
            rest ^= low
        if self.conflicts.objects & ~(t | once):
            raise ValueError("mutation needs a maximal rigid set")
        return once & ~twice & ~t

    def candidates(self, x: int, bucket: int) -> int:
        """The members y of x's bucket that conflict with all of x and the bucket but y."""
        if not bucket & (bucket - 1):
            # a lone member conflicts with x, as every bucket member does
            return bucket
        free = bucket | 1 << x
        found = 0
        for y in _indices(bucket):
            if not free & ~self.rows[y] & ~(1 << y):
                found |= 1 << y
        return found

    def replacement(self, x: int, bucket: int) -> int | None:
        """The unique replacement of summand x, or None; raises when ambiguous."""
        found = list(_indices(self.candidates(x, bucket)))
        if len(found) > 1:
            labels = self.conflicts.labels
            raise ValueError(f"ambiguous mutation of {labels[x]}: candidates "
                             f"{[labels[y] for y in found]}")
        return found[0] if found else None

    def exchange(self, b: int, a: int) -> tuple[Exangle, int] | None:
        """The exangle realizing an extension of b by a, with its middles mask."""
        key = (b, a)
        if key not in self._exchange:
            lb, la = self.conflicts.labels[b], self.conflicts.labels[a]
            if self.model.ext_dim(lb, la):
                e = realize(self.model, lb, la)
                middles = {lbl for level in e.middles for lbl in level}
                self._exchange[key] = (e, self.conflicts.mask(middles))
            else:
                self._exchange[key] = None
        return self._exchange[key]

    def exchange_pairs(self, x: int, bucket: int, rest: int) -> list[tuple[int, int]]:
        """Oriented end pairs of exchange exangles with middles inside the rest."""
        links = self._links.get((x, bucket))
        if links is None:
            links = self._links[(x, bucket)] = sorted(
                (pair, found[1]) for y in _indices(bucket) for pair in ((x, y), (y, x))
                if (found := self.exchange(*pair)) is not None)
        return [pair for pair, middles in links if not middles & ~rest]

    def exchanges(self, x: int, bucket: int, rest: int) -> tuple[Exangle, ...]:
        """The exangles of the exchange pairs, ordered by their end terms."""
        return tuple(sorted((self.exchange(b, a)[0]
                             for b, a in self.exchange_pairs(x, bucket, rest)),
                            key=lambda e: (e.x0, e.xlast)))


def _scan_at(model: CategoryModel, t: RigidSet, x: IndexTuple):
    """A scanner of the model, with t, x and the replacement pool of x as bits.

    Raises ValueError unless t is a maximal rigid set with summand x.
    """
    if x not in t.summands:
        raise ValueError(f"{x} is not a summand of the rigid set")
    if not is_rigid(model, t.summands):
        raise ValueError("mutation needs a maximal rigid set")
    scan = _MutationScanner(model)
    tmask = scan.conflicts.mask(set(t.summands))
    i = scan.conflicts.bit[x].bit_length() - 1
    return scan, tmask, i, scan.rows[i] & scan.single_hits(tmask)


def exchange_exangles(model: CategoryModel, t: RigidSet, x: IndexTuple) -> tuple[Exangle, ...]:
    """Exchange d-exangles at a summand of a maximal rigid set.

    Returns every realized exangle whose end terms are x and some
    replacement y (in either orientation) such that swapping x for y
    keeps the set rigid and whose middle terms lie in the additive hull
    of the remaining summands.  Raises ValueError when t is not a
    maximal rigid set.
    """
    scan, tmask, i, bucket = _scan_at(model, t, x)
    return scan.exchanges(i, bucket, tmask & ~(1 << i))


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
    scan, tmask, i, bucket = _scan_at(model, t, x)
    j = scan.replacement(i, bucket)
    if j is None:
        return None
    y = scan.conflicts.labels[j]
    return MutationResult(summands=tuple(sorted(t.without(x) + (y,))), replaced_by=y,
                          exchanges=scan.exchanges(i, bucket, tmask & ~(1 << i)))


def mutation_graph_dot(model: CategoryModel) -> str:
    """DOT digraph of the mutation graph: nodes are maximal rigid sets."""
    sets = maximal_rigid(model)
    scan = _MutationScanner(model)
    c = scan.conflicts
    names = [",".join(str(v) for v in lbl) for lbl in c.labels]
    ids: dict[int, str] = {}

    def set_id(mask: int) -> str:
        if mask not in ids:
            ids[mask] = "|".join(names[i] for i in _indices(mask))
        return ids[mask]

    masks = [c.mask(t.summands) for t in sets]
    edges = set()
    for tmask in masks:
        single = scan.single_hits(tmask)
        for x in _indices(tmask):
            y = scan.replacement(x, scan.rows[x] & single)
            if y is not None:
                new = tmask & ~(1 << x) | 1 << y
                edges.add(tuple(sorted((set_id(tmask), set_id(new)))))
    lines = ["digraph {"]
    for tmask in masks:
        lines.append(f'  "{set_id(tmask)}";')
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

    All three scanners number their objects in one universe, the module
    model's labels (plus any label of the other two models outside it, so
    that a mismatch is reported rather than raised); each reads its bits
    from its own ext_dim, so sets, buckets, candidates and exchange pairs
    compare as integers.
    """
    start = time.perf_counter()
    counters: dict[str, int] = {}
    counterexample = None
    ok = True

    base = module_model(d, n + 1)
    ap = almost_positive_model(d, n)
    relf = relative_f_model(d, n)
    q = quotient(base, projinj_ideal(base))
    dead_labels = set(q.zero_objects)

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

    universe = tuple(sorted(set(base.objects) | set(ap.objects) | set(relf.objects)))
    scan_base = _MutationScanner(base, universe)
    scan_ap = _MutationScanner(ap, universe)
    scan_relf = _MutationScanner(relf, universe)
    c = scan_base.conflicts
    dead = c.mask(dead_labels)

    def labels(masks) -> list[tuple[IndexTuple, ...]]:
        return sorted(c.labels_of(m) for m in masks)

    tilt_masks = [c.mask(t.summands) for t in tilts]
    images = sorted(t & ~dead for t in tilt_masks)
    ap_sets = sorted(c.mask(t.summands) for t in ap_rigid)
    if images != ap_sets or len(set(images)) != len(images):
        ok = False
        counterexample = ("tilting-image-mismatch", labels(images)[:3], labels(ap_sets)[:3])

    relf_masks = [c.mask(t.summands) for t in relf_rigid]
    if ok and sorted(relf_masks) != ap_sets:
        ok = False
        counterexample = ("relf-set-mismatch", labels(relf_masks)[:3], labels(ap_sets)[:3])

    exchanges = 0
    mutations = 0
    rows_base, rows_ap, rows_relf = scan_base.rows, scan_ap.rows, scan_relf.rows
    match_cache: dict[tuple[int, int], bool] = {}

    def stripped_matches(pair: tuple[int, int]) -> bool:
        if pair not in match_cache:
            stripped = strip_zero_summands(scan_base.exchange(*pair)[0], dead_labels)
            match_cache[pair] = compare_exangles(stripped, scan_ap.exchange(*pair)[0]) is None
        return match_cache[pair]

    def at(t: int, x: int):
        return c.labels_of(t), c.labels[x]

    # (new set, replacement) -> (old set, replaced summand)
    mutation_edges: dict[tuple[int, int], tuple[int, int]] = {}
    if ok:
        for t in tilt_masks:
            single_base = scan_base.single_hits(t)
            single_ap = scan_ap.single_hits(t & ~dead)
            for x in _indices(t):
                bucket = rows_base[x] & single_base
                if dead >> x & 1:
                    # projective-injectives sit in every maximal rigid set,
                    # so they can never be exchanged
                    if scan_base.candidates(x, bucket):
                        ok = False
                        counterexample = ("projinj-summand-mutable", *at(t, x))
                        break
                    continue
                mutations += 1
                if bucket != rows_ap[x] & single_ap:
                    ok = False
                    counterexample = ("replacement-pool-mismatch", *at(t, x))
                    break
                rest = t & ~(1 << x)
                pairs_base = scan_base.exchange_pairs(x, bucket, rest)
                pairs_ap = scan_ap.exchange_pairs(x, bucket, rest & ~dead)
                if pairs_base != pairs_ap or not all(map(stripped_matches, pairs_base)):
                    ok = False
                    counterexample = ("exchange-mismatch", *at(t, x))
                    break
                exchanges += len(pairs_base)
                cand = scan_base.candidates(x, bucket)
                if cand != scan_ap.candidates(x, bucket):
                    ok = False
                    counterexample = ("mutation-mismatch", *at(t, x))
                    break
                if cand & (cand - 1):
                    ok = False
                    counterexample = ("ambiguous-mutation", *at(t, x),
                                      list(c.labels_of(cand)))
                    break
                if cand:
                    mutation_edges[(rest | cand, cand)] = (t, 1 << x)
            if not ok:
                break
    if ok:
        # mutating (old, x) gave (new, y); mutating (new, y) must give (old, x)
        for key, value in mutation_edges.items():
            if mutation_edges.get(value) != key:
                ok = False
                counterexample = ("mutation-not-involutive",
                                  *(at(t, bit.bit_length() - 1) for t, bit in (value, key)))
                break
    if ok:
        for t in relf_masks:
            single_relf = scan_relf.single_hits(t)
            single_ap = scan_ap.single_hits(t)
            for x in _indices(t):
                mutations += 1
                bucket = rows_relf[x] & single_relf
                if bucket != rows_ap[x] & single_ap:
                    ok = False
                    counterexample = ("relf-replacement-mismatch", *at(t, x))
                    break
                if scan_relf.candidates(x, bucket) != scan_ap.candidates(x, bucket):
                    ok = False
                    counterexample = ("relf-mutation-mismatch", *at(t, x))
                    break
            if not ok:
                break
    counters["exchange_exangles"] = exchanges
    counters["mutations_checked"] = mutations

    return VerificationReport(theorem="correspondence", d=d, n=n, ok=ok,
                              counters=counters, counterexample=counterexample,
                              elapsed=time.perf_counter() - start)

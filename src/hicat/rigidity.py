"""Rigid configurations, mutation, and the cross-model correspondences.

A set of objects is rigid when no ordered pair carries a nonzero
extension in the model's own extension structure.  Maximal rigid sets
are enumerated as maximal independent sets of the extension-conflict
graph; mutation exchanges one summand for the unique alternative that
keeps the set maximal rigid, witnessed by exchange d-exangles whose
middle terms stay inside the rest of the set.

Internally every set of objects is an integer bitmask over the model's
object index, read against the model's conflict rows; the objects are
sorted, so bit order is label order.  The enumeration hands each maximal
set to a visitor as it finds it, with its single hits (the outside
objects with exactly one conflict inside), and keeps nothing, so the
correspondence scan checks each set, and each mutation edge's reverse,
where it is found and holds no set and no edge.  Labels are built only
for public results and counterexamples; there a rigid set is the sorted
tuple of its summands, and public lists of sets are sorted by them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .exangles import Exangle, middle_terms, realize
from .models import (
    CategoryModel,
    almost_positive_model,
    bit_indices,
    module_model,
    relative_f_model,
)
from .quotients import compare_to_model, projinj_ideal, quotient
from .report import VerificationReport, run_check
from .tuples import IndexTuple


def _mask(model: CategoryModel, labels) -> int:
    """The mask of the labels; a label that is not an object raises ValueError."""
    mask = 0
    for i in model._indices(labels):
        mask |= 1 << i
    return mask


def _labels(model: CategoryModel, mask: int) -> tuple[IndexTuple, ...]:
    objects = model.objects
    return tuple(objects[i] for i in bit_indices(mask))


def _maximal_independent(rows: tuple[int, ...], visit: Callable[[int, int], Any]) -> Any:
    """Call visit(mask, single hits) on each maximal independent set of a conflict graph.

    Pivoting Bron–Kerbosch (Bron–Kerbosch 1973; Tomita et al. 2006) on
    the complement masks: each step branches only on the vertices of P
    outside the neighbourhood of the pivot with most neighbours in P.
    Down the recursion it carries the vertices with at least one and
    with at least two conflicts in R, so each set comes with its single
    hits: the outside vertices with exactly one conflict inside, which
    ``_MutationScanner.single_hits`` would compute again.  The sets come
    in enumeration order and none is kept; the first value of visit
    that is not None stops the search and is returned.
    """
    size = len(rows)
    vertices = (1 << size) - 1
    nbrs = [vertices & ~row & ~(1 << i) for i, row in enumerate(rows)]

    def expand(r: int, p: int, x: int, once: int, twice: int) -> Any:
        if not p:
            return None if x else visit(r, once & ~twice & ~r)
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
            v = low.bit_length() - 1
            nb, row = nbrs[v], rows[v]
            found = expand(r | low, p & nb, x & nb, once | row, twice | once & row)
            if found is not None:
                return found
            p ^= low
            x |= low
            branch ^= low
        return None

    return expand(0, vertices, 0, 0, 0)


def maximal_rigid(model: CategoryModel) -> tuple[tuple[IndexTuple, ...], ...]:
    """All inclusion-maximal rigid sets, each its sorted summands, in label order."""
    sets: list[tuple[IndexTuple, ...]] = []
    _maximal_independent(model.conflict_rows, lambda t, single: sets.append(_labels(model, t)))
    return tuple(sorted(sets))


def count_maximal_rigid(model: CategoryModel) -> int:
    """The number of inclusion-maximal rigid sets, counted as they are found."""
    count = 0

    def visit(t: int, single: int) -> None:
        nonlocal count
        count += 1

    _maximal_independent(model.conflict_rows, visit)
    return count


def tilting_sets(model: CategoryModel) -> tuple[tuple[IndexTuple, ...], ...]:
    """Maximal rigid sets of a module model, all containing the projective-injectives.

    The projective-injective objects are extension-orthogonal to
    everything, so maximality forces their inclusion; this is checked.
    Raises ValueError when a set misses one, or for a model of another kind.
    """
    projinj = {z for z, _ in projinj_ideal(model)}
    sets = maximal_rigid(model)
    for t in sets:
        missing = projinj - set(t)
        if missing:
            raise ValueError(f"maximal rigid set {t} misses "
                             f"projective-injectives {sorted(missing)}")
    return sets


class _MutationScanner:
    """The mutation engine of one model, shared by every mutation path.

    For one maximal rigid set, a single pass over the summands finds the
    outside objects with exactly one conflict inside the set (the
    enumeration hands them over with each set it finds); the bucket
    of a summand x is those of them that conflict with x, and the
    replacements of x are the members of its bucket that conflict with
    every other compatible object.  Sets, buckets and summands are masks
    and bit positions over the model's object index.
    """

    def __init__(self, model: CategoryModel):
        self.model = model
        self.rows = model.conflict_rows
        # (b, a) -> mask of the middle terms of its exangle, or None without extension
        self._exchange: dict[tuple[int, int], int | None] = {}
        # x -> bucket -> step(x, bucket)
        self._steps: list[dict[int, tuple[int, tuple[tuple[tuple[int, int], int], ...]]]] = [
            {} for _ in self.rows]

    def single_hits(self, t: int) -> int:
        """Outside objects with exactly one conflict in the maximal rigid set t.

        The one check that a given set is maximal rigid: raises ValueError
        when two summands conflict, or when some outside object conflicts
        with no summand.
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
        if once & t or (t | once).bit_count() < len(rows):
            raise ValueError("mutation needs a maximal rigid set")
        return once & ~twice & ~t

    def candidates(self, x: int, bucket: int) -> int:
        """The members y of x's bucket that conflict with all of x and the bucket but y."""
        free = bucket | 1 << x
        found = 0
        for y in bit_indices(bucket):
            if not free & ~self.rows[y] & ~(1 << y):
                found |= 1 << y
        return found

    def step(self, x: int, bucket: int) -> tuple[int, tuple[tuple[tuple[int, int], int], ...]]:
        """The candidates of summand x and its links, settled once per (x, bucket).

        The links are the sorted (oriented end pair, middles mask) of the
        extensions between x and the members of its bucket.
        """
        steps = self._steps[x]
        found = steps.get(bucket)
        if found is None:
            links = sorted((pair, middles) for y in bit_indices(bucket) for pair in ((x, y), (y, x))
                           if (middles := self.exchange(*pair)) is not None)
            found = steps[bucket] = (self.candidates(x, bucket), tuple(links))
        return found

    def replacement(self, x: int, bucket: int) -> int | None:
        """The unique replacement of summand x, or None; raises when ambiguous.

        It reads ``candidates``, not ``step``: a replacement alone needs no exangle.
        """
        found = list(bit_indices(self.candidates(x, bucket)))
        if len(found) > 1:
            labels = self.model.objects
            raise ValueError(f"ambiguous mutation of {labels[x]}: candidates "
                             f"{[labels[y] for y in found]}")
        return found[0] if found else None

    def exchange(self, b: int, a: int) -> int | None:
        """The mask of the middle terms of the exangle realizing an extension of b by a.

        Only the kept mixes are computed: the scan needs the mask, and
        ``exchanges`` realizes the exangles it returns.
        """
        key = (b, a)
        if key not in self._exchange:
            model = self.model
            if model.ext_rows.out[b] >> a & 1:
                middles = middle_terms(model, model.objects[b], model.objects[a])
                self._exchange[key] = _mask(model, (lbl for level in middles for lbl in level))
            else:
                self._exchange[key] = None
        return self._exchange[key]

    def exchanges(self, x: int, bucket: int, rest: int) -> tuple[Exangle, ...]:
        """The linked exangles with middles inside the rest, ordered by their end terms."""
        objects = self.model.objects
        return tuple(sorted((realize(self.model, objects[b], objects[a])
                             for (b, a), middles in self.step(x, bucket)[1]
                             if not middles & ~rest), key=lambda e: (e.x0, e.xlast)))


def _scan_at(model: CategoryModel, t: tuple[IndexTuple, ...], x: IndexTuple):
    """A scanner of the model, with t, x and the replacement pool of x as bits.

    Raises ValueError unless t is a maximal rigid set of distinct summands with summand x.
    """
    if len(set(t)) != len(t):
        raise ValueError(f"repeated summands in the rigid set {t}")
    if x not in t:
        raise ValueError(f"{x} is not a summand of the rigid set")
    scan = _MutationScanner(model)
    tmask = _mask(model, t)
    i = model.index[x]
    return scan, tmask, i, scan.rows[i] & scan.single_hits(tmask)


def exchange_exangles(model: CategoryModel, t: tuple[IndexTuple, ...],
                      x: IndexTuple) -> tuple[Exangle, ...]:
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


def mutate(model: CategoryModel, t: tuple[IndexTuple, ...],
           x: IndexTuple) -> MutationResult | None:
    """Replace one summand of a maximal rigid set.

    Returns None when no replacement keeps the set maximal rigid (a
    legitimate outcome for some summands when d > 1); raises when the
    replacement is ambiguous.
    """
    scan, tmask, i, bucket = _scan_at(model, t, x)
    j = scan.replacement(i, bucket)
    if j is None:
        return None
    y = model.objects[j]
    rest = tmask & ~(1 << i)
    return MutationResult(summands=_labels(model, rest | 1 << j), replaced_by=y,
                          exchanges=scan.exchanges(i, bucket, rest))


def mutation_graph_dot(model: CategoryModel) -> str:
    """DOT digraph of the mutation graph: nodes are maximal rigid sets."""
    sets: list[tuple[int, int]] = []
    _maximal_independent(model.conflict_rows, lambda t, single: sets.append((t, single)))
    sets.sort(key=lambda entry: _labels(model, entry[0]))
    scan = _MutationScanner(model)
    names = [",".join(str(v) for v in lbl) for lbl in model.objects]
    ids: dict[int, str] = {}

    def set_id(mask: int) -> str:
        if mask not in ids:
            ids[mask] = "|".join(names[i] for i in bit_indices(mask))
        return ids[mask]

    edges = set()
    for tmask, single in sets:
        for x in bit_indices(tmask):
            y = scan.replacement(x, scan.rows[x] & single)
            if y is not None:
                new = tmask & ~(1 << x) | 1 << y
                edges.add(tuple(sorted((set_id(tmask), set_id(new)))))
    lines = ["digraph {"]
    for tmask, _ in sets:
        lines.append(f'  "{set_id(tmask)}";')
    for u, v in sorted(edges):
        lines.append(f'  "{u}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _premise_failure(base: CategoryModel, projinj: set[IndexTuple],
                     ap: CategoryModel, relf: CategoryModel):
    """The first failure of the correspondence premise, or None.

    The premise: the projective-injectives of the module model conflict
    with nothing; the quotient by them is the almost-positive model, by
    the comparer of ``equiv``; and the restricted cyclic model has the
    almost-positive model's objects and conflict rows.
    """
    labels, rows = base.objects, base.conflict_rows
    for z in sorted(projinj):
        row = rows[base.index[z]]
        if row:
            return ("projinj-conflict", z, labels[(row & -row).bit_length() - 1])
    failure = compare_to_model(quotient(base, projinj_ideal(base)), ap, {})
    if failure is not None:
        return failure
    if relf.objects != ap.objects:
        return ("tilting-image-mismatch", relf.kind, min(set(relf.objects) ^ set(ap.objects)))
    for x, got, want in zip(ap.objects, relf.conflict_rows, ap.conflict_rows):
        if got != want:
            diff = got ^ want
            return ("conflict-mismatch", relf.kind, x, ap.objects[(diff & -diff).bit_length() - 1])
    return None


def _scan_tilting(base: CategoryModel, projinj: set[IndexTuple], counters: dict[str, int]):
    """Mutate each tilting set, as it is found, at every live summand.

    Runs ``_maximal_independent`` with the scan as its visitor and returns
    the first counterexample, or None.  Each set comes with its single
    hits, and the bucket of a summand x is those of them that conflict
    with x.  A summand with an empty bucket has nothing to check; for the
    others the scanner's ``step`` gives the replacement candidates and the
    middles of the linked exchange exangles, and a set adds only the test
    that the middles lie in the rest.  A mutation edge t -> t' = t - x + y
    is checked where it is found: t' is maximal rigid when every other
    member of the bucket conflicts with y, and then y's bucket in t' is
    the members of x's bucket that conflict with y, plus x, so mutating
    t' at y must give back x.  That bucket is the key the scan uses at
    t', so ``step`` settles it once.  Adds the counts of
    ``correspondence_check`` to ``counters`` as it goes; a counterexample
    stops the scan with the counts it reached.
    """
    scan = _MutationScanner(base)
    rows = scan.rows
    live = ~_mask(base, projinj)
    counters.update(tilting_sets=0, set_size_min=len(rows), set_size_max=0,
                    exchange_exangles=0, mutations_checked=0)

    def visit(t: int, single: int):
        size = (t & live).bit_count()
        counters["tilting_sets"] += 1
        counters["set_size_min"] = min(counters["set_size_min"], size)
        counters["set_size_max"] = max(counters["set_size_max"], size)
        exchanges = 0
        failure = None
        for x in bit_indices(t & live):
            bucket = rows[x] & single
            if not bucket:
                continue
            cand, links = scan.step(x, bucket)
            rest = t ^ 1 << x
            for _, middles in links:
                if not middles & ~rest:
                    exchanges += 1
            if cand & (cand - 1):
                failure = ("ambiguous-mutation", _labels(base, t), base.objects[x],
                           list(_labels(base, cand)))
            elif cand:
                y = cand.bit_length() - 1
                if (bucket & ~rows[y] & ~cand
                        or scan.step(y, bucket & rows[y] | 1 << x)[0] != 1 << x):
                    failure = ("mutation-not-involutive", (_labels(base, t), base.objects[x]),
                               (_labels(base, rest | cand), base.objects[y]))
            if failure is not None:
                # the live summands of t below x passed; x got as far as its exchanges
                counters["exchange_exangles"] += exchanges
                counters["mutations_checked"] += 2 * (t & live & (1 << x) - 1).bit_count()
                return failure
        counters["exchange_exangles"] += exchanges
        # one verified pair for each of the two target models
        counters["mutations_checked"] += 2 * size
        return None

    return _maximal_independent(rows, visit)


def correspondence_check(d: int, n: int) -> VerificationReport:
    """Maximal rigid sets and their mutations transported along both quotients.

    Deleting the projective-injectives carries the tilting sets of the
    module model of A^d_{n+1} onto the maximal rigid sets of the
    almost-positive and the restricted cyclic model, and mutation goes
    along.  The premise is checked first, as a certificate: the
    projective-injectives conflict with nothing; the quotient by them is
    the almost-positive model, objects, hom and ext tables and exangles
    alike (``compare_to_model``, as in ``equiv``); and the restricted
    cyclic model has the same objects and conflict rows.  Maximal
    independent sets of a graph plus isolated vertices are those of the
    graph with the isolated vertices added, so this proves the bijection
    of sets, that buckets and replacements agree, and that the exchange
    exangles match.  One enumeration of the tilting sets then gives every
    count, and hands each set over with its single hits as it is found,
    so the mutation scan on the module model reads every bucket off one
    mask and holds no set.  Per set the scan counts the exchange pairs
    with middles in the rest, requires unique replacements, and checks at
    each mutation edge that the new set is maximal rigid and mutates back,
    so that mutation is checked to be an involution.

    ``mutations_checked`` counts the (set, live summand) pairs whose
    checks passed, once for each of the two targets, so a scan that stops
    early counts only what it verified.  Until an independent extension
    oracle exists, all three conflict tables read the intertwining
    predicate, so the certificate compares that predicate with itself.
    """
    def check(counters):
        base = module_model(d, n + 1)
        ap = almost_positive_model(d, n)
        relf = relative_f_model(d, n)
        projinj = {z for z, _ in projinj_ideal(base)}
        failure = _premise_failure(base, projinj, ap, relf)
        if failure is not None:
            return failure
        failure = _scan_tilting(base, projinj, counters)
        # every tilting set is a maximal rigid set of both targets, by the premise
        counters.update(ap_maximal_rigid=counters["tilting_sets"],
                        relf_maximal_rigid=counters["tilting_sets"])
        return failure
    return run_check("correspondence", d, n, check)

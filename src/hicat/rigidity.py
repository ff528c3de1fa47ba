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
from .quotients import QuotientModel, compare_to_model, injproj_ideal, quotient
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


#: step(x, bucket): the bare middles masks, the edge verdict and the candidates
_Step = tuple[tuple[int, ...], str | None, int]


class _MutationScanner:
    """The mutation engine of one model, shared by every mutation path.

    For one maximal rigid set, a single pass over the summands finds the
    outside objects with exactly one conflict inside the set (the
    enumeration hands them over with each set it finds); the bucket
    of a summand x is those of them that conflict with x, and the
    replacements of x are the members of its bucket that conflict with
    every other compatible object.  Sets, buckets and summands are masks
    and bit positions over the model's object index.

    ``step`` settles, once per (summand, bucket) key, all that the scan
    needs and that does not depend on the set: the middles of the links,
    the verdict of the mutation edge and the candidates.  Its cache is
    the only per-(summand, bucket) cache.
    """

    def __init__(self, model: CategoryModel):
        self.model = model
        self.rows = model.conflict_rows
        # (b, a) -> mask of the middle terms of its exangle, or None without extension
        self._exchange: dict[tuple[int, int], int | None] = {}
        # x -> bucket -> step(x, bucket)
        self._steps: list[dict[int, _Step]] = [{} for _ in self.rows]

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

    def step(self, x: int, bucket: int) -> _Step:
        """(middles, verdict, candidates) of summand x, settled once per (x, bucket).

        The middles are the masks of the ``links``, less those that meet x
        or the bucket, which no rest of x in a set with this key contains.
        The verdict is the failure of the mutation edge at x, or None: more
        than one candidate is ``ambiguous-mutation``; with one candidate y,
        the new set t - x + y must be maximal rigid (every other bucket
        member conflicts with y) and y's bucket there, the members of x's
        bucket that conflict with y plus x, must give back exactly x, or it
        is ``mutation-not-involutive``.  The new set's y and bucket are
        functions of (x, bucket), so one verdict serves every set with this
        key and still checks each of their edges.
        """
        steps = self._steps[x]
        found = steps.get(bucket)
        if found is None:
            cand = self.candidates(x, bucket)
            verdict = None
            if cand & (cand - 1):
                verdict = "ambiguous-mutation"
            elif cand:
                y = cand.bit_length() - 1
                row = self.rows[y]
                if bucket & ~row & ~cand or self.candidates(y, bucket & row | 1 << x) != 1 << x:
                    verdict = "mutation-not-involutive"
            away = bucket | 1 << x
            found = steps[bucket] = (tuple(m for _, m in self.links(x, bucket) if not m & away),
                                     verdict, cand)
        return found

    def links(self, x: int, bucket: int):
        """(oriented end pair, middles mask) of each extension between x and a bucket member."""
        for y in bit_indices(bucket):
            for pair in ((x, y), (y, x)):
                middles = self.exchange(*pair)
                if middles is not None:
                    yield pair, middles

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
                             for (b, a), middles in self.links(x, bucket)
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


def _premise_failure(q: QuotientModel, ap: CategoryModel, relf: CategoryModel):
    """The first failure of the correspondence premise, or None.

    q is the quotient of the module model by its injective-to-projective
    ideal, whose zero objects are the projective-injectives.  The premise:
    they conflict with nothing; q is the almost-positive model, by the
    comparer of ``equiv``; and the restricted cyclic model has the
    almost-positive model's objects and conflict rows.
    """
    base = q.base
    labels, rows = base.objects, base.conflict_rows
    for z in q.zero_objects:
        row = rows[base.index[z]]
        if row:
            return ("projinj-conflict", z, labels[(row & -row).bit_length() - 1])
    failure = compare_to_model(q, ap, {})
    if failure is not None:
        return failure
    if relf.objects != ap.objects:
        return ("tilting-image-mismatch", relf.kind, min(set(relf.objects) ^ set(ap.objects)))
    for x, got, want in zip(ap.objects, relf.conflict_rows, ap.conflict_rows):
        if got != want:
            diff = got ^ want
            return ("conflict-mismatch", relf.kind, x, ap.objects[(diff & -diff).bit_length() - 1])
    return None


def _scan_tilting(base: CategoryModel, projinj, counters: dict[str, int]):
    """Mutate each tilting set, as it is found, at every live summand.

    The live summands are those not among the labels projinj.  Runs
    ``_maximal_independent`` with the scan as its visitor and returns
    the first counterexample, or None.  Each set comes with its single
    hits, and the bucket of a summand x is those of them that conflict
    with x.  A summand with an empty bucket has nothing to check; for the
    others one lookup in the cache of the scanner's ``step`` gives the
    middles of the linked exchange exangles and the verdict of the
    mutation edge, and a set adds only the test that the middles lie in
    the rest, read against the complement of the set.  The edge t -> t' = t - x + y is checked
    where it is found, though its verdict is settled once per (x, bucket):
    y is the one candidate of (x, bucket), and whether t' is maximal
    rigid and y's bucket in t' both depend on the bucket alone, so the
    verdict is the same at every set with this key.  A cached failure
    becomes the counterexample of the set at hand.  Writes the counts of
    ``correspondence_check`` to ``counters`` when the enumeration returns;
    a counterexample stops the scan with the counts it reached.
    """
    scan = _MutationScanner(base)
    rows, steps, step = scan.rows, scan._steps, scan.step
    live = ~_mask(base, projinj)
    sets = size_max = exchanges = checked = 0
    size_min = len(rows)

    def visit(t: int, single: int):
        nonlocal sets, size_min, size_max, exchanges, checked
        summands = t & live
        size = summands.bit_count()
        sets += 1
        if size < size_min:
            size_min = size
        if size > size_max:
            size_max = size
        out = ~t
        linked = 0
        while summands:
            low = summands & -summands
            summands ^= low
            x = low.bit_length() - 1
            bucket = rows[x] & single
            if not bucket:
                continue
            middles, verdict, cand = steps[x].get(bucket) or step(x, bucket)
            for m in middles:
                if not m & out:
                    linked += 1
            if verdict is not None:
                # the live summands of t below x passed; x got as far as its exchanges
                exchanges += linked
                checked += 2 * (t & live & low - 1).bit_count()
                if verdict == "ambiguous-mutation":
                    return (verdict, _labels(base, t), base.objects[x], list(_labels(base, cand)))
                return (verdict, (_labels(base, t), base.objects[x]),
                        (_labels(base, t ^ low | cand), base.objects[cand.bit_length() - 1]))
        exchanges += linked
        # one verified pair for each of the two target models
        checked += 2 * size
        return None

    failure = _maximal_independent(rows, visit)
    counters.update(tilting_sets=sets, set_size_min=size_min, set_size_max=size_max,
                    exchange_exangles=exchanges, mutations_checked=checked)
    return failure


def correspondence_check(d: int, n: int) -> VerificationReport:
    """Maximal rigid sets and their mutations transported along both quotients.

    Deleting the projective-injectives carries the tilting sets of the
    module model of A^d_{n+1} onto the maximal rigid sets of the
    almost-positive and the restricted cyclic model, and mutation goes
    along.  The premise is checked first, as a certificate, on the
    quotient of the module model by its injective-to-projective ideal,
    whose zero objects are the projective-injectives: they conflict with
    nothing; the quotient is the almost-positive model, objects, hom and
    ext tables and exangles
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
        q = quotient(base, injproj_ideal(base))
        failure = _premise_failure(q, ap, relf)
        if failure is not None:
            return failure
        failure = _scan_tilting(base, q.zero_objects, counters)
        # every tilting set is a maximal rigid set of both targets, by the premise
        counters.update(ap_maximal_rigid=counters["tilting_sets"],
                        relf_maximal_rigid=counters["tilting_sets"])
        return failure
    return run_check("correspondence", d, n, check)

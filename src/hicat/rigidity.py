"""Rigid configurations, mutation, and the cross-model correspondences.

A set of objects is rigid when no ordered pair carries a nonzero
extension in the model's own extension structure.  Maximal rigid sets
are enumerated as maximal independent sets of the extension-conflict
graph; mutation exchanges one summand for the unique alternative that
keeps the set maximal rigid, witnessed by exchange d-exangles whose
middle terms stay inside the rest of the set.

Internally every set of objects is an integer bitmask over the model's
object index, read against the model's conflict rows; the objects are
sorted, so bit order is label order.  The enumeration gives each maximal
set as one int, ``rev << 2n | mask << n | single`` over the n objects: the
mask bit-reversed, the mask, and the outside objects with exactly one
conflict inside.  A descending sort of these ints is label order, and
``_unpack`` is the one reader of the format.  Labels are built only for
public results and counterexamples; there a rigid set is the sorted tuple
of its summands.
"""
from __future__ import annotations

from dataclasses import dataclass

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


def is_rigid(model: CategoryModel, summands) -> bool:
    """True when no ordered pair of summands has a nonzero extension."""
    m = _mask(model, summands)
    rows = model.conflict_rows
    return not any(rows[i] & m for i in bit_indices(m))


def _maximal_independent(rows: tuple[int, ...]) -> list[int]:
    """Maximal independent sets of a conflict graph, in label order, one int each.

    Pivoting Bron–Kerbosch (Bron–Kerbosch 1973; Tomita et al. 2006) on
    the complement masks: each step branches only on the vertices of P
    outside the neighbourhood of the pivot with most neighbours in P.
    Down the recursion it carries the vertices with at least one and
    with at least two conflicts in R, so each set comes with its single
    hits: the outside vertices with exactly one conflict inside, which
    ``_MutationScanner.single_hits`` would compute again.  Beside R it
    carries R bit-reversed over the n = len(rows) vertices, and each set
    is the one int ``rev << 2n | mask << n | single``; ``_unpack`` reads it.
    """
    size = len(rows)
    vertices = (1 << size) - 1
    nbrs = [vertices & ~row & ~(1 << i) for i, row in enumerate(rows)]
    # vertex v, bit-reversed over n bits and placed above the mask and the single hits
    flipped = [1 << 3 * size - 1 - v for v in range(size)]
    found: list[int] = []

    def expand(r: int, rev: int, p: int, x: int, once: int, twice: int) -> None:
        if not p:
            if not x:
                found.append(rev | r << size | once & ~twice & ~r)
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
            v = low.bit_length() - 1
            nb, row = nbrs[v], rows[v]
            expand(r | low, rev | flipped[v], p & nb, x & nb, once | row, twice | once & row)
            p ^= low
            x |= low
            branch ^= low

    expand(0, 0, vertices, 0, 0, 0)
    # maximal sets form an antichain, so label order puts first the set holding the
    # lowest vertex of their symmetric difference: the larger bit-reversed mask, which
    # leads each int
    found.sort(reverse=True)
    return found


def _unpack(entry: int, size: int) -> tuple[int, int]:
    """The (mask, single hits) of one set of ``_maximal_independent`` over size vertices."""
    full = (1 << size) - 1
    return entry >> size & full, entry & full


def maximal_rigid(model: CategoryModel) -> tuple[tuple[IndexTuple, ...], ...]:
    """All inclusion-maximal rigid sets, each its sorted summands, in label order."""
    rows = model.conflict_rows
    return tuple(_labels(model, _unpack(entry, len(rows))[0])
                 for entry in _maximal_independent(rows))


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
    rows = model.conflict_rows
    sets = [_unpack(entry, len(rows)) for entry in _maximal_independent(rows)]
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


def _scan_tilting(base: CategoryModel, tilts: list[int],
                  projinj: set[IndexTuple], counters: dict[str, int]):
    """Mutate every tilting set at every live summand: the first counterexample, or None.

    ``tilts`` holds the sets of ``_maximal_independent``, one int each,
    read with ``_unpack`` into the set's mask and its single hits.
    A summand with an empty bucket has nothing to check; for the others
    the scanner's ``step`` gives the replacement candidates and the middles
    of the linked exchange exangles, and a set adds only the test that the
    middles lie in the rest and the mutation edge.  An edge is kept only
    until its reverse arrives; the first edge left unmatched, in scan
    order, shows that mutation is not an involution.  Adds the scan counts
    of ``correspondence_check`` to ``counters`` as it goes.
    """
    scan = _MutationScanner(base)
    rows = scan.rows
    size = len(rows)
    live = ~_mask(base, projinj)
    # an edge end (set, summand) is the int set << width | summand index
    width = size.bit_length()

    def at(end: int):
        return _labels(base, end >> width), base.objects[end & (1 << width) - 1]

    # mutating (old set, x) gave (new set, y); mutating (new set, y) must give (old set, x).
    # An edge (new set, y) -> (old set, x) stays here until that reverse edge arrives.
    unmatched: dict[int, int] = {}
    for entry in tilts:
        t, single = _unpack(entry, size)
        exchanges = 0
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
                # the live summands of t below x passed; x got as far as its exchanges
                counters["exchange_exangles"] += exchanges
                counters["mutations_checked"] += 2 * (t & live & (1 << x) - 1).bit_count()
                return ("ambiguous-mutation", *at(t << width | x), list(_labels(base, cand)))
            if cand:
                edge = (rest | cand) << width | cand.bit_length() - 1
                source = t << width | x
                if unmatched.get(source) == edge:
                    del unmatched[source]
                else:
                    unmatched[edge] = source
        counters["exchange_exangles"] += exchanges
        # one verified pair for each of the two target models
        counters["mutations_checked"] += 2 * (t & live).bit_count()
    if unmatched:
        edge, source = next(iter(unmatched.items()))
        return ("mutation-not-involutive", at(source), at(edge))
    return None


def correspondence_check(d: int, n: int) -> VerificationReport:
    """Maximal rigid sets and their mutations transported along both quotients.

    Deleting the projective-injectives carries the tilting sets of the
    module model of A^d_{n+1} onto the maximal rigid sets of the
    almost-positive and the restricted cyclic model, and mutation goes
    along.  The premise is checked first, as a certificate: the
    projective-injectives conflict with nothing; the quotient by them is
    the almost-positive model, objects, hom and ext tables and exangles
    alike (``compare_to_model``, as in ``equiv``); and the restricted
    cyclic model has the same objects and conflict rows.  Maximal independent sets of a graph plus isolated
    vertices are those of the graph with the isolated vertices added, so
    this proves the bijection of sets, that buckets and replacements
    agree, and that the exchange exangles match.  One enumeration of the
    tilting sets then gives every count, and hands each set over with its
    single hits, so the mutation scan on the module model reads every
    bucket off one mask.  Per set the scan counts the exchange pairs with
    middles in the rest, requires unique replacements, and matches each
    mutation edge with its reverse, so that mutation is checked to be an
    involution.

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
        rows = base.conflict_rows
        tilts = _maximal_independent(rows)
        # not all maximal rigid sets have the same size once d reaches 3
        sizes = {_unpack(t, len(rows))[0].bit_count() - len(projinj) for t in tilts}
        counters.update(tilting_sets=len(tilts), ap_maximal_rigid=len(tilts),
                        relf_maximal_rigid=len(tilts), set_size_min=min(sizes),
                        set_size_max=max(sizes), exchange_exangles=0, mutations_checked=0)
        return _scan_tilting(base, tilts, projinj, counters)
    return run_check("correspondence", d, n, check)

"""The five finite combinatorial category models.

Each model is a finite set of tuple-labelled indecomposable objects with
0/1-valued hom and ext dimension predicates and a 0/1 composition scalar
on basis morphisms.  All nonzero hom spaces are one-dimensional, so a
morphism between direct sums is an integer matrix over the canonical
basis morphisms.

Every hom and ext rule is an interleaving of gapped tuples, so each kind
writes it once, as boxes: for a fixed label, each coordinate of the other
label must lie in an open interval set by the fixed one (one box, or two
for the cyclic hom and the cluster ext).  The rule has two readers, one
per question.  A single pair (``hom_dim``, ``ext_dim``) is tested against
the boxes and never builds a table.  A loop reads the whole table, built
a row at a time by ANDing per-coordinate prefix masks ("the objects whose
coordinate i is below v"), so a table costs O(N d) big-integer
operations.

Composition is one table keyed by object index, read a row at a time:
``compose_row(i, j)`` is the mask of the z with a nonzero composite
objects[i] -> objects[j] -> z.  The linear kinds AND two hom rows; the
cyclic kinds read it off the two boxes of the hom rule, the box of a hom
being its shift, since a composite is nonzero exactly when the shifts
add up.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .tuples import (
    IndexTuple,
    gen_derset_window,
    gen_modset,
    gen_nonconsec,
)

MODULE = "module"
DERIVED = "derived"
CLUSTER = "cluster"
ALMOST_POSITIVE = "almost-positive"
RELATIVE_F = "relative-f"

KINDS = (MODULE, DERIVED, CLUSTER, ALMOST_POSITIVE, RELATIVE_F)

#: Kinds whose labels live in the cyclically gapped family with modulus n + 2d + 1.
CYCLIC_KINDS = (CLUSTER, RELATIVE_F)


#: The two label slots of a rule: the first argument of hom_dim or ext_dim,
#: whose table row holds the answers, and the second.
FIRST, SECOND = 0, 1

#: A strict inequality (p, i, q, k, c) between two labels L_FIRST, L_SECOND:
#: L_p[i] < L_q[k] + c, with p != q.  A box is a tuple of them, and a rule
#: is a tuple of boxes; a pair is in the rule when it meets every
#: inequality of some box.
Box = tuple[tuple[int, int, int, int, int], ...]


def _interleaving(lower: int, d: int, shift: int = 0) -> Box:
    """The chain u_0 < v_0 < u_1 < v_1 < ... < u_d < v_d, u the lower slot.

    The entries of the first label are read shifted by ``shift``.
    """
    upper = 1 - lower
    c = shift if upper == FIRST else -shift  # the upper label's shift minus the lower's
    return (tuple((lower, i, upper, i, c) for i in range(d + 1))
            + tuple((upper, i, lower, i + 1, -c) for i in range(d)))


def _holds(rule: tuple[Box, ...], first: IndexTuple, second: IndexTuple) -> bool:
    """Whether the pair meets every inequality of some box of the rule."""
    labels = (first, second)
    for box in rule:
        for p, i, q, k, c in box:
            if not labels[p][i] < labels[q][k] + c:
                break
        else:
            return True
    return False


def bit_indices(mask: int):
    """Bit positions of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _prefix_masks(labels, width: int, span: int) -> tuple[int, list[list[int]], list[list[int]]]:
    """(base, below, above) over a list of labels of the given width.

    below[t][v - base] holds the labels whose coordinate t is < v and
    above[t][v - base] those whose coordinate t is > v.  No offset of a
    rule exceeds span, so the lists run from span below the smallest
    entry to span above the largest.
    """
    base = min((x[0] for x in labels), default=0) - span
    size = max((x[-1] for x in labels), default=0) + span + 2 - base
    full = (1 << len(labels)) - 1
    below, above = [], []
    for t in range(width):
        at = [0] * size
        for j, x in enumerate(labels):
            at[x[t] - base] |= 1 << j
        lt = [0]
        for mask in at:
            lt.append(lt[-1] | mask)
        below.append(lt)
        above.append([full ^ lt[v + 1] for v in range(size)])
    return base, below, above


@dataclass(frozen=True)
class BitRows:
    """A 0/1 table over a model's object order as integer bit-rows.

    Bit j of out[i] and bit i of into[j] are set when the table is
    nonzero at the ordered pair objects[i], objects[j].
    """
    out: tuple[int, ...]
    into: tuple[int, ...]


@dataclass(frozen=True)
class CategoryModel:
    """One of the five finite models.

    The object list is ordered lexicographically and immutable, so one
    index gives both bit order and label order; all queries are pure,
    so models are safe to share across threads.
    """
    kind: str
    d: int
    n: int
    window: tuple[int, int] | None
    objects: tuple[IndexTuple, ...]

    @property
    def modulus(self) -> int:
        """The cyclic modulus n + 2d + 1."""
        return self.n + 2 * self.d + 1

    @property
    def top(self) -> int:
        """Largest entry allowed in the module-model labels, n + 2d."""
        return self.n + 2 * self.d

    @cached_property
    def index(self) -> dict[IndexTuple, int]:
        """Each object's position in the object order, which is label order."""
        return {x: i for i, x in enumerate(self.objects)}

    @cached_property
    def _hom_rule(self) -> tuple[Box, ...]:
        """hom(x, y) = 1 when x - 1 and y interleave, in the kind's way."""
        d, m = self.d, self.modulus
        chain = _interleaving(FIRST, d, shift=-1)  # x_0 - 1 < y_0 < ... < x_d - 1 < y_d
        if self.kind == MODULE:
            return (chain,)
        bounded = chain + ((SECOND, d, FIRST, 0, m - 1),)  # and y_d < x_0 + m - 1
        if self.kind in CYCLIC_KINDS:
            # normalize_cyclic(x - 1) interleaves y in either order; when
            # x_0 = 1 it moves x_0 - 1 to m, which the bound y_d < m stands for
            return (bounded, _interleaving(SECOND, d, shift=-1))
        return (bounded,)

    @cached_property
    def _ext_rule(self) -> tuple[Box, ...]:
        """ext(b, a) = 1 when a and b interleave, in the kind's way."""
        d = self.d
        chain = _interleaving(SECOND, d)  # a_0 < b_0 < ... < a_d < b_d
        if self.kind == DERIVED:
            return (chain + ((FIRST, d, SECOND, 0, self.modulus),),)  # and b_d < a_0 + m
        if self.kind == CLUSTER:
            return (chain, _interleaving(FIRST, d))
        return (chain,)

    def _table(self, rule: tuple[Box, ...]) -> BitRows:
        # the masks are not kept: once built, the table serves every loop
        masks = _prefix_masks(self.objects, self.d + 1, self.modulus)
        return BitRows(self._read_rows(rule, FIRST, masks), self._read_rows(rule, SECOND, masks))

    def _read_rows(self, rule: tuple[Box, ...], fixed: int, masks) -> tuple[int, ...]:
        """Row r holds the labels whose pair with objects[r] in slot ``fixed`` is in the rule."""
        base, below, above = masks
        boxes = []
        for box in rule:
            # each inequality bounds one coordinate of the other label by
            # one coordinate of the fixed label plus an offset
            bounds = []
            for p, i, q, k, c in box:
                if p == fixed:  # fixed[i] < other[k] + c: other[k] > fixed[i] - c
                    bounds.append((above[k], i, -c - base))
                else:  # other[i] < fixed[k] + c
                    bounds.append((below[i], k, c - base))
            boxes.append(bounds)
        full = (1 << len(self.objects)) - 1
        rows = []
        for x in self.objects:
            row = 0
            for bounds in boxes:
                mask = full
                for prefix, s, offset in bounds:
                    mask &= prefix[x[s] + offset]
                row |= mask
            rows.append(row)
        return tuple(rows)

    @cached_property
    def hom_rows(self) -> BitRows:
        """The dense hom table: out[i] holds the targets of nonzero homs from objects[i]."""
        return self._table(self._hom_rule)

    @cached_property
    def ext_rows(self) -> BitRows:
        """The dense ext table: out[i] holds the a with ext_dim(objects[i], a) = 1."""
        return self._table(self._ext_rule)

    @cached_property
    def conflict_rows(self) -> tuple[int, ...]:
        """Bit j of row i is set when objects i and j have an extension in either order."""
        ext = self.ext_rows
        return tuple(out | into for out, into in zip(ext.out, ext.into))

    def __contains__(self, a: IndexTuple) -> bool:
        return a in self.index

    def _require(self, a: IndexTuple) -> None:
        if a not in self.index:
            raise ValueError(f"{a} is not an object of {self.kind}(d={self.d}, n={self.n})")

    def _indices(self, labels) -> list[int]:
        """The index of each label, read in one pass, so any iterable will do.

        The first label that is not an object raises ValueError.
        """
        index, found = self.index, []
        for a in labels:
            if a not in index:
                self._require(a)
            found.append(index[a])
        return found

    def _dim(self, table: str, rule: str, x: IndexTuple, y: IndexTuple) -> int:
        """One pair, read by its rule; a pair never builds a table, loops read the tables."""
        self._require(x)
        self._require(y)
        return 1 if _holds(getattr(self, rule), x, y) else 0

    def hom_dim(self, src: IndexTuple, tgt: IndexTuple) -> int:
        """Dimension (0 or 1) of the space of morphisms src -> tgt."""
        return self._dim("hom_rows", "_hom_rule", src, tgt)

    def ext_dim(self, b: IndexTuple, a: IndexTuple) -> int:
        """Dimension (0 or 1) of the extensions of the object b by the object a.

        A nonzero value is realized by a d-exangle running from a to b.
        """
        return self._dim("ext_rows", "_ext_rule", b, a)

    @cached_property
    def _hom_boxes(self) -> tuple[BitRows, ...]:
        """The hom table split by the boxes of its rule: box k holds the homs of shift k.

        The cyclic rule has two disjoint boxes, the lead box (shift 0) and
        the shifted box (shift 1), each read from the rule, not from
        ``hom_rows``.  A linear kind has one box, its hom table itself.
        """
        rule = self._hom_rule
        if len(rule) == 1:
            return (self.hom_rows,)
        return tuple(self._table((box,)) for box in rule)

    def compose_row(self, i: int, j: int) -> int:
        """The z with a nonzero composite objects[i] -> objects[j] -> z, as a mask.

        The one composition table, read a row at a time by index; it is
        defined for the composable pairs, those with a nonzero hom
        objects[i] -> objects[j], and lies in the hom row of objects[j].
        In the linear kinds a composite is nonzero exactly when the hom
        space it lands in is, so the row is the AND of two hom rows.  In
        the cyclic kinds it is not (``find_noncommuting_witness``): each
        hom has a shift, the box of the rule it lies in, and a composite
        x -> y -> z is nonzero exactly when shift(x, y) + shift(y, z) =
        shift(x, z).  This is Oppermann–Thomas's chain-position rule
        (2012), which ``test_cyclic_composition_from_rotation_table`` and
        ``test_cyclic_composition_rows_match_the_chain_position_rule``
        check against every rotation.  The row is ANDed with the hom row
        of objects[j] only, so that a composite off the hom row of
        objects[i] shows.
        """
        out = self.hom_rows.out
        boxes = self._hom_boxes
        if len(boxes) == 1:
            return out[i] & out[j]
        lead, shifted = boxes[0].out, boxes[1].out
        if lead[i] >> j & 1:
            return (lead[i] & lead[j] | shifted[i] & shifted[j]) & out[j]
        return shifted[i] & lead[j] & out[j]

    def compose_column(self, j: int, k: int) -> int:
        """The t with a nonzero composite t -> objects[j] -> objects[k], as a mask.

        The mirror of ``compose_row`` on the into rows: it is 0 unless
        objects[j] -> objects[k] is a nonzero hom, and lies in the hom
        column of objects[j].
        """
        hom = self.hom_rows
        if not hom.out[j] >> k & 1:
            return 0
        into = hom.into
        boxes = self._hom_boxes
        if len(boxes) == 1:
            return into[j] & into[k]
        lead, shifted = boxes[0].into, boxes[1].into
        if boxes[0].out[j] >> k & 1:
            return (lead[j] & lead[k] | shifted[j] & shifted[k]) & into[j]
        return lead[j] & shifted[k] & into[j]


def module_model(d: int, n: int) -> CategoryModel:
    """Model with gapped labels in [1, n + 2d]."""
    _check_params(d, n)
    return CategoryModel(MODULE, d, n, None, gen_modset(n + 2 * d, d))


def derived_model(d: int, n: int, window: tuple[int, int] | None = None) -> CategoryModel:
    """Finite window of the windowed family; default window is a_0 in [1, n + 2d + 1]."""
    _check_params(d, n)
    m = n + 2 * d + 1
    if window is None:
        window = (1, m)
    lo, hi = window
    if lo > hi:
        raise ValueError(f"window {lo}:{hi} is empty, need LO <= HI")
    return CategoryModel(DERIVED, d, n, (lo, hi), gen_derset_window(m, d, lo, hi))


def cluster_model(d: int, n: int) -> CategoryModel:
    """Cyclic model on the cyclically gapped labels with modulus n + 2d + 1."""
    _check_params(d, n)
    return CategoryModel(CLUSTER, d, n, None, gen_nonconsec(n + 2 * d + 1, d))


def almost_positive_model(d: int, n: int) -> CategoryModel:
    """Linear-chain model on the same label set as the cyclic model."""
    _check_params(d, n)
    return CategoryModel(ALMOST_POSITIVE, d, n, None, gen_nonconsec(n + 2 * d + 1, d))


def relative_f_model(d: int, n: int) -> CategoryModel:
    """Cyclic model with the restricted extension structure.

    Shares objects, homs and composition with the cyclic model; only
    ext_dim (and hence the realized d-exangles) differs.
    """
    _check_params(d, n)
    return CategoryModel(RELATIVE_F, d, n, None, gen_nonconsec(n + 2 * d + 1, d))


_FACTORIES = {
    MODULE: module_model,
    DERIVED: derived_model,
    CLUSTER: cluster_model,
    ALMOST_POSITIVE: almost_positive_model,
    RELATIVE_F: relative_f_model,
}


def make_model(kind: str, d: int, n: int,
               window: tuple[int, int] | None = None) -> CategoryModel:
    """Factory by kind name; window applies to the derived kind only."""
    if kind not in _FACTORIES:
        raise ValueError(f"unknown model kind {kind!r}, expected one of {KINDS}")
    if kind == DERIVED:
        return derived_model(d, n, window)
    if window is not None:
        raise ValueError(f"window is only supported for the derived kind, not {kind!r}")
    return _FACTORIES[kind](d, n)


def _check_params(d: int, n: int) -> None:
    if d < 1 or n < 1:
        raise ValueError(f"need d >= 1 and n >= 1, got d={d}, n={n}")

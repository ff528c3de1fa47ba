"""The injective-to-projective ideal and the quotients by it.

Both Oppermann–Thomas models become the almost-positive category on
dividing by one ideal: the morphisms factoring through an arrow from an
injective to a projective object.  ``injproj_ideal`` returns those
arrows, as sorted label pairs z1 -> z2, for the module model and for the
cyclic model with restricted extensions; ``quotient`` divides any model
by the ideal generated by any such set of arrows.  Since all hom spaces
are at most one-dimensional and composition scalars are 0/1, a single
admissible arrow suffices to witness membership in the ideal; closure
under composition is verified by tests rather than assumed.

A quotient is a model: its objects are the base objects whose identity
survives, and its hom and ext tables are the base tables on them, with
the killed basis morphisms cleared.  It keeps one record of the ideal,
``killed_rows``, from which the killed label pairs, the zero objects and
the tables are derived.  So ``realize``, the verifiers and the emitters
read a quotient like any model, and ``compare_to_model`` holds it to a
target model the same way on both sides.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any

from .exangles import compare_exangles, realize
from .models import (
    MODULE,
    RELATIVE_F,
    BitRows,
    CategoryModel,
    bit_indices,
)
from .tuples import IndexTuple

Arrows = tuple[tuple[IndexTuple, IndexTuple], ...]


def injproj_ideal(model: CategoryModel) -> Arrows:
    """The arrows with a nonzero hom from an injective to a projective object, sorted.

    A label is projective when a_0 = 1, and injective when a_d is the
    largest entry of its kind: ``top`` in the module model, ``modulus``
    in the restricted cyclic model.  No other kind has the ideal.
    """
    if model.kind == MODULE:
        top = model.top
    elif model.kind == RELATIVE_F:
        top = model.modulus
    else:
        raise ValueError(f"no ideal quotient is defined for the {model.kind} model")
    objects, out = model.objects, model.hom_rows.out
    targets = [j for j, a in enumerate(objects) if a[0] == 1]
    return tuple((z1, objects[j]) for i, z1 in enumerate(objects) if z1[-1] == top
                 for j in targets if out[i] >> j & 1)


def _squeeze(row: int, drop: tuple[int, ...]) -> int:
    """The row with the bit positions in drop deleted and the gaps closed; drop descends."""
    for i in drop:
        row = row >> (i + 1) << i | row & ((1 << i) - 1)
    return row


@dataclass(frozen=True)
class QuotientModel(CategoryModel):
    """An ideal quotient of a base model, itself a model.

    killed_rows[s] is the mask of the base objects t whose basis morphism
    from base object s lies in the ideal.  The quotient's objects are the
    base objects whose identity survives.  Its hom table is the base
    table with the killed basis morphisms cleared, its ext table the base
    table, both with the zero objects squeezed out; every pair is read
    from these tables.  A composite is the base one wherever both of its
    hom spaces survive: the model's own ``compose_row`` serves it, read
    off the base hom boxes restricted to the quotient's table.  So
    ``realize`` keeps the mixes that are nonzero objects of the
    quotient, as in any model.
    """
    base: CategoryModel
    killed_rows: tuple[int, ...]

    @cached_property
    def killed(self) -> frozenset[tuple[IndexTuple, IndexTuple]]:
        """The killed basis morphisms as label pairs."""
        objects = self.base.objects
        return frozenset((objects[s], objects[t])
                         for s, row in enumerate(self.killed_rows) for t in bit_indices(row))

    @property
    def zero_objects(self) -> tuple[IndexTuple, ...]:
        """The base objects whose identity is killed, in label order."""
        objects = self.base.objects
        return tuple(objects[i] for i in reversed(self._kept[1]))

    @cached_property
    def _kept(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(keep, drop): the base indices of the objects, and of the zero objects descending."""
        keep, drop = [], []
        for i, row in enumerate(self.killed_rows):
            (drop if row >> i & 1 else keep).append(i)
        return tuple(keep), tuple(reversed(drop))

    def _restrict(self, out, into) -> BitRows:
        """A base table on the quotient's objects: zero-object rows and bits deleted."""
        keep, drop = self._kept
        return BitRows(tuple(_squeeze(out[i], drop) for i in keep),
                       tuple(_squeeze(into[i], drop) for i in keep))

    @cached_property
    def hom_rows(self) -> BitRows:
        """The base hom table with the killed basis morphisms cleared."""
        rows = self.base.hom_rows
        into = list(rows.into)
        for i, row in enumerate(self.killed_rows):
            for j in bit_indices(row):
                into[j] &= ~(1 << i)
        return self._restrict([out & ~row for out, row in zip(rows.out, self.killed_rows)], into)

    @cached_property
    def ext_rows(self) -> BitRows:
        """The base ext table on the quotient's objects."""
        rows = self.base.ext_rows
        return self._restrict(rows.out, rows.into)

    def _dim(self, table: str, rule: str, x: IndexTuple, y: IndexTuple) -> int:
        # a quotient has no interval rule: a pair always reads its table
        self._require(x)
        self._require(y)
        return getattr(self, table).out[self.index[x]] >> self.index[y] & 1

    @cached_property
    def _hom_boxes(self) -> tuple[BitRows, ...]:
        """The base hom boxes on the quotient's objects, within its hom table.

        So a composite is the base one where both of its hom spaces survive.
        A linear kind's one box is its hom table, as in any model.
        """
        hom = self.hom_rows
        if len(self._hom_rule) == 1:
            return (hom,)
        boxes = (self._restrict(box.out, box.into) for box in self.base._hom_boxes)
        return tuple(BitRows(tuple(a & b for a, b in zip(box.out, hom.out)),
                             tuple(a & b for a, b in zip(box.into, hom.into))) for box in boxes)


def quotient(model: CategoryModel, arrows) -> QuotientModel:
    """The quotient of a model by the ideal generated by arrows, label pairs z1 -> z2.

    The arrows of the paper's two quotients are those of ``injproj_ideal``;
    any arrows of the model will do.  The labels are mapped to indices
    once; one that is not an object of the model raises ValueError.  The
    basis morphism s -> t is killed when, for some arrow z1 -> z2, the
    homs s -> z1 and s -> z2 are nonzero and so are the composites
    s -> z1 -> z2 and s -> z2 -> t; for an identity arrow (z, z) the unit
    law makes this the object rule.  Row s of ``killed_rows`` collects
    those t, and the zero objects are the s whose identity it holds.
    """
    ends = model._indices(z for arrow in arrows for z in arrow)
    pairs = tuple(zip(ends[::2], ends[1::2]))
    row = model.compose_row
    killed_rows = []
    for s, reach in enumerate(model.hom_rows.out):
        killed = 0
        for i, j in pairs:
            if reach >> i & reach >> j & 1 and row(s, i) >> j & 1:
                killed |= row(s, j)
        killed_rows.append(killed & reach)
    objects = tuple(a for i, a in enumerate(model.objects) if not killed_rows[i] >> i & 1)
    return QuotientModel(model.kind, model.d, model.n, model.window, objects,
                         base=model, killed_rows=tuple(killed_rows))


def compare_to_model(q: CategoryModel, target: CategoryModel,
                     counters: dict[str, int]) -> Any | None:
    """A quotient model against a target model, under the identity on labels.

    Checks that the two models have the same objects, that the hom and
    ext tables agree, and that the realized exangles agree termwise.  The
    tables are compared a row at a time; pairs are counted, and the first
    counterexample placed, in the order of product(objects, repeat=2).
    Returns the first counterexample, or None.
    """
    counters.update(objects=len(target.objects), hom_pairs=0, ext_pairs=0, exangles=0)
    if q.objects != target.objects:
        return ("object-sets", q.objects, target.objects)
    objects, size = target.objects, len(target.objects)
    rows = zip(objects, q.hom_rows.out, q.ext_rows.out, target.hom_rows.out, target.ext_rows.out)
    for b, q_hom, q_ext, hom, ext in rows:
        hom_diff = q_hom ^ hom
        bad = hom_diff | (q_ext ^ ext)
        first = (bad & -bad).bit_length() - 1 if bad else size
        for j in bit_indices(ext & ((1 << first) - 1)):
            counters["exangles"] += 1
            a = objects[j]
            mismatch = compare_exangles(realize(q, b, a), realize(target, b, a))
            if mismatch is not None:
                counters["hom_pairs"] += j + 1
                counters["ext_pairs"] += j + 1
                return ("exangle", b, a, mismatch)
        if not bad:
            counters["hom_pairs"] += size
            counters["ext_pairs"] += size
            continue
        a, want = objects[first], hom >> first & 1
        counters["hom_pairs"] += first + 1
        if hom_diff >> first & 1:
            counters["ext_pairs"] += first
            return ("hom", b, a, 1 - want, want)
        counters["ext_pairs"] += first + 1
        return ("ext", b, a)
    return None

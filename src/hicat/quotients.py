"""Factoring-through ideals and the resulting quotient models.

Both quotients divide by an ideal of morphisms factoring through a set
of admissible arrows: the identities of the projective-injective objects
of the module model, and the arrows from shifted projectives to
projective images in the cyclic model with restricted extensions.  An
ideal generated by objects is the one generated by their identity
arrows.  Since all hom spaces are at most one-dimensional and
composition scalars are 0/1, a single admissible arrow suffices to
witness membership in the ideal; closure under composition is verified
by tests rather than assumed.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any

from .exangles import Exangle, compare_exangles, realize
from .models import (
    MODULE,
    RELATIVE_F,
    BasisMorphism,
    BitRows,
    CategoryModel,
    MorphismMatrix,
    bit_indices,
)
from .tuples import IndexTuple


@dataclass(frozen=True)
class IdealSpec:
    """The ideal of a base model generated by a set of admissible arrows.

    The arrows are basis morphisms z1 -> z2 of the base, stored sorted;
    the ideal generated by a set of objects is the one generated by
    their identity arrows (z, z).
    """
    base: CategoryModel
    arrows: tuple[tuple[IndexTuple, IndexTuple], ...]

    def __post_init__(self):
        object.__setattr__(self, "arrows", tuple(sorted(self.arrows)))


def projinj_ideal(model: CategoryModel) -> IdealSpec:
    """The ideal generated by the projective-injective objects of a module model."""
    if model.kind != MODULE:
        raise ValueError(f"projective-injective ideal needs a module model, got {model.kind}")
    return IdealSpec(model, tuple((a, a) for a in model.objects
                                  if model.classify(a).projective and model.classify(a).injective))


def injproj_ideal(model: CategoryModel) -> IdealSpec:
    """The ideal generated by the arrows from shifted projectives to projective images."""
    if model.kind != RELATIVE_F:
        raise ValueError(f"arrow ideal needs the restricted cyclic model, got {model.kind}")
    sources = [a for a in model.objects if model.classify(a).shifted_projective]
    targets = [a for a in model.objects if model.classify(a).projective_image]
    return IdealSpec(model, tuple((z1, z2) for z1 in sources for z2 in targets
                                  if model.hom_dim(z1, z2) == 1))


def factors_through(model: CategoryModel, f: BasisMorphism, ideal: IdealSpec) -> bool:
    """Whether a basis morphism lies in the ideal.

    It does when some arrow z1 -> z2 of the ideal fits into source -> z1
    -> z2 -> target with nonzero partial composites.  For an identity
    arrow (z, z) the unit law makes this the object rule: basis morphisms
    source -> z -> target with nonzero composite.
    """
    src, tgt = f.source, f.target
    for z1, z2 in ideal.arrows:
        if model.hom_dim(src, z1) and model.hom_dim(z2, tgt) \
                and model.compose_scalar(src, z1, z2) and model.compose_scalar(src, z2, tgt):
            return True
    return False


@dataclass(frozen=True)
class QuotientModel:
    """An ideal quotient of a base model.

    The hom table keeps exactly the basis morphisms outside the ideal;
    extensions and realized exangles are inherited from the base, with
    middle summands that became zero objects deleted.
    """
    base: CategoryModel
    ideal: IdealSpec
    killed: frozenset[tuple[IndexTuple, IndexTuple]]
    zero_objects: tuple[IndexTuple, ...]

    @property
    def objects(self) -> tuple[IndexTuple, ...]:
        return self.base.objects

    @cached_property
    def nonzero_objects(self) -> tuple[IndexTuple, ...]:
        dead = set(self.zero_objects)
        return tuple(a for a in self.base.objects if a not in dead)

    @cached_property
    def hom_rows(self) -> BitRows:
        """The base hom table with the killed basis morphisms cleared."""
        index, rows = self.base.index, self.base.hom_rows
        out, into = list(rows.out), list(rows.into)
        for src, tgt in self.killed:
            i, j = index[src], index[tgt]
            out[i] &= ~(1 << j)
            into[j] &= ~(1 << i)
        return BitRows(tuple(out), tuple(into))

    @property
    def ext_rows(self) -> BitRows:
        return self.base.ext_rows

    def hom_dim(self, src: IndexTuple, tgt: IndexTuple) -> int:
        if self.base.hom_dim(src, tgt) == 0 or (src, tgt) in self.killed:
            return 0
        return 1

    def ext_dim(self, b: IndexTuple, a: IndexTuple) -> int:
        return self.base.ext_dim(b, a)

    def compose_scalar(self, x: IndexTuple, y: IndexTuple, z: IndexTuple) -> int:
        if self.hom_dim(x, y) == 0 or self.hom_dim(y, z) == 0:
            raise ValueError(f"no surviving basis morphisms along {x} -> {y} -> {z}")
        if self.base.compose_scalar(x, y, z) == 0 or (x, z) in self.killed:
            return 0
        return 1

    def exangle(self, b: IndexTuple, a: IndexTuple) -> Exangle:
        """Image of the base exangle with zero-object middle summands deleted."""
        return strip_zero_summands(realize(self.base, b, a), set(self.zero_objects))


def quotient(model: CategoryModel, ideal: IdealSpec) -> QuotientModel:
    """Build the quotient of a model by a factoring-through ideal."""
    if ideal.base is not model and ideal.base != model:
        raise ValueError("ideal was built over a different base model")
    objects = model.objects
    killed = set()
    for src, row in zip(objects, model.hom_rows.out):
        for j in bit_indices(row):
            if factors_through(model, BasisMorphism(src, objects[j]), ideal):
                killed.add((src, objects[j]))
    zero = tuple(a for a in model.objects if (a, a) in killed)
    return QuotientModel(base=model, ideal=ideal,
                         killed=frozenset(killed), zero_objects=zero)


def strip_zero_summands(e: Exangle, dead: set[IndexTuple]) -> Exangle:
    """Delete middle summands in the dead set, restricting the matrices."""
    keep_per_level = [[j for j, lbl in enumerate(level) if lbl not in dead]
                      for level in e.middles]
    new_middles = tuple(tuple(level[j] for j in keep)
                        for level, keep in zip(e.middles, keep_per_level))
    col_keep = [list(range(1))] + keep_per_level  # X_a column always survives
    row_keep = keep_per_level + [list(range(1))]  # X_b row always survives
    new_diffs = []
    for diff, rows, cols in zip(e.differentials, row_keep, col_keep):
        entries = tuple(tuple(diff.entries[i][j] for j in cols) for i in rows)
        new_diffs.append(MorphismMatrix(tuple(diff.source[j] for j in cols),
                                        tuple(diff.target[i] for i in rows),
                                        entries))
    return Exangle(model=e.model, x0=e.x0, xlast=e.xlast,
                   middles=new_middles, differentials=tuple(new_diffs))


def _squeeze(row: int, drop: tuple[int, ...]) -> int:
    """The row with the bit positions in drop deleted and the gaps closed; drop descends."""
    for i in drop:
        row = row >> (i + 1) << i | row & ((1 << i) - 1)
    return row


def compare_to_model(q: QuotientModel, target: CategoryModel,
                     counters: dict[str, int]) -> Any | None:
    """A quotient model against a target model, under the identity on labels.

    Checks that the nonzero objects of the quotient are the objects of the
    target, that the hom and ext tables agree, and that the realized
    exangles agree termwise once the quotient has deleted its zero-object
    middle summands.  The tables are compared a row at a time, with the
    quotient's zero objects squeezed out of its rows; pairs are counted,
    and the first counterexample placed, in the order of
    product(objects, repeat=2).  Returns the first counterexample, or None.
    """
    counters.update(objects=len(target.objects), hom_pairs=0, ext_pairs=0, exangles=0)
    if q.nonzero_objects != target.objects:
        return ("object-sets", q.nonzero_objects, target.objects)
    objects, size = target.objects, len(target.objects)
    dead = set(q.zero_objects)
    drop = tuple(i for i in reversed(range(len(q.objects))) if q.objects[i] in dead)
    q_rows = [(h, e) for x, h, e in zip(q.objects, q.hom_rows.out, q.ext_rows.out)
              if x not in dead]
    t_rows = zip(target.hom_rows.out, target.ext_rows.out)
    for b, (q_hom, q_ext), (hom, ext) in zip(objects, q_rows, t_rows):
        hom_diff = _squeeze(q_hom, drop) ^ hom
        bad = hom_diff | (_squeeze(q_ext, drop) ^ ext)
        first = (bad & -bad).bit_length() - 1 if bad else size
        for j in bit_indices(ext & ((1 << first) - 1)):
            counters["exangles"] += 1
            a = objects[j]
            mismatch = compare_exangles(q.exangle(b, a), realize(target, b, a))
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

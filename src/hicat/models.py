"""The five finite combinatorial category models.

Each model is a finite set of tuple-labelled indecomposable objects with
0/1-valued hom and ext dimension predicates and a 0/1 composition scalar
on basis morphisms.  All nonzero hom spaces are one-dimensional, so a
morphism between direct sums is an integer matrix over the canonical
basis morphisms.

Every hom and ext rule is an interleaving of gapped tuples, so each kind
writes it once, as boxes: for a fixed label, each coordinate of the other
label must lie in an open interval set by the fixed one (one box, or two
for the cyclic hom and the cluster ext).  The rule has two readers.  A
single pair is tested against the boxes.  A whole table is read a row at
a time, by ANDing per-coordinate prefix masks ("the objects whose
coordinate i is below v"), so a table costs O(N d) big-integer
operations; once it is built, the pair answers read its bits.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .tuples import (
    IndexTuple,
    gen_derset_window,
    gen_modset,
    gen_nonconsec,
    normalize_cyclic,
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


def _cyclic_compose(xs: tuple[IndexTuple, ...], ys: tuple[IndexTuple, ...],
                    zs: tuple[IndexTuple, ...], m: int) -> bool:
    """Composition criterion in the cyclic models.

    Scans the m rotated coordinate systems on [1, m], given as each
    tuple's m normalized rotations; the composite of the basis morphisms
    X -> Y -> Z is nonzero exactly when some rotation puts the three
    tuples in chain position

        x_i <= y_i,  y_i <= z_i,  z_i < x_{i+1} - 1,  z_d < x_0 + m - 1.
    """
    d = len(xs[0]) - 1
    for a, b, c in zip(xs, ys, zs):
        if not all(a[i] <= b[i] and b[i] <= c[i] for i in range(d + 1)):
            continue
        if not all(c[i] < a[i + 1] - 1 for i in range(d)):
            continue
        if c[d] < a[0] + m - 1:
            return True
    return False


@dataclass(frozen=True)
class ObjectClass:
    """Classification flags for a single object."""
    projective: bool = False
    injective: bool = False
    projective_image: bool = False
    shifted_projective: bool = False


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
    def _compose_cache(self) -> dict:
        return {}

    @cached_property
    def _rotations(self) -> dict:
        return {}

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

    def _prefix_masks(self) -> tuple[int, list[list[int]], list[list[int]]]:
        """(base, below, above) over the object order, for building one table.

        below[t][v - base] holds the objects whose coordinate t is < v and
        above[t][v - base] those whose coordinate t is > v.  No offset of a
        rule exceeds the modulus m, so the lists run from m below the
        smallest entry to m above the largest.
        """
        objects, span = self.objects, self.modulus
        base = min((x[0] for x in objects), default=0) - span
        size = max((x[-1] for x in objects), default=0) + span + 2 - base
        full = (1 << len(objects)) - 1
        below, above = [], []
        for t in range(self.d + 1):
            at = [0] * size
            for j, x in enumerate(objects):
                at[x[t] - base] |= 1 << j
            lt = [0]
            for mask in at:
                lt.append(lt[-1] | mask)
            below.append(lt)
            above.append([full ^ lt[v + 1] for v in range(size)])
        return base, below, above

    def _table(self, rule: tuple[Box, ...]) -> BitRows:
        # the masks are not kept: once built, the table answers every pair
        masks = self._prefix_masks()
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

    def _dim(self, table: str, rule: str, x: IndexTuple, y: IndexTuple) -> int:
        """One pair of a table: its bit once the table is built, else the rule.

        Both readers give the same answer; the bit is the cheaper one, and
        the grid workloads ask about pairs of models whose tables they have
        built (BENCH_13.json, pair_answers).  A pair never builds a table.
        """
        self._require(x)
        self._require(y)
        rows = self.__dict__.get(table)
        if rows is None:
            return 1 if _holds(getattr(self, rule), x, y) else 0
        return rows.out[self.index[x]] >> self.index[y] & 1

    def hom_dim(self, src: IndexTuple, tgt: IndexTuple) -> int:
        """Dimension (0 or 1) of the space of morphisms src -> tgt."""
        return self._dim("hom_rows", "_hom_rule", src, tgt)

    def ext_dim(self, b: IndexTuple, a: IndexTuple) -> int:
        """Dimension (0 or 1) of the extensions of the object b by the object a.

        A nonzero value is realized by a d-exangle running from a to b.
        """
        return self._dim("ext_rows", "_ext_rule", b, a)

    def compose_scalar(self, x: IndexTuple, y: IndexTuple, z: IndexTuple) -> int:
        """Scalar (0 or 1) of the composite of basis morphisms x -> y -> z."""
        key = (x, y, z)
        cached = self._compose_cache.get(key)
        if cached is None:
            # only composable triples enter the cache, so a hit needs no check
            if self.hom_dim(x, y) == 0 or self.hom_dim(y, z) == 0:
                raise ValueError(f"no basis morphisms along {x} -> {y} -> {z}")
            if self.kind in CYCLIC_KINDS:
                cached = _cyclic_compose(self._rotated(x), self._rotated(y),
                                         self._rotated(z), self.modulus)
            else:
                # in the linear kinds a composite is nonzero exactly when
                # the hom space it lands in is
                cached = self.hom_dim(x, z) == 1
            self._compose_cache[key] = cached
        return 1 if cached else 0

    def _rotated(self, x: IndexTuple) -> tuple[IndexTuple, ...]:
        """The m normalized rotations x + k, k = 0 .. m - 1, computed once per tuple."""
        rotations = self._rotations.get(x)
        if rotations is None:
            m = self.modulus
            rotations = self._rotations[x] = tuple(
                normalize_cyclic(tuple(v + k for v in x), m) for k in range(m))
        return rotations

    def classify(self, a: IndexTuple) -> ObjectClass:
        """Projectivity and shift flags for one object."""
        self._require(a)
        if self.kind == MODULE:
            return ObjectClass(projective=a[0] == 1, injective=a[-1] == self.top)
        return ObjectClass(projective_image=a[0] == 1,
                           shifted_projective=a[-1] == self.modulus)


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


@dataclass(frozen=True)
class BasisMorphism:
    """The canonical basis morphism of a one-dimensional hom space."""
    source: IndexTuple
    target: IndexTuple


def basis_morphism(model: CategoryModel, src: IndexTuple, tgt: IndexTuple) -> BasisMorphism:
    """Construct the basis morphism src -> tgt, requiring hom_dim = 1."""
    if model.hom_dim(src, tgt) != 1:
        raise ValueError(f"hom space {src} -> {tgt} is zero in {model.kind}")
    return BasisMorphism(src, tgt)


def compose(model: CategoryModel, g: BasisMorphism, f: BasisMorphism) -> int:
    """Scalar of g after f; the middle objects must agree."""
    if f.target != g.source:
        raise ValueError(f"cannot compose {g.source} -> {g.target} after {f.source} -> {f.target}")
    return model.compose_scalar(f.source, f.target, g.target)


@dataclass(frozen=True)
class MorphismMatrix:
    """A morphism between direct sums, over the canonical hom bases.

    Row i, column j scales the basis morphism source[j] -> target[i];
    entries are forced to 0 where the hom space vanishes.
    """
    source: tuple[IndexTuple, ...]
    target: tuple[IndexTuple, ...]
    entries: tuple[tuple[int, ...], ...]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.target), len(self.source))

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.entries for v in row)


def morphism_matrix(model: CategoryModel,
                    source: tuple[IndexTuple, ...],
                    target: tuple[IndexTuple, ...],
                    entries) -> MorphismMatrix:
    """Validated matrix constructor: zero entries wherever hom_dim is zero."""
    rows = tuple(tuple(int(v) for v in row) for row in entries)
    if len(rows) != len(target) or any(len(row) != len(source) for row in rows):
        raise ValueError(f"matrix shape {len(rows)}x? does not match "
                         f"{len(target)}x{len(source)}")
    for i, t in enumerate(target):
        for j, s in enumerate(source):
            if rows[i][j] != 0 and model.hom_dim(s, t) == 0:
                raise ValueError(f"nonzero entry at zero hom space {s} -> {t}")
    return MorphismMatrix(source, target, rows)


def zero_matrix(source: tuple[IndexTuple, ...],
                target: tuple[IndexTuple, ...]) -> MorphismMatrix:
    return MorphismMatrix(source, target,
                          tuple(tuple(0 for _ in source) for _ in target))


def identity_matrix(labels: tuple[IndexTuple, ...]) -> MorphismMatrix:
    return MorphismMatrix(labels, labels,
                          tuple(tuple(1 if i == j else 0 for j in range(len(labels)))
                                for i in range(len(labels))))


def compose_matrices(model: CategoryModel, g: MorphismMatrix, f: MorphismMatrix) -> MorphismMatrix:
    """Matrix composite with the model's composition scalars as structure constants."""
    if f.target != g.source:
        raise ValueError("shape mismatch: target of the first factor must equal "
                         "source of the second")
    entries = []
    for i, u in enumerate(g.target):
        row = []
        for k, s in enumerate(f.source):
            total = 0
            for j, y in enumerate(f.target):
                coeff = g.entries[i][j] * f.entries[j][k]
                if coeff != 0:
                    total += coeff * model.compose_scalar(s, y, u)
            row.append(total)
        entries.append(tuple(row))
    return MorphismMatrix(f.source, g.target, tuple(entries))

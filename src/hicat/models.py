"""The five finite combinatorial category models.

Each model is a finite set of tuple-labelled indecomposable objects with
0/1-valued hom and ext dimension predicates and a 0/1 composition scalar
on basis morphisms.  All nonzero hom spaces are one-dimensional, so a
morphism between direct sums is an integer matrix over the canonical
basis morphisms.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .tuples import (
    IndexTuple,
    gen_derset_window,
    gen_modset,
    gen_nonconsec,
    intertwines,
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


def _minus_one(a: IndexTuple) -> IndexTuple:
    return tuple(v - 1 for v in a)


def _chain_hom(src: IndexTuple, tgt: IndexTuple) -> bool:
    # b_0 - 1 < a_0 < b_1 - 1 < a_1 < ... < b_d - 1 < a_d for src = B, tgt = A
    return intertwines(_minus_one(src), tgt)


def _chain_hom_bounded(src: IndexTuple, tgt: IndexTuple, m: int) -> bool:
    # the linear chain plus the wrap bound a_d < b_0 + m - 1
    return _chain_hom(src, tgt) and tgt[-1] < src[0] + m - 1


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
    def _hom_cache(self) -> dict:
        return {}

    @cached_property
    def _rotations(self) -> dict:
        return {}

    def _bit_rows(self, dim) -> BitRows:
        """The table of a 0/1 dimension method, from one call per ordered pair."""
        objects = self.objects
        out = [0] * len(objects)
        into = [0] * len(objects)
        for i, x in enumerate(objects):
            for j, y in enumerate(objects):
                if dim(x, y):
                    out[i] |= 1 << j
                    into[j] |= 1 << i
        return BitRows(tuple(out), tuple(into))

    @cached_property
    def hom_rows(self) -> BitRows:
        """The dense hom table: out[i] holds the targets of nonzero homs from objects[i]."""
        return self._bit_rows(self.hom_dim)

    @cached_property
    def ext_rows(self) -> BitRows:
        """The dense ext table: out[i] holds the a with ext_dim(objects[i], a) = 1."""
        return self._bit_rows(self.ext_dim)

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

    def hom_dim(self, src: IndexTuple, tgt: IndexTuple) -> int:
        """Dimension (0 or 1) of the space of morphisms src -> tgt."""
        cached = self._hom_cache.get((src, tgt))
        if cached is None:
            # only pairs of objects enter the cache, so a hit needs no check
            self._require(src)
            self._require(tgt)
            if self.kind in CYCLIC_KINDS:
                # cyclic intertwining of the shifted source with the target;
                # on canonical representatives this is plain interleaving in
                # one order or the other (the shift scan adds nothing)
                shifted = normalize_cyclic(_minus_one(src), self.modulus)
                cached = intertwines(shifted, tgt) or intertwines(tgt, shifted)
            elif self.kind == MODULE:
                cached = _chain_hom(src, tgt)
            else:
                cached = _chain_hom_bounded(src, tgt, self.modulus)
            self._hom_cache[(src, tgt)] = cached
        return 1 if cached else 0

    def ext_dim(self, b: IndexTuple, a: IndexTuple) -> int:
        """Dimension (0 or 1) of the extensions of the object b by the object a.

        A nonzero value is realized by a d-exangle running from a to b.
        """
        self._require(b)
        self._require(a)
        if self.kind in (MODULE, ALMOST_POSITIVE, RELATIVE_F):
            ok = intertwines(a, b)
        elif self.kind == DERIVED:
            ok = intertwines(a, b) and b[-1] < a[0] + self.modulus
        else:
            ok = intertwines(a, b) or intertwines(b, a)
        return 1 if ok else 0

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

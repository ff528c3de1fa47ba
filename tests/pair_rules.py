"""The hom and ext rules one pair at a time, as the models once computed them.

A reference for the interval rules of ``hicat.models``, which read the
same rules a whole row at a time, and for the helpers that put a
one-value change into a model's table, read one composite by label or
read a column of composites off the rows.  It also holds the label-level
references of ``hicat.exangles``: the mixing of two tuples and the
complex condition as a matrix product.
"""
from hicat.models import CLUSTER, CYCLIC_KINDS, DERIVED, MODULE, BitRows, bit_indices
from hicat.tuples import intertwines, normalize_cyclic


def _minus_one(a):
    return tuple(v - 1 for v in a)


def _chain_hom(src, tgt):
    # b_0 - 1 < a_0 < b_1 - 1 < a_1 < ... < b_d - 1 < a_d for src = B, tgt = A
    return intertwines(_minus_one(src), tgt)


def _chain_hom_bounded(src, tgt, m):
    # the linear chain plus the wrap bound a_d < b_0 + m - 1
    return _chain_hom(src, tgt) and tgt[-1] < src[0] + m - 1


def reference_hom(model, src, tgt) -> int:
    if model.kind in CYCLIC_KINDS:
        # cyclic intertwining of the shifted source with the target; on
        # canonical representatives this is plain interleaving in one order
        # or the other
        shifted = normalize_cyclic(_minus_one(src), model.modulus)
        ok = intertwines(shifted, tgt) or intertwines(tgt, shifted)
    elif model.kind == MODULE:
        ok = _chain_hom(src, tgt)
    else:
        ok = _chain_hom_bounded(src, tgt, model.modulus)
    return 1 if ok else 0


def reference_ext(model, b, a) -> int:
    if model.kind == DERIVED:
        ok = intertwines(a, b) and b[-1] < a[0] + model.modulus
    elif model.kind == CLUSTER:
        ok = intertwines(a, b) or intertwines(b, a)
    else:
        ok = intertwines(a, b)
    return 1 if ok else 0


def with_bit(rows: BitRows, i: int, j: int, value: int) -> BitRows:
    """The table with its entry at the pair (i, j) set to value."""
    out, into = list(rows.out), list(rows.into)
    out[i] = out[i] & ~(1 << j) | value << j
    into[j] = into[j] & ~(1 << i) | value << i
    return BitRows(tuple(out), tuple(into))


def composite(model, x, y, z) -> int:
    """The composite scalar of basis morphisms x -> y -> z, read from ``compose_row``."""
    index = model.index
    return model.compose_row(index[x], index[y]) >> index[z] & 1


def column_from_rows(model, j: int, k: int) -> int:
    """The t with a nonzero composite t -> objects[j] -> objects[k], as a mask.

    Bit t is read off ``compose_row(t, j)`` at each t with a nonzero hom
    to objects[j]: the column as the rows give it.
    """
    col = 0
    for t in bit_indices(model.hom_rows.into[j]):
        col |= (model.compose_row(t, j) >> k & 1) << t
    return col


def m_mix(I, a, b):
    """Mix two tuples: take a_i at the positions in I, b_i elsewhere.

    The result is a raw tuple; it is not validated against any family.
    """
    if len(a) != len(b):
        raise ValueError(f"tuples of different lengths: {a}, {b}")
    idx = set(I)
    if not idx <= set(range(len(a))):
        raise ValueError(f"mixing positions {sorted(idx)} outside 0..{len(a) - 1}")
    return tuple(a[i] if i in idx else b[i] for i in range(len(a)))


def composes_to_zero(e) -> bool:
    """The complex condition by brute-force matrix products over ``composite``.

    Each pair of consecutive differentials is multiplied out entry by
    entry, by label; a nonzero entry whose hom space is zero (``hom_dim``)
    raises ValueError.
    """
    model, terms, diffs = e.model, e.terms, e.differentials
    for diff, sources, targets in zip(diffs, terms, terms[1:]):
        for y, row in zip(targets, diff):
            for x, v in zip(sources, row):
                if v and not model.hom_dim(x, y):
                    raise ValueError(f"no basis morphisms along {x} -> {y}")
    for p, (f, g) in enumerate(zip(diffs, diffs[1:])):
        sources, middles, targets = terms[p:p + 3]
        for i, z in enumerate(targets):
            for k, x in enumerate(sources):
                total = sum(g[i][j] * f[j][k] * composite(model, x, y, z)
                            for j, y in enumerate(middles) if g[i][j] and f[j][k])
                if total:
                    return False
    return True

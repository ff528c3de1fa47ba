"""Cyclic intertwining by brute force, an oracle for the tuple and model tests."""
from hicat.tuples import intertwines, normalize_cyclic


def intertwines_cyclic(a, b, m):
    """Cyclic intertwining: some simultaneous shift interleaves the tuples.

    Scans all m simultaneous shifts; the pair intertwines when some shift
    puts the normalized representatives in strict interleaving position
    (in either order).  Entries must already lie in [1, m].
    """
    for t in (a, b):
        if any(v < 1 or v > m for v in t):
            raise ValueError(f"entries of {t} outside [1, {m}]")
    for k in range(m):
        na = normalize_cyclic(tuple(v + k for v in a), m)
        nb = normalize_cyclic(tuple(v + k for v in b), m)
        if intertwines(na, nb) or intertwines(nb, na):
            return True
    return False

"""The named group catalog used by the verification suites.

Base entries: C_n (n <= 32), dihedral D_n (n <= 16, order 2n), Q8, S_n and
A_n (n <= 7), V4, GL(2,2), GL(2,3), SL(2,3), SL(2,5), U(3,p) for p in
{2,3,5}; derived entries are all pairwise direct products under an order
cap. Groups are built once per process and cached, with deterministic names
and ordering.
"""

from __future__ import annotations

from functools import lru_cache

from .core import direct_product, group_from_perm_generators
from .families import (
    alternating_group,
    cyclic_group,
    dihedral_group,
    klein_group,
    quaternion_group,
    symmetric_group,
)
from .matgroups import gl_group, sl_group, unitriangular_group


@lru_cache(maxsize=None)
def base_catalog():
    """Base (name, group) entries in deterministic order."""
    entries = []
    for n in range(1, 33):
        entries.append((f"C{n}", cyclic_group(n)))
    for n in range(3, 17):
        entries.append((f"D{n}", dihedral_group(n)))
    entries.append(("Q8", quaternion_group()))
    for n in range(1, 8):
        entries.append((f"S{n}", symmetric_group(n)))
    for n in range(1, 8):
        entries.append((f"A{n}", alternating_group(n)))
    entries.append(("V4", klein_group()))
    entries.append(("GL(2,2)", gl_group(2, 2)))
    entries.append(("GL(2,3)", gl_group(2, 3)))
    entries.append(("SL(2,3)", sl_group(2, 3)))
    entries.append(("SL(2,5)", sl_group(2, 5)))
    for p in (2, 3, 5):
        entries.append((f"U(3,{p})", unitriangular_group(3, p)))
    return tuple(entries)


@lru_cache(maxsize=None)
def _catalog_at(cap):
    base = [(n, g) for n, g in base_catalog() if g.order <= cap]
    entries = list(base)
    for i, (na, ga) in enumerate(base):
        for nb, gb in base[i:]:
            if ga.order * gb.order <= cap:
                entries.append((f"{na} x {nb}", direct_product(ga, gb)))
    return tuple(entries)


def catalog(max_order=200):
    """Catalog entries with order <= max_order, pairwise products included.

    Products run over unordered pairs of base entries (self-pairs allowed).
    Smaller requests reuse the groups built for the standard cap of 200, so
    per-group caches are shared across suites.
    """
    cap = max(max_order, 200)
    return tuple((n, g) for n, g in _catalog_at(cap) if g.order <= max_order)


@lru_cache(maxsize=None)
def transitive_catalog(max_degree=6):
    """Catalog groups holding a transitive permutation representation of
    degree d <= max_degree, as (name, group, degree) triples."""
    out = []
    for d in range(1, max_degree + 1):
        out.append((f"C{d}", _regular_cyclic(d), d))
        out.append((f"S{d}", symmetric_group(d), d))
        if d >= 3:
            out.append((f"A{d}", alternating_group(d), d))
            out.append((f"D{d}", dihedral_group(d), d))
    out.append(("V4", klein_group(), 4))
    out.sort(key=lambda t: (t[2], t[0]))
    return tuple(out)


def _regular_cyclic(n):
    if n == 1:
        return group_from_perm_generators(1, [], name="C1")
    cyc = "(" + " ".join(str(i) for i in range(1, n + 1)) + ")"
    return group_from_perm_generators(n, [cyc], name=f"C{n}")

"""Brute-force reference implementations used only for cross-validation.

Both this module and the main path treat normal subgroups as unions of
conjugacy classes, so both rest on `core.conjugacy_classes`. What still
differs is the search: the main path grows class spans from single-class
closures, visiting each class once, and joins them; the oracle enumerates
every identity-containing union of classes exhaustively, with infeasible
branches pruned through an all-pairs class-product table. Each branch adds
one class to a product-closed set and grows the closure from that class,
reading only the table entries that involve a class it gained. The classes
of a quotient are shared code too: `oracle_D` decides `is_simple` on
quotients of G, whose classes `core.conjugacy_classes` fuses from G's. The
shared class partition, its fusion into quotients and the spans are
checked against element-level closures and brute-force conjugation in the
tests, so agreement here is still meaningful evidence. Performance is a
non-goal; the enumeration is exponential in the class count.
"""

from __future__ import annotations

from .core import Subgroup, class_index_of, conjugacy_classes, quotient, is_abelian
from .errors import TooManyClasses
from .normal import is_simple

ORACLE_CLASS_CAP = 16


def _class_product_masks(G):
    """masks[i][j] = bitmask of classes hit by products x*y, x in c_i, y in c_j.

    One representative of c_i suffices on the left: the hit set of c_i * c_j
    is conjugation invariant.
    """
    classes = conjugacy_classes(G)
    cls_of = class_index_of(G)
    c = len(classes)
    masks = [[0] * c for _ in range(c)]
    for i in range(c):
        xi = classes[i][0]
        for j in range(c):
            m = 0
            for y in classes[j]:
                m |= 1 << cls_of[G.mul(xi, y)]
            masks[i][j] = m
    return masks


def _closed_class_masks(G, max_classes):
    classes = conjugacy_classes(G)
    c = len(classes)
    if c > max_classes:
        raise TooManyClasses(
            f"{G.name}: {c} conjugacy classes exceed oracle cap {max_classes}")
    masks = _class_product_masks(G)

    def grow(closed, k):
        """Smallest product-closed class set containing the product-closed
        set `closed` and class k.

        Each class the closure gains is visited once and multiplied by every
        class present at that point. The products c_i * c_j and c_j * c_i hit
        the same classes (xy and yx are conjugate), so every pair that
        involves a gained class is read when the later of the two is
        visited, and pairs inside `closed` are never read again.
        """
        mask = closed | 1 << k
        todo = 1 << k
        while todo:
            low = todo & -todo
            todo ^= low
            row = masks[low.bit_length() - 1]
            hit = 0
            rest = mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                hit |= row[bit.bit_length() - 1]
            new = hit & ~mask
            mask |= new
            todo |= new
        return mask

    out = []

    def extend(k, closed, excluded):
        # closed: class-closure of everything included so far
        if k == c:
            out.append(closed)
            return
        bit = 1 << k
        if closed & bit:
            extend(k + 1, closed, excluded)
            return
        grown = grow(closed, k)
        if not grown & excluded:
            extend(k + 1, grown, excluded)
        extend(k + 1, closed, excluded | bit)

    extend(1, 1, 0)
    return sorted(out)


def oracle_normal_subgroups(G, max_classes=ORACLE_CLASS_CAP):
    """All normal subgroups, by exhaustive class-subset enumeration, as a
    tuple sorted by (order, members).

    The tuple is kept on G, since a lattice check, `oracle_D` and the
    first step of `oracle_length` all ask for the same group's; a later
    call with a cap below G's class count still raises.
    """
    classes = conjugacy_classes(G)
    cached = G._cache.get("oracle_normals")
    if cached is not None and len(classes) <= max_classes:
        return cached
    subs = []
    for mask in _closed_class_masks(G, max_classes):
        members = []
        i = 0
        m = mask
        while m:
            if m & 1:
                members.extend(classes[i])
            m >>= 1
            i += 1
        subs.append(Subgroup(G, members, normal=True))
    subs.sort(key=lambda s: (s.order, s.members))
    subs = tuple(subs)
    G._cache["oracle_normals"] = subs
    return subs


def oracle_D(G, max_classes=ORACLE_CLASS_CAP):
    """Definition-direct generalized derived subgroup.

    Builds every quotient explicitly and intersects exactly the kernels whose
    quotient is abelian or simple.
    """
    inter = frozenset(range(G.order))
    for N in oracle_normal_subgroups(G, max_classes=max_classes):
        Q, _ = quotient(G, N)
        if Q.order == 1 or is_abelian(Q) or is_simple(Q):
            inter = inter & N.member_set
    return Subgroup(G, inter, normal=True)


def oracle_length(G, max_classes=ORACLE_CLASS_CAP):
    """Iterate oracle_D down to the identity, counting steps."""
    cur = G
    steps = 0
    while cur.order > 1:
        d = oracle_D(cur, max_classes=max_classes)
        if d.order == cur.order:
            raise AssertionError("oracle series stalled")
        steps += 1
        if d.order == 1:
            break
        cur = d.as_group()
    return steps

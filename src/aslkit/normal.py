"""Normal subgroup structure: closures, lattices, simplicity, decompositions.

Every normal subgroup is a union of conjugacy classes, so normal subgroups
are handled as bitmasks over the class list of `conjugacy_classes`. One
primitive, `_span`, extends a normal subgroup A by generating classes: it
visits each class of the result once and reads each class product c_k * c_g
from one representative of the larger class times the smaller class. The normal
closure of a class c is the span of c over the trivial subgroup, and the
lattice is built by joining each member with every single-class closure,
which reaches every normal subgroup while staying proportional to the
lattice size rather than the (often huge) subgroup count.

Solvability and simplicity are decided at the element level first, from the
derived series, so solvable groups never reach the class layer: the solvable
radical of a solvable group is the group itself, and a group that is not
perfect is simple only when it is cyclic of prime order. Reference: Holt,
Eick and O'Brien, Handbook of Computational Group Theory (2005), ch. 3.
"""

from __future__ import annotations

import math

from .core import (
    Subgroup,
    class_index_of,
    commutator_subgroup,
    conjugacy_classes,
    factorize,
    full_subgroup,
    is_abelian,
    product_embedding,
    subgroup_derived,
)
from .errors import (
    DecompositionFailed,
    NotNormal,
    NotSimpleFactor,
    TooManyClasses,
    TrivialGroup,
)

LATTICE_CLASS_CAP = 64


class NormalLattice:
    """All normal subgroups of a group, sorted by (order, member set)."""

    def __init__(self, parent, subgroups):
        self.parent = parent
        self.subgroups = tuple(
            sorted(subgroups, key=lambda s: (s.order, s.members)))

    def __len__(self):
        return len(self.subgroups)

    def __iter__(self):
        return iter(self.subgroups)

    def inclusion_matrix(self):
        subs = self.subgroups
        return [[1 if a.member_set <= b.member_set else 0 for b in subs]
                for a in subs]

    def maximal_proper(self):
        """Proper members maximal under inclusion."""
        full = self.parent.order
        proper = [s for s in self.subgroups if s.order < full]
        out = []
        for s in proper:
            if not any(s.member_set < t.member_set for t in proper):
                out.append(s)
        return out


def _span(G, mask, gen_classes):
    """Class mask of A * <gen_classes>, where mask is a normal subgroup A.

    Every class k of the result is multiplied by each generating class g
    exactly once. The classes hit by c_k * c_g (= c_g * c_k as sets) are
    read from one representative of the larger class times every member of
    the smaller one; conjugation carries the rest of the product set onto
    these. Starting from A, right multiplication by generating classes
    reaches every element of A * <gen_classes>, so the fixpoint is the span.
    """
    classes = conjugacy_classes(G)
    cls_of = class_index_of(G)
    mul = G.mul
    full = (1 << len(classes)) - 1
    span = mask
    for g in gen_classes:
        span |= 1 << g
    todo = span
    while todo and span != full:
        low = todo & -todo
        todo ^= low
        ck = classes[low.bit_length() - 1]
        for g in gen_classes:
            cg = classes[g]
            if len(ck) >= len(cg):
                x, ys = ck[0], cg
            else:
                x, ys = cg[0], ck
            for y in ys:
                bit = 1 << cls_of[mul(x, y)]
                if not span & bit:
                    span |= bit
                    todo |= bit
    return span


def _class_members(G, mask):
    """Elements of the classes in mask."""
    classes = conjugacy_classes(G)
    members = []
    while mask:
        low = mask & -mask
        mask ^= low
        members.extend(classes[low.bit_length() - 1])
    return members


def _subgroup_of(G, mask):
    """Normal Subgroup whose members are the classes in mask."""
    return Subgroup(G, _class_members(G, mask), normal=True)


def _class_spans(G):
    """{class mask of <c^G>: c}, c the first class generating it."""
    spans = G._cache.get("class_spans")
    if spans is None:
        spans = {}
        for c in range(len(conjugacy_classes(G))):
            spans.setdefault(_span(G, 1, (c,)), c)
        G._cache["class_spans"] = spans
    return spans


def class_closures(G):
    """Normal closure of each single conjugacy class, deduplicated.

    The subgroup generated by a class is already normal, so its closure is
    the span of that class over the trivial subgroup.
    """
    return tuple(sorted((_subgroup_of(G, mask) for mask in _class_spans(G)),
                        key=lambda s: (s.order, s.members)))


def all_normal_subgroups(G, max_classes=LATTICE_CLASS_CAP):
    """Complete NormalLattice: joins of members with single-class closures.

    Every normal subgroup is the join of the closures of its classes, so
    joining each new member with every class closure reaches all of them.
    """
    lat = G._cache.get("normal_lattice")
    if lat is not None:
        return lat
    ncl = len(conjugacy_classes(G))
    if ncl > max_classes:
        raise TooManyClasses(
            f"{G.name}: {ncl} conjugacy classes exceed cap {max_classes}")
    spans = _class_spans(G)
    found = set(spans)
    worklist = list(found)
    while worklist:
        new = []
        for a in worklist:
            for b, c in spans.items():
                if a & b == b or a & b == a:
                    continue
                j = _span(G, a, (c,))
                if j not in found:
                    found.add(j)
                    new.append(j)
        worklist = new
    lat = NormalLattice(G, [_subgroup_of(G, mask) for mask in found])
    G._cache["normal_lattice"] = lat
    return lat


def maximal_normal_subgroups(G):
    """Proper normal subgroups maximal under inclusion."""
    if G.order == 1:
        raise TrivialGroup("the trivial group has no proper subgroup")
    return all_normal_subgroups(G).maximal_proper()


def is_simple(G):
    """True iff G has no normal subgroup other than 1 and G.

    The derived subgroup decides every group that is not perfect: if G' = 1
    then G is abelian and simple exactly when its order is prime, and a
    proper nontrivial G' is a normal subgroup that rules simplicity out.
    Only a perfect G reaches the class layer, where it is simple iff the
    normal closure of every class is 1 or G.
    """
    if G.order == 1:
        raise TrivialGroup("simplicity undefined for the trivial group")
    flag = G._cache.get("simple")
    if flag is None:
        der = commutator_subgroup(G)
        if der.order == 1:
            flag = factorize(G.order) == {G.order: 1}
        elif der.order < G.order:
            flag = False
        else:
            flag = all(sub.order in (1, G.order)
                       for sub in class_closures(G))
        G._cache["simple"] = flag
    return flag


def simple_factor_orders(G):
    """Sorted orders of the minimal normal subgroups of G if each of them is
    nonabelian simple and their orders multiply out to |G|, else None.

    Such subgroups commute pairwise and meet trivially, so G is then their
    internal direct product.
    """
    nontrivial = [s for s in all_normal_subgroups(G) if s.order > 1]
    minimal = [s for s in nontrivial
               if not any(t.member_set < s.member_set for t in nontrivial)]
    for s in minimal:
        S = s.local_group()
        if is_abelian(S) or not is_simple(S):
            return None
    if math.prod(s.order for s in minimal) != G.order:
        return None
    return tuple(sorted(s.order for s in minimal))


def melnikov_subgroup(G):
    """Intersection of all maximal normal subgroups."""
    maxn = maximal_normal_subgroups(G)
    out = full_subgroup(G)
    for s in maxn:
        out = out.intersect(s)
    out.normal = True
    return out


# -- solvability --------------------------------------------------------------


def _residuum(H):
    """Last term of the ordinary derived series of the Subgroup H."""
    while H.order > 1:
        # each derived term walks on the generators its closure adopted;
        # choosing greedy ones instead would cost a closure of the term
        nxt = subgroup_derived(H)
        if nxt.order == H.order:
            break
        H = nxt
    return H


def is_solvable_subgroup(H):
    """Ordinary derived series of H terminates at the identity."""
    return _residuum(H).order == 1


def _perfect_residuum(G):
    """Last term of the derived series G >= G' >= G'' >= ..., cached.

    The walk starts from the cached `commutator_subgroup(G)`; G is solvable
    iff the term it stops at is trivial.
    """
    res = G._cache.get("perfect_residuum")
    if res is None:
        res = commutator_subgroup(G)
        if res.order < G.order:
            res = _residuum(res)
        G._cache["perfect_residuum"] = res
    return res


def is_solvable(G):
    return _perfect_residuum(G).order == 1


def solvable_radical(G):
    """Largest solvable normal subgroup.

    A solvable G is its own radical, found by the derived-series walk of
    `_perfect_residuum` without computing a single conjugacy class. Otherwise
    the walk stops at the nontrivial perfect residuum P, which is
    characteristic and so a union of classes. The radical is the span of
    the classes whose normal closure is solvable: any solvable normal
    subgroup is a union of such classes, and a product of solvable normal
    subgroups is solvable. The single-class spans are tested smallest
    first: one that contains P is not solvable, one inside the solvable
    span found so far is, and only the rest run the derived series.
    """
    rad = G._cache.get("radical")
    if rad is None:
        res = _perfect_residuum(G)
        if res.order == 1:
            rad = full_subgroup(G)
        else:
            cls_of = class_index_of(G)
            res_mask = 0
            for x in res.members:
                res_mask |= 1 << cls_of[x]
            spans = _class_spans(G)
            solvable = 1
            smallest_first = sorted(
                spans, key=lambda m: (len(_class_members(G, m)), m))
            for mask in smallest_first:
                if mask & res_mask == res_mask or mask & solvable == mask:
                    continue
                if is_solvable_subgroup(_subgroup_of(G, mask)):
                    solvable = _span(G, solvable, (spans[mask],))
            rad = _subgroup_of(G, solvable)
        G._cache["radical"] = rad
    return rad


# -- product decomposition ------------------------------------------------------


def product_normal_decomposition(A, simples, N):
    """Split a normal subgroup of A x S_1 x ... x S_k along the factors.

    A must be abelian and every S_i nonabelian simple; then every normal N
    equals (N n A) x prod_{i in J} S_i for a unique index set J. Returns
    (N n A as a Subgroup of the product, J). DecompositionFailed signals an
    implementation bug since existence is guaranteed.
    """
    if not is_abelian(A):
        raise NotSimpleFactor("first factor must be abelian")
    for S in simples:
        if is_abelian(S) or not is_simple(S):
            raise NotSimpleFactor(f"{S.name} is not nonabelian simple")
    P = N.parent
    factors = getattr(P, "factors", None)
    if factors is None or len(factors) != 1 + len(simples):
        raise NotNormal("N must live in the direct product of A and the simples")
    N.require_normal()

    a_embed = product_embedding(P, 0)
    a_members = set(a_embed.mapping)
    n_cap_a = Subgroup(P, N.member_set & a_members, normal=True)

    J = []
    expected = n_cap_a.order
    for k in range(len(simples)):
        emb = product_embedding(P, k + 1)
        s_members = set(emb.mapping)
        if s_members <= N.member_set:
            J.append(k)
            expected *= simples[k].order
    if expected != N.order:
        raise DecompositionFailed(
            f"|N|={N.order} but decomposition predicts {expected}")
    # element-by-element: every member must have its k-th coordinate trivial
    # for k outside J and its A-coordinate inside N n A
    j_set = set(J)
    for i in N.members:
        coords = P.value(i)
        a_only = (coords[0],) + (0,) * len(simples)
        if P.index_of(a_only) not in n_cap_a.member_set:
            raise DecompositionFailed("A-coordinate escapes N n A")
        for k in range(len(simples)):
            if k not in j_set and coords[k + 1] != 0:
                raise DecompositionFailed(
                    f"coordinate {k} nontrivial outside J")
    return n_cap_a, tuple(J)

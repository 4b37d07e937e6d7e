"""Normal subgroup structure: closures, lattices, simplicity, decompositions.

Every normal subgroup is a union of conjugacy classes, so normal subgroups
are handled as bitmasks over the class list of `conjugacy_classes`. One
primitive, `_span`, extends a normal subgroup A by generating classes: it
visits each class of the result once and reads each class product c_k * c_g
from one representative of the larger class times the smaller class. The normal
closure of a class c is the span of c over the trivial subgroup. The class
of x^k with k prime to the order of x has the same closure as the class of
x, since x^k generates <x>, so the classes in one such power family share
one span. The lattice is built by joining each member with every
single-class closure, which reaches every normal subgroup while staying
proportional to the lattice size rather than the (often huge) subgroup
count. Most joins land on a member already found; |AB| = |A||B|/|A n B|
names the order of AB, and a found member of that order containing A and
B is AB, so only a join that yields a new member runs `_span`.

Solvability and simplicity are decided at the element level first, from the
derived series, so solvable groups never reach the class layer: the solvable
radical of a solvable group is the group itself, and a group that is not
perfect is simple only when it is cyclic of prime order. The derived series
walked to decide solvability is kept on a solvable group
(`solvable_derived_chain`), since it is also its generalized derived
series. Reference: Holt, Eick and O'Brien, Handbook of Computational Group
Theory (2005), ch. 3.
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
    """All normal subgroups of a group, sorted by (order, member set): ties
    follow the element order; `normals` prints them ordered by labels."""

    def __init__(self, parent, subgroups):
        self.parent = parent
        self.subgroups = tuple(
            sorted(subgroups, key=lambda s: (s.order, s.members)))

    def __len__(self):
        return len(self.subgroups)

    def __iter__(self):
        return iter(self.subgroups)

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


def power_families(G):
    """For each conjugacy class, the first class of its power family: the
    classes of the x^k, k prime to the order of x, x in the class. Two
    classes share a family exactly when the cyclic subgroups they generate
    are conjugate, so they also share one normal closure. Cached."""
    lead = G._cache.get("power_families")
    if lead is None:
        classes = conjugacy_classes(G)
        cls_of = class_index_of(G)
        mul = G.mul
        lead = [None] * len(classes)
        for c, cls in enumerate(classes):
            if lead[c] is None:
                lead[c] = c
                x = y = cls[0]
                powers = []         # classes of x, x^2, ..., x^(n-1)
                while y != 0:
                    powers.append(cls_of[y])
                    y = mul(y, x)
                n = len(powers) + 1
                for k, d in enumerate(powers, 1):
                    if math.gcd(k, n) == 1:
                        lead[d] = c
        G._cache["power_families"] = lead
    return lead


def _class_spans(G):
    """{class mask of <c^G>: c}, c the first class generating it; a span
    is computed once per power family, by its first class."""
    spans = G._cache.get("class_spans")
    if spans is None:
        spans = {}
        for c, first in enumerate(power_families(G)):
            if c == first:
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


def all_normal_subgroups(G):
    """Complete NormalLattice: joins of members with single-class closures.

    Every normal subgroup is the join of the closures of its classes, so
    joining each new member with every class closure reaches all of them.
    A join AB is looked up before it is spanned: its order is
    |A||B|/|A n B|, with A n B the AND of the two masks, and the masks
    found so far are indexed by order. A found member of that order that
    contains A and B is AB; only a join with no such member runs `_span`,
    and it yields a new member.
    """
    lat = G._cache.get("normal_lattice")
    if lat is not None:
        return lat
    classes = conjugacy_classes(G)
    ncl = len(classes)
    if ncl > LATTICE_CLASS_CAP:
        raise TooManyClasses(f"{G.name}: {ncl} conjugacy classes exceed "
                             f"cap {LATTICE_CLASS_CAP}")
    sizes = [len(c) for c in classes]
    orders = {}

    def order_of(mask):
        n = orders.get(mask)
        if n is None:
            n, rest = 0, mask
            while rest:
                low = rest & -rest
                rest ^= low
                n += sizes[low.bit_length() - 1]
            orders[mask] = n
        return n

    spans = _class_spans(G)
    found = list(spans)
    by_order = {}
    for m in found:
        by_order.setdefault(order_of(m), []).append(m)
    worklist = found
    while worklist:
        new = []
        for a in worklist:
            na = order_of(a)
            for b, c in spans.items():
                meet = a & b
                if meet == b or meet == a:
                    continue
                n = na * order_of(b) // order_of(meet)
                ab = a | b
                same = by_order.setdefault(n, [])
                for m in same:
                    if m & ab == ab:
                        break
                else:
                    j = _span(G, a, (c,))
                    same.append(j)
                    new.append(j)
        found.extend(new)
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


def _derived_chain(H):
    """[H, H', H'', ...] for the Subgroup H, down to the last term of its
    ordinary derived series."""
    chain = [H]
    while H.order > 1:
        # each derived term walks on the generators its closure adopted;
        # choosing greedy ones instead would cost a closure of the term
        nxt = subgroup_derived(H)
        if nxt.order == H.order:
            break
        H = nxt
        chain.append(H)
    return chain


def _residuum(H):
    """Last term of the ordinary derived series of the Subgroup H."""
    return _derived_chain(H)[-1]


def is_solvable_subgroup(H):
    """Ordinary derived series of H terminates at the identity."""
    return _residuum(H).order == 1


def _perfect_residuum(G):
    """Last term of the derived series G >= G' >= G'' >= ..., cached.

    The walk starts from the cached `commutator_subgroup(G)`; G is solvable
    iff the term it stops at is trivial, and then the walk G' > G'' > ...
    > 1 is kept on G for `solvable_derived_chain`. Each of its terms is
    characteristic in G, so it is marked normal.
    """
    res = G._cache.get("perfect_residuum")
    if res is None:
        der = commutator_subgroup(G)
        chain = _derived_chain(der) if der.order < G.order else []
        res = chain[-1] if chain else der
        if res.order == 1:
            for term in chain:
                term.normal = True
            G._cache["derived_chain"] = tuple(chain)
        G._cache["perfect_residuum"] = res
    return res


def solvable_derived_chain(G):
    """The derived series of a solvable G below G itself, G' > G'' > ...
    > 1 (empty for the trivial group), as Subgroups of G marked normal;
    None when G is not solvable."""
    _perfect_residuum(G)
    return G._cache.get("derived_chain")


def is_solvable(G):
    return _perfect_residuum(G).order == 1


def _span_is_solvable(G, mask, c):
    """True iff the normal subgroup N = <c^G>, of class mask `mask`, is
    solvable, decided on the class layer by the derived series of N.

    If N is generated by the classes S, then [N, N] is the normal closure
    of the commutators [y, x] over the pairs {s, t} of S, with y the first
    member of one class of the pair and x running over the other: modulo
    that closure y commutes with the whole class, so by conjugation every
    member of s commutes with every member of t, and these members
    generate N. As in `_span`, the smaller class of a pair is walked. The
    classes of the commutators generate [N, N] in turn.
    """
    classes = conjugacy_classes(G)
    cls_of = class_index_of(G)
    mul, inv = G.mul, G.inv
    gen = (c,)
    while mask != 1:
        hit = set()
        for i, s in enumerate(gen):
            for t in gen[i:]:
                cs, ct = classes[s], classes[t]
                if len(cs) < len(ct):
                    cs, ct = ct, cs
                y = cs[0]
                yi = inv(y)
                for x in ct:
                    hit.add(cls_of[mul(mul(yi, inv(x)), mul(y, x))])
        hit.discard(0)
        gen = tuple(sorted(hit))
        derived = _span(G, 1, gen)
        if derived == mask:
            return False
        mask = derived
    return True


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
    span found so far is, and only the rest run the derived series, on
    the class layer (`_span_is_solvable`): no subgroup of G is closed.
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
                if _span_is_solvable(G, mask, spans[mask]):
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

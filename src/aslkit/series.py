"""Generalized derived series and the abelian-simple length.

The generalized derived subgroup D(G) is the intersection of all normal
subgroups whose quotient is abelian or simple; it equals D0(G) n G' where
D0(G) intersects the maximal normal subgroups with nonabelian quotient.
Iterating D gives the series G >= D(G) >= D(D(G)) >= ... and the length is
the number of steps down to the identity.

D0 is computed through the solvable radical R: every maximal normal subgroup
with nonabelian (simple) quotient contains R, because the image of a solvable
normal subgroup in a nonabelian simple quotient is trivial. Working in G/R
keeps the lattice enumeration away from large abelian groups, whose class
counts would otherwise blow past the enumeration cap.

R is found from the derived series first (`normal.solvable_radical`). For a
solvable G the walk reaches 1, so R = G, D0 = G and D(G) = G': the series
of a solvable group is its derived series, and no conjugacy class, class
span or lattice is computed for it or for any of its terms. Only a group
with a nontrivial perfect residuum reaches the class layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Group,
    Subgroup,
    center,
    commutator_subgroup,
    full_subgroup,
    identity_hom,
    is_abelian,
    local_quotient,
    quotient,
    subgroup_derived,
)
from .errors import DecompositionFailed
from .normal import (
    LATTICE_CLASS_CAP,
    all_normal_subgroups,
    is_simple,
    solvable_radical,
)


@dataclass(frozen=True)
class FactorDescriptor:
    """Structure of one series factor.

    abelian_invariants: invariant factors d_1 | d_2 | ... of the abelian part;
    simple_orders: multiset (sorted) of the nonabelian simple factor orders.
    """
    order: int
    abelian_invariants: tuple
    simple_orders: tuple

    @property
    def kind(self):
        if self.order == 1:
            return "trivial"
        if not self.simple_orders:
            return "abelian"
        if not self.abelian_invariants:
            return "semisimple"
        return "mixed"

    def label(self):
        parts = []
        if self.abelian_invariants:
            parts.append("C" + " x C".join(str(d) for d in self.abelian_invariants))
        if self.simple_orders:
            parts.append(" x ".join(f"simple({n})" for n in self.simple_orders))
        return " x ".join(parts) if parts else "1"


@dataclass(frozen=True)
class SeriesReport:
    """Descending chain of subgroups with per-step factor structure."""
    group: Group
    terms: tuple          # Subgroups of `group`, first is G itself
    factors: tuple        # FactorDescriptor per step
    length: int
    terminates: bool      # reached the identity subgroup

    def orders(self):
        return tuple(t.order for t in self.terms)


# -- abelian invariants ------------------------------------------------------


def abelian_invariants(H):
    """Invariant factors of an abelian Subgroup, from its p-power images.

    In an abelian group x -> x^p is a homomorphism, so the number of members
    killed by p^j is |H| / |H^(p^j)|. The images H^(p^j) are carried forward
    one p-th power at a time, each image raising only the distinct members
    of the one before. For each prime p the p-primary type is recovered from
    these counts; primary parts are then merged largest-first.
    """
    G = H.parent
    n = H.order
    if n == 1:
        return ()
    primes = _prime_factors(n)
    primary = {}
    for p in primes:
        # c_j = number of members x with x^(p^j) = identity
        counts = [1]
        image = H.members
        while True:
            image = {_power(G, x, p) for x in image}
            c = n // len(image)
            if c == counts[-1]:
                break
            counts.append(c)
        lam_conj = []
        for j in range(1, len(counts)):
            e = _int_log(counts[j] // counts[j - 1], p)
            lam_conj.append(e)
        # conjugate partition gives the exponents of the cyclic p-factors
        lam = []
        for i in range(1, (lam_conj[0] if lam_conj else 0) + 1):
            lam.append(sum(1 for e in lam_conj if e >= i))
        primary[p] = sorted(lam, reverse=True)
    width = max(len(v) for v in primary.values())
    factors = []
    for i in range(width):
        d = 1
        for p, lam in primary.items():
            if i < len(lam):
                d *= p ** lam[i]
        factors.append(d)
    # largest first -> divisibility chain smallest first
    return tuple(sorted(factors))


def _power(G, x, e):
    """x^e for e >= 1, by binary powering without a product by the identity
    or a square past the top bit."""
    r = None
    while True:
        if e & 1:
            r = x if r is None else G.mul(r, x)
        e >>= 1
        if not e:
            return r
        x = G.mul(x, x)


def _int_log(n, p):
    e = 0
    while n > 1:
        n //= p
        e += 1
    return e


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- ordinary derived series ----------------------------------------------------


def derived_series(G):
    """G >= G' >= G'' >= ... until stabilization.

    Terminates at 1 for solvable groups and stabilizes at a perfect subgroup
    otherwise; factors are abelian and reported by invariant factors.
    """
    terms = [full_subgroup(G)]
    while True:
        cur = terms[-1]
        nxt = subgroup_derived(cur)
        if nxt.order == cur.order:
            break
        terms.append(nxt)
        if nxt.order == 1:
            break
    factors = []
    for a, b in zip(terms, terms[1:]):
        factors.append(_abelian_factor(a, b))
    terminates = terms[-1].order == 1
    return SeriesReport(G, tuple(terms), tuple(factors),
                        length=len(terms) - 1, terminates=terminates)


def derived_length(G):
    rep = derived_series(G)
    if not rep.terminates:
        raise ValueError(f"{G.name} is not solvable")
    return rep.length


def _abelian_factor(a, b):
    """Descriptor of the abelian factor a/b (b normal in a)."""
    Q, _ = local_quotient(a, b)
    inv = abelian_invariants(full_subgroup(Q)) if Q.order > 1 else ()
    return FactorDescriptor(order=Q.order, abelian_invariants=inv,
                            simple_orders=())


# -- generalized derived subgroup -------------------------------------------------


def d0_subgroup(G, max_classes=LATTICE_CLASS_CAP):
    """Intersection of maximal normal subgroups with nonabelian quotient.

    Equals G when no nonabelian simple quotient exists (empty intersection
    convention). Computed in G/(solvable radical); see the module docstring.
    """
    cached = G._cache.get("d0")
    if cached is not None:
        return cached
    if G.order == 1:
        out = full_subgroup(G)
        G._cache["d0"] = out
        return out
    rad = solvable_radical(G)
    if rad.order == G.order:
        out = full_subgroup(G)
        G._cache["d0"] = out
        return out
    if rad.order == 1:
        # G/1 would be a second copy of G with its own product memo
        Q, pi = G, identity_hom(G)
    else:
        Q, pi = quotient(G, rad)
    gprime_q = commutator_subgroup(Q)
    maxn = all_normal_subgroups(Q, max_classes=max_classes).maximal_proper()
    keep = [m for m in maxn if not gprime_q.member_set <= m.member_set]
    if not keep:
        out = full_subgroup(G)
    else:
        inter = keep[0]
        for m in keep[1:]:
            inter = inter.intersect(m)
        out = pi.preimage(inter)
        out.normal = True
    G._cache["d0"] = out
    return out


def generalized_derived_subgroup(G, max_classes=LATTICE_CLASS_CAP):
    """D(G) = D0(G) n G'; also the intersection of all normal subgroups
    with abelian-or-simple quotient (cross-checked by the oracle suite)."""
    cached = G._cache.get("gds")
    if cached is not None:
        return cached
    d0 = d0_subgroup(G, max_classes=max_classes)
    gp = commutator_subgroup(G)
    out = d0.intersect(gp)
    out.normal = True
    G._cache["gds"] = out
    return out


def generalized_derived_series(G, max_classes=LATTICE_CLASS_CAP, max_terms=None):
    """Iterate D until the identity; length field is the abelian-simple length.

    max_terms truncates the chain early (used by witness searches that only
    need the first few terms); truncated reports have terminates=False.
    """
    cache_key = ("gds_series", max_classes)
    if max_terms is None:
        cached = G._cache.get(cache_key)
        if cached is not None:
            return cached
    terms = [full_subgroup(G)]
    groups = [G]          # materialized term groups, parallel to terms
    to_parent = [None]    # member translation maps
    while terms[-1].order > 1:
        if max_terms is not None and len(terms) > max_terms:
            break
        cur_group = groups[-1]
        d_local = generalized_derived_subgroup(cur_group, max_classes=max_classes)
        # translate members back into indices of G
        members = _translate_up(d_local.members, to_parent)
        sub = Subgroup(G, members, normal=True)
        if sub.order == terms[-1].order:
            raise DecompositionFailed(
                f"generalized derived series stalled on {G.name}")
        terms.append(sub)
        if sub.order == 1:
            break
        mat = d_local.as_group()
        groups.append(mat)
        to_parent.append(mat.parent_indices)
    factors = [factor_descriptor_of(
        local_quotient(terms[i], terms[i + 1], host=groups[i])[0])
        for i in range(len(terms) - 1)]
    terminates = terms[-1].order == 1
    report = SeriesReport(G, tuple(terms), tuple(factors),
                          length=len(terms) - 1, terminates=terminates)
    if max_terms is None:
        G._cache[cache_key] = report
    return report


def _translate_up(members, to_parent):
    """Map locally-indexed members through the materialization chain."""
    out = members
    for mapping in reversed(to_parent[1:]):
        out = tuple(mapping[i] for i in out)
    return tuple(sorted(out))


def abelian_simple_length(G, max_classes=LATTICE_CLASS_CAP):
    """Number of generalized-derived steps from G down to the identity."""
    cached = G._cache.get("asl")
    if cached is None:
        cached = generalized_derived_series(G, max_classes=max_classes).length
        G._cache["asl"] = cached
    return cached


# -- factor structure --------------------------------------------------------------


def factor_descriptor_of(Q, max_classes=LATTICE_CLASS_CAP):
    """Decompose a group with trivial D as (abelian) x (nonabelian simples).

    The abelian part is the center, the semisimple part is the derived
    subgroup, and the simple factors are the minimal nontrivial members of
    the derived subgroup's normal lattice; the internal direct product is
    verified on orders and pairwise intersections.
    """
    if Q.order == 1:
        return FactorDescriptor(order=1, abelian_invariants=(),
                                simple_orders=())
    z = center(Q)
    der = commutator_subgroup(Q)
    if z.order * der.order != Q.order or \
            len(z.member_set & der.member_set) != 1:
        raise DecompositionFailed(
            f"{Q.name} is not (abelian) x (semisimple)")
    inv = abelian_invariants(z) if z.order > 1 else ()
    simple_orders = []
    if der.order > 1:
        D = der.as_group()
        lat = all_normal_subgroups(D, max_classes=max_classes)
        nontrivial = [s for s in lat if s.order > 1]
        minimal = [s for s in nontrivial
                   if not any(t.order > 1 and t.member_set < s.member_set
                              for t in nontrivial)]
        prod = 1
        for s in minimal:
            Sg = s.as_group()
            if is_abelian(Sg) or not is_simple(Sg):
                raise DecompositionFailed(
                    f"minimal normal factor of order {s.order} is not "
                    "nonabelian simple")
            prod *= s.order
            simple_orders.append(s.order)
        if prod != der.order:
            raise DecompositionFailed("simple factors do not fill the "
                                      "semisimple part")
    return FactorDescriptor(order=Q.order, abelian_invariants=inv,
                            simple_orders=tuple(sorted(simple_orders)))


def factor_structure(G, max_classes=LATTICE_CLASS_CAP):
    """Structure of G/D(G): abelian invariant factors x simple factor orders."""
    d = generalized_derived_subgroup(G, max_classes=max_classes)
    Q, _ = quotient(G, d)
    return factor_descriptor_of(Q, max_classes=max_classes)


# -- refined subnormal certificate ----------------------------------------------------


def subnormal_certificate(G, max_classes=LATTICE_CLASS_CAP):
    """Refine the generalized derived series into purely-typed factors.

    Every D-step factor is (abelian) x (semisimple); when both parts are
    present the step splits in two, with the semisimple factor on top:
    term >= (preimage of the abelian part) >= next. Each reported factor is
    then purely abelian or purely a product of nonabelian simples.
    """
    base = generalized_derived_series(G, max_classes=max_classes)
    terms = [base.terms[0]]
    factors = []
    groups = [G]
    to_parent = [None]
    # rebuild the materialization chain to split factors locally
    for i in range(len(base.terms) - 1):
        cur_sub, next_sub = base.terms[i], base.terms[i + 1]
        Q, pi = local_quotient(cur_sub, next_sub, host=groups[-1])
        desc = factor_descriptor_of(Q, max_classes=max_classes)
        if desc.kind == "mixed":
            zq = center(Q)
            mid_local = pi.preimage(zq)
            mid_members = _translate_up(mid_local.members, to_parent)
            mid = Subgroup(G, mid_members, normal=True)
            semis = FactorDescriptor(
                order=Q.order // zq.order, abelian_invariants=(),
                simple_orders=desc.simple_orders)
            abel = FactorDescriptor(
                order=zq.order, abelian_invariants=desc.abelian_invariants,
                simple_orders=())
            terms.append(mid)
            factors.append(semis)
            terms.append(next_sub)
            factors.append(abel)
        else:
            terms.append(next_sub)
            factors.append(desc)
        if next_sub.order > 1:
            mat = pi.kernel().as_group()
            groups.append(mat)
            to_parent.append(mat.parent_indices)
    return SeriesReport(G, tuple(terms), tuple(factors),
                        length=len(terms) - 1, terminates=base.terminates)


def verify_certificate(report):
    """Re-check a refined certificate from scratch; True iff coherent."""
    G = report.group
    terms = report.terms
    if terms[0].order != G.order or terms[-1].order != 1:
        return False
    for i, desc in enumerate(report.factors):
        a, b = terms[i], terms[i + 1]
        if not b.member_set < a.member_set:
            return False
        # b's normality in a is checked, not assumed
        local = local_quotient(a, b, normal=None)
        if local is None:
            return False
        Q, _ = local
        if Q.order != desc.order:
            return False
        if desc.kind in ("abelian", "trivial"):
            if not is_abelian(Q):
                return False
            if desc.abelian_invariants != (
                    abelian_invariants(full_subgroup(Q)) if Q.order > 1 else ()):
                return False
        elif desc.kind == "semisimple":
            check = factor_descriptor_of(Q)
            if check.abelian_invariants or \
                    check.simple_orders != desc.simple_orders:
                return False
        else:
            return False
    return True

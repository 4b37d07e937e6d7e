"""Generalized derived series and the abelian-simple length.

The generalized derived subgroup D(G) is the intersection of all normal
subgroups whose quotient is abelian or simple; it equals D0(G) n G' where
D0(G) intersects the maximal normal subgroups with nonabelian quotient.
Iterating D gives the series G >= D(G) >= D(D(G)) >= ... and the length is
the number of steps down to the identity.

The series is one chain of Subgroups of G. D of a term is computed in
`term.local_group()`: G itself for term 0, and for every later term its
`as_group()`, a materialized subgroup one level deep whose products are
products in G. D's members map back to G through the term's own member
list (`term.lift`). A caller that reads only the first terms asks for
that many D-steps (`max_steps`), and no later term is computed: the
wreath checks read H^(1) and take one step.

A report stores the chain only. Each step's factor is read from the
quotient `local_quotient(term, next)` when the report's `factors` are
first read, and that quotient stays cached on the term's local group; the
last step, X -> 1, reads X's local group itself, not a copy of it. A step
quotient's classes are fused from those of its host when the host has
them (`core.conjugacy_classes`). The length and the laws of the paper are
statements about terms, so most callers never build a step quotient.
Reading the factors is also what checks that every step is (abelian) x
(semisimple): `factor_descriptor_of` raises `DecompositionFailed`
otherwise. `subnormal_certificate` reuses the report's terms, factors and
step quotients instead of building a second chain. `verify_certificate`
reads none of these: it rebuilds every step in a fresh materialization.
The ordinary derived series shares the factor loop.

D0 is computed inside the perfect residuum P, the last term of the
derived series (`normal._perfect_residuum`). Let M be a maximal normal
subgroup of G with G/M nonabelian simple. Then G/M is perfect, so MP = G,
and L = M n P is a G-invariant maximal normal subgroup of P with P/L
isomorphic to G/M. Since [M, P] <= L, M centralizes P/L, and as P/L has a
trivial center, C_G(P/L) meets P in L, so M = C_G(P/L). Conversely, for a
G-invariant maximal normal subgroup L of P with G = P C_G(P/L), the
quotient G/C_G(P/L) is P/L. So M -> M n P is a bijection onto those L,
with inverse L -> C_G(P/L), and D0(G) is the intersection of these
centralizers, or G when there are none. When P = G the centralizer is L
itself. The candidates L contain the solvable radical R(P), so they are
read from the maximal members of the normal lattice of P/R(P): the class
layer, and with it the class cap, is met only in P and in P/R(P), never
in G, and the abelian or solvable part of G, whose class count would blow
past the cap, stays out of it. P's materialized group is perfect, and is
marked so, not closed again; when D0 is all of G, D(G) is the cached G'
itself, so the next D-step starts in a group whose classes are known.

For a solvable G the derived walk reaches 1, so P = 1, D0 = G and D(G) =
G'. The same holds for every term, so the series of a solvable group is
its derived series: it is read from the walk that decided solvability
(`normal.solvable_derived_chain`), with no D-step, no materialized term
and no conjugacy class, class span or lattice. Only a group with a
nontrivial perfect residuum takes D-steps, and its class layer is that of
P, not of G.
"""

from __future__ import annotations

import math

from .core import (
    FrozenRecord,
    Subgroup,
    center,
    commutator_subgroup,
    factorize,
    full_subgroup,
    is_abelian,
    left_coset_reps,
    local_quotient,
    quotient,
    set_field,
    subgroup_closure,
)
from .errors import DecompositionFailed, UsageError
from .normal import (
    _derived_chain,
    _perfect_residuum,
    all_normal_subgroups,
    simple_factor_orders,
    solvable_derived_chain,
    solvable_radical,
)


class FactorDescriptor(FrozenRecord):
    """Structure of one series factor.

    abelian_invariants: invariant factors d_1 | d_2 | ... of the abelian part;
    simple_orders: multiset (sorted) of the nonabelian simple factor orders.
    """
    __slots__ = ("order", "abelian_invariants", "simple_orders")

    def __init__(self, order, abelian_invariants, simple_orders):
        set_field(self, "order", order)
        set_field(self, "abelian_invariants", abelian_invariants)
        set_field(self, "simple_orders", simple_orders)

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


class SeriesReport(FrozenRecord):
    """Descending chain of subgroups with per-step factor structure.

    terms: Subgroups of `group`, the first is G itself;
    factors: a FactorDescriptor per step. Given as None, they are computed
      from the step quotients on first read and kept; comparing, hashing
      or printing a report reads them;
    terminates: whether the chain reached the identity subgroup.
    """
    __slots__ = ("group", "terms", "factors", "length", "terminates")

    def __init__(self, group, terms, factors, length, terminates):
        set_field(self, "group", group)
        set_field(self, "terms", terms)
        if factors is not None:
            set_field(self, "factors", factors)
        set_field(self, "length", length)
        set_field(self, "terminates", terminates)

    def __getattr__(self, name):
        # reached only for a field never set: the factors, until first read
        if name != "factors":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        terms = self.terms
        factors = tuple(factor_descriptor_of(local_quotient(a, b)[0])
                        for a, b in zip(terms, terms[1:]))
        set_field(self, "factors", factors)
        return factors

    def orders(self):
        return tuple(t.order for t in self.terms)

    def term(self, i):
        """The term at step i >= 0, or the last term when the series is
        shorter."""
        if i < 0:
            raise UsageError(f"step must be >= 0, got {i}")
        return self.terms[min(i, len(self.terms) - 1)]


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
    primary = {}
    for p in factorize(n):
        # c_j = number of members x with x^(p^j) = identity
        counts = [1]
        image = H.members
        while True:
            image = {_power(G, x, p) for x in image}
            c = n // len(image)
            if c == counts[-1]:
                break
            counts.append(c)
        lam_conj = [_int_log(b // a, p) for a, b in zip(counts, counts[1:])]
        # conjugate partition gives the exponents of the cyclic p-factors
        lam = [sum(1 for e in lam_conj if e >= i)
               for i in range(1, (lam_conj[0] if lam_conj else 0) + 1)]
        primary[p] = sorted(lam, reverse=True)
    width = max(len(v) for v in primary.values())
    factors = [math.prod(p ** lam[i] for p, lam in primary.items()
                         if i < len(lam)) for i in range(width)]
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


# -- ordinary derived series ----------------------------------------------------


def derived_series(G):
    """G >= G' >= G'' >= ... until stabilization.

    Terminates at 1 for solvable groups and stabilizes at a perfect subgroup
    otherwise; factors are abelian and reported by invariant factors.
    """
    return _report(G, _derived_chain(full_subgroup(G)))


def _report(G, terms):
    """SeriesReport of a descending chain of normal Subgroups of G, whose
    steps are described from their quotients when first read."""
    return SeriesReport(G, tuple(terms), factors=None,
                        length=len(terms) - 1,
                        terminates=terms[-1].order == 1)


# -- generalized derived subgroup -------------------------------------------------


def d0_subgroup(G):
    """Intersection of maximal normal subgroups with nonabelian quotient.

    Equals G when no nonabelian simple quotient exists (empty intersection
    convention). Computed inside the perfect residuum P, whose maximal
    normal subgroups are read from the lattice of P/R(P): such a subgroup
    L gives the maximal normal subgroup C_G(P/L) of G exactly when it is
    G-invariant and P C_G(P/L) = G; see the module docstring.
    """
    cached = G._cache.get("d0")
    if cached is not None:
        return cached
    P = _perfect_residuum(G)
    out = None
    if P.order > 1:
        host = P.local_group()
        if host is not G:
            # P is perfect: its materialized group is its own derived
            # subgroup and residuum, which are not closed again
            full = full_subgroup(host)
            host._cache.setdefault("derived", full)
            host._cache.setdefault("perfect_residuum", full)
        rad = solvable_radical(host)
        if rad.order == 1:
            # host/1 would be a second copy of host
            maxn = all_normal_subgroups(host).maximal_proper()
        else:
            Q, pi = quotient(host, rad)
            maxn = [pi.preimage(m)
                    for m in all_normal_subgroups(Q).maximal_proper()]
        for L in maxn:
            # C_G(G/L) = L, since G/L is simple and nonabelian
            M = L if host is G else _section_centralizer(G, P, L)
            if M is not None:
                out = M if out is None else out.intersect(M)
    if out is None:
        out = full_subgroup(G)
    out.normal = True
    G._cache["d0"] = out
    return out


def _section_centralizer(G, P, L):
    """C = C_G(P/L) for a proper normal subgroup P of G and a maximal
    normal subgroup L of P (a Subgroup of P.as_group()) with P/L
    nonabelian simple, when L is G-invariant and CP = G; None otherwise.

    C n P = L, since P/L has a trivial center, so C meets a coset tP in
    one coset of L or not at all, and CP = G holds iff the coset of each
    generator of G does meet C. Each such coset is searched for one
    element t*p, p running over coset representatives of L in P, that
    fixes every generator of P modulo L; C is generated by L and the
    elements found.
    """
    host = P.as_group()
    to_g = P.members
    l_members = [to_g[k] for k in L.members]
    l_set = frozenset(l_members)
    outside = [g for g in G.generators if g not in P.member_set]
    # P normalizes L; the rest of G must too
    if any(G.conj(x, g) not in l_set for g in outside for x in l_members):
        return None
    reps, coset = left_coset_reps(host, L)
    p_gens = [(to_g[x], coset[x]) for x in host.generators]
    pos = host.index_of
    found = []
    for g in outside:
        for r in reps:
            c = G.mul(g, to_g[r])
            if all(coset[pos(G.conj(x, c))] == k for x, k in p_gens):
                found.append(c)
                break
        else:
            return None
    return Subgroup(G, subgroup_closure(G, l_members + found), normal=True)


def generalized_derived_subgroup(G):
    """D(G) = D0(G) n G'; also the intersection of all normal subgroups
    with abelian-or-simple quotient (cross-checked by the oracle suite)."""
    cached = G._cache.get("gds")
    if cached is not None:
        return cached
    d0 = d0_subgroup(G)
    gp = commutator_subgroup(G)
    if d0.order == G.order:
        out = gp
    else:
        out = d0.intersect(gp)
        out.normal = True
    G._cache["gds"] = out
    return out


def generalized_derived_series(G, max_steps=None):
    """Iterate D until the identity; length field is the abelian-simple length.

    Every term is a Subgroup of G, and D of a term is computed in the
    term's `local_group()`, whose index k stands for the term's k-th
    member. max_steps bounds the number of D-steps, so the report has at
    most max_steps + 1 terms: a caller that reads `terms[k]` asks for k
    steps. A report cut short before the identity has terminates=False.
    A solvable G takes no D-step: D(H) = H' for each of its terms, so its
    terms after G are the derived chain that decided its solvability.
    """
    if max_steps is not None and max_steps < 0:
        raise UsageError(f"max_steps must be >= 0, got {max_steps}")
    if max_steps is None:
        cached = G._cache.get("gds_series")
        if cached is not None:
            return cached
    terms = [full_subgroup(G)]
    chain = solvable_derived_chain(G)
    if chain is not None:
        terms.extend(chain[:max_steps])
    else:
        while terms[-1].order > 1:
            if max_steps is not None and len(terms) > max_steps:
                break
            cur = terms[-1]
            d = generalized_derived_subgroup(cur.local_group())
            if d.order == cur.order:
                raise DecompositionFailed(
                    f"generalized derived series stalled on {G.name}")
            # D(term) is characteristic in the term, hence normal in G
            terms.append(cur.lift(d))
    report = _report(G, terms)
    if max_steps is None:
        G._cache["gds_series"] = report
    return report


def abelian_simple_length(G):
    """Number of generalized-derived steps from G down to the identity."""
    return generalized_derived_series(G).length


# -- factor structure --------------------------------------------------------------


def factor_descriptor_of(Q):
    """Decompose a group with trivial D as (abelian) x (nonabelian simples).

    The abelian part is the center and the semisimple part is the derived
    subgroup, whose simple factors are its minimal normal subgroups
    (`normal.simple_factor_orders`); the internal direct product of the two
    parts is verified on orders and intersection.
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
    simple_orders = ()
    if der.order > 1:
        simple_orders = simple_factor_orders(der.local_group())
        if simple_orders is None:
            raise DecompositionFailed(
                f"{Q.name}: the derived subgroup is not a direct product "
                "of nonabelian simple groups")
    return FactorDescriptor(order=Q.order, abelian_invariants=inv,
                            simple_orders=simple_orders)


def factor_structure(G):
    """Structure of G/D(G): abelian invariant factors x simple factor orders."""
    d = generalized_derived_subgroup(G)
    Q, _ = quotient(G, d)
    return factor_descriptor_of(Q)


# -- refined subnormal certificate ----------------------------------------------------


def subnormal_certificate(G):
    """Refine the generalized derived series into purely-typed factors.

    Every D-step factor is (abelian) x (semisimple); when both parts are
    present the step splits in two, with the semisimple factor on top:
    term >= (preimage of the abelian part) >= next. Each reported factor is
    then purely abelian or purely a product of nonabelian simples. The
    terms and factors are the series report's; a mixed step reads the
    center of the step quotient the report already built.
    """
    base = generalized_derived_series(G)
    terms = [base.terms[0]]
    factors = []
    for a, b, desc in zip(base.terms, base.terms[1:], base.factors):
        if desc.kind == "mixed":
            Q, pi = local_quotient(a, b)
            zq = center(Q)
            mid = pi.preimage(zq)
            # Z(a/b) is characteristic in a/b, hence mid is normal in G
            terms.append(a.lift(mid))
            factors.append(FactorDescriptor(
                order=Q.order // zq.order, abelian_invariants=(),
                simple_orders=desc.simple_orders))
            desc = FactorDescriptor(
                order=zq.order, abelian_invariants=desc.abelian_invariants,
                simple_orders=())
        terms.append(b)
        factors.append(desc)
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
        # a fresh host, so that no group, quotient or flag cached by the
        # series is read back; b's normality in a is checked, not assumed
        host = Subgroup(G, a.members).as_group()
        local = Subgroup(host, map(host.index_of, b.members))
        if not local.verify_normal():
            return False
        Q, _ = quotient(host, local)
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

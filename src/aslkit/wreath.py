"""Induced function groups and twisted wreath products.

An induced element is a function f from G to A with f(s*t) = f(s)^t for t in
the acting subgroup G0, so f is determined by its values on a fixed set of
left coset representatives of G0 in G. Representatives are the minimal
element index of each coset, sorted ascending, which puts the identity coset
first; f is stored as the tuple of A-indices at those representatives, the
unique compact faithful model of the function.

The induced group multiplies on indices: digit k of an index (weight
|A|^(m-1-k), the big-endian order of itertools.product) is the A-index at
representative k, and products and inverses are taken digit by digit in A.

G acts on the induced group from the right by f^s(t) = f(s*t). Writing
s*r_i = r_j * t with t in G0 gives f^s(r_i) = f(r_j)^t, so the action is
tabulated once per (s, i) as the digit j to read and the G0-element t to
apply (none when G0 acts trivially), and f^s is assembled from the digits of
f's index without building a tuple. The twisted wreath product is the
semidirect product (induced group) x| G under this action, with the
semidirect convention from the core module.
"""

from __future__ import annotations

import itertools

from .core import (
    CLOSURE_CAP,
    Group,
    GroupAction,
    Homomorphism,
    Record,
    Subgroup,
    check_order,
    full_subgroup,
    left_coset_reps,
    mixed_radix,
    quotient,
    semidirect_product,
    trivial_action,
    trivial_subgroup,
)
from .errors import NotAnAction, NotInvariant, PropositionViolated, \
    UsageError
from .series import generalized_derived_series


def induced_group(A, G, G0: Subgroup, act: GroupAction = None,
                  closure_cap=CLOSURE_CAP):
    """Group of G0-equivariant functions G -> A, plus the right G-action on it.

    act is a right action of the materialized G0 on A; None means trivial.
    G0 must be a Subgroup of G itself, since its members are read as
    indices of G. Returns (Ind, action of G on Ind).
    """
    if G0.parent is not G:
        raise NotAnAction("G0 must be a subgroup of G")
    G0_group = G0.as_group()
    if act is None:
        act = trivial_action(G0_group, A)
    if act.space is not A or act.actor is not G0_group:
        raise NotAnAction("action must act on A with actor G0.as_group()")
    reps, rep_of = left_coset_reps(G, G0)
    m = len(reps)
    check_order(closure_cap, f"{A.name}^{m}", (A.order for _ in range(m)))
    g0_pos = {p: i for i, p in enumerate(G0.members)}
    rep_pos = {r: i for i, r in enumerate(reps)}
    app = act.apply
    trivial = all(app(a, t) == a for a in range(A.order)
                  for t in range(G0_group.order))
    na = A.order
    # itertools.product enumerates big-endian: digit k has weight |A|^(m-1-k)
    powers = [na ** (m - 1 - k) for k in range(m)]
    # f^s(r_i) = f(s*r_i) = f(r_j)^t for s*r_i = r_j * t with t in G0,
    # tabulated per (s, i) as (weight of digit j, G0-index of t or 0 when
    # the action is trivial, weight of digit i)
    dec = []
    for s in range(G.order):
        row = []
        for i in range(m):
            sri = G.mul(s, reps[i])
            rj = rep_of[sri]
            t = 0 if trivial else g0_pos[G.mul(G.inv(rj), sri)]
            row.append((powers[rep_pos[rj]], t, powers[i]))
        dec.append(tuple(row))
    # as a group, Ind is A^m with the same numbering
    mul, inv, encode = mixed_radix([A] * m)

    def labeler(f):
        return "[" + ", ".join(A.label(a) for a in f) + "]"

    values = itertools.product(range(na), repeat=m)
    Ind = Group(values, mul, inv, labeler,
                name=f"Ind[{A.name}; {G.name}/{m}]", kind="induced",
                encode=encode)
    Ind.generators = [g * p for p in powers for g in A.generators]

    def g_apply(f_idx, s):
        r = 0
        for src, t, dst in dec[s]:
            a = f_idx // src % na
            if t:
                a = app(a, t)
            r += a * dst
        return r

    g_action = GroupAction(G, Ind, g_apply)
    Ind.structure = {"reps": tuple(reps), "m": m}
    return Ind, g_action


class WreathElement(Record):
    """One element of a twisted wreath product: an induced function plus an
    outer part, with labels resolved against A and G."""
    __slots__ = ("fn", "outer", "index")

    def __init__(self, fn, outer, index):
        self.fn = fn
        self.outer = outer
        self.index = index


class WreathProduct(Record):
    """A wr_{G0} G with its induced normal subgroup."""
    __slots__ = ("group", "ind", "a", "g", "g0", "ind_group", "reps",
                 "action")

    def __init__(self, group, ind, a, g, g0, ind_group, reps, action):
        self.group = group
        self.ind = ind              # the induced normal subgroup
        self.a = a
        self.g = g
        self.g0 = g0
        self.ind_group = ind_group
        self.reps = reps
        self.action = action        # the action of G on Ind

    def element(self, w_idx):
        f_idx, s = self.group.value(w_idx)
        f = self.ind_group.value(f_idx)
        fn = {self.g.label(r): self.a.label(a)
              for r, a in zip(self.reps, f)}
        return WreathElement(fn=fn, outer=self.g.label(s), index=w_idx)


def twisted_wreath_product(A, G, G0: Subgroup, act: GroupAction = None,
                           closure_cap=CLOSURE_CAP):
    """Build A wr_{G0} G = Ind x| G with its induced normal subgroup."""
    Ind, g_action = induced_group(A, G, G0, act, closure_cap=closure_cap)
    m = Ind.structure["m"]
    W = semidirect_product(Ind, G, g_action,
                           name=f"{A.name} wr[{G0.order}] {G.name}",
                           validate=False, closure_cap=closure_cap)
    # value (f_idx, s) sits at index f_idx * |G| + s. G moves the identity
    # coset (digit 0, of weight |A|^(m-1)) onto every other coset and G0
    # keeps it, so the copy of A on that coset and G generate W
    digit0 = A.order ** (m - 1) * G.order
    W.generators = [a * digit0 for a in A.generators] + list(G.generators)
    ind_members = [f * G.order for f in range(Ind.order)]
    ind_sub = Subgroup(W, ind_members, normal=True,
                       gens=[g * G.order for g in Ind.generators])
    return WreathProduct(group=W, ind=ind_sub, a=A, g=G, g0=G0,
                         ind_group=Ind, reps=Ind.structure["reps"],
                         action=g_action)


def realization_chain(W: WreathProduct):
    """The five-term chain W >= Ind x| G0 >= Ind >= {f : f(1)=1} >= 1.

    Returns (subgroups, successive indices); the indices equal
    [G:G0], |G0|, |A|, |A|^([G:G0]-1).
    """
    Ind, n = W.ind_group, W.g.order
    # value (f_idx, s) sits at index f_idx * |G| + s
    ind_g0 = Subgroup(W.group, [f * n + s for f in range(Ind.order)
                                for s in W.g0.members])
    fix1 = Subgroup(W.group, [f * n for f in range(Ind.order)
                              if Ind.value(f)[0] == 0])
    chain = [full_subgroup(W.group), ind_g0, W.ind, fix1,
             trivial_subgroup(W.group)]
    indices = []
    for big, small in zip(chain, chain[1:]):
        if big.order % small.order:
            raise PropositionViolated("chain member orders must divide")
        indices.append(big.order // small.order)
    m = len(W.reps)
    expected = (m, W.g0.order, W.a.order, W.a.order ** (m - 1))
    if tuple(indices) != expected:
        raise PropositionViolated(
            f"chain indices {indices} differ from {expected}")
    return chain, tuple(indices)


def wreath_quotient(A, A0: Subgroup, G, G0: Subgroup,
                    act: GroupAction = None):
    """Surjection A wr G -> (A/A0) wr G; kernel is Ind(A0).

    A0 must be normal in A and invariant under the G0-action.
    """
    G0_group = G0.as_group()
    if act is None:
        act = trivial_action(G0_group, A)
    A0.require_normal()
    app = act.apply
    for a in A0.members:
        for t in range(G0_group.order):
            if app(a, t) not in A0.member_set:
                raise NotInvariant("A0 is not G0-invariant")
    Abar, pi = quotient(A, A0)

    def bar_apply(q_idx, t):
        return pi(app(Abar.value(q_idx), t))

    act_bar = GroupAction(G0_group, Abar, bar_apply)
    W = twisted_wreath_product(A, G, G0, act)
    Wbar = twisted_wreath_product(Abar, G, G0, act_bar)
    Ind, IndBar = W.ind_group, Wbar.ind_group
    mapping = []
    for w in range(W.group.order):
        f_idx, s = W.group.value(w)
        fbar = tuple(pi(a) for a in Ind.value(f_idx))
        mapping.append(Wbar.group.index_of((IndBar.index_of(fbar), s)))
    hom = Homomorphism(W.group, Wbar.group, mapping)
    hom.wreath_source = W
    hom.wreath_target = Wbar
    return hom


# -- growth of the series in wreath products ----------------------------------------


def msigma_hypothesis(G, G0: Subgroup, m):
    """True iff the coset count of G0 in G^(m) G0 exceeds 2^m, for m >= 0."""
    if m < 0:
        raise UsageError(f"m must be >= 0, got {m}")
    series = generalized_derived_series(G, max_steps=m)
    term = series.term(m)
    inter = len(term.member_set & G0.member_set)
    index = term.order // inter
    # index > 2^m exactly when index - 1 >= 2^m, read by bit length: m may
    # be too large for 2^m to be made
    return (index - 1).bit_length() > m


def msigma_witness(A, G, G0: Subgroup, act: GroupAction = None, m=0,
                   closure_cap=CLOSURE_CAP):
    """Nontrivial element of (A wr G)^(m+1) n Ind, or None.

    When the index hypothesis holds a witness must exist; failing to find
    one then raises PropositionViolated. Tie-break: least index in the
    wreath group's canonical order.
    """
    if A.order == 1:
        raise NotAnAction("A must be nontrivial")
    hyp = msigma_hypothesis(G, G0, m)
    W = twisted_wreath_product(A, G, G0, act, closure_cap=closure_cap)
    series = generalized_derived_series(W.group, max_steps=m + 1)
    # a series shorter than m + 2 terms has reached the identity
    term = series.term(m + 1)
    inter = sorted(term.member_set & W.ind.member_set - {0})
    if inter:
        return W.element(inter[0])
    if hyp:
        raise PropositionViolated(
            "index hypothesis holds but no witness found")
    return None

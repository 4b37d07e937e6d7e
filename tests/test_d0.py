"""D0 read from the perfect residuum, against D0 by definition."""

import pytest

from aslkit import core, series
from aslkit.catalog import catalog
from aslkit.core import (
    commutator_subgroup,
    conjugacy_classes,
    trivial_subgroup,
)
from aslkit.families import alternating_group, cyclic_group, symmetric_group
from aslkit.normal import _perfect_residuum, all_normal_subgroups, is_solvable
from aslkit.oracle import ORACLE_CLASS_CAP, oracle_D
from aslkit.series import (
    d0_subgroup,
    generalized_derived_series,
    generalized_derived_subgroup,
)
from aslkit.specparse import group_from_spec
from aslkit.verify import _a5_wreath_c2, _a5_wreath_s3
from aslkit.wreath import twisted_wreath_product

# the nonsolvable groups of the catalog sweeps: A5, S5, SL(2,5) and the
# small products with them, of which catalog(200) holds only five types
NONSOLVABLE_SPECS = (
    "A5", "S5", "SL(2,5)", "A5 x C2", "A5 x C3", "GL(3,2)", "SL(2,7)",
    "A6", "S6", "A7", "A5 x S3", "S5 x C2", "SL(2,5) x C2", "S5 x S3",
    "A5 x A5", "SL(2,5) x S3", "A5 x D4", "A5 x Q8",
    # C2 wr A5 = C2^5 : A5, order 1920
    "perm(10; (1 3 5 7 9)(2 4 6 8 10), (1 3 5)(2 4 6), (1 2))",
    "A5 x S5", "SL(2,5) x A5",
)


def _groups():
    out = [(name, g) for name, g in catalog(200) if not is_solvable(g)]
    out += [(spec, group_from_spec(spec)) for spec in NONSOLVABLE_SPECS]
    out += [(w.group.name, w.group)
            for w in (_a5_wreath_c2(), _a5_wreath_s3())]
    return out


def _d0_by_definition(G):
    """Members of the intersection of the maximal proper normal subgroups
    of G with nonabelian quotient, read from the lattice of G itself."""
    derived = commutator_subgroup(G).member_set
    out = frozenset(range(G.order))
    for m in all_normal_subgroups(G).maximal_proper():
        # G/m is simple, and nonabelian iff it does not contain G'
        if not derived <= m.member_set:
            out &= m.member_set
    return out


def test_d0_matches_the_definition():
    """D0, and D = D0 n G', agree with the definitions on every
    nonsolvable catalog(200) entry, the spec-built nonsolvable groups and
    both A5 wreaths, and none of them meets the lattice's class cap;
    within the oracle's class cap D also equals the oracle's D."""
    groups = _groups()
    assert len(groups) >= 40
    oracle_checked = 0
    for name, g in groups:
        d0 = d0_subgroup(g)
        d = generalized_derived_subgroup(g)
        assert d0.normal and d.normal, name
        want = _d0_by_definition(g)
        assert d0.member_set == want, name
        assert d.member_set == want & commutator_subgroup(g).member_set, name
        if len(conjugacy_classes(g)) <= ORACLE_CLASS_CAP:
            assert d.member_set == oracle_D(g).member_set, name
            oracle_checked += 1
    assert oracle_checked >= 30


def test_class_cap_applies_to_the_residuum():
    """A5 x C5 x C3 has 75 classes, past the lattice cap, but its D-step
    only reads the lattice of P/R(P) = A5."""
    g = group_from_spec("A5 x C5 x C3")
    assert len(conjugacy_classes(g)) > 64
    assert d0_subgroup(g).order == 15
    assert generalized_derived_subgroup(g).order == 1
    assert generalized_derived_series(g).orders() == (900, 1)


def _section_centralizer_by_definition(G, P, L):
    """Members of G that fix every generator x of P modulo L, that is
    with x^-1 x^c in L; L is given by its members in G."""
    return frozenset(c for c in range(G.order)
                     if all(G.mul(G.inv(x), G.conj(x, c)) in L
                            for x in P.gens()))


def _branches(G):
    """For each maximal normal subgroup L of the perfect residuum P, the
    branch of the bijection it takes, with C_G(P/L) when that is a
    maximal normal subgroup of G: "P = G"; "inner" when L is G-invariant
    and P C_G(P/L) = G; "outer" when L is G-invariant but P C_G(P/L) < G;
    "not invariant" otherwise."""
    P = _perfect_residuum(G)
    if P.order == G.order:
        return [("P = G", None)]
    out = []
    for m in all_normal_subgroups(P.as_group()).maximal_proper():
        L = frozenset(P.members[k] for k in m.members)
        if any(G.conj(x, g) not in L for g in range(G.order) for x in L):
            out.append(("not invariant", None))
            continue
        C = _section_centralizer_by_definition(G, P, L)
        assert C & P.member_set == L
        if len(C) * P.order // len(L) == G.order:
            out.append(("inner", C))
        else:
            out.append(("outer", None))
    return out


@pytest.mark.parametrize("spec, branch", [
    ("A5 x A5", "P = G"),
    ("SL(2,5)", "P = G"),
    ("C3 x A5", "inner"),
    ("SL(2,5) x S3", "inner"),
    ("S5", "outer"),
    ("S6", "outer"),
    ("A5 wr C2", "not invariant"),
])
def test_each_branch_of_the_bijection(spec, branch, record_calls):
    """Each branch of M -> M n P is taken by the groups that name it, and
    D0 is the intersection of the centralizers C_G(P/L) of the "inner"
    L, each computed by definition over all of G; only P < G computes
    centralizers."""
    if spec == "A5 wr C2":
        c2 = cyclic_group(2)
        g = twisted_wreath_product(alternating_group(5), c2,
                                   trivial_subgroup(c2)).group
    else:
        g = group_from_spec(spec)
    taken = _branches(g)
    assert {b for b, _ in taken} == {branch}
    calls = record_calls(series, "_section_centralizer")
    d0 = d0_subgroup(g)
    if branch == "P = G":
        assert calls == []
        want = _d0_by_definition(g)
    else:
        assert calls and all(G is g for G in calls)
        want = frozenset(range(g.order))
        for _, C in taken:
            if C is not None:
                want &= C
    assert d0.member_set == want


@pytest.mark.parametrize("build, want", [
    (_a5_wreath_c2.__wrapped__, "ind"),
    (_a5_wreath_s3.__wrapped__, "ind x| A3"),
])
def test_wreath_d_step_stays_in_the_residuum(build, want, record_calls):
    """The first D-step of either A5 wreath computes no class of the
    wreath product and closes no subgroup of its materialized residuum P;
    the term is still Ind (C2) or Ind x| A3 (S3)."""
    w = build()
    W = w.group
    closures = record_calls(core, "_conjugation_closure")
    term = generalized_derived_series(W, max_steps=1).terms[1]
    assert "classes" not in W._cache and "class_spans" not in W._cache
    host = _perfect_residuum(W).as_group()
    assert "classes" in host._cache
    assert not any(G is host for G in closures)
    n = w.g.order
    outer = [0] if want == "ind" else \
        commutator_subgroup(w.g).members
    assert term.member_set == {f * n + s for f in range(w.ind_group.order)
                               for s in outer}


def test_next_step_reads_the_residuum_group(record_calls):
    """When D0 is G, D(G) is the cached G' itself; for S6 that is the
    perfect residuum, so the second D-step runs in its materialized group,
    whose classes and lattice the first step computed, and which is known
    to be perfect: no subgroup of it is closed."""
    g = symmetric_group(6)
    P = _perfect_residuum(g)
    closures = record_calls(core, "_conjugation_closure")
    rep = generalized_derived_series(g)
    assert rep.terms[1] is P is commutator_subgroup(g)
    host = P.as_group()
    assert "normal_lattice" in host._cache
    assert rep.terms[1].local_group() is host
    assert not any(G is host for G in closures)
    assert rep.orders() == (720, 360, 1)


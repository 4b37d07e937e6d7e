"""Generalized derived series, length, factor structure, certificates."""

import math

import pytest

from aslkit import series, verify
from aslkit.catalog import catalog
from aslkit.core import (
    Group,
    Subgroup,
    conjugacy_classes,
    direct_product,
    direct_product_many,
    full_subgroup,
    local_quotient,
    quotient,
    subgroup_generated,
    trivial_subgroup,
)
from aslkit.errors import DecompositionFailed, UsageError
from aslkit.families import (
    alternating_group,
    cyclic_group,
    dihedral_group,
    symmetric_group,
)
from aslkit.matgroups import sl_group
from aslkit.normal import all_normal_subgroups, is_solvable
from aslkit.oracle import ORACLE_CLASS_CAP, oracle_D
from aslkit.series import (
    SeriesReport,
    _report,
    abelian_invariants,
    abelian_simple_length,
    d0_subgroup,
    derived_series,
    factor_descriptor_of,
    factor_structure,
    generalized_derived_series,
    generalized_derived_subgroup,
    subnormal_certificate,
    verify_certificate,
)
from aslkit.verify import (
    _a5_wreath_c2,
    _a5_wreath_s3,
    _extension_law,
    _normal_law,
    _quotient_law,
    _simple_nonabelian_cases,
    _solvable_coincidence,
)
from aslkit.wreath import twisted_wreath_product


def test_d0_examples(s4, a5):
    assert d0_subgroup(s4).order == 24
    assert d0_subgroup(cyclic_group(8)).order == 8
    prod = direct_product(a5, alternating_group(5))
    assert d0_subgroup(prod).order == 1


def test_d_examples(s3, s4, a5):
    assert generalized_derived_subgroup(s3).order == 3
    assert generalized_derived_subgroup(a5).order == 1
    assert generalized_derived_subgroup(s4).order == 12


def _d_step_walk(g):
    """Terms of the generalized derived series by definition: D of each
    term computed in its local group and lifted into g."""
    terms = [full_subgroup(g)]
    while terms[-1].order > 1:
        cur = terms[-1]
        terms.append(cur.lift(generalized_derived_subgroup(cur.local_group())))
    return terms


def _fresh_solvable_catalog(max_order):
    """Each solvable catalog group as a fresh group with empty caches: the
    full subgroup materialized, whose products are the catalog group's."""
    return [(name, Subgroup(g, range(g.order)).as_group())
            for name, g in catalog(max_order) if is_solvable(g)]


def test_max_steps_bounds_the_d_steps(record_calls):
    """max_steps=k takes at most k D-steps and gives the first k + 1 terms
    of the full series, also for each solvable catalog group of order
    <= 48, whose series is cut from its derived chain; the old keyword is
    refused."""
    groups = [symmetric_group(4), sl_group(2, 3),
              direct_product(alternating_group(5), cyclic_group(2))] + \
        [g for _, g in _fresh_solvable_catalog(48)]
    calls = record_calls(series, "generalized_derived_subgroup")
    for g in groups:
        full = generalized_derived_series(g)
        for k in range(full.length + 2):
            calls.clear()
            rep = generalized_derived_series(g, max_steps=k)
            assert len(calls) <= k, (g.name, k)
            assert rep.terms == full.terms[:k + 1], (g.name, k)
            assert rep.terminates == (k >= full.length), (g.name, k)
    with pytest.raises(TypeError):
        generalized_derived_series(groups[0], max_terms=1)


def test_term_clamps_to_the_last_term():
    """term(i) is terms[i] while the series lasts, then the last term: on
    a report that reached 1 that is the trivial subgroup, and on one cut
    short by max_steps it is the last term computed."""
    s4 = symmetric_group(4)
    full = generalized_derived_series(s4)
    assert full.terminates and full.orders() == (24, 12, 4, 1)
    assert [full.term(i).order for i in range(6)] == [24, 12, 4, 1, 1, 1]
    assert full.term(3) is full.terms[3]
    cut = generalized_derived_series(s4, max_steps=1)
    assert not cut.terminates and cut.orders() == (24, 12)
    assert [cut.term(i) for i in range(4)] == [cut.terms[0]] + \
        [cut.terms[1]] * 3


def test_negative_steps_are_refused():
    """max_steps=-1 used to slice the chain from its end, and term(-1) to
    return the last term."""
    for G in (symmetric_group(3), alternating_group(5)):
        with pytest.raises(UsageError, match="max_steps must be >= 0"):
            generalized_derived_series(G, max_steps=-1)
        with pytest.raises(UsageError, match="step must be >= 0, got -1"):
            generalized_derived_series(G).term(-1)


def test_solvable_series_is_the_d_step_walk(record_calls):
    """For every solvable catalog group of order <= 48 the series equals
    the D-step walk term by term, and computing and reading its terms
    takes no D-step and builds no group."""
    groups = _fresh_solvable_catalog(48)
    assert len(groups) >= 400
    built = record_calls(Group, "__init__")
    calls = record_calls(series, "generalized_derived_subgroup")
    for name, g in groups:
        built.clear()
        calls.clear()
        rep = generalized_derived_series(g)
        terms = [t.member_set for t in rep.terms]
        assert built == [] and calls == [], name
        walk = _d_step_walk(g)
        assert terms == [t.member_set for t in walk], name
        assert rep.terminates and rep.length == len(walk) - 1, name


def test_nonsolvable_series_takes_its_d_steps(record_calls):
    """A nonsolvable group takes one D-step per step of its series, the
    first in the group itself, and each step is the D-step walk's."""
    calls = record_calls(series, "generalized_derived_subgroup")
    for g in (symmetric_group(5), sl_group(2, 5),
              direct_product(alternating_group(5), cyclic_group(2))):
        assert not is_solvable(g)
        calls.clear()
        rep = generalized_derived_series(g)
        assert len(calls) == rep.length and calls[0] is g, g.name
        assert [t.member_set for t in rep.terms] == \
            [t.member_set for t in _d_step_walk(g)], g.name


def test_simple_nonabelian_cases_take_one_d_step(record_calls):
    """Each simple-nonabelian case reads H^(1) only, so it takes exactly
    one D-step on its wreath product."""
    calls = record_calls(series, "generalized_derived_subgroup")
    wreaths = (_a5_wreath_c2(), _a5_wreath_s3())
    for (name, case), w in zip(_simple_nonabelian_cases(), wreaths):
        # the second run finds the series of G cached, so every D-step
        # it takes is one of the wreath's
        for _ in range(2):
            calls.clear()
            ok, detail = case()
            assert ok, (name, detail)
        assert calls == [w.group], name


def test_series_s4(s4):
    rep = generalized_derived_series(s4)
    assert rep.orders() == (24, 12, 4, 1)
    assert rep.length == 3
    assert rep.terminates
    for term in rep.terms:
        assert term.verify_normal()


def test_series_monotone_and_terminates(s4, q8, d4):
    for g in (s4, q8, d4, symmetric_group(5), cyclic_group(12)):
        rep = generalized_derived_series(g)
        orders = rep.orders()
        assert all(a > b for a, b in zip(orders, orders[1:]))
        assert orders[-1] == 1


def test_series_trivial():
    rep = generalized_derived_series(cyclic_group(1))
    assert rep.length == 0
    assert len(rep.terms) == 1


def test_series_d4(d4):
    rep = generalized_derived_series(d4)
    assert rep.orders() == (8, 2, 1)
    assert rep.length == 2


def test_spot_lengths(s3, s4, q8, d4, a5):
    assert abelian_simple_length(s3) == 2
    assert abelian_simple_length(s4) == 3
    assert abelian_simple_length(q8) == 2
    assert abelian_simple_length(d4) == 2
    assert abelian_simple_length(a5) == 1
    assert abelian_simple_length(cyclic_group(1)) == 0
    assert abelian_simple_length(symmetric_group(5)) == 2
    assert abelian_simple_length(sl_group(2, 3)) == 3


def test_sl23_series():
    rep = generalized_derived_series(sl_group(2, 3))
    assert rep.orders() == (24, 8, 2, 1)


def test_log_bound_sample(s4, q8):
    for g in (s4, q8, cyclic_group(17), alternating_group(6)):
        assert abelian_simple_length(g) <= math.log2(g.order)


def test_derived_series_s4_and_a5(s4, a5):
    rep = derived_series(s4)
    assert rep.orders() == (24, 12, 4, 1)
    assert rep.terminates
    rep5 = derived_series(a5)
    assert not rep5.terminates
    assert rep5.orders() == (60,)


def test_derived_abelian():
    rep = derived_series(cyclic_group(9))
    assert rep.orders() == (9, 1)
    assert rep.length == 1


def test_abelian_invariants(v4, c6):
    assert abelian_invariants(full_subgroup(v4)) == (2, 2)
    assert abelian_invariants(full_subgroup(c6)) == (6,)
    c2c8 = direct_product(cyclic_group(2), cyclic_group(8))
    assert abelian_invariants(full_subgroup(c2c8)) == (2, 8)
    c6c4 = direct_product(cyclic_group(6), cyclic_group(4))
    assert abelian_invariants(full_subgroup(c6c4)) == (2, 12)


def _invariant_factors(orders):
    """Invariant factors of a product of cyclic groups, by gcd/lcm swaps:
    (x, y) -> (gcd, lcm) keeps the group and ends in a divisibility chain."""
    d = list(orders)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = math.gcd(d[i], d[j]), math.lcm(d[i], d[j])
    return tuple(x for x in d if x > 1)


def test_abelian_invariants_of_cyclic_products():
    """C_a x C_b x C_c for a, b, c in 1..12, against gcd/lcm normal form."""
    cyc = {n: cyclic_group(n) for n in range(1, 13)}
    for a in range(1, 13):
        for b in range(1, 13):
            for c in range(1, 13):
                g = direct_product_many([cyc[a], cyc[b], cyc[c]])
                assert abelian_invariants(full_subgroup(g)) == \
                    _invariant_factors((a, b, c)), (a, b, c)


def test_factor_structure(s3, a5):
    desc = factor_structure(s3)
    assert desc.abelian_invariants == (2,)
    assert desc.simple_orders == ()
    prod = direct_product(a5, cyclic_group(6))
    desc2 = factor_structure(prod)
    assert desc2.abelian_invariants == (6,)
    assert desc2.simple_orders == (60,)
    ab = cyclic_group(12)
    desc3 = factor_structure(ab)
    assert desc3.abelian_invariants == (12,)
    assert desc3.simple_orders == ()


def test_certificate_s4(s4):
    rep = subnormal_certificate(s4)
    assert [f.kind for f in rep.factors] == ["abelian"] * 3
    assert [f.abelian_invariants for f in rep.factors] == [(2,), (3,), (2, 2)]
    assert verify_certificate(rep)


def test_certificate_a5(a5):
    rep = subnormal_certificate(a5)
    assert len(rep.factors) == 1
    assert rep.factors[0].kind == "semisimple"
    assert rep.factors[0].simple_orders == (60,)
    assert verify_certificate(rep)


def test_certificate_mixed(a5):
    prod = direct_product(a5, cyclic_group(2))
    rep = subnormal_certificate(prod)
    assert [f.kind for f in rep.factors] == ["semisimple", "abelian"]
    assert rep.factors[0].simple_orders == (60,)
    assert rep.factors[1].abelian_invariants == (2,)
    assert verify_certificate(rep)


def test_certificate_builds_no_group_after_the_series(s4, a5, record_calls):
    """The certificate reuses the report's terms, factors and step
    quotients, so once the series and its factors are known it constructs
    no Group."""
    mixed = direct_product(a5, cyclic_group(2))
    assert [f.kind for f in generalized_derived_series(mixed).factors] == \
        ["mixed"]
    built = record_calls(Group, "__init__")
    for g in (s4, mixed, sl_group(2, 3)):
        generalized_derived_series(g).factors
        built.clear()
        rep = subnormal_certificate(g)
        assert built == [], g.name
        assert verify_certificate(rep)


def test_last_step_reads_its_host(record_calls):
    """The factor of a last step X -> 1 is read from X itself: reading the
    factors of a simple or an abelian group builds no group."""
    built = record_calls(Group, "__init__")
    for g in (alternating_group(5), cyclic_group(12)):
        rep = generalized_derived_series(g)
        built.clear()
        rep.factors
        assert built == [], g.name
        Q, pi = local_quotient(*rep.terms)
        assert Q is g and pi.mapping == tuple(range(g.order))


def _fake_last_step(monkeypatch, fake):
    """Make the series read `fake` as the quotient of every step X -> 1."""
    def faked(a, b):
        return (fake, None) if b.order == 1 else local_quotient(a, b)

    monkeypatch.setattr(series, "local_quotient", faked)


def test_verify_certificate_reads_no_cached_quotient(monkeypatch):
    """A step quotient corrupted before the series reads it gives a wrong
    certificate; verify_certificate rebuilds every step in a fresh group,
    so it rejects it."""
    c2 = cyclic_group(2)
    for g, fake in ((cyclic_group(4), direct_product(c2, c2)),
                    (alternating_group(5), cyclic_group(60))):
        _fake_last_step(monkeypatch, fake)
        rep = subnormal_certificate(g)
        assert rep.factors[0].kind == "abelian"
        assert rep.factors[0].abelian_invariants == \
            abelian_invariants(full_subgroup(fake))
        assert not verify_certificate(rep), g.name


def test_solvable_coincidence_decomposes_every_step(monkeypatch):
    """solvable-coincidence reads the series factors of every catalog
    group, so a step quotient that is not (abelian) x (semisimple), here
    S3 read as C4/1, fails it."""
    g = cyclic_group(4)
    _fake_last_step(monkeypatch, symmetric_group(3))
    with pytest.raises(DecompositionFailed):
        _solvable_coincidence(g)


def test_solvable_coincidence_rejects_a_wrong_chain(monkeypatch):
    """solvable-coincidence compares the series a solvable group reads
    from its derived walk with the D-steps taken by definition, so a wrong
    chain fails it, even one whose steps are abelian: here D4 > C4 > 1 in
    place of D4 > Z(D4) > 1."""
    assert _solvable_coincidence(dihedral_group(4))[0]
    g = dihedral_group(4)
    c4 = next(s for s in all_normal_subgroups(g) if s.order == 4 and
              any(g.element_order(x) == 4 for x in s.members))
    wrong = (c4, Subgroup(g, (0,), normal=True))
    real = series.solvable_derived_chain
    monkeypatch.setattr(series, "solvable_derived_chain",
                        lambda G: wrong if G is g else real(G))
    ok, detail = _solvable_coincidence(g)
    assert not ok and detail == "orders (8, 4, 1)", detail


def test_solvable_coincidence_takes_the_d_steps(monkeypatch):
    """The suite's own D-steps are read: a D that gives 1 for every group
    fails it on S4, whose series and derived series still agree."""
    assert _solvable_coincidence(symmetric_group(4))[0]
    monkeypatch.setattr(verify, "generalized_derived_subgroup",
                        trivial_subgroup)
    assert not _solvable_coincidence(symmetric_group(4))[0]


def _explicit_factors(terms):
    return tuple(factor_descriptor_of(local_quotient(a, b)[0])
                 for a, b in zip(terms, terms[1:]))


def test_lazy_factors_match_explicit_decomposition():
    """Both series of every catalog group of order <= 48: the factors read
    from the report are the explicit decompositions of its step quotients,
    and they are kept after the first read."""
    for name, g in catalog(48):
        for make in (generalized_derived_series, derived_series):
            rep = make(g)
            want = _explicit_factors(rep.terms)
            assert rep.factors == want, (name, make.__name__)
            assert rep.factors is rep.factors


def test_series_laws_decompose_no_step(monkeypatch):
    """The length and the quotient, normal and extension laws read terms
    and lengths only, so they never decompose a step quotient."""
    def refuse(Q):
        raise AssertionError(f"step quotient {Q.name} decomposed")

    monkeypatch.setattr(series, "factor_descriptor_of", refuse)
    c2 = cyclic_group(2)
    groups = [symmetric_group(4), sl_group(2, 3),
              direct_product(alternating_group(5), c2),
              twisted_wreath_product(symmetric_group(3), c2,
                                     subgroup_generated(c2, [])).group]
    for g, length in zip(groups, (3, 3, 1, 3)):
        assert abelian_simple_length(g) == length, g.name
        for law in (_quotient_law, _normal_law, _extension_law):
            ok, detail = law(g)
            assert ok, (g.name, law.__name__, detail)


def test_lazy_report_compares_hashes_and_prints_as_eager(s4, a5):
    """A report whose factors are not yet read equals, hashes and prints
    as one built with them; each of the three reads them."""
    mixed = direct_product(a5, cyclic_group(2))
    for g in (s4, mixed):
        rep = generalized_derived_series(g)
        terms = rep.terms
        eager = SeriesReport(g, terms, _explicit_factors(terms), rep.length,
                             rep.terminates)
        assert "factors=(FactorDescriptor(" in repr(eager)
        assert repr(_report(g, terms)) == repr(eager)
        assert _report(g, terms) == eager
        assert hash(_report(g, terms)) == hash(eager)


def test_series_terms_match_the_oracle_chain():
    """Every series term of every catalog group of order <= 120 is the
    oracle's D chain lifted into G, up to the first group in the chain
    with more classes than the oracle enumerates."""
    steps = 0
    for name, g in catalog(120):
        cur, lift = g, range(g.order)
        for term in generalized_derived_series(g).terms[1:]:
            if len(conjugacy_classes(cur)) > ORACLE_CLASS_CAP:
                break
            d = oracle_D(cur)
            assert {lift[x] for x in d.members} == term.member_set, name
            steps += 1
            cur = d.as_group()
            lift = [lift[x] for x in cur.parent_indices]
    assert steps >= 593


def test_quotient_image_law(s4):
    gds = generalized_derived_series(s4)
    from aslkit.normal import all_normal_subgroups
    for n in all_normal_subgroups(s4):
        q, pi = quotient(s4, n)
        qser = generalized_derived_series(q)
        for i, qterm in enumerate(qser.terms):
            image = {pi.mapping[x] for x in gds.terms[i].members} \
                if i < len(gds.terms) else {0}
            assert image == qterm.member_set


def test_extension_bound_on_sample(s4, q8, d4):
    from aslkit.normal import all_normal_subgroups
    for g in (s4, q8, d4):
        lg = abelian_simple_length(g)
        for n in all_normal_subgroups(g):
            q, _ = quotient(g, n)
            assert lg <= abelian_simple_length(n.as_group()) + \
                abelian_simple_length(q)


def test_simple_alternating_lengths():
    assert abelian_simple_length(alternating_group(6)) == 1
    assert abelian_simple_length(alternating_group(7)) == 1


def test_fiber_product_term_containment():
    """Series terms of a fiber product project into the factors' terms."""
    from aslkit.core import fiber_product
    from aslkit.verify import fiber_triples
    for name, g, h, alpha, beta in fiber_triples()[:4]:
        fp = fiber_product(alpha, beta)
        fser = generalized_derived_series(fp)
        gser = generalized_derived_series(g)
        hser = generalized_derived_series(h)
        for i, term in enumerate(fser.terms):
            gterm = gser.terms[min(i, len(gser.terms) - 1)]
            hterm = hser.terms[min(i, len(hser.terms) - 1)]
            for idx in term.members:
                gi, hi = fp.value(idx)
                assert gi in gterm.member_set
                assert hi in hterm.member_set

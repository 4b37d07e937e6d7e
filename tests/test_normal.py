"""Normal lattices, maximal normal subgroups, simplicity, decompositions."""

import random

import pytest

from aslkit import core
from aslkit.catalog import catalog
from aslkit.core import (
    Subgroup,
    class_index_of,
    commutator_subgroup,
    conjugacy_classes,
    cycle_label,
    direct_product,
    direct_product_many,
    full_subgroup,
    group_from_perm_generators,
    normal_closure,
    subgroup_generated,
    trivial_subgroup,
)
from aslkit.errors import NotSimpleFactor, TooManyClasses, TrivialGroup
from aslkit.oracle import ORACLE_CLASS_CAP, oracle_normal_subgroups
from aslkit.verify import _a5_wreath_c2, _a5_wreath_s3
from aslkit.families import (
    alternating_group,
    cyclic_group,
    dihedral_group,
    symmetric_group,
)
from aslkit.normal import (
    LATTICE_CLASS_CAP,
    _class_spans,
    _residuum,
    _span,
    _span_is_solvable,
    all_normal_subgroups,
    class_closures,
    is_simple,
    is_solvable,
    is_solvable_subgroup,
    maximal_normal_subgroups,
    melnikov_subgroup,
    product_normal_decomposition,
    solvable_radical,
)


def test_lattice_s4(s4):
    lat = all_normal_subgroups(s4)
    assert [s.order for s in lat] == [1, 4, 12, 24]


def test_lattice_c6(c6):
    assert [s.order for s in all_normal_subgroups(c6)] == [1, 2, 3, 6]


def test_lattice_simple(a5):
    assert [s.order for s in all_normal_subgroups(a5)] == [1, 60]


def test_lattice_members_are_class_unions(s4, q8):
    for g in (s4, q8):
        classes = conjugacy_classes(g)
        for sub in all_normal_subgroups(g):
            covered = set()
            for cls in classes:
                if cls[0] in sub.member_set:
                    assert set(cls) <= sub.member_set
                    covered |= set(cls)
            assert covered == set(sub.members)


def test_lattice_closed_under_meet_join(s4, q8, c6):
    for g in (s4, q8, c6):
        lat = list(all_normal_subgroups(g))
        sets = {s.member_set for s in lat}
        for a in lat:
            for b in lat:
                assert a.intersect(b).member_set in sets
                assert a.join(b).member_set in sets


def test_class_cap():
    with pytest.raises(TooManyClasses):
        all_normal_subgroups(cyclic_group(65))


def test_maximal_normals(s4, c6):
    assert [s.order for s in maximal_normal_subgroups(s4)] == [12]
    assert sorted(s.order for s in maximal_normal_subgroups(c6)) == [2, 3]
    assert [s.order for s in maximal_normal_subgroups(alternating_group(5))] \
        == [1]
    with pytest.raises(TrivialGroup):
        maximal_normal_subgroups(cyclic_group(1))


def test_every_maximal_has_simple_quotient(s4, q8, c6):
    from aslkit.core import quotient
    for g in (s4, q8, c6, symmetric_group(5)):
        lat = list(all_normal_subgroups(g))
        maxn = {s.member_set for s in maximal_normal_subgroups(g)}
        for n in lat:
            if n.order == g.order:
                continue
            quot, _ = quotient(g, n)
            simple = quot.order > 1 and is_simple(quot)
            assert (n.member_set in maxn) == simple


def test_is_simple(a5, s4):
    assert is_simple(a5)
    assert not is_simple(cyclic_group(4))
    assert is_simple(cyclic_group(7))
    assert not is_simple(s4)
    with pytest.raises(TrivialGroup):
        is_simple(cyclic_group(1))


def test_melnikov(s4, c6, a5):
    assert melnikov_subgroup(s4).order == 12
    assert melnikov_subgroup(c6).order == 1
    assert melnikov_subgroup(a5).order == 1


def test_solvable_radical(s4, a5):
    assert solvable_radical(s4).order == 24
    assert solvable_radical(a5).order == 1
    prod = direct_product(a5, c6 := cyclic_group(6))
    assert solvable_radical(prod).order == 6
    assert is_solvable(s4)
    assert not is_solvable(a5)


def test_product_decomposition_examples(a5):
    c6 = cyclic_group(6)
    prod = direct_product_many([c6, a5])
    # N = C3 x A5 inside C6 x A5
    members = [i for i in range(prod.order)
               if prod.value(i)[0] in (0, 2, 4)]
    n = Subgroup(prod, members)
    ncap, j = product_normal_decomposition(c6, [a5], n)
    assert ncap.order == 3
    assert j == (0,)

    triv = trivial_subgroup(prod)
    ncap, j = product_normal_decomposition(c6, [a5], triv)
    assert ncap.order == 1 and j == ()


def test_product_decomposition_two_factors(a5):
    c1 = cyclic_group(1)
    other = alternating_group(5)
    prod = direct_product_many([c1, a5, other])
    members = [i for i in range(prod.order) if prod.value(i)[1] == 0]
    n = Subgroup(prod, members)
    ncap, j = product_normal_decomposition(c1, [a5, other], n)
    assert ncap.order == 1
    assert j == (1,)


def test_product_decomposition_rejects_bad_factors(s4):
    c2 = cyclic_group(2)
    prod = direct_product_many([c2, s4])
    with pytest.raises(NotSimpleFactor):
        product_normal_decomposition(c2, [s4], trivial_subgroup(prod))


def test_oracle_lattice_agreement_small(s4, q8, c6, d4, v4):
    from aslkit.oracle import oracle_normal_subgroups
    for g in (s4, q8, c6, d4, v4, symmetric_group(5)):
        main = sorted((s.order, s.members) for s in all_normal_subgroups(g))
        orc = sorted((s.order, s.members) for s in oracle_normal_subgroups(g))
        assert main == orc


def _random_perm_groups(seed=7, count=12, max_degree=6):
    """Seeded permutation groups of degree <= max_degree, one or two gens."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        degree = rng.randint(2, max_degree)
        words = [cycle_label(tuple(rng.sample(range(degree), degree)))
                 for _ in range(rng.randint(1, 2))]
        out.append(group_from_perm_generators(degree, words))
    return out


def _key(sub):
    return (sub.order, sub.members)


def test_class_spans_match_element_closures():
    """The class-level spans agree with element-level normal closures."""
    groups = [g for _, g in catalog(48)] + _random_perm_groups()
    for g in groups:
        ref = {}
        for cls in conjugacy_classes(g):
            sub = normal_closure(g, (cls[0],))
            ref.setdefault(sub.member_set, sub)
        assert [_key(s) for s in class_closures(g)] == \
            sorted(_key(s) for s in ref.values()), g.name
        for sub in all_normal_subgroups(g):
            assert normal_closure(g, sub.gens()).member_set == \
                sub.member_set, g.name


def test_conjugacy_classes_bruteforce():
    """Classes found by conjugating with every element, up to order 120."""
    groups = [g for _, g in catalog(120)] + _random_perm_groups()
    for g in groups:
        if g.order > 120:
            continue
        seen = set()
        brute = []
        for x in range(g.order):
            if x in seen:
                continue
            cls = {g.mul(g.inv(h), g.mul(x, h)) for h in range(g.order)}
            seen |= cls
            brute.append(tuple(sorted(cls)))
        assert sorted(brute) == sorted(conjugacy_classes(g)), g.name


def _count_muls(count_products, g, fn):
    """Number of products of g made by fn(g), classes already computed."""
    class_index_of(g)
    count = count_products(g)
    fn(g)
    return count()


def test_class_closures_cost_on_abelian_groups(count_products):
    """No class-product table: at most as many products as element closures.

    An abelian group of order n has n classes, so an all-pairs class table
    alone costs n * n products, far above the element-level closures.
    """
    def element_level(g):
        for cls in conjugacy_classes(g):
            normal_closure(g, (cls[0],))

    c2 = cyclic_group(2)
    for build in (lambda: cyclic_group(128),
                  lambda: direct_product_many([c2] * 7)):
        ours = _count_muls(count_products, build(), class_closures)
        ref = _count_muls(count_products, build(), element_level)
        assert ours <= ref, (ours, ref)


def _element_level_groups():
    return [g for _, g in catalog(120)] + _random_perm_groups()


def test_solvable_radical_matches_element_level_definition():
    """The radical is generated by the solvable element-level closures."""
    for g in _element_level_groups():
        seeds = []
        for cls in conjugacy_classes(g):
            sub = normal_closure(g, (cls[0],))
            if is_solvable_subgroup(sub):
                seeds.extend(sub.gens())
        ref = subgroup_generated(g, seeds)
        rad = solvable_radical(g)
        assert rad.member_set == ref.member_set, g.name
        assert is_solvable(g) == (rad.order == g.order), g.name


def test_span_solvability_matches_the_element_level_walk():
    """The class-level derived series of each single-class span decides
    solvability as the element-level derived series of its closure does,
    on the nonsolvable groups of the sweep and on both A5 wreaths' Ind."""
    groups = [g for g in _element_level_groups() if not is_solvable(g)]
    groups += [w.ind_group for w in (_a5_wreath_c2(), _a5_wreath_s3())]
    seen = 0
    for g in groups:
        for mask, c in _class_spans(g).items():
            sub = normal_closure(g, (conjugacy_classes(g)[c][0],))
            assert _span_is_solvable(g, mask, c) == \
                is_solvable_subgroup(sub), (g.name, c)
            seen += not is_solvable_subgroup(sub)
    assert seen >= 20


def test_residuum_walks_on_the_generators_it_has(monkeypatch):
    """Every derived term keeps the generators its closure adopted, so a
    walk from a subgroup with generators chooses none."""
    groups = [symmetric_group(4), symmetric_group(5),
              direct_product(alternating_group(5), symmetric_group(4))]
    starts = [sub for g in groups
              for sub in (full_subgroup(g), commutator_subgroup(g))]
    want = [_residuum(Subgroup(h.parent, h.members)).member_set
            for h in starts]

    def refuse(G, members):
        raise AssertionError(f"greedy generators of {len(members)} members")

    monkeypatch.setattr(core, "greedy_generators", refuse)
    assert [_residuum(h).member_set for h in starts] == want
    assert [len(m) for m in want] == [1, 1, 60, 60, 60, 60]


def test_is_simple_matches_class_closures():
    """Simple iff the normal closure of every class is 1 or G."""
    for g in _element_level_groups():
        if g.order == 1:
            continue
        ref = all(normal_closure(g, (cls[0],)).order in (1, g.order)
                  for cls in conjugacy_classes(g))
        assert is_simple(g) == ref, g.name


def test_solvable_series_skips_the_class_layer():
    """The series of a solvable group computes no conjugacy class.

    The groups are built fresh, so no other test has warmed their caches;
    every group the series materializes, the terms and the factor quotients,
    is checked.
    """
    from aslkit.series import (
        abelian_simple_length,
        generalized_derived_subgroup,
    )
    big = direct_product(dihedral_group(4), symmetric_group(4))
    assert big.order == 192
    assert "D4 x S4" in dict(catalog(192))
    for g in (symmetric_group(4),
              direct_product(cyclic_group(6), symmetric_group(3)), big):
        abelian_simple_length(g)
        h = g
        while True:
            seen = [h] + [v[0] for k, v in h._cache.items()
                          if isinstance(k, tuple) and k[0] == "quotient"]
            for grp in seen:
                assert "classes" not in grp._cache, grp.name
                assert "class_spans" not in grp._cache, grp.name
            if h.order == 1:
                break
            d = generalized_derived_subgroup(h)
            if d.order == 1:
                break
            h = d.as_group()


def _spans_class_by_class(g):
    """{class mask of <c^G>: first c}, one `_span` per class."""
    spans = {}
    for c in range(len(conjugacy_classes(g))):
        spans.setdefault(_span(g, 1, (c,)), c)
    return spans


def _breadth_first_lattice(g):
    """Class masks of every normal subgroup, by spanning each member with
    every single-class closure, breadth-first, until nothing new is met."""
    spans = _spans_class_by_class(g)
    found = set(spans)
    worklist = list(found)
    while worklist:
        new = []
        for a in worklist:
            for b, c in spans.items():
                if a & b == b or a & b == a:
                    continue
                j = _span(g, a, (c,))
                if j not in found:
                    found.add(j)
                    new.append(j)
        worklist = new
    return found


def _lattice_sets(subgroups):
    return sorted((s.order, s.members) for s in subgroups)


def _mask_sets(g, masks):
    classes = conjugacy_classes(g)
    out = []
    for mask in masks:
        members = sorted(x for k, cls in enumerate(classes)
                         if mask >> k & 1 for x in cls)
        out.append((len(members), tuple(members)))
    return sorted(out)


def test_lattice_matches_oracle_on_the_catalog():
    """Every catalog group of order <= 48 within the oracle's class cap."""
    checked = 0
    for name, g in catalog(48):
        if len(conjugacy_classes(g)) > ORACLE_CLASS_CAP:
            continue
        assert _lattice_sets(all_normal_subgroups(g)) == \
            _lattice_sets(oracle_normal_subgroups(g)), name
        checked += 1
    assert checked >= 200


def test_lattice_matches_breadth_first_joins():
    """Joins found by order give the lattice that spanning every join
    gives, on every catalog group of order <= 100 under the class cap."""
    checked = 0
    for name, g in catalog(100):
        if len(conjugacy_classes(g)) > LATTICE_CLASS_CAP:
            continue
        assert _lattice_sets(all_normal_subgroups(g)) == \
            _mask_sets(g, _breadth_first_lattice(g)), name
        checked += 1
    assert checked >= 600


def test_lattice_with_many_members_of_one_order():
    """C2 x C2 x C2 has seven normal subgroups of order 4 and C4 x C2
    three: a join of order 4 is the found member of that order that
    contains both sides, not any member of that order."""
    c2, c4 = cyclic_group(2), cyclic_group(4)
    for g, want in ((direct_product_many([c2, c2, c2]),
                     [1] + [2] * 7 + [4] * 7 + [8]),
                    (direct_product(c4, c2), [1, 2, 2, 2, 4, 4, 4, 8])):
        lat = all_normal_subgroups(g)
        assert [s.order for s in lat] == want, g.name
        assert _lattice_sets(lat) == \
            _mask_sets(g, _breadth_first_lattice(g)), g.name


def test_class_spans_share_one_span_per_power_family():
    """The spans shared along power families are the spans computed class
    by class, each under its first class and in the same order."""
    groups = [g for _, g in catalog(48)] + \
        [_a5_wreath_c2().group, _a5_wreath_s3().group]
    for g in groups:
        assert list(_class_spans(g).items()) == \
            list(_spans_class_by_class(g).items()), g.name

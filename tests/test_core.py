"""Group construction, products, quotients, and the multiplication oracle."""

import random

import pytest
from group_strategies import perm_groups
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aslkit import core, matgroups
from aslkit.catalog import catalog
from aslkit.core import (
    ClosureBuilder,
    check_group_axioms,
    commutator_subgroup,
    conjugacy_classes,
    direct_product,
    fiber_product,
    full_subgroup,
    group_from_perm_generators,
    is_abelian,
    is_isomorphic,
    normal_closure,
    perm_from_cycles,
    cycle_label,
    product_embedding,
    product_projection,
    quotient,
    semidirect_product,
    subgroup_closure,
    subgroup_derived,
    subgroup_generated,
    trivial_subgroup,
    trivial_action,
    Group,
    GroupAction,
    Homomorphism,
    perm_inv,
    perm_mul,
)
from aslkit.errors import CapExceeded, MalformedCycle, NotNormal, NotSurjective
from aslkit.families import (
    alternating_group,
    cyclic_group,
    dihedral_group,
    symmetric_group,
)
from aslkit.matgroups import (
    LPFiltration,
    MatrixGroupSpec,
    PrimePowerField,
    elementary_matrix,
    gl_group,
    matrix_group,
    unitriangular_group,
)
from aslkit.normal import all_normal_subgroups, class_closures
from aslkit.series import FactorDescriptor
from aslkit.specparse import Named, PermSpec
from aslkit.verify import Case, SuiteResult


def test_perm_generators_s3():
    g = group_from_perm_generators(3, ["(1 2 3)", "(1 2)"])
    assert g.order == 6
    assert is_isomorphic(g, symmetric_group(3))


def test_perm_generators_trivial():
    g = group_from_perm_generators(1, [])
    assert g.order == 1
    assert g.labels == ("()",)


def test_perm_generators_klein():
    g = group_from_perm_generators(4, ["(1 2)(3 4)", "(1 3)(2 4)"])
    assert g.order == 4
    assert is_abelian(g)


def test_malformed_cycles():
    with pytest.raises(MalformedCycle):
        perm_from_cycles(3, "(1 2 2)")
    with pytest.raises(MalformedCycle):
        perm_from_cycles(3, "(1 5)")
    with pytest.raises(MalformedCycle):
        perm_from_cycles(3, "(1 a)")


def test_cycle_label_roundtrip():
    for text in ["(1 2 3)", "(1 2)(3 4)", "()", "(2 4)(3 5)"]:
        value = perm_from_cycles(5, text)
        assert perm_from_cycles(5, cycle_label(value)) == value


def test_closure_cap():
    with pytest.raises(CapExceeded,
                       match=r"closure of 'S5' exceeded cap 100$"):
        group_from_perm_generators(5, ["(1 2 3 4 5)", "(1 2)"], name="S5",
                                   closure_cap=100)
    # GL(3,2), order 168, from its transvections
    gens = tuple(elementary_matrix(3, i, j, 1)
                 for i in range(3) for j in range(3) if i != j)
    spec = MatrixGroupSpec(3, PrimePowerField(2), gens)
    with pytest.raises(CapExceeded,
                       match=r"closure of 'GL3' exceeded cap 100$"):
        matrix_group(spec, name="GL3", closure_cap=100)
    assert matrix_group(spec, name="GL3", closure_cap=168).order == 168


@pytest.mark.parametrize("build,bound", [
    (lambda: unitriangular_group(4, 5), 16000),
    (lambda: alternating_group(7), 2600),
    (lambda: gl_group(3, 2), 200),
], ids=["U(4,5)", "A7", "GL(3,2)"])
def test_leaf_groups_close_coset_by_coset(monkeypatch, build, bound):
    """A leaf group closes its generator values in a ClosureBuilder. A
    sweep of every member by every generator took |G| * #generators value
    products: 46,875 for U(4,5), 12,600 for A7 and 1,008 for GL(3,2)."""
    calls = 0
    real = core.generate_group

    def counting(identity, gens, vmul, *args, **kwargs):
        def counted(a, b):
            nonlocal calls
            calls += 1
            return vmul(a, b)
        return real(identity, gens, counted, *args, **kwargs)

    monkeypatch.setattr(core, "generate_group", counting)
    monkeypatch.setattr(matgroups, "generate_group", counting)
    build()
    assert 0 < calls <= bound


def test_canonical_order_identity_first(s4):
    assert s4.labels[0] == "()"
    assert s4.identity == 0


def test_axioms_on_sample_groups(s4, q8, d4):
    for g in (s4, q8, d4, cyclic_group(12), alternating_group(5)):
        assert check_group_axioms(g) == []


def test_axioms_catch_one_wrong_product_in_s6():
    """S6 (order 720) with the single product 5 * 7 altered: the identity
    and inverse laws still hold, and the exact associativity test finds
    the failure that 10000 sampled triples would almost surely miss."""
    s6 = symmetric_group(6)
    assert check_group_axioms(s6) == []
    x, y = s6.value(5), s6.value(7)
    wrong = s6.value(s6.mul(7, 5))
    assert wrong != perm_mul(x, y)

    def vmul(a, b):
        return wrong if (a, b) == (x, y) else perm_mul(a, b)

    bad = Group([s6.value(i) for i in range(s6.order)], vmul, perm_inv,
                cycle_label, generators=s6.generators)
    problems = check_group_axioms(bad)
    assert problems and all("associativity" in p for p in problems)


def test_element_orders(s4):
    orders = sorted(s4.element_order(i) for i in range(24))
    assert orders.count(1) == 1
    assert orders.count(2) == 9
    assert orders.count(3) == 8
    assert orders.count(4) == 6


def test_direct_product_orders(s3):
    p = direct_product(s3, cyclic_group(2))
    assert p.order == 12
    one = direct_product(cyclic_group(1), s3)
    assert is_isomorphic(one, s3)


def test_direct_product_class_count(s3, d4):
    for a, b in [(s3, d4), (cyclic_group(2), cyclic_group(2))]:
        p = direct_product(a, b)
        assert len(conjugacy_classes(p)) == \
            len(conjugacy_classes(a)) * len(conjugacy_classes(b))


def test_product_embeddings(s3):
    p = direct_product(s3, cyclic_group(4))
    e0, e1 = product_embedding(p, 0), product_embedding(p, 1)
    assert e0.validate() and e1.validate()
    pr0 = product_projection(p, 0)
    assert pr0.validate()
    assert all(pr0(e0(i)) == i for i in range(6))


def test_semidirect_inversion_is_s3():
    c3, c2 = cyclic_group(3), cyclic_group(2)

    def apply(n, h):
        return n if h == 0 else c3.inv(n)

    w = semidirect_product(c3, c2, GroupAction(c2, c3, apply))
    assert w.order == 6
    assert is_isomorphic(w, symmetric_group(3))


def test_semidirect_inversion_c4_is_d4(d4):
    c4, c2 = cyclic_group(4), cyclic_group(2)

    def apply(n, h):
        return n if h == 0 else c4.inv(n)

    w = semidirect_product(c4, c2, GroupAction(c2, c4, apply))
    assert w.order == 8
    assert is_isomorphic(w, d4)


def test_semidirect_trivial_action_is_direct(s3):
    c4 = cyclic_group(4)
    w = semidirect_product(c4, s3, trivial_action(s3, c4))
    assert is_isomorphic(w, direct_product(c4, s3))


def test_quotient_s4_by_v4(s4):
    v4 = normal_closure(s4, [s4.index_of(perm_from_cycles(4, "(1 2)(3 4)"))])
    assert v4.order == 4
    q, pi = quotient(s4, v4)
    assert q.order == 6
    assert not is_abelian(q)
    assert pi.is_surjective()
    assert pi.kernel().member_set == v4.member_set


def test_labels_are_made_on_first_use():
    made = []

    def labeler(v):
        made.append(v)
        return f"r{v}"

    c3 = Group(range(3), lambda a, b: (a + b) % 3, lambda a: -a % 3,
               labeler, name="C3")
    assert made == []
    q, _ = quotient(c3, trivial_subgroup(c3))
    assert made == []
    assert q.label(2) == "[r2]"
    assert q.labels == ("[r0]", "[r1]", "[r2]")
    assert made == [0, 1, 2]


def test_quotient_edges(s4):
    q, _ = quotient(s4, trivial_subgroup(s4))
    assert is_isomorphic(q, s4)
    q2, _ = quotient(s4, full_subgroup(s4))
    assert q2.order == 1


def test_quotient_requires_normal(s4):
    sub = subgroup_generated(s4, [s4.index_of(perm_from_cycles(4, "(1 2)"))])
    with pytest.raises(NotNormal):
        quotient(s4, sub)


def _sign_hom(sym):
    c2 = cyclic_group(2)
    mapping = []
    for i in range(sym.order):
        perm = sym.value(i)
        swaps = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm))
                    if perm[a] > perm[b])
        mapping.append(swaps % 2)
    return Homomorphism(sym, c2, mapping)


def test_fiber_product_sign(s3):
    alpha = _sign_hom(s3)
    assert alpha.validate()
    fp = fiber_product(alpha, alpha)
    assert fp.order == 18
    # independent count of sign-matching pairs
    count = sum(1 for i in range(6) for j in range(6)
                if alpha.mapping[i] == alpha.mapping[j])
    assert count == 18


def test_product_size_refusals_name_the_group(s3, monkeypatch):
    """The semidirect and fiber products refuse their size through
    `check_order`, as every other constructor does."""
    c3, c2 = cyclic_group(3), cyclic_group(2)
    with pytest.raises(CapExceeded, match=r"^\|C3 x\| C2\| exceeds cap 5$"):
        semidirect_product(c3, c2, trivial_action(c2, c3), closure_cap=5)
    monkeypatch.setattr(core, "CLOSURE_CAP", 10)
    alpha = _sign_hom(s3)
    with pytest.raises(CapExceeded, match=r"^\|S3 xK S3\| exceeds cap 10$"):
        fiber_product(alpha, alpha)


def test_fiber_product_trivial_k(s3, a4):
    c1 = cyclic_group(1)
    alpha = Homomorphism(s3, c1, [0] * 6)
    beta = Homomorphism(a4, c1, [0] * 12)
    assert fiber_product(alpha, beta).order == 72


def test_fiber_product_diagonal(s3):
    from aslkit.core import identity_hom
    fp = fiber_product(identity_hom(s3), identity_hom(s3))
    assert fp.order == 6
    assert is_isomorphic(fp, s3)


def test_fiber_product_needs_surjectivity(s3):
    c2 = cyclic_group(2)
    not_onto = Homomorphism(s3, c2, [0] * 6)
    with pytest.raises(NotSurjective):
        fiber_product(not_onto, not_onto)


def test_commutator_subgroups(s3, a5):
    assert commutator_subgroup(s3).order == 3
    assert commutator_subgroup(cyclic_group(12)).order == 1
    assert commutator_subgroup(a5).order == 60  # perfect


def _all_pairs_derived(G, members):
    """<x^-1 y^-1 x y : x, y in members>, with no conjugation loop."""
    return frozenset(subgroup_closure(G, [
        G.mul(G.mul(G.inv(x), G.inv(y)), G.mul(x, y))
        for x in members for y in members]))


def test_derived_subgroups_match_all_pairs_commutators():
    for name, G in catalog(64):
        assert commutator_subgroup(G).member_set == \
            _all_pairs_derived(G, range(G.order)), name
        for H in class_closures(G):
            assert subgroup_derived(H).member_set == \
                _all_pairs_derived(G, H.members), name


def test_conjugacy_classes(s3, s4):
    assert [len(c) for c in conjugacy_classes(s3)] == [1, 2, 3]
    assert len(conjugacy_classes(s4)) == 5
    ab = cyclic_group(7)
    assert all(len(c) == 1 for c in conjugacy_classes(ab))


def _classes_by_conjugation(G):
    """Classes from the definition: each element conjugated by every
    element, in the (size, least member) order of `conjugacy_classes`."""
    classes = {tuple(sorted({G.conj(x, g) for g in range(G.order)}))
               for x in range(G.order)}
    return tuple(sorted(classes, key=lambda c: (len(c), c[0])))


def test_quotient_classes_are_fused_from_the_parent():
    """With the parent's classes known, every quotient of a catalog group
    by a normal subgroup reads its classes as their images; they are the
    classes conjugation gives, and the quotient computes no orbit."""
    for name, G in catalog(48):
        conjugacy_classes(G)
        for N in all_normal_subgroups(G):
            # a fresh quotient, whose classes no earlier test has read
            G._cache.pop(("quotient", N.member_set), None)
            Q, _ = quotient(G, N)
            assert "classes" not in Q._cache
            fused = conjugacy_classes(Q)
            assert Q._inv_cache == [None] * Q.order, (name, N.order)
            assert fused == _classes_by_conjugation(Q), (name, N.order)


def test_quotient_of_a_group_without_classes_runs_its_own_orbits():
    for G in (symmetric_group(4), direct_product(alternating_group(5),
                                                 cyclic_group(2))):
        for N in (commutator_subgroup(G), trivial_subgroup(G)):
            Q, _ = quotient(G, N)
            assert conjugacy_classes(Q) == _classes_by_conjugation(Q)
            assert "classes" not in G._cache, G.name


def test_normal_closure_examples(s4):
    transposition = s4.index_of(perm_from_cycles(4, "(1 2)"))
    assert normal_closure(s4, [transposition]).order == 24
    assert normal_closure(s4, [0]).order == 1
    threecycle = s4.index_of(perm_from_cycles(4, "(1 2 3)"))
    assert normal_closure(s4, [threecycle]).order == 12


class _SweptClosure:
    """Reference closure: every member times every generator, from the
    identity, until nothing new turns up."""

    def __init__(self, G):
        self.G = G
        self.member_set = {0}
        self.gens = []

    def add(self, g):
        if g in self.member_set:
            return False
        self.gens.append(g)
        mlist, seen = [0], {0}
        for x in mlist:
            for s in self.gens:
                y = self.G.mul(x, s)
                if y not in seen:
                    seen.add(y)
                    mlist.append(y)
        self.member_set = seen
        return True


def _add_against_sweep(G, seeds):
    """Adds each seed to a ClosureBuilder and to the swept reference and
    checks after each add the return value, the members and the adopted
    generators, and that the members are listed coset by coset: the old
    subgroup H first and unchanged, then right cosets H*r, each headed by
    its representative r. A seed None adds the last member listed."""
    cb, ref = ClosureBuilder(G.mul), _SweptClosure(G)
    for g in seeds:
        g = cb.mlist[-1] if g is None else g
        before = list(cb.mlist)
        grew = cb.add(g)
        assert grew == ref.add(g), (G.name, g)
        assert cb.member_set == ref.member_set, (G.name, g)
        assert cb.gens == ref.gens
        assert sorted(cb.mlist) == sorted(cb.member_set)
        n = len(before)
        assert cb.mlist[:n] == before and len(cb.mlist) % n == 0
        for head in range(n, len(cb.mlist), n):
            r = cb.mlist[head]
            assert set(cb.mlist[head:head + n]) == \
                {G.mul(h, r) for h in before}


def test_closure_builder_matches_bruteforce(s4):
    words = ["(1 2 3)", "(1 3 2)", "(1 2)(3 4)", "()", "(1 2)", "(3 4)"]
    _add_against_sweep(s4, [s4.index_of(perm_from_cycles(4, w))
                            for w in words])


def test_closure_builder_matches_sweep_on_the_catalog():
    """Several generators in turn on every catalog group to order 48,
    with members already inside (the last member found, and 1) between
    them."""
    rng = random.Random(48)
    for _, G in catalog(48):
        seeds = [0]
        for _ in range(4):
            seeds += [rng.randrange(G.order), None]
        _add_against_sweep(G, seeds)


@settings(derandomize=True, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(perm_groups(), st.lists(st.integers(0, 10 ** 6), min_size=1,
                               max_size=6))
def test_closure_builder_matches_sweep_on_perm_groups(G, picks):
    seeds = []
    for k in picks:
        seeds += [k % G.order, None, 0]
    _add_against_sweep(G, seeds)


def test_cyclic_closure_walks_the_powers(count_products):
    """<g> costs one product per power after g, the last one back at 1."""
    s6 = symmetric_group(6)
    g = s6.index_of(perm_from_cycles(6, "(1 2 3)(4 5)"))
    count = count_products(s6)
    cb = ClosureBuilder(s6.mul)
    cb.add(g)
    assert len(cb.mlist) == 6 and count() == 5
    x = g
    for power in cb.mlist[1:]:
        assert power == x
        x = s6.mul(x, g)


def test_subgroup_materialization(s4):
    a4sub = normal_closure(
        s4, [s4.index_of(perm_from_cycles(4, "(1 2 3)"))])
    m = a4sub.as_group()
    assert m.order == 12
    assert check_group_axioms(m) == []
    assert is_isomorphic(m, alternating_group(4))


def test_homomorphism_validation_policy(s4):
    bad = Homomorphism(s4, cyclic_group(2), [1] * 24)
    assert not bad.validate()
    assert _sign_hom(s4).validate()


def test_isomorphism_negative(s3, c6):
    assert not is_isomorphic(s3, c6)
    assert not is_isomorphic(cyclic_group(4),
                             direct_product(cyclic_group(2), cyclic_group(2)))


def test_dihedral_structure():
    for n in (3, 4, 5, 6, 10):
        dn = dihedral_group(n)
        assert dn.order == 2 * n
        assert not is_abelian(dn)


def test_semidirect_multiplication_formula():
    # (n1,h1)(n2,h2) = (n1^h2 * n2, h1 h2) for the right action, pointwise
    c4, c2 = cyclic_group(4), cyclic_group(2)

    def apply(n, h):
        return n if h == 0 else c4.inv(n)

    act = GroupAction(c2, c4, apply)
    w = semidirect_product(c4, c2, act)
    for n1 in range(4):
        for h1 in range(2):
            for n2 in range(4):
                for h2 in range(2):
                    i = w.index_of((n1, h1))
                    j = w.index_of((n2, h2))
                    want = (c4.mul(apply(n1, h2), n2), c2.mul(h1, h2))
                    assert w.value(w.mul(i, j)) == want


def test_records_compare_hash_and_print_like_dataclasses(s3):
    # equality needs the same class, not only equal fields
    assert Named("C", (2,)) != PermSpec("C", (2,))
    assert Named("C", (2,)) == Named("C", (2,), (1, 6))  # pos not compared
    a = FactorDescriptor(order=6, abelian_invariants=(6,), simple_orders=())
    b = FactorDescriptor(6, (6,), ())
    assert a == b and hash(a) == hash(b)
    assert hash(Named("C", (2,))) == hash(Named("C", (2,), (1, 6)))
    with pytest.raises(AttributeError):
        a.order = 2
    with pytest.raises(AttributeError):
        del a.order
    r1 = SuiteResult("s", "claim", [Case("c", True, "")], elapsed=1.5)
    r2 = SuiteResult("s", "claim", [Case("c", True, "")])
    assert r1 == r2 and r2.elapsed == 0.0
    assert r1 != SuiteResult("s", "claim", [Case("c", False, "")])
    with pytest.raises(TypeError):
        hash(r1)
    full = full_subgroup(s3)
    f1, f2 = LPFiltration(full, full, full), LPFiltration(full, full, full)
    assert f1 == f2
    assert repr(Case("c", True, "d")) == "Case(id='c', ok=True, detail='d')"
    assert repr(r2) == ("SuiteResult(suite='s', claim='claim', cases="
                        "[Case(id='c', ok=True, detail='')], elapsed=0.0)")

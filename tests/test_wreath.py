"""Induced groups, twisted wreath products, and the series-growth machinery."""

import pytest

from aslkit.core import (
    GroupAction,
    check_group_axioms,
    commutator_subgroup,
    conjugacy_classes,
    full_subgroup,
    is_isomorphic,
    semidirect_product,
    subgroup_closure,
    subgroup_generated,
    trivial_action,
    trivial_subgroup,
)
from aslkit.errors import CapExceeded, NotAnAction, NotInvariant, NotNormal
from aslkit.families import (
    alternating_group,
    cyclic_group,
    symmetric_group,
)
from aslkit.fpmod import LinearAction, as_group_action
from aslkit.series import generalized_derived_series
from aslkit.verify import _a5_wreath_c2, _a5_wreath_s3
from aslkit.wreath import (
    induced_group,
    msigma_hypothesis,
    msigma_witness,
    realization_chain,
    twisted_wreath_product,
    wreath_quotient,
)
from aslkit.core import Subgroup


def _order2_subgroup(s3):
    elt = next(i for i in range(6) if s3.label(i) == "(1 2)")
    return subgroup_generated(s3, [elt])


def test_induced_order_examples(s3):
    c2 = cyclic_group(2)
    g = cyclic_group(2)
    ind, _ = induced_group(c2, g, trivial_subgroup(g))
    assert ind.order == 4
    g0 = _order2_subgroup(s3)
    ind2, _ = induced_group(c2, s3, g0)
    assert ind2.order == 8


def test_induced_constant_functions():
    c3 = cyclic_group(3)
    c2 = cyclic_group(2)
    ind, act = induced_group(c3, c2, full_subgroup(c2))
    assert ind.order == 3
    assert all(act.apply(f, s) == f for f in range(3) for s in range(2))


def test_induced_action_is_action(s3):
    c2 = cyclic_group(2)
    g0 = _order2_subgroup(s3)
    ind, act = induced_group(c2, s3, g0)
    act.validate()


def test_wreath_c2_c2_is_d4(d4):
    c2 = cyclic_group(2)
    g = cyclic_group(2)
    w = twisted_wreath_product(c2, g, trivial_subgroup(g))
    assert w.group.order == 8
    assert is_isomorphic(w.group, d4)
    assert check_group_axioms(w.group) == []
    assert w.ind.verify_normal()


def test_wreath_order_formula(a4):
    c3elt = next(i for i in range(12) if a4.element_order(i) == 3)
    g0 = subgroup_generated(a4, [c3elt])
    w = twisted_wreath_product(cyclic_group(2), a4, g0)
    assert w.group.order == 2 ** 4 * 12


def test_wreath_full_g0_is_semidirect(s3):
    c2 = cyclic_group(2)
    w = twisted_wreath_product(c2, s3, full_subgroup(s3))
    assert w.group.order == 12
    assert w.ind_group.order == 2


def test_wreath_cap():
    a5 = alternating_group(5)
    c3 = cyclic_group(3)
    with pytest.raises(CapExceeded):
        twisted_wreath_product(a5, c3, trivial_subgroup(c3))


def test_realization_chain_examples(s3):
    g0 = _order2_subgroup(s3)
    w = twisted_wreath_product(cyclic_group(2), s3, g0)
    chain, indices = realization_chain(w)
    assert indices == (3, 2, 2, 4)
    assert [s.order for s in chain] == [48, 16, 8, 4, 1]

    c2 = cyclic_group(2)
    w2 = twisted_wreath_product(cyclic_group(2), c2, trivial_subgroup(c2))
    _, idx2 = realization_chain(w2)
    assert idx2 == (2, 1, 2, 2)

    w3 = twisted_wreath_product(cyclic_group(3), c2, full_subgroup(c2))
    chain3, idx3 = realization_chain(w3)
    assert idx3 == (1, 2, 3, 1)
    assert chain3[3].order == 1


def test_wreath_quotient_kernel(s3):
    g0 = _order2_subgroup(s3)
    c4 = cyclic_group(4)
    g0g = g0.as_group()

    def apply(a, t):
        return a if t == 0 else c4.inv(a)

    act = GroupAction(g0g, c4, apply)
    a0 = Subgroup(c4, [0, 2], normal=True)
    hom = wreath_quotient(c4, a0, s3, g0, act)
    assert hom.is_surjective()
    assert hom.kernel().order == 8
    assert hom.validate()


def test_wreath_quotient_rejects_non_normal(s3):
    g0 = _order2_subgroup(s3)
    a = symmetric_group(3)
    transposition = subgroup_generated(a, [a.index_of((1, 0, 2))])
    with pytest.raises(NotNormal):
        wreath_quotient(a, transposition, s3, g0)


def test_wreath_quotient_rejects_non_invariant():
    from aslkit.core import direct_product
    c2 = cyclic_group(2)
    a = direct_product(cyclic_group(2), cyclic_group(2))
    g0 = full_subgroup(c2)
    g0g = g0.as_group()

    def swap(x, t):
        v = a.value(x)
        return x if t == 0 else a.index_of((v[1], v[0]))

    act = GroupAction(g0g, a, swap)
    act.validate()
    first_factor = Subgroup(a, [a.index_of((0, 0)), a.index_of((1, 0))],
                            normal=True)
    with pytest.raises(NotInvariant):
        wreath_quotient(a, first_factor, c2, g0, act)


def test_msigma_hypothesis_examples(a4):
    c3elt = next(i for i in range(12) if a4.element_order(i) == 3)
    g0 = subgroup_generated(a4, [c3elt])
    assert msigma_hypothesis(a4, g0, 1)
    c2 = cyclic_group(2)
    assert not msigma_hypothesis(c2, full_subgroup(c2), 0)
    assert msigma_hypothesis(c2, trivial_subgroup(c2), 0)


def test_msigma_witness_d4_center():
    c2 = cyclic_group(2)
    w = msigma_witness(cyclic_group(2), c2, trivial_subgroup(c2), m=0)
    assert w is not None
    # the witness is the constant nontrivial function (the center of D4)
    assert set(w.fn.values()) == {"1"}
    assert w.outer == "0"


def test_msigma_witness_a4(a4):
    c3elt = next(i for i in range(12) if a4.element_order(i) == 3)
    g0 = subgroup_generated(a4, [c3elt])
    w = msigma_witness(cyclic_group(2), a4, g0, m=1)
    assert w is not None


def test_msigma_no_witness_when_hypothesis_fails():
    c2 = cyclic_group(2)
    w = msigma_witness(cyclic_group(2), c2, full_subgroup(c2), m=0)
    assert w is None


def test_msigma_witness_past_the_end_of_the_series():
    """C2 wr C2 = D4 has the series D4 > Z(D4) > 1, which reaches the
    identity before depth m + 1 for m >= 2: the (m+1)-st term is then the
    identity, so no witness exists, and the hypothesis fails with it."""
    c2 = cyclic_group(2)
    w = twisted_wreath_product(cyclic_group(2), c2, trivial_subgroup(c2))
    assert generalized_derived_series(w.group).orders() == (8, 2, 1)
    for m in (1, 2, 5):
        assert not msigma_hypothesis(c2, trivial_subgroup(c2), m)
        assert msigma_witness(cyclic_group(2), c2, trivial_subgroup(c2),
                              m=m) is None, m


def test_elementary_abelian_wreath_intersection(s3):
    # A = F2^2 with the irreducible C3-action; the hypothesis at m = 0 holds
    # since [S3 : A3] = 2 > 1, so H^(1) must meet Ind nontrivially
    c3elt = next(i for i in range(6) if s3.element_order(i) == 3)
    g0 = subgroup_generated(s3, [c3elt])
    lin = LinearAction(g0.as_group(), 2, 2, [((0, 1), (1, 1))])
    gact = as_group_action(lin)
    w = msigma_witness(gact.space, s3, g0, gact, m=0)
    assert w is not None
    assert w.outer == "()"


def test_wreath_generated_by_one_coset_copy_and_g(s3):
    """The copy of A on the identity coset and the complement G generate
    the whole wreath product, also when G0 acts on A: for the two
    simple-nonabelian wreaths, the nontrivial-action one (C3 acting on
    F2^2) and C3 wr S3 over a transposition acting by inversion."""
    c3elt = next(i for i in range(6) if s3.element_order(i) == 3)
    a3 = subgroup_generated(s3, [c3elt])
    gact = as_group_action(
        LinearAction(a3.as_group(), 2, 2, [((0, 1), (1, 1))]))
    g0 = _order2_subgroup(s3)
    c3 = cyclic_group(3)
    inversion = GroupAction(g0.as_group(), c3,
                            lambda a, t: c3.inv(a) if t else a)
    inversion.validate()
    wreaths = [_a5_wreath_c2(), _a5_wreath_s3(),
               twisted_wreath_product(gact.space, s3, a3, gact),
               twisted_wreath_product(c3, s3, g0, inversion)]
    for w in wreaths:
        W = w.group
        assert len(W.generators) == len(w.a.generators) + len(w.g.generators)
        assert len(subgroup_closure(W, W.generators)) == W.order, W.name


def test_induced_group_refuses_a_foreign_g0():
    """G0 must be a Subgroup of G: indices 0, 2, 4 of C6 read in S3 are
    no subgroup, and gave a 24-element "wreath product"."""
    s3 = symmetric_group(3)
    foreign = subgroup_generated(cyclic_group(6), [2])
    with pytest.raises(NotAnAction):
        induced_group(cyclic_group(2), s3, foreign)
    with pytest.raises(NotAnAction):
        twisted_wreath_product(cyclic_group(2), s3, foreign)


def _fresh_a5_wreath_c2():
    c2 = cyclic_group(2)
    return twisted_wreath_product(alternating_group(5), c2,
                                  trivial_subgroup(c2))


def test_derived_closure_of_the_a5_wreath_is_coset_by_coset(count_products):
    """W' = Ind for A5 wr C2 (order 7200). Closed coset by coset it takes
    about one product per member; multiplying every member by every
    generator took 21,696."""
    w = _fresh_a5_wreath_c2()
    count = count_products(w.group)
    der = commutator_subgroup(w.group)
    assert der.member_set == w.ind.member_set
    assert count() <= 4500


def test_ind_materializes_in_ind(count_products, monkeypatch):
    """Ind = Ind x 1 in W = Ind x| G multiplies in Ind: the same values,
    labels, index_of, generators, parent indices and products as the
    materialization through W, and no product of W."""
    w = _fresh_a5_wreath_c2()
    W, members = w.group, w.ind.members
    with monkeypatch.context() as m:
        m.setattr(W, "kind", "generic")  # takes the path through W
        ref = Subgroup(W, members).as_group()
    gens = ref.generators
    want = [[ref.mul(i, g) for g in gens] for i in range(ref.order)]
    want_inv = [ref.inv(i) for i in range(ref.order)]
    want_classes = conjugacy_classes(ref)
    count = count_products(W)
    ind = Subgroup(W, members).as_group()
    assert ind.generators == gens
    assert [[ind.mul(i, g) for g in gens] for i in range(ind.order)] == want
    assert [ind.inv(i) for i in range(ind.order)] == want_inv
    assert conjugacy_classes(ind) == want_classes
    assert count() == 0
    assert ind.parent_indices == ref.parent_indices == members
    assert list(map(ind.value, ind.elements())) == list(members)
    assert all(ind.index_of(p) == ref.index_of(p) == k
               for k, p in enumerate(members))
    assert ind.labels == ref.labels


def test_only_the_image_of_n_multiplies_in_n():
    """Each subgroup materializes with its parent's products, whether it
    is the image of N, multiplied in N, or not, multiplied in the parent:
    in C4 x| C2 (index 2n + h), {0, 2, 4, 6} is C4 x 1 and {0, 1, 4, 5}
    is a Klein group of the same order."""
    c2, c4 = cyclic_group(2), cyclic_group(4)
    W = semidirect_product(c4, c2, trivial_action(c2, c4))
    for members in ((0, 2, 4, 6), (0, 1, 4, 5), (0, 4), (0, 1)):
        H = Subgroup(W, members).as_group()
        assert all(members[H.mul(i, j)] == W.mul(members[i], members[j])
                   for i in range(H.order) for j in range(H.order))
        assert all(members[H.inv(i)] == W.inv(members[i])
                   for i in range(H.order))

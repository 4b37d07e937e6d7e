"""Prime-field subspaces, linear actions, G-sets, function-space chains."""

import random

import pytest

from aslkit.core import subgroup_generated, trivial_subgroup, full_subgroup
from aslkit.errors import DimensionTooLarge, NotAnAction
from aslkit.families import cyclic_group, symmetric_group
from aslkit.fpmod import (
    FpSubspace,
    GSet,
    LinearAction,
    coinvariant_span,
    coset_space,
    is_irreducible,
    orbit_hypothesis,
    rref,
    unipotent_derived_length,
    v_chain,
    vector_group,
)
from aslkit.series import generalized_derived_series


def _dense_rref(p, rows):
    """Reference: dense Gauss-Jordan elimination that rescans every basis
    row for its lead, kept independent of the module's pivot-indexed basis."""
    basis = []
    for r in rows:
        r = [x % p for x in r]
        for b in basis:
            lead = next(i for i, x in enumerate(b) if x)
            if r[lead]:
                c = r[lead]
                r = [(a - c * bb) % p for a, bb in zip(r, b)]
        if not any(r):
            continue
        lead = next(i for i, x in enumerate(r) if x)
        inv = pow(r[lead], -1, p)
        r = [(x * inv) % p for x in r]
        for i, b in enumerate(basis):
            if b[lead]:
                c = b[lead]
                basis[i] = [(a - c * rr) % p for a, rr in zip(b, r)]
        basis.append(r)
    basis.sort(key=lambda b: next(i for i, x in enumerate(b) if x))
    return tuple(tuple(b) for b in basis)


def _dense_v_chain(G, X, p, depth):
    """Reference chain: rows f - f^g moved point by point, dense rref."""
    terms = generalized_derived_series(G).terms
    chain = [tuple(tuple(int(i == j) for j in range(X.size))
                   for i in range(X.size))]
    for i in range(depth):
        gens = terms[min(i, len(terms) - 1)].gens()
        chain.append(_dense_rref(p, [
            [f[x] - f[X.apply(x, g)] for x in range(X.size)]
            for f in chain[-1] for g in gens]))
    return chain


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rref_and_contains_match_the_dense_reference(p):
    rng = random.Random(p)
    for _ in range(200):
        k, n, density = rng.randint(1, 9), rng.randint(0, 12), rng.random()
        rows = [[rng.randrange(-p, 2 * p) if rng.random() < density else 0
                 for _ in range(k)] for _ in range(n)]
        want = _dense_rref(p, rows)
        assert rref(p, rows) == want
        space = FpSubspace.from_vectors(p, k, rows)
        assert space.basis == want
        for _ in range(4):
            vec = [rng.randrange(p) for _ in range(k)]
            if rows and rng.random() < 0.5:  # a vector of the span
                coeffs = [rng.randrange(p) for _ in rows]
                vec = [sum(c * r[j] for c, r in zip(coeffs, rows))
                       for j in range(k)]
            inside = len(_dense_rref(p, rows + [vec])) == len(want)
            assert space.contains(vec) == inside


@pytest.mark.parametrize("p", [2, 3])
def test_v_chain_matches_the_dense_reference_on_s5_regular(p):
    s5 = symmetric_group(5)
    x = coset_space(s5, trivial_subgroup(s5))
    chain = v_chain(s5, x, p, 2)
    assert [v.dim for v in chain] == [120, 119, 118]
    assert [v.basis for v in chain] == _dense_v_chain(s5, x, p, 2)


def test_rref_canonical():
    # two spanning sets of the same subspace give identical bases
    a = rref(2, [(1, 1, 0), (0, 1, 1)])
    b = rref(2, [(1, 0, 1), (0, 1, 1), (1, 1, 0)])
    assert a == b
    assert FpSubspace.from_vectors(2, 3, [(1, 1, 0), (0, 1, 1)]) == \
        FpSubspace.from_vectors(2, 3, [(1, 0, 1), (1, 1, 0)])


def test_rref_pivots_increasing():
    basis = rref(3, [(2, 1, 0), (1, 1, 1), (0, 2, 1)])
    leads = [next(i for i, x in enumerate(row) if x) for row in basis]
    assert leads == sorted(leads)
    for row in basis:
        lead = next(i for i, x in enumerate(row) if x)
        assert row[lead] == 1


def test_subspace_contains():
    s = FpSubspace.from_vectors(2, 3, [(1, 1, 0)])
    assert s.contains((1, 1, 0))
    assert not s.contains((1, 0, 0))
    assert s.contains((0, 0, 0))


def test_linear_action_validates_representation():
    c3 = cyclic_group(3)
    # the transvection has order 2 over F2, so it cannot represent C3
    with pytest.raises(NotAnAction):
        LinearAction(c3, 2, 2, [((1, 1), (0, 1))])
    act = LinearAction(c3, 2, 2, [((0, 1), (1, 1))])
    assert len(act.matrices) == 3


def test_linear_action_rejects_singular():
    c2 = cyclic_group(2)
    with pytest.raises(NotAnAction):
        LinearAction(c2, 2, 2, [((1, 1), (1, 1))])


def test_irreducibility_examples():
    c3 = cyclic_group(3)
    act = LinearAction(c3, 2, 2, [((0, 1), (1, 1))])
    assert is_irreducible(act)
    c1 = cyclic_group(1)
    triv = LinearAction(c1, 2, 2, [])
    assert not is_irreducible(triv)
    one_dim = LinearAction(cyclic_group(2), 3, 1, [((2,),)])
    assert is_irreducible(one_dim)


def test_irreducibility_cap():
    c2 = cyclic_group(2)
    ident = tuple(tuple(1 if i == j else 0 for j in range(21))
                  for i in range(21))
    act = LinearAction(c2, 2, 21, [ident])
    with pytest.raises(DimensionTooLarge):
        is_irreducible(act)


def test_coinvariant_span_cases():
    c3 = cyclic_group(3)
    irred = LinearAction(c3, 2, 2, [((0, 1), (1, 1))])
    assert coinvariant_span(irred).dim == 2
    c1 = cyclic_group(1)
    triv = LinearAction(c1, 2, 2, [])
    assert coinvariant_span(triv).dim == 0
    inv = LinearAction(cyclic_group(2), 3, 1, [((2,),)])
    assert coinvariant_span(inv).dim == 1


def test_vector_group():
    v = vector_group(2, 2)
    assert v.order == 4
    assert v.labels[0] == "(0,0)"


def test_gset_validation(s3):
    with pytest.raises(NotAnAction):
        GSet(s3, 2, [(0, 1), (0, 0)])


def test_gset_rejects_images_that_break_a_relation(s3):
    # both images are permutations, but the generator of order 3 is sent
    # to a transposition, so its cube is not the identity
    images = [(1, 0, 2) if s3.element_order(g) == 3 else (0, 2, 1)
              for g in s3.generators]
    assert sorted(s3.element_order(g) for g in s3.generators) == [2, 3]
    with pytest.raises(NotAnAction, match="do not define an action"):
        GSet(s3, 3, images)


def test_coset_space(s4):
    g0 = subgroup_generated(
        s4, [next(i for i in range(24) if s4.element_order(i) == 4)])
    x = coset_space(s4, g0)
    assert x.size == 6
    assert x.apply(0, 0) == 0  # identity fixes everything
    regular = coset_space(s4, trivial_subgroup(s4))
    assert regular.size == 24
    point = coset_space(s4, full_subgroup(s4))
    assert point.size == 1


def test_v_chain_c2():
    c2 = cyclic_group(2)
    x = coset_space(c2, trivial_subgroup(c2))
    dims = [v.dim for v in v_chain(c2, x, 2, 2)]
    assert dims == [2, 1, 0]


@pytest.mark.parametrize("p", [0, 1, 4, 6, 9])
def test_v_chain_refuses_a_p_that_is_not_a_prime(p):
    c4 = cyclic_group(4)
    x = coset_space(c4, trivial_subgroup(c4))
    with pytest.raises(ValueError, match=f"p must be a prime, got {p}"):
        v_chain(c4, x, p, 2)


def test_v_chain_trivial_group():
    c1 = cyclic_group(1)
    x = GSet(c1, 4, [])
    dims = [v.dim for v in v_chain(c1, x, 2, 1)]
    assert dims == [4, 0]


def test_v_chain_a4(a4):
    c3elt = next(i for i in range(12) if a4.element_order(i) == 3)
    g0 = subgroup_generated(a4, [c3elt])
    x = coset_space(a4, g0)
    chain = v_chain(a4, x, 2, 2)
    assert chain[2].dim > 0
    # descending chain
    for big, small in zip(chain, chain[1:]):
        assert big.contains_space(small)
        assert big.dim >= small.dim


def test_orbit_hypothesis(a4):
    c2 = cyclic_group(2)
    x = coset_space(c2, trivial_subgroup(c2))
    assert orbit_hypothesis(c2, x, 0)
    single = GSet(a4, 1, [(0,)] * len(a4.generators))
    assert not orbit_hypothesis(a4, single, 0)
    c3elt = next(i for i in range(12) if a4.element_order(i) == 3)
    g0 = subgroup_generated(a4, [c3elt])
    assert orbit_hypothesis(a4, coset_space(a4, g0), 1)


def test_unipotent_derived_length():
    assert unipotent_derived_length(2, 5) == 1
    assert unipotent_derived_length(3, 2) == 2
    assert unipotent_derived_length(4, 3) <= 3


def test_linear_action_two_generators():
    from aslkit.core import direct_product
    v4 = direct_product(cyclic_group(2), cyclic_group(2))
    act = LinearAction(v4, 3, 2, [((2, 0), (0, 1)), ((1, 0), (0, 2))])
    assert not is_irreducible(act)   # both axes are invariant lines
    assert coinvariant_span(act).dim == 2

"""Composed groups multiply on indices; these tests recompute every product
from element values and the factors' own products."""

import pytest
from group_strategies import perm_groups
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from aslkit.catalog import catalog
from aslkit.core import (
    Group,
    GroupAction,
    Homomorphism,
    Subgroup,
    direct_product_many,
    group_from_perm_generators,
    normal_closure,
    perm_from_cycles,
    product_embedding,
    product_projection,
    quotient,
    semidirect_product,
    subgroup_generated,
)
from aslkit.errors import NotAnAction, NotAutomorphisms
from aslkit.families import alternating_group, cyclic_group, symmetric_group
from aslkit.fpmod import LinearAction, as_group_action
from aslkit.normal import all_normal_subgroups
from aslkit.series import SeriesReport, generalized_derived_series
from aslkit.wreath import twisted_wreath_product

SETTINGS = settings(derandomize=True, max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.filter_too_much])


def _check(G, product, inverse):
    """G.mul, G.product() and G.inv on every index against the value-level
    rules."""
    index = {G.value(k): k for k in range(G.order)}
    raw = G.product()
    for i in range(G.order):
        vi = G.value(i)
        assert G.inv(i) == index[inverse(vi)], (G.name, i)
        for j in range(G.order):
            assert G.mul(i, j) == index[product(vi, G.value(j))], \
                (G.name, i, j)
            assert raw(i, j) == G.mul(i, j), (G.name, i, j)


def _check_semidirect(W, N, H, app):
    def product(a, b):
        return (N.mul(app(a[0], b[1]), b[0]), H.mul(a[1], b[1]))

    def inverse(a):
        hi = H.inv(a[1])
        return (app(N.inv(a[0]), hi), hi)

    _check(W, product, inverse)


def _conjugation_action(G, N, H):
    """H.as_group() acting on N.as_group() by conjugation inside G."""
    Ng, Hg = N.as_group(), H.as_group()
    pos = {p: k for k, p in enumerate(N.members)}

    def apply(n, h):
        return pos[G.conj(N.members[n], H.members[h])]

    return GroupAction(Hg, Ng, apply)


@SETTINGS
@given(st.integers(1, 3).flatmap(
    lambda k: st.lists(perm_groups(max_degree=(5, 4, 3)[k - 1]),
                       min_size=k, max_size=k)))
def test_direct_products_multiply_factorwise(factors):
    P = direct_product_many(factors)
    assume(P.order <= 300)

    def product(a, b):
        return tuple(f.mul(x, y) for f, x, y in zip(factors, a, b))

    def inverse(a):
        return tuple(f.inv(x) for f, x in zip(factors, a))

    _check(P, product, inverse)


@SETTINGS
@given(perm_groups(max_degree=5), st.data())
def test_semidirect_products_under_conjugation(G, data):
    x = data.draw(st.integers(0, G.order - 1))
    y = data.draw(st.integers(0, G.order - 1))
    N = normal_closure(G, [x])
    H = subgroup_generated(G, [y])
    act = _conjugation_action(G, N, H)
    W = semidirect_product(act.space, act.actor, act)
    _check_semidirect(W, act.space, act.actor, act.apply)


def test_semidirect_products_under_fixed_nontrivial_actions():
    """C3 x| C2 by inversion and F2^2 x| C3 as in the nontrivial-action
    suite."""
    c3, c2 = cyclic_group(3), cyclic_group(2)
    inversion = GroupAction(c2, c3, lambda a, t: a if t == 0 else c3.inv(a))
    s3 = symmetric_group(3)
    c3elt = next(i for i in range(6) if s3.element_order(i) == 3)
    g0 = subgroup_generated(s3, [c3elt])
    lin = as_group_action(
        LinearAction(g0.as_group(), 2, 2, [((0, 1), (1, 1))]))
    for act in (inversion, lin):
        assert not act.is_trivial()
        W = semidirect_product(act.space, act.actor, act)
        _check_semidirect(W, act.space, act.actor, act.apply)


@SETTINGS
@given(perm_groups(max_degree=5), st.data())
def test_quotients_multiply_coset_representatives(G, data):
    N = data.draw(st.sampled_from(list(all_normal_subgroups(G))))
    Q, _ = quotient(G, N)

    def coset_rep(g):
        return min(G.mul(g, n) for n in N.members)

    _check(Q, lambda a, b: coset_rep(G.mul(a, b)),
           lambda a: coset_rep(G.inv(a)))


@SETTINGS
@given(perm_groups(max_degree=5), st.data())
def test_materialized_subgroups_multiply_in_the_parent(G, data):
    seeds = data.draw(st.lists(st.integers(0, G.order - 1), max_size=2))
    H = subgroup_generated(G, seeds).as_group()
    _check(H, G.mul, G.inv)


@SETTINGS
@given(perm_groups(max_degree=4), perm_groups(max_degree=3), st.data())
def test_nested_quotient_and_subgroup_of_a_product(A, B, data):
    """Q = (A x B)/N and a materialized subgroup of Q, each checked against
    products recomputed factor by factor from the element values."""
    P = direct_product_many([A, B])
    N = data.draw(st.sampled_from(list(all_normal_subgroups(P))))
    Q, _ = quotient(P, N)

    def pmul(i, j):
        return P.index_of(tuple(f.mul(x, y) for f, x, y
                                in zip(P.factors, P.value(i), P.value(j))))

    def pinv(i):
        return P.index_of(tuple(f.inv(x) for f, x
                                in zip(P.factors, P.value(i))))

    def coset_rep(g):
        return min(pmul(g, n) for n in N.members)

    def qmul(a, b):
        return coset_rep(pmul(a, b))

    def qinv(a):
        return coset_rep(pinv(a))

    _check(Q, qmul, qinv)
    seeds = data.draw(st.lists(st.integers(0, Q.order - 1), max_size=2))
    H = subgroup_generated(Q, seeds).as_group()
    _check(H, lambda x, y: Q.index_of(qmul(Q.value(x), Q.value(y))),
           lambda x: Q.index_of(qinv(Q.value(x))))


def test_leaf_product_fills_the_memo_present_when_it_is_called():
    """A memo swapped in after construction, as an instrumenting wrapper
    does, is the one the composed groups above the leaf fill."""
    leaf = group_from_perm_generators(3, ["(1 2 3)", "(1 2)"])
    memo = {}
    leaf._mul_cache = memo
    P = direct_product_many([leaf, cyclic_group(2)])
    P.mul(P.order - 1, P.order - 3)
    assert memo and leaf._mul_cache is memo


@SETTINGS
@given(perm_groups(max_degree=3), perm_groups(max_degree=4), st.data())
def test_twisted_wreath_products_with_nontrivial_action(A, G, data):
    """G0 = <c> acts on A by conjugation through c^e -> a^e, where the
    order of a divides the order of c."""
    c = data.draw(st.integers(1, G.order - 1)) if G.order > 1 else 0
    assume(c != 0)
    k = G.element_order(c)
    choices = [a for a in range(1, A.order) if k % A.element_order(a) == 0]
    assume(choices)
    a = data.draw(st.sampled_from(choices))
    G0 = subgroup_generated(G, [c])
    assume(A.order ** (G.order // G0.order) * G.order <= 216)
    G0g = G0.as_group()
    phi = [None] * G0g.order
    g, img = 0, 0
    for _ in range(k):
        phi[G0g.index_of(g)] = img
        g, img = G.mul(g, c), A.mul(img, a)
    act = GroupAction(G0g, A, lambda x, t: A.conj(x, phi[t]))
    assume(not act.is_trivial())
    act.validate()
    w = twisted_wreath_product(A, G, G0, act)
    Ind, reps = w.ind_group, w.reps
    g0_pos = {p: i for i, p in enumerate(G0.members)}

    def moved(f, s):
        # f^s(r_i) = f(s r_i) = f(r_j)^t for s r_i = r_j t, t in G0
        out = []
        for r in reps:
            x = G.mul(s, r)
            for j, rj in enumerate(reps):
                t = G.mul(G.inv(rj), x)
                if t in G0.member_set:
                    out.append(act.apply(f[j], g0_pos[t]))
                    break
        return tuple(out)

    _check(Ind, lambda f1, f2: tuple(map(A.mul, f1, f2)),
           lambda f: tuple(map(A.inv, f)))
    ind_index = {Ind.value(k): k for k in range(Ind.order)}
    for f in range(Ind.order):
        for s in range(G.order):
            assert w.action.apply(f, s) == ind_index[moved(Ind.value(f), s)]

    def product(x, y):
        f1, f2 = Ind.value(x[0]), Ind.value(y[0])
        f = tuple(map(A.mul, moved(f1, y[1]), f2))
        return (ind_index[f], G.mul(x[1], y[1]))

    def inverse(x):
        si = G.inv(x[1])
        f = tuple(map(A.inv, moved(Ind.value(x[0]), si)))
        return (ind_index[f], si)

    _check(w.group, product, inverse)


def _reachable_groups(root):
    """Groups reachable from root through factors and cached quotients,
    series terms and materialized subgroups."""
    seen = {}
    stack = [root]
    while stack:
        g = stack.pop()
        if id(g) in seen:
            continue
        seen[id(g)] = g
        found = list(getattr(g, "factors", ()))
        for v in g._cache.values():
            if isinstance(v, SeriesReport):
                v = v.terms
            found.extend(v if isinstance(v, tuple) else (v,))
        for x in found:
            if isinstance(x, Group):
                stack.append(x)
            elif isinstance(x, Subgroup) and x._as_group is not None:
                stack.append(x._as_group)
            elif isinstance(x, Homomorphism):
                stack.append(x.target)
    return list(seen.values())


def test_composed_groups_keep_no_product_memo():
    """After the series of S3 wr C2 and its factors only the leaf groups
    hold products."""
    s3, c2 = symmetric_group(3), cyclic_group(2)
    w = twisted_wreath_product(s3, c2, subgroup_generated(c2, []))
    W = w.group
    assert W.order == 72
    before = [[W.mul(i, j) for j in range(W.order)] for i in range(W.order)]
    generalized_derived_series(W).factors
    after = [[W.mul(i, j) for j in range(W.order)] for i in range(W.order)]
    assert after == before
    groups = _reachable_groups(W)
    kinds = {g.kind for g in groups}
    assert {"semidirect", "induced", "quotient", "subgroup"} <= kinds
    for g in groups:
        if g.kind in ("perm", "cyclic"):
            continue
        assert len(g._mul_cache) == 0, g.name
    assert len(s3._mul_cache) > 0


def test_materialized_series_terms_of_a_wreath_product():
    """S3 wr C2 is checked factor by factor from its element values, and
    each proper nontrivial term of its series, materialized, multiplies as
    its members do in the wreath product."""
    s3, c2 = symmetric_group(3), cyclic_group(2)
    w = twisted_wreath_product(s3, c2, subgroup_generated(c2, []))
    Ind, W = w.ind_group, w.group
    _check(Ind, lambda f1, f2: tuple(map(s3.mul, f1, f2)),
           lambda f: tuple(map(s3.inv, f)))
    _check_semidirect(W, Ind, c2, w.action.apply)
    terms = [t for t in generalized_derived_series(W).terms
             if not (t.is_full() or t.is_trivial())]
    assert [t.order for t in terms] == [18, 9]
    for term in terms:
        _check(term.as_group(), W.mul, W.inv)


def test_validate_rejects_a_map_wrong_at_one_element():
    """S6 (order 720): the sign map with one value flipped is rejected, and
    so is conjugation by a transposition altered at one element."""
    s6, c2 = symmetric_group(6), cyclic_group(2)
    sign = [_parity(s6.value(i)) for i in range(s6.order)]
    assert Homomorphism(s6, c2, sign).validate()
    for bad in (1, s6.order // 2, s6.order - 1):
        wrong = list(sign)
        wrong[bad] ^= 1
        assert not Homomorphism(s6, c2, wrong).validate()
    t = s6.index_of(perm_from_cycles(6, "(1 2)"))
    assert GroupAction(c2, s6, lambda a, h: s6.conj(a, t) if h else a
                       ).validate()
    for bad in (1, s6.order // 2, s6.order - 1):
        def broken(a, h, bad=bad):
            if not h:
                return a
            return 0 if a == bad else s6.conj(a, t)

        with pytest.raises((NotAnAction, NotAutomorphisms)):
            GroupAction(c2, s6, broken).validate()


def test_validate_rejects_a_projection_wrong_at_one_element():
    """A5 x A5 x C12 (order 43200): 10000 sampled pairs would touch the one
    wrong value with probability about 1/2."""
    big = direct_product_many([alternating_group(5), alternating_group(5),
                               cyclic_group(12)])
    proj = product_projection(big, 2)
    assert proj.validate()
    wrong = list(proj.mapping)
    wrong[big.order - 1] = (wrong[big.order - 1] + 1) % 12
    assert not Homomorphism(big, proj.target, wrong).validate()


def test_validate_accepts_catalog_embeddings_and_projections():
    checked = 0
    for _, g in catalog(200):
        for k in range(len(getattr(g, "factors", ()))):
            assert product_embedding(g, k).validate(), g.name
            assert product_projection(g, k).validate(), g.name
            checked += 1
    assert checked > 0
    a5 = alternating_group(5)
    big = direct_product_many([a5, cyclic_group(12)])
    assert big.order > 512
    for k in range(2):
        assert product_embedding(big, k).validate()
        assert product_projection(big, k).validate()


def _parity(perm):
    """0 for an even permutation, 1 for an odd one."""
    seen, parity = set(), 0
    for i in range(len(perm)):
        j = i
        while j not in seen:
            seen.add(j)
            j = perm[j]
            parity ^= j != i
    return parity

"""Derandomized differential tests: random permutation groups against the
brute-force oracle, and the paper's length laws on every lattice member.

Expected values come from `aslkit.oracle` and from element-level
arithmetic, never from the main path's class spans.
"""

import math

from group_strategies import perm_groups
from hypothesis import HealthCheck, given, settings

from aslkit.core import direct_product, quotient
from aslkit.normal import all_normal_subgroups
from aslkit.oracle import oracle_D, oracle_length, oracle_normal_subgroups
from aslkit.series import abelian_simple_length, generalized_derived_subgroup

SETTINGS = settings(derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@settings(SETTINGS, max_examples=150)
@given(perm_groups())
def test_main_path_matches_oracle(G):
    main_lat = sorted((s.order, s.members) for s in all_normal_subgroups(G))
    orc_lat = sorted((s.order, s.members) for s in oracle_normal_subgroups(G))
    assert main_lat == orc_lat
    assert generalized_derived_subgroup(G).member_set == \
        oracle_D(G).member_set
    lg = abelian_simple_length(G)
    assert lg == oracle_length(G)
    assert lg <= math.log2(G.order)


@settings(SETTINGS, max_examples=100)
@given(perm_groups())
def test_length_laws_on_every_normal_subgroup(G):
    """l(G/N) <= l(G), l(N) <= l(G) and l(G) <= l(N) + l(G/N)."""
    lg = abelian_simple_length(G)
    for nsub in all_normal_subgroups(G):
        ln = abelian_simple_length(nsub.as_group())
        lq = abelian_simple_length(quotient(G, nsub)[0])
        assert lq <= lg and ln <= lg and lg <= ln + lq, nsub.order


@settings(SETTINGS, max_examples=100)
@given(perm_groups(max_degree=4), perm_groups(max_degree=4))
def test_length_of_direct_product_is_the_max(A, B):
    """D(A x B) = D(A) x D(B), so l(A x B) = max(l(A), l(B))."""
    assert abelian_simple_length(direct_product(A, B)) == \
        max(oracle_length(A), oracle_length(B))

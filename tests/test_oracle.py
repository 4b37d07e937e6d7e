"""Brute-force oracle behavior and agreement with the main path."""

import pytest

from aslkit import oracle
from aslkit.core import direct_product
from aslkit.errors import TooManyClasses
from aslkit.families import alternating_group, cyclic_group, symmetric_group
from aslkit.oracle import oracle_D, oracle_length, oracle_normal_subgroups
from aslkit.series import abelian_simple_length, generalized_derived_subgroup


def test_oracle_normals_s4(s4):
    assert [s.order for s in oracle_normal_subgroups(s4)] == [1, 4, 12, 24]


def test_oracle_normals_q8(q8):
    assert [s.order for s in oracle_normal_subgroups(q8)] == \
        [1, 2, 4, 4, 4, 8]


def test_oracle_normals_simple(a5):
    assert [s.order for s in oracle_normal_subgroups(a5)] == [1, 60]


def test_oracle_class_cap():
    with pytest.raises(TooManyClasses):
        oracle_normal_subgroups(cyclic_group(18))
    # the cap is a parameter, not a hard limit
    assert len(oracle_normal_subgroups(cyclic_group(18), max_classes=18)) == 6


def test_oracle_enumerates_each_group_once(record_calls):
    """The lattice, D and the length of one group enumerate its class
    unions once; a cap below its class count still raises afterwards."""
    calls = record_calls(oracle, "_closed_class_masks")
    g = symmetric_group(4)
    assert oracle_normal_subgroups(g) is oracle_normal_subgroups(g)
    assert oracle_D(g).order == 12
    assert oracle_length(g, max_classes=24) == 3
    assert [G.order for G in calls].count(24) == 1
    c18 = cyclic_group(18)
    assert len(oracle_normal_subgroups(c18, max_classes=18)) == 6
    with pytest.raises(TooManyClasses):
        oracle_normal_subgroups(c18)


def test_oracle_d(s3, s4):
    assert oracle_D(s3).order == 3
    assert oracle_D(cyclic_group(9)).order == 1
    assert oracle_D(s4).order == 12


def test_oracle_length(s4, d4):
    assert oracle_length(cyclic_group(1)) == 0
    assert oracle_length(s4) == 3
    assert oracle_length(d4) == 2


def test_agreement_on_samples(s3, s4, q8, d4, v4, c6):
    groups = [s3, s4, q8, d4, v4, c6, alternating_group(4),
              symmetric_group(5), direct_product(s3, c6)]
    for g in groups:
        assert generalized_derived_subgroup(g).member_set == \
            oracle_D(g, max_classes=100).member_set
        assert abelian_simple_length(g) == oracle_length(g, max_classes=100)


def test_d_agreement_wide():
    """D equality across the order <= 100 catalog, up to 40 classes.

    The remaining high-class-count members (large abelian products) agree
    too but take the exponential oracle over a minute combined; they are
    exercised in the order <= 100, <= 16-class acceptance sweep instead.
    """
    from aslkit.catalog import catalog
    from aslkit.core import conjugacy_classes
    for name, g in catalog(100):
        if len(conjugacy_classes(g)) > 40:
            continue
        assert generalized_derived_subgroup(g).member_set == \
            oracle_D(g, max_classes=100).member_set, name


def test_closed_class_masks_bruteforce():
    """The pruned search returns every identity-containing union of classes
    that is closed under the class-product table, and nothing else."""
    from aslkit.catalog import catalog
    from aslkit.core import conjugacy_classes
    from aslkit.oracle import _class_product_masks, _closed_class_masks
    checked = 0
    for name, g in catalog():
        c = len(conjugacy_classes(g))
        if c > 10:
            continue
        table = _class_product_masks(g)
        ref = []
        for rest in range(1 << (c - 1)):
            mask = rest << 1 | 1
            inside = [i for i in range(c) if mask >> i & 1]
            if all(table[i][j] | mask == mask
                   for i in inside for j in inside):
                ref.append(mask)
        assert _closed_class_masks(g, 10) == ref, name
        checked += 1
    assert checked > 100

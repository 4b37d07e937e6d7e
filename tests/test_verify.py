"""The verify runner's collector scope: each case's survivors are frozen
while the suite runs, and the collector is left as the caller had it; and
the subgroups the `trvrep` sweep checks."""

import gc

import pytest

from aslkit.catalog import catalog
from aslkit.core import subgroup_generated
from aslkit.errors import NotNormal
from aslkit.verify import _run_cases, _trvrep_subgroups, run_suite


def test_suite_leaves_nothing_frozen():
    assert gc.get_freeze_count() == 0
    res = run_suite("quotient-law", max_order=12)
    assert res.ok and res.cases
    assert gc.get_freeze_count() == 0


def test_survivors_are_frozen_between_cases():
    kept, seen = [], []

    def allocate():
        kept.append([{} for _ in range(100)])
        return True, "allocated"

    def look():
        seen.append(gc.get_freeze_count())
        return True, "looked"

    res = _run_cases("claim", "suite", [("a", allocate), ("b", look)])
    assert [c.id for c in res.cases] == ["a", "b"]
    assert seen[0] >= 100
    assert gc.get_freeze_count() == 0


def test_unfrozen_when_a_case_raises():
    def fails():
        raise NotNormal("reported as a failed case")

    def crashes():
        raise RuntimeError("not a toolkit error")

    with pytest.raises(RuntimeError):
        _run_cases("claim", "suite",
                   [("a", fails), ("b", lambda: (True, "")), ("c", crashes)])
    assert gc.get_freeze_count() == 0
    res = _run_cases("claim", "suite", [("a", fails)])
    assert not res.ok and res.cases[0].detail.startswith("NotNormal")
    assert gc.get_freeze_count() == 0


def test_caller_freeze_is_left_alone():
    kept = []

    def allocate():
        kept.append([{} for _ in range(100)])
        return True, "allocated"

    gc.freeze()
    try:
        before = gc.get_freeze_count()
        _run_cases("claim", "suite", [("a", allocate), ("b", allocate)])
        assert gc.get_freeze_count() == before
    finally:
        gc.unfreeze()


def test_trvrep_takes_one_cyclic_subgroup_per_conjugacy_class():
    """Against brute force: every cyclic subgroup conjugated by every
    element gives the conjugacy classes of cyclic subgroups; the sweep
    takes one member of each, then the whole group unless it is cyclic."""
    for name, g in catalog(24):
        cyclic = {subgroup_generated(g, [x]).member_set
                  for x in range(g.order)}
        classes = {frozenset(frozenset(g.conj(y, t) for y in c)
                             for t in range(g.order))
                   for c in cyclic}
        subs = [s.member_set for s in _trvrep_subgroups(g)]
        full = frozenset(range(g.order))
        if full not in cyclic:
            assert subs[-1] == full, name
            subs.pop()
        assert len(subs) == len(classes), name
        assert all(sum(s in cls for s in subs) == 1 for cls in classes), name

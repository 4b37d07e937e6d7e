"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from aslkit.core import cycle_label, group_from_perm_generators


@st.composite
def perm_groups(draw, max_degree=6):
    """Permutation group of degree <= max_degree on one or two generators.

    The degree is drawn downward from max_degree: Hypothesis favours small
    draws, and drawn upward half the examples were groups of order 1 or 2."""
    degree = max_degree - draw(st.integers(0, max_degree - 1))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1,
                         max_size=2))
    return group_from_perm_generators(
        degree, [cycle_label(tuple(g)) for g in gens])

"""Mini-language parsing, unparse stability, label resolution."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aslkit.cli import run
from aslkit.core import cycle_label
from aslkit.errors import (
    CapExceeded,
    GroupSpecError,
    MalformedCycle,
    NotAFieldElement,
    ToolkitError,
    UnknownConstructor,
)
from aslkit.specparse import (
    Named,
    PermSpec,
    ProdSpec,
    QuotSpec,
    evaluate,
    group_from_spec,
    parse_group_spec,
    resolve_label,
    unparse,
)


CASES = [
    ("S4", 24),
    ("A5", 60),
    ("C1", 1),
    ("C32", 32),
    ("D16", 32),
    ("Q8", 8),
    ("D2", 4),
    ("perm(5; (1 2 3 4 5), (1 2))", 120),
    ("perm(4; (1 2)(3 4), (1 3)(2 4))", 4),
    ("C2 x A5", 120),
    ("S3 x C2 x C2", 24),
    ("(C2 x C2) x C3", 12),
    ("GL(2,2)", 6),
    ("SL(2,5)", 120),
    ("U(3,3)", 27),
    ("GLZ(2,3,2)", 3888),
    ("mat(F2; [[0, 1], [1, 1]])", 3),
    ("mat(Z4; [[1, 1], [0, 1]])", 4),
    ("S4 / normal-closure-of((1 2)(3 4))", 6),
    ("S4 / normal-closure-of((1 2 3))", 2),
    ("C6 / normal-closure-of(2)", 2),
]


@pytest.mark.parametrize("text,order", CASES)
def test_parse_evaluate(text, order):
    g = group_from_spec(text)
    assert g.order == order


@pytest.mark.parametrize("text,order", CASES)
def test_unparse_idempotent(text, order):
    once = unparse(parse_group_spec(text))
    twice = unparse(parse_group_spec(once))
    assert once == twice


def test_unparse_normalizes_whitespace():
    assert unparse(parse_group_spec("C2   x   A5")) == "C2 x A5"
    assert unparse(parse_group_spec("perm(3;(1 2 3))")) == "perm(3; (1 2 3))"


def test_parse_errors_carry_position():
    with pytest.raises(GroupSpecError) as err:
        parse_group_spec("S4 )")
    assert err.value.column == 4
    with pytest.raises(UnknownConstructor):
        parse_group_spec("B7")
    with pytest.raises(GroupSpecError):
        parse_group_spec("GL(2)")
    with pytest.raises(MalformedCycle):
        evaluate(parse_group_spec("perm(3; (1 2 2))"))


@pytest.mark.parametrize("text, entry, line, column", [
    ("mat(F4; [[6]])", 6, 1, 11),
    ("mat(F9; [[1, 0],\n [0, 9]])", 9, 2, 6),
    ("mat(F8; [[1]], [[8]])", 8, 1, 18),
])
def test_entry_outside_a_proper_prime_power_field_is_refused(
        text, entry, line, column):
    """In F q, q = p^e with e > 1, an integer stands for a field element
    only through its base-p digits, so reducing it mod q is no field map:
    an entry from q on is a usage error at its own position."""
    with pytest.raises(NotAFieldElement) as err:
        parse_group_spec(text)
    assert isinstance(err.value, GroupSpecError)
    assert (err.value.line, err.value.column) == (line, column)
    assert f"entry {entry} is not an element" in str(err.value)
    assert run(["normals", text])[1] == 2


def test_prime_fields_and_residue_rings_reduce_entries():
    """Z -> F p and Z -> Z m are ring maps, so there an entry is reduced."""
    for big, small in (("F2; [[0, 3], [1, 1]]", "F2; [[0, 1], [1, 1]]"),
                       ("F5; [[7, 5], [0, 1]]", "F5; [[2, 0], [0, 1]]"),
                       ("Z9; [[10, 3], [0, 1]]", "Z9; [[1, 3], [0, 1]]")):
        g = group_from_spec(f"mat({big})")
        h = group_from_spec(f"mat({small})")
        assert g.order == h.order > 1
        assert list(map(g.value, g.elements())) == \
            list(map(h.value, h.elements()))


def test_quotient_label_resolution():
    s4 = group_from_spec("S4")
    assert s4.label(resolve_label(s4, "(2 1)")) == "(1 2)"
    c6 = group_from_spec("C6")
    assert resolve_label(c6, "4") == 4
    with pytest.raises(GroupSpecError):
        resolve_label(s4, "(1 9)")


def test_quotient_spec_by_labels():
    q = group_from_spec("Q8 / normal-closure-of(-1)")
    assert q.order == 4
    # the chosen matrix is I + 2*[[1,1],[1,1]]; its normal closure has order 8
    g = group_from_spec("GLZ(2,2,2) / normal-closure-of([[3, 2], [2, 3]])")
    assert g.order == 12


DOC_EXAMPLES = [
    "S4",
    "S3",
    "C2 x A5",
    "C6 x A5",
    "GL(2,2)",
    "perm(5; (1 2 3 4 5), (1 2))",
    "S4 / normal-closure-of((1 2)(3 4))",
]


def test_readme_examples_roundtrip():
    """Every example spec shown in the README parses, evaluates, and
    unparses stably."""
    from pathlib import Path
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text()
    for spec in DOC_EXAMPLES:
        assert spec in text, f"{spec!r} missing from README"
        node = parse_group_spec(spec)
        assert evaluate(node).order >= 1
        assert unparse(parse_group_spec(unparse(node))) == unparse(node)


SETTINGS = settings(derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
SMALL_CAP = 2000

NAMED = st.one_of(
    st.builds(lambda c, n: Named(c, (n,)), st.sampled_from("CD"),
              st.integers(1, 12)),
    st.builds(lambda c, n: Named(c, (n,)), st.sampled_from("SA"),
              st.integers(1, 5)),
    st.sampled_from([Named("Q", (8,)), Named("GL", (2, 3)),
                     Named("SL", (2, 5)), Named("U", (3, 2)),
                     Named("GLZ", (2, 2, 2))]))


@st.composite
def perm_specs(draw):
    degree = 5 - draw(st.integers(0, 4))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1,
                         max_size=2))
    return PermSpec(degree, tuple(cycle_label(tuple(g)) for g in gens))


@st.composite
def quotients(draw, base):
    """base / normal-closure-of(labels) with labels of base's elements, or
    base itself when base is past SMALL_CAP."""
    try:
        labels = evaluate(base, closure_cap=SMALL_CAP).labels
    except CapExceeded:
        return base
    return QuotSpec(base, tuple(draw(st.lists(st.sampled_from(labels),
                                              min_size=1, max_size=2))))


ATOMS = st.one_of(NAMED, perm_specs())
FACTORS = st.one_of(ATOMS, ATOMS.flatmap(quotients))


@st.composite
def specs(draw):
    """Named families, perm groups, products of up to three factors (a
    factor may be a quotient), and quotients of all of these."""
    factors = draw(st.lists(FACTORS, min_size=1, max_size=3))
    node = factors[0] if len(factors) == 1 else ProdSpec(tuple(factors))
    return draw(quotients(node)) if draw(st.booleans()) else node


@settings(SETTINGS, max_examples=100)
@given(specs())
def test_unparse_parse_round_trip(node):
    text = unparse(node)
    assert unparse(parse_group_spec(text)) == text
    assert parse_group_spec(text) == node


@settings(SETTINGS, max_examples=150)
@given(specs(), st.data())
def test_corrupted_specs_fail_with_toolkit_errors_only(node, data):
    """One character deleted, replaced or inserted: the spec parses, or
    fails with a positioned GroupSpecError and CLI exit code 2; evaluating
    what parses raises nothing but a ToolkitError."""
    text = unparse(node)
    i = data.draw(st.integers(0, len(text) - 1))
    ch = data.draw(st.sampled_from("0123456789()[],;x/ -CDSAQGLUZFperm"))
    bad = data.draw(st.sampled_from([text[:i] + text[i + 1:],
                                     text[:i] + ch + text[i + 1:],
                                     text[:i] + ch + text[i:]]))
    try:
        mutated = parse_group_spec(bad)
    except GroupSpecError as exc:
        assert 1 <= exc.line and 1 <= exc.column <= len(bad) + 1
        assert f"(line {exc.line}, column {exc.column})" in str(exc)
        assert run(["length", bad])[1] == 2
        return
    try:
        evaluate(mutated, closure_cap=SMALL_CAP)
    except ToolkitError:
        pass
